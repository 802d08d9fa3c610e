"""Run one ``repro`` CLI invocation with the layer tracer installed.

Usage::

    python perfbench/traced_main.py REPORT.json [--cprofile] -- ARGV...

installs :class:`tracer.Tracer`, imports ``repro.__main__`` and calls
``main(ARGV)`` in this fresh interpreter, exactly as ``python -m repro
ARGV...`` would.  The layer report goes to ``REPORT.json``; stdout and
stderr are the program's own.  With ``--cprofile`` the call also runs
under cProfile and the report lists every wrapped entry point whose
span count differs from cProfile's call count (``mismatches``).
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, profile_mismatches


def run(report_path: str, argv, cprofile: bool = False) -> int:
    tracer = Tracer()
    tracer.install()
    profiler = None
    if cprofile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        import repro.__main__ as cli

        main = tracer.wrap("cli", cli.main, "repro.__main__.main")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if profiler is not None:
            profiler.disable()
    tracer.uninstall()
    report = tracer.report()
    if profiler is not None:
        profiler.create_stats()
        report["mismatches"] = profile_mismatches(
            report["targets"], profiler.stats
        )
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


def main(args) -> int:
    if len(args) < 2 or "--" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    split = args.index("--")
    options = args[:split]
    return run(options[0], args[split + 1 :], cprofile="--cprofile" in options)


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    raise SystemExit(code)
