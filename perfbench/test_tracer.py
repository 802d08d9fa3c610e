"""The out-of-process tracer: span arithmetic and the cProfile cross-check.

The cross-check runs one ``paper_cold`` and one ``scenario_sweep``
invocation under ``traced_main.py --cprofile``: every wrapped entry
point's span count must equal cProfile's call count for the function
underneath.  A binding the tracer missed would show as more profiled
calls than spans, which the last test provokes on purpose.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import pytest

import run
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    t = tracer.Tracer()
    outer = t.enter("core.problem")
    clock.now += 1.0
    inner = t.enter("errors.probability")
    clock.now += 2.0
    scipy = t.enter("import.scipy")
    clock.now += 4.0
    t.exit(scipy)
    t.exit(inner)
    nested = t.enter("core.problem")  # same layer, nested
    clock.now += 0.5
    t.exit(nested)
    t.exit(outer)
    assert t.calls["core.problem"] == 2
    assert t.busy_s["core.problem"] == 7.5  # the nested span counts once
    assert t.self_s["core.problem"] == 1.5
    assert t.busy_s["errors.probability"] == 6.0
    assert t.self_s["errors.probability"] == 2.0
    assert t.self_s["import.scipy"] == 4.0
    assert t.covered_s == 7.5


def _traced(tmp_path, argv, env):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "traced_main.py"), str(report),
         "--cprofile", "--", *argv],
        env=env,
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, json.loads(report.read_text())


def _calls(report, layer):
    return report["layers"][layer]["calls"]


@pytest.mark.parametrize("workload", ["paper_cold", "scenario_sweep"])
def test_span_counts_match_cprofile(tmp_path, workload):
    if workload == "paper_cold":
        argv = ["run", "all", "--jobs", str(run.JOBS)]
        env = run.base_env()
        expected = run.load_expected()["paper_cold"]["run all"]
    else:
        argv = ["run", "fig_6_18", "--cache-dir", str(tmp_path / "cache")]
        env = run.scenario_env(run.DEFAULT_SEED)
        expected = run.load_expected()["scenario_sweep"]["run fig_6_18"]
    stdout, report = _traced(tmp_path, argv, env)
    assert report["mismatches"] == []
    assert run.Invocation("", 0, 0, 0, stdout, "").digest == expected
    for layer in ("cli", "experiments", "engine.executor", "engine.backends",
                  "engine.store.get", "engine.store.put", "serialization",
                  "import.repro", "import.numpy"):
        assert _calls(report, layer) > 0, layer
    if workload == "paper_cold":
        assert _calls(report, "circuit.spice") > 0
    else:
        assert _calls(report, "circuit.spice") == 0
        for layer in ("engine.cells", "core.problem", "errors.probability",
                      "core.poly", "core.online", "import.scipy"):
            assert _calls(report, layer) > 0, layer


def test_missed_binding_fails_the_cross_check(tmp_path):
    """Hide the online solver from the tracer: cProfile must notice."""
    script = textwrap.dedent(
        f"""
        import cProfile, json, sys
        sys.path.insert(0, {str(run.BENCH_DIR)!r})
        import tracer
        t = tracer.Tracer()
        t.install()
        profiler = cProfile.Profile()
        profiler.enable()
        import repro.__main__ as cli
        from repro.core import schemes
        entry = schemes.SCHEME_REGISTRY.get("online")
        # a registry entry still bound to the unwrapped solver
        object.__setattr__(entry, "solver", entry.solver.__perfbench_original__)
        cli.main(["run", "fig_6_18"])
        profiler.disable()
        profiler.create_stats()
        report = t.report()
        print(json.dumps(tracer.profile_mismatches(report["targets"], profiler.stats)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=run.base_env(),
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    mismatches = json.loads(proc.stdout.splitlines()[-1])
    assert len(mismatches) == 1
    assert "run_online_interval" in mismatches[0]
