#!/usr/bin/env python3
"""The repository benchmark: the paper's evaluation as CLI subprocesses.

Every invocation is a fresh ``python -m repro ...`` process, run one
after another by a single client (a closed loop).  No process uses more
``--jobs`` than the machine has cores.  Each invocation's output is
checked.  See ``perfbench/README.md`` for the workloads and metrics.

One workload, with one JSON line last on stdout (the form BENCHMARK.json
names)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced passes with traced ones (every
invocation run by ``traced_main.py``) and reports the per-layer
metrics.

Summary for people::

    python3 perfbench/run.py [--seconds S] [--seed N] [--layers]

runs every workload and prints each end-to-end metric with its unit;
``--layers`` adds the traced per-layer table.  ``--write-expected``
regenerates ``expected.json`` from the current code: a deliberate act,
for when the figures' output is meant to change.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from scenarios import SCENARIOS, SEED_ENV

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: Scratch space for outputs, traces and cache dirs (removed at exit).
WORK_ROOT = ROOT / ".perfbench-work"

DEFAULT_SEED = 0
#: ``paper_cold``'s process pool: 2 workers, never more than cores.
JOBS = max(1, min(2, os.cpu_count() or 1))
INVOCATION_TIMEOUT_S = 150.0
STAGES = ("decode", "simple_alu", "complex_alu")
SPLASH2 = 7

EXPERIMENTS = (
    "table_5_1",
    "fig_1_2",
    "fig_3_5",
    "fig_3_6",
    "fig_4_7",
    "fig_5_10",
    "fig_6_11",
    "fig_6_12",
    "fig_6_13",
    "fig_6_14",
    "fig_6_15",
    "fig_6_16",
    "fig_6_17",
    "fig_6_18",
    "sec_6_3",
    "headline",
)
ABLATIONS = (
    "sampling_budget",
    "heterogeneity",
    "replay_penalty",
    "voltage_levels",
    "leakage",
    "sync_topology",
    "process_variation",
)
#: One command per experiment id and per ablation id.
ID_COMMANDS = tuple(f"run {name}" for name in EXPERIMENTS) + tuple(
    f"ablation {name}" for name in ABLATIONS
)
PAPER_COMMANDS = ("run all", "ablation all")
#: ``scenario_sweep``'s commands, in order, against one cache dir.
SWEEP_COMMANDS = (
    ("run fig_6_18", "run headline")
    + tuple(f"run fig_6_1{i}" for i in range(1, 7))
    + tuple(f"ablation {name}" for name in ABLATIONS)
)
#: The sweep commands whose output depends on the registered scenarios.
SCENARIO_COMMANDS = ("run fig_6_18", "run headline")

#: Set-ups before the first pass; ``setup_s`` is the median of all.
SETUP_REPEATS = 3
#: Further set-ups after each pass, so the samples span the whole run
#: rather than one moment of the host's speed (probe-only set-ups).
SETUPS_PER_PASS = {"paper_cold": 2, "scenario_sweep": 3, "warm_rerun": 0}

END_TO_END = (
    ("wall_s", "s"),
    ("invocation_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class SetupError(RuntimeError):
    """A set-up step failed; the run cannot measure the workload."""


# ----------------------------------------------------------------------
# running one invocation
# ----------------------------------------------------------------------
@dataclass
class Invocation:
    """One finished CLI process."""

    command: str
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    report: Optional[dict] = None
    error: Optional[str] = None

    @property
    def digest(self) -> str:
        return _sha256(self.stdout)


class Runner:
    """Runs CLI invocations with outputs captured under one work dir."""

    def __init__(self, work: Path):
        self.work = work
        self._n = 0
        work.mkdir(parents=True, exist_ok=True)

    def scratch_dir(self, prefix: str) -> Path:
        self._n += 1
        path = self.work / f"{prefix}-{self._n}"
        path.mkdir(parents=True)
        return path

    def invoke(
        self,
        command: str,
        env: Dict[str, str],
        extra: tuple = (),
        traced: bool = False,
    ) -> Invocation:
        """Run ``repro <command> <extra>`` to completion and time it."""
        self._n += 1
        out = self.work / f"out-{self._n}"
        err = self.work / f"err-{self._n}"
        report = self.work / f"trace-{self._n}.json"
        argv = command.split() + list(extra)
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_main.py")]
            cmd += [str(report), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd,
                stdout=stdout,
                stderr=stderr,
                env=env,
                cwd=ROOT,
                start_new_session=True,
            )
            timer = threading.Timer(
                INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        # pool workers share the process group; none may outlive it
        _kill_group(proc.pid)
        result = Invocation(
            command=command,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=code,
            stdout=out.read_text(),
            stderr=err.read_text(),
        )
        if code != 0:
            result.error = f"exit code {code}: {result.stderr[-300:]}"
        elif traced:
            result.report = json.loads(report.read_text())
        return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def base_env() -> Dict[str, str]:
    """The caller's environment minus anything steering ``repro``."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PERFBENCH_"))
        and key not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_digest(expected: str) -> Callable[[Invocation], Optional[str]]:
    def check(inv: Invocation) -> Optional[str]:
        if inv.digest != expected:
            return f"stdout digest {inv.digest[:12]} != expected {expected[:12]}"
        return None

    return check


def _table_rows(text: str, width: int) -> List[List[str]]:
    rows = []
    for line in text.splitlines():
        cells = line.split()
        if len(cells) == width and cells[0] in STAGES:
            rows.append(cells)
    return rows


def check_fig_6_18(inv: Invocation) -> Optional[str]:
    """Fig. 6.18's own invariants, for any seed."""
    rows = _table_rows(inv.stdout, 5)
    if len(rows) != len(STAGES) * (SPLASH2 + SCENARIOS):
        return f"fig_6_18 has {len(rows)} rows"
    names = {row[1] for row in rows}
    missing = [f"scn{i:02d}" for i in range(SCENARIOS) if f"scn{i:02d}" not in names]
    if missing:
        return f"fig_6_18 lacks scenarios {missing}"
    for stage, name, online, no_ts, nominal in rows:
        if not (float(online) < float(no_ts) + 0.02):
            return f"fig_6_18 {stage}/{name}: online {online} vs No TS {no_ts}"
        if not (float(online) < float(nominal) + 0.02):
            return f"fig_6_18 {stage}/{name}: online {online} vs Nominal {nominal}"
    return None


def check_headline(inv: Invocation) -> Optional[str]:
    """Headline's invariants, for any seed: positive No-TS gains."""
    rows = _table_rows(inv.stdout, 5)
    if len(rows) != len(STAGES):
        return f"headline has {len(rows)} rows"
    for row in rows:
        if not float(row[3].rstrip("%")) > 0.0:
            return f"headline {row[0]}: No-TS gain {row[3]}"
    return None


def check_no_cells_computed(inv: Invocation) -> Optional[str]:
    match = re.search(r"cells computed: (\d+)", inv.stderr)
    if match is None:
        return "no --stats line on stderr"
    if int(match.group(1)):
        return f"{match.group(1)} cells computed where all were stored"
    return None


def store_hits(inv: Invocation) -> Optional[int]:
    """The store hits of an invocation's ``--stats`` line, if it has one."""
    match = re.search(r"cache: \{'hits': (\d+)", inv.stderr)
    return None if match is None else int(match.group(1))


def check_headline_reads(expected: int) -> Callable[[Invocation], Optional[str]]:
    """Headline, after fig_6_18, reads all its cells from the store.

    It reads one cell per interval, stage and scheme of every reported
    benchmark, and the scenarios' interval counts are stratified, so
    the count is the same for every seed.  A headline that left the
    scenarios out would read fewer.
    """

    def check(inv: Invocation) -> Optional[str]:
        hits = store_hits(inv)
        if hits != expected:
            return f"headline read {hits} cells from the store, expected {expected}"
        return None

    return check


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Call:
    """One invocation of a pass, with its output checks."""

    command: str
    checks: List[Callable[[Invocation], Optional[str]]]
    extra: tuple = ()


class Workload:
    """A named sequence of invocations, run pass after pass."""

    name = ""

    def __init__(self, runner: Runner, seed: int, expected: dict):
        self.runner = runner
        self.seed = seed
        self.expected = expected
        self.ids = expected["ids"]

    def env(self) -> Dict[str, str]:
        return base_env()

    def probe(self) -> float:
        """``repro --list`` under the workload's environment."""
        inv = self.runner.invoke("--list", self.env())
        if inv.error or "experiments:" not in inv.stdout:
            raise SetupError(f"--list probe failed: {inv.error or inv.stdout[:200]}")
        return inv.wall_s

    def setup(self) -> float:
        """One untimed preparation; returns its wall seconds."""
        return self.probe()

    def plan(self) -> List[Call]:
        raise NotImplementedError

    def end_pass(self) -> None:
        """Release what :meth:`plan` prepared."""

    def trace_problems(self, layers: dict, counts: dict) -> List[str]:
        """Predicted zeros the traced run must show."""
        problems = []
        if self.name != "paper_cold" and layers["circuit.spice"]["calls"]:
            problems.append("circuit.spice called outside paper_cold")
        return problems


class PaperCold(Workload):
    name = "paper_cold"

    def plan(self) -> List[Call]:
        digests = self.expected["paper_cold"]
        return [
            Call(command, [check_digest(digests[command])], ("--jobs", str(JOBS)))
            for command in PAPER_COMMANDS
        ]


class ScenarioSweep(Workload):
    name = "scenario_sweep"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache_dir: Optional[Path] = None
        #: command -> stdout digest of the first pass (same seed, same output)
        self.first_pass: Dict[str, str] = {}

    def env(self) -> Dict[str, str]:
        return scenario_env(self.seed)

    def probe(self) -> float:
        """``repro --list``, which must list every scenario as reported."""
        inv = self.runner.invoke("--list", self.env())
        names = [f"scn{i:02d}" for i in range(SCENARIOS)]
        if inv.error or not all(f"  {n}  [reported]" in inv.stdout for n in names):
            raise SetupError(
                f"scenario bootstrap probe failed: {inv.error or inv.stdout[-300:]}"
            )
        return inv.wall_s

    def plan(self) -> List[Call]:
        self.cache_dir = self.runner.scratch_dir("sweep")
        sweep = self.expected["scenario_sweep"]
        calls = []
        for command in SWEEP_COMMANDS:
            extra = ("--cache-dir", str(self.cache_dir))
            if command not in SCENARIO_COMMANDS:
                checks = [check_digest(self.ids[command])]
            elif self.seed == sweep["seed"]:
                checks = [check_digest(sweep[command])]
            elif command == "run fig_6_18":
                checks = [check_fig_6_18]
            else:
                checks = [check_headline]
            if command == "run headline":
                extra += ("--stats",)
                checks += [
                    check_no_cells_computed,
                    check_headline_reads(sweep["headline_store_hits"]),
                ]
            checks.append(self._same_as_first_pass(command))
            calls.append(Call(command, checks, extra))
        return calls

    def _same_as_first_pass(self, command: str):
        def check(inv: Invocation) -> Optional[str]:
            first = self.first_pass.setdefault(command, inv.digest)
            if inv.digest != first:
                return "output differs from the first pass of the same seed"
            return None

        return check

    def end_pass(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


class WarmRerun(Workload):
    name = "warm_rerun"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache_dir: Optional[Path] = None

    def setup(self) -> float:
        """Probe, then fill a fresh cache dir with ``paper_cold``'s commands."""
        previous = self.cache_dir
        cache_dir = self.runner.scratch_dir("warm")
        start = time.perf_counter()
        self.probe()
        for command in PAPER_COMMANDS:
            inv = self.runner.invoke(
                command, self.env(), ("--cache-dir", str(cache_dir))
            )
            expected = self.expected["paper_cold"][command]
            problem = inv.error or check_digest(expected)(inv)
            if problem:
                raise SetupError(f"cold fill '{command}' failed: {problem}")
        seconds = time.perf_counter() - start
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        self.cache_dir = cache_dir
        return seconds

    def plan(self) -> List[Call]:
        extra = ("--cache-dir", str(self.cache_dir), "--stats")
        return [
            Call(
                command,
                [check_digest(self.ids[command]), check_no_cells_computed],
                extra,
            )
            for command in ID_COMMANDS
        ]

    def trace_problems(self, layers: dict, counts: dict) -> List[str]:
        problems = super().trace_problems(layers, counts)
        for layer in ("errors.probability", "core.problem", "core.poly", "core.online"):
            if layers[layer]["calls"]:
                problems.append(f"{layer} called on a warm rerun")
        if counts["engine.executor.cells_computed"]:
            problems.append("cells computed on a warm rerun")
        return problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (PaperCold, ScenarioSweep, WarmRerun)}


def scenario_env(seed: int) -> Dict[str, str]:
    env = base_env()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["REPRO_BOOTSTRAP"] = "scenarios:register"
    env[SEED_ENV] = str(seed)
    return env


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    invocations: List[Invocation] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)


def run_pass(workload: Workload, traced: bool) -> PassResult:
    result = PassResult()
    try:
        for call in workload.plan():
            inv = workload.runner.invoke(
                call.command, workload.env(), call.extra, traced=traced
            )
            if inv.error is None:
                for check in call.checks:
                    inv.error = check(inv)
                    if inv.error:
                        break
            result.invocations.append(inv)
    finally:
        workload.end_pass()
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One run of one workload: set-ups, then passes for ``seconds``."""
    runner = Runner(work)
    workload = WORKLOAD_CLASSES[name](runner, seed, load_expected())
    errors: List[str] = []
    workload.probe()  # untimed warm-up: bytecode caches, page cache
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, traced=False))
        if trace:
            traced.append(run_pass(workload, traced=True))
        setups += [workload.setup() for _ in range(SETUPS_PER_PASS[name])]
        # stop where the run ends closest to ``seconds``: one more
        # round would overshoot by more than stopping undershoots
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) / 2 >= seconds:
            break
    invocations = [inv for p in plain + traced for inv in p.invocations]
    failed = [inv for inv in invocations if inv.error]
    for inv in failed[:5]:
        errors.append(f"{inv.command}: {inv.error}")
    if trace:
        metrics, problems = layer_metrics(workload, plain, traced)
        errors.extend(problems)
    else:
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in plain), "s"),
            "invocation_p50_s": (
                statistics.median(
                    statistics.median(inv.wall_s for inv in p.invocations)
                    for p in plain
                ),
                "s",
            ),
            "peak_rss_mb": (
                max(inv.rss_mb for p in plain for inv in p.invocations),
                "MB",
            ),
            "setup_s": (statistics.median(setups), "s"),
        }
    return {
        "correct": not failed and not errors,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
        "passes": [
            [round(inv.wall_s, 3) for inv in p.invocations] for p in plain + traced
        ],
        "setups": setups,
    }


def layer_metrics(workload: Workload, plain, traced):
    """Per-layer metrics of the traced passes, median across passes."""
    from tracer import COUNTS, LAYERS, derive_counts

    per_pass = []
    coverage = []
    problems: List[str] = []
    for p in traced:
        layers = {L: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for L in LAYERS}
        raw: Dict[str, float] = collections.Counter()
        for inv in p.invocations:
            if inv.report is None:
                continue
            for L, stats in inv.report["layers"].items():
                for key, value in stats.items():
                    layers[L][key] += value
            raw.update(inv.report["raw_counts"])
            coverage.append(inv.report["covered_s"] / inv.wall_s)
        counts = derive_counts(raw)
        for problem in workload.trace_problems(layers, counts):
            if problem not in problems:
                problems.append(problem)
        per_pass.append((layers, counts))

    def median(fn):
        return statistics.median(fn(layers, counts) for layers, counts in per_pass)

    metrics = {}
    for L in LAYERS:
        metrics[f"{L}.calls"] = (median(lambda ls, c: ls[L]["calls"]), "count")
        metrics[f"{L}.busy_s"] = (median(lambda ls, c: ls[L]["busy_s"]), "s")
        metrics[f"{L}.self_s"] = (median(lambda ls, c: ls[L]["self_s"]), "s")
    for name in COUNTS:
        unit = "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (median(lambda ls, c: c[name]), unit)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain)
        - 1.0,
        "ratio",
    )
    metrics["trace.coverage"] = (
        statistics.median(coverage) if coverage else 0.0,
        "ratio",
    )
    return metrics, problems


# ----------------------------------------------------------------------
# expected outputs
# ----------------------------------------------------------------------
def write_expected(work: Path) -> dict:
    """Regenerate ``expected.json`` from cold runs of the current code."""
    runner = Runner(work)

    def run_ok(command: str, env=None, extra: tuple = ()) -> Invocation:
        inv = runner.invoke(command, env or base_env(), extra)
        if inv.error:
            raise SetupError(f"{command}: {inv.error}")
        return inv

    paper = {command: run_ok(command).stdout for command in PAPER_COMMANDS}
    per_id = {command: run_ok(command).stdout for command in ID_COMMANDS}
    # ``run all`` prints each experiment, then a blank line
    joined = "".join(per_id[c] + "\n" for c in ID_COMMANDS)
    if joined != paper["run all"] + paper["ablation all"]:
        raise SetupError("per-id outputs do not add up to 'run all' + 'ablation all'")
    # the scenario commands in sweep order, sharing one store
    cache = ("--cache-dir", str(runner.scratch_dir("expected")))
    sweep_env = scenario_env(DEFAULT_SEED)
    fig = run_ok("run fig_6_18", sweep_env, cache)
    headline = run_ok("run headline", sweep_env, cache + ("--stats",))
    expected = {
        "paper_cold": {c: _sha256(t) for c, t in paper.items()},
        "ids": {c: _sha256(t) for c, t in per_id.items()},
        "scenario_sweep": {
            "seed": DEFAULT_SEED,
            "run fig_6_18": fig.digest,
            "run headline": headline.digest,
            "headline_store_hits": store_hits(headline),
        },
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return expected


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _summary(args, work: Path) -> int:
    rows = []
    layer_tables = {}
    ok = True
    for name in WORKLOAD_CLASSES:
        result = measure(name, args.seed, args.seconds, False, work / name)
        ok &= result["correct"]
        frac = result["failed"] / result["attempted"]
        for metric, unit in END_TO_END:
            rows.append((name, metric, result["metrics"][metric]["value"], unit))
        rows.append((name, "failed_frac", frac, "ratio"))
        for error in result["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
        if args.layers:
            traced = measure(
                name, args.seed, args.seconds, True, work / f"{name}-traced"
            )
            ok &= traced["correct"]
            layer_tables[name] = traced["metrics"]
            for error in traced["errors"]:
                print(f"{name} (traced): {error}", file=sys.stderr)
    print(f"{'workload':16s} {'metric':18s} {'value':>12s}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:18s} {value:12.4f}  {unit}")
    if layer_tables:
        names = list(layer_tables)
        print()
        header = "".join(f" {n:>15s}" for n in names)
        print(f"{'per-layer metric':40s}{header}  unit")
        for metric in layer_tables[names[0]]:
            unit = layer_tables[names[0]][metric]["unit"]
            values = "".join(
                f" {layer_tables[n][metric]['value']:15.4f}" for n in names
            )
            print(f"{metric:40s}{values}  {unit}")
    print("outputs correct" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--layers",
        action="store_true",
        help="summary: add the traced per-layer table",
    )
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_expected:
            write_expected(work)
            print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
            return 0
        if args.workload is None:
            return _summary(args, work)
        try:
            result = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
        except SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 1
        for error in result.pop("errors"):
            print(f"perfbench: {error}", file=sys.stderr)
        print(
            f"perfbench: {args.workload} seed={args.seed} "
            f"passes={result.pop('passes')} "
            f"setups={[round(s, 3) for s in result.pop('setups')]}",
            file=sys.stderr,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
