"""The harness's own checks, and its refusal to run without the program.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run


def _inv(stdout, stderr=""):
    return run.Invocation("x", 1.0, 1.0, 0, stdout, stderr)


FIG_6_18 = """\
stage        benchmark   SynTS(online)  No TS  Nominal
-----------  ----------  -------------  -----  -------
{rows}
mean online overhead           : 3.2% (paper 10.3%)
"""


def _fig(online=1.0, scenarios=run.SCENARIOS):
    names = [f"b{i}" for i in range(run.SPLASH2)]
    names += [f"scn{i:02d}" for i in range(scenarios)]
    rows = [
        f"{stage}  {name}  {online}  1.2  1.3"
        for stage in run.STAGES
        for name in names
    ]
    return FIG_6_18.format(rows="\n".join(rows))


def test_fig_6_18_invariants():
    check = run.check_fig_6_18
    assert check(_inv(_fig())) is None
    assert "online" in check(_inv(_fig(online=1.25)))
    assert "rows" in check(_inv(_fig(scenarios=run.SCENARIOS + 1)))
    padded = _fig(scenarios=run.SCENARIOS - 1) + "decode  x  1  2  3\n" * 3
    assert "lacks" in check(_inv(padded))


def test_headline_invariants():
    rows = "decode  24.8%  26.0%  {gain}  radix\n" * 3
    assert run.check_headline(_inv(rows.format(gain="39.0%"))) is None
    assert "No-TS" in run.check_headline(_inv(rows.format(gain="-1.0%")))


def test_warm_rerun_stats_check():
    ok = "cache: {} cells computed: 0 (jobs=1, backend=serial)"
    assert run.check_no_cells_computed(_inv("", ok)) is None
    assert "3 cells" in run.check_no_cells_computed(_inv("", ok.replace(": 0", ": 3")))
    assert "--stats" in run.check_no_cells_computed(_inv(""))


def test_headline_store_reads_check():
    stats = "cache: {{'hits': {}, 'misses': 1}} cells computed: 0 (jobs=1)"
    check = run.check_headline_reads(945)
    assert check(_inv("", stats.format(945))) is None
    assert "189" in check(_inv("", stats.format(189)))
    assert "None" in check(_inv(""))


def test_every_command_has_an_expected_digest():
    expected = run.load_expected()
    assert set(expected["ids"]) == set(run.ID_COMMANDS)
    assert set(expected["paper_cold"]) == set(run.PAPER_COMMANDS)
    assert set(run.SWEEP_COMMANDS) - set(run.SCENARIO_COMMANDS) <= set(expected["ids"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
