"""Golden pin: every experiment and ablation renders its committed digest.

The benchmark harness commits the sha256 of each ``python -m repro run
<id>`` and ``ablation <id>`` stdout in ``perfbench/expected.json``
(``"ids"``).  This test renders the same 23 commands in-process, each on
a fresh serial engine with an in-memory store, and checks every stdout
against that file.  It reads the file rather than copying it, so the
figures have one committed source of truth: a change that moves any
figure value, RNG stream or rendering fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.__main__ import main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
DIGESTS = json.loads(EXPECTED.read_text())["ids"]


def test_every_experiment_and_ablation_is_pinned():
    from repro.experiments import EXPERIMENTS
    from repro.experiments.ablations import ABLATIONS

    assert set(DIGESTS) == {f"run {i}" for i in EXPERIMENTS} | {
        f"ablation {i}" for i in ABLATIONS
    }


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_matches_committed_digest(command, capsys):
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == DIGESTS[command]
