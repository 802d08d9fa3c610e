"""EXPERIMENTS.md must quote exactly what the drivers render.

The ledger's rows are regenerated here and every number in them is
compared with the driver's output, so a change that moves a number
fails until the ledger is updated with it.
"""

import re
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments import headline, table_5_1

LEDGER = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _ledger_rows() -> Dict[str, List[str]]:
    """``{artifact id: [quantity, paper, regenerated, deviation]}``."""
    rows = {}
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        match = re.match(r"^\| `(\w+)` \|(.*)\|$", line)
        if match:
            rows[match.group(1)] = [c.strip() for c in match.group(2).split("|")]
    return rows


def _numbers(cell: str) -> List[float]:
    return [float(x) for x in re.findall(r"\d+(?:\.\d+)?", cell)]


def _relative_error(row) -> float:
    _, paper, regen = row
    return abs(regen - paper) / paper


@pytest.fixture(scope="module")
def ledger():
    return _ledger_rows()


def test_ledger_lists_the_checked_artifacts(ledger):
    assert set(ledger) == {"table_5_1", "headline"}


def test_table_5_1_row_matches_regeneration(ledger):
    quantity, paper, regenerated, deviation = ledger["table_5_1"]
    result = table_5_1.run()
    assert _numbers(quantity) == [row[0] for row in result.rows]
    assert _numbers(paper) == [row[1] for row in result.rows]
    assert _numbers(regenerated) == [row[2] for row in result.rows]

    worst = re.search(r"([\d.]+%) at the ([\d.]+) V knee", deviation)
    assert worst, deviation
    assert worst.group(1) == result.notes["max relative error"]
    knee = max(result.rows, key=_relative_error)[0]
    assert float(worst.group(2)) == knee


def test_headline_row_matches_regeneration(ledger):
    _, paper, regenerated, deviation = ledger["headline"]
    result = headline.run()
    assert paper in result.notes["paper (conclusion)"]

    best = max(result.rows, key=lambda row: float(row[3].rstrip("%")))
    assert regenerated == f"{best[3]} ({best[0]})"

    per_core = re.search(r"\(([^)]*) vs ([^)]*)\)", deviation)
    assert per_core, deviation
    assert per_core.group(1).split(" / ") == [row[1] for row in result.rows]
    assert _numbers(per_core.group(2)) == [
        float(row[2].rstrip("%")) for row in result.rows
    ]
