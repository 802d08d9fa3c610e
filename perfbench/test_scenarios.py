"""The seeded scenario generator: same seed, same registrations.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import collections

import pytest

import scenarios


def test_same_seed_same_scenarios():
    assert scenarios.scenario_params(5, 24) == scenarios.scenario_params(5, 24)


def test_different_seed_different_scenarios():
    assert scenarios.scenario_params(5, 24) != scenarios.scenario_params(6, 24)


def test_counts_are_stratified():
    """Every thread/interval count appears equally often, whatever the seed."""
    for seed in (0, 1, 2):
        params = scenarios.scenario_params(seed, 28)
        threads = collections.Counter(p["n_threads"] for p in params)
        intervals = collections.Counter(p["n_intervals"] for p in params)
        lo, hi = scenarios.N_THREADS
        assert threads == {n: 4 for n in range(lo, hi + 1)}
        lo, hi = scenarios.N_INTERVALS
        assert intervals == {n: 7 for n in range(lo, hi + 1)}


def _registered(monkeypatch, seed):
    from repro.workloads.registry import WORKLOAD_REGISTRY

    monkeypatch.setenv(scenarios.SEED_ENV, str(seed))
    scenarios.register()
    return {
        entry.name: (entry.reported, entry.digest_json)
        for entry in WORKLOAD_REGISTRY
        if entry.name.startswith("scn")
    }


@pytest.fixture
def clean_registry():
    from repro.workloads.registry import unregister_workload

    yield
    for params in scenarios.scenario_params(0, scenarios.SCENARIOS):
        unregister_workload(params["name"])


def test_register_is_deterministic_and_idempotent(monkeypatch, clean_registry):
    first = _registered(monkeypatch, 3)
    assert len(first) == scenarios.SCENARIOS
    assert all(reported for reported, _ in first.values())
    assert _registered(monkeypatch, 3) == first  # replace=True: no error
    assert _registered(monkeypatch, 4) != first
