"""Seeded scenario generator, installed through ``REPRO_BOOTSTRAP``.

``scenario_sweep`` runs every invocation with::

    REPRO_BOOTSTRAP=scenarios:register  PERFBENCH_SEED=<seed>

so the CLI, and any process-pool worker it starts, registers the same
:data:`SCENARIOS` synthetic workloads before resolving a cell.  The
workloads are a pure function of the seed, which draws each one's
thread count, heterogeneity spread, error scale and interval count.  They register
with ``reported=True``, so they join ``fig_6_18`` and ``headline`` next
to the seven SPLASH-2 benchmarks, and with ``replace=True``, so a hook
that runs twice in one process stays idempotent.

Thread and interval counts are stratified: every value of their range
appears equally often and the seed only shuffles which scenario gets
which, so every seed asks for the same number of cells (one per
interval) and the timings of two seeds stay comparable.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List

SEED_ENV = "PERFBENCH_SEED"
#: Synthetic workloads registered next to the seven SPLASH-2 benchmarks.
SCENARIOS = 24

#: Knob ranges the seed draws from.  On every seed tried, draws from
#: these ranges kept the invariants the figures assert (online SynTS
#: within 0.02 of No-TS and Nominal in fig_6_18, positive No-TS gains
#: in headline).
N_THREADS = (2, 8)
HETEROGENEITY = (1.2, 4.0)
ERROR_SCALE = (0.5, 1.8)
N_INTERVALS = (2, 5)


def scenario_params(seed: int, count: int) -> List[Dict[str, object]]:
    """The ``register_synthetic`` arguments of ``count`` scenarios."""
    rng = random.Random(seed)
    threads = _stratified(rng, N_THREADS, count)
    intervals = _stratified(rng, N_INTERVALS, count)
    return [
        {
            "name": f"scn{i:02d}",
            "n_threads": threads[i],
            "heterogeneity": round(rng.uniform(*HETEROGENEITY), 3),
            "error_scale": round(rng.uniform(*ERROR_SCALE), 3),
            "n_intervals": intervals[i],
        }
        for i in range(count)
    ]


def _stratified(rng: random.Random, bounds, count: int) -> List[int]:
    """``count`` integers cycling through ``bounds``, in seeded order."""
    lo, hi = bounds
    values = [lo + i % (hi - lo + 1) for i in range(count)]
    rng.shuffle(values)
    return values


def register() -> None:
    """Register the scenarios of the environment's seed (bootstrap hook)."""
    from repro.workloads import register_synthetic

    seed = int(os.environ[SEED_ENV])
    for params in scenario_params(seed, SCENARIOS):
        params = dict(params)
        name = params.pop("name")
        register_synthetic(
            name,
            reported=True,
            replace=True,
            description=f"perfbench scenario (seed {seed})",
            **params,
        )
