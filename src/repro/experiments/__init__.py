"""Experiment drivers: one module per published table/figure.

Registry mapping experiment ids to their ``run`` callables (the
full index); ``docs/architecture.md`` covers how drivers run through
the engine.  Each module is also runnable as ``python -m
repro.experiments.<module>``.  A driver module is imported only when
its id runs, so regenerating one figure never loads the others (or
the substrates they use).
"""

import importlib
from typing import Callable, Optional

from repro._lazy import lazy_exports

from .common import REPORTED_BENCHMARKS, STAGES, ExperimentResult


def _driver(module: str, figure: Optional[str] = None) -> Callable[[], object]:
    """Zero-argument runner that imports ``module`` when called."""

    def run():
        driver = importlib.import_module(f"{__name__}.{module}")
        return driver.run() if figure is None else driver.run_figure(figure)

    return run


#: experiment id -> zero-argument callable regenerating it
EXPERIMENTS = {
    "table_5_1": _driver("table_5_1"),
    "fig_1_2": _driver("fig_1_2"),
    "fig_3_5": _driver("fig_3_5"),
    "fig_3_6": _driver("fig_3_6"),
    "fig_4_7": _driver("fig_4_7"),
    "fig_5_10": _driver("fig_5_10"),
    "fig_6_11": _driver("pareto_figs", "fig_6_11"),
    "fig_6_12": _driver("pareto_figs", "fig_6_12"),
    "fig_6_13": _driver("pareto_figs", "fig_6_13"),
    "fig_6_14": _driver("pareto_figs", "fig_6_14"),
    "fig_6_15": _driver("pareto_figs", "fig_6_15"),
    "fig_6_16": _driver("pareto_figs", "fig_6_16"),
    "fig_6_17": _driver("fig_6_17"),
    "fig_6_18": _driver("fig_6_18"),
    "sec_6_3": _driver("overhead_study"),
    "headline": _driver("headline"),
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "REPORTED_BENCHMARKS",
    "STAGES",
]

# no lazy names: the hooks keep driver submodules reachable as
# attributes (``repro.experiments.fig_6_18``)
__getattr__, __dir__ = lazy_exports(__name__, {})
