"""Figure values must be bit-identical for every store configuration.

The parallel-equivalence suite pins every *backend* to the serial
reference; this suite pins every *store* configuration -- memory-only,
tiered disk and disk-only -- over the full fig_6_18 cell set (the
superset of headline's cells).  It also asserts the caching economics
the tiers exist for: a warm-client rerun dispatches nothing.
"""

import pytest

from repro.engine import EventLog, ExperimentEngine
from repro.experiments import fig_6_18
from repro.experiments.common import STAGES


def _figure_cell_set():
    """Every cell of fig_6_18 (superset of headline's cells)."""
    specs = []
    for stage in STAGES:
        for group in fig_6_18._stage_specs(stage, seed=7).values():
            specs.extend(group)
    return specs


@pytest.fixture(scope="module")
def serial_reference():
    """Reference results from the serial backend + memory store."""
    specs = _figure_cell_set()
    with ExperimentEngine(backend="serial", store="memory") as eng:
        return specs, eng.run_cells(specs)


class TestLocalStoreConfigurations:
    @pytest.mark.parametrize("store", ("memory", "tiered", "jsondir"))
    def test_store_matches_serial_reference(
        self, serial_reference, store, tmp_path
    ):
        specs, reference = serial_reference
        kwargs = (
            {} if store == "memory" else {"cache_dir": str(tmp_path)}
        )
        with ExperimentEngine(store=store, **kwargs) as eng:
            assert eng.run_cells(specs) == reference

    def test_warm_client_rerun_is_pure_cache(
        self, serial_reference, tmp_path
    ):
        """A second session over the same tiered dir recomputes
        nothing: identical values, zero cells computed."""
        specs, reference = serial_reference
        with ExperimentEngine(
            store="tiered", cache_dir=str(tmp_path)
        ) as eng:
            eng.run_cells(specs)
        with ExperimentEngine(
            store="tiered", cache_dir=str(tmp_path)
        ) as eng:
            log = eng.subscribe(EventLog())
            assert eng.run_cells(specs) == reference
            assert eng.cells_computed == 0
        assert log.of_kind("cell_computed") == []
        assert len(log.of_kind("cell_cached")) == len(
            {spec.key() for spec in specs}
        )
