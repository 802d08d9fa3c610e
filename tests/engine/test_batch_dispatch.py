"""Batched cell dispatch: grouping, batch evaluation, and
parallel equivalence of the batch path on every backend.

The batch seam may change wall time, never values: ``compute_batch``
must be bit-identical to mapping ``compute_cell``, and the engine's
batched dispatch must stay bit-identical to the serial reference on
all backends, including partially cached batches.
"""

import pytest

from repro.engine import (
    CellBatch,
    CellSpec,
    EventLog,
    ExperimentEngine,
    benchmark_specs,
    compute_batch,
    compute_cell,
    group_cells,
)
from repro.engine.backends.process import pool_chunksize
from repro.experiments import fig_6_18
from repro.experiments.common import STAGES


def _figure_cell_set():
    specs = []
    for stage in STAGES:
        for group in fig_6_18._stage_specs(stage, seed=7).values():
            specs.extend(group)
    return specs


class TestGrouping:
    def test_groups_by_benchmark_stage_scheme_overrides(self):
        specs = (
            list(benchmark_specs("radix", "decode", "synts"))
            + list(benchmark_specs("radix", "decode", "no_ts"))
            + list(benchmark_specs("radix", "simple_alu", "synts"))
            + [CellSpec("radix", "decode", "synts", 0, c_penalty=12.0)]
        )
        batches = group_cells(specs)
        assert len(batches) == 4
        # first-appearance order, original relative order within groups
        assert [b.group_key[:3] for b in batches] == [
            ("radix", "decode", "synts"),
            ("radix", "decode", "no_ts"),
            ("radix", "simple_alu", "synts"),
            ("radix", "decode", "synts"),
        ]
        assert [s.interval for s in batches[0].specs] == [0, 1, 2]

    def test_theta_pinned_cells_share_a_batch(self):
        specs = [
            CellSpec("radix", "decode", "synts", 0, theta=t)
            for t in (0.5, 1.0, 2.0)
        ]
        assert len(group_cells(specs)) == 1

    def test_keys_travel_with_batches(self):
        specs = list(benchmark_specs("radix", "decode", "synts"))
        keys = [s.key() for s in specs]
        (batch,) = group_cells(specs, keys=keys)
        assert batch.keys == tuple(keys)

    def test_mixed_batch_rejected(self):
        a = CellSpec("radix", "decode", "synts")
        b = CellSpec("fmm", "decode", "synts")
        with pytest.raises(ValueError, match="share"):
            CellBatch(specs=(a, b))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CellBatch(specs=())


class TestComputeBatch:
    @pytest.mark.parametrize(
        "scheme", ("synts", "no_ts", "nominal", "per_core_ts")
    )
    def test_offline_batch_equals_per_cell(self, scheme):
        specs = list(benchmark_specs("cholesky", "decode", scheme))
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == tuple(compute_cell(s) for s in specs)

    def test_online_batch_equals_per_cell(self):
        specs = list(
            benchmark_specs("fmm", "decode", "online", seed=3, n_samp=5_000)
        )
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == tuple(compute_cell(s) for s in specs)

    def test_override_batch_equals_per_cell(self):
        specs = [
            CellSpec("radix", "decode", "synts", k, c_penalty=12.0, leakage=0.1)
            for k in range(3)
        ]
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == tuple(compute_cell(s) for s in specs)

    def test_explicit_theta_batch_equals_per_cell(self):
        specs = [
            CellSpec("radix", "decode", "synts", 0, theta=t)
            for t in (0.1, 1.0, 10.0)
        ]
        (batch,) = group_cells(specs)
        assert compute_batch(batch) == tuple(compute_cell(s) for s in specs)

    def test_out_of_range_interval_is_actionable(self):
        spec = CellSpec("radix", "decode", "synts", interval=99)
        with pytest.raises(IndexError, match="intervals"):
            compute_batch(CellBatch(specs=(spec,)))


class TestBatchedDispatchEquivalence:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        specs = _figure_cell_set()
        with ExperimentEngine(backend="serial") as eng:
            return specs, eng.run_cells(specs)

    @pytest.mark.parametrize("backend", ("process",))
    def test_backend_matches_serial(self, serial_reference, backend):
        specs, reference = serial_reference
        with ExperimentEngine(jobs=4, backend=backend) as eng:
            assert eng.run_cells(specs) == reference

    def test_partially_cached_batches(self, serial_reference):
        """Cells already cached are carved out of their batches; the
        remaining partial batches must still compute identically."""
        specs, reference = serial_reference
        with ExperimentEngine(backend="serial") as eng:
            # warm every third cell, then run the full set
            eng.run_cells(specs[::3])
            assert eng.run_cells(specs) == reference

    def test_cell_events_cover_every_cell(self):
        eng = ExperimentEngine()
        log = eng.subscribe(EventLog())
        specs = list(benchmark_specs("radix", "decode", "synts")) + list(
            benchmark_specs("fmm", "decode", "nominal")
        )
        eng.run_cells(specs)
        computed = log.of_kind("cell_computed")
        assert len(computed) == len(specs)
        labels = {
            (e.get("benchmark"), e.get("scheme"), e.get("interval"))
            for e in computed
        }
        assert ("radix", "synts", 0) in labels
        assert ("fmm", "nominal", 2) in labels
        # serial dispatch still carries a (batch-amortised) wall time
        assert all(e.get("seconds") >= 0 for e in computed)


class TestPoolDispatchGrain:
    def test_vectorized_batches_ship_whole(self):
        from repro.engine.backends.process import (
            _expand_for_pool as expand_for_pool,
        )

        batches = group_cells(list(benchmark_specs("radix", "decode", "synts")))
        units, origins = expand_for_pool(batches, workers=4)
        assert len(units) == 1 and origins == [(0, None)]

    def test_per_interval_batches_split_across_workers(self):
        """Schemes without a batch solver (online: per-cell RNG) must
        not serialise inside one pool task when the batch count alone
        would starve the pool -- their cells become singleton units so
        --jobs still buys parallelism."""
        from repro.engine.backends.process import (
            _expand_for_pool as expand_for_pool,
        )
        from repro.engine.backends.process import (
            _reassemble_units as reassemble_units,
        )

        specs = list(
            benchmark_specs("radix", "decode", "online", seed=1, n_samp=5_000)
        )
        batches = group_cells(specs, keys=[s.key() for s in specs])
        units, origins = expand_for_pool(batches, workers=2)
        assert len(units) == len(specs)
        assert all(len(u) == 1 for u in units)
        assert [o[0] for o in origins] == [0] * len(specs)
        unit_results = [list(compute_batch(u)) for u in units]
        (reassembled,) = reassemble_units(batches, origins, unit_results)
        assert reassembled == [compute_cell(s) for s in specs]

    def test_no_split_when_batches_already_fill_the_pool(self):
        """With plenty of batches, splitting per-interval groups buys
        no parallelism and only pays IPC -- batches ship whole."""
        from repro.engine.backends.process import (
            _expand_for_pool as expand_for_pool,
        )

        specs = []
        for benchmark in ("radix", "fmm", "cholesky", "barnes"):
            specs += list(
                benchmark_specs(benchmark, "decode", "online", seed=1)
            )
        batches = group_cells(specs)
        units, origins = expand_for_pool(batches, workers=2)
        assert len(units) == len(batches)
        assert all(ci is None for _, ci in origins)

    def test_single_online_group_still_parallel_on_pool(self):
        """End to end: one online group through a process pool equals
        serial (and actually exercises the pool, not the single-batch
        in-process shortcut)."""
        specs = list(
            benchmark_specs("fmm", "decode", "online", seed=5, n_samp=5_000)
        )
        with ExperimentEngine(backend="serial") as eng:
            reference = eng.run_cells(specs)
        with ExperimentEngine(jobs=2, backend="process") as eng:
            assert eng.run_cells(specs) == reference


class TestPoolChunksize:
    def test_quarter_of_even_split(self):
        assert pool_chunksize(64, 4) == 4
        assert pool_chunksize(1000, 8) == 31

    def test_never_below_one(self):
        assert pool_chunksize(3, 4) == 1
        assert pool_chunksize(0, 4) == 1
        assert pool_chunksize(5, 1) == 1
