"""Event-stream fidelity across backends.

Serial and process-pool runs must emit the *same per-cell event
multiset* (ordering aside): observability never depends on where a
cell happened to run.  Backend-specific extras (``backend_fallback``)
ride alongside without disturbing the per-cell view.
"""

import pytest

from repro.engine import EventLog, ExperimentEngine, benchmark_specs

#: Events carrying per-cell coordinates, compared across backends.
CELL_EVENT_KINDS = ("cell_cached", "cell_computed")


def _specs():
    # two groups, so pool backends really dispatch; online adds a
    # per-interval (non-vectorized) batch to the mix
    return list(
        benchmark_specs("radix", "decode", "synts")
        + benchmark_specs("fmm", "decode", "nominal")
        + benchmark_specs("raytrace", "decode", "online", seed=5, n_samp=2_000)
    )


def _cell_multiset(log: EventLog):
    return sorted(
        (
            event.kind,
            event.get("benchmark"),
            event.get("stage"),
            event.get("scheme"),
            event.get("interval"),
        )
        for event in log.events
        if event.kind in CELL_EVENT_KINDS
    )


def _run_and_log(make_engine):
    engine = make_engine()
    log = engine.subscribe(EventLog())
    results = engine.run_cells(_specs())
    engine.close()
    return results, log


@pytest.fixture(scope="module")
def serial_run():
    return _run_and_log(lambda: ExperimentEngine(backend="serial"))


class TestPerCellMultiset:
    def test_process_matches_serial(self, serial_run):
        reference, serial_log = serial_run
        results, log = _run_and_log(
            lambda: ExperimentEngine(jobs=2, backend="process")
        )
        assert results == reference
        assert _cell_multiset(log) == _cell_multiset(serial_log)

    def test_cached_rerun_multiset_matches(self):
        """A warm rerun flips every cell_computed to cell_cached --
        identically for serial and process-pool engines."""
        multisets = {}
        for name, kwargs in (
            ("serial", {"backend": "serial"}),
            ("process", {"backend": "process", "jobs": 2}),
        ):
            engine = ExperimentEngine(**kwargs)
            log = engine.subscribe(EventLog())
            engine.run_cells(_specs())
            engine.run_cells(_specs())
            engine.close()
            multisets[name] = _cell_multiset(log)
        assert multisets["serial"] == multisets["process"]


class TestCacheCorruptFidelity:
    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_corrupt_entry_reported_once_everywhere(self, backend, tmp_path):
        spec = _specs()[0]
        key = spec.key()
        cache_dir = tmp_path / backend
        # a warm cache with one corrupt entry
        seed = ExperimentEngine(cache_dir=cache_dir)
        seed.run_cells([spec])
        seed.close()
        path = cache_dir / key[:2] / f"{key}.json"
        assert path.exists()
        path.write_text("{not json")

        engine = ExperimentEngine(
            jobs=2, backend=backend, cache_dir=cache_dir
        )
        log = engine.subscribe(EventLog())
        engine.run_cells([spec])
        engine.close()
        corrupt = log.of_kind("cache_corrupt")
        assert len(corrupt) == 1
        assert corrupt[0].get("key") == key
        # the corrupt entry was recomputed, not fatal
        assert len(log.of_kind("cell_computed")) == 1
