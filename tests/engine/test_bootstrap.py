"""The ``REPRO_BOOTSTRAP`` registry hook.

Spec parsing, environment order, run-once idempotence, and the
process-pool worker initialiser that makes a runtime-registered
synthetic workload resolve on every pool worker (fork and spawn).
"""

import pytest

from repro.engine import ExperimentEngine, benchmark_specs

BOOTSTRAP_SPEC = "tests.engine.bootstrap_reg:register"


def _workload_names():
    from repro.workloads import workload_names

    return workload_names()


class TestBootstrapHook:
    def test_parse_bootstrap_rejects_bad_specs(self):
        from repro.engine.bootstrap import parse_bootstrap

        with pytest.raises(RuntimeError, match="no_such_module"):
            parse_bootstrap("no_such_module_xyz:register")
        with pytest.raises(RuntimeError, match="no attribute"):
            parse_bootstrap("tests.engine.bootstrap_reg:missing_fn")
        with pytest.raises(RuntimeError, match="non-callable"):
            parse_bootstrap("tests.engine.bootstrap_reg:SYNTH_NAME")

    def test_bootstrap_specs_keep_env_order_and_dedup(self, monkeypatch):
        from repro.engine.bootstrap import bootstrap_specs

        monkeypatch.setenv("REPRO_BOOTSTRAP", "b:g, a:f ,, b:g,c:h")
        assert bootstrap_specs() == ["b:g", "a:f", "c:h"]
        monkeypatch.delenv("REPRO_BOOTSTRAP")
        assert bootstrap_specs() == []

    def test_run_bootstrap_is_idempotent(self, monkeypatch):
        from repro.engine import bootstrap
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        monkeypatch.setattr(bootstrap, "_already_run", set())
        try:
            assert bootstrap.run_bootstrap() == [BOOTSTRAP_SPEC]
            assert bootstrap.run_bootstrap() == []  # second run: no-op
        finally:
            if bootstrap_reg.SYNTH_NAME in _workload_names():
                unregister_workload(bootstrap_reg.SYNTH_NAME)

    def test_synthetic_resolves_on_process_pool(self, monkeypatch):
        """The worker initialiser runs the bootstrap, so the up-front
        registry probe and the dispatch both resolve the synthetic
        workload."""
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        bootstrap_reg.register()
        try:
            specs = list(
                benchmark_specs(bootstrap_reg.SYNTH_NAME, "decode", "synts")
                + benchmark_specs(
                    bootstrap_reg.SYNTH_NAME, "simple_alu", "synts"
                )
            )
            with ExperimentEngine(backend="serial") as eng:
                reference = eng.run_cells(specs)
            with ExperimentEngine(jobs=2, backend="process") as eng:
                assert eng.run_cells(specs) == reference
        finally:
            unregister_workload(bootstrap_reg.SYNTH_NAME)

    def test_spawned_pool_worker_runs_bootstrap(self, monkeypatch):
        """Under the spawn start method nothing is inherited, so a
        resolving registry proves the initialiser hook itself."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine.backends.process import (
            _pool_initializer,
            _worker_registry_names,
        )
        from repro.workloads import unregister_workload

        from . import bootstrap_reg

        monkeypatch.setenv("REPRO_BOOTSTRAP", BOOTSTRAP_SPEC)
        pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_pool_initializer,
        )
        try:
            _, benchmarks = pool.submit(_worker_registry_names).result(
                timeout=120
            )
            assert bootstrap_reg.SYNTH_NAME in benchmarks
        finally:
            pool.shutdown(wait=True)
            if bootstrap_reg.SYNTH_NAME in _workload_names():
                unregister_workload(bootstrap_reg.SYNTH_NAME)
