"""Scheme registry: seed entries, registration discipline, dispatch."""

import dataclasses
import pickle

import pytest

from repro.core.schemes import (
    SCHEME_REGISTRY,
    Scheme,
    SchemeRegistry,
    SolverRef,
    get_scheme,
    register_offline_scheme,
    scheme_names,
)


class TestSeedEntries:
    def test_paper_schemes_registered(self):
        assert set(scheme_names()) == {
            "synts",
            "no_ts",
            "nominal",
            "per_core_ts",
            "online",
        }

    def test_online_is_an_ordinary_entry(self):
        online = get_scheme("online")
        assert online.needs_rng
        assert online.uses_theta

    def test_nominal_ignores_theta(self):
        assert not get_scheme("nominal").uses_theta

    def test_offline_entries_do_not_need_rng(self):
        for name in ("synts", "no_ts", "nominal", "per_core_ts"):
            assert not get_scheme(name).needs_rng


class TestSolverRefs:
    """The seeds name their solvers by import path (lazy import)."""

    @pytest.mark.parametrize(
        "name", ["synts", "no_ts", "nominal", "per_core_ts", "online"]
    )
    def test_seed_refs_name_their_functions(self, name):
        entry = get_scheme(name)
        for ref in (entry.solver, entry.batch_solver):
            if ref is None:
                continue
            assert isinstance(ref, SolverRef)
            fn = ref.resolve()
            assert f"{fn.__module__}.{fn.__qualname__}" == ref.path
        # the digest is the same whether the entry holds the reference
        # or the function it resolves to
        resolved = dataclasses.replace(entry, solver=entry.solver.resolve())
        assert resolved.digest() == entry.digest()

    def test_call_looks_the_module_attribute_up(self, monkeypatch):
        from repro.core import baselines

        ref = SolverRef("repro.core.baselines.solve_nominal")
        monkeypatch.setattr(
            baselines, "solve_nominal", lambda p, t: ("seen", p, t)
        )
        assert ref("problem", 0.5) == ("seen", "problem", 0.5)

    def test_attributes_read_through_to_the_function(self, monkeypatch):
        from repro.core import poly

        ref = SolverRef("repro.core.poly.solve_synts_poly")
        monkeypatch.setattr(poly.solve_synts_poly, "marker", 1, raising=False)
        assert ref.__name__ == "solve_synts_poly"
        assert ref.marker == 1

    def test_pickle_round_trip(self):
        ref = SolverRef("repro.core.poly.solve_synts_poly")
        assert pickle.loads(pickle.dumps(ref)).path == ref.path


class TestRegistrationDiscipline:
    def test_duplicate_registration_rejected(self):
        reg = SchemeRegistry()
        reg.register(Scheme(name="x", solver=lambda p, t: None))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(Scheme(name="x", solver=lambda p, t: None))

    def test_replace_is_explicit(self):
        reg = SchemeRegistry()
        first = reg.register(Scheme(name="x", solver=lambda p, t: None))
        second = Scheme(name="x", solver=lambda p, t: 1)
        reg.register(second, replace=True)
        assert reg.get("x") is second is not first

    def test_unknown_scheme_error_is_actionable(self):
        with pytest.raises(KeyError) as err:
            SCHEME_REGISTRY.get("bogus")
        message = str(err.value)
        assert "bogus" in message
        assert "synts" in message  # names what IS registered
        assert "register_scheme" in message  # names the fix

    def test_non_scheme_rejected(self):
        with pytest.raises(TypeError):
            SchemeRegistry().register("synts")

    def test_unregister_unknown_is_actionable(self):
        with pytest.raises(KeyError, match="registered schemes"):
            SchemeRegistry().unregister("nope")


class TestDispatch:
    def test_registered_scheme_runs_through_cells(self):
        """A runtime registration is immediately a valid cell scheme."""
        from repro.core.baselines import solve_nominal
        from repro.engine import CellSpec, compute_cell

        register_offline_scheme(
            "nominal_alias", solve_nominal, uses_theta=False
        )
        try:
            alias = compute_cell(CellSpec("radix", "decode", "nominal_alias"))
            nominal = compute_cell(CellSpec("radix", "decode", "nominal"))
            assert alias.energy == nominal.energy
            assert alias.time == nominal.time
        finally:
            SCHEME_REGISTRY.unregister("nominal_alias")

    def test_unregistered_scheme_rejected_by_cellspec(self):
        from repro.engine import CellSpec

        with pytest.raises(ValueError, match="register_scheme"):
            CellSpec("radix", "decode", "definitely_not_a_scheme")

    def test_evaluate_matches_legacy_offline_path(self):
        from repro.core.poly import solve_synts_poly
        from repro.core.runner import interval_problems
        from repro.engine import CellSpec
        from repro.workloads import build_benchmark

        problem = interval_problems(build_benchmark("fmm"), "decode")[0]
        theta = problem.equal_weight_theta()
        spec = CellSpec("fmm", "decode", "synts")
        energy, time = get_scheme("synts").evaluate(problem, theta, spec)
        legacy = solve_synts_poly(problem, theta).evaluation
        assert energy == float(legacy.total_energy)
        assert time == float(legacy.texec)

    def test_online_evaluate_is_deterministic_per_spec(self):
        from repro.core.runner import interval_problems
        from repro.engine import CellSpec
        from repro.workloads import build_benchmark

        problem = interval_problems(build_benchmark("radix"), "decode")[0]
        theta = problem.equal_weight_theta()
        spec = CellSpec("radix", "decode", "online", seed=9, n_samp=5_000)
        online = get_scheme("online")
        assert online.evaluate(problem, theta, spec) == online.evaluate(
            problem, theta, spec
        )
