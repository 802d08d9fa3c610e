"""Cache keys and RNG seeds, pinned as literals.

Scheme digests salt every experiment memo key and every cell key;
``cell_seed`` hashes the online knobs under a fixed salt of its own.
A refactor that moves one of them silently orphans every
``--cache-dir`` and, for online cells, moves the figures.  The
literals below were computed before the scheme registry resolved its
seed solvers lazily; they change only by a deliberate act (a schema
bump, or a version bump for the keys), recorded in CHANGES.md with
the reason.
"""

import pytest

from repro.core.schemes import SCHEME_REGISTRY
from repro.engine import CellSpec, ExperimentEngine, cell_seed
from repro.engine.store import MemoryStore

SEED_DIGESTS = {
    "synts": ("synts", "repro.core.poly.solve_synts_poly", True, False),
    "no_ts": ("no_ts", "repro.core.baselines.solve_no_ts", True, False),
    "nominal": ("nominal", "repro.core.baselines.solve_nominal", False, False),
    "per_core_ts": (
        "per_core_ts",
        "repro.core.baselines.solve_per_core_ts",
        True,
        False,
    ),
    "online": ("online", "repro.core.online.run_online_interval", True, True),
}

OFFLINE_SPEC = CellSpec("radix", "decode", "synts", interval=0)
ONLINE_SPEC = CellSpec(
    "radix", "decode", "online", interval=1, seed=7, n_samp=50_000
)


class _Keyed(Exception):
    """Carries the key of the first store lookup out of the engine."""


class _KeyProbe(MemoryStore):
    def get(self, key):
        raise _Keyed(key)


def _memo_key(driver, *args) -> str:
    """The experiment memo key ``driver(*args)`` looks up (computes nothing)."""
    with pytest.raises(_Keyed) as probe:
        driver(*args, engine=ExperimentEngine(store=_KeyProbe()))
    return probe.value.args[0]


@pytest.mark.parametrize("name", sorted(SEED_DIGESTS))
def test_seed_scheme_digest(name):
    assert SCHEME_REGISTRY.get(name).digest() == SEED_DIGESTS[name]


def test_fig_6_18_memo_key():
    from repro.experiments import fig_6_18

    assert _memo_key(fig_6_18.run) == (
        "deef4179d0ffeddf690761b9fc54195af6e936349f93abccbd3024fc41e3e6e5"
    )


def test_fig_6_11_memo_key():
    from repro.experiments import pareto_figs

    assert _memo_key(pareto_figs.run_figure, "fig_6_11") == (
        "043875de47a38c4310aa2d2ae8e26ed56bf83906d2b6a1b8a448c70b96899165"
    )


def test_ablation_heterogeneity_memo_key():
    from repro.experiments import ablations

    assert _memo_key(ablations.heterogeneity) == (
        "c5adefafdedd9de48f45f40c624ffb719b29ec0aa694cb4ef4319d0e80f391c2"
    )


def test_offline_cell_key():
    assert OFFLINE_SPEC.key() == (
        "a79a8d5632a1ce390ad77ac963307ef88d1406628415c23b02114de9321fd928"
    )


def test_online_cell_key_and_seed():
    assert ONLINE_SPEC.key() == (
        "b3698a2a5708e3005c22c7bbc7c341e24ad9675d2a3bfe1c8ae61ced3f277b7a"
    )
    assert cell_seed(ONLINE_SPEC) == 16921528384206390130


def test_version_bump_moves_keys_not_seeds(monkeypatch):
    import repro

    monkeypatch.setattr(repro, "__version__", "99.0.0")
    assert cell_seed(ONLINE_SPEC) == 16921528384206390130
    assert ONLINE_SPEC.key() != (
        "b3698a2a5708e3005c22c7bbc7c341e24ad9675d2a3bfe1c8ae61ced3f277b7a"
    )
