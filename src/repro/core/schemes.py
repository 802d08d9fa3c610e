"""The scheme registry: every way a cell can be solved, as data.

Historically the engine carried a closed ``OFFLINE_SCHEMES`` dict plus
an ``if spec.scheme == "online"`` special case; adding a comparison
scheme meant editing the engine.  A :class:`Scheme` entry instead
*declares* everything the engine needs to run it:

* ``solver`` -- the interval solver.  Offline solvers take
  ``(problem, theta) -> SynTSSolution``; RNG-driven solvers take
  ``(problem, theta, rng, knobs) -> IntervalOutcome`` (the online
  controller's signature).
* ``uses_theta`` -- whether the Eq. 4.4 weight influences decisions
  (``nominal`` ignores it: every core runs at the top voltage).
* ``needs_rng`` -- whether the scheme draws random samples.  The
  engine derives the stream from the cell spec's content hash
  (:func:`repro.engine.cells.cell_seed`), so registered stochastic
  schemes inherit the same scheduling-independence guarantee as
  ``online``.

The default :data:`SCHEME_REGISTRY` is seeded with the paper's four
offline schemes and the online controller -- ``online`` is just
another entry, not a code path.  The seeds name their solvers by
import path (:class:`SolverRef`): a memo-served run needs only the
registry's digests for its keys, so it never imports the solvers.
New comparison schemes are a :func:`register_scheme` call away; for
the process backend, register at import time of a module the workers
also import (runtime registrations reach forked workers only when
made before the pool starts, never reach spawned ones, and the
serial backend sees them always).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Scheme",
    "SchemeRegistry",
    "SolverRef",
    "SCHEME_REGISTRY",
    "register_scheme",
    "register_offline_scheme",
    "get_scheme",
    "scheme_names",
    "scheme_fingerprint",
]


def _online_knobs(spec):
    """Online-controller knobs carried by a cell spec."""
    from .online import OnlineKnobs

    if getattr(spec, "n_samp", None) is not None:
        return OnlineKnobs(n_samp=spec.n_samp)
    if getattr(spec, "sampling_fraction", None) is not None:
        return OnlineKnobs(sampling_fraction=spec.sampling_fraction)
    return OnlineKnobs()


class SolverRef:
    """A solver named by its import path, imported on first use.

    The seed entries name their solvers this way, so loading the
    registry (which every experiment memo key consults) does not load
    the solver modules and numpy behind them.  Calling the reference,
    or reading any attribute of the solver through it, imports the
    module and looks the function up there, so a rebinding of the
    module attribute is seen.  :meth:`Scheme.digest` identifies it by
    ``path``: exactly the ``module.qualname`` string of the function.
    """

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def resolve(self) -> Callable:
        """Import the module and return the function ``path`` names."""
        module, _, name = self.path.rpartition(".")
        return getattr(importlib.import_module(module), name)

    def __call__(self, *args, **kwargs):
        return self.resolve()(*args, **kwargs)

    def __getattr__(self, name: str):
        if name == "path":  # not yet set (e.g. mid-unpickling)
            raise AttributeError(name)
        return getattr(self.resolve(), name)

    def __repr__(self) -> str:
        return f"SolverRef({self.path!r})"


@dataclass(frozen=True)
class Scheme:
    """One registered way of solving an interval cell.

    Attributes
    ----------
    name:
        Registry key; the value cells carry in ``CellSpec.scheme``.
    solver:
        Interval solver (see the module docstring for the two
        accepted signatures, selected by ``needs_rng``), or a
        :class:`SolverRef` naming one.
    uses_theta:
        Whether the Eq. 4.4 weight changes the scheme's decisions.
    needs_rng:
        Whether the solver consumes a random stream (derived from the
        spec's content hash, never shared between cells).
    description:
        One line for ``python -m repro --list-schemes``.
    """

    name: str
    solver: Callable
    uses_theta: bool = True
    needs_rng: bool = False
    description: str = ""
    #: Optional batch evaluator ``(problems, thetas) -> [SynTSSolution]``.
    #: Must be *result-identical* to mapping ``solver`` over the
    #: intervals (the same contract executor backends honour against
    #: the serial reference); the engine's CellBatch dispatch uses it
    #: to solve a whole (benchmark, stage) run in one pass.  Not part
    #: of :meth:`digest`: a batch solver may never change results,
    #: only wall time.
    batch_solver: Optional[Callable] = None

    def digest(self) -> Tuple[str, str, bool, bool]:
        """Plain-data image for cache keys.

        The solver is identified by its import path (callables have no
        stable content hash), so replacing a name with a *different
        function* changes the digest.  Best-effort by construction:
        swapping in another lambda defined at the same spot, or
        editing a solver's body in place, is invisible -- the
        package-version salt in every key covers released changes.
        """
        if isinstance(self.solver, SolverRef):
            solver_id = self.solver.path
        else:
            solver_id = (
                f"{getattr(self.solver, '__module__', '?')}."
                f"{getattr(self.solver, '__qualname__', repr(self.solver))}"
            )
        return (self.name, solver_id, self.uses_theta, self.needs_rng)

    @cached_property
    def digest_json(self) -> str:
        """Canonical JSON of :meth:`digest`, computed once per entry
        (cell keys mix it in for every spec; entries are frozen and
        re-registration installs a new object)."""
        from repro.serialization import canonical_json

        return canonical_json(list(self.digest()))

    def evaluate(self, problem, theta: float, spec) -> Tuple[float, float]:
        """Run the scheme on one interval; return (energy, time)."""
        if self.needs_rng:
            # lazy: repro.core must stay importable without the engine
            # package (which itself builds on repro.core)
            import numpy as np

            from repro.engine.cells import cell_seed

            rng = np.random.default_rng(cell_seed(spec))
            outcome = self.solver(problem, theta, rng, _online_knobs(spec))
            return float(outcome.total_energy), float(outcome.texec)
        solution = self.solver(problem, theta)
        evaluation = solution.evaluation
        return float(evaluation.total_energy), float(evaluation.texec)

    @property
    def supports_batch(self) -> bool:
        """Whether whole-run batch evaluation is available."""
        return self.batch_solver is not None and not self.needs_rng

    def evaluate_batch(
        self,
        problems: Sequence,
        thetas: Sequence[float],
        specs: Sequence,
    ) -> List[Tuple[float, float]]:
        """Run the scheme on many intervals; one (energy, time) each.

        Uses ``batch_solver`` when the scheme declares one (offline
        schemes only -- RNG-driven schemes derive a stream per cell and
        always evaluate per interval); otherwise falls back to the
        per-interval path.  Either way the values are identical to
        calling :meth:`evaluate` per cell.
        """
        if self.supports_batch:
            solutions = self.batch_solver(problems, thetas)
            return [
                (float(s.evaluation.total_energy), float(s.evaluation.texec))
                for s in solutions
            ]
        return [
            self.evaluate(problem, theta, spec)
            for problem, theta, spec in zip(problems, thetas, specs)
        ]


class SchemeRegistry:
    """Name -> :class:`Scheme`, with actionable failure modes.

    Duplicate registration raises (pass ``replace=True`` to override
    deliberately); unknown lookups name the registered schemes and the
    registration entry point.
    """

    def __init__(self) -> None:
        self._schemes: Dict[str, Scheme] = {}

    # -- registration --------------------------------------------------
    def register(self, scheme: Scheme, *, replace: bool = False) -> Scheme:
        if not isinstance(scheme, Scheme):
            raise TypeError(
                f"expected a Scheme, got {type(scheme).__name__}"
            )
        if scheme.name in self._schemes and not replace:
            raise ValueError(
                f"scheme {scheme.name!r} is already registered; pass "
                "replace=True to override it deliberately"
            )
        self._schemes[scheme.name] = scheme
        return scheme

    def unregister(self, name: str) -> None:
        if name not in self._schemes:
            raise KeyError(self._unknown_message(name))
        del self._schemes[name]

    # -- lookup --------------------------------------------------------
    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown scheme {name!r}; registered schemes: "
            f"{sorted(self._schemes)}. Register new schemes with "
            "repro.core.schemes.register_scheme(...)"
        )

    def get(self, name: str) -> Scheme:
        try:
            return self._schemes[name]
        except KeyError:
            raise KeyError(self._unknown_message(name)) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._schemes)

    def fingerprint(self) -> Tuple[Tuple[str, str, bool, bool], ...]:
        """Stable content image of the registered set, for cache keys."""
        return tuple(
            self._schemes[name].digest() for name in sorted(self._schemes)
        )

    def __contains__(self, name: object) -> bool:
        return name in self._schemes

    def __iter__(self) -> Iterator[Scheme]:
        return iter(self._schemes.values())

    def __len__(self) -> int:
        return len(self._schemes)


#: The process-wide default registry, seeded with the paper's schemes.
SCHEME_REGISTRY = SchemeRegistry()


def register_scheme(scheme: Scheme, *, replace: bool = False) -> Scheme:
    """Register a scheme with the default registry."""
    return SCHEME_REGISTRY.register(scheme, replace=replace)


def register_offline_scheme(
    name: str,
    solver: Callable,
    *,
    uses_theta: bool = True,
    description: str = "",
    batch_solver: Optional[Callable] = None,
    replace: bool = False,
) -> Scheme:
    """Shorthand: register a ``(problem, theta) -> SynTSSolution`` solver."""
    return register_scheme(
        Scheme(
            name=name,
            solver=solver,
            uses_theta=uses_theta,
            description=description,
            batch_solver=batch_solver,
        ),
        replace=replace,
    )


def get_scheme(name: str) -> Scheme:
    """Look a scheme up in the default registry (actionable KeyError)."""
    return SCHEME_REGISTRY.get(name)


def scheme_names() -> Tuple[str, ...]:
    """Names registered with the default registry."""
    return SCHEME_REGISTRY.names()


def scheme_fingerprint() -> Tuple[Tuple[str, str, bool, bool], ...]:
    """Default registry fingerprint (participates in cache keys)."""
    return SCHEME_REGISTRY.fingerprint()


# ----------------------------------------------------------------------
# seed entries: the paper's comparison schemes (Section 6)
# ----------------------------------------------------------------------
register_offline_scheme(
    "synts",
    SolverRef("repro.core.poly.solve_synts_poly"),
    batch_solver=SolverRef("repro.core.poly.solve_synts_poly_batch"),
    description="SynTS-Poly: joint (V, r) optimisation of Eq. 4.4",
)
register_offline_scheme(
    "no_ts",
    SolverRef("repro.core.baselines.solve_no_ts"),
    batch_solver=SolverRef("repro.core.baselines.solve_no_ts_batch"),
    description="joint DVFS with speculation disabled (r = 1)",
)
register_offline_scheme(
    "nominal",
    SolverRef("repro.core.baselines.solve_nominal"),
    uses_theta=False,
    description="every core at (V_max, r = 1); the normalisation baseline",
)
register_offline_scheme(
    "per_core_ts",
    SolverRef("repro.core.baselines.solve_per_core_ts"),
    batch_solver=SolverRef("repro.core.baselines.solve_per_core_ts_batch"),
    description="each core minimises en_i + theta*t_i in isolation",
)
register_scheme(
    Scheme(
        name="online",
        solver=SolverRef("repro.core.online.run_online_interval"),
        needs_rng=True,
        description="online SynTS: sampling phase + optimised phase "
        "(Section 4.3)",
    )
)
