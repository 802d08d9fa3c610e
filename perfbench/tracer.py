"""Layer spans recorded from outside the program.

The traced run wraps the public entry point of each source module in a
span, without editing ``src/``.  :class:`Tracer` installs a
``sys.meta_path`` finder before ``repro`` is imported.  The finder
times every ``repro``/``numpy``/``scipy`` module import as an
``import.*`` span.  Right after a module named in :data:`FUNCTIONS`,
:data:`CLASS_METHODS` or :data:`ENGINE_MODULE` has executed, it swaps
that module's entry points for span-recording wrappers.  A caller that
``from``-imports an entry point later binds the wrapper.  The scheme
registry's solvers and ``run_online_interval``'s ``solver=`` default
bind it too.

Spans nest on one stack, recorded only on the thread that built the
tracer (cProfile, too, sees only the thread it was enabled on).  Per
layer the tracer keeps:

* ``calls``: spans recorded;
* ``busy_s``: wall time inside the layer, counting a span nested in a
  span of the same layer once;
* ``self_s``: span time minus the time covered by child spans.  The
  lazy ``scipy.special`` import inside an error-curve evaluation is
  an ``import.scipy`` child, so it stays out of
  ``errors.probability``'s self time.

Each wrapped function also counts its own calls under the key cProfile
uses for it, ``(co_filename, co_firstlineno, co_name)``, so
:func:`profile_mismatches` can check that every binding of every entry
point was wrapped.
"""

from __future__ import annotations

import _thread
import functools
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer, in report order.
LAYERS = (
    "cli",
    "experiments",
    "engine.executor",
    "engine.cells",
    "engine.backends",
    "engine.store.get",
    "engine.store.put",
    "serialization",
    "core.problem",
    "errors.probability",
    "core.poly",
    "core.online",
    "circuit.spice",
    "import.repro",
    "import.numpy",
    "import.scipy",
)

#: Counters and ratios reported next to the layers.
COUNTS = (
    "experiments.memo_hit_ratio",
    "engine.executor.cells_requested",
    "engine.executor.cells_computed",
    "engine.store.hit_ratio",
    "engine.store.put_errors",
    "import.modules",
)

#: Import spans by top-level package.
IMPORT_LAYERS = {
    "repro": "import.repro",
    "numpy": "import.numpy",
    "scipy": "import.scipy",
}

#: Module-level functions (dotted names resolve through classes, so
#: ``SynTSProblem._tables`` wraps the lazy time/energy tables).
FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "repro.serialization": (("serialization", "content_key"),),
    "repro.engine.cells": (
        ("engine.cells", "compute_batch"),
        ("engine.cells", "compute_cell"),
    ),
    "repro.core.problem": (
        ("core.problem", "problem_from_interval"),
        ("core.problem", "SynTSProblem._tables"),
    ),
    "repro.core.poly": (
        ("core.poly", "solve_synts_poly"),
        ("core.poly", "solve_synts_poly_batch"),
    ),
    "repro.core.online": (("core.online", "run_online_interval"),),
    "repro.circuit.spice": (("circuit.spice", "simulate_inverter_ring"),),
}

#: Modules whose classes' own definitions of these methods are wrapped.
CLASS_METHODS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "repro.errors.probability": ("errors.probability", ("curve", "__call__")),
    "repro.engine.backends.base": ("engine.backends", ("run_batches",)),
    "repro.engine.backends.serial": ("engine.backends", ("run_batches",)),
    "repro.engine.backends.process": ("engine.backends", ("run_batches",)),
}

#: The module whose engine class gets the executor, experiment-memo
#: and store hooks.
ENGINE_MODULE = "repro.engine.executor"

CodeKey = Tuple[str, int, str]


def code_key(fn: Callable) -> CodeKey:
    """The key cProfile files ``fn``'s calls under."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """In-memory span aggregation plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.busy_s = {layer: 0.0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        #: Wall time covered by top-level spans.
        self.covered_s = 0.0
        self.counters = {
            "experiment_calls": 0,
            "thunk_calls": 0,
            "cells_requested": 0,
            "cells_computed": 0,
            "store_gets": 0,
            "store_hits": 0,
            "modules_imported": 0,
        }
        #: code key -> [label, layer, calls]
        self.targets: Dict[CodeKey, List[Any]] = {}
        self._stack: List[List[Any]] = []
        self._depth = {layer: 0 for layer in LAYERS}
        self._main = _thread.get_ident()
        self._engines: List[Any] = []
        self._finder: Optional[_ImportTimer] = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def enter(self, layer: str, target: Optional[CodeKey] = None):
        """Open a span; returns the token :meth:`exit` closes."""
        if _thread.get_ident() != self._main:
            return None
        if target is not None:
            self.targets[target][2] += 1
        frame = [layer, perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def exit(self, frame) -> None:
        """Close the span ``frame`` (the innermost open one)."""
        if frame is None:
            return
        duration = perf_counter() - frame[1]
        self._stack.pop()
        layer = frame[0]
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[2]
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    def wrap(self, layer: str, fn: Callable, label: str) -> Callable:
        """A span-recording wrapper around ``fn``."""
        key = code_key(fn)
        self.targets.setdefault(key, [label, layer, 0])
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer, key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__perfbench_original__ = fn
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Put the import timer first on ``sys.meta_path``."""
        if any(name.startswith("repro") for name in sys.modules):
            raise RuntimeError("install the tracer before importing repro")
        self._finder = _ImportTimer(self)
        sys.meta_path.insert(0, self._finder)

    def uninstall(self) -> None:
        """Remove the import timer (wrappers stay in place)."""
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)

    def patch_module(self, module) -> None:
        """Wrap the entry points ``module`` defines, if it has any."""
        name = module.__name__
        for layer, dotted in FUNCTIONS.get(name, ()):
            self._patch_attribute(module, layer, dotted)
        if name in CLASS_METHODS:
            layer, methods = CLASS_METHODS[name]
            for cls in vars(module).copy().values():
                if isinstance(cls, type) and cls.__module__ == name:
                    for method in methods:
                        if method in vars(cls):
                            self._patch_attribute(
                                cls, layer, method, f"{name}.{cls.__qualname__}"
                            )
        if name == ENGINE_MODULE:
            self._patch_engine(module.ExperimentEngine)

    def _patch_attribute(self, owner, layer, dotted, prefix=None) -> None:
        label = f"{prefix or owner.__name__}.{dotted}"
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(
                self.wrap(layer, original.func, label)
            )
            replacement.__set_name__(owner, attr)
        else:
            replacement = self.wrap(layer, original, label)
        setattr(owner, attr, replacement)

    def _patch_engine(self, engine_cls) -> None:
        tracer = self
        run_cells = engine_cls.run_cells
        experiment = engine_cls.experiment
        init = engine_cls.__init__
        traced_run_cells = self.wrap(
            "engine.executor",
            run_cells,
            f"{ENGINE_MODULE}.ExperimentEngine.run_cells",
        )

        @functools.wraps(run_cells)
        def counted_run_cells(engine, specs):
            before = engine.cells_computed
            tracer.counters["cells_requested"] += len(specs)
            try:
                return traced_run_cells(engine, specs)
            finally:
                tracer.counters["cells_computed"] += (
                    engine.cells_computed - before
                )

        @functools.wraps(experiment)
        def traced_experiment(engine, key_parts, thunk):
            tracer.counters["experiment_calls"] += 1
            return experiment(engine, key_parts, tracer._wrap_thunk(thunk))

        @functools.wraps(init)
        def traced_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            tracer._attach_store(engine)

        engine_cls.run_cells = counted_run_cells
        engine_cls.experiment = traced_experiment
        engine_cls.__init__ = traced_init

    def _wrap_thunk(self, thunk: Callable) -> Callable:
        key = code_key(thunk)
        self.targets.setdefault(
            key, [f"experiment thunk {key[2]}@{key[1]}", "experiments", 0]
        )

        def traced_thunk():
            self.counters["thunk_calls"] += 1
            frame = self.enter("experiments", key)
            try:
                return thunk()
            finally:
                self.exit(frame)

        return traced_thunk

    def _attach_store(self, engine) -> None:
        store = engine.cache
        if hasattr(store.get, "__perfbench_original__"):
            return  # a store shared with an engine already traced
        self._engines.append(engine)
        label = f"{type(store).__module__}.{type(store).__qualname__}"
        traced_get = self.wrap(
            "engine.store.get", type(store).get, f"{label}.get"
        ).__get__(store)
        counters = self.counters

        @functools.wraps(traced_get)
        def counted_get(key):
            payload = traced_get(key)
            counters["store_gets"] += 1
            counters["store_hits"] += payload is not None
            return payload

        counted_get.__perfbench_original__ = store.get
        store.get = counted_get
        store.put = self.wrap(
            "engine.store.put", type(store).put, f"{label}.put"
        ).__get__(store)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Layer totals, raw counters and per-target call counts."""
        raw = dict(self.counters)
        raw["put_errors"] = sum(
            int(tier.get("put_errors", 0))
            for engine in self._engines
            for tier in engine.store_stats()
        )
        return {
            "layers": {
                layer: {
                    "calls": self.calls[layer],
                    "busy_s": self.busy_s[layer],
                    "self_s": self.self_s[layer],
                }
                for layer in LAYERS
            },
            "raw_counts": raw,
            "covered_s": self.covered_s,
            "targets": [
                {"code": list(key), "label": label, "layer": layer, "calls": n}
                for key, (label, layer, n) in self.targets.items()
            ],
        }


def derive_counts(raw: Dict[str, float]) -> Dict[str, float]:
    """The :data:`COUNTS` metrics from (summed) raw counters."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "experiments.memo_hit_ratio": ratio(
            raw["experiment_calls"] - raw["thunk_calls"], raw["experiment_calls"]
        ),
        "engine.executor.cells_requested": raw["cells_requested"],
        "engine.executor.cells_computed": raw["cells_computed"],
        "engine.store.hit_ratio": ratio(raw["store_hits"], raw["store_gets"]),
        "engine.store.put_errors": raw["put_errors"],
        "import.modules": raw["modules_imported"],
    }


class _ImportTimer:
    """Times imports and patches entry-point modules once they ran."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        self.tracer.counters["modules_imported"] += 1
        layer = IMPORT_LAYERS.get(fullname.partition(".")[0])
        if layer is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, layer, self.tracer)
        return spec


class _TimedLoader:
    """Loader proxy: one import span from module creation to execution."""

    def __init__(self, loader, layer: str, tracer: Tracer) -> None:
        self._loader = loader
        self._layer = layer
        self._tracer = tracer
        self._frame = None

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def create_module(self, spec):
        self._frame = self._tracer.enter(self._layer)
        try:
            create = getattr(self._loader, "create_module", None)
            return create(spec) if create is not None else None
        except BaseException:
            self._tracer.exit(self._frame)
            self._frame = None
            raise

    def exec_module(self, module):
        frame = self._frame or self._tracer.enter(self._layer)
        self._frame = None
        try:
            self._loader.exec_module(module)
        finally:
            self._tracer.exit(frame)
            module.__loader__ = self._loader
            if getattr(module, "__spec__", None) is not None:
                module.__spec__.loader = self._loader
        self._tracer.patch_module(module)


def profile_mismatches(
    targets: List[Dict[str, Any]], stats: Dict[Tuple, Tuple]
) -> List[str]:
    """Targets whose span count differs from cProfile's call count.

    ``stats`` is ``pstats``' ``stats`` mapping of the same process.  A
    binding the tracer missed shows up as more profiled calls than
    spans.
    """
    problems = []
    for target in targets:
        profiled = stats.get(tuple(target["code"]), (0, 0))[1]
        if profiled != target["calls"]:
            problems.append(
                f"{target['label']}: {target['calls']} spans, "
                f"{profiled} profiled calls"
            )
    return problems
