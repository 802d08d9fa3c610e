"""Pluggable executor backends for the experiment engine.

Two strategies ship in-tree, both bit-identical to the serial
reference (enforced by the parallel-equivalence property test):

* ``serial``  -- in-order, in-process; the reference path.
* ``process`` -- process pool; the ``--jobs N`` behaviour.  Workers
  run the registry bootstrap hook (:mod:`repro.engine.bootstrap`) at
  start-up.

:func:`make_backend` builds one by name; :func:`register_backend`
makes the set open for out-of-tree strategies.  Factories take
``(workers)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro._lazy import lazy_exports
from repro.engine._registry import register_factory, resolve_factory

from .base import EmitFn, ExecutorBackend, null_emit

# the strategies load on first use: a serial run never imports
# multiprocessing or concurrent.futures
_EXPORTS = {
    "process": ("ProcessBackend",),
    "serial": ("SerialBackend",),
}

__all__ = [
    "EmitFn",
    "ExecutorBackend",
    "ProcessBackend",
    "SerialBackend",
    "backend_names",
    "make_backend",
    "null_emit",
    "register_backend",
]

#: Backend factory signature: ``(workers) -> backend``.
BackendFactory = Callable[[int], ExecutorBackend]


def _make_serial(workers: int) -> ExecutorBackend:
    from .serial import SerialBackend

    return SerialBackend()


def _make_process(workers: int) -> ExecutorBackend:
    from .process import ProcessBackend

    # the worker count is honoured exactly: --jobs 1 --backend process
    # really is a one-worker pool (constrained machines rely on it)
    return ProcessBackend(workers=workers)


_FACTORIES: Dict[str, BackendFactory] = {
    "serial": _make_serial,
    "process": _make_process,
}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Add an out-of-tree backend factory to :func:`make_backend`."""
    register_factory(_FACTORIES, "backend", name, factory, replace)


def backend_names() -> Tuple[str, ...]:
    """Names :func:`make_backend` accepts."""
    return tuple(_FACTORIES)


def make_backend(name: str, workers: int = 1) -> ExecutorBackend:
    """Build a backend by registry name; ``workers`` sizes the pool."""
    factory = resolve_factory(
        _FACTORIES,
        "backend",
        name,
        "repro.engine.backends.register_backend(...)",
    )
    return factory(max(1, int(workers)))


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
