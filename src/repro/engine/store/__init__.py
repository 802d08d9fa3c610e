"""Pluggable result stores for the experiment engine.

Three stores ship in-tree, selected by name through
:func:`make_store` (the CLI's ``--store`` and ``--cache-dir``
options go through it):

* ``memory``  -- volatile dict store; the default with no cache dir.
* ``jsondir`` -- the on-disk JSON-directory format (atomic writes,
  corrupt-entry skipping); needs ``cache_dir``.
* ``tiered``  -- read-through/write-back memory + jsondir; the
  default whenever a cache dir is configured.

:func:`register_store` keeps the set open: an out-of-tree backend
(sqlite, object store, shared NFS) is a registration, not an engine
change -- see ``docs/extending.md`` for the walkthrough.  Factories
declare keyword-only parameters for the options they need
(``cache_dir`` today); :func:`make_store` forwards matching options
and rejects unknown ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.engine._registry import (
    register_factory,
    resolve_factory,
    validate_factory_options,
)

from .base import CorruptCallback, ResultStore, StoreEntry, StoreStats
from .jsondir import JsonDirStore
from .memory import MemoryStore
from .tiered import TieredStore

__all__ = [
    "CorruptCallback",
    "JsonDirStore",
    "MemoryStore",
    "ResultStore",
    "StoreEntry",
    "StoreStats",
    "TieredStore",
    "default_store_name",
    "make_store",
    "register_store",
    "store_names",
]

#: Store factory signature: keyword-only options (``cache_dir``) a
#: factory declares are forwarded by :func:`make_store`.
StoreFactory = Callable[..., ResultStore]


def _make_memory() -> ResultStore:
    return MemoryStore()


def _make_jsondir(*, cache_dir: Optional[str] = None) -> ResultStore:
    if not cache_dir:
        raise ValueError(
            "the jsondir store needs a directory: pass --cache-dir DIR"
        )
    return JsonDirStore(cache_dir)


def _make_tiered(*, cache_dir: Optional[str] = None) -> ResultStore:
    if not cache_dir:
        raise ValueError(
            "the tiered store needs a directory for its persistent "
            "tier: pass --cache-dir DIR (or use --store memory)"
        )
    return TieredStore([MemoryStore(), JsonDirStore(cache_dir)])


_FACTORIES: Dict[str, StoreFactory] = {
    "memory": _make_memory,
    "jsondir": _make_jsondir,
    "tiered": _make_tiered,
}


def register_store(
    name: str, factory: StoreFactory, *, replace: bool = False
) -> None:
    """Add an out-of-tree store factory to :func:`make_store`."""
    register_factory(_FACTORIES, "store", name, factory, replace)


def store_names() -> Tuple[str, ...]:
    """Names :func:`make_store` accepts."""
    return tuple(_FACTORIES)


def default_store_name(cache_dir: Optional[str] = None) -> str:
    """The store selected when ``--store`` is not given."""
    return "tiered" if cache_dir else "memory"


def make_store(name: str, **options) -> ResultStore:
    """Build a store by registry name.

    ``options`` (e.g. ``cache_dir``) are forwarded to factories that
    declare a matching keyword-only parameter; passing an option the
    chosen store does not accept is an error, not a silent no-op.
    """
    factory = resolve_factory(
        _FACTORIES, "store", name, "repro.engine.store.register_store(...)"
    )
    options = validate_factory_options("store", name, factory, options)
    return factory(**options)
