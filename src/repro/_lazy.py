"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists the names it re-exports per submodule and
binds the two module hooks this builds::

    _EXPORTS = {"poly": ("solve_synts_poly",), ...}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``pkg.name`` (and ``from pkg import name``) then imports only the
submodule defining ``name``, on first use, and caches the value in the
package namespace so later lookups are plain attribute reads.
Submodules stay reachable as attributes (``pkg.poly``) as they were
when the package imported them eagerly.  ``dir(pkg)`` lists every
export, loaded or not.  Keeping package ``__init__``s lazy is what
lets a one-figure CLI run import only the modules it executes (see
``docs/architecture.md``, "Start-up").
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` hooks for ``package``.

    ``exports`` maps a submodule name, relative to ``package``, to the
    names the package re-exports from it.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is not None:
            try:
                value = getattr(importlib.import_module(f"{package}.{module}"), name)
            except AttributeError as exc:
                # ``from pkg import name`` would mask this as "cannot
                # import name"; keep the real failure in the chain
                raise ImportError(f"cannot load {package}.{name}: {exc}") from exc
        else:
            value = _submodule(package, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__


def _submodule(package: str, name: str) -> object:
    """``package.name`` as a submodule, or the ``AttributeError``."""
    missing = AttributeError(f"module {package!r} has no attribute {name!r}")
    if name.startswith("__"):
        # dunder probes (copy, pickle, inspect) never import anything
        raise missing
    try:
        return importlib.import_module(f"{package}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{package}.{name}":
            raise
    raise missing
