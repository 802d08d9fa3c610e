"""Shared factory-registry machinery (backends, stores).

Both open registries of the engine -- executor backends
(:mod:`repro.engine.backends`) and result stores
(:mod:`repro.engine.store`) -- follow the same pattern: a name ->
factory mapping and ``register_*`` with an explicit ``replace``
guard.  Store factories also get keyword-only option forwarding
discovered from the factory's signature (passing an option the
chosen factory does not accept is an error, not a silent no-op).
This module is that pattern, written once, so the two registries
cannot drift.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Mapping, Optional

__all__ = [
    "factory_option_names",
    "register_factory",
    "resolve_factory",
    "validate_factory_options",
]


def register_factory(
    factories: Dict[str, Callable],
    kind: str,
    name: str,
    factory: Callable,
    replace: bool = False,
) -> None:
    """Add ``factory`` under ``name``; refuse silent overwrites."""
    if name in factories and not replace:
        raise ValueError(
            f"{kind} {name!r} is already registered; pass replace=True "
            "to override it deliberately"
        )
    factories[name] = factory


def resolve_factory(
    factories: Mapping[str, Callable],
    kind: str,
    name: str,
    remedy: str,
) -> Callable:
    """The factory for ``name``, or an actionable ``KeyError``."""
    try:
        return factories[name]
    except KeyError:
        raise KeyError(
            f"unknown {kind} {name!r}; registered {kind}s: "
            f"{sorted(factories)}. Register new {kind}s with {remedy}"
        ) from None


def factory_option_names(factory: Callable) -> Optional[frozenset]:
    """Keyword-only option names a factory accepts (``None`` = any)."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return frozenset()
    names = set()
    for parameter in parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY:
            names.add(parameter.name)
    return frozenset(names)


def validate_factory_options(
    kind: str,
    name: str,
    factory: Callable,
    options: Dict,
) -> Dict:
    """Drop ``None`` options; reject ones the factory does not accept.

    Returns the filtered options ready to pass to the factory.
    """
    options = {k: v for k, v in options.items() if v is not None}
    accepted = factory_option_names(factory)
    if accepted is not None:
        unknown = set(options) - accepted
        if unknown:
            raise ValueError(
                f"{kind} {name!r} does not accept option(s) "
                f"{sorted(unknown)}"
            )
    return options
