"""Lazy package exports (PEP 562).

A package that re-exports its submodules' names imports every one of
those submodules when it is imported itself, and so whatever they
import.  :func:`lazy_exports` lets a package name where each of its
exports lives instead: a name's submodule is imported on the first
read of the name, so ``import repro.trace`` loads no submodule, and a
bare run loads only the instruments it uses.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``,
    whose ``table`` maps each submodule (by its name in the package) to
    the names the package exports from it.  A name, once read, is bound
    in the package, so only its first read costs more than a global."""
    where = {
        name: f"{package}.{module}"
        for module, names in table.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return __getattr__, __dir__
