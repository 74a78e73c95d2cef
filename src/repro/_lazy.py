"""Lazy package exports (PEP 562).

A package ``__init__`` lists each exported name with the module that
defines it and installs the pair this module returns::

    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Importing the package then loads none of its submodules.  The first
access to a name imports its defining module and caches the object in
the package's globals, so later lookups never reach ``__getattr__``.
A name the table lacks is tried as a submodule, so ``import repro;
repro.core.schedule_dag`` keeps working.  A run therefore compiles only
the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each exported name to its defining module.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
