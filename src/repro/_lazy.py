"""The one lazy re-export mechanism behind every ``repro`` package surface.

A package ``__init__`` lists ``name -> defining module`` in one table and
hands it to :func:`lazy_exports`; the returned PEP 562 ``__getattr__`` /
``__dir__`` pair imports a defining module the first time one of its names
is read *off the package* and caches the value in the package's globals, so
later reads are plain attribute lookups.  A process therefore loads the
layers it composes, not the catalogue (``docs/architecture.md``, "What a
process loads").

The rule that keeps this invisible on a request path: modules inside
``repro`` import from defining modules (``from ..kv.interface import
KeyValueStore``), never through a package surface -- so laziness is only
ever paid where application code says ``from repro import X``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package_globals: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Build ``(__getattr__, __dir__)`` for the package owning *package_globals*.

    *exports* maps each public name to the module that defines it, written
    relative to the package (``".memory"``, ``"..lsm.store"``).  Names not in
    the table fall back to the package's own submodules, so attribute chains
    such as ``repro.kv.memory`` keep working without an explicit import.
    Racing first accesses are safe: the import system serialises the module
    import, and every thread caches the same object.
    """
    package = package_globals["__name__"]

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is not None:
            value = getattr(import_module(target, package), name)
        else:
            missing = AttributeError(f"module {package!r} has no attribute {name!r}")
            if name.startswith("_"):
                raise missing
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise missing from None
        package_globals[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(package_globals.keys() | exports.keys())

    return __getattr__, __dir__
