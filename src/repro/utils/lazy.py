"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names with
eager ``from .module import name`` statements makes every import of any
one submodule pay for all of them, and for everything they import in
turn. :func:`lazy_exports` keeps the same public surface — ``__all__``,
``from package import name``, ``from package import *``, ``dir(package)``
— and imports a defining module only when one of its names is first read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """Build ``(__all__, __getattr__, __dir__)`` for the package *package*.

    *exports* maps each defining module to the public names it supplies::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.smt.parser": ("ParseError", "parse_script"),
            "repro.smt.solver": ("QuantumSMTSolver", "SmtResult"),
        })

    Nothing is cached in the package namespace: every read goes to the
    defining module, so a patch applied there shows through the package
    too. A name that is not an export is looked up as a submodule
    (``repro.smt.solver`` after a bare ``import repro.smt``). Anything else
    raises :class:`AttributeError` naming the package.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            return getattr(importlib.import_module(module), name)
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return sorted(home), __getattr__, __dir__
