"""Lazy package namespaces (PEP 562), after scientific-python SPEC 1.

A package ``__init__`` names its public surface as a ``{submodule:
[names]}`` map and hands it to :func:`attach`; each submodule is imported
the first time one of its names is read, so importing the package itself
costs nothing.  ``repro serve`` relies on this to boot without the
analysis, workload and topology modules it never runs::

    __getattr__, __dir__ = attach(__name__, {
        "engine": ["RunResult", "Simulator"],
        "runner": ["run", "run_many"],
    })

A name that no submodule provides raises :class:`AttributeError`, so
``from package import submodule`` still falls through to a plain
submodule import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str, submodules: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return the ``__getattr__`` and ``__dir__`` of a lazy ``package``.

    ``submodules`` maps a submodule's name, relative to ``package``, to
    the names it defines that the package re-exports.  A resolved name is
    cached in the package's namespace, so each is looked up once.
    """
    owner = {name: sub for sub, names in submodules.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
