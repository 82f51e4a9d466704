"""Package facades whose names resolve on first use (PEP 562).

A facade package lists what it exports and which submodule defines
each name; the submodule is imported the first time one of its names
is read, so ``import pkg`` loads nothing it does not run::

    __all__, __getattr__, __dir__ = facade(__name__, {
        "engine": ("run", "QueryResult"),
    })

``from pkg import *`` still binds every ``__all__`` name, and a name
the table does not list is an ``AttributeError``, so ``hasattr`` and
``getattr`` defaults keep working.
"""

import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def facade(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose
    ``table`` maps a submodule (relative, dotted; a leading ``.`` names
    a module of the parent package) to the names it defines."""
    parent = package.rpartition(".")[0]
    exports: Dict[str, str] = {
        name: parent + module if module[0] == "." else f"{package}.{module}"
        for module, names in table.items() for name in names
    }

    def __getattr__(name: str):
        try:
            qualified = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # ``__import__``, not ``importlib.import_module``: only the
        # former is timed by ``python -X importtime``.
        __import__(qualified)
        value = getattr(sys.modules[qualified], name)
        setattr(sys.modules[package], name, value)  # resolved once
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return list(exports), __getattr__, __dir__
