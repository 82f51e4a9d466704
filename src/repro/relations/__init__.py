"""Complex-object values, relations, and bounded universes.

This is the data substrate under everything else: the paper's databases
are "collections of named sets" of complex-object values (Section 3).

The names below resolve on first use (PEP 562): the deductive engine
and the server need the values and the function registry, and only
the algebra needs :class:`Relation`.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "values": (
            "Atom", "FSet", "Tup", "Value", "format_value", "fset", "is_value",
            "sort_of", "sorted_values", "tup", "value_key",
        ),
        "relation": ("Relation",),
        "universe": (
            "Universe", "DomainFunction", "FunctionRegistry", "standard_registry",
        ),
    },
)
