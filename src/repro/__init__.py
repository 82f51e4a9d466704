"""repro — a reproduction of Beeri & Milo,
*On the Power of Algebras with Recursion* (SIGMOD 1993).

The package implements both query-language paradigms the paper relates
and the translations between them:

* :mod:`repro.relations` — complex-object values, relations, bounded
  universes (the data substrate);
* :mod:`repro.specs` — algebraic specifications with negation, valid
  interpretations, initial-valid-model analysis (Section 2);
* :mod:`repro.datalog` — the deductive engine: safety, stratification,
  grounding, and the minimal / stratified / inflationary / well-founded /
  valid / stable semantics (Section 4);
* :mod:`repro.core` — the algebras (``algebra``, ``IFP-algebra``,
  ``algebra=``, ``IFP-algebra=``), the native three-valued evaluator, and
  the translations of Sections 5 and 6;
* :mod:`repro.lang` — a concrete syntax for ``algebra=`` programs;
* :mod:`repro.corpus` — shared workloads for tests and benchmarks.

Quickstart::

    from repro import (
        parse_algebra_program, parse_program, Dialect,
        valid_evaluate, run, check_algebra_roundtrip,
    )

See ``examples/quickstart.py`` for a complete tour.

The names below resolve on first use (PEP 562): ``import repro`` loads
no subpackage, so a process that only serves (``repro serve``, a
cluster worker) never pays for the algebra, specification and syntax
libraries it does not run.
"""

from ._lazy import facade

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "relations": (
            "Atom", "Tup", "FSet", "tup", "fset", "Relation", "Universe",
            "standard_registry",
        ),
        "relations.universe": ("translation_registry",),
        "datalog": ("Program", "Database", "run"),
        "datalog.parser": ("parse_program",),
        "core": (
            "Dialect", "Definition", "AlgebraProgram", "evaluate",
            "valid_evaluate", "ValidEvalResult", "EvalLimits",
            "translate_expression", "translate_program", "datalog_to_algebra",
            "run_staged", "check_algebra_roundtrip", "check_datalog_roundtrip",
        ),
        "lang": ("parse_algebra_program", "parse_algebra_expr"),
        "specs": ("Specification", "valid_interpretation", "analyze_constant_spec"),
    },
)
__all__ = ["__version__", *__all__]
