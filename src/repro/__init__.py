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

import importlib

__version__ = "1.0.0"

#: Public name → the submodule that defines it.
_EXPORTS = {
    # relations
    "Atom": "relations",
    "Tup": "relations",
    "FSet": "relations",
    "tup": "relations",
    "fset": "relations",
    "Relation": "relations",
    "Universe": "relations",
    "standard_registry": "relations",
    # datalog
    "Program": "datalog",
    "Database": "datalog",
    "run": "datalog",
    "parse_program": "datalog.parser",
    # core
    "Dialect": "core",
    "Definition": "core",
    "AlgebraProgram": "core",
    "evaluate": "core",
    "valid_evaluate": "core",
    "ValidEvalResult": "core",
    "EvalLimits": "core",
    "translate_expression": "core",
    "translate_program": "core",
    "datalog_to_algebra": "core",
    "run_staged": "core",
    "translation_registry": "relations.universe",
    "check_algebra_roundtrip": "core",
    "check_datalog_roundtrip": "core",
    # lang
    "parse_algebra_program": "lang",
    "parse_algebra_expr": "lang",
    # specs
    "Specification": "specs",
    "valid_interpretation": "specs",
    "analyze_constant_spec": "specs",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # resolved once
    return value


def __dir__():
    return sorted({*globals(), *__all__})
