"""The deductive-database engine (Section 4 of the paper)."""

from .ast import (
    Comparison,
    Const,
    FuncTerm,
    Literal,
    PredAtom,
    Program,
    Rule,
    Var,
    eq,
    fact,
    neg,
    neq,
    pos,
    rule,
)
from .database import Database
from .engine import SEMANTICS, QueryResult, run
from .grounding import (
    GroundingBudgetExceeded,
    GroundingError,
    GroundProgram,
    GroundRule,
    UnsafeRuleError,
    ground,
)
from .magic import (
    MagicProgram,
    MagicTransformError,
    adorned_name,
    adornment_for,
    magic_name,
    magic_transform,
    seed_name,
)
from .annotated import annotated_model, edb_annotations
from .kernel import JoinKernel, Plan, compile_plan
from .seminaive import seminaive_stratified
from .domain_independence import (
    DomainIndependenceProbe,
    appears_domain_independent,
    is_safe_hence_di,
)
from .stratification import (
    NotStratifiedError,
    dependency_graph,
    is_locally_stratified,
    is_stratified,
    open_cone,
    strata_partition,
    stratify,
)

__all__ = [
    "Var",
    "Const",
    "FuncTerm",
    "PredAtom",
    "Literal",
    "Comparison",
    "Rule",
    "Program",
    "pos",
    "neg",
    "eq",
    "neq",
    "rule",
    "fact",
    "Database",
    "ground",
    "GroundProgram",
    "GroundRule",
    "GroundingError",
    "GroundingBudgetExceeded",
    "UnsafeRuleError",
    "run",
    "QueryResult",
    "SEMANTICS",
    "dependency_graph",
    "is_stratified",
    "stratify",
    "open_cone",
    "strata_partition",
    "is_locally_stratified",
    "NotStratifiedError",
    "DomainIndependenceProbe",
    "appears_domain_independent",
    "is_safe_hence_di",
    "JoinKernel",
    "Plan",
    "compile_plan",
    "seminaive_stratified",
    "annotated_model",
    "edb_annotations",
    "MagicProgram",
    "MagicTransformError",
    "adorned_name",
    "adornment_for",
    "magic_name",
    "magic_transform",
    "seed_name",
]
