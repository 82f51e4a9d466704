"""The deductive-database engine (Section 4 of the paper).

The names below resolve on first use (PEP 562): a serving process that
only maintains stratified views loads the AST, parser, join kernel and
stratification, and never the grounder, the declarative semantics of
:func:`run`, magic sets or the annotated evaluator.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "ast": (
            "Var", "Const", "FuncTerm", "PredAtom", "Literal", "Comparison",
            "Rule", "Program", "pos", "neg", "eq", "neq", "rule", "fact",
        ),
        "database": ("Database", "split_program_and_facts"),
        "grounding": (
            "ground", "GroundProgram", "GroundRule", "GroundingError",
            "GroundingBudgetExceeded", "UnsafeRuleError",
        ),
        "engine": ("run", "QueryResult"),
        "stratification": (
            "SEMANTICS", "dependency_graph", "is_stratified", "stratify",
            "open_cone", "strata_partition", "is_locally_stratified",
            "NotStratifiedError",
        ),
        "domain_independence": (
            "DomainIndependenceProbe", "appears_domain_independent",
            "is_safe_hence_di",
        ),
        "kernel": ("JoinKernel", "Plan", "compile_plan"),
        "seminaive": ("seminaive_stratified",),
        "annotated": ("annotated_model", "edb_annotations"),
        "magic": (
            "MagicProgram", "MagicTransformError", "adorned_name",
            "adornment_for", "magic_name", "magic_transform", "seed_name",
        ),
    },
)
