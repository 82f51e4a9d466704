"""Unit tests for the algebra surface syntax."""

import pytest

from repro.core.expressions import (
    Call,
    Diff,
    Ifp,
    Map,
    Product,
    RelVar,
    Select,
    SetConst,
    Union,
)
from repro.core.funcs import Apply, Arg, Comp, CompareTest, Lit, MkTup
from repro.core.programs import Dialect, ProgramError
from repro.datalog.parser import parse_term
from repro.lang import (
    AlgebraParseError,
    parse_algebra_expr,
    parse_algebra_program,
    pretty_algebra_expr,
)
from repro.relations import Atom, Tup, format_value


class TestStrings:
    """Both grammars read a quoted string with the one ``unquote``."""

    def test_a_doubled_backslash_is_one_in_both_languages(self):
        text = r"'a\\b'"
        [value] = parse_algebra_expr("{" + text + "}").values
        assert value == "a\\b"
        assert parse_term(text).value == value

    @pytest.mark.parametrize(
        "value", ["a\\b", "it's", "a\\", "\\'", "x\\\\y", "two\nlines", ""]
    )
    def test_format_value_reads_back_in_both_languages(self, value):
        text = format_value(value)
        assert parse_term(text).value == value
        assert parse_algebra_expr("{" + text + "}").values == frozenset({value})
        mapped = parse_algebra_expr("map[" + text + "](A)", relations=["A"])
        assert mapped.func == Lit(value)


class TestNegativeIntegers:
    """``-<digits>`` is a literal where a value is expected and set
    difference everywhere else."""

    def test_format_value_reads_back(self):
        assert parse_algebra_expr("{" + format_value(-7) + "}").values == frozenset({-7})

    @pytest.mark.parametrize(
        "expr",
        [
            SetConst(frozenset({-7, 3, Tup((-1, Atom("a")))})),
            Map(RelVar("A"), Lit(-2)),
            Map(RelVar("A"), MkTup((Comp(Arg(), 1), Lit(-10)))),
            Select(RelVar("A"), CompareTest("=", Comp(Arg(), 1), Lit(-3))),
            Diff(RelVar("A"), SetConst(frozenset({-4}))),
        ],
    )
    def test_pretty_reads_back(self, expr):
        assert parse_algebra_expr(pretty_algebra_expr(expr), relations=["A"]) == expr

    def test_difference_parses_as_before(self):
        expr = parse_algebra_expr("A - B - {1}", relations=["A", "B"])
        assert expr == Diff(Diff(RelVar("A"), RelVar("B")), SetConst(frozenset({1})))

    def test_a_minus_without_digits_is_no_value(self):
        with pytest.raises(AlgebraParseError):
            parse_algebra_expr("{-a}")


class TestExpressions:
    def test_union_diff_left_assoc(self):
        expr = parse_algebra_expr("A u B - C", relations=["A", "B", "C"])
        assert expr == Diff(Union(RelVar("A"), RelVar("B")), RelVar("C"))

    def test_product_binds_tighter(self):
        expr = parse_algebra_expr("A u B * C", relations=["A", "B", "C"])
        assert expr == Union(RelVar("A"), Product(RelVar("B"), RelVar("C")))

    def test_parentheses(self):
        expr = parse_algebra_expr("A - (B u C)", relations=["A", "B", "C"])
        assert expr == Diff(RelVar("A"), Union(RelVar("B"), RelVar("C")))

    def test_set_constants(self):
        expr = parse_algebra_expr("{a, 1, 'x', [a, b]}")
        assert isinstance(expr, SetConst)
        assert Atom("a") in expr.values
        assert 1 in expr.values
        assert "x" in expr.values
        assert Tup((Atom("a"), Atom("b"))) in expr.values

    def test_empty(self):
        assert parse_algebra_expr("empty") == SetConst(frozenset())
        assert parse_algebra_expr("{}") == SetConst(frozenset())

    def test_sigma(self):
        expr = parse_algebra_expr("sigma[it.1 = a](R)", relations=["R"])
        assert isinstance(expr, Select)
        assert expr.test == CompareTest("=", Comp(Arg(), 1), Lit(Atom("a")))

    def test_sigma_connectives(self):
        expr = parse_algebra_expr(
            "sigma[it > 1 and not (it > 5)](R)", relations=["R"]
        )
        assert isinstance(expr, Select)

    def test_map_scalars(self):
        expr = parse_algebra_expr("map[[it.2, succ(it.1)]](R)", relations=["R"])
        assert isinstance(expr, Map)
        assert expr.func == MkTup(
            (Comp(Arg(), 2), Apply("succ", (Comp(Arg(), 1),)))
        )

    def test_pi_sugar(self):
        expr = parse_algebra_expr("pi2(R)", relations=["R"])
        assert expr == Map(RelVar("R"), Comp(Arg(), 2))

    def test_ifp(self):
        expr = parse_algebra_expr("ifp(w, {a} - w)")
        assert isinstance(expr, Ifp)
        assert expr.param == "w"
        assert expr.body == Diff(SetConst(frozenset({Atom("a")})), RelVar("w"))

    def test_call_with_args(self):
        expr = parse_algebra_expr(
            "inter(A, B)", relations=["A", "B"], defined=["inter"]
        )
        assert expr == Call("inter", (RelVar("A"), RelVar("B")))

    def test_unknown_name_rejected(self):
        with pytest.raises(AlgebraParseError, match="unknown name"):
            parse_algebra_expr("MYSTERY")

    def test_trailing_input_rejected(self):
        with pytest.raises(AlgebraParseError):
            parse_algebra_expr("A A", relations=["A"])


class TestPrograms:
    def test_relations_header(self):
        program = parse_algebra_program(
            "relations R, S;\nT = R u S;", dialect=Dialect.ALGEBRA_EQ
        )
        assert program.database_relations == {"R", "S"}

    def test_parameters_resolve(self):
        program = parse_algebra_program(
            "inter(x, y) = x - (x - y);", dialect=Dialect.ALGEBRA_EQ
        )
        definition = program.definition("inter")
        assert definition.params == ("x", "y")
        assert definition.body == Diff(
            RelVar("x"), Diff(RelVar("x"), RelVar("y"))
        )

    def test_zero_ary_recursion_resolves_to_call(self):
        program = parse_algebra_program(
            "relations MOVE;\nWIN = pi1(MOVE - (pi1(MOVE) * WIN));",
            dialect=Dialect.ALGEBRA_EQ,
        )
        from repro.core.expressions import called_names

        assert called_names(program.definition("WIN").body) == {"WIN"}

    def test_comments(self):
        program = parse_algebra_program("% header\nS = {a}; % tail\n")
        assert len(program.definitions) == 1

    def test_dialect_enforced(self):
        with pytest.raises(ProgramError):
            parse_algebra_program(
                "S = ifp(x, x u {a});", dialect=Dialect.ALGEBRA_EQ
            )

    def test_ifp_param_scopes_inside_body_only(self):
        program = parse_algebra_program("S = ifp(w, w u {a});")
        body = program.definition("S").body
        assert isinstance(body, Ifp)
        assert isinstance(body.body.left, RelVar)
