import random
from fractions import Fraction as Q

import pytest

from ineqprover import terms as T
from ineqprover.parsing import ParseError, parse_expression, parse_problem

import oracles


def test_prove_problem_with_two_hypotheses():
    problem = parse_problem(
        "assume: 0 < x\n"
        "assume: x < y\n"
        "prove: (1+x^2)/(2+y)^17 < (1+y^2)/(2+x)^10\n")
    assert len(problem.hypotheses) == 2
    assert problem.goal is not None
    lhs, rel, rhs = problem.goal
    assert rel == "<"


def test_declared_function_application():
    problem = parse_problem(
        "declare: exp increasing positive\n"
        "assume: 0 < x\n"
        "assume: x < y\n"
        "prove: (1+x^2)/(2+exp(y)) < (2+y^2)/(1+exp(x))\n")
    assert "exp" in problem.declarations
    decl = problem.declarations["exp"]
    assert decl.increasing and decl.range_sign == "pos"
    assert len(problem.hypotheses) == 2 and problem.goal is not None


def test_trivial_goal_parses():
    problem = parse_problem("prove: x < x\n")
    assert problem.goal == (T.Var("x"), "<", T.Var("x"))


def test_comments_and_blank_lines():
    problem = parse_problem(
        "# a comment\n"
        "\n"
        "assume: x < 1  # trailing comment\n")
    assert len(problem.hypotheses) == 1


def test_greater_than_normalized_by_swapping_sides():
    problem = parse_problem("assume: x > y\nassume: x >= 2\n")
    (l1, r1, rh1), (l2, r2, rh2) = problem.hypotheses
    assert (l1, r1, rh1) == (T.Var("y"), "<", T.Var("x"))
    assert r2 == "<=" and rh2 == T.Var("x")


def test_rational_literals_fold_exactly():
    term = parse_expression("3/4 * x")
    assert T.normalize(term) == T.normalize(T.Scale(Q(3, 4), T.Var("x")))


def test_precedence_and_unary_minus():
    term = parse_expression("-x^2 + 2*x*y - 1")
    expected = T.Sum([T.Neg(T.Pow(T.Var("x"), 2)),
                      T.Prod([T.Scale(2, T.One()), T.Var("x"), T.Var("y")]),
                      T.Neg(T.One())])
    assert T.equal_terms(term, expected)


def test_negative_exponent():
    term = parse_expression("x^-2")
    assert term == T.Pow(T.Var("x"), -2)


def test_decimal_literals_rejected():
    with pytest.raises(ParseError, match="decimal"):
        parse_expression("1.5 * x")


def test_zero_exponent_rejected():
    with pytest.raises(ParseError, match="exponent 0"):
        parse_expression("x^0")


def test_undeclared_function_symbol():
    with pytest.raises(ParseError, match="undeclared function symbol"):
        parse_problem("assume: exp(x) < 1\n")


def test_disequality_rejected_with_diagnostic():
    with pytest.raises(ParseError, match="case splits"):
        parse_problem("assume: x != y\n")


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_problem("assume: 0 < x\nassume: x < (y\n")
    assert err.value.line == 2
    assert err.value.column > 8


def test_divisions_count_toward_the_nesting_bound():
    # ``a/b/c`` nests its left side, so a group's divisions push the term it
    # sits in down with it; separate terms of a sum, and the two sides of a
    # comparison, nest on their own.
    chain = "/".join(["x"] * 51)                       # 50 divisions
    at_bound = f"({chain})" + "/x" * 50                # 50 + 50 levels
    assert T.normalize(parse_expression(at_bound)) == \
        T.normalize(parse_expression("x^-99"))
    with pytest.raises(ParseError, match="nested more than 100") as err:
        parse_expression(at_bound + "/x")
    assert err.value.column == len(at_bound) + 1
    wide = " + ".join([at_bound] * 3)
    parse_problem(f"assume: {wide} < {wide}\n")


def test_two_goals_rejected():
    with pytest.raises(ParseError, match="at most one goal"):
        parse_problem("prove: x < 1\nprove: x < 2\n")


def test_unknown_section_rejected():
    with pytest.raises(ParseError, match="unknown section"):
        parse_problem("conclude: x < 1\n")


def test_chained_comparison_rejected():
    with pytest.raises(ParseError, match="chained"):
        parse_problem("assume: 0 < x < y\n")


def test_options_parsed():
    problem = parse_problem(
        "option: max-rounds 12\noption: root-denom-bound 500\nassume: x < 1\n")
    assert problem.options == {"max-rounds": 12, "root-denom-bound": 500}
    with pytest.raises(ParseError):
        parse_problem("option: max-rounds zero\n")


def test_refute_section_collects_hypotheses():
    problem = parse_problem("assume: x < y\nrefute: y < x\n")
    assert len(problem.hypotheses) == 2
    assert problem.goal is None


def test_parse_render_round_trip_on_random_terms():
    rng = random.Random(99)
    bank = T.TermBank()
    for n in ("x", "y", "z"):
        bank.var(n)
    checked = 0
    while checked < 150:
        raw = oracles.random_raw_term(rng, ["x", "y", "z"], 3)
        try:
            nt = T.normalize(raw, bank)
        except T.TermError:
            continue
        text = T.render(nt)
        assert T.normalize(parse_expression(text), bank) == nt
        checked += 1
