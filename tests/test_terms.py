import copy
import pickle
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqprover import terms as T
from ineqprover.parsing import parse_expression
from oracles import has_zero_denominator, random_assignment, random_raw_term

x, y, z = T.Var("x"), T.Var("y"), T.Var("z")
NAMES = ["x", "y", "z"]


# --- identities the theory must prove ----------------------------------------

def test_doubling_matches_scalar_two():
    assert T.equal_terms(x + x, T.Scale(2, x))


def test_two_times_two_is_four():
    two = T.One() + 1
    four = T.Sum([T.One(), T.One(), T.One(), T.One()])
    assert T.equal_terms(two * two, four)
    assert T.render(T.normalize(two * two)) == "4"


def test_multiplying_by_one_is_identity():
    nt = T.normalize(T.Prod([T.One(), x]))
    assert T.render(nt) == "x"
    assert nt.coeff == 1


def test_sum_commutativity_absorbed():
    bank = T.TermBank()
    left = T.normalize(x + y, bank)
    right = T.normalize(y + x, bank)
    assert left == right
    assert left is right  # one object per normal form within a bank


def test_factored_forms_stay_distinct():
    # No distributivity: x(1+y) and x + xy have different canonical forms.
    assert not T.equal_terms(x * (T.One() + y), x + x * y)


def test_equality_is_reflexive():
    t = (x + 1) ** 2 * y - z / x
    assert T.equal_terms(t, t)


# --- the order on preterms ----------------------------------------------------

def test_variable_order_by_first_appearance():
    bank = T.TermBank()
    x1, x2 = bank.var("x1"), bank.var("x2")
    assert T.precedes(x2, x1)
    assert not T.precedes(x1, x2)
    assert not T.precedes(x1, x1)
    assert T.precedes(x1, T.ONE)
    assert not T.precedes(T.ONE, x1)


def test_additive_comparison_is_lexicographic():
    # Coefficient vectors (1, 1/2) against (1, 2/3): decided at the second
    # position, 1/2 < 2/3.
    bank = T.TermBank()
    small = T.normalize(T.Var("x1") + T.Scale(Q(1, 2), T.Var("x2")), bank)
    large = T.normalize(T.Var("x1") + T.Scale(Q(2, 3), T.Var("x2")), bank)
    assert T.precedes(small.body, large.body)
    assert not T.precedes(large.body, small.body)


def _order_corpus():
    rng = random.Random(20240)
    bank = T.TermBank()
    seeds = [
        x, y, T.One(), x + y, x - y, x * y, x ** 2, (x + y) ** 2,
        x ** 2 + y, x * y ** -1, (T.One() + x) * y, (x + y) * (x - y),
        T.One() + x + x ** 2, ((x + y) ** 2 + z) * x,
    ]
    for _ in range(40):
        seeds.append(random_raw_term(rng, NAMES, 3, division=False))
    bodies = []
    for raw in seeds:
        try:
            nt = T.normalize(raw, bank)
        except T.TermError:
            continue
        if not nt.is_zero and nt.body not in bodies:
            bodies.append(nt.body)
    return bodies


def test_order_is_strict_and_total_on_corpus():
    bodies = _order_corpus()
    assert len(bodies) > 25
    for p in bodies:
        assert not T.precedes(p, p)
    for i, p in enumerate(bodies):
        for q in bodies[i + 1:]:
            assert T.precedes(p, q) != T.precedes(q, p)


def test_order_is_transitive_on_corpus():
    bodies = _order_corpus()[:30]
    for p in bodies:
        for q in bodies:
            for r in bodies:
                if T.precedes(p, q) and T.precedes(q, r):
                    assert T.precedes(p, r)


def test_term_order_coefficient_cases():
    bank = T.TermBank()
    a = T.normalize(x, bank)
    na = T.normalize(-x, bank)
    b = T.normalize(T.Scale(2, x), bank)
    zero = T.normalize(x - x, bank)
    assert T.term_precedes(na, zero)
    assert T.term_precedes(zero, a)
    assert T.term_precedes(a, b)
    assert T.term_precedes(na, b)
    assert not T.term_precedes(a, a)


# --- combination operations ---------------------------------------------------

def test_like_terms_merge():
    bank = T.TermBank()
    two_x = T.normalize(T.Scale(2, x), bank)
    three_x = T.normalize(T.Scale(3, x), bank)
    assert T.combine("add", two_x, three_x) == T.normalize(T.Scale(5, x), bank)
    assert T.combine("mul", two_x, three_x) == T.normalize(
        T.Scale(6, x ** 2), bank)


def test_cancellation_gives_zero():
    bank = T.TermBank()
    plus = T.normalize(x, bank)
    minus = T.normalize(-x, bank)
    assert T.combine("add", plus, minus) is T.ZERO


def test_inverse_and_powers():
    bank = T.TermBank()
    nt = T.normalize(T.Scale(2, x), bank)
    inv = T.invert(nt)
    assert T.render(inv) == "1/2 * x^-1"
    assert T.combine("mul", nt, inv) == T.TERM_ONE
    assert T.pow_int(nt, 3) == T.normalize(T.Scale(8, x ** 3), bank)
    with pytest.raises(T.TermError):
        T.invert(T.ZERO)
    with pytest.raises(T.TermError):
        T.pow_int(T.ZERO, -1)


# --- evaluation ----------------------------------------------------------------

def test_evaluate_simple():
    assert T.evaluate(x + x, {"x": Q(3, 2)}) == 3


def test_division_by_zero_convention():
    assert T.evaluate(x / y, {"x": 1, "y": 0}) == 0
    assert T.evaluate(T.Pow(y, -2), {"y": 0}) == 0


def test_evaluate_unbound_variable():
    with pytest.raises(T.TermError):
        T.evaluate(x + y, {"x": 1})


def test_normalization_preserves_value_on_random_terms():
    rng = random.Random(7)
    bank = T.TermBank()
    checked = 0
    while checked < 200:
        raw = random_raw_term(rng, NAMES, 3)
        sigma = random_assignment(rng, NAMES)
        if has_zero_denominator(raw, sigma):
            continue
        try:
            nt = T.normalize(raw, bank)
        except T.TermError:
            continue
        assert T.evaluate(raw, sigma) == T.evaluate_normal(nt, sigma)
        T.validate_normal(nt)
        checked += 1


# --- idempotence and text round-trip -------------------------------------------

def test_render_parse_round_trip_is_idempotent():
    rng = random.Random(11)
    bank = T.TermBank()
    checked = 0
    while checked < 150:
        raw = random_raw_term(rng, NAMES, 3)
        try:
            nt = T.normalize(raw, bank)
        except T.TermError:
            continue
        text = T.render(nt)
        again = T.normalize(parse_expression(text), bank)
        assert again == nt, f"{text} reparsed to {T.render(again)}"
        assert again is nt
        checked += 1


def test_associativity_and_commutativity_absorbed():
    rng = random.Random(23)
    for _ in range(120):
        bank = T.TermBank()
        for n in NAMES:
            bank.var(n)
        s = random_raw_term(rng, NAMES, 2)
        t = random_raw_term(rng, NAMES, 2)
        u = random_raw_term(rng, NAMES, 2)
        try:
            assert T.normalize(T.Sum([s, t]), bank) == \
                T.normalize(T.Sum([t, s]), bank)
            assert T.normalize(T.Sum([T.Sum([s, t]), u]), bank) == \
                T.normalize(T.Sum([s, T.Sum([t, u])]), bank)
            assert T.normalize(T.Prod([s, t]), bank) == \
                T.normalize(T.Prod([t, s]), bank)
            assert T.normalize(T.Prod([T.Prod([s, t]), u]), bank) == \
                T.normalize(T.Prod([s, T.Prod([t, u])]), bank)
        except T.TermError:
            continue


def test_scalar_multiplication_distributes():
    rng = random.Random(31)
    for _ in range(120):
        bank = T.TermBank()
        for n in NAMES:
            bank.var(n)
        a = Q(rng.randint(-4, 4), rng.randint(1, 3))
        b = Q(rng.randint(-4, 4), rng.randint(1, 3))
        s = random_raw_term(rng, NAMES, 2, division=False)
        t = random_raw_term(rng, NAMES, 2, division=False)
        assert T.normalize(T.Scale(a, T.Sum([s, t])), bank) == \
            T.normalize(T.Sum([T.Scale(a, s), T.Scale(a, t)]), bank)
        assert T.normalize(T.Scale(a + b, s), bank) == \
            T.normalize(T.Sum([T.Scale(a, s), T.Scale(b, s)]), bank)


# --- structural errors ----------------------------------------------------------

def test_power_zero_rejected_at_construction():
    with pytest.raises(T.TermError):
        T.Pow(x, 0)


def test_literal_zero_denominator_rejected():
    with pytest.raises(T.TermError, match="zero-denominator literal"):
        T.normalize(x / (y - y))
    with pytest.raises(T.TermError, match="zero-denominator literal"):
        T.normalize(T.Div(x, T.Scale(0, T.One())))


def test_inverse_of_symbolically_zero_power():
    with pytest.raises(T.TermError, match="inverse of zero"):
        T.normalize(T.Pow(x - x, -1))


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6),
       st.integers(1, 4))
def test_scaled_atom_order_matches_rational_order(n1, d1, n2, d2):
    bank = T.TermBank()
    a, b = Q(n1, d1), Q(n2, d2)
    s = T.normalize(T.Scale(a, T.Var("v")), bank)
    t = T.normalize(T.Scale(b, T.Var("v")), bank)
    if a == b:
        assert not T.term_precedes(s, t) and not T.term_precedes(t, s)
    else:
        assert T.term_precedes(s, t) == (a < b)


# --- records compared by value ----------------------------------------------

def test_value_records_compare_hash_and_print_by_field():
    from ineqprover.blackboard import TraceStep, separate_terms
    from ineqprover.comm import GT, UNIT, make_atom
    from ineqprover.monofun import MonoDecl

    assert T.Sum((x, y)) != T.Prod((x, y))  # same fields, other class
    assert T.Sum((x, y)) == T.Sum([x, y]) and T.Sum((x, y)) != T.Sum((y, x))
    assert hash(T.Pow(x + 1, -2)) == hash(T.Pow(x + 1, -2))
    assert len({T.Var("x"), T.Var("x"), T.One(), T.One()}) == 2
    assert repr(T.Var("x")) == "Var(name='x')"
    assert repr(T.Scale(Q(1, 2), T.One())) == \
        "Scale(factor=Fraction(1, 2), arg=One())"
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        del x.name
    assert x.name == "x"
    with pytest.raises(TypeError):
        T.Var()
    assert MonoDecl("inv", False).range_sign is None
    assert MonoDecl("exp", True, "pos") == MonoDecl("exp", True, "pos")
    for record in (T.Pow(x + 1, -2), T.Scale(3, y), MonoDecl("inv", False)):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    state = separate_terms([])
    u = state.bank.var("u")
    state.assert_comm_atom(make_atom(u, GT, 0, UNIT), "add")
    before = [TraceStep(s.round, s.module, s.premises, s.derived, s.note,
                        s.comm_premises, s.derived_atom) for s in state.trace]
    assert before and before[0] is not state.trace[0]
    assert state.trace == before
    assert TraceStep(0, "add", (), "u > 0") == \
        TraceStep(0, "add", (), "u > 0", "", (), None)
