import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqprover import comm, elim, mularith as M
from ineqprover import terms as T
from ineqprover.comm import EQ, GE, GT, LE, LT, UNIT, SignContradiction, make_atom

import oracles


def _bank_vars(*names):
    bank = T.TermBank()
    return bank, [bank.var(n) for n in names]


# --- sign inference -------------------------------------------------------------

def test_even_powers_are_nonnegative():
    _, (u, x, y) = _bank_vars("u", "x", "y")
    env = M.infer_signs({u: {x: 2, y: 4}}, [], M.SignEnv())
    assert env.known(u) == "nonneg"


def test_product_of_positives_is_positive():
    _, (u, x, y) = _bank_vars("u", "x", "y")
    facts = [make_atom(x, GT, 0, UNIT), make_atom(y, GT, 0, UNIT)]
    env = M.infer_signs({u: {x: 1, y: 1}}, facts, M.SignEnv())
    assert env.known(u) == "pos"


def test_order_against_negated_name_forces_negative():
    _, (x, y) = _bank_vars("x", "y")
    facts = [make_atom(x, GT, 0, UNIT), make_atom(x, LT, -1, y)]
    env = M.infer_signs({}, facts, M.SignEnv())
    assert env.known(y) == "neg"


def test_backward_factor_narrowing():
    _, (u, x, y) = _bank_vars("u", "x", "y")
    facts = [make_atom(u, GT, 0, UNIT), make_atom(x, GT, 0, UNIT)]
    env = M.infer_signs({u: {x: 1, y: 1}}, facts, M.SignEnv())
    assert env.known(y) == "pos"


def test_sign_contradiction_is_raised():
    _, (u, x) = _bank_vars("u", "x")
    facts = [make_atom(u, LT, 0, UNIT)]
    with pytest.raises(SignContradiction):
        M.infer_signs({u: {x: 2}}, facts, M.SignEnv())


def test_inferred_signs_hold_on_random_models():
    rng = random.Random(909)
    bank = T.TermBank()
    base = [bank.var(n) for n in ("x", "y", "z")]
    defined = [bank.var(n) for n in ("p", "q")]
    for _ in range(150):
        assignment = {n: oracles.random_rational(rng, 4, 3) for n in base}
        defs = {}
        for d in defined:
            monomial = {}
            for n in rng.sample(base, rng.randint(1, 2)):
                monomial[n] = rng.choice([-2, -1, 1, 2, 3])
            defs[d] = monomial
            value = Q(1)
            for n, e in monomial.items():
                if assignment[n] == 0:
                    value = Q(0)
                    break
                value *= assignment[n] ** e
            assignment[d] = value
        # emit only comparisons that are true in the model
        facts = []
        names = base + defined
        for _ in range(4):
            a, b = rng.sample(names, 2)
            coeff = oracles.random_rational(rng, 3, 2, nonzero=True)
            for rel in (LT, LE, EQ, GT, GE):
                if comm.holds(assignment[a], rel, coeff * assignment[b]):
                    atom = make_atom(a, rel, coeff, b)
                    if not isinstance(atom, bool):
                        facts.append(atom)
                    break
        env = M.infer_signs(defs, facts, M.SignEnv())
        for name in names:
            signs = env.get(name)
            value = assignment[name]
            cls = "+" if value > 0 else ("-" if value < 0 else "0")
            assert cls in signs, (name.label, value, signs, facts, defs)


# --- positive-cone translation -----------------------------------------------------

def _pos_env(*names):
    env = M.SignEnv()
    for n in names:
        env.refine(n, M.POS)
    return env


def test_ratio_form_of_a_scaled_comparison():
    _, (x, y) = _bank_vars("x", "y")
    env = _pos_env(x, y)
    atoms = M.to_positive_cone({}, [make_atom(x, LT, 2, y)], env)
    assert atoms == [M.mult_atom({x: 1, y: -1}, LT, 2)]


def test_unusable_directions_are_left_out():
    _, (x, y) = _bank_vars("x", "y")
    env = M.SignEnv()
    env.refine(x, M.NEG)
    env.refine(y, M.POS)
    atoms = M.to_positive_cone({}, [make_atom(x, LT, 2, y)], env)
    assert atoms == []  # still held in the shared store, just not here


def test_unknown_sign_names_are_left_out():
    _, (u, x, y) = _bank_vars("u", "x", "y")
    env = _pos_env(x)
    atoms = M.to_positive_cone({u: {x: 1, y: 1}}, [], env)
    assert atoms == []


def test_negative_names_enter_by_magnitude():
    _, (x, y) = _bank_vars("x", "y")
    env = M.SignEnv()
    env.refine(x, M.NEG)
    env.refine(y, M.NEG)
    # x < 2y with both negative: |x| > 2|y|, stored inverted.
    atoms = M.to_positive_cone({}, [make_atom(x, LT, 2, y)], env)
    assert atoms == [M.mult_atom({x: -1, y: 1}, LT, Q(1, 2))]


def test_definitions_become_unit_equations():
    _, (u, x) = _bank_vars("u", "x")
    env = _pos_env(u, x)
    atoms = M.to_positive_cone({u: {x: 2}}, [], env)
    assert atoms == [M.mult_atom({u: -1, x: 2}, EQ, 1)]


def test_square_definition_with_range_bound():
    # u = x^2 with 0 < x <= r supports both u/x <= r and u <= r^2.
    _, (u, x) = _bank_vars("u", "x")
    r = Q(3, 4)
    env = _pos_env(u, x)
    facts = [make_atom(x, LE, r, UNIT)]
    cone = M.to_positive_cone({u: {x: 2}}, facts, env)
    ratio = M.project_to_ratio(cone, u, x, env)
    assert ratio == [make_atom(u, LE, r, x)]
    const = M.project_to_ratio(cone, u, UNIT, env)
    assert const == [make_atom(u, LE, r * r, UNIT)]


# --- elimination ---------------------------------------------------------------------

def test_chaining_through_a_middle_name():
    _, (x, v, w) = _bank_vars("x", "v", "w")
    atoms = [M.mult_atom({x: 1, v: -1}, LT, 1),   # x < v
             M.mult_atom({w: 1, x: -1}, LT, 1)]   # w < x
    out = elim.eliminate(atoms, x)
    assert out == (M.mult_atom({w: 1, v: -1}, LT, 1),)


def test_equation_substitution_squares_the_bound():
    _, (u, x) = _bank_vars("u", "x")
    atoms = [M.mult_atom({u: 1, x: -2}, EQ, 1),   # u = x^2
             M.mult_atom({x: 1}, LE, 3)]          # x <= 3
    out = elim.eliminate(atoms, x)
    assert out == (M.mult_atom({u: 1}, LE, 9),)


def test_eliminating_from_nothing():
    _, (x,) = _bank_vars("x")
    assert elim.eliminate([], x) == ()


def test_elimination_is_sound_on_positive_models():
    rng = random.Random(616)
    bank = T.TermBank()
    names = [bank.var(n) for n in ("a", "b", "c")]
    for _ in range(150):
        assignment = {n: Q(rng.randint(1, 6), rng.randint(1, 4)) for n in names}
        atoms = []
        for _ in range(4):
            monomial = {n: rng.choice([-2, -1, 1, 2])
                        for n in rng.sample(names, rng.randint(1, 3))}
            value = Q(1)
            for n, e in monomial.items():
                value *= assignment[n] ** e
            slack = Q(rng.randint(1, 3), rng.randint(1, 3))
            atoms.append(M.mult_atom(monomial, LE, value * (1 + slack)))
        target = rng.choice(names)
        for out in elim.eliminate(atoms, target):
            value = Q(1)
            for n, e in out.coeffs:
                value *= assignment[n] ** e
            assert comm.holds(value, out.rel, out.bound)


def test_exponent_guard_trips():
    _, (x, y) = _bank_vars("x", "y")
    with pytest.raises(comm.ResourceLimitError):
        M.mult_atom({x: 2 ** 17}, LE, 2)
    atoms = [M.mult_atom({x: 2 ** 15, y: -(2 ** 15) - 1}, LE, 1),
             M.mult_atom({x: -3, y: 1}, LE, 1)]
    with pytest.raises(comm.ResourceLimitError):
        elim.eliminate(atoms, x)


def test_cone_elimination_respects_the_atom_cap():
    bank = T.TermBank()
    x = bank.var("x")
    atoms = [M.mult_atom({x: -1, bank.var(f"y{i}"): 1}, LE, i + 1)
             for i in range(80)]
    atoms += [M.mult_atom({x: 1, bank.var(f"z{j}"): 1}, LE, j + 1)
              for j in range(80)]
    with pytest.raises(comm.ResourceLimitError):
        elim.eliminate(atoms, x)


# --- ratio projection -------------------------------------------------------------------

def test_squares_preserve_strict_order():
    _, (u, w, x, y) = _bank_vars("u", "w", "x", "y")
    env = _pos_env(u, w, x, y)
    facts = [make_atom(x, LT, 1, y)]
    cone = M.to_positive_cone({u: {x: 2}, w: {y: 2}}, facts, env)
    assert M.project_to_ratio(cone, u, w, env) == [make_atom(u, LT, 1, w)]


def test_power_towers_chain_to_constant_factor():
    _, (m1, m2, b1, b2) = _bank_vars("m1", "m2", "b1", "b2")
    defs = {m1: {b1: 17}, m2: {b2: 10}}
    facts = [make_atom(b1, GT, 1, b2), make_atom(b2, GT, 2, UNIT)]
    env = M.infer_signs(defs, facts, M.SignEnv())
    cone = M.to_positive_cone(defs, facts, env)
    result = M.project_to_ratio(cone, m1, m2, env)
    assert result == [make_atom(m1, GT, 128, m2)]


def test_ratio_with_no_information_is_trivial():
    _, (u, v, z) = _bank_vars("u", "v", "z")
    env = _pos_env(u, v, z)
    cone = M.to_positive_cone({}, [make_atom(z, LT, 1, UNIT)], env)
    assert M.project_to_ratio(cone, u, v, env) == []


def test_ratio_bounds_are_entailed():
    # Negating any returned bound makes the cone facts contradictory.
    rng = random.Random(2718)
    bank = T.TermBank()
    names = [bank.var(n) for n in ("a", "b", "c")]
    env = _pos_env(*names)
    checked = 0
    while checked < 80:
        assignment = {n: Q(rng.randint(1, 5), rng.randint(1, 3)) for n in names}
        atoms = []
        for _ in range(3):
            monomial = {n: rng.choice([-2, -1, 1, 2])
                        for n in rng.sample(names, rng.randint(1, 2))}
            value = Q(1)
            for n, e in monomial.items():
                value *= assignment[n] ** e
            atoms.append(M.mult_atom(monomial, LE,
                                     value * (1 + Q(rng.randint(0, 2), 3))))
        u, v = rng.sample(names, 2)
        returned = M.project_to_ratio(atoms, u, v, env)
        if not returned:
            continue
        for atom in returned:
            for neg in oracles.negations(atom):
                assert not isinstance(neg, bool)
                extended = list(atoms) + list(
                    M.to_positive_cone({}, [neg], env))
                assert elim.is_infeasible(extended), (atom, atoms)
        checked += 1


# --- root bounds ------------------------------------------------------------------------

def test_perfect_square_root_is_exact():
    assert M.rational_root_bound(4, 2, "lower") == 2
    assert M.rational_root_bound(Q(1, 4), 2, "upper") == Q(1, 2)
    assert M.rational_root_bound(Q(27, 8), 3, "lower") == Q(3, 2)


def test_cube_root_of_two_is_tight_and_sound():
    q = M.rational_root_bound(2, 3, "lower")
    assert q ** 3 <= 2
    assert q >= Q(5, 4)


def test_bounded_denominator_is_respected():
    q = M.rational_root_bound(2, 2, "upper", max_den=1000)
    assert q.denominator <= 1000
    assert q ** 2 >= 2
    assert q == Q(577, 408)  # the classic convergent of sqrt(2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 60), st.integers(1, 5),
       st.booleans())
def test_root_bounds_are_always_sound(num, den, n, want_lower):
    c = Q(num, den)
    direction = "lower" if want_lower else "upper"
    q = M.rational_root_bound(c, n, direction, max_den=10 ** 4)
    if want_lower:
        assert q ** n <= c
    else:
        assert q ** n >= c


def test_root_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        M.rational_root_bound(0, 2, "lower")
    with pytest.raises(ValueError):
        M.rational_root_bound(2, 2, "sideways")


def test_root_bounds_are_the_best_capped_rationals():
    # Brute force over every denominator up to the cap; a non-perfect power
    # has no rational root, so the best upper numerator is the lower one + 1.
    def lower_numerator(c, n, q):
        p = int(float(c * q ** n) ** (1 / n))
        while Q(p, q) ** n > c:
            p -= 1
        while Q(p + 1, q) ** n < c:
            p += 1
        return p

    for num in range(1, 40):
        for den in range(1, 12):
            c = Q(num, den)
            for n in range(2, 6):
                if M._perfect_root(c, n) is not None:
                    continue
                ps = [lower_numerator(c, n, q) for q in range(1, 51)]
                for max_den in (1, 2, 7, 50):
                    lower = max(Q(p, q) for q, p in enumerate(ps[:max_den], 1))
                    upper = min(Q(p + 1, q) for q, p in enumerate(ps[:max_den], 1))
                    assert M.rational_root_bound(c, n, "lower", max_den) == lower
                    assert M.rational_root_bound(c, n, "upper", max_den) == upper
