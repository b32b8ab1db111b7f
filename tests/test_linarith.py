import random
from fractions import Fraction as Q

import pytest

from ineqprover import comm, elim, linarith as L
from ineqprover import terms as T
from ineqprover.comm import EQ, GE, GT, LE, LT, UNIT, make_atom

import oracles


def _bank_vars(*names):
    bank = T.TermBank()
    return bank, [bank.var(n) for n in names]


# --- elimination ---------------------------------------------------------------

def test_bounds_cross_combine():
    _, (a, x, b) = _bank_vars("a", "x", "b")
    system = elim.canonicalize([
        L.lin_atom({a: 1, x: -1}, LT),  # a < x
        L.lin_atom({x: 1, b: -1}, LT),  # x < b
    ])
    out = elim.eliminate(system, x)
    assert out == elim.canonicalize([L.lin_atom({a: 1, b: -1}, LT)])


def test_equality_substitutes_before_crossing():
    _, (a, x, b) = _bank_vars("a", "x", "b")
    system = elim.canonicalize([
        L.lin_atom({x: 1, a: -1}, EQ),  # x = a
        L.lin_atom({x: 1, b: -1}, LT),  # x < b
    ])
    out = elim.eliminate(system, x)
    assert out == elim.canonicalize([L.lin_atom({a: 1, b: -1}, LT)])


def test_eliminating_from_empty_system():
    _, (x,) = _bank_vars("x")
    assert elim.eliminate((), x) == ()


def test_strictness_is_inherited():
    _, (a, x, b) = _bank_vars("a", "x", "b")
    loose = elim.canonicalize([
        L.lin_atom({a: 1, x: -1}, LE),
        L.lin_atom({x: 1, b: -1}, LE),
    ])
    assert elim.eliminate(loose, x)[0].rel == LE
    mixed = elim.canonicalize([
        L.lin_atom({a: 1, x: -1}, LE),
        L.lin_atom({x: 1, b: -1}, LT),
    ])
    assert elim.eliminate(mixed, x)[0].rel == LT


# --- infeasibility against the independent oracle --------------------------------

def test_opposite_strict_bounds_infeasible():
    _, (x, y) = _bank_vars("x", "y")
    system = [L.lin_atom({x: 1, y: -1}, LT), L.lin_atom({y: 1, x: -1}, LT)]
    assert L.is_infeasible(system)


def test_pinned_variable_feasible():
    _, (x,) = _bank_vars("x")
    system = [L.lin_atom({x: 1, UNIT: -1}, LE), L.lin_atom({UNIT: 1, x: -1}, LE)]
    assert not L.is_infeasible(system)


def run_oracle_agreement(count: int, seed: int) -> int:
    rng = random.Random(seed)
    _, names = _bank_vars("x", "y", "z", "w")
    disagreements = 0
    for _ in range(count):
        k = rng.randint(2, 4)
        system = oracles.random_lin_system(rng, names[:k], max_atoms=6)
        if L.is_infeasible(system) != (not oracles.oracle_feasible(system)):
            disagreements += 1
    return disagreements


def test_is_infeasible_agrees_with_vertex_oracle():
    assert run_oracle_agreement(80, seed=1001) == 0


def test_checks_ignore_row_order_repeats_and_true_rows():
    # implies and is_infeasible take their rows unsorted: a shuffled context
    # with repeated rows and trivially true rows gets the oracle's answer
    # for the plain system.
    rng = random.Random(808)
    _, names = _bank_vars("x", "y", "z")
    true_rows = [L.lin_atom({UNIT: -1}, LT), L.lin_atom({}, LE)]
    answers = {True: 0, False: 0}
    for _ in range(100):
        system = list(oracles.random_lin_system(rng, names, max_atoms=5))
        context = system + rng.choices(system, k=2) + true_rows
        rng.shuffle(context)
        assert L.is_infeasible(context) == (not oracles.oracle_feasible(system))
        lhs = rng.choice(names)
        rhs = rng.choice([UNIT, *(n for n in names if n is not lhs)])
        atoms = [make_atom(lhs, rng.choice([LT, LE, EQ, GE, GT]),
                           oracles.random_rational(rng), rhs)]
        if oracles.oracle_feasible(system):
            atoms += L.project_to_pair(system, names[0], names[1])
        for atom in atoms:
            entailed = not any(oracles.oracle_feasible(system + [L.from_comm(n)])
                               for n in oracles.negations(atom))
            assert L.implies(context, atom) == entailed, (system, atom)
            answers[entailed] += 1
    assert min(answers.values()) > 20, answers


# --- the planar check ------------------------------------------------------------

BIG = 2**64 + 13  # coefficients past a machine word

def _planar_row(rng, names, point):
    """A random row over ``names``, often tight at ``point`` so regions
    shrink to a point or a segment; sometimes with huge coefficients."""
    combo = {}
    for name in rng.sample(names, rng.randint(1, len(names))):
        c = rng.choice([1, 2, 3, BIG, BIG + 2]) * rng.choice([-1, 1])
        combo[name] = Q(c, rng.randint(1, 3))
    value = sum(c * point[n] for n, c in combo.items())
    combo[UNIT] = -value + rng.choice([0, 0, 0, Q(-1, 2), 1])
    return L.lin_atom(combo, rng.choice([LT, LE, LE, EQ]))


def _planar_system(rng, names):
    point = {n: oracles.random_rational(rng) for n in names}
    rows = [_planar_row(rng, names, point) for _ in range(rng.randint(0, 6))]
    if rows and rng.random() < 0.3:  # the opposite of a row, shifted
        row = rng.choice(rows)
        flipped = {n: -c for n, c in row.coeffs}
        flipped[UNIT] = flipped.get(UNIT, 0) + rng.choice([-1, 0, 1])
        rows.append(L.lin_atom(flipped, rng.choice([LT, LE])))
    if rng.random() < 0.2:
        rows.append(L.lin_atom({UNIT: rng.choice([-1, 0, 1])},
                               rng.choice([LT, LE, EQ])))
    rng.shuffle(rows)
    return rows


def test_planar_check_on_chosen_regions():
    _, (x, y) = _bank_vars("x", "y")
    row = L.lin_atom
    cases = [  # (rows, infeasible)
        ([], False),
        ([row({UNIT: 1}, LT)], True),  # 1 < 0
        ([row({UNIT: -1}, LE), row({}, EQ)], False),  # rows of the unit only
        ([row({x: 1, UNIT: -1}, LE), row({x: -1, UNIT: 1}, LE),
          row({y: 1, x: -1}, LE), row({y: -1, x: 1}, LE)],
         False),  # the point x = y = 1
        ([row({x: 1, UNIT: -1}, LE), row({x: -1, UNIT: 1}, LT)],
         True),  # x <= 1 < x
        ([row({x: 1, y: -1}, EQ), row({x: -1}, LE), row({x: 1, UNIT: -1}, LE)],
         False),  # the segment x = y in [0, 1]
        ([row({x: 1, y: -1}, EQ), row({x: 1, y: -1, UNIT: -1}, EQ)],
         True),  # parallel lines
        # Opposite parallel rows: x + y < 1 < x + y, x + y = 1, 2 <= x + y <= 1.
        ([row({x: 1, y: 1, UNIT: -1}, LT), row({x: -1, y: -1, UNIT: 1}, LT)],
         True),
        ([row({x: 1, y: 1, UNIT: -1}, LE), row({x: -1, y: -1, UNIT: 1}, LE)],
         False),
        ([row({x: 1, y: 1, UNIT: -1}, LE), row({x: -1, y: -1, UNIT: 2}, LE)],
         True),
        ([row({x: BIG, y: 1 - BIG, UNIT: -1}, LT),
          row({x: -BIG, y: BIG - 1, UNIT: 1}, LE)], True),
        ([row({x: BIG, y: -3}, LE), row({x: -BIG, y: 3, UNIT: -1}, LE),
          row({y: 1, UNIT: -1}, EQ)], False),
    ]
    for rows, infeasible in cases:
        assert L.is_infeasible(rows) == infeasible, rows
        assert elim.is_infeasible(rows) == infeasible, rows
        assert oracles.oracle_feasible(rows) != infeasible, rows


def test_planar_check_agrees_with_kernel_and_oracle():
    rng = random.Random(4242)
    _, (x, y) = _bank_vars("x", "y")
    answers = {True: 0, False: 0}
    for i in range(600):
        rows = _planar_system(rng, [x, y] if i % 3 else [x])
        answer = L.is_infeasible(rows)
        assert answer == elim.is_infeasible(rows), rows
        assert answer != oracles.oracle_feasible(rows), rows
        answers[answer] += 1
    assert min(answers.values()) > 150, answers


def test_three_names_fall_back_to_the_kernel(monkeypatch):
    _, (x, y, z) = _bank_vars("x", "y", "z")
    rows = [L.lin_atom({x: 1, y: -1}, LT), L.lin_atom({y: 1, z: -1}, LT),
            L.lin_atom({z: 1, x: -1}, LE)]  # x < y < z <= x
    calls = []
    kernel = elim.is_infeasible
    monkeypatch.setattr(elim, "is_infeasible",
                        lambda system: calls.append(system) or kernel(system))
    assert L.is_infeasible(rows)
    assert calls == [rows]


def test_pair_checks_never_reach_the_kernel(monkeypatch):
    # implies, prune_entailed and the projection's own feasibility test all
    # decide pair contexts in the plane.
    _, (x, y) = _bank_vars("x", "y")
    atoms = [make_atom(x, LT, Q(2), y), make_atom(x, LE, Q(3), y),
             make_atom(x, GT, Q(1), UNIT), make_atom(y, LT, Q(5), UNIT)]
    system = [L.from_comm(a) for a in atoms]

    def kernel(*args, **kwargs):
        raise AssertionError("FM kernel called")

    monkeypatch.setattr(elim, "is_infeasible", kernel)
    assert L.implies(system, make_atom(x, LT, Q(10), UNIT))
    assert not L.implies(system, make_atom(x, LT, Q(1), y))
    assert L.prune_entailed(atoms) == [atoms[0], atoms[2], atoms[3]]
    assert L.project_to_pair(system, x, y) == [atoms[0], atoms[2], atoms[3]]
    absurd = system + [L.from_comm(make_atom(x, GT, Q(10), UNIT))]
    assert L.project_to_pair(absurd, x, y) == comm.contradiction_pair(y)


def test_projection_memo_holds_only_its_own_elimination_chain():
    # Every memo key starts from the canonical input or from an earlier
    # elimination's result; the final prune's checks leave no keys.
    _, (u, v, w) = _bank_vars("u", "v", "w")
    system = [
        L.lin_atom({u: 1, w: -1, UNIT: -1}, LE),  # u <= w + 1
        L.lin_atom({w: 1, v: -2}, LT),  # w < 2v
        L.lin_atom({v: 1, w: 1, UNIT: 3}, LE),  # v + w <= -3
        L.lin_atom({u: -1, v: 1, w: 1}, LE),  # v + w <= u
        L.lin_atom({w: -1, UNIT: -5}, LT),  # w > -5
    ]
    memo: dict = {}
    assert L.project_to_pair(system, u, v, memo=memo)
    own = {elim.canonicalize(system), *memo.values()}
    assert memo and [key for key in memo if key[0] not in own] == []


def test_projection_is_sound():
    rng = random.Random(4040)
    _, names = _bank_vars("x", "y", "z", "w")
    checked = 0
    while checked < 60:
        system = oracles.random_lin_system(rng, names, max_atoms=5)
        witness = oracles.oracle_witness(system)
        if witness is None:
            continue
        variables, point = witness
        assignment = oracles.realize_witness(system, point, variables)
        for name in names:
            assignment.setdefault(name, Q(0))
        target = names[rng.randrange(len(names))]
        projected = elim.eliminate(system, target)
        assert all(oracles.check_lin_atom(a, assignment) for a in projected)
        checked += 1


def test_projection_is_complete_for_one_variable():
    # Any point of the projection extends to a full solution: the eliminated
    # variable's induced interval is nonempty, exactly.
    rng = random.Random(5050)
    _, names = _bank_vars("x", "y", "z")
    checked = 0
    while checked < 60:
        system = oracles.random_lin_system(rng, names, max_atoms=5)
        target = names[rng.randrange(len(names))]
        projected = elim.eliminate(system, target)
        witness = oracles.oracle_witness(projected)
        if witness is None:
            continue
        variables, point = witness
        assignment = oracles.realize_witness(projected, point, variables)
        for name in names:
            if name is not target:
                assignment.setdefault(name, Q(0))
        lower, lower_strict = None, False
        upper, upper_strict = None, False
        pinned = None
        ok = True
        for atom in system:
            c = atom.coeff_of(target)
            rest = Q(0)
            for name, coeff in atom.coeffs:
                if name is target:
                    continue
                rest += coeff * (Q(1) if name is UNIT else assignment[name])
            if c == 0:
                ok = ok and comm.holds(rest, atom.rel, Q(0))
                continue
            bound = -rest / c
            if atom.rel == EQ:
                ok = ok and (pinned is None or pinned == bound)
                pinned = bound
            elif c > 0:  # c*target <= -rest
                if upper is None or bound < upper:
                    upper, upper_strict = bound, atom.rel == LT
                elif bound == upper:
                    upper_strict = upper_strict or atom.rel == LT
            else:
                if lower is None or bound > lower:
                    lower, lower_strict = bound, atom.rel == LT
                elif bound == lower:
                    lower_strict = lower_strict or atom.rel == LT
        assert ok
        if pinned is not None:
            value = pinned
        elif lower is None and upper is None:
            value = Q(0)
        elif lower is None:
            value = upper - 1
        elif upper is None:
            value = lower + 1
        else:
            assert lower < upper or (lower == upper
                                     and not (lower_strict or upper_strict))
            value = (lower + upper) / 2
        assignment[target] = value
        assert all(oracles.check_lin_atom(a, assignment) for a in system)
        checked += 1


# --- pair projection --------------------------------------------------------------

def test_pair_projection_keeps_the_strongest_half_planes():
    _, (u, v) = _bank_vars("u", "v")
    system = elim.canonicalize([
        L.lin_atom({v: 2, u: -1}, LT),   # u > 2v
        L.lin_atom({v: 3, u: -1}, LT),   # u > 3v
        L.lin_atom({v: -1}, LT),         # v > 0
    ])
    result = L.project_to_pair(system, u, v)
    expected = {make_atom(u, GT, 3, v), make_atom(v, GT, 0, UNIT)}
    assert set(result) == expected


def test_pair_projection_combines_inequalities():
    _, (u, v, w) = _bank_vars("u", "v", "w")
    system = elim.canonicalize([
        L.lin_atom({u: 1, v: -1, w: -1}, LE),  # u <= v + w
        L.lin_atom({w: 1, v: -1}, LE),         # w <= v
    ])
    result = L.project_to_pair(system, u, v)
    assert result == [make_atom(u, LE, 2, v)]


def test_pair_projection_of_empty_system_is_trivial():
    _, (u, v) = _bank_vars("u", "v")
    assert L.project_to_pair((), u, v) == []


def test_pair_projection_reports_contradiction():
    _, (u, v) = _bank_vars("u", "v")
    system = elim.canonicalize([
        L.lin_atom({u: 1, v: -1}, LT),
        L.lin_atom({v: 1, u: -1}, LT),
    ])
    result = L.project_to_pair(system, u, v)
    assert set(result) == {make_atom(v, LT, 0, UNIT), make_atom(v, GT, 0, UNIT)}


def test_pair_projection_detects_equalities():
    _, (u, v) = _bank_vars("u", "v")
    system = elim.canonicalize([L.lin_atom({u: 1, v: -2}, EQ)])
    assert L.project_to_pair(system, u, v) == [make_atom(u, EQ, 2, v)]


def test_negative_coefficient_half_plane():
    _, (x, y) = _bank_vars("x", "y")
    system = elim.canonicalize([L.lin_atom({UNIT: 2, x: -1, y: -1}, LE)])
    assert L.project_to_pair(system, x, y) == [make_atom(x, GT, -1, y)]


def test_constant_bounds_emerge_from_unit_pair():
    _, (x, u) = _bank_vars("x", "u")
    system = elim.canonicalize([
        L.lin_atom({UNIT: 1, x: -2, u: 1}, LT),  # u < 2x - 1
        L.lin_atom({u: -1}, LE),                 # u >= 0
    ])
    assert L.project_to_pair(system, x, UNIT) == [make_atom(x, GT, Q(1, 2), UNIT)]


def run_maximality_check(count: int, seed: int) -> None:
    """Every returned pair atom is within 1/1000 of unimprovable."""
    rng = random.Random(seed)
    _, names = _bank_vars("x", "y", "z", "w")
    checked = 0
    while checked < count:
        system = oracles.random_lin_system(rng, names[:3], max_atoms=5)
        if L.is_infeasible(system):
            continue
        u, v = names[0], names[1]
        returned = L.project_to_pair(system, u, v)
        theta = [L.from_comm(a) for a in returned]
        for atom in returned:
            assert L.implies(list(system), atom)  # soundness: entailed by sys
            if atom.rhs is UNIT or atom.rel == EQ:
                continue
            for delta in (Q(1, 1000), Q(-1, 1000)):
                perturbed = make_atom(atom.lhs, atom.rel,
                                      atom.coeff + delta, atom.rhs)
                if isinstance(perturbed, bool):
                    continue
                if L.implies(theta, perturbed):
                    continue  # not a strengthening relative to the answer
                # A perturbation the answer does not cover must not be
                # entailed: its negation stays feasible with the system.
                for neg in oracles.negations(perturbed):
                    assert not isinstance(neg, bool)
                    assert oracles.oracle_feasible(
                        list(system) + [L.from_comm(neg)])
        checked += 1


def test_pair_projection_maximality_under_perturbation():
    run_maximality_check(40, seed=77)


# --- limits ----------------------------------------------------------------------

def test_atom_cap_aborts_with_resource_limit(monkeypatch):
    monkeypatch.setattr(elim, "ATOM_CAP", 40)
    rng = random.Random(3)
    bank = T.TermBank()
    names = [bank.var(f"v{i}") for i in range(8)]
    atoms = []
    for i in range(24):
        combo = {n: oracles.random_rational(rng, nonzero=True)
                 for n in rng.sample(names, 4)}
        combo[UNIT] = oracles.random_rational(rng)
        atoms.append(L.lin_atom(combo, LT))
    with pytest.raises(comm.ResourceLimitError):
        elim.eliminate_all_except(elim.canonicalize(atoms), set())


def test_subsumed_scalar_multiples_are_dropped():
    _, (x, y) = _bank_vars("x", "y")
    system = elim.canonicalize([
        L.lin_atom({x: 1, y: -1, UNIT: -1}, LE),  # x - y <= 1
        L.lin_atom({x: 2, y: -2, UNIT: -6}, LE),  # x - y <= 3 (weaker)
    ])
    reduced = elim.drop_weaker(system)
    assert reduced == elim.canonicalize([L.lin_atom({x: 1, y: -1, UNIT: -1}, LE)])


# --- integer rows ----------------------------------------------------------------

def test_rows_are_primitive_integers():
    _, (x, y) = _bank_vars("x", "y")
    assert L.lin_atom({x: Q(1, 2), y: Q(-3, 4)}, LT).coeffs == ((x, 2), (y, -3))
    assert L.lin_atom({UNIT: -6, x: 2}, LT).coeffs == ((UNIT, -3), (x, 1))
    # An equality may be scaled by a negative number, so its lead is positive.
    eq = L.lin_atom({UNIT: -6, x: 2, y: -4}, EQ)
    assert eq.coeffs == ((UNIT, 3), (x, -1), (y, 2))
    assert eq == L.lin_atom({UNIT: Q(1, 2), x: Q(-1, 6), y: Q(1, 3)}, EQ)
    # The direction is primitive over the names alone; the bound follows it.
    loose = L.lin_atom({UNIT: 3, x: 2, y: -4}, LE)
    assert loose.strength() == (((x, 1), (y, -2)), (Q(3, 2), False))


def _lead_scaled_key(combo, rel):
    """Sort key of the rational row scaled so that its lead is 1 (or -1)."""
    items = sorted(((a, Q(c)) for a, c in combo.items() if c != 0),
                   key=lambda kv: kv[0].index)
    scale = items[0][1] if rel == EQ else abs(items[0][1])
    return (rel, tuple((a.index, c / scale) for a, c in items))


def test_sort_key_orders_like_lead_scaled_rationals():
    rng = random.Random(2024)
    _, names = _bank_vars("a", "b", "c")
    names = [UNIT] + names
    atoms, reference = [], {}
    for _ in range(400):
        combo = {n: Q(rng.randint(-4, 4), rng.randint(1, 3))
                 for n in rng.sample(names, rng.randint(1, 4))}
        if not any(combo.values()):
            continue
        rel = rng.choice((LT, LE, EQ))
        atom = L.lin_atom(combo, rel)
        assert atom.sort_key == _lead_scaled_key(combo, rel)
        atoms.append(atom)
        reference[atom] = _lead_scaled_key(combo, rel)
    by_key = sorted(atoms, key=lambda a: a.sort_key)
    assert by_key == sorted(atoms, key=reference.__getitem__)
    assert elim.canonicalize(atoms) == tuple(
        sorted(set(a for a in atoms if a.constant_truth() is not True),
               key=reference.__getitem__))


def _rational_row(atom):
    """``lhs - coeff*rhs REL 0`` through ``lin_atom``, negated for ``> >=``."""
    if atom.rel in (LT, LE, EQ):
        return L.lin_atom({atom.lhs: 1, atom.rhs: -atom.coeff}, atom.rel)
    flipped = LT if atom.rel == GT else LE
    return L.lin_atom({atom.lhs: -1, atom.rhs: atom.coeff}, flipped)


def test_from_comm_matches_the_rational_translation():
    _, (x, y) = _bank_vars("x", "y")
    for rel in (LT, LE, EQ, GT, GE):
        for coeff in (Q(0), Q(1), Q(3, 4), Q(-1), Q(-5, 2), Q(7)):
            for lhs, rhs in ((x, y), (y, x), (x, UNIT), (y, UNIT)):
                atom = comm.CommAtom(lhs, rel, coeff, rhs)
                row = L.from_comm(atom)
                assert row == _rational_row(atom), atom
                # Translated once: the row is kept on the comparison.
                assert atom.row is row and L.from_comm(atom) is row
                # The negation's rows are those of the negated comparisons.
                assert L._negations(atom) == tuple(
                    _rational_row(n) for n in oracles.negations(atom)), atom
