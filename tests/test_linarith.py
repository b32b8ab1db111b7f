import itertools
import random
from fractions import Fraction as Q

import pytest

from ineqprover import comm, elim, linarith as L, mularith as M
from ineqprover import terms as T
from ineqprover.comm import EQ, GE, GT, LE, LT, UNIT, make_atom

import oracles


def _bank_vars(*names):
    bank = T.TermBank()
    return bank, [bank.var(n) for n in names]


def _project(system, u, v):
    # A projection with a cache of its own, as a caller without one makes.
    return L.project_to_pair(elim.PathCache(system), u, v)


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


def _fewest_by_brute_force(system, keep):
    # The reference order: count every occurrence of every name, compare
    # names as objects; the unit and the kept names are never candidates.
    names = {n for a in system for n, _ in a.coeffs} - set(keep) - {UNIT}
    return min(names, default=None, key=lambda n: (
        sum(m is n for a in system for m, _ in a.coeffs), n.index))


def _next_to_eliminate(system, keep, path=()):
    # The kernel's choice from the counts it carries: those of the start
    # state, or those after stepping along ``path``.
    cache = elim.PathCache(system)
    state = cache.start
    for name in path:
        state = cache.step(state, name)
    position = elim._fewest(state[1], cache.skip(keep))
    return None if position is None else cache.names[position]


def test_elimination_order_ties_go_to_the_lowest_index():
    _, (x, y, z) = _bank_vars("x", "y", "z")
    system = elim.canonicalize([
        L.lin_atom({x: 1, y: -1}, LT),           # x < y
        L.lin_atom({z: 1, UNIT: -1}, LE),        # z <= 1
        L.lin_atom({x: 2, y: 1, UNIT: -3}, LT),  # 2x + y < 3
    ])
    # The unit occurs twice and z once, x and y twice each.
    assert _next_to_eliminate(system, ()) is z
    assert _next_to_eliminate(system, (z,)) is x
    assert _next_to_eliminate(system, (x, z)) is y
    assert _next_to_eliminate(system, (x, y, z)) is None
    # The unit alone is never chosen, though it occurs least.
    only_unit = elim.canonicalize([L.lin_atom({x: 1, y: -1}, LT),
                                   L.lin_atom({x: 1, y: 1, UNIT: -1}, LE)])
    assert _next_to_eliminate(only_unit, ()) is x


def test_elimination_order_matches_brute_force_counting():
    rng = random.Random(17)
    bank, names = _bank_vars(*(f"v{i}" for i in range(7)))
    for _ in range(300):
        system = elim.canonicalize(
            L.lin_atom({**{n: rng.choice((-2, -1, 1, 3))
                           for n in rng.sample(names, rng.randint(1, 4))},
                        UNIT: rng.randint(-2, 2)},
                       rng.choice((LT, LE, EQ)))
            for _ in range(rng.randint(0, 8)))
        keep = rng.sample(names, rng.randint(0, 3))
        first = _next_to_eliminate(system, keep)
        assert first is _fewest_by_brute_force(system, keep)
        if first is not None:
            # The counts carried through a step match a recount.
            stepped = oracles.eliminate(system, first)
            assert _next_to_eliminate(system, keep, (first,)) is \
                _fewest_by_brute_force(stepped, keep)


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
            atoms += _project(system, names[0], names[1])
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
    assert _project(system, x, y) == [atoms[0], atoms[2], atoms[3]]
    absurd = system + [L.from_comm(make_atom(x, GT, Q(10), UNIT))]
    assert _project(absurd, x, y) == comm.contradiction_pair(y)


def test_projection_memo_holds_only_its_own_elimination_chain():
    # Every cached state lies on an elimination path of this system: its key
    # is a proper prefix of a projected pair's path, and its rows are the
    # reference's system there.  The last step of a pair and the final
    # prune's checks leave no entries.
    _, (u, v, w) = _bank_vars("u", "v", "w")
    system = [
        L.lin_atom({u: 1, w: -1, UNIT: -1}, LE),  # u <= w + 1
        L.lin_atom({w: 1, v: -2}, LT),  # w < 2v
        L.lin_atom({v: 1, w: 1, UNIT: 3}, LE),  # v + w <= -3
        L.lin_atom({u: -1, v: 1, w: 1}, LE),  # v + w <= u
        L.lin_atom({w: -1, UNIT: -5}, LT),  # w > -5
    ]
    cache = elim.PathCache(system)
    assert L.project_to_pair(cache, u, v)
    assert cache.states == {}  # one step, the pair's own
    assert L.project_to_pair(cache, u, UNIT)
    own = {}
    for keep in ((u, v), (u, UNIT)):
        chain = oracles.elimination_chain(system, keep)
        path = ()
        for current, name in chain[:-2]:
            path += (cache.names.index(name),)
            own[path] = chain[len(path)][0]
    assert cache.states and set(cache.states) <= set(own)
    for path, state in cache.states.items():
        assert elim.read(state) == own[path]


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
    result = _project(system, u, v)
    expected = {make_atom(u, GT, 3, v), make_atom(v, GT, 0, UNIT)}
    assert set(result) == expected


def test_pair_projection_combines_inequalities():
    _, (u, v, w) = _bank_vars("u", "v", "w")
    system = elim.canonicalize([
        L.lin_atom({u: 1, v: -1, w: -1}, LE),  # u <= v + w
        L.lin_atom({w: 1, v: -1}, LE),         # w <= v
    ])
    result = _project(system, u, v)
    assert result == [make_atom(u, LE, 2, v)]


def test_pair_projection_of_empty_system_is_trivial():
    _, (u, v) = _bank_vars("u", "v")
    assert _project((), u, v) == []


def test_pair_projection_reports_contradiction():
    _, (u, v) = _bank_vars("u", "v")
    system = elim.canonicalize([
        L.lin_atom({u: 1, v: -1}, LT),
        L.lin_atom({v: 1, u: -1}, LT),
    ])
    result = _project(system, u, v)
    assert set(result) == {make_atom(v, LT, 0, UNIT), make_atom(v, GT, 0, UNIT)}


def test_pair_projection_detects_equalities():
    _, (u, v) = _bank_vars("u", "v")
    system = elim.canonicalize([L.lin_atom({u: 1, v: -2}, EQ)])
    assert _project(system, u, v) == [make_atom(u, EQ, 2, v)]


def test_negative_coefficient_half_plane():
    _, (x, y) = _bank_vars("x", "y")
    system = elim.canonicalize([L.lin_atom({UNIT: 2, x: -1, y: -1}, LE)])
    assert _project(system, x, y) == [make_atom(x, GT, -1, y)]


def test_constant_bounds_emerge_from_unit_pair():
    _, (x, u) = _bank_vars("x", "u")
    system = elim.canonicalize([
        L.lin_atom({UNIT: 1, x: -2, u: 1}, LT),  # u < 2x - 1
        L.lin_atom({u: -1}, LE),                 # u >= 0
    ])
    assert _project(system, x, UNIT) == [make_atom(x, GT, Q(1, 2), UNIT)]


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
        returned = _project(system, u, v)
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


# --- the kernel against the reference -------------------------------------------

def _lin_row(rng, names, rel=None):
    combo = {n: rng.choice((-3, -2, -1, 1, 2)) for n in names}
    if rng.random() < 0.6:
        combo[UNIT] = rng.randint(-3, 3)
    return L.lin_atom(combo, rel or rng.choice((LT, LE, LE, EQ)))


def _lin_parallel(rng, row):
    combo = {n: 2 * c for n, c in row.coeffs if n is not UNIT}
    combo[UNIT] = rng.randint(-4, 4)
    return L.lin_atom(combo, rng.choice((LT, LE)))


# False: 1 < 0, 1 <= 0, 1 = 0; true: -1 < 0.
_LIN_FALSE = [L.lin_atom({UNIT: 1}, rel) for rel in (LT, LE, EQ)]
_LIN_TRUE = L.lin_atom({UNIT: -1}, LT)


def _cone_row(rng, names, rel=None):
    return M.mult_atom({n: rng.choice((-2, -1, 1, 2, 3)) for n in names},
                       rel or rng.choice((LT, LE, LE, EQ)),
                       Q(rng.randint(1, 6), rng.randint(1, 4)))


def _cone_parallel(rng, row):
    return M.mult_atom(dict(row.coeffs), rng.choice((LT, LE)),
                       Q(rng.randint(1, 9), rng.randint(1, 4)))


# False: 1 < 1/2, 1 <= 1/3, 1 = 2; true: 1 <= 2.
_CONE_FALSE = [M.mult_atom({}, LT, Q(1, 2)), M.mult_atom({}, LE, Q(1, 3)),
               M.mult_atom({}, EQ, Q(2))]
_CONE_TRUE = M.mult_atom({}, LE, Q(2))

_KINDS = {"linear": (_lin_row, _lin_parallel, _LIN_FALSE, _LIN_TRUE),
          "cone": (_cone_row, _cone_parallel, _CONE_FALSE, _CONE_TRUE)}


def _hard_system(rng, names, kind):
    """Random rows plus the cases a step must get right: several equalities
    on one name, parallel rows, repeated rows, false and true constants."""
    row, parallel, false, true = _KINDS[kind]

    def some_names():
        return rng.sample(names, rng.randint(1, min(3, len(names))))

    rows = [row(rng, some_names()) for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.5:
        on = rng.choice(names)
        rows += [row(rng, [on, *(n for n in some_names() if n is not on)], EQ)
                 for _ in range(rng.randint(2, 3))]
    for a in rng.sample(rows, min(2, len(rows))):
        if a.rel != EQ:
            rows.append(parallel(rng, a))
    rows += rng.sample(rows, min(len(rows), rng.randint(0, 2)))
    if rng.random() < 0.3:
        rows.append(rng.choice(false))
    if rng.random() < 0.3:
        rows.append(true)
    rng.shuffle(rows)
    return rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except comm.ResourceLimitError:
        return "resource-limit"


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_kernel_matches_the_reference(kind, monkeypatch):
    rng = random.Random(2024)
    bank = T.TermBank()
    names = [bank.var(f"v{i}") for i in range(5)]
    for i in range(300):
        # Every tenth system runs under a cap small enough to fire.
        monkeypatch.setattr(elim, "ATOM_CAP", 4 if i % 10 == 0 else 5000)
        used = names[:rng.randint(2, 5)]
        rows = _hard_system(rng, used, kind)
        # The reference substitutes its first equality on the name; the
        # kernel, its least by sort key.
        ordered = sorted(rows, key=lambda a: a.sort_key)
        for name in (*used, UNIT):
            assert _outcome(elim.eliminate, ordered, name) == \
                _outcome(oracles.eliminate, ordered, name), (rows, name)
        for size in (0, 1, 2):
            keep = rng.sample(used, size)
            assert _outcome(elim.eliminate_all_except, rows, keep) == \
                _outcome(oracles.eliminate_all_except, rows, keep), (rows, keep)
        assert _outcome(elim.is_infeasible, rows) == \
            _outcome(oracles.is_infeasible, rows), rows


def test_a_shared_cache_projects_as_fresh_calls_do():
    rng = random.Random(99)
    _, names = _bank_vars("a", "b", "c", "d", "e")
    stored = 0
    for _ in range(40):
        system = elim.canonicalize(_hard_system(rng, names[:rng.randint(3, 5)],
                                                "linear"))
        cache = elim.PathCache(system)
        for u, v in itertools.combinations([UNIT, *names], 2):
            assert L.project_to_pair(cache, u, v) == \
                _project(system, u, v), (system, u, v)
        stored += len(cache.states)
    assert stored > 100


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
    _, (x, y, z) = _bank_vars("x", "y", "z")
    system = elim.canonicalize([
        L.lin_atom({x: 1, y: -1, UNIT: -1}, LE),  # x - y <= 1
        L.lin_atom({x: 2, y: -2, UNIT: -6}, LE),  # x - y <= 3 (weaker)
    ])
    stronger = elim.canonicalize([L.lin_atom({x: 1, y: -1, UNIT: -1}, LE)])
    assert oracles.drop_weaker(system) == stronger
    # The kernel keeps both until its first step, which drops the weaker.
    assert elim.eliminate_all_except(system, (x, y)) == system
    assert elim.eliminate(system, z) == stronger


def test_a_weaker_parallel_row_keeps_its_false_constant():
    # x - y < 1 makes x - y <= 3 redundant, but substituting x - y = 5 turns
    # each into its own false constant, and constants are not settled against
    # each other; so the first step must see the start's rows unsettled.
    _, (x, y) = _bank_vars("x", "y")
    system = elim.canonicalize([
        L.lin_atom({x: 1, y: -1, UNIT: -1}, LT),
        L.lin_atom({x: 1, y: -1, UNIT: -3}, LE),
        L.lin_atom({x: 1, y: -1, UNIT: -5}, EQ),
    ])
    both = elim.canonicalize([L.lin_atom({UNIT: 1}, LT),
                              L.lin_atom({UNIT: 1}, LE)])
    assert len(both) == 2
    assert oracles.eliminate_all_except(system, (y,)) == both
    assert elim.eliminate_all_except(system, (y,)) == both


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
