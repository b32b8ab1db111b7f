"""Independent test oracles and random generators.

The linear feasibility oracle decides strict/non-strict rational systems by
minimal-face enumeration over the ordered field Q(eps) with eps an
infinitesimal: each strict constraint gets slack eps, every subset of
constraints is solved as a tight equality system by Gaussian elimination,
and any particular solution of a consistent subset is checked against the
whole system.  A nonempty polyhedron always contains a point of this shape,
so the oracle is exact, and it shares no code with the engine's
Fourier-Motzkin path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ineqprover import comm, elim, linarith, mularith, terms
from ineqprover.comm import EQ, GE, GT, LE, LT, UNIT
from ineqprover.linarith import LinAtom
from ineqprover.terms import (App, Div, Neg, One, Pow, Prod, RawTerm, Scale,
                              Sum, Var)

Q = Fraction

# --- arithmetic over Q(eps): numbers a + b*eps ------------------------------

Eps = Tuple[Fraction, Fraction]

EPS_ZERO: Eps = (Q(0), Q(0))


def eps_add(x: Eps, y: Eps) -> Eps:
    return (x[0] + y[0], x[1] + y[1])


def eps_sub(x: Eps, y: Eps) -> Eps:
    return (x[0] - y[0], x[1] - y[1])


def eps_scale(c: Fraction, x: Eps) -> Eps:
    return (c * x[0], c * x[1])


def eps_neg_strict(x: Eps) -> bool:  # x < 0 lexicographically
    return x[0] < 0 or (x[0] == 0 and x[1] < 0)


def eps_nonpos(x: Eps) -> bool:
    return x[0] < 0 or (x[0] == 0 and x[1] <= 0)


def eps_is_zero(x: Eps) -> bool:
    return x[0] == 0 and x[1] == 0


# --- affine constraint view of a linear system ------------------------------


def affine_rows(system: Sequence[LinAtom]):
    """(coeff map without the unit, constant, rel) triples, unit set to 1.

    Coefficients come back as Fractions whatever the atom stores, so the
    Gaussian elimination below divides exactly."""
    rows = []
    for atom in system:
        combo = {}
        const = Q(0)
        for name, c in atom.coeffs:
            if name is UNIT:
                const = Q(c)
            else:
                combo[name] = Q(c)
        rows.append((combo, const, atom.rel))
    return rows


def _solve_tight(rows, variables) -> Optional[List[Eps]]:
    """Particular solution of the rows taken as equalities, free vars 0."""
    matrix = [[row[0].get(v, Q(0)) for v in variables] for row in rows]
    rhs: List[Eps] = []
    for _, const, rel in rows:
        slack = Q(-1) if rel == LT else Q(0)
        rhs.append((-const, slack))
    m, n = len(matrix), len(variables)
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        scale = matrix[r][col]
        matrix[r] = [x / scale for x in matrix[r]]
        rhs[r] = eps_scale(1 / scale, rhs[r])
        for i in range(m):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
                rhs[i] = eps_sub(rhs[i], eps_scale(factor, rhs[r]))
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if all(x == 0 for x in matrix[i]) and not eps_is_zero(rhs[i]):
            return None
    solution: List[Eps] = [EPS_ZERO] * n
    for row_index, col in enumerate(pivots):
        value = rhs[row_index]
        for other in range(n):
            if other != col and matrix[row_index][other] != 0:
                value = eps_sub(value, eps_scale(matrix[row_index][other],
                                                 solution[other]))
        solution[col] = value
    return solution


def _satisfies(rows, variables, point: List[Eps]) -> bool:
    index = {v: i for i, v in enumerate(variables)}
    for combo, const, rel in rows:
        value: Eps = (const, Q(0))
        for v, c in combo.items():
            value = eps_add(value, eps_scale(c, point[index[v]]))
        if rel == LT:
            # encoded with slack eps: value <= -eps
            if not eps_nonpos(eps_add(value, (Q(0), Q(1)))):
                return False
        elif rel == LE:
            if not eps_nonpos(value):
                return False
        else:
            if not eps_is_zero(value):
                return False
    return True


def oracle_feasible(system: Sequence[LinAtom]) -> bool:
    """Exact feasibility by minimal-face enumeration."""
    return oracle_witness(system) is not None


def oracle_witness(system: Sequence[LinAtom]):
    """(variables, point over Q(eps)) for a satisfying point, or None."""
    rows = affine_rows(system)
    for combo, const, rel in rows:  # constant rows decide immediately
        if not combo:
            value: Eps = (const, Q(1) if rel == LT else Q(0))
            ok = (eps_nonpos(value) if rel in (LT, LE) else const == 0)
            if not ok:
                return None
    variables = sorted({v for combo, _, _ in rows for v in combo},
                       key=lambda a: a.index)
    if not variables:
        return ([], [])
    indices = range(len(rows))
    from itertools import combinations

    for size in range(0, len(variables) + 1):
        for subset in combinations(indices, size):
            chosen = [rows[i] for i in subset]
            point = _solve_tight(chosen, variables)
            if point is not None and _satisfies(rows, variables, point):
                return (variables, point)
    return None


def realize_witness(system: Sequence[LinAtom], point: List[Eps],
                    variables) -> Dict:
    """Turn an eps-witness into a rational point satisfying the system."""
    n = 1
    while n < 10 ** 9:
        eps = Q(1, n)
        assignment = {v: point[i][0] + point[i][1] * eps
                      for i, v in enumerate(variables)}
        if all(check_lin_atom(a, assignment) for a in system):
            return assignment
        n *= 4
    raise AssertionError("could not realize the infinitesimal witness")


def check_lin_atom(atom: LinAtom, assignment: Dict) -> bool:
    total = Q(0)
    for name, c in atom.coeffs:
        total += c * (Q(1) if name is UNIT else assignment[name])
    return comm.holds(total, atom.rel, Q(0))


def check_comm_atom(atom: comm.CommAtom, assignment: Dict) -> bool:
    lhs = Q(1) if atom.lhs is UNIT else assignment[atom.lhs]
    rhs = Q(1) if atom.rhs is UNIT else assignment[atom.rhs]
    return comm.holds(lhs, atom.rel, atom.coeff * rhs)


# --- random generators ------------------------------------------------------


def random_rational(rng: random.Random, span: int = 3,
                    max_den: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        q = Q(rng.randint(-span, span), rng.randint(1, max_den))
        if not nonzero or q != 0:
            return q


def random_lin_system(rng: random.Random, names, max_atoms: int = 6):
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        combo = {}
        for name in rng.sample(names, rng.randint(1, min(3, len(names)))):
            combo[name] = random_rational(rng, nonzero=True)
        if rng.random() < 0.6:
            combo[UNIT] = random_rational(rng)
        rel = rng.choice([LT, LE, LE, EQ])
        atoms.append(linarith.lin_atom(combo, rel))
    return elim.canonicalize(atoms)


def random_raw_term(rng: random.Random, names, depth: int = 3,
                    division: bool = True) -> RawTerm:
    if depth == 0 or rng.random() < 0.25:
        choice = rng.random()
        if choice < 0.55:
            return Var(rng.choice(names))
        if choice < 0.8:
            return Scale(random_rational(rng, nonzero=True), One())
        return One()
    kind = rng.random()
    if kind < 0.35:
        parts = [random_raw_term(rng, names, depth - 1, division)
                 for _ in range(rng.randint(2, 3))]
        return Sum(parts)
    if kind < 0.6:
        parts = [random_raw_term(rng, names, depth - 1, division)
                 for _ in range(2)]
        return Prod(parts)
    if kind < 0.7:
        return Neg(random_raw_term(rng, names, depth - 1, division))
    if kind < 0.8:
        return Scale(random_rational(rng, nonzero=True),
                     random_raw_term(rng, names, depth - 1, division))
    if kind < 0.9 or not division:
        return Pow(random_raw_term(rng, names, depth - 1, division),
                   rng.choice([-2, -1, 2, 3]))
    return Div(random_raw_term(rng, names, depth - 1, division),
               random_raw_term(rng, names, depth - 1, division))


def random_assignment(rng: random.Random, names, span: int = 5,
                      max_den: int = 3, positive: bool = False) -> Dict:
    out = {}
    for name in names:
        if positive:
            out[name] = Q(rng.randint(1, span), rng.randint(1, max_den))
        else:
            out[name] = random_rational(rng, span, max_den)
    return out


def has_zero_denominator(term: RawTerm, assignment: Dict) -> bool:
    """Whether evaluating would divide by zero anywhere (before conventions)."""
    if isinstance(term, (One, Var)):
        return False
    if isinstance(term, (Sum, Prod)):
        return any(has_zero_denominator(p, assignment) for p in term.parts)
    if isinstance(term, (Neg, Scale)):
        return has_zero_denominator(term.arg, assignment)
    if isinstance(term, Div):
        if (has_zero_denominator(term.num, assignment)
                or has_zero_denominator(term.den, assignment)):
            return True
        return terms.evaluate(term.den, assignment) == 0
    if isinstance(term, Pow):
        if has_zero_denominator(term.base, assignment):
            return True
        return term.exponent < 0 and terms.evaluate(term.base, assignment) == 0
    if isinstance(term, App):
        return has_zero_denominator(term.arg, assignment)
    raise TypeError(term)


# --- float screening for the big soundness fuzz -----------------------------


def evaluate_float(term: RawTerm, assignment: Dict) -> float:
    if isinstance(term, One):
        return 1.0
    if isinstance(term, Var):
        return assignment[term.name]
    if isinstance(term, Sum):
        return sum(evaluate_float(p, assignment) for p in term.parts)
    if isinstance(term, Neg):
        return -evaluate_float(term.arg, assignment)
    if isinstance(term, Prod):
        acc = 1.0
        for p in term.parts:
            acc *= evaluate_float(p, assignment)
        return acc
    if isinstance(term, Div):
        den = evaluate_float(term.den, assignment)
        if den == 0.0:
            return 0.0
        return evaluate_float(term.num, assignment) / den
    if isinstance(term, Pow):
        base = evaluate_float(term.base, assignment)
        if base == 0.0:
            return 0.0
        return base ** term.exponent
    if isinstance(term, Scale):
        return float(term.factor) * evaluate_float(term.arg, assignment)
    raise TypeError(term)


def comparison_holds_float(lhs, rel, rhs, assignment, slop: float = 1e-9) -> bool:
    """Loose float check; borderline cases must be rechecked exactly."""
    left = evaluate_float(lhs, assignment)
    right = evaluate_float(rhs, assignment)
    if rel == LT:
        return left < right + slop
    if rel == LE:
        return left <= right + slop
    if rel == EQ:
        return abs(left - right) <= slop * (1 + abs(left) + abs(right))
    if rel == GT:
        return left > right - slop
    return left >= right - slop


def comparison_holds_exact(lhs, rel, rhs, assignment) -> bool:
    return comm.holds(terms.evaluate(lhs, assignment), rel,
                      terms.evaluate(rhs, assignment))


def _py_source(term: RawTerm) -> str:
    """Python float expression for a raw term (zero-division convention)."""
    if isinstance(term, One):
        return "1.0"
    if isinstance(term, Var):
        return f"_v[{term.name!r}]"
    if isinstance(term, Sum):
        return "(" + " + ".join(_py_source(p) for p in term.parts) + ")"
    if isinstance(term, Neg):
        return f"(-{_py_source(term.arg)})"
    if isinstance(term, Prod):
        return "(" + " * ".join(_py_source(p) for p in term.parts) + ")"
    if isinstance(term, Div):
        return f"_d({_py_source(term.num)}, {_py_source(term.den)})"
    if isinstance(term, Pow):
        return f"_p({_py_source(term.base)}, {term.exponent})"
    if isinstance(term, Scale):
        return f"({float(term.factor)!r} * {_py_source(term.arg)})"
    if isinstance(term, App):
        return f"_f[{term.symbol!r}]({_py_source(term.arg)})"
    raise TypeError(term)


def compile_float_checker(hypotheses, slop: float = 1e-9):
    """Fast screen: True when an assignment may satisfy every hypothesis.

    Borderline hits must be reconfirmed exactly; clear misses are final for
    fuzzing purposes.
    """
    clauses = []
    for lhs, rel, rhs in hypotheses:
        left, right = _py_source(lhs), _py_source(rhs)
        if rel == "=":
            clauses.append(f"abs({left} - ({right})) <= {slop} * "
                           f"(1 + abs({left}) + abs({right}))")
        elif rel in ("<", "<="):
            clauses.append(f"{left} {rel} {right} + {slop}")
        else:
            clauses.append(f"{left} {rel} {right} - {slop}")
    source = "lambda _v, _f=None: " + " and ".join(clauses or ["True"])
    helpers = {
        "_d": lambda a, b: 0.0 if b == 0.0 else a / b,
        "_p": lambda a, k: 0.0 if a == 0.0 else a ** k,
        "abs": abs,
    }
    return eval(source, helpers)


def name_value(state, atom, assignment, funcs=None) -> Fraction:
    """Value of a (possibly generated) name under original-variable values."""
    if atom is UNIT:
        return Q(1)
    pre = state._defined.get(atom)
    if pre is not None:
        return _eval_pre(state, pre, assignment, funcs)
    if atom.app is not None:
        symbol, arg = atom.app
        value = arg.coeff * _eval_pre(state, arg.body, assignment, funcs)
        return Q(funcs[symbol](value))
    return Q(assignment[atom.label])


def _eval_pre(state, pre, assignment, funcs):
    from ineqprover.terms import AddNode, Atom, MultNode, ONE
    if pre is ONE:
        return Q(1)
    if isinstance(pre, Atom):
        return name_value(state, pre, assignment, funcs)
    if isinstance(pre, AddNode):
        return sum((c * _eval_pre(state, sub, assignment, funcs)
                    for c, sub in pre.children), Q(0))
    acc = Q(1)
    for base, exp in pre.factors:
        value = _eval_pre(state, base, assignment, funcs)
        if value == 0:
            return Q(0)
        acc *= value ** exp
    return acc


def state_atom_holds(state, atom, assignment, funcs=None) -> bool:
    lhs = name_value(state, atom.lhs, assignment, funcs)
    rhs = name_value(state, atom.rhs, assignment, funcs)
    return comm.holds(lhs, atom.rel, atom.coeff * rhs)


# --- replay of trace steps ---------------------------------------------------

_NEGATE = {LT: GE, LE: GT, GT: LE, GE: LT}


def negations(atom: comm.CommAtom) -> list:
    """Disjuncts (atoms, or constant booleans) equivalent to the negation,
    built through ``make_atom`` rather than the engine's row negation."""
    if atom.rel == EQ:
        return [comm.make_atom(atom.lhs, LT, atom.coeff, atom.rhs),
                comm.make_atom(atom.lhs, GT, atom.coeff, atom.rhs)]
    return [comm.make_atom(atom.lhs, _NEGATE[atom.rel], atom.coeff, atom.rhs)]


def replay_step(state, step) -> bool:
    """Re-derive one trace step with its named module from its premises."""
    premises = list(step.comm_premises)
    if step.module == "input":
        return True
    if step.derived == "false":
        return _premises_contradictory(state, premises)
    atom = step.derived_atom
    if atom is None:
        return False
    if step.module == "add":
        system = _defs_system(state) + [linarith.from_comm(a) for a in premises]
        return linarith.implies(system, atom)
    if step.module == "mult":
        return _mult_rederives(state, premises, atom)
    if step.module == "mono":
        from ineqprover import monofun
        facts = monofun.derive_mono_facts(state.decls, state.apps, premises)
        return any(derived == atom for derived, _, _ in facts)
    return False


def _defs_system(state):
    atoms = []
    for name, entries in state.defs_add.items():
        coeffs = {name: Q(1)}
        for c, n in entries:
            coeffs[n] = coeffs.get(n, Q(0)) - c
        atoms.append(linarith.lin_atom(coeffs, EQ))
    return atoms


def _premises_contradictory(state, premises) -> bool:
    system = _defs_system(state) + [linarith.from_comm(a) for a in premises]
    if linarith.is_infeasible(system):
        return True
    try:
        env = mularith.infer_signs(state.defs_mult, premises,
                                   mularith.SignEnv())
        cone = mularith.to_positive_cone(state.defs_mult, premises, env)
    except comm.SignContradiction:
        return True
    return elim.is_infeasible(cone)


def _mult_rederives(state, premises, atom) -> bool:
    for disjunct in negations(atom):
        if disjunct is False:
            continue
        if disjunct is True:
            return False
        extended = premises + [disjunct]
        try:
            env = mularith.infer_signs(state.defs_mult, extended,
                                       mularith.SignEnv())
            cone = mularith.to_positive_cone(state.defs_mult, extended, env)
        except comm.SignContradiction:
            continue
        if not elim.is_infeasible(cone):
            return False
    return True
