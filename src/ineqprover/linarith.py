"""Exact linear arithmetic over the rationals: Fourier-Motzkin elimination
and a planar feasibility check.

Atoms have the sense ``sum of coeff*name REL 0`` with REL one of ``< <= =``.
The reserved unit name carries the constant part and is never eliminated, so
affine facts stay homogeneous; adding ``unit > 0`` makes pair projections
exact for the scaled-comparison language.  Rows hold primitive integer
coefficients, so combining two rows is integer arithmetic plus one gcd.  The
elimination itself is the kernel in ``elim``, shared with the multiplicative
module.  This module supplies the linear atom and the one path from
comparisons to rows: ``from_comm`` translates a comparison once and keeps
the row on it, ``implies`` refutes the negated row, ``prune_entailed`` drops
comparisons the rest imply (for pair projections and for the blackboard's
table alike), and ``project_to_pair`` reads projections back as
comparisons.  Only a projection, whose row order fixes every report byte,
sorts, and projections of one system share their elimination steps through
an ``elim.PathCache`` the caller owns, one per table version.

An entailment check is a yes/no question about at most two names besides
the unit.  ``is_infeasible`` answers it on integer triples: it eliminates
one name and folds the resulting rows into the tightest bounds on the
other, with no atoms, gcds or sorting; three or more names go to the
kernel.  A projection decides its reduced system over the pair the same
way, so the kernel only eliminates there, and every system it reads back
is feasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from . import comm, elim
from .comm import EQ, GE, GT, LE, LT, CommAtom, UNIT, make_atom
from .terms import Atom


class LinAtom:
    """``sum(coeff * name) REL 0`` as a primitive integer row.

    Coefficients are sorted by name index and have gcd 1, the unit's
    included, and an equality's lead coefficient is positive, so equal atoms
    have equal rows.  Immutable; the hash, the strength and the constant
    truth value are computed once here, the sort key on first use.
    """

    __slots__ = ("coeffs", "rel", "_hash", "_strength", "_truth", "_sort_key")

    def __init__(self, coeffs: tuple, rel: str):
        self.coeffs = coeffs  # ((Atom, int != 0), ...) by atom index, gcd 1
        self.rel = rel  # LT, LE, or EQ
        self._hash = hash((coeffs, rel))
        self._sort_key = None
        unit, names = 0, coeffs
        if coeffs and coeffs[0][0] is UNIT:
            unit, names = coeffs[0][1], coeffs[1:]
        self._truth = None if names else comm.holds(unit, rel, 0)
        self._strength = None
        if names and rel != EQ:
            g = gcd(*[c for _, c in names])
            if g != 1:
                names = tuple((atom, c // g) for atom, c in names)
            self._strength = (names, (Fraction(unit, g), rel == LT))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, LinAtom) and self._hash == other._hash
                and self.rel == other.rel and self.coeffs == other.coeffs)

    @property
    def sort_key(self) -> tuple:
        """``(rel, ((index, c / |lead|), ...))``: the order of rows scaled to
        a unit lead.  Elimination order, and through it every report, follows
        this order."""
        key = self._sort_key
        if key is None:
            lead = abs(self.coeffs[0][1]) if self.coeffs else 1
            # Integral quotients stay ints: they compare faster, same order.
            key = self._sort_key = (self.rel, tuple(
                (atom.index, c // lead if c % lead == 0 else Fraction(c, lead))
                for atom, c in self.coeffs))
        return key

    def coeff_of(self, name: Atom) -> int:
        for atom, c in self.coeffs:
            if atom is name:  # a problem's bank makes one Atom per name
                return c
        return 0

    def constant_truth(self) -> Optional[bool]:
        """Truth value if no name besides the unit occurs, else None."""
        return self._truth

    def strength(self):
        """(direction, (bound, strict)) read as ``direction REL -bound``, with
        the direction a primitive integer row; None for equalities and
        constants."""
        return self._strength

    def cancel(self, p: int, other: "LinAtom", q: int,
               rel: str) -> "LinAtom":
        """``|q|*self - sign(q)*p*other``, merged over the sorted lists."""
        ca, cb = (q, -p) if q > 0 else (-q, p)
        items = []
        left, right = self.coeffs, other.coeffs
        i = j = 0
        while i < len(left) and j < len(right):
            la, lc = left[i]
            ra, rc = right[j]
            if la is ra:
                value = ca * lc + cb * rc
                if value != 0:
                    items.append((la, value))
                i += 1
                j += 1
            elif la.index < ra.index:
                items.append((la, ca * lc))
                i += 1
            else:
                items.append((ra, cb * rc))
                j += 1
        for atom, c in left[i:]:
            items.append((atom, ca * c))
        for atom, c in right[j:]:
            items.append((atom, cb * c))
        return _primitive(items, rel)

    def __repr__(self) -> str:
        return f"LinAtom({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 {self.rel} 0"
        parts = " + ".join(f"{c}*{a.label}" for a, c in self.coeffs)
        return f"{parts} {self.rel} 0"


def _primitive(items: list, rel: str) -> LinAtom:
    """The atom of an integer row: divided by the gcd of its coefficients,
    and by its lead's sign too for an equality."""
    if items:
        g = gcd(*[c for _, c in items])
        if rel == EQ and items[0][1] < 0:
            g = -g
        if g != 1:
            items = [(atom, c // g) for atom, c in items]
    return LinAtom(tuple(items), rel)


def lin_atom(coeffs: dict, rel: str) -> LinAtom:
    """Build a canonical atom from rational coefficients; zeros are dropped."""
    if rel not in (LT, LE, EQ):
        raise ValueError(f"linear atoms use < <= =, got {rel!r}")
    items = sorted(((a, Fraction(c)) for a, c in coeffs.items() if c != 0),
                   key=lambda kv: kv[0].index)
    den = lcm(*[c.denominator for _, c in items])
    return _primitive([(a, c.numerator * (den // c.denominator))
                       for a, c in items], rel)


def from_comm(atom: CommAtom) -> LinAtom:
    """The row of ``lhs REL coeff*rhs``, built once and kept on the atom.

    With ``coeff = p/q`` in lowest terms the row is ``q*lhs - p*rhs``, whose
    coefficients already have gcd 1; ``> >=`` flip its signs."""
    row = atom.row
    if row is None:
        p, q = atom.coeff.numerator, atom.coeff.denominator
        rel = atom.rel
        if rel in (GT, GE):
            p, q, rel = -p, -q, (LT if rel == GT else LE)
        if p == 0:
            items = ((atom.lhs, q),)
        elif atom.lhs.index < atom.rhs.index:
            items = ((atom.lhs, q), (atom.rhs, -p))
        elif rel == EQ and p > 0:  # an equality's lead is positive
            items = ((atom.rhs, p), (atom.lhs, -q))
        else:
            items = ((atom.rhs, -p), (atom.lhs, q))
        row = atom.row = LinAtom(items, rel)
    return row


def _negations(atom: CommAtom) -> tuple:
    """Rows whose disjunction is the negation of ``atom``: the row with its
    signs flipped and strictness swapped, or for an equality the two strict
    rows, ``lhs < coeff*rhs`` first."""
    row = from_comm(atom)
    flipped = tuple((name, -c) for name, c in row.coeffs)
    if row.rel != EQ:
        return (LinAtom(flipped, LE if row.rel == LT else LT),)
    below, above = LinAtom(row.coeffs, LT), LinAtom(flipped, LT)
    return (below, above) if row.coeff_of(atom.lhs) > 0 else (above, below)


def is_infeasible(system: Sequence[LinAtom]) -> bool:
    """Exact: true iff the rows, in any order and repeated or not, have no
    common real solution.

    Rows over at most two names besides the unit, ``a`` and ``b`` in the
    order met, are read once into integer triples ``(ca, cb, c0, rel)`` for
    ``ca*a + cb*b + c0 REL 0`` and decided in the plane; with three or more
    names the FM kernel decides.
    """
    a = b = None
    triples = []
    for row in system:
        ca = cb = c0 = 0
        for name, c in row.coeffs:
            if name is UNIT:
                c0 = c
            elif name is a or a is None:
                a, ca = name, c
            elif name is b or b is None:
                b, cb = name, c
            else:
                return elim.is_infeasible(system)
        triples.append((ca, cb, c0, row.rel))
    return _planar_infeasible(triples)


def _planar_infeasible(triples: list) -> bool:
    """Eliminate ``a`` and fold every resulting row into the tightest lower
    and upper bound on ``b``, each ``(num, den, strict)`` with ``den > 0``
    and compared by cross-multiplying; an equality is both bounds."""
    lower = upper = None
    for cb, c0, rel in _without_a(triples):
        if cb == 0:
            if not comm.holds(c0, rel, 0):
                return True
            continue
        num, den = (-c0, cb) if cb > 0 else (c0, -cb)
        strict = rel == LT
        if cb > 0 or rel == EQ:
            if upper is None:
                upper = (num, den, strict)
            else:
                d = num * upper[1] - upper[0] * den
                if d < 0 or (d == 0 and strict):
                    upper = (num, den, strict)
        if cb < 0 or rel == EQ:
            if lower is None:
                lower = (num, den, strict)
            else:
                d = num * lower[1] - lower[0] * den
                if d > 0 or (d == 0 and strict):
                    lower = (num, den, strict)
    if lower is None or upper is None:
        return False
    d = lower[0] * upper[1] - upper[0] * lower[1]
    return d > 0 or (d == 0 and (lower[2] or upper[2]))


def _without_a(triples: list):
    """The rows ``(cb, c0, rel)`` of the projection onto ``b``, one at a
    time: an equality on ``a`` is substituted into every row, or else each
    lower bound on ``a`` is combined with each upper bound, strict when
    either is."""
    eq = next((t for t in triples if t[0] and t[3] == EQ), None)
    if eq is not None:
        ea, eb, e0, _ = eq if eq[0] > 0 else (-eq[0], -eq[1], -eq[2], EQ)
        for t in triples:
            ca, cb, c0, rel = t
            if not ca:
                yield cb, c0, rel
            elif t is not eq:
                yield ea * cb - ca * eb, ea * c0 - ca * e0, rel
        return
    lowers, uppers = [], []
    for ca, cb, c0, rel in triples:
        if not ca:
            yield cb, c0, rel
        elif ca > 0:
            uppers.append((ca, cb, c0, rel))
        else:
            lowers.append((-ca, cb, c0, rel))
    for la, lb, l0, lrel in lowers:
        for ua, ub, u0, urel in uppers:
            yield (ua * lb + la * ub, ua * l0 + la * u0,
                   LT if LT in (lrel, urel) else LE)


def implies(system: Sequence[LinAtom], atom: CommAtom) -> bool:
    """Entailment check: every row of the negation of ``atom`` must be
    infeasible together with the system."""
    return all(is_infeasible((*system, negated))
               for negated in _negations(atom))


_UNIT_POSITIVE = lin_atom({UNIT: -1}, LT)


def _atoms_from_two_names(system: Sequence[LinAtom], u: Atom, v: Atom) -> list:
    """Read the rows ``alpha*u + beta*v REL 0`` of a feasible canonical
    system off as comparison atoms.  No such row is constant, and ``alpha``
    is nonzero whenever ``v`` is the unit."""
    out = []
    for a in system:
        alpha = a.coeff_of(u)
        beta = a.coeff_of(v)
        if alpha == 0:
            rel = a.rel if beta > 0 else comm.mirror(a.rel)
            out.append(make_atom(v, rel, Fraction(0), UNIT))
        else:
            rel = a.rel if alpha > 0 else comm.mirror(a.rel)
            out.append(make_atom(u, rel, Fraction(-beta, alpha), v))
    return out


def _merge_equalities(atoms: list) -> list:
    """Collapse matching <=/>= half-planes into a single equality atom."""
    atoms = list(dict.fromkeys(atoms))
    position = {a: i for i, a in enumerate(atoms)}
    result = []
    consumed = set()
    for i, a in enumerate(atoms):
        if i in consumed or a.rel != LE:
            continue
        if a.coeff > 0 and a.rhs is not UNIT:
            partner = make_atom(a.rhs, LE, 1 / a.coeff, a.lhs)
        else:
            partner = make_atom(a.lhs, GE, a.coeff, a.rhs)
        j = position.get(partner)
        if j is not None and j not in consumed:
            result.append(make_atom(a.lhs, EQ, a.coeff, a.rhs))
            consumed.update((i, j))
    result.extend(a for i, a in enumerate(atoms) if i not in consumed)
    return result


def prune_entailed(atoms: Sequence[CommAtom], extra: Sequence[CommAtom] = (),
                   keep: Optional[CommAtom] = None) -> list:
    """Drop the atoms implied by the remaining ones and ``extra``, in one
    deterministic pass; ``keep`` is never dropped.

    Each drop is justified by atoms that either survive or are dropped later
    with their own justification, so the final set implies every dropped one.
    """
    kept = list(atoms)
    rows = [from_comm(a) for a in kept]
    extra_rows = [from_comm(a) for a in extra]
    i = 0
    while i < len(kept):
        if kept[i] is not keep and implies(rows[:i] + rows[i + 1:] + extra_rows,
                                           kept[i]):
            del kept[i], rows[i]
        else:
            i += 1
    return kept


def project_to_pair(cache: elim.PathCache, u: Atom, v: Atom) -> list:
    """Strongest comparison atoms between u and v entailed by the system.

    Returns at most two scaled half-planes relating u and v plus at most two
    constant bounds for each of them; an infeasible system yields the
    canonical contradictory pair.  The reduced system over u, v and the unit
    is decided in the plane, so every system read afterwards is feasible.
    The system is the one ``cache`` holds; projections through one cache
    share their elimination steps, and the checks do not use it.
    """
    if u is v:
        raise ValueError("projection needs two distinct names")
    reduced = cache.reduce((u, v))
    if is_infeasible(reduced[0]):
        return comm.contradiction_pair(v if v is not UNIT else u)
    if u is UNIT or v is UNIT:
        collected = _atoms_from_two_names(elim.read(reduced),
                                          v if u is UNIT else u, UNIT)
    else:
        # The unit is positive; make that explicit while projecting it away.
        pair_only = elim.eliminate(reduced[0] + (_UNIT_POSITIVE,), UNIT)
        collected = (_atoms_from_two_names(pair_only, u, v)
                     + _atoms_from_two_names(
                         elim.read(cache.step(reduced, v)), u, UNIT)
                     + _atoms_from_two_names(
                         elim.read(cache.step(reduced, u)), v, UNIT))
    return prune_entailed(_merge_equalities(collected))
