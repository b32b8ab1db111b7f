"""Exact linear arithmetic over the rationals: Fourier-Motzkin elimination.

Atoms have the sense ``sum of coeff*name REL 0`` with REL one of ``< <= =``.
The reserved unit name carries the constant part and is never eliminated, so
affine facts stay homogeneous; adding ``unit > 0`` makes pair projections
exact for the scaled-comparison language.  The elimination itself is the
kernel in ``elim``, shared with the multiplicative module; this module
supplies the linear atom, memoizes single-name eliminations, infeasibility
and entailment checks, and reads pair projections back as comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import comm, elim
from .comm import EQ, GE, GT, LE, LT, CommAtom, UNIT, make_atom
from .elim import ATOM_CAP, canonicalize
from .terms import Atom


_ZERO = Fraction(0)


class LinAtom:
    """``sum(coeff * name) REL 0`` with coefficients sorted by name index.

    Immutable; the hash and the deterministic sort key are precomputed so
    that memo tables and system ordering stay cheap.
    """

    __slots__ = ("coeffs", "rel", "sort_key", "_hash")

    def __init__(self, coeffs: tuple, rel: str):
        self.coeffs = coeffs  # ((Atom, Fraction != 0), ...) by atom index
        self.rel = rel  # LT, LE, or EQ
        self.sort_key = (rel, tuple((a.index, c) for a, c in coeffs))
        self._hash = hash((coeffs, rel))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, LinAtom) and self._hash == other._hash
                and self.rel == other.rel and self.coeffs == other.coeffs)

    def coeff_of(self, name: Atom) -> Fraction:
        for atom, c in self.coeffs:
            if atom is name or atom == name:
                return c
        return Fraction(0)

    def constant_truth(self) -> Optional[bool]:
        """Truth value if no name besides the unit occurs, else None."""
        value = Fraction(0)
        for atom, c in self.coeffs:
            if atom is not UNIT:
                return None
            value = c
        return comm.holds(value, self.rel, Fraction(0))

    def strength(self):
        """(direction, (bound, strict)) read as ``direction REL -bound``, with
        the direction scaled to a unit lead; None for equalities and
        constants."""
        if self.rel == EQ:
            return None
        bound, var_part = _ZERO, []
        for atom, c in self.coeffs:
            if atom is UNIT:
                bound = c
            else:
                var_part.append((atom, c))
        if not var_part:
            return None
        lead = abs(var_part[0][1])
        direction = tuple((atom, c / lead) for atom, c in var_part)
        return direction, (bound / lead, self.rel == LT)

    def cancel(self, p: Fraction, other: "LinAtom", q: Fraction,
               rel: str) -> "LinAtom":
        """``|q|*self - sign(q)*p*other``, merged over the sorted lists."""
        ca, cb = (q, -p) if q > 0 else (-q, p)
        items = []
        left, right = self.coeffs, other.coeffs
        i = j = 0
        while i < len(left) and j < len(right):
            la, lc = left[i]
            ra, rc = right[j]
            if la is ra or la == ra:
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
        if items:
            lead = items[0][1]
            scale = abs(lead) if rel != EQ else lead
            if scale != 1:
                items = [(atom, c / scale) for atom, c in items]
        return LinAtom(tuple(items), rel)

    def __repr__(self) -> str:
        return f"LinAtom({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return f"0 {self.rel} 0"
        parts = " + ".join(f"{c}*{a.label}" for a, c in self.coeffs)
        return f"{parts} {self.rel} 0"


def lin_atom(coeffs: dict, rel: str) -> LinAtom:
    """Build a canonical atom: zero coefficients dropped, scaled to lead 1."""
    if rel not in (LT, LE, EQ):
        raise ValueError(f"linear atoms use < <= =, got {rel!r}")
    items = sorted(((a, Fraction(c)) for a, c in coeffs.items() if c != 0),
                   key=lambda kv: kv[0].index)
    if items:
        lead = items[0][1]
        scale = abs(lead) if rel != EQ else lead
        items = [(a, c / scale) for a, c in items]
    return LinAtom(tuple(items), rel)


_from_comm_memo: dict = {}


def from_comm(atom: CommAtom) -> LinAtom:
    """Translate ``lhs REL coeff*rhs`` into a linear atom."""
    cached = _from_comm_memo.get(atom)
    if cached is not None:
        return cached
    if atom.rel in (LT, LE, EQ):
        made = lin_atom({atom.lhs: 1, atom.rhs: -atom.coeff}, atom.rel)
    else:
        flipped = LT if atom.rel == GT else LE
        made = lin_atom({atom.lhs: -1, atom.rhs: atom.coeff}, flipped)
    _from_comm_memo[atom] = made
    return made


_fm_memo: dict = {}
_infeasible_memo: dict = {}
_implies_memo: dict = {}


def fm_eliminate(system: Sequence[LinAtom], name: Atom,
                 cap: int = ATOM_CAP) -> tuple:
    """Exact projection of the system onto the names other than ``name``.

    Memoized: elimination chains that share a prefix (as the all-pairs sweep
    does) reuse each other's work.
    """
    if name is UNIT:
        raise ValueError("the unit name cannot be eliminated")
    key = (tuple(system), name, cap)
    cached = _fm_memo.get(key)
    if cached is None:
        if len(_fm_memo) > 200_000:
            _fm_memo.clear()
        cached = elim.eliminate(key[0], name, cap)
        _fm_memo[key] = cached
    return cached


def is_infeasible(system: Sequence[LinAtom], cap: int = ATOM_CAP) -> bool:
    """Exact: true iff the system has no rational (equivalently real) solution."""
    current = canonicalize(system)
    key = (current, cap)
    cached = _infeasible_memo.get(key)
    if cached is not None:
        return cached
    result = elim.is_infeasible(current, cap, step=fm_eliminate)
    if len(_infeasible_memo) > 200_000:
        _infeasible_memo.clear()
    _infeasible_memo[key] = result
    return result


def implies(system: Sequence[LinAtom], atom: CommAtom,
            cap: int = ATOM_CAP) -> bool:
    """Entailment check: the negation of ``atom`` must be infeasible."""
    base = canonicalize(system)
    key = (base, atom, cap)
    cached = _implies_memo.get(key)
    if cached is not None:
        return cached
    result = True
    for disjunct in comm.negations(atom):
        if disjunct is False:
            continue
        if disjunct is True:
            if not is_infeasible(base, cap):
                result = False
                break
            continue
        if not is_infeasible(base + (from_comm(disjunct),), cap):
            result = False
            break
    if len(_implies_memo) > 200_000:
        _implies_memo.clear()
    _implies_memo[key] = result
    return result


_UNIT_POSITIVE = LinAtom(((UNIT, Fraction(-1)),), LT)


def _contradiction_pair(v: Atom) -> list:
    anchor = v if v is not UNIT else UNIT
    if anchor is UNIT:
        # No ordinary name involved; the constant falsehood suffices.
        return [make_atom(UNIT, LT, Fraction(1), UNIT)]
    low = make_atom(anchor, LT, Fraction(0), UNIT)
    high = make_atom(anchor, GT, Fraction(0), UNIT)
    return [a for a in (low, high) if not isinstance(a, bool)]


def _atoms_from_two_names(system: Sequence[LinAtom], u: Atom, v: Atom) -> list:
    """Read ``alpha*u + beta*v REL 0`` atoms off as comparison atoms."""
    out = []
    for a in system:
        alpha = a.coeff_of(u)
        beta = a.coeff_of(v)
        if alpha == 0 and beta == 0:
            continue
        if alpha == 0:
            made = make_atom(v, a.rel, Fraction(0), UNIT) if beta > 0 else \
                make_atom(v, comm.mirror(a.rel), Fraction(0), UNIT)
        elif alpha > 0:
            made = make_atom(u, a.rel, -beta / alpha, v)
        else:
            made = make_atom(u, comm.mirror(a.rel), -beta / alpha, v)
        if made is False:
            return None  # the projected system contains a falsehood
        if made is not True:
            out.append(made)
    return out


def _merge_equalities(atoms: list) -> list:
    """Collapse matching <=/>= half-planes into a single equality atom."""
    atoms = list(dict.fromkeys(atoms))
    result = []
    consumed = set()
    for i, a in enumerate(atoms):
        if i in consumed or a.rel != LE:
            continue
        partner = None
        if a.coeff > 0 and a.rhs is not UNIT:
            partner = make_atom(a.rhs, LE, 1 / a.coeff, a.lhs)
        else:
            partner = make_atom(a.lhs, GE, a.coeff, a.rhs)
        if isinstance(partner, bool):
            continue
        for j, b in enumerate(atoms):
            if j != i and j not in consumed and b == partner:
                merged = make_atom(a.lhs, EQ, a.coeff, a.rhs)
                if not isinstance(merged, bool):
                    result.append(merged)
                consumed.add(i)
                consumed.add(j)
                break
    for i, a in enumerate(atoms):
        if i not in consumed:
            result.append(a)
    return result


def _prune_entailed(atoms: list, cap: int) -> list:
    """Drop atoms implied by the remaining ones, in one deterministic pass.

    Each drop is justified by atoms that either survive or are dropped later
    with their own justification, so the final set implies every dropped one.
    """
    kept = list(atoms)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        context = [from_comm(b) for b in others]
        if implies(context, kept[i], cap):
            kept.pop(i)
        else:
            i += 1
    return kept


def project_to_pair(system: Sequence[LinAtom], u: Atom, v: Atom,
                    cap: int = ATOM_CAP) -> list:
    """Strongest comparison atoms between u and v entailed by the system.

    Returns at most two scaled half-planes relating u and v plus at most two
    constant bounds for each of them; an infeasible system yields the
    canonical contradictory pair.
    """
    if u is v:
        raise ValueError("projection needs two distinct names")
    reduced = elim.eliminate_all_except(system, (u, v), cap, step=fm_eliminate)
    if elim.has_false_constant(reduced) or is_infeasible(reduced, cap):
        return _contradiction_pair(v if v is not UNIT else u)
    collected: list = []
    if u is UNIT or v is UNIT:
        x = v if u is UNIT else u
        got = _atoms_from_two_names(reduced, x, UNIT)
        if got is None:
            return _contradiction_pair(x)
        collected.extend(got)
    else:
        # The unit is positive; make that explicit while projecting it away.
        pair_only = elim.eliminate(reduced + (_UNIT_POSITIVE,), UNIT, cap)
        for source, names in ((pair_only, (u, v)),
                              (fm_eliminate(reduced, v, cap), (u, UNIT)),
                              (fm_eliminate(reduced, u, cap), (v, UNIT))):
            got = _atoms_from_two_names(source, *names)
            if got is None:
                return _contradiction_pair(v)
            collected.extend(got)
    merged = _merge_equalities(collected)
    return _prune_entailed(merged, cap)
