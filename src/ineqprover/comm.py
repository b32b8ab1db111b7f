"""The common comparison language shared by all reasoning modules.

An atom relates two named quantities up to a rational factor:
``lhs REL coeff * rhs``.  Constant bounds use the reserved unit name on the
right-hand side, so ``x < 3/4`` is stored as ``x < 3/4 * unit``.  Every atom
has exactly one canonical representation; construction folds out trivially
true or false comparisons instead of storing them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .terms import Atom, _frac_str, rational

LT, LE, EQ, GT, GE = "<", "<=", "=", ">", ">="
RELS = (LT, LE, EQ, GT, GE)


class ResourceLimitError(RuntimeError):
    """A configured work cap was exceeded; reported as a verdict, not a crash."""


class SignContradiction(Exception):
    """Sign bookkeeping became inconsistent: the hypotheses are refuted."""

    def __init__(self, name, detail: str = ""):
        self.name = name
        self.detail = detail
        super().__init__(f"inconsistent sign for {getattr(name, 'label', name)}"
                         + (f": {detail}" if detail else ""))

_MIRROR = {LT: GT, LE: GE, EQ: EQ, GT: LT, GE: LE}

#: Reserved name for the constant 1; banks never assign index -1.
UNIT = Atom(-1, "1")


def mirror(rel: str) -> str:
    return _MIRROR[rel]


def holds(lhs: Fraction, rel: str, rhs: Fraction) -> bool:
    if rel == LT:
        return lhs < rhs
    if rel == LE:
        return lhs <= rhs
    if rel == EQ:
        return lhs == rhs
    if rel == GT:
        return lhs > rhs
    return lhs >= rhs


class CommAtom:
    """``lhs REL coeff * rhs``.  Immutable; ``row``, the additive module's
    linear atom for it, is filled in on first use (``linarith.from_comm``)."""

    __slots__ = ("lhs", "rel", "coeff", "rhs", "_hash", "row")

    def __init__(self, lhs: Atom, rel: str, coeff: Fraction, rhs: Atom):
        self.lhs = lhs
        self.rel = rel
        self.coeff = coeff
        self.rhs = rhs
        self._hash = hash((lhs, rel, coeff, rhs))
        self.row = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, CommAtom) and self._hash == other._hash
                and self.rel == other.rel and self.coeff == other.coeff
                and self.lhs == other.lhs and self.rhs == other.rhs)

    def __repr__(self) -> str:
        return f"CommAtom({self})"

    def __str__(self) -> str:
        if self.rhs is UNIT:
            return f"{self.lhs.label} {self.rel} {_frac_str(self.coeff)}"
        if self.coeff == 1:
            return f"{self.lhs.label} {self.rel} {self.rhs.label}"
        if self.coeff == -1:
            return f"{self.lhs.label} {self.rel} -{self.rhs.label}"
        return (f"{self.lhs.label} {self.rel} {_frac_str(self.coeff)} * "
                f"{self.rhs.label}")


AtomOrBool = Union[CommAtom, bool]


def make_atom(lhs: Atom, rel: str, coeff, rhs: Atom) -> AtomOrBool:
    """Canonicalize ``lhs rel coeff*rhs``: True/False when constant, which
    needs the unit or ``rhs`` itself on the left, else a CommAtom.

    Canonical form: the unit is only ever a right-hand side; a pair atom with
    positive coefficient uses one of ``< <= =`` (reorienting when needed); a
    pair atom with negative coefficient keeps its relation and puts the
    lower-indexed name on the left.  Self-comparisons fold to sign bounds.
    """
    coeff = rational(coeff)
    if rel not in RELS:
        raise ValueError(f"unknown relation {rel!r}")
    if lhs is UNIT and rhs is UNIT:
        return holds(Fraction(1), rel, coeff)
    if lhs is UNIT:
        if coeff == 0:
            return holds(Fraction(1), rel, Fraction(0))
        if coeff > 0:
            return make_atom(rhs, mirror(rel), 1 / coeff, UNIT)
        return make_atom(rhs, rel, 1 / coeff, UNIT)
    if lhs is rhs:
        # x rel a*x  <=>  (1 - a) x rel 0
        if coeff == 1:
            return holds(Fraction(0), rel, Fraction(0))
        if coeff < 1:
            return make_atom(lhs, rel, Fraction(0), UNIT)
        return make_atom(lhs, mirror(rel), Fraction(0), UNIT)
    if rhs is UNIT:
        return CommAtom(lhs, rel, coeff, UNIT)
    if coeff == 0:
        return CommAtom(lhs, rel, Fraction(0), UNIT)
    if coeff > 0:
        if rel in (GT, GE):
            return CommAtom(rhs, mirror(rel), 1 / coeff, lhs)
        if rel == EQ and lhs.index > rhs.index:
            return CommAtom(rhs, EQ, 1 / coeff, lhs)
        return CommAtom(lhs, rel, coeff, rhs)
    if lhs.index > rhs.index:
        return CommAtom(rhs, rel, 1 / coeff, lhs)
    return CommAtom(lhs, rel, coeff, rhs)


def pair_key(atom: CommAtom) -> tuple:
    """Unordered key for the pair of names an atom relates."""
    a, b = atom.lhs, atom.rhs
    if a.index > b.index:
        a, b = b, a
    return (a, b)


def contradiction_pair(name: Atom) -> list:
    """``name < 0`` and ``name > 0``: the canonical refuting pair for a
    module that found its system infeasible."""
    return [make_atom(name, LT, Fraction(0), UNIT),
            make_atom(name, GT, Fraction(0), UNIT)]
