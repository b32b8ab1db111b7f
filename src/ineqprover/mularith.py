"""Multiplicative reasoning on the positive cone, with sign inference.

Sign knowledge is a set of possible sign classes ('-', '0', '+') per name,
refined monotonically and without case splits.  Quantities whose sign is
pinned to strictly positive or strictly negative enter the positive cone as
their magnitudes; everything else is left out rather than split on.  In the
cone, facts are ``monomial REL bound`` with integer exponents and a strictly
positive rational bound.  Through the group isomorphism between
multiplication on positives and addition, variable elimination is the
Fourier-Motzkin kernel in ``elim`` that the additive module uses too.
Roots demanded by the final bound are replaced by rationals rounded in the
sound direction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import comm, elim
from .comm import (EQ, GE, GT, LE, LT, CommAtom, ResourceLimitError,
                   SignContradiction, UNIT, make_atom)
from .terms import Atom

#: Any intermediate exponent beyond this aborts to a resource-limit verdict.
EXP_CAP = 2 ** 16

#: Default denominator ceiling for rational root approximations.
ROOT_DENOM_BOUND = 10 ** 6

# ---------------------------------------------------------------------------
# Signs as sets of possible sign classes.
# ---------------------------------------------------------------------------

POS = frozenset("+")
NEG = frozenset("-")
ZERO = frozenset("0")
NONNEG = frozenset("0+")
NONPOS = frozenset("-0")
NONZERO = frozenset("-+")
UNKNOWN = frozenset("-0+")

SIGN_NAMES = {POS: "pos", NEG: "neg", ZERO: "zero", NONNEG: "nonneg",
              NONPOS: "nonpos", NONZERO: "nonzero", UNKNOWN: "unknown"}

_MUL_CLASS = {("+", "+"): "+", ("+", "-"): "-", ("-", "+"): "-", ("-", "-"): "+"}


def _class_mul(a: str, b: str) -> str:
    if a == "0" or b == "0":
        return "0"
    return _MUL_CLASS[(a, b)]


def _class_pow(c: str, exp: int) -> str:
    # 0 to a negative power is 0 under the division-by-zero convention.
    if c == "0":
        return "0"
    if exp % 2 == 0:
        return "+"
    return c


def sign_mul(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(_class_mul(x, y) for x in a for y in b)


def sign_pow(s: frozenset, exp: int) -> frozenset:
    return frozenset(_class_pow(c, exp) for c in s)


def sign_scale(s: frozenset, q: Fraction) -> frozenset:
    if q == 0:
        return ZERO
    if q > 0:
        return s
    return frozenset({"+": "-", "-": "+", "0": "0"}[c] for c in s)


class SignEnv:
    """Mutable map from names to their possible sign classes."""

    def __init__(self, base: Optional[Mapping[Atom, frozenset]] = None):
        self._signs: Dict[Atom, frozenset] = dict(base or {})
        self._signs.setdefault(UNIT, POS)

    def copy(self) -> "SignEnv":
        return SignEnv(self._signs)

    def get(self, name: Atom) -> frozenset:
        return self._signs.get(name, UNKNOWN)

    def refine(self, name: Atom, allowed: frozenset) -> bool:
        """Intersect; True when the entry strictly shrank."""
        current = self.get(name)
        new = current & allowed
        if new == current:
            return False
        if not new:
            raise SignContradiction(name)
        self._signs[name] = new
        return True

    def items(self):
        return self._signs.items()

    def known(self, name: Atom) -> str:
        return SIGN_NAMES.get(self.get(name), "unknown")

    def in_cone(self, name: Atom) -> bool:
        s = self.get(name)
        return s == POS or s == NEG


def sign_fact_atom(name: Atom, signs: frozenset) -> Optional[CommAtom]:
    """Express a sign set as a single constant comparison, when possible."""
    rel = {POS: GT, NEG: LT, ZERO: EQ, NONNEG: GE, NONPOS: LE}.get(signs)
    if rel is None or name is UNIT:
        return None
    return make_atom(name, rel, Fraction(0), UNIT)


# ---------------------------------------------------------------------------
# Sign inference: a fixpoint over definitions and shared comparisons.
# ---------------------------------------------------------------------------


def _products_of(sets: Sequence[frozenset]) -> frozenset:
    acc = POS  # empty product is 1
    for s in sets:
        acc = sign_mul(acc, s)
    return acc


def _scale_preimage(target: frozenset, q: Fraction) -> frozenset:
    if q == 0:
        return UNKNOWN if "0" in target else frozenset()
    return sign_scale(target, q)


def infer_signs(defs: Mapping[Atom, Mapping[Atom, int]],
                comm_atoms: Iterable[CommAtom],
                env: SignEnv) -> SignEnv:
    """Refine signs to a fixpoint; raises SignContradiction on inconsistency.

    Rules: a defined product takes the sign of its factors (even powers are
    nonnegative, and a product is zero exactly when some factor is); factor
    signs are narrowed backward from the product; ordered comparisons against
    a quantity of known sign transfer that sign across the order.
    """
    env = env.copy()
    atoms = list(comm_atoms)
    changed = True
    while changed:
        changed = False
        for name, monomial in defs.items():
            factors = sorted(monomial.items(), key=lambda kv: kv[0].index)
            forward = _products_of([sign_pow(env.get(b), e) for b, e in factors])
            changed |= env.refine(name, forward)
            for i, (base, exp) in enumerate(factors):
                others = _products_of([sign_pow(env.get(b), e)
                                       for j, (b, e) in enumerate(factors) if j != i])
                allowed = frozenset(
                    c for c in "-0+"
                    if any(_class_mul(_class_pow(c, exp), o) in env.get(name)
                           for o in others))
                changed |= env.refine(base, allowed)
        for atom in atoms:
            changed |= _apply_comparison(atom, env)
    return env


def _apply_comparison(atom: CommAtom, env: SignEnv) -> bool:
    """Transfer sign information across ``lhs REL coeff*rhs``."""
    x, rel, a, y = atom.lhs, atom.rel, atom.coeff, atom.rhs
    changed = False
    rhs_sign = sign_scale(env.get(y), a)
    if rel == EQ:
        changed |= env.refine(x, rhs_sign)
        changed |= env.refine(y, _scale_preimage(env.get(x), a))
        return changed
    if rel in (GT, GE):
        # Reorient so the left side is the smaller one.
        low_sign, high_sign = rhs_sign, env.get(x)
        strict = rel == GT

        def refine_low(s):
            return env.refine(y, _scale_preimage(s, a))

        def refine_high(s):
            return env.refine(x, s)
    else:
        low_sign, high_sign = env.get(x), rhs_sign
        strict = rel == LT

        def refine_low(s):
            return env.refine(x, s)

        def refine_high(s):
            return env.refine(y, _scale_preimage(s, a))

    if "+" not in high_sign:  # upper quantity <= 0, or < 0
        changed |= refine_low(NEG if (strict or high_sign == NEG) else NONPOS)
    if "-" not in low_sign:  # lower quantity >= 0, or > 0
        changed |= refine_high(POS if (strict or low_sign == POS) else NONNEG)
    return changed


# ---------------------------------------------------------------------------
# Positive-cone facts.
# ---------------------------------------------------------------------------


class MultAtom:
    """``product(name^exp) REL bound`` over strictly positive magnitudes.

    Under logarithms this is ``sum(exp * log name) REL log bound``, so the
    exponents are the coefficients the shared elimination kernel works on.
    """

    __slots__ = ("coeffs", "rel", "bound", "_hash")

    def __init__(self, coeffs: tuple, rel: str, bound: Fraction):
        self.coeffs = coeffs  # ((Atom, int exponent != 0), ...) by atom index
        self.rel = rel  # LT, LE, or EQ
        self.bound = bound  # > 0
        self._hash = hash((coeffs, rel, bound))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, MultAtom) and self._hash == other._hash
                and self.rel == other.rel and self.bound == other.bound
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"MultAtom({self})"

    @property
    def sort_key(self):
        return (self.rel, tuple((a.index, e) for a, e in self.coeffs),
                self.bound)

    def coeff_of(self, name: Atom) -> int:
        for atom, e in self.coeffs:
            if atom is name:  # a problem's bank makes one Atom per name
                return e
        return 0

    def constant_truth(self) -> Optional[bool]:
        if self.coeffs:
            return None
        return comm.holds(Fraction(1), self.rel, self.bound)

    def strength(self):
        """(monomial, (-bound, strict)); None for equalities and constants."""
        if self.rel == EQ or not self.coeffs:
            return None
        return self.coeffs, (-self.bound, self.rel == LT)

    def cancel(self, p: int, other: "MultAtom", q: int,
               rel: str) -> "MultAtom":
        """``self^ka * other^kb`` with ``(ka, kb) = (|q|, -sign(q)*p)/gcd``;
        ka is positive so the relation direction survives."""
        g = math.gcd(p, q)
        ka, kb = abs(q) // g, (-p if q > 0 else p) // g
        merged: Dict[Atom, int] = {}
        for atom, e in self.coeffs:
            merged[atom] = merged.get(atom, 0) + ka * e
        for atom, e in other.coeffs:
            merged[atom] = merged.get(atom, 0) + kb * e
        return mult_atom(merged, rel, (self.bound ** ka) * (other.bound ** kb))

    def __str__(self) -> str:
        if not self.coeffs:
            return f"1 {self.rel} {self.bound}"
        body = " * ".join(a.label if e == 1 else f"{a.label}^{e}"
                          for a, e in self.coeffs)
        return f"{body} {self.rel} {self.bound}"


def mult_atom(monomial: Mapping[Atom, int], rel: str, bound) -> MultAtom:
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("positive-cone bounds must be strictly positive")
    if rel in (GT, GE):
        # Keep every atom in <=-direction by inverting through the group.
        inverted = {a: -e for a, e in monomial.items()}
        return mult_atom(inverted, LT if rel == GT else LE, 1 / bound)
    items = tuple(sorted(((a, int(e)) for a, e in monomial.items() if e != 0),
                         key=lambda kv: kv[0].index))
    for _, e in items:
        if abs(e) > EXP_CAP:
            raise ResourceLimitError(f"monomial exponent beyond {EXP_CAP}")
    return MultAtom(items, rel, bound)


# ---------------------------------------------------------------------------
# Translation into the cone.
# ---------------------------------------------------------------------------


def _signed_view(name: Atom, env: SignEnv) -> Optional[int]:
    """+1/-1 when the magnitude of a name is usable in the cone, else None.
    A SignEnv holds the unit as positive."""
    if env.get(name) == POS:
        return 1
    if env.get(name) == NEG:
        return -1
    return None


def to_positive_cone(defs: Mapping[Atom, Mapping[Atom, int]],
                     comm_atoms: Iterable[CommAtom],
                     env: SignEnv) -> list:
    """Rewrite definitions and comparisons as positive-cone facts.

    Strictly negative names are replaced by their magnitudes with relations
    adjusted; any fact touching a possibly-zero or unknown-sign name is left
    out (it stays available in the shared store).
    """
    atoms: list = []
    for name, monomial in defs.items():
        views = [_signed_view(name, env)] + [_signed_view(b, env) for b in monomial]
        if any(v is None for v in views):
            continue
        combined = dict(monomial)
        combined[name] = combined.get(name, 0) - 1
        atoms.append(mult_atom(combined, EQ, Fraction(1)))
    for ca in comm_atoms:
        translated = _comparison_to_cone(ca, env)
        if translated is False:
            raise SignContradiction(ca.lhs, f"{ca} cannot hold in the cone")
        if translated is not None and translated is not True:
            atoms.append(translated)
    return list(elim.canonicalize(atoms))


def _comparison_to_cone(atom: CommAtom, env: SignEnv):
    """MultAtom for a comparison, True/None if contentless, False if absurd."""
    sx = _signed_view(atom.lhs, env)
    sy = _signed_view(atom.rhs, env)
    if sx is None or sy is None:
        return None
    if atom.coeff == 0:
        # Pure sign fact; the cone already assumes strict signs.
        ok = comm.holds(Fraction(sx), atom.rel, Fraction(0))
        return True if ok else False
    sign_rhs = sy * (1 if atom.coeff > 0 else -1)
    magnitude = abs(atom.coeff)
    if sx == sign_rhs:
        # make_atom keeps the unit off the left and folds self-comparisons.
        rel = atom.rel if sx > 0 else comm.mirror(atom.rel)
        combined = {atom.lhs: 1}
        if atom.rhs is not UNIT:
            combined[atom.rhs] = -1
        return mult_atom(combined, rel, magnitude)
    if sx < sign_rhs:  # negative versus positive quantity
        return True if atom.rel in (LT, LE) else False
    return True if atom.rel in (GT, GE) else False


# ---------------------------------------------------------------------------
# Rational root bounds.
# ---------------------------------------------------------------------------


def integer_nth_root(a: int, n: int) -> int:
    """floor(a ** (1/n)) for a >= 0, exactly."""
    if a < 0:
        raise ValueError("negative radicand")
    if a == 0:
        return 0
    if n == 1:
        return a
    x = 1 << ((a.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > a:
        x -= 1
    while (x + 1) ** n <= a:
        x += 1
    return x


def _perfect_root(c: Fraction, n: int) -> Optional[Fraction]:
    rn = integer_nth_root(c.numerator, n)
    rd = integer_nth_root(c.denominator, n)
    if rn ** n == c.numerator and rd ** n == c.denominator:
        return Fraction(rn, rd)
    return None


def _root_brackets(c: Fraction, n: int, max_den: int) -> Tuple[Fraction, Fraction]:
    """Best rational lower/upper approximations of c**(1/n), denominator-capped.

    Walks the Stern-Brocot tree with galloped steps; every comparison against
    the root is the exact integer test p^n * den(c) vs num(c) * q^n.
    """

    def below(p: int, q: int) -> bool:
        return p ** n * c.denominator < c.numerator * q ** n

    def advance(a: tuple, b: tuple, side: bool) -> tuple:
        # a + m*b for the largest m within the denominator cap that stays on
        # a's side of the root (m = 1 does), found by galloping then bisecting.
        def stays(m: int) -> bool:
            return below(a[0] + m * b[0], a[1] + m * b[1]) == side

        limit = (max_den - a[1]) // b[1]
        step = 1
        while step * 2 <= limit and stays(2 * step):
            step *= 2
        low_k, high_k = step, min(limit, step * 2)
        while low_k < high_k:
            mid = (low_k + high_k + 1) // 2
            if stays(mid):
                low_k = mid
            else:
                high_k = mid - 1
        return (a[0] + low_k * b[0], a[1] + low_k * b[1])

    k = integer_nth_root(c.numerator // c.denominator, n)
    while below(k + 1, 1):
        k += 1  # k+1 could still be under the root when c is not integral
    lo = (k, 1)
    hi = (k + 1, 1)
    while lo[1] + hi[1] <= max_den:
        if below(lo[0] + hi[0], lo[1] + hi[1]):
            lo = advance(lo, hi, True)
        else:
            hi = advance(hi, lo, False)
    return Fraction(*lo), Fraction(*hi)


def rational_root_bound(c, n: int, direction: str,
                        max_den: int = ROOT_DENOM_BOUND) -> Fraction:
    """A rational q with q**n <= c (lower) or q**n >= c (upper), exact when
    c is a perfect n-th power, otherwise the best denominator-capped
    approximation rounded in the sound direction."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("root bounds are defined for positive values")
    if direction not in ("lower", "upper"):
        raise ValueError("direction must be 'lower' or 'upper'")
    if n < 1:
        raise ValueError("root index must be positive")
    exact = _perfect_root(c, n)
    if exact is not None:
        return exact
    lo, hi = _root_brackets(c, n, max_den)
    return lo if direction == "lower" else hi


# ---------------------------------------------------------------------------
# Ratio projection: the strongest bounds on u/v, read back as comparisons.
# ---------------------------------------------------------------------------

_RATIO = Atom(10 ** 9, "·ratio·")


def _root_compare(c1: Fraction, k1: int, c2: Fraction, k2: int) -> int:
    """Compare c1**(1/k1) with c2**(1/k2) exactly (k1, k2 > 0)."""
    g = math.gcd(k1, k2)
    left = c1 ** (k2 // g)
    right = c2 ** (k1 // g)
    return (left > right) - (left < right)


def _emit(u: Atom, v: Atom, su: int, sv: int, rel: str, q: Fraction,
          note_sink: Optional[list], approx: bool) -> CommAtom:
    """|u| rel q*|v| translated back to the signed names as a comparison;
    ``u`` is a name other than the unit and ``v``."""
    if su > 0:
        made = make_atom(u, rel, q * sv, v)
    else:
        made = make_atom(u, comm.mirror(rel), -q * sv, v)
    if approx and note_sink is not None:
        note_sink.append(made)
    return made


def project_to_ratio(atoms: Sequence[MultAtom], u: Atom, v: Atom,
                     env: SignEnv,
                     max_den: int = ROOT_DENOM_BOUND,
                     approx_sink: Optional[list] = None) -> list:
    """Strongest derivable bounds on the ratio of u to v, two distinct names
    of which only v may be the unit.

    Adds the defining equation of the ratio, eliminates everything else, and
    turns surviving one-name power bounds into comparisons; fractional roots
    are replaced by sound rational bounds.  Atoms recorded in ``approx_sink``
    carry approximated constants.
    """
    su = _signed_view(u, env)
    sv = _signed_view(v, env)
    if su is None or sv is None:
        return []
    if v is UNIT:
        target, system = u, list(atoms)
    else:
        target = _RATIO
        system = [*atoms, mult_atom({_RATIO: 1, u: -1, v: 1}, EQ, Fraction(1))]
    reduced = elim.eliminate_all_except(system, {target})
    if elim.has_false_constant(reduced):
        return comm.contradiction_pair(u if u is not UNIT else v)

    uppers: list = []  # (bound, root index, strict)
    lowers: list = []
    for a in reduced:
        k = a.coeff_of(target)
        if k == 0:
            continue
        strict = a.rel == LT
        bound = (a.bound, k, strict) if k > 0 else (1 / a.bound, -k, strict)
        if a.rel == EQ or k > 0:
            uppers.append(bound)
        if a.rel == EQ or k < 0:
            lowers.append(bound)

    out = []
    # (bounds, _root_compare's sign for a better bound, rounding direction,
    #  relations indexed by strictness)
    for bounds, better, direction, rels in ((uppers, -1, "upper", (LE, LT)),
                                            (lowers, 1, "lower", (GE, GT))):
        if not bounds:
            continue
        best = bounds[0]
        for cand in bounds[1:]:
            cmp = _root_compare(cand[0], cand[1], best[0], best[1])
            if cmp == better or (cmp == 0 and cand[2] and not best[2]):
                best = cand
        c, k, strict = best
        exact = _perfect_root(c, k)
        q = (exact if exact is not None
             else rational_root_bound(c, k, direction, max_den))
        out.append(_emit(u, v, su, sv, rels[strict], q, approx_sink,
                         exact is None))
    return out
