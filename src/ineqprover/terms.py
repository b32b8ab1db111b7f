"""Exact term algebra: raw expression trees and canonical normal forms.

Terms are built from variables, the constant 1, ``+ - * /``, integer powers,
rational scalar multiples, and declared unary function applications.  Every
term has a normal form ``coeff * preterm`` where the preterm alternates
additive and multiplicative levels, children are sorted by a fixed total
order, sums carry a leading coefficient of 1, and all arithmetic is exact
rational arithmetic.  Two terms are provably equal under the scalar-linear
laws (no expansion of products of sums) exactly when their normal forms are
structurally identical, so syntactic comparison of normal forms decides
equality.

Division folds into exponent -1; its soundness at a zero denominator is the
caller's concern (the search engine only uses multiplicative facts for
quantities known to be nonzero).  Evaluation follows the convention
``x / 0 = 0``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, Mapping, Optional, Union


class TermError(ValueError):
    """Malformed term or unsupported operation."""


RationalLike = Union[int, Fraction]


def rational(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TermError(f"expected an exact rational, got {value!r}")


# ---------------------------------------------------------------------------
# Raw terms: the input syntax tree, before normalization.
# ---------------------------------------------------------------------------


class RawTerm:
    """Base class for input expression trees.  Operators build larger trees."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, as_raw(other)))

    def __radd__(self, other):
        return Sum((as_raw(other), self))

    def __sub__(self, other):
        return Sum((self, Neg(as_raw(other))))

    def __rsub__(self, other):
        return Sum((as_raw(other), Neg(self)))

    def __neg__(self):
        return Neg(self)

    def __mul__(self, other):
        return Prod((self, as_raw(other)))

    def __rmul__(self, other):
        return Prod((as_raw(other), self))

    def __truediv__(self, other):
        return Div(self, as_raw(other))

    def __rtruediv__(self, other):
        return Div(as_raw(other), self)

    def __pow__(self, exponent):
        return Pow(self, exponent)


def as_raw(value) -> RawTerm:
    if isinstance(value, RawTerm):
        return value
    q = rational(value)
    if q == 1:
        return One()
    return Scale(q, One())


@dataclass(frozen=True, slots=True)
class One(RawTerm):
    pass


@dataclass(frozen=True, slots=True)
class Var(RawTerm):
    name: str


@dataclass(frozen=True, slots=True)
class Sum(RawTerm):
    parts: tuple

    def __init__(self, parts: Iterable[RawTerm]):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True, slots=True)
class Neg(RawTerm):
    arg: RawTerm


@dataclass(frozen=True, slots=True)
class Prod(RawTerm):
    parts: tuple

    def __init__(self, parts: Iterable[RawTerm]):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True, slots=True)
class Div(RawTerm):
    num: RawTerm
    den: RawTerm


@dataclass(frozen=True, slots=True)
class Pow(RawTerm):
    base: RawTerm
    exponent: int

    def __init__(self, base: RawTerm, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TermError("power exponent must be an integer")
        if exponent == 0:
            raise TermError("power with exponent 0 is rejected; simplify it away first")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


@dataclass(frozen=True, slots=True)
class Scale(RawTerm):
    factor: Fraction
    arg: RawTerm

    def __init__(self, factor: RationalLike, arg: RawTerm):
        object.__setattr__(self, "factor", rational(factor))
        object.__setattr__(self, "arg", arg)


@dataclass(frozen=True, slots=True)
class App(RawTerm):
    symbol: str
    arg: RawTerm


# ---------------------------------------------------------------------------
# Preterms and normal terms.
# ---------------------------------------------------------------------------


class Preterm:
    __slots__ = ()


class _OneAtom(Preterm):
    """The basic preterm 1.  A singleton; the greatest element of the order."""

    __slots__ = ()
    _instance: Optional["_OneAtom"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ONE"


ONE = _OneAtom()


class Atom(Preterm):
    """A named basic preterm: a variable, or an opaque function application.

    Atoms are ordered by ``index``, assigned by a TermBank in first-appearance
    order; a lower index sorts as the greater preterm.  Hashes are cached:
    these objects key every table in the engine.
    """

    __slots__ = ("index", "label", "app", "_hash")

    def __init__(self, index: int, label: str, app: Optional[tuple] = None):
        self.index = index
        self.label = label
        self.app = app  # (symbol, argument NormalTerm) for applications
        self._hash = hash((index, label, app))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Atom) and self._hash == other._hash
                and self.index == other.index and self.label == other.label
                and self.app == other.app)

    def __repr__(self) -> str:
        return f"Atom({self.index}, {self.label!r})"


class AddNode(Preterm):
    """A sum of at least two scaled summands, strictly descending, lead coeff 1."""

    __slots__ = ("children", "_hash")

    def __init__(self, children: tuple):
        # (Fraction coeff != 0, Preterm that is multiplicative or basic) pairs
        self.children = children
        self._hash = hash(("+", children))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, AddNode) and self._hash == other._hash
                and self.children == other.children)

    def __repr__(self) -> str:
        return f"AddNode({self.children!r})"


class MultNode(Preterm):
    """A product of powered bases, strictly descending; never a bare x**1."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: tuple):
        # (Preterm that is additive or basic and not ONE, int exp != 0) pairs
        self.factors = factors
        self._hash = hash(("*", factors))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, MultNode) and self._hash == other._hash
                and self.factors == other.factors)

    def __repr__(self) -> str:
        return f"MultNode({self.factors!r})"


class NormalTerm:
    """Either the zero term or ``coeff * body`` with a nonzero coefficient."""

    __slots__ = ("coeff", "body", "_hash")

    def __init__(self, coeff: Fraction, body: Preterm):
        self.coeff = coeff
        self.body = body
        self._hash = hash((coeff, body))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, NormalTerm) and self._hash == other._hash
                and self.coeff == other.coeff and self.body == other.body)

    def __repr__(self) -> str:
        return f"NormalTerm({self.coeff!r}, {self.body!r})"

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0


ZERO = NormalTerm(Fraction(0), ONE)
TERM_ONE = NormalTerm(Fraction(1), ONE)


def _norm(coeff: Fraction, body: Preterm) -> NormalTerm:
    if coeff == 0:
        return ZERO
    return NormalTerm(coeff, body)


# ---------------------------------------------------------------------------
# The order on preterms.
# ---------------------------------------------------------------------------


def _rank(p: Preterm) -> int:
    if isinstance(p, (_OneAtom, Atom)):
        return 0
    if isinstance(p, AddNode):
        return max(_rank(c) for _, c in p.children) + 1
    deepest = max(_rank(b) for b, _ in p.factors)
    return 2 if deepest == 0 else deepest + 1


def _summands(p: Preterm):
    if isinstance(p, AddNode):
        return p.children
    return ((Fraction(1), p),)


def _factor_list(p: Preterm):
    if isinstance(p, MultNode):
        return p.factors
    if p is ONE:
        return ()
    return ((p, 1),)


def _lex_merge(sa, ta, key: int) -> bool:
    # Compare value vectors over the merged, descending union of keys; each
    # entry holds its key at index ``key`` and its value at the other one.
    value = 1 - key
    i = j = 0
    while i < len(sa) and j < len(ta):
        ks, kt = sa[i][key], ta[j][key]
        if ks == kt:
            vs, vt = sa[i][value], ta[j][value]
            if vs != vt:
                return vs < vt
            i += 1
            j += 1
        elif precedes(kt, ks):  # ks is greater; t's value there is 0
            return sa[i][value] < 0
        else:
            return 0 < ta[j][value]
    if i < len(sa):
        return sa[i][value] < 0
    if j < len(ta):
        return 0 < ta[j][value]
    return False


def precedes(s: Preterm, t: Preterm) -> bool:
    """The strict total order on preterms in normal form (s sorts below t).

    Terms of lower alternation rank sort above terms of higher rank.  Within
    rank 0, the constant 1 is greatest and atoms follow by ascending index.
    Within an additive rank, coefficient vectors over the merged descending
    summand union are compared lexicographically; within a multiplicative
    rank, exponent vectors over the merged base union are.  Comparing by rank
    first keeps the order transitive, which the plain lexicographic rule is
    not once the empty product 1 is involved.
    """
    if s == t:
        return False
    rs, rt = _rank(s), _rank(t)
    if rs != rt:
        return rs > rt
    if rs == 0:
        if s is ONE:
            return False
        if t is ONE:
            return True
        return s.index > t.index
    if rs % 2 == 1:  # (coeff, summand) entries
        return _lex_merge(_summands(s), _summands(t), 1)
    return _lex_merge(_factor_list(s), _factor_list(t), 0)  # (base, exp)


def _descending(p: Preterm, q: Preterm) -> int:
    if precedes(q, p):
        return -1
    if precedes(p, q):
        return 1
    return 0


def _sort_descending(items, keyfn):
    return sorted(items, key=cmp_to_key(lambda a, b: _descending(keyfn(a), keyfn(b))))


def term_precedes(s: NormalTerm, t: NormalTerm) -> bool:
    """Extension of the order to whole terms, splitting on coefficient signs."""
    if s.is_zero:
        return (not t.is_zero) and t.coeff > 0
    if t.is_zero:
        return s.coeff < 0
    a, b = s.coeff, t.coeff
    if a < 0 < b:
        return True
    if b < 0 < a:
        return False
    if a > 0:
        return precedes(s.body, t.body) or (s.body == t.body and a < b)
    return precedes(t.body, s.body) or (s.body == t.body and a < b)


# ---------------------------------------------------------------------------
# Operations on normal terms.
# ---------------------------------------------------------------------------


def _make_sum(monomials: Iterable[tuple]) -> NormalTerm:
    """Combine (coeff, preterm) monomials into a normal term."""
    merged: dict = {}
    for coeff, pre in monomials:
        acc = merged.get(pre)
        acc = coeff if acc is None else acc + coeff
        if acc == 0:
            merged.pop(pre, None)
        else:
            merged[pre] = acc
    if not merged:
        return ZERO
    items = _sort_descending(merged.items(), lambda kv: kv[0])
    if len(items) == 1:
        pre, coeff = items[0]
        return _norm(coeff, pre)
    lead = items[0][1]
    children = tuple((coeff / lead, pre) for pre, coeff in items)
    return _norm(lead, AddNode(children))


def _make_product(factors: Iterable[tuple]) -> Preterm:
    merged: dict = {}
    for base, exp in factors:
        if base is ONE:
            continue
        acc = merged.get(base, 0) + exp
        if acc == 0:
            merged.pop(base, None)
        else:
            merged[base] = acc
    if not merged:
        return ONE
    items = _sort_descending(merged.items(), lambda kv: kv[0])
    if len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return MultNode(tuple(items))


def add_terms(s: NormalTerm, t: NormalTerm) -> NormalTerm:
    if s.is_zero:
        return t
    if t.is_zero:
        return s
    monomials = []
    for term in (s, t):
        for coeff, pre in _summands(term.body):
            monomials.append((term.coeff * coeff, pre))
    return _make_sum(monomials)


def mul_terms(s: NormalTerm, t: NormalTerm) -> NormalTerm:
    if s.is_zero or t.is_zero:
        return ZERO
    factors = list(_factor_list(s.body)) + list(_factor_list(t.body))
    return _norm(s.coeff * t.coeff, _make_product(factors))


def combine(op: str, s: NormalTerm, t: NormalTerm) -> NormalTerm:
    if op == "add":
        return add_terms(s, t)
    if op == "mul":
        return mul_terms(s, t)
    raise TermError(f"unknown combination {op!r}")


def negate(s: NormalTerm) -> NormalTerm:
    return _norm(-s.coeff, s.body)


def scale(a: RationalLike, s: NormalTerm) -> NormalTerm:
    return _norm(rational(a) * s.coeff, s.body)


def invert(s: NormalTerm) -> NormalTerm:
    if s.is_zero:
        raise TermError("inverse of zero")
    inverted = [(base, -exp) for base, exp in _factor_list(s.body)]
    return _norm(1 / s.coeff, _make_product(inverted))


def pow_int(s: NormalTerm, exponent: int) -> NormalTerm:
    if not isinstance(exponent, int) or exponent == 0:
        raise TermError("power exponent must be a nonzero integer")
    if s.is_zero:
        if exponent < 0:
            raise TermError("inverse of zero")
        return ZERO
    powered = [(base, exp * exponent) for base, exp in _factor_list(s.body)]
    return _norm(s.coeff ** exponent, _make_product(powered))


# ---------------------------------------------------------------------------
# The term bank: variable order, application naming, normalization context.
# ---------------------------------------------------------------------------


class TermBank:
    """One problem's terms: its atoms, its applications, its normal forms.

    Atoms get indices in first-appearance order, so the order, and hence
    every normal form, is deterministic for the problem whatever ran before.
    Each variable and each application of a symbol to a normal form is one
    ``Atom``, and ``normalize`` returns one object per normal form.  All of
    it is dropped with the bank; nothing is shared between problems.
    """

    def __init__(self):
        self._atoms: dict = {}
        self._terms: dict = {}
        self.apps: list = []  # (symbol, arg NormalTerm, Atom) in creation order

    def var(self, name: str) -> Atom:
        key = ("var", name)
        atom = self._atoms.get(key)
        if atom is None:
            atom = Atom(len(self._atoms), name)
            self._atoms[key] = atom
        return atom

    def app(self, symbol: str, arg: NormalTerm) -> Atom:
        key = ("app", symbol, arg)
        atom = self._atoms.get(key)
        if atom is None:
            label = f"{symbol}({render(arg)})"
            atom = Atom(len(self._atoms), label, app=(symbol, arg))
            self._atoms[key] = atom
            self.apps.append((symbol, arg, atom))
        return atom


def normalize(term: RawTerm, bank: Optional[TermBank] = None) -> NormalTerm:
    """Put a raw term into normal form.  Exact; no rounding anywhere.

    Within one bank, equal normal forms are the same object."""
    if bank is None:
        bank = TermBank()
    result = _normalize(term, bank)
    return bank._terms.setdefault(result, result)


def _normalize(term: RawTerm, bank: TermBank) -> NormalTerm:
    if isinstance(term, One):
        return TERM_ONE
    if isinstance(term, Var):
        return _norm(Fraction(1), bank.var(term.name))
    if isinstance(term, Sum):
        acc = ZERO
        for part in term.parts:
            acc = add_terms(acc, _normalize(part, bank))
        return acc
    if isinstance(term, Neg):
        return negate(_normalize(term.arg, bank))
    if isinstance(term, Prod):
        acc = TERM_ONE
        for part in term.parts:
            acc = mul_terms(acc, _normalize(part, bank))
        return acc
    if isinstance(term, Div):
        den = _normalize(term.den, bank)
        if den.is_zero:
            raise TermError("zero-denominator literal")
        return mul_terms(_normalize(term.num, bank), invert(den))
    if isinstance(term, Pow):
        return pow_int(_normalize(term.base, bank), term.exponent)
    if isinstance(term, Scale):
        return scale(term.factor, _normalize(term.arg, bank))
    if isinstance(term, App):
        return _norm(Fraction(1), bank.app(term.symbol, _normalize(term.arg, bank)))
    raise TermError(f"not a term: {term!r}")


def equal_terms(s: RawTerm, t: RawTerm, bank: Optional[TermBank] = None) -> bool:
    """Decide provable equality by comparing normal forms syntactically."""
    if bank is None:
        bank = TermBank()
    return _normalize(s, bank) == _normalize(t, bank)


# ---------------------------------------------------------------------------
# Evaluation (exact, used as the independent test oracle).
# ---------------------------------------------------------------------------

FuncTable = Mapping[str, Callable[[Fraction], Fraction]]


def evaluate(term: RawTerm, assignment: Mapping[str, RationalLike],
             funcs: Optional[FuncTable] = None) -> Fraction:
    """Evaluate a raw term exactly, with the convention x / 0 = 0."""
    if isinstance(term, One):
        return Fraction(1)
    if isinstance(term, Var):
        try:
            return rational(assignment[term.name])
        except KeyError:
            raise TermError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Sum):
        return sum((evaluate(p, assignment, funcs) for p in term.parts), Fraction(0))
    if isinstance(term, Neg):
        return -evaluate(term.arg, assignment, funcs)
    if isinstance(term, Prod):
        acc = Fraction(1)
        for p in term.parts:
            acc *= evaluate(p, assignment, funcs)
        return acc
    if isinstance(term, Div):
        den = evaluate(term.den, assignment, funcs)
        if den == 0:
            return Fraction(0)
        return evaluate(term.num, assignment, funcs) / den
    if isinstance(term, Pow):
        base = evaluate(term.base, assignment, funcs)
        if base == 0:
            return Fraction(0)
        return base ** term.exponent
    if isinstance(term, Scale):
        return term.factor * evaluate(term.arg, assignment, funcs)
    if isinstance(term, App):
        if funcs is None or term.symbol not in funcs:
            raise TermError(f"no interpretation for function {term.symbol!r}")
        return rational(funcs[term.symbol](evaluate(term.arg, assignment, funcs)))
    raise TermError(f"not a term: {term!r}")


def evaluate_normal(term: NormalTerm, assignment: Mapping[str, RationalLike],
                    funcs: Optional[FuncTable] = None) -> Fraction:
    return term.coeff * _eval_preterm(term.body, assignment, funcs)


def _eval_preterm(p: Preterm, assignment, funcs) -> Fraction:
    if p is ONE:
        return Fraction(1)
    if isinstance(p, Atom):
        if p.app is not None:
            symbol, arg = p.app
            if funcs is None or symbol not in funcs:
                raise TermError(f"no interpretation for function {symbol!r}")
            return rational(funcs[symbol](evaluate_normal(arg, assignment, funcs)))
        try:
            return rational(assignment[p.label])
        except KeyError:
            raise TermError(f"unbound variable {p.label!r}") from None
    if isinstance(p, AddNode):
        return sum((c * _eval_preterm(sub, assignment, funcs) for c, sub in p.children),
                   Fraction(0))
    acc = Fraction(1)
    for base, exp in p.factors:
        val = _eval_preterm(base, assignment, funcs)
        if val == 0:
            return Fraction(0)  # covers negative exponents via 1/0 = 0
        acc *= val ** exp
    return acc


# ---------------------------------------------------------------------------
# Rendering: a deterministic, re-parseable canonical text form.
# ---------------------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:  # beyond the interpreter's digit limit
        raise TermError("constant too large to print: more than "
                        f"{sys.get_int_max_str_digits()} digits") from None


def _render_factor_base(p: Preterm) -> str:
    text = render_preterm(p)
    if isinstance(p, AddNode):
        return f"({text})"
    return text


def render_preterm(p: Preterm) -> str:
    if p is ONE:
        return "1"
    if isinstance(p, Atom):
        return p.label
    if isinstance(p, AddNode):
        pieces = []
        for i, (coeff, sub) in enumerate(p.children):
            mag = abs(coeff)
            body = render_preterm(sub)
            text = body if mag == 1 else f"{_frac_str(mag)} * {body}"
            if i == 0:
                pieces.append(text)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + text)
        return " ".join(pieces)
    pieces = []
    for base, exp in p.factors:
        text = _render_factor_base(base)
        pieces.append(text if exp == 1 else f"{text}^{exp}")
    return " * ".join(pieces)


def render(term: NormalTerm) -> str:
    if term.is_zero:
        return "0"
    body = term.body
    if body is ONE:
        return _frac_str(term.coeff)
    inner = render_preterm(body)
    if term.coeff == 1:
        return inner
    if isinstance(body, AddNode):
        inner = f"({inner})"
    if term.coeff == -1:
        return f"-{inner}"
    return f"{_frac_str(term.coeff)} * {inner}"


# ---------------------------------------------------------------------------
# Structural validation (used by tests and debugging).
# ---------------------------------------------------------------------------


def validate_normal(term: NormalTerm) -> None:
    """Raise if a term violates any normal-form invariant."""
    if term.is_zero:
        if term is not ZERO:
            raise TermError("zero must be the canonical zero term")
        return
    if term.coeff == 0:
        raise TermError("nonzero term with zero coefficient")
    _validate_preterm(term.body)


def _validate_preterm(p: Preterm) -> None:
    if p is ONE or isinstance(p, Atom):
        return
    if isinstance(p, AddNode):
        if len(p.children) < 2:
            raise TermError("sum with fewer than two summands")
        if p.children[0][0] != 1:
            raise TermError("sum with leading coefficient != 1")
        for coeff, sub in p.children:
            if coeff == 0:
                raise TermError("zero coefficient in sum")
            if isinstance(sub, AddNode):
                raise TermError("sum directly under sum")
            _validate_preterm(sub)
        for (_, a), (_, b) in zip(p.children, p.children[1:]):
            if not precedes(b, a):
                raise TermError("sum children not strictly descending")
        return
    if isinstance(p, MultNode):
        if len(p.factors) == 1 and p.factors[0][1] == 1:
            raise TermError("product of a single base to the first power")
        for base, exp in p.factors:
            if exp == 0:
                raise TermError("zero exponent in product")
            if base is ONE:
                raise TermError("constant 1 as a product base")
            if isinstance(base, MultNode):
                raise TermError("product directly under product")
            _validate_preterm(base)
        for (a, _), (b, _) in zip(p.factors, p.factors[1:]):
            if not precedes(b, a):
                raise TermError("product bases not strictly descending")
        return
    raise TermError(f"not a preterm: {p!r}")
