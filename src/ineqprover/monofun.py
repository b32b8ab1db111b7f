"""Comparisons contributed by declared strictly monotone unary functions.

A declaration fixes a direction (strictly increasing or decreasing) and an
optional range sign.  For named applications of the same symbol whose
arguments share a scalar factor, an order between the argument bodies
transfers to an order between the application names, and back.  Only
coefficient-1 comparisons between the argument bodies are used: a fact about
``a*x`` versus ``y`` says nothing about ``f(a*x)`` versus ``f(y)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .comm import GE, GT, CommAtom, UNIT, make_atom, mirror
from .terms import Atom, Value


class MonoDecl(Value):
    __slots__ = ("symbol", "increasing", "range_sign")
    _defaults = (None,)  # range_sign: "pos" | "nonneg" | None

    def describe(self) -> str:
        direction = "increasing" if self.increasing else "decreasing"
        suffix = {"pos": " positive", "nonneg": " nonnegative"}.get(self.range_sign, "")
        return f"{self.symbol} {direction}{suffix}"


class AppEntry(Value):
    """A named application: app_name = symbol(coeff * arg_name)."""

    __slots__ = ("symbol", "coeff", "arg_name", "app_name")


def _arg_comparisons(comm_atoms: Sequence[CommAtom], a: Atom, b: Atom):
    """Coefficient-1 comparisons between two names, as (low, rel, high)."""
    for atom in comm_atoms:
        if atom.coeff != 1:
            continue
        if atom.lhs is a and atom.rhs is b:
            yield atom, a, atom.rel, b
        elif atom.lhs is b and atom.rhs is a:
            yield atom, b, atom.rel, a


def derive_mono_facts(decls: Mapping[str, MonoDecl],
                      apps: Sequence[AppEntry],
                      comm_atoms: Iterable[CommAtom]) -> list:
    """All transferable facts, as (derived atom, premise atoms, note) triples."""
    atoms = list(comm_atoms)
    out = []
    seen = set()

    def emit(derived, premises, note):
        if isinstance(derived, bool) or derived in seen:
            return
        seen.add(derived)
        out.append((derived, tuple(premises), note))

    for entry in apps:
        decl = decls.get(entry.symbol)
        if decl is None or decl.range_sign is None:
            continue
        rel = GT if decl.range_sign == "pos" else GE
        emit(make_atom(entry.app_name, rel, Fraction(0), UNIT), (),
             f"range of {decl.describe()}")

    by_symbol: dict = {}
    for entry in apps:
        by_symbol.setdefault(entry.symbol, []).append(entry)
    for symbol, entries in by_symbol.items():
        decl = decls.get(symbol)
        if decl is None:
            continue
        for i, e1 in enumerate(entries):
            for e2 in entries[i + 1:]:
                if e1.coeff != e2.coeff:
                    continue
                body_to_arg = e1.coeff > 0  # body order equals argument order
                # forward: argument order transfers to application order
                for atom, low, rel, high in _arg_comparisons(
                        atoms, e1.arg_name, e2.arg_name):
                    arg_rel = rel if body_to_arg else mirror(rel)
                    app_rel = arg_rel if decl.increasing else mirror(arg_rel)
                    low_app = e1 if low is e1.arg_name else e2
                    high_app = e2 if low_app is e1 else e1
                    emit(make_atom(low_app.app_name, app_rel, Fraction(1),
                                   high_app.app_name),
                         (atom,), f"{decl.describe()} applied to {atom}")
                # reverse: application order narrows the arguments
                for atom, low, rel, high in _arg_comparisons(
                        atoms, e1.app_name, e2.app_name):
                    app_rel = rel if decl.increasing else mirror(rel)
                    body_rel = app_rel if body_to_arg else mirror(app_rel)
                    low_arg = e1 if low is e1.app_name else e2
                    high_arg = e2 if low_arg is e1 else e1
                    emit(make_atom(low_arg.arg_name, body_rel, Fraction(1),
                                   high_arg.arg_name),
                         (atom,), f"{decl.describe()} reflected from {atom}")
    return out
