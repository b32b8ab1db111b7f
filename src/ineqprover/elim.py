"""Fourier-Motzkin elimination, shared by the additive and multiplicative modules.

Logarithms carry multiplication on positives to addition, so projecting the
positive cone is the same algorithm as projecting a linear system.  Atoms of
either kind read ``sum(coeff * name) REL bound-part`` with REL one of
``< <= =`` and supply the parts that differ between the two groups:

- ``coeffs``: ``(name, coefficient)`` pairs; ``rel``; ``sort_key``;
- ``constant_truth()``: the truth value when no name occurs, else None;
- ``coeff_of(name)``;
- ``cancel(p, other, q, rel)``: a positive combination of this atom (in
  which the name has coefficient ``p``) and ``other`` (coefficient ``q``)
  in which the name cancels;
- ``strength()``: ``(direction, strength)`` for an inequality with names,
  where a larger strength is a stronger bound in that direction, or None.

The reserved unit name is a constant of both groups and is never chosen for
elimination.  A system past ``ATOM_CAP`` atoms raises ResourceLimitError.
``eliminate`` and ``eliminate_all_except`` take an optional ``memo`` dict
owned by the caller, keyed by ``(system, name)``; nothing is cached in the
module.  ``is_infeasible`` decides any number of names; the engine's own
questions, over at most two, are decided in the plane by ``linarith``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .comm import EQ, LE, LT, ResourceLimitError, UNIT

#: Abort threshold for one system during elimination.
ATOM_CAP = 5000

_sort_key = attrgetter("sort_key")


def canonicalize(atoms: Iterable) -> tuple:
    """Deduplicate, drop trivially true atoms, sort deterministically."""
    kept = {a: None for a in atoms if a.constant_truth() is not True}
    return tuple(sorted(kept, key=_sort_key))


def has_false_constant(system: Iterable) -> bool:
    return any(a.constant_truth() is False for a in system)


def drop_weaker(atoms: Iterable) -> tuple:
    """Keep only the strongest inequality per direction; equalities and
    constant atoms pass through.  Raises ResourceLimitError past ATOM_CAP."""
    best: dict = {}
    kept = []
    for a in atoms:
        key = a.strength()
        if key is None:
            kept.append(a)
            continue
        direction, strength = key
        prev = best.get(direction)
        if prev is None or strength > prev[0]:
            best[direction] = (strength, a)
    system = canonicalize(kept + [a for _, a in best.values()])
    if len(system) > ATOM_CAP:
        raise ResourceLimitError(f"elimination system exceeded {ATOM_CAP} atoms")
    return system


def eliminate(system: Sequence, name, memo: Optional[dict] = None) -> tuple:
    """Exact projection of the system onto the names other than ``name``.

    An equality mentioning the name is substituted into every other atom that
    does; otherwise every lower bound is combined with every upper bound, and
    a combination is strict when either parent is.  With a ``memo`` dict,
    owned by the caller, elimination chains that share a prefix (as the
    all-pairs sweep does) reuse each other's work.
    """
    if memo is None:
        return _eliminate(system, name)
    key = (tuple(system), name)
    done = memo.get(key)
    if done is None:
        done = memo[key] = _eliminate(key[0], name)
    return done


def _eliminate(system: Sequence, name) -> tuple:
    rest, equalities, lowers, uppers = [], [], [], []
    for a in system:
        c = a.coeff_of(name)
        if c == 0:
            rest.append(a)
        elif a.rel == EQ:
            equalities.append((a, c))
        elif c > 0:
            uppers.append((a, c))
        else:
            lowers.append((a, c))
    if equalities:
        eq, p = equalities[0]
        rest += [a.cancel(c, eq, p, a.rel)
                 for a, c in equalities[1:] + lowers + uppers]
    else:
        rest += [up.cancel(cu, low, cl,
                           LT if LT in (low.rel, up.rel) else LE)
                 for low, cl in lowers for up, cu in uppers]
    return drop_weaker(rest)


def _fewest_occurring(system: Sequence, keep):
    """The name to eliminate next: fewest occurrences, then lowest index."""
    counts: dict = {}
    for a in system:
        for name, _ in a.coeffs:
            if name not in keep and name is not UNIT:
                counts[name] = counts.get(name, 0) + 1
    return min(counts, key=lambda n: (counts[n], n.index), default=None)


def eliminate_all_except(system: Iterable, keep: Iterable,
                         memo: Optional[dict] = None) -> tuple:
    """Project onto ``keep`` (plus the unit), fewest-occurrence order first;
    ``memo`` is passed to every elimination."""
    keep = set(keep)
    current = canonicalize(system)
    while True:
        target = _fewest_occurring(current, keep)
        if target is None:
            return current
        current = eliminate(current, target, memo)


def is_infeasible(system: Sequence) -> bool:
    """Exact: true iff the system, its rows in any order and repeated or not,
    has no real solution."""
    return has_false_constant(eliminate_all_except(system, ()))
