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

A start system is read once into its names, by position in index order, and
a start state.  A state is the system's rows, deduplicated and unsorted,
plus the number of rows each name occurs in, as a tuple by position.  One
step eliminates one name: it splits the rows on the name, combines them, and
keeps a new row only if no row already there is as strong in its direction.
Every state after the first step holds one inequality per direction, so a
step settles its new rows against the rows of their own directions and
adjusts the counts from the rows it removed and added.  The first step
settles every row, so a start system's parallel rows both stay until a name
is eliminated.  Settling the start before its first step would not give the
same rows: a weaker parallel row can still yield its own false constant,
which no other row settles away.  Rows are sorted only when a projection is
read back.

The next name to eliminate occurs in the fewest rows, ties going to the
lowest index.  The reserved unit name is a constant of both groups and is
never chosen.  A system past ``ATOM_CAP`` atoms raises ResourceLimitError.
A ``PathCache``, owned by the caller, holds one system and keeps its
states by elimination path, so projections onto different names share the
steps their paths have in common; nothing is cached in the module.  ``is_infeasible`` decides any number of names; the engine's own
questions, over at most two, are decided in the plane by ``linarith``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from .comm import EQ, LE, LT, ResourceLimitError, UNIT

#: Abort threshold for one system during elimination.
ATOM_CAP = 5000

_sort_key = attrgetter("sort_key")
_index = attrgetter("index")


def canonicalize(atoms: Iterable) -> tuple:
    """Deduplicate, drop trivially true atoms, sort deterministically."""
    kept = {a: None for a in atoms if a.constant_truth() is not True}
    return tuple(sorted(kept, key=_sort_key))


def read(state: tuple) -> tuple:
    """A state's rows in canonical order."""
    return tuple(sorted(state[0], key=_sort_key))


def has_false_constant(system: Iterable) -> bool:
    return any(a.constant_truth() is False for a in system)


class PathCache:
    """The elimination states of one system, keyed by path: the positions of
    the names eliminated so far, in order.  The system is read once, into its
    names by position and its start state."""

    __slots__ = ("system", "names", "positions", "start", "states")

    def __init__(self, system: Iterable):
        self.system = tuple(system)
        rows = tuple({a: None for a in self.system
                      if a.constant_truth() is not True})
        self.names = tuple(sorted({name for a in rows for name, _ in a.coeffs},
                                  key=_index))
        self.positions = {name.index: i for i, name in enumerate(self.names)}
        self.start = (rows, self._counts(rows))
        self.states: dict = {}

    def skip(self, keep: Iterable) -> set:
        """Positions never chosen: the unit's and those of ``keep``."""
        positions = self.positions
        return {positions[name.index] for name in (UNIT, *keep)
                if name.index in positions}

    def reduce(self, keep: Iterable, store: bool = True) -> tuple:
        """The state with every name but ``keep`` and the unit eliminated,
        fewest occurrences first.  With ``store``, every step but the last is
        kept for later reductions."""
        skip = self.skip(keep)
        path, state = (), self.start
        target = _fewest(state[1], skip)
        while target is not None:
            path += (target,)
            known = self.states.get(path)
            state = known or self.step(state, self.names[target])
            target = _fewest(state[1], skip)
            if known is None and store and target is not None:
                self.states[path] = state
        return state

    def step(self, state: tuple, name) -> tuple:
        """The state with ``name`` eliminated.  The start's rows are not
        settled, so the first step settles them with its new rows and counts
        afresh; a later step settles only its new rows."""
        rest, used, new = _combine(state[0], name)
        if state is self.start:
            rows = _settled(rest + new)
            return rows, self._counts(rows)
        kept, beaten, added = _settle(rest, new)
        counts = list(state[1])
        _count(used + beaten, counts, self.positions, -1)
        _count(added, counts, self.positions, 1)
        return _capped(kept + added), tuple(counts)

    def _counts(self, rows: Sequence) -> tuple:
        counts = [0] * len(self.names)
        _count(rows, counts, self.positions, 1)
        return tuple(counts)


def _count(rows: Iterable, counts: list, positions: dict, sign: int) -> None:
    """Add ``sign`` to ``counts`` for every name occurrence in ``rows``."""
    for a in rows:
        for name, _ in a.coeffs:
            counts[positions[name.index]] += sign


def _fewest(counts: tuple, skip: set):
    """The position of the name to eliminate next, or None."""
    best = None
    for i, n in enumerate(counts):
        if n and (best is None or n < least) and i not in skip:
            best, least = i, n
    return best


def _combine(rows: Sequence, name) -> tuple:
    """``(rest, used, new)``: the rows without ``name``, those with it, and
    the rows combining those in which ``name`` cancels.

    An equality mentioning the name, the one with the least sort key, is
    substituted into every other row that does; otherwise every lower bound
    is combined with every upper bound, strict when either parent is.
    """
    rest, equalities, lowers, uppers = [], [], [], []
    for a in rows:
        c = a.coeff_of(name)
        if c == 0:
            rest.append(a)
        elif a.rel == EQ:
            equalities.append((a, c))
        elif c > 0:
            uppers.append((a, c))
        else:
            lowers.append((a, c))
    used = equalities + lowers + uppers
    if equalities:
        eq, p = (equalities[0] if len(equalities) == 1
                 else min(equalities, key=lambda e: e[0].sort_key))
        new = [a.cancel(c, eq, p, a.rel) for a, c in used if a is not eq]
    else:
        new = [up.cancel(cu, low, cl, LT if LT in (low.rel, up.rel) else LE)
               for low, cl in lowers for up, cu in uppers]
    return rest, [a for a, _ in used], new


def _settled(rows: Sequence) -> tuple:
    """The strongest inequality per direction of ``rows``, and each of
    their equalities and false constants once."""
    return _capped(_settle((), rows)[2])


def _capped(rows: list) -> tuple:
    if len(rows) > ATOM_CAP:
        raise ResourceLimitError(f"elimination system exceeded {ATOM_CAP} atoms")
    return tuple(rows)


def _settle(rest: Sequence, new: Sequence) -> tuple:
    """``(kept, beaten, added)``: the rows of ``rest`` that stay and those a
    new row beats, and the new rows that are the strongest inequality in
    their direction or an equality or false constant not yet present.
    ``rest`` holds at most one inequality per direction, and a tie means
    equal rows, so the row already there stays."""
    best: dict = {}
    plain: dict = {}
    for a in new:
        key = a.strength()
        if key is None:
            if a.constant_truth() is not True:
                plain[a] = None
            continue
        direction, strength = key
        prev = best.get(direction)
        if prev is None or strength > prev[0]:
            best[direction] = (strength, a)
    if not (best or plain):
        return list(rest), [], []
    kept, beaten = [], []
    for a in rest:
        key = a.strength()
        if key is None:
            if plain:
                plain.pop(a, None)
        elif best:
            prev = best.get(key[0])
            if prev is not None:
                if key[1] < prev[0]:
                    beaten.append(a)
                    continue
                del best[key[0]]
        kept.append(a)
    return kept, beaten, [*plain, *(a for _, a in best.values())]


def eliminate(system: Sequence, name) -> tuple:
    """Exact projection of the system onto the names other than ``name``,
    in canonical order.  Every row of ``system`` takes part, a trivially
    true one included."""
    rest, _, new = _combine(tuple(dict.fromkeys(system)), name)
    return tuple(sorted(_settled(rest + new), key=_sort_key))


def eliminate_all_except(system: Iterable, keep: Iterable) -> tuple:
    """Project onto ``keep`` (plus the unit), in canonical order."""
    return read(PathCache(system).reduce(keep, store=False))


def is_infeasible(system: Sequence) -> bool:
    """Exact: true iff the system, its rows in any order and repeated or not,
    has no real solution."""
    return has_false_constant(PathCache(system).reduce((), store=False)[0])
