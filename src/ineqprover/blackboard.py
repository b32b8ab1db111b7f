"""The shared search state and the iterative refutation loop.

Hypotheses are separated: every maximal sum or product gets a fresh name, so
additive definitions, multiplicative definitions, and a table of pairwise
comparisons carry all the information.  Each round runs sign inference, the
additive pass, the multiplicative pass, and the monotone-function pass, each
posting its strongest derivable comparisons back to the table, until a
contradiction, a fixpoint, or the round cap.  No case splits anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from . import comm, elim, linarith, monofun, mularith, terms
from .comm import (EQ, GE, GT, LE, LT, CommAtom, ResourceLimitError,
                   SignContradiction, UNIT, make_atom)
from .linarith import from_comm, lin_atom
from .monofun import AppEntry, MonoDecl
from .mularith import ROOT_DENOM_BOUND, SignEnv
from .terms import (AddNode, Atom, MultNode, NormalTerm, Preterm, RawTerm,
                    TermBank, TermError, Value)

REFUTED = "refuted"
SATURATED = "saturated"
ROUND_CAP = "round-cap-reached"
RESOURCE_LIMIT = "resource-limit"

#: Default round cap.
MAX_ROUNDS = 30

_NEGATED = {LT: GE, LE: GT, GT: LE, GE: LT}


class TraceStep(Value):
    # module: input | add | mult | mono
    __slots__ = ("round", "module", "premises", "derived", "note",
                 "comm_premises", "derived_atom")
    _defaults = ("", (), None)  # note, comm_premises, derived_atom


class Verdict:
    def __init__(self, kind: str, rounds: int, trace: tuple,
                 state: Optional["ProblemState"] = None, tasks: tuple = ()):
        # kind: refuted | saturated | round-cap-reached | resource-limit
        self.kind = kind
        self.rounds = rounds
        self.trace = trace
        self.state = state
        self.tasks = tasks  # ((label, Verdict), ...) for split goals

    @property
    def refuted(self) -> bool:
        return self.kind == REFUTED


class ProblemState:
    """The blackboard: definitions, comparison table, signs, and the trace."""

    def __init__(self, decls: Optional[Mapping[str, MonoDecl]] = None,
                 root_denom_bound: int = ROOT_DENOM_BOUND):
        self.bank = TermBank()
        self.decls: Dict[str, MonoDecl] = dict(decls or {})
        self.defs_add: Dict[Atom, tuple] = {}
        self.defs_mult: Dict[Atom, Dict[Atom, int]] = {}
        self.pairs: Dict[tuple, list] = {}
        self.signs = SignEnv()
        self.apps: List[AppEntry] = []
        self.trace: List[TraceStep] = []
        self.round = 0
        self.refuted = False
        self.root_denom_bound = root_denom_bound
        self._names: Dict[Preterm, Atom] = {}
        self._defined: Dict[Atom, Preterm] = {}
        self._fresh = 0
        self._clock = 0
        self._version: Dict[Atom, int] = {}
        self._visited: Dict[tuple, int] = {}
        self._snapshot: Optional[Snapshot] = None

    # -- naming ------------------------------------------------------------

    def _fresh_atom(self) -> Atom:
        while True:
            self._fresh += 1
            label = f"t{self._fresh}"
            if ("var", label) not in self.bank._atoms:
                return self.bank.var(label)

    def name_for(self, pre: Preterm) -> Atom:
        """Name a preterm, creating definitions for sums and products."""
        if pre is terms.ONE:
            return UNIT
        if isinstance(pre, Atom):
            return pre
        cached = self._names.get(pre)
        if cached is not None:
            return cached
        if isinstance(pre, AddNode):
            entries = tuple((c, self.name_for(sub)) for c, sub in pre.children)
            name = self._fresh_atom()
            self.defs_add[name] = entries
        elif isinstance(pre, MultNode):
            monomial: Dict[Atom, int] = {}
            for base, exp in pre.factors:
                atom = self.name_for(base)
                monomial[atom] = monomial.get(atom, 0) + exp
            name = self._fresh_atom()
            self.defs_mult[name] = monomial
        else:
            raise TermError(f"cannot name {pre!r}")
        self._names[pre] = name
        self._defined[name] = pre
        self._touch(name)
        return name

    def _sync_apps(self) -> None:
        for symbol, arg, atom in self.bank.apps[len(self.apps):]:
            if symbol not in self.decls:
                raise TermError(f"undeclared function symbol {symbol!r}")
            if arg.is_zero:
                coeff, arg_name = Fraction(0), UNIT
            else:
                coeff, arg_name = arg.coeff, self.name_for(arg.body)
            self.apps.append(AppEntry(symbol, coeff, arg_name, atom))

    def normalize(self, raw: RawTerm) -> NormalTerm:
        result = terms.normalize(raw, self.bank)
        self._sync_apps()
        return result

    # -- dirty tracking ----------------------------------------------------

    def _touch(self, name: Atom) -> None:
        self._clock += 1
        self._version[name] = self._clock

    def _dirty(self, module: str, u: Atom, v: Atom) -> bool:
        last = self._visited.get((module, u, v), -1)
        stamp = max(self._version.get(u, 0), self._version.get(v, 0))
        return stamp > last

    def _mark_visited(self, module: str, u: Atom, v: Atom) -> None:
        self._visited[(module, u, v)] = self._clock

    def snapshot(self) -> "Snapshot":
        """The table as of the current clock, built once per table version.

        Exact because every change to the table, the definitions or the
        signs advances the clock through ``_touch``.
        """
        if self._snapshot is None or self._snapshot.clock != self._clock:
            self._snapshot = Snapshot(self)
        return self._snapshot

    # -- the comparison table ----------------------------------------------

    def comm_atoms(self) -> list:
        out = []
        for key in sorted(self.pairs, key=lambda k: (k[0].index, k[1].index)):
            out.extend(self.pairs[key])
        return out

    def pair_atoms(self, u: Atom, v: Atom) -> list:
        key = (u, v) if u.index <= v.index else (v, u)
        return list(self.pairs.get(key, ()))

    def def_strings(self) -> list:
        out = []
        for name, pre in self._defined.items():
            out.append(f"def {name.label} = {terms.render_preterm(pre)}")
        return out

    def name_table(self) -> dict:
        return {name.label: terms.render_preterm(pre)
                for name, pre in self._defined.items()}

    def _record(self, module: str, premises: Sequence[str], derived: str,
                note: str, comm_premises: Sequence[CommAtom] = (),
                derived_atom: Optional[CommAtom] = None) -> None:
        self.trace.append(TraceStep(self.round, module, tuple(premises),
                                    derived, note, tuple(comm_premises),
                                    derived_atom))

    def _refute_now(self, module: str, premises: Sequence[str], note: str,
                    comm_premises: Sequence[CommAtom] = ()) -> None:
        self._record(module, premises, "false", note, comm_premises, None)
        self.refuted = True

    def assert_comm_atom(self, atom, module: str,
                         premises: Sequence[str] = (),
                         comm_premises: Sequence[CommAtom] = (),
                         note: str = "") -> bool:
        """Insert a derived comparison unless the table already implies it.

        Subsumed residents are dropped, the step is traced, and a pairwise
        inconsistency (a constant contradiction once signs are accounted for)
        flips the state to refuted.
        """
        if self.refuted:
            return False
        if atom is True:
            return False
        if atom is False:
            self._refute_now(module, premises, note or "contradictory comparison",
                             comm_premises)
            return True
        key = comm.pair_key(atom)
        residents = self.pairs.get(key, [])
        # The constant bounds on the pair's names complete its context.
        bounds = [b for name in key if name is not UNIT and (UNIT, name) != key
                  for b in self.pairs.get((UNIT, name), ())]
        context = [from_comm(a) for a in residents + bounds]
        if linarith.implies(context, atom):
            return False
        self._record(module, premises, str(atom), note, comm_premises, atom)
        if linarith.is_infeasible(context + [from_comm(atom)]):
            conflict = residents + bounds + [atom]
            self._refute_now(module, [str(a) for a in conflict],
                             "comparison table inconsistent", tuple(conflict))
            self.pairs[key] = residents + [atom]
        else:
            # Residents the rest of the pair's context now implies go.
            self.pairs[key] = linarith.prune_entailed(
                residents + [atom], bounds, keep=atom)
        self._touch(atom.lhs)
        self._touch(atom.rhs)
        return True


class Snapshot:
    """What the passes read off one version of the blackboard: the table's
    atoms, the premise strings every derived step cites, and, built on first
    use, the linear system, the additive pass's elimination cache holding
    it, and the positive cone.  It holds the definitions and signs it reads,
    not the state, so a state is freed as soon as its verdict is dropped."""

    def __init__(self, state: ProblemState):
        self.clock = state._clock
        self.defs_add = state.defs_add
        self.defs_mult = state.defs_mult
        self.signs = state.signs
        self.atoms = tuple(state.comm_atoms())
        self.premises = tuple(state.def_strings()) + tuple(
            str(a) for a in self.atoms)

    @cached_property
    def system(self) -> tuple:
        atoms = []
        for name, entries in self.defs_add.items():
            coeffs: Dict[Atom, Fraction] = {name: Fraction(1)}
            for c, n in entries:
                coeffs[n] = coeffs.get(n, Fraction(0)) - c
            atoms.append(lin_atom(coeffs, EQ))
        atoms.extend(from_comm(a) for a in self.atoms)
        return elim.canonicalize(atoms)

    @cached_property
    def cache(self) -> elim.PathCache:
        return elim.PathCache(self.system)

    @cached_property
    def cone(self) -> list:
        """Raises SignContradiction, uncached, when the cone is absurd."""
        return mularith.to_positive_cone(self.defs_mult, self.atoms,
                                         self.signs)


# ---------------------------------------------------------------------------
# Separation of input comparisons.
# ---------------------------------------------------------------------------


def separate_terms(hypotheses: Sequence[tuple],
                   decls: Optional[Mapping[str, MonoDecl]] = None,
                   root_denom_bound: int = ROOT_DENOM_BOUND) -> ProblemState:
    """Build the blackboard from raw comparisons ``(lhs, rel, rhs)``.

    Every maximal sum or product is normalized and named; each
    comparison becomes a scaled pairwise atom between names; an equality
    becomes the pair of opposite inequalities.
    """
    state = ProblemState(decls, root_denom_bound)
    for lhs, rel, rhs in hypotheses:
        add_hypothesis(state, lhs, rel, rhs)
    return state


def add_hypothesis(state: ProblemState, lhs: RawTerm, rel: str,
                   rhs: RawTerm) -> None:
    if rel == "!=":
        raise TermError("disequalities are not supported (no case splits)")
    if rel not in comm.RELS:
        raise TermError(f"unknown relation {rel!r}")
    left = state.normalize(lhs)
    right = state.normalize(rhs)
    rels = (LE, GE) if rel == EQ else (rel,)
    for r in rels:
        atom = _comparison_atom(state, left, r, right)
        text = f"{terms.render(left)} {r} {terms.render(right)}"
        state.assert_comm_atom(atom, "input", (), (), note=text)


def _comparison_atom(state: ProblemState, left: NormalTerm, rel: str,
                     right: NormalTerm):
    if left.is_zero and right.is_zero:
        return comm.holds(Fraction(0), rel, Fraction(0))
    if left.is_zero:
        name = state.name_for(right.body)
        flipped = comm.mirror(rel) if right.coeff > 0 else rel
        return make_atom(name, flipped, Fraction(0), UNIT)
    if right.is_zero:
        name = state.name_for(left.body)
        kept = rel if left.coeff > 0 else comm.mirror(rel)
        return make_atom(name, kept, Fraction(0), UNIT)
    ln = state.name_for(left.body)
    rn = state.name_for(right.body)
    effective = rel if left.coeff > 0 else comm.mirror(rel)
    return make_atom(ln, effective, right.coeff / left.coeff, rn)


# ---------------------------------------------------------------------------
# The round loop.
# ---------------------------------------------------------------------------


def _live_names(snap: Snapshot, defined: Iterable[Atom]) -> list:
    """The defined names and every name in the table, sorted by index."""
    seen = set(defined)
    for atom in snap.atoms:
        seen.add(atom.lhs)
        seen.add(atom.rhs)
    return sorted(seen, key=lambda a: a.index)


def _sign_pass(state: ProblemState) -> bool:
    changed = False
    snap = state.snapshot()
    atoms, premises = snap.atoms, snap.premises
    try:
        new_env = mularith.infer_signs(state.defs_mult, atoms, state.signs)
    except SignContradiction as exc:
        state._refute_now("mult", premises, f"sign inference: {exc}", atoms)
        return True
    for name, signs in new_env.items():
        if signs != state.signs.get(name):
            state._touch(name)
            fact = mularith.sign_fact_atom(name, signs)
            if fact is not None:
                changed |= state.assert_comm_atom(
                    fact, "mult", premises, atoms,
                    note=f"sign of {name.label} is {mularith.SIGN_NAMES[signs]}")
    state.signs = new_env
    return changed


def _add_pass(state: ProblemState, force_all: bool) -> bool:
    changed = False
    defined = [UNIT, *state.defs_add]
    for entries in state.defs_add.values():
        defined.extend(n for _, n in entries)
    for u, v in combinations(_live_names(state.snapshot(), defined), 2):
        if state.refuted:
            return True
        if not force_all and not state._dirty("add", u, v):
            continue
        snap = state.snapshot()
        derived = linarith.project_to_pair(snap.cache, u, v)
        state._mark_visited("add", u, v)
        for atom in derived:
            changed |= state.assert_comm_atom(atom, "add", snap.premises,
                                              snap.atoms)
    return changed


def _mult_pass(state: ProblemState, force_all: bool) -> bool:
    changed = False
    defined = [*state.defs_mult]
    for monomial in state.defs_mult.values():
        defined.extend(monomial)
    names = [n for n in _live_names(state.snapshot(), defined)
             if n is not UNIT and state.signs.in_cone(n)]
    for u, v in [*combinations(names, 2), *((n, UNIT) for n in names)]:
        if state.refuted:
            return True
        if not force_all and not state._dirty("mult", u, v):
            continue
        snap = state.snapshot()
        try:
            cone = snap.cone
        except SignContradiction as exc:
            state._refute_now("mult", snap.premises, f"positive cone: {exc}",
                              snap.atoms)
            return True
        approx: list = []
        derived = mularith.project_to_ratio(
            cone, u, v, state.signs,
            max_den=state.root_denom_bound, approx_sink=approx)
        state._mark_visited("mult", u, v)
        for atom in derived:
            note = "root bound approximated" if atom in approx else ""
            changed |= state.assert_comm_atom(atom, "mult", snap.premises,
                                              snap.atoms, note=note)
    return changed


def _mono_pass(state: ProblemState) -> bool:
    if not state.apps or not state.decls:
        return False
    changed = False
    facts = monofun.derive_mono_facts(state.decls, state.apps,
                                      state.snapshot().atoms)
    for atom, premise_atoms, note in facts:
        if state.refuted:
            return True
        changed |= state.assert_comm_atom(atom, "mono",
                                          [str(a) for a in premise_atoms],
                                          premise_atoms, note=note)
    return changed


def run_round(state: ProblemState, force_all: bool = False) -> bool:
    """One full round: signs, additive pass, multiplicative pass, monotone
    pass.  Returns whether anything changed (including a refutation)."""
    if state.refuted:
        return False
    state.round += 1
    changed = _sign_pass(state)
    if not state.refuted:
        changed |= _add_pass(state, force_all)
    if not state.refuted:
        changed |= _mult_pass(state, force_all)
    if not state.refuted:
        changed |= _mono_pass(state)
    return changed or state.refuted


def refute(state: ProblemState, cap: int = MAX_ROUNDS) -> Verdict:
    """Iterate rounds until contradiction, fixpoint, or the round cap.

    A fixpoint seen through the dirty-pair filter is confirmed by one full
    sweep before the saturated verdict is returned, so "saturated" always
    means a genuine fixpoint.
    """
    try:
        if state.refuted:
            return _verdict_for(state, REFUTED)
        while state.round < cap:
            changed = run_round(state)
            if state.refuted:
                return _verdict_for(state, REFUTED)
            if not changed:
                if state.round >= cap:
                    break
                confirmed = run_round(state, force_all=True)
                if state.refuted:
                    return _verdict_for(state, REFUTED)
                if not confirmed:
                    return _verdict_for(state, SATURATED)
        return _verdict_for(state, ROUND_CAP)
    except ResourceLimitError:
        return _verdict_for(state, RESOURCE_LIMIT)


def _verdict_for(state: ProblemState, kind: str) -> Verdict:
    return Verdict(kind, state.round, tuple(state.trace), state)


def refute_hypotheses(hypotheses: Sequence[tuple],
                      decls: Optional[Mapping[str, MonoDecl]] = None,
                      cap: int = MAX_ROUNDS,
                      root_denom_bound: int = ROOT_DENOM_BOUND) -> Verdict:
    state = separate_terms(hypotheses, decls, root_denom_bound)
    return refute(state, cap)


def prove_sequent(hypotheses: Sequence[tuple], goal: tuple,
                  decls: Optional[Mapping[str, MonoDecl]] = None,
                  cap: int = MAX_ROUNDS,
                  root_denom_bound: int = ROOT_DENOM_BOUND) -> Verdict:
    """Negate the goal and refute.  An equality goal splits into two
    refutation tasks, and proving requires both to succeed."""
    lhs, rel, rhs = goal
    if rel == "!=":
        raise TermError("disequalities are not supported (no case splits)")
    if rel == EQ:
        tasks = [(f"goal false if {GT}", GT), (f"goal false if {LT}", LT)]
    else:
        tasks = [("negated goal", _NEGATED[rel])]
    results = []
    for label, negated in tasks:
        hyps = list(hypotheses) + [(lhs, negated, rhs)]
        state = separate_terms(hyps, decls, root_denom_bound)
        results.append((label, refute(state, cap)))
    if len(results) == 1:
        return results[0][1]
    kinds = [v.kind for _, v in results]
    rounds = max(v.rounds for _, v in results)
    trace = tuple(step for _, v in results for step in v.trace)
    if all(k == REFUTED for k in kinds):
        kind = REFUTED
    elif RESOURCE_LIMIT in kinds:
        kind = RESOURCE_LIMIT
    elif ROUND_CAP in kinds:
        kind = ROUND_CAP
    else:
        kind = SATURATED
    return Verdict(kind, rounds, trace, None, tuple(results))
