"""Per-layer tracing for one worker process, installed from outside the engine.

Public functions are replaced by timing wrappers on the module object where
their caller looks them up: ``cli`` imports ``parse_problem`` and
``emit_report`` by name, ``blackboard`` calls ``linarith.project_to_pair``
through the module, and ``linarith`` calls ``implies``/``is_infeasible``/
``fm_eliminate`` through its own globals, so wrapping module attributes
catches every call.  A function that no longer exists is skipped and its
metrics are simply absent.

A span's self time is its duration minus the time of the named spans it
directly contains.  ``implies``/``is_infeasible`` only open a span when called
directly under ``project_to_pair`` (pruning) or ``assert_comm_atom``
(entailment); elsewhere, and when nested in each other, they pass through.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_LIN_PARENT = {"linarith.project": "linarith.prune",
               "blackboard.assert": "linarith.entail"}


def _coeff_bits(atom) -> int:
    coeff = getattr(atom, "coeff", None)
    if coeff is None:
        return 0
    return max(abs(coeff.numerator).bit_length(), coeff.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.stack: list = []  # [name, time covered by child spans]
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.assert_calls: Counter = Counter()
        self.assert_accepted: Counter = Counter()
        self.peaks: dict = {}
        self.installed: list = []

    def _peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, -1):
            self.peaks[name] = value

    def _timed(self, name: str, fn, *args, **kwargs):
        stack = self.stack
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[name] += elapsed - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += elapsed

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, fn, *args, **kwargs)
        return wrapper

    def linear(self, fn):
        """implies/is_infeasible: classified by the span that called them."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _LIN_PARENT.get(self.stack[-1][0]) if self.stack else None
            if name is None:
                return fn(*args, **kwargs)
            return self._timed(name, fn, *args, **kwargs)
        return wrapper

    def rows(self, fn):
        """Elimination results: record the largest system, no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._peak("linarith.peak_rows", len(result))
            return result
        return wrapper

    def ratio(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._timed("mularith.ratio", fn, *args, **kwargs)
            for atom in result:
                self._peak("mularith.peak_bound_bits", _coeff_bits(atom))
            return result
        return wrapper

    def assertion(self, fn):
        @functools.wraps(fn)
        def wrapper(state, atom, module, *args, **kwargs):
            self._peak("blackboard.peak_coeff_bits", _coeff_bits(atom))
            accepted = self._timed("blackboard.assert", fn, state, atom,
                                   module, *args, **kwargs)
            self.assert_calls[module] += 1
            if accepted:
                self.assert_accepted[module] += 1
            return accepted
        return wrapper

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "assert_calls": dict(self.assert_calls),
                "assert_accepted": dict(self.assert_accepted),
                "peaks": dict(self.peaks), "installed": list(self.installed)}


def install() -> Tracer:
    """Wrap the engine's layer boundaries; returns the tracer that records."""
    from ineqprover import blackboard, cli, linarith, monofun, mularith, terms

    tracer = Tracer()
    span, linear, rows = tracer.span, tracer.linear, tracer.rows
    # (owner, attribute, wrapper, span or metric names the wrapper feeds)
    plan = [
        (cli, "parse_problem", span, ("parsing.parse",)),
        (cli, "emit_report", span, ("report.emit",)),
        (blackboard, "separate_terms", span, ("blackboard.separate",)),
        (blackboard, "run_round", span, ("blackboard.round",)),
        (blackboard.ProblemState, "assert_comm_atom", tracer.assertion,
         ("blackboard.assert", "blackboard.peak_coeff_bits")),
        (terms, "normalize", span, ("terms.normalize",)),
        (linarith, "project_to_pair", span, ("linarith.project",)),
        (linarith, "implies", linear, ("linarith.prune", "linarith.entail")),
        (linarith, "is_infeasible", linear,
         ("linarith.prune", "linarith.entail")),
        (linarith, "fm_eliminate", rows, ("linarith.peak_rows",)),
        (linarith, "eliminate_all_except", rows, ("linarith.peak_rows",)),
        (mularith, "infer_signs", span, ("mularith.signs",)),
        (mularith, "to_positive_cone", span, ("mularith.cone",)),
        (mularith, "project_to_ratio", tracer.ratio,
         ("mularith.ratio", "mularith.peak_bound_bits")),
        (mularith, "rational_root_bound", span, ("mularith.root",)),
        (monofun, "derive_mono_facts", span, ("monofun.mono",)),
    ]
    for owner, attr, wrap, names in plan:
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        setattr(owner, attr, wrap(names[0], fn) if wrap is span else wrap(fn))
        tracer.installed.extend(n for n in names if n not in tracer.installed)
    return tracer
