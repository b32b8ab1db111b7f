"""Machine-readable result reports.

The JSON report is byte-deterministic for a fixed input and flag set: field
order is fixed, the trace is emitted in derivation order, and the name table
follows naming order.
"""

from __future__ import annotations

import json

from .blackboard import Verdict


def _tasks_of(verdict: Verdict):
    if verdict.tasks:
        return list(verdict.tasks)
    return [("", verdict)]


def report_data(verdict: Verdict) -> dict:
    trace = []
    name_table: dict = {}
    atoms_derived = 0
    for label, task in _tasks_of(verdict):
        prefix = f"[{label}] " if label else ""
        for step in task.trace:
            trace.append({
                "round": step.round,
                "module": step.module,
                "premises": list(step.premises),
                "derived": step.derived,
                "note": prefix + step.note if prefix else step.note,
            })
            if step.module != "input" and step.derived_atom is not None:
                atoms_derived += 1
        if task.state is not None:
            for key, value in task.state.name_table().items():
                name_table.setdefault(key, value)
    return {
        "verdict": verdict.kind,
        "rounds": verdict.rounds,
        "atoms_derived": atoms_derived,
        "trace": trace,
        "name_table": name_table,
    }


def emit_report(verdict: Verdict) -> str:
    return json.dumps(report_data(verdict), indent=2, sort_keys=False)
