"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

from ineqprover import blackboard as B
from ineqprover import comm, report, terms as T
from ineqprover.comm import EQ, GE, GT, LE, LT
from ineqprover.parsing import parse_expression, parse_problem
from ineqprover.terms import _rank  # structural checks on the generated corpus

import oracles
from test_linarith import run_maximality_check, run_oracle_agreement

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

_NEGATED = {LT: GE, LE: GT, GT: LE, GE: LT}


def _report(num: int, text: str, passed: bool) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {text}")
    assert passed, f"criterion {num}: {text}"


def _load(name: str):
    return parse_problem((PROBLEMS / name).read_text())


def _run_prove(problem, cap=30):
    t0 = time.perf_counter()
    verdict = B.prove_sequent(problem.hypotheses, problem.goal,
                              problem.declarations, cap=cap)
    return verdict, time.perf_counter() - t0


def family(r):
    x, u, one = T.Var("x"), T.Var("u"), T.One()
    return [
        (T.Scale(0, one), LE, x),
        (x, LE, T.Scale(r, one)),
        (u, EQ, x ** 2),
        (u, LT, 2 * x - 1),
    ]


def test_criterion_1_first_motivating_inference():
    verdict, elapsed = _run_prove(_load("motivating1.prob"))
    ok = verdict.kind == B.REFUTED and verdict.rounds <= 10 and elapsed < 1.0
    _report(1, f"power-quotient inference proved "
               f"(rounds={verdict.rounds}, {elapsed:.2f}s)", ok)


def test_criterion_2_monotone_function_inference():
    verdict, elapsed = _run_prove(_load("motivating2.prob"))
    ok = verdict.kind == B.REFUTED and verdict.rounds <= 10 and elapsed < 1.0
    _report(2, f"monotone-function inference proved "
               f"(rounds={verdict.rounds}, {elapsed:.2f}s)", ok)


def test_criterion_3_prime_number_theorem_bound():
    verdict, elapsed = _run_prove(_load("pnt.prob"))
    ok = verdict.kind == B.REFUTED and verdict.rounds <= 6 and elapsed < 1.0
    _report(3, f"PNT bound proved (rounds={verdict.rounds}, {elapsed:.2f}s)", ok)


def test_criterion_4_square_bound_is_out_of_reach():
    verdict, elapsed = _run_prove(_load("square.prob"), cap=30)
    ok = verdict.kind in (B.SATURATED, B.ROUND_CAP)
    _report(4, f"x^2 - 2x + 1 >= 0 not proved at cap 30 "
               f"(verdict={verdict.kind})", ok)


def test_criterion_5_quantitative_family():
    t0 = time.perf_counter()
    rounds = []
    ok = True
    for n in range(1, 11):
        verdict = B.refute_hypotheses(family(Q(n, n + 1)), cap=30)
        rounds.append(verdict.rounds)
        ok = ok and verdict.kind == B.REFUTED and verdict.rounds <= n + 2
    ok = ok and all(a <= b for a, b in zip(rounds, rounds[1:]))
    boundary = B.refute_hypotheses(family(Q(1)), cap=30)
    ok = ok and boundary.kind == B.ROUND_CAP
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(5, f"family refuted with rounds {rounds}, boundary case "
               f"{boundary.kind} ({elapsed:.2f}s)", ok)


def test_criterion_6_contrived_example_saturates():
    problem = _load("contrived.prob")
    verdict = B.refute_hypotheses(problem.hypotheses, problem.declarations,
                                  cap=30)
    ok = verdict.kind == B.SATURATED
    _report(6, f"split-needing example not refuted (verdict={verdict.kind})",
            ok)


def test_criterion_7_normal_form_suite():
    t0 = time.perf_counter()
    x = T.Var("x")
    ok = T.equal_terms((T.One() + 1) * (T.One() + 1),
                       T.Sum([T.One()] * 4))
    ok = ok and T.equal_terms(x + x, T.Scale(2, x))

    rng = random.Random(424242)
    names = ["x", "y", "z"]
    bank = T.TermBank()
    for n in names:
        bank.var(n)
    bodies = []
    checked = 0
    while checked < 1000:
        raw = oracles.random_raw_term(rng, names, 3)
        try:
            nt = T.normalize(raw, bank)
        except T.TermError:
            continue
        # exact semantic preservation
        sigma = oracles.random_assignment(rng, names)
        if not oracles.has_zero_denominator(raw, sigma):
            if T.evaluate(raw, sigma) != T.evaluate_normal(nt, sigma):
                ok = False
                break
        # idempotence through the canonical text form
        if T.normalize(parse_expression(T.render(nt)), bank) is not nt:
            ok = False
            break
        # associativity and commutativity are invisible after normalization
        other = oracles.random_raw_term(rng, names, 2)
        try:
            if (T.normalize(T.Sum([raw, other]), bank)
                    is not T.normalize(T.Sum([other, raw]), bank)):
                ok = False
                break
            if (T.normalize(T.Prod([raw, other]), bank)
                    is not T.normalize(T.Prod([other, raw]), bank)):
                ok = False
                break
        except T.TermError:
            pass
        if not nt.is_zero and _rank(nt.body) <= 4 and len(bodies) < 48:
            if nt.body not in bodies:
                bodies.append(nt.body)
        checked += 1

    # strict total order laws on the bounded-rank corpus
    for p in bodies:
        ok = ok and not T.precedes(p, p)
    for i, p in enumerate(bodies):
        for q in bodies[i + 1:]:
            ok = ok and (T.precedes(p, q) != T.precedes(q, p))
    for p in bodies:
        for q in bodies:
            for r in bodies:
                if T.precedes(p, q) and T.precedes(q, r):
                    ok = ok and T.precedes(p, r)
    elapsed = time.perf_counter() - t0
    ok = ok and checked >= 1000 and len(bodies) >= 30 and elapsed < 30.0
    _report(7, f"normal forms: {checked} random terms, order laws on "
               f"{len(bodies)} bodies ({elapsed:.1f}s)", ok)


def test_criterion_8_linear_oracle_equivalence():
    t0 = time.perf_counter()
    disagreements = run_oracle_agreement(200, seed=8080)
    run_maximality_check(60, seed=8181)
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60.0
    _report(8, f"feasibility matches the vertex-enumeration oracle on 200 "
               f"systems; projections unimprovable at 1/1000 ({elapsed:.1f}s)",
            ok)


def _exact_standins():
    def f1(q: Q) -> Q:
        return 1 + q / (1 + abs(q))

    def f2(q: Q) -> Q:
        return f1(q) ** 2

    return [{"exp": f1}, {"exp": f2}]


def _float_standins():
    def f1(v: float) -> float:
        return 1 + v / (1 + abs(v))

    def f2(v: float) -> float:
        return f1(v) ** 2

    return [{"exp": f1}, {"exp": f2}]


def _refuted_corpus():
    """(label, refuted comparison set, verdict) for every refuted problem."""
    out = []
    for name in ("motivating1.prob", "motivating2.prob", "pnt.prob",
                 "powers.prob"):
        problem = _load(name)
        verdict = B.prove_sequent(problem.hypotheses, problem.goal,
                                  problem.declarations, cap=30)
        lhs, rel, rhs = problem.goal
        refuted_set = list(problem.hypotheses) + [(lhs, _NEGATED[rel], rhs)]
        out.append((name, refuted_set, verdict, bool(problem.declarations)))
    for n in (1, 4, 7, 10):
        hyps = family(Q(n, n + 1))
        verdict = B.refute_hypotheses(hyps, cap=30)
        out.append((f"family n={n}", hyps, verdict, False))
    return out


def _variables_of(comparisons):
    names = []

    def walk(term):
        if isinstance(term, T.Var):
            if term.name not in names:
                names.append(term.name)
        elif isinstance(term, (T.Sum, T.Prod)):
            for p in term.parts:
                walk(p)
        elif isinstance(term, (T.Neg, T.Scale)):
            walk(term.arg)
        elif isinstance(term, T.Div):
            walk(term.num)
            walk(term.den)
        elif isinstance(term, (T.Pow, T.App)):
            walk(term.base if isinstance(term, T.Pow) else term.arg)

    for lhs, _, rhs in comparisons:
        walk(lhs)
        walk(rhs)
    return names


def test_criterion_9_soundness_fuzz_and_replay():
    t0 = time.perf_counter()
    rng = random.Random(990099)
    ok = True
    detail = []
    for label, comparisons, verdict, has_apps in _refuted_corpus():
        if verdict.kind != B.REFUTED:
            ok = False
            detail.append(f"{label} not refuted")
            continue
        names = _variables_of(comparisons)
        screen = oracles.compile_float_checker(comparisons)
        float_funcs = _float_standins() if has_apps else [None]
        exact_funcs = _exact_standins() if has_apps else [None]
        for _ in range(100_000):
            values = {}
            floats = {}
            for nm in names:
                num = int(rng.random() * 17) - 8
                den = int(rng.random() * 3) + 1
                values[nm] = (num, den)
                floats[nm] = num / den
            for ff, ef in zip(float_funcs, exact_funcs):
                if not screen(floats, ff):
                    continue
                exact = {nm: Q(nu, de) for nm, (nu, de) in values.items()}
                if all(comm.holds(T.evaluate(lhs, exact, ef), rel,
                                  T.evaluate(rhs, exact, ef))
                       for lhs, rel, rhs in comparisons):
                    ok = False
                    detail.append(f"counterexample for {label}: {exact}")
        # every trace step re-derives from its recorded premises
        for _, task in (verdict.tasks or (("", verdict),)):
            for step in task.trace:
                if not oracles.replay_step(task.state, step):
                    ok = False
                    detail.append(f"{label}: step {step.derived} fails replay")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(9, "no counterexamples in 100000 assignments per refuted "
               f"problem; all trace steps replay ({elapsed:.1f}s)"
               + ("; " + "; ".join(detail) if detail else ""), ok)


def test_criterion_10_byte_identical_reports():
    def run_corpus():
        chunks = []
        for name in ("motivating1.prob", "motivating2.prob", "pnt.prob",
                     "square.prob", "powers.prob"):
            problem = _load(name)
            verdict = B.prove_sequent(problem.hypotheses, problem.goal,
                                      problem.declarations, cap=30)
            chunks.append(report.emit_report(verdict))
        contrived = _load("contrived.prob")
        verdict = B.refute_hypotheses(contrived.hypotheses,
                                      contrived.declarations, cap=30)
        chunks.append(report.emit_report(verdict))
        for n in range(1, 11):
            verdict = B.refute_hypotheses(family(Q(n, n + 1)), cap=30)
            chunks.append(report.emit_report(verdict))
        return "\n".join(chunks).encode()

    in_process = run_corpus() == run_corpus()

    def subprocess_run():
        return subprocess.run(
            [sys.executable, "-m", "ineqprover.cli", "prove",
             str(PROBLEMS / "motivating2.prob"), "--json"],
            capture_output=True).stdout

    across_processes = subprocess_run() == subprocess_run()
    ok = in_process and across_processes
    _report(10, "JSON reports byte-identical across repeated runs "
                f"(in-process: {in_process}, across processes: "
                f"{across_processes})", ok)
