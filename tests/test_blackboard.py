import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from ineqprover import blackboard as B
from ineqprover import comm, terms as T
from ineqprover.comm import EQ, GE, GT, LE, LT, UNIT, make_atom
import oracles

one = T.One()
x, y, u, w, z = (T.Var(n) for n in "xyuwz")


def family(r):
    return [
        (T.Scale(0, one), LE, x),
        (x, LE, T.Scale(r, one)),
        (u, EQ, x ** 2),
        (u, LT, 2 * x - 1),
    ]


# --- separation -----------------------------------------------------------------

def test_equality_hypothesis_becomes_two_inequalities():
    state = B.separate_terms([(x, EQ, y)])
    atoms = state.comm_atoms()
    vx, vy = state.bank.var("x"), state.bank.var("y")
    assert set(atoms) == {make_atom(vx, LE, 1, vy), make_atom(vx, GE, 1, vy)}


def test_complex_side_gets_a_name_and_definition():
    state = B.separate_terms([(u, LT, 2 * x - 1)])
    assert len(state.defs_add) == 1
    (name, entries), = state.defs_add.items()
    vx = state.bank.var("x")
    # 2x - 1 normalizes to -1 * (1 - 2x); the name stands for 1 - 2x.
    assert dict((a, c) for c, a in entries) == {UNIT: 1, vx: -2}
    vu = state.bank.var("u")
    assert state.comm_atoms() == [make_atom(vu, LT, -1, name)]
    assert state.name_table()[name.label] == "1 - 2 * x"


def test_empty_hypotheses_empty_state():
    state = B.separate_terms([])
    assert state.comm_atoms() == []
    assert not state.defs_add and not state.defs_mult
    assert not state.refuted


def test_constant_comparisons_resolve_at_input():
    state = B.separate_terms([(T.Scale(1, one), LT, T.Scale(2, one))])
    assert not state.refuted and state.comm_atoms() == []
    state = B.separate_terms([(T.Scale(2, one), LT, T.Scale(1, one))])
    assert state.refuted


def test_make_atom_folds_to_a_bool_only_for_the_unit_or_a_self_comparison():
    # The pair layer reads make_atom's result between two distinct names,
    # the left one not the unit, as an atom without testing for a bool.
    bank = T.TermBank()
    vx, vy = bank.var("x"), bank.var("y")
    points = [(Q(a), Q(b)) for a in (-2, 0, 3) for b in (-1, 0, Q(1, 2))]
    for lhs, rhs in ((vx, vy), (vy, vx), (vx, UNIT)):
        for rel in comm.RELS:
            for coeff in (Q(0), Q(3, 2), Q(-2)):
                made = make_atom(lhs, rel, coeff, rhs)
                assert isinstance(made, comm.CommAtom), (lhs, rel, coeff, rhs)
                for px, py in points:
                    value = {vx: px, vy: py, UNIT: Q(1)}
                    assert comm.holds(value[made.lhs], made.rel,
                                      made.coeff * value[made.rhs]) \
                        == comm.holds(value[lhs], rel, coeff * value[rhs])
    assert make_atom(UNIT, LT, 0, vx) is False
    assert make_atom(vx, LE, 1, vx) is True
    assert make_atom(UNIT, GT, Q(1, 2), UNIT) is True


def test_disequalities_are_rejected():
    with pytest.raises(T.TermError, match="case splits"):
        B.separate_terms([(x, "!=", y)])


def test_undeclared_application_is_rejected():
    with pytest.raises(T.TermError, match="undeclared"):
        B.separate_terms([(T.App("exp", x), LT, y)])


# --- the comparison table ---------------------------------------------------------

def test_new_stronger_atom_replaces_weaker():
    state = B.separate_terms([])
    vu, vv = state.bank.var("u"), state.bank.var("v")
    assert state.assert_comm_atom(make_atom(vv, GT, 0, UNIT), "add")
    assert state.assert_comm_atom(make_atom(vu, GT, 2, vv), "add")
    assert state.assert_comm_atom(make_atom(vu, GT, 3, vv), "add")
    pair = state.pair_atoms(vu, vv)
    assert pair == [make_atom(vu, GT, 3, vv)]


def test_subsumed_assertion_changes_nothing():
    state = B.separate_terms([])
    vu, vv = state.bank.var("u"), state.bank.var("v")
    state.assert_comm_atom(make_atom(vv, GT, 0, UNIT), "add")
    state.assert_comm_atom(make_atom(vu, GT, 3, vv), "add")
    before = list(state.trace)
    assert not state.assert_comm_atom(make_atom(vu, GT, 2, vv), "add")
    assert state.trace == before


def test_contradictory_constant_bounds_refute():
    state = B.separate_terms([])
    vx = state.bank.var("x")
    state.assert_comm_atom(make_atom(vx, GT, 0, UNIT), "add")
    assert state.assert_comm_atom(make_atom(vx, LT, 0, UNIT), "add")
    assert state.refuted
    assert state.trace[-1].derived == "false"


# --- rounds ------------------------------------------------------------------------

def test_first_rounds_derive_the_classic_chain():
    state = B.separate_terms(family(Q(3, 4)))
    vx, vu = state.bank.var("x"), state.bank.var("u")
    B.run_round(state)
    derived = [s.derived_atom for s in state.trace if s.module != "input"]
    assert make_atom(vu, GE, 0, UNIT) in derived      # sign of the square
    assert make_atom(vx, GT, Q(1, 2), UNIT) in derived
    while not state.refuted and state.round < 3:
        B.run_round(state)
    derived = [(s.module, s.derived_atom) for s in state.trace
               if s.module != "input"]
    # The square's ratio bound u > x/2 arrives from the multiplicative side.
    assert ("mult", make_atom(vu, GT, Q(1, 2), vx)) in derived
    # The bound on x sharpens strictly past 1/2 on the way to the clash.
    sharper = [a for m, a in derived
               if a is not None and a.lhs is vx and a.rhs is UNIT
               and a.rel in (GT, GE, LT, LE) and a.coeff != 0]
    assert any(a.rel in (GT, GE) and a.coeff > Q(1, 2) or
               a.rel in (LT, LE) and a.coeff < Q(3, 4) for a in sharper)
    assert state.refuted and state.round <= 4


def test_round_on_saturated_state_reports_no_change():
    state = B.separate_terms([(x, LT, y)])
    while B.run_round(state):
        pass
    assert not B.run_round(state)
    assert not B.run_round(state, force_all=True)


def test_refutation_family_round_counts():
    previous = 0
    for n in range(1, 8):
        verdict = B.refute_hypotheses(family(Q(n, n + 1)), cap=30)
        assert verdict.kind == B.REFUTED
        assert verdict.rounds <= n + 2
        assert verdict.rounds >= previous
        previous = verdict.rounds


def test_boundary_case_never_terminates():
    verdict = B.refute_hypotheses(family(Q(1)), cap=30)
    assert verdict.kind == B.ROUND_CAP
    assert verdict.rounds == 30


def test_contrived_split_free_gap_saturates():
    verdict = B.refute_hypotheses([
        (x + y, GE, T.Scale(2, one)), (w + z, GE, T.Scale(2, one)),
        (u * x ** 2, LT, u * x), (u * y ** 2, LT, u * y),
        (u * w ** 2, GT, u * w), (u * z ** 2, GT, u * z),
    ], cap=30)
    assert verdict.kind == B.SATURATED


# --- sequents ------------------------------------------------------------------------

def test_motivating_inference_is_proved():
    verdict = B.prove_sequent(
        [(T.Scale(0, one), LT, x), (x, LT, y)],
        ((1 + x ** 2) / (2 + y) ** 17, LT, (1 + y ** 2) / (2 + x) ** 10))
    assert verdict.kind == B.REFUTED


def test_prime_number_theorem_inequality_is_proved():
    n, K, C, eps = (T.Var(s) for s in ("n", "K", "C", "eps"))
    verdict = B.prove_sequent(
        [(n, LE, T.Scale(Q(1, 2), K * x)),
         (T.Scale(0, one), LT, n),
         (T.Scale(0, one), LT, C),
         (T.Scale(0, one), LT, eps),
         (eps, LT, one)],
        ((1 + eps / (3 * (C + 3))) * n, LT, K * x))
    assert verdict.kind == B.REFUTED
    assert verdict.rounds <= 6


def test_square_lower_bound_is_not_provable():
    verdict = B.prove_sequent([], (x ** 2 - 2 * x + 1, GE, T.Scale(0, one)))
    assert verdict.kind in (B.SATURATED, B.ROUND_CAP)


def test_trivial_strict_self_comparison_is_not_provable():
    verdict = B.prove_sequent([], (x, LT, x))
    assert verdict.kind in (B.SATURATED, B.ROUND_CAP)


def test_equality_goal_splits_into_two_tasks():
    verdict = B.prove_sequent([], (x + x, EQ, T.Scale(2, x)))
    assert verdict.kind == B.REFUTED
    assert len(verdict.tasks) == 2
    assert all(v.kind == B.REFUTED for _, v in verdict.tasks)

    open_goal = B.prove_sequent([], (x, EQ, y))
    assert open_goal.kind != B.REFUTED
    assert len(open_goal.tasks) == 2


def test_equality_goal_requires_both_directions():
    # x <= y only refutes the > direction, so the equality is not proved.
    verdict = B.prove_sequent([(x, LE, y)], (x, EQ, y))
    assert verdict.kind != B.REFUTED
    kinds = sorted(v.kind for _, v in verdict.tasks)
    assert B.REFUTED in kinds


# --- global guarantees -----------------------------------------------------------------

def test_determinism_identical_runs_identical_traces():
    def run():
        verdict = B.refute_hypotheses(family(Q(4, 5)), cap=30)
        return [(s.round, s.module, s.premises, s.derived, s.note)
                for s in verdict.trace]

    assert run() == run()


def test_monotone_progress_of_the_table():
    # Whenever an atom is dropped from a pair, the surviving context still
    # implies it (checked by replaying insertions).
    state = B.separate_terms(family(Q(4, 5)))
    from ineqprover import linarith
    seen = {}
    steps = 0
    while not state.refuted and steps < 10:
        B.run_round(state)
        steps += 1
        for key, atoms in state.pairs.items():
            for old in seen.get(key, []):
                context = [linarith.from_comm(a) for a in atoms]
                for nm in key:
                    if nm is not UNIT and (UNIT, nm) != key:
                        context.extend(linarith.from_comm(a)
                                       for a in state.pairs.get((UNIT, nm), ()))
                assert linarith.implies(context, old), (key, old, atoms)
            seen[key] = list(atoms)


def test_refuted_problems_have_no_rational_counterexample():
    rng = random.Random(140)
    problems = [family(Q(1, 2)), family(Q(3, 4))]
    for hyps in problems:
        verdict = B.refute_hypotheses(hyps, cap=30)
        assert verdict.kind == B.REFUTED
        names = ["x", "u"]
        for _ in range(3000):
            assignment = {n: rng.randint(-40, 40) / Q(rng.randint(1, 8))
                          for n in names}
            assert not all(
                oracles.comparison_holds_exact(lhs, rel, rhs, assignment)
                for lhs, rel, rhs in hyps)


def test_every_trace_step_replays():
    for hyps, goal in [
        (family(Q(3, 4)), None),
        ([(T.Scale(0, one), LT, x), (x, LT, y)],
         ((1 + x ** 2) / (2 + y) ** 17, LT, (1 + y ** 2) / (2 + x) ** 10)),
    ]:
        if goal is None:
            verdict = B.refute_hypotheses(hyps, cap=30)
        else:
            verdict = B.prove_sequent(hyps, goal, cap=30)
        assert verdict.kind == B.REFUTED
        for label, task in (verdict.tasks or (("", verdict),)):
            for step in task.trace:
                assert oracles.replay_step(task.state, step), step.derived


def test_negative_names_reason_through_their_magnitudes():
    verdict = B.prove_sequent([(x, LT, T.Scale(-2, one))],
                              (x ** 3, LT, T.Scale(-8, one)))
    assert verdict.kind == B.REFUTED
    verdict = B.prove_sequent([(x ** 3, LT, T.Scale(-8, one))],
                              (x, LT, T.Scale(-2, one)))
    assert verdict.kind == B.REFUTED


def test_reciprocal_sign_transfer():
    verdict = B.prove_sequent([(u, EQ, 1 / x), (T.Scale(0, one), LT, u)],
                              (T.Scale(0, one), LT, x))
    assert verdict.kind == B.REFUTED


def test_nested_monotone_applications():
    from ineqprover.monofun import MonoDecl
    decls = {"exp": MonoDecl("exp", True, "pos")}
    verdict = B.prove_sequent(
        [(x, LT, y)],
        (T.App("exp", T.App("exp", x)), LT, T.App("exp", T.App("exp", y))),
        decls=decls)
    assert verdict.kind == B.REFUTED


def test_root_approximations_are_sound_and_noted():
    # The only direct bound on x comes from x^2 >= 2; with denominators
    # capped at 10 the engine derives x >= 7/5 and flags the rounding.
    state = B.separate_terms(
        [(u, EQ, x ** 2), (u, GE, T.Scale(2, one)), (T.Scale(0, one), LT, x)],
        root_denom_bound=10)
    verdict = B.refute(state, cap=10)
    assert verdict.kind == B.SATURATED
    vx = state.bank.var("x")
    bounds = state.pair_atoms(vx, UNIT)
    assert make_atom(vx, GE, Q(7, 5), UNIT) in bounds
    assert any("approximated" in s.note for s in state.trace
               if s.derived_atom in bounds)


def test_derived_atoms_are_entailed_by_the_hypotheses():
    # Spot check: no satisfying assignment of the hypotheses violates any
    # derived comparison (searching over a grid of rational assignments).
    hyps = [(T.Scale(0, one), LE, x), (x, LE, T.Scale(Q(9, 10), one)),
            (u, EQ, x ** 2)]
    state = B.separate_terms(hyps)
    for _ in range(4):
        B.run_round(state)
    assert not state.refuted
    derived = [s.derived_atom for s in state.trace
               if s.module != "input" and s.derived_atom is not None]
    assert derived
    rng = random.Random(77)
    satisfying = 0
    for _ in range(4000):
        xv = Q(rng.randint(0, 18), 20)
        assignment = {"x": xv, "u": xv * xv}
        if not all(oracles.comparison_holds_exact(l, r, rr, assignment)
                   for l, r, rr in hyps):
            continue
        satisfying += 1
        for atom in derived:
            assert oracles.state_atom_holds(state, atom, assignment), atom
    assert satisfying > 50


def test_resource_limit_is_a_verdict():
    state = B.separate_terms([(x, LT, y)])
    from ineqprover import elim, linarith
    original = elim.ATOM_CAP

    def tiny_project(cache, a, b):
        raise comm.ResourceLimitError("forced")

    real = linarith.project_to_pair
    linarith.project_to_pair = tiny_project
    try:
        verdict = B.refute(state, cap=5)
    finally:
        linarith.project_to_pair = real
    assert verdict.kind == B.RESOURCE_LIMIT
    assert original == elim.ATOM_CAP


def test_elimination_memo_lives_one_table_version(capsys, monkeypatch):
    from ineqprover import cli, elim, linarith
    monkeypatch.delenv("INEQ_MAX_ROUNDS", raising=False)
    monkeypatch.delenv("INEQ_ROOT_DENOM_BOUND", raising=False)
    path = Path(__file__).resolve().parent.parent / "problems" / "square.prob"
    reports = []
    for _ in range(2):
        cli.main(["prove", str(path), "--json"])
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # No memo outlives a solve.
    held = [f"{module.__name__}.{name}" for module in (linarith, elim)
            for name, value in vars(module).items()
            if isinstance(value, dict) and value and not name.startswith("__")]
    assert held == []


def _module_state_sizes() -> dict:
    """Size of every module-level dict, set, list and lru_cache in the
    package, keyed by its qualified name."""
    import importlib
    import pkgutil

    import ineqprover
    sizes = {}
    for info in pkgutil.iter_modules(ineqprover.__path__):
        module = importlib.import_module(f"ineqprover.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            key = f"{module.__name__}.{name}"
            if isinstance(value, (dict, set, list)):
                sizes[key] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[key] = value.cache_info().currsize
    return sizes


def test_a_solve_leaves_no_module_state_behind(capsys, monkeypatch):
    from ineqprover import cli
    monkeypatch.delenv("INEQ_MAX_ROUNDS", raising=False)
    monkeypatch.delenv("INEQ_ROOT_DENOM_BOUND", raising=False)
    problems = Path(__file__).resolve().parent.parent / "problems"
    cli.run_cli(["prove", str(problems / "motivating1.prob"), "--json"])
    before = _module_state_sizes()
    cli.run_cli(["prove", str(problems / "pnt.prob"), "--json"])
    after = _module_state_sizes()
    capsys.readouterr()
    grown = {key: (before.get(key, 0), size) for key, size in after.items()
             if size > before.get(key, 0)}
    assert grown == {}


def test_a_dropped_verdict_frees_its_state_without_the_collector():
    import gc
    import weakref

    from ineqprover.parsing import parse_problem
    path = Path(__file__).resolve().parent.parent / "problems" / "motivating1.prob"
    problem = parse_problem(path.read_text(encoding="utf-8"))
    gc.disable()
    try:
        verdict = B.prove_sequent(problem.hypotheses, problem.goal,
                                  problem.declarations)
        assert verdict.refuted
        state = weakref.ref(verdict.state)
        del verdict
        assert state() is None
    finally:
        gc.enable()
