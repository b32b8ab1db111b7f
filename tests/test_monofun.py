import random
from fractions import Fraction as Q

from ineqprover import comm, monofun as MF
from ineqprover import terms as T
from ineqprover.comm import EQ, GT, LE, LT, UNIT, make_atom
from ineqprover.monofun import AppEntry, MonoDecl


def _bank_vars(*names):
    bank = T.TermBank()
    return bank, [bank.var(n) for n in names]


def _atoms_of(facts):
    return {atom for atom, _, _ in facts}


def test_increasing_function_transfers_order():
    _, (x, y, u, w) = _bank_vars("x", "y", "u", "w")
    decls = {"exp": MonoDecl("exp", True, "pos")}
    apps = [AppEntry("exp", Q(1), x, u), AppEntry("exp", Q(1), y, w)]
    facts = _atoms_of(MF.derive_mono_facts(decls, apps, [make_atom(x, LT, 1, y)]))
    assert make_atom(u, LT, 1, w) in facts


def test_range_sign_is_emitted_once_per_application():
    _, (x, u) = _bank_vars("x", "u")
    decls = {"exp": MonoDecl("exp", True, "pos")}
    apps = [AppEntry("exp", Q(1), x, u)]
    facts = MF.derive_mono_facts(decls, apps, [])
    assert [atom for atom, _, _ in facts] == [make_atom(u, GT, 0, UNIT)]


def test_decreasing_function_flips_order():
    _, (x, y, u, w) = _bank_vars("x", "y", "u", "w")
    decls = {"inv": MonoDecl("inv", False)}
    apps = [AppEntry("inv", Q(1), x, u), AppEntry("inv", Q(1), y, w)]
    facts = _atoms_of(MF.derive_mono_facts(decls, apps, [make_atom(x, LT, 1, y)]))
    assert make_atom(u, GT, 1, w) in facts


def test_equal_arguments_share_one_name():
    # Congruence comes from the bank: both occurrences get the same atom.
    bank = T.TermBank()
    x = T.Var("x")
    arg = T.normalize(x + 1, bank)
    first = bank.app("exp", arg)
    second = bank.app("exp", T.normalize(T.Sum([T.One(), x]), bank))
    assert first is second


def test_scaled_comparisons_do_not_transfer():
    # a*x < y says nothing about f(a*x) versus f(y).
    _, (x, y, u, w) = _bank_vars("x", "y", "u", "w")
    decls = {"exp": MonoDecl("exp", True)}
    apps = [AppEntry("exp", Q(1), x, u), AppEntry("exp", Q(1), y, w)]
    facts = _atoms_of(MF.derive_mono_facts(
        decls, apps, [make_atom(x, LT, Q(3, 2), y)]))
    assert not facts


def test_different_argument_scales_do_not_transfer():
    _, (x, y, u, w) = _bank_vars("x", "y", "u", "w")
    decls = {"exp": MonoDecl("exp", True)}
    apps = [AppEntry("exp", Q(2), x, u), AppEntry("exp", Q(3), y, w)]
    facts = _atoms_of(MF.derive_mono_facts(decls, apps, [make_atom(x, LT, 1, y)]))
    assert not facts


def test_shared_negative_scale_flips_through():
    # arguments are -x and -y with x < y, so f(-x) relates like f at -x > -y.
    _, (x, y, u, w) = _bank_vars("x", "y", "u", "w")
    decls = {"exp": MonoDecl("exp", True)}
    apps = [AppEntry("exp", Q(-1), x, u), AppEntry("exp", Q(-1), y, w)]
    facts = _atoms_of(MF.derive_mono_facts(decls, apps, [make_atom(x, LT, 1, y)]))
    assert make_atom(u, GT, 1, w) in facts


def test_reverse_direction_narrows_arguments():
    _, (x, y, u, w) = _bank_vars("x", "y", "u", "w")
    decls = {"exp": MonoDecl("exp", True)}
    apps = [AppEntry("exp", Q(1), x, u), AppEntry("exp", Q(1), y, w)]
    facts = _atoms_of(MF.derive_mono_facts(decls, apps, [make_atom(u, LE, 1, w)]))
    assert make_atom(x, LE, 1, y) in facts


def _monotone_increasing_positive(q: Q) -> Q:
    # Strictly increasing, range (0, 2), exact on rationals.
    return 1 + q / (1 + abs(q))


def _cube(q: Q) -> Q:
    return q ** 3


def test_emitted_atoms_hold_for_concrete_monotone_functions():
    rng = random.Random(321)
    bank = T.TermBank()
    arg_names = [bank.var(n) for n in ("x", "y", "z")]
    for func, decl in [
        (_monotone_increasing_positive, MonoDecl("f", True, "pos")),
        (_cube, MonoDecl("f", True)),
        (lambda q: -_cube(q), MonoDecl("f", False)),
    ]:
        decls = {"f": decl}
        for trial in range(60):
            assignment = {}
            apps = []
            for i, arg in enumerate(arg_names):
                value = Q(rng.randint(-6, 6), rng.randint(1, 3))
                assignment[arg] = value
                app_atom = bank.var(f"f{len(assignment)}_{trial}_{i}_{decl.increasing}_{decl.range_sign}")
                assignment[app_atom] = func(value)
                apps.append(AppEntry("f", Q(1), arg, app_atom))
            facts = []
            for _ in range(3):
                a, b = rng.sample(arg_names, 2)
                for rel in (LT, EQ, GT):
                    if comm.holds(assignment[a], rel, assignment[b]):
                        atom = make_atom(a, rel, Q(1), b)
                        if not isinstance(atom, bool):
                            facts.append(atom)
                        break
            derived = MF.derive_mono_facts(decls, apps, facts)
            for atom, _, _ in derived:
                lhs = assignment[atom.lhs]
                rhs = Q(1) if atom.rhs is UNIT else assignment[atom.rhs]
                assert comm.holds(lhs, atom.rel, atom.coeff * rhs), \
                    (atom, decl, assignment)
