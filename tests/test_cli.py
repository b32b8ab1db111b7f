import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ineqprover import cli

MOTIVATING = """\
assume: 0 < x
assume: x < y
prove: (1+x^2)/(2+y)^17 < (1+y^2)/(2+x)^10
"""

SQUARE = "prove: x^2 - 2*x + 1 >= 0\n"

REFUTABLE = """\
assume: 0 <= x
assume: x <= 1/2
assume: u = x^2
refute: u < 2*x - 1
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_exits_zero_and_reports_rounds(tmp_path, capsys):
    path = tmp_path / "m1.prob"
    path.write_text(MOTIVATING)
    code, out, _ = run_cli(capsys, "prove", str(path))
    assert code == 0
    assert out.startswith("PROVED (rounds: ")


def test_unprovable_goal_exits_one(tmp_path, capsys):
    path = tmp_path / "square.prob"
    path.write_text(SQUARE)
    code, out, _ = run_cli(capsys, "prove", str(path))
    assert code == 1
    assert out.startswith("UNKNOWN:")


def test_refute_subcommand(tmp_path, capsys):
    path = tmp_path / "r.prob"
    path.write_text(REFUTABLE)
    code, out, _ = run_cli(capsys, "refute", str(path))
    assert code == 0
    assert out.startswith("REFUTED")


def test_refute_rejects_files_with_goals(tmp_path, capsys):
    path = tmp_path / "m1.prob"
    path.write_text(MOTIVATING)
    code, _, err = run_cli(capsys, "refute", str(path))
    assert code == 2
    assert "without a prove" in err


def test_prove_requires_a_goal(tmp_path, capsys):
    path = tmp_path / "r.prob"
    path.write_text(REFUTABLE)
    code, _, err = run_cli(capsys, "prove", str(path))
    assert code == 2


def test_normalize_prints_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "normalize", "x + x")
    assert code == 0 and out.strip() == "2 * x"


def test_equal_subcommand(capsys):
    code, out, _ = run_cli(capsys, "equal", "x + x", "2*x")
    assert code == 0 and out.strip() == "EQUAL"
    code, out, _ = run_cli(capsys, "equal", "x*(1+y)", "x + x*y")
    assert code == 1 and out.strip() == "NOT EQUAL"


def test_parse_errors_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "normalize", "1.5*x")
    assert code == 2 and "decimal" in err
    path = tmp_path / "bad.prob"
    path.write_text("assume: exp(x) < 1\n")
    code, _, err = run_cli(capsys, "prove", str(path))
    assert code == 2 and "undeclared" in err


# The interpreter's limit on converting digit strings to int; 0 means none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                        reason="no integer digit limit")


def _assert_input_error(code, out, err, where):
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("expr, where", [
    # "\u00b2" passes str.isdigit() but not int().
    pytest.param("\u00b2", "line 1, column 1: unexpected character",
                 id="superscript"),
    pytest.param("x^1\u00b2", "line 1, column 4: unexpected character",
                 id="superscript-exponent"),
    pytest.param("x + " + "7" * (INT_DIGIT_LIMIT + 1),
                 "line 1, column 5: integer literal", id="over-long-literal",
                 marks=_NEEDS_DIGIT_LIMIT),
])
def test_unreadable_numbers_exit_two(expr, where, capsys):
    _assert_input_error(*run_cli(capsys, "normalize", expr), where)


@_NEEDS_DIGIT_LIMIT
def test_computed_constant_past_digit_limit_exits_two(capsys):
    # Every literal is short; the normal form's constant is not.
    _assert_input_error(*run_cli(capsys, "normalize", "10^5000"),
                        "constant too large to print")


@_NEEDS_DIGIT_LIMIT
def test_hypothesis_with_huge_constant_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.prob"
    path.write_text("refute: x > 10^5000\n")
    _assert_input_error(*run_cli(capsys, "refute", str(path)),
                        "constant too large to print")


@_NEEDS_DIGIT_LIMIT
def test_derived_constant_past_digit_limit_exits_two(tmp_path, capsys):
    # Every input constant prints; the cube's bound, derived by the
    # multiplicative pass, does not.
    path = tmp_path / "cube.prob"
    path.write_text("assume: x > 10^1500\nassume: y = x^3\nrefute: y > 0\n")
    _assert_input_error(*run_cli(capsys, "refute", str(path)),
                        "constant too large to print")


def test_non_utf8_problem_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.prob"
    path.write_bytes("assume: 0 < x\nassume: x < \u00e9\n".encode("latin-1"))
    _assert_input_error(*run_cli(capsys, "prove", str(path)),
                        f"{path}: line 2, column 13: not UTF-8")


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "prove", "/nonexistent/x.prob")
    assert code == 2


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "m1.prob"
    path.write_text(MOTIVATING)
    code, out, _ = run_cli(capsys, "prove", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["verdict", "rounds", "atoms_derived", "trace",
                          "name_table"]
    assert data["verdict"] == "refuted"
    assert data["atoms_derived"] > 0
    for step in data["trace"]:
        assert list(step) == ["round", "module", "premises", "derived", "note"]
    assert data["name_table"]


def test_json_output_is_byte_deterministic(tmp_path, capsys):
    path = tmp_path / "m1.prob"
    path.write_text(MOTIVATING)
    _, first, _ = run_cli(capsys, "prove", str(path), "--json")
    _, second, _ = run_cli(capsys, "prove", str(path), "--json")
    assert first == second


def test_trace_flag_prints_derivations(tmp_path, capsys):
    path = tmp_path / "r.prob"
    path.write_text(REFUTABLE)
    code, out, _ = run_cli(capsys, "refute", str(path), "--trace")
    assert code == 0
    assert "[round" in out and "false" in out


def test_max_rounds_flag_and_option(tmp_path, capsys):
    path = tmp_path / "square.prob"
    path.write_text(SQUARE)
    code, out, _ = run_cli(capsys, "prove", str(path), "--max-rounds", "4",
                           "--json")
    assert json.loads(out)["rounds"] == 4
    path2 = tmp_path / "square2.prob"
    path2.write_text("option: max-rounds 3\n" + SQUARE)
    code, out, _ = run_cli(capsys, "prove", str(path2), "--json")
    assert json.loads(out)["rounds"] == 3
    # explicit flag beats the file option
    code, out, _ = run_cli(capsys, "prove", str(path2), "--max-rounds", "5",
                           "--json")
    assert json.loads(out)["rounds"] == 5


def test_environment_overrides_defaults(tmp_path, capsys, monkeypatch):
    path = tmp_path / "square.prob"
    path.write_text(SQUARE)
    monkeypatch.setenv("INEQ_MAX_ROUNDS", "2")
    code, out, _ = run_cli(capsys, "prove", str(path), "--json")
    assert json.loads(out)["rounds"] == 2


def test_bad_flag_values_name_the_flag(tmp_path, capsys):
    path = tmp_path / "square.prob"
    path.write_text(SQUARE)
    for flag, value in (("--max-rounds", "0"), ("--root-denom-bound", "-3")):
        code, out, err = run_cli(capsys, "prove", str(path), flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be positive\n"


def test_console_entry_point_runs():
    # The child does not see pytest's pythonpath setting; give it src/.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "ineqprover.cli", "normalize", "x + x"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2 * x"


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# sha256 of the ``--json`` report of every corpus problem: a change to the
# engine that alters any verdict, round count or trace byte fails here.
GOLDEN_REPORTS = {
    "motivating1": ("prove", "0f2317c8f69871111407ba39ba5f4c09"
                             "c8ca692f054e8a36ffc765c87d1ed36b"),
    "motivating2": ("prove", "f85bbad7929cf7ccde643e76d8312bf8"
                             "7e5fd8126c262881a30df415c8c30963"),
    "pnt": ("prove", "937a2f5ab6b9cd28d07140d3eb1dcd28"
                     "1e4984c691a4569ebb2284706574fbfe"),
    "powers": ("prove", "c58012e0cbcec93f42d731089c538114"
                        "849b0fbb26e7deb57ab78815b7d6d72b"),
    "square": ("prove", "4d03504aba635a3be2232df37e739c5d"
                        "42aee152b0eb373629fc921b96048bea"),
    "contrived": ("refute", "5da1d99327431f1d98bbb089e65f3686"
                            "6a39cabf4baa4491ded2347586a1d75a"),
}


# Three seed-401 problems of the benchmark's generators, copied into
# tests/golden/: the additive projection over all pairs (chain), the
# positive cone (cone), and many rounds of small checks (Avigad family).
GENERATED = Path(__file__).resolve().parent / "golden"
GENERATED_REPORTS = {
    "avigad-r1": ("refute", "5acdadb91f68288df5f82188761f0996"
                            "498a18d520674cdcc54c29c5f0d73e1b"),
    "chain-14-n11": ("prove", "a93be77d98c3759f59cf76e72f4d186e"
                              "abdbcdda31cbf79c352e411fdef1f924"),
    "cone-05": ("refute", "89d1a213883332c9e828431890d9af30"
                          "08ca423c62a69c96cbbc088ccc8c6bd9"),
}


@pytest.mark.parametrize("name", sorted({**GOLDEN_REPORTS,
                                         **GENERATED_REPORTS}))
def test_json_report_matches_golden_hash(name, capsys, monkeypatch):
    monkeypatch.delenv("INEQ_MAX_ROUNDS", raising=False)
    monkeypatch.delenv("INEQ_ROOT_DENOM_BOUND", raising=False)
    if name in GENERATED_REPORTS:
        (mode, digest), folder = GENERATED_REPORTS[name], GENERATED
    else:
        (mode, digest), folder = GOLDEN_REPORTS[name], PROBLEMS
    _, out, _ = run_cli(capsys, mode, str(folder / f"{name}.prob"), "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
