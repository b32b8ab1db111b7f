"""Command-line driver.

Subcommands: ``prove FILE``, ``refute FILE``, ``normalize EXPR``, and
``equal EXPR EXPR``.  Exit status 0 means proved/refuted (or equal), 1 means
the engine could not decide (saturated, round cap, resource limit, or not
equal), and 2 means bad input.  Defaults for ``--max-rounds`` and
``--root-denom-bound`` may be overridden with the environment variables
``INEQ_MAX_ROUNDS`` and ``INEQ_ROOT_DENOM_BOUND``; a problem file's option
lines sit between the environment and explicit flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import blackboard, terms
from .blackboard import (MAX_ROUNDS, REFUTED, RESOURCE_LIMIT, ROUND_CAP,
                         SATURATED, Verdict)
from .mularith import ROOT_DENOM_BOUND
from .parsing import ParseError, ProblemFile, parse_expression, parse_problem
from .report import emit_report
from .terms import TermError

_UNKNOWN_TEXT = {
    SATURATED: "saturated",
    ROUND_CAP: "round cap reached",
    RESOURCE_LIMIT: "resource limit",
}


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        parsed = int(value)
        if parsed <= 0:
            raise ValueError
        return parsed
    except ValueError:
        raise SystemExit(f"error: {name} must be a positive integer")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineq",
        description="Prove or refute real inequalities without expanding "
                    "products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--max-rounds", type=int, default=None, metavar="N",
                       help=f"round cap (default {MAX_ROUNDS})")
        p.add_argument("--root-denom-bound", type=int, default=None,
                       metavar="N",
                       help="denominator cap for root approximations "
                            f"(default {ROOT_DENOM_BOUND})")
        p.add_argument("--trace", action="store_true",
                       help="print the derivation trace")
        p.add_argument("--json", action="store_true",
                       help="print the full JSON report instead")

    prove = sub.add_parser("prove", help="prove the goal of a problem file")
    prove.add_argument("file")
    add_run_flags(prove)

    refute = sub.add_parser("refute",
                            help="refute the hypotheses of a problem file")
    refute.add_argument("file")
    add_run_flags(refute)

    norm = sub.add_parser("normalize", help="print the canonical form")
    norm.add_argument("expr")

    equal = sub.add_parser("equal",
                           help="decide provable equality of two expressions")
    equal.add_argument("expr1")
    equal.add_argument("expr2")
    return parser


def _resolve(option: str, args, problem: ProblemFile, fallback: int) -> int:
    """The value of ``--option``: the flag, else the problem file's option
    line, else ``INEQ_OPTION`` in the environment, else ``fallback``."""
    flag = getattr(args, option.replace("-", "_"))
    if flag is not None:
        if flag <= 0:
            raise SystemExit(f"error: --{option} must be positive")
        return flag
    if option in problem.options:
        return problem.options[option]
    return _env_int("INEQ_" + option.upper().replace("-", "_"), fallback)


def _load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise SystemExit(f"error: {path}: line {line}, column {column}: "
                         f"not UTF-8 text (byte 0x{data[exc.start]:02x})")
    return parse_problem(text)


def _print_outcome(mode: str, verdict: Verdict, args) -> int:
    if args.json:
        print(emit_report(verdict))
    else:
        if verdict.kind == REFUTED:
            word = "PROVED" if mode == "prove" else "REFUTED"
            print(f"{word} (rounds: {verdict.rounds})")
        else:
            print(f"UNKNOWN: {_UNKNOWN_TEXT[verdict.kind]} "
                  f"(rounds: {verdict.rounds})")
        if args.trace:
            for label, task in (verdict.tasks or (("", verdict),)):
                for step in task.trace:
                    prefix = f"[{label}] " if label else ""
                    note = f"  ({step.note})" if step.note else ""
                    print(f"  {prefix}[round {step.round} {step.module}] "
                          f"{step.derived}{note}")
    return 0 if verdict.kind == REFUTED else 1


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("prove", "refute"):
            problem = _load_problem(args.file)
            cap = _resolve("max-rounds", args, problem, MAX_ROUNDS)
            denom = _resolve("root-denom-bound", args, problem,
                             ROOT_DENOM_BOUND)
            if args.command == "prove":
                if problem.goal is None:
                    raise SystemExit("error: prove needs a problem file with "
                                     "a prove: line")
                verdict = blackboard.prove_sequent(
                    problem.hypotheses, problem.goal, problem.declarations,
                    cap=cap, root_denom_bound=denom)
            else:
                if problem.goal is not None:
                    raise SystemExit("error: refute takes a problem file "
                                     "without a prove: line")
                verdict = blackboard.refute_hypotheses(
                    problem.hypotheses, problem.declarations,
                    cap=cap, root_denom_bound=denom)
            return _print_outcome(args.command, verdict, args)
        if args.command == "normalize":
            term = parse_expression(args.expr)
            print(terms.render(terms.normalize(term)))
            return 0
        if args.command == "equal":
            bank = terms.TermBank()
            left = parse_expression(args.expr1)
            right = parse_expression(args.expr2)
            if terms.equal_terms(left, right, bank):
                print("EQUAL")
                return 0
            print("NOT EQUAL")
            return 1
        raise SystemExit(f"error: unknown command {args.command!r}")
    except (ParseError, TermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


main = run_cli  # console-script entry point


if __name__ == "__main__":
    sys.exit(run_cli())
