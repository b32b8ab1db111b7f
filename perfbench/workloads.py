"""Workload generators: each turns a seed into a list of problem files.

Expected verdicts are fixed by construction and never read from the engine.
The shape of every workload (chain lengths, the corpus files, the Avigad
family members, the planted cone shapes) is fixed, so that runs on different
seeds measure the same amount of work; the seed varies variable names,
constants where the verdict does not depend on them, and the order in which
problems are solved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

REFUTED = "refuted"
SATURATED = "saturated"
ROUND_CAP = "round-cap-reached"
RESOURCE_LIMIT = "resource-limit"
NOT_REFUTED = frozenset({SATURATED, ROUND_CAP, RESOURCE_LIMIT})


@dataclass(frozen=True)
class Problem:
    name: str
    mode: str                 # "prove" or "refute"
    text: str                 # the .prob file
    expected: frozenset       # verdicts that count as correct
    max_rounds: Optional[int] = None  # a correct verdict needs rounds <= this
    # The hypotheses hold at a known point, so "refuted" is unsound.
    satisfiable: bool = False

    def check(self, verdict: str, rounds: int) -> bool:
        if verdict not in self.expected:
            return False
        return self.max_rounds is None or rounds <= self.max_rounds


_NAME_LETTERS = "abcdfghkmnpqrsvwyz"  # no "t": the engine names subterms t1, t2, ...


def _names(rng: random.Random, count: int) -> list:
    """Distinct variable names of one to three letters, varying with the seed."""
    names: dict = {}
    while len(names) < count:
        size = rng.randint(1, 3)
        names["".join(rng.choice(_NAME_LETTERS) for _ in range(size))] = None
    return list(names)


def _rational(rng: random.Random, top: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, den))


# ---------------------------------------------------------------------------
# chain: 0 < x0 < ... < x_{n-1} and a two-ratio goal, true by hand because
# the left numerator is the smaller one and the left denominator the larger
# (c1, c2 > 0).  The additive pass over all pairs does almost all the work.
# ---------------------------------------------------------------------------

CHAIN_LENGTHS = (3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10, 11)


def chain_problems(rng: random.Random, root: Path) -> list:
    out = []
    for i, n in enumerate(CHAIN_LENGTHS):
        xs = _names(rng, n)
        c1 = _rational(rng, 9, 4)
        c2 = _rational(rng, 9, 4)
        while c2 == c1:  # c1 = c2 makes the goal degenerate and cheap
            c2 = _rational(rng, 9, 4)
        lines = [f"assume: 0 < {xs[0]}"]
        lines += [f"assume: {a} < {b}" for a, b in zip(xs, xs[1:])]
        lo, hi = xs[0], xs[-1]
        lines.append(f"prove: ({c1} + {lo}) / ({c2} + {hi}) < "
                     f"({c1} + {hi}) / ({c2} + {lo})")
        out.append(Problem(f"chain-{i:02d}-n{n}", "prove",
                           "\n".join(lines) + "\n", frozenset({REFUTED})))
    return out


# ---------------------------------------------------------------------------
# rounds: the paper's examples in problems/ verbatim, plus the Avigad family
# 0 <= x <= r, u = x^2, u < 2x - 1.  For r = n/(n+1) < 1 the set is refuted
# within n + 2 rounds; at r = 1 only the point x = 1 is excluded by a square,
# which the engine never factors, so it tightens bounds up to the round cap.
# ---------------------------------------------------------------------------

# Expected verdicts as the README states them (prove: "refuted" = PROVED).
CORPUS = {
    "motivating1.prob": ("prove", REFUTED),
    "motivating2.prob": ("prove", REFUTED),
    "pnt.prob": ("prove", REFUTED),
    "powers.prob": ("prove", REFUTED),
    "square.prob": ("prove", ROUND_CAP),
    "contrived.prob": ("refute", SATURATED),
}
AVIGAD_N = tuple(range(1, 13))


def _avigad(x: str, u: str, r: Fraction) -> str:
    return (f"assume: 0 <= {x}\nassume: {x} <= {r}\n"
            f"assume: {u} = {x}^2\nrefute: {u} < 2*{x} - 1\n")


def rounds_problems(rng: random.Random, root: Path) -> list:
    out = []
    for filename, (mode, verdict) in CORPUS.items():
        text = (root / "problems" / filename).read_text(encoding="utf-8")
        out.append(Problem(filename[:-len(".prob")], mode, text,
                           frozenset({verdict})))
    for n in AVIGAD_N:
        x, u = _names(rng, 2)
        out.append(Problem(f"avigad-n{n:02d}", "refute",
                           _avigad(x, u, Fraction(n, n + 1)),
                           frozenset({REFUTED}), max_rounds=n + 2))
    x, u = _names(rng, 2)
    out.append(Problem("avigad-r1", "refute", _avigad(x, u, Fraction(1)),
                       frozenset({ROUND_CAP})))
    return out


# ---------------------------------------------------------------------------
# cone: planted-model problems.  A positive rational point is drawn first;
# every hypothesis c*m1 REL m2 between monomials is made exactly true there,
# so the set is satisfiable and "refuted" is an unsound answer.  The shapes
# (point, monomials, relations, constants) come from fixed generator seeds
# 0 .. CONE_PROBLEMS-1, which include instances that stall today; the run
# seed only renames the variables.
# ---------------------------------------------------------------------------

CONE_PROBLEMS = 12
CONE_VARS = 3
CONE_HYPOTHESES = 4
CONE_EXPONENTS = (0, 1, 2)
_CONE_RELS = ("<", "<=", ">=", ">")
_HOLDS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
          ">=": lambda a, b: a >= b, ">": lambda a, b: a > b}


def _monomial(rng: random.Random) -> tuple:
    while True:
        exps = tuple(rng.choice(CONE_EXPONENTS) for _ in range(CONE_VARS))
        if any(exps):
            return exps


def _eval_monomial(exps: tuple, point: tuple) -> Fraction:
    value = Fraction(1)
    for e, p in zip(exps, point):
        value *= p ** e
    return value


def _render_monomial(exps: tuple, names: list) -> str:
    parts = []
    for e, name in zip(exps, names):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " * ".join(parts)


def _constant_for(ratio: Fraction, rel: str, rng: random.Random) -> Fraction:
    """A positive c with small denominator and c REL ratio."""
    den = rng.randint(1, 4)
    while True:
        scaled = ratio * den
        if rel in ("<", "<="):
            num = scaled.numerator // scaled.denominator
            if rel == "<" and Fraction(num, den) == ratio:
                num -= 1
        else:
            num = -(-scaled.numerator // scaled.denominator)
            if rel == ">" and Fraction(num, den) == ratio:
                num += 1
        if num >= 1:
            return Fraction(num, den)
        den *= 2


def cone_shape(index: int) -> tuple:
    """(point, [(c, m1, rel, m2)]) with c*m1(point) REL m2(point) exactly."""
    rng = random.Random(index)
    point = tuple(_rational(rng, 3, 2) for _ in range(CONE_VARS))
    hypotheses = []
    for _ in range(CONE_HYPOTHESES):
        m1 = _monomial(rng)
        m2 = _monomial(rng)
        while m2 == m1:
            m2 = _monomial(rng)
        rel = rng.choice(_CONE_RELS)
        v1, v2 = _eval_monomial(m1, point), _eval_monomial(m2, point)
        c = _constant_for(v2 / v1, rel, rng)
        if not (c > 0 and _HOLDS[rel](c * v1, v2)):
            raise AssertionError(f"planted point violates {c}*m1 {rel} m2")
        hypotheses.append((c, m1, rel, m2))
    return point, hypotheses


def cone_problems(rng: random.Random, root: Path) -> list:
    out = []
    for i in range(CONE_PROBLEMS):
        point, hypotheses = cone_shape(i)
        names = _names(rng, CONE_VARS)
        lines = ["# planted point: "
                 + ", ".join(f"{n} = {p}" for n, p in zip(names, point))]
        lines += [f"assume: 0 < {n}" for n in names]
        lines += [f"refute: {c} * {_render_monomial(m1, names)} {rel} "
                  f"{_render_monomial(m2, names)}"
                  for c, m1, rel, m2 in hypotheses]
        out.append(Problem(f"cone-{i:02d}", "refute", "\n".join(lines) + "\n",
                           NOT_REFUTED, satisfiable=True))
    return out


WORKLOADS = {
    "chain": chain_problems,
    "rounds": rounds_problems,
    "cone": cone_problems,
}
