"""Cold-process benchmark: time to verdict for ``ineq prove|refute --json``.

    python3 perfbench/run.py --workload chain|rounds|cone --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The workload's problems are generated from the
seed and written as .prob files under .perfbench-work/.  Each problem is
solved by a fresh worker process (perfbench/worker.py) that imports
``ineqprover.cli`` from src/ and calls ``run_cli([mode, FILE, "--json"])``;
the engine keeps process-global memos, so only a cold process measures what
``ineq prove`` costs a user.  This is a closed loop with one worker at a
time, timed from outside.

With ``--trace 0`` the run cycles through the problems until ``--seconds``
have passed (always finishing two full passes) and reports the end-to-end
metrics.  With ``--trace 1`` every problem is solved once untraced and twice
with the per-layer wrappers of perfbench/tracer.py, and the run reports the
per-layer metrics.  Every verdict is checked against the expectation fixed
by construction, reports must be byte-identical across repeats and between
traced and untraced solves, and traced call counts must repeat exactly.
Measured times are scaled to a nominal machine speed (REFERENCE_NOMINAL_S).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when correct, 1 on
an unsound refutation or a report or counter that differs between solves,
2 when the benchmark cannot run at all (for example, no src/ineqprover).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

DEADLINE_S = 8.0           # per problem; a worker still running is killed
TRACED_DEADLINE_S = 24.0   # traced solves of problems that finished untraced
READY_TIMEOUT_S = 30.0     # spawn to "ready"; longer means a broken setup
MIN_PASSES = 2             # every problem is solved at least twice per run
RUN_BUDGET_S = 160.0       # no solve runs past this, so a run ends < 180 s
WORKER_MEMORY_BYTES = 1 << 30
# Times are reported at a nominal machine speed.  Two things each worker
# does that do not depend on the engine are timed: interpreter start-up to
# "alive", and a fixed reference task (worker.reference_seconds).  Every
# time in a run is scaled by REFERENCE_NOMINAL_S / sqrt(median start-up *
# median reference).  On shared hosts the raw speed drifts by tens of
# percent within minutes; the raw times and the factor are printed as well.
REFERENCE_NOMINAL_S = 0.030
UNSET_ENV = ("INEQ_MAX_ROUNDS", "INEQ_ROOT_DENOM_BOUND")

END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms", "peak_rss_mb": "MB", "report_kb": "kB",
}
# The JSON line carries the metrics whose run-to-run spread fits a bound.
# The percentiles are printed only: over 24-38 samples they sit between
# two problems' times and moved by 11-26% (interquartile range over median)
# across ten seeds.
JSON_END_TO_END = ("total_s", "setup_s", "peak_rss_mb", "report_kb")
ASSERT_MODULES = ("input", "add", "mult", "mono")
# Spans reported as <span>_s (self seconds) and <span>_calls.
TIMED_SPANS = ("linarith.project", "linarith.prune", "linarith.entail",
               "mularith.ratio", "mularith.cone", "mularith.root",
               "terms.normalize", "monofun.mono")
# Spans reported by self seconds only, under these metric names.
SELF_TIME = {
    "mularith.signs_s": "mularith.signs",
    "blackboard.self_s": "blackboard.round",
    "blackboard.assert_s": "blackboard.assert",
    "blackboard.separate_s": "blackboard.separate",
    "parsing.parse_s": "parsing.parse",
    "report.emit_s": "report.emit",
}
PEAKS = {"linarith.peak_rows": "rows", "mularith.peak_bound_bits": "bits",
         "blackboard.peak_coeff_bits": "bits"}
# Printed but kept out of the JSON line.  fm_eliminate and
# eliminate_all_except are due to be replaced, and peak_rows with them;
# root bounds and monotone facts take no time at all on two of the three
# workloads, and a time that reads 0.0 in every run says nothing.
PRINT_ONLY = {"linarith.peak_rows", "mularith.root_s", "monofun.mono_s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Solve:
    traced: bool
    setup_s: float
    token: str
    startup_s: float = 0.0
    reference_s: float = 0.0
    seconds: float = 0.0
    failure: Optional[str] = None     # "deadline", "crash", "error"
    verdict: Optional[str] = None
    rounds: int = 0
    report: bytes = b""
    maxrss_kb: int = 0
    trace: Optional[dict] = None


class _Reader:
    """Reads lines and byte counts from a pipe, giving up at a deadline."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""

    def _fill(self, deadline: float) -> None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([self.fd], [], [], remaining)[0]:
            raise TimeoutError
        chunk = os.read(self.fd, 1 << 16)
        if not chunk:
            raise EOFError
        self.buf += chunk

    def line(self, deadline: float) -> bytes:
        while b"\n" not in self.buf:
            self._fill(deadline)
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def exactly(self, count: int, deadline: float) -> bytes:
        while len(self.buf) < count:
            self._fill(deadline)
        data, self.buf = self.buf[:count], self.buf[count:]
        return data


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (WORKER_MEMORY_BYTES, WORKER_MEMORY_BYTES))


def solve(problem: workloads.Problem, path: Path, traced: bool,
          deadline_s: float) -> Solve:
    """Spawn a worker, wait until it is ready, then time one problem."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    errlog = WORK / "worker.err"
    spawned = time.perf_counter()
    with open(errlog, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"),
             "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            env=env, cwd=ROOT, preexec_fn=_limit_memory)
    answered = False
    try:
        reader = _Reader(proc.stdout.fileno())
        try:
            reader.line(spawned + READY_TIMEOUT_S)
            alive = time.perf_counter()
            ready = reader.line(spawned + READY_TIMEOUT_S).split()
            setup = time.perf_counter()
            speed = reader.line(spawned + READY_TIMEOUT_S).split()
        except (TimeoutError, EOFError):
            detail = errlog.read_text(errors="replace").strip()[-2000:]
            raise BenchmarkError(f"worker did not start:\n{detail}") from None
        result = Solve(traced, setup - spawned, ready[1].decode(),
                       alive - spawned, float(speed[1]))
        request = json.dumps({"mode": problem.mode, "file": str(path)})
        start = time.perf_counter()
        proc.stdin.write(request.encode() + b"\n")
        proc.stdin.flush()
        try:
            header = json.loads(reader.line(start + deadline_s))
            result.report = reader.exactly(header["bytes"], start + deadline_s)
            result.seconds = time.perf_counter() - start
            answered = True
        except TimeoutError:
            result.failure, result.seconds = "deadline", deadline_s
            return result
        except EOFError:
            result.failure, result.seconds = "crash", deadline_s
            return result
        if header["token"] != result.token:
            raise BenchmarkError("worker reply does not match its process")
        result.maxrss_kb = header["maxrss_kb"]
        result.trace = header["trace"]
        try:
            report = json.loads(result.report)
            result.verdict, result.rounds = report["verdict"], report["rounds"]
        except (ValueError, KeyError):
            result.failure, result.seconds = "error", deadline_s
        return result
    finally:
        # A worker that answered exits by itself; any other is killed now.
        if not answered:
            proc.kill()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()


class Run:
    """All solves of one benchmark run, with the checks on them."""

    def __init__(self, problems: list, paths: dict):
        self.problems = problems
        self.paths = paths
        self.solves: dict = {p.name: [] for p in problems}
        self.started = time.perf_counter()
        self.errors: list = []     # make the run incorrect: exit status 1
        self.failures: dict = {}   # problem -> reason; counts in failed_frac

    def budget_left(self) -> float:
        return self.started + RUN_BUDGET_S - time.perf_counter()

    def run(self, problem: workloads.Problem, traced: bool,
            deadline_s: float) -> Optional[Solve]:
        deadline_s = min(deadline_s, self.budget_left())
        if deadline_s <= 0:
            self.failures.setdefault(problem.name, "run budget spent")
            return None
        s = solve(problem, self.paths[problem.name], traced, deadline_s)
        self.solves[problem.name].append(s)
        if s.failure:
            self.failures.setdefault(problem.name, s.failure)
        elif problem.satisfiable and s.verdict == workloads.REFUTED:
            self.errors.append(f"{problem.name}: UNSOUND refutation of a "
                               f"satisfiable problem")
        elif not problem.check(s.verdict, s.rounds):
            self.failures.setdefault(
                problem.name, f"verdict {s.verdict} in {s.rounds} rounds, "
                              f"expected {sorted(problem.expected)}")
        return s

    def done(self, problem: workloads.Problem) -> list:
        return [s for s in self.solves[problem.name] if not s.failure]

    def check_repeats(self) -> None:
        tokens = [s.token for solves in self.solves.values() for s in solves]
        if len(set(tokens)) != len(tokens):
            self.errors.append("two solves shared one worker process")
        for p in self.problems:
            reports = {s.report for s in self.done(p)}
            if len(reports) > 1:
                self.errors.append(f"{p.name}: JSON report differs between "
                                   f"{len(self.done(p))} solves")

    def speed_factor(self) -> float:
        """Nominal over measured reference time: scales raw seconds."""
        solves = [s for solves in self.solves.values() for s in solves]
        startup = statistics.median(s.startup_s for s in solves)
        reference = statistics.median(s.reference_s for s in solves)
        return REFERENCE_NOMINAL_S / (startup * reference) ** 0.5

    def time_of(self, problem: workloads.Problem, scale: float,
                traced: bool = False) -> float:
        """Median time to verdict, scaled; a failed problem costs the full
        deadline, which is a fixed penalty and is not scaled."""
        if problem.name in self.failures:
            return DEADLINE_S
        return scale * statistics.median(s.seconds for s in self.done(problem)
                                         if s.traced == traced)


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    for k in range(len(ordered) - 11, -1, -1):
        if sum(v > ordered[k] for v in ordered) >= 10:
            return ordered[k], 100.0 * (k + 1) / len(ordered)
    return ordered[-1], 100.0  # too few samples: the maximum


def measure(run: Run, order: list, seconds: float) -> None:
    """Full passes until MIN_PASSES are done, then until ``seconds`` pass.

    A problem that failed is not solved again: it already costs the deadline.
    """
    passes = 0
    while len(run.failures) < len(order):
        for p in order:
            if (passes >= MIN_PASSES
                    and time.perf_counter() - run.started >= seconds):
                return
            if p.name not in run.failures:
                run.run(p, False, DEADLINE_S)
        passes += 1


def measure_traced(run: Run, order: list) -> None:
    for p in order:
        if run.run(p, False, DEADLINE_S) is None or p.name in run.failures:
            continue
        for _ in range(2):
            if run.run(p, True, TRACED_DEADLINE_S) is None:
                break


def verdict_samples(run: Run, scale: float) -> list:
    """Scaled untraced times of the first MIN_PASSES solves of every problem.

    The count is fixed by the workload, so the percentiles below rank the
    same number of samples in every run; a failed problem contributes the
    deadline once per pass.
    """
    out = []
    for p in run.problems:
        if p.name in run.failures:
            out += [DEADLINE_S] * MIN_PASSES
        else:
            out += [scale * s.seconds for s in run.done(p)
                    if not s.traced][:MIN_PASSES]
    return out


def end_to_end(run: Run, scale: float) -> dict:
    samples = verdict_samples(run, scale)
    setups = [s.setup_s for solves in run.solves.values() for s in solves]
    rss = [s.maxrss_kb for solves in run.solves.values() for s in solves
           if not s.failure]
    report_bytes = sum(len(run.done(p)[0].report) for p in run.problems
                       if run.done(p))
    return {
        "setup_s": scale * statistics.median(setups),
        "total_s": sum(run.time_of(p, scale) for p in run.problems),
        "verdict_p50_ms": 1000 * statistics.median(samples),
        "verdict_tail_ms": 1000 * tail(samples)[0],
        "peak_rss_mb": max(rss, default=0) / 1024,
        "report_kb": report_bytes / 1000,
    }


def per_layer(run: Run, scale: float) -> tuple:
    """(metrics, traced seconds) summed over problems with two traced
    solves; seconds are the mean of the two, counts must match exactly."""
    traced = []
    for p in run.problems:
        pair = [s.trace for s in run.done(p) if s.traced]
        if len(pair) < 2 or p.name in run.failures:
            continue
        for key in ("calls", "assert_calls", "assert_accepted", "peaks"):
            if pair[0][key] != pair[1][key]:
                run.errors.append(f"{p.name}: traced {key} differ between "
                                  f"two solves")
        traced.append((p, pair[0], pair[1]))
    if not traced:
        return {}, 0.0
    installed = set(traced[0][1]["installed"])

    def self_s(span):
        return scale * sum((a["self_s"].get(span, 0.0)
                            + b["self_s"].get(span, 0.0)) / 2
                           for _, a, b in traced)

    def count(key, name):
        return sum(a[key].get(name, 0) for _, a, _ in traced)

    out = {}
    for span in TIMED_SPANS:
        if span in installed:
            out[f"{span}_s"] = (self_s(span), "s")
            out[f"{span}_calls"] = (count("calls", span), "count")
    for metric, span in SELF_TIME.items():
        if span in installed:
            out[metric] = (self_s(span), "s")
    if "blackboard.round" in installed:
        out["blackboard.rounds"] = (count("calls", "blackboard.round"), "count")
    if "blackboard.assert" in installed:
        for m in ASSERT_MODULES:
            calls = count("assert_calls", m)
            accepted = count("assert_accepted", m)
            out[f"blackboard.assert_calls.{m}"] = (calls, "count")
            out[f"blackboard.assert_accepted_frac.{m}"] = (
                accepted / calls if calls else 0.0, "ratio")
    for metric, unit in PEAKS.items():
        if metric in installed:
            out[metric] = (max(a["peaks"].get(metric, 0)
                               for _, a, _ in traced), unit)
    plain = sum(run.time_of(p, scale) for p, _, _ in traced)
    with_trace = sum(run.time_of(p, scale, traced=True) for p, _, _ in traced)
    out["trace.overhead_frac"] = (with_trace / plain - 1, "ratio")
    return out, with_trace


def _fmt(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ineqprover" / "cli.py").is_file():
        raise BenchmarkError(f"no ineqprover sources under {ROOT / 'src'}")
    rng = random.Random(args.seed)
    problems = workloads.WORKLOADS[args.workload](rng, ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    paths = {}
    for p in problems:
        paths[p.name] = WORK / f"{p.name}.prob"
        paths[p.name].write_text(p.text, encoding="utf-8")
    order = list(problems)
    rng.shuffle(order)

    run = Run(problems, paths)
    if args.trace:
        measure_traced(run, order)
    else:
        measure(run, order, args.seconds)
    run.check_repeats()

    n = len(problems)
    print(f"workload {args.workload}, seed {args.seed}: {n} problems, one "
          f"fresh worker per solve, closed loop, one worker at a time, "
          f"deadline {DEADLINE_S:g} s")
    for p in problems:
        done = run.done(p)
        status = run.failures.get(p.name, "ok")
        verdict = done[0].verdict if done else "-"
        print(f"  {p.name:22s} {verdict:18s} {status:10s} "
              f"{1000 * run.time_of(p, 1.0):9.1f} ms raw  "
              f"solves={len(run.solves[p.name])}")
    failed = len(run.failures)
    scale = run.speed_factor()
    metrics = end_to_end(run, scale)
    raw = end_to_end(run, 1.0)
    samples = verdict_samples(run, scale)
    pct = tail(samples)[1]
    print(f"speed factor {scale:.4f}: measured times below are raw x factor "
          f"(a failed problem counts as the {DEADLINE_S:g} s deadline, "
          f"unscaled); the engine-free reference measured "
          f"{REFERENCE_NOMINAL_S / scale * 1000:.2f} ms against a nominal "
          f"{REFERENCE_NOMINAL_S * 1000:g} ms")
    print(f"failed_frac {failed / n:.4f} ratio ({failed}/{n} failed)")
    for name, unit in END_TO_END_UNITS.items():
        extra = ""
        if name == "verdict_tail_ms":
            extra = (f"  (p{pct:.0f} of {len(samples)} solve times, "
                     f"{min(10, len(samples) - 1)} beyond it)")
        if unit in ("s", "ms"):
            extra += f"  (raw {_fmt(raw[name])} {unit})"
        print(f"{name} {_fmt(metrics[name])} {unit}{extra}")
    result = {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]}
              for name in JSON_END_TO_END}
    if args.trace:
        layers, traced_total = per_layer(run, scale)
        for name, (value, unit) in layers.items():
            share = ""
            if unit == "s" and traced_total:
                share = f"  ({100 * value / traced_total:.1f}% of traced total_s)"
            print(f"{name} {_fmt(value)} {unit}{share}")
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in layers.items()
                  if name not in PRINT_ONLY}
    for error in run.errors:
        print(f"ERROR: {error}")
    print(json.dumps({"correct": not run.errors, "attempted": n,
                      "failed": failed, "metrics": result}))
    return 1 if run.errors else 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that solve() kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
