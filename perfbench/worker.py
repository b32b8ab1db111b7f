"""One benchmark worker: a fresh interpreter that solves exactly one problem.

Usage (started by run.py, not by hand):
    python3 worker.py SRC_DIR TRACE

Protocol on stdin/stdout:
  1. print ``alive`` as soon as the interpreter and the standard-library
     imports are up, before anything from SRC_DIR is loaded;
  2. import ``ineqprover.cli`` from SRC_DIR (and install tracing if TRACE is
     1), then print ``ready <token>``; the token is unique to this process;
  3. run a fixed reference task that does not use the engine twice and
     print ``speed <seconds of the second run>``;
  4. read one JSON request line ``{"mode": ..., "file": ...}``;
  5. call ``run_cli([mode, file, "--json"])`` and print one JSON header line
     followed by the report bytes it announces, then exit.

Steps 1 and 3 do not depend on the engine; run.py uses their times to
correct for the machine's speed, which drifts by tens of percent within
minutes on shared hosts.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

REFERENCE_STEPS = 2000


def reference_seconds() -> float:
    """Time a fixed task made of what the engine spends its time on:
    small Fractions, tuple keys, dict updates and a sort."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(REFERENCE_STEPS):
        a = Fraction(i % 13 + 1, i % 7 + 2)
        b = Fraction(i % 11 + 3, i % 5 + 1)
        key = (i % 37, i % 41)
        table[key] = a * b - a / b + table.get(key, 0) / 1024
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - start


def main() -> int:
    out = sys.stdout.buffer
    out.write(b"alive\n")
    out.flush()
    src, trace = os.path.realpath(sys.argv[1]), sys.argv[2] == "1"
    sys.path.insert(0, src)
    import ineqprover.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"ineqprover imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    token = os.urandom(12).hex()
    out.write(f"ready {token}\n".encode())
    out.flush()
    reference_seconds()  # the first run pays for first-touch memory
    out.write(f"speed {reference_seconds()!r}\n".encode())
    out.flush()

    request = json.loads(sys.stdin.readline())
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = cli.run_cli([request["mode"], request["file"], "--json"])
    report = captured.getvalue().encode()
    header = {
        "token": token,
        "code": code,
        "bytes": len(report),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    out.write(json.dumps(header).encode() + b"\n" + report)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
