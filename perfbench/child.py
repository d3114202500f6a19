"""One benchmark job in a fresh interpreter.

Usage: python3 child.py '<job spec as JSON>'

The spec holds `commands` (a list of argv lists for `coxgrowth.cli.main`),
and optionally `setup_only`, `trace`, `run_id` and `spans_path`.  The
child imports `coxgrowth.cli` and notes the system-wide monotonic clock
(the parent took the same clock at launch, so the difference is set-up
time).  It then runs the commands one after another with stdout captured,
times a fixed calibration loop after set-up and after each command, and
prints one JSON line with every command's exit code, output and wall
time, the calibration times and the child's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # the job boundary: a raising command fails its items, the job
        # goes on
        rc = None
        err.write(traceback.format_exc())
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-4000:],
            "wall_s": time.perf_counter() - start}


def calibration_s():
    """Time of a fixed pure-Python loop: the machine's speed at this moment,
    which on a shared machine changes from second to second.  The loop
    mixes integer arithmetic, Fraction arithmetic and dict and tuple
    allocation, because the workloads slow down in different degrees on
    each of them when the machine is busy."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i * i) % 1_000_003
    for i in range(1, 6_000):
        acc += (Fraction(i, 7) * Fraction(3, i + 1) - Fraction(i % 5, 3)
                ).numerator
    for rep in range(15):
        # a small live set, so that the loop does not raise the child's
        # peak memory above the program's own
        table = {}
        for i in range(2_000):
            table[(i, (i * 7919 + rep) % 1000)] = [i, rep]
        for i in range(0, 2_000, 3):
            acc += table[(i, (i * 7919 + rep) % 1000)][1]
    return time.perf_counter() - start


def main():
    spec = json.loads(sys.argv[1])
    from coxgrowth import cli
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # one calibration after set-up and one after each command, so that each
    # command is bracketed by two
    calibrations = [calibration_s()]
    if spec.get("setup_only"):
        print(json.dumps({"ready_at": ready_at,
                          "calibration_s": calibrations}))
        return 0
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer(spec["run_id"])
        missing = tracer.install()
    results = []
    for argv in spec["commands"]:
        results.append(run_command(cli, argv))
        calibrations.append(calibration_s())
    payload = {"ready_at": ready_at, "commands": results,
               "wall_s": sum(r["wall_s"] for r in results),
               "calibration_s": calibrations,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        payload["trace"] = tracer.summary()
        payload["trace"]["missing"] = missing
        payload["trace"]["unwrapped"] = tracer.unwrapped_bindings()
        tracer.write(spec["spans_path"])
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
