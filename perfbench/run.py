"""Growth-series benchmark.

    python3 perfbench/run.py --workload {matrix,verify,fq,finite,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Each job is one workload's command sequence, run through
`coxgrowth.cli.main` in a fresh child interpreter, one child at a time (a
closed loop with one client).  Every result is checked for exactness
after its job, outside the timed span.

--trace 0 runs jobs until --seconds of jobs have run and reports the
end-to-end metrics.  --trace 1 runs untraced and traced jobs in turn and
reports the per-layer metrics.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Each run's
full record, with the machine record, is written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

from workloads import (WORKLOADS, DOMINANT_LAYER, REQUIRED_SPANS,  # noqa
                       job_commands)
from spans import LAYERS  # noqa: E402
from child import calibration_s  # noqa: E402

# Set-up-only launches for setup_s: some before the first job and some
# after each job, so that they sample the whole run.
SETUP_PROBES_FIRST = 4
SETUP_PROBES_PER_JOB = 1
TRACE_PAIRS = 3           # untraced/traced job pairs in a --trace 1 run
RUN_LIMIT_S = 165         # a run stops starting work after this
CALIBRATION_LOOPS = 5     # for the machine record at the start of a run
# Time of the calibration loop (child.calibration_s) on the reference
# machine in its fast state.  Timings are reported in reference seconds:
# measured seconds scaled by this over the loop's time measured next to
# them, in the same child.  See README.md, "Machine speed".
REFERENCE_CALIBRATION_S = 0.055


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(Exception):
    pass


def spawn(spec, timeout):
    """Run one child; returns (seconds from launch to exit, payload)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    launched = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child exceeded {timeout:.0f} s")
    elapsed = monotonic() - launched
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"child exited {proc.returncode}: {err[-2000:]}")
    payload = json.loads(out.strip().splitlines()[-1])
    payload["setup_s"] = payload["ready_at"] - launched
    return elapsed, payload


def machine_record():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg()),
            "calibration_s": statistics.median(
                calibration_s() for _ in range(CALIBRATION_LOOPS))}


def to_reference(seconds, calibration):
    return seconds * REFERENCE_CALIBRATION_S / calibration


def job_ref_s(payload):
    """The job's time in reference seconds: each command's wall time scaled
    by the mean of the two calibrations that bracket it."""
    cal = payload["calibration_s"]
    return sum(to_reference(c["wall_s"], (cal[i] + cal[i + 1]) / 2)
               for i, c in enumerate(payload["commands"]))


def setup_ref_s(payload):
    return to_reference(payload["setup_s"], payload["calibration_s"][0])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, started):
        import checks  # imports the program, so only once src/ is on path
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = started
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._verdicts = {}

    def remaining(self):
        return RUN_LIMIT_S - (monotonic() - self.started)

    def setup_probes(self, count):
        return [spawn({"setup_only": True}, self.remaining())[1]
                for _ in range(count)]

    def job(self, trace=False, run_id=None):
        """Run and check one job; returns (elapsed, payload or None)."""
        commands = job_commands(self.workload, self.rng)
        spec = {"commands": commands}
        if trace:
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            spec.update(trace=True, run_id=run_id, spans_path=str(
                OUT / "spans" / f"{self.workload}-{run_id}.tsv.gz"))
        start = monotonic()
        try:
            elapsed, payload = spawn(spec, self.remaining())
        except ChildFailed as exc:
            for argv in commands:
                n = self.checks.content_items(argv) + 1
                self.attempted += n
                self.failed += n
            self.notes.append(f"job failed: {exc}")
            return monotonic() - start, None
        for res in payload["commands"]:
            key = (tuple(res["argv"]), res["rc"], res["stdout"])
            verdict = self._verdicts.get(key)
            if verdict is None:
                verdict = self.checks.check_command(res["argv"], res["rc"],
                                                    res["stdout"])
                self._verdicts[key] = verdict
            attempted, failed, notes = verdict
            self.attempted += attempted
            self.failed += failed
            self.notes.extend(n for n in notes if n not in self.notes)
            if res["rc"] != 0 and res["stderr"]:
                self.notes.append(res["stderr"].strip().splitlines()[-1])
        return elapsed, payload


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    values beyond it, or None when that is not above the median."""
    n = len(values)
    k = n - 10
    if k < (n + 1) // 2:
        return None
    return round(100 * k / n), sorted(values)[k - 1]


def measure(run):
    """--trace 0: jobs until --seconds of jobs have run."""
    setups = run.setup_probes(SETUP_PROBES_FIRST)
    jobs, elapsed_all = [], []
    measured = 0.0
    while True:
        elapsed, payload = run.job()
        measured += elapsed
        if payload is None:
            break
        elapsed_all.append(elapsed)
        jobs.append(payload)
        setups += [payload] + run.setup_probes(SETUP_PROBES_PER_JOB)
        next_job = statistics.median(elapsed_all)
        if (measured + next_job > run.seconds
                or next_job > run.remaining()):
            break
    walls = [p["wall_s"] for p in jobs]
    metrics = {}
    if jobs:
        metrics = {
            "wall_ref_s": (statistics.median(map(job_ref_s, jobs)), "s"),
            "setup_s": (statistics.median(map(setup_ref_s, setups)), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                              for p in jobs), "MB")}
    extra = {"jobs": len(jobs), "walls": walls,
             "wall_s": statistics.median(walls) if walls else None,
             "setup_raw_s": statistics.median(p["setup_s"] for p in setups),
             "tail": tail_percentile(walls),
             "job_ref_s": [job_ref_s(p) for p in jobs],
             "setups": [p["setup_s"] for p in setups],
             "setup_calibration_s": [p["calibration_s"][0] for p in setups],
             "job_calibration_s": [p["calibration_s"] for p in jobs],
             "command_walls": [[(" ".join(c["argv"]), c["wall_s"])
                                for c in p["commands"]] for p in jobs]}
    return metrics, extra


def layer_metrics(summaries, walls, traced_ref, untraced_ref):
    """Per-layer metrics from the traced jobs' summaries and wall times;
    the overhead compares reference-second times of traced and untraced
    jobs."""
    first = summaries[0]

    def calls(name):
        return first["spans"].get(name, {}).get("calls", 0)

    def distinct(name):
        return first["spans"].get(name, {}).get("distinct", 0)

    def self_s(*names):
        return statistics.median(
            sum(s["spans"].get(n, {}).get("self_s", 0.0) for n in names)
            for s in summaries)

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "ratfun.gcd.calls": (calls("ratfun.gcd"), "count"),
        "ratfun.gcd.self_s": (self_s("ratfun.gcd"), "s"),
        "ratfun.gcd.nontrivial_frac": (
            frac(first["gcd_nontrivial"], calls("ratfun.gcd")), "ratio"),
        "ratfun.exact_div.self_s": (self_s("ratfun.exact_div"), "s"),
        "ratfun.normalize.calls": (calls("ratfun.normalize"), "count"),
        "ratfun.expand.calls": (calls("ratfun.expand"), "count"),
        "ratfun.expand.self_s": (self_s("ratfun.expand"), "s"),
        "rootsystem.build.calls": (calls("rootsystem.build"), "count"),
        "rootsystem.build.self_s": (self_s("rootsystem.build"), "s"),
        "finite.table.builds": (calls("finite.table"), "count"),
        "finite.table.self_s": (self_s("finite.table"), "s"),
        "finite.p_poly.calls": (calls("finite.p_poly"), "count"),
        "finite.p_poly.scans": (distinct("finite.p_poly"), "count"),
        "finite.p_poly.self_s": (self_s("finite.p_poly"), "s"),
        "finite.h_poly.scans": (distinct("finite.h_poly"), "count"),
        "finite.h_poly.self_s": (self_s("finite.h_poly"), "s"),
        "finite.matmul.calls": (calls("finite.matmul"), "count"),
        "finite.matmul.self_s": (self_s("finite.matmul"), "s"),
        "finite.checks.self_s": (self_s("finite.checks"), "s"),
        "cones.points.calls": (calls("cones.points"), "count"),
        "cones.points.distinct": (distinct("cones.points"), "count"),
        "cones.points.useful_frac": (
            frac(distinct("cones.points"), calls("cones.points")), "ratio"),
        "cones.points.self_s": (self_s("cones.points"), "s"),
        "cones.sigma.self_s": (self_s("cones.sigma"), "s"),
        "cones.f_q.calls": (calls("cones.f_q"), "count"),
        "series.p_ss.calls": (calls("series.p_ss"), "count"),
        "series.p_affine_S.calls": (calls("series.p_affine_S"), "count"),
        "series.p_affine_S.self_s": (self_s("series.p_affine_S"), "s"),
        "series.p_full.calls": (calls("series.p_full"), "count"),
        "series.p_full.self_s": (self_s("series.p_full"), "s"),
        "series.verify.self_s": (self_s("series.verify"), "s"),
        "affine.bfs.elements": (first["bfs_elements"], "count"),
        "affine.bfs.self_s": (self_s("affine.bfs"), "s"),
        "affine.classify.calls": (calls("affine.classify"), "count"),
        "affine.classify.self_s": (self_s("affine.classify"), "s"),
        "affine.normalizes.calls": (calls("affine.normalizes"), "count"),
        "affine.oracle.self_s": (self_s("affine.oracle"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    names = set().union(*(s["spans"] for s in summaries))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s(*(n for n in names
                                         if n.split(".")[0] == layer)), "s")
    m["trace.overhead_frac"] = (
        statistics.median(traced_ref) / statistics.median(untraced_ref) - 1,
        "ratio")
    m["trace.unattributed_frac"] = (statistics.median(
        (w - s["root_s"]) / w for w, s in zip(walls, summaries)), "ratio")
    return m


def guard(workload, payloads):
    """Wiring guard for the traced jobs: problems found, if any."""
    problems = []
    summaries = [p["trace"] for p in payloads]
    for s in summaries:
        problems += [f"binding left unwrapped: {b}" for b in s["unwrapped"]]
    for name in REQUIRED_SPANS[workload]:
        if summaries[0]["spans"].get(name, {}).get("calls", 0) == 0:
            problems.append(f"span {name} recorded no calls")

    def counts(s):
        return ({n: (v["calls"], v["distinct"])
                 for n, v in s["spans"].items()},
                s["gcd_nontrivial"], s["bfs_elements"])
    if any(counts(s) != counts(summaries[0]) for s in summaries[1:]):
        problems.append("span counts differ between traced jobs")
    return sorted(set(problems))


def trace(run):
    """--trace 1: untraced and traced jobs, alternating."""
    untraced, traced = [], []
    for k in range(1, TRACE_PAIRS + 1):
        untraced.append(run.job()[1])
        traced.append(run.job(trace=True, run_id=f"seed{run.seed}-job{k}")[1])
    if None in untraced or None in traced:
        return {}, {"problems": ["a job failed"]}
    walls = [p["wall_s"] for p in traced]
    untraced_walls = [p["wall_s"] for p in untraced]
    metrics = layer_metrics([p["trace"] for p in traced], walls,
                            [job_ref_s(p) for p in traced],
                            [job_ref_s(p) for p in untraced])
    layer_self = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    dominant = max(layer_self, key=layer_self.get)
    run.notes += [f"trace target not found: {t}"
                  for t in traced[0]["trace"]["missing"]]
    wall = statistics.median(walls)
    extra = {"problems": guard(run.workload, traced),
             "untraced_walls": untraced_walls, "traced_walls": walls,
             "dominant_layer": dominant,
             "seed_dominant_layer": DOMINANT_LAYER[run.workload],
             "layer_share": {k: v / wall for k, v in layer_self.items()}}
    return metrics, extra


def run_workload(workload, seed, seconds, traced):
    started = monotonic()
    machine = machine_record()
    run = Run(workload, seed, seconds, started)
    metrics, extra = (trace if traced else measure)(run)
    problems = extra.get("problems", [])
    correct = bool(metrics) and run.failed == 0 and not problems
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "machine": machine,
              "run_s": monotonic() - started, "correct": correct,
              "attempted": run.attempted, "failed": run.failed,
              "notes": run.notes, "metrics": metrics, **extra}
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{workload}-seed{seed}-trace{int(traced)}.json"
     ).write_text(json.dumps(record, indent=1))
    return record


def print_record(rec):
    m = rec["machine"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"trace {rec['trace']}  run {rec['run_s']:.1f} s")
    print(f"machine: python {m['python']}, nproc {m['nproc']}, loadavg "
          f"{' '.join(f'{x:.2f}' for x in m['loadavg_start'])}, "
          f"calibration {m['calibration_s']:.4f} s")
    for name, (value, unit) in rec["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if rec["trace"] == 0 and rec.get("jobs"):
        tail = rec["tail"]
        print(f"  {'setup_s (measured)':28s} {rec['setup_raw_s']:14.6g} s")
        print(f"  {'wall_s (measured)':28s} {rec['wall_s']:14.6g} s "
              f"median of {rec['jobs']} jobs, fastest "
              f"{min(rec['walls']):.6g} s; "
              + (f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                 "no percentile above the median has ten jobs beyond it"))
    if rec["trace"] == 1 and "dominant_layer" in rec:
        print(f"  dominant layer {rec['dominant_layer']} "
              f"(seed: {rec['seed_dominant_layer']})")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'failed_frac':28s} {frac:14.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} items)")
    for line in rec.get("problems", []) + rec["notes"][:20]:
        print(f"  ! {line}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "coxgrowth" / "cli.py").is_file():
        print(f"error: no coxgrowth sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print_record(rec)
        records.append(rec)
    metrics = {(f"{r['workload']}." if len(records) > 1 else "") + k:
               {"value": v, "unit": u}
               for r in records for k, (v, u) in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
