#!/usr/bin/env python3
"""Layered benchmark of qsdc3: wall time per simulated round on three
acceptance workloads, with a traced per-layer breakdown.

Run from the repository root (no install needed; the program is imported
from ``src/``):

    python3 perfbench/bench.py --workload probe_sweep --seed 1005 --seconds 30 --trace 0
    python3 perfbench/bench.py --trace 1        # every workload, one process each

An untraced run (``--trace 0``) solves the workload repeatedly for about
``--seconds`` (at least once) and reports the end-to-end metrics.  Its
solves are paced by a fixed reference loop and its times rescaled to a
reference host speed (see ``speed.py``), so that runs made while the shared
host is slower or faster can be compared.  A traced
run (``--trace 1``) does the same untraced solves, then one solve with every
layer entry point wrapped, and reports the per-layer metrics and the tracing
overhead.  Every repetition is checked by the workload's correctness gates
and by its report sha256.  Metrics are printed by name and unit, written
with the run's metadata to ``perfbench/out/``, and summarised on the last
line of standard output as one JSON object.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
# Reference units before and after each set-up process (see speed.py).
SETUP_UNITS = 8

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import qsdc3
    from qsdc3 import cli
except ImportError as exc:
    raise SystemExit("bench: cannot import qsdc3 from %s: %s" % (SRC, exc)) from None
if Path(qsdc3.__file__).resolve().parent.parent != SRC:
    raise SystemExit("bench: qsdc3 was imported from %s, not from %s" % (qsdc3.__file__, SRC))

import layers  # noqa: E402  (needs qsdc3 importable)
import speed  # noqa: E402
import workloads  # noqa: E402

# A fresh process imports the program and builds the workload's configs.
_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qsdc3 import cli
for data in json.loads(sys.argv[2]):
    cli.parse_run_config(data)
"""


@dataclass
class Repetition:
    seconds: float  # wall seconds, reference units excluded
    scale: float  # reference-speed seconds per wall second (1.0 unpaced)
    sha256: str | None
    rounds: int
    problems: list
    results: list | None


def solve_once(workload, configs, tiny, pacer=None):
    """One timed solve; a raised error is a failed repetition, not a crash."""
    if pacer is not None:
        pacer.begin()
    start = time.perf_counter()
    try:
        text, results = workloads.solve(configs)
    except Exception as exc:  # every failure counts toward error_rate
        elapsed = time.perf_counter() - start
        return Repetition(elapsed, 1.0, None, 0, ["raised %s: %s" % (type(exc).__name__, exc)], None)
    elapsed = time.perf_counter() - start
    scale = 1.0
    if pacer is not None:
        elapsed -= pacer.inner_seconds()
        scale = pacer.end()
    sha = hashlib.sha256(text.encode()).hexdigest()
    rounds = sum(result.rounds_total for result in results)
    return Repetition(elapsed, scale, sha, rounds, workload.gate(results, tiny), results)


def repeat_solves(workload, configs, seconds, tiny):
    """Paced untraced solves until the next one would overrun ``seconds``."""
    reps = []
    start = time.perf_counter()
    with speed.Pacer().installed() as pacer:
        while True:
            before = time.perf_counter()
            reps.append(solve_once(workload, configs, tiny, pacer))
            now = time.perf_counter()
            if now - start + (now - before) > seconds:
                return reps


def measure_setup(data, repeats):
    """Median reference-speed seconds for a fresh process to import qsdc3
    and parse, each paced by reference units before and after."""
    pacer = speed.Pacer()
    times = []
    for _ in range(repeats):
        pacer.begin(SETUP_UNITS)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(data)],
            check=True,
            timeout=120,
            cwd=ROOT,
        )
        elapsed = time.perf_counter() - start
        times.append(elapsed * pacer.end(SETUP_UNITS))
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(workload, seed, tiny):
    """What a number depends on besides the code: never compare across these."""
    return {
        "workload": workload.name,
        "seed": seed,
        "size": "tiny" if tiny else "acceptance",
        "backend": qsdc3.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def measure(name, seed=None, seconds=0.0, trace=0, tiny=False):
    """Run one workload; returns the run's record (metrics, gates, metadata)."""
    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    data = workload.configs(seed, tiny)
    configs = [cli.parse_run_config(d) for d in data]
    reps = repeat_solves(workload, configs, seconds, tiny)

    tracer = None
    if trace:
        with layers.traced() as tracer:
            traced_configs = [cli.parse_run_config(d) for d in data]
            with tracer.span("solve"):
                traced_rep = solve_once(workload, traced_configs, tiny)
        reps.append(traced_rep)

    shas = {rep.sha256 for rep in reps if rep.sha256 is not None}
    if len(shas) > 1:
        first = next(rep.sha256 for rep in reps if rep.sha256 is not None)
        for rep in reps:
            if rep.sha256 not in (None, first):
                rep.problems.append("report sha256 %s differs from %s" % (rep.sha256, first))
    failed = [rep for rep in reps if rep.problems]
    timed = [rep for rep in (reps[:-1] if trace else reps) if rep.sha256 is not None]
    if not timed or (trace and traced_rep.results is None):
        raise RuntimeError("no solve completed: %s" % "; ".join(reps[-1].problems))

    wall_s = statistics.median(rep.seconds for rep in timed)
    metrics = {}
    if trace:
        metrics.update(layers.layer_metrics(tracer, traced_rep.results))
        metrics["trace.overhead"] = (traced_rep.seconds / wall_s, "ratio")
    else:
        metrics["us_per_round"] = (statistics.median(1e6 * r.seconds * r.scale / r.rounds for r in timed), "us")
        metrics["solve_s"] = (statistics.median(r.seconds * r.scale for r in timed), "s")
        metrics["setup_s"] = (measure_setup(data, 1 if tiny else SETUP_REPEATS), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {
        "meta": metadata(workload, seed, tiny),
        "report_sha256": sorted(shas),
        "solves": len(timed),
        "solve_seconds": [rep.seconds for rep in timed],
        "solve_scales": [rep.scale for rep in timed],
        "wall_solve_s": wall_s,
        "rounds_per_solve": timed[0].rounds,
        "attempted": len(reps),
        "failed": len(failed),
        "error_rate": len(failed) / len(reps),
        "problems": sorted({p for rep in failed for p in rep.problems}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tracer": tracer,
    }


def print_record(record):
    meta = record["meta"]
    print("workload %s  seed %d  size %s" % (meta["workload"], meta["seed"], meta["size"]))
    print("  meta: " + "  ".join("%s=%s" % kv for kv in meta.items() if kv[0] not in ("workload", "seed", "size")))
    print("  report sha256: %s" % ", ".join(record["report_sha256"]))
    print(
        "  %d untraced solve(s) of %d rounds, median %.4g wall s; error_rate %.3f (%d of %d repetitions failed)"
        % (
            record["solves"],
            record["rounds_per_solve"],
            record["wall_solve_s"],
            record["error_rate"],
            record["failed"],
            record["attempted"],
        )
    )
    for problem in record["problems"]:
        print("  GATE FAILED: %s" % problem)
    for name, m in record["metrics"].items():
        print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_one(args):
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    print_record(record)
    OUT.mkdir(exist_ok=True)
    tracer = record.pop("tracer")
    stem = "%s-trace%d" % (args.workload, args.trace)
    if tracer is not None:
        tracer.write_spans(OUT / ("%s.spans.csv" % stem))
    (OUT / ("%s.json" % stem)).write_text(json.dumps(record, indent=2) + "\n")
    print(result_line(record["failed"] == 0, record["attempted"], record["failed"], record["metrics"]))


def run_all(args):
    """Each workload in its own process, so one failure stops no other."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if done.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            print("workload %s: no result (exit %d)\n%s" % (name, done.returncode, done.stderr), file=sys.stderr)
            attempted, failed, correct = attempted + 1, failed + 1, False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        metrics.update({"%s.%s" % (name, k): v for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="untraced solving time (at least one solve)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
