#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads certify,analyze]
                                 [--trace-seed 11] [--out perfbench/baseline.json]

For every workload, runs ``run.py`` with ``--trace 0`` for each seed, once
in each of SETS sets: the sets alternate (seed 1 of set 1, seed 1 of set 2,
seed 2 of set 1, ...), so a slow phase of the machine falls on both.  Each run lasts
BENCHMARK.json's ``run_seconds``.  For each end-to-end metric and set it
reports the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
A spread at or above a third of the metric's bound is flagged, and so is a
later set whose median is worse than the first set's by more than the
bound.  ``--trace-seed`` adds one traced run per workload.  ``--out`` writes
every run, the summaries, the set-to-set changes and the machine's
description as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2  # two sets of the same code must agree within the bounds


def run(workload, seed, seconds, trace, label=""):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    result = json.loads(lines[-1])
    shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
    print(f"  {workload} seed {seed}{label} trace {trace}: {lines[0].split(', ')[2]}; {shown}",
          file=sys.stderr, flush=True)
    return {"seed": seed, "result": result, "detail": detail}


def machine():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "OMP/OPENBLAS/MKL_NUM_THREADS = nproc",
    }


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3}


def worse_by(first, later, better):
    """How much worse later is than first, as a share of first (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(SETS)]
        for seed in parse_seeds(args.seeds):
            for k, runs in enumerate(sets):
                runs.append(run(workload, seed, seconds, 0, f" set {k + 1}"))
        summaries = []
        for k, runs in enumerate(sets):
            summary = {}
            for m in spec["end_to_end"]:
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
                summary[m["name"]] = s = summarise(values, m["bound"])
                print(f"{workload:<10} set {k + 1} {m['name']:<12} median {s['median']:<12.6g} "
                      f"spread {s['spread']:.4f} (bound {m['bound']})"
                      f"{'' if s['steady'] else '  NOT STEADY'}", flush=True)
            summaries.append(summary)
        changes = {}
        for m in spec["end_to_end"]:
            first = summaries[0][m["name"]]["median"]
            changes[m["name"]] = worse = [worse_by(first, later[m["name"]]["median"], m["better"])
                                          for later in summaries[1:]]
            for k, w in enumerate(worse, start=2):
                print(f"{workload:<10} set {k} {m['name']:<12} worse than set 1 by {w:+.4f} "
                      f"(bound {m['bound']}){'  OUT OF BOUND' if w > m['bound'] else ''}",
                      flush=True)
        failed = sorted({name for runs in sets for r in runs for name in r["detail"]["failed_ops"]})
        entry = {"why": why[workload], "failed_ops": failed,
                 "sets": [{"runs": runs, "summary": summary}
                          for runs, summary in zip(sets, summaries)],
                 "worse_than_set_1": changes}
        if args.trace_seed is not None:
            entry["trace"] = run(workload, args.trace_seed, seconds, 1)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
