#!/usr/bin/env python3
"""addspec benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Set-up runs SETUP_REPEATS fresh processes that each import addspec from the
checkout's ``src`` and write the seeded inputs: one before the first
operation, the others between passes.  The run goes through the
workload's fixed operation list in whole passes, one operation at a time:
at least MIN_PASSES, and another while it is expected to end within
``--seconds``.  Every latency and set-up time is scaled to a nominal machine
speed with the reference loop of ``speed.py``, timed in the same process
just before and just after the work; each operation's figure is its median
over the passes, and ``setup_s`` the median over the set-up processes.
Every report is checked by ``oracles.py``; a wrong answer counts as failed
and never stops the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with the median over operations of the traced over the untraced
scaled latency as ``trace.overhead_ratio``.
The last line of output is one JSON object; ``--workload all`` runs every
workload in turn and ends with one object per workload.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import oracles
import tracing
import workloads
from speed import reference_s, scaled

# Nothing above imports numpy; the program and every child process inherit the cap.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_TIMEOUT_S = 120
# Every run makes at least this many passes: a traced run needs two untraced
# and two traced ones for its overhead ratio, each operation's median needs
# more than two or three samples, and with two operations beyond the tail
# rank five passes put 10 samples beyond it.
MIN_PASSES = 5
SETUP_REPEATS = MIN_PASSES + 1  # one before the first pass, one after each of the first MIN_PASSES


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(workloads.SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class SetUp:
    """The set-up processes of one run; each imports addspec and writes the inputs.

    The first runs before the first operation, and the run uses its inputs.
    The others run one after each of the first passes, so that ``setup_s``,
    their median wall time, samples the whole run and not only its first
    seconds, when the machine may be in a slow phase.
    """

    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.walls, self.imports, self.dirs = [], [], []  # walls: (wall, reference)
        self.repeat()
        self.inputs = self.dirs[0]

    def repeat(self):
        """Run one more set-up process, unless SETUP_REPEATS have run."""
        if len(self.dirs) == SETUP_REPEATS:
            return
        out = self.work / f"inputs{len(self.dirs)}"
        cmd = [sys.executable, str(HERE / "workloads.py"), self.workload, str(self.seed), str(out)]
        start = perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=self.work, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.splitlines()[-1])
        refs = report["references"]
        self.walls.append((wall - sum(refs), sum(refs) / len(refs)))
        self.imports.append(report["import_s"])
        self.dirs.append(out)

    def result(self):
        """Median scaled wall time and median import time of the set-up processes."""
        if len({digest(d) for d in self.dirs}) != 1:
            raise SystemExit("perfbench: one seed gave different inputs in two set-ups")
        return (statistics.median(scaled(*w) for w in self.walls),
                statistics.median(self.imports))


def run_child(cmd, cwd):
    """Run cmd to its end: exit code, last line of stderr, peak RSS in MiB."""
    with open(cwd / "stderr.txt", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, env=child_env(), cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, not Popen.wait: it also returns this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", usage.ru_maxrss / 1024


class Runner:
    """Runs operations in process (``cli`` given) or one fresh process each."""

    def __init__(self, inputs, work, cli):
        self.inputs, self.work, self.cli = inputs, work, cli
        self.out = work / "out.json"
        self.child_rss_mb = 0.0  # largest untraced operation process

    def run(self, op, tracer):
        """One operation: latency, reference time, the oracle's problems and deviation."""
        argv = list(op["argv"])
        points = None
        if op["points"]:
            path = self.inputs / op["points"]
            argv += ["--points", str(path)]
            points = [tuple(p) for p in json.loads(path.read_text(encoding="utf-8"))]
        argv += ["--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        run = self._in_process if self.cli else self._fresh
        latency, reference, failure = run(argv, tracer)
        if failure:
            return latency, reference, [("run", failure)], None
        try:
            report = json.loads(self.out.read_text(encoding="utf-8"))
            problems, err = oracles.check(op, report, points)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return latency, reference, [("report", f"unreadable report: {exc!r}")], None
        return latency, reference, problems, err

    def _in_process(self, argv, tracer):
        before = reference_s()
        start = perf_counter()
        failure = self._main(argv, tracer)
        latency = perf_counter() - start
        return latency, (before + reference_s()) / 2, failure

    def _main(self, argv, tracer):
        with tracer.span("op") if tracer else nullcontext():
            with tracer.span("cli.main") if tracer else nullcontext():
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a crash is a failed operation, not a stopped run
                    return traceback.format_exc(limit=1).strip().splitlines()[-1]
        return f"exit code {code}" if code else None

    def _fresh(self, argv, tracer):
        """The child times the reference loop itself, on the CPU it runs on;
        its latency leaves out the two loops."""
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(result), "1" if tracer else "0", *argv]
        start = perf_counter()
        with tracer.span("op") if tracer else nullcontext() as op_span:
            code, last_err, rss_mb = run_child(cmd, self.work)
        latency = perf_counter() - start
        if not tracer:
            self.child_rss_mb = max(self.child_rss_mb, rss_mb)
        if code != 0:
            return latency, reference_s(), f"exit code {code}: {last_err}"
        data = json.loads(result.read_text(encoding="utf-8"))
        refs = data["references"]
        if tracer:
            tracer.spans[op_span][4] -= sum(refs)  # as the latency, the op span leaves them out
            tracer.merge(data, op_span)
        return latency - sum(refs), sum(refs) / len(refs), None


def measure(ops, runner, seconds, trace, after_pass):
    """Whole passes over ops; with trace, untraced and traced passes alternate.

    After MIN_PASSES, a pass starts while the mean pass so far would still
    end within seconds.
    """
    records = []
    tracer = tracing.Tracer() if trace else None
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or (perf_counter() - start) * (passes + 1) / passes < seconds:
        traced = trace and passes % 2 == 1
        in_process_tracing = traced and runner.cli is not None
        if in_process_tracing:
            tracer.install()
        for op in ops:
            if traced:
                tracer.op += 1
            latency, reference, problems, err = runner.run(op, tracer if traced else None)
            records.append({"op": op, "traced": traced, "latency": latency,
                            "reference": reference, "problems": problems, "err": err})
        if in_process_tracing:
            tracer.uninstall()
        passes += 1
        after_pass()
    return records, passes, tracer


def is_expected(record):
    """A failure the benchmark expects at this commit: see FLOAT_PHASE_DEFECT."""
    return "known_defect" in record["op"] and all(t == "identity" for t, _ in record["problems"])


def op_latency(ops, records):
    """Each operation's median scaled latency over the passes of the run."""
    return {op["name"]: statistics.median(scaled(r["latency"], r["reference"])
                                          for r in records if r["op"] is op)
            for op in ops}


def overhead_ratio(ops, records):
    """Median over operations of the traced over the untraced scaled latency."""
    traced = op_latency(ops, [r for r in records if r["traced"]])
    plain = op_latency(ops, [r for r in records if not r["traced"]])
    return statistics.median(traced[name] / plain[name] for name in traced)


def end_to_end(ops, records, tail_rank, setup_s, peak_rss_mb):
    lat = sorted(op_latency(ops, records).values())
    n = len(records)
    passes = n // len(ops)
    errs = [r["err"] for r in records if r["err"] is not None]
    failed = sum(1 for r in records if r["problems"])
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (lat[tail_rank - 1], "s"),
        "setup_s": (setup_s, "s"),
        "error_rate": (failed / n, "ratio"),
        "max_abs_err": (max(errs) if errs else None, "abs"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "op_tail_s": f"p{100 * tail_rank / len(ops):.1f}: "
                     f"{passes * (len(ops) - tail_rank)} of {n} samples beyond it",
        "error_rate": f"{failed} of {n} operations failed or were wrong",
        "max_abs_err": "no exact numeric value on this workload" if not errs else "",
    }
    return metrics, notes


def run_workload(workload, seed, seconds, trace):
    _, fresh, tail_rank = workloads.WORKLOADS[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = SetUp(workload, seed, work)
        ops = json.loads((setup.inputs / "ops.json").read_text(encoding="utf-8"))
        runner = Runner(setup.inputs, work, None if fresh else workloads.import_addspec())
        records, passes, tracer = measure(ops, runner, seconds, trace, setup.repeat)
        setup_s, import_s = setup.result()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not is_expected(r)]
    print(f"addspec benchmark: workload {workload}, seed {seed}, {len(records)} operations in "
          f"{passes} passes of {len(ops)}, closed loop, 1 client, BLAS threads {NPROC}")
    untraced = [r for r in records if not r["traced"]]
    # ru_maxrss is in KiB on Linux
    rss_mb = runner.child_rss_mb if fresh else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, notes = end_to_end(ops, untraced, tail_rank, setup_s, rss_mb)
    detail = {"end_to_end": {k: v for k, (v, _) in e2e.items()}, "notes": notes,
              "op_latencies_s": {op["name"]: [r["latency"] for r in untraced if r["op"] is op]
                                 for op in ops},
              "op_references_s": {op["name"]: [r["reference"] for r in untraced if r["op"] is op]
                                  for op in ops}}
    if trace:
        layers = tracing.layer_metrics(tracer, import_s, overhead_ratio(ops, records))
        for name, value in layers.items():
            print(f"  {name:<34} {value:>14.6g} {tracing.LAYER_UNITS[name]}")
        detail["per_layer"] = layers
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        for name, (value, unit) in e2e.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<12} {shown:>14} {unit:<6} {notes.get(name, '')}")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    groups = Counter((r["op"]["name"], r["problems"][0][1],
                      r["op"]["known_defect"] if is_expected(r) else None) for r in failed)
    for (name, text, known), count in groups.items():
        print(f"  failed {name} x{count}: {text}" + (f" [expected: {known}]" if known else ""))
    detail["failed_ops"] = sorted({r["op"]["name"] for r in failed})
    print("detail " + json.dumps(detail))
    return {"correct": not unexpected, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


class Terminated(BaseException):
    """SIGTERM arrived; not an Exception, so no operation handler swallows it."""


def _terminate(signum, frame):
    raise Terminated


def dispatch(args):
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        return 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its child process and removes its work files
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return dispatch(args)
    except Terminated:
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())
