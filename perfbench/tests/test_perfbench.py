"""Tests of the benchmark itself: seeded inputs, oracles, traced child process.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    antidiagonal_onb,
    doubled_spectrum,
    lattice_with_rectangle,
    lev_forest,
    max_multiplicity,
    staircase,
)

cli = workloads.import_addspec()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_writes_identical_inputs(workload, tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.generate(workload, seed, tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    read = lambda d, f: (tmp_path / d / f).read_bytes()  # noqa: E731
    assert all(read("a", f) == read("b", f) for f in files)
    assert any(read("a", f) != read("c", f) for f in files)


def _flip_verdict(body):
    body["certificate"]["verdict"] = (
        "riesz-consistent" if body["certificate"]["verdict"] == "degenerate" else "degenerate")


def _foreign_null_point(body):
    body["certificate"]["null_combination"][0]["a"] = "1/7"


def _foreign_loop_point(body):
    # keeps the zigzag shape but moves one vertical line off the set
    verts = body["loop"]["vertices"]
    a = verts[1][0]
    for v in verts:
        if v[0] == a:
            v[0] = "1/7"


def _set_scan(key, value):
    def mutate(body):
        body["scan"][key] = value
    return mutate


def _cases():
    rng = random.Random(1)
    t, eps, doubled = doubled_spectrum(rng, 8, False)
    lattice = lattice_with_rectangle(rng, 40, 8)
    box = ["--box=-4,4,-4,4"]
    unsolved_box = [-3.5, 4.5, -4.25, 3.75]
    return {
        # case: (oracle facts, argv, points, mutation of a correct report)
        "onb": ({"kind": "onb"}, ["gram", "--space", "L", "--check", "identity"],
                antidiagonal_onb(rng, 9), _flip_verdict),
        "onb-identity": ({"kind": "onb"}, ["gram", "--space", "L", "--check", "identity"],
                         antidiagonal_onb(rng, 9),
                         lambda b: b["identity_check"].update(passed=False)),
        "nonoverlap": ({"kind": "nonoverlap", "lambda_min_floor": 1 - math.cos(math.pi * eps)},
                       ["gram", "--space", f"Symmetric:t={t}"], doubled,
                       lambda b: b["certificate"]["lambda_min"].__setitem__(0, 0.01)),
        "lev": ({"kind": "lev", "lambda_min_ceiling": 2 / 11}, ["gram", "--space", "L"],
                lev_forest(rng, 3, [10]),
                lambda b: b["certificate"]["lambda_min"].__setitem__(-1, 0.5)),
        "loop": ({"kind": "loop"}, ["gram", "--space", "L"], lattice_with_rectangle(rng, 12, 6), _flip_verdict),
        "loop-null": ({"kind": "loop"}, ["gram", "--space", "L"],
                      lattice_with_rectangle(rng, 12, 6), _foreign_null_point),
        "staircase": ({"kind": "staircase", "zigzag": 20, "multiplicity": 2}, ["analyze"], staircase(rng, 20),
                      lambda b: b.update(max_zigzag_length=19)),
        "lattice": ({"kind": "lattice", "multiplicity": max_multiplicity(lattice)}, ["analyze"], lattice,
                    _foreign_loop_point),
        "collinear": ({"kind": "collinear", "N": 8}, ["demo-collinear", "--a", "1/2", "--N", "8"], None,
                      lambda b: b["random_g"].update(ratio=1e-3)),
        "scan": ({"kind": "scan", "t": "0", "t_prime": "0", "grid": 400, "box": [-4, 4, -4, 4],
                  "families": ["integer-lattice", "antidiagonal-half-integer"]},
                 ["solve-oe", "--t=0", "--t-prime=0", "--scan", "--grid", "400", *box], None,
                 _set_scan("min_residual", 1e-7)),
        "scan-unsolved": ({"kind": "scan", "t": "1/5", "t_prime": "-2/7", "grid": 200,
                           "box": unsolved_box, "families": []},
                          ["solve-oe", "--t=1/5", "--t-prime=-2/7", "--scan", "--grid", "200",
                           "--box=" + ",".join(map(str, unsolved_box))], None,
                          _set_scan("min_residual", 10.0)),
        "parseval": ({"kind": "parseval"}, ["gram", "--space", "L", "--parseval"], antidiagonal_onb(rng, 9),
                     lambda b: b["parseval"][1].update(residual=-1e-3)),
    }


CASES = _cases()


@pytest.mark.parametrize("case", list(CASES))
def test_oracle_accepts_the_right_report_and_rejects_a_wrong_one(case, tmp_path):
    op, argv, points, mutate = CASES[case]
    out = tmp_path / "report.json"
    if points is not None:
        path = tmp_path / "points.json"
        path.write_text(json.dumps([[str(a), str(b)] for a, b in points]))
        argv = [*argv, "--points", str(path)]
        points = [(str(a), str(b)) for a, b in points]
    assert cli.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert oracles.check(op, report, points)[0] == []
    mutate(report["body"])
    assert oracles.check(op, report, points)[0] != []


def test_loop_defect_names_what_is_wrong():
    rect = [("0", "0"), ("0", "1"), ("1", "1"), ("1", "0"), ("0", "0")]
    members = set(rect)
    assert oracles.loop_defect(rect, members) is None
    assert "outside" in oracles.loop_defect(rect, members - {("1", "1")})
    straight = [("0", "0"), ("0", "1"), ("0", "2"), ("1", "2"), ("1", "1"), ("1", "0"), ("0", "0")]
    assert "alternate" in oracles.loop_defect(straight, set(straight))


EXPECTED_SPANS = {
    "certify": {"cli.import", "cli.main", "exponents.parse", "gram.certificate", "gram.assemble"},
    "analyze": {"cli.import", "cli.main", "exponents.parse", "exponents.loop_search",
                "exponents.zigzag_length", "exponents.multiplicity", "exponents.density"},
    "residuals": {"cli.import", "cli.main", "ortho_solver.scan"},
}
FIRST_OP = {"certify": "nonoverlap_130_pos", "analyze": "lattice_5000", "residuals": "scan_unsolved"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_child_reports_spans(workload, tmp_path):
    ops = workloads.generate(workload, 1, tmp_path)
    op = next(o for o in ops if o["name"] == FIRST_OP[workload])
    argv = list(op["argv"])
    if op["points"]:
        argv += ["--points", str(tmp_path / op["points"])]
    result = tmp_path / "child.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), "1", *argv,
           "--out", str(tmp_path / "o.json")]
    tracer = tracing.Tracer()
    with tracer.span("op") as root:
        subprocess.run(cmd, check=True, timeout=120)
    data = json.loads(result.read_text())
    assert len(data["references"]) == 2 and min(data["references"]) > 0
    assert EXPECTED_SPANS[workload] <= {s[1] for s in data["spans"]}
    assert all(s[3] <= s[4] for s in data["spans"])
    tracer.merge(data, root)
    layers = tracing.layer_metrics(tracer, 0.0, 1.0)
    assert layers.keys() == tracing.LAYER_UNITS.keys()
    assert 0.5 < layers["trace.coverage_ratio"] <= 1.0
    if workload == "certify":
        assert layers["measures.transform_calls"] == 2 * layers["additive_space.exp_inner_calls"] > 0


def test_overhead_ratio_compares_each_operation_at_its_scaled_latency():
    import run

    # three operations; tracing costs 20%; the first untraced pass warms up
    # and the machine halves its speed, reference loop included, for the
    # second pair of passes
    ops = [{"name": name} for name in "abc"]
    passes = [(False, 1.0, [3.0, 2.0, 3.0]), (True, 1.0, [1.2, 2.4, 3.6]),
              (False, 2.0, [2.0, 4.0, 6.0]), (True, 2.0, [2.4, 4.8, 7.2]),
              (False, 1.0, [1.0, 2.0, 3.0])]
    records = [{"op": op, "traced": traced, "latency": latency,
                "reference": reference * speed.REF_NOMINAL_S}
               for traced, reference, latencies in passes for op, latency in zip(ops, latencies)]
    assert run.overhead_ratio(ops, records) == pytest.approx(1.2)
    assert run.op_latency(ops, [r for r in records if not r["traced"]]) == pytest.approx(
        {"a": 1.0, "b": 2.0, "c": 3.0})
