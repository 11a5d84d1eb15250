"""The benchmark tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces module attributes of the program
(``addspec.additive_space.measure_integral``, ``addspec.cli.assemble`` ...)
with counting wrappers, so renaming or deleting one of them breaks a traced
benchmark run.  These tests load the tracer from its file, without changing
it, and trace one ``demo-collinear`` run and one ``gram --check identity``
run in process.
"""

import importlib
import importlib.util
from pathlib import Path

from addspec.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_collinear_demo_and_restores_every_name(tmp_path):
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, *_ in tracing.SPANS + tracing.SUMMED]
    before = [getattr(importlib.import_module(m), a) for m, a in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["demo-collinear", "--a", "34/69", "--N", "64",
                     "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    after = [getattr(importlib.import_module(m), a) for m, a in targets]
    assert all(x is y for x, y in zip(before, after))
    # per demo: two frame-coefficient integrals and two norms, each norm one
    # nested integral; the demo runs with a constant and a random g
    quadrature = [(outermost, calls) for (_, name, outermost), (calls, _)
                  in tracer.summed.items() if name == "additive_space.quadrature"]
    assert sum(calls for _, calls in quadrature) == 12
    assert sum(calls for outermost, calls in quadrature if outermost) == 8
    assert sum(span[1] == "gram.collinear" for span in tracer.spans) == 2


def test_tracer_counts_a_gram_identity_check(tmp_path):
    """The certify counters keep reading once ``assemble`` takes the set:
    one certificate, one assembly of n^2 entries reused by the identity
    check, and one parse of n points."""
    tracing = load_tracing()
    points = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "32", "--out", str(points)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["gram", "--space", "L", "--points", str(points), "--check", "identity",
                     "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = {}
    for _, name, _, _, _, counts in tracer.spans:
        spans.setdefault(name, []).append(counts)
    n = 65
    assert [c["sections"] for c in spans["gram.certificate"]] == [4]
    assert [c["entries"] for c in spans["gram.assemble"]] == [n**2]
    assert spans["exponents.parse"] == [{"points": n}]
