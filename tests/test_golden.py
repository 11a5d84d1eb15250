"""Committed report bodies of the CLI, checked case by case.

Each case in ``golden/cases.json`` names the points (a ``construct`` argv,
or a literal list; none for a command that reads no ``--points``), the argv
of the command that reads them and, for an error object, its ``exit_code``.
A case whose ``construct`` step is itself the error under test has no argv.
``golden/<name>.json`` holds the expected body, with ``meta`` dropped, the
whole error object, or for ``--format csv`` the report's rows, each cell as
the JSON number it spells or else as its string.  Strings, integers,
booleans, nulls and the shape of the body must match exactly; floats must
match to ``FLOAT_RTOL * max(1, |x|)``, because eigenvalues come from LAPACK
and can move in the last bits across numpy and BLAS builds.

Rewrite the expected bodies and print what changed with

    PYTHONPATH=src python tests/test_golden.py --regenerate

A change that regenerates them records the diff in CHANGES.md.  A case
marked ``"reference": true`` keeps the body it was committed with, another
code path's output that the current one is checked against, so the
regenerate skips it and says so; rewrite such a body by hand, if ever.
"""

import csv
import difflib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from addspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
FLOAT_RTOL = 1e-12


def _cell(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def run_case(case, workdir):
    """Body of the case's report, its error object or its CSV rows, run in
    process under ``workdir``; the command (or a failing construct step) must
    exit with the case's ``exit_code`` (0 if it names none)."""
    workdir = Path(workdir)
    points = workdir / "points.json"
    argv = list(case.get("argv", []))
    if "construct" in case:
        construct = list(case["construct"])
        if "measure" in case:
            measure = workdir / "measure.json"
            measure.write_text(json.dumps(case["measure"]), encoding="utf-8")
            construct += ["--measure", str(measure)]
        code = main(construct + ["--out", str(points)])
        if code or not argv:
            assert code == case.get("exit_code", 0) and not argv
            return json.loads(points.read_text(encoding="utf-8"))
        argv += ["--points", str(points)]
    elif "points" in case:
        points.write_text(json.dumps(case["points"]), encoding="utf-8")
        argv += ["--points", str(points)]
    out = workdir / "report"
    code = main(argv + ["--out", str(out)])
    assert code == case.get("exit_code", 0)
    text = out.read_text(encoding="utf-8")
    if not code and "csv" in argv:
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    report = json.loads(text)
    return report if code else report["body"]


def assert_same_body(got, want, path="body"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert isinstance(want, (int, float)) and not isinstance(want, bool), path
        assert math.isfinite(got) and math.isfinite(want), (path, got, want)
        assert abs(got - want) <= FLOAT_RTOL * max(1.0, abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (path, got)
        for key in want:
            assert_same_body(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, got)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_body(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def check_case(case, workdir):
    want = json.loads((GOLDEN / f"{case['name']}.json").read_text(encoding="utf-8"))
    assert_same_body(run_case(case, workdir), want)


GRAM = [c for c in CASES if c.get("argv", [""])[0] == "gram" and "exit_code" not in c]
OTHER = [c for c in CASES if c not in GRAM]


@pytest.mark.parametrize("case", GRAM, ids=[c["name"] for c in GRAM])
def test_gram_body_matches_golden(case, tmp_path):
    check_case(case, tmp_path)


@pytest.mark.parametrize("case", OTHER, ids=[c["name"] for c in OTHER])
def test_report_matches_golden(case, tmp_path):
    """Other subcommands' bodies, and error objects with their exit codes."""
    check_case(case, tmp_path)


@pytest.mark.parametrize("points", [[["1", "0"], ["1", "1"], ["2", "2"]],
                                    [["0", "0"], ["0", "1"], ["0", "2"]]])
def test_symmetric_t_3_pow_minus_50_matches_l(points, tmp_path):
    """t = 3^-50, about 1.4e-24, is L to within FLOAT_RTOL, though every
    reduction on its denominator runs on Python ints."""
    bodies = []
    for space in (f"Symmetric:t=1/{3**50}", "L"):
        body = run_case({"points": points, "argv": ["gram", "--space", space, "--parseval"]},
                        tmp_path)
        assert body.pop("space") == space
        bodies.append(body)
    assert_same_body(*bodies)


def regenerate():
    """Rewrite every expected body but the references' and print a unified
    diff of the changes."""
    for case in CASES:
        path = GOLDEN / f"{case['name']}.json"
        if case.get("reference"):
            print(f"skipped {path}: a reference body, kept as committed")
            continue
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        with tempfile.TemporaryDirectory() as tmp:
            new = json.dumps(run_case(case, tmp), sort_keys=True, indent=2) + "\n"
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(True), new.splitlines(True), str(path), str(path)))
        path.write_text(new, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    regenerate()
