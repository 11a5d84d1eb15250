import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

import addspec
from addspec.cli import _encode, build_parser, main, run
from addspec.ortho_solver import OrthSolutionFamily, residual, solve_families


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_construct_l_onb_emits_point_list(tmp_path):
    code, data = run_json(tmp_path, ["construct", "l-onb", "--N", "16"])
    assert code == 0
    assert isinstance(data, list) and len(data) == 33
    assert ["0", "0"] in data


def test_construct_then_gram_identity(tmp_path):
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "16", "--out", str(pts)]) == 0
    code, report = run_json(
        tmp_path, ["gram", "--space", "L", "--points", str(pts), "--check", "identity"]
    )
    assert code == 0
    assert report["body"]["identity_check"]["passed"] is True
    assert report["body"]["certificate"]["verdict"] == "riesz-consistent"


@pytest.mark.parametrize("sizes, assemblies", [(None, 1), ("5,17", 1), ("5,9", 2)])
def test_gram_identity_check_reuses_certificate_matrix(tmp_path, monkeypatch, sizes, assemblies):
    import addspec.cli
    import addspec.gram

    calls = []

    def counted(assemble):
        def wrapper(*args):
            calls.append(len(args[1]))
            return assemble(*args)

        return wrapper

    for mod in (addspec.cli, addspec.gram):
        monkeypatch.setattr(mod, "assemble", counted(mod.assemble))
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "8", "--out", str(pts)]) == 0
    args = ["gram", "--space", "L", "--points", str(pts), "--check", "identity"]
    code, report = run_json(tmp_path, args + (["--sizes", sizes] if sizes else []))
    assert code == 0
    assert report["body"]["identity_check"]["passed"] is True
    # the certificate's matrix covers all 17 points unless the ladder stops short
    assert len(calls) == assemblies


def test_far_offset_mirror_identity(tmp_path):
    pts = tmp_path / "mirror.json"
    k = "1000000000"
    assert main(["construct", "mirror", "--k", k, "--N", "64", "--out", str(pts)]) == 0
    code, report = run_json(
        tmp_path,
        ["gram", "--space", f"Symmetric:t={k}", "--points", str(pts), "--check", "identity"],
    )
    assert code == 0
    assert report["body"]["identity_check"]["passed"] is True
    assert report["body"]["certificate"]["verdict"] == "riesz-consistent"


def test_gram_parseval_family(tmp_path):
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "8", "--out", str(pts)]) == 0
    code, report = run_json(
        tmp_path, ["gram", "--space", "L", "--points", str(pts), "--parseval"]
    )
    assert code == 0
    residuals = {row["test_fn"]: row["residual"] for row in report["body"]["parseval"]}
    assert abs(residuals["constant"]) < 1e-12  # the constant is a basis element
    assert residuals["linear"] > 0  # genuine tail energy remains
    assert residuals["cubic"] > 0


def test_analyze_reports_loop(tmp_path):
    pts = tmp_path / "rect.json"
    pts.write_text(json.dumps([["1", "1"], ["1", "3"], ["3", "1"], ["3", "3"]]))
    code, report = run_json(tmp_path, ["analyze", "--points", str(pts)])
    assert code == 0
    body = report["body"]
    assert body["loop"] is not None and body["loop"]["length"] == 4
    assert body["max_zigzag_length"] == "unbounded-by-loop"
    assert body["multiplicity"] == 2


def test_analyze_density_sweep(tmp_path):
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "64", "--out", str(pts)]) == 0
    code, report = run_json(
        tmp_path, ["analyze", "--points", str(pts), "--window", "20"]
    )
    assert code == 0
    sweep = report["body"]["density"]["x"]
    assert [entry["window"] for entry in sweep] == [10.0, 20.0, 40.0]
    mid = sweep[1]["estimate"]
    assert abs(mid - 2.0) <= 1 / 20 + 1e-12


def test_solve_oe_t_space_scan(tmp_path):
    code, report = run_json(
        tmp_path,
        [
            "solve-oe", "--space", "T", "--scan",
            "--grid", "500", "--box", "0,1,0,1",
        ],
    )
    assert code == 0
    body = report["body"]
    assert [f["kind"] for f in body["families"]] == ["integer-lattice"]
    assert body["scan"]["min_residual"] > 1e-6


def test_solve_oe_classify_symmetric(tmp_path):
    code, report = run_json(
        tmp_path,
        ["solve-oe", "--t=-1/3", "--t-prime=-1/3", "--classify"],
    )
    assert code == 0
    body = report["body"]
    cls = body["classification"]
    assert cls["verdict"] == "fails Landau necessary condition"
    assert cls["density_exact"] == "2/3"
    assert body["t"] == "-1/3"
    assert cls["candidate_step"] == "3/2"
    assert body["families"][1]["offset"] == "3/2"
    assert body["families"][1]["step"] == "3"


def test_encode_writes_rationals_and_records():
    assert _encode(Fraction(-3, 2)) == "-3/2"
    assert _encode(Fraction(4)) == "4"
    fam = OrthSolutionFamily("antidiagonal-half-integer", Fraction(1, 2), Fraction(1), True)
    assert _encode(fam) == {
        "kind": "antidiagonal-half-integer",
        "offset": Fraction(1, 2),
        "step": Fraction(1),
        "sign_coupled": True,
    }
    assert json.dumps(fam, default=_encode, sort_keys=True) == (
        '{"kind": "antidiagonal-half-integer", "offset": "1/2", "sign_coupled": true, "step": "1"}'
    )


@pytest.mark.parametrize("value", [1 + 2j, np.bool_(True), OrthSolutionFamily])
def test_encode_rejects_other_values(value):
    with pytest.raises(TypeError):
        _encode(value)


def test_solve_oe_builds_residual_table_only_for_csv(tmp_path, monkeypatch):
    import addspec.cli

    calls = []

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(addspec.cli, "residual", counted)
    code, _ = run_json(tmp_path, ["solve-oe", "--space", "L"])
    assert code == 0 and calls == []
    out = tmp_path / "so.csv"
    assert main(["solve-oe", "--space", "L", "--format", "csv", "--out", str(out)]) == 0
    assert len(calls) == 200
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("lambda1", "lambda2", "residual"))
    zero = Fraction(0)
    for fam in solve_families(zero, zero):
        for l1, l2 in fam.members(100):
            writer.writerow((float(l1), float(l2), residual(zero, zero, float(l1), float(l2))))
    assert out.read_text() == buf.getvalue()


def test_solve_oe_unsolved_is_scan_only(tmp_path):
    code, report = run_json(tmp_path, ["solve-oe", "--space", "Plus"])
    assert code == 0
    body = report["body"]
    assert body["families"] == []
    assert "scan data only" in body["note"]


def test_demo_collinear(tmp_path):
    code, report = run_json(
        tmp_path, ["demo-collinear", "--a", "1/2", "--N", "16", "--seed", "3"]
    )
    assert code == 0
    body = report["body"]
    assert body["constant_g"]["ratio"] < 1e-10
    assert body["random_g"]["ratio"] < 1e-10


def test_report_bodies_are_byte_identical(tmp_path):
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "8", "--out", str(pts)]) == 0
    args = ["gram", "--space", "L", "--points", str(pts)]
    _, first = run_json(tmp_path, args, name="a.json")
    _, second = run_json(tmp_path, args, name="b.json")
    a = json.dumps(first["body"], sort_keys=True).encode()
    b = json.dumps(second["body"], sort_keys=True).encode()
    assert a == b


def test_csv_output(tmp_path):
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "4", "--out", str(pts)]) == 0
    out = tmp_path / "sweep.csv"
    code = main(
        ["gram", "--space", "L", "--points", str(pts), "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "size,lambda_min,lambda_max"
    assert len(lines) > 1


def test_construct_csv_points(tmp_path):
    out = tmp_path / "pts.csv"
    assert main(["construct", "l-onb", "--N", "1", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == [
        "a,b", "-1/2,1/2", "0,0", "1/2,-1/2",
    ]


def test_malformed_points_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    out = tmp_path / "err.json"
    code = main(["analyze", "--points", str(bad), "--out", str(out)])
    assert code == 3
    err = json.loads(out.read_text())
    assert err["error"]["code"] == "malformed-input"


def test_duplicate_points_rejected(tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps([["0", "0"], ["0", "0"]]))
    out = tmp_path / "err.json"
    assert main(["analyze", "--points", str(bad), "--out", str(out)]) == 3


@pytest.mark.parametrize(
    "data, message",
    [
        ({"a": 1}, "point set must be a JSON list of pairs"),
        ([["1"]], "bad point entry: ['1']"),
        ([["x", "1"]], "not a rational: 'x'"),
        ([["1/0", "1"]], "not a rational: '1/0'"),
        ([[[1], "1"]], "not a rational: [1]"),
        ([[float("nan"), "1"]], "not a finite rational: nan"),
        ([["1/2", "1"], ["2/4", "1"]], "duplicate points in exponent set"),
    ],
)
def test_point_file_error_messages(tmp_path, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, err = run_json(tmp_path, ["analyze", "--points", str(bad)], name="err.json")
    assert code == 3
    assert err == {"error": {"code": "malformed-input", "message": message}}


def test_overlapping_support_exit_code(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([{"left": "0", "right": "1", "weight": "1"}]))
    out = tmp_path / "err.json"
    code = main(
        ["construct", "nonoverlap", "--measure", str(m), "--N", "2", "--out", str(out)]
    )
    assert code == 4
    err = json.loads(out.read_text())
    assert err["error"]["code"] == "overlapping-support"


def test_unsolved_classify_exit_code(tmp_path):
    out = tmp_path / "err.json"
    code = main(
        ["solve-oe", "--space", "Plus", "--classify", "--out", str(out)]
    )
    assert code == 5
    assert json.loads(out.read_text())["error"]["code"] == "unsolved-case"


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_nonoverlap_construct_pipeline(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([{"left": "1", "right": "2", "weight": "1"}]))
    pts = tmp_path / "spec.json"
    code = main(["construct", "nonoverlap", "--measure", str(m), "--N", "16", "--out", str(pts)])
    assert code == 0
    assert "tau=1/4" in capsys.readouterr().err
    data = json.loads(pts.read_text())
    assert len(data) == 66
    code, report = run_json(
        tmp_path,
        ["gram", "--space", "Symmetric:t=1", "--points", str(pts), "--sizes", "34,66"],
    )
    assert code == 0
    assert report["body"]["certificate"]["verdict"] == "riesz-consistent"


@pytest.mark.parametrize(
    "space, t, t_prime",
    [
        ("L", "0", "0"),
        ("Plus", "-1/2", "-1/2"),
        ("T", "-1/2", "-1"),
        ("Symmetric:t=-1/3", "-1/3", "-1/3"),
    ],
)
def test_solve_oe_preset_matches_explicit_parameters(tmp_path, space, t, t_prime):
    extra = ["--scan", "--grid", "40"]
    code, by_name = run_json(tmp_path, ["solve-oe", "--space", space] + extra, "a.json")
    assert code == 0
    code, by_value = run_json(
        tmp_path, ["solve-oe", f"--t={t}", f"--t-prime={t_prime}"] + extra, "b.json"
    )
    assert code == 0
    assert by_name["body"] == by_value["body"]
    code, err = run_json(tmp_path, ["solve-oe", "--space", space + "x"], "c.json")
    assert code == 3 and err["error"]["code"] == "malformed-input"


def test_cached_parser_leaks_nothing_between_calls(tmp_path):
    assert build_parser() is build_parser()
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "4", "--out", str(pts)]) == 0
    gram = ["gram", "--space", "L", "--points", str(pts)]
    calls = [gram + ["--check", "identity"], gram, ["analyze", "--points", str(pts)],
             gram + ["--parseval"]]
    for k, argv in enumerate(calls * 2):
        _, cached = run_json(tmp_path, argv)
        fresh_out = tmp_path / f"fresh{k}.json"
        assert run(build_parser.__wrapped__().parse_args(argv + ["--out", str(fresh_out)])) == 0
        fresh = json.loads(fresh_out.read_text(encoding="utf-8"))
        assert cached["body"] == fresh["body"], argv
    assert "identity_check" not in cached["body"] and "parseval" in cached["body"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--window", "nan"], "window must be finite, got nan"),
        (["analyze", "--window", "inf"], "window must be finite, got inf"),
        (["solve-oe", "--space", "L", "--classify", "--window", "nan"],
         "window must be finite, got nan"),
        (["solve-oe", "--t=-1/4", "--t-prime=-1/4", "--classify", "--window", "nan"],
         "window must be finite, got nan"),
        (["solve-oe", "--space", "L", "--scan", "--box=0,inf,0,1"],
         "scan box must be finite, got ((0.0, inf), (0.0, 1.0))"),
    ],
)
def test_non_finite_inputs_are_malformed(tmp_path, argv, message):
    pts = tmp_path / "onb.json"
    assert main(["construct", "l-onb", "--N", "4", "--out", str(pts)]) == 0
    if argv[0] == "analyze":
        argv = argv + ["--points", str(pts)]
    code, err = run_json(tmp_path, argv, name="err.json")
    assert code == 3
    assert err == {"error": {"code": "malformed-input", "message": message}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-oe", "--space", "L", "--classify", "--window", "-5"], "window must be positive"),
        (["solve-oe", "--t=-1/4", "--t-prime=-1/4", "--classify", "--window", "-5"],
         "window must be positive"),
        (["solve-oe", "--space", "L", "--classify", "--window", "0"], "window must be positive"),
        (["demo-collinear", "--a", "1/2", "--N", "-3"], "N must be non-negative, got -3"),
    ],
)
def test_out_of_range_inputs_are_malformed(tmp_path, argv, message):
    code, err = run_json(tmp_path, argv, name="err.json")
    assert code == 3
    assert err == {"error": {"code": "malformed-input", "message": message}}


def test_demo_collinear_single_point(tmp_path):
    code, report = run_json(tmp_path, ["demo-collinear", "--a", "1/2", "--N", "0"])
    assert code == 0
    for key in ("constant_g", "random_g"):
        assert report["body"][key]["n_points"] == 1
        assert report["body"][key]["ratio"] < 1e-10


# ---------------------------------------------------------------------------
# Per-command imports, each checked in a fresh interpreter.
# ---------------------------------------------------------------------------

# The names the commands read from the modules this one defers, by module.
DEFERRED = {
    "additive_space": ("space_from_name",),
    "constructions": (
        "integer_base",
        "l_space_onb",
        "lev_style_set",
        "mirror_spectrum",
        "nonoverlap_riesz_spectrum",
    ),
    "gram": (
        "assemble",
        "collinear_failure_demo",
        "constant_pair",
        "identity_deviation",
        "monomial_pair",
        "parseval_residual",
        "riesz_section_certificate",
    ),
    "ortho_solver": (
        "classify_case",
        "classify_spectrum_candidates",
        "residual",
        "scan_residual",
        "solve_families",
    ),
}

RUN_COMMANDS = (
    "import json, sys\n"
    "for name in json.loads(sys.argv[2]):\n"
    "    sys.modules[f'addspec.{name}'] = None\n"
    "from addspec.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    if main(argv):\n"
    "        raise SystemExit(f'{argv} failed')\n"
    "print(json.dumps([m for m in json.loads(sys.argv[3]) if sys.modules.get(f'addspec.{m}')]))\n"
)


@pytest.fixture
def command_inputs(tmp_path):
    """A point file and a measure file for the commands of the import tests."""
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0, 0], [0, 1], [1, 1], [1, 0], [2, 5], ["1/2", "-1/3"]]))
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps([{"left": "1", "right": "2", "weight": "1"}]))
    return pts, measure


def commands_of(kind, pts, measure):
    return {
        "analyze": [["analyze", "--points", str(pts)]],
        "construct": [["construct", "l-onb", "--N", "3"], ["construct", "mirror", "--k", "5"],
                      ["construct", "lev", "--q", "3", "--depth", "4"],
                      ["construct", "nonoverlap", "--measure", str(measure), "--N", "4"]],
        "gram": [["gram", "--space", "L", "--points", str(pts), "--sizes", "2,4",
                  "--check", "identity", "--parseval"]],
        "solve-oe": [["solve-oe", "--space", "L", "--scan", "--grid", "40", "--classify"],
                     ["solve-oe", "--t=-1/3", "--t-prime=-1/3", "--format", "csv"]],
        "demo-collinear": [["demo-collinear", "--a", "1/2", "--N", "8"]],
    }[kind]


# the deferred modules each command loads; every other one is blocked below
LOADS = {
    "analyze": [],
    "construct": ["constructions"],
    "gram": ["additive_space", "gram"],
    "solve-oe": ["additive_space", "ortho_solver"],
    "demo-collinear": ["additive_space", "gram"],
}


@pytest.mark.parametrize("kind", LOADS)
def test_command_loads_only_the_modules_it_uses(tmp_path, fresh_python, command_inputs, kind):
    commands = [argv + ["--out", str(tmp_path / f"{i}.out")]
                for i, argv in enumerate(commands_of(kind, *command_inputs))]
    proc = fresh_python(RUN_COMMANDS, json.dumps(commands), "[]", json.dumps(list(DEFERRED)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == LOADS[kind]


@pytest.mark.parametrize("kind", LOADS)
def test_command_bodies_with_unused_modules_blocked(tmp_path, fresh_python, command_inputs, kind):
    commands = commands_of(kind, *command_inputs)
    blocked = [module for module in DEFERRED if module not in LOADS[kind]]
    runs = [argv + ["--out", str(tmp_path / f"blocked_{i}.out")] for i, argv in enumerate(commands)]
    proc = fresh_python(RUN_COMMANDS, json.dumps(runs), json.dumps(blocked), json.dumps(list(DEFERRED)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == LOADS[kind]
    for i, argv in enumerate(commands):
        normal = tmp_path / f"normal_{i}.out"
        assert main(argv + ["--out", str(normal)]) == 0
        got, want = (path.read_text() for path in (tmp_path / f"blocked_{i}.out", normal))
        if "--format" not in argv and kind != "construct":
            got, want = (json.loads(text)["body"] for text in (got, want))
        assert got == want, argv


def test_quadrature_commands_leave_numpy_polynomial_unloaded(
    tmp_path, fresh_python, command_inputs
):
    # the test-function integrals are exact moments, with no numpy.polynomial rule
    commands = [argv + ["--out", str(tmp_path / f"{i}.out")]
                for i, argv in enumerate(commands_of("gram", *command_inputs)
                                         + commands_of("demo-collinear", *command_inputs))]
    assert any("--parseval" in argv for argv in commands)
    script = (
        "import json, sys\n"
        "from addspec.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))))\n"
    )
    proc = fresh_python(script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_replaced_deferred_names_are_called(tmp_path, fresh_python, command_inputs):
    names = [name for module in DEFERRED for name in DEFERRED[module]]
    assert all(addspec._HOME[name] == module for module in DEFERRED for name in DEFERRED[module])
    commands = [argv + ["--out", str(tmp_path / f"{i}.out")]
                for i, argv in enumerate(argv for kind in LOADS
                                         for argv in commands_of(kind, *command_inputs))]
    script = (
        "import json, sys\n"
        "import pytest\n"
        "import addspec.cli\n"
        "names, commands, deferred = (json.loads(arg) for arg in sys.argv[1:])\n"
        "assert not [m for m in deferred if f'addspec.{m}' in sys.modules]\n"
        "calls = dict.fromkeys(names, 0)\n"
        "def counted(name, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    for name in names:\n"
        "        mp.setattr(addspec.cli, name, counted(name, getattr(addspec.cli, name)))\n"
        "    for argv in commands:\n"
        "        assert addspec.cli.main(argv) == 0, argv\n"
        "print(json.dumps(calls))\n"
    )
    proc = fresh_python(script, json.dumps(names), json.dumps(commands), json.dumps(list(DEFERRED)))
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert [name for name in names if not calls[name]] == []
    assert calls["residual"] == 200 and calls["collinear_failure_demo"] == 2
