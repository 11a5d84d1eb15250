import json

import pytest

from addspec.cli import main


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
    cls = report["body"]["classification"]
    assert cls["verdict"] == "fails Landau necessary condition"
    assert cls["density_exact"] == "2/3"


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
