"""Command-line front end.

Subcommands: analyze, gram, construct, solve-oe, demo-collinear.  Reports
separate a deterministic ``body`` (identical config -> identical bytes) from
a ``meta`` block carrying version and timing; ``construct`` emits the plain
point-set JSON list so its output feeds straight back into ``--points``.
Errors surface as a JSON object with a machine-readable code and a distinct
exit code per class.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .additive_space import space_from_name
from .constructions import (
    integer_base,
    l_space_onb,
    lev_style_set,
    mirror_spectrum,
    nonoverlap_riesz_spectrum,
)
from .errors import MalformedInputError, ToolkitError
from .exponents import (
    ExponentSet,
    find_zigzag_loop,
    lower_beurling_density,
    max_zigzag_length,
    multiplicity,
    project,
)
from .gram import (
    assemble,
    collinear_failure_demo,
    constant_pair,
    identity_deviation,
    monomial_pair,
    parseval_residual,
    riesz_section_certificate,
)
from .measures import IntervalUnionMeasure, as_fraction
from .ortho_solver import (
    classify_case,
    classify_spectrum_candidates,
    residual,
    scan_residual,
    solve_families,
)

IDENTITY_TOL = 1e-12


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def load_points(path: str) -> ExponentSet:
    return ExponentSet.from_json(_load_json(path))


def load_measure(path: str) -> IntervalUnionMeasure:
    return IntervalUnionMeasure.from_json(_load_json(path))


def _parse_box(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise MalformedInputError("box must be 'x0,x1,y0,y1'")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError as exc:
        raise MalformedInputError(f"bad box {text!r}") from exc
    return ((x0, x1), (y0, y1))


def _parse_sizes(text: Optional[str], n: int) -> List[int]:
    if text is None:
        # nested ladder by default: a single section cannot show stabilization
        return sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2), n})
    try:
        sizes = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise MalformedInputError(f"bad sizes {text!r}") from exc
    return sizes


# ---------------------------------------------------------------------------
# Command bodies.
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace):
    es = load_points(args.points)
    mult, per_line = multiplicity(es)
    loop = find_zigzag_loop(es)
    body = {
        "n_points": len(es),
        "multiplicity": mult,
        "loop": None
        if loop is None
        else {
            "length": loop.length,
            "vertices": [[str(p.a), str(p.b)] for p in loop.vertices],
        },
        "max_zigzag_length": max_zigzag_length(es),
        "density": {},
    }
    windows = [args.window / 2, args.window, 2 * args.window]
    rows = []
    for axis in ("x", "y"):
        proj = project(es, axis)
        sweep = []
        for w in windows:
            est = lower_beurling_density(proj, w, args.anchors)
            sweep.append({"window": w, "estimate": est})
            rows.append((axis, w, est))
        body["density"][axis] = sweep
    return body, ("axis", "window", "estimate"), rows


def _cmd_gram(args: argparse.Namespace):
    space = space_from_name(args.space)
    es = load_points(args.points)
    pairs = es.points
    sizes = _parse_sizes(args.sizes, len(pairs))
    cert = riesz_section_certificate(space, pairs, sizes)
    body = {
        "space": args.space,
        "n_points": len(pairs),
        "certificate": cert.to_body(),
    }
    if args.check == "identity":
        # reuse the certificate's matrix; it holds only the prefix its sizes
        # need, so a ladder ending below n assembles every point once more
        full = cert.gram if cert.gram.size == len(pairs) else assemble(space, pairs)
        dev = identity_deviation(full)
        body["identity_check"] = {
            "max_abs_deviation": dev,
            "tolerance": IDENTITY_TOL,
            "passed": bool(dev < IDENTITY_TOL),
        }
    if args.parseval:
        fams = [
            ("constant", constant_pair(space)),
            ("linear", monomial_pair(space, 1, 1)),
            ("cubic", monomial_pair(space, 3, 3)),
        ]
        body["parseval"] = [
            {"test_fn": name, "residual": parseval_residual(space, pairs, fn)}
            for name, fn in fams
        ]
    rows = list(zip(cert.sizes, cert.lambda_min, cert.lambda_max))
    return body, ("size", "lambda_min", "lambda_max"), rows


def _cmd_construct(args: argparse.Namespace):
    if args.kind == "l-onb":
        es = l_space_onb(args.N)
    elif args.kind == "mirror":
        es = mirror_spectrum(args.k, args.N)
    elif args.kind == "lev":
        es = lev_style_set(args.q, args.depth)
    elif args.kind == "nonoverlap":
        if args.measure is None:
            raise MalformedInputError("construct nonoverlap needs --measure")
        m = load_measure(args.measure)
        spec = nonoverlap_riesz_spectrum(m, integer_base(args.N))
        print(
            f"tau={spec.tau} epsilon={spec.epsilon} base={len(spec.base)} points",
            file=sys.stderr,
        )
        es = spec.pairs
    else:
        raise MalformedInputError(f"unknown construct kind {args.kind!r}")
    rows = [(str(p.a), str(p.b)) for p in es.points]
    return es.to_json(), ("a", "b"), rows


def _cmd_solve_oe(args: argparse.Namespace):
    if args.t is not None or args.t_prime is not None:
        if args.t is None or args.t_prime is None:
            raise MalformedInputError("give both --t and --t-prime")
        t, tp = as_fraction(args.t), as_fraction(args.t_prime)
    elif args.space is not None:
        space = space_from_name(args.space)
        t, tp = space.mu.pieces[0][0], space.nu.pieces[0][0]
    else:
        raise MalformedInputError("give --space or --t/--t-prime")
    fams = solve_families(t, tp)
    case = classify_case(t, tp)
    body = {
        "t": str(t),
        "t_prime": str(tp),
        "case": case[0] if case[0] != "symmetric" else f"symmetric:a={case[1]}",
        "families": [
            {
                "kind": f.kind,
                "offset": str(f.offset),
                "step": str(f.step),
                "sign_coupled": f.sign_coupled,
            }
            for f in fams
        ],
    }
    if not fams:
        body["note"] = "outside the solved case table; scan data only"
    rows = []
    header = ("lambda1", "lambda2", "residual")
    for fam in fams:
        for l1, l2 in fam.members(100):
            rows.append((float(l1), float(l2), residual(t, tp, float(l1), float(l2))))
    if args.scan:
        result = scan_residual(t, tp, _parse_box(args.box), args.grid, families=fams)
        body["scan"] = result.to_body()
        rows.append((result.argmin[0], result.argmin[1], result.min_residual))
    if args.classify:
        body["classification"] = classify_spectrum_candidates(t, args.window, args.anchors).to_body()
    return body, header, rows


def _cmd_demo_collinear(args: argparse.Namespace):
    a = as_fraction(args.a)
    const = collinear_failure_demo(a, args.N)
    rand = collinear_failure_demo(a, args.N, g="random", seed=args.seed)
    body = {
        "slope": str(a),
        "N": args.N,
        "seed": args.seed,
        "constant_g": const.to_body(),
        "random_g": rand.to_body(),
    }
    rows = [
        ("constant", const.ratio),
        ("random", rand.ratio),
    ]
    return body, ("test_fn", "ratio"), rows


_COMMANDS = {
    "analyze": _cmd_analyze,
    "gram": _cmd_gram,
    "construct": _cmd_construct,
    "solve-oe": _cmd_solve_oe,
    "demo-collinear": _cmd_demo_collinear,
}


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        body, header, rows = _COMMANDS[args.command](args)
    except ToolkitError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        _emit(args, json.dumps(error, sort_keys=True, indent=2))
        return exc.exit_code

    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _emit(args, buf.getvalue())
        return 0
    if args.command == "construct":
        # plain point-set JSON so the output is directly ingestible
        _emit(args, json.dumps(body, indent=2))
        return 0
    report = {
        "body": body,
        "meta": {
            "tool": "addspec",
            "version": __version__,
            "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
        },
    }
    _emit(args, json.dumps(report, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="addspec",
        description="Certificates for exponential bases of two-axis additive measures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def io_flags(sp):
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        sp.add_argument("--seed", type=int, default=0)

    pa = sub.add_parser("analyze", help="multiplicity, loops, zigzag length, densities")
    pa.add_argument("--points", required=True)
    pa.add_argument("--window", type=float, default=20.0)
    pa.add_argument("--anchors", type=int, default=64)
    io_flags(pa)

    pg = sub.add_parser("gram", help="section certificates and identity checks")
    pg.add_argument("--space", required=True)
    pg.add_argument("--points", required=True)
    pg.add_argument("--sizes", default=None, help="comma-separated section sizes")
    pg.add_argument("--check", choices=["identity"], default=None)
    pg.add_argument("--parseval", action="store_true")
    io_flags(pg)

    pc = sub.add_parser("construct", help="emit a constructed point set as JSON")
    pc.add_argument("kind", choices=["l-onb", "mirror", "lev", "nonoverlap"])
    pc.add_argument("--N", type=int, default=16)
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--q", type=int, default=2)
    pc.add_argument("--depth", type=int, default=7)
    pc.add_argument("--measure", default=None, help="measure literal JSON path")
    io_flags(pc)

    ps = sub.add_parser("solve-oe", help="orthogonality families, scans, classification")
    ps.add_argument("--space", default=None)
    ps.add_argument("--t", default=None)
    ps.add_argument("--t-prime", dest="t_prime", default=None)
    ps.add_argument("--scan", action="store_true")
    ps.add_argument("--classify", action="store_true")
    ps.add_argument("--grid", type=int, default=400)
    ps.add_argument("--box", default="-4,4,-4,4")
    ps.add_argument("--window", type=float, default=100.0)
    ps.add_argument("--anchors", type=int, default=64)
    io_flags(ps)

    pd = sub.add_parser("demo-collinear", help="line spectra fail the lower frame bound")
    pd.add_argument("--a", default="1", help="slope in (0, 1], as p/q")
    pd.add_argument("--N", type=int, default=32)
    io_flags(pd)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
