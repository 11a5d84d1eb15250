"""Command-line front end.

Subcommands: analyze, gram, construct, solve-oe, demo-collinear.  Reports
separate a deterministic ``body`` (identical config -> identical bytes) from
a ``meta`` block carrying version and timing; ``construct`` emits the plain
point-set JSON list so its output feeds straight back into ``--points``.
Every report body goes through one encoder, ``_encode``: an exact rational
prints as its ``"p/q"`` string and a result record as a dict of its fields, so
the commands put Fractions and records into their bodies as they are.  Errors
surface as a JSON object with a machine-readable code and a distinct exit
code per class.

This module imports only ``errors``, ``exact`` and ``exponents``.  The
names it uses from ``measures``, ``gram``, ``ortho_solver``,
``additive_space`` and ``constructions`` go through the package's first-use
loader when a command first needs them, so analyze loads none of those
modules and construct only ``constructions`` and ``measures``.  No module
loads numpy on import, so both run on the standard library alone.  Analyze
reads each line's float from its exact key, and builds a Fraction only for
the points of a loop it prints; gram hands the loaded set itself to the
certificate and to the Parseval residuals, which read their grids from the
same keys.  No command loads ``dataclasses``: every result record is an
``exact.Frozen`` value, which ``_encode`` writes as a dict of its
``_fields``.  Analyze loads no ``csv`` either (nor the ``inspect`` that
numpy imports): ``run`` imports ``csv`` only for ``--format csv``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .errors import MalformedInputError, ToolkitError, UnsolvedCaseError
from .exponents import (
    ExponentSet,
    find_zigzag_loop,
    lower_beurling_density,
    max_zigzag_length,
    multiplicity,
)
from .exact import Frozen, as_fraction

# The commands read the names of measures, gram, ortho_solver, additive_space
# and constructions as attributes of this module, ``_cli.assemble(...)``: the
# module ``__getattr__`` below imports each on first use, and a replacement
# set on this module (a test's or the benchmark tracer's wrapper) is the one
# called.
_package = sys.modules[__package__]
_cli = sys.modules[__name__]


def __getattr__(name):
    """Import a package export on first use, through the package's loader,
    and bind it here, so later lookups are plain global reads."""
    if name not in _package._HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_package, name)
    return value


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


def load_measure(path: str):
    return _cli.IntervalUnionMeasure.from_json(_load_json(path))


def _parse_box(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise MalformedInputError("box must be 'x0,x1,y0,y1'")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError as exc:
        raise MalformedInputError(f"bad box {text!r}") from exc
    # a box past the float range stays float, for scan_residual to reject
    if abs(x1 - x0) <= sys.float_info.max and abs(y1 - y0) <= sys.float_info.max:
        x0, x1, y0, y1 = map(as_fraction, parts)  # exact: 0.37 is 37/100
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
    mult, _ = multiplicity(es, per_line=False)
    loop = find_zigzag_loop(es)
    body = {
        "n_points": len(es),
        "multiplicity": mult,
        "loop": None
        if loop is None
        else {
            "length": loop.length,
            "vertices": [[p.a, p.b] for p in loop.vertices],
        },
        "max_zigzag_length": max_zigzag_length(es),
        "density": {},
    }
    windows = [args.window / 2, args.window, 2 * args.window]
    rows = []
    for axis in ("x", "y"):
        # floated and sorted once for the three windows; lower_beurling_density
        # re-floats and re-sorts it on each call, a linear pass on sorted input
        proj = sorted(es.axis_floats(axis))
        sweep = []
        for w in windows:
            est = lower_beurling_density(proj, w, args.anchors)
            sweep.append({"window": w, "estimate": est})
            rows.append((axis, w, est))
        body["density"][axis] = sweep
    return body, ("axis", "window", "estimate"), rows


def _cmd_gram(args: argparse.Namespace):
    space = _cli.space_from_name(args.space)
    es = load_points(args.points)
    sizes = _parse_sizes(args.sizes, len(es))
    cert = _cli.riesz_section_certificate(space, es, sizes)
    body = {
        "space": args.space,
        "n_points": len(es),
        "certificate": cert.to_body(),
    }
    if args.check == "identity":
        # reuse the certificate's matrix; it holds only the prefix its sizes
        # need, so a ladder ending below n assembles every point once more
        full = cert.gram if cert.gram.size == len(es) else _cli.assemble(space, es)
        dev = _cli.identity_deviation(full)
        body["identity_check"] = {
            "max_abs_deviation": dev,
            "tolerance": IDENTITY_TOL,
            "passed": bool(dev < IDENTITY_TOL),
        }
    if args.parseval:
        fams = [
            ("constant", _cli.monomial_pair(space, 0, 0)),
            ("linear", _cli.monomial_pair(space, 1, 1)),
            ("cubic", _cli.monomial_pair(space, 3, 3)),
        ]
        body["parseval"] = [
            {"test_fn": name, "residual": _cli.parseval_residual(space, es, fn)}
            for name, fn in fams
        ]
    rows = list(zip(cert.sizes, cert.lambda_min, cert.lambda_max))
    return body, ("size", "lambda_min", "lambda_max"), rows


def _cmd_construct(args: argparse.Namespace):
    if args.kind == "l-onb":
        es = _cli.l_space_onb(args.N)
    elif args.kind == "mirror":
        es = _cli.mirror_spectrum(args.k, args.N)
    elif args.kind == "lev":
        es = _cli.lev_style_set(args.q, args.depth)
    elif args.kind == "nonoverlap":
        if args.measure is None:
            raise MalformedInputError("construct nonoverlap needs --measure")
        m = load_measure(args.measure)
        spec = _cli.nonoverlap_riesz_spectrum(m, _cli.integer_base(args.N))
        print(
            f"tau={spec.tau} epsilon={spec.epsilon} base={len(spec.base)} points",
            file=sys.stderr,
        )
        es = spec.pairs
    else:
        raise MalformedInputError(f"unknown construct kind {args.kind!r}")
    rows = [(p.a, p.b) for p in es.points]
    return es.to_json(), ("a", "b"), rows


def _cmd_solve_oe(args: argparse.Namespace):
    if args.t is not None or args.t_prime is not None:
        if args.t is None or args.t_prime is None:
            raise MalformedInputError("give both --t and --t-prime")
        t, tp = as_fraction(args.t), as_fraction(args.t_prime)
    elif args.space is not None:
        space = _cli.space_from_name(args.space)
        t, tp = space.mu.pieces[0][0], space.nu.pieces[0][0]
    else:
        raise MalformedInputError("give --space or --t/--t-prime")
    fams = _cli.solve_families(t, tp)
    case = _cli.classify_case(t, tp)
    # every symmetric case has t' = t; classify_spectrum_candidates rejects an unsolved t
    if args.classify and tp != t and _cli.classify_case(t, t)[0] != "unsolved":
        raise UnsolvedCaseError(f"t={t}, t'={tp} is not a solved symmetric case")
    body = {
        "t": t,
        "t_prime": tp,
        "case": case[0] if case[0] != "symmetric" else f"symmetric:a={case[1]}",
        "families": fams,
    }
    if not fams:
        body["note"] = "outside the solved case table; scan data only"
    result = None
    if args.scan:
        result = _cli.scan_residual(t, tp, _parse_box(args.box), args.grid, families=fams)
        body["scan"] = result
        if result.min_residual == float("inf"):
            # every cell was excluded: there is no minimum to report
            body["scan"] = {**_encode(result), "min_residual": None, "argmin": None}
    if args.classify:
        body["classification"] = _cli.classify_spectrum_candidates(t, args.window, args.anchors)

    def rows():
        # the residual table is built only when the CSV writer asks for it
        for fam in fams:
            for l1, l2 in fam.members(100):
                yield float(l1), float(l2), _cli.residual(t, tp, float(l1), float(l2))
        if result is not None:
            yield result.argmin[0], result.argmin[1], result.min_residual

    return body, ("lambda1", "lambda2", "residual"), rows()


def _cmd_demo_collinear(args: argparse.Namespace):
    a = as_fraction(args.a)
    const = _cli.collinear_failure_demo(a, args.N)
    rand = _cli.collinear_failure_demo(a, args.N, g="random", seed=args.seed)
    body = {
        "slope": a,
        "N": args.N,
        "seed": args.seed,
        "constant_g": const,
        "random_g": rand,
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


def _encode(value):
    """JSON form of what the encoder cannot write itself: exact rationals as
    ``"p/q"`` strings, result records as dicts of their fields."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Frozen):
        return {name: getattr(value, name) for name in value._fields}
    raise TypeError(f"{type(value).__name__} is not part of a report body")


def run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        body, header, rows = _COMMANDS[args.command](args)
    except ToolkitError as exc:
        error = {"error": {"code": exc.code, "message": str(exc)}}
        _emit(args, json.dumps(error, sort_keys=True, indent=2))
        return exc.exit_code

    if args.fmt == "csv":
        import csv

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
    _emit(args, json.dumps(report, sort_keys=True, indent=2, default=_encode, allow_nan=False))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` fills a fresh namespace on every call, so no default or
    flag of one call reaches the next.
    """
    p = argparse.ArgumentParser(
        prog="addspec",
        description="Certificates for exponential bases of two-axis additive measures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def io_flags(sp):
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")

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
    pd.add_argument("--seed", type=int, default=0)
    io_flags(pd)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
