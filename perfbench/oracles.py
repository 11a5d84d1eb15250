"""Correctness oracles: each report is checked against exact mathematics.

The expected values come from how the inputs were built (workloads.py), not
from earlier program output: an orthonormal set must pass the identity check,
a doubled spectrum must keep lambda_min above 1 - cos(pi epsilon), a planted
zigzag has a known length, a planted loop forces an exact null combination.

``check(op, report, points)`` returns ``(problems, abs_err)``: a list of
``(tag, text)`` pairs, empty when the answer is right, and the deviation from
an exactly known value where the operation has one (else None).
"""

from __future__ import annotations

import cmath
import math
import random
from collections import defaultdict
from fractions import Fraction

NUMERIC_TOL = 1e-9
NULL_FORM_TOL = 1e-10
COLLINEAR_TOL = 1e-10
SCAN_ROOT_TOL = 1e-6
SCAN_SAMPLES = 2000


def check(op, report, points):
    """Problems with one operation's report, and its deviation from exact."""
    if "body" not in report:
        return [("error", f"program error: {report.get('error')}")], None
    return _CHECKS[op["kind"]](op, report["body"], points)


def _certificate(body, points):
    problems = []
    if points is not None and body["n_points"] != len(points):
        problems.append(("size", f"n_points {body['n_points']} != {len(points)}"))
    return body["certificate"], problems


def _onb(op, body, points):
    cert, problems = _certificate(body, points)
    ic = body["identity_check"]
    dev = ic["max_abs_deviation"]
    if not ic["passed"]:
        problems.append(("identity", f"identity check failed on an orthonormal set: "
                                     f"max|G-I| = {dev:.3g} >= {ic['tolerance']:g}"))
    if cert["verdict"] != "riesz-consistent":
        problems.append(("verdict", f"verdict {cert['verdict']} on an orthonormal set"))
    return problems, dev


def _nonoverlap(op, body, points):
    cert, problems = _certificate(body, points)
    floor = op["lambda_min_floor"]
    low = min(cert["lambda_min"])
    if low < floor - NUMERIC_TOL:
        problems.append(("bound", f"lambda_min {low:.6g} below 1 - cos(pi eps) = {floor:.6g}"))
    return problems, None


def _lev(op, body, points):
    cert, problems = _certificate(body, points)
    ceiling = op["lambda_min_ceiling"]
    low = cert["lambda_min"][-1]
    if low > ceiling + NUMERIC_TOL:
        problems.append(("bound", f"lambda_min {low:.6g} above 2/(depth+1) = {ceiling:.6g}"))
    return problems, None


def _loop(op, body, points):
    """A rectangle loop makes the Gram matrix singular.

    The inputs are integer points on unit-interval components, where integer
    exponentials are orthonormal, so the squared norm of a combination is
    exactly  1/2 sum_x |sum_{a=x} c|^2 + 1/2 sum_y |sum_{b=y} c|^2.
    """
    cert, problems = _certificate(body, points)
    if cert["verdict"] != "degenerate":
        return problems + [("verdict", f"verdict {cert['verdict']} on a set with a loop")], None
    comb = cert.get("null_combination") or []
    members = {(a, b) for a, b in points}
    col, row = defaultdict(complex), defaultdict(complex)
    coeff_sq = 0.0
    for term in comb:
        if (term["a"], term["b"]) not in members:
            problems.append(("null", f"null combination uses ({term['a']}, {term['b']}), not in the set"))
            break
        c = complex(term["re"], term["im"])
        coeff_sq += abs(c) ** 2
        col[term["a"]] += c
        row[term["b"]] += c
    form = 0.5 * sum(abs(v) ** 2 for v in col.values()) + 0.5 * sum(abs(v) ** 2 for v in row.values())
    if coeff_sq < 0.5:
        problems.append(("null", f"null combination has coefficient norm^2 {coeff_sq:.3g}"))
    elif form >= NULL_FORM_TOL * coeff_sq:
        problems.append(("null", f"null combination has squared norm {form:.3g}"))
    return problems, None


def _analysis(op, body, points):
    problems = []
    if body["n_points"] != len(points):
        problems.append(("size", f"n_points {body['n_points']} != {len(points)}"))
    if body["multiplicity"] != op["multiplicity"]:
        problems.append(("multiplicity", f"multiplicity {body['multiplicity']} != {op['multiplicity']}"))
    return problems


def _loop_free(op, body, points):
    problems = _analysis(op, body, points)
    if body["loop"] is not None:
        problems.append(("loop", "loop reported in a loop-free set"))
    if body["max_zigzag_length"] != op["zigzag"]:
        problems.append(("zigzag", f"longest zigzag {body['max_zigzag_length']} != {op['zigzag']}"))
    return problems, None


def _looped(op, body, points):
    problems = _analysis(op, body, points)
    if body["max_zigzag_length"] != "unbounded-by-loop":
        problems.append(("zigzag", f"longest zigzag {body['max_zigzag_length']} in a set with a loop"))
    loop = body["loop"]
    if loop is None:
        return problems + [("loop", "no loop reported in a set with a planted loop")], None
    why = loop_defect([tuple(v) for v in loop["vertices"]], {(a, b) for a, b in points})
    if why is None and loop["length"] != len(loop["vertices"]) - 1:
        why = f"length {loop['length']} != {len(loop['vertices']) - 1} moves"
    if why:
        problems.append(("loop", f"reported loop is invalid: {why}"))
    return problems, None


def loop_defect(verts, members):
    """Why verts is not a zigzag loop inside members, or None if it is one."""
    if len(verts) < 5 or verts[0] != verts[-1] or (len(verts) - 1) % 2:
        return "not a closed path of even length >= 4"
    if len(set(verts[:-1])) != len(verts) - 1:
        return "repeats a point"
    if any(v not in members for v in verts):
        return "uses a point outside the set"
    moves = []
    for (a0, b0), (a1, b1) in zip(verts, verts[1:]):
        if (a0 == a1) == (b0 == b1):
            return "a move shares no line or both lines"
        moves.append(a0 == a1)
    if any(m0 == m1 for m0, m1 in zip(moves, moves[1:] + moves[:1])):
        return "moves do not alternate"
    return None


def _collinear(op, body, points):
    problems = []
    ratios = [body[k]["ratio"] for k in ("constant_g", "random_g")]
    if body["constant_g"]["n_points"] != 2 * op["N"] + 1:
        problems.append(("size", f"{body['constant_g']['n_points']} line points, not {2 * op['N'] + 1}"))
    if max(ratios) >= COLLINEAR_TOL:
        problems.append(("ratio", f"frame ratio {max(ratios):.3g} on a line spectrum (exactly 0)"))
    return problems, max(ratios)


def residual(t, t_prime, l1, l2):
    """|e^{pi i (2t+1) l1} S(l1) + e^{pi i (2t'+1) l2} S(l2)|, S(x) = sin(pi x)/(pi x)."""
    def term(w, lam):
        return cmath.exp(1j * math.pi * w * lam) * math.sin(math.pi * lam) / (math.pi * lam)

    return abs(term(float(2 * t + 1), l1) + term(float(2 * t_prime + 1), l2))


def _scan(op, body, points):
    problems = []
    kinds = [f["kind"] for f in body["families"]]
    if kinds != op["families"]:
        problems.append(("families", f"families {kinds} != {op['families']}"))
    scan = body["scan"]
    t, tp = Fraction(op["t"]), Fraction(op["t_prime"])
    x0, x1, y0, y1 = op["box"]
    best = scan["min_residual"]
    l1, l2 = scan["argmin"]
    if not (x0 < l1 < x1 and y0 < l2 < y1):
        problems.append(("argmin", f"argmin {scan['argmin']} outside the box"))
    elif abs(residual(t, tp, l1, l2) - best) > 1e-12 + NUMERIC_TOL * best:
        problems.append(("argmin", f"residual at argmin is {residual(t, tp, l1, l2):.6g}, not {best:.6g}"))
    if op["families"]:
        if best < SCAN_ROOT_TOL:
            problems.append(("root", f"residual {best:.3g} < {SCAN_ROOT_TOL:g} off the solution families"))
        return problems, None
    # no family is excluded: the minimum must not exceed any grid cell's residual
    g = op["grid"]
    rng = random.Random(repr((op["t"], op["t_prime"], op["box"], g)))
    for _ in range(SCAN_SAMPLES):
        i, j = rng.randrange(g), rng.randrange(g)
        c1 = x0 + (i + 0.5) * (x1 - x0) / g
        c2 = y0 + (j + 0.5) * (y1 - y0) / g
        if abs(c1) >= 1e-12 and abs(c2) >= 1e-12 and residual(t, tp, c1, c2) < best - 1e-12:
            problems.append(("min", f"cell ({c1}, {c2}) has residual below the reported minimum"))
            break
    return problems, None


def _parseval(op, body, points):
    cert, problems = _certificate(body, points)
    if cert["verdict"] != "riesz-consistent":
        problems.append(("verdict", f"verdict {cert['verdict']} on an orthonormal set"))
    for row in body["parseval"]:
        if row["residual"] < -NUMERIC_TOL:
            problems.append(("bessel", f"Parseval tail {row['residual']:.3g} < 0 for {row['test_fn']}"))
    return problems, None


_CHECKS = {
    "onb": _onb,
    "nonoverlap": _nonoverlap,
    "lev": _lev,
    "loop": _loop,
    "staircase": _loop_free,
    "forest": _loop_free,
    "lattice": _looped,
    "collinear": _collinear,
    "scan": _scan,
    "parseval": _parseval,
}
