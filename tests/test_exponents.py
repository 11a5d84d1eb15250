import copy
import json
import math
import pickle
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import addspec
from addspec import (
    UNBOUNDED_BY_LOOP,
    ExponentPair,
    ExponentSet,
    ZigzagPath,
    find_zigzag_loop,
    is_zigzag_complete,
    l_space_onb,
    lev_style_set,
    lower_beurling_density,
    max_zigzag_length,
    multiplicity,
    project,
    staircase_zigzag,
    zigzag_distance_map,
)
from addspec import exponents
from addspec.cli import main
from addspec.errors import (
    MalformedInputError,
    NotAnSSequenceError,
    ZigzagLoopDetected,
)
from addspec.gram import CollinearFailureReport
from addspec.measures import as_fraction
from addspec.ortho_solver import ScanResult, SpectrumClassification


# ---------------------------------------------------------------------------
# Brute-force oracles, independent of the graph implementation.
# ---------------------------------------------------------------------------


def brute_loop_exists(points):
    """DFS for a simple alternating closed walk of even length >= 4."""
    pts = list(points)
    on_x = defaultdict(list)
    on_y = defaultdict(list)
    for p in pts:
        on_x[p.a].append(p)
        on_y[p.b].append(p)

    def extend(start, cur, axis, seen, steps):
        nbrs = on_x[cur.a] if axis == "v" else on_y[cur.b]
        for q in nbrs:
            if q == cur:
                continue
            if q == start:
                if steps + 1 >= 4 and (steps + 1) % 2 == 0:
                    return True
                continue
            if q in seen:
                continue
            if extend(start, q, "h" if axis == "v" else "v", seen | {q}, steps + 1):
                return True
        return False

    for p in pts:
        for axis in ("v", "h"):
            if extend(p, p, axis, {p}, 0):
                return True
    return False


def brute_alternating_paths(points, src, dst):
    """All simple alternating paths between two points (as move counts)."""
    pts = list(points)
    on_x = defaultdict(list)
    on_y = defaultdict(list)
    for p in pts:
        on_x[p.a].append(p)
        on_y[p.b].append(p)
    found = []

    def extend(cur, axis, seen, steps):
        nbrs = on_x[cur.a] if axis == "v" else on_y[cur.b]
        for q in nbrs:
            if q == cur or q in seen:
                continue
            if q == dst:
                found.append(steps + 1)
                continue
            extend(q, "h" if axis == "v" else "v", seen | {q}, steps + 1)

    for axis in ("v", "h"):
        extend(src, axis, {src}, 0)
    return found


def random_point_set(rng, max_points=12, pool=4):
    n = int(rng.integers(1, max_points + 1))
    seen = []
    for _ in range(n):
        p = ExponentPair(
            Fraction(int(rng.integers(0, pool)), int(rng.integers(1, 3))),
            Fraction(int(rng.integers(0, pool)), int(rng.integers(1, 3))),
        )
        if p not in seen:
            seen.append(p)
    return ExponentSet.of(seen)


# ---------------------------------------------------------------------------
# Projections and multiplicity.
# ---------------------------------------------------------------------------


def test_project_antidiagonal():
    es = l_space_onb(3)
    assert project(es, "x") == [Fraction(n, 2) for n in range(-3, 4)]
    assert project(es, "y") == [Fraction(n, 2) for n in range(-3, 4)]


def test_project_single_point_and_errors():
    es = ExponentSet.of([("1/2", "-5/7")])
    assert project(es, "x") == [Fraction(1, 2)]
    with pytest.raises(MalformedInputError):
        project(es, "diag")
    with pytest.raises(MalformedInputError):
        project(ExponentSet.of([]), "x")


def test_lev_projection_is_integer_section():
    es = lev_style_set(2, 7)
    assert all(v.denominator == 1 for v in project(es, "y"))


def test_multiplicity(rectangle_points):
    assert multiplicity(l_space_onb(5))[0] == 1
    assert multiplicity(rectangle_points)[0] == 2
    assert multiplicity(ExponentSet.of([(0, 0)]))[0] == 1
    _, per_line = multiplicity(rectangle_points)
    assert per_line["x"][Fraction(1)] == 2
    stairs = ExponentSet.of(staircase_zigzag(40).vertices)
    for es in (rectangle_points, l_space_onb(5), lev_style_set(3, 40), stairs):
        assert multiplicity(es, per_line=False) == (multiplicity(es)[0], None)
    with pytest.raises(MalformedInputError):
        multiplicity(ExponentSet.of([]), per_line=False)


# ---------------------------------------------------------------------------
# Loops and zigzag lengths.
# ---------------------------------------------------------------------------


def test_rectangle_loop(rectangle_points):
    loop = find_zigzag_loop(rectangle_points)
    assert loop is not None
    assert loop.is_loop
    assert loop.length == 4
    assert set(loop.vertices) == set(rectangle_points.points)


def test_staircase_has_no_loop(staircase_8):
    assert find_zigzag_loop(ExponentSet.of(staircase_8.vertices)) is None


def test_two_points_never_loop():
    assert find_zigzag_loop(ExponentSet.of([(0, 0), (0, 5)])) is None


def test_max_zigzag_length(staircase_8, rectangle_points):
    assert max_zigzag_length(ExponentSet.of(staircase_8.vertices)) == 7
    assert max_zigzag_length(l_space_onb(6)) == 0
    assert max_zigzag_length(rectangle_points) == UNBOUNDED_BY_LOOP


def test_loop_detector_matches_brute_force():
    import numpy as np

    rng = np.random.default_rng(7)
    checked_loops = 0
    for _ in range(250):
        es = random_point_set(rng)
        got = find_zigzag_loop(es)
        expect = brute_loop_exists(es.points)
        assert (got is not None) == expect
        if got is not None:
            checked_loops += 1
            assert got.is_loop and got.length % 2 == 0 and got.length >= 4
    assert checked_loops > 20  # the pool actually produces loops


@settings(max_examples=150)
@given(
    pts=st.sets(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
        ),
        min_size=1,
        max_size=14,
    ),
    dx=st.fractions(min_value=-2, max_value=2, max_denominator=2),
    dy=st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
def test_length_invariant_under_swap_and_translation(pts, dx, dy):
    es = ExponentSet.of(sorted(pts))
    base = max_zigzag_length(es)
    swapped = ExponentSet.of([(p.b, p.a) for p in es.points])
    shifted = ExponentSet.of([(p.a + dx, p.b + dy) for p in es.points])
    assert max_zigzag_length(swapped) == base
    assert max_zigzag_length(shifted) == base


@settings(max_examples=200)
@given(
    pts=st.sets(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
        ),
        min_size=1,
        max_size=14,
    )
)
def test_multiplicity_one_iff_zero_length(pts):
    es = ExponentSet.of(sorted(pts))
    assert (multiplicity(es)[0] == 1) == (max_zigzag_length(es) == 0)


def test_unique_zigzag_between_connected_points(staircase_8):
    # loop-free: any two line-connected points have exactly one zigzag
    pts = staircase_8.vertices
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert len(brute_alternating_paths(pts, pts[i], pts[j])) == 1


def test_loop_free_paths_never_duplicate():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(60):
        es = random_point_set(rng)
        if find_zigzag_loop(es) is not None:
            continue
        pts = es.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert len(brute_alternating_paths(pts, pts[i], pts[j])) <= 1


def test_two_paths_between_corners_marks_loop(rectangle_points):
    # opposite rectangle corners are joined by two alternating paths, which
    # is exactly the loop obstruction
    pts = rectangle_points.points
    assert len(brute_alternating_paths(pts, pts[0], pts[3])) == 2
    assert find_zigzag_loop(rectangle_points) is not None


def test_max_zigzag_length_matches_brute_force_on_forests():
    import numpy as np

    rng = np.random.default_rng(23)
    checked = 0
    while checked < 40:
        # two or three loop-free pieces on disjoint lines, then shuffled
        pts = []
        for k in range(int(rng.integers(2, 4))):
            piece = random_point_set(rng, max_points=8)
            if brute_loop_exists(piece.points):
                break
            pts += [ExponentPair(p.a + 10 * k, p.b + 10 * k) for p in piece.points]
        else:
            rng.shuffle(pts)
            longest = max(
                (
                    max(brute_alternating_paths(pts, p, q), default=0)
                    for i, p in enumerate(pts)
                    for q in pts[i + 1:]
                ),
                default=0,
            )
            assert max_zigzag_length(ExponentSet.of(pts)) == longest
            checked += 1


def test_loop_witness_is_the_first_loop_completed():
    first = [(1, 1), (1, 3), (3, 1), (3, 3)]
    second = [(10, 10), (10, 12), (12, 10), (12, 12)]
    for a, b in ((first, second), (second, first)):
        loop = find_zigzag_loop(ExponentSet.of(a + b))
        assert set(loop.vertices) == set(ExponentSet.of(a).points)
    # interleaved: the second rectangle gets its closing point first
    loop = find_zigzag_loop(ExponentSet.of(first[:3] + second + first[3:]))
    assert set(loop.vertices) == set(ExponentSet.of(second).points)
    # completion order decides, not loop length
    hexagon = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1)]
    assert find_zigzag_loop(ExponentSet.of(hexagon + second)).length == 6


def test_cli_analyze_runs_without_networkx(tmp_path, fresh_python):
    pts = tmp_path / "rect.json"
    pts.write_text(json.dumps([["1", "1"], ["1", "3"], ["3", "1"], ["3", "3"]]))
    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "from addspec.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    proc = fresh_python(script, "analyze", "--points", str(pts))
    assert proc.returncode == 0, proc.stderr
    body = json.loads(proc.stdout)["body"]
    assert body["loop"]["length"] == 4
    assert body["max_zigzag_length"] == UNBOUNDED_BY_LOOP


def test_cli_analyze_and_construct_run_without_numpy(tmp_path, fresh_python):
    rect = tmp_path / "rect.json"
    rect.write_text(json.dumps([["1", "1"], ["1", "3/2"], ["3", "1"], ["6/2", "3/2"], ["5", "-2"]]))
    stairs = tmp_path / "stairs.json"
    stairs.write_text(json.dumps(ExponentSet.of(staircase_zigzag(60, start=("-1/3", 2)).vertices).to_json()))
    lev = tmp_path / "lev.json"
    lev.write_text(json.dumps(lev_style_set(3, 40).to_json()))
    commands = [
        ["analyze", "--points", str(rect)],
        ["analyze", "--points", str(stairs), "--window", "7", "--anchors", "9"],
        ["analyze", "--points", str(lev)],
        ["construct", "lev", "--q", "3", "--depth", "40"],
    ]
    script = (
        "import json, sys; sys.modules['numpy'] = None\n"
        "from addspec.cli import main\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    if main(argv + ['--out', f'{sys.argv[2]}/blocked_{i}.json']):\n"
        "        raise SystemExit(f'{argv} failed')\n"
    )
    proc = fresh_python(script, json.dumps(commands), str(tmp_path))
    assert proc.returncode == 0, proc.stderr

    def body(path):
        out = json.loads(path.read_text())
        return out["body"] if isinstance(out, dict) else out

    for i, argv in enumerate(commands):
        assert main(argv + ["--out", str(tmp_path / f"normal_{i}.json")]) == 0
        assert body(tmp_path / f"blocked_{i}.json") == body(tmp_path / f"normal_{i}.json")
    assert body(tmp_path / "blocked_0.json")["loop"]["length"] == 4
    assert body(tmp_path / "blocked_1.json")["max_zigzag_length"] == 60
    assert body(tmp_path / "blocked_3.json") == lev_style_set(3, 40).to_json()


def test_import_loads_no_numpy(fresh_python):
    proc = fresh_python(
        "import sys, addspec, addspec.cli, addspec.gram, addspec.additive_space, addspec.ortho_solver\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_exports_resolve_on_first_use():
    from addspec import additive_space

    for name in addspec.__all__:
        assert name in dir(addspec)
        assert getattr(addspec, name) is not None
    assert addspec.ExponentPair is additive_space.ExponentPair is exponents.ExponentPair
    with pytest.raises(AttributeError, match="no_such_name"):
        addspec.no_such_name


# ---------------------------------------------------------------------------
# Interned line ids against Fraction-keyed references.
# ---------------------------------------------------------------------------


def fraction_keyed_loop(points):
    """The loop witness grown on lines keyed by ("x"|"y", Fraction)."""
    adj, root = {}, {}

    def find(u):
        while root.setdefault(u, u) != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for p in points:
        u, v = ("x", p.a), ("y", p.b)
        ru, rv = find(u), find(v)
        if ru == rv:
            break
        root[ru] = rv
        adj.setdefault(u, []).append((v, p))
        adj.setdefault(v, []).append((u, p))
    else:
        return None
    # breadth-first tree from the closing point's y line to its x line
    tree = {v: (None, None)}
    queue = [v]
    while u not in tree:
        w = queue.pop(0)
        for t, q in adj[w]:
            if t not in tree:
                tree[t] = (w, q)
                queue.append(t)
    pts = []
    while u != v:
        u, q = tree[u]
        pts.append(q)
    return tuple(pts) + (p, pts[0])


def spelled(draw, v):
    """One of the JSON spellings of the rational v: "1/2", "2/4", 2, "4/2" ..."""
    k = draw(st.integers(1, 4))
    if v.denominator == 1 and k == 1 and draw(st.booleans()):
        return v.numerator
    return str(v) if k == 1 else f"{v.numerator * k}/{v.denominator * k}"


@st.composite
def spelled_point_sets(draw):
    line = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))
    pts = draw(st.lists(st.tuples(line, line), min_size=1, max_size=12, unique=True))
    return pts, [[spelled(draw, a), spelled(draw, b)] for a, b in pts]


@settings(max_examples=200, deadline=None)
@given(data=spelled_point_sets())
def test_line_ids_match_fraction_keyed_references(data):
    pts, text = data
    es = ExponentSet.from_json(text)
    ref = [ExponentPair(a, b) for a, b in pts]
    assert es.points == tuple(ref)
    # from_json numbers the lines itself; it must match the constructor
    built = ExponentSet.of(ref)
    assert (es.xid, es.yid, es.lines) == (built.xid, built.yid, built.lines)
    per_x, per_y = Counter(p.a for p in ref), Counter(p.b for p in ref)
    assert multiplicity(es) == (
        max(max(per_x.values()), max(per_y.values())),
        {"x": dict(per_x), "y": dict(per_y)},
    )
    assert project(es, "x") == sorted(per_x)
    assert project(es, "y") == sorted(per_y)
    loop = find_zigzag_loop(es)
    witness = fraction_keyed_loop(ref)
    assert (None if loop is None else loop.vertices) == witness
    if witness is not None:
        assert max_zigzag_length(es) == UNBOUNDED_BY_LOOP
    else:
        longest = max(
            (max(brute_alternating_paths(ref, p, q), default=0)
             for i, p in enumerate(ref) for q in ref[i + 1:]),
            default=0,
        )
        assert max_zigzag_length(es) == longest
    assert all(spelling in es for spelling in text)
    assert (99, 0) not in es and (pts[0][0], 99) not in es and (99, pts[0][1]) not in es


BIG = [2**63, 2**64 + 1, -(2**63 + 1)]


def json_spelling(draw, v):
    """One JSON spelling of the rational v: a "p/q" string, scaled or not, an
    integer, a float when v is a dyadic, "-0" for zero."""
    options = [str(v), f"{v.numerator * 3}/{v.denominator * 3}"]
    if v.denominator == 1:
        options.append(v.numerator)
    if v.denominator in (1, 2) and abs(v) < 2**53:
        options.append(float(v))
    if v == 0:
        options += ["-0", "0/7"]
    return draw(st.sampled_from(options))


@st.composite
def json_point_files(draw):
    line = st.one_of(
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2])),
        st.sampled_from(BIG).map(Fraction),
    )
    pts = draw(st.lists(st.tuples(line, line), min_size=0, max_size=12, unique=True))
    return [[json_spelling(draw, a), json_spelling(draw, b)] for a, b in pts]


@settings(max_examples=200, deadline=None)
@given(data=json_point_files())
def test_bulk_interning_matches_the_constructor(data):
    es = ExponentSet.from_json(data)
    built = ExponentSet.of([(as_fraction(x), as_fraction(y)) for x, y in data])
    assert (es.xid, es.yid, es.lines) == (built.xid, built.yid, built.lines)
    assert {type(v) for v in es.lines + built.lines} <= {Fraction}
    assert (es._x_table, es._y_table, es._index) == (built._x_table, built._y_table, built._index)
    assert es.points == built.points and es == built and hash(es) == hash(built)
    assert len(es) == len(data)
    assert all(point in es and point in built for point in data)
    assert all(p in es for p in built.points)
    assert es.to_json() == built.to_json()


def test_points_are_built_on_first_use():
    es = ExponentSet.from_json([["1/2", "1"], ["2/4", "3"], [0.5, "-0"]])
    assert "points" not in vars(es)
    assert len(es) == 3 and ("1/2", 0) in es
    assert multiplicity(es) == (3, {"x": {Fraction(1, 2): 3}, "y": {1: 1, 3: 1, 0: 1}})
    assert "points" not in vars(es)
    assert es.points == (ExponentPair("1/2", 1), ExponentPair("1/2", 3), ExponentPair("1/2", 0))
    assert es.points is es.points


def test_loop_pairs_are_built_from_line_ids():
    es = ExponentSet.from_json([["0", "0"], ["0", "1"], ["5", "7"], ["1", "1"], ["1", "0"]])
    loop = find_zigzag_loop(es)
    assert "points" not in vars(es)
    assert loop.vertices == tuple(map(ExponentPair, "10011", "11001"))


# ---------------------------------------------------------------------------
# Value classes: what a frozen dataclass gave them, kept without one.
# ---------------------------------------------------------------------------


def section_certificate():
    """The degenerate certificate of a rectangle on L: a loop alternation as
    its null combination, and its assembled matrix as ``gram``."""
    rectangle = ExponentSet.of([(0, 0), (0, 1), (1, 1), (1, 0)])
    return addspec.riesz_section_certificate(addspec.l_space(), rectangle, [2, 4])


FAMILY = ("kind", "offset", "step", "sign_coupled")
VALUES = [
    (ExponentPair("1/2", -3), ("a", "b")),
    # starts_with follows from the vertices: not a constructor field
    (ZigzagPath(((0, 0), (0, 1), (2, 1))), ("vertices",)),
    (addspec.IntervalUnionMeasure.from_pieces([("-2", "-1", "1/2"), ("1", "2", "1/2")]), ("pieces",)),
    (ExponentSet.of([("1/2", "-1/2"), (1, 2)]), ("points",)),
    (ExponentSet.from_json([["1/2", "-1/2"], ["1", "2"]]), ("points",)),
    (addspec.t_space(), ("mu", "nu")),
    (addspec.FiniteCombination(((ExponentPair(0, 0), 1), (ExponentPair("1/2", 1), -0.5j))), ("terms",)),
    (addspec.PiecewisePolynomial((("-1/2", 0, (1, 2j)), (0, "1/2", (0.5,)))), ("pieces",)),
    (addspec.OrthSolutionFamily("antidiagonal-half-integer", Fraction(1, 2), Fraction(1), True), FAMILY),
    (addspec.OrthSolutionFamily("integer-lattice"), FAMILY),
    (ScanResult(Fraction(1, 3), Fraction(-2, 5), ((-4.0, 4.0), (-4.0, 4.0)), 40, 0.0125,
                (0.1, -0.3), ()), ("t", "t_prime", "box", "grid", "min_residual", "argmin",
                                   "excluded_kinds")),
    (SpectrumClassification(Fraction(-1, 3), 3, Fraction(3, 2), Fraction(3, 2), Fraction(2, 3),
                            0.665, 100.0, "fails Landau necessary condition"),
     ("t", "a", "candidate_step", "projection_step", "density_exact", "density_window_estimate",
      "window", "verdict")),
    (addspec.nonoverlap_riesz_spectrum(addspec.IntervalUnionMeasure.unit_interval(1), [0, 1, -1]),
     ("base", "tau", "epsilon", "pairs")),
    (CollinearFailureReport(Fraction(25, 99), 33, 7.15e-33, 2.48, 2.88e-33),
     ("slope", "n_points", "frame_sum", "energy", "ratio")),
    # gram is the assembled matrix: not a field
    (section_certificate(),
     ("sizes", "lambda_min", "lambda_max", "verdict", "floor", "null_combination")),
]


@pytest.mark.parametrize(
    "value, fields", VALUES,
    ids=["ExponentPair", "ZigzagPath", "IntervalUnionMeasure", "ExponentSet.of", "ExponentSet.from_json",
         "AdditiveSpace", "FiniteCombination", "PiecewisePolynomial", "OrthSolutionFamily",
         "OrthSolutionFamily.defaults", "ScanResult", "SpectrumClassification",
         "NonOverlapSpectrum", "CollinearFailureReport", "SectionCertificate"],
)
def test_value_class_contract(value, fields):
    values = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(values)
    assert value == type(value)(*values) and not value != type(value)(*values)
    assert value != values
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and again == value and hash(again) == hash(value)
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert tuple(getattr(value, name) for name in fields) == values


def test_section_certificate_keeps_its_matrix_out_of_its_value():
    cert = section_certificate()
    assert cert.verdict == "degenerate" and cert.null_combination is not None
    assert cert.gram is not None and cert.gram.size == 4
    fields = [getattr(cert, name) for name in type(cert)._fields]
    bare = type(cert)(*fields)
    assert bare.gram is None and bare == cert and hash(bare) == hash(cert)
    assert repr(bare) == repr(cert) and "gram" not in repr(cert)
    assert copy.copy(cert).gram is cert.gram
    again = pickle.loads(pickle.dumps(cert))
    assert again == cert and np.array_equal(again.gram.entries, cert.gram.entries)


def test_value_class_reprs():
    a, b = Fraction(1), Fraction(2)
    assert hash(ExponentPair(a, b)) == hash((a, b))
    assert hash(ExponentPair(1, "2")) == hash((1, 2))
    assert repr(ExponentPair("1/2", -3)) == "(1/2, -3)"
    with pytest.raises(MalformedInputError) as err:
        ZigzagPath(((1, 2), (3, 4)))
    assert str(err.value) == "(1, 2) -> (3, 4) shares no coordinate"
    assert repr(ZigzagPath(((0, 0), (0, 1)))) == "ZigzagPath(vertices=((0, 0), (0, 1)), starts_with='zag')"
    assert repr(ExponentSet.from_json([["1/2", 0]])) == "ExponentSet(points=((1/2, 0),))"
    assert repr(addspec.IntervalUnionMeasure.unit_interval(0)) == (
        "IntervalUnionMeasure(pieces=((Fraction(0, 1), Fraction(1, 1), Fraction(1, 1)),))"
    )
    assert repr(addspec.OrthSolutionFamily("integer-lattice")) == (
        "OrthSolutionFamily(kind='integer-lattice', offset=Fraction(0, 1), step=Fraction(1, 1), "
        "sign_coupled=False)"
    )


@pytest.mark.parametrize(
    "pair",
    [
        (["1/2", "1"], ["2/4", "1"]),
        (["2", "-3/6"], ["4/2", "-1/2"]),
        ([2, "1"], ["6/3", "1"]),
    ],
)
def test_points_spelled_differently_are_duplicates(pair):
    with pytest.raises(MalformedInputError, match="duplicate points in exponent set"):
        ExponentSet.from_json(list(pair))
    with pytest.raises(MalformedInputError, match="duplicate points in exponent set"):
        ExponentSet.of(pair)


def test_membership_by_value_and_malformed_pairs():
    es = ExponentSet.of([("1/2", "-1/2")])
    assert ("2/4", "-3/6") in es
    with pytest.raises(MalformedInputError):
        ("1", "2", "3") in es


@pytest.mark.parametrize(
    "pts",
    [[["1", "1"], ["1", "3"], ["3", "1"], ["3", "3"]], [["0", "0"], ["0", "1"], ["2", "1"]]],
)
def test_analyze_grows_the_forest_once(tmp_path, monkeypatch, pts):
    calls = []
    grow = exponents._grow_forest

    def counted(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(exponents, "_grow_forest", counted)
    path = tmp_path / "points.json"
    path.write_text(json.dumps(pts))
    assert main(["analyze", "--points", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_analyze_converts_each_projection_once(tmp_path, monkeypatch):
    # 30 distinct x lines and 15 distinct y lines, three density windows each;
    # the set is loop-free, so analyze floats each line once, from its exact
    # key, and builds no Fraction at all
    pts = [[f"{k}/3", f"{k // 2}/7"] for k in range(30)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(pts))
    expected = {
        axis: [
            {"window": w, "estimate": lower_beurling_density({Fraction(p[i]) for p in pts}, w)}
            for w in (10.0, 20.0, 40.0)
        ]
        for i, axis in enumerate("xy")
    }
    made, floated, axes = [], [], []
    new, to_float, axis_floats = Fraction.__new__, Fraction.__float__, ExponentSet.axis_floats

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def counted_float(self):
        floated.append(self)
        return to_float(self)

    def counted_axis(self, axis):
        axes.append(axis)
        return axis_floats(self, axis)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Fraction, "__float__", counted_float, raising=False)
    monkeypatch.setattr(ExponentSet, "axis_floats", counted_axis)
    assert main(["analyze", "--points", str(path), "--out", str(tmp_path / "a.json")]) == 0
    monkeypatch.undo()
    assert (made, floated, axes) == ([], [], ["x", "y"])
    body = json.loads((tmp_path / "a.json").read_text())["body"]
    assert body["density"] == expected and body["loop"] is None


def test_analyze_builds_fractions_only_for_the_loop_points(tmp_path, monkeypatch):
    # a 10 x 10 lattice: its first loop is the unit square at the origin, and
    # only the coordinates of its five vertices (the first repeated) become
    # Fractions
    path = tmp_path / "points.json"
    path.write_text(json.dumps([[str(i), str(j)] for i in range(10) for j in range(10)]))
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    assert main(["analyze", "--points", str(path), "--out", str(tmp_path / "a.json")]) == 0
    monkeypatch.undo()
    assert sorted(made) == [(0, 1)] * 5 + [(1, 1)] * 5
    loop = json.loads((tmp_path / "a.json").read_text())["body"]["loop"]
    assert loop == {"length": 4, "vertices": [["1", "0"], ["0", "0"], ["0", "1"], ["1", "1"], ["1", "0"]]}


# ---------------------------------------------------------------------------
# Distance map along an accumulation ordering.
# ---------------------------------------------------------------------------


def test_distance_map_along_path(staircase_8):
    es = ExponentSet.of(staircase_8.vertices)
    f = zigzag_distance_map(es, staircase_8.vertices)
    assert [f[p] for p in staircase_8.vertices] == list(range(8))


def test_distance_map_singleton():
    es = ExponentSet.of([("2/3", "-1")])
    assert zigzag_distance_map(es, es.points) == {es.points[0]: 0}


def test_distance_map_shuffled_ordering(staircase_8):
    # any valid accumulation ordering gives distances from its first point
    v = staircase_8.vertices
    order = [v[3], v[2], v[4], v[1], v[5], v[0], v[6], v[7]]
    es = ExponentSet.of(v)
    f = zigzag_distance_map(es, order)
    assert f == {p: abs(i - 3) for i, p in enumerate(v)}


def test_distance_map_detects_loop(rectangle_points):
    with pytest.raises(ZigzagLoopDetected) as err:
        zigzag_distance_map(rectangle_points, rectangle_points.points)
    loop = err.value.loop
    assert loop is not None and loop.is_loop and loop.length == 4


def test_distance_map_rejects_bad_orderings(staircase_8):
    es = ExponentSet.of(staircase_8.vertices)
    v = staircase_8.vertices
    with pytest.raises(NotAnSSequenceError):
        zigzag_distance_map(es, [v[0], v[7]])  # shares no line
    with pytest.raises(NotAnSSequenceError):
        zigzag_distance_map(es, [v[0], v[1], v[0]])  # repeats
    with pytest.raises(NotAnSSequenceError):
        zigzag_distance_map(es, [v[0], ExponentPair(99, 99)])  # outside
    with pytest.raises(NotAnSSequenceError):
        zigzag_distance_map(es, [])


# ---------------------------------------------------------------------------
# Zigzag completeness.
# ---------------------------------------------------------------------------


def test_zigzag_complete(rectangle_points, staircase_8):
    assert is_zigzag_complete(rectangle_points, rectangle_points)
    es = ExponentSet.of(staircase_8.vertices)
    first4 = ExponentSet.of(staircase_8.vertices[:4])
    assert not is_zigzag_complete(first4, es)
    small = ExponentSet.of([(0, 0)])
    inside = ExponentSet.of([(0, 0), (5, 7)])
    assert is_zigzag_complete(small, inside)
    with pytest.raises(MalformedInputError):
        is_zigzag_complete(ExponentSet.of([(9, 9)]), inside)


# ---------------------------------------------------------------------------
# Finite-window density.
# ---------------------------------------------------------------------------


def test_density_unit_lattice():
    proj = list(range(-50, 51))
    v = lower_beurling_density(proj, 20)
    assert abs(v - 1.0) <= 1 / 20 + 1e-12


def test_density_three_halves_lattice():
    proj = [Fraction(3, 2) * k for k in range(-40, 41)]
    v = lower_beurling_density(proj, 30)
    assert abs(v - 2 / 3) <= 1 / 30 + 1e-12


def test_density_half_lattice():
    proj = [Fraction(1, 2) * k for k in range(-100, 101)]
    v = lower_beurling_density(proj, 20)
    assert abs(v - 2.0) <= 1 / 20 + 1e-12


def per_anchor_density(proj, window, anchors=64):
    """The density estimate with two searches per anchor in a Python loop."""
    arr = np.asarray(sorted(float(x) for x in proj))
    window = float(window)
    span = arr[-1] - arr[0]
    if span <= window or anchors == 1:
        starts = [arr[0] + (span - window) / 2.0]
    else:
        step = (span - window) / (anchors - 1)
        starts = [arr[0] + i * step for i in range(anchors)]
    best = float("inf")
    for t in starts:
        count = int(np.searchsorted(arr, t + window, side="left")) - int(
            np.searchsorted(arr, t, side="left")
        )
        best = min(best, count / window)
    return best


@st.composite
def projections(draw):
    """Coordinates with negatives, large denominators and repeated values."""
    values = draw(st.lists(
        st.fractions(min_value=-60, max_value=60, max_denominator=7)
        | st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**15),
        min_size=1, max_size=40,
    ))
    return values + draw(st.lists(st.sampled_from(values), max_size=20))


@settings(max_examples=200, deadline=None)
@given(
    proj=projections(),
    window=st.floats(min_value=1e-6, max_value=1e7),
    anchors=st.integers(1, 200),
)
@example(proj=[0, 1, 5], window=10.0, anchors=64)  # span <= window
@example(proj=[0, 1, 5, 30], window=2.0, anchors=1)
@example(proj=[Fraction(1, 3)], window=1.0, anchors=5)
@example(proj=[1, 1, 1, 2, 2, 7], window=1.0, anchors=7)  # duplicate values
@example(proj=[-5, Fraction(-1, 3), 0], window=10.0, anchors=64)  # span <= window
@example(proj=[-30, -1, 5, 30, 30], window=2.0, anchors=1)
@example(proj=[Fraction(1, 10**15), Fraction(2, 10**15 + 1), Fraction(-7, 3)], window=1e-15, anchors=3)
def test_density_matches_per_anchor_loop(proj, window, anchors):
    got = lower_beurling_density(proj, window, anchors)
    assert type(got) is float
    assert got == per_anchor_density(proj, window, anchors)


def test_density_empty_and_errors():
    assert lower_beurling_density([], 10) == 0.0
    with pytest.raises(MalformedInputError):
        lower_beurling_density([1, 2], 0)
    with pytest.raises(MalformedInputError):
        lower_beurling_density([1, 2], 5, anchors=0)
    for window in (math.nan, math.inf):
        with pytest.raises(MalformedInputError, match="window must be finite"):
            lower_beurling_density([1, 2], window)


# ---------------------------------------------------------------------------
# Containers and serialization.
# ---------------------------------------------------------------------------


def test_zigzag_path_validation():
    with pytest.raises(MalformedInputError):
        ZigzagPath(((0, 0), (1, 1)))  # shares no coordinate
    with pytest.raises(MalformedInputError):
        ZigzagPath(((0, 0), (0, 1), (0, 2)))  # two vertical moves in a row
    with pytest.raises(MalformedInputError):
        ZigzagPath(((0, 0), (0, 0)))
    with pytest.raises(MalformedInputError, match="^zigzag needs at least one point$"):
        ZigzagPath(())
    z = ZigzagPath(((0, 0), (0, 1), (2, 1)))
    assert z.starts_with == "zag" and z.length == 2 and not z.is_loop
    assert ZigzagPath(((2, 1), (0, 1))).starts_with == "zig"
    assert ZigzagPath(((2, 1),)).starts_with is None
    with pytest.raises(TypeError):
        ZigzagPath(z.vertices, starts_with="zag")


def test_empty_set_has_no_zigzag_length():
    with pytest.raises(MalformedInputError, match="^empty exponent set$"):
        max_zigzag_length(ExponentSet.of([]))


def test_staircase_constructor_vertices(staircase_8):
    assert [(str(p.a), str(p.b)) for p in staircase_8.vertices] == [
        ("1", "1"), ("1", "2"), ("2", "2"), ("2", "3"),
        ("3", "3"), ("3", "4"), ("4", "4"), ("4", "5"),
    ]
    assert staircase_8.starts_with == "zag"
    assert staircase_zigzag(0).length == 0 and staircase_zigzag(0).starts_with is None


def test_point_set_json():
    es = ExponentSet.of([("1/2", "-1/2"), (1, 2)])
    data = es.to_json()
    assert data == [["1/2", "-1/2"], ["1", "2"]]
    assert ExponentSet.from_json(data) == es
    with pytest.raises(MalformedInputError):
        ExponentSet.from_json([["1/2", "-1/2"], ["1/2", "-1/2"]])
    with pytest.raises(MalformedInputError):
        ExponentSet.from_json([["1/2"]])
    with pytest.raises(MalformedInputError):
        ExponentSet.of([(0, 0), (0, 0)])
