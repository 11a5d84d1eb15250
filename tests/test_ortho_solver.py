import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addspec import ortho_solver
from addspec import (
    AdditiveSpace,
    ExponentPair,
    IntervalUnionMeasure,
    classify_case,
    classify_spectrum_candidates,
    exp_inner,
    lower_beurling_density,
    residual,
    scan_residual,
    solve_families,
)
from addspec.cli import _parse_box
from addspec.errors import (
    MalformedInputError,
    MultiplicityOneViolation,
    UnsolvedCaseError,
)
from addspec.measures import transform_rows
from addspec.ortho_solver import (
    CLASSIFY_POINTS,
    EXCLUSION_RADIUS,
    INTEGER_LATTICE,
    SCAN_ROOT_TOL,
)


def test_residual_at_solution_points():
    assert residual(0, 0, 0.5, -0.5) < 1e-12
    assert residual(0, 0, 1.0, 1.0) < 1e-12
    assert residual(0, 0, -2.0, 3.0) < 1e-12


def test_residual_off_solution():
    # frozen from the direct closed-form evaluation
    v = residual(Fraction(-1, 2), -1, 0.3, 0.7)
    assert v == pytest.approx(0.7077754198225027, abs=1e-12)
    assert v >= 0.1


def _mp_transform(t, lam):
    """ft(U[t], lam) = e^{pi i lam (2t+1)} sin(pi lam) / (pi lam) at 40 digits."""
    z = mpmath.pi * mpmath.mpf(lam.numerator) / lam.denominator
    w = mpmath.mpf((2 * t + 1).numerator) / (2 * t + 1).denominator
    return mpmath.exp(1j * z * w) * mpmath.sin(z) / z


@pytest.mark.parametrize("t,tp", [("1/3", "1/3"), ("5/11", "5/11"), ("1/3", "5/11")])
@pytest.mark.parametrize(
    "l1,l2",
    [
        (1e5 + 0.25, -1e5 - 0.75),
        (-3e6 - 1 / 3, 7e5 + 0.1),
        (2.0**30 + 0.375, -(2.0**30) - 0.125),
        (2.0**40 + 0.25, 0.7 - 2.0**40),
    ],
)
def test_residual_far_from_the_origin_matches_mpmath(t, tp, l1, l2):
    # the phases are reduced exactly: a few ulps of the amplitude at any |lam|
    t, tp = Fraction(t), Fraction(tp)
    with mpmath.workdps(40):
        ft1, ft2 = _mp_transform(t, Fraction(l1)), _mp_transform(tp, Fraction(l2))
        want = float(abs(ft1 + ft2))
        amplitude = float(abs(ft1) + abs(ft2))
    assert abs(residual(t, tp, l1, l2) - want) <= 4 * np.finfo(float).eps * amplitude


@settings(max_examples=60, deadline=None)
@given(
    ts=st.tuples(st.fractions(-3, 3, max_denominator=50), st.fractions(-3, 3, max_denominator=50)),
    lams=st.tuples(
        st.fractions(-1e6, 1e6, max_denominator=1000).filter(bool),
        st.fractions(-1e6, 1e6, max_denominator=1000).filter(bool),
    ),
)
def test_residual_is_twice_a_gram_entry(ts, lams):
    space = AdditiveSpace(*(IntervalUnionMeasure.unit_interval(t) for t in ts))
    entry = exp_inner(space, ExponentPair(*lams), ExponentPair(0, 0))
    assert residual(*ts, *lams) == 2 * abs(entry)


def test_residual_rejects_zero_differences():
    with pytest.raises(MultiplicityOneViolation):
        residual(0, 0, 0.0, 1.0)
    with pytest.raises(MultiplicityOneViolation):
        residual(0, 0, 1.0, 0)
    with pytest.raises(MalformedInputError):
        residual(0, 0, float("nan"), 1.0)


def test_case_table():
    assert classify_case(0, 0) == ("L",)
    assert classify_case(Fraction(-1, 4), Fraction(-1, 4)) == ("symmetric", 2)
    assert classify_case(Fraction(-1, 3), Fraction(-1, 3)) == ("symmetric", 3)
    assert classify_case(Fraction(-1, 2), -1) == ("T",)
    assert classify_case(Fraction(-1, 2), Fraction(-1, 2)) == ("unsolved",)
    assert classify_case(Fraction(1, 5), Fraction(1, 5)) == ("unsolved",)


def test_families_for_each_case():
    fams = solve_families(0, 0)
    assert [f.kind for f in fams] == ["integer-lattice", "antidiagonal-half-integer"]
    assert fams[1].offset == Fraction(1, 2) and fams[1].step == 1
    assert fams[1].sign_coupled

    assert [f.kind for f in solve_families(Fraction(-1, 4), Fraction(-1, 4))] == [
        "integer-lattice"
    ]
    fams = solve_families(Fraction(-1, 3), Fraction(-1, 3))
    assert [f.kind for f in fams] == [
        "integer-lattice",
        "antidiagonal-odd-multiple-a-half",
    ]
    assert fams[1].offset == Fraction(3, 2) and fams[1].step == 3

    assert [f.kind for f in solve_families(Fraction(-1, 2), -1)] == ["integer-lattice"]
    assert solve_families(Fraction(-1, 2), Fraction(-1, 2)) == []


@pytest.mark.parametrize(
    "t,tp",
    [
        (Fraction(0), Fraction(0)),
        (Fraction(-1, 4), Fraction(-1, 4)),
        (Fraction(-1, 3), Fraction(-1, 3)),
        (Fraction(-1, 5), Fraction(-1, 5)),  # 2t+1 = 3/5: unsolved, no families
        (Fraction(-2, 5), Fraction(-2, 5)),  # 2t+1 = 1/5
        (Fraction(-3, 7), Fraction(-3, 7)),  # 2t+1 = 1/7
        (Fraction(-7, 16), Fraction(-7, 16)),  # 2t+1 = 1/8
        (Fraction(-1, 2), Fraction(-1)),
    ],
)
def test_first_hundred_members_solve_the_equation(t, tp):
    for fam in solve_families(t, tp):
        for l1, l2 in fam.members(100):
            assert residual(t, tp, float(l1), float(l2)) == 0.0
            if fam.sign_coupled:
                assert l2 == -l1


def test_l_families_are_disjoint():
    fams = solve_families(0, 0)
    lattice = set(fams[0].members(200))
    anti = set(fams[1].members(200))
    assert lattice.isdisjoint(anti)


def test_member_enumeration_is_deterministic():
    fam = solve_families(0, 0)[1]
    assert list(fam.members(5)) == list(fam.members(5))
    lattice = solve_families(0, 0)[0]
    first = list(lattice.members(8))
    assert first == sorted(set(first), key=first.index)
    assert all(l1 != 0 and l2 != 0 for l1, l2 in first)


def test_scan_finds_root_near_family_point():
    # no exclusions: the minimum sits next to the antidiagonal member (1/2,-1/2)
    r = scan_residual(0, 0, ((0.4, 0.6), (-0.6, -0.4)), 100, families=[])
    assert r.min_residual < 0.01
    assert abs(r.argmin[0] - 0.5) < 0.02 and abs(r.argmin[1] + 0.5) < 0.02


def test_scan_t_space_recorded_oracle():
    r = scan_residual(Fraction(-1, 2), -1, ((0, 1), (0, 1)), 2000)
    # recorded at build time; the analytic diagonal corner formula
    # sinc(1-d) * 2 sin(pi d / 2) at d = 2.5 cells is the independent check
    d = 1.0 - r.argmin[0]
    analytic = (math.sin(math.pi * (1 - d)) / (math.pi * (1 - d))) * 2 * math.sin(
        math.pi * d / 2
    )
    assert r.argmin[0] == r.argmin[1]
    assert r.min_residual == pytest.approx(analytic, rel=1e-9)
    assert r.min_residual == pytest.approx(4.914866333561291e-06, rel=1e-6)
    assert r.min_residual >= SCAN_ROOT_TOL


def test_scan_symmetric_a2_off_lattice_floor():
    r = scan_residual(Fraction(-1, 4), Fraction(-1, 4), ((0, 2), (0, 2)), 1000)
    # recorded oracle value 3.3517e-5; no roots at scan tolerance off Z^2
    assert r.min_residual == pytest.approx(3.351733584963036e-05, rel=1e-6)
    assert r.min_residual >= SCAN_ROOT_TOL


def test_scan_rejects_bad_input():
    with pytest.raises(MalformedInputError):
        scan_residual(0, 0, ((0, 1), (0, 1)), 1)
    with pytest.raises(MalformedInputError):
        scan_residual(0, 0, ((1, 0), (0, 1)), 10)
    for box in (((0, math.inf), (0, 1)), ((0, 1), (-math.inf, 1)), ((-1e308, 1e308), (0, 1))):
        with pytest.raises(MalformedInputError, match="scan box must be finite"):
            scan_residual(0, 0, box, 10)


def test_scan_is_deterministic():
    a = scan_residual(0, 0, ((-2, 2), (-2, 2)), 301)
    b = scan_residual(0, 0, ((-2, 2), (-2, 2)), 301)
    assert a == b


def nearest_member(fam, l, sign=1):
    """The nonzero coordinate sign * (offset + step n) of a member nearest the
    Fraction ``l``, if it lies within EXCLUSION_RADIUS, else None."""
    m = sign * (fam.offset + fam.step * round((sign * l - fam.offset) / fam.step))
    return m if m != 0 and abs(l - m) <= EXCLUSION_RADIUS else None


def excluded(fam, l1, l2):
    """Whether the exact point (l1, l2) lies in the closed sup-norm ball of
    radius EXCLUSION_RADIUS about a member of ``fam``."""
    m1, m2 = nearest_member(fam, l1), nearest_member(fam, l2, -1 if fam.sign_coupled else 1)
    return None not in (m1, m2) and (m2 == -m1 or not fam.sign_coupled)


def dense_scan(t, tp, box, grid, families):
    """Every cell of the grid at once: (min residual, argmin), first index on ties.

    Each axis's exact centres, as Python ints over 2 grid D, get the library
    kernel's transform, one ``transform_rows`` column against 0; the axes and
    the exclusion balls are decided on the centres as Fractions."""
    den = 2 * grid * math.lcm(*(Fraction(v).denominator for side in box for v in side))

    def axis(s, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        exact = [lo + (2 * i + 1) * (hi - lo) / (2 * grid) for i in range(grid)]
        x = np.array([int(c * den) for c in exact] + [0], dtype=object)
        rows = transform_rows(IntervalUnionMeasure.unit_interval(s), x, den)
        ft = rows(slice(0, grid), slice(grid, None), np.empty((grid, 1), dtype=complex))
        return exact, ft[:, 0]

    (l1, p1), (l2, p2) = axis(t, *box[0]), axis(tp, *box[1])
    r = np.abs(p1[:, None] + p2[None, :])
    mask = np.array([c == 0 for c in l1])[:, None] | np.array([c == 0 for c in l2])[None, :]
    for fam in families:
        # only rows and columns near a member coordinate can hold an excluded cell
        sign = -1 if fam.sign_coupled else 1
        rows = [i for i, c in enumerate(l1) if nearest_member(fam, c) is not None]
        cols = [j for j, c in enumerate(l2) if nearest_member(fam, c, sign) is not None]
        for i in rows:
            for j in cols:
                mask[i, j] |= excluded(fam, l1[i], l2[j])
    r[mask] = np.inf
    k = int(np.argmin(r))
    if r.flat[k] == np.inf:
        return math.inf, (math.nan, math.nan)
    i, j = divmod(k, grid)
    return float(r.flat[k]), (float(l1[i]), float(l2[j]))


def assert_scan_matches_dense(t, tp, box, grid, families=None):
    got = scan_residual(t, tp, box, grid, families=families)
    fams = solve_families(t, tp) if families is None else families
    best, arg = dense_scan(Fraction(t), Fraction(tp), box, grid, fams)
    # exact equality, NaN-aware: np.testing compares NaN positions as equal
    np.testing.assert_array_equal([got.min_residual, *got.argmin], [best, *arg])
    return got


SOLVED = [(0, 0), ("-1/4", "-1/4"), ("-1/3", "-1/3"), ("-2/5", "-2/5"), ("-1/2", -1)]
parameter = st.fractions(min_value=-2, max_value=2, max_denominator=40)


@settings(max_examples=120, deadline=None)
@given(
    ts=st.one_of(
        st.sampled_from(SOLVED),
        st.tuples(parameter, parameter),
        parameter.map(lambda t: (t, t)),
    ),
    centre=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
    half=st.tuples(st.floats(1e-3, 4), st.floats(1e-3, 4)),
    grid=st.integers(2, 160),
)
@example(ts=(0, 0), centre=(0.0, 0.0), half=(4.0, 4.0), grid=160)
@example(ts=(-0.5, -1), centre=(0.0, 0.0), half=(1.0, 1.0), grid=2)
def test_scan_equals_dense_scan(ts, centre, half, grid):
    t, tp = (Fraction(v) for v in ts)
    box = tuple((c - h, c + h) for c, h in zip(centre, half))
    assert_scan_matches_dense(t, tp, box, grid)


@pytest.mark.parametrize(
    "t,tp,root",
    [(0, 0, (1, -2)), (0, 0, (0.5, -0.5)), (Fraction(-1, 3), Fraction(-1, 3), (-1.5, 1.5)),
     (Fraction(-1, 2), -1, (3, 1))],
)
@pytest.mark.parametrize("half", [1e-4, 9e-4])
def test_scan_inside_an_exclusion_is_empty(t, tp, root, half):
    box = tuple((c - half, c + half) for c in root)
    r = assert_scan_matches_dense(t, tp, box, 97)
    assert r.min_residual == math.inf
    assert math.isnan(r.argmin[0]) and math.isnan(r.argmin[1])


@pytest.mark.parametrize("swap", [False, True])
def test_scan_skips_cells_on_the_axes(swap):
    # with t = -1/2 and t' = 1 the residual |sinc(l1) + 1| along l2 = 0 is a
    # local minimum, so the cells on the axis would win if they were scanned
    t, tp, box = Fraction(-1, 2), Fraction(1), ((1.3, 1.6), (-0.1, 0.1))
    if swap:
        t, tp, box = tp, t, box[::-1]
    r = assert_scan_matches_dense(t, tp, box, 101)
    l = r.argmin[1] if swap else r.argmin[0]
    assert 0.0 not in r.argmin
    assert abs(np.sinc(l) + 1) < r.min_residual


# t = -1/2 makes the residual even in each coordinate: ties within a row too
@pytest.mark.parametrize(
    "t", [Fraction(0), Fraction(-1, 3), Fraction(1, 7), Fraction(-5, 6), Fraction(-1, 2)]
)
@pytest.mark.parametrize("box", [((-2, 2), (-2, 2)), ((-0.5, 3), (-0.5, 3))])
def test_symmetric_scan_breaks_ties_by_grid_index(t, box):
    # with t = t' on a square box, cells (i, j) and (j, i) tie exactly
    r = assert_scan_matches_dense(t, t, box, 128, families=[])
    assert r.argmin[0] <= r.argmin[1]
    assert residual(t, t, *r.argmin) == residual(t, t, r.argmin[1], r.argmin[0])


@pytest.mark.parametrize(
    "t,tp,box",
    [
        (0, 0, ((-4, 4), (-4, 4))),
        (Fraction(1, 9), Fraction(-4, 7), ((-3, 3.5), (-1, 2))),
        # a strip of unmasked cells the sampled subgrid misses: tau is inf
        (0, 0, ((1 - 0.00099, 1 + 0.00102), (1 - 0.00099, 1 + 0.00099))),
    ],
)
def test_scan_in_small_row_groups_equals_dense_scan(monkeypatch, t, tp, box):
    monkeypatch.setattr(ortho_solver, "SCAN_GROUP", 100)
    assert math.isfinite(assert_scan_matches_dense(t, tp, box, 300).min_residual)


def test_far_box_gives_finite_residuals():
    # far out, where a float phase pi (2t+1) l once overflowed to NaN, the
    # exactly reduced kernel keeps every cell's residual finite
    with np.errstate(all="ignore"):
        r = scan_residual(Fraction(1, 7), Fraction(2, 9), ((-1e307, 1e307), (-1, 1)), 64)
    assert math.isfinite(r.min_residual)
    assert all(math.isfinite(v) for v in r.argmin)


def exact_centre(box, grid, arg):
    """The exact cell centre that ``arg``, a reported argmin, rounds."""
    centre = []
    for (lo, hi), v in zip(box, arg):
        lo, hi = Fraction(lo), Fraction(hi)
        i = round((Fraction(v) - lo) * grid / (hi - lo) - Fraction(1, 2))
        centre.append(lo + (2 * i + 1) * (hi - lo) / (2 * grid))
        assert float(centre[-1]) == v
    return tuple(centre)


def test_far_box_excludes_its_boundary_cell():
    # (100002.999, -100003.001) lies exactly 1/1000 from the lattice point
    # (100003, -100003); float centres once put it just outside the ball
    box = ((100000, 100004), (-100004, -100000))
    r = scan_residual(0, 0, box, 2000)
    assert r.argmin != (100002.999, -100003.001)
    assert excluded(INTEGER_LATTICE, Fraction(100002999, 1000), Fraction(-100003001, 1000))
    centre = exact_centre(box, 2000, r.argmin)
    assert not any(excluded(fam, *centre) for fam in solve_families(0, 0))


def near_dtypes(monkeypatch):
    """The (centre, index) dtypes of each ``near`` call, as the scan makes them."""
    dtypes = []
    near = ortho_solver.OrthSolutionFamily.near

    def spy(self, x, den, axis):
        got = near(self, x, den, axis)
        dtypes.append((x.dtype, got[1].dtype))
        return got

    monkeypatch.setattr(ortho_solver.OrthSolutionFamily, "near", spy)
    return dtypes


def test_far_box_keeps_the_exclusion_bounds_on_int64(monkeypatch):
    # the centres are int64, 400 (2e13 + 4) < 2^53, and every product in
    # ``near`` stays near 2 * 400 * 2e13 * 2 < 2^62 on both families and axes
    dtypes = near_dtypes(monkeypatch)
    box = ((2 * 10**13, 2 * 10**13 + 4), (-2 * 10**13 - 4, -2 * 10**13))
    r = assert_scan_matches_dense(0, 0, box, 200)
    assert dtypes == [(np.int64, np.int64)] * 4
    assert math.isfinite(r.min_residual)


def test_fine_box_widens_the_exclusion_bounds_past_int64(monkeypatch):
    # corners over 2^50 at grid 3: the centres are int64, 6 * 2^50 < 2^53, but
    # the radius test's 1000 M passes 2^62 on both families: each call widens
    dtypes = near_dtypes(monkeypatch)
    e = Fraction(1, 2**50)
    box = ((e, Fraction(1, 2) + e), (-Fraction(1, 2) - e, -e))
    r = assert_scan_matches_dense(Fraction(-1, 3), Fraction(-1, 3), box, 3)
    assert dtypes == [(np.int64, object)] * 4
    assert math.isfinite(r.min_residual)


FAR = 3 * 10**15 + Fraction(3, 2)  # an antidiagonal coordinate for a = 3, past 2^53


@pytest.mark.parametrize(
    "t,tp,centre,empty",
    [
        (0, 0, (2, -2), True),
        (0, 0, (Fraction(1, 2), Fraction(-1, 2)), True),
        (0, 0, (100002, -100002), True),
        (0, 0, (10**12 + Fraction(1, 2), -(10**12) - Fraction(1, 2)), True),
        (Fraction(-1, 3), Fraction(-1, 3), (FAR, -FAR), True),
        (Fraction(-1, 2), -1, (-(10**9), 7), True),
        # l1 and -l2 are antidiagonal coordinates of two different members
        (0, 0, (Fraction(1, 2), Fraction(1, 2)), False),
        (0, 0, (Fraction(1, 2), Fraction(-3, 2)), False),
        (Fraction(-1, 3), Fraction(-1, 3), (Fraction(3, 2), Fraction(-9, 2)), False),
    ],
)
def test_exclusion_balls_are_closed_and_pair_coordinates_by_member(t, tp, centre, empty):
    # grid 3 on a box 3/1000 wide puts the centres at c - 1/1000, c, c + 1/1000
    half = 3 * EXCLUSION_RADIUS / 2
    box = tuple((c - half, c + half) for c in centre)
    r = assert_scan_matches_dense(t, tp, box, 3)
    assert (r.min_residual == math.inf) == empty


@pytest.mark.parametrize("swap", [False, True])
def test_scan_keeps_nonzero_cells_next_to_the_axes(swap):
    # the cells at l2 = 1e-13 and 3e-13 are no zero frequency difference
    t, tp, box = Fraction(-1, 2), Fraction(1), ((1.3, 1.6), (0, Fraction(4, 10**13)))
    if swap:
        t, tp, box = tp, t, box[::-1]
    r = assert_scan_matches_dense(t, tp, box, 2)
    assert math.isfinite(r.min_residual)
    assert (r.argmin[0] if swap else r.argmin[1]) in (1e-13, 3e-13)


def test_decimal_box_is_exact_and_its_scan_runs_on_int64(monkeypatch):
    box = _parse_box("0.37,8.37,-5.21,2.79")
    exact = ((Fraction(37, 100), Fraction(837, 100)), (Fraction(-521, 100), Fraction(279, 100)))
    assert box == exact
    assert all(type(v) is Fraction for side in box for v in side)
    dtypes = []

    def recording(m, grid, D, *rest):
        dtypes.append(grid.dtype)
        return transform_rows(m, grid, D, *rest)

    monkeypatch.setattr(ortho_solver, "transform_rows", recording)
    r = scan_residual(Fraction(2, 7), Fraction(-3, 5), box, 4000)
    assert dtypes == [np.int64, np.int64]
    assert r.argmin == (5.979, -1.993)


@pytest.mark.parametrize(
    "t,tp,min_residual,argmin",
    [
        (Fraction(-1, 3), Fraction(-1, 3), 1.9999723912908663e-06, (-3.003, 2.997)),
        (Fraction(-3, 8), Fraction(-3, 8), 3.138454629495601e-06, (-3.003, 1.001)),
        (Fraction(-1, 2), Fraction(-1), 3.1384546294954704e-06, (-3.003, -1.001)),
        (Fraction(0), Fraction(0), 1.9999723912908104e-06, (-3.003, 2.997)),
    ],
)
def test_production_grid_scans_are_unchanged(t, tp, min_residual, argmin):
    # recorded from ``dense_scan`` of every cell, run in blocks of rows to bound memory
    r = scan_residual(t, tp, ((-4, 4), (-4, 4)), 4000)
    assert r.min_residual == min_residual
    assert r.argmin == argmin


def test_classify_valid_case():
    c = classify_spectrum_candidates(0)
    assert c.verdict == "valid ONB"
    assert c.candidate_step == Fraction(1, 2)
    assert c.density_exact == 2


def test_classify_odd_case_density():
    c = classify_spectrum_candidates(Fraction(-1, 3), window=100)
    assert c.verdict == "fails Landau necessary condition"
    assert c.candidate_step == Fraction(3, 2)
    assert c.projection_step == Fraction(3, 2)
    assert c.density_exact == Fraction(2, 3)
    assert abs(c.density_window_estimate - 2 / 3) <= 1 / 100 + 1e-12


@pytest.mark.parametrize("a", [1, 3, 7])
@pytest.mark.parametrize("window", [0.5, 10.0, 100.0, 12345.678])
def test_classify_estimate_is_that_of_the_exact_progression(a, window):
    c = classify_spectrum_candidates(Fraction(1 - a, 2 * a), window=window)
    half_count = math.ceil(4 * window / a) + 1
    exact = [Fraction(a, 2) * j for j in range(-half_count, half_count + 1)]
    assert c.density_window_estimate == lower_beurling_density(exact, window)


def test_classify_even_case_empty():
    c = classify_spectrum_candidates(Fraction(-1, 4))
    assert c.verdict == "fails: empty non-integer candidate"
    assert c.candidate_step is None
    assert c.density_window_estimate is None


@pytest.mark.parametrize("t", [0, Fraction(-1, 3), Fraction(-1, 4)])
@pytest.mark.parametrize("window", [-5.0, -1e-300, 0.0])
def test_classify_rejects_non_positive_window(t, window):
    # a window of no length gives no candidates, whose density would read 0
    with pytest.raises(MalformedInputError, match="window must be positive"):
        classify_spectrum_candidates(t, window=window)


@pytest.mark.parametrize("t", [0, Fraction(-1, 3), Fraction(-1, 4)])
@pytest.mark.parametrize("anchors", [0, -1])
def test_classify_rejects_no_anchors_on_every_parity(t, anchors):
    with pytest.raises(MalformedInputError, match="need at least one anchor"):
        classify_spectrum_candidates(t, anchors=anchors)


@pytest.mark.parametrize(
    "t,window",
    [
        # a = 1 and a = 3 take 2 * ceil(4 * window / a) + 3 points: 999999 at
        # windows 124999.5 and 374998.5, more than CLASSIFY_POINTS just past them
        (0, 124999.5 + 1e-6),
        (Fraction(-1, 3), 374998.5 + 1e-6),
        (0, 1e9),
        (Fraction(-1, 3), 1e200),
        (0, 1.7e308),  # 2 * window overflows to inf
    ],
)
def test_classify_bounds_its_candidate_points(t, window):
    # the bound is checked before any candidate is built
    tracemalloc.start()
    try:
        with pytest.raises(MalformedInputError, match=f"more than {CLASSIFY_POINTS}"):
            classify_spectrum_candidates(t, window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_solved_case_table_agrees_with_itself():
    for a in range(1, 61):
        t = Fraction(1 - a, 2 * a)  # 2t+1 = 1/a
        case = classify_case(t, t)
        fams = solve_families(t, t)
        c = classify_spectrum_candidates(t, window=10)
        assert case == (("L",) if a == 1 else ("symmetric", a))
        assert c.a == a and fams[0] == INTEGER_LATTICE
        if a % 2:
            kind = "antidiagonal-half-integer" if a == 1 else "antidiagonal-odd-multiple-a-half"
            assert fams[1:] == [ortho_solver.OrthSolutionFamily(kind, c.candidate_step, a, True)]
            assert c.candidate_step == c.projection_step == Fraction(a, 2)
            assert c.density_exact == Fraction(2, a)
        else:
            assert fams == [INTEGER_LATTICE]
            assert c.candidate_step is c.projection_step is c.density_exact is None
            assert c.density_window_estimate is None
        assert (c.verdict == "valid ONB") == (a == 1)


def test_classify_rejects_unsolved():
    with pytest.raises(UnsolvedCaseError):
        classify_spectrum_candidates(Fraction(-1, 2))
    with pytest.raises(UnsolvedCaseError):
        classify_spectrum_candidates(Fraction(1, 7))
