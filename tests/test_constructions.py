import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addspec import (
    AdditiveSpace,
    ExponentPair,
    IntervalUnionMeasure,
    UNBOUNDED_BY_LOOP,
    assemble,
    identity_deviation,
    integer_base,
    l_space,
    l_space_onb,
    lev_style_set,
    m_tau_eigenvalues,
    max_zigzag_length,
    mirror_spectrum,
    multiplicity,
    nonoverlap_riesz_spectrum,
    riesz_section_certificate,
    symmetric_space,
)
from addspec.constructions import nonoverlap_margins, staircase_zigzag
from addspec.errors import MalformedInputError, OverlappingSupportError
from addspec.exponents import find_zigzag_loop


# ---------------------------------------------------------------------------
# Non-overlap doubled spectrum.
# ---------------------------------------------------------------------------


def test_nonoverlap_unit_interval_at_one():
    m = IntervalUnionMeasure.unit_interval(1)
    spec = nonoverlap_riesz_spectrum(m, integer_base(4))
    assert spec.tau == Fraction(1, 4)
    assert spec.epsilon == Fraction(1, 4)
    pts = set(spec.pairs.points)
    for n in range(-4, 5):
        assert ExponentPair(n, n) in pts
        assert ExponentPair(n, Fraction(4 * n + 1, 4)) in pts
    assert len(spec.pairs) == 18
    max_mult, per_line = multiplicity(spec.pairs)
    assert max_mult == 2
    assert all(per_line["x"][lam] == 2 for lam in spec.base)  # doubled verticals
    assert all(count == 1 for count in per_line["y"].values())
    assert nonoverlap_margins(m, spec.tau, spec.epsilon)


def test_nonoverlap_split_measure():
    m = IntervalUnionMeasure.from_pieces([("-2", "-1", "1/2"), ("1", "2", "1/2")])
    base = [Fraction(n, 2) for n in range(-6, 7)]
    spec = nonoverlap_riesz_spectrum(m, base)
    assert spec.tau == Fraction(1, 4)
    assert spec.epsilon == Fraction(1, 4)
    assert nonoverlap_margins(m, spec.tau, spec.epsilon)


def test_nonoverlap_rejects_support_through_zero():
    with pytest.raises(OverlappingSupportError):
        nonoverlap_riesz_spectrum(IntervalUnionMeasure.unit_interval(0), integer_base(2))


def test_nonoverlap_rejects_bad_base():
    m = IntervalUnionMeasure.unit_interval(1)
    with pytest.raises(MalformedInputError):
        nonoverlap_riesz_spectrum(m, [])
    with pytest.raises(MalformedInputError):
        nonoverlap_riesz_spectrum(m, [1, 1])


def test_nonoverlap_margins_exact_rationals():
    # endpoints land exactly on the closed margin bounds
    m = IntervalUnionMeasure.unit_interval(1)
    assert nonoverlap_margins(m, Fraction(1, 4), Fraction(1, 4))
    assert not nonoverlap_margins(m, Fraction(1, 4), Fraction(1, 3))


def test_nonoverlap_certificate_floor():
    m = IntervalUnionMeasure.unit_interval(1)
    space = AdditiveSpace(m, m)
    spec = nonoverlap_riesz_spectrum(m, integer_base(16))
    sizes = [2 * (2 * N + 1) for N in (4, 8, 16)]
    cert = riesz_section_certificate(space, spec.pairs.points, sizes)
    assert cert.verdict == "riesz-consistent"
    assert cert.floor > 0.29  # exact section bound is (2 - sqrt 2)/2
    assert cert.lambda_max[-1] < 4


# ---------------------------------------------------------------------------
# Mixing-form eigenvalues.
# ---------------------------------------------------------------------------


def test_m_tau_eigenvalue_examples():
    lo, hi = m_tau_eigenvalues(Fraction(1, 4), 2)
    assert (lo, hi) == pytest.approx((2.0, 2.0), abs=1e-12)
    assert m_tau_eigenvalues(Fraction(5, 7), 0) == pytest.approx((0.0, 4.0))
    lo, hi = m_tau_eigenvalues(Fraction(1, 4), 1)
    assert lo == pytest.approx(2 - math.sqrt(2), abs=1e-12)
    assert hi == pytest.approx(2 + math.sqrt(2), abs=1e-12)


def test_m_tau_window_for_unit_interval_at_one():
    # over the support [1, 2] with tau = 1/4 both eigenvalues stay within
    # [2(1 - cos(pi/4)), 4]; the lower edge is attained at x = 1
    floor = 2 * (1 - math.cos(math.pi / 4))
    for k in range(1001):
        x = 1 + k / 1000
        lo, hi = m_tau_eigenvalues(Fraction(1, 4), x)
        assert lo >= floor - 1e-12
        assert hi <= 4.0
        assert lo <= hi


# ---------------------------------------------------------------------------
# Antidiagonal spectra.
# ---------------------------------------------------------------------------


def test_l_space_onb_points():
    assert l_space_onb(0).points == (ExponentPair(0, 0),)
    pts = l_space_onb(3).points
    assert len(pts) == 7
    assert pts[0] == ExponentPair(Fraction(-3, 2), Fraction(3, 2))
    assert pts[-1] == ExponentPair(Fraction(3, 2), Fraction(-3, 2))
    with pytest.raises(MalformedInputError):
        l_space_onb(-1)


def test_l_space_onb_gram_identity():
    assert identity_deviation(assemble(l_space(), l_space_onb(16).points)) < 1e-12


@settings(max_examples=30)
@given(N=st.integers(min_value=0, max_value=40))
def test_l_space_onb_structure(N):
    es = l_space_onb(N)
    assert multiplicity(es)[0] == 1
    assert max_zigzag_length(es) == 0


def test_mirror_spectrum_points_and_validation():
    assert mirror_spectrum(1, 0).points == (ExponentPair(0, 0),)
    assert len(mirror_spectrum(2, 16)) == 33
    with pytest.raises(MalformedInputError):
        mirror_spectrum(0, 4)
    with pytest.raises(MalformedInputError):
        mirror_spectrum(1, -1)


@pytest.mark.parametrize("k", [1, 2])
def test_mirror_spectrum_gram_identity(k):
    # orthogonality verified against the shifted components, not assumed;
    # the pre-build quadrature oracle confirms Re ft vanishes at half-integers
    space = symmetric_space(k)
    g = assemble(space, mirror_spectrum(k, 16).points)
    assert identity_deviation(g) < 1e-12


# ---------------------------------------------------------------------------
# High-multiplicity schematic sets.
# ---------------------------------------------------------------------------


def test_lev_style_set_basic():
    es = lev_style_set(2, 7)
    assert max_zigzag_length(es) >= 7
    assert find_zigzag_loop(es) is None
    spine = staircase_zigzag(7)
    assert all(p in es for p in spine.vertices)
    # spine lines carry exactly q points
    _, per_line = multiplicity(es)
    for p in spine.vertices:
        assert per_line["x"][p.a] == 2
        assert per_line["y"][p.b] == 2


def test_staircase_rejects_a_negative_length():
    with pytest.raises(MalformedInputError, match="^length must be non-negative$"):
        staircase_zigzag(-1)


def test_lev_style_set_depth_one():
    es = lev_style_set(2, 1)
    assert max_zigzag_length(es) >= 1


def test_lev_style_set_q3_certificate():
    es = lev_style_set(3, 10)
    cert = riesz_section_certificate(l_space(), es.points, [11, len(es)])
    assert cert.lambda_min[-1] <= 2 / 11 + 1e-9


@settings(max_examples=20, deadline=None)
@given(q=st.integers(min_value=2, max_value=4), depth=st.integers(min_value=2, max_value=12))
def test_lev_style_set_properties(q, depth):
    es = lev_style_set(q, depth)
    assert multiplicity(es)[0] == q
    length = max_zigzag_length(es)
    assert length != UNBOUNDED_BY_LOOP and length >= depth


def test_lev_style_set_rejects_bad_params():
    with pytest.raises(MalformedInputError):
        lev_style_set(1, 5)
    with pytest.raises(MalformedInputError):
        lev_style_set(2, 0)


def test_integer_base_order():
    assert integer_base(2) == (0, 1, -1, 2, -2)
    with pytest.raises(MalformedInputError):
        integer_base(-3)
