import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from addspec import IntervalUnionMeasure, fourier_transform, support_bounds
from addspec.additive_space import (
    ExponentPair, PiecewisePolynomial, exp_inner, l_space, measure_integral,
)
from addspec.errors import MalformedInputError
from addspec.exact import ratio
from addspec.measures import (
    INT64_SAFE, as_fraction, exact_grid, residues, transform_rows, unit_phase,
)


def quad_transform(m, lam):
    """Independent oracle: piecewise adaptive quadrature of the transform."""
    total = 0j
    for l, r, w in m.pieces:
        dens = float(w) / float(r - l)
        re, _ = quad(lambda x: math.cos(2 * math.pi * lam * x), float(l), float(r),
                     epsabs=1e-13, limit=300)
        im, _ = quad(lambda x: math.sin(2 * math.pi * lam * x), float(l), float(r),
                     epsabs=1e-13, limit=300)
        total += dens * (re + 1j * im)
    return total


def test_integer_frequency_vanishes(unit_measure):
    assert abs(fourier_transform(unit_measure, 3)) < 1e-12


def test_zero_frequency_is_exactly_one(unit_measure, split_measure):
    assert fourier_transform(unit_measure, 0) == 1.0 + 0j
    assert fourier_transform(split_measure, Fraction(0)) == 1.0 + 0j


def test_half_frequency_closed_form(unit_measure):
    # quad oracle gives i * 2/pi; frozen value below
    value = fourier_transform(unit_measure, Fraction(1, 2))
    assert value == pytest.approx(0.6366197723675814j, abs=1e-12)
    assert value == pytest.approx(quad_transform(unit_measure, 0.5), abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_symmetric_union_vanishes_at_odd_half_integers(split_measure, n):
    # symmetric pieces contribute conjugates; at odd half-integers each piece
    # is purely imaginary, so the sum cancels outright
    assert abs(fourier_transform(split_measure, Fraction(n, 2))) < 1e-12
    assert abs(quad_transform(split_measure, n / 2)) < 1e-10


@pytest.mark.parametrize(
    "lam", [0.1, 0.37, 1.0, 2.5, -3.25, 7.125, 19.5, -0.001, 41.7]
)
def test_matches_adaptive_quadrature(unit_measure, split_measure, lam):
    for m in (unit_measure, split_measure):
        assert fourier_transform(m, lam) == pytest.approx(
            quad_transform(m, lam), abs=1e-10
        )


@settings(max_examples=300)
@given(lam=st.floats(min_value=-80, max_value=80, allow_nan=False))
def test_conjugate_symmetry_and_modulus(lam):
    m = IntervalUnionMeasure.from_pieces([("-2", "-1", "1/2"), ("1", "2", "1/2")])
    v = fourier_transform(m, lam)
    w = fourier_transform(m, -lam)
    assert abs(v - w.conjugate()) < 1e-12
    assert abs(v) <= 1 + 1e-12


def test_support_bounds_examples():
    assert support_bounds(IntervalUnionMeasure.unit_interval(1)) == (1, 2)
    assert support_bounds(IntervalUnionMeasure.unit_interval(0)) == (0, 1)
    m = IntervalUnionMeasure.from_pieces([("-2", "-1", "1/2"), ("3", "4", "1/2")])
    assert support_bounds(m) == (1, 4)


def test_support_touching_zero_from_inside():
    m = IntervalUnionMeasure.from_pieces([("-1", "1", "1")])
    assert support_bounds(m) == (0, 1)


def test_rejects_bad_measures():
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_pieces([])
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_pieces([("0", "1", "1/2"), ("1/2", "2", "1/2")])
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_pieces([("1", "1", "1")])
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_pieces([("0", "1", "0.9")])
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_pieces([("0", "1", "-1")])


@pytest.mark.parametrize("k", [0, 10**6, 10**9, 10**15])
def test_exact_frequency_phase_far_from_origin(k):
    # on [k, k+1] at lam = n/2 the phase pi*lam*(2k+1) is a multiple of pi/2,
    # reduced exactly: the transform is i^(n(2k+1)) * sinc(n/2) to a few ulps
    m = IntervalUnionMeasure.unit_interval(k)
    for n in (1, 3, -5):
        want = 1j ** (n * (2 * k + 1) % 4) * math.sin(math.pi * n / 2) / (math.pi * n / 2)
        assert abs(fourier_transform(m, Fraction(n, 2)) - want) < 1e-15
        assert fourier_transform(m, n / 2) == fourier_transform(m, Fraction(n, 2))
    assert abs(fourier_transform(m, 7)) < 1e-15


@pytest.mark.parametrize("t", [0, Fraction(-1, 2), Fraction(1, 3), -1, 10**9])
def test_integer_frequencies_on_unit_pieces_vanish_exactly(t):
    # the sine's turn is a half (odd) or a whole (even) turn, folded exactly
    m = IntervalUnionMeasure.unit_interval(t)
    for k in (1, -1, 3, -7, 2, -4, 10**12 + 1):
        assert fourier_transform(m, k) == 0
    rows = transform_rows(m, np.arange(-6, 7), 1)
    block = rows(slice(None), slice(None), np.empty((13, 13), dtype=complex))
    assert np.array_equal(block, np.eye(13))


@pytest.mark.parametrize("k", [1, -3, 10**6 + 1])
def test_near_half_turns_keep_their_digits(k):
    # sin(pi lam) at lam = k + 1e-12 is -+pi 1e-12 to full relative precision
    m = IntervalUnionMeasure.unit_interval(0)
    lam = k + Fraction(1, 10**12)
    with mpmath.workdps(40):
        z = mpmath.pi * mpmath.mpf(lam.numerator) / lam.denominator
        want = complex(mpmath.exp(1j * z) * mpmath.sin(z) / z)
    got = fourier_transform(m, lam)
    assert abs(got - want) <= 4e-16 * abs(want)


@pytest.mark.parametrize("q", [2**60 - 1, 2**60, 2**62, 2**64 + 13, 3**50, 2**80])
def test_all_zero_grids_widen_by_the_denominator(q):
    # every product x p is 0, but p mod q = q - 1 itself can leave int64:
    # the rule reads 4 max(1, max|x|) q, and the residues are int64 iff 4q < 2^62
    zeros = np.zeros(3, dtype=np.int64)
    k = residues(zeros, Fraction(q - 1, q))
    assert k.dtype == (np.int64 if 4 * q < INT64_SAFE else object)
    assert k.tolist() == [0, 0, 0]
    assert unit_phase(zeros, Fraction(q - 1, q)).tolist() == [1, 1, 1]


def test_zero_frequency_is_one_at_a_denominator_past_int64():
    assert fourier_transform(IntervalUnionMeasure.unit_interval(Fraction(1, 3**50)), 0) == 1


def test_rejects_non_finite_frequency(unit_measure):
    with pytest.raises(MalformedInputError):
        fourier_transform(unit_measure, float("inf"))
    with pytest.raises(MalformedInputError):
        fourier_transform(unit_measure, float("nan"))


exact_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 10**30)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9).map(str),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_values, min_size=1, max_size=8))
def test_exact_grid_numerators_over_the_lcm(values):
    fracs = [as_fraction(v) for v in values]
    if 2 * max(abs(f) for f in fracs) > sys.float_info.max:
        with pytest.raises(MalformedInputError, match="float range"):
            exact_grid(values)
        return
    grid, D = exact_grid(values)
    assert D == math.lcm(*(f.denominator for f in fracs))
    assert [Fraction(int(x), D) for x in grid] == fracs
    nums = [f.numerator * (D // f.denominator) for f in fracs]
    assert (grid.dtype == np.int64) == (max(max(map(abs, nums)), D) < INT64_SAFE)
    assert grid.dtype in (np.int64, object)


@pytest.mark.parametrize("value, dtype", [
    (2**62 - 1, np.int64), (-(2**62) + 1, np.int64), (2**62, object), (-(2**62), object),
    (Fraction(1, 2**62 - 1), np.int64), (Fraction(1, 2**62), object),
])
def test_exact_grid_dtype_edges(value, dtype):
    # numerators and D below 2^62 stay int64, so their phase products do too
    grid, D = exact_grid([value, 0])
    assert grid.dtype == dtype and Fraction(int(grid[0]), D) == value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_exact_grid_rejects_values_past_the_float_range(value):
    with pytest.raises(MalformedInputError):
        exact_grid([value])


def test_transforms_past_the_float_range_are_malformed(unit_measure):
    fn = PiecewisePolynomial.constant([(0, 1)])
    with pytest.raises(MalformedInputError, match="float range"):
        fourier_transform(unit_measure, 10**400)
    with pytest.raises(MalformedInputError, match="float range"):
        measure_integral(unit_measure, fn, [10**400])
    with pytest.raises(MalformedInputError, match="float range"):
        exp_inner(l_space(), ExponentPair(10**400, 0), ExponentPair(0, 0))


def test_json_roundtrip(split_measure):
    data = split_measure.to_json()
    again = IntervalUnionMeasure.from_json(data)
    assert again == split_measure
    assert data[0]["left"] == "-2"


def test_json_rejects_garbage():
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_json({"left": "0"})
    with pytest.raises(MalformedInputError):
        IntervalUnionMeasure.from_json([{"left": "0", "right": "1"}])


def _parsed(parse, text):
    """(numerator, denominator) of ``parse(text)``, or None if it rejects it."""
    try:
        f = parse(text)
    except (ValueError, ZeroDivisionError, MalformedInputError):
        return None
    assert type(f) is Fraction
    return f.numerator, f.denominator


PLAIN_EDGES = ["+3", " 3 ", "1_000", "٣", "007", "-0", "0/5", "1/0", "1/-2", "3.5",
               "1e3", "", "-", "-7/21", "--1", "1/2/3", "/2", "2/", "²", "9" * 5000]


def _assert_matches_fraction(text):
    want = _parsed(Fraction, text)
    assert _parsed(as_fraction, text) == want, text
    if want is None:
        with pytest.raises(MalformedInputError, match=re.escape(f"not a rational: {text!r}")):
            as_fraction(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.from_regex(r"-?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True),
    st.text(alphabet="0123456789-+/ _.eE٣²", max_size=8),
    st.text(max_size=6),
))
def test_as_fraction_strings_match_fraction(text):
    _assert_matches_fraction(text)


def test_as_fraction_plain_string_edges():
    for text in PLAIN_EDGES:
        _assert_matches_fraction(text)


def _assert_ratio_is_as_fraction(value):
    try:
        f = as_fraction(value)
    except MalformedInputError as exc:
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(exc))}$"):
            ratio(value)
        return
    n, d = ratio(value)
    assert (n, d) == (f.numerator, f.denominator), value
    assert type(n) is int and type(d) is int and d > 0


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.from_regex(r"-?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True),
    st.text(alphabet="0123456789-+/ _.eE٣²", max_size=8),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.fractions(),
    st.none(),
))
def test_ratio_is_the_lowest_terms_pair_of_as_fraction(value):
    # the point-file keys and as_fraction come from the one parser
    _assert_ratio_is_as_fraction(value)


def test_ratio_edges():
    for value in PLAIN_EDGES + ["6/4", "-6/4", "0/7", [1], 2**80, -0.0]:
        _assert_ratio_is_as_fraction(value)
    assert ratio("-6/4") == (-3, 2) and ratio("0/7") == (0, 1) and ratio(True) == (1, 1)
