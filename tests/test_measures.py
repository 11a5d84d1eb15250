import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from addspec import IntervalUnionMeasure, fourier_transform, support_bounds
from addspec.errors import MalformedInputError
from addspec.measures import as_fraction, transform_rows


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


def test_rejects_non_finite_frequency(unit_measure):
    with pytest.raises(MalformedInputError):
        fourier_transform(unit_measure, float("inf"))
    with pytest.raises(MalformedInputError):
        fourier_transform(unit_measure, float("nan"))


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
