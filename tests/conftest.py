import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import addspec
from addspec import ExponentSet, IntervalUnionMeasure, staircase_zigzag


@pytest.fixture(scope="session")
def unit_measure():
    return IntervalUnionMeasure.unit_interval(0)


@pytest.fixture(scope="session")
def split_measure():
    """Symmetric two-piece measure on [-2,-1] u [1,2]."""
    return IntervalUnionMeasure.from_pieces(
        [("-2", "-1", "1/2"), ("1", "2", "1/2")]
    )


@pytest.fixture(scope="session")
def rectangle_points():
    return ExponentSet.of([(1, 1), (1, 3), (3, 1), (3, 3)])


@pytest.fixture(scope="session")
def staircase_8():
    """Unit staircase over 8 points, starting at (1,1) with a vertical move."""
    return staircase_zigzag(7, start=(1, 1))


@pytest.fixture(scope="session")
def fresh_python():
    """Run a script in a fresh interpreter that imports this checkout's addspec."""
    src = str(Path(addspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))

    def run(script, *args):
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    return run


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _mp_monomial(k, lo, hi, f):
    """Integral of x^k e^{2 pi i f x} over [lo, hi] from the exact antiderivative
    e^{cx} sum_j (-1)^j k!/(k-j)! x^{k-j} / c^{j+1}, c = 2 pi i f."""
    if f == 0:
        return (_mp(hi) ** (k + 1) - _mp(lo) ** (k + 1)) / (k + 1)
    c = 2j * mpmath.pi * _mp(f)

    def antiderivative(x):
        x = _mp(x)
        return mpmath.exp(c * x) * mpmath.fsum(
            (-1) ** j * mpmath.factorial(k) / mpmath.factorial(k - j) * x ** (k - j) / c ** (j + 1)
            for j in range(k + 1)
        )

    return antiderivative(hi) - antiderivative(lo)


def _log10(x):
    return math.log10(abs(x.numerator)) - math.log10(x.denominator)


@pytest.fixture(scope="session")
def mp_integral():
    """Reference  integral of fn(x) e^{2 pi i f x} dm(x)  as an mpmath complex.

    Endpoints, weights and the frequency are taken exactly, the coefficients
    at their exact binary value.  On an overlap of length L the
    antiderivative's terms exceed the integral by up to (|f| L)^-(k+1), so the
    working precision adds those digits to 60, which leaves more than 40
    correct digits in the result.
    """

    def integral(m, fn, f):
        f = Fraction(f)
        overlaps = []
        for ml, mr, w in m.pieces:
            for fl, fr, coeffs in fn.pieces:
                lo, hi = max(ml, fl), min(mr, fr)
                if lo < hi:
                    overlaps.append((lo, hi, w / (mr - ml), coeffs))
        lost = [
            len(coeffs) * max(0.0, -_log10(f * (hi - lo)))
            for lo, hi, _, coeffs in overlaps if f != 0
        ]
        with mpmath.workdps(60 + math.ceil(max(lost, default=0.0))):
            total = mpmath.mpc(0)
            for lo, hi, dens, coeffs in overlaps:
                for k, c in enumerate(coeffs):
                    total += _mp(dens) * mpmath.mpc(c.real, c.imag) * _mp_monomial(k, lo, hi, f)
            return total

    return integral
