import os
import subprocess
import sys
from pathlib import Path

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
