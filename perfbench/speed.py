"""The reference loop: how fast the machine runs at a given moment.

The benchmark runs on a shared machine whose speed moves by up to 2x within
seconds and by 1.5x over minutes.  With each operation at its lowest raw
latency over a 40 s run, ten runs of the same code spread by 0.16-0.35 of
their median.
So every time the benchmark reports is scaled: it times this loop, in the
same process, just before and just after the timed work, and reports
``wall * REF_NOMINAL_S / reference``, the time on a machine that runs the
loop in REF_NOMINAL_S.  The loop is float and complex arithmetic that owes
nothing to addspec: a change to addspec moves the scaled time as it moves
the raw one, and a change in the machine's speed moves the loop too.
"""

import cmath
import math
from time import perf_counter

REF_STEPS = 20000
REF_NOMINAL_S = 0.010


def reference_s():
    """Wall time of one run of the reference loop."""
    start = perf_counter()
    z = 0j
    for i in range(REF_STEPS):
        z += cmath.exp(1j * (i * 0.37)) * math.sin(i * 0.1) / (i + 1)
    return perf_counter() - start


def scaled(wall, reference):
    """wall at the nominal machine speed, given the reference time next to it."""
    return wall * REF_NOMINAL_S / reference
