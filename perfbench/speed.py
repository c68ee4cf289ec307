"""Host speed, measured by a fixed reference kernel interleaved with the work.

A shared virtual machine can change speed by 20-40% over tens of seconds
(on a 2-vCPU Xeon VM: no steal time, CPU time drifting as much as wall
time), so longer runs do not average the drift out.  The runner therefore
times a short, fixed, pure-Python kernel every 50 ms while the operations
run and divides their wall time by the host's slowness at that moment:

    reference seconds = wall seconds * NOMINAL_UNIT_S / measured unit time

A reference second is a second of a host on which one kernel unit takes
``NOMINAL_UNIT_S``.  The kernel uses no canonalg code, so a change to
canonalg leaves it alone; it mixes the interpreter work canonalg spends its
time on: dict-of-monomials products, dense row elimination mod p through
method calls, and ``Fraction`` arithmetic.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_UNIT_S = 6.0e-4  # one kernel unit on a 2-vCPU Xeon VM (0.4-0.9 ms seen)
BURST_UNITS = 10  # units in a stand-alone burst, about 6 ms
TICK_UNITS = 3  # units in a burst taken while work runs, about 2 ms
TICK_S = 0.05  # wall time between those bursts
WINDOW_S = 0.25  # bursts this close to a piece of work also gauge its host speed

_rng = random.Random(20061008)
_LEFT = {(_rng.randrange(5), _rng.randrange(5)): _rng.randrange(1, 7) for _ in range(14)}
_RIGHT = {(_rng.randrange(5), _rng.randrange(5)): _rng.randrange(1, 7) for _ in range(14)}
_MATRIX = [[_rng.randrange(7) for _ in range(12)] for _ in range(10)]
_FRACTIONS = [Fraction(_rng.randrange(1, 50), _rng.randrange(1, 50)) for _ in range(24)]


class _Mod:
    """Scalars mod p through method calls, as canonalg's rings do."""

    p = 7

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0


_MOD = _Mod()


def _unit() -> int:
    product: dict = {}
    for (a1, a2), c in _LEFT.items():
        for (b1, b2), d in _RIGHT.items():
            key = (a1 + b1, a2 + b2)
            product[key] = (product.get(key, 0) + c * d) % 7
    mat = [list(row) for row in _MATRIX]
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if not _MOD.is_zero(mat[r][col])), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        scale = _MOD.inv(mat[rank][col])
        mat[rank] = [_MOD.mul(scale, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not _MOD.is_zero(mat[r][col]):
                f = 7 - mat[r][col]
                mat[r] = [_MOD.add(v, _MOD.mul(f, w)) for v, w in zip(mat[r], mat[rank])]
        rank += 1
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b - b / (a + 1)
    return len(product) + rank + total.denominator % 3


def factor(units: int = BURST_UNITS) -> float:
    """Host slowness now: median unit time over NOMINAL_UNIT_S (1.0 = nominal)."""
    clock = time.perf_counter
    times = []
    for _ in range(units):
        t0 = clock()
        _unit()
        times.append(clock() - t0)
    return statistics.median(times) / NOMINAL_UNIT_S


class Sampler:
    """Samples the host's slowness every ``TICK_S`` while work runs.

    Inside ``with Sampler() as s:`` a SIGALRM handler runs a short burst of
    the kernel every ``TICK_S`` of wall time, between two bytecodes of
    whatever is running, and records (start, end, factor).  One more burst
    is taken on entry and one on exit.  Afterwards ``ref_seconds(a, b)``
    gives the reference time of the work done between wall-clock readings
    ``a`` and ``b``: their distance less the bursts inside it, divided by
    the mean factor of the bursts from ``WINDOW_S`` before ``a`` to
    ``WINDOW_S`` after ``b``, and at least the nearest one on either side.
    The work is still measured in one process and one thread.
    """

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.factors: list = []
        self._previous = None

    def _burst(self, *_) -> None:
        t0 = time.perf_counter()
        f = factor(TICK_UNITS)
        self.starts.append(t0)
        self.factors.append(f)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._burst()
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()
        return False

    def ref_seconds(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        stolen = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        first = min(bisect.bisect_left(self.starts, a - WINDOW_S), max(lo - 1, 0))
        last = max(bisect.bisect_right(self.starts, b + WINDOW_S), min(hi + 1, len(self.starts)))
        near = self.factors[first:last]
        return (b - a - stolen) / (sum(near) / len(near))
