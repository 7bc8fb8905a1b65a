"""The machine-speed probe: a fixed piece of work timed beside the program.

The sizing box (a 2-vCPU slice of a shared host) moves between speed
levels up to 2.5x apart and stays on one for minutes, so the same replay
reads 1,250 deliveries/s in one run and 700 in the next, and no filter
over a run's own rounds can see through a level that outlasts the run.
The slowdown does reach a fixed piece of Python/numpy work in the same
proportion, though: over 40 replays of ``steady`` in five processes the
raw wall spread 17 % (interquartile, of its median; range 0.77-1.21) and
the wall divided by the mean probe time interleaved with it 5 % (range
0.86-1.08). So every time the harness reports is scaled to the speed at
which the probe takes ``NOMINAL_S``:

    reported seconds = measured seconds * NOMINAL_S / mean probe seconds

On a box that runs the probe in ``NOMINAL_S`` the numbers are plain
seconds. The probe's work is half call-heavy Python (dict lookups,
method calls, ``min``/``max``, a generator into ``numpy.fromiter`` — the
shape of the engine's per-candidate scoring) and half small-array numpy
calls (``take``, ``sum``, ``lexsort`` — the shape of its vector kernels);
a least-squares fit of wall against the two halves weighs them equally
(0.46 / 0.46), and a tight bytecode loop adds nothing (0.02).

This file is the unit of every number the benchmark has recorded: a
change to the work below or to ``NOMINAL_S`` rescales them all.
"""

from __future__ import annotations

from time import perf_counter

import numpy

#: Mean probe time on the sizing box at its fastest level (the one on
#: which ``steady`` replays at ~1,150 raw deliveries/s).
NOMINAL_S = 200e-6

_KEYS = list(range(256))
_VALUES = numpy.random.default_rng(0).random(4096)
_PICKS = numpy.random.default_rng(1).integers(0, 4096, 256)


class _Ledger:
    def __init__(self) -> None:
        self.clicks = {key: float(key % 7) for key in range(0, 512, 2)}
        self.shown = {key: float(10 + key % 13) for key in range(0, 512, 3)}
        self.prior = 0.05

    def estimate(self, key: int) -> float:
        shown = self.shown.get(key)
        if shown is None:
            return self.prior
        return (self.clicks.get(key, 0.0) + 1.0) / (shown + 20.0)

    def multiplier(self, key: int) -> float:
        return min(2.0, max(0.5, self.estimate(key) / self.prior))


_LEDGER = _Ledger()


def run() -> float:
    """Do the fixed work once; return the seconds it took."""
    started = perf_counter()
    ledger = _LEDGER
    numpy.fromiter(
        (ledger.multiplier(key) for key in _KEYS), dtype=numpy.float64, count=256
    )
    for _ in range(5):
        picked = _VALUES.take(_PICKS)
        picked.sum()
        numpy.lexsort((_PICKS, -picked))
    return perf_counter() - started
