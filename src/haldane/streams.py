"""Deterministic random streams for reproducible (and parallel) Monte Carlo.

Every stream is a Philox counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) whose 128-bit key
is assembled from a user seed and a stream index.  Stream (seed, i) is
the same no matter which worker draws from it or in which order, so
parallel aggregates are bit-identical to serial ones.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for stream `index` (a block of trials, a table cell) of `seed`.

    The Philox key packs the seed in the high 64 bits and the stream
    index in the low 64 bits; distinct (seed, index) pairs never share
    a key.
    """
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def make_rng(seed: int) -> np.random.Generator:
    """Single ad-hoc stream (stream index 0 of `seed`)."""
    return trial_rng(seed, 0)


class TrialStreams:
    """The streams of one experiment: `stream(i)` is `trial_rng(seed, i)`.

    Monte Carlo runs key stream i to their i-th block of trials, so a
    block draws the same numbers whichever worker runs it.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, index: int) -> np.random.Generator:
        return trial_rng(self.seed, index)
