"""Deterministic random streams for reproducible (and parallel) Monte Carlo.

Every stream is an SFC64 generator (Chris Doty-Humphrey's Small Fast
Chaotic generator, 256 bits of state) seeded by numpy's `SeedSequence`
from a user seed and a stream index, spawn-key style:
`SeedSequence(seed, spawn_key=(index,))` is the sequence that
`SeedSequence(seed).spawn(index + 1)[index]` returns, numpy's documented
way to derive parallel streams.  SeedSequence hashes each (seed, index)
pair into the 256-bit state, so distinct pairs give independent streams
except with negligible probability; unlike a packed counter key, that
is not a guarantee.  Stream (seed, i) is the same no matter which worker
draws from it or in which order, so parallel aggregates are
bit-identical to serial ones.

Seeds and indices are taken modulo 2**64, so a negative seed names the
same stream as that seed plus 2**64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_BIT_GENERATOR = "sfc64"
"""Name of the bit generator `trial_rng` builds.  A string, not the class:
numpy imports `numpy.random` lazily, and commands that draw nothing
should not pay for it."""


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for stream `index` (a block of trials, a table cell) of `seed`."""
    entropy = np.random.SeedSequence(seed & _MASK64, spawn_key=(index & _MASK64,))
    return np.random.Generator(np.random.SFC64(entropy))


def make_rng(seed: int) -> np.random.Generator:
    """Single ad-hoc stream (stream index 0 of `seed`)."""
    return trial_rng(seed, 0)


def layout(key: str) -> str:
    """`stream_layout` text of records whose stream i is `trial_rng(seed, i)` keyed by `key`."""
    return f"{_BIT_GENERATOR}(seed, {key})"


class TrialStreams:
    """The streams of one experiment: `stream(i)` is `trial_rng(seed, i)`.

    The package draws from `trial_rng` directly; this class stays only
    because the benchmark's span tracer binds `TrialStreams.stream`.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, index: int) -> np.random.Generator:
        return trial_rng(self.seed, index)
