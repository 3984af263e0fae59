"""The selective Cannings frequency process.

Each generation a fresh paintbox W is drawn and every one of the N
children independently picks a beneficial parent with probability

    sum(W_i, i <= k) / (sum(W_i, i <= k) + (1-s) * sum(W_i, i > k)),

where k is the current number of beneficial individuals (exchangeability
lets them occupy the first k slots).  The next beneficial count is an
exact binomial draw; 0 and N absorb.

A transition consumes only the beneficial/wildtype weight sums, the two
blocks split at k that each paintbox source's `block_sums` draws exactly
without building the N-vector; `_next_counts` draws every generation,
for one count or an array.  Absorption runs advance an ensemble of
independent trials in lockstep (`run_ensemble`), keep only the live
counts and return integer counts of the outcomes (`Tally`); a single
trajectory with its first passages is `run_to_absorption`, `step` by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .paintbox import (
    ConfigurationError,
    Estimate,
    PaintboxSource,
    UnsupportedLawError,
    YLaw,
    block_weight_sums,
)


@dataclass(frozen=True)
class CanningsConfig:
    """Population size, selection strength, paintbox and start count.

    `from_exponent` gives s = N**-b and keeps b as given in `b` (None for a
    config built from s); `exponent` is b, or -ln(s)/ln(N) without it.
    """

    N: int
    s: float
    paintbox: PaintboxSource
    initial_count: int
    b: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.N < 2:
            raise ConfigurationError(f"need N >= 2, got {self.N}")
        if not 0.0 <= self.s < 1.0:
            raise ConfigurationError(f"need 0 <= s < 1, got {self.s}")
        if not 0 <= self.initial_count <= self.N:
            raise ConfigurationError(
                f"initial count {self.initial_count} outside [0, {self.N}]"
            )

    @classmethod
    def from_exponent(cls, N, b, paintbox, initial_count):
        if N < 2:  # checked before 0 ** -b can raise
            raise ConfigurationError(f"need N >= 2, got {N}")
        config = cls(N, float(N) ** -float(b), paintbox, initial_count)
        if config.s == 0.0:  # N**-b underflowed
            raise ConfigurationError("s = 0 has no finite exponent b")
        object.__setattr__(config, "b", float(b))  # as given: -ln(s)/ln(N) can miss a bit
        return config

    @property
    def exponent(self) -> float | None:
        """b with s = N**-b; None for s = 0."""
        if self.b is not None:
            return self.b
        if self.s == 0.0:
            return None
        return -math.log(self.s) / math.log(self.N)

    @property
    def moderately_strong(self) -> bool:
        """True when the decay exponent sits strictly inside (0, 1/2).

        Reported, never enforced: any s in [0, 1) simulates fine.
        """
        b = self.exponent
        return b is not None and 0.0 < b < 0.5


@dataclass
class AbsorptionRecord:
    """One trajectory, run to absorption: its outcome and phase instrumentation."""

    outcome: str  # 'fixation' | 'loss'
    tau: int
    final_state: int
    max_count: int
    first_passage: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Tally:
    """Integer counts over trials run to absorption; `merge` is order-insensitive.

    `threshold_hits[t]` counts the trials whose count reached t (count >=
    t); `lockstep_generations` sums the generations each lockstep run
    took, i.e. its longest trial.
    """

    fixations: int = 0
    losses: int = 0
    tau_total: int = 0
    tau_max: int = 0
    threshold_hits: dict[int, int] = field(default_factory=dict)
    lockstep_generations: int = 0

    @property
    def trials(self) -> int:
        return self.fixations + self.losses

    def merge(self, other: "Tally") -> "Tally":
        hits = dict(self.threshold_hits)
        for t, c in other.threshold_hits.items():
            hits[t] = hits.get(t, 0) + c
        return Tally(
            self.fixations + other.fixations,
            self.losses + other.losses,
            self.tau_total + other.tau_total,
            max(self.tau_max, other.tau_max),
            hits,
            self.lockstep_generations + other.lockstep_generations,
        )


# ---------------------------------------------------------------------------
# One-generation transitions
# ---------------------------------------------------------------------------


def _next_counts(k, config: CanningsConfig, rng: np.random.Generator):
    """Bin(N, head / (head + (1-s) tail)) from a paintbox per count; in place for an array."""
    head, tail = config.paintbox.block_sums((k,), config.N, rng)
    tail *= 1.0 - config.s
    tail += head
    return rng.binomial(config.N, np.divide(head, tail, out=tail if np.ndim(k) else None))


@np.errstate(invalid="raise")  # a 0/0 success probability is a FloatingPointError
def step(k: int, config: CanningsConfig, rng: np.random.Generator) -> int:
    """One generation: fresh paintbox, then an exact binomial of N children."""
    if not 0 <= k <= config.N:
        raise ValueError(f"beneficial count {k} outside [0, {config.N}]")
    if k == 0 or k == config.N:
        return k
    return int(_next_counts(k, config, rng))


@np.errstate(invalid="raise")  # a 0/0 success probability is a FloatingPointError
def run_ensemble(
    config: CanningsConfig,
    trials: int,
    rng: np.random.Generator,
    thresholds: Sequence[int] = (),
) -> Tally:
    """Run `trials` independent copies of the chain in lockstep and tally them.

    Every generation draws one paintbox split per live trial with a single
    `block_sums` call and the next counts with a single binomial draw,
    then counts the trials that hit 0 or N and drops them.  Only the live
    counts are kept, plus their running maxima when a threshold lies above
    the start: a trial reached level t (count >= t) if its maximum did.
    Absorption is a.s. finite, so the run ends when every trial has fixed
    or been lost.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    N, k0 = config.N, config.initial_count
    hits = {t: trials if k0 >= t else 0 for t in thresholds}
    if not 0 < k0 < N:
        fixations = trials if k0 == N else 0
        return Tally(fixations, trials - fixations, 0, 0, hits)
    above = sorted(t for t in hits if t > k0)
    k = np.full(trials, k0, dtype=np.int64)
    peak = k.copy() if above else None
    fixations = losses = tau_total = g = 0
    while k.size:
        k = _next_counts(k, config, rng)
        g += 1
        if above:
            np.maximum(peak, k, out=peak)
        live = (k > 0) & (k < N)
        absorbed = k.size - int(np.count_nonzero(live))
        if absorbed:
            fixed = int(np.count_nonzero(k == N))
            fixations += fixed
            losses += absorbed - fixed
            tau_total += g * absorbed
            k = k[live]
            if above:
                gone = peak[~live]
                for t in above:
                    hits[t] += int(np.count_nonzero(gone >= t))
                peak = peak[live]
    return Tally(fixations, losses, tau_total, g, hits, g)


def run_to_absorption(
    config: CanningsConfig,
    rng: np.random.Generator,
    thresholds: Sequence[int] = (),
) -> AbsorptionRecord:
    """One trajectory, `step` by step, with the generation it first reached each threshold.

    On a given stream it draws exactly what a one-trial `run_ensemble` draws.
    """
    N = config.N
    k = peak = config.initial_count
    passage = {t: 0 for t in thresholds if k >= t}
    tau = 0
    while 0 < k < N:
        k = step(k, config, rng)
        tau += 1
        peak = max(peak, k)
        for t in thresholds:
            if k >= t:
                passage.setdefault(t, tau)
    return AbsorptionRecord("fixation" if k == N else "loss", tau, k, peak, passage)


# ---------------------------------------------------------------------------
# Phase-2 comparison process
# ---------------------------------------------------------------------------


def growth_factor_qn(
    config: CanningsConfig,
    eps: float,
    trials: int,
    rng: np.random.Generator,
) -> Estimate:
    """q_N = N * E[W_1 / (1 - s * sum of weights past floor(eps*N))].

    Exact at s = 0 and when floor(eps*N) = 0; otherwise the paintbox's
    `qn` gives it, in closed form or by Monte Carlo with a standard error.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    N, s = config.N, config.s
    j0 = int(math.floor(eps * N))
    if s == 0.0:
        return Estimate(1.0, 0.0, True)
    if j0 == 0:
        # discounted tail is the whole population: q_N = N E[W_1]/(1-s)
        return Estimate(1.0 / (1.0 - s), 0.0, True)
    return config.paintbox.qn(N, s, j0, trials, rng)


def step_tilde(
    k: int,
    config: CanningsConfig,
    eps: float,
    rng: np.random.Generator,
    q_n: float | None = None,
) -> int:
    """One transition of the lower comparison process.

    Up to floor(eps*N) the selection discount is frozen at the weight mass
    past that level: Bin(N, head / (1 - s * tail)).  Above it the process
    branches, each line leaving Pois(Y * q_N) offspring.  That regime needs
    a Y law and `q_n`, computed once with `growth_factor_qn`; without it
    the step raises ValueError.
    """
    if k < 0:
        raise ValueError(f"count must be >= 0, got {k}")
    if k == 0:
        return 0
    N, s = config.N, config.s
    j0 = int(math.floor(eps * N))
    if k <= j0:
        sums = block_weight_sums(config.paintbox, N, (k, j0 - k, N - j0), rng)
        p = sums[0] / (1.0 - s * sums[2])
        return int(rng.binomial(N, p))
    if not isinstance(config.paintbox, YLaw):
        raise UnsupportedLawError(
            "the branching regime of the comparison process needs a Dirichlet-type paintbox"
        )
    if q_n is None:
        raise ValueError(f"count {k} is past floor(eps*N) = {j0}: pass q_n from growth_factor_qn")
    return int(rng.poisson(q_n * config.paintbox.sample_sum(k, rng)))
