"""The selective Cannings frequency process.

Each generation a fresh paintbox W is drawn and every one of the N
children independently picks a beneficial parent with probability

    sum(W_i, i <= k) / (sum(W_i, i <= k) + (1-s) * sum(W_i, i > k)),

where k is the current number of beneficial individuals (exchangeability
lets them occupy the first k slots).  The next beneficial count is an
exact binomial draw; 0 and N absorb.

A transition consumes only the beneficial/wildtype weight sums, which
each paintbox source's `split_sums` draws exactly without building the
N-vector, for one count or for an array of counts at once.  Absorption
runs advance a whole ensemble of independent trials in lockstep
(`run_ensemble`), one `split_sums` call and one binomial draw per
generation, so they stay cheap at N = 10^4 and beyond; a single
trajectory (`run_to_absorption`) is the one-trial ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .paintbox import (
    Deterministic,
    PaintboxSource,
    SpikedSpec,
    UnsupportedLawError,
    WeightVector,
    block_weight_sums,
)

EXPONENT_TOL = 1e-12


class ConfigurationError(ValueError):
    """Invalid experiment configuration (CLI maps this to exit code 2)."""


@dataclass(frozen=True)
class CanningsConfig:
    """Population size, selection strength, paintbox and start count.

    Selection can be specified directly (s) or through the decay exponent
    b with s = N**-b; `exponent` recovers b = -ln(s)/ln(N).
    """

    N: int
    s: float
    paintbox: PaintboxSource
    initial_count: int
    b: float | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ConfigurationError(f"need N >= 2, got {self.N}")
        if not 0.0 <= self.s < 1.0:
            raise ConfigurationError(f"need 0 <= s < 1, got {self.s}")
        if not 0 <= self.initial_count <= self.N:
            raise ConfigurationError(
                f"initial count {self.initial_count} outside [0, {self.N}]"
            )
        if self.b is not None:
            if self.s == 0.0:
                raise ConfigurationError("s = 0 has no finite exponent b")
            implied = -math.log(self.s) / math.log(self.N)
            if abs(implied - self.b) > EXPONENT_TOL:
                raise ConfigurationError(
                    f"s={self.s} does not match N^-b for b={self.b} (implied {implied})"
                )

    @classmethod
    def from_s(cls, N, s, paintbox, initial_count):
        return cls(N=N, s=float(s), paintbox=paintbox, initial_count=initial_count)

    @classmethod
    def from_exponent(cls, N, b, paintbox, initial_count):
        return cls(
            N=N,
            s=float(N) ** (-float(b)),
            paintbox=paintbox,
            initial_count=initial_count,
            b=float(b),
        )

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
    """One trajectory's outcome and phase instrumentation."""

    outcome: str  # 'fixation' | 'loss' | 'truncated'
    tau: int
    final_state: int
    max_count: int
    first_passage: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Ensemble:
    """Outcomes of trials run together, one array entry per trial.

    `final_state` is 0 (loss), N (fixation) or, for a trial stopped by the
    generation cap, the count it stopped at.  `first_passage[t]` holds the
    generation at which the count first reached t, or -1 if it never did.
    """

    N: int
    tau: np.ndarray
    final_state: np.ndarray
    max_count: np.ndarray
    first_passage: dict[int, np.ndarray]

    def outcome_counts(self) -> tuple[int, int, int]:
        """(fixations, losses, truncated)."""
        fixations = int(np.count_nonzero(self.final_state == self.N))
        losses = int(np.count_nonzero(self.final_state == 0))
        return fixations, losses, self.tau.size - fixations - losses

    def record(self, i: int) -> AbsorptionRecord:
        """Trial i's outcome as a single-trajectory record."""
        k = int(self.final_state[i])
        outcome = "fixation" if k == self.N else "loss" if k == 0 else "truncated"
        passage = {t: int(fp[i]) for t, fp in self.first_passage.items() if fp[i] >= 0}
        return AbsorptionRecord(outcome, int(self.tau[i]), k, int(self.max_count[i]), passage)


# ---------------------------------------------------------------------------
# One-generation transitions
# ---------------------------------------------------------------------------


def success_probability(weights: WeightVector, k: int, s: float) -> float:
    """Chance a single child is beneficial, given the weights and count k."""
    N = len(weights)
    if not 0 <= k <= N:
        raise ValueError(f"beneficial count {k} outside [0, {N}]")
    if k == 0:
        return 0.0
    if k == N:
        return 1.0
    head = weights.head_sum(k)
    tail = float(np.add.reduce(weights.w[k:]))
    return head / (head + (1.0 - s) * tail)


def step(k: int, config: CanningsConfig, rng: np.random.Generator) -> int:
    """One generation: fresh paintbox, then an exact binomial of N children."""
    if not 0 <= k <= config.N:
        raise ValueError(f"beneficial count {k} outside [0, {config.N}]")
    if k == 0 or k == config.N:
        return k
    head, tail = config.paintbox.split_sums(k, config.N, rng)
    return int(rng.binomial(config.N, head / (head + (1.0 - config.s) * tail)))


def run_ensemble(
    config: CanningsConfig,
    trials: int,
    rng: np.random.Generator,
    thresholds: Sequence[int] = (),
    cap: int | None = None,
) -> Ensemble:
    """Run `trials` independent copies of the chain in lockstep until each absorbs.

    Every generation draws one paintbox split per live trial with a single
    `split_sums` call and the next counts with a single binomial draw, then
    drops the trials that hit 0 or N.  `thresholds` are levels whose first
    crossing generation is recorded (crossing = count >= level).
    Absorption is a.s. finite, so there is no cap by default; when one is
    given, the trials still running after `cap` generations come back
    truncated rather than being silently misclassified.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    N, k0 = config.N, config.initial_count
    split = config.paintbox.split_sums
    one_minus_s = 1.0 - config.s
    tau = np.zeros(trials, dtype=np.int64)
    final = np.full(trials, k0, dtype=np.int64)
    max_count = np.full(trials, k0, dtype=np.int64)
    first_passage = {t: np.full(trials, 0 if k0 >= t else -1, dtype=np.int64)
                     for t in thresholds}
    pending = [(t, first_passage[t]) for t in sorted(first_passage) if t > k0]
    live = np.arange(trials if 0 < k0 < N else 0)
    k = np.full(live.size, k0, dtype=np.int64)
    peak = k.copy()
    g = 0
    while live.size and (cap is None or g < cap):
        head, tail = split(k, N, rng)
        k = rng.binomial(N, head / (head + one_minus_s * tail))
        g += 1
        np.maximum(peak, k, out=peak)
        for t, passage in pending:
            reached = live[k >= t]
            passage[reached[passage[reached] < 0]] = g
        done = (k == 0) | (k == N)
        if np.count_nonzero(done):
            gone = live[done]
            tau[gone], final[gone], max_count[gone] = g, k[done], peak[done]
            keep = ~done
            live, k, peak = live[keep], k[keep], peak[keep]
    tau[live], final[live], max_count[live] = g, k, peak
    return Ensemble(N, tau, final, max_count, first_passage)


def run_to_absorption(
    config: CanningsConfig,
    thresholds: Sequence[int] = (),
    rng: np.random.Generator | None = None,
    cap: int | None = None,
) -> AbsorptionRecord:
    """One trajectory: the one-trial case of `run_ensemble`."""
    if rng is None:
        raise ValueError("an explicit random stream is required")
    return run_ensemble(config, 1, rng, thresholds, cap).record(0)


# ---------------------------------------------------------------------------
# Phase-2 comparison process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QnEstimate:
    """Per-generation mean growth factor of the comparison process."""

    value: float
    stderr: float
    exact: bool


def _spiked_qn(spec: SpikedSpec, N: int, s: float, j0: int) -> float:
    # E[W_1 / (1 - s * tail)] over the uniform spike position; three cases:
    # spike at index 1, spike elsewhere in the head, spike in the tail.
    ws, wo = spec.spike_weight(N), spec.other_weight(N)
    tail_plain = (N - j0) * wo
    tail_spiked = (N - j0 - 1) * wo + ws
    val = (
        ws / (1.0 - s * tail_plain) / N
        + (j0 - 1) / N * wo / (1.0 - s * tail_plain)
        + (N - j0) / N * wo / (1.0 - s * tail_spiked)
    )
    return N * val


def growth_factor_qn(
    config: CanningsConfig,
    eps: float,
    trials: int,
    rng: np.random.Generator,
) -> QnEstimate:
    """q_N = N * E[W_1 / (1 - s * sum of weights past floor(eps*N))].

    Closed form for sourceless randomness (Deterministic, Spiked); Monte
    Carlo with a standard error otherwise.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    N, s = config.N, config.s
    j0 = int(math.floor(eps * N))
    if s == 0.0:
        return QnEstimate(1.0, 0.0, True)
    if j0 == 0:
        # discounted tail is the whole population: q_N = N E[W_1]/(1-s)
        return QnEstimate(1.0 / (1.0 - s), 0.0, True)
    if isinstance(config.paintbox, Deterministic):
        return QnEstimate(1.0 / (1.0 - s * (N - j0) / N), 0.0, True)
    if isinstance(config.paintbox, SpikedSpec):
        return QnEstimate(_spiked_qn(config.paintbox, N, s, j0), 0.0, True)
    law = config.paintbox
    y1 = law.sample(trials, rng)
    mid = law.sample_sum(j0 - 1, rng, size=trials) if j0 > 1 else np.zeros(trials)
    tail = law.sample_sum(N - j0, rng, size=trials)
    vals = N * y1 / (y1 + mid + tail - s * tail)
    return QnEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(trials)),
        False,
    )


def step_tilde(
    k: int,
    config: CanningsConfig,
    eps: float,
    rng: np.random.Generator,
    q_n: float | None = None,
) -> int:
    """One transition of the lower comparison process.

    Below floor(eps*N) the selection discount is frozen at the weight mass
    past that level: Bin(N, head / (1 - s * tail)).  Above it the process
    branches, each line leaving Pois(Y * q_N) offspring; pass a
    precomputed `q_n` there to keep repeated calls cheap and on one
    stream discipline (it is estimated from `rng` otherwise).
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
    if isinstance(config.paintbox, SpikedSpec):
        raise UnsupportedLawError(
            "the branching regime of the comparison process needs a Dirichlet-type paintbox"
        )
    if q_n is None:
        q_n = growth_factor_qn(config, eps, 4096, rng).value
    return int(rng.poisson(q_n * config.paintbox.sample_sum(k, rng)))
