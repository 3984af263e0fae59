"""Monte Carlo experiment orchestration.

Fixation estimation with Wilson intervals and the 2s/rho^2 reference,
three-phase trajectory diagnostics and the spiked-paintbox violation
check.

Trials run in lockstep blocks of BLOCK_TRIALS; block b draws from the
SFC64 stream keyed by (seed, b) (see `streams`), blocks are mapped over
workers and their tallies folded with integer counters only, so results
are bit-identical for every worker count and any trial can be replayed
by re-running its block.  A block runs until its slowest trial is
absorbed, some (2/s) ln N generations when one fixes.  On numpy's path
(lognormal, the tiny-shape Gamma redraw, or no native library; see
`cannings`) each of those generations costs numpy's fixed per-call
overhead however few trials are left (40-50 us at one live trial), so
fewer, larger blocks pay for fewer of these tails; the native block's
generation costs about 1 us there (README, "Performance notes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from statistics import NormalDist

from .branching import haldane_ref
from .cannings import CanningsConfig, Tally, run_ensemble
from .paintbox import ConfigurationError, SpikedSpec
from .streams import layout, trial_rng

DEFAULT_LEVEL = 0.99
BLOCK_TRIALS = 32768
"""Trials per lockstep block, and so per random stream; fixed, whatever the worker count.

2^15 runs half the tails of 2^14, which matters where each tail
generation pays numpy's per-call overhead (the fallback path); 2^16 would
leave every run of fewer than 65,536 trials on one worker.  Under
`deterministic` and `spiked` the trials at one count fall into one or
two classes, and a class draws one multinomial once it outnumbers the
outcomes its binomial reaches, so there a larger block
adds only the trials that spread out to counts of their own; a smaller
one would leave more classes under that size, each drawing one binomial
per trial.
"""
STREAM_LAYOUT = layout(f"block={BLOCK_TRIALS}")


def wilson_interval(successes: int, trials: int, level: float = DEFAULT_LEVEL):
    """Wilson score interval; stays honest at success probabilities near 0."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    if not 0 < level < 1:
        raise ValueError(f"confidence level must be in (0,1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    n = trials
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    # the score bounds hit 0 and 1 exactly at the boundary counts; snap
    # away the last-ulp float residue there
    lo = 0.0 if successes == 0 else max(0.0, center - spread)
    hi = 1.0 if successes == trials else min(1.0, center + spread)
    return lo, hi


# ---------------------------------------------------------------------------
# Trial farming
# ---------------------------------------------------------------------------


def _run_block(config, thresholds, seed, trials, b):
    """Tally of block b of a `trials`-trial run, drawn from stream (seed, b)."""
    size = min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS)
    return run_ensemble(config, size, trial_rng(seed, b), thresholds)


def _farm(config, thresholds, trials, seed, parallelism) -> Tally:
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    run = partial(_run_block, config, tuple(thresholds), seed, trials)
    blocks = range(-(-trials // BLOCK_TRIALS))
    workers = min(parallelism, len(blocks))
    if workers <= 1:
        return reduce(Tally.merge, map(run, blocks))
    # imported here: one-block runs never start a pool, and the import
    # costs every process that loads the package ~12 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return reduce(Tally.merge, pool.map(run, blocks))


# ---------------------------------------------------------------------------
# Fixation estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixationEstimate:
    trials: int
    fixations: int
    p_hat: float
    p_hat_stderr: float
    ci_low: float
    ci_high: float
    level: float
    s: float
    ref_variance: float
    haldane: float
    ratio: float | None
    mean_tau: float
    max_tau: int
    trial_generations: int
    lockstep_generations: int

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise RuntimeError(
                f"interval [{self.ci_low}, {self.ci_high}] does not hold p_hat {self.p_hat}"
            )
        if not self.fixations <= self.trials:
            raise RuntimeError(f"{self.fixations} fixations in {self.trials} trials")


def _estimate_from_tally(tally: Tally, config, level) -> FixationEstimate:
    p_hat = tally.fixations / tally.trials
    lo, hi = wilson_interval(tally.fixations, tally.trials, level)
    rv = config.paintbox.rho_squared(config.N)
    s = config.s
    ratio = p_hat * rv / (2.0 * s) if s > 0 else None
    return FixationEstimate(
        trials=tally.trials,
        fixations=tally.fixations,
        p_hat=p_hat,
        p_hat_stderr=math.sqrt(p_hat * (1.0 - p_hat) / tally.trials),
        ci_low=lo,
        ci_high=hi,
        level=level,
        s=s,
        ref_variance=rv,
        haldane=haldane_ref(s, rv),
        ratio=ratio,
        mean_tau=tally.tau_total / tally.trials,
        max_tau=tally.tau_max,
        trial_generations=tally.tau_total,
        lockstep_generations=tally.lockstep_generations,
    )


def estimate_fixation(
    config: CanningsConfig,
    trials: int,
    seed: int,
    parallelism: int = 1,
    level: float = DEFAULT_LEVEL,
) -> FixationEstimate:
    """Fixation frequency over independent absorption runs.

    Block b of BLOCK_TRIALS trials draws from the stream keyed by
    (seed, b); the aggregate is identical for any `parallelism`.
    """
    tally = _farm(config, (), trials, seed, parallelism)
    return _estimate_from_tally(tally, config, level)


# ---------------------------------------------------------------------------
# Phase diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseReport:
    threshold_1: int
    threshold_2: int
    reached_1: int
    reached_2: int
    p1: float
    p2: float
    p3: float
    p1_ci: tuple[float, float]
    p2_ci: tuple[float, float]
    p3_ci: tuple[float, float]
    estimate: FixationEstimate


def phase_diagnostics(
    config: CanningsConfig,
    delta: float,
    eps: float,
    trials: int,
    seed: int,
    parallelism: int = 1,
    level: float = DEFAULT_LEVEL,
) -> PhaseReport:
    """Split the fixation event at ceil(N^(b+delta)) and floor(eps*N).

    p1 = reach the first level before 0, p2 = then reach the second,
    p3 = then fix; on one trial set p1*p2*p3 telescopes to the overall
    fixation frequency exactly.
    """
    b = config.exponent
    if b is None:
        raise ConfigurationError("phase thresholds need s > 0 (an exponent b)")
    if not b + delta < 0.5:
        raise ConfigurationError(f"need b + delta < 1/2, got {b + delta}")
    if not 0.0 < eps < 0.5:
        raise ConfigurationError(f"need 0 < eps < 1/2, got {eps}")
    lvl1 = math.ceil(config.N ** (b + delta))
    lvl2 = math.floor(eps * config.N)
    if not config.initial_count < lvl1 < lvl2 < config.N:
        raise ConfigurationError(
            f"thresholds {lvl1}, {lvl2} do not separate "
            f"{config.initial_count} from N={config.N}"
        )
    tally = _farm(config, (lvl1, lvl2), trials, seed, parallelism)
    counts = (tally.trials, tally.threshold_hits[lvl1], tally.threshold_hits[lvl2],
              tally.fixations)
    phases = list(zip(counts, counts[1:]))  # (entered, passed) for each phase
    return PhaseReport(
        lvl1, lvl2, counts[1], counts[2],
        *(passed / entered if entered else float("nan") for entered, passed in phases),
        *(wilson_interval(passed, entered, level) if entered else (0.0, 1.0)
          for entered, passed in phases),
        _estimate_from_tally(tally, config, level),
    )


# ---------------------------------------------------------------------------
# Spiked-paintbox violation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    neutral_floor: float
    violation: bool
    estimate: FixationEstimate
    config: CanningsConfig


def counterexample_check(
    N: int,
    gamma: float,
    b: float,
    trials: int,
    seed: int,
    parallelism: int = 1,
    level: float = DEFAULT_LEVEL,
) -> CounterexampleReport:
    """Spiked weights versus the 2s/variance prediction.

    In the regime gamma < b/2 the prediction falls below the neutral
    floor 1/N, which no beneficial allele can undercut; the violation
    flag records the interval's lower end clearing twice the prediction,
    the estimate's `haldane`.
    """
    if not gamma < b / 2:
        raise ConfigurationError(
            f"violation regime needs gamma < b/2, got gamma={gamma}, b={b}"
        )
    spec = SpikedSpec(gamma)
    config = CanningsConfig.from_exponent(N, b, spec, initial_count=1)
    est = estimate_fixation(config, trials, seed, parallelism, level)
    return CounterexampleReport(
        neutral_floor=1.0 / N,
        violation=est.ci_low > 2.0 * est.haldane,
        estimate=est,
        config=config,
    )
