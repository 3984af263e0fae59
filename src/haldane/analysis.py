"""Monte Carlo experiment orchestration.

Fixation estimation with Wilson intervals and the 2s/rho^2 reference,
three-phase trajectory diagnostics and the spiked-paintbox violation
check.  A fixation estimate stops each trial at the safe level
K = ceil(40 / lambda) where the source certifies a loss rate lambda
(its `loss_rate`): from K a trial is lost with chance at most
e^-40 = 4.2e-18, so it counts as fixed there.  Phase diagnostics stop
at max(K, floor(eps N)), the higher of K and their second level, under
K's bound.

A run of T trials is ceil(T / BLOCK_TRIALS) lockstep blocks of equal
size, give or take one trial (`block_sizes`); block b draws from the
SFC64 stream keyed by (seed, b) (see `streams`).  The blocks are mapped
over worker threads and their tallies folded with integer counters only,
so results are bit-identical for every worker count and any trial can be
replayed by re-running its block.  A closed-form source runs a whole
block in one native call, which releases the GIL, so two threads keep
two cores busy; on numpy's path (lognormal, the tiny-shape Gamma redraw,
or no native library; see `cannings`) a generation's Python and small
numpy calls hold the GIL, so threads mostly take turns there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from statistics import NormalDist

from .branching import haldane_ref
from .cannings import CanningsConfig, Tally, engine, run_ensemble
from .paintbox import SAFE_EXPONENT, ConfigurationError, SpikedSpec, safe_level
from .streams import layout, trial_rng

DEFAULT_LEVEL = 0.99
BLOCK_TRIALS = 8192
"""The most trials in one lockstep block, and so in one random stream; fixed,
whatever the worker count.

Small enough that a run of 10,000 trials splits into two blocks, one for
each of two workers.  Large enough that the fixed cost of a block stays
small next to its trials: a block runs until its slowest trial is
absorbed, and under `deterministic` and `spiked` a class draws one
multinomial only once it outnumbers the outcomes its binomial reaches,
so blocks of 4,096 made a 25,000-trial `counterexample` run dearer
(README, "Performance notes").  On numpy's path every generation of a
block pays numpy's fixed per-call cost, so there larger blocks would pay
for fewer tails.
"""
STREAM_LAYOUT = layout(f"equal block<={BLOCK_TRIALS}")


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


def block_sizes(trials: int) -> list[int]:
    """Trials of each block of a `trials`-trial run: ceil(trials / BLOCK_TRIALS)
    blocks, the first trials % blocks of them one trial larger."""
    blocks = -(-trials // BLOCK_TRIALS)
    size, extra = divmod(trials, blocks)
    return [size + (b < extra) for b in range(blocks)]


def _run_block(config, thresholds, seed, sizes, b, stop=None):
    """Tally of block b, of sizes[b] trials, drawn from stream (seed, b), stopped at `stop`.

    The generator is made here, in the block's own task: the native block
    bypasses `Generator.lock`, so no two threads may share it.
    """
    return run_ensemble(config, sizes[b], trial_rng(seed, b), thresholds, stop)


def _farm(config, thresholds, trials, seed, parallelism, stop=None) -> Tally:
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    sizes = block_sizes(trials)
    run = partial(_run_block, config, tuple(thresholds), seed, sizes, stop=stop)
    blocks = range(len(sizes))
    workers = min(parallelism, len(blocks))
    if workers <= 1:
        return reduce(Tally.merge, map(run, blocks))
    # imported here: one-block runs never start a pool, and the import
    # costs every process that loads the package a few ms
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return reduce(Tally.merge, pool.map(run, blocks))
    finally:  # after a failure, blocks not yet started never start
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Fixation estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixationEstimate:
    config: CanningsConfig
    trials: int
    fixations: int
    p_hat: float
    p_hat_stderr: float
    ci_low: float
    ci_high: float
    level: float
    ref_variance: float
    haldane: float
    ratio: float | None
    mean_tau: float
    max_tau: int
    trial_generations: int
    lockstep_generations: int
    stop_level: int
    stop_bound: float
    engine: str

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise RuntimeError(
                f"interval [{self.ci_low}, {self.ci_high}] does not hold p_hat {self.p_hat}"
            )
        if not self.fixations <= self.trials:
            raise RuntimeError(f"{self.fixations} fixations in {self.trials} trials")
        if not (self.stop_level == self.config.N and self.stop_bound == 0.0
                or self.stop_level < self.config.N
                and 0.0 < self.stop_bound <= math.exp(-SAFE_EXPONENT)):
            raise RuntimeError(f"stop level {self.stop_level} of N = {self.config.N} "
                               f"with loss bound {self.stop_bound}")


def _stop(config: CanningsConfig) -> tuple[int, float]:
    """(K, e^(-lambda K)) for K = `safe_level` of the rate lambda the source certifies,
    where K < N; else (N, 0.0).  A trial that reaches K is lost with chance at most
    e^(-lambda K) <= e^-SAFE_EXPONENT, so P(fix) lies in [h (1 - e^(-lambda K)), h]
    for h the chance of reaching K."""
    rate = config.paintbox.loss_rate(config.N, config.s)
    if rate is None or (level := safe_level(rate)) >= config.N:
        return config.N, 0.0
    return level, math.exp(-rate * level)


def _estimate_from_tally(tally: Tally, config, level, stop=None) -> FixationEstimate:
    """The estimate of a tally of trials stopped at `stop` = (K, loss bound from K),
    None for (N, 0.0): run to absorption."""
    stop_level, stop_bound = (config.N, 0.0) if stop is None else stop
    p_hat = tally.fixations / tally.trials
    lo, hi = wilson_interval(tally.fixations, tally.trials, level)
    rv = config.paintbox.rho_squared(config.N)
    s = config.s
    ratio = p_hat * rv / (2.0 * s) if s > 0 else None
    return FixationEstimate(
        config=config,
        trials=tally.trials,
        fixations=tally.fixations,
        p_hat=p_hat,
        p_hat_stderr=math.sqrt(p_hat * (1.0 - p_hat) / tally.trials),
        ci_low=lo,
        ci_high=hi,
        level=level,
        ref_variance=rv,
        haldane=haldane_ref(s, rv),
        ratio=ratio,
        mean_tau=tally.tau_total / tally.trials,
        max_tau=tally.tau_max,
        trial_generations=tally.tau_total,
        lockstep_generations=tally.lockstep_generations,
        stop_level=stop_level,
        stop_bound=stop_bound,
        engine=engine(config),
    )


def estimate_fixation(
    config: CanningsConfig,
    trials: int,
    seed: int,
    parallelism: int = 1,
    level: float = DEFAULT_LEVEL,
) -> FixationEstimate:
    """Fixation frequency over independent runs, each stopped at absorption or at the
    safe level of the source's certified loss rate (`_stop`).

    Block b of `block_sizes(trials)` draws from the stream keyed by
    (seed, b); the aggregate is identical for any `parallelism`.
    """
    stop = _stop(config)
    tally = _farm(config, (), trials, seed, parallelism, stop[0])
    return _estimate_from_tally(tally, config, level, stop)


# ---------------------------------------------------------------------------
# Phase diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseReport(FixationEstimate):
    threshold_1: int
    threshold_2: int
    reached_1: int
    reached_2: int
    p1: float
    p1_ci_low: float
    p1_ci_high: float
    p2: float
    p2_ci_low: float
    p2_ci_high: float
    p3: float
    p3_ci_low: float
    p3_ci_high: float


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
    fixation frequency exactly.  Where the source certifies a safe level
    K < N (`_stop`), each trial stops at max(K, floor(eps*N)) and counts
    as fixed there, with K's loss bound e^(-lambda K).  A stop at the
    second level makes p3 1 by construction, the true p3 lying in
    [1 - stop_bound, 1]; a second level below K leaves p3 the frequency of
    reaching K from it.  Either way the product still telescopes to
    p_hat.  Without a certificate every trial runs to absorption.
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
    # no certificate gives (N, 0.0): no stop.  K's bound holds from any count
    # >= K, where e^(-lambda lvl2) would underflow to 0 once lambda lvl2 > ~745
    safe, bound = _stop(config)
    stop = (max(safe, lvl2), bound)
    tally = _farm(config, (lvl1, lvl2), trials, seed, parallelism, stop[0])
    counts = (tally.trials, tally.threshold_hits[lvl1], tally.threshold_hits[lvl2],
              tally.fixations)
    phases = {}
    for i, (entered, passed) in enumerate(zip(counts, counts[1:]), 1):
        lo, hi = wilson_interval(passed, entered, level) if entered else (0.0, 1.0)
        phases.update({f"p{i}": passed / entered if entered else float("nan"),
                       f"p{i}_ci_low": lo, f"p{i}_ci_high": hi})
    return PhaseReport(
        **vars(_estimate_from_tally(tally, config, level, stop)), threshold_1=lvl1,
        threshold_2=lvl2, reached_1=counts[1], reached_2=counts[2], **phases)


# ---------------------------------------------------------------------------
# Spiked-paintbox violation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport(FixationEstimate):
    neutral_floor: float
    violation: bool


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
        **vars(est), neutral_floor=1.0 / N, violation=est.ci_low > 2.0 * est.haldane)
