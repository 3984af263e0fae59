import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from haldane.cannings import (
    CanningsConfig,
    Tally,
    growth_factor_qn,
    run_ensemble,
    run_to_absorption,
    step,
    step_tilde,
)
from haldane.paintbox import (
    MAX_DRAW,
    ConfigurationError,
    Deterministic,
    Gamma,
    LogNormal,
    SpikedSpec,
    TwoPoint,
    UnsupportedLawError,
    spiked_weights,
    weights_from_y,
)
from haldane.streams import make_rng, trial_rng


def wf(N, s, x0=1):
    return CanningsConfig(N, s, Deterministic(), x0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CanningsConfig(1, 0.1, Deterministic(), 0)
    with pytest.raises(ConfigurationError):
        CanningsConfig(10, 1.0, Deterministic(), 0)
    with pytest.raises(ConfigurationError):
        CanningsConfig(10, -0.1, Deterministic(), 0)
    with pytest.raises(ConfigurationError):
        CanningsConfig(10, 0.1, Deterministic(), 11)


def test_exponent_round_trip():
    cfg = CanningsConfig.from_exponent(10**4, 0.25, Gamma(1.0), 1)
    assert cfg.s == pytest.approx(0.1, rel=1e-15)
    assert abs(cfg.exponent - 0.25) <= 1e-12
    assert cfg.moderately_strong
    weak = CanningsConfig.from_exponent(100, 0.75, Gamma(1.0), 1)
    assert not weak.moderately_strong
    assert wf(100, 0.0).exponent is None


def test_conformance_flags():
    assert Gamma(1.0).conforming
    assert not LogNormal(0.5).conforming
    assert not SpikedSpec(0.2).conforming


# ---------------------------------------------------------------------------
# success_probability: the transition law on an explicit weight vector
# ---------------------------------------------------------------------------


def success_probability(w: np.ndarray, k: int, s: float) -> float:
    """Chance a single child is beneficial, given the weights and count k."""
    N = len(w)
    if not 0 <= k <= N:
        raise ValueError(f"beneficial count {k} outside [0, {N}]")
    if k == 0:
        return 0.0
    if k == N:
        return 1.0
    head = float(np.add.reduce(w[:k]))
    tail = float(np.add.reduce(w[k:]))
    return head / (head + (1.0 - s) * tail)


def test_success_probability_boundaries():
    w = weights_from_y([1, 2, 3, 4])
    assert success_probability(w, 0, 0.3) == 0.0
    assert success_probability(w, 4, 0.3) == 1.0
    with pytest.raises(ValueError):
        success_probability(w, 5, 0.3)
    with pytest.raises(ValueError):
        success_probability(w, -1, 0.3)


def test_success_probability_uniform_two():
    w = weights_from_y([1, 1])
    assert success_probability(w, 1, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_success_probability_neutral_is_head_sum():
    w = weights_from_y([3, 1, 4, 1, 5])
    for k in range(6):
        assert success_probability(w, k, 0.0) == pytest.approx(
            float(np.add.reduce(w[:k])), rel=0, abs=1e-15
        )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=20),
    st.integers(min_value=1, max_value=19),
    st.floats(min_value=0.0, max_value=0.98),
    st.floats(min_value=0.001, max_value=0.02),
)
def test_success_probability_strictly_increasing_in_s(ys, k, s, ds):
    if k >= len(ys):
        k = len(ys) - 1
    w = weights_from_y(ys)
    assert success_probability(w, k, s + ds) > success_probability(w, k, s)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_absorbing_states():
    cfg = wf(50, 0.2)
    rng = make_rng(0)
    assert step(0, cfg, rng) == 0
    assert step(50, cfg, rng) == 50
    with pytest.raises(ValueError):
        step(51, cfg, rng)


def test_step_neutral_wright_fisher_moments():
    # conditional mean N*p = 50, binomial variance N/4
    cfg = wf(100, 0.0, 50)
    rng = make_rng(1)
    draws = np.array([step(50, cfg, rng) for _ in range(10**5)])
    band = 3 * math.sqrt(25.0 / 10**5)
    assert abs(draws.mean() - 50.0) <= band


@pytest.mark.parametrize(
    "source",
    [Deterministic(), Gamma(1.0), Gamma(2.0), TwoPoint(0.5, 1.5, 0.5)],
)
def test_step_stays_in_range(source):
    cfg = CanningsConfig(30, 0.1, source, 1)
    rng = make_rng(2)
    k = 7
    for _ in range(300):
        k = step(k, cfg, rng)
        assert 0 <= k <= 30
        if k in (0, 30):
            break


def test_step_lognormal_and_spiked_paths():
    rng = make_rng(3)
    cfg = CanningsConfig(40, 0.1, LogNormal(0.5), 5)
    assert 0 <= step(5, cfg, rng) <= 40
    cfg = CanningsConfig(40, 0.1, SpikedSpec(0.3), 5)
    assert 0 <= step(5, cfg, rng) <= 40


@pytest.mark.parametrize(
    "source",
    [Deterministic(), Gamma(1.0), Gamma(2.5), TwoPoint(0.5, 1.5, 0.5),
     LogNormal(0.5), SpikedSpec(0.2)],
    ids=lambda source: source.tag(),
)
def test_step_matches_explicit_paintbox(source):
    # block_sums transition, one count at a time and for an array of n
    # counts at once, vs Bin(N, success_probability(W, k, s)) with W built
    # weight by weight; two-sample KS at alpha = 0.001
    N, k, s, n = 12, 3, 0.2, 10**5
    cfg = CanningsConfig(N, s, source, k)
    rng = make_rng(30)
    fast = np.array([step(k, cfg, rng) for _ in range(n)])
    head, tail = source.block_sums((np.full(n, k),), N, rng)
    lockstep = rng.binomial(N, head / (head + (1.0 - s) * tail))
    rng = make_rng(31)
    explicit = np.empty(n, dtype=int)
    for i in range(n):
        if isinstance(source, SpikedSpec):
            w = spiked_weights(N, source, rng)
        else:
            w = weights_from_y(source.sample(N, rng))
        explicit[i] = rng.binomial(N, success_probability(w, k, s))
    assert ks_2samp(fast, explicit).statistic <= 1.949 * math.sqrt(2.0 / n)
    assert ks_2samp(lockstep, explicit).statistic <= 1.949 * math.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# run_to_absorption
# ---------------------------------------------------------------------------


def test_absorbing_starts():
    rng = make_rng(4)
    rec = run_to_absorption(wf(10, 0.3, 10), rng)
    assert rec.outcome == "fixation" and rec.tau == 0 and rec.final_state == 10
    rec = run_to_absorption(wf(10, 0.3, 0), rng)
    assert rec.outcome == "loss" and rec.tau == 0 and rec.final_state == 0


def test_two_state_chain_oracle():
    # N=2, s=0.5: absorbing chain gives fixation probability
    # h = p^2/(1 - 2p(1-p)) with p = 2/3, i.e. 0.8
    cfg = wf(2, 0.5, 1)
    trials = 2 * 10**5
    fixed = run_ensemble(cfg, trials, trial_rng(42, 0)).fixations
    band = 3 * math.sqrt(0.8 * 0.2 / trials)
    assert abs(fixed / trials - 0.8) <= band


def test_first_passage_recording():
    cfg = CanningsConfig(100, 0.3, Gamma(1.0), 3)
    rng = make_rng(6)
    for _ in range(50):
        rec = run_to_absorption(cfg, rng, (2, 10, 50, 100))
        assert rec.first_passage[2] == 0  # crossed at start
        levels = sorted(rec.first_passage)
        gens = [rec.first_passage[t] for t in levels]
        assert gens == sorted(gens)  # nondecreasing in level
        if rec.outcome == "fixation":
            assert 100 in rec.first_passage
            assert rec.first_passage[100] == rec.tau
        else:
            assert 100 not in rec.first_passage
        assert rec.max_count >= max(levels)


def test_neutral_martingale_fixation_frequency():
    # with s=0, fixation probability from k is exactly k/N; 3 sigma Wilson band
    cfg = CanningsConfig(20, 0.0, Gamma(1.0), 4)
    trials = 10**5
    fixed = run_ensemble(cfg, trials, trial_rng(1234, 0)).fixations
    from haldane.analysis import wilson_interval

    level = math.erf(3 / math.sqrt(2))  # 3 sigma two-sided
    lo, hi = wilson_interval(fixed, trials, level)
    assert lo <= 4 / 20 <= hi, (fixed / trials, lo, hi)


# ---------------------------------------------------------------------------
# run_ensemble (trials in lockstep)
# ---------------------------------------------------------------------------


def test_single_trajectory_follows_step_on_the_same_stream():
    # the record holds the trajectory built step by step: its length,
    # end, maximum and first passages
    cfg = CanningsConfig(100, 0.2, Gamma(1.0), 3)
    thresholds = (2, 10, 50)
    for i in range(50):
        rec = run_to_absorption(cfg, trial_rng(9, i), thresholds)
        rng = trial_rng(9, i)
        path = [3]
        while 0 < path[-1] < 100:
            path.append(step(path[-1], cfg, rng))
        passage = {t: next(g for g, k in enumerate(path) if k >= t)
                   for t in thresholds if max(path) >= t}
        assert (rec.tau, rec.final_state, rec.max_count) == (len(path) - 1, path[-1], max(path))
        assert rec.first_passage == passage


@pytest.mark.parametrize("source", [Gamma(1.0), SpikedSpec(0.2)], ids=["gamma:1", "spiked"])
def test_one_trial_tally_is_the_trajectory(source):
    # on one stream a one-trial ensemble draws what the step-by-step
    # trajectory draws, so its tally holds that trajectory's counts
    cfg = CanningsConfig(100, 0.2, source, 3)
    thresholds = (2, 3, 10, 50, 100)
    seen = set()
    for i in range(300):
        tally = run_ensemble(cfg, 1, trial_rng(9, i), thresholds)
        rec = run_to_absorption(cfg, trial_rng(9, i), thresholds)
        assert (tally.fixations, tally.losses) == tuple(
            int(rec.outcome == o) for o in ("fixation", "loss"))
        assert tally.tau_total == tally.tau_max == tally.lockstep_generations == rec.tau
        assert tally.threshold_hits == {t: int(t in rec.first_passage) for t in thresholds}
        seen.add(rec.outcome)
    assert seen == {"fixation", "loss"}


def test_tally_identities():
    cfg = CanningsConfig(100, 0.3, Gamma(1.0), 3)
    levels = (1, 3, 10, 50, 100)
    tally = run_ensemble(cfg, 3000, make_rng(6), levels)
    assert tally.trials == 3000  # every trial fixed or was lost
    hits = [tally.threshold_hits[t] for t in levels]
    assert hits == sorted(hits, reverse=True)  # nonincreasing in the level
    assert hits[0] == hits[1] == 3000  # at or below the start
    assert hits[-1] == tally.fixations  # reaching N is fixing
    assert tally.fixations > 0 and hits[2] < 3000  # some fix, some never reach 10
    assert tally.tau_max == tally.lockstep_generations
    assert tally.tau_max <= tally.tau_total <= tally.tau_max * 3000
    for k0, fixations in ((0, 0), (100, 3000)):  # absorbing starts
        start = CanningsConfig(100, 0.3, Gamma(1.0), k0)
        assert run_ensemble(start, 3000, make_rng(6), levels) == Tally(
            fixations, 3000 - fixations, 0, 0,
            {t: 3000 if k0 >= t else 0 for t in levels}, 0)


class _DrawLog:
    """Random stream that records the size of every normal call (lognormal
    potentials are drawn as exp(mu + sigma z))."""

    def __init__(self, rng):
        self._rng, self.sizes = rng, []

    def standard_normal(self, size):
        self.sizes.append(int(np.prod(size)))
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_lognormal_ensemble_draws_in_bounded_slices():
    # 300 trials at N = 1e4 need 3e6 potentials in their first generation
    cfg = CanningsConfig.from_exponent(10**4, 0.25, LogNormal(0.7), 1)
    log = _DrawLog(make_rng(12))
    tally = run_ensemble(cfg, 300, log)
    assert max(log.sizes) <= MAX_DRAW
    assert sum(log.sizes[:3]) >= MAX_DRAW  # the first generation took several slices
    assert tally.trials == 300


# ---------------------------------------------------------------------------
# growth factor and comparison process
# ---------------------------------------------------------------------------


def test_qn_without_selection_is_one():
    est = growth_factor_qn(wf(100, 0.0), 0.1, 10, make_rng(8))
    assert est.value == 1.0 and est.stderr == 0.0 and est.exact


def test_qn_deterministic_closed_form():
    est = growth_factor_qn(wf(100, 0.1), 0.1, 1, make_rng(9))
    assert est.exact
    assert est.value == pytest.approx(1.0 / 0.91, rel=1e-15)  # ~1.098901


def test_qn_gamma_first_order():
    # q_N = 1 + (1-eps) s + O(s^2)
    cfg = CanningsConfig(1000, 0.05, Gamma(1.0), 1)
    est = growth_factor_qn(cfg, 0.1, 10**5, make_rng(10))
    assert not est.exact
    assert abs(est.value - 1.045) <= 3 * est.stderr + 3e-3  # O(s^2) allowance


def test_qn_spiked_closed_form_matches_monte_carlo():
    spec = SpikedSpec(0.2)
    cfg = CanningsConfig(50, 0.2, spec, 1)
    exact = growth_factor_qn(cfg, 0.2, 1, make_rng(11))
    assert exact.exact
    # brute force over explicit spiked paintboxes
    rng = make_rng(12)
    j0 = 10
    vals = []
    from haldane.paintbox import spiked_weights

    for _ in range(200000):
        w = spiked_weights(50, spec, rng)
        vals.append(50 * w[0] / (1.0 - 0.2 * w[j0:].sum()))
    mc = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(exact.value - mc) <= 4 * se


def test_qn_one_trial_has_infinite_stderr():
    # one value has no sample variance: an infinite standard error, no warning
    cfg = CanningsConfig(1000, 0.05, Gamma(1.0), 1)
    est = growth_factor_qn(cfg, 0.1, 1, make_rng(10))
    assert not est.exact and math.isfinite(est.value)
    assert est.stderr == math.inf


def test_step_tilde_zero_absorbing():
    cfg = CanningsConfig(100, 0.1, Gamma(1.0), 1)
    assert step_tilde(0, cfg, 0.2, make_rng(13)) == 0


def test_step_tilde_neutral_matches_neutral_step_law():
    # at s=0 the two transition laws coincide; compare 1e5-sample ECDFs
    cfg = CanningsConfig(200, 0.0, Gamma(1.0), 1)
    rng = make_rng(14)
    k, eps, n = 15, 0.2, 10**5
    a = np.array([step_tilde(k, cfg, eps, rng) for _ in range(n)])
    b = np.array([step(k, cfg, rng) for _ in range(n)])
    grid = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / n
    fb = np.searchsorted(np.sort(b), grid, side="right") / n
    assert np.abs(fa - fb).max() <= 1.628 * math.sqrt(2.0 / n)


def test_step_tilde_deterministic_mean():
    cfg = wf(100, 0.1, 10)
    qn = growth_factor_qn(cfg, 0.2, 1, make_rng(15)).value
    rng = make_rng(16)
    n = 10**5
    draws = np.array([step_tilde(10, cfg, 0.2, rng) for _ in range(n)])
    p = 0.1 / (1.0 - 0.1 * 0.8)
    sigma = math.sqrt(100 * p * (1 - p) / n)
    assert abs(draws.mean() - 10 * qn) <= 3 * sigma


def test_step_tilde_branching_regime_above_eps():
    cfg = CanningsConfig(100, 0.1, Gamma(1.0), 1)
    qn = growth_factor_qn(cfg, 0.1, 10**4, make_rng(17)).value
    rng = make_rng(18)
    draws = np.array([step_tilde(30, cfg, 0.1, rng, q_n=qn) for _ in range(20000)])
    # mixed Poisson mean 30*q_n
    assert abs(draws.mean() - 30 * qn) <= 4 * draws.std() / math.sqrt(draws.size)


def test_step_tilde_past_eps_needs_qn():
    # floor(0.1 * 100) = 10: from 11 on the process branches with q_N
    cfg = CanningsConfig(100, 0.1, Gamma(1.0), 1)
    assert step_tilde(10, cfg, 0.1, make_rng(20)) >= 0
    with pytest.raises(ValueError, match="q_n"):
        step_tilde(11, cfg, 0.1, make_rng(20))


def test_step_tilde_branching_regime_needs_a_y_law():
    cfg = CanningsConfig(100, 0.1, SpikedSpec(0.2), 1)
    with pytest.raises(UnsupportedLawError):
        step_tilde(11, cfg, 0.1, make_rng(21), q_n=1.1)


def test_step_tilde_stochastically_below_step():
    # same k <= eps*N and same s: ECDF of step_tilde sits above ECDF of step
    cfg = CanningsConfig(1000, 0.05, Gamma(1.0), 1)
    rng = make_rng(19)
    k, eps, n = 30, 0.1, 10**5
    tilde = np.array([step_tilde(k, cfg, eps, rng) for _ in range(n)])
    plain = np.array([step(k, cfg, rng) for _ in range(n)])
    grid = np.unique(np.concatenate([tilde, plain]))
    f_tilde = np.searchsorted(np.sort(tilde), grid, side="right") / n
    f_plain = np.searchsorted(np.sort(plain), grid, side="right") / n
    tol = 1.628 * math.sqrt(2.0 / n)
    assert (f_plain - f_tilde).max() <= tol
