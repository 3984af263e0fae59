import math
import sys
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haldane import analysis
from haldane.analysis import (
    BLOCK_TRIALS,
    FixationEstimate,
    _farm,
    block_sizes,
    counterexample_check,
    estimate_fixation,
    phase_diagnostics,
    wilson_interval,
)
from haldane.cannings import CanningsConfig, run_ensemble
from haldane.paintbox import ConfigurationError, Deterministic, Gamma, SpikedSpec, certify
from haldane.streams import TrialStreams


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------


def test_wilson_boundaries():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo < 1.0


def test_wilson_reference_value():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.4038, abs=1e-4)
    assert hi == pytest.approx(0.5962, abs=1e-4)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(1, 4, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 1000), st.floats(0.5, 0.999))
def test_wilson_orders_and_contains(successes, trials, level):
    if successes > trials:
        successes %= trials + 1
    lo, hi = wilson_interval(successes, trials, level)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


# ---------------------------------------------------------------------------
# estimate_fixation
# ---------------------------------------------------------------------------


def test_estimate_neutral_small():
    cfg = CanningsConfig(50, 0.0, Deterministic(), 1)
    est = estimate_fixation(cfg, 10**5, seed=21)
    assert est.ci_low <= 1 / 50 <= est.ci_high
    assert est.haldane == 0.0 and est.ratio is None
    assert est.fixations <= est.trials


def test_estimate_two_state_oracle():
    cfg = CanningsConfig(2, 0.5, Deterministic(), 1)
    est = estimate_fixation(cfg, 10**5, seed=22)
    band = 3 * math.sqrt(0.8 * 0.2 / est.trials)
    assert abs(est.p_hat - 0.8) <= band
    assert est.ratio == pytest.approx(est.p_hat * 1.0 / (2 * 0.5))


def test_estimate_deterministic_across_parallelism():
    cfg = CanningsConfig(2, 0.5, Deterministic(), 1)
    serial = estimate_fixation(cfg, 20000, seed=23, parallelism=1)
    par = estimate_fixation(cfg, 20000, seed=23, parallelism=4)
    assert serial == par


@pytest.mark.parametrize("N, x0", [(10**2, 3), (10**4, 1), (10**6, 1)])
def test_estimate_matches_gamma1_closed_form(N, x0):
    # (1-s)^K is a martingale of the Dirichlet(1) chain, so the fixation
    # probability from x0 is exactly (1-(1-s)^x0) / (1-(1-s)^N)
    # (at N = 1e4 and 1e6 the trials stop at K = 380 and 1,245)
    cfg = CanningsConfig.from_exponent(N, 0.25, Gamma(1.0), x0)
    s = cfg.s
    exact = (1 - (1 - s) ** x0) / (1 - (1 - s) ** N)
    est = estimate_fixation(cfg, 40000, seed=31)
    assert est.stop_level == {10**2: 100, 10**4: 380, 10**6: 1245}[N]
    sigma = math.sqrt(exact * (1 - exact) / est.trials)
    assert abs(est.p_hat - exact) <= 4 * sigma, (est.p_hat, exact, sigma)


@pytest.mark.parametrize("N, x0, stop", [(100, 1, 64), (100, 5, 64), (300, 1, 84)])
def test_stopped_estimate_matches_the_wright_fisher_chain(N, x0, stop):
    # trials stopped at the certified K against the dense solve run to N
    cfg = CanningsConfig.from_exponent(N, 0.25, Deterministic(), x0)
    exact = _wright_fisher_fixation(N, cfg.s)[x0 - 1]
    est = estimate_fixation(cfg, 40000, seed=35)
    assert est.stop_level == stop
    assert 0.0 < est.stop_bound <= math.exp(-40)
    sigma = math.sqrt(exact * (1 - exact) / est.trials)
    assert abs(est.p_hat - exact) <= 4 * sigma, (est.p_hat, exact, sigma)


@dataclass(frozen=True)
class _Overclaimed(Deterministic):
    """Wright-Fisher with a loss rate 1.5 times the one that certifies, checked by
    `certify` over the one case of its paintbox: head k, tail N - k."""

    def loss_rate(self, N, s):
        return certify(self, 3.0 * s, N, s)

    def head_tail_mixture(self, k, N):
        return [(0.0, k, N - k)]


def test_a_failed_certificate_runs_to_absorption():
    # the counts of the run to N that version 0.3.0 made at this seed
    cfg = CanningsConfig.from_exponent(10**4, 0.25, _Overclaimed(), 1)
    est = estimate_fixation(cfg, 3000, seed=5)
    assert (est.stop_level, est.stop_bound) == (10**4, 0.0)
    assert (est.fixations, est.trial_generations, est.max_tau,
            est.lockstep_generations) == (576, 97741, 218, 218)


@given(st.integers(1, 20 * BLOCK_TRIALS))
def test_blocks_are_equal_to_one_trial(trials):
    sizes = block_sizes(trials)
    assert sum(sizes) == trials
    assert len(sizes) == -(-trials // BLOCK_TRIALS)
    assert max(sizes) <= BLOCK_TRIALS
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("trials", [
    # around one block and just past two
    BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 3,
    # around the former block sizes, 16,384 and 32,768, and past two of the
    # larger: uneven splits into two to nine blocks
    16383, 16384, 16385, 32767, 32768, 32769, 32771, 65539,
])
def test_tally_identical_across_worker_counts(trials):
    cfg = CanningsConfig(30, 0.1, Gamma(1.0), 2)
    tallies = [_farm(cfg, (5, 15), trials, 32, parallelism, None) for parallelism in (1, 2, 3)]
    assert tallies[0] == tallies[1] == tallies[2]
    assert tallies[0].trials == trials


def test_tally_identical_on_more_threads_than_cores():
    # four threads switching every microsecond over twelve blocks: a block
    # lost, run twice or merged twice would change the tally
    cfg = CanningsConfig(30, 0.1, Gamma(1.0), 2)
    trials = 12 * BLOCK_TRIALS - 5
    serial = _farm(cfg, (5, 15), trials, 34, 1, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _farm(cfg, (5, 15), trials, 34, 4, None)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_run_of_at_most_one_block_is_one_lockstep_run():
    # a full block is one lockstep run on stream (seed, 0); the benchmark's
    # 25,000-trial counterexample pass is four blocks, each running until
    # its own slowest trial is absorbed
    rep = counterexample_check(1000, gamma=0.1, b=0.45, trials=BLOCK_TRIALS, seed=7)
    est = rep
    assert est.lockstep_generations == est.max_tau
    tally = run_ensemble(rep.config, BLOCK_TRIALS, TrialStreams(7).stream(0))
    assert (tally.fixations, tally.tau_total) == (est.fixations, est.trial_generations)
    assert block_sizes(25000) == [6250] * 4
    est = counterexample_check(1000, gamma=0.1, b=0.45, trials=25000, seed=7)
    assert est.trials == 25000
    assert est.lockstep_generations > est.max_tau


def test_block_replays_alone():
    # block b of a run is the ensemble of its share on stream (seed, b),
    # whatever surrounds it
    cfg = CanningsConfig(30, 0.1, Gamma(1.0), 2)
    trials = 2 * BLOCK_TRIALS + 3
    sizes = block_sizes(trials)
    assert sizes == [5463, 5462, 5462]
    alone = [run_ensemble(cfg, size, TrialStreams(33).stream(b), (5,))
             for b, size in enumerate(sizes)]
    assert _farm(cfg, (5,), trials, 33, 2, None) == alone[0].merge(alone[1]).merge(alone[2])


def test_estimate_monotone_in_selection():
    cfg0 = CanningsConfig(1000, 0.0, Gamma(1.0), 1)
    prev = None
    for s in (0.0, 0.05, 0.1):
        cfg = CanningsConfig(1000, s, Gamma(1.0), 1)
        est = estimate_fixation(cfg, 10**5, seed=24)
        if prev is not None:
            slack = (prev.ci_high - prev.ci_low) / 2 + (est.ci_high - est.ci_low) / 2
            assert est.p_hat >= prev.p_hat - slack
        prev = est


def test_estimate_spiked_uses_finite_n_variance():
    spec = SpikedSpec(0.1)
    cfg = CanningsConfig.from_exponent(200, 0.45, spec, 1)
    est = estimate_fixation(cfg, 2000, seed=25)
    assert est.ref_variance == spec.rho_squared(200)
    assert Gamma(1.0).rho_squared(123) == 2.0


def test_fixation_estimate_invariants_raise():
    # exceptions, not asserts, so that `python -O` keeps the checks
    fields = dict(config=CanningsConfig(100, 0.1, Gamma(1.0), 1), trials=10, fixations=3, p_hat=0.3, p_hat_stderr=0.145, ci_low=0.1,
                  ci_high=0.6, level=0.99, ref_variance=2.0, haldane=0.1,
                  ratio=3.0, mean_tau=2.0, max_tau=5, trial_generations=20,
                  lockstep_generations=5, stop_level=100, stop_bound=0.0, engine="numpy")
    FixationEstimate(**fields)
    FixationEstimate(**{**fields, "stop_level": 99, "stop_bound": 4e-18})
    with pytest.raises(RuntimeError):
        FixationEstimate(**{**fields, "ci_low": 0.4})
    with pytest.raises(RuntimeError):
        FixationEstimate(**{**fields, "fixations": 11})
    # a stop below N states a loss bound of at most e^-40, and none at N
    for stop_level, stop_bound in ((100, 1e-20), (99, 0.0), (99, 1e-10)):
        with pytest.raises(RuntimeError):
            FixationEstimate(**{**fields, "stop_level": stop_level, "stop_bound": stop_bound})


# ---------------------------------------------------------------------------
# phase diagnostics
# ---------------------------------------------------------------------------


def test_phase_preconditions():
    cfg = CanningsConfig.from_exponent(10**4, 0.25, Gamma(1.0), 1)
    with pytest.raises(ConfigurationError):
        phase_diagnostics(cfg, delta=0.3, eps=0.1, trials=10, seed=0)
    with pytest.raises(ConfigurationError):
        phase_diagnostics(cfg, delta=0.05, eps=0.6, trials=10, seed=0)
    neutral = CanningsConfig(100, 0.0, Gamma(1.0), 1)
    with pytest.raises(ConfigurationError):
        phase_diagnostics(neutral, delta=0.05, eps=0.1, trials=10, seed=0)


def test_phase_thresholds_and_telescoping():
    cfg = CanningsConfig.from_exponent(10**4, 0.25, Gamma(1.0), 1)
    rep = phase_diagnostics(cfg, delta=0.05, eps=0.1, trials=20000, seed=26)
    assert rep.threshold_1 == 16
    assert rep.threshold_2 == 1000
    assert rep.reached_1 >= rep.reached_2 >= rep.fixations
    # exact telescoping of conditional frequencies on one trial set
    assert rep.p1 * rep.p2 * rep.p3 == pytest.approx(rep.p_hat, rel=1e-12)
    assert 0 <= rep.p1 <= 1 and 0 <= rep.p2 <= 1 and 0 <= rep.p3 <= 1


def test_phase_ratios_past_an_empty_phase_are_undefined():
    # the three trials of the CLI's non-finite test: none reaches the first level
    cfg = CanningsConfig.from_exponent(1000, 0.25, Gamma(1.0), 1)
    rep = phase_diagnostics(cfg, delta=0.05, eps=0.1, trials=3, seed=1)
    assert rep.reached_1 == rep.reached_2 == 0
    assert rep.p1 == 0.0
    assert (rep.p1_ci_low, rep.p1_ci_high) == wilson_interval(0, 3)
    assert math.isnan(rep.p2) and math.isnan(rep.p3)
    assert (rep.p2_ci_low, rep.p2_ci_high) == (rep.p3_ci_low, rep.p3_ci_high) == (0.0, 1.0)


def test_phase_determinism_matches_estimate():
    # same seed => same trajectories: overall p_hat agrees with estimate_fixation
    # under a source without a certified loss rate, where neither run stops early
    cfg = CanningsConfig.from_exponent(1000, 0.25, Gamma(2.0), 1)
    rep = phase_diagnostics(cfg, delta=0.05, eps=0.1, trials=20000, seed=27)
    est = estimate_fixation(cfg, 20000, seed=27)
    assert est.stop_level == 1000
    assert rep.p_hat == est.p_hat
    assert {f.name: getattr(rep, f.name) for f in fields(FixationEstimate)} == vars(est)


@pytest.mark.parametrize("eps, threshold_2, stop", [(0.1, 100, 205), (0.24, 240, 240)])
def test_phases_stop_at_the_safe_level_or_the_second_threshold(monkeypatch, eps, threshold_2,
                                                               stop):
    # gamma:1 certifies K = 205 at N = 1000, b = 0.25; a phase run stops at
    # max(K, threshold_2), still with K's loss bound, so p1 p2 p3 telescopes
    # to its own p_hat: p3 is P(reach K | reached threshold_2) below K, with
    # its Wilson interval, and 1 by construction at threshold_2, with the
    # certified interval [1 - stop_bound, 1]
    cfg = CanningsConfig.from_exponent(1000, 0.25, Gamma(1.0), 1)
    rep = phase_diagnostics(cfg, delta=0.05, eps=eps, trials=20000, seed=27)
    est = estimate_fixation(cfg, 20000, seed=27)
    assert est.stop_level == 205 and rep.threshold_2 == threshold_2
    assert rep.stop_level == stop and rep.stop_bound == est.stop_bound <= math.exp(-40)
    assert rep.p1 * rep.p2 * rep.p3 == pytest.approx(rep.p_hat, rel=1e-12)
    if stop == threshold_2:
        assert rep.fixations == rep.reached_2 and rep.p3 == 1.0
        assert (rep.p3_ci_low, rep.p3_ci_high) == (1.0 - rep.stop_bound, 1.0) == (1.0, 1.0)
    else:
        assert (rep.p3_ci_low, rep.p3_ci_high) == wilson_interval(rep.fixations, rep.reached_2)
        assert rep.p3_ci_low < 1.0
    exact = cfg.s / (1 - (1 - cfg.s) ** 1000)
    assert abs(rep.p_hat - exact) <= 4 * math.sqrt(exact * (1 - exact) / 20000)
    monkeypatch.setattr(analysis, "_stop", lambda config: (config.N, 0.0))
    to_n = phase_diagnostics(cfg, delta=0.05, eps=eps, trials=20000, seed=27)
    assert (to_n.stop_level, to_n.stop_bound) == (1000, 0.0)
    assert rep.trial_generations < to_n.trial_generations


# ---------------------------------------------------------------------------
# sampling duality: the chain's P(fix | k) from ancestral-line counts
# ---------------------------------------------------------------------------


def duality_fixation(N, k, aeq_samples):
    """Fixation probability from k via ancestral-line counts, for 0 <= k <= N.

    Averages 1 - (N-k)_A / (N)_A over the line counts A in 1..N, the
    falling factorials evaluated as log-gamma differences; a count larger
    than N-k forces a zero factor, i.e. certain fixation for that draw.

    This is the chain's P(fix | k) when A is drawn from the equilibrium
    of its ancestral selection process.  A child is beneficial with
    chance p = X / (1 - s(1-X)), X the beneficial weight mass, and
    1 - p = (1-s)(1-X) / (1 - s(1-X)) = E[(1-X)^J] for J ~ Geometric(1-s)
    on {1, 2, ...}: the child draws J potential parents from the
    paintbox and is wildtype exactly when all of them are.  Traced back,
    an individual's potential ancestors in one generation are the
    distinct potential parents of those in the next; far back their
    number A is at equilibrium, and with the k beneficial individuals
    placed at random all A are wildtype with chance (N-k)_A / (N)_A.
    The two-parent rule of Boenkost, Gonzalez Casanova, Pokalyuk and
    Wakolbinger (EJP 2021), J in {1, 2} with P(J = 2) = s, gives the
    child chance X + sX(1-X), another chain: its line counts miss this
    chain's fixation probability at O(s^2).
    """
    avoid = [
        math.exp(math.lgamma(N - k + 1) - math.lgamma(N - k - a + 1)
                 - math.lgamma(N + 1) + math.lgamma(N - a + 1))
        for a in aeq_samples if a <= N - k
    ]
    return 1.0 - sum(avoid) / len(aeq_samples)


def _wright_fisher_fixation(N, s):
    """h(1..N-1) of the Wright-Fisher chain, Bin(N, x / (1 - s(1-x))) at x = k/N, dense."""
    x = np.arange(N + 1) / N
    p = x / (1.0 - s * (1.0 - x))
    P = np.array([[math.comb(N, j) * q**j * (1.0 - q) ** (N - j) for j in range(N + 1)]
                  for q in p])
    return np.linalg.solve(np.eye(N - 1) - P[1:N, 1:N], P[1:N, N])


def _stationary_line_counts(N, s, rule):
    """Equilibrium law of A on 1..N when each Wright-Fisher line draws J potential parents.

    M is one uniform draw acting on the number of distinct parents hit so
    far, so E[M^J] is one line's step and row A of the chain is e_0 E[M^J]^A.
    """
    M = np.diag(np.arange(N + 1) / N) + np.diag(1.0 - np.arange(N) / N, 1)
    if rule == "geometric":  # P(J = j) = (1-s) s^(j-1), j >= 1
        step = (1.0 - s) * M @ np.linalg.inv(np.eye(N + 1) - s * M)
    else:  # two parents with chance s
        step = (1.0 - s) * M + s * M @ M
    P = np.array([np.linalg.matrix_power(step, a)[0, 1:] for a in range(1, N + 1)])
    lhs = np.vstack([P.T - np.eye(N), np.ones(N)])
    return np.linalg.lstsq(lhs, np.r_[np.zeros(N), 1.0], rcond=None)[0]


def test_duality_trivial_cases():
    assert duality_fixation(10, 3, [1, 1, 1]) == pytest.approx(0.3)
    assert duality_fixation(10, 1, [10, 10]) == pytest.approx(1.0)
    assert duality_fixation(4, 2, [2]) == pytest.approx(5.0 / 6.0)
    assert duality_fixation(10, 0, [1, 5, 10]) == pytest.approx(0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 200), st.data())
def test_duality_monotone_in_k_and_a(N, data):
    k = data.draw(st.integers(0, N - 1))
    a = data.draw(st.integers(1, N - 1))
    base = duality_fixation(N, k, [a])
    assert duality_fixation(N, k + 1, [a]) >= base - 1e-12
    assert duality_fixation(N, k, [a + 1]) >= base - 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.integers(10, 500),
    st.floats(0.05, 0.45),
    st.lists(st.integers(1, 500), min_size=1, max_size=30),
)
def test_duality_lower_bound_by_fraction(N, eps, samples):
    samples = [min(a, N) for a in samples]
    k = math.ceil(eps * N)
    bound = 1.0 - sum((1 - eps) ** a for a in samples) / len(samples)
    assert duality_fixation(N, k, samples) >= bound - 1e-12


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.1, 0.3])
def test_duality_holds_for_geometric_parent_draws_only(N, s):
    # exact at small N: the chain's dense solve against the duality fed
    # the equilibrium line count of each ancestral selection process
    chain = _wright_fisher_fixation(N, s)

    def dual(rule):
        pi = _stationary_line_counts(N, s, rule)
        return np.array([sum(pi[a - 1] * duality_fixation(N, k, [a]) for a in range(1, N + 1))
                         for k in range(1, N)])

    assert np.abs(dual("geometric") - chain).max() <= 1e-12
    # the two-parent rule's child chance X + sX(1-X) is another chain
    assert np.abs(dual("two-parent") - chain).max() >= 2e-3


# ---------------------------------------------------------------------------
# counterexample check
# ---------------------------------------------------------------------------


def test_counterexample_precondition():
    with pytest.raises(ConfigurationError):
        counterexample_check(1000, gamma=0.25, b=0.45, trials=10, seed=0)


def test_counterexample_small_run_fields():
    rep = counterexample_check(200, gamma=0.1, b=0.45, trials=20000, seed=28)
    assert rep.neutral_floor == pytest.approx(1 / 200)
    est = rep
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
    assert rep.config.paintbox == SpikedSpec(0.1) and rep.config.N == 200
    spec = SpikedSpec(0.1)
    s = 200.0**-0.45
    expected_naive = 2 * s / spec.rho_squared(200)
    assert est.haldane == pytest.approx(expected_naive, rel=1e-12)
    assert rep.violation == (est.ci_low > 2 * est.haldane)
