import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haldane.analysis import (
    BLOCK_TRIALS,
    FixationEstimate,
    _farm,
    _run_block,
    counterexample_check,
    duality_fixation,
    estimate_fixation,
    phase_diagnostics,
    read_aeq_samples,
    wilson_interval,
)
from haldane.cannings import CanningsConfig, run_ensemble
from haldane.paintbox import ConfigurationError, Deterministic, Gamma, SpikedSpec
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
    cfg = CanningsConfig.from_exponent(N, 0.25, Gamma(1.0), x0)
    s = cfg.s
    exact = (1 - (1 - s) ** x0) / (1 - (1 - s) ** N)
    est = estimate_fixation(cfg, 40000, seed=31)
    sigma = math.sqrt(exact * (1 - exact) / est.trials)
    assert abs(est.p_hat - exact) <= 4 * sigma, (est.p_hat, exact, sigma)


@pytest.mark.parametrize("trials", [
    # around half a block (the former block size) and just past one block
    BLOCK_TRIALS // 2 - 1, BLOCK_TRIALS // 2, BLOCK_TRIALS // 2 + 1, BLOCK_TRIALS + 3,
    # around one block and just past two
    BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 3,
])
def test_tally_identical_across_worker_counts(trials):
    cfg = CanningsConfig(30, 0.1, Gamma(1.0), 2)
    tallies = [_farm(cfg, (5, 15), trials, 32, parallelism) for parallelism in (1, 2, 3)]
    assert tallies[0] == tallies[1] == tallies[2]
    assert tallies[0].trials == trials


def test_run_of_at_most_one_block_is_one_lockstep_run():
    # the benchmark's 25,000-trial counterexample pass: one block, one stream
    trials = 25000
    assert trials <= BLOCK_TRIALS
    est = counterexample_check(1000, gamma=0.1, b=0.45, trials=trials, seed=7).estimate
    assert est.trials == trials
    assert est.lockstep_generations == est.max_tau


def test_block_replays_alone():
    # block b of a run is the ensemble on stream (seed, b), whatever surrounds it
    cfg = CanningsConfig(30, 0.1, Gamma(1.0), 2)
    trials = 2 * BLOCK_TRIALS + 3
    alone = [_run_block(cfg, (5,), 33, trials, b) for b in range(3)]
    for b, size in enumerate((BLOCK_TRIALS, BLOCK_TRIALS, 3)):
        assert alone[b] == run_ensemble(cfg, size, TrialStreams(33).stream(b), (5,))
    assert _farm(cfg, (5,), trials, 33, 2) == alone[0].merge(alone[1]).merge(alone[2])


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
    fields = dict(trials=10, fixations=3, p_hat=0.3, p_hat_stderr=0.145, ci_low=0.1,
                  ci_high=0.6, level=0.99, s=0.1, ref_variance=2.0, haldane=0.1,
                  ratio=3.0, mean_tau=2.0, max_tau=5, trial_generations=20,
                  lockstep_generations=5)
    FixationEstimate(**fields)
    with pytest.raises(RuntimeError):
        FixationEstimate(**{**fields, "ci_low": 0.4})
    with pytest.raises(RuntimeError):
        FixationEstimate(**{**fields, "fixations": 11})


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
    assert rep.reached_1 >= rep.reached_2 >= rep.estimate.fixations
    # exact telescoping of conditional frequencies on one trial set
    assert rep.p1 * rep.p2 * rep.p3 == pytest.approx(rep.estimate.p_hat, rel=1e-12)
    assert 0 <= rep.p1 <= 1 and 0 <= rep.p2 <= 1 and 0 <= rep.p3 <= 1


def test_phase_determinism_matches_estimate():
    # same seed => same trajectories: overall p_hat agrees with estimate_fixation
    cfg = CanningsConfig.from_exponent(1000, 0.25, Gamma(1.0), 1)
    rep = phase_diagnostics(cfg, delta=0.05, eps=0.1, trials=20000, seed=27)
    est = estimate_fixation(cfg, 20000, seed=27)
    assert rep.estimate.p_hat == est.p_hat
    assert rep.estimate == est


# ---------------------------------------------------------------------------
# sampling duality
# ---------------------------------------------------------------------------


def test_duality_trivial_cases():
    assert duality_fixation(10, 3, [1, 1, 1]) == pytest.approx(0.3)
    assert duality_fixation(10, 1, [10, 10]) == pytest.approx(1.0)
    assert duality_fixation(4, 2, [2]) == pytest.approx(5.0 / 6.0)
    assert duality_fixation(10, 0, [1, 5, 10]) == pytest.approx(0.0)


def test_duality_domain_errors():
    with pytest.raises(ValueError):
        duality_fixation(10, 3, [0])
    with pytest.raises(ValueError):
        duality_fixation(10, 3, [11])
    with pytest.raises(ValueError):
        duality_fixation(10, 11, [1])
    with pytest.raises(ValueError):
        duality_fixation(10, 3, [])


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


def test_read_aeq_samples(tmp_path):
    path = tmp_path / "aeq.txt"
    path.write_text("3\n1\n\n42\n")
    assert read_aeq_samples(path) == [3, 1, 42]
    bad = tmp_path / "bad.txt"
    bad.write_text("3\nxyz\n")
    with pytest.raises(ValueError):
        read_aeq_samples(bad)
    with pytest.raises(ConfigurationError):
        read_aeq_samples(tmp_path / "missing.txt")


# ---------------------------------------------------------------------------
# counterexample check
# ---------------------------------------------------------------------------


def test_counterexample_precondition():
    with pytest.raises(ConfigurationError):
        counterexample_check(1000, gamma=0.25, b=0.45, trials=10, seed=0)


def test_counterexample_small_run_fields():
    rep = counterexample_check(200, gamma=0.1, b=0.45, trials=20000, seed=28)
    assert rep.neutral_floor == pytest.approx(1 / 200)
    est = rep.estimate
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
    assert rep.config.paintbox == SpikedSpec(0.1) and rep.config.N == 200
    spec = SpikedSpec(0.1)
    s = 200.0**-0.45
    expected_naive = 2 * s / spec.rho_squared(200)
    assert rep.naive_prediction == pytest.approx(expected_naive, rel=1e-12)
    assert rep.violation == (est.ci_low > 2 * rep.naive_prediction)
