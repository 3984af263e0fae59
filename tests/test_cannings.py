import ctypes
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2, ks_2samp

import haldane
from haldane import cannings
from haldane.analysis import estimate_fixation
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
    Estimate,
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
    # counts are int64 in numpy's samplers and in the native block
    with pytest.raises(ConfigurationError):
        CanningsConfig(2**63, 0.1, Deterministic(), 1)
    assert CanningsConfig(2**63 - 1, 0.1, Deterministic(), 1).N == 2**63 - 1


def test_exponent_round_trip():
    cfg = CanningsConfig.from_exponent(10**4, 0.25, Gamma(1.0), 1)
    assert cfg.s == pytest.approx(0.1, rel=1e-15)
    assert abs(cfg.exponent - 0.25) <= 1e-12
    assert cfg.moderately_strong
    weak = CanningsConfig.from_exponent(100, 0.75, Gamma(1.0), 1)
    assert not weak.moderately_strong
    assert wf(100, 0.0).exponent is None


def test_exponent_enters_only_through_from_exponent():
    with pytest.raises(TypeError):
        CanningsConfig(10**4, 0.1, Gamma(1.0), 1, 0.25)
    with pytest.raises(TypeError):
        CanningsConfig(10**4, 0.1, Gamma(1.0), 1, b=0.25)
    assert wf(100, 0.1).b is None


def test_exponent_is_kept_as_given():
    # -ln(s)/ln(N) misses b = 0.25 in its last bit at N = 1e8
    cfg = CanningsConfig.from_exponent(10**8, 0.25, Gamma(1.0), 1)
    assert -math.log(cfg.s) / math.log(cfg.N) != 0.25
    assert cfg.b == cfg.exponent == 0.25
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg
    assert again.b == 0.25
    # an exponent whose N**-b underflows to 0 names no selection strength
    with pytest.raises(ConfigurationError, match="s = 0"):
        CanningsConfig.from_exponent(100, 400, Gamma(1.0), 1)


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


@pytest.mark.parametrize("source", [Deterministic(), Gamma(1.0), SpikedSpec(0.2)],
                         ids=["deterministic", "gamma:1", "spiked"])
def test_one_trial_stopped_tally_is_the_trajectory_cut_at_the_stop(source):
    # a trial stopped at K is fixed at its first passage to K, or lost
    # where the whole trajectory is lost without reaching K
    cfg = CanningsConfig(100, 0.2, source, 3)
    stop = 20
    seen = set()
    for i in range(300):
        tally = run_ensemble(cfg, 1, trial_rng(9, i), (2, 10, stop), stop)
        rec = run_to_absorption(cfg, trial_rng(9, i), (2, 10, stop))
        fixed = stop in rec.first_passage
        tau = rec.first_passage[stop] if fixed else rec.tau
        assert (tally.fixations, tally.losses) == (int(fixed), int(not fixed))
        assert tally.tau_total == tally.tau_max == tally.lockstep_generations == tau
        assert tally.threshold_hits == {t: int(t in rec.first_passage) for t in (2, 10, stop)}
        seen.add(fixed)
    assert seen == {True, False}


def test_stop_level_bounds():
    cfg = CanningsConfig(100, 0.2, Gamma(1.0), 3)
    for stop in (0, 101):
        with pytest.raises(ValueError, match="stop level"):
            run_ensemble(cfg, 10, trial_rng(1, 0), (), stop)
    with pytest.raises(ValueError, match="above the stop level"):
        run_ensemble(cfg, 10, trial_rng(1, 0), (5, 21), 20)
    # a start at or above the stop is fixed in no generation; N is no stop
    start = CanningsConfig(100, 0.2, Gamma(1.0), 20)
    assert run_ensemble(start, 10, trial_rng(1, 0), (5, 20), 20) == Tally(
        10, 0, 0, 0, {5: 10, 20: 10}, 0)
    assert run_ensemble(cfg, 50, trial_rng(1, 0), (), 100) == run_ensemble(
        cfg, 50, trial_rng(1, 0))


def test_run_ensemble_needs_a_trial():
    with pytest.raises(ValueError, match="trials >= 1"):
        run_ensemble(wf(100, 0.1), 0, trial_rng(1, 0))


def test_a_block_too_large_for_its_buffers_is_a_memory_error():
    # eight int64 words per trial: 2**57 trials ask malloc for 2**63 bytes,
    # and from 2**58 on the size wraps size_t, so the block refuses them
    # before it calls malloc.  A fresh interpreter, so that a crash fails
    # this test alone
    if cannings._lockstep_block() is None:
        pytest.skip("the native lockstep block did not load")
    script = (
        "from haldane import cannings\n"
        "from haldane.paintbox import Deterministic\n"
        "from haldane.streams import trial_rng\n"
        "config = cannings.CanningsConfig(100, 0.1, Deterministic(), 1)\n"
        "print(cannings.engine(config))\n"
        "for trials in (2**57, 2**58, 2**63 - 1):\n"
        "    try:\n"
        "        cannings.run_ensemble(config, trials, trial_rng(1, 0))\n"
        "    except MemoryError as e:\n"
        "        print(e)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(haldane.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = cannings._lockstep_digest(cannings._LOCKSTEP_SOURCE)
    assert proc.stdout.splitlines() == [f"native:{digest}"] + [
        f"no room for a lockstep block of {t} trials" for t in (2**57, 2**58, 2**63 - 1)]


def _on_numpy(monkeypatch, run):
    """`run()` with the native lockstep block unavailable."""
    with monkeypatch.context() as m:
        m.setattr(cannings, "_lockstep_block", lambda: None)
        return run()


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.5, 1000.0])
@pytest.mark.parametrize("N, x0", [(2, 1), (100, 1), (100, 3), (10**4, 1), (10**4, 3)])
def test_native_gamma_generation_draws_what_numpy_draws(monkeypatch, kappa, N, x0):
    # the native block (where it loaded) and numpy's calls take the same
    # variates from one stream, so every tally is the same, thresholds or not
    cfg = CanningsConfig.from_exponent(N, 0.25, Gamma(kappa), x0)
    for seed in (1, 2, 3):
        for levels in ((), (x0 + 1, N // 2, N)):
            def run():
                return run_ensemble(cfg, 300, trial_rng(seed, 0), levels)
            assert run() == _on_numpy(monkeypatch, run)


@pytest.mark.parametrize("source, N, b", [
    (SpikedSpec(0.2), 2, 0.3), (SpikedSpec(0.2), 3, 0.3), (SpikedSpec(0.1), 1000, 0.45),
    (Deterministic(), 100, 0.25), (Deterministic(), 10**4, 0.25),
    (TwoPoint(0.2, 3.0, 0.9), 3, 0.3), (TwoPoint(0.2, 3.0, 0.9), 1000, 0.3),
    (TwoPoint(), 1000, 0.25),
], ids=["spiked-2", "spiked-3", "spiked-1000", "deterministic-100", "deterministic-1e4",
        "two-point-3", "two-point-1000", "two-point-symmetric"])
def test_native_block_draws_what_numpy_draws(monkeypatch, source, N, b):
    # every closed-form source: each start (absorbing ones included), one
    # trial or many, thresholds or not, gives the numpy path's tally
    assert source.lockstep_law(N) is not None
    for x0 in sorted({0, 1, N // 2, N - 1, N}):
        cfg = CanningsConfig.from_exponent(N, b, source, x0)
        for trials, seed in ((1, 4), (1, 5), (500, 6)):
            for levels in ((), (1, x0 + 1, max(N // 3, 2), N)):
                def run():
                    return run_ensemble(cfg, trials, trial_rng(seed, 0), levels)
                assert run() == _on_numpy(monkeypatch, run), (x0, trials, seed, levels)


@pytest.mark.parametrize("source, N, b, stop", [
    (Deterministic(), 1000, 0.25, 113), (Gamma(1.0), 10**4, 0.25, 380),
    (SpikedSpec(0.4), 1000, 0.25, 547), (TwoPoint(), 1000, 0.25, 150),
], ids=["deterministic", "gamma:1", "spiked:0.4", "two-point"])
def test_native_block_stops_where_numpy_stops(monkeypatch, source, N, b, stop):
    # with a stop level, at and around it, every closed-form source draws the
    # numpy path's variates and tallies, thresholds or not
    for x0 in (1, 3, stop - 1, stop):
        cfg = CanningsConfig.from_exponent(N, b, source, x0)
        for trials, seed in ((1, 4), (2000, 6)):
            for levels in ((), (2, min(x0 + 1, stop), stop)):
                def run():
                    return run_ensemble(cfg, trials, trial_rng(seed, 0), levels, stop)
                tally = run()
                assert tally == _on_numpy(monkeypatch, run), (x0, trials, seed, levels)
                assert tally.trials == trials


@pytest.mark.parametrize("source, N, b, starts", [
    (Deterministic(), 1000, 0.25, (24, 25, 963, 964)),
    (SpikedSpec(0.1), 1000, 0.45, (57, 58)),
], ids=["deterministic", "spiked"])
def test_native_entries_draw_what_numpy_draws_at_the_class_rule(monkeypatch, source, N, b, starts):
    # first classes on either side of mean 30 (24 and 964 below it under
    # deterministic, 57 under spiked), holding trials on either side of the
    # size bound (83.1 at 24, 84.5 at 964 and 84.4 at 57, for the spike
    # outside the head): both paths pick one multinomial for the same classes
    for x0 in starts:
        cfg = CanningsConfig.from_exponent(N, b, source, x0)
        for trials in (83, 84, 85, 90, 2000):
            def run():
                return run_ensemble(cfg, trials, trial_rng(8, 0), (x0 + 1, N // 2, N))
            assert run() == _on_numpy(monkeypatch, run), (x0, trials)


def _refuse():
    raise AssertionError("the native block was asked for")


@pytest.mark.parametrize("source, N", [
    (LogNormal(0.7), 100), (Gamma(0.01), 100), (Gamma(0.001), 2),
], ids=["lognormal", "gamma-tiny-shape", "gamma-N2"])
def test_sources_without_a_native_law_stay_on_numpy(monkeypatch, source, N):
    # lognormal and the tiny-shape Gamma redraw (N kappa < 2) never ask for
    # the native block; an exact Gamma with N kappa >= 2 does
    monkeypatch.setattr(cannings, "_lockstep_block", _refuse)
    assert source.lockstep_law(N) is None
    tally = run_ensemble(CanningsConfig(N, 0.1, source, 1), 50, trial_rng(1, 0), (2,))
    assert tally.trials == 50
    with pytest.raises(AssertionError, match="asked for"):
        run_ensemble(CanningsConfig(100, 0.1, Gamma(0.02), 1), 5, trial_rng(1, 0))


def test_zero_over_zero_is_a_floating_point_error_on_both_paths(monkeypatch):
    # zero shapes give zero masses and a 0/0 success probability
    run = cannings._lockstep_block()
    if run is not None:  # two trials from 0 at N = 0, stopped at N
        assert run(make_rng(1).bit_generator.ctypes.bit_generator, 1, (ctypes.c_double * 3)(1.0),
                   0, 0.9, 2, 0, 0, 0, None, None, cannings._address(np.empty(4, np.int64))) == -1
    # s = 1 with no beneficial mass: the tail's mass is kept at weight 0
    config = SimpleNamespace(N=2, s=1.0, paintbox=Gamma(1.0))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        cannings._next_counts(np.zeros(3, np.int64), config, make_rng(1))
    # a head mass Gamma(0.001) underflows to 0 about half the time, so a
    # block at s = 1 meets 0/0 in its first generation, on either path
    config = SimpleNamespace(N=2000, s=1.0, paintbox=Gamma(0.001), initial_count=1)

    def block():
        with pytest.raises(FloatingPointError):
            run_ensemble(config, 100, make_rng(1))

    block()
    _on_numpy(monkeypatch, block)


def _exact_chain(N, s, spike=None):
    """P(fix | k), E[tau | k] and Var[tau | k] for k = 1..N-1, by a dense solve.

    From k the next count is Bin(N, head / (head + (1-s)(1-head))) with
    head = k/N (Wright-Fisher), or, for a spike of weight N**-spike, head
    = k wo with the spike's lift added when the spike lies in the head
    (chance k/N).  With Q the transient block and t the mean times,
    (I - Q) h = P(-> N), (I - Q) t = 1 and (I - Q) E[tau^2] = 1 + 2 Q t.
    """
    k = np.arange(1, N)
    out = np.arange(N + 1)[None, :]

    def law(head):
        return binom.pmf(out, N, (head / (head + (1.0 - s) * (1.0 - head)))[:, None])

    if spike is None:
        P = law(k / N)
    else:
        wo = (1.0 - N**-spike) / (N - 1)
        P = (k / N)[:, None] * law(k * wo + N**-spike - wo) + (1 - k / N)[:, None] * law(k * wo)
    Q = P[:, 1:N]
    A = np.eye(N - 1) - Q
    h = np.linalg.solve(A, P[:, N])
    t = np.linalg.solve(A, np.ones(N - 1))
    return h, t, np.linalg.solve(A, 1.0 + 2.0 * Q @ t) - t * t


def test_exact_chain_gives_the_spiked_counterexample():
    h, t, _ = _exact_chain(1000, 1000**-0.45, 0.1)
    assert (round(h[0], 7), round(t[0], 4)) == (0.0011437, 1.8171)


@pytest.mark.parametrize("path", ["native", "numpy"])
@pytest.mark.parametrize("source, N, b, x0, blocks", [
    (Deterministic(), 2, 0.5, 1, 1), (Deterministic(), 20, 0.3, 2, 1),
    (Deterministic(), 100, 0.25, 1, 1), (SpikedSpec(0.2), 50, 0.3, 1, 1),
    (SpikedSpec(0.2), 200, 0.3, 3, 1), (SpikedSpec(0.1), 1000, 0.45, 1, 4),
], ids=["deterministic-2", "deterministic-20", "deterministic-100", "spiked-50",
        "spiked-200", "spiked-1000"])
def test_entries_keep_the_chain_s_fixation_and_absorption_time(
        monkeypatch, path, source, N, b, x0, blocks):
    # blocks of 1e5 trials, each starting as one entry of all of them,
    # against the dense solve, within 4 standard errors
    cfg = CanningsConfig.from_exponent(N, b, source, x0)
    spike = source.gamma if isinstance(source, SpikedSpec) else None
    h, t, v = (x[x0 - 1] for x in _exact_chain(N, cfg.s, spike))

    def run():
        tallies = [run_ensemble(cfg, 10**5, trial_rng(29, i)) for i in range(blocks)]
        return sum(x.fixations for x in tallies), sum(x.tau_total for x in tallies)

    fixed, tau_total = run() if path == "native" else _on_numpy(monkeypatch, run)
    n = blocks * 10**5
    assert abs(fixed / n - h) <= 4 * math.sqrt(h * (1 - h) / n)
    assert abs(tau_total / n - t) <= 4 * math.sqrt(v / n)


def test_a_spiked_certificate_sets_the_stop(monkeypatch):
    # spiked:0.41 at N = 100, b = 0.06 passes its own check, so trials stop at
    # K = 79 < N; the stopped estimate against the dense solve run to N, and
    # the numpy path's record against the native one
    cfg = CanningsConfig.from_exponent(100, 0.06, SpikedSpec(0.41), 1)
    h = _exact_chain(100, cfg.s, 0.41)[0][0]
    assert round(h, 6) == 0.966962
    est = estimate_fixation(cfg, 40000, seed=37)
    assert est.stop_level == 79
    assert abs(est.p_hat - h) <= 4 * math.sqrt(h * (1 - h) / est.trials)
    on_numpy = _on_numpy(monkeypatch, lambda: estimate_fixation(cfg, 40000, seed=37))
    assert on_numpy.engine == "numpy"
    assert replace(on_numpy, engine=est.engine) == est


@pytest.mark.parametrize("source, N, s, k, entries, size, walks", [
    (Deterministic(), 100, 0.1, 5, 1, 10**5, True),  # mean 5.5
    (Deterministic(), 1000, 0.1, 100, 1, 10**5, False),  # mean 110 > 30
    (Deterministic(), 100, 0.1, 97, 1, 10**5, True),  # p > 1/2: from N down
    (Deterministic(), 1000, 0.1, 1, 6250, 16, True),  # 16 > the bound 15.6
    (Deterministic(), 1000, 0.1, 1, 6250, 15, False),  # 15 <= the bound
    (SpikedSpec(0.1), 1000, 0.05, 1, 1, 10**5, True),  # spike outside the head
    (SpikedSpec(0.1), 1000, 0.05, 20, 1, 10**5, True),  # ~2,000 trials inside, mean 477
], ids=["walk", "mean-above-30", "p-above-half", "class-above-bound",
        "class-at-bound", "spiked", "spiked-inside"])
def test_one_generation_of_entries_is_binomial(source, N, s, k, entries, size, walks):
    # successors of `entries` entries of `size` trials at count k against
    # Bin(N, p) (a two-binomial mixture for the spike), by chi-square over
    # the outcomes expecting 5 or more, the rest pooled; one multinomial
    # per class shows as cells of more than one trial
    cfg = CanningsConfig(N, s, source, k)
    nxt, mult, _ = cannings._next_entries(
        np.full(entries, k), np.full(entries, size), cfg, make_rng(29))
    assert mult.sum() == entries * size
    assert (mult.max() > 1) == walks
    seen = np.bincount(nxt, weights=mult, minlength=N + 1)
    if isinstance(source, SpikedSpec):
        wo, ws = source.other_weight(N), source.spike_weight(N)
        pmf = (k / N) * binom.pmf(np.arange(N + 1), N, (ws + (k - 1) * wo) / (
            ws + (k - 1) * wo + (1 - s) * (1 - ws - (k - 1) * wo)))
        pmf += (1 - k / N) * binom.pmf(np.arange(N + 1), N, k * wo / (
            k * wo + (1 - s) * (1 - k * wo)))
    else:
        pmf = binom.pmf(np.arange(N + 1), N, k / (k + (1 - s) * (N - k)))
    expected = entries * size * pmf
    big = expected >= 5
    stat = ((seen[big] - expected[big]) ** 2 / expected[big]).sum()
    stat += (seen[~big].sum() - expected[~big].sum()) ** 2 / expected[~big].sum()
    assert chi2.sf(stat, big.sum()) > 1e-3


@pytest.mark.parametrize("k", [1, 20])
def test_native_spiked_entry_draws_what_numpy_draws(monkeypatch, k):
    # the entries of the "spiked" and "spiked-inside" cases above, run to
    # absorption: the native block counts the same trials inside the head
    # (Bin(10^5, k / N)) and draws the same classes, so the tallies, with
    # hits at every 50th level, are equal
    cfg = CanningsConfig(1000, 0.05, SpikedSpec(0.1), k)
    levels = tuple(range(k + 1, 1001, 50))

    def run():
        return run_ensemble(cfg, 10**5, make_rng(29), levels)

    assert run() == _on_numpy(monkeypatch, run)


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


def test_qn_with_no_head_is_one_over_one_minus_s():
    # floor(eps N) = 0: the discounted tail is the whole population, so
    # q_N = N E[W_1] / (1 - s), exact and without a draw, for any paintbox
    cfg = CanningsConfig(100, 0.1, Gamma(1.0), 1)
    assert growth_factor_qn(cfg, 0.005, 10, make_rng(8)) == Estimate(1.0 / 0.9, 0.0, True)


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


def test_growth_factor_qn_input_bounds():
    cfg = CanningsConfig(100, 0.1, Gamma(1.0), 1)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match="eps must be in"):
            growth_factor_qn(cfg, eps, 10, make_rng(1))
    with pytest.raises(ValueError, match="trials >= 1"):
        growth_factor_qn(cfg, 0.1, 0, make_rng(1))


def test_step_tilde_refuses_a_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        step_tilde(-1, CanningsConfig(100, 0.1, Gamma(1.0), 1), 0.1, make_rng(1))


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
