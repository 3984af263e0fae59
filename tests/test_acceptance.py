"""Acceptance gate: one test per criterion, run at full stated budgets.

Each test prints one `ACCEPTANCE nn PASS/FAIL` line (visible with
`pytest -s`) before asserting, so a red criterion still reports its
numbers.  Seeds are frozen from pilot runs; every tolerance is pinned
here, nothing is deferred.

Note on criterion 07: the paper's phase-2 claim (from ceil(N^(b+delta))
to floor(eps*N) with probability -> 1) is a limit as N -> infinity; it
gives no 0.95 floor at a fixed N.  For gamma:1 (Dirichlet(1) weights)
(1-s)^K is an exact martingale of the chain, so from a count k the
chance of reaching eps*N before 0 is at least 1-(1-s)^k; at N=1e4 the
matching upper bound differs by ~1e-46.  An exact solve of the
first-passage law (Gauss-Legendre on the Beta(k, N-k) block sum, linear
solve over 1..threshold-1) gives, at N=1e4, b=0.25, eps=0.1:

    delta  threshold  exact p1  exact p2  exact floor 1-(1-s)^threshold
    0.05   16         0.11576   0.86386   0.8147
    0.15   40         0.10090   0.99110   0.9852

At delta=0.05 the floor is out of reach (1-p2 ~ exp(-N^delta) needs
N >~ 3.5e9 for 0.95); the exact bound reaches 0.95 once the threshold is
>= 29, i.e. delta > 0.112 at N=1e4.  The fixture pins delta=0.15
(b+delta=0.40 < 1/2), where 1-0.9^40 = 0.985 puts the 0.95 floor in
force at every seed.  Thresholds are bookkeeping only and streams are
keyed by (seed, block of trials), so criterion 05 sees the same
trajectories.
"""

import json
import math

import numpy as np
import pytest

from haldane.analysis import counterexample_check, estimate_fixation, phase_diagnostics
from haldane.branching import (
    MixedBinomial,
    MixedPoisson,
    PlainPoisson,
    extinction_q,
)
from haldane.cannings import CanningsConfig, step
from haldane.cli import _record, build_parser
from haldane.paintbox import Deterministic, Gamma, estimate_weight_moment
from haldane.streams import make_rng
from test_branching import smallest_root_bisect

RHO2_GAMMA1 = 2.0
KS_COEFF_001 = math.sqrt(-math.log(0.005) / 2.0)  # two-sample, level 0.01


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def phase_report():
    # shared by criteria 05 and 07 (same trials)
    cfg = CanningsConfig.from_exponent(10**4, 0.25, Gamma(1.0), 1)
    return phase_diagnostics(cfg, delta=0.15, eps=0.1, trials=200000, seed=20250809)


@pytest.fixture(scope="module")
def n2_estimate():
    # shared by criteria 04 and 10
    cfg = CanningsConfig(2, 0.5, Deterministic(), 1)
    return estimate_fixation(cfg, 10**6, seed=4, parallelism=1)


def test_criterion_01_exact_gw_survival():
    res_mp = extinction_q(MixedPoisson(Gamma(1.0), 1.1))
    err_mp = abs(res_mp.phi - 1.0 / 11.0)
    model = PlainPoisson(1.1)
    res_pp = extinction_q(model)
    err_pp = abs(res_pp.phi - (1.0 - smallest_root_bisect(model.pgf)))
    ok = err_mp <= 1e-10 and err_pp <= 1e-6
    report(1, "exact-gw-survival", ok,
           f"mixed-poisson err={err_mp:.2e} (tol 1e-10), "
           f"plain-poisson err vs bisection={err_pp:.2e} (tol 1e-6)")
    assert err_mp <= 1e-10
    assert err_pp <= 1e-6


def test_criterion_02_haldane_ratio_trend_gw():
    ratios = []
    for s in (0.2, 0.1, 0.05, 0.01):
        model = PlainPoisson(1.0 + s)
        phi = extinction_q(model).phi
        ratios.append(phi * model.variance() / (2.0 * s))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = increasing and ratios[-1] >= 0.99
    report(2, "gw-haldane-ratio-trend", ok,
           "ratios=" + ", ".join(f"{r:.6f}" for r in ratios))
    assert increasing
    assert ratios[-1] >= 0.99


def test_criterion_03_neutral_fixation():
    cfg = CanningsConfig(100, 0.0, Deterministic(), 1)
    est = estimate_fixation(cfg, 10**6, seed=3, parallelism=1)
    ok = est.ci_low <= 0.01 <= est.ci_high
    report(3, "neutral-martingale-floor", ok,
           f"p_hat={est.p_hat:.6f} wilson99=({est.ci_low:.6f},{est.ci_high:.6f}) "
           f"target 0.01")
    assert ok


def test_criterion_04_exact_small_n(n2_estimate):
    est = n2_estimate
    band = 3.0 * math.sqrt(0.8 * 0.2 / est.trials)
    ok = abs(est.p_hat - 0.8) <= band
    report(4, "two-state-oracle", ok,
           f"p_hat={est.p_hat:.6f} |err|={abs(est.p_hat - 0.8):.6f} 3sig={band:.6f}")
    assert ok


def test_criterion_05_fixation_ratio_trend(phase_report):
    points = []
    for N, seed in ((100, 11), (1000, 11)):
        cfg = CanningsConfig.from_exponent(N, 0.25, Gamma(1.0), 1)
        points.append(estimate_fixation(cfg, 200000, seed=seed, parallelism=1))
    points.append(phase_report.estimate)  # N = 1e4, shares trials with criterion 7
    ratios, halfwidths = [], []
    for est in points:
        scale = RHO2_GAMMA1 / (2.0 * est.s)
        ratios.append(est.p_hat * scale)
        halfwidths.append((est.ci_high - est.ci_low) / 2.0 * scale)
    in_bracket = 0.8 <= ratios[2] <= 1.2
    gaps = [abs(r - 1.0) for r in ratios]
    trend = (gaps[1] <= gaps[0] + halfwidths[0] + halfwidths[1]) and (
        gaps[2] <= gaps[1] + halfwidths[1] + halfwidths[2])
    ok = in_bracket and trend
    report(5, "haldane-ratio-trend", ok,
           "ratios(N=1e2,1e3,1e4)=" + ", ".join(f"{r:.4f}" for r in ratios)
           + f" bracket[0.8,1.2] at 1e4: {in_bracket}, |ratio-1| trend in CIs: {trend}")
    assert in_bracket
    assert trend


def test_criterion_06_weight_moment():
    N = 1000
    est = estimate_weight_moment(Gamma(1.0), N, 2, 10**5, make_rng(10))
    value = N**2 * est.value
    tol = 3 * N**2 * est.stderr
    ok = abs(value - RHO2_GAMMA1) <= tol
    report(6, "weight-second-moment", ok,
           f"N^2*E[W1^2]={value:.4f} target 2 +- {tol:.4f} (3 SE)")
    assert ok


def test_criterion_07_phase_floors(phase_report):
    rep = phase_report
    floor = 1.0 - (1.0 - rep.estimate.s) ** rep.threshold_1  # exact gamma:1 lower bound on p2
    telescoped = rep.p1 * rep.p2 * rep.p3
    consistent = telescoped == pytest.approx(rep.estimate.p_hat, rel=1e-12)
    floor_in_force = floor >= 0.95
    p2_ok = rep.p2 >= 0.95
    p2_bound_ok = rep.p2_ci[1] >= floor
    p3_ok = rep.p3 >= 0.95
    ok = floor_in_force and p2_ok and p2_bound_ok and p3_ok and consistent
    report(7, "phase-floors", ok,
           f"p1={rep.p1:.4f} p2={rep.p2:.4f} p3={rep.p3:.4f} "
           f"(floors 0.95/0.95) exact p2 floor={floor:.6f} "
           f"p2 ci_high={rep.p2_ci[1]:.6f} "
           f"p1*p2*p3={telescoped:.6f} vs p_hat={rep.estimate.p_hat:.6f}")
    assert consistent
    assert floor_in_force  # threshold too low for the 0.95 floor to hold exactly
    assert p2_bound_ok
    assert p3_ok
    assert p2_ok


def test_criterion_08_stochastic_sandwich():
    N, b, delta = 10**4, 0.3, 0.05
    s = float(N) ** -b
    level_1 = math.ceil(N ** (b + delta))
    M = N - level_1
    # mean factors: the coupling chain's explicit 1+s+o(s) corrections
    # (alpha strictly inside (1/2 - eta, 1/2); deviation-bound slack 1+eps')
    alpha, eps_dev = 0.45, 0.5
    m_up = (1.0 + N ** (b + 2 * delta - 1)) * (1.0 + N**-alpha) / (1.0 - s)
    m_low = (1.0 - N**-alpha) / (1.0 - s + (1.0 + eps_dev) * N ** (delta - 1))
    upper = MixedPoisson(Gamma(1.0), m_up)
    lower = MixedBinomial(Gamma(1.0), M, m_low, N)
    cfg = CanningsConfig.from_exponent(N, b, Gamma(1.0), 1)
    rng = make_rng(2718)
    n = 10**5
    tol = KS_COEFF_001 * math.sqrt(2.0 / n)
    all_ok, details = True, []
    for k in (1, 10, level_1):
        mid = np.array([step(k, cfg, rng) for _ in range(n)])
        up = np.array([upper.sample_total(k, rng) for _ in range(n)])
        low = np.array([lower.sample_total(k, rng) for _ in range(n)])
        grid = np.unique(np.concatenate([mid, up, low]))
        f_mid = np.searchsorted(np.sort(mid), grid, side="right") / n
        f_up = np.searchsorted(np.sort(up), grid, side="right") / n
        f_low = np.searchsorted(np.sort(low), grid, side="right") / n
        viol_low = float((f_mid - f_low).max())  # need F_low >= F_mid
        viol_up = float((f_up - f_mid).max())    # need F_up <= F_mid
        all_ok &= viol_low <= tol and viol_up <= tol
        details.append(f"k={k}: low={viol_low:.5f} up={viol_up:.5f}")
    report(8, "stochastic-sandwich", all_ok,
           f"one-sided ECDF violations (tol {tol:.5f}) " + "; ".join(details))
    assert all_ok


def test_criterion_09_spiked_counterexample():
    rep = counterexample_check(1000, gamma=0.1, b=0.45, trials=10**6, seed=99,
                               parallelism=1)
    floor = 0.9 / 1000
    est = rep.estimate
    ok = (est.ci_low >= 2 * rep.naive_prediction and est.ci_low >= floor
          and rep.violation)
    report(9, "spiked-counterexample", ok,
           f"p_hat={est.p_hat:.6f} ci_low={est.ci_low:.6f} "
           f"2*naive={2 * rep.naive_prediction:.6f} floor={floor:.6f} "
           f"violation={rep.violation}")
    assert est.ci_low >= 2 * rep.naive_prediction
    assert est.ci_low >= floor
    assert rep.violation


def test_criterion_10_parallel_determinism(n2_estimate):
    cfg = CanningsConfig(2, 0.5, Deterministic(), 1)

    def record(est, parallelism):
        args = build_parser().parse_args([
            "fixation", "--N", "2", "--s", "0.5", "--paintbox", "deterministic",
            "--x0", "1", "--trials", str(10**6), "--seed", "4",
            "--parallelism", str(parallelism)])
        rec = _record(args, cfg, est)
        rec.pop("parallelism")  # the worker count is allowed to differ
        return json.dumps(rec, sort_keys=True).encode()

    blobs = [record(n2_estimate, 1)]
    for parallelism in (4, 16):
        est = estimate_fixation(cfg, 10**6, seed=4, parallelism=parallelism)
        blobs.append(record(est, parallelism))
    ok = blobs[0] == blobs[1] == blobs[2]
    report(10, "parallel-determinism", ok,
           f"records byte-identical across parallelism 1/4/16: {ok}")
    assert ok
