import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haldane import branching
from haldane.branching import (
    Binary,
    MixedBinomial,
    MixedPoisson,
    PlainPoisson,
    TwoPointImmortal,
    conditioned_pmf,
    extinction_q,
    haldane_ref,
)
from haldane.paintbox import Deterministic, Gamma, LogNormal, TwoPoint, UnsupportedLawError
from haldane.streams import make_rng

SUPERCRITICAL = [
    PlainPoisson(1.3),
    Binary(0.7),
    TwoPointImmortal(0.25),
    MixedPoisson(Deterministic(), 1.2),
    MixedPoisson(Gamma(2.0), 1.15),
    MixedPoisson(TwoPoint(0.5, 1.5, 0.5), 1.2),
    MixedBinomial(Deterministic(), 10000, 1.1, 10000),
    MixedBinomial(Gamma(1.0), 10000, 1.1, 10000),
    MixedBinomial(TwoPoint(0.5, 1.5, 0.5), 10000, 1.1, 10000),
    # the five near-critical solves of the gw-survival benchmark workload
    MixedPoisson(Gamma(1.0), 1.001),
    MixedBinomial(Gamma(1.0), 10000, 1.01, 10000),
    MixedBinomial(TwoPoint(), 10000, 1.01, 10000),
    PlainPoisson(1.001),
    Binary(0.51),
]


def test_supercritical_laws_have_mean_above_one():
    # a mean <= 1 would return phi = 0 before any survival-map evaluation
    assert all(model.mean() > 1 for model in SUPERCRITICAL)


def smallest_root_bisect(pgf, iters=200):
    """Independent oracle: bisect f(q)-q on [0, 1-1e-12]."""
    lo, hi = 0.0, 1.0 - 1e-12
    if pgf(hi) - hi >= 0.0:
        return 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pgf(mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _decimal_pgf(model):
    """The offspring PGF of `model` in Decimal arithmetic.

    A mixed law is the discrete law of its float atoms: the rates or
    success probabilities as the model forms them from its law's
    `mixing_atoms`, with the weights normalized exactly, so f(1) = 1.
    A weight sum off 1 by 1e-16 would move a near-critical root by
    1e-16 / (mean - 1).
    """
    if isinstance(model, PlainPoisson):
        m = Decimal(model.m)
        return lambda q: (m * (q - 1)).exp()
    if isinstance(model, Binary):
        p = Decimal(model.p)
        return lambda q: 1 - p + p * q * q
    vals, wts = model.law.mixing_atoms()
    total = sum(map(Decimal, wts))
    wts = [Decimal(w) / total for w in wts]
    if isinstance(model, MixedPoisson):
        rates = [Decimal(r) for r in model.m * vals]
        return lambda q: sum(w * (r * (q - 1)).exp() for w, r in zip(wts, rates))
    hits = [Decimal(p) for p in np.minimum(vals * model.m / model.N, 1.0)]
    return lambda q: sum(w * (1 - p * (1 - q)) ** model.M for w, p in zip(wts, hits))


def survival_bracket_decimal(model, digits=50, iters=80):
    """Independent oracle: bisect 1 - f(1 - phi) - phi on (0, 1] at `digits` digits.

    Returns Decimal ends (a, b) with the survival map above the diagonal at
    a and not above it at b; the largest root lies in [a, b], and b - a is
    2^-iters.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        pgf = _decimal_pgf(model)
        a, b = Decimal(0), Decimal(1)
        for _ in range(iters):
            mid = (a + b) / 2
            if 1 - pgf(1 - mid) - mid > 0:
                a = mid
            else:
                b = mid
    return a, b


def _w_branch_series(n):
    """First `n` coefficients mu_k of W_0(z) = sum_k mu_k p^k, p = sqrt(2(1 + e z)).

    The recurrence of Corless et al. (1996), "On the Lambert W function",
    eqs. 4.23-4.24, in exact fractions.
    """
    mu, alpha = [Fraction(-1), Fraction(1)], [Fraction(2), Fraction(-1)]
    for k in range(2, n):
        alpha.append(sum((mu[j] * mu[k + 1 - j] for j in range(2, k)), Fraction(0)))
        mu.append(Fraction(k - 1, k + 1) * (mu[k - 2] / 2 + alpha[k - 2] / 4)
                  - alpha[k] / 2 - mu[k - 1] / (k + 1))
    return [float(c) for c in mu]


_W_BRANCH = _w_branch_series(60)


def plain_poisson_survival(m):
    """Survival probability 1 + W_0(-m e^-m) / m of Pois(m) offspring, 1 < m <= 2.

    As m -> 1 the argument -m e^-m nears W's branch point -1/e, where W
    magnifies the argument's rounding: scipy's `lambertw` misses the root
    by 1.1e-10 relative at m = 1.001.  So the series of W in
    p = sqrt(2(1 + e z)) is summed instead, with
    1 + e z = -expm1(log1p(eps) - eps) and eps = m - 1.  The difference
    log1p(eps) - eps is 2 atanh(u) - eps for u = eps / (2 + eps), whose
    leading term 2u - eps = -eps u is taken in closed form, so nothing
    cancels.
    Sixty terms reach 1e-17 relative up to m = 2.
    """
    eps = m - 1.0
    u = eps / (2.0 + eps)
    log_ratio = -eps * u + 2.0 * sum(u ** (2 * j + 1) / (2 * j + 1) for j in range(1, 30))
    p = math.sqrt(-2.0 * math.expm1(log_ratio))
    w_plus_1 = 0.0
    for mu in reversed(_W_BRANCH[1:]):
        w_plus_1 = (w_plus_1 + mu) * p
    return (eps + w_plus_1) / m


# ---------------------------------------------------------------------------
# one generation: sample_total
# ---------------------------------------------------------------------------


def test_gw_step_zero_absorbing():
    rng = make_rng(0)
    for model in (
        PlainPoisson(1.1),
        Binary(0.5),
        TwoPointImmortal(0.1),
        MixedPoisson(Gamma(1.0), 1.1),
        MixedPoisson(LogNormal(1.0), 1.1),
        MixedBinomial(Gamma(1.0), 90, 1.1, 100),
    ):
        assert model.sample_total(0, rng) == 0
        with pytest.raises(ValueError):
            model.sample_total(-1, rng)


def test_gw_step_immortal_never_shrinks():
    rng = make_rng(1)
    model = TwoPointImmortal(0.3)
    for k in (1, 5, 20):
        for _ in range(200):
            assert model.sample_total(k, rng) >= k


def test_gw_step_plain_poisson_moments():
    rng = make_rng(2)
    model = PlainPoisson(1.1)
    draws = np.array([model.sample_total(100, rng) for _ in range(10**5)])
    band = 3 * math.sqrt(110.0 / 10**5)
    assert abs(draws.mean() - 110.0) <= band


def test_gw_step_mixed_binomial_clamps_p_at_one():
    # Y*m/N = 2 for every line: each line leaves all M = 4 offspring
    assert MixedBinomial(Deterministic(), 4, 8.0, 4).sample_total(10, make_rng(3)) == 40
    # tiny N with fat potentials forces some Y*m/N > 1 draws
    model = MixedBinomial(LogNormal(2.0), 4, 3.0, 4)
    rng = make_rng(3)
    for _ in range(500):
        out = model.sample_total(10, rng)
        assert 0 <= out <= 40


# ---------------------------------------------------------------------------
# extinction_q against closed forms and the bisection oracle
# ---------------------------------------------------------------------------


def test_extinction_critical_poisson_is_zero():
    res = extinction_q(PlainPoisson(1.0))
    assert res.phi == 0.0 and res.bound == 0.0


def test_extinction_immortal_is_one():
    for beta_s in (0.1, 1e-13):
        res = extinction_q(TwoPointImmortal(beta_s))
        assert res.phi == 1.0
        assert res.bound <= 1e-12


def test_extinction_mixed_poisson_gamma_quadratic():
    # q = 1/(1 - m(q-1)) gives m q^2 - (m+1) q + 1 = 0, smallest root 1/m;
    # near m = 1 the survival 1 - 1/m is the paper's slightly supercritical case
    for m in (1.1, 1.001, 1.0001):
        res = extinction_q(MixedPoisson(Gamma(1.0), m))
        exact = 1.0 - 1.0 / m
        assert abs(res.phi - exact) <= 1e-9 * exact
        assert res.bound <= 1e-12


@pytest.mark.parametrize(
    "model, exact",
    [
        *[(Binary(p), (2 * p - 1) / p) for p in (0.51, 0.6, 0.9)],
        *[(PlainPoisson(m), plain_poisson_survival(m)) for m in (1.001, 1.01, 1.1, 2.0)],
    ],
)
def test_extinction_bracket_holds_closed_form(model, exact):
    res = extinction_q(model)
    assert res.phi - res.bound <= exact <= res.phi
    assert res.bound <= 1e-12


def test_extinction_budget_exhausted_is_reported(monkeypatch):
    # the Haldane start is an upper end, so one evaluation already brackets
    monkeypatch.setattr(branching, "MAX_NEWTON", 1)
    res = extinction_q(PlainPoisson(1.001))
    assert res.bound > 1e-12
    assert res.iterations == 1


@pytest.mark.parametrize("budget", [2, 3])
@pytest.mark.parametrize("model", [
    PlainPoisson(1.001),  # the Haldane start is an upper end
    MixedPoisson(Gamma(1.0), 1.5),  # the Haldane start is a lower end
    Binary(0.7),  # the Haldane start lies past 1/2 and is dropped
])
def test_extinction_budget_counts_the_haldane_start(model, budget, monkeypatch):
    monkeypatch.setattr(branching, "MAX_NEWTON", budget)
    res = extinction_q(model)
    assert res.iterations <= budget
    assert res.bound > 1e-12


def test_extinction_plain_poisson_vs_bisection():
    model = PlainPoisson(1.1)
    res = extinction_q(model)
    oracle = 1.0 - smallest_root_bisect(model.pgf)
    assert abs(res.phi - oracle) <= 1e-9
    assert res.phi == pytest.approx(0.1761341436, abs=1e-9)


def newton_from_one(model, monkeypatch):
    """Survival-map evaluations of `model`'s solve without the Haldane start."""
    with monkeypatch.context() as patch:
        patch.setattr(branching, "_HALDANE_START", math.inf)
        return extinction_q(model).iterations


@pytest.mark.parametrize("model", SUPERCRITICAL)
def test_extinction_matches_bisection(model, monkeypatch):
    res = extinction_q(model)
    oracle = 1.0 - smallest_root_bisect(model.pgf)
    assert abs(res.phi - oracle) <= 1e-9
    assert res.bound <= 1e-12
    assert res.iterations <= 30
    # the Haldane start never costs evaluations
    assert res.iterations <= newton_from_one(model, monkeypatch)


def test_benchmark_solves_take_at_most_32_evaluations(monkeypatch):
    # the last five SUPERCRITICAL laws; Newton from phi = 1 took 68
    solves = SUPERCRITICAL[-5:]
    assert sum(newton_from_one(m, monkeypatch) for m in solves) == 68
    assert sum(extinction_q(m).iterations for m in solves) <= 32


def test_haldane_start_below_the_root(monkeypatch):
    # Gamma(1) mixing: the root 1 - 1/m = 1/3 lies above the start 1.2 * 2(m - 1)/variance = 0.32
    model = MixedPoisson(Gamma(1.0), 1.5)
    start = branching._HALDANE_START * 2.0 * (model.mean() - 1.0) / model.variance()
    a, b = survival_bracket_decimal(model)
    assert start < a
    res = extinction_q(model)
    assert Decimal(res.phi) - Decimal(res.bound) <= b and a <= Decimal(res.phi)
    assert res.bound <= 1e-12
    # the start costs its one evaluation and no more
    assert res.iterations <= newton_from_one(model, monkeypatch) + 1


laws = st.one_of(
    st.just(Deterministic()),
    st.floats(0.3, 5.0).map(Gamma),
    st.builds(TwoPoint, st.floats(0.1, 1.0), st.floats(1.0, 4.0), st.floats(0.05, 0.95)),
)
means = st.floats(1.0, 3.0, exclude_min=True)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    means.map(PlainPoisson),
    st.floats(0.5, 1.0, exclude_min=True).map(Binary),  # mean 2p in (1, 2]
    st.builds(MixedPoisson, laws, means),
    st.builds(lambda law, m, N: MixedBinomial(law, N, m, N), laws, means,
              st.integers(100, 10_000)),
))
def test_extinction_bracket_holds_decimal_oracle(model):
    tol = 1e-12
    res = extinction_q(model, tol=tol)
    a, b = survival_bracket_decimal(model)
    # the root lies in [a, b]; each check fails only if it is outside the bracket
    assert Decimal(res.phi) - Decimal(res.bound) <= b
    assert a <= Decimal(res.phi)
    assert 0.0 <= res.bound <= tol


def test_mixed_binomial_single_trial_slope_at_certain_success():
    # M = 1: S'(phi) = E[p] even where p * phi = 1, so 1 - p * phi = 0
    model = MixedBinomial(Deterministic(), 1, 4.0, 4)
    assert model.survival_map(1.0) == (1.0, 1.0)
    value, slope = MixedBinomial(TwoPoint(0.5, 1.5, 0.5), 1, 8.0, 12).survival_map(1.0)
    assert math.isfinite(slope)
    assert value == pytest.approx(0.5 * (1.0 / 3.0) + 0.5 * 1.0, abs=1e-15)
    assert slope == pytest.approx(value, abs=1e-15)  # linear in phi for M = 1


@pytest.mark.parametrize("model", SUPERCRITICAL)
def test_survival_map_matches_pgf(model):
    h = 1e-6
    for phi in (1e-3, 0.5, 0.99):
        value, slope = model.survival_map(phi)
        assert value == pytest.approx(1.0 - model.pgf(1.0 - phi), abs=1e-12)
        central = (model.pgf(1.0 - phi + h) - model.pgf(1.0 - phi - h)) / (2 * h)
        assert slope == pytest.approx(central, rel=1e-7, abs=1e-9)


def test_extinction_monotone_iterates():
    model = PlainPoisson(1.2)
    q, iterates = 0.0, []
    for _ in range(200):
        q = model.pgf(q)
        iterates.append(q)
    assert all(b >= a for a, b in zip(iterates, iterates[1:]))
    assert iterates[-1] <= 1.0


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5, 100.0])
@pytest.mark.parametrize("m", [0.5, 1.001, 1.5, 3.0])
def test_mixed_poisson_gamma_pgf_is_negative_binomial(kappa, m):
    # Pois(m Y) with Y ~ Gamma(kappa, 1/kappa) is negative binomial; the
    # atoms must reproduce its closed-form PGF
    model = MixedPoisson(Gamma(kappa), m)
    for q in np.linspace(0.0, 1.0, 21):
        exact = (1.0 + m * (1.0 - q) / kappa) ** -kappa
        assert model.pgf(q) == pytest.approx(exact, rel=1e-13, abs=0.0)


def negative_binomial_survival(kappa, m, iters=200):
    """Independent oracle: bisect S(phi) - phi on (0, 1] for the closed-form
    survival map S(phi) = 1 - (1 + m phi / kappa)^-kappa of Pois(m Y),
    Y ~ Gamma(kappa, 1/kappa); S(phi) > phi below the root."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if -math.expm1(-kappa * math.log1p(m * mid / kappa)) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5, 100.0, 2000.0])
@pytest.mark.parametrize("m", [1.001, 1.01, 1.1, 1.5, 3.0, 10.0])
def test_mixed_poisson_gamma_survival_is_the_negative_binomial_root(kappa, m):
    # where the 160-atom quadrature is exact to rounding, the solved phi is
    # the root of 1 - phi = (1 + m phi / kappa)^-kappa; `phi_bound` brackets
    # the root of the atom law, not the quadrature's own error
    exact = negative_binomial_survival(kappa, m)
    res = extinction_q(MixedPoisson(Gamma(kappa), m))
    assert res.phi == pytest.approx(exact, rel=1e-10, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", [1e-16, 1e-20, 1e-300])
def test_tiny_gamma_shape_solves(kappa):
    # the Jacobi off-diagonal at i = 1 is sqrt(kappa); written i + kappa - 1
    # it rounded to 0, and the solve spent its budget on a vacuous bracket
    res = extinction_q(MixedPoisson(Gamma(kappa), 1.5))
    assert abs(res.phi - negative_binomial_survival(kappa, 1.5)) <= 1e-12
    assert res.bound <= 1e-12 and res.iterations <= 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_gamma_shape_solves_mixed_binomial():
    res = extinction_q(MixedBinomial(Gamma(1e-300), 100, 1.5, 100))
    assert 0.0 <= res.phi <= 1e-12
    assert res.bound <= 1e-12 and res.iterations <= 10


def test_mixed_binomial_gamma_pgf_vs_quadrature_oracle():
    # the generalized Gauss-Laguerre route against direct numerical integration
    from scipy.integrate import quad
    from scipy.stats import gamma as gamma_dist

    for kappa in (1.0, 2.5):
        model = MixedBinomial(Gamma(kappa), 9000, 1.1, 10000)
        dist = gamma_dist(a=kappa, scale=1.0 / kappa)

        def integrand(y, q):
            p = min(y * 1.1 / 10000, 1.0)
            return (1.0 - p * (1.0 - q)) ** 9000 * dist.pdf(y)

        for q in (0.0, 0.3, 0.9, 0.99):
            oracle, err = quad(integrand, 0.0, np.inf, args=(q,), limit=200)
            assert abs(model.pgf(q) - oracle) <= max(1e-9, 10 * err)


def test_extinction_mixed_binomial_vs_simulation():
    # cross-check the quadrature PGF route against a Monte Carlo survival run
    model = MixedBinomial(Gamma(1.0), 900, 1.2, 1000)
    res = extinction_q(model)
    rng = make_rng(4)
    survived = 0
    trials = 20000
    for _ in range(trials):
        z, gen = 1, 0
        while 0 < z < 500 and gen < 400:
            z = model.sample_total(z, rng)
            gen += 1
        survived += z >= 500
    p = survived / trials
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(p - res.phi) <= 4 * se


def test_extinction_lognormal_unsupported():
    with pytest.raises(UnsupportedLawError):
        extinction_q(MixedPoisson(LogNormal(0.5), 1.1))
    with pytest.raises(UnsupportedLawError):
        extinction_q(MixedBinomial(LogNormal(0.5), 1000, 1.2, 1000))
    # the precondition fires even when the mean short-circuit would apply
    with pytest.raises(UnsupportedLawError):
        extinction_q(MixedPoisson(LogNormal(0.5), 0.9))


# ---------------------------------------------------------------------------
# haldane_ref / offspring variance
# ---------------------------------------------------------------------------


def test_haldane_ref_values():
    assert haldane_ref(0.0, 2.0) == 0.0
    assert haldane_ref(0.1, 2.0) == pytest.approx(0.1)
    assert haldane_ref(0.1, 2.31) == pytest.approx(0.0865801, abs=1e-7)
    assert haldane_ref(0.9, 0.5) == 1.0  # clamped
    with pytest.raises(ValueError):
        haldane_ref(-0.1, 1.0)
    with pytest.raises(ValueError):
        haldane_ref(0.1, 0.0)


def test_offspring_variance_closed_forms():
    assert PlainPoisson(1.7).variance() == pytest.approx(1.7)
    assert MixedPoisson(Gamma(1.0), 1.1).variance() == pytest.approx(2.31)
    assert TwoPointImmortal(0.1).variance() == pytest.approx(0.09)
    assert Binary(0.6).variance() == pytest.approx(4 * 0.6 * 0.4)


def test_offspring_variance_mixed_binomial_vs_simulation():
    model = MixedBinomial(Gamma(1.0), 900, 1.1, 1000)
    rng = make_rng(5)
    draws = np.array([model.sample_total(1, rng) for _ in range(10**5)])
    assert abs(draws.mean() - model.mean()) <= 4 * draws.std() / math.sqrt(draws.size)
    var = model.variance()
    # sampling error of the sample variance via the empirical fourth moment
    m4 = ((draws - draws.mean()) ** 4).mean()
    se_var = math.sqrt(max(m4 - draws.var() ** 2, 0.0) / draws.size)
    assert abs(draws.var(ddof=1) - var) <= 4 * se_var


# ---------------------------------------------------------------------------
# conditioned offspring law
# ---------------------------------------------------------------------------


def test_conditioned_pmf_deterministic_two():
    # base = delta_2 survives surely: the skeleton keeps both lines
    assert conditioned_pmf([0.0, 0.0, 1.0], 1.0, 2) == pytest.approx(1.0)
    assert conditioned_pmf([0.0, 0.0, 1.0], 1.0, 1) == 0.0


def test_conditioned_pmf_binary_closed_form():
    p = 0.6
    phi = (2 * p - 1) / p
    base = [1 - p, 0.0, p]
    assert conditioned_pmf(base, phi, 1) == pytest.approx(2 * (1 - p), rel=1e-12)
    assert conditioned_pmf(base, phi, 2) == pytest.approx(2 * p - 1, rel=1e-12)


def test_conditioned_pmf_mean_preserved_binary():
    # E[Z*] = E[Z] exactly for the binary law
    for p in (0.55, 0.6, 0.75, 0.9):
        phi = (2 * p - 1) / p
        base = [1 - p, 0.0, p]
        mean = sum(k * conditioned_pmf(base, phi, k) for k in (1, 2))
        assert abs(mean - 2 * p) <= 1e-12


def test_conditioned_pmf_domain():
    with pytest.raises(ValueError):
        conditioned_pmf([0.0, 1.0], 0.0, 1)
    with pytest.raises(ValueError):
        conditioned_pmf([0.0, 1.0], 0.5, 0)
    with pytest.raises(ValueError):
        conditioned_pmf([0.0, 0.7], 0.5, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=8).filter(
        lambda ws: sum(ws) > 0
    )
)
def test_conditioned_pmf_normalizes_at_true_phi(raw):
    weights = np.asarray(raw) / sum(raw)
    mean = sum(j * w for j, w in enumerate(weights))
    if mean <= 1.05:  # need a clearly supercritical base
        return
    pgf = lambda q: sum(w * q**j for j, w in enumerate(weights))
    phi = 1.0 - smallest_root_bisect(pgf)
    total = sum(conditioned_pmf(weights, phi, k) for k in range(1, len(weights) + 1))
    assert abs(total - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# Eq.-style moment recursion for the immortal two-point law
# ---------------------------------------------------------------------------


def test_two_point_immortal_moment_recursion():
    beta_s = 0.1
    m = 1.0 + beta_s
    sigma2 = beta_s * (1.0 - beta_s)
    model = TwoPointImmortal(beta_s)
    rng = make_rng(6)
    trials, checkpoints = 10**5, (10, 50)
    states = {n: np.empty(trials, dtype=np.int64) for n in checkpoints}
    for t in range(trials):
        z = 1
        for n in range(1, 51):
            z = model.sample_total(z, rng)
            if n in states:
                states[n][t] = z
    for n in checkpoints:
        zs = states[n]
        mean_exact = m**n
        var_exact = sigma2 * m ** (n - 1) * (m**n - 1) / (m - 1)
        se_mean = zs.std(ddof=1) / math.sqrt(trials)
        assert abs(zs.mean() - mean_exact) <= 3 * se_mean
        m4 = ((zs - zs.mean()) ** 4).mean()
        se_var = math.sqrt(max(m4 - zs.var() ** 2, 0.0) / trials)
        assert abs(zs.var(ddof=1) - var_exact) <= 3 * se_var


# ---------------------------------------------------------------------------
# survival ratio trend
# ---------------------------------------------------------------------------


def test_haldane_ratio_trend_plain_poisson():
    ratios = []
    for s in (0.2, 0.1, 0.05, 0.01):
        model = PlainPoisson(1.0 + s)
        res = extinction_q(model)
        oracle = 1.0 - smallest_root_bisect(model.pgf)
        assert abs(res.phi - oracle) <= 1e-9
        ratios.append(res.phi * model.variance() / (2 * s))
    assert ratios == sorted(ratios)
    assert all(r < 1.0 for r in ratios)
    assert ratios[-1] >= 0.99
    # frozen oracle values
    assert ratios[0] == pytest.approx(0.941095, abs=1e-6)
    assert ratios[-1] == pytest.approx(0.996689, abs=1e-6)


# ---------------------------------------------------------------------------
# first exits of the offspring laws
# ---------------------------------------------------------------------------


def first_exits(model, upper, horizon, trials, rng):
    """Counts of runs from 1 that reach `upper`, hit 0, or stay between by `horizon`."""
    counts = [0, 0, 0]
    for _ in range(trials):
        z = 1
        for _ in range(horizon):
            z = model.sample_total(z, rng)
            if z == 0 or z >= upper:
                break
        counts[0 if z >= upper else 1 if z == 0 else 2] += 1
    return counts


def test_hitting_immortal_never_zero():
    assert first_exits(TwoPointImmortal(0.1), 2, 10**4, 2000, make_rng(7)) == [2000, 0, 0]


def test_hitting_still_inside_decays_with_horizon():
    short = first_exits(PlainPoisson(1.1), 16, 32, 10**5, make_rng(8))
    long = first_exits(PlainPoisson(1.1), 16, 64, 10**5, make_rng(8))
    assert short[2] > long[2]


def test_hitting_matches_survival_bracket():
    # phi <= P(reach u before 0) <= phi / (1 - (1-phi)^u); both bounds exact
    model = PlainPoisson(1.1)
    phi = extinction_q(model).phi
    upper, trials = 16, 10**5
    reached, _, inside = first_exits(model, upper, 10**4, trials, make_rng(9))
    assert inside == 0
    p = reached / trials
    se = math.sqrt(p * (1 - p) / trials)
    hi = phi / (1.0 - (1.0 - phi) ** upper)
    assert phi - 3 * se <= p <= hi + 3 * se
