import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, roots_genlaguerre
from scipy.stats import ks_2samp

from haldane import paintbox
from haldane.paintbox import (
    Deterministic,
    Gamma,
    LogNormal,
    SpikedSpec,
    TwoPoint,
    UnsupportedLawError,
    block_weight_sums,
    estimate_weight_moment,
    parse_source,
    sample_y,
    spiked_weights,
    weights_from_y,
)
from haldane.streams import make_rng


# ---------------------------------------------------------------------------
# sample_y
# ---------------------------------------------------------------------------


def test_sample_y_deterministic_point_mass():
    out = sample_y(Deterministic(), 4, make_rng(0))
    assert out.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_sample_y_gamma_mean():
    # Gamma(1) has mean 1, variance 1: 3 sigma band at 1e6 draws
    draws = sample_y(Gamma(1.0), 10**6, make_rng(1))
    assert abs(draws.mean() - 1.0) <= 3e-3
    assert np.all(draws > 0)


def test_sample_y_two_point_support():
    draws = sample_y(TwoPoint(0.5, 1.5, 0.5), 10000, make_rng(2))
    assert set(np.unique(draws)) == {0.5, 1.5}


def test_sample_y_rejects_empty():
    with pytest.raises(ValueError):
        sample_y(Gamma(1.0), 0, make_rng(0))


def test_invalid_parameters_rejected_at_construction():
    with pytest.raises(ValueError):
        Gamma(0.0)
    with pytest.raises(ValueError):
        Gamma(-1.0)
    with pytest.raises(ValueError):
        TwoPoint(0.5, 1.5, 0.0)
    with pytest.raises(ValueError):
        TwoPoint(0.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        TwoPoint(-0.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        LogNormal(0.0)


def test_mean_normalization_records_scale():
    law = TwoPoint(1.0, 3.0, 0.5)  # raw mean 2
    draws = law.sample(1000, make_rng(3))
    assert set(np.round(np.unique(draws), 12)) == {0.5, 1.5}
    assert abs(Gamma(4.0).sample(10**5, make_rng(4)).mean() - 1.0) < 0.01


def test_lognormal_mean_one_and_flagged():
    law = LogNormal(0.8)
    assert not law.conforming
    draws = law.sample(2 * 10**5, make_rng(5))
    assert abs(draws.mean() - 1.0) < 0.01
    with pytest.raises(UnsupportedLawError):
        law.mixing_atoms()


# ---------------------------------------------------------------------------
# weights_from_y
# ---------------------------------------------------------------------------


def test_weights_from_y_examples():
    assert weights_from_y([1, 1, 1, 1]).tolist() == [0.25, 0.25, 0.25, 0.25]
    assert weights_from_y([2, 1, 1]).tolist() == [0.5, 0.25, 0.25]


def test_weights_from_y_rejects_nonpositive():
    with pytest.raises(ValueError):
        weights_from_y([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        weights_from_y([1.0, -0.5])
    with pytest.raises(ValueError):
        weights_from_y([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=64))
def test_weights_normalize_within_tolerance(ys):
    w = weights_from_y(ys)
    assert w.shape == (len(ys),) and w.dtype == float
    assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12
    assert np.all(w > 0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=32),
    st.randoms(use_true_random=False),
)
def test_normalization_commutes_with_permutation(ys, pyrandom):
    perm = list(range(len(ys)))
    pyrandom.shuffle(perm)
    direct = weights_from_y([ys[i] for i in perm])
    permuted = weights_from_y(ys)[perm]
    assert np.allclose(direct, permuted, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# spiked weights
# ---------------------------------------------------------------------------


def test_spiked_weights_forced_arithmetic():
    w = spiked_weights(5, SpikedSpec(0.2), make_rng(6))
    assert w.shape == (5,) and w.dtype == float
    assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12
    spike = 5.0**-0.2
    other = (1 - spike) / 4
    assert np.isclose(sorted(w)[-1], spike)  # ~0.724780
    assert np.isclose(spike, 0.724780, atol=5e-7)
    assert np.allclose(sorted(w)[:-1], other)
    assert np.isclose(other, 0.068805, atol=5e-7)


def test_spiked_weights_n2():
    w = spiked_weights(2, SpikedSpec(0.4999999), make_rng(7))
    assert np.isclose(max(w), 2**-0.4999999)


def test_spiked_spec_domain():
    with pytest.raises(ValueError):
        SpikedSpec(0.0)
    with pytest.raises(ValueError):
        SpikedSpec(0.5)
    with pytest.raises(ValueError):
        spiked_weights(1, SpikedSpec(0.2), make_rng(0))


def test_spike_position_uniform():
    # each of N=10 indices should carry the spike with frequency 0.1 +- 3 sigma
    rng = make_rng(8)
    N, trials = 10, 10**5
    counts = np.zeros(N, dtype=int)
    spec = SpikedSpec(0.2)
    spike = spec.spike_weight(N)
    for _ in range(trials):
        counts[int(np.argmax(spiked_weights(N, spec, rng)))] += 1
    band = 3 * math.sqrt(0.1 * 0.9 / trials)
    assert np.all(np.abs(counts / trials - 0.1) <= band + 1e-12), counts


def test_spiked_second_moment_closed_form():
    spec = SpikedSpec(0.1)
    N = 1000
    expected = (N**-0.2) / N + (1 - 1 / N) * ((1 - N**-0.1) / (N - 1)) ** 2
    assert spec.rho_squared(N) == pytest.approx(N * (N - 1) * expected, rel=1e-14)


# ---------------------------------------------------------------------------
# rho_squared
# ---------------------------------------------------------------------------


def test_rho_squared_closed_forms():
    # Y laws give the N-free limit E[Y^2]/E[Y]^2 at every N
    for N in (10, 10**6):
        assert Deterministic().rho_squared(N) == 1.0
        assert Gamma(1.0).rho_squared(N) == pytest.approx(2.0)
        assert Gamma(2.0).rho_squared(N) == pytest.approx(1.5)
        assert TwoPoint(0.5, 1.5, 0.5).rho_squared(N) == pytest.approx(1.25)
        assert LogNormal(0.5).rho_squared(N) == pytest.approx(math.exp(0.25))


def test_second_moment_bits():
    # the expressions every ref_variance and offspring variance is built from
    assert Deterministic().second_moment() == 1.0
    for kappa in (1e-3, 0.3, 1.0, 2.5, 7.0, 100.0):
        assert Gamma(kappa).second_moment() == (kappa + 1) / kappa
    for sigma in (0.1, 0.5, 0.7, 1.0, 2.0):
        assert LogNormal(sigma).second_moment() == math.exp(sigma**2)
    for a, b, p in ((0.5, 1.5, 0.5), (0.2, 3.0, 0.7)):
        mean = p * a + (1 - p) * b  # the law rescales to mean 1
        expected = p * (a / mean) ** 2 + (1 - p) * (b / mean) ** 2
        assert TwoPoint(a, b, p).second_moment() == expected


# ---------------------------------------------------------------------------
# mixing_atoms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", [
    Deterministic(), TwoPoint(), TwoPoint(0.2, 3, 0.7), Gamma(0.5), Gamma(1.0), Gamma(2.5),
], ids=lambda law: law.tag())
def test_mixing_atoms_match_moments(law):
    # E[1] = 1, E[Y] = 1 (mean-1 parameterization) and E[Y^2] = second_moment()
    vals, wts = law.mixing_atoms()
    assert math.fsum(wts) == pytest.approx(1.0, rel=1e-10)
    assert math.fsum(wts * vals) == pytest.approx(1.0, rel=1e-10)
    assert math.fsum(wts * vals**2) == pytest.approx(law.second_moment(), rel=1e-10)


def test_mixing_atoms_unsupported_for_lognormal():
    with pytest.raises(UnsupportedLawError):
        LogNormal(0.5).mixing_atoms()


def test_gamma_mixing_atoms_computed_once_per_law():
    vals, wts = Gamma(2.5).mixing_atoms()
    again = Gamma(2.5).mixing_atoms()
    assert again[0] is vals and again[1] is wts
    assert not vals.flags.writeable and not wts.flags.writeable


@pytest.mark.parametrize("kappa", [0.05, 0.5, 1.0, 2.5, 100.0])
def test_gamma_mixing_atoms_match_scipy(kappa):
    # scipy's generalized Gauss-Laguerre rule is an independent oracle
    vals, wts = Gamma(kappa).mixing_atoms()
    x, w = roots_genlaguerre(160, kappa - 1.0)
    w = w / math.exp(gammaln(kappa))
    np.testing.assert_allclose(vals, x / kappa, rtol=1e-11, atol=0)
    big = w > 1e-10
    np.testing.assert_allclose(wts[big], w[big], rtol=1e-10, atol=0)


def golub_welsch_atoms(kappa, n=160):
    """Oracle: Gauss-Laguerre atoms of Gamma(kappa) from the Jacobi matrix's
    eigenvectors, weights the squared first components (Golub-Welsch)."""
    i = np.arange(n)
    off = np.sqrt(i[1:] * (i[1:] + kappa - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * i + kappa) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    return nodes / kappa, weights / weights.sum()


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5, 100.0])
def test_gamma_mixing_atoms_match_golub_welsch_moments(kappa):
    vals, wts = Gamma(kappa).mixing_atoms()
    ref_vals, ref_wts = golub_welsch_atoms(kappa)
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-11, atol=0)
    for r, exact in ((1, 1.0), (2, 1.0 + 1.0 / kappa)):
        moment = np.dot(wts, vals**r)
        assert moment == pytest.approx(np.dot(ref_wts, ref_vals**r), rel=1e-13, abs=0)
        assert moment == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3])
def test_gamma_mixing_atoms_finite_at_extreme_shapes(kappa):
    # the smallest weights are near 1e-270, so the sums of squares they come
    # from pass the rescaling threshold of 1e200
    vals, wts = Gamma(kappa).mixing_atoms()
    assert np.all(np.isfinite(wts)) and np.all(wts >= 0)
    assert math.fsum(wts) == pytest.approx(1.0, rel=1e-15)
    assert np.dot(wts, vals) == pytest.approx(1.0, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# block_sums over counts and arrays of counts
# ---------------------------------------------------------------------------

SOURCES = [Deterministic(), Gamma(1.0), Gamma(2.5), TwoPoint(), LogNormal(0.5), SpikedSpec(0.2)]


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.tag())
def test_split_sums_take_the_shape_of_the_counts(source):
    # one cut: the beneficial/wildtype split of the transition
    N = 40
    k = np.array([[1, 5, 39], [20, 2, 7]])
    head, tail = source.block_sums((k,), N, make_rng(40))
    assert head.shape == tail.shape == k.shape
    assert np.all(head > 0) and np.all(tail > 0)
    if isinstance(source, Deterministic):
        assert head.tolist() == k.tolist() and tail.tolist() == (N - k).tolist()
    if isinstance(source, SpikedSpec):
        assert np.allclose(head + tail, 1.0, rtol=0, atol=1e-15)
    # a single count gives a single pair
    one = source.block_sums((5,), N, make_rng(40))
    assert len(one) == 2 and np.ndim(one[0]) == np.ndim(one[1]) == 0


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.tag())
def test_block_sums_with_two_cuts(source):
    N = 40
    lo = np.array([[0, 5, 39], [20, 2, 7]])
    hi = np.array([[1, 5, 40], [30, 40, 7]])
    masses = source.block_sums((lo, hi), N, make_rng(42))
    assert len(masses) == 3
    assert all(m.shape == lo.shape for m in masses)
    # an empty block has no mass; the others are positive
    for m, size in zip(masses, (lo, hi - lo, N - hi)):
        assert np.all((m > 0) == (size > 0))
    one = source.block_sums((3, 10), N, make_rng(42))
    assert len(one) == 3 and all(np.ndim(m) == 0 for m in one)
    if isinstance(source, Deterministic):
        assert [m.tolist() for m in masses] == [lo.tolist(), (hi - lo).tolist(), (N - hi).tolist()]


@pytest.mark.parametrize("law", [s for s in SOURCES if not isinstance(s, SpikedSpec)],
                         ids=lambda law: law.tag())
def test_block_sums_draw_the_blocks_in_turn(law):
    # one fused draw is one sample_sum per block on the same stream, first
    # blocks first (exact while a lognormal draw fits in one MAX_DRAW slice)
    N = 40
    lo = np.array([[0, 5, 39], [20, 2, 7]])
    hi = np.array([[1, 5, 40], [30, 40, 7]])
    for cuts, sizes in (((lo, hi), (lo, hi - lo, N - hi)), ((3, 10), (3, 7, 30))):
        for seed in (44, 45):
            fused_rng, rng = make_rng(seed), make_rng(seed)
            fused = law.block_sums(cuts, N, fused_rng)
            apart = [law.sample_sum(size, rng) for size in sizes]
            assert [np.asarray(m).tolist() for m in fused] == [
                np.asarray(m).tolist() for m in apart]
            assert fused_rng.random() == rng.random()


def test_spiked_block_sums_hold_the_spike_in_one_block():
    spec, N, n = SpikedSpec(0.2), 40, 1000
    ws, wo = spec.spike_weight(N), spec.other_weight(N)
    rng = make_rng(43)
    cuts = (rng.integers(0, 21, size=n), rng.integers(20, N + 1, size=n))
    masses = spec.block_sums(cuts, N, rng)
    total = masses[0] + masses[1] + masses[2]
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)
    sizes = (cuts[0], cuts[1] - cuts[0], N - cuts[1])
    # each block holds its size in plain weights, plus the spike's lift in one block
    lifted = np.array([np.isclose(m - size * wo, ws - wo, rtol=1e-12, atol=0)
                       for m, size in zip(masses, sizes)])
    plain = np.array([np.isclose(m, size * wo, rtol=1e-12, atol=1e-15)
                      for m, size in zip(masses, sizes)])
    assert np.all(lifted.sum(axis=0) == 1)
    assert np.all(lifted | plain)
    # the spike never lands in an empty block
    assert not np.any(lifted & (np.array(sizes) == 0))


def test_lognormal_sums_are_sliced_out_of_one_stream(monkeypatch):
    # sums drawn MAX_DRAW at a time equal the segment sums of one flat draw
    law = LogNormal(0.9)
    counts = np.array([0, 3, 10, 1, 0, 20, 7])
    flat = make_rng(41).standard_normal(counts.sum())
    flat = np.exp(law._mu + law.sigma * flat)  # the construction sample_sum draws with
    starts = np.cumsum(counts) - counts
    expected = [flat[a:a + n].sum() for a, n in zip(starts, counts)]
    monkeypatch.setattr(paintbox, "MAX_DRAW", 4)
    sliced = law.sample_sum(counts, make_rng(41))
    assert sliced.shape == counts.shape
    assert sliced == pytest.approx(expected, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# weight moments
# ---------------------------------------------------------------------------


def test_weight_moment_deterministic_exact():
    est = estimate_weight_moment(Deterministic(), 50, 2, 100, make_rng(9))
    assert est.value == pytest.approx(50.0**-2, rel=1e-12)
    assert est.stderr == 0.0


def test_weight_moment_gamma_second():
    # N^2 E[W_1^2] -> rho^2 = 2 with O(1/N) bias; 3 SE band
    N = 1000
    est = estimate_weight_moment(Gamma(1.0), N, 2, 10**5, make_rng(10))
    assert abs(N**2 * est.value - 2.0) <= 3 * N**2 * est.stderr


def test_weight_moment_gamma_third_scale():
    # exact N^3 E[W_1^3] = 6 N^2 / ((N+1)(N+2)) ~ E[Y^3] = 6
    N = 1000
    est = estimate_weight_moment(Gamma(1.0), N, 3, 10**5, make_rng(11))
    assert 5.0 <= N**3 * est.value <= 7.0


def test_weight_moment_one_trial_has_infinite_stderr():
    est = estimate_weight_moment(Gamma(1.0), 1000, 2, 1, make_rng(10))
    assert math.isfinite(est.value)
    assert est.stderr == math.inf


def test_weight_moment_bad_exponent():
    with pytest.raises(ValueError):
        estimate_weight_moment(Gamma(1.0), 100, 4, 10, make_rng(0))


@pytest.mark.parametrize("N", [50, 1000])
@pytest.mark.parametrize("p", [2, 3])
def test_weight_moment_spiked_closed_form(N, p):
    # W_1 is the spike's weight with probability 1/N, else the others' share
    spec = SpikedSpec(0.2)
    exact = (spec.spike_weight(N) ** p + (N - 1) * spec.other_weight(N) ** p) / N
    est = estimate_weight_moment(spec, N, p, 2 * 10**5, make_rng(20 + p))
    assert abs(est.value - exact) <= 4 * est.stderr
    if p == 2:
        scale = N * (N - 1)
        assert abs(scale * est.value - spec.rho_squared(N)) <= 4 * scale * est.stderr


def test_qn_draws_what_the_three_block_draws_drew():
    # one block_sums call takes index 1, the head's rest and the tail, in
    # that order, so Gamma values match one sample and two sample_sum calls
    law, N, s, j0, trials = Gamma(2.5), 1000, 0.05, 100, 5000
    rng = make_rng(24)
    y1 = law.sample(trials, rng)
    mid = law.sample_sum(np.full(trials, j0 - 1), rng)
    tail = law.sample_sum(np.full(trials, N - j0), rng)
    vals = N * y1 / (y1 + mid + tail - s * tail)
    est = law.qn(N, s, j0, trials, make_rng(24))
    assert est.value == vals.mean()
    assert est.stderr == vals.std(ddof=1) / math.sqrt(trials)
    assert not est.exact


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", [Gamma(1.0), TwoPoint(0.5, 1.5, 0.5)])
def test_exchangeability_first_vs_last_weight(law):
    # statistics of W_1 and W_N agree within Monte Carlo error
    rng = make_rng(12)
    N, trials = 50, 2 * 10**5
    y = law.sample(trials * N, rng).reshape(trials, N)
    w = y / y.sum(axis=1, keepdims=True)
    m1, mN = w[:, 0].mean(), w[:, -1].mean()
    se = w[:, 0].std() / math.sqrt(trials) + w[:, -1].std() / math.sqrt(trials)
    assert abs(m1 - mN) <= 3 * se
    s1, sN = (w[:, 0] ** 2).mean(), (w[:, -1] ** 2).mean()
    se2 = (w[:, 0] ** 2).std() / math.sqrt(trials) + (w[:, -1] ** 2).std() / math.sqrt(trials)
    assert abs(s1 - sN) <= 3 * se2


def test_pair_variance_gap_shrinks_with_n():
    # N(N-1) E[W_1^2] approaches rho^2 = 2 monotonically through the N ladder
    rho2 = 2.0
    gaps, ses = [], []
    for i, N in enumerate((100, 1000, 10000)):
        est = estimate_weight_moment(Gamma(1.0), N, 2, 2 * 10**5, make_rng(13 + i))
        scale = N * (N - 1)
        gaps.append(abs(scale * est.value - rho2))
        ses.append(scale * est.stderr)
    assert gaps[1] <= gaps[0] + 3 * (ses[0] + ses[1])
    assert gaps[2] <= gaps[1] + 3 * (ses[1] + ses[2])


def test_moderate_block_tail_frequency_decays():
    # frequency of {sum of first ceil(N^c) weights >= 1.5 N^(c-1)} with c = 1/2
    rng = make_rng(16)
    c, trials = 0.5, 10**5
    freqs = []
    for N in (100, 1000, 10000):
        k = math.ceil(N**c)
        head = rng.standard_gamma(float(k), size=trials)
        rest = rng.standard_gamma(float(N - k), size=trials)
        freq = float(np.mean(head / (head + rest) >= 1.5 * N ** (c - 1.0)))
        freqs.append(freq)
    assert freqs[0] > freqs[1] > freqs[2]
    assert freqs[2] < 0.01


def test_total_sum_relative_error_decays():
    # frequency of {|N / sum(Y) - 1| >= N^-0.4} falls as N grows
    rng = make_rng(17)
    trials = 10**5
    freqs = []
    for N in (100, 1000, 10000):
        total = rng.standard_gamma(float(N), size=trials)
        freqs.append(float(np.mean(np.abs(N / total - 1.0) >= N**-0.4)))
    assert freqs[0] > freqs[1] > freqs[2]


def test_block_weight_sums_match_explicit_paintbox():
    rng = make_rng(18)
    sums = block_weight_sums(Gamma(1.0), 100, (10, 40, 50), rng)
    assert sums.shape == (3,)
    assert math.fsum(sums.tolist()) == pytest.approx(1.0, abs=1e-12)
    sums = block_weight_sums(SpikedSpec(0.2), 100, (10, 90), rng)
    assert math.fsum(sums.tolist()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        block_weight_sums(Gamma(1.0), 100, (10, 10), rng)
    # every block of a three-block split against the same blocks of
    # explicitly built weights, for every random source; two-sample KS at
    # alpha = 0.001 each, on values rounded so that atoms summed in
    # another order still tie
    n, N, sizes = 20000, 12, (3, 4, 5)
    for source in SOURCES[1:]:
        fast = np.array([block_weight_sums(source, N, sizes, rng) for _ in range(n)])
        if isinstance(source, SpikedSpec):
            w = np.array([spiked_weights(N, source, rng) for _ in range(n)])
        else:
            w = np.array([weights_from_y(source.sample(N, rng)) for _ in range(n)])
        explicit = np.add.reduceat(w, [0, 3, 7], axis=1)
        fast, explicit = np.round(fast, 12), np.round(explicit, 12)
        for j in range(3):
            stat = ks_2samp(fast[:, j], explicit[:, j]).statistic
            assert stat <= 1.949 * math.sqrt(2.0 / n), (source.tag(), j, stat)


# ---------------------------------------------------------------------------
# tag round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        Deterministic(),
        TwoPoint(0.2, 3.0, 0.7),
        Gamma(1.0),
        Gamma(2.5),
        TwoPoint(0.5, 1.5, 0.5),
        LogNormal(0.7),
        SpikedSpec(0.2),
    ],
)
def test_parse_source_roundtrip(source):
    assert parse_source(source.tag()) == source


@pytest.mark.parametrize("text, message", [
    ("foo", "unknown paintbox 'foo'"),
    ("foo:1", "unknown paintbox 'foo:1'"),
    ("gamma:x", "could not convert string to float: 'x'"),
    ("spiked", "bad parameters for paintbox 'spiked': "),
    ("gamma:1,2", "bad parameters for paintbox 'gamma:1,2': "),
    ("gamma:-1", "Gamma shape must be > 0, got -1.0"),
    ("deterministic:2", "bad parameters for paintbox 'deterministic:2': "),
])
def test_parse_source_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_source(text)
    assert str(info.value).startswith(message)


def test_parse_source_rejects_unknown():
    with pytest.raises(ValueError):
        parse_source("weird:1")
    with pytest.raises(ValueError):
        parse_source("gamma:1,2,3")
