"""Random reproductive-weight vectors (paintboxes) and their moments.

A paintbox is a random probability vector W = (W_1, ..., W_N) used to
assign parents: child j picks parent i with probability W_i.  Two
families are provided:

* Dirichlet-type weights W_i = Y_i / sum(Y), built from i.i.d. positive
  offspring-potential variables Y.  Supported Y laws: Deterministic
  (recovers Wright-Fisher), Gamma (Dirichlet weights), TwoPoint (cheap
  exact moments) and LogNormal (no exponential moment; admitted for
  exploration and flagged as non-conforming).
* Spiked weights: one uniformly placed index receives weight N**-gamma,
  the rest share the remainder equally.  This is the classic source of
  excess offspring variance that breaks the 2s/rho^2 rule.

All Y laws are normalized to mean 1 internally (weights are invariant
under scaling of Y).

A source may state a certified loss rate (`loss_rate`): a lambda for which
e^(-lambda k) is a supermartingale of the selective chain, so that a trial
at count k is lost with chance at most e^(-lambda k).  Gamma(1) states
-log(1-s) and Deterministic 2s, each by a proof that holds at every N and s;
the spiked source states 2s/rho^2 where `certify` checks it at every count.
"""

from __future__ import annotations

import abc
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Invalid experiment configuration (CLI maps this to exit code 2)."""


class UnsupportedLawError(ConfigurationError):
    """Raised when an operation needs mixing atoms the law lacks."""


_QUAD_NODES = 160
_TINY = 2.0**-969
"""A Gamma block mass at or above this keeps all 53 bits relative to any mass below it."""
MAX_DRAW = 1 << 20
"""Most variates one call draws when a law sums its potentials one by one."""
MAX_N = 2**63 - 1
"""Largest N: counts are int64 in numpy's samplers and in the native block."""
SAFE_EXPONENT = 40.0
"""A trial at count K >= SAFE_EXPONENT / lambda, lambda a source's `loss_rate`, is
lost with chance at most e^-40 = 4.2e-18."""
ROUNDING_ALLOWANCE = 1e-13
"""Relative margin by which a certificate's float check must clear its bound:
hundreds of times the few ulps that computing either side can err by."""
CERTIFY_MAX_N = 10**8
"""Largest N at which `certify` checks a spiked source's rate count by count;
no other source's rate needs the check."""
_CERTIFY_FIRST_CHUNK = 1 << 10
"""Counts in `certify`'s first chunk; each next chunk doubles, up to _CERTIFY_CHUNK.
A failing check mostly fails near N, so it pays for a small array only."""
_CERTIFY_CHUNK = 1 << 18


@dataclass(frozen=True)
class Estimate:
    """A paintbox statistic with its standard error; closed forms are exact."""

    value: float
    stderr: float
    exact: bool = False


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; one value has an infinite one."""
    stderr = vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else math.inf
    return float(vals.mean()), float(stderr)


def safe_level(rate: float) -> int:
    """K = ceil(SAFE_EXPONENT / rate), raised by one where rounding leaves rate K below it,
    so that e^(-rate K) <= e^-SAFE_EXPONENT."""
    level = math.ceil(SAFE_EXPONENT / rate)
    return level if rate * level >= SAFE_EXPONENT else level + 1


def certify(source, rate: float, N: int, s: float) -> float | None:
    """`rate` if E[e^(-rate k') | k] <= e^(-rate k) for every k in 1..N-1, else None.

    Then e^(-rate k) is a supermartingale of the chain, and by optional
    stopping a trial at count k is lost with chance at most e^(-rate k)
    (the exponential-martingale bound on ruin; Feller, vol. 1, ch. XIV).
    The next count k' is a mixture of Bin(N, p), the source's
    `head_tail_mixture`, so the check is on sums of binomial mgfs, in logs,
    in chunks from k = N - 1 down that double from _CERTIFY_FIRST_CHUNK
    counts up to _CERTIFY_CHUNK, and the left side must clear -rate k by
    ROUNDING_ALLOWANCE of it.  There is no search over rate.  Where
    safe_level(rate) >= N (stopping would save nothing) or N > CERTIFY_MAX_N,
    None comes back before any array work.
    """
    if not rate > 0 or safe_level(rate) >= N or N > CERTIFY_MAX_N:
        return None
    down = -math.expm1(-rate)  # 1 - e^-rate
    hi, chunk = N, _CERTIFY_FIRST_CHUNK
    while hi > 1:  # from the top, where margins are thinnest
        k = np.arange(max(hi - chunk, 1), hi, dtype=float)
        terms = [log_w + N * np.log1p(-down * head / (head + (1.0 - s) * tail))
                 for log_w, head, tail in source.head_tail_mixture(k, N)]
        if np.any(reduce(np.logaddexp, terms) > -rate * k * (1 + ROUNDING_ALLOWANCE)):
            return None
        hi, chunk = hi - chunk, min(2 * chunk, _CERTIFY_CHUNK)
    return rate


# ---------------------------------------------------------------------------
# Offspring-potential laws
# ---------------------------------------------------------------------------


class YLaw(abc.ABC):
    """Law of the positive offspring-potential variable Y.

    Subclasses are frozen dataclasses; draws come out in the canonical
    mean-1 parameterization.  ``conforming`` is True when the law has an
    exponential moment (finite MGF on a right neighborhood of 0), the
    condition under which all weight moments behave.
    """

    conforming: bool = True

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. mean-1 draws, all strictly positive."""

    @abc.abstractmethod
    def sample_sum(self, n, rng: np.random.Generator):
        """Sum of n i.i.d. mean-1 draws; closed-form block law where one exists.

        ``n`` is a count or an integer array of counts, one independent sum
        each; a zero count gives 0 and consumes no draw.
        """

    @abc.abstractmethod
    def second_moment(self) -> float:
        """E[Y^2] in the canonical mean-1 parameterization."""

    def rho_squared(self, N: int) -> float:
        """Offspring variance of the 2s/rho^2 reference: the N-free limit E[Y^2]/E[Y]^2."""
        return self.second_moment()

    def mixing_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights) so that E[g(Y)] = sum(w * g(v)) exactly or to quadrature."""
        raise UnsupportedLawError(f"{self.tag()} has no mixing atoms")

    def qn(self, N: int, s: float, j0: int, trials: int, rng: np.random.Generator) -> Estimate:
        """q_N = N E[W_1 / (1 - s * sum(W_i, i > j0))] for 1 <= j0 < N, by Monte Carlo.

        Each of `trials` paintboxes gives the masses of index 1, the rest of
        the head and the tail, from one `block_sums` call."""
        y1, mid, tail = self.block_sums((np.ones(trials, np.int64), np.full(trials, j0)), N, rng)
        return Estimate(*_mean_stderr(N * y1 / (y1 + mid + tail - s * tail)))

    def block_sums(self, cuts: Sequence, N: int, rng: np.random.Generator) -> list:
        """Weight mass of the index blocks [0, c_1), [c_1, c_2), ..., [c_last, N).

        The cuts are nondecreasing counts, or integer arrays of one shape
        with one independent paintbox per entry; the masses come back in
        that shape.  Here they are sums of Y, so the weights' block sums
        are the masses over their total.
        """
        # one draw for every block: all first blocks, then all second
        # blocks, ..., the order of one sample_sum call per block (a
        # lognormal sum split by a MAX_DRAW slice edge may round apart)
        return list(self.sample_sum(_block_sizes(cuts, N), rng))

    def lockstep_law(self, N: int) -> tuple[str, tuple[float, ...]] | None:
        """(name, parameters) of `_lockstep.c`'s closed form of `block_sums((k,), N, rng)`;
        None keeps every generation on numpy's path."""
        return None

    def loss_rate(self, N: int, s: float) -> float | None:
        """A lambda > 0 with E[e^(-lambda k') | k] <= e^(-lambda k) for every k in
        1..N-1, k' the next count of the chain at selection s, or None.

        A trial at count k is then lost with chance at most e^(-lambda k).
        None here: a law with no exact mgf of the next count to check states
        no rate.
        """
        return None

    def entry_classes(self, k: np.ndarray, m: np.ndarray, N: int, rng: np.random.Generator):
        """(trials, entry, head, tail) of the classes of one law that lockstep entries,
        m[i] trials at count k[i], split into: each class's trials, entry index
        and head and tail masses.  Here every trial is its own class, with its
        own paintbox from one `block_sums` call."""
        entry = np.repeat(np.arange(k.size), m)
        head, tail = self.block_sums((k[entry],), N, rng)
        return np.ones(entry.size, dtype=np.int64), entry, head, tail

    @abc.abstractmethod
    def tag(self) -> str:
        """Compact `name:params` identifier used in CLI records."""


def _block_sizes(cuts: Sequence, N: int) -> np.ndarray:
    """Sizes of the blocks between cuts, stacked: all first blocks, then all second, ..."""
    edges = (*cuts, N)
    sizes = np.empty((len(edges), *np.shape(edges[0])), dtype=np.int64)
    sizes[0, ...] = edges[0]
    for i, (lo, hi) in enumerate(pairwise(edges), 1):
        np.subtract(hi, lo, out=sizes[i, ...])
    return sizes


@dataclass(frozen=True)
class Deterministic(YLaw):
    """Point mass: every individual has the same potential (Wright-Fisher)."""

    def sample(self, n, rng):
        return np.ones(n)

    def sample_sum(self, n, rng):
        return n * 1.0

    def second_moment(self):
        return 1.0

    def mixing_atoms(self):
        return np.array([1.0]), np.array([1.0])

    def qn(self, N, s, j0, trials, rng):
        # every weight is 1/N
        return Estimate(1.0 / (1.0 - s * (N - j0) / N), 0.0, True)

    def lockstep_law(self, N):
        return "deterministic", ()

    def loss_rate(self, N, s):
        """2s / rho^2 = 2s at every N and every s > 0, with no check; None at s = 0.

        With x = k/N and a = 1 - e^(-2s), k' ~ Bin(N, p), p = x / (1 - s + s x),
        so log E[e^(-2s k') | k] + 2s k = N log(1 - a p) + 2s k = N g(x) for
        g(x) = log(1 - s + (s - a) x) - log(1 - s + s x) + 2s x, free of N.
        g(0) = g(1) = 0, and g is convex on [0, 1] because a <= 2s / (1 + s),
        which is s <= artanh(s).  So g <= 0 at every count.
        """
        return 2.0 * s if s > 0 else None

    def entry_classes(self, k, m, N, rng):
        # every trial at one count has one law and its masses take no draw
        head, tail = self.block_sums((k,), N, rng)
        return m, np.arange(k.size), head, tail

    def tag(self):
        return "deterministic"


@dataclass(frozen=True)
class Gamma(YLaw):
    """Gamma(kappa) potential with unit scale; weights are Dirichlet(kappa,...,kappa)."""

    kappa: float = 1.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ConfigurationError(f"Gamma shape must be > 0, got {self.kappa}")
        if self.kappa == math.inf:
            raise ConfigurationError("Gamma shape must be finite, got inf")
        if not math.isfinite(self.second_moment()):  # a subnormal shape
            raise ConfigurationError(f"Gamma shape {self.kappa} gives E[Y^2] = inf")

    def sample(self, n, rng):
        return rng.standard_gamma(self.kappa, size=n) / self.kappa

    def sample_sum(self, n, rng):
        # Gamma additivity: sum of n iid Gamma(kappa, 1/kappa) is Gamma(n*kappa, 1/kappa).
        x = rng.standard_gamma(n * self.kappa)
        x /= self.kappa
        return x

    def block_sums(self, cuts, N, rng):
        """Block masses as for any Y law, with an exact split at tiny shapes.

        Only a paintbox whose unit-scale Gamma draws all fall below _TINY
        loses bits (or gives 0/0), and that takes every block shape below
        1.  Such a paintbox is redrawn from its conditional law: below
        _TINY a Gamma(a) density is a pure power law, so each draw is
        _TINY * U**(1/a) with a fresh uniform U, and the paintbox comes
        back as its weights, normalized in log space.
        """
        sizes = _block_sizes(cuts, N)
        x = self.sample_sum(sizes, rng)
        if N * self.kappa < len(sizes):  # else some block has shape >= 1
            flat = x.reshape(len(sizes), -1)  # a view: one column per paintbox
            tiny = np.all(flat < _TINY / self.kappa, axis=0)
            if tiny.any():
                shape = sizes.reshape(flat.shape)[:, tiny] * self.kappa
                log_u = np.log1p(-rng.random(shape.shape))  # log U, U uniform on (0, 1]
                log_m = np.divide(log_u, shape, out=np.full_like(log_u, -np.inf),
                                  where=shape > 0)  # an empty block has no mass
                m = np.exp(log_m - log_m.max(axis=0))
                flat[:, tiny] = m / m.sum(axis=0)
        return list(x)

    def lockstep_law(self, N):
        # a head and a tail take the redraw above only when N kappa < 2
        return ("gamma", (self.kappa,)) if N * self.kappa >= 2 else None

    def loss_rate(self, N, s):
        """-log(1-s) at kappa = 1, where (1-s)^k is a martingale of the Dirichlet(1)
        chain, so the bound needs no check; None at every other shape."""
        return -math.log1p(-s) if self.kappa == 1.0 and s > 0 else None

    def second_moment(self):
        return (self.kappa + 1.0) / self.kappa

    def mixing_atoms(self):
        return _gamma_atoms(self.kappa)

    def tag(self):
        return f"gamma:{self.kappa:g}"


@cache
def _gamma_atoms(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre atoms of the mean-1 Gamma(kappa) law, built once per shape.

    The nodes of generalized Laguerre quadrature with alpha = kappa - 1
    are the eigenvalues of the Jacobi matrix of its three-term
    recurrence (Golub-Welsch).  The weight of node x is the weight
    function's total mass over sum_{k<n} p_k(x)^2, the p_k orthonormal
    and run up by that recurrence, rescaled as the sum grows and, at a
    tiny shape, before p_1 ~ 1/sqrt(kappa) is squared; this skips
    the dense eigenvector solve, which costs more than the eigenvalues
    and, on two OpenBLAS threads with the other core busy, up to 100
    times more.  Normalizing the weights to sum 1 stands in for the
    mass, Gamma(kappa), which overflows past kappa ~ 171.  Below kappa
    ~ 3.4e-306 the atoms x / kappa leave the float range: a
    ConfigurationError.
    """
    i = np.arange(_QUAD_NODES)
    diag = 2.0 * i + kappa
    off = np.sqrt(i[1:] * ((i[1:] - 1.0) + kappa))  # i + kappa - 1 loses a tiny kappa
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    if math.isinf(float(nodes[-1]) / kappa):  # the largest node, about 608
        raise ConfigurationError(f"Gamma shape {kappa} puts quadrature atoms past the float range")
    # p_{k+1} = (x - diag_k) / off_k * p_k - off_{k-1} / off_k * p_{k-1}
    ahead = (nodes - diag[:-1, None]) / off[:, None]
    back = np.concatenate(([0.0], off[:-1] / off[1:]))
    prev, cur = np.zeros_like(nodes), np.ones_like(nodes)
    total, log_scale = np.ones_like(nodes), np.zeros_like(nodes)
    for k in range(_QUAD_NODES - 1):
        prev, cur = cur, ahead[k] * cur - back[k] * prev
        if np.abs(cur).max() > 1e150:
            norm = np.maximum(np.abs(cur), 1.0)  # so that cur * cur stays finite
            prev /= norm
            cur /= norm
            total /= norm
            total /= norm
            log_scale += 2.0 * np.log(norm)
        total += cur * cur
        if total.max() > 1e200:  # rescale long before cur * cur can overflow
            scale = np.sqrt(total)
            prev /= scale
            cur /= scale
            log_scale += np.log(total)
            total[:] = 1.0
    log_sum = log_scale + np.log(total)
    weights = np.exp(log_sum.min() - log_sum)
    atoms = nodes / kappa, weights / weights.sum()
    for a in atoms:
        a.flags.writeable = False  # one pair is shared by every Gamma(kappa)
    return atoms


@dataclass(frozen=True)
class TwoPoint(YLaw):
    """Y = a with probability p, else b (after mean-1 rescaling)."""

    a: float = 0.5
    b: float = 1.5
    p: float = 0.5

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ConfigurationError(
                f"TwoPoint values must be finite and > 0, got a={self.a}, b={self.b}")
        if not 0 < self.p < 1:
            raise ConfigurationError(f"TwoPoint probability must be in (0,1), got {self.p}")

    @cached_property
    def _ab(self) -> tuple[float, float]:
        m = self.p * self.a + (1 - self.p) * self.b
        return self.a / m, self.b / m

    def sample(self, n, rng):
        a, b = self._ab
        return np.where(rng.random(n) < self.p, a, b)

    def sample_sum(self, n, rng):
        a, b = self._ab
        j = rng.binomial(n, self.p)
        return j * a + (n - j) * b

    def second_moment(self):
        a, b = self._ab
        return self.p * a * a + (1 - self.p) * b * b

    def mixing_atoms(self):
        return np.array(self._ab), np.array([self.p, 1.0 - self.p])

    def lockstep_law(self, N):
        return "two-point", (*self._ab, self.p)

    def tag(self):
        return f"two-point:{self.a:g},{self.b:g},{self.p:g}"


@dataclass(frozen=True)
class LogNormal(YLaw):
    """Lognormal potential; has all moments but no MGF, so it sits outside
    the conforming class.  Kept for robustness exploration only."""

    sigma: float = 1.0

    conforming = False

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigurationError(f"LogNormal sigma must be > 0, got {self.sigma}")
        if not self.sigma**2 < math.log(sys.float_info.max):
            raise ConfigurationError(
                f"LogNormal sigma={self.sigma:g} overflows E[Y^2] = exp(sigma^2)")

    @property
    def _mu(self) -> float:
        # mean-1 location
        return -0.5 * self.sigma**2

    def sample(self, n, rng):
        # exp(mu + sigma z) in place: the law of rng.lognormal, drawn faster
        z = rng.standard_normal(n)
        z *= self.sigma
        z += self._mu
        return np.exp(z, out=z)

    def sample_sum(self, n, rng):
        # no closed-form block law: sum the draws, MAX_DRAW at a time
        sums = _segment_sums(np.ravel(n), lambda m: self.sample(m, rng))
        return float(sums[0]) if np.ndim(n) == 0 else sums.reshape(np.shape(n))

    def second_moment(self):
        return math.exp(self.sigma**2)

    def tag(self):
        return f"lognormal:{self.sigma:g}"


def _segment_sums(counts: np.ndarray, draw) -> np.ndarray:
    """Sums of consecutive segments, `counts` long each, of one flat stream.

    `draw(m)` returns the next m variates of the stream; it is called on
    pieces of at most MAX_DRAW variates, so memory stays bounded however
    large the counts are.
    """
    if counts.min(initial=0) < 0:
        raise ValueError(f"counts must be >= 0, got {counts.min()}")
    sums = np.zeros(counts.size)
    nonzero = np.flatnonzero(counts)
    ends = np.cumsum(counts[nonzero])
    starts = ends - counts[nonzero]
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, MAX_DRAW):
        hi = min(lo + MAX_DRAW, total)
        # segments overlapping [lo, hi), each summed from its first draw in it
        first = np.searchsorted(ends, lo, side="right")
        last = np.searchsorted(starts, hi, side="left")
        offsets = np.maximum(starts[first:last], lo) - lo
        sums[nonzero[first:last]] += np.add.reduceat(draw(hi - lo), offsets)
    return sums


@dataclass(frozen=True)
class SpikedSpec:
    """One uniformly chosen index gets weight N**-gamma; the rest split evenly."""

    gamma: float

    conforming = False

    def __post_init__(self):
        if not 0 < self.gamma < 0.5:
            raise ConfigurationError(f"spike exponent must be in (0, 1/2), got {self.gamma}")

    def spike_weight(self, N: int) -> float:
        return N ** (-self.gamma)

    def other_weight(self, N: int) -> float:
        if N < 2:  # one index leaves no other to share the spike's remainder
            raise ConfigurationError(f"the spiked paintbox needs N >= 2, got {N}")
        return (1.0 - self.spike_weight(N)) / (N - 1)

    def rho_squared(self, N: int) -> float:
        """Exact neutral offspring variance N(N-1)E[W_1^2]; there is no N-free limit.

        The spike lands on a given index with probability 1/N.
        """
        ws = self.spike_weight(N)
        wo = self.other_weight(N)
        return N * (N - 1) * (ws**2 / N + (1.0 - 1.0 / N) * wo**2)

    def qn(self, N: int, s: float, j0: int, trials: int, rng: np.random.Generator) -> Estimate:
        """q_N in closed form: the spike at index 1, elsewhere in the head, or in the tail."""
        ws, wo = self.spike_weight(N), self.other_weight(N)
        tail_plain = (N - j0) * wo
        tail_spiked = (N - j0 - 1) * wo + ws
        val = (
            ws / (1.0 - s * tail_plain) / N
            + (j0 - 1) / N * wo / (1.0 - s * tail_plain)
            + (N - j0) / N * wo / (1.0 - s * tail_spiked)
        )
        return Estimate(N * val, 0.0, True)

    def block_sums(self, cuts: Sequence, N: int, rng: np.random.Generator) -> list:
        """Weight mass of the index blocks [0, c_1), ..., [c_last, N), as for Y laws.

        One uniform spike index is drawn per paintbox; the mass of [0, c)
        is c * other_weight, lifted to the spike's weight when the index
        lies below c.  The masses sum to 1 up to rounding.
        """
        # size None for scalar cuts: same draw as a 0-d one, a third of the cost
        pos = rng.integers(N, size=np.shape(cuts[0] if cuts else 0) or None)
        wo, lift = self.lockstep_law(N)[1]
        edges = (*(c * wo + (pos < c) * lift for c in cuts), 1.0)
        masses = [edges[0]]
        for lo, hi in pairwise(edges):
            masses.append(hi - lo)
        return masses

    def lockstep_law(self, N: int) -> tuple[str, tuple[float, float]]:
        """("spiked", (weight of every other index, the spike's lift above it)), for N >= 2."""
        wo = self.other_weight(N)
        return "spiked", (wo, self.spike_weight(N) - wo)

    def loss_rate(self, N: int, s: float) -> float | None:
        """`YLaw.loss_rate`: 2s / rho^2, where `certify` checks it at every count.

        Where K < N the check mostly fails: a spike among the few wildtype near
        N lifts their count more than 2s / rho^2 allows, at counts from about
        0.8 N up.  It passes at strong selection: in a scan of N 50 to 1e6, 86 of
        899 cases with K < N passed, each with s >= 0.57."""
        return certify(self, 2.0 * s / self.rho_squared(N), N, s)

    def head_tail_mixture(self, k: np.ndarray, N: int) -> list:
        """[(log chance, head mass, tail mass)] of the paintbox at counts k: the spike
        outside the head, then inside (chance k / N), each mass summed from its
        side's own weights."""
        wo, lift = self.lockstep_law(N)[1]
        return [(np.log1p(-k / N), k * wo, (N - k) * wo + lift),
                (np.log(k / N), k * wo + lift, (N - k) * wo)]

    def entry_classes(self, k: np.ndarray, m: np.ndarray, N: int, rng: np.random.Generator):
        """`YLaw.entry_classes`: each entry's trials with the spike outside its head,
        then inside.  Entry by entry, an entry of one trial draws its spike index
        as `block_sums` does, and an entry of m > 1 trials draws how many of them
        have it inside, Bin(m, k / N); a run of one-trial entries draws in one call."""
        inside = np.empty(k.size, dtype=np.int64)
        start = 0
        for w in [*np.flatnonzero(m > 1).tolist(), k.size]:
            if start < w:
                inside[start:w] = rng.integers(N, size=w - start) < k[start:w]
            if w < k.size:
                inside[w] = rng.binomial(m[w], k[w] / N)
            start = w + 1
        n = np.column_stack((m - inside, inside)).ravel()
        has = n > 0
        entry = np.repeat(np.arange(k.size), 2)[has]
        wo, lift = self.lockstep_law(N)[1]
        head = k[entry] * wo + np.tile((False, True), k.size)[has] * lift
        return n[has], entry, head, 1.0 - head

    def tag(self) -> str:
        return f"spiked:{self.gamma:g}"


PaintboxSource = YLaw | SpikedSpec


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------


def sample_y(law: YLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws of the offspring potential (mean-1 parameterization)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return law.sample(n, rng)


def weights_from_y(y: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalize positive potentials into weights: W_i = y_i / sum(y)."""
    arr = np.asarray(y, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty vector")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("all potentials must be finite and strictly positive")
    return arr / math.fsum(arr.tolist())


def spiked_weights(N: int, spec: SpikedSpec, rng: np.random.Generator) -> np.ndarray:
    """Spiked paintbox draw: the heavy index is uniform on 0..N-1."""
    w = np.full(N, spec.other_weight(N))
    w[rng.integers(N)] = spec.spike_weight(N)
    return w


def block_weight_sums(
    source: PaintboxSource,
    N: int,
    sizes: Sequence[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Sums of a fresh paintbox over consecutive index blocks of the given sizes.

    Only block sums of the weights enter the frequency-process transition
    law, and every source's ``block_sums`` draws them exactly without
    materializing N weights: block sums of Y are closed-form for
    Dirichlet-type sources (Gamma additivity, binomial counts, point
    masses), and the spike lands in a block with probability size/N.
    The result is distributed as the block sums of
    ``spiked_weights``/``weights_from_y`` output; sizes must be
    nonnegative and sum to N.
    """
    sizes = list(sizes)
    if any(n < 0 for n in sizes) or sum(sizes) != N:
        raise ValueError(f"block sizes {sizes} must be >= 0 and sum to N={N}")
    sums = np.array(source.block_sums(tuple(accumulate(sizes[:-1])), N, rng))
    return sums / sums.sum()


# ---------------------------------------------------------------------------
# Monte Carlo weight moments
# ---------------------------------------------------------------------------


def estimate_weight_moment(
    source: PaintboxSource,
    N: int,
    p: int,
    trials: int,
    rng: np.random.Generator,
) -> Estimate:
    """Unbiased estimate of the p-th moment of a single weight.

    One paintbox is drawn per trial and only W_1 is used (the estimator
    the moment asymptotics are stated for); W_1 is the mass of index 1
    over the total, both from one `block_sums` call.
    """
    if N < 1:
        raise ConfigurationError(f"need N >= 1, got {N}")
    if N > MAX_N:
        raise ConfigurationError(f"need N <= 2**63 - 1, got {N}")
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    if p not in (2, 3):
        raise ValueError(f"supported exponents are 2 and 3, got {p}")
    y1, rest = source.block_sums((np.ones(trials, np.int64),), N, rng)
    return Estimate(*_mean_stderr((y1 / (y1 + rest)) ** p))


_SOURCES = {"deterministic": Deterministic, "gamma": Gamma, "two-point": TwoPoint,
            "lognormal": LogNormal, "spiked": SpikedSpec}


def parse_source(text: str) -> PaintboxSource:
    """Parse a `name:params` tag (as emitted by .tag()) into a source."""
    name, _, params = text.partition(":")
    try:
        args = [float(x) for x in params.split(",")] if params else []
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    if name not in _SOURCES:
        raise ConfigurationError(f"unknown paintbox {text!r}")
    try:
        return _SOURCES[name](*args)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for paintbox {text!r}: {exc}") from None
