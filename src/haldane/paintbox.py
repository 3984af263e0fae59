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
"""

from __future__ import annotations

import abc
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Invalid experiment configuration (CLI maps this to exit code 2)."""


class UnsupportedLawError(ConfigurationError):
    """Raised when an operation needs mixing atoms the law lacks."""


_QUAD_NODES = 160
MAX_DRAW = 1 << 20
"""Most variates one call draws when a law sums its potentials one by one."""


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
        edges = (*cuts, N)
        # one draw for every block: all first blocks, then all second
        # blocks, ..., the order of one sample_sum call per block (a
        # lognormal sum split by a MAX_DRAW slice edge may round apart)
        sizes = np.empty((len(edges), *np.shape(edges[0])), dtype=np.int64)
        sizes[0, ...] = edges[0]
        for i, (lo, hi) in enumerate(pairwise(edges), 1):
            np.subtract(hi, lo, out=sizes[i, ...])
        return list(self.sample_sum(sizes, rng))

    @abc.abstractmethod
    def tag(self) -> str:
        """Compact `name:params` identifier used in CLI records."""


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

    def sample(self, n, rng):
        return rng.standard_gamma(self.kappa, size=n) / self.kappa

    def sample_sum(self, n, rng):
        # Gamma additivity: sum of n iid Gamma(kappa, 1/kappa) is Gamma(n*kappa, 1/kappa).
        x = rng.standard_gamma(n * self.kappa)
        x /= self.kappa
        return x

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
    and run up by that recurrence, rescaled as the sum grows; this skips
    the dense eigenvector solve, which costs more than the eigenvalues
    and, on two OpenBLAS threads with the other core busy, up to 100
    times more.  Normalizing the weights to sum 1 stands in for the
    mass, Gamma(kappa), which overflows past kappa ~ 171.
    """
    i = np.arange(_QUAD_NODES)
    diag = 2.0 * i + kappa
    off = np.sqrt(i[1:] * ((i[1:] - 1.0) + kappa))  # i + kappa - 1 loses a tiny kappa
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # p_{k+1} = (x - diag_k) / off_k * p_k - off_{k-1} / off_k * p_{k-1}
    ahead = (nodes - diag[:-1, None]) / off[:, None]
    back = np.concatenate(([0.0], off[:-1] / off[1:]))
    prev, cur = np.zeros_like(nodes), np.ones_like(nodes)
    total, log_scale = np.ones_like(nodes), np.zeros_like(nodes)
    for k in range(_QUAD_NODES - 1):
        prev, cur = cur, ahead[k] * cur - back[k] * prev
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
        return self.p * a**2 + (1 - self.p) * b**2

    def mixing_atoms(self):
        return np.array(self._ab), np.array([self.p, 1.0 - self.p])

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
        wo = self.other_weight(N)
        lift = self.spike_weight(N) - wo
        # size None for scalar cuts: same draw as a 0-d one, a third of the cost
        pos = rng.integers(N, size=np.shape(cuts[0] if cuts else 0) or None)
        below = [pos < c for c in cuts]
        # freed before the float masses are built, which halves the cost
        # of a call at 16,384 paintboxes
        del pos
        edges = (*(c * wo + spiked * lift for c, spiked in zip(cuts, below)), 1.0)
        masses = [edges[0]]
        for lo, hi in pairwise(edges):
            masses.append(hi - lo)
        return masses

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
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
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
    if isinstance(source, SpikedSpec) and N < 2:
        raise ConfigurationError(f"the spiked paintbox needs N >= 2, got {N}")
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
