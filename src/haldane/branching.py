"""Galton-Watson machinery: bounding offspring laws, exact extinction
probabilities, survival-conditioned transforms and hitting statistics.

The offspring laws mirror the two bounds used to sandwich the frequency
process while the beneficial count is small -- mixed Poisson above,
mixed binomial below -- plus the immortal two-point law, a binary law
and a plain Poisson for calibration.  Survival probabilities come from
the smallest fixed point of the offspring PGF, found by monotone
iteration from 0; a bisection route exists in the tests as the
independent oracle.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .paintbox import YLaw


class GWModel(abc.ABC):
    """Offspring law of a Galton-Watson process."""

    @abc.abstractmethod
    def mean(self) -> float: ...

    @abc.abstractmethod
    def variance(self) -> float:
        """Exact offspring variance."""

    @abc.abstractmethod
    def pgf(self, q: float) -> float:
        """E[q^offspring]; UnsupportedLawError when no closed/quadrature form."""

    @abc.abstractmethod
    def sample_total(self, z: int, rng: np.random.Generator) -> int:
        """Sum of z independent offspring counts."""

    @abc.abstractmethod
    def tag(self) -> str: ...


@dataclass(frozen=True)
class MixedPoisson(GWModel):
    """Offspring Pois(Y * m): the per-line upper bound on the early phase."""

    law: YLaw
    m: float

    def mean(self):
        return self.m

    def variance(self):
        # law of total variance over the mixing potential
        return self.m**2 * (self.law.raw_moment(2) - 1.0) + self.m

    def pgf(self, q):
        return float(self.law.mgf(self.m * (q - 1.0)))

    def sample_total(self, z, rng):
        if z == 0:
            return 0
        return int(rng.poisson(self.m * self.law.sample_sum(z, rng)))

    def tag(self):
        return f"mixed-poisson({self.law.tag()},m={self.m:g})"


@dataclass
class MixedBinomial(GWModel):
    """Offspring Bin(M, Y*m/N): the per-line lower bound on the early phase.

    Success probabilities above 1 (huge Y at small N) are clamped and
    counted in `clamp_count`; at the intended parameters the event has
    vanishing probability.  Analytic mean/variance ignore the clamp.
    """

    law: YLaw
    M: int
    m: float
    N: int
    clamp_count: int = field(default=0, compare=False, repr=False)

    def mean(self):
        return self.M * self.m / self.N

    def variance(self):
        r = self.m / self.N
        ey2 = self.law.raw_moment(2)
        return self.M * r - self.M * r**2 * ey2 + self.M**2 * r**2 * (ey2 - 1.0)

    def pgf(self, q):
        vals, wts = self.law.mixing_atoms()
        p = np.minimum(vals * self.m / self.N, 1.0)
        with np.errstate(divide="ignore"):
            log_terms = self.M * np.log1p(-p * (1.0 - q))
        return float(np.dot(wts, np.exp(log_terms)))

    def sample_total(self, z, rng):
        if z == 0:
            return 0
        p = self.law.sample(z, rng) * (self.m / self.N)
        over = int((p > 1.0).sum())
        if over:
            self.clamp_count += over
            p = np.minimum(p, 1.0)
        return int(rng.binomial(self.M, p).sum())

    def tag(self):
        return f"mixed-binomial({self.law.tag()},M={self.M},m={self.m:g},N={self.N})"


@dataclass(frozen=True)
class TwoPointImmortal(GWModel):
    """Offspring 1 or 2: the immortal skeleton's lower envelope."""

    beta_s: float

    def __post_init__(self):
        if not 0.0 <= self.beta_s <= 1.0:
            raise ValueError(f"branching probability must be in [0,1], got {self.beta_s}")

    def mean(self):
        return 1.0 + self.beta_s

    def variance(self):
        return self.beta_s * (1.0 - self.beta_s)

    def pgf(self, q):
        return (1.0 - self.beta_s) * q + self.beta_s * q * q

    def sample_total(self, z, rng):
        if z == 0:
            return 0
        return z + int(rng.binomial(z, self.beta_s))

    def tag(self):
        return f"two-point-immortal(beta_s={self.beta_s:g})"


@dataclass(frozen=True)
class Binary(GWModel):
    """Offspring 0 or 2."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"branching probability must be in [0,1], got {self.p}")

    def mean(self):
        return 2.0 * self.p

    def variance(self):
        return 4.0 * self.p * (1.0 - self.p)

    def pgf(self, q):
        return (1.0 - self.p) + self.p * q * q

    def sample_total(self, z, rng):
        if z == 0:
            return 0
        return 2 * int(rng.binomial(z, self.p))

    def tag(self):
        return f"binary(p={self.p:g})"


@dataclass(frozen=True)
class PlainPoisson(GWModel):
    """Offspring Pois(m)."""

    m: float

    def mean(self):
        return self.m

    def variance(self):
        return self.m

    def pgf(self, q):
        return math.exp(self.m * (q - 1.0))

    def sample_total(self, z, rng):
        if z == 0:
            return 0
        return int(rng.poisson(self.m * z))

    def tag(self):
        return f"plain-poisson(m={self.m:g})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def gw_step(model: GWModel, z: int, rng: np.random.Generator) -> int:
    """One generation from z individuals; 0 is absorbing."""
    if z < 0:
        raise ValueError(f"population must be >= 0, got {z}")
    return model.sample_total(z, rng)


@dataclass(frozen=True)
class SurvivalResult:
    phi: float
    iterations: int
    residual: float


def extinction_q(
    model: GWModel,
    tol: float = 1e-12,
    max_iter: int = 10**6,
) -> SurvivalResult:
    """Survival probability 1 - q, q the smallest root of q = f(q) in [0,1].

    Monotone fixed-point iteration from 0 converges to the smallest root;
    when the offspring mean is <= 1 that root is exactly 1 (so phi = 0 is
    returned outright, sidestepping the critical case's O(1/n) crawl).
    Non-convergence within `max_iter` shows up as residual > tol.
    """
    probe = model.pgf(1.0)  # raises UnsupportedLawError for MGF-less mixing laws
    if abs(probe - 1.0) > 1e-9:
        raise ValueError(f"offspring pgf evaluates to {probe} at 1, not 1")
    if model.mean() <= 1.0:
        return SurvivalResult(0.0, 0, 0.0)
    q = 0.0
    iterations = 0
    while iterations < max_iter:
        q_next = model.pgf(q)
        iterations += 1
        if abs(q_next - q) <= tol:
            q = q_next
            break
        q = q_next
    residual = abs(model.pgf(q) - q)
    return SurvivalResult(1.0 - q, iterations, residual)


def haldane_ref(s: float, sigma2: float) -> float:
    """Reference survival probability 2s/sigma^2, clamped into [0,1]."""
    if s < 0:
        raise ValueError(f"selection must be >= 0, got {s}")
    if not sigma2 > 0:
        raise ValueError(f"variance must be > 0, got {sigma2}")
    return min(1.0, max(0.0, 2.0 * s / sigma2))


def conditioned_pmf(
    base: Mapping[int, float] | Sequence[float],
    phi: float,
    k: int,
) -> float:
    """Offspring pmf of the immortal skeleton at k, from a finite-support base.

    P(Z* = k) = (1/phi) * sum_j base(j) * C(j,k) phi^k (1-phi)^(j-k).
    """
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"survival probability must be in (0,1], got {phi}")
    if k < 1:
        raise ValueError(f"skeleton offspring count must be >= 1, got {k}")
    if isinstance(base, Mapping):
        items = list(base.items())
    else:
        items = list(enumerate(base))
    total = math.fsum(p for _, p in items)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"base pmf sums to {total}, not 1")
    acc = 0.0
    for j, pj in items:
        if j >= k and pj > 0.0:
            acc += pj * math.comb(j, k) * phi**k * (1.0 - phi) ** (j - k)
    return acc / phi


@dataclass(frozen=True)
class HittingStats:
    """First-exit classification of trials started from a single individual."""

    trials: int
    reached_upper: float
    hit_zero: float
    still_inside: float
    counts: tuple[int, int, int]


def gw_hitting_stats(
    model: GWModel,
    upper: int,
    horizon: int,
    trials: int,
    rng: np.random.Generator,
) -> HittingStats:
    """Classify trajectories from 1 by first exit from {1, ..., upper-1}."""
    if upper < 2:
        raise ValueError(f"need upper >= 2, got {upper}")
    if horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    n_up = n_zero = n_in = 0
    for _ in range(trials):
        z = 1
        for _ in range(horizon):
            z = model.sample_total(z, rng)
            if z == 0 or z >= upper:
                break
        if z == 0:
            n_zero += 1
        elif z >= upper:
            n_up += 1
        else:
            n_in += 1
    return HittingStats(
        trials,
        n_up / trials,
        n_zero / trials,
        n_in / trials,
        (n_up, n_zero, n_in),
    )
