"""Galton-Watson machinery: bounding offspring laws, exact extinction
probabilities and survival-conditioned transforms.

The offspring laws mirror the two bounds used to sandwich the frequency
process while the beneficial count is small -- mixed Poisson above,
mixed binomial below -- plus the immortal two-point law, a binary law
and a plain Poisson for calibration.  Survival probabilities are the
largest root of the survival map S(phi) = 1 - f(1 - phi), f the
offspring PGF.  Each law writes S without cancellation near phi = 0, so
Newton's method from Haldane's 2(mean - 1)/variance (or from phi = 1)
brackets the root to an absolute width even at offspring means of
1 + 1e-4; bisection routes on the PGF exist in the tests as the
independent oracle.
"""

from __future__ import annotations

import abc
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .paintbox import ConfigurationError, YLaw


class GWModel(abc.ABC):
    """Offspring law of a Galton-Watson process."""

    @abc.abstractmethod
    def mean(self) -> float: ...

    @abc.abstractmethod
    def variance(self) -> float:
        """Exact offspring variance."""

    @abc.abstractmethod
    def pgf(self, q: float) -> float:
        """E[q^offspring]; UnsupportedLawError when the mixing law has no atoms."""

    @abc.abstractmethod
    def survival_map(self, phi: float) -> tuple[float, float]:
        """(S(phi), S'(phi)) for S(phi) = 1 - pgf(1 - phi), so S' = pgf'(1 - phi)."""

    @abc.abstractmethod
    def sample_total(self, z: int, rng: np.random.Generator) -> int:
        """Sum of z independent offspring counts; z = 0 gives 0 and draws nothing."""


def _check_mean_factor(m: float) -> None:
    if not 0.0 <= m < math.inf:
        raise ConfigurationError(f"mean factor must be finite and >= 0, got {m}")


def _scaled_atoms(law: YLaw, m: float) -> tuple[np.ndarray, np.ndarray]:
    """(m * values, weights) of the law's mixing atoms; ConfigurationError where a
    product leaves the float range (a huge m, or a tiny Gamma shape's atoms)."""
    vals, wts = law.mixing_atoms()
    if math.isinf(m * float(vals.max())):  # a Python float overflows without a warning
        raise ConfigurationError(f"mean factor {m} times an atom of {law.tag()} overflows")
    return m * vals, wts


@dataclass(frozen=True)
class MixedPoisson(GWModel):
    """Offspring Pois(Y * m): the per-line upper bound on the early phase."""

    law: YLaw
    m: float

    def __post_init__(self):
        _check_mean_factor(self.m)

    def mean(self):
        return self.m

    def variance(self):
        # law of total variance over the mixing potential
        return self.m * self.m * (self.law.second_moment() - 1.0) + self.m

    @cached_property
    def _atoms(self) -> tuple[np.ndarray, np.ndarray]:
        # (Poisson rates m*v, weights), fixed for the model's life
        return _scaled_atoms(self.law, self.m)

    def pgf(self, q):
        rate, wts = self._atoms
        return float(np.dot(wts, np.exp(rate * (q - 1.0))))

    def survival_map(self, phi):
        rate, wts = self._atoms
        miss = np.expm1(rate * -phi)
        # exp(-rate * phi) = miss + 1, so one pass over the atoms gives both
        slope = (miss + 1.0) * rate
        return -float(np.dot(wts, miss)), float(np.dot(wts, slope))

    def sample_total(self, z, rng):
        return int(rng.poisson(self.m * self.law.sample_sum(z, rng)))


@dataclass(frozen=True)
class MixedBinomial(GWModel):
    """Offspring Bin(M, Y*m/N): the per-line lower bound on the early phase.

    The success probability Y*m/N is clamped at 1 (huge Y at small N); at
    the intended parameters that has vanishing probability.  Analytic
    mean/variance ignore the clamp.
    """

    law: YLaw
    M: int
    m: float
    N: int

    def __post_init__(self):
        _check_mean_factor(self.m)
        if not self.M >= 0:
            raise ConfigurationError(f"binomial trial count must be >= 0, got {self.M}")
        if not self.N >= 1:
            raise ConfigurationError(f"binomial scale must be >= 1, got {self.N}")
        for flag, value in (("--M", self.M), ("--N", self.N)):
            if value > sys.float_info.max:
                raise ConfigurationError(f"{flag} must be at most {sys.float_info.max:.6g}")

    def mean(self):
        return self.M * self.m / self.N

    def variance(self):
        r = self.m / self.N
        ey2 = self.law.second_moment()
        mean = self.M * r  # a float: the int M**2 has no float past M ~ 1.3e154
        return mean - mean * r * ey2 + mean * mean * (ey2 - 1.0)

    @cached_property
    def _atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (success probabilities p, weights w, w*p), fixed for the model's life
        scaled, wts = _scaled_atoms(self.law, self.m)
        p = np.minimum(scaled / self.N, 1.0)
        return p, wts, wts * p

    def pgf(self, q):
        p, wts, _ = self._atoms
        with np.errstate(divide="ignore"):
            log_terms = self.M * np.log1p(p * (q - 1.0))
        return float(np.dot(wts, np.exp(log_terms)))

    def survival_map(self, phi):
        if self.M == 0:  # no offspring: nothing survives, whatever phi
            return 0.0, 0.0
        p, wts, wp = self._atoms
        with np.errstate(divide="ignore"):
            log_hit = np.log1p(p * -phi)  # log(1 - p*phi), -inf at p*phi = 1
        miss = np.expm1(self.M * log_hit)
        if self.M == 1:
            # (1 - p*phi)^0 = 1 even at p*phi = 1, where 0 * log_hit is nan
            slope = float(np.sum(wp))
        else:
            slope = self.M * float(np.dot(wp, np.exp((self.M - 1) * log_hit)))
        return -float(np.dot(wts, miss)), slope

    def sample_total(self, z, rng):
        p = np.minimum(self.law.sample(z, rng) * (self.m / self.N), 1.0)
        return int(rng.binomial(self.M, p).sum())


@dataclass(frozen=True)
class TwoPointImmortal(GWModel):
    """Offspring 1 or 2: the immortal skeleton's lower envelope."""

    beta_s: float

    def __post_init__(self):
        if not 0.0 <= self.beta_s <= 1.0:
            raise ConfigurationError(f"branching probability must be in [0,1], got {self.beta_s}")

    def mean(self):
        return 1.0 + self.beta_s

    def variance(self):
        return self.beta_s * (1.0 - self.beta_s)

    def pgf(self, q):
        return (1.0 - self.beta_s) * q + self.beta_s * q * q

    def survival_map(self, phi):
        # exactly 1 at phi = 1, since the law has no mass at 0 offspring
        b = self.beta_s
        return phi + b * phi * (1.0 - phi), 1.0 + b - 2.0 * b * phi

    def sample_total(self, z, rng):
        return z + int(rng.binomial(z, self.beta_s))


@dataclass(frozen=True)
class Binary(GWModel):
    """Offspring 0 or 2."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"branching probability must be in [0,1], got {self.p}")

    def mean(self):
        return 2.0 * self.p

    def variance(self):
        return 4.0 * self.p * (1.0 - self.p)

    def pgf(self, q):
        return (1.0 - self.p) + self.p * q * q

    def survival_map(self, phi):
        return self.p * phi * (2.0 - phi), 2.0 * self.p * (1.0 - phi)

    def sample_total(self, z, rng):
        return 2 * int(rng.binomial(z, self.p))


@dataclass(frozen=True)
class PlainPoisson(GWModel):
    """Offspring Pois(m)."""

    m: float

    def __post_init__(self):
        _check_mean_factor(self.m)

    def mean(self):
        return self.m

    def variance(self):
        return self.m

    def pgf(self, q):
        return math.exp(self.m * (q - 1.0))

    def survival_map(self, phi):
        return -math.expm1(-self.m * phi), self.m * math.exp(-self.m * phi)

    def sample_total(self, z, rng):
        return int(rng.poisson(self.m * z))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


MAX_NEWTON = 100
"""Budget of survival-map evaluations for `extinction_q`, read at each call.

A Haldane start puts the first point of a slightly supercritical solve
just above its root, and Newton converges quadratically from there:
each of the five near-critical benchmark solves takes 6.  From phi = 1
(a dropped start) Newton roughly halves phi until it nears the root, so
a root at 1e-8 takes about 30.
"""

_SIGN_MARGIN = 8.0 * sys.float_info.epsilon
"""Relative rounding error allowed for S(phi) - phi before its sign counts."""

_HALDANE_START = 1.2
"""Multiple of Haldane's 2(mean - 1)/variance at which `extinction_q` starts.

Near criticality the root is Haldane's value times 1 + O(mean - 1), so a
start 20% above it is an upper end that Newton leaves quadratically.
"""


@dataclass(frozen=True)
class SurvivalResult:
    """Survival probability `phi`, whose root lies in [phi - bound, phi].

    `iterations` counts evaluations of the survival map.
    """

    phi: float
    iterations: int
    bound: float


def extinction_q(model: GWModel, tol: float = 1e-12) -> SurvivalResult:
    """Survival probability 1 - q, q the smallest root of q = f(q) in [0,1].

    1 - q is the largest root of the survival map S(phi) = 1 - f(1 - phi),
    which is concave with S(0) = 0 and S'(0) = the offspring mean.  So
    Newton's method from any phi with S(phi) < phi falls monotonically
    onto it, and every Newton point is an upper end of a bracket.  The
    first point is the Haldane start g = 1.2 * 2(mean - 1)/variance when
    the variance is positive and g < 1/2: if S(g) < g beyond a rounding
    margin, g is the upper end and S(1) is never evaluated; if S(g) > g
    beyond it, g is the lower end and Newton starts from phi = 1;
    otherwise g is dropped.
    Once the steps are small, a probe two steps (plus a rounding margin)
    below the upper end looks for a lower end, where S(phi) > phi; until
    one is found the lower end is 0, below the root since the mean
    exceeds 1.  A sign that contradicts what a step expected widens the
    rounding margin those steps keep from the root.  So each end is
    certified by a sign of S(phi) - phi.  The solver stops when the
    bracket is at most `tol` wide, so `tol` is absolute in phi; it
    returns the upper end as `phi` and the width as `bound`.  If the
    `MAX_NEWTON` evaluations run out first, `bound > tol` says so.

    S(1) = 1 - P(Z = 0) = 1 (no deaths) gives phi = 1, and otherwise an
    offspring mean <= 1 gives phi = 0 (sidestepping the critical case),
    both with bound 0.  The variance cannot decide a mean <= 1: that of
    `MixedBinomial` ignores its clamp.
    """
    if not tol > 0:
        raise ConfigurationError(f"tolerance must be > 0, got {tol}")
    probe = model.pgf(1.0)  # raises UnsupportedLawError for mixing laws without atoms
    if abs(probe - 1.0) > 1e-9:
        raise ValueError(f"offspring pgf evaluates to {probe} at 1, not 1")
    mean = model.mean()
    if mean <= 1.0:
        s_one, _ = model.survival_map(1.0)
        return SurvivalResult(1.0 if s_one >= 1.0 else 0.0, 1, 0.0)
    lo, hi = 0.0, 1.0
    iterations = 0
    margin = _SIGN_MARGIN
    variance = model.variance()
    guess = _HALDANE_START * 2.0 * (mean - 1.0) / variance if variance > 0 else 1.0
    if 0.0 < guess < 0.5:
        s, slope = model.survival_map(guess)
        iterations += 1
        if s < guess * (1.0 - margin):
            hi = guess
        elif s > guess * (1.0 + margin):
            lo = guess
    if hi == 1.0:  # no Haldane upper end
        s, slope = model.survival_map(hi)
        iterations += 1
        if s >= hi:
            return SurvivalResult(1.0, iterations, 0.0)
    while hi - lo > tol and iterations < MAX_NEWTON:
        descent = 1.0 - slope  # -(S(phi) - phi)' > 0 above the root, by concavity
        step = (hi - s) / descent
        noise = margin * hi / descent  # root shift a rounding error in S can fake
        probing = 2.0 * step + noise <= tol
        if probing:
            x = hi - 2.0 * step - noise  # below the root once steps are quadratic
        else:
            x = hi - step + min(noise, 0.5 * step)  # Newton, kept off the root
        s_x, slope_x = model.survival_map(x)
        iterations += 1
        if s_x > x:
            lo = max(lo, x)
        elif s_x < x:
            hi, s, slope = x, s_x, slope_x
        if (s_x > x) != probing:
            margin *= 2.0
    return SurvivalResult(hi, iterations, hi - lo)


def haldane_ref(s: float, sigma2: float) -> float:
    """Reference survival probability 2s/sigma^2, clamped into [0,1]."""
    if s < 0:
        raise ValueError(f"selection must be >= 0, got {s}")
    if not sigma2 > 0:
        raise ValueError(f"variance must be > 0, got {sigma2}")
    return min(1.0, max(0.0, 2.0 * s / sigma2))


def conditioned_pmf(base: Sequence[float], phi: float, k: int) -> float:
    """Offspring pmf of the immortal skeleton at k, from base[j] = P(Z = j).

    P(Z* = k) = (1/phi) * sum_j base[j] * C(j,k) phi^k (1-phi)^(j-k).
    """
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"survival probability must be in (0,1], got {phi}")
    if k < 1:
        raise ValueError(f"skeleton offspring count must be >= 1, got {k}")
    total = math.fsum(base)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"base pmf sums to {total}, not 1")
    acc = 0.0
    for j, pj in enumerate(base):
        if j >= k and pj > 0.0:
            acc += pj * math.comb(j, k) * phi**k * (1.0 - phi) ** (j - k)
    return acc / phi
