"""Exact references for every workload and the checks against them.

The references do not come from the code under test except where a
closed form is unavailable (mixed-binomial survival), where bisection
on the model's own PGF replaces the package's fixed-point iteration.

* `gamma:1` weights: the fixation probability from x0 is exactly
  (1 - (1-s)^x0) / (1 - (1-s)^N), because (1-s)^K is a martingale of
  the Dirichlet(1) chain.
* Spiked weights at small N: a dense solve of the Cannings chain, whose
  rows are mixtures of two binomials (spike in or out of the head).
* Survival probabilities: 1 - 1/m (mixed Poisson over Gamma(1)),
  (2p-1)/p (binary), Lambert W (plain Poisson), bisection otherwise.

Monte Carlo estimates are checked at Z_SIGMA binomial standard errors,
far enough out that an honest run fails with probability ~6e-7.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import GW_REL_TOL, GW_SOLVES

Z_SIGMA = 5.0
PRODUCT_REL_TOL = 1e-12
VIOLATION_TRIALS = 200_000
"""Trials from which a spiked record must flag the violation.

At N=1000, gamma=0.1, b=0.45 the 99% Wilson lower bound clears twice the
naive prediction (7.1e-4) unless p_hat falls ~3.9 standard errors below
the exact 1.14e-3: probability ~5e-5 at 2e5 trials, 1.8e-2 at 1e5.
"""


def gamma1_fixation(N: int, s: float, x0: int) -> float:
    return (1.0 - (1.0 - s) ** x0) / (1.0 - (1.0 - s) ** N)


def spiked_chain_fixation(N: int, gamma: float, b: float, x0: int = 1) -> float:
    """Fixation probability of the spiked Cannings chain by a dense solve."""
    from scipy.linalg import solve
    from scipy.stats import binom

    s = float(N) ** (-b)
    ws = float(N) ** (-gamma)
    wo = (1.0 - ws) / (N - 1)
    k = np.arange(1, N)
    j = np.arange(N + 1)
    rows = np.zeros((N - 1, N + 1))
    for spike_share, head in ((k / N, ws + (k - 1) * wo), (1.0 - k / N, k * wo)):
        p = head / (head + (1.0 - s) * (1.0 - head))
        rows += spike_share[:, None] * binom.pmf(j[None, :], N, p[:, None])
    h = solve(np.eye(N - 1) - rows[:, 1:N], rows[:, N])
    return float(h[x0 - 1])


def _bisect_survival(pgf) -> float:
    """1 - q for the smallest root q of pgf(q) = q, supercritical law."""
    hi = None
    for e in range(1, 60):
        q = 1.0 - 2.0 ** -e
        if pgf(q) < q:
            hi = q
            break
    if hi is None:
        raise ValueError("no point below the diagonal: law is not supercritical")
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return 1.0 - hi
        if pgf(mid) > mid:
            lo = mid
        else:
            hi = mid


def gw_references() -> dict[str, float]:
    """Exact survival probability of every solve in `GW_SOLVES`."""
    from scipy.special import lambertw

    from haldane.branching import MixedBinomial
    from haldane.paintbox import parse_source

    refs = {
        "mixed-poisson-gamma1": 1.0 - 1.0 / 1.001,
        "binary": (2 * 0.51 - 1.0) / 0.51,
        "plain-poisson": 1.0 + float(lambertw(-1.001 * math.exp(-1.001)).real) / 1.001,
    }
    for key, law in (("mixed-binomial-gamma1", "gamma:1"),
                     ("mixed-binomial-two-point", "two-point")):
        model = MixedBinomial(parse_source(law), 10_000, 1.01, 10_000)
        refs[key] = _bisect_survival(model.pgf)
    if set(refs) != set(GW_SOLVES):
        raise ValueError(f"references {sorted(refs)} do not match solves {sorted(GW_SOLVES)}")
    return refs


def references(workload: str) -> dict[str, float]:
    """Reference values the checks of `workload` compare against."""
    if workload in ("fixation-gamma1", "phases-par2"):
        return {"p": gamma1_fixation(10_000, 10_000 ** -0.25, 1)}
    if workload == "counterexample-spiked":
        return {"p": spiked_chain_fixation(1000, 0.1, 0.45)}
    if workload == "gw-survival":
        return gw_references()
    raise ValueError(f"no references for workload {workload!r}")


def _check_p_hat(rec: dict, p: float) -> list[str]:
    problems = []
    n = rec.get("trials") or 0
    if n < 1:
        return [f"record has trials={n!r}"]
    if rec.get("truncated"):
        problems.append(f"{rec['truncated']} truncated trials")
    if rec["fixations"] / n != rec["p_hat"]:
        problems.append("p_hat is not fixations / trials")
    sigma = math.sqrt(p * (1.0 - p) / n)
    if abs(rec["p_hat"] - p) > Z_SIGMA * sigma:
        problems.append(
            f"p_hat {rec['p_hat']:.6g} is {abs(rec['p_hat'] - p) / sigma:.1f} sigma "
            f"from the exact {p:.6g}")
    return problems


def check_record(workload: str, argv: list[str], rec: dict, refs: dict[str, float]) -> list[str]:
    """Problems with one record; an empty list means it passed."""
    if workload == "gw-survival":
        key = gw_key(argv)
        ref = refs[key]
        err = rel_error(rec["phi"], ref)
        if err > GW_REL_TOL:
            return [f"{key}: phi {rec['phi']!r} off the exact {ref!r} by {err:.2e} relative"]
        return []
    problems = _check_p_hat(rec, refs["p"])
    if (workload == "counterexample-spiked" and rec["trials"] >= VIOLATION_TRIALS
            and rec.get("violation") is not True):
        problems.append(f"violation is {rec.get('violation')!r}, expected True")
    if workload == "phases-par2":
        product = rec["p1"] * rec["p2"] * rec["p3"]
        # with a fixation every level was reached, so all three factors exist
        if rec["fixations"] and not abs(product - rec["p_hat"]) <= PRODUCT_REL_TOL * rec["p_hat"]:
            problems.append(f"p1*p2*p3 = {product!r} differs from p_hat {rec['p_hat']!r}")
    return problems


def gw_key(argv: list[str]) -> str:
    """Name in `GW_SOLVES` of a gw-survival argument vector."""
    return next(k for k, args in GW_SOLVES.items() if list(args) == argv[1:])


def rel_error(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def same_record(a: dict, b: dict) -> list[str]:
    """Fields that differ between two records of one run at two worker counts."""
    ignore = {"parallelism", "wall_clock_seconds"}
    keys = (set(a) | set(b)) - ignore
    return sorted(k for k in keys if a.get(k) != b.get(k)
                  and not (_is_nan(a.get(k)) and _is_nan(b.get(k))))


def _is_nan(x) -> bool:
    return isinstance(x, float) and math.isnan(x)
