"""The selective Cannings frequency process.

Each generation a fresh paintbox W is drawn and every one of the N
children independently picks a beneficial parent with probability

    sum(W_i, i <= k) / (sum(W_i, i <= k) + (1-s) * sum(W_i, i > k)),

where k is the current number of beneficial individuals (exchangeability
lets them occupy the first k slots).  The next beneficial count is an
exact binomial draw; 0 and N absorb.

A transition consumes only the beneficial/wildtype weight sums, the two
blocks split at k that each paintbox source's `block_sums` draws exactly
without building the N-vector; `_next_counts` draws a generation
through numpy, for one count or an array.  Absorption runs advance an
ensemble of independent trials in lockstep (`run_ensemble`), keep only
the live ones and return integer counts of the outcomes (`Tally`); a
single trajectory with its first passages is `run_to_absorption`, `step`
by step.  `run_ensemble` may also stop each trial at a level below N and
count it as fixed there (`analysis` sets that level from the loss rate
the source certifies, its `loss_rate`).

The live trials of a lockstep block are entries: a count, its running
maximum and a multiplicity, the number of trials that share them.  A
block starts as the one entry (x0, x0, trials).  Each generation the
source's `entry_classes` splits an entry's trials into classes of one
success probability p: one class under `deterministic`, at most two
under `spiked`, one per trial under every other source.  A class whose
mean N min(p, 1-p) is at most 30 and whose trials outnumber numpy's
inversion bound (`_walks`) draws its successors as one multinomial by
conditional binomials instead of one binomial per trial.  A class of
one always draws one binomial, and a trial drawn alone becomes an entry
of one, so once every entry holds one trial a generation draws as
`_next_counts` does, and a one-trial block draws what `step` draws.

Under a source with a `lockstep_law`, `run_ensemble` runs the whole
block to absorption in one native call (`_lockstep.c`) over numpy's own
C samplers on the generator's bit generator: the numpy path's variates
(`_next_entries`) in the same order, with the same float operations,
without numpy's fixed per-call cost or the per-generation bookkeeping in
Python.  It is built once per user with the interpreter's C compiler
against numpy's `libnpyrandom.a` and cached under
`$XDG_CACHE_HOME/haldane` (by default `~/.cache/haldane`); where it
cannot be built or loaded, and for a source without a law, every
generation goes through `_next_entries`, with the same records.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .paintbox import (
    MAX_N,
    ConfigurationError,
    Estimate,
    PaintboxSource,
    UnsupportedLawError,
    YLaw,
    block_weight_sums,
)


@dataclass(frozen=True)
class CanningsConfig:
    """Population size, selection strength, paintbox and start count.

    `from_exponent` gives s = N**-b and keeps b as given in `b` (None for a
    config built from s); `exponent` is b, or -ln(s)/ln(N) without it.
    """

    N: int
    s: float
    paintbox: PaintboxSource
    initial_count: int
    b: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.N < 2:
            raise ConfigurationError(f"need N >= 2, got {self.N}")
        if self.N > MAX_N:
            raise ConfigurationError(f"need N <= 2**63 - 1, got {self.N}")
        if not 0.0 <= self.s < 1.0:
            raise ConfigurationError(f"need 0 <= s < 1, got {self.s}")
        if not 0 <= self.initial_count <= self.N:
            raise ConfigurationError(
                f"initial count {self.initial_count} outside [0, {self.N}]"
            )

    @classmethod
    def from_exponent(cls, N, b, paintbox, initial_count):
        if N < 2:  # checked before 0 ** -b can raise
            raise ConfigurationError(f"need N >= 2, got {N}")
        config = cls(N, float(N) ** -float(b), paintbox, initial_count)
        if config.s == 0.0:  # N**-b underflowed
            raise ConfigurationError("s = 0 has no finite exponent b")
        object.__setattr__(config, "b", float(b))  # as given: -ln(s)/ln(N) can miss a bit
        return config

    @property
    def exponent(self) -> float | None:
        """b with s = N**-b; None for s = 0."""
        if self.b is not None:
            return self.b
        if self.s == 0.0:
            return None
        return -math.log(self.s) / math.log(self.N)

    @property
    def moderately_strong(self) -> bool:
        """True when the decay exponent sits strictly inside (0, 1/2).

        Reported, never enforced: any s in [0, 1) simulates fine.
        """
        b = self.exponent
        return b is not None and 0.0 < b < 0.5


@dataclass
class AbsorptionRecord:
    """One trajectory, run to absorption: its outcome and phase instrumentation."""

    outcome: str  # 'fixation' | 'loss'
    tau: int
    final_state: int
    max_count: int
    first_passage: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Tally:
    """Integer counts over trials run to absorption, or to a stop level; `merge` is
    order-insensitive.

    `fixations` counts the trials that reached N, or the stop level where one
    is set, and a trial's generations count up to the one that absorbed or
    stopped it.  `threshold_hits[t]` counts the
    trials whose count reached t (count >= t); `lockstep_generations` sums
    the generations each lockstep run took, i.e. its longest trial.
    """

    fixations: int = 0
    losses: int = 0
    tau_total: int = 0
    tau_max: int = 0
    threshold_hits: dict[int, int] = field(default_factory=dict)
    lockstep_generations: int = 0

    @property
    def trials(self) -> int:
        return self.fixations + self.losses

    def merge(self, other: "Tally") -> "Tally":
        hits = dict(self.threshold_hits)
        for t, c in other.threshold_hits.items():
            hits[t] = hits.get(t, 0) + c
        return Tally(
            self.fixations + other.fixations,
            self.losses + other.losses,
            self.tau_total + other.tau_total,
            max(self.tau_max, other.tau_max),
            hits,
            self.lockstep_generations + other.lockstep_generations,
        )


# ---------------------------------------------------------------------------
# One-generation transitions
# ---------------------------------------------------------------------------


def _success_probability(head, tail, s: float):
    """head / (head + (1-s) tail); arrays are overwritten in place."""
    tail *= 1.0 - s
    tail += head
    return np.divide(head, tail, out=tail if np.ndim(tail) else None)


def _next_counts(k, config: CanningsConfig, rng: np.random.Generator):
    """Bin(N, head / (head + (1-s) tail)) from a paintbox per count, through numpy."""
    head, tail = config.paintbox.block_sums((k,), config.N, rng)
    return rng.binomial(config.N, _success_probability(head, tail, config.s))


def _walks(p: np.ndarray, n: np.ndarray, N: int) -> np.ndarray:
    """Which classes (n trials at success probability p) draw one multinomial.

    Those whose mean N min(p, 1-p) is at most 30 and who outnumber the
    outcomes numpy's inversion sampler scans, mean + 10 sqrt(mean q + 1);
    a class of one never does.
    """
    near = np.where(p <= 0.5, p, 1.0 - p)
    mean = N * near
    return (mean <= 30.0) & (n > mean + 10.0 * np.sqrt(mean * (1.0 - near) + 1.0))


def _multinomial_walk(N: int, p: float, n: int, rng: np.random.Generator):
    """(successor, trials) for n draws of Bin(N, p), by conditional binomials.

    From the near end (N when p > 1/2), each outcome j takes Bin(left,
    pmf_j / remaining mass) of the trials left, as numpy's multinomial
    draws its cells (Davis, Comput. Stat. Data Anal. 1993); the ratio is 1
    once the remaining mass is down to the pmf.  The pmf runs by its ratio
    recurrence from (1 - p)^N.  Stops once every trial is placed.
    """
    near = p if p <= 0.5 else 1.0 - p
    ratio, pmf, mass = near / (1.0 - near), (1.0 - near) ** N, 1.0
    j = 0
    while n:
        c = n if j == N else int(rng.binomial(n, pmf / mass if pmf < mass else 1.0))
        if c:
            yield (j if p <= 0.5 else N - j), c
            n -= c
        mass -= pmf
        pmf *= (N - j) / (j + 1) * ratio
        j += 1


def _next_entries(k, m, config: CanningsConfig, rng: np.random.Generator):
    """One generation of lockstep entries through numpy: successors, multiplicities, parents.

    Draws what `_lockstep.c` draws.  While every entry is one trial this is
    `_next_counts`, and the parents are None (entry i became entry i).
    Otherwise each entry splits into the classes of the source's
    `entry_classes`, and each class draws one binomial per trial or, where
    `_walks` says so, one multinomial; runs of per-trial classes draw in
    one call.
    """
    N = config.N
    if m.max() == 1:
        return _next_counts(k, config, rng), m, None
    n, parent, head, tail = config.paintbox.entry_classes(k, m, N, rng)
    p = _success_probability(head, tail, config.s)
    nxt, mult, src, start = [], [], [], 0
    for w in [*np.flatnonzero(_walks(p, n, N)).tolist(), n.size]:
        if start < w:
            runs = n[start:w]
            nxt.append(rng.binomial(N, np.repeat(p[start:w], runs)))
            mult.append(np.ones(nxt[-1].size, dtype=np.int64))
            src.append(np.repeat(parent[start:w], runs))
        if w < n.size:
            cells = np.array(list(_multinomial_walk(N, float(p[w]), int(n[w]), rng)),
                             dtype=np.int64).reshape(-1, 2)
            nxt.append(cells[:, 0])
            mult.append(cells[:, 1])
            src.append(np.full(len(cells), parent[w]))
        start = w + 1
    return np.concatenate(nxt), np.concatenate(mult), np.concatenate(src)


def _address(a: np.ndarray):
    """An array's address for ctypes, at a fraction of the cost of `a.ctypes.data`; None if empty."""
    return ctypes.byref(ctypes.c_char.from_buffer(a)) if a.size else None


_LOCKSTEP_SOURCE = Path(__file__).with_name("_lockstep.c")
_LOCKSTEP_LAWS = ("deterministic", "gamma", "two-point", "spiked")
"""The names of a source's `lockstep_law`, in the order of `_lockstep.c`'s enum."""


def _build_lockstep(target: Path) -> None:
    """Compile `_lockstep.c` into the shared library `target`, through a temporary file."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("no C compiler configured for this interpreter")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=target.suffix, dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*shlex.split(cc), "-shared", "-fPIC", "-O2", "-ffp-contract=off",
             "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
             str(_LOCKSTEP_SOURCE),
             str(Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"), "-lm",
             "-o", tmp],
            capture_output=True, text=True,
        )
        if proc.returncode:
            raise OSError(f"{cc} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        os.replace(tmp, target)  # atomic: workers building at once leave no torn file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_LOCKSTEP_LOCK = threading.Lock()


@cache
def _lockstep_digest(source: Path) -> str:
    """The first 16 hex digits of the SHA-256 of `source`, read once: the revision of
    `_lockstep.c` that its library is cached and recorded under."""
    import hashlib

    return hashlib.sha256(source.read_bytes()).hexdigest()[:16]


@cache
def _lockstep_block():
    """The native lockstep block of `_lockstep.c`, or None (tried once per process).

    It draws with numpy's own C samplers on the generator's bit generator
    and bypasses `Generator.lock`: a block's generator is private to
    `run_ensemble`.  The first call builds the library into the per-user
    cache as `_lockstep-<numpy version>-<source hash><extension suffix>`
    when it is missing and deletes nothing, so the cache keeps one library
    per revision, numpy version and interpreter, and checkouts of different
    revisions that share it build once each.  Any failure leaves numpy's
    path.  `cache` may run this once for each of several threads that ask
    at once; the lock makes them take turns, so the later ones load the
    library the first one built.
    """
    from importlib.machinery import EXTENSION_SUFFIXES

    with _LOCKSTEP_LOCK:
        try:
            path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
            digest = _lockstep_digest(_LOCKSTEP_SOURCE)
            path /= f"haldane/_lockstep-{np.__version__}-{digest}{EXTENSION_SUFFIXES[0]}"
            if not path.exists():
                _build_lockstep(path)
            run = ctypes.CDLL(str(path)).haldane_run_block
        except (OSError, AttributeError, RuntimeError):
            # no compiler, header or libnpyrandom.a, a failed build, an unwritable
            # cache, a library without the function, no home directory
            return None
    run.restype = ctypes.c_int
    run.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_int64,
                    ctypes.c_double, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    return run


def engine(config: CanningsConfig) -> str:
    """What `run_ensemble` runs `config`'s blocks on: "native:<`_lockstep_digest`>" where
    the source has a `lockstep_law` and the library loaded, else "numpy"."""
    if config.paintbox.lockstep_law(config.N) and _lockstep_block():
        return f"native:{_lockstep_digest(_LOCKSTEP_SOURCE)}"
    return "numpy"


@np.errstate(invalid="raise")  # a 0/0 success probability is a FloatingPointError
def step(k: int, config: CanningsConfig, rng: np.random.Generator) -> int:
    """One generation: fresh paintbox, then an exact binomial of N children."""
    if not 0 <= k <= config.N:
        raise ValueError(f"beneficial count {k} outside [0, {config.N}]")
    if k == 0 or k == config.N:
        return k
    return int(_next_counts(k, config, rng))


@np.errstate(invalid="raise")  # a 0/0 success probability is a FloatingPointError
def run_ensemble(
    config: CanningsConfig,
    trials: int,
    rng: np.random.Generator,
    thresholds: Sequence[int] = (),
    stop: int | None = None,
) -> Tally:
    """Run `trials` independent copies of the chain in lockstep and tally them.

    The live trials are entries, a count, its running maximum and the
    number of trials sharing them, starting as the one entry (x0, x0,
    trials).  Every generation draws the entries' successors
    (`_next_entries`: the classes of the source's `entry_classes`, then
    one binomial per trial or, for a large class of one success
    probability, one multinomial), then tallies the entries that hit 0 or
    the stop level, each with its multiplicity, and drops them: a trial at
    `stop` or above counts as fixed there.  Once every entry holds one
    trial, so do all its successors: from then on a generation is one
    `_next_counts` call and no multiplicity is kept.  A trial reached level
    t (count >= t) if its maximum did.  Absorption is a.s. finite, so the
    run ends when every trial has fixed or been lost.  `stop` None is N,
    so every trial runs to absorption; a threshold above a stop below N
    raises ValueError, since a stopped trial cannot tell whether it would
    have reached it.  For
    a source with a `lockstep_law` the native block draws the same variates
    without `Generator.lock`: `rng` must be this run's own, shared with no
    thread.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    N, k0, box = config.N, config.initial_count, config.paintbox
    stop = N if stop is None else stop
    if not 0 < stop <= N:
        raise ValueError(f"stop level {stop} outside [1, {N}]")
    if stop < N and any(t > stop for t in thresholds):
        raise ValueError(f"a threshold of {tuple(thresholds)} lies above the stop level {stop}")
    hits = {t: trials if k0 >= t else 0 for t in thresholds}
    if not 0 < k0 < stop:
        fixations = trials if k0 >= stop else 0
        return Tally(fixations, trials - fixations, 0, 0, hits)
    above = sorted(t for t in hits if t > k0)
    if (law := box.lockstep_law(N)) and (run := _lockstep_block()):
        levels = np.array(above, dtype=np.int64)
        reached = np.zeros(len(above), dtype=np.int64)
        counts = np.empty(4, dtype=np.int64)  # fixations, losses, tau_total, generations
        code = run(rng.bit_generator.ctypes.bit_generator, _LOCKSTEP_LAWS.index(law[0]),
                   (ctypes.c_double * 3)(*law[1]), N, 1.0 - config.s, trials, k0, stop,
                   len(above), _address(levels), _address(reached), _address(counts))
        if code == -2:
            raise MemoryError(f"no room for a lockstep block of {trials} trials")
        if code:
            raise FloatingPointError("invalid value encountered in divide")
        for t, c in zip(above, reached.tolist()):
            hits[t] += c
        fixations, losses, tau_total, g = counts.tolist()
        return Tally(fixations, losses, tau_total, g, hits, g)
    k, m = np.array([k0], dtype=np.int64), np.array([trials], dtype=np.int64)
    peak = k.copy() if above else None
    fixations = losses = tau_total = g = 0
    while k.size:
        if m is None:
            k, parent = _next_counts(k, config, rng), None
        else:
            k, m, parent = _next_entries(k, m, config, rng)
            if parent is None:  # every entry one trial, and so every successor
                m = None
        g += 1
        if above:
            peak = np.maximum(peak if parent is None else peak[parent], k)
        live = (k > 0) & (k < stop)
        if not live.all():
            gone = ~live
            absorbed, fixed = _trials(gone, m), _trials(k >= stop, m)
            fixations += fixed
            losses += absorbed - fixed
            tau_total += g * absorbed
            if above:
                for t in above:
                    hits[t] += _trials(gone & (peak >= t), m)
                peak = peak[live]
            k = k[live]
            if m is not None:
                m = m[live]
    return Tally(fixations, losses, tau_total, g, hits, g)


def _trials(mask: np.ndarray, m: np.ndarray | None) -> int:
    """Trials in the entries of `mask`: their multiplicities' sum, or their number
    once every entry holds one trial (m is None)."""
    return int(np.count_nonzero(mask)) if m is None else int(m[mask].sum())


def run_to_absorption(
    config: CanningsConfig,
    rng: np.random.Generator,
    thresholds: Sequence[int] = (),
) -> AbsorptionRecord:
    """One trajectory, `step` by step, with the generation it first reached each threshold.

    On a given stream it draws exactly what a one-trial `run_ensemble` draws.
    """
    N = config.N
    k = peak = config.initial_count
    passage = {t: 0 for t in thresholds if k >= t}
    tau = 0
    while 0 < k < N:
        k = step(k, config, rng)
        tau += 1
        peak = max(peak, k)
        for t in thresholds:
            if k >= t:
                passage.setdefault(t, tau)
    return AbsorptionRecord("fixation" if k == N else "loss", tau, k, peak, passage)


# ---------------------------------------------------------------------------
# Phase-2 comparison process
# ---------------------------------------------------------------------------


def growth_factor_qn(
    config: CanningsConfig,
    eps: float,
    trials: int,
    rng: np.random.Generator,
) -> Estimate:
    """q_N = N * E[W_1 / (1 - s * sum of weights past floor(eps*N))].

    Exact at s = 0 and when floor(eps*N) = 0; otherwise the paintbox's
    `qn` gives it, in closed form or by Monte Carlo with a standard error.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    N, s = config.N, config.s
    j0 = int(math.floor(eps * N))
    if s == 0.0:
        return Estimate(1.0, 0.0, True)
    if j0 == 0:
        # discounted tail is the whole population: q_N = N E[W_1]/(1-s)
        return Estimate(1.0 / (1.0 - s), 0.0, True)
    return config.paintbox.qn(N, s, j0, trials, rng)


def step_tilde(
    k: int,
    config: CanningsConfig,
    eps: float,
    rng: np.random.Generator,
    q_n: float | None = None,
) -> int:
    """One transition of the lower comparison process.

    Up to floor(eps*N) the selection discount is frozen at the weight mass
    past that level: Bin(N, head / (1 - s * tail)).  Above it the process
    branches, each line leaving Pois(Y * q_N) offspring.  That regime needs
    a Y law and `q_n`, computed once with `growth_factor_qn`; without it
    the step raises ValueError.
    """
    if k < 0:
        raise ValueError(f"count must be >= 0, got {k}")
    if k == 0:
        return 0
    N, s = config.N, config.s
    j0 = int(math.floor(eps * N))
    if k <= j0:
        sums = block_weight_sums(config.paintbox, N, (k, j0 - k, N - j0), rng)
        p = sums[0] / (1.0 - s * sums[2])
        return int(rng.binomial(N, p))
    if not isinstance(config.paintbox, YLaw):
        raise UnsupportedLawError(
            "the branching regime of the comparison process needs a Dirichlet-type paintbox"
        )
    if q_n is None:
        raise ValueError(f"count {k} is past floor(eps*N) = {j0}: pass q_n from growth_factor_qn")
    return int(rng.poisson(q_n * config.paintbox.sample_sum(k, rng)))
