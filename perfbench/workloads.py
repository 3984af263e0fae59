"""The benchmark's workloads: fixed `haldane` command lines, one pass each.

A pass is the list of `run_command` argument vectors that one timed
repetition runs.  Monte Carlo workloads run one command per pass with a
trial seed derived from the benchmark seed and the pass index; the
survival workload runs its fixed list of solves in an order drawn from
the seed.  Names and configurations are mirrored in `BENCHMARK.json`
and in README.md next to this file, which also give the reasons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GW_REL_TOL = 1e-5
"""Relative tolerance of a survival solve against its exact reference.

The seed's fixed-point solver misses `1 - 1/m` at m = 1.001 by 1.0e-6
relative; that error is below this tolerance and is always reported as
`branching.max_rel_err`.
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" (Monte Carlo) or "gw" (exact survival solves)
    command: str  # the `haldane` subcommand the pass runs
    base_args: tuple[str, ...]
    trials: int  # Monte Carlo trials per pass; solves per pass for "gw"
    parallelism: int
    first_call: tuple[str, ...]  # cheap call that pays imports and caches
    verify_trials: int = 0  # size of one extra untimed call per run, if any
    calibration: str = "interpreter"  # reference task kind, see run.Calibration

    def pass_argv(self, seed: int, index: int, parallelism: int | None = None,
                  trials: int | None = None) -> list[list[str]]:
        """Argument vectors of pass `index` at benchmark seed `seed`."""
        if self.kind == "gw":
            order = list(GW_SOLVES)
            random.Random(pass_seed(seed, index)).shuffle(order)
            return [["gw-survival", *GW_SOLVES[key]] for key in order]
        return [[
            self.command, *self.base_args,
            "--trials", str(self.trials if trials is None else trials),
            "--seed", str(pass_seed(seed, index)),
            "--parallelism", str(self.parallelism if parallelism is None else parallelism),
        ]]


def pass_seed(seed: int, index: int) -> int:
    """Trial seed of pass `index`; distinct for every seed and index < 1_000_003."""
    return seed * 1_000_003 + index


VERIFY_INDEX = 1_000_000
"""Pass index of the extra untimed call, far above any timed pass."""


GW_SOLVES: dict[str, tuple[str, ...]] = {
    "mixed-poisson-gamma1": ("--model", "mixed-poisson", "--y", "gamma:1", "--m", "1.001"),
    "mixed-binomial-gamma1": ("--model", "mixed-binomial", "--y", "gamma:1",
                              "--M", "10000", "--N", "10000", "--m", "1.01"),
    "mixed-binomial-two-point": ("--model", "mixed-binomial", "--y", "two-point",
                                 "--M", "10000", "--N", "10000", "--m", "1.01"),
    "plain-poisson": ("--model", "plain-poisson", "--m", "1.001"),
    "binary": ("--model", "binary", "--p", "0.51"),
}

FIXATION_ARGS = ("--N", "10000", "--b", "0.25", "--paintbox", "gamma:1", "--x0", "1")
SPIKED_ARGS = ("--N", "1000", "--gamma", "0.1", "--b", "0.45")
PHASES_ARGS = FIXATION_ARGS + ("--delta", "0.05", "--eps", "0.1")


def _mc_first_call(command: str, base_args: tuple[str, ...], parallelism: int) -> tuple[str, ...]:
    return (command, *base_args, "--trials", "200", "--seed", "1",
            "--parallelism", str(parallelism))


def _mc(name: str, command: str, base_args: tuple[str, ...], trials: int,
        parallelism: int, verify_trials: int = 0) -> Workload:
    return Workload(name, "mc", command, base_args, trials, parallelism,
                    _mc_first_call(command, base_args, parallelism), verify_trials)


# Passes are short, so each call sits close to the reference tasks that
# calibrate it (see run.Calibration) and a run holds many of them.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    _mc("fixation-gamma1", "fixation", FIXATION_ARGS, trials=5_000, parallelism=1),
    # the violation flag needs ~2e5 trials to be decided; see reference.py
    _mc("counterexample-spiked", "counterexample", SPIKED_ARGS, trials=25_000,
        parallelism=1, verify_trials=200_000),
    _mc("phases-par2", "phases", PHASES_ARGS, trials=10_000, parallelism=2),
    Workload("gw-survival", "gw", "gw-survival", (), trials=len(GW_SOLVES), parallelism=1,
             first_call=("gw-survival", "--model", "mixed-binomial", "--y", "gamma:1",
                         "--M", "100", "--N", "100", "--m", "1.5"),
             calibration="vector"),
)}


def lookup(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None

