import concurrent.futures
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import haldane
from haldane import analysis, cannings, cli
from haldane.analysis import BLOCK_TRIALS
from haldane.cannings import CanningsConfig, step
from haldane.cli import CSV_COLUMNS, run_command
from haldane.paintbox import Gamma
from haldane.streams import make_rng, trial_rng


def run_jsonl(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


def strip_clock(records):
    return [{k: v for k, v in rec.items() if k != "wall_clock_seconds"} for rec in records]


def strip_engine(rec):
    return {k: v for k, v in rec.items() if k != "engine"}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert run_command(["fixation", "--N", "10", "--s", "0", "--trials", "5",
                        "--seed", "1", "--bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "100", "--b", "0.3", "--trials", "20", "--s", "3"],
    ["counterexample", "--N", "100", "--gamma", "0.1", "--b", "0.45", "--trials", "20",
     "--s", "5"],
    ["gw-survival", "--model", "two-point-immortal", "--b", "0.3"],
    ["fixation", "--N", "100", "--s", "0.1", "--tri", "20", "--se", "4", "--x", "2"],
], ids=["s-for-seed", "s-for-seed-counterexample", "b-for-beta-s", "prefixes"])
def test_abbreviated_flag_exits_2(capsys, argv):
    # argparse would otherwise read a prefix as the one flag it starts
    assert run_command(argv) == 2
    assert capsys.readouterr().out == ""


def test_mutually_exclusive_selection_exits_2(capsys):
    assert run_command(["fixation", "--N", "100", "--s", "0.5", "--b", "0.3",
                        "--paintbox", "deterministic", "--x0", "1",
                        "--trials", "10", "--seed", "1"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert run_command([]) == 2


def test_bad_domain_value_exits_2(capsys):
    # s outside [0,1) is a configuration error
    assert run_command(["fixation", "--N", "100", "--s", "1.5", "--trials", "10",
                        "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_phases_precondition_exits_2(capsys):
    assert run_command(["phases", "--N", "10000", "--b", "0.25", "--delta", "0.3",
                        "--eps", "0.1", "--trials", "10", "--seed", "1"]) == 2


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_parallelism_below_one_exits_2(capsys, workers):
    assert run_command(["fixation", "--N", "20", "--s", "0.1", "--trials", "10",
                        "--seed", "1", "--parallelism", workers]) == 2
    assert capsys.readouterr().out == ""


_MC_ARGV = {
    "fixation": ["fixation", "--N", "20", "--s", "0.1"],
    "sweep": ["sweep", "--N", "20", "30", "--b", "0.3"],
    "phases": ["phases", "--N", "10000", "--b", "0.25", "--delta", "0.05", "--eps", "0.1"],
    "counterexample": ["counterexample", "--N", "1000", "--gamma", "0.1", "--b", "0.45"],
}


@pytest.mark.parametrize("level", ["1.5", "0", "1", "nan"])
@pytest.mark.parametrize("command", sorted(_MC_ARGV))
def test_level_outside_the_unit_interval_exits_2_before_any_trial(capsys, monkeypatch,
                                                                  command, level):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(analysis, "run_ensemble", no_trials)
    assert run_command(_MC_ARGV[command] + ["--trials", "10", "--seed", "1",
                                            "--level", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--level" in captured.err


def test_default_level_is_recorded(capsys):
    code, [rec] = run_jsonl(capsys, _MC_ARGV["fixation"] + ["--trials", "10", "--seed", "1"])
    assert code == 0
    assert rec["level"] == analysis.DEFAULT_LEVEL == 0.99


def test_lognormal_sigma_overflowing_the_second_moment_exits_2(capsys):
    # E[Y^2] = exp(27^2) overflows a float: rejected before any trial runs
    assert run_command(["fixation", "--N", "100", "--s", "0.1", "--paintbox", "lognormal:27",
                        "--trials", "50", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_lognormal_sigma_with_a_finite_second_moment_runs(capsys):
    code, records = run_jsonl(capsys, ["fixation", "--N", "100", "--s", "0.1",
                                       "--paintbox", "lognormal:26", "--trials", "50",
                                       "--seed", "1"])
    assert code == 0
    assert records[0]["paintbox"] == "lognormal:26"
    assert records[0]["ref_variance"] == math.exp(26.0**2)


class _ZeroMasses(Gamma):
    """A paintbox source whose two block masses are both 0.0."""

    def block_sums(self, cuts, N, rng):
        zero = np.zeros(np.shape(cuts[0]))
        return [zero, zero.copy()]

    def lockstep_law(self, N):
        return None  # Gamma's native law would draw Gamma's masses, not these


def test_nan_success_probability_is_a_runtime_failure(capsys, monkeypatch):
    # with both masses 0 the chance a child is beneficial is 0/0: one
    # FloatingPointError on the scalar path and the ensemble path alike
    with pytest.raises(FloatingPointError):
        step(1, CanningsConfig(2, 0.1, _ZeroMasses(), 1), make_rng(1))
    monkeypatch.setattr(cli, "parse_source", lambda text: _ZeroMasses())
    assert run_command(["fixation", "--N", "2", "--s", "0.1", "--trials", "100",
                        "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: FloatingPointError")


def _beta_fixation_n2(kappa, s):
    """Exact fixation probability from one of N = 2 under a Beta(kappa, kappa) paintbox.

    From count 1 the chain fixes with E[p^2] / (E[p^2] + E[(1-p)^2]),
    p = x / (x + (1-s)(1-x)).  Near 0 (and near 1, for 1 - x) the
    substitution x = t**(1/kappa) turns x**(kappa-1) dx into dt / kappa,
    so quad sees a bounded integrand; the Beta function cancels.
    """
    def half(g, near_one):
        def f(t):
            u = t ** (1 / kappa)
            x, y = (1 - u, u) if near_one else (u, 1 - u)
            return g(x / (x + (1 - s) * y)) * (1 - u) ** (kappa - 1)
        return quad(f, 0, 0.5**kappa, epsabs=0, epsrel=1e-12, limit=200)[0]

    fix = half(lambda p: p * p, False) + half(lambda p: p * p, True)
    loss = half(lambda p: (1 - p) ** 2, False) + half(lambda p: (1 - p) ** 2, True)
    return fix / (fix + loss)


def test_fixation_at_a_tiny_gamma_shape_is_exact(capsys):
    # at N = 2 both Gamma(0.001) block masses often underflow; the exact
    # split below 2**-969 keeps the run finite and on the law
    code, (rec,) = run_jsonl(capsys, ["fixation", "--N", "2", "--s", "0.1", "--paintbox",
                                      "gamma:0.001", "--trials", "20000", "--seed", "1"])
    assert code == 0
    exact = _beta_fixation_n2(0.001, 0.1)
    assert exact == pytest.approx(0.500053, abs=1e-6)
    stderr = math.sqrt(exact * (1 - exact) / rec["trials"])
    assert abs(rec["p_hat"] - exact) <= 5 * stderr


def test_moments_at_a_tiny_gamma_shape_are_finite(capsys):
    # E[W_1^2] of Dirichlet(kappa, kappa) is (kappa + 1) / (2 (2 kappa + 1))
    kappa = 0.001
    code, (rec,) = run_jsonl(capsys, ["moments", "--paintbox", f"gamma:{kappa}", "--N", "2",
                                      "--trials", "20000", "--seed", "1"])
    assert code == 0
    assert math.isfinite(rec["moment_value"])
    exact = (kappa + 1) / (2 * (2 * kappa + 1))
    assert abs(rec["moment_value"] - exact) <= 5 * rec["moment_stderr"]


def _raise(*args):
    raise RuntimeError("ensemble failed")


@pytest.mark.parametrize("fault, name", [(_raise, "RuntimeError")])
def test_failing_pool_worker_exits_1(capsys, monkeypatch, fault, name):
    # worker threads run the patched ensemble; three blocks start the pool
    monkeypatch.setattr(analysis, "run_ensemble", fault)
    assert run_command(["fixation", "--N", "20", "--s", "0.1",
                        "--trials", str(2 * BLOCK_TRIALS + 1), "--seed", "1",
                        "--parallelism", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"failure: {name}")


class _PoolThatCannotStart:
    """Stands in for ThreadPoolExecutor when the system refuses new threads."""

    def __init__(self, max_workers):
        pass

    def map(self, fn, *iterables):
        raise RuntimeError("can't start new thread")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_that_cannot_start_exits_1(capsys, monkeypatch):
    # a refusal of the system, not of the input, is a runtime failure
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _PoolThatCannotStart)
    assert run_command(["fixation", "--N", "20", "--s", "0.1",
                        "--trials", str(2 * BLOCK_TRIALS + 1), "--seed", "1",
                        "--parallelism", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: RuntimeError: can't start new thread")


def test_removed_duality_command_exits_2(capsys):
    # argparse refuses it as an unknown choice
    assert run_command(["duality", "--N", "10", "--k", "2", "--samples", "x"]) == 2
    assert "invalid choice: 'duality'" in capsys.readouterr().err


_FIX_ARGV = ["fixation", "--N", "100", "--s", "0.1", "--trials", "10", "--seed", "1"]
_BIG_N = ["--N", str(2**63), "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (_FIX_ARGV + ["--paintbox", "gamma:-1"], "Gamma shape must be > 0, got -1.0"),
    (_FIX_ARGV + ["--paintbox", "nope"], "unknown paintbox 'nope'"),
    (_FIX_ARGV + ["--paintbox", "two-point:1,1,1.5"],
     "TwoPoint probability must be in (0,1), got 1.5"),
    (["fixation", "--N", "100", "--s", "0.1", "--trials", "0", "--seed", "1"],
     "need trials >= 1, got 0"),
    (["gw-survival", "--model", "plain-poisson", "--m", "-1"],
     "mean factor must be finite and >= 0, got -1.0"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "lognormal:1", "--m", "1.5"],
     "lognormal:1 has no mixing atoms"),
    (["gw-survival", "--model", "binary", "--p", "0.6", "--tol", "0"],
     "tolerance must be > 0, got 0.0"),
    (["moments", "--N", "0", "--trials", "10", "--seed", "1"], "need N >= 1, got 0"),
    (["moments", "--N", "10", "--trials", "0", "--seed", "1"], "need trials >= 1, got 0"),
    # one index leaves no other to share the spike's remainder
    (["moments", "--paintbox", "spiked:0.2", "--N", "1", "--trials", "10", "--seed", "1"],
     "the spiked paintbox needs N >= 2, got 1"),
    # inputs whose checks a run would otherwise trip as a ZeroDivisionError,
    # a numpy ValueError or a non-converging eigensolve
    (["fixation", "--N", "0", "--b", "0.25", "--trials", "10", "--seed", "1"],
     "need N >= 2, got 0"),
    (_FIX_ARGV + ["--paintbox", "gamma:abc"], "could not convert string to float: 'abc'"),
    (_FIX_ARGV + ["--paintbox", "two-point:inf,1,0.5"],
     "TwoPoint values must be finite and > 0, got a=inf, b=1.0"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "gamma:inf", "--m", "1.5"],
     "Gamma shape must be finite, got inf"),
    # a subnormal shape, whose E[Y^2] = (kappa + 1) / kappa overflows
    (_FIX_ARGV + ["--paintbox", "gamma:1e-310"], "Gamma shape 1e-310 gives E[Y^2] = inf"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "gamma:1e-310", "--m", "1.5"],
     "Gamma shape 1e-310 gives E[Y^2] = inf"),
    # an accepted shape whose atoms leave the float range, or whose atoms do
    # once scaled by m
    (["gw-survival", "--model", "mixed-poisson", "--y", "gamma:3e-306", "--m", "1.5"],
     "Gamma shape 3e-306 puts quadrature atoms past the float range"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "gamma:4e-306", "--m", "1.5"],
     "mean factor 1.5 times an atom of gamma:4e-306 overflows"),
    (["phases", "--N", "100", "--b", "0.3", "--delta", "0.15", "--eps", "0.01",
      "--trials", "10", "--seed", "1"], "thresholds 8, 1 do not separate 1 from N=100"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "spiked:0.2", "--m", "1.5"],
     "mixing law must be a Y law, got 'spiked:0.2'"),
    (["gw-survival", "--model", "binary", "--p", "1.5"],
     "branching probability must be in [0,1], got 1.5"),
    (["gw-survival", "--model", "two-point-immortal", "--beta-s", "2"],
     "branching probability must be in [0,1], got 2.0"),
    (["gw-survival", "--model", "mixed-binomial", "--M", "-1", "--N", "10", "--m", "1.5"],
     "binomial trial count must be >= 0, got -1"),
    # a binomial law whose M or N has no float
    (["gw-survival", "--model", "mixed-binomial", "--y", "gamma:1", "--M", "10",
      "--N", str(10**400), "--m", "1.5"], "--N must be at most 1.79769e+308"),
    (["gw-survival", "--model", "mixed-binomial", "--y", "gamma:1", "--M", str(10**400),
      "--N", "10", "--m", "1.5"], "--M must be at most 1.79769e+308"),
    # an N the native block would wrap to a negative int64, or that overflows numpy
    *[([*command, *_BIG_N], "need N <= 2**63 - 1, got 9223372036854775808") for command in (
        ["fixation", "--s", "0.1", "--paintbox", "spiked:0.2"],
        ["fixation", "--s", "0.1", "--paintbox", "lognormal:1"],
        ["moments"])],
], ids=["gamma-shape", "unknown-paintbox", "two-point-probability", "trials-zero",
        "mean-negative", "no-atoms", "tol-zero", "moments-N-zero", "moments-trials-zero",
        "moments-spiked-N-one", "N-zero-with-exponent", "paintbox-not-a-number",
        "two-point-infinite", "gamma-infinite", "gamma-subnormal", "gw-gamma-subnormal",
        "gw-gamma-atoms-past-float-range", "gw-rates-past-float-range",
        "phases-thresholds-unseparated", "gw-spiked-mixing", "gw-binary-probability",
        "gw-immortal-probability", "gw-binomial-trials-negative",
        "gw-binomial-scale-past-float-range", "gw-binomial-trials-past-float-range",
        "N-beyond-int64-native", "N-beyond-int64-lognormal", "moments-N-beyond-int64"])
def test_bad_input_exits_2_with_its_message(capsys, argv, message):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_value_error_inside_a_run_exits_1(capsys, monkeypatch):
    # only a ConfigurationError is bad input; any other ValueError is a failure
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(analysis, "run_ensemble", boom)
    assert run_command(_FIX_ARGV) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: ValueError: boom\n"


# ---------------------------------------------------------------------------
# fixation records
# ---------------------------------------------------------------------------


def test_fixation_neutral_record(capsys):
    code, records = run_jsonl(capsys, [
        "fixation", "--N", "100", "--s", "0", "--paintbox", "deterministic",
        "--x0", "1", "--trials", "1000", "--seed", "7"])
    assert code == 0
    (rec,) = records
    assert rec["haldane"] == 0.0
    assert rec["ratio"] is None
    assert rec["N"] == 100 and rec["s"] == 0.0 and rec["x0"] == 1
    assert rec["paintbox"] == "deterministic"
    assert rec["trials"] == 1000 and rec["seed"] == 7
    assert rec["version"]
    assert "wall_clock_seconds" in rec


def test_fixation_exponent_resolution(capsys):
    code, records = run_jsonl(capsys, [
        "fixation", "--N", "10000", "--b", "0.25", "--paintbox", "gamma:1",
        "--x0", "1", "--trials", "200", "--seed", "3"])
    assert code == 0
    (rec,) = records
    assert rec["s"] == pytest.approx(0.1, rel=1e-12)
    assert rec["b"] == pytest.approx(0.25, abs=1e-12)
    assert rec["moderately_strong"] is True


def test_same_argv_same_bytes(capsys):
    argv = ["fixation", "--N", "50", "--s", "0.1", "--paintbox", "gamma:1",
            "--x0", "1", "--trials", "2000", "--seed", "11"]
    _, first = run_jsonl(capsys, argv)
    _, second = run_jsonl(capsys, argv)
    a = json.dumps(strip_clock(first), sort_keys=True)
    b = json.dumps(strip_clock(second), sort_keys=True)
    assert a == b


def test_record_config_round_trip(capsys):
    argv = ["fixation", "--N", "200", "--b", "0.3", "--paintbox",
            "two-point:0.5,1.5,0.5", "--x0", "2", "--trials", "500", "--seed", "9"]
    _, (rec,) = run_jsonl(capsys, argv)
    rebuilt = ["fixation", "--N", str(rec["N"]), "--b", repr(rec["b"]),
               "--paintbox", rec["paintbox"], "--x0", str(rec["x0"]),
               "--trials", str(rec["trials"]), "--seed", str(rec["seed"])]
    _, (rec2,) = run_jsonl(capsys, rebuilt)
    for key in ("N", "s", "b", "paintbox", "x0", "trials", "seed", "p_hat"):
        assert rec2[key] == rec[key], key


GOLDEN_ARGV = ["fixation", "--N", "100", "--b", "0.25", "--x0", "2",
               "--trials", "3000", "--seed", "5", "--paintbox"]


@pytest.mark.parametrize("argv, expected", [
    (GOLDEN_ARGV + ["deterministic"], (2408, 32375, 29)),  # stopped at K = 64
    (GOLDEN_ARGV + ["gamma:1"], (1583, 37582, 47)),
    (GOLDEN_ARGV + ["gamma:2.5"], (2037, 48512, 45)),
    (GOLDEN_ARGV + ["two-point:0.5,1.5,0.5"], (2099, 49873, 45)),
    (GOLDEN_ARGV + ["lognormal:0.7"], (1891, 44910, 51)),
    (GOLDEN_ARGV + ["spiked:0.2"], (361, 18161, 53)),
    (["counterexample", "--N", "1000", "--gamma", "0.1", "--b", "0.45",
      "--trials", "30000", "--seed", "7"], (32, 54519, 23)),
], ids=["deterministic", "gamma:1", "gamma:2.5", "two-point", "lognormal:0.7",
        "spiked:0.2", "counterexample"])
def test_golden_records(capsys, argv, expected):
    # (fixations, total generations, longest trial) pinned at fixed seeds; only
    # deterministic certifies a safe level below N here (gamma:1 has K = 106)
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    assert (rec["fixations"], round(rec["mean_tau"] * rec["trials"]),
            rec["max_tau"]) == expected
    assert rec["trial_generations"] == round(rec["mean_tau"] * rec["trials"])
    assert rec["stop_level"] == (64 if argv[-1] == "deterministic" else rec["N"])


@pytest.mark.parametrize("argv, stop_level", [
    (["fixation", "--N", "10000", "--b", "0.25", "--paintbox", "gamma:1"], 380),
    (["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "deterministic"], 113),
    (["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "spiked:0.4"], 1000),
    (["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "two-point"], 1000),
    (["sweep", "--N", "100", "10000", "--b", "0.25", "--paintbox", "gamma:1"], (100, 380)),
], ids=["gamma:1", "deterministic", "spiked:0.4", "two-point", "sweep"])
def test_records_state_their_stop_level_bound_and_engine(capsys, argv, stop_level):
    code, records = run_jsonl(capsys, argv + ["--trials", "500", "--seed", "2"])
    assert code == 0
    assert tuple(rec["stop_level"] for rec in records) == (
        stop_level if isinstance(stop_level, tuple) else (stop_level,))
    for rec in records:
        if rec["stop_level"] < rec["N"]:
            assert 0.0 < rec["stop_bound"] <= 4.3e-18
        else:
            assert rec["stop_bound"] == 0.0
        assert rec["engine"] == "numpy" or (
            rec["engine"].startswith("native:") and len(rec["engine"]) == 7 + 16)


def test_phases_record_stops_at_the_second_threshold(capsys):
    # gamma:1 certifies K = 380 <= threshold_2 = 1000 here, so every trial stops
    # at 1000 with K's loss bound; version 0.4.1 ran them to N and read
    # (2024, 343692, 234, 2342, 2024) at this seed
    code, (rec,) = run_jsonl(capsys, [
        "phases", "--N", "10000", "--b", "0.25", "--paintbox", "gamma:1", "--delta", "0.05",
        "--eps", "0.1", "--trials", "20000", "--seed", "7", "--parallelism", "2"])
    assert code == 0
    assert rec["stop_level"] == rec["threshold_2"] == 1000
    assert 0.0 < rec["stop_bound"] <= 4.3e-18
    assert (rec["fixations"], rec["trial_generations"], rec["max_tau"], rec["reached_1"],
            rec["reached_2"]) == (2010, 157504, 114, 2341, 2010)
    assert rec["p3"] == 1.0
    # no trial measured p3 past the stop: the record states its certified
    # interval [1 - stop_bound, 1], not the Wilson interval of 2010 out of 2010
    assert rec["p3_ci_low"] == 1.0 - rec["stop_bound"] == 1.0
    assert rec["p3_ci_high"] == 1.0


def test_phases_stopped_far_above_the_safe_level_state_its_bound(capsys):
    # K = 1,245 below threshold_2 = 1e5: the record states e^(-lambda K), since
    # e^(-lambda 1e5) = e^-3213 has no float above 0
    code, (rec,) = run_jsonl(capsys, [
        "phases", "--N", "1000000", "--b", "0.25", "--delta", "0.05", "--eps", "0.1",
        "--trials", "300", "--seed", "1"])
    assert code == 0
    assert rec["stop_level"] == rec["threshold_2"] == 100000
    assert 0.0 < rec["stop_bound"] <= math.exp(-40)


@pytest.mark.parametrize("paintbox, counts", [
    ("gamma:2", (1163, 82040, 112, 1265, 1163)),
    ("two-point", (1404, 98624, 99, 1484, 1404)),
])
def test_phases_record_without_a_certificate_runs_to_absorption(capsys, paintbox, counts):
    # no loss rate, so no stop: version 0.4.1's counts at this seed
    code, (rec,) = run_jsonl(capsys, [
        "phases", "--N", "1000", "--b", "0.25", "--paintbox", paintbox, "--delta", "0.05",
        "--eps", "0.1", "--trials", "5000", "--seed", "7"])
    assert code == 0
    assert (rec["stop_level"], rec["stop_bound"]) == (1000, 0.0)
    assert (rec["fixations"], rec["trial_generations"], rec["max_tau"], rec["reached_1"],
            rec["reached_2"]) == counts


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_gw_survival_record(capsys):
    code, records = run_jsonl(capsys, [
        "gw-survival", "--model", "mixed-poisson", "--y", "gamma:1", "--m", "1.1"])
    assert code == 0
    (rec,) = records
    assert rec["phi"] == pytest.approx(1 / 11, abs=1e-9)
    assert rec["haldane"] == pytest.approx(0.0865801, abs=1e-7)
    assert rec["offspring_variance"] == pytest.approx(2.31)
    assert rec["phi_bound"] <= 1e-12


@pytest.mark.parametrize("kappa", [200, 1000])
def test_gw_survival_gamma_beyond_gamma_function_range(capsys, kappa):
    # Gamma(kappa) overflows a float past kappa ~ 171.6; the atoms must not need it
    m = 1.01
    code, records = run_jsonl(capsys, [
        "gw-survival", "--model", "mixed-poisson", "--y", f"gamma:{kappa}", "--m", str(m)])
    assert code == 0
    (rec,) = records
    assert rec["phi_bound"] <= 1e-12

    def excess(phi):  # 1 - f(1 - phi) - phi for the negative-binomial pgf f
        return -math.expm1(-kappa * math.log1p(m * phi / kappa)) - phi

    lo, hi = 1e-6, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    assert rec["phi"] == pytest.approx(0.5 * (lo + hi), rel=1e-9)


@pytest.mark.parametrize("kappa", ["5.6e-309", "1e-307", "3.3e-306", "3.4e-306", "4e-306",
                                   "5e-306", "1e-305", "1e-300"])
@pytest.mark.parametrize("model", [
    ["mixed-poisson"],
    ["mixed-binomial", "--M", "100", "--N", "100"],
], ids=["poisson", "binomial"])
def test_gw_survival_at_the_smallest_gamma_shapes_fails_only_as_bad_input(capsys, kappa, model):
    # atoms or rates past the float range exit 2; no overflow reaches a run
    code = run_command(["gw-survival", "--model", *model, "--y", f"gamma:{kappa}", "--m", "1.5"])
    assert code in (0, 2)
    assert (code == 0) == (float(kappa) >= 1e-305)


def test_gw_survival_at_gamma_1e_305_solves_as_at_1e_300(capsys):
    # the first step of the weights' recurrence is rescaled before it is squared
    phis = []
    for kappa in ("1e-305", "1e-300"):
        code, (rec,) = run_jsonl(capsys, [
            "gw-survival", "--model", "mixed-poisson", "--y", f"gamma:{kappa}", "--m", "1.5"])
        assert code == 0 and rec["phi_bound"] <= 1e-12
        phis.append(rec["phi"])
    assert phis[0] == pytest.approx(8.62e-14, rel=1e-3) and phis[0] == phis[1]


def test_gw_survival_missing_param_exits_2(capsys):
    assert run_command(["gw-survival", "--model", "plain-poisson"]) == 2
    assert run_command(["gw-survival", "--model", "mixed-binomial",
                        "--y", "gamma:1", "--m", "1.1"]) == 2


@pytest.mark.parametrize("flags", [
    ["--model", "plain-poisson", "--m", "1.5", "--tol", "nan"],
    ["--model", "plain-poisson", "--m", "1.5", "--tol", "-1"],
    ["--model", "mixed-poisson", "--m", "-2"],
    ["--model", "mixed-binomial", "--M", "100", "--N", "0", "--m", "1.5"],
], ids=["tol-nan", "tol-negative", "mean-negative", "scale-zero"])
def test_gw_survival_bad_law_or_tolerance_exits_2(capsys, flags):
    assert run_command(["gw-survival", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# a valid value for each gw-survival model flag
GW_FLAG_VALUES = {"y": "gamma:1", "m": "1.1", "M": "90", "N": "100", "beta_s": "0.1", "p": "0.6"}


def _gw_argv(model, flags):
    argv = ["gw-survival", "--model", model]
    for flag in flags:
        argv += ["--" + flag.replace("_", "-"), GW_FLAG_VALUES[flag]]
    return argv


@pytest.mark.parametrize("model, flag", [
    (model, flag) for model, (_, flags) in cli._GW_MODELS.items()
    for flag in GW_FLAG_VALUES if flag not in flags])
def test_gw_survival_flag_outside_the_model_exits_2(capsys, model, flag):
    flags = cli._GW_MODELS[model][1]
    assert run_command(_gw_argv(model, [*flags, flag])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model} takes no --{flag.replace('_', '-')}\n"


def test_gw_survival_records_the_flags_of_its_model(capsys):
    # a mixed model without --y mixes over gamma:1 and says so
    for model in ("mixed-poisson", "mixed-binomial"):
        flags = [f for f in cli._GW_MODELS[model][1] if f != "y"]
        _, (bare,) = run_jsonl(capsys, _gw_argv(model, flags))
        _, (given,) = run_jsonl(capsys, _gw_argv(model, ["y", *flags]))
        assert bare["y"] == "gamma:1"
        assert strip_clock([bare]) == strip_clock([given])
    _, (rec,) = run_jsonl(capsys, _gw_argv("binary", ["p"]))
    assert rec["p"] == 0.6
    assert all(rec[f] is None for f in ("y", "m", "M", "N", "beta_s"))


@pytest.mark.parametrize("model", sorted(cli._GW_MODELS))
def test_gw_survival_model_is_the_flag_value(capsys, model):
    # the parameters live in their own cells, not in the model name
    flags = cli._GW_MODELS[model][1]
    code, (rec,) = run_jsonl(capsys, _gw_argv(model, flags))
    assert code == 0
    assert rec["model"] == model
    assert {f for f in cli._GW_FLAGS if rec[f] is not None} == set(flags)


def test_gw_survival_records_the_canonical_mixing_law(capsys):
    argv = ["gw-survival", "--model", "mixed-poisson", "--m", "1.1"]
    _, (bare,) = run_jsonl(capsys, argv)
    _, (spelled,) = run_jsonl(capsys, [*argv, "--y", "gamma:1.0"])
    assert spelled["y"] == "gamma:1"
    assert strip_clock([spelled]) == strip_clock([bare])
    _, (rec,) = run_jsonl(capsys, [*argv, "--y", "two-point"])
    assert rec["y"] == "two-point:0.5,1.5,0.5"


def test_gw_survival_record_key_for_key(capsys):
    code, (rec,) = run_jsonl(capsys, [
        "gw-survival", "--model", "mixed-poisson", "--y", "two-point", "--m", "1.5"])
    assert code == 0
    for key in ("version", "numpy_version", "python_version", "wall_clock_seconds"):
        del rec[key]
    # offspring Pois(1.5 Y), Y in {0.5, 1.5}: variance 1.5^2 * 0.25 + 1.5
    assert rec == {
        "command": "gw-survival", "stream_layout": None, "seed": None, "trials": None,
        "parallelism": None, "level": None,
        "model": "mixed-poisson", "y": "two-point:0.5,1.5,0.5", "m": 1.5,
        "M": None, "N": None, "beta_s": None, "p": None, "tol": 1e-12,
        "phi": pytest.approx(0.48380674313597444, abs=1e-13), "iterations": 7,
        "phi_bound": pytest.approx(0.0, abs=1e-12),
        "offspring_mean": 1.5, "offspring_variance": 2.0625, "haldane": 1.0 / 2.0625,
    }


@pytest.mark.parametrize("flags, phi", [
    (["--model", "two-point-immortal", "--beta-s", "1"], 1.0),
    (["--model", "binary", "--p", "1"], 1.0),
    (["--model", "plain-poisson", "--m", "0"], 0.0),
    (["--model", "binary", "--p", "0"], 0.0),
    # mean 1 without deaths: every line has exactly one child
    (["--model", "two-point-immortal", "--beta-s", "0"], 1.0),
    (["--model", "mixed-binomial", "--y", "deterministic", "--M", "1", "--N", "10",
      "--m", "10"], 1.0),
    # the clamp min(Y m / N, 1) leaves Bin(1, .) mass at 0 that the
    # analytic variance 0 does not see
    (["--model", "mixed-binomial", "--y", "gamma:1", "--M", "1", "--N", "10",
      "--m", "10"], 0.0),
    # no offspring at all, also at an atom clamped to p = 1, where
    # M * log(1 - p phi) would be 0 * -inf
    (["--model", "mixed-binomial", "--M", "0", "--N", "1", "--m", "1.5"], 0.0),
], ids=["immortal-doubling", "binary-doubling", "poisson-barren", "binary-barren",
        "immortal-single", "binomial-certain", "binomial-clamped", "binomial-no-offspring"])
def test_gw_survival_zero_variance_has_no_haldane_reference(capsys, flags, phi):
    code, (rec,) = run_jsonl(capsys, ["gw-survival", *flags])
    assert code == 0
    assert rec["offspring_variance"] == 0.0
    assert rec["phi"] == phi and rec["phi_bound"] == 0.0
    assert rec["haldane"] is None


@pytest.mark.parametrize("argv, cells", [
    (["fixation", "--N", "100", "--s", "0.1", "--paintbox", "two-point:1e200,1,1e-200",
      "--trials", "5", "--seed", "1"], {"ref_variance": 2.5e199}),
    (["fixation", "--N", "100", "--s", "0.1", "--paintbox", "gamma:1e-300",
      "--trials", "5", "--seed", "1"], {"ref_variance": 1e300}),
    (["gw-survival", "--model", "mixed-poisson", "--y", "gamma:1", "--m", "1e200"],
     {"phi": 1.0, "offspring_variance": None}),
    (["gw-survival", "--model", "mixed-binomial", "--y", "gamma:1", "--M", "10",
      "--N", "1", "--m", "1e200"], {"phi": 1.0, "offspring_variance": None}),
    # M**2 = 1e320 has no float; the variance, about m + m^2 (E[Y^2] - 1) = 3.75, does
    (["gw-survival", "--model", "mixed-binomial", "--y", "gamma:1", "--M", str(10**160),
      "--N", str(10**160), "--m", "1.5"], {"phi": 1 / 3, "offspring_variance": 3.75}),
], ids=["two-point-huge-atom", "gamma-tiny-shape", "poisson-huge-mean", "binomial-huge-mean",
        "binomial-huge-count"])
def test_huge_second_moments_give_a_record(capsys, argv, cells):
    # a square taken with ** raises OverflowError where a product is a float or inf
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    assert {key: rec[key] for key in cells} == pytest.approx(cells)


def test_counterexample_record(capsys):
    code, records = run_jsonl(capsys, [
        "counterexample", "--N", "200", "--gamma", "0.1", "--b", "0.45",
        "--trials", "2000", "--seed", "5"])
    assert code == 0
    (rec,) = records
    assert rec["gamma"] == 0.1
    assert rec["neutral_floor"] == pytest.approx(1 / 200)
    assert isinstance(rec["violation"], bool)
    # the 2s/rho^2 prediction is the record's haldane alone
    assert "naive_prediction" not in rec
    assert rec["violation"] == (rec["ci_low"] > 2 * rec["haldane"])


def test_counterexample_clamped_prediction_is_no_violation(capsys):
    # at N = 2, 2s/rho^2 = 1.67 is clamped to haldane = 1, and twice that
    # is beyond any interval
    code, (rec,) = run_jsonl(capsys, [
        "counterexample", "--N", "2", "--gamma", "0.1", "--b", "0.45",
        "--trials", "2000", "--seed", "1"])
    assert code == 0
    assert 2 * rec["s"] / rec["ref_variance"] > 1.0 == rec["haldane"]
    assert rec["violation"] is False


@pytest.mark.parametrize("command", sorted(_MC_ARGV))
def test_fixation_records_carry_the_standard_error(capsys, command):
    code, records = run_jsonl(capsys, _MC_ARGV[command] + ["--trials", "5000", "--seed", "3"])
    assert code == 0
    for rec in records:
        p, n = rec["p_hat"], rec["trials"]
        assert 0 < p < 1
        assert rec["p_hat_stderr"] == math.sqrt(p * (1.0 - p) / n)


def test_phases_record_carries_each_phase_interval(capsys, tmp_path):
    argv = ["phases", "--N", "1000", "--b", "0.2", "--delta", "0.15", "--eps", "0.1",
            "--trials", "2000", "--seed", "4", "--level", "0.9"]
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    # the counts behind each phase ratio, back from the record
    n = rec["trials"]
    n1 = round(rec["p1"] * n)
    n2 = round(rec["p2"] * n1)
    nfix = rec["fixations"]
    assert 0 < nfix <= n2 < n1 < n
    assert rec["p3"] == nfix / n2
    for i, (hits, tries) in enumerate([(n1, n), (n2, n1), (nfix, n2)], 1):
        lo, hi = analysis.wilson_interval(hits, tries, 0.9)
        assert (rec[f"p{i}_ci_low"], rec[f"p{i}_ci_high"]) == (lo, hi)
        assert lo <= rec[f"p{i}"] <= hi
    out = tmp_path / "phases.csv"
    assert run_command(argv + ["--format", "csv", "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    new = ["p_hat_stderr"] + [f"p{i}_ci_{end}" for i in (1, 2, 3) for end in ("low", "high")]
    assert [float(row[k]) for k in new] == [rec[k] for k in new]


def test_phases_record_counts_the_trials_reaching_each_level(capsys):
    code, (rec,) = run_jsonl(capsys, [
        "phases", "--N", "1000", "--b", "0.2", "--delta", "0.15", "--eps", "0.1",
        "--trials", "2000", "--seed", "4"])
    assert code == 0
    assert 0 < rec["reached_2"] <= rec["reached_1"]
    assert rec["reached_1"] / rec["trials"] == rec["p1"]
    assert rec["reached_2"] / rec["reached_1"] == rec["p2"]

def test_moments_table(capsys):
    code, records = run_jsonl(capsys, [
        "moments", "--paintbox", "gamma:1", "--N", "100", "1000",
        "--p", "2", "--trials", "5000", "--seed", "2"])
    assert code == 0
    assert len(records) == 2
    assert {rec["N"] for rec in records} == {100, 1000}
    for rec in records:
        assert rec["moment_value"] > 0 and rec["moment_stderr"] > 0


@pytest.mark.parametrize("paintbox", ["deterministic", "gamma:1", "two-point:0.5,1.5,0.3"])
@pytest.mark.parametrize("N", ["0", "-3"])
def test_moments_nonpositive_population_exits_2(capsys, paintbox, N):
    assert run_command(["moments", "--paintbox", paintbox, "--N", N,
                        "--trials", "10", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: need N >= 1, got {N}")


def test_moments_spiked_runs(capsys):
    code, records = run_jsonl(capsys, [
        "moments", "--paintbox", "spiked:0.1", "--N", "100", "1000",
        "--p", "2", "3", "--trials", "2000", "--seed", "1"])
    assert code == 0
    assert [(rec["N"], rec["moment_p"]) for rec in records] == [
        (100, 2), (100, 3), (1000, 2), (1000, 3)]
    for rec in records:
        assert rec["paintbox"] == "spiked:0.1"
        assert rec["moment_value"] > 0 and rec["moment_stderr"] > 0


def test_moments_cells_draw_from_their_own_streams(capsys):
    code, records = run_jsonl(capsys, [
        "moments", "--N", "100", "100", "--p", "2", "--trials", "500", "--seed", "2"])
    assert code == 0
    assert records[0]["moment_value"] != records[1]["moment_value"]
    assert {rec["stream_layout"] for rec in records} == {"sfc64(seed, cell)"}


def test_records_name_numpy_and_stream_layout(capsys):
    _, (rec,) = run_jsonl(capsys, ["fixation", "--N", "20", "--s", "0.1",
                                   "--trials", "50", "--seed", "1"])
    assert rec["numpy_version"] == np.__version__
    assert rec["python_version"] == platform.python_version()
    assert rec["stream_layout"] == f"sfc64(seed, equal block<={BLOCK_TRIALS})"
    _, (rec,) = run_jsonl(capsys, ["gw-survival", "--model", "binary", "--p", "0.6"])
    assert rec["numpy_version"] == np.__version__
    assert rec["python_version"] == platform.python_version()
    assert rec["stream_layout"] is None  # draws nothing


@pytest.mark.parametrize("argv", [
    ["fixation", "--N", "20", "--s", "0.1"],
    ["sweep", "--N", "20", "30", "--b", "0.3"],
    ["phases", "--N", "1000", "--b", "0.2", "--delta", "0.15", "--eps", "0.1"],
    ["counterexample", "--N", "200", "--gamma", "0.1", "--b", "0.45"],
    ["moments", "--N", "100", "200"],
], ids=lambda argv: argv[0])
def test_monte_carlo_layouts_name_the_bit_generator(capsys, argv):
    # the layout names the bit generator the streams are actually built on
    name = type(trial_rng(0, 0).bit_generator).__name__.lower()
    code, records = run_jsonl(capsys, argv + ["--trials", "50", "--seed", "1"])
    assert code == 0 and records
    for rec in records:
        assert rec["stream_layout"].startswith(name + "("), rec["stream_layout"]


def test_moments_runs_serially(capsys):
    argv = ["moments", "--N", "100", "--trials", "500", "--seed", "2"]
    assert run_command(argv + ["--parallelism", "2"]) == 2
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    assert rec["parallelism"] is None


def test_moments_takes_no_confidence_level(capsys):
    # a moments cell reports a standard error, not an interval
    argv = ["moments", "--N", "100", "--trials", "500", "--seed", "2"]
    assert run_command(argv + ["--level", "0.5"]) == 2
    assert capsys.readouterr().out == ""
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    assert rec["level"] is None


def test_sweep_streams_records(capsys):
    code, records = run_jsonl(capsys, [
        "sweep", "--N", "50", "100", "--b", "0.3", "--paintbox", "gamma:1",
        "--x0", "1", "--trials", "2000", "--seed", "13"])
    assert code == 0
    assert [rec["N"] for rec in records] == [50, 100]
    for rec in records:
        assert rec["s"] == pytest.approx(rec["N"] ** -0.3, rel=1e-12)


def test_each_record_carries_its_own_wall_clock(capsys, monkeypatch):
    # one clock reading before the first experiment and one after each
    readings = iter([10.0, 10.25, 11.0, 12.5])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(readings))
    code, records = run_jsonl(capsys, [
        "sweep", "--N", "20", "30", "40", "--b", "0.3", "--trials", "20",
        "--seed", "1"])
    assert code == 0
    assert [rec["wall_clock_seconds"] for rec in records] == [0.25, 0.75, 1.5]


def test_work_fields_are_the_same_at_one_and_two_workers(capsys):
    # three blocks, each its own lockstep run of max_tau generations at most
    argv = ["fixation", "--N", "20", "--s", "0.1", "--trials", str(2 * BLOCK_TRIALS + 3),
            "--seed", "6", "--format", "csv", "--parallelism"]
    rows = []
    for workers in ("1", "2"):
        assert run_command(argv + [workers]) == 0
        rows.append(next(csv.DictReader(io.StringIO(capsys.readouterr().out))))
    work = ("trial_generations", "lockstep_generations")
    assert [rows[0][k] for k in work] == [rows[1][k] for k in work]
    row = rows[0]
    trials, max_tau = int(row["trials"]), int(row["max_tau"])
    assert int(row["trial_generations"]) == round(float(row["mean_tau"]) * trials)
    assert max_tau < int(row["lockstep_generations"]) <= 3 * max_tau


def test_csv_output(capsys, tmp_path):
    out = tmp_path / "res.csv"
    code = run_command([
        "fixation", "--N", "50", "--s", "0.1", "--paintbox", "gamma:1",
        "--x0", "1", "--trials", "500", "--seed", "4",
        "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["N"] == "50"
    assert rows[0]["p_hat"] != ""
    assert rows[0]["phi"] == ""  # inapplicable column left empty


def test_csv_out_appends_rows_under_one_header(capsys, tmp_path):
    out = tmp_path / "res.csv"
    out.touch()  # an empty file takes the header, like a missing one
    argv = ["gw-survival", "--model", "plain-poisson", "--m", "1.1",
            "--format", "csv", "--out", str(out)]
    assert run_command(argv) == 0
    assert run_command(argv) == 0
    lines = out.read_text().splitlines()
    assert lines.count(",".join(CSV_COLUMNS)) == 1
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert rows[0] == rows[1] | {"wall_clock_seconds": rows[0]["wall_clock_seconds"]}


def test_every_csv_column_is_filled(capsys):
    mc = ["--trials", "200", "--seed", "1"]
    runs = [
        ["fixation", "--N", "50", "--b", "0.3", *mc],
        ["sweep", "--N", "50", "100", "--b", "0.3", *mc],
        ["phases", "--N", "1000", "--b", "0.2", "--delta", "0.15", "--eps", "0.1", *mc],
        ["gw-survival", "--model", "mixed-binomial", "--m", "1.1", "--M", "90", "--N", "100"],
        ["gw-survival", "--model", "two-point-immortal", "--beta-s", "0.1"],
        ["gw-survival", "--model", "binary", "--p", "0.6"],
        ["counterexample", "--N", "200", "--gamma", "0.1", "--b", "0.45", *mc],
        ["moments", "--N", "100", *mc],
    ]
    # one run at least of every subcommand, so a new one cannot leave a column unchecked
    assert {argv[0] for argv in runs} == set(cli._HANDLERS)
    keys, filled = set(), set()
    for argv in runs:
        code, records = run_jsonl(capsys, argv)
        assert code == 0, argv
        keys.update(k for rec in records for k in rec)
        filled.update(k for rec in records for k, v in rec.items() if v is not None)
    # every record field has a column, and every column is filled by some record
    assert keys == set(CSV_COLUMNS), keys ^ set(CSV_COLUMNS)
    assert set(CSV_COLUMNS) <= filled, set(CSV_COLUMNS) - filled


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("argv, fields", [
    # one trial: the standard error is infinite
    (["moments", "--paintbox", "gamma:1", "--N", "10", "--trials", "1", "--seed", "1"],
     ["moment_stderr"]),
    # no trial reaches the first level, so p2 and p3 are 0/0
    (["phases", "--N", "1000", "--b", "0.25", "--paintbox", "gamma:1", "--delta", "0.05",
      "--eps", "0.1", "--trials", "3", "--seed", "1"],
     ["p2", "p3"]),
])
def test_non_finite_fields_are_null(capsys, tmp_path, argv, fields):
    assert run_command(argv) == 0
    (line,) = capsys.readouterr().out.splitlines()
    rec = json.loads(line, parse_constant=_reject_constant)
    assert all(rec[f] is None for f in fields)
    out = tmp_path / "res.csv"
    assert run_command([*argv, "--format", "csv", "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    assert all(row[f] == "" for f in fields)


def test_jsonl_out_appends(capsys, tmp_path):
    out = tmp_path / "res.jsonl"
    argv = ["fixation", "--N", "20", "--s", "0", "--trials", "100",
            "--seed", "1", "--out", str(out)]
    assert run_command(argv) == 0
    assert run_command(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["p_hat"] == json.loads(lines[1])["p_hat"]


def test_summary_line_on_stderr(capsys):
    run_command(["fixation", "--N", "20", "--s", "0", "--trials", "100",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert "fixation" in captured.err
    assert "p_hat=" in captured.err


def test_parallelism_env_default(capsys, monkeypatch):
    # the worker count comes from --parallelism alone, default 1; a set variable changes nothing
    argv = ["fixation", "--N", "20", "--s", "0", "--trials", "50", "--seed", "1"]
    for value in ("3", "junk", "0"):
        monkeypatch.setenv("HALDANE_PARALLELISM", value)
        code, (rec,) = run_jsonl(capsys, argv)
        assert code == 0
        assert rec["parallelism"] == 1
    _, (rec,) = run_jsonl(capsys, [*argv, "--parallelism", "2"])
    assert rec["parallelism"] == 2


def test_parallelism_env_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process, and no call reads the environment
    argv = ["fixation", "--N", "20", "--s", "0", "--trials", "50", "--seed", "1"]
    seen = []
    for workers in ("2", "junk"):
        monkeypatch.setenv("HALDANE_PARALLELISM", workers)
        _, (rec,) = run_jsonl(capsys, argv)
        seen.append(rec["parallelism"])
    assert seen == [1, 1]
    assert cli.build_parser() is cli.build_parser()


def test_csv_out_under_a_foreign_header_exits_2_before_any_trial(capsys, tmp_path, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(analysis, "run_ensemble", no_trials)
    argv = ["fixation", "--N", "100", "--s", "0.1", "--trials", "100", "--seed", "1",
            "--format", "csv", "--out"]
    for text in ("command,version,N\nfixation,0.0.1,100\n", '{"command": "fixation"}\n'):
        out = tmp_path / "old.csv"
        out.write_text(text)
        assert run_command([*argv, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: first row is not this version's CSV header\n"
        assert out.read_text() == text


def _refused_before_any_trial(capsys, monkeypatch, argv, *names):
    def trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(analysis, "run_ensemble", trial)
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert all(name in captured.err for name in names)


_OUT_ARGV = ["fixation", "--N", "20", "--s", "0.1", "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize("fmt, other", [("csv", "jsonl"), ("jsonl", "csv")])
def test_out_in_the_other_format_exits_2_before_any_trial(capsys, tmp_path, monkeypatch,
                                                          fmt, other):
    out = tmp_path / f"res.{fmt}"
    assert run_command([*_OUT_ARGV, "--format", fmt, "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    _refused_before_any_trial(capsys, monkeypatch,
                              [*_OUT_ARGV, "--format", other, "--out", str(out)], str(out))
    assert out.read_bytes() == before


def test_jsonl_out_into_an_empty_file(capsys, tmp_path):
    # the CSV case is test_csv_out_appends_rows_under_one_header
    out = tmp_path / "res.jsonl"
    out.write_text("")
    assert run_command([*_OUT_ARGV, "--out", str(out)]) == 0
    (line,) = out.read_text().splitlines()
    assert json.loads(line)["command"] == "fixation"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("where", ["missing directory", "directory", "under a file", "empty"])
def test_out_path_that_cannot_be_written_exits_2_before_any_trial(capsys, tmp_path,
                                                                  monkeypatch, fmt, where):
    (tmp_path / "a_file").write_text("")
    out = {"missing directory": tmp_path / "nodir" / "x.out",
           "directory": tmp_path,
           "under a file": tmp_path / "a_file" / "x.out",
           "empty": ""}[where]
    _refused_before_any_trial(capsys, monkeypatch,
                              [*_OUT_ARGV, "--format", fmt, "--out", str(out)], str(out))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


def test_out_that_fails_after_the_run_exits_1(capsys, tmp_path, monkeypatch):
    # the directory of --out goes away while the trials run
    sub = tmp_path / "sub"
    sub.mkdir()
    run_ensemble = analysis.run_ensemble

    def run_then_remove(*args, **kwargs):
        sub.rmdir()
        return run_ensemble(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_ensemble", run_then_remove)
    assert run_command([*_OUT_ARGV, "--out", str(sub / "x.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("failure: cannot write output")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_out_into_a_fifo(capsys, tmp_path, fmt):
    # a pipe cannot seek: the records still go out, a CSV under one header
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    drained = []
    reader = threading.Thread(target=lambda: drained.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_command([*_OUT_ARGV, "--format", fmt, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    (text,) = drained
    lines = text.splitlines()
    assert len(lines) == {"jsonl": 1, "csv": 2}[fmt]
    if fmt == "csv":
        assert lines[0] == ",".join(CSV_COLUMNS)
    else:
        assert json.loads(lines[0])["command"] == "fixation"


def test_sweep_checks_every_n_before_any_trial(capsys, monkeypatch):
    argv = ["sweep", "--N", "100", "1", "--b", "0.3", "--trials", "50", "--seed", "1"]
    _refused_before_any_trial(capsys, monkeypatch, argv, "N >= 2")


def test_gamma_solve_and_one_block_run_import_no_scipy_or_pool():
    # a fresh interpreter, since the test process has everything loaded.
    # Each command loads only the layers it runs: a solve needs neither
    # the Monte Carlo layers nor numpy's lazily loaded numpy.random, a
    # moments table adds only the streams, CSV output adds `csv`, and a
    # one-block run imports neither scipy nor a worker pool
    script = (
        "import contextlib, io, sys\n"
        "from haldane.cli import run_command\n"
        "def run(*argv):\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = run_command(list(argv))\n"
        "    new = set(sys.modules) - before\n"
        "    watched = ('statistics', 'csv', 'numpy.random', 'scipy', 'concurrent.futures',"
        " 'multiprocessing')\n"
        "    print(code, sorted(m for m in new if m.startswith('haldane.') or m in watched))\n"
        "print(sorted(m for m in sys.modules if m.startswith('haldane')))\n"
        "run('gw-survival', '--model', 'mixed-poisson', '--y', 'gamma:1', '--m', '1.1')\n"
        "run('gw-survival', '--model', 'binary', '--p', '0.51')\n"
        "run('moments', '--N', '10', '--trials', '5', '--seed', '1')\n"
        "run('gw-survival', '--model', 'binary', '--p', '0.51', '--format', 'csv')\n"
        "run('fixation', '--N', '20', '--s', '0.1', '--trials', '50', '--seed', '1',"
        " '--parallelism', '2')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(haldane.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['haldane', 'haldane.branching', 'haldane.cli', 'haldane.paintbox']",
        "0 []",
        "0 []",
        "0 ['haldane.streams', 'numpy.random']",
        "0 ['csv']",
        "0 ['haldane.analysis', 'haldane.cannings', 'statistics']",
    ]


# ---------------------------------------------------------------------------
# the native lockstep block and its fallback
# ---------------------------------------------------------------------------


def _numpy_path_records(capsys, monkeypatch, argv):
    with monkeypatch.context() as m:
        m.setattr(cannings, "_lockstep_block", lambda: None)
        code, records = run_jsonl(capsys, argv)
    assert code == 0
    return strip_clock(records)


@pytest.mark.parametrize("argv", [
    ["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "gamma:0.5", "--x0", "3",
     "--trials", str(BLOCK_TRIALS + 7232), "--seed", "3"],
    ["phases", "--N", "1000", "--b", "0.25", "--paintbox", "gamma:1", "--delta", "0.05",
     "--eps", "0.1", "--trials", str(BLOCK_TRIALS + 7232), "--seed", "7", "--parallelism", "2"],
    ["counterexample", "--N", "1000", "--gamma", "0.1", "--b", "0.45",
     "--trials", str(BLOCK_TRIALS + 7232), "--seed", "7"],
    ["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "deterministic", "--x0", "2",
     "--trials", "5000", "--seed", "3"],
    ["fixation", "--N", "10000", "--b", "0.25", "--paintbox", "gamma:1",
     "--trials", "5000", "--seed", "3"],
    ["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "spiked:0.4",
     "--trials", "5000", "--seed", "3"],
], ids=["two-blocks", "phases-two-workers", "counterexample-two-blocks", "deterministic",
        "gamma:1-stopped", "spiked:0.4"])
def test_native_generation_records_are_the_numpy_records(capsys, monkeypatch, argv):
    # equal apart from the engine each names
    code, records = run_jsonl(capsys, argv)
    assert code == 0
    native, numpy_path = strip_clock(records), _numpy_path_records(capsys, monkeypatch, argv)
    if cannings._lockstep_block() is not None:
        digest = cannings._lockstep_digest(cannings._LOCKSTEP_SOURCE)
        assert native[0]["engine"] == f"native:{digest}"
    assert numpy_path[0]["engine"] == "numpy"
    assert [strip_engine(r) for r in native] == [strip_engine(r) for r in numpy_path]


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An empty cache and no loader answer yet; the real loader comes back afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cannings._lockstep_block.cache_clear()
    yield tmp_path
    cannings._lockstep_block.cache_clear()


def _configure_cc(monkeypatch, cc):
    import sysconfig

    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else config_var(name))


def _no_compiler(monkeypatch, tmp_path):
    _configure_cc(monkeypatch, str(tmp_path / "no-cc"))


def _no_compiler_configured(monkeypatch, tmp_path):
    _configure_cc(monkeypatch, None)


def _compile_error(monkeypatch, tmp_path):
    source = tmp_path / "_lockstep.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(cannings, "_LOCKSTEP_SOURCE", source)


def _unwritable_cache(monkeypatch, tmp_path):
    (tmp_path / "file").write_text("")  # a directory under a file cannot be made, even by root
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))


@pytest.mark.parametrize("fault", [_no_compiler, _no_compiler_configured, _compile_error,
                                   _unwritable_cache])
def test_native_generation_falls_back_once_per_process(capsys, monkeypatch, fresh_loader, fault):
    commands = (
        ["fixation", "--N", "1000", "--b", "0.25", "--paintbox", "gamma:1",
         "--trials", "2000", "--seed", "5"],
        ["counterexample", "--N", "1000", "--gamma", "0.1", "--b", "0.45",
         "--trials", "2000", "--seed", "5"],
    )
    expected = [_numpy_path_records(capsys, monkeypatch, argv) for argv in commands]
    fault(monkeypatch, fresh_loader)
    builds = []
    build = cannings._build_lockstep
    monkeypatch.setattr(cannings, "_build_lockstep",
                        lambda target: builds.append(target) or build(target))
    for _ in range(2):
        for argv, records_then in zip(commands, expected):
            code, records = run_jsonl(capsys, argv)
            assert code == 0
            assert strip_clock(records) == records_then
    assert len(builds) == 1
    assert cannings._lockstep_block() is None


def test_two_worker_threads_build_the_library_once(capsys, monkeypatch, fresh_loader):
    # with an empty cache both threads of a two-block run ask for the library
    # at once (a slow build makes sure they overlap); the second waits for
    # the first build and loads its library
    builds = []
    build = cannings._build_lockstep

    def slow_build(target):
        builds.append(target)
        time.sleep(0.2)
        build(target)

    monkeypatch.setattr(cannings, "_build_lockstep", slow_build)
    code, _ = run_jsonl(capsys, ["fixation", "--N", "1000", "--b", "0.25", "--paintbox",
                                 "gamma:1", "--trials", str(2 * BLOCK_TRIALS), "--seed", "5",
                                 "--parallelism", "2"])
    assert code == 0
    if cannings._lockstep_block() is None:
        pytest.skip("the native lockstep block cannot be built here")
    assert len(builds) == 1


def test_two_revisions_that_share_a_cache_build_once_each(monkeypatch, fresh_loader):
    # two checkouts of different `_lockstep.c` revisions that take turns in
    # one cache each build their library once, and nothing else there goes
    from importlib.machinery import EXTENSION_SUFFIXES

    cache_dir = fresh_loader / "cache" / "haldane"
    cache_dir.mkdir(parents=True)
    suffix = EXTENSION_SUFFIXES[0]
    kept = [
        cache_dir / "notes.txt",
        cache_dir / f"tmp1a2b3c4d{suffix}",  # a build's mkstemp temporary
        cache_dir / f"_lockstep-0.0.0-0123456789abcdef{suffix}",  # another numpy
        cache_dir / f"_lockstep-{np.__version__}-0123456789abcdef.abi3.so",  # another interpreter
    ]
    for path in kept:
        path.write_text("")
    revised = fresh_loader / "_lockstep.c"
    revised.write_text(cannings._LOCKSTEP_SOURCE.read_text() + "/* another revision */\n")
    builds = []
    build = cannings._build_lockstep
    monkeypatch.setattr(cannings, "_build_lockstep",
                        lambda target: builds.append(target) or build(target))
    for source in (cannings._LOCKSTEP_SOURCE, revised) * 2:
        monkeypatch.setattr(cannings, "_LOCKSTEP_SOURCE", source)
        cannings._lockstep_block.cache_clear()
        if cannings._lockstep_block() is None:
            pytest.skip("the native lockstep block cannot be built here")
    assert len(builds) == 2
    assert all(path.exists() for path in (*builds, *kept))
