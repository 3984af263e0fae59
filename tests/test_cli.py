import concurrent.futures
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import haldane
from haldane import analysis, cli
from haldane.analysis import BLOCK_TRIALS
from haldane.cli import CSV_COLUMNS, run_command
from haldane.streams import trial_rng


def run_jsonl(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


def strip_clock(records):
    return [{k: v for k, v in rec.items() if k != "wall_clock_seconds"} for rec in records]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert run_command(["fixation", "--N", "10", "--s", "0", "--trials", "5",
                        "--seed", "1", "--bogus"]) == 2


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


def test_nan_success_probability_is_a_runtime_failure(capsys):
    # at N = 2 both Gamma(0.001) block masses underflow to 0, so the
    # chance a child is beneficial is 0/0: the run fails, its input is valid
    assert run_command(["fixation", "--N", "2", "--s", "0.1", "--paintbox", "gamma:0.001",
                        "--trials", "100", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: FloatingPointError")


def _raise(*args):
    raise RuntimeError("ensemble failed")


def _die(*args):
    os._exit(3)


@pytest.mark.parametrize("fault, name", [(_raise, "RuntimeError"), (_die, "BrokenProcessPool")])
def test_failing_pool_worker_exits_1(capsys, monkeypatch, fault, name):
    # forked workers inherit the patched ensemble; three blocks start the pool
    monkeypatch.setattr(analysis, "run_ensemble", fault)
    assert run_command(["fixation", "--N", "20", "--s", "0.1",
                        "--trials", str(2 * BLOCK_TRIALS + 1), "--seed", "1",
                        "--parallelism", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"failure: {name}")


class _PoolThatCannotStart:
    """Stands in for ProcessPoolExecutor when the system refuses new processes."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        raise BlockingIOError(11, "Resource temporarily unavailable")


def test_pool_that_cannot_start_exits_1(capsys, monkeypatch):
    # an OSError of the system, not of the input, is a runtime failure
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolThatCannotStart)
    assert run_command(["fixation", "--N", "20", "--s", "0.1",
                        "--trials", str(2 * BLOCK_TRIALS + 1), "--seed", "1",
                        "--parallelism", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: BlockingIOError")


def test_missing_samples_file_exits_2(capsys):
    assert run_command(["duality", "--N", "10", "--k", "2",
                        "--samples", "/nonexistent/aeq.txt"]) == 2


_FIX_ARGV = ["fixation", "--N", "100", "--s", "0.1", "--trials", "10", "--seed", "1"]


@pytest.mark.parametrize("argv, samples, message", [
    (_FIX_ARGV + ["--paintbox", "gamma:-1"], None, "Gamma shape must be > 0, got -1.0"),
    (_FIX_ARGV + ["--paintbox", "nope"], None, "unknown paintbox 'nope'"),
    (_FIX_ARGV + ["--paintbox", "two-point:1,1,1.5"], None,
     "TwoPoint probability must be in (0,1), got 1.5"),
    (["fixation", "--N", "100", "--s", "0.1", "--trials", "0", "--seed", "1"], None,
     "need trials >= 1, got 0"),
    (["gw-survival", "--model", "plain-poisson", "--m", "-1"], None,
     "mean factor must be finite and >= 0, got -1.0"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "lognormal:1", "--m", "1.5"], None,
     "lognormal:1 has no mixing atoms"),
    (["gw-survival", "--model", "binary", "--p", "0.6", "--tol", "0"], None,
     "tolerance must be > 0, got 0.0"),
    (["duality", "--N", "10", "--k", "2"], "1\n2\nx\n", "{path}:3: not an integer: 'x'"),
    (["duality", "--N", "10", "--k", "2"], "1\n30\n", "ancestral-line count 30 outside [1, 10]"),
    (["duality", "--N", "10", "--k", "11"], "1\n2\n", "beneficial count 11 outside [0, 10]"),
    (["moments", "--N", "0", "--trials", "10", "--seed", "1"], None, "need N >= 1, got 0"),
    (["moments", "--N", "10", "--trials", "0", "--seed", "1"], None,
     "need trials >= 1, got 0"),
    # one index leaves no other to share the spike's remainder
    (["moments", "--paintbox", "spiked:0.2", "--N", "1", "--trials", "10", "--seed", "1"], None,
     "the spiked paintbox needs N >= 2, got 1"),
    # inputs whose checks a run would otherwise trip as a ZeroDivisionError,
    # a numpy ValueError or a non-converging eigensolve
    (["fixation", "--N", "0", "--b", "0.25", "--trials", "10", "--seed", "1"], None,
     "need N >= 2, got 0"),
    (_FIX_ARGV + ["--paintbox", "gamma:abc"], None,
     "could not convert string to float: 'abc'"),
    (_FIX_ARGV + ["--paintbox", "two-point:inf,1,0.5"], None,
     "TwoPoint values must be finite and > 0, got a=inf, b=1.0"),
    (["gw-survival", "--model", "mixed-poisson", "--y", "gamma:inf", "--m", "1.5"], None,
     "Gamma shape must be finite, got inf"),
], ids=["gamma-shape", "unknown-paintbox", "two-point-probability", "trials-zero",
        "mean-negative", "no-atoms", "tol-zero", "samples-not-integer", "samples-too-large",
        "k-too-large", "moments-N-zero", "moments-trials-zero", "moments-spiked-N-one",
        "N-zero-with-exponent",
        "paintbox-not-a-number", "two-point-infinite", "gamma-infinite"])
def test_bad_input_exits_2_with_its_message(capsys, tmp_path, argv, samples, message):
    if samples is not None:
        path = tmp_path / "aeq.txt"
        path.write_text(samples)
        argv = argv + ["--samples", str(path)]
        message = message.format(path=path)
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
    (GOLDEN_ARGV + ["deterministic"], (2424, 57019, 43)),
    (GOLDEN_ARGV + ["gamma:1"], (1583, 37582, 47)),
    (GOLDEN_ARGV + ["gamma:2.5"], (2037, 48512, 45)),
    (GOLDEN_ARGV + ["two-point:0.5,1.5,0.5"], (2099, 49873, 45)),
    (GOLDEN_ARGV + ["lognormal:0.7"], (1891, 44910, 51)),
    (GOLDEN_ARGV + ["spiked:0.2"], (413, 19157, 61)),
    (["counterexample", "--N", "1000", "--gamma", "0.1", "--b", "0.45",
      "--trials", "30000", "--seed", "7"], (34, 54661, 23)),
], ids=["deterministic", "gamma:1", "gamma:2.5", "two-point", "lognormal:0.7",
        "spiked:0.2", "counterexample"])
def test_golden_records(capsys, argv, expected):
    # (fixations, total generations, longest trial) pinned at fixed seeds
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    assert (rec["fixations"], round(rec["mean_tau"] * rec["trials"]),
            rec["max_tau"]) == expected
    assert rec["trial_generations"] == round(rec["mean_tau"] * rec["trials"])


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


@pytest.mark.parametrize("flags, phi", [
    (["--model", "two-point-immortal", "--beta-s", "1"], 1.0),
    (["--model", "binary", "--p", "1"], 1.0),
    (["--model", "plain-poisson", "--m", "0"], 0.0),
    (["--model", "binary", "--p", "0"], 0.0),
], ids=["immortal-doubling", "binary-doubling", "poisson-barren", "binary-barren"])
def test_gw_survival_zero_variance_has_no_haldane_reference(capsys, flags, phi):
    code, (rec,) = run_jsonl(capsys, ["gw-survival", *flags])
    assert code == 0
    assert rec["offspring_variance"] == 0.0
    assert rec["phi"] == phi and rec["phi_bound"] == 0.0
    assert rec["haldane"] is None


def test_duality_from_file(capsys, tmp_path):
    path = tmp_path / "aeq.txt"
    path.write_text("2\n2\n")
    code, records = run_jsonl(capsys, [
        "duality", "--N", "4", "--k", "2", "--samples", str(path)])
    assert code == 0
    assert records[0]["duality_fixation"] == pytest.approx(5 / 6)
    assert records[0]["n_samples"] == 2


def test_counterexample_record(capsys):
    code, records = run_jsonl(capsys, [
        "counterexample", "--N", "200", "--gamma", "0.1", "--b", "0.45",
        "--trials", "2000", "--seed", "5"])
    assert code == 0
    (rec,) = records
    assert rec["gamma"] == 0.1
    assert rec["neutral_floor"] == pytest.approx(1 / 200)
    assert isinstance(rec["violation"], bool)


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
    assert rec["stream_layout"] == f"sfc64(seed, block={BLOCK_TRIALS})"
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
    argv = ["gw-survival", "--model", "plain-poisson", "--m", "1.1",
            "--format", "csv", "--out", str(out)]
    assert run_command(argv) == 0
    assert run_command(argv) == 0
    lines = out.read_text().splitlines()
    assert lines.count(",".join(CSV_COLUMNS)) == 1
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    assert rows[0] == rows[1] | {"wall_clock_seconds": rows[0]["wall_clock_seconds"]}


def test_every_csv_column_is_filled(capsys, tmp_path):
    samples = tmp_path / "aeq.txt"
    samples.write_text("1\n2\n")
    mc = ["--trials", "200", "--seed", "1"]
    runs = [
        ["fixation", "--N", "50", "--b", "0.3", *mc],
        ["sweep", "--N", "50", "100", "--b", "0.3", *mc],
        ["phases", "--N", "1000", "--b", "0.2", "--delta", "0.15", "--eps", "0.1", *mc],
        ["gw-survival", "--model", "mixed-binomial", "--m", "1.1", "--M", "90", "--N", "100"],
        ["gw-survival", "--model", "two-point-immortal", "--beta-s", "0.1"],
        ["gw-survival", "--model", "binary", "--p", "0.6"],
        ["duality", "--N", "10", "--k", "2", "--samples", str(samples)],
        ["counterexample", "--N", "200", "--gamma", "0.1", "--b", "0.45", *mc],
        ["moments", "--N", "100", *mc],
    ]
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
    monkeypatch.setenv("HALDANE_PARALLELISM", "3")
    _, (rec,) = run_jsonl(capsys, ["fixation", "--N", "20", "--s", "0",
                                   "--trials", "50", "--seed", "1"])
    assert rec["parallelism"] == 3
    # a value that is not a worker count is a configuration error, like --parallelism 0
    for junk in ("junk", "0"):
        monkeypatch.setenv("HALDANE_PARALLELISM", junk)
        assert run_command(["fixation", "--N", "20", "--s", "0",
                            "--trials", "50", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: HALDANE_PARALLELISM")
    # the flag wins over a broken environment
    _, (rec,) = run_jsonl(capsys, ["fixation", "--N", "20", "--s", "0",
                                   "--trials", "50", "--seed", "1", "--parallelism", "2"])
    assert rec["parallelism"] == 2


def test_parallelism_env_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process, so its default must not freeze the environment
    argv = ["fixation", "--N", "20", "--s", "0", "--trials", "50", "--seed", "1"]
    seen = []
    for workers in ("2", "1"):
        monkeypatch.setenv("HALDANE_PARALLELISM", workers)
        _, (rec,) = run_jsonl(capsys, argv)
        seen.append(rec["parallelism"])
    assert seen == [2, 1]
    assert cli.build_parser() is cli.build_parser()


def test_gamma_solve_and_one_block_run_import_no_scipy_or_pool():
    # a fresh interpreter, since the test process has everything loaded.
    # Each command loads only the layers it runs: a solve needs neither
    # the Monte Carlo layers nor numpy's lazily loaded numpy.random, a
    # moments table adds only the streams, CSV output adds `csv`, and a
    # one-block run imports neither scipy nor a process pool
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
