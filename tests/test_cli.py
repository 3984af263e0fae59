import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import haldane
from haldane import analysis, cli
from haldane.analysis import BLOCK_TRIALS
from haldane.cli import CSV_COLUMNS, run_command


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


def test_missing_samples_file_exits_2(capsys):
    assert run_command(["duality", "--N", "10", "--k", "2",
                        "--samples", "/nonexistent/aeq.txt"]) == 2


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
    assert rec["paintbox"] == "deterministic:1"
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
    (GOLDEN_ARGV + ["deterministic"], (2397, 56387, 52)),
    (GOLDEN_ARGV + ["gamma:1"], (1581, 37324, 45)),
    (GOLDEN_ARGV + ["gamma:2.5"], (1989, 46737, 48)),
    (GOLDEN_ARGV + ["two-point:0.5,1.5,0.5"], (2131, 50172, 44)),
    (GOLDEN_ARGV + ["lognormal:0.7"], (1908, 44761, 48)),
    (GOLDEN_ARGV + ["spiked:0.2"], (332, 18060, 53)),
    (["counterexample", "--N", "1000", "--gamma", "0.1", "--b", "0.45",
      "--trials", "30000", "--seed", "7"], (30, 54643, 23)),
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


def test_moments_table(capsys):
    code, records = run_jsonl(capsys, [
        "moments", "--paintbox", "gamma:1", "--N", "100", "1000",
        "--p", "2", "--trials", "5000", "--seed", "2"])
    assert code == 0
    assert len(records) == 2
    assert {rec["N"] for rec in records} == {100, 1000}
    for rec in records:
        assert rec["moment_value"] > 0 and rec["moment_stderr"] > 0


def test_moments_cells_draw_from_their_own_streams(capsys):
    code, records = run_jsonl(capsys, [
        "moments", "--N", "100", "100", "--p", "2", "--trials", "500", "--seed", "2"])
    assert code == 0
    assert records[0]["moment_value"] != records[1]["moment_value"]
    assert {rec["stream_layout"] for rec in records} == {"philox(seed, cell)"}


def test_records_name_numpy_and_stream_layout(capsys):
    _, (rec,) = run_jsonl(capsys, ["fixation", "--N", "20", "--s", "0.1",
                                   "--trials", "50", "--seed", "1"])
    assert rec["numpy_version"] == np.__version__
    assert rec["stream_layout"] == f"philox(seed, block={BLOCK_TRIALS})"
    _, (rec,) = run_jsonl(capsys, ["gw-survival", "--model", "binary", "--p", "0.6"])
    assert rec["numpy_version"] == np.__version__
    assert rec["stream_layout"] is None  # draws nothing


def test_moments_runs_serially(capsys):
    argv = ["moments", "--N", "100", "--trials", "500", "--seed", "2"]
    assert run_command(argv + ["--parallelism", "2"]) == 2
    code, (rec,) = run_jsonl(capsys, argv)
    assert code == 0
    assert rec["parallelism"] is None


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


def test_every_csv_column_is_filled(capsys, tmp_path):
    samples = tmp_path / "aeq.txt"
    samples.write_text("1\n2\n")
    mc = ["--trials", "200", "--seed", "1"]
    runs = [
        ["fixation", "--N", "50", "--b", "0.3", *mc],
        ["phases", "--N", "1000", "--b", "0.2", "--delta", "0.15", "--eps", "0.1", *mc],
        ["gw-survival", "--model", "mixed-binomial", "--m", "1.1", "--M", "90", "--N", "100"],
        ["gw-survival", "--model", "two-point-immortal", "--beta-s", "0.1"],
        ["gw-survival", "--model", "binary", "--p", "0.6"],
        ["duality", "--N", "10", "--k", "2", "--samples", str(samples)],
        ["counterexample", "--N", "200", "--gamma", "0.1", "--b", "0.45", *mc],
        ["moments", "--N", "100", *mc],
    ]
    filled = set()
    for argv in runs:
        code, records = run_jsonl(capsys, argv)
        assert code == 0, argv
        filled.update(k for rec in records for k, v in rec.items() if v is not None)
    assert set(CSV_COLUMNS) <= filled, set(CSV_COLUMNS) - filled


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
    # a fresh interpreter, since the test process has both loaded: either
    # import would cost every run's start-up
    script = (
        "import sys\n"
        "from haldane.cli import run_command\n"
        "codes = [run_command(['gw-survival', '--model', 'mixed-poisson',"
        " '--y', 'gamma:1', '--m', '1.1']),\n"
        "         run_command(['fixation', '--N', '20', '--s', '0.1', '--trials', '50',"
        " '--seed', '1', '--parallelism', '2'])]\n"
        "print(codes, [m for m in ('scipy', 'concurrent.futures', 'multiprocessing')"
        " if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(haldane.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
