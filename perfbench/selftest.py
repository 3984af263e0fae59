"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload's timed passes, checks, worker-count comparison and
traced run at a few hundred trials per pass, and checks the reported
metric names against BENCHMARK.json.  Then checks that the checker
reports failures: perturbed references, perturbed records, and a
directory holding only the benchmark (no sources), where the benchmark
must exit non-zero without a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run
from reference import check_record, references, same_record
from workloads import WORKLOADS

TINY_TRIALS = 300


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def benchmark_spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tiny(workload):
    if workload.kind == "gw":
        return workload
    return dataclasses.replace(workload, trials=TINY_TRIALS)


def check_workloads(spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    for name, workload in WORKLOADS.items():
        for traced, names in ((False, e2e), (True, per_layer)):
            tally, notes = run.Tally(), {}
            measure = run.trace if traced else run.measure
            metrics = measure(tiny(workload), 1, 0.0, tally, notes)
            expect(tally.attempted > 0 and tally.failed == 0,
                   f"{name} (trace={traced}): {tally.failed}/{tally.attempted} failed: "
                   f"{tally.problems[:3]}")
            expect(set(metrics) == names,
                   f"{name} (trace={traced}) metrics {sorted(set(metrics) ^ names)} "
                   "differ from BENCHMARK.json")
            if not traced:
                expect(all(v > 0 for v, _ in metrics.values()),
                       f"{name}: an end-to-end metric is not positive: {metrics}")
        print(f"ok  {name}: passes, checks and traced run")


def check_negative_cases() -> None:
    """The checker must fail wrong references and wrong records."""
    for name, workload in WORKLOADS.items():
        refs = references(name)
        _, calls = run.run_pass(tiny(workload).pass_argv(1, 0))
        tally = run.Tally()
        run.check_calls(workload, calls, refs, tally)
        expect(tally.failed == 0, f"{name}: honest records failed: {tally.problems}")
        if workload.kind == "gw":
            wrong = {k: v * (1 + 1e-3) for k, v in refs.items()}
        else:
            wrong = {"p": 0.5}
        tally = run.Tally()
        run.check_calls(workload, calls, wrong, tally)
        expect(tally.failed == len(calls), f"{name}: perturbed reference not reported")

    rec = run.run_pass(tiny(WORKLOADS["phases-par2"]).pass_argv(1, 0))[1][0].records[0]
    refs = references("phases-par2")
    bad = dict(rec, p1=rec["p1"] * 1.01)
    expect(check_record("phases-par2", [], bad, refs), "p1*p2*p3 mismatch not reported")
    expect(same_record(rec, dict(rec, p_hat=rec["p_hat"] + 1e-9)) == ["p_hat"],
           "worker-count mismatch not reported")
    expect(not same_record(rec, dict(rec, parallelism=7, wall_clock_seconds=9.0)),
           "parallelism or wall clock counted as a mismatch")

    spiked = references("counterexample-spiked")
    rec = {"trials": 200_000, "fixations": 229, "p_hat": 229 / 200_000, "truncated": 0,
           "violation": False}
    expect(check_record("counterexample-spiked", [], rec, spiked),
           "missing violation not reported")
    expect(not check_record("counterexample-spiked", [], dict(rec, violation=True), spiked),
           "honest spiked record reported")
    print("ok  perturbed references and records are reported")


def check_bare_directory() -> None:
    """Without sources the benchmark exits non-zero and prints no result."""
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fixation-gamma1",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0, "benchmark succeeded without sources")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without sources")
    print("ok  a directory without sources fails with exit code", proc.returncode)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    try:
        check_workloads(benchmark_spec())
        check_negative_cases()
        check_bare_directory()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
