"""End-to-end and per-layer benchmark of the `haldane` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload (see workloads.py) repeats passes of fixed
`haldane.cli.run_command` calls for S seconds, timed from outside, and
checks every record against an exact reference (reference.py).  The
last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run (spans.py), whose spans are written under .perfbench-out/.
`--workload all` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import check_record, gw_key, references, rel_error, same_record
from spans import Tracer
from workloads import VERIFY_INDEX, WORKLOADS, lookup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


@dataclass
class Call:
    argv: list[str]
    code: int
    seconds: float
    records: list[dict]
    bytes_out: int


@dataclass
class Tally:
    """Operations attempted and failed; one operation is one command call."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rel_errors: list[float] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def call(argv: list[str]) -> Call:
    from haldane import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    seconds = perf_counter() - t0
    text = out.getvalue()
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return Call(argv, code, seconds, records, len(text.encode()))


def run_pass(argvs: list[list[str]]) -> tuple[float, list[Call]]:
    t0 = perf_counter()
    calls = [call(argv) for argv in argvs]
    return perf_counter() - t0, calls


def _interpreter_task() -> None:
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=1))
    acc = 0
    for i in range(10_000):
        acc ^= int(rng.binomial(1000, 0.3)) + i


def _vector_task() -> None:
    from scipy.special import roots_genlaguerre

    for _ in range(16):
        roots_genlaguerre(160, 0.0)


def _startup_task() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=CHILD_TIMEOUT_S)


# kind -> (reference task, its seconds at full speed on the 2-core Xeon the
# bounds were set on); the constants only scale reported times to seconds
CALIBRATIONS = {
    "interpreter": (_interpreter_task, 0.0095),
    "vector": (_vector_task, 0.0165),
    "start-up": (_startup_task, 0.165),
}


class Calibration:
    """Times a task and scales it by reference tasks run right before and after.

    The machine the benchmark was built on shares its cores with other
    tenants, and its speed moved by up to 2x over minutes: raw pass times
    spread by ~30% between runs.  Divided by the mean time of a reference
    task of the same kind (interpreter-bound scalar draws for Monte Carlo
    calls, Gauss-Laguerre node computations for survival solves, a fresh
    interpreter importing numpy for set-up probes), the spread fell to
    ~3-7%.  Reported times are that ratio times the reference task's
    seconds at full speed.  The tasks use only numpy, scipy and the
    interpreter, so a change to `haldane` cannot move them.
    """

    def __init__(self, kind: str):
        self._task, self._ref_s = CALIBRATIONS[kind]
        self._before: float | None = None

    def _reference(self) -> float:
        t0 = perf_counter()
        self._task()
        return perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """`seconds` just measured, at the reference speed; call right after timing."""
        after = self._reference()
        scaled = seconds * self._ref_s / (0.5 * (self._before + after))
        self._before = after
        return scaled

    def start(self) -> None:
        """Time the reference task before the first measurement."""
        self._before = self._reference()


def calibrated_pass(argvs: list[list[str]], calibration: Calibration) -> tuple[float, float, list[Call]]:
    """Run one pass; return its raw seconds, calibrated seconds and calls.

    Every call is bracketed by reference tasks and scaled on its own.
    """
    calls, scaled = [], 0.0
    for argv in argvs:
        c = call(argv)
        scaled += calibration.scale(c.seconds)
        calls.append(c)
    return sum(c.seconds for c in calls), scaled, calls


def check_calls(workload, calls: list[Call], refs: dict, tally: Tally) -> None:
    for c in calls:
        if c.code != 0 or len(c.records) != 1:
            tally.add([f"{' '.join(c.argv)}: exit {c.code}, {len(c.records)} records"])
            continue
        rec = c.records[0]
        tally.add(check_record(workload.name, c.argv, rec, refs))
        if workload.kind == "gw":
            tally.rel_errors.append(rel_error(rec["phi"], refs[gw_key(c.argv)]))


def generations(calls: list[Call]) -> float:
    return sum(rec["mean_tau"] * rec["trials"] for c in calls for rec in c.records
               if rec.get("mean_tau") is not None)


def setup_probes(workload, tally: Tally) -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up seconds of each fresh-interpreter probe."""
    raw, scaled = [], []
    calibration = Calibration("start-up")
    calibration.start()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload.name],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        probe = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        if probe.get("exit") == 0:
            raw.append(probe["setup_s"])
            scaled.append(calibration.scale(probe["setup_s"]))
            tally.add([])
        else:
            calibration.start()
            tally.add([f"set-up probe failed: {proc.stderr.strip()[-300:]}"])
    return raw, scaled


def compare_worker_counts(par_calls: list[Call], single_calls: list[Call], tally: Tally) -> None:
    """The record at several workers must equal the record at one worker."""
    if any(c.code != 0 or len(c.records) != 1 for c in par_calls + single_calls):
        tally.add(["cannot compare worker counts: a call failed"])
        return
    diff = same_record(par_calls[0].records[0], single_calls[0].records[0])
    tally.add([f"records differ across worker counts in {diff}"] if diff else [])


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process plus each pool worker, at the largest worker's peak.

    Read before any other child process runs, so the children's peak is
    the workers'.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = workload.parallelism if workload.parallelism > 1 else 0
    return (own + workers * child) / 1024.0


def timed_passes(seconds: float, run_one) -> list:
    """Run passes `run_one(index)` until `seconds` have gone, at least MIN_PASSES."""
    out = []
    t_start = perf_counter()
    while len(out) < MIN_PASSES or perf_counter() - t_start < seconds:
        out.append(run_one(len(out)))
    return out


def verify_calls(workload, seed: int) -> list[Call]:
    """The workload's extra untimed call, if it has one."""
    if not workload.verify_trials:
        return []
    return run_pass(workload.pass_argv(seed, VERIFY_INDEX, trials=workload.verify_trials))[1]


def measure(workload, seed: int, seconds: float, tally: Tally, notes: dict) -> dict:
    """End-to-end metrics from untraced, calibrated passes (medians over passes)."""
    call(list(workload.first_call))
    calibration = Calibration(workload.calibration)
    calibration.start()
    passes = timed_passes(
        seconds, lambda i: calibrated_pass(workload.pass_argv(seed, i), calibration))
    rss = peak_rss_mb(workload)
    if workload.parallelism > 1:
        _, single = run_pass(workload.pass_argv(seed, 0, parallelism=1))
        compare_worker_counts(passes[0][2], single, tally)
    setup_raw, setup = setup_probes(workload, tally)
    if not setup:
        raise SystemExit("every set-up probe failed: " + "; ".join(tally.problems[-1:]))
    refs = references(workload.name)
    for calls in [p[2] for p in passes] + [verify_calls(workload, seed)]:
        check_calls(workload, calls, refs, tally)
    wall = median(p[1] for p in passes)
    notes.update({
        "passes": len(passes),
        "raw_wall_s_p50": median(p[0] for p in passes),
        "raw_wall_s_min": min(p[0] for p in passes),
        "raw_setup_s_p50": median(setup_raw),
        "generations_per_s": (median(generations(p[2]) / p[1] for p in passes)
                              if workload.kind == "mc" else None),
        "call_ms_p50": 1e3 * median(c.seconds for p in passes for c in p[2]),
    })
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "trials_per_s": (workload.trials / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def trace(workload, seed: int, seconds: float, tally: Tally, notes: dict) -> dict:
    """Per-layer metrics from traced single-worker passes.

    Each pass index runs untraced and then traced on the same inputs, so
    the tracing overhead is a paired difference.  A workload with more
    than one worker also runs untraced at its own count, which gives the
    parallel speed-up.
    """
    call(list(workload.first_call))
    tracer = Tracer()
    parallel = workload.parallelism > 1

    def run_one(i):
        par = run_pass(workload.pass_argv(seed, i)) if parallel else None
        plain = run_pass(workload.pass_argv(seed, i, parallelism=1))
        with tracer:
            traced = run_pass(workload.pass_argv(seed, i, parallelism=1))
        return par, plain, traced

    passes = timed_passes(seconds, run_one)
    refs = references(workload.name)
    check_calls(workload, verify_calls(workload, seed), refs, tally)
    for par, plain, traced in passes:
        for _, calls in filter(None, (par, plain, traced)):
            check_calls(workload, calls, refs, tally)
        if parallel:
            compare_worker_counts(par[1], plain[1], tally)

    n = len(passes)
    layers = tracer.layer_stats()
    counts = tracer.counts
    plain_t = [p[1][0] for p in passes]
    traced_t = [p[2][0] for p in passes]
    # paired passes ran seconds apart, so their ratio cancels most machine drift
    speedup = median(p[1][0] / p[0][0] for p in passes) if parallel else 0.0
    trials = layers["cannings"]["spans"]
    gens = counts["generations"]
    pgf = tracer.span_durations("branching.", ".pgf")
    solves = tracer.span_durations("branching.extinction_q")

    def per_pass(x):
        return x / n

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    cannings_busy = layers["cannings"]["busy_s"]
    analysis = layers["analysis"]
    metrics = {
        "streams.calls": (per_pass(layers["streams"]["spans"]), "count"),
        "streams.busy_s": (per_pass(layers["streams"]["busy_s"]), "s"),
        "streams.us_per_call": (ratio(layers["streams"]["busy_s"], layers["streams"]["spans"], 1e6), "us"),
        "cannings.trials": (per_pass(trials), "count"),
        "cannings.generations": (per_pass(gens), "count"),
        "cannings.busy_s": (per_pass(cannings_busy), "s"),
        "cannings.us_per_trial": (ratio(cannings_busy, trials, 1e6), "us"),
        "cannings.us_per_generation": (ratio(cannings_busy, gens, 1e6), "us"),
        "cannings.truncated": (per_pass(counts["truncated"]), "count"),
        "paintbox.calls": (per_pass(layers["paintbox"]["spans"]), "count"),
        "paintbox.busy_s": (per_pass(layers["paintbox"]["busy_s"]), "s"),
        "analysis.busy_s": (per_pass(analysis["busy_s"]), "s"),
        "analysis.self_s": (per_pass(analysis["self_s"]), "s"),
        "analysis.parallel_speedup": (speedup, "ratio"),
        "branching.solves": (per_pass(len(solves)), "count"),
        "branching.iterations": (per_pass(counts["iterations"]), "count"),
        "branching.pgf_calls": (per_pass(len(pgf)), "count"),
        "branching.pgf_us_per_call": (ratio(pgf.sum(), len(pgf), 1e6), "us"),
        "branching.busy_s": (per_pass(layers["branching"]["busy_s"]), "s"),
        "branching.solve_ms_p50": (1e3 * float(median(solves)) if len(solves) else 0.0, "ms"),
        "branching.max_rel_err": (max(tally.rel_errors, default=0.0), "rel"),
        "cli.self_s": (per_pass(layers["cli"]["self_s"]), "s"),
        "cli.bytes_out": (per_pass(sum(c.bytes_out for p in passes for c in p[2][1])), "B"),
        "trace.overhead_s": (median(t - u for t, u in zip(traced_t, plain_t)), "s"),
    }
    notes.update({"passes": n, "untraced_wall_s": median(plain_t),
                  "traced_wall_s": median(traced_t), "spans": len(tracer.start)})
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz", seed=seed,
                metrics=json.dumps({k: v[0] for k, v in metrics.items()}))
    return metrics


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import haldane
    from haldane.streams import make_rng

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "haldane": haldane.__version__,
        "bit_generator": type(make_rng(0).bit_generator).__name__,
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = lookup(name)
    tally, notes = Tally(), {}
    prov = provenance(seed)
    print(json.dumps({"provenance": prov}))
    if traced:
        metrics = trace(workload, seed, seconds, tally, notes)
    else:
        metrics = measure(workload, seed, seconds, tally, notes)
    prov["loadavg_end"] = os.getloadavg()
    notes["error_rate"] = tally.failed / tally.attempted
    if tally.rel_errors:
        notes["max_rel_err"] = max(tally.rel_errors)
    print(json.dumps({"workload": name, "loadavg_end": prov["loadavg_end"], "notes": notes}))
    for problem in tally.problems[:20]:
        print(f"# check failed: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "haldane" / "__init__.py").is_file():
        print(f"error: no haldane sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
