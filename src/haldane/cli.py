"""Batch experiment front end.

Each subcommand runs one experiment family and appends one record per
experiment to the output (JSON lines by default, CSV on request), with
a one-line summary on stderr.  Records embed the fully resolved
configuration, the seed, all estimates with intervals, the 2s/variance
reference and ratio, wall-clock seconds and the artifact version, so a
results file is self-describing and re-runnable.

Exit codes: 0 success, 2 configuration error, 1 runtime failure.
The HALDANE_PARALLELISM environment variable sets the default worker
count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__, analysis, branching
from .cannings import CanningsConfig, ConfigurationError
from .paintbox import SpikedSpec, YLaw, estimate_weight_moment, parse_source
from .streams import make_rng

CSV_COLUMNS = [
    "command", "version", "seed", "trials", "parallelism",
    "N", "s", "b", "paintbox", "x0", "delta", "eps", "gamma",
    "model", "y", "m", "M", "beta_s", "p", "tol", "k", "samples_file",
    "moment_p", "level",
    "p_hat", "fixations", "truncated", "ci_low", "ci_high",
    "ref_variance", "haldane", "ratio", "mean_tau", "max_tau",
    "p1", "p2", "p3", "threshold_1", "threshold_2",
    "phi", "iterations", "residual", "offspring_mean", "offspring_variance",
    "naive_prediction", "neutral_floor", "violation",
    "duality_fixation", "n_samples",
    "moment_value", "moment_stderr",
    "moderately_strong", "paintbox_conforming",
    "wall_clock_seconds",
]


def _default_parallelism() -> int:
    raw = os.environ.get("HALDANE_PARALLELISM", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _add_output_args(sp):
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _add_selection_args(sp):
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--s", type=float, help="selection strength in [0,1)")
    grp.add_argument("--b", type=float, help="selection exponent, s = N**-b")


def _add_mc_args(sp):
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--parallelism", type=int, default=_default_parallelism())
    sp.add_argument("--level", type=float, default=analysis.DEFAULT_LEVEL,
                    help="confidence level for Wilson intervals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haldane",
        description="Cannings fixation experiments and branching-process solvers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixation", help="Monte Carlo fixation probability")
    p.add_argument("--N", type=int, required=True)
    _add_selection_args(p)
    p.add_argument("--paintbox", default="deterministic")
    p.add_argument("--x0", type=int, default=1)
    _add_mc_args(p)
    _add_output_args(p)

    p = sub.add_parser("phases", help="three-phase fixation diagnostics")
    p.add_argument("--N", type=int, required=True)
    _add_selection_args(p)
    p.add_argument("--paintbox", default="gamma:1")
    p.add_argument("--x0", type=int, default=1)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_mc_args(p)
    _add_output_args(p)

    p = sub.add_parser("gw-survival", help="exact branching survival probability")
    p.add_argument("--model", required=True, choices=(
        "mixed-poisson", "mixed-binomial", "two-point-immortal", "binary",
        "plain-poisson"))
    p.add_argument("--y", default="gamma:1", help="mixing law, name:params")
    p.add_argument("--m", type=float, default=None, help="mean factor")
    p.add_argument("--M", type=int, default=None, help="binomial trial count")
    p.add_argument("--N", type=int, default=None, help="binomial scale")
    p.add_argument("--beta-s", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output_args(p)

    p = sub.add_parser("duality", help="fixation from ancestral-line sample file")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", required=True, help="file, one count per line")
    _add_output_args(p)

    p = sub.add_parser("counterexample", help="spiked-paintbox violation check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_mc_args(p)
    _add_output_args(p)

    p = sub.add_parser("moments", help="Monte Carlo weight-moment table")
    p.add_argument("--paintbox", default="gamma:1")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--p", type=int, nargs="+", default=[2], choices=(2, 3))
    _add_mc_args(p)
    _add_output_args(p)

    p = sub.add_parser("sweep", help="fixation across an N list at fixed exponent")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--paintbox", default="gamma:1")
    p.add_argument("--x0", type=int, default=1)
    _add_mc_args(p)
    _add_output_args(p)

    return parser


# ---------------------------------------------------------------------------
# Record assembly
# ---------------------------------------------------------------------------


def _base_record(command: str, args) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "trials": getattr(args, "trials", None),
        "parallelism": getattr(args, "parallelism", None),
        "level": getattr(args, "level", None),
    }


def _config_fields(config: CanningsConfig) -> dict:
    tag = config.paintbox.tag()
    return {
        "N": config.N,
        "s": config.s,
        "b": config.exponent,
        "paintbox": tag,
        "x0": config.initial_count,
        "moderately_strong": config.moderately_strong,
        "paintbox_conforming": config.paintbox_conforming,
    }


def _estimate_fields(est: analysis.FixationEstimate) -> dict:
    return {
        "p_hat": est.p_hat,
        "fixations": est.fixations,
        "truncated": est.truncated,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "ref_variance": est.ref_variance,
        "haldane": est.haldane,
        "ratio": est.ratio,
        "mean_tau": est.mean_tau,
        "max_tau": est.max_tau,
    }


def _make_config(args) -> CanningsConfig:
    source = parse_source(args.paintbox)
    if args.b is not None:
        return CanningsConfig.from_exponent(args.N, args.b, source, args.x0)
    return CanningsConfig.from_s(args.N, args.s, source, args.x0)


def _cmd_fixation(args) -> list[dict]:
    config = _make_config(args)
    est = analysis.estimate_fixation(
        config, args.trials, args.seed, args.parallelism, args.level)
    rec = _base_record("fixation", args)
    rec.update(_config_fields(config))
    rec.update(_estimate_fields(est))
    return [rec]


def _cmd_phases(args) -> list[dict]:
    config = _make_config(args)
    rep = analysis.phase_diagnostics(
        config, args.delta, args.eps, args.trials, args.seed,
        args.parallelism, args.level)
    rec = _base_record("phases", args)
    rec.update(_config_fields(config))
    rec.update(_estimate_fields(rep.estimate))
    rec.update({
        "delta": args.delta,
        "eps": args.eps,
        "threshold_1": rep.threshold_1,
        "threshold_2": rep.threshold_2,
        "p1": rep.p1,
        "p2": rep.p2,
        "p3": rep.p3,
    })
    return [rec]


def _gw_model(args) -> branching.GWModel:
    if args.model == "plain-poisson":
        if args.m is None:
            raise ConfigurationError("plain-poisson needs --m")
        return branching.PlainPoisson(args.m)
    if args.model == "binary":
        if args.p is None:
            raise ConfigurationError("binary needs --p")
        return branching.Binary(args.p)
    if args.model == "two-point-immortal":
        if args.beta_s is None:
            raise ConfigurationError("two-point-immortal needs --beta-s")
        return branching.TwoPointImmortal(args.beta_s)
    law = parse_source(args.y)
    if not isinstance(law, YLaw):
        raise ConfigurationError(f"mixing law must be a Y law, got {args.y!r}")
    if args.m is None:
        raise ConfigurationError(f"{args.model} needs --m")
    if args.model == "mixed-poisson":
        return branching.MixedPoisson(law, args.m)
    if args.M is None or args.N is None:
        raise ConfigurationError("mixed-binomial needs --M and --N")
    return branching.MixedBinomial(law, args.M, args.m, args.N)


def _cmd_gw_survival(args) -> list[dict]:
    model = _gw_model(args)
    res = branching.extinction_q(model, tol=args.tol)
    mean = model.mean()
    var = model.variance()
    rec = _base_record("gw-survival", args)
    rec.update({
        "model": model.tag(),
        "y": args.y if args.model.startswith("mixed") else None,
        "m": args.m,
        "M": args.M,
        "N": args.N,
        "beta_s": args.beta_s,
        "p": args.p,
        "tol": args.tol,
        "phi": res.phi,
        "iterations": res.iterations,
        "residual": res.residual,
        "offspring_mean": mean,
        "offspring_variance": var,
        "haldane": branching.haldane_ref(max(mean - 1.0, 0.0), var),
    })
    return [rec]


def _cmd_duality(args) -> list[dict]:
    samples = analysis.read_aeq_samples(args.samples)
    value = analysis.duality_fixation(args.N, args.k, samples)
    rec = _base_record("duality", args)
    rec.update({
        "N": args.N,
        "k": args.k,
        "samples_file": args.samples,
        "n_samples": len(samples),
        "duality_fixation": value,
    })
    return [rec]


def _cmd_counterexample(args) -> list[dict]:
    rep = analysis.counterexample_check(
        args.N, args.gamma, args.b, args.trials, args.seed,
        args.parallelism, args.level)
    rec = _base_record("counterexample", args)
    rec.update(_config_fields(CanningsConfig.from_exponent(
        args.N, args.b, SpikedSpec(args.gamma), 1)))
    rec.update(_estimate_fields(rep.estimate))
    rec.update({
        "gamma": args.gamma,
        "naive_prediction": rep.naive_prediction,
        "neutral_floor": rep.neutral_floor,
        "violation": rep.violation,
    })
    return [rec]


def _cmd_moments(args) -> list[dict]:
    law = parse_source(args.paintbox)
    if not isinstance(law, YLaw):
        raise ConfigurationError("moments needs a Dirichlet-type paintbox")
    records = []
    for N in args.N:
        for p in args.p:
            est = estimate_weight_moment(
                law, N, p, args.trials, make_rng(args.seed))
            rec = _base_record("moments", args)
            rec.update({
                "N": N,
                "paintbox": law.tag(),
                "moment_p": p,
                "moment_value": est.value,
                "moment_stderr": est.stderr,
                "ref_variance": law.rho_squared(),
            })
            records.append(rec)
    return records


def _cmd_sweep(args) -> list[dict]:
    source = parse_source(args.paintbox)
    records = []
    for N in args.N:
        config = CanningsConfig.from_exponent(N, args.b, source, args.x0)
        est = analysis.estimate_fixation(
            config, args.trials, args.seed, args.parallelism, args.level)
        rec = _base_record("sweep", args)
        rec.update(_config_fields(config))
        rec.update(_estimate_fields(est))
        records.append(rec)
    return records


_HANDLERS = {
    "fixation": _cmd_fixation,
    "phases": _cmd_phases,
    "gw-survival": _cmd_gw_survival,
    "duality": _cmd_duality,
    "counterexample": _cmd_counterexample,
    "moments": _cmd_moments,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _emit(records: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "jsonl":
        text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: ("" if rec.get(k) is None else rec.get(k))
                             for k in CSV_COLUMNS})
        text = buf.getvalue()
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(text)


def _summary(rec: dict) -> str:
    bits = [rec["command"]]
    for key in ("N", "s", "p_hat", "ratio", "phi", "duality_fixation",
                "moment_value", "violation"):
        if rec.get(key) is not None:
            val = rec[key]
            bits.append(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}")
    bits.append(f"({rec['wall_clock_seconds']:.2f}s)")
    return " ".join(bits)


def run_command(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        records = _HANDLERS[args.command](args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    for rec in records:
        rec["wall_clock_seconds"] = round(elapsed / len(records), 6)
    try:
        _emit(records, args.format, args.out)
    except OSError as exc:
        print(f"failure: cannot write output: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print(_summary(rec), file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run_command())
