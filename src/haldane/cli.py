"""Batch experiment front end.

Each subcommand runs one experiment family and appends one record per
experiment to the output (JSON lines by default, CSV on request), with
a one-line summary on stderr.  Records embed the fully resolved
configuration, the seed, all estimates with intervals, the 2s/variance
reference and ratio, the wall-clock seconds of that experiment alone,
the artifact, numpy and Python versions and the layout of the random
streams (the bit generator and what keys each stream; NEP 19 lets numpy
change `Generator` streams between versions), so a results file is
self-describing and re-runnable.

Exit codes: 0 success, 2 configuration error, 1 runtime failure.
The HALDANE_PARALLELISM environment variable sets the default worker
count; it is read on every call, so one parser serves the process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__, branching
from .paintbox import ConfigurationError, YLaw, estimate_weight_moment, parse_source

# handlers import the Monte Carlo layers and `csv` themselves, so a
# `gw-survival` solve loads only this module, `paintbox` and `branching`

CSV_COLUMNS = [
    "command", "version", "numpy_version", "python_version", "stream_layout",
    "seed", "trials", "parallelism",
    "N", "s", "b", "paintbox", "x0", "delta", "eps", "gamma",
    "model", "y", "m", "M", "beta_s", "p", "tol", "k", "samples_file",
    "moment_p", "level",
    "p_hat", "p_hat_stderr", "fixations", "ci_low", "ci_high",
    "ref_variance", "haldane", "ratio", "mean_tau", "max_tau",
    "trial_generations", "lockstep_generations",
    "p1", "p1_ci_low", "p1_ci_high", "p2", "p2_ci_low", "p2_ci_high",
    "p3", "p3_ci_low", "p3_ci_high", "threshold_1", "threshold_2",
    "phi", "iterations", "phi_bound", "offspring_mean", "offspring_variance",
    "naive_prediction", "neutral_floor", "violation",
    "duality_fixation", "n_samples",
    "moment_value", "moment_stderr",
    "moderately_strong", "paintbox_conforming",
    "wall_clock_seconds",
]


# each Galton-Watson model with the flags its constructor takes, in order;
# a model rejects every other model flag
_GW_MODELS = {
    "mixed-poisson": (branching.MixedPoisson, ("y", "m")),
    "mixed-binomial": (branching.MixedBinomial, ("y", "M", "m", "N")),
    "two-point-immortal": (branching.TwoPointImmortal, ("beta_s",)),
    "binary": (branching.Binary, ("p",)),
    "plain-poisson": (branching.PlainPoisson, ("m",)),
}
_GW_FLAGS = tuple(dict.fromkeys(f for _, flags in _GW_MODELS.values() for f in flags))


def _add_output_args(sp):
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _add_population_args(sp, paintbox: str):
    sp.add_argument("--N", type=int, required=True)
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--s", type=float, help="selection strength in [0,1)")
    grp.add_argument("--b", type=float, help="selection exponent, s = N**-b")
    sp.add_argument("--paintbox", default=paintbox)
    sp.add_argument("--x0", type=int, default=1)


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker, got {value}")
    return value


def _level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"confidence level must be in (0,1), got {value}")
    return value


def _default_parallelism() -> int:
    raw = os.environ.get("HALDANE_PARALLELISM", "1")
    try:
        return _worker_count(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigurationError(f"HALDANE_PARALLELISM={raw!r}: {exc}") from None


def _add_mc_args(sp):
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--parallelism", type=_worker_count, default=None,
                    help="worker processes (default: $HALDANE_PARALLELISM or 1)")
    sp.add_argument("--level", type=_level, default=None,
                    help="confidence level for Wilson intervals "
                         "(default: haldane.analysis.DEFAULT_LEVEL)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haldane",
        description="Cannings fixation experiments and branching-process solvers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixation", help="Monte Carlo fixation probability")
    _add_population_args(p, paintbox="deterministic")
    _add_mc_args(p)

    p = sub.add_parser("phases", help="three-phase fixation diagnostics")
    _add_population_args(p, paintbox="gamma:1")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_mc_args(p)

    p = sub.add_parser("gw-survival", help="exact branching survival probability")
    p.add_argument("--model", required=True, choices=tuple(_GW_MODELS))
    p.add_argument("--y", default=None, help="mixing law, name:params (default gamma:1)")
    p.add_argument("--m", type=float, default=None, help="mean factor")
    p.add_argument("--M", type=int, default=None, help="binomial trial count")
    p.add_argument("--N", type=int, default=None, help="binomial scale")
    p.add_argument("--beta-s", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="largest width of the bracket [phi - phi_bound, phi] "
                        "that holds the survival probability")

    p = sub.add_parser("duality", help="fixation from ancestral-line sample file")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", required=True, help="file, one count per line")

    p = sub.add_parser("counterexample", help="spiked-paintbox violation check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_mc_args(p)

    p = sub.add_parser("moments", help="Monte Carlo weight-moment table")
    p.add_argument("--paintbox", default="gamma:1")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--p", type=int, nargs="+", default=[2], choices=(2, 3))
    # serial, and a standard error per cell rather than an interval
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sweep", help="fixation across an N list at fixed exponent")
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--paintbox", default="gamma:1")
    p.add_argument("--x0", type=int, default=1)
    _add_mc_args(p)

    for p in sub.choices.values():
        _add_output_args(p)
    return parser


# ---------------------------------------------------------------------------
# Record assembly
# ---------------------------------------------------------------------------


def _record(args, config=None, estimate=None, **fields) -> dict:
    """One output record: run settings, config, every estimate field, extra fields."""
    rec = {
        "command": args.command,
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        # records that draw say how (fixation estimates: the block farm);
        # records that draw nothing have no layout
        "stream_layout": None,
        "seed": getattr(args, "seed", None),
        "trials": getattr(args, "trials", None),
        "parallelism": getattr(args, "parallelism", None),
        "level": getattr(args, "level", None),
    }
    if config is not None:
        rec.update({
            "N": config.N,
            "s": config.s,
            "b": config.exponent,
            "paintbox": config.paintbox.tag(),
            "x0": config.initial_count,
            "moderately_strong": config.moderately_strong,
            "paintbox_conforming": config.paintbox.conforming,
        })
    if estimate is not None:
        from .analysis import STREAM_LAYOUT
        rec.update(dataclasses.asdict(estimate), stream_layout=STREAM_LAYOUT)
    rec.update(fields)
    return rec


def _make_config(args, N: int):
    from .cannings import CanningsConfig
    source = parse_source(args.paintbox)
    if args.b is not None:
        return CanningsConfig.from_exponent(N, args.b, source, args.x0)
    return CanningsConfig(N, args.s, source, args.x0)


def _cmd_fixation(args):
    from . import analysis
    # a sweep is one fixation estimate per N at a fixed exponent
    for N in args.N if args.command == "sweep" else [args.N]:
        config = _make_config(args, N)
        est = analysis.estimate_fixation(
            config, args.trials, args.seed, args.parallelism, args.level)
        yield _record(args, config, est)


def _cmd_phases(args):
    from . import analysis
    config = _make_config(args, args.N)
    rep = analysis.phase_diagnostics(
        config, args.delta, args.eps, args.trials, args.seed,
        args.parallelism, args.level)
    yield _record(
        args, config, rep.estimate, delta=args.delta, eps=args.eps,
        threshold_1=rep.threshold_1, threshold_2=rep.threshold_2,
        p1=rep.p1, p2=rep.p2, p3=rep.p3,
        p1_ci_low=rep.p1_ci[0], p1_ci_high=rep.p1_ci[1],
        p2_ci_low=rep.p2_ci[0], p2_ci_high=rep.p2_ci[1],
        p3_ci_low=rep.p3_ci[0], p3_ci_high=rep.p3_ci[1])


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _gw_model(args) -> tuple[branching.GWModel, dict]:
    """The chosen model and the record cell of every model flag (None if it takes none)."""
    model, flags = _GW_MODELS[args.model]
    cells = {flag: getattr(args, flag) for flag in _GW_FLAGS}
    if "y" in flags and cells["y"] is None:
        cells["y"] = "gamma:1"  # the default mixing law
    extra = [_option(f) for f in _GW_FLAGS if f not in flags and cells[f] is not None]
    if extra:
        raise ConfigurationError(f"{args.model} takes no {' or '.join(extra)}")
    missing = [_option(f) for f in flags if cells[f] is None]
    if missing:
        raise ConfigurationError(f"{args.model} needs {' and '.join(missing)}")
    values = [cells[flag] for flag in flags]
    if flags[0] == "y":
        values[0] = parse_source(cells["y"])
        if not isinstance(values[0], YLaw):
            raise ConfigurationError(f"mixing law must be a Y law, got {cells['y']!r}")
    return model(*values), cells


def _cmd_gw_survival(args):
    model, cells = _gw_model(args)
    res = branching.extinction_q(model, tol=args.tol)
    mean = model.mean()
    var = model.variance()
    # a law without variance has no 2s/variance reference
    haldane = branching.haldane_ref(max(mean - 1.0, 0.0), var) if var > 0 else None
    yield _record(
        args, model=model.tag(), **cells, tol=args.tol,
        phi=res.phi, iterations=res.iterations, phi_bound=res.bound,
        offspring_mean=mean, offspring_variance=var, haldane=haldane)


def _cmd_duality(args):
    from . import analysis
    samples = analysis.read_aeq_samples(args.samples)
    value = analysis.duality_fixation(args.N, args.k, samples)
    yield _record(args, N=args.N, k=args.k, samples_file=args.samples,
                  n_samples=len(samples), duality_fixation=value)


def _cmd_counterexample(args):
    from . import analysis
    rep = analysis.counterexample_check(
        args.N, args.gamma, args.b, args.trials, args.seed,
        args.parallelism, args.level)
    yield _record(
        args, rep.config, rep.estimate, gamma=args.gamma,
        naive_prediction=rep.naive_prediction, neutral_floor=rep.neutral_floor,
        violation=rep.violation)


def _cmd_moments(args):
    from .streams import layout, trial_rng
    law = parse_source(args.paintbox)
    for i, (N, p) in enumerate(itertools.product(args.N, args.p)):
        est = estimate_weight_moment(law, N, p, args.trials, trial_rng(args.seed, i))
        yield _record(args, N=N, paintbox=law.tag(), moment_p=p,
                      moment_value=est.value, moment_stderr=est.stderr,
                      ref_variance=law.rho_squared(N), stream_layout=layout("cell"))


_HANDLERS = {
    "fixation": _cmd_fixation,
    "phases": _cmd_phases,
    "gw-survival": _cmd_gw_survival,
    "duality": _cmd_duality,
    "counterexample": _cmd_counterexample,
    "moments": _cmd_moments,
    "sweep": _cmd_fixation,
}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _finite(rec: dict) -> dict:
    """`rec` with each non-finite float (an infinite error bar, an undefined
    ratio) replaced by None, which RFC 8259 JSON and CSV can both write."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in rec.items()}


def _json_line(rec: dict) -> str:
    try:
        text = json.dumps(rec, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN or Infinity, which are not JSON
        text = json.dumps(_finite(rec), sort_keys=True, allow_nan=False)
    return text + "\n"


def _text(records: list[dict], fmt: str, header: bool) -> str:
    if fmt == "jsonl":
        return "".join(map(_json_line, records))
    import csv
    buf = io.StringIO()
    # inapplicable cells stay empty; a field missing from CSV_COLUMNS raises
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    if header:
        writer.writeheader()
    for rec in records:
        writer.writerow({k: v for k, v in _finite(rec).items() if v is not None})
    return buf.getvalue()


def _emit(records: list[dict], fmt: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(_text(records, fmt, header=True))
    else:
        with open(out_path, "a", encoding="utf-8") as fh:
            # rows appended to a CSV file go under the header it already has
            fh.write(_text(records, fmt, header=fh.tell() == 0))


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
    records = []
    try:
        if getattr(args, "parallelism", 0) is None:  # moments takes no --parallelism
            args.parallelism = _default_parallelism()
        if getattr(args, "level", 0) is None:  # moments takes no --level
            from .analysis import DEFAULT_LEVEL
            args.level = DEFAULT_LEVEL
        last = time.perf_counter()
        for rec in _HANDLERS[args.command](args):
            now = time.perf_counter()
            rec["wall_clock_seconds"] = round(now - last, 6)
            last = now
            records.append(rec)
    except ConfigurationError as exc:  # bad input; ValueErrors from a run are failures
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
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
