"""Span tracing of `haldane`'s layers from outside the package.

`Tracer.install` rebinds the public entry points of each layer to
wrappers that record one span per call (name, start, end, parent) plus
counts read off the returned values; `uninstall` restores the originals.
The package itself is not modified.  Spans live in flat arrays until
`save` writes them out at the end of a run.

Python 3.11 forks pool workers, so spans recorded inside workers stay
there: trace single-worker runs only.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "analysis", "cannings", "streams", "paintbox", "branching")

# (module, function) entry points, rebound wherever the package imported them
FUNCTIONS = [
    ("haldane.cli", "run_command"),
    ("haldane.analysis", "estimate_fixation"),
    ("haldane.analysis", "phase_diagnostics"),
    ("haldane.analysis", "counterexample_check"),
    ("haldane.cannings", "run_to_absorption"),
    ("haldane.streams", "trial_rng"),
    ("haldane.streams", "make_rng"),
    ("haldane.paintbox", "sample_y"),
    ("haldane.paintbox", "weights_from_y"),
    ("haldane.paintbox", "spiked_weights"),
    ("haldane.paintbox", "block_weight_sums"),
    ("haldane.paintbox", "estimate_weight_moment"),
    ("haldane.branching", "extinction_q"),
]

# (module, class, method) entry points; subclasses are listed explicitly
METHODS = [
    ("haldane.streams", "TrialStreams", "stream"),
    *[("haldane.paintbox", cls, meth)
      for cls in ("Deterministic", "Gamma", "TwoPoint", "LogNormal")
      for meth in ("sample", "sample_sum")],
    *[("haldane.branching", cls, "pgf")
      for cls in ("MixedPoisson", "MixedBinomial", "TwoPointImmortal", "Binary", "PlainPoisson")],
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, counts = self.name_id, self.parent, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "haldane" or n.startswith("haldane.")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(_span_name(mod_name, attr), original, _ON_RESULT.get(attr))
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(_span_name(mod_name, f"{cls_name}.{meth}"), original))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: spans, busy seconds (outermost spans) and self seconds.

        Self time of a span is its duration minus the durations of its
        direct child spans; a layer's self time sums that over its spans.
        A span is outermost unless its parent is in the same layer: the
        package's entry points nest within one layer only directly (pgf
        inside extinction_q, estimate_fixation inside counterexample_check).
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        layer_of_name = np.array([LAYERS.index(nm.split(".")[0]) for nm in self.names] + [-1])
        layer = layer_of_name[a["name_id"]]
        parent_layer = layer_of_name[np.where(a["parent"] >= 0, a["name_id"][a["parent"]], -1)]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        outer = parent_layer != layer
        out = {}
        for li, name in enumerate(LAYERS):
            sel = layer == li
            out[name] = {
                "spans": int(sel.sum()),
                "busy_s": float(dur[sel & outer].sum()),
                "self_s": float((dur[sel] - child_time[sel]).sum()),
            }
        return out

    def span_durations(self, prefix: str, suffix: str = "") -> np.ndarray:
        """Durations of the spans whose name starts and ends as given."""
        a = self.arrays()
        nids = [i for i, nm in enumerate(self.names)
                if nm.startswith(prefix) and nm.endswith(suffix)]
        return (a["end"] - a["start"])[np.isin(a["name_id"], nids)]

    def save(self, path, **extra) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            **{k: np.array(v) for k, v in extra.items()})


def _span_name(mod_name: str, attr: str) -> str:
    return f"{mod_name.split('.')[1]}.{attr}"


def _count_absorption(rec, counts) -> None:
    counts["generations"] += rec.tau
    counts["truncated"] += rec.outcome == "truncated"


def _count_solve(res, counts) -> None:
    counts["iterations"] += res.iterations


_ON_RESULT = {"run_to_absorption": _count_absorption, "extinction_q": _count_solve}
