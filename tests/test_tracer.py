"""The benchmark's span tracer binds package entry points by name.

perfbench/spans.py rebinds functions and methods such as
`block_weight_sums`, `sample_y` and `Gamma.sample_sum`; a rename or a
removal there breaks the benchmark, so install it here on every run.
"""

import importlib
from pathlib import Path

import pytest

from haldane import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def bindings(spans):
    out = {}
    for mod_name, attr in spans.FUNCTIONS:
        out[mod_name, attr] = getattr(importlib.import_module(mod_name), attr)
    for mod_name, cls_name, meth in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        out[mod_name, f"{cls_name}.{meth}"] = cls.__dict__[meth]
    return out


def test_tracer_installs_and_uninstalls(spans, tmp_path):
    originals = bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = bindings(spans)
        assert all(traced[key].__wrapped__ is fn for key, fn in originals.items())
        assert cli.run_command(["fixation", "--N", "20", "--s", "0.1", "--trials", "5",
                                "--seed", "1", "--out", str(tmp_path / "out.jsonl")]) == 0
    finally:
        tracer.uninstall()
    assert bindings(spans) == originals
    assert tracer.layer_stats()["cli"]["spans"] == 1
