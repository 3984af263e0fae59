import ast
from pathlib import Path

import numpy as np
import pytest

import haldane
from haldane.streams import TrialStreams, make_rng, trial_rng


def test_distinct_trials_distinct_draws():
    a = trial_rng(7, 0).random(4)
    b = trial_rng(7, 1).random(4)
    assert not np.allclose(a, b)


def test_same_key_reproduces():
    assert trial_rng(7, 3).random(8).tolist() == trial_rng(7, 3).random(8).tolist()


def test_seed_and_index_do_not_collide():
    # seed and index enter SeedSequence as entropy and spawn key, so
    # swapping them names a different stream
    a = trial_rng(1, 0).random(4)
    b = trial_rng(0, 1).random(4)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("seed, index", [(0, 0), (7, 0), (7, 5), (2**63 + 11, 3)])
def test_stream_is_the_spawned_child_sequence(seed, index):
    # numpy's documented parallel streams: child `index` of SeedSequence(seed)
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    expected = np.random.Generator(np.random.SFC64(child))
    assert trial_rng(seed, index).integers(0, 2**63, 16).tolist() == \
        expected.integers(0, 2**63, 16).tolist()


def test_negative_seed_is_masked_to_64_bits():
    assert trial_rng(-3, 2).random(8).tolist() == trial_rng(2**64 - 3, 2).random(8).tolist()


def test_first_draws_of_a_thousand_streams_are_distinct():
    first = [int(trial_rng(7, i).integers(0, 2**63)) for i in range(1000)]
    assert len(set(first)) == 1000


def test_trial_streams_matches_trial_rng():
    streams = TrialStreams(987654321)
    for index in (0, 1, 17, 2**40 + 5):
        fresh = trial_rng(987654321, index)
        reused = streams.stream(index)
        assert fresh.random(3).tolist() == reused.random(3).tolist()
        assert fresh.binomial(100, 0.3) == reused.binomial(100, 0.3)
        assert fresh.standard_gamma(2.5) == reused.standard_gamma(2.5)


def test_make_rng_is_stream_zero():
    assert make_rng(5).random(4).tolist() == trial_rng(5, 0).random(4).tolist()


_CONSTRUCTORS = {"Generator", "RandomState", "default_rng"} | {
    name for name, obj in vars(np.random).items()
    if isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)
}


def _name(expr):
    return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)


def _package_nodes(skip=None):
    """(file name, node) for every syntax node of the package's modules but `skip`."""
    package = Path(haldane.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def _calls_outside(module):
    """(file name, Call node) for every call in the package outside `module`."""
    return ((f, node) for f, node in _package_nodes(module) if isinstance(node, ast.Call))


def test_only_streams_constructs_generators():
    # every random stream of the package comes from `streams`, so its
    # layout is the one the records name
    offenders = []
    for fname, node in _calls_outside("streams.py"):
        name = _name(node.func)
        if name in _CONSTRUCTORS:
            offenders.append(f"{fname}:{node.lineno} {name}")
    assert not offenders, offenders


_SOURCE_CLASSES = {"Deterministic", "Gamma", "TwoPoint", "LogNormal", "SpikedSpec"}


def test_only_paintbox_tests_source_classes():
    # each source owns its laws (block sums, rho^2, q_N), so no other
    # module branches on which concrete source it holds; YLaw checks stay
    offenders = []
    for fname, node in _calls_outside("paintbox.py"):
        if _name(node.func) == "isinstance" and len(node.args) == 2:
            classes = node.args[1]
            for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
                if _name(cls) in _SOURCE_CLASSES:
                    offenders.append(f"{fname}:{node.lineno} {_name(cls)}")
    assert not offenders, offenders


def _imported(node):
    """Top-level names of the modules an import statement loads; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.partition(".")[0]]
    return []


def test_no_asserts_and_no_benchmark_imports():
    # invariants raise exceptions, which `python -O` does not strip, and
    # the package is measured from outside: it never imports the benchmark
    offenders = []
    for fname, node in _package_nodes():
        if isinstance(node, ast.Assert):
            offenders.append(f"{fname}:{node.lineno} assert")
        if "perfbench" in _imported(node):
            offenders.append(f"{fname}:{node.lineno} imports perfbench")
    assert not offenders, offenders
