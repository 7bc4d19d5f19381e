"""The library names that the span tracer in ``perfbench/spans.py`` wraps.

``spans.install`` looks every method of ``spans.METHODS`` up in its
class ``__dict__``, so a renamed or deleted one is a KeyError in every
traced benchmark run.  A probe keyed by a name that is not wrapped never
runs, and one that reads an argument by position reads the wrong one
after a signature change; both show only as a wrong counter.  This
reads the tracer's tables; it changes nothing under ``perfbench/``.
"""

import functools
import importlib
import importlib.util
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_is_defined_on_its_class():
    spans = load_spans()
    for layer, classes in spans.METHODS.items():
        assert layer in spans.LAYERS
        module = importlib.import_module(f"graphreg.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            missing = [m for m in methods if m not in cls.__dict__]
            assert not missing, (layer, cls_name, missing)


@functools.cache
def wrapped_names():
    """The span names ``spans.install`` wraps, recorded by a private copy
    of the tracer module whose ``_wrap`` hands each function back
    unwrapped, so the library runs its own code even before the undo."""
    spans = load_spans()
    names = set()

    def recording(tracer, name, fn):
        names.add(name)
        return fn

    spans._wrap = recording
    spans.install(spans.Tracer())()
    return frozenset(names)


SPANS_MODULE = load_spans()
PROBED = [*SPANS_MODULE.PROBES, *SPANS_MODULE.RESULT_PROBES]
# known stale probes: each case passes, and so fails as strict, once its
# key is dropped from the tables or names a wrapped function again
NOT_WRAPPED = {
    "toeplitz.toeplitz_truncation": "ROADMAP item 1(c): its probe matches "
    "nothing since toeplitz_truncation moved into the tests",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True,
                                               reason=NOT_WRAPPED[name]))
    if name in NOT_WRAPPED else name
    for name in dict.fromkeys([*PROBED, *NOT_WRAPPED])])
def test_every_probe_names_a_wrapped_function(name):
    assert name not in PROBED or name in wrapped_names()


# the probes read these arguments by position
POSITIONAL_READS = [
    ("experiments", "build_pair", 0, "k"),
    ("experiments", "weyl_build", 2, "m"),
    ("experiments", "density_defect", 0, "pair"),
    ("experiments", "weyl_relations_check", 0, "w"),
    ("modules", "orthonormal_columns", 0, "mat"),
    ("modules", "nullspace", 0, "mat"),
]


@pytest.mark.parametrize("layer, function, index, name", POSITIONAL_READS)
def test_positional_reads_match_the_parameter_names(layer, function, index,
                                                    name):
    module = importlib.import_module(f"graphreg.{layer}")
    params = list(inspect.signature(getattr(module, function)).parameters)
    assert params[index] == name, params
