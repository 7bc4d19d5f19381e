"""The library names that the span tracer in ``perfbench/spans.py`` wraps.

``spans.install`` looks every method of ``spans.METHODS`` up in its
class ``__dict__``, so a renamed or deleted one is a KeyError in every
traced benchmark run.  This reads the tracer's table; it changes nothing
under ``perfbench/``.
"""

import importlib
import importlib.util
import pathlib

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
