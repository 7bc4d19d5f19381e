"""Span tracing of graphreg from outside the library.

``install`` replaces the public functions of every layer module (and a
few named methods) with wrappers that record a span per call: name,
start, end, parent span and job id.  Names that other modules bound with
``from .x import y`` are rebound too, so calls between layers are seen
whichever name they go through.  Spans stay in memory; the caller
takes a ``snapshot`` per pass and writes them out at the end of the run.

Some wrappers also record counts computed from argument shapes (SVD
work, dense bytes) or from results (inconclusive detections); these
repeat exactly at a fixed seed, unlike times.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "expressions", "symbols", "matrix_symbols", "algebras",
          "modules", "transforms", "toeplitz", "experiments")

# Methods wrapped on their class, per layer; module-level public functions
# are always wrapped.
METHODS = {
    "algebras": {"BlockAlgebra": ("right_mult_maps", "is_multiplier",
                                  "is_left_multiplier", "closed_under_product")},
    "modules": {
        "Submodule": ("from_vectors", "from_elements", "equals",
                      "is_essential", "is_orthogonally_closed"),
        "GraphOperator": ("from_matrix", "identity", "mult_domain", "domain",
                          "range", "kernel", "adjoint", "regularity",
                          "action_matrix"),
    },
    "transforms": {"QuotientPair": ("reconstruct", "kernel_inclusion_residual")},
    "toeplitz": {"ToeplitzTriple": ("interior_residuals",)},
    "matrix_symbols": {"SymbolMatrix": ("adjoint", "inverse")},
}

COMPLEX_BYTES = 16


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, tag]
        self.stack = []
        self.job = None
        self.counts = collections.Counter()
        self.maxima = collections.Counter()
        self.triples = set()

    def count(self, key, amount=1):
        self.counts[key] += amount

    def at_least(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def reset(self):
        """Start a new pass: spans and counters are cleared."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.maxima.clear()
        self.triples.clear()

    def snapshot(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "triples": len(self.triples)}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _svd_probe(tracer, args, kwargs):
    m, n = _arg(args, kwargs, 0, "mat").shape
    tracer.count("modules.svd.calls")
    tracer.count("modules.svd.work", m * n * min(m, n))
    tracer.at_least("modules.svd.max_rows", m)


def _truncation_probe(tracer, args, kwargs):
    n = _arg(args, kwargs, 1, "n")
    tracer.count("toeplitz.dense_bytes", COMPLEX_BYTES * n * n)


def _build_pair_probe(tracer, args, kwargs):
    k = _arg(args, kwargs, 0, "k")
    tracer.count("experiments.dense_bytes", COMPLEX_BYTES * (2 * k * k) ** 2)
    return f"K{k}"


def _weyl_build_probe(tracer, args, kwargs):
    m = _arg(args, kwargs, 2, "m")
    tracer.count("experiments.dense_bytes", 2 * COMPLEX_BYTES * m * m)
    return f"M{m}"


def _axioms_probe(tracer, args, kwargs):
    triple = _arg(args, kwargs, 0, "triple")
    digest = hashlib.blake2b(digest_size=16)
    for mat in (triple.a, triple.a_star, triple.b):
        digest.update(mat.tobytes())
    tracer.triples.add(digest.digest())


# Probes run before the call; a returned string tags the span.
PROBES = {
    "modules.orthonormal_columns": _svd_probe,
    "modules.nullspace": _svd_probe,
    "modules.GraphOperator.regularity":
        lambda tr, args, kw: args[0].algebra.label,
    "toeplitz.toeplitz_truncation": _truncation_probe,
    "experiments.build_pair": _build_pair_probe,
    "experiments.weyl_build": _weyl_build_probe,
    "experiments.density_defect":
        lambda tr, args, kw: f"K{_arg(args, kw, 0, 'pair').k}",
    "experiments.weyl_relations_check":
        lambda tr, args, kw: f"M{_arg(args, kw, 0, 'w').m}",
    "transforms.ab_axioms_check": _axioms_probe,
}

# Result checks run after a call that returned.
RESULT_PROBES = {
    "symbols.detect_point": lambda tr, result: (
        tr.count("symbols.detect_point.inconclusive")
        if result.kind is None else None),
}


def _layer(name):
    return name.split(".", 1)[0]


def _wrap(tracer, name, fn):
    probe = PROBES.get(name)
    result_probe = RESULT_PROBES.get(name)
    layer = _layer(name)
    spans, stack = tracer.spans, tracer.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = probe(tracer, args, kwargs) if probe else None
        parent = stack[-1] if stack else -1
        span = [name, 0.0, 0.0, parent, tracer.job, tag]
        stack.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            # count an exception once, where it leaves the layer
            if parent < 0 or _layer(spans[parent][0]) != layer:
                tracer.count(layer + ".failed")
            raise
        finally:
            span[2] = clock()
            stack.pop()
        if result_probe:
            result_probe(tracer, result)
        return result

    return wrapper


def install(tracer):
    """Wrap every layer of the imported graphreg package for ``tracer``;
    returns a function that puts the originals back."""
    wrappers, undo = {}, []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer in LAYERS:
        mod = importlib.import_module(f"graphreg.{layer}")
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, staticmethod):
                    rebind(cls, attr, staticmethod(_wrap(tracer, name, raw.__func__)))
                else:
                    rebind(cls, attr, _wrap(tracer, name, raw))
    # the defining modules and every ``from .layer import name`` binding
    for modname, mod in list(sys.modules.items()):
        if modname == "graphreg" or modname.startswith("graphreg."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    rebind(mod, attr, wrappers[obj])

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# -- per-layer metrics -------------------------------------------------------------

# name -> unit; ".s" is inclusive seconds, ".self_s" excludes the spans of
# other layers nested inside, counts are per pass.
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.commands": "count",
    "cli.report_bytes": "B",
    "expressions.self_s": "s", "expressions.evaluate.calls": "count",
    "expressions.parse_expression.calls": "count",
    "symbols.self_s": "s", "symbols.detect_point.calls": "count",
    "symbols.detect_point.inconclusive": "count",
    "symbols.hat_extension.calls": "count", "symbols.readback_failed": "count",
    "matrix_symbols.self_s": "s", "matrix_symbols.entry_profile.calls": "count",
    "algebras.self_s": "s", "algebras.right_mult_maps.calls": "count",
    "modules.self_s": "s",
    **{f"modules.regularity.M{n}.s": "s" for n in range(3, 8)},
    "modules.orthogonal_complement.calls": "count",
    "modules.svd.calls": "count", "modules.svd.max_rows": "rows",
    "modules.svd.work": "count",
    "transforms.self_s": "s", "transforms.calls": "count",
    "transforms.ab_axioms_check.calls": "count",
    "transforms.axiom_checks_per_triple": "ratio",
    "toeplitz.self_s": "s", "toeplitz.fejer_riesz.calls": "count",
    "toeplitz.toeplitz_aab.s": "s", "toeplitz.interior_residuals.s": "s",
    "toeplitz.dense_bytes": "B",
    "experiments.self_s": "s", "experiments.build_pair.s": "s",
    **{f"experiments.density_defect.K{k}.s": "s" for k in (8, 16, 32)},
    **{f"experiments.weyl_relations_check.M{m}.s": "s" for m in (512, 1024)},
    "experiments.weyl_limits_check.s": "s", "experiments.dense_bytes": "B",
    "experiments.resolvent_affiliation_check.s": "s",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace_overhead": "ratio",
}

# metric -> (span name, tag or None) whose inclusive seconds it sums
INCLUSIVE = {
    **{f"modules.regularity.M{n}.s": ("modules.GraphOperator.regularity", f"M{n}")
       for n in range(3, 8)},
    "toeplitz.toeplitz_aab.s": ("toeplitz.toeplitz_aab", None),
    "toeplitz.interior_residuals.s": ("toeplitz.ToeplitzTriple.interior_residuals", None),
    "experiments.build_pair.s": ("experiments.build_pair", None),
    **{f"experiments.density_defect.K{k}.s": ("experiments.density_defect", f"K{k}")
       for k in (8, 16, 32)},
    **{f"experiments.weyl_relations_check.M{m}.s":
       ("experiments.weyl_relations_check", f"M{m}") for m in (512, 1024)},
    "experiments.weyl_limits_check.s": ("experiments.weyl_limits_check", None),
    "experiments.resolvent_affiliation_check.s":
        ("experiments.resolvent_affiliation_check", None),
}

# metric -> span name whose calls it counts
CALLS = {
    "cli.commands": "cli.main",
    "expressions.evaluate.calls": "expressions.evaluate",
    "expressions.parse_expression.calls": "expressions.parse_expression",
    "symbols.detect_point.calls": "symbols.detect_point",
    "symbols.hat_extension.calls": "symbols.hat_extension",
    "matrix_symbols.entry_profile.calls": "matrix_symbols.entry_profile",
    "algebras.right_mult_maps.calls": "algebras.BlockAlgebra.right_mult_maps",
    "modules.orthogonal_complement.calls": "modules.orthogonal_complement",
    "transforms.ab_axioms_check.calls": "transforms.ab_axioms_check",
    "toeplitz.fejer_riesz.calls": "toeplitz.fejer_riesz",
}

COUNTERS = ("modules.svd.calls", "modules.svd.work", "toeplitz.dense_bytes",
            "experiments.dense_bytes", "symbols.detect_point.inconclusive",
            *(f"{layer}.failed" for layer in LAYERS))


def layer_metrics(spans, counts, maxima, triples) -> dict:
    """Per-layer metrics of one pass from its spans and counters.

    ``spans`` are [name, start, end, parent, job, tag] lists whose parent
    indexes the same list (-1 for a root).  Metrics that need more than
    the spans (cli.import_s, cli.report_bytes, symbols.readback_failed,
    trace_overhead) are left to the caller.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys((m for m in PER_LAYER if m.endswith(".self_s")), 0.0)
    out.update(dict.fromkeys(INCLUSIVE, 0.0))
    out.update(dict.fromkeys(CALLS, 0))
    out["transforms.calls"] = 0
    by_name = {}
    for i, (name, start, end, parent, _, tag) in enumerate(spans):
        layer = _layer(name)
        out[f"{layer}.self_s"] += (end - start) - child_time[i]
        by_name.setdefault(name, []).append((end - start, tag))
        if layer == "transforms":
            out["transforms.calls"] += 1
    for metric, (name, tag) in INCLUSIVE.items():
        out[metric] = sum(d for d, t in by_name.get(name, ()) if tag in (None, t))
    for metric, name in CALLS.items():
        out[metric] = len(by_name.get(name, ()))
    for key in COUNTERS:
        out[key] = counts.get(key, 0)
    out["modules.svd.max_rows"] = maxima.get("modules.svd.max_rows", 0)
    checks = out["transforms.ab_axioms_check.calls"]
    out["transforms.axiom_checks_per_triple"] = checks / triples if triples else 0.0
    return out
