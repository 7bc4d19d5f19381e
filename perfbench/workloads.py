"""The benchmark's three workloads, their seeded inputs and their jobs.

A workload pass runs every job once, in order, in a closed loop with a
single client.  Each job yields one report (JSON bytes) that the checks
in ``checks.py`` compare with the recorded references.

* ``quick-cli``: one ``python -m graphreg.cli`` process per command, as a
  user types them.  Start-up (interpreter, numpy, argparse, JSON) dominates.
* ``experiments``: the two published long runs, counterdensity and Weyl,
  through ``graphreg.cli.main`` in this process.  The experiments layer
  does nearly all the work.
* ``library-sweep``: one warm process calling the library the way a
  research script would: module regularity, the grid model, a transform
  battery, Toeplitz truncations and the symbol pipeline.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import dataclass

CATALOG = ("exp_i_over_x", "exp_i_over_x_over_x", "one_over_x", "x",
           "x_exp_minus_i_over_x")
# catalog symbols whose reports emit a_symbol / b_symbol
EMITTING = ("exp_i_over_x_over_x", "one_over_x", "x", "x_exp_minus_i_over_x")
TRANSFORM_OPS = ("aab", "inverse", "bounded", "abs", "polar", "calc")
TOEPLITZ_CLI = (("1", "1-z"), ("1", "2-z"), ("1+z^2", "(1-z)*(3+z)"))

REGULARITY_SIZES = range(3, 8)
GRID_POINTS = range(3, 9)
BATTERY_SIZES = range(2, 9)
BATTERY_PER_SIZE = 100
TOEPLITZ_SIZES = (256, 512, 1024)
# p/q with q = 1 - z (a circle zero: associated only) and with the zeros of
# q at 2 and -3 (affiliated)
TOEPLITZ_PAIRS = {"one_over_one_minus_z": ((1.0,), (1.0, -1.0)),
                  "affiliated": ((1.0, 0.0, 1.0), (6.0, -1.0, -1.0))}
CALC_F = "1/(1+abs(w)^2)"


@dataclass
class Outcome:
    """What one job produced: exit code (0 for an in-process report that
    was made), the report bytes, and the error text of a failure."""

    job: str
    code: int | None
    report: bytes | None
    error: str = ""


def to_jsonable(value):
    """Plain JSON types for reports: complex as [re, im], numpy scalars
    and arrays unwrapped."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if hasattr(value, "tolist"):
        return to_jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def dumps(report) -> bytes:
    return (json.dumps(to_jsonable(report), indent=2, sort_keys=True)
            + "\n").encode()


# -- quick-cli --------------------------------------------------------------------


@dataclass
class CliJob:
    name: str
    argv: list
    # the input symbol file is results[symbol_key] of this job's report
    symbol_from: str | None = None
    symbol_key: str | None = None


def quick_cli_jobs(seed: int) -> list:
    rng = random.Random(seed)
    jobs = [CliJob(f"analyze-{name}", ["analyze", "--catalog", name])
            for name in CATALOG]
    for name in EMITTING:
        for key in ("a_symbol", "b_symbol"):
            jobs.append(CliJob(f"readback-{name}.{key}",
                               ["analyze", f"{name}.{key}.json"],
                               f"analyze-{name}", key))
    for op in TRANSFORM_OPS:
        jobs.append(CliJob(f"transform-{op}",
                           ["transform", "--op", op,
                            "--seed", str(rng.randrange(2 ** 31))]))
    for i, (p, q) in enumerate(TOEPLITZ_CLI):
        jobs.append(CliJob(f"toeplitz-{i}", ["toeplitz", p, q]))
    jobs.append(CliJob("experiment-resolvent",
                       ["experiment", "--which", "resolvent",
                        "--seed", str(rng.randrange(2 ** 31))]))
    jobs.append(CliJob("experiment-resolvent-grid",
                       ["experiment", "--which", "resolvent", "--grid"]))
    jobs.append(CliJob("experiment-matrix-symbols",
                       ["experiment", "--which", "matrix-symbols"]))
    return jobs


def run_cli_job(job: CliJob, workdir: str, env: dict, launcher: list) -> Outcome:
    """Run one command in a fresh process in ``workdir``.

    ``launcher`` is the interpreter command that precedes the CLI
    arguments: ``python -m graphreg.cli`` untraced, or the tracing
    bootstrap.
    """
    if job.symbol_from is not None:
        try:
            with open(os.path.join(workdir, job.symbol_from + ".json"),
                      encoding="utf-8") as fh:
                symbol = json.load(fh)["results"][job.symbol_key]
        except (OSError, KeyError, ValueError) as err:
            return Outcome(job.name, None, None, f"no input symbol: {err!r}")
        with open(os.path.join(workdir, job.argv[-1]), "w", encoding="utf-8") as fh:
            json.dump(symbol, fh, indent=2, sort_keys=True)
    out = job.name + ".json"
    path = os.path.join(workdir, out)
    if os.path.exists(path):
        os.remove(path)
    proc = subprocess.run([*launcher, "--quiet", "--json", out, *job.argv],
                          cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    report = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            report = fh.read()
    return Outcome(job.name, proc.returncode, report, proc.stderr.strip())


# -- experiments ------------------------------------------------------------------


EXPERIMENT_RUNS = {
    "counterdensity": ["experiment", "--which", "counterdensity",
                       "--K", "8,16,32"],
    "weyl": ["experiment", "--which", "weyl", "--M", "512", "--L", "20"],
}


def experiment_jobs(workdir: str) -> list:
    """In-process ``graphreg.cli.main`` calls at the published parameters."""
    from graphreg import cli

    def job(name, argv):
        path = os.path.join(workdir, name + ".json")

        def run():
            code = cli.main(["--quiet", "--json", path, *argv])
            with open(path, "rb") as fh:
                return code, fh.read()
        return name, run

    return [job(name, argv) for name, argv in EXPERIMENT_RUNS.items()]


# -- library-sweep ------------------------------------------------------------------


def library_inputs(seed: int) -> dict:
    """Seeded operators, resolvent points and symbol variants."""
    import numpy as np
    from graphreg import catalog
    from graphreg.transforms import random_operator

    rng = np.random.default_rng(seed)
    battery = {}
    for n in BATTERY_SIZES:
        ops = [random_operator(n, rng) for _ in range(BATTERY_PER_SIZE)]
        herm = [random_operator(n, rng) for _ in range(BATTERY_PER_SIZE)]
        battery[n] = (ops, [h + h.conj().T for h in herm])
    return {
        "regularity": {n: random_operator(n, rng) for n in REGULARITY_SIZES},
        "grid_lambda": {n: complex(0.0, 0.5 + rng.random()) for n in GRID_POINTS},
        "battery": battery,
        "calc_seed": int(rng.integers(2 ** 31)),
        "symbols": {name: _variants(catalog.get(name), rng) for name in CATALOG},
    }


def _variants(base, rng) -> dict:
    """The symbol itself, shifted along the line and scaled in value.

    Shifts are dyadic so that the detector's samples p + 2^-k stay exact.
    """
    return {"base": base,
            "shifted": _shifted(base, float(rng.integers(1, 17)) / 4),
            "scaled": _scaled(base, float(rng.uniform(0.5, 4.0)))}


def _verdict(v) -> dict:
    return {"essentially_defined": v.essentially_defined,
            "orthogonally_closed": v.orthogonally_closed,
            "graph_regular": v.graph_regular, "regular": v.regular,
            "domain_dense": v.domain_dense, "diagnostics": v.diagnostics}


def _regularity_job(t):
    from graphreg.algebras import matrix_algebra
    from graphreg.modules import GraphOperator

    alg = matrix_algebra(t.shape[0])
    op = GraphOperator.from_matrix(alg, t)
    return {"graph_dim": op.graph.dim, "verdict": _verdict(op.regularity())}


GRID_BLOCKS = {"nilpotent": [[0, 0], [1, 0]], "lower": [[0, 0], [1, 1]]}


def _grid_job(npts, lam):
    import numpy as np
    from graphreg.algebras import constant_matrix, grid_model
    from graphreg.experiments import resolvent_affiliation_check
    from graphreg.modules import GraphOperator

    a, _, ma = grid_model(npts)
    out = {}
    for label, block in GRID_BLOCKS.items():
        t = constant_matrix(a, np.array(block, complex))
        op = GraphOperator.from_matrix(a, t)
        out[label] = {
            "verdict": _verdict(op.regularity()),
            "resolvent": resolvent_affiliation_check(t, lam, a, ma).to_dict(),
        }
    return out


def _battery_job(ops, herms, calc_seed):
    """Every matrix transform on each operator; worst residuals kept."""
    import numpy as np
    from graphreg import transforms as tf
    from graphreg.expressions import parse_expression

    f = parse_expression(CALC_F)
    rng = np.random.default_rng(calc_seed)
    worst = {"axiom": 0.0, "roundtrip": 0.0, "projection": 0.0,
             "bounded_norm": 0.0, "bounded_recon": 0.0, "abs_axiom": 0.0,
             "polar": 0.0, "calculus": 0.0}
    axioms_ok = True
    for t, h in zip(ops, herms):
        scale = max(1.0, tf.opnorm(t))
        tr = tf.aab_forward(t)
        rep = tf.ab_axioms_check(tr)
        axioms_ok = axioms_ok and rep.ok
        worst["axiom"] = max(worst["axiom"], rep.residual_bb,
                             rep.residual_bbstar, rep.residual_intertwine)
        back = tf.aab_inverse(tr).reconstruct()
        worst["roundtrip"] = max(worst["roundtrip"], tf.opnorm(back - t) / scale)
        p = tf.graph_projection(tr)
        worst["projection"] = max(worst["projection"], tf.opnorm(p @ p - p))
        bt = tf.bounded_transform(t)
        worst["bounded_norm"] = max(worst["bounded_norm"], bt.norm)
        recon = tf.from_bounded(bt.z)
        worst["bounded_recon"] = max(worst["bounded_recon"],
                                     tf.opnorm(recon - t) / scale ** 2)
        at = tf.absolute_value(tr)
        arep = tf.ab_axioms_check(at)
        axioms_ok = axioms_ok and arep.ok
        worst["abs_axiom"] = max(worst["abs_axiom"], arep.residual_bb)
        v, absval = tf.polar_decompose(t)
        worst["polar"] = max(worst["polar"], tf.opnorm(t - v @ absval) / scale)
        th = tf.aab_forward(h)
        out = tf.functional_calculus(th, f, 0.0, rng)
        worst["calculus"] = max(worst["calculus"], tf.opnorm(out - th.a))
    return {"operators": len(ops), "axioms_ok": axioms_ok, "worst": worst}


def _toeplitz_job(p, q):
    from graphreg.toeplitz import affiliation_verdict, toeplitz_aab

    rep = affiliation_verdict(p, q).to_dict()
    rep["residuals"] = {str(n): toeplitz_aab(p, q, n).interior_residuals()
                        for n in TOEPLITZ_SIZES}
    return rep


def _shifted(sym, s):
    from dataclasses import replace

    from graphreg import expressions as ex
    from graphreg.symbols import Declaration, PiecewiseSymbol

    moved = ex.sub(ex.VAR, ex.num(s))
    dom = sym.domain
    dom = replace(dom, lo=dom.lo + s, hi=dom.hi + s,
                  punctures=tuple(p + s for p in dom.punctures))
    pieces = tuple((a + s, b + s, ex.substitute(t, moved))
                   for a, b, t in sym.pieces)
    decls = tuple(Declaration(d.at + s, d.cls, d.limit)
                  for d in sym.declarations)
    return PiecewiseSymbol(dom, pieces, decls)


def _scaled(sym, c):
    from graphreg import expressions as ex
    from graphreg.symbols import Declaration, PiecewiseSymbol

    pieces = tuple((a, b, ex.mul(ex.num(c), t)) for a, b, t in sym.pieces)
    decls = tuple(Declaration(d.at, d.cls,
                              None if d.limit is None else c * d.limit)
                  for d in sym.declarations)
    return PiecewiseSymbol(sym.domain, pieces, decls)


def _symbol_job(base, sym):
    """Regularity chain, hat extension, symbol transforms and equivalence."""
    from graphreg import transforms as tf
    from graphreg.expressions import parse_expression
    from graphreg.symbols import hat_extension, regularity_report, symbol_equivalent

    rep = regularity_report(sym)
    out = rep.to_dict()
    # point locations move with the seed; keep the classes in order
    out["point_classes"] = [out["point_classes"][k]
                            for k in sorted(out["point_classes"], key=str)]
    hat = hat_extension(sym)
    out["hat_punctures"] = len(hat.domain.punctures)
    out["equivalent_to_hat"] = symbol_equivalent(sym, hat)
    out["equivalent_to_base"] = symbol_equivalent(base, sym)
    if rep.graph_regular:
        triple = tf.aab_forward_symbol(sym)
        # b/a marks every puncture for re-detection, so only its shape is kept
        out["inverse_pieces"] = len(tf.aab_inverse_symbol(triple).pieces)
        bounded = tf.bounded_transform_symbol(sym)
        out["bounded_adjointable"] = bounded.adjointable
        absm = tf.absolute_value_symbol(sym)
        out["abs_regular"] = regularity_report(absm).regular
        fa = tf.functional_calculus_symbol(sym, parse_expression(CALC_F))
        out["calculus_equals_a"] = symbol_equivalent(fa, triple.a)
    return out


def _matrix_symbols_job():
    from graphreg.matrix_symbols import matrix_symbol_op, oscillating_column_example

    t, pattern = oscillating_column_example()
    return matrix_symbol_op(t, pattern).to_dict()


def library_jobs(inputs: dict) -> list:
    """(name, callable returning a report dict) for one pass."""
    jobs = [(f"regularity-M{n}", lambda t=t: _regularity_job(t))
            for n, t in inputs["regularity"].items()]
    jobs += [(f"grid-{n}", lambda n=n, lam=lam: _grid_job(n, lam))
             for n, lam in inputs["grid_lambda"].items()]
    jobs += [(f"battery-n{n}",
              lambda ops=ops, hs=hs: _battery_job(ops, hs, inputs["calc_seed"]))
             for n, (ops, hs) in inputs["battery"].items()]
    jobs += [(f"toeplitz-{label}", lambda p=p, q=q: _toeplitz_job(p, q))
             for label, (p, q) in TOEPLITZ_PAIRS.items()]
    for name, variants in inputs["symbols"].items():
        jobs += [(f"symbol-{name}-{kind}",
                  lambda base=variants["base"], sym=sym: _symbol_job(base, sym))
                 for kind, sym in variants.items()]
    jobs.append(("matrix-symbols", _matrix_symbols_job))
    return jobs


def run_inprocess_job(name, fn) -> Outcome:
    """Run a job in this process; an exception is a failed job."""
    try:
        result = fn()
    except Exception as err:  # a failed job is reported, not fatal
        return Outcome(name, None, None, f"{type(err).__name__}: {err}")
    if isinstance(result, tuple):       # (exit code, report bytes) from cli.main
        code, report = result
        return Outcome(name, code, report)
    return Outcome(name, 0, dumps(result))
