"""Command-line front end.

Subcommands mirror the library: ``analyze`` classifies a symbol file,
``transform`` drives the operator transforms on seeded random instances,
``toeplitz`` factors a rational symbol and reports the affiliation
verdict, and ``experiment`` runs the counterdensity / Weyl / resolvent
demos.  Every report echoes the full numerical configuration and the
seed, and identical invocations produce byte-identical JSON.

Exit codes: 0 success, 1 input error (a usage error included), 2
verified failure (an axiom, declaration or factorization check that ran
and failed), 3 internal error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys

from . import __version__
from .config import ARRAY_BUDGET, COMPLEX_BYTES, DEFAULT, Config
from .errors import (
    BadParameters,
    CheckFailed,
    DeclarationMismatch,
    GraphregError,
    InconclusiveClassification,
    InputError,
)

# Each command imports the layers it runs inside its handler, numpy
# included, so that a process loads only those.

SCHEMA = 1


def _complexish(value):
    """Plain JSON types: a complex as [re, im], and numpy scalars and
    arrays, which have ``tolist``, as Python numbers and lists."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _complexish(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_complexish(v) for v in value]
    return value


def emit(report: dict, args) -> None:
    text = json.dumps(_complexish(report), indent=2, sort_keys=True) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    if not args.quiet:
        sys.stdout.write(text)


def make_report(args, command: str, results: dict, cfg: Config) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "config": cfg.to_dict(),
        "results": results,
    }


# the most characters of an unparsable polynomial its error message quotes
ECHO_CHARS = 60


def parse_poly(text: str):
    """Polynomial coefficients, as an ndarray, from either comma-separated
    coefficients or an expression in one variable, e.g. ``1-z``, which is
    expanded exactly (``expressions.poly_coefficients``) up to degree
    ``toeplitz.MAX_POLY_DEGREE``.  The error for text that does not parse
    quotes at most ECHO_CHARS of it."""
    import numpy as np

    from .expressions import parse_expression, poly_coefficients
    from .toeplitz import MAX_POLY_DEGREE

    text = text.strip()
    if all(c in "0123456789+-.eEj, " for c in text) and "," in text:
        return np.array([complex(tok) for tok in text.split(",")])
    try:
        return np.array(poly_coefficients(parse_expression(text),
                                          MAX_POLY_DEGREE))
    except (GraphregError, ValueError) as err:
        quoted = (repr(text) if len(text) <= ECHO_CHARS
                  else repr(text[:ECHO_CHARS]) + "…")
        raise ValueError(f"cannot parse polynomial {quoted}: {err}") from err


# The arrays each size allocates at its peak stay within ARRAY_BUDGET:
# for ``transform --n`` the nine stacked n x n complex residuals of an
# axiom check, for ``experiment --which resolvent --n`` the eight n x n
# complex arrays the check holds at once (t - lambda, its SVD, R, R* and
# their products; measured peak RSS above the process at n = 3: 7.4
# arrays at n = 512, 7.0 at n = 1024, 7.3 at the cap).
TRANSFORM_MAX_N = math.isqrt(ARRAY_BUDGET // (9 * COMPLEX_BYTES))
RESOLVENT_MAX_N = math.isqrt(ARRAY_BUDGET // (8 * COMPLEX_BYTES))


def check_parameter(name: str, value, lo=None, hi=None):
    """``value`` if it is finite and lies in [lo, hi] (each bound if
    given); otherwise BadParameters, which exits 1.  Sizes and numbers the
    library does not range-check itself go through here before anything
    is computed from them."""
    # an int is finite however large, and too large for cmath
    finite = isinstance(value, int) or cmath.isfinite(value)
    if (not finite or (lo is not None and not value >= lo)
            or (hi is not None and not value <= hi)):
        bound = "" if lo is None else f" and at least {lo}"
        bound += "" if hi is None else f" and at most {hi}"
        raise BadParameters(f"{name} must be finite{bound}; got {value}")
    return value


# The ``transform`` verdict gates.  A residual of an operator identity
# passes below IDENTITY_GATE, times max(1, ‖t‖) where the identity is
# between unbounded operators; a reconstruction through 1 − z*z, whose
# condition grows like max(1, ‖t‖)², or through the eigenvalues of a passes
# below RECONSTRUCTION_GATE, times that square where it applies.  ‖z‖ may
# exceed 1 by NORM_SLACK and the spectrum of |b| reach -PSD_SLACK.
IDENTITY_GATE = 1e-9
RECONSTRUCTION_GATE = 1e-8
NORM_SLACK = 1e-12
PSD_SLACK = 1e-10


# -- subcommands ------------------------------------------------------------------


def cmd_analyze(args, cfg: Config) -> tuple:
    from .symbols import regularity_report, symbol_from_dict, symbol_to_dict

    if args.catalog:
        from . import catalog

        sym = catalog.get(args.catalog)
        source = f"catalog:{args.catalog}"
    else:
        with open(args.symbol, "r", encoding="utf-8") as fh:
            sym = symbol_from_dict(json.load(fh))
        source = args.symbol
    try:
        report = regularity_report(sym, cfg)
    except (DeclarationMismatch, InconclusiveClassification) as err:
        return {"source": source, "error": str(err)}, 2
    out = report.to_dict()
    out["source"] = source
    if report.a_symbol is not None:
        out["a_symbol"] = symbol_to_dict(report.a_symbol)
        out["b_symbol"] = symbol_to_dict(report.b_symbol)
    return out, 0


def cmd_transform(args, cfg: Config) -> tuple:
    import numpy as np

    from .transforms import (
        aab_forward,
        aab_inverse,
        ab_axioms_check,
        absolute_value,
        bounded_transform,
        from_bounded,
        functional_calculus,
        hermitian_spectrum,
        opnorm,
        polar_decompose,
        random_operator,
    )

    n = check_parameter("--n", args.n, 1, TRANSFORM_MAX_N)
    rng = np.random.default_rng(args.seed)
    t = np.zeros((n, n), dtype=complex) if args.zero else random_operator(n, rng)
    if args.op == "calc" and not args.zero:
        h = random_operator(n, rng)
        t = h + h.conj().T  # self-adjoint, hence normal; 0 is normal too
    triple = aab_forward(t)
    results = {"n": n, "zero": bool(args.zero), "op": args.op}
    scale = max(1.0, opnorm(t))
    ok = True
    if args.op == "aab":
        rep = ab_axioms_check(triple, cfg)
        qp = aab_inverse(triple, cfg)
        results["residuals"] = {
            "bstar_b": rep.residual_bb,
            "b_bstar": rep.residual_bbstar,
            "intertwine": rep.residual_intertwine,
            "roundtrip": opnorm(qp.reconstruct(cfg) - t),
        }
        results["axioms_ok"] = rep.ok
        ok = rep.ok and results["residuals"]["roundtrip"] < IDENTITY_GATE * scale
    elif args.op == "inverse":
        qp = aab_inverse(triple, cfg)
        t2 = qp.reconstruct(cfg)
        again = aab_forward(t2)
        results["residuals"] = {
            "operator": opnorm(t2 - t),
            "triple_a": opnorm(again.a - triple.a),
            "triple_b": opnorm(again.b - triple.b),
        }
        ok = all(v < IDENTITY_GATE * scale for v in results["residuals"].values())
    elif args.op == "bounded":
        bt = bounded_transform(t, cfg)
        back = from_bounded(bt.z, cfg)
        results["residuals"] = {
            "one_minus_zz_vs_a": opnorm(
                np.eye(n) - bt.z.conj().T @ bt.z - triple.a),
            "reconstruction": opnorm(back - t),
        }
        results["norm_z"] = bt.norm
        results["in_Z"] = bt.in_z
        results["in_Zd"] = bt.in_zd
        ok = (bt.in_z and bt.norm <= 1 + NORM_SLACK
              and results["residuals"]["one_minus_zz_vs_a"] < IDENTITY_GATE
              and results["residuals"]["reconstruction"]
              < RECONSTRUCTION_GATE * scale ** 2)
    elif args.op == "abs":
        at = absolute_value(triple, cfg)
        w = hermitian_spectrum(at.b)
        results["axioms_ok"] = ab_axioms_check(at, cfg).ok
        results["b_psd_min_eig"] = float(w.min())
        ok = results["axioms_ok"] and results["b_psd_min_eig"] > -PSD_SLACK
    elif args.op == "polar":
        v, absval = polar_decompose(t, cfg)
        results["residuals"] = {
            "factorization": opnorm(t - v @ absval),
            "abs_recovery": opnorm(absval - v.conj().T @ t),
        }
        ok = all(r < IDENTITY_GATE * scale for r in results["residuals"].values())
    elif args.op == "calc":
        from .expressions import parse_expression

        f = parse_expression(args.f)
        beta = check_parameter("--beta", complex(args.beta))
        out = functional_calculus(triple, f, beta,
                                  np.random.default_rng(args.seed), cfg)
        results["f"] = args.f
        results["beta"] = beta
        results["residual_vs_a"] = opnorm(out - triple.a)
        ok = results["residual_vs_a"] < RECONSTRUCTION_GATE
    return results, 0 if ok else 2


def cmd_toeplitz(args) -> tuple:
    from .toeplitz import (
        TOEPLITZ_MIN_N,
        aab_from_data,
        affiliation_verdict,
        check_truncation_size,
    )

    check_truncation_size(args.N, TOEPLITZ_MIN_N)
    p = parse_poly(args.p)
    q = parse_poly(args.q)
    rep = affiliation_verdict(p, q)
    # one triple at N, from the verdict's factorization: the N/4 and N/2
    # truncations are its leading blocks
    tri = aab_from_data(rep.data, args.N)
    residuals = {str(n): tri.interior_residuals(n)
                 for n in (args.N // 4, args.N // 2, args.N)
                 if n >= TOEPLITZ_MIN_N}
    out = rep.to_dict()
    out["p"] = [_c for _c in p]
    out["q"] = [_c for _c in q]
    out["r"] = [_c for _c in rep.data.r]
    out["residuals"] = residuals
    return out, 0


def cmd_experiment(args, cfg: Config) -> tuple:
    which = args.which
    if which == "counterdensity":
        from .experiments import Side, build_pair, density_defect

        ks = [int(k) for k in args.K.split(",")]
        # every K is checked before the first solve
        pairs = [build_pair(k) for k in ks]
        rows = [{"K": pair.k,
                 "left": density_defect(pair, Side.LEFT),
                 "star": density_defect(pair, Side.STAR)}
                for pair in pairs]
        control = {
            "K": ks[0],
            "star_identity_r": density_defect(
                build_pair(ks[0], identity_r=True), Side.STAR),
        }
        return {"sweep": rows, "control": control,
                "note": "trends at truncation are heuristic evidence; "
                        "density itself is an asymptotic statement"}, 0
    if which == "weyl":
        from .experiments import (
            WEYL_FLOOR_CELLS,
            WEYL_MAX_M,
            WEYL_MIN_M,
            WEYL_SCALE,
            weyl_build,
            weyl_limits_check,
            weyl_relations_check,
        )

        # L, λ ∈ [-L, L], M and the widest window are checked before either
        # grid is built.  A window starts at the first grid point t_j =
        # -L + (j + ½)·dt at or past λ, so it fits when λ ≤ t[M - widths[0]]
        length = check_parameter("--L", args.L, *WEYL_SCALE)
        check_parameter("--lam", args.lam, -length, length)
        m = check_parameter("--M", args.M, WEYL_MIN_M, WEYL_MAX_M // 2)
        widths = [k * WEYL_FLOOR_CELLS for k in (4, 2, 1)]  # cells, widest first
        if args.lam > -length + (m - widths[0] + 0.5) * (2 * length / m):
            raise BadParameters(f"--lam {args.lam}: the widest window, "
                                f"{widths[0]} grid cells, leaves the grid")
        w2 = weyl_build(args.alpha, args.beta, 2 * m, length)
        w = weyl_build(args.alpha, args.beta, m, length)
        rel = weyl_relations_check(w)
        rel2 = weyl_relations_check(w2)
        rows = weyl_limits_check(w, args.lam, [c * w.dt for c in widths])
        return {
            "relations": {
                "M": args.M,
                "rel1_x": rel.rel1_x,
                "rel1_x_chain": rel.rel1_x_chain,
                "rel1_y_raw": rel.rel1_y,
                "rel1_y_damped": rel.rel1_y_damped,
                "rel2": rel.rel2,
                "rel2_star": rel.rel2_star,
                "sigma_quarter": rel.sigma_at(args.M // 4),
            },
            "relations_refined": {
                "M": 2 * args.M,
                "rel2": rel2.rel2,
                "rel2_star": rel2.rel2_star,
                "rel1_y_damped": rel2.rel1_y_damped,
            },
            "limits": [
                {"eps": r.eps, "cells": r.cells, "norm": r.norm_w,
                 "x_value": r.x_value, "x_error": r.x_error,
                 "y_abs": r.y_value, "yx_abs": r.yx_values}
                for r in rows
            ],
        }, 0
    if which == "resolvent":
        import numpy as np

        from .algebras import constant_matrix, grid_model, matrix_algebra
        from .experiments import resolvent_affiliation_check
        from .transforms import random_operator

        lam = check_parameter("--lam-c", complex(args.lam_c))
        rng = np.random.default_rng(args.seed)
        if args.grid:
            a, _, ma = grid_model(3)
            t = constant_matrix(a, np.array([[0, 0], [1, 0]], complex))
            rep = resolvent_affiliation_check(t, lam, a, ma, cfg)
        else:
            n = check_parameter("--n", args.n, 1, RESOLVENT_MAX_N)
            alg = matrix_algebra(n)
            t = random_operator(n, rng) + 3 * np.eye(n)
            rep = resolvent_affiliation_check(t, lam, alg, None, cfg)
        return rep.to_dict(), 0
    if which == "matrix-symbols":
        from .matrix_symbols import matrix_symbol_op, oscillating_column_example

        t, pattern = oscillating_column_example()
        return matrix_symbol_op(t, pattern).to_dict(), 0
    raise ValueError(f"unknown experiment {which!r}")


class _CatalogNames:
    """The names of the catalog symbols, for ``--catalog``'s choices.

    argparse asks for them only to check a given value or to list them
    in a message, so the catalog, and the symbol layer under it, is
    loaded then and not when the parser is built.
    """

    def __contains__(self, name) -> bool:
        from . import catalog

        return name in catalog.names()

    def __iter__(self):
        from . import catalog

        return iter(catalog.names())


class ArgumentParser(argparse.ArgumentParser):
    """argparse with the exit-code contract: a usage error is bad input
    (exit 1), and an argument that starts with a minus sign and then a
    digit, a point, ``z`` or ``(``, such as the coefficient list ``-1,2``
    or the polynomial ``-z+2``, is a value, not an option.  The
    subcommand is required after the options are parsed, so an unknown
    option is named before a missing subcommand."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[.\dz(]")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        if getattr(parsed, "cmd", "") is None:
            self.error("the following arguments are required: cmd")
        return parsed

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = ArgumentParser(
        prog="graphreg",
        description="Numerical laboratory for graph-regular operators on "
                    "Hilbert C*-modules")
    ap.add_argument("--config", help="JSON file overriding numerical settings")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="write the report to this path")
    ap.add_argument("--quiet", action="store_true")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="cmd")

    a = sub.add_parser("analyze", help="classify a piecewise symbol",
                       parents=[common])
    g = a.add_mutually_exclusive_group(required=True)
    g.add_argument("symbol", nargs="?", help="symbol JSON file")
    # a metavar keeps argparse from listing the choices while it builds
    g.add_argument("--catalog", choices=_CatalogNames(), metavar="NAME",
                   help="a built-in symbol: %(choices)s")

    t = sub.add_parser("transform", help="run operator transforms",
                       parents=[common])
    t.add_argument("--op", required=True,
                   choices=["aab", "inverse", "bounded", "abs", "polar", "calc"])
    t.add_argument("--n", type=int, default=4)
    t.add_argument("--zero", action="store_true", help="use the zero operator")
    t.add_argument("--f", default="1/(1+abs(w)^2)",
                   help="function for --op calc")
    t.add_argument("--beta", default="0", help="constant part for --op calc")

    tp = sub.add_parser("toeplitz", help="rational-symbol Toeplitz analysis",
                        parents=[common])
    tp.add_argument("p", help="numerator polynomial, e.g. '1' or '1,0,2'")
    tp.add_argument("q", help="denominator polynomial, e.g. '1-z'")
    tp.add_argument("--N", type=int, default=256)

    e = sub.add_parser("experiment", help="run a numerical experiment",
                       parents=[common])
    e.add_argument("--which", required=True,
                   choices=["counterdensity", "weyl", "resolvent",
                            "matrix-symbols"])
    e.add_argument("--K", default="8,16,32")
    e.add_argument("--alpha", type=float, default=1.0)
    e.add_argument("--beta", type=float, default=-1.0)
    e.add_argument("--M", type=int, default=512)
    e.add_argument("--L", type=float, default=20.0)
    e.add_argument("--lam", type=float, default=0.0)
    e.add_argument("--lam-c", default="1j",
                   help="resolvent point for --which resolvent")
    e.add_argument("--n", type=int, default=3)
    e.add_argument("--grid", action="store_true",
                   help="use the 2x2 grid-model operator")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built once per
    process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = Config.load(args.config) if args.config else DEFAULT
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    # the toeplitz verdicts are exact and read no setting
    handlers = {"analyze": cmd_analyze, "transform": cmd_transform,
                "toeplitz": lambda args, _: cmd_toeplitz(args),
                "experiment": cmd_experiment}
    try:
        results, code = handlers[args.cmd](args, cfg)
    except (OSError, ValueError, InputError) as err:
        # bad inputs and violated preconditions, not failed verifications
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except CheckFailed as err:
        print(f"verified failure: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    emit(make_report(args, args.cmd, results, cfg), args)
    return code


if __name__ == "__main__":
    sys.exit(main())
