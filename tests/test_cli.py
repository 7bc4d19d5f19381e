import dataclasses
import json
import math
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphreg.config import DEFAULT

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "graphreg.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc


def test_analyze_catalog_exit_codes():
    out = run_cli("analyze", "--catalog", "one_over_x")
    data = json.loads(out.stdout)
    assert data["results"]["graph_regular"] is True
    assert data["results"]["regular"] is False


def test_analyze_classifier_detects_oscillation():
    out = run_cli("analyze", "--catalog", "exp_i_over_x")
    data = json.loads(out.stdout)
    assert data["results"]["graph_regular"] is False


def test_analyze_parse_error_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "domain": {"base": "interval", "lo": 0, "hi": 1,
                   "punctures": [0.0], "infinity": False},
        "pieces": [], "declarations": []}))
    run_cli("analyze", str(bad), expect=1)


def test_analyze_declaration_mismatch_is_verified_failure(tmp_path):
    lying = tmp_path / "lying.json"
    lying.write_text(json.dumps({
        "domain": {"base": "interval", "lo": 0, "hi": 1,
                   "punctures": [0.0], "infinity": False},
        "pieces": [{"lo": 0.0, "hi": 1.0, "expr": "1/x"}],
        "declarations": [{"at": 0.0, "class": "reg_b", "limit": [0.0, 0.0]}]}))
    proc = run_cli("analyze", str(lying), expect=2)
    assert "error" in json.loads(proc.stdout)["results"]


def test_transform_aab_seeded_residuals():
    out = run_cli("transform", "--op", "aab", "--n", "4", "--seed", "42")
    res = json.loads(out.stdout)["results"]["residuals"]
    assert res["bstar_b"] < 1e-10
    assert res["roundtrip"] < 1e-9


def test_transform_bounded_zero_operator():
    out = run_cli("transform", "--op", "bounded", "--zero")
    results = json.loads(out.stdout)["results"]
    assert results["norm_z"] == 0.0


def test_transform_calc_returns_a():
    out = run_cli("transform", "--op", "calc", "--f", "1/(1+abs(w)^2)",
                  "--n", "4", "--seed", "3")
    assert json.loads(out.stdout)["results"]["residual_vs_a"] < 1e-8


def test_toeplitz_verdict():
    out = run_cli("toeplitz", "1", "1-z", "--N", "64")
    results = json.loads(out.stdout)["results"]
    assert results["verdict"] == "AssociatedOnly"
    assert results["witnesses"][0] < 1e-12


def test_weyl_experiment_exact_relation():
    out = run_cli("experiment", "--which", "weyl", "--M", "256", "--L", "20")
    rel = json.loads(out.stdout)["results"]["relations"]
    assert rel["rel1_x"] < 1e-12


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli("--quiet", "--json", str(path),
                "transform", "--op", "aab", "--n", "5", "--seed", "7")
    assert a.read_bytes() == b.read_bytes()


def test_determinism_across_commands(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli("--quiet", "--json", str(path),
                "toeplitz", "1", "1-z", "--N", "32")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", [
    "x", "one_over_x", "exp_i_over_x", "exp_i_over_x_over_x",
    "x_exp_minus_i_over_x",
])
def test_catalog_reports_match_goldens(name, tmp_path):
    out = tmp_path / f"{name}.json"
    run_cli("--quiet", "--json", str(out), "analyze", "--catalog", name)
    golden = GOLDEN / f"analyze_{name}.json"
    assert golden.exists(), f"golden file missing; regenerate with {golden}"
    assert out.read_bytes() == golden.read_bytes()


def test_config_override_echoed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zero_tol": 1e-7}))
    out = run_cli("--config", str(cfg), "analyze", "--catalog", "x")
    data = json.loads(out.stdout)
    assert data["config"]["zero_tol"] == 1e-7


def test_unknown_config_key_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    run_cli("--config", str(cfg), "analyze", "--catalog", "x", expect=1)


def test_counterdensity_experiment_single_k():
    out = run_cli("experiment", "--which", "counterdensity", "--K", "8")
    results = json.loads(out.stdout)["results"]
    row = results["sweep"][0]
    assert row["left"] < 0.1
    assert row["star"] > 0.5
    assert results["control"]["star_identity_r"] < 1e-8


def test_main_builds_its_parser_once_and_keeps_no_state(monkeypatch, capsys):
    from graphreg import cli

    assert cli.build_parser() is not cli.build_parser()
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    argv = ["experiment", "--which", "counterdensity", "--K", "8"]
    try:
        assert cli.main(["--seed", "7", *argv]) == 0
        first = json.loads(capsys.readouterr().out)
        with pytest.raises(SystemExit) as usage:
            cli.main(["experiment", "--which", "nothing"])
        assert usage.value.code == 1
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    # neither a parsed value nor a usage error carries over to the next call
    assert (first["seed"], second["seed"]) == (7, 0)
    assert first["results"] == second["results"]


def test_bad_experiment_parameters_are_input_errors():
    run_cli("experiment", "--which", "counterdensity", "--K", "4", expect=1)
    run_cli("experiment", "--which", "weyl", "--beta", "1.0", expect=1)


def test_oversized_experiment_parameters_are_input_errors():
    # refused before the large matrices are allocated
    run_cli("experiment", "--which", "counterdensity", "--K", "8,100", expect=1)
    # M itself is allowed, its refined grid 2M is not
    run_cli("experiment", "--which", "weyl", "--M", "4096", expect=1)


@pytest.mark.parametrize("content", [
    {"zero_tol": "abc"}, {"kernel_tol": -3}, [],
    {"subspace_tol": True}, {"zero_tol": float("inf")},
], ids=["string", "negative", "list", "bool", "infinite"])
def test_invalid_config_is_input_error(content, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    proc = run_cli("--config", str(cfg), "analyze", "--catalog", "x", expect=1)
    assert proc.stderr.startswith("config error:")


def test_symbol_file_not_an_object_is_input_error(tmp_path):
    sym = tmp_path / "s.json"
    sym.write_text("[1]")
    proc = run_cli("analyze", str(sym), expect=1)
    assert "input error:" in proc.stderr


@pytest.mark.parametrize("content, key", [
    ({}, "'domain'"),
    ({"domain": {}}, "'base'"),
    ({"domain": {"base": "realline"}, "pieces": 5}, "'pieces'"),
], ids=["empty", "empty-domain", "pieces-not-a-list"])
def test_symbol_missing_or_mistyped_key_is_input_error(content, key, tmp_path):
    sym = tmp_path / "s.json"
    sym.write_text(json.dumps(content))
    proc = run_cli("analyze", str(sym), expect=1)
    assert proc.stderr.startswith("input error:")
    assert key in proc.stderr


def test_non_finite_calculus_is_a_named_check_failure():
    proc = run_cli("transform", "--op", "calc", "--f", "1/(w-w)", expect=2)
    assert "functional calculus: f is not finite" in proc.stderr


def test_expression_syntax_error_is_input_error():
    # a parse error is bad input, in --f as in a polynomial
    proc = run_cli("transform", "--op", "calc", "--f", "(w", expect=1)
    assert proc.stderr.startswith("input error: expected ')'")
    proc = run_cli("toeplitz", "1", "(1-z", expect=1)
    assert proc.stderr.startswith("input error:")


def test_every_error_derives_from_one_exit_code_base():
    from graphreg import errors
    from graphreg.errors import CheckFailed, GraphregError, InputError

    assert set(GraphregError.__subclasses__()) == {InputError, CheckFailed}
    defined = [obj for obj in vars(errors).values() if isinstance(obj, type)
               and issubclass(obj, GraphregError)
               and obj not in (GraphregError, InputError, CheckFailed)]
    for cls in defined:
        assert issubclass(cls, InputError) != issubclass(cls, CheckFailed), cls
    # the README's input errors; every other error is a failed check
    assert {cls.__name__ for cls in defined if issubclass(cls, InputError)} == {
        "ExprSyntaxError", "BadParameters", "LambdaInSpectrum"}


SHOW_LAYERS = """
import sys
import graphreg.cli
code = graphreg.cli.main(["--quiet", *sys.argv[1:]])
print(" ".join(sorted(m for m in sys.modules if m.startswith("graphreg."))))
print("numpy" in sys.modules)
sys.exit(code)
"""
FRONT = {"cli", "config", "errors"}
EXPRESSIONS = {"expressions", "gaussian"}
SYMBOLS = EXPRESSIONS | {"catalog", "limits", "symbols"}


def show_layers(*argv) -> tuple:
    """The graphreg layers a fresh interpreter loads to run ``argv``, and
    whether it loaded numpy."""
    proc = subprocess.run([sys.executable, "-c", SHOW_LAYERS, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    layers, numpy = proc.stdout.splitlines()
    return {m.removeprefix("graphreg.") for m in layers.split()}, numpy == "True"


@pytest.mark.parametrize("argv, layers, numpy", [
    (["analyze", "--catalog", "x"], SYMBOLS, False),
    (["transform", "--op", "aab"], {"transforms"}, True),
    (["transform", "--op", "calc"], EXPRESSIONS | {"transforms"}, True),
    (["toeplitz", "1", "1-z"], EXPRESSIONS | {"toeplitz", "transforms"}, True),
    (["experiment", "--which", "resolvent", "--grid"],
     {"algebras", "experiments", "transforms"}, True),
    (["experiment", "--which", "matrix-symbols"],
     EXPRESSIONS | {"limits", "matrix_symbols", "symbols"}, True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_command_loads_only_its_layers(argv, layers, numpy):
    # a fresh interpreter per command: the front end's own modules and the
    # layers the command runs, nothing else; the symbol layer runs on
    # Python numbers, so analyze loads no numpy
    assert show_layers(*argv) == (FRONT | layers, numpy)


def test_symbol_readback_loads_no_numpy(tmp_path):
    out = json.loads(run_cli("analyze", "--catalog", "x_exp_minus_i_over_x").stdout)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(out["results"]["b_symbol"]))
    assert show_layers("analyze", str(path)) == (FRONT | SYMBOLS - {"catalog"},
                                                 False)


def test_cli_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graphreg.cli; print(sorted("
         "m for m in sys.modules if m.startswith('graphreg')), 'numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ("['graphreg', 'graphreg.cli', 'graphreg.config', "
                                   "'graphreg.errors'] False")


def test_package_import_loads_no_layer():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, graphreg; print(sorted("
         "m for m in sys.modules if m.startswith('graphreg')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['graphreg']"


def test_config_reaches_hat_extension(tmp_path, monkeypatch, capsys):
    from graphreg import cli, symbols

    seen = []
    original = symbols.hat_extension

    def spy(symbol, cfg=symbols.DEFAULT):
        seen.append(cfg)
        return original(symbol, cfg)

    monkeypatch.setattr(symbols, "hat_extension", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"value_agreement_tol": 1e-7}))
    assert cli.main(["--config", str(cfg), "analyze", "--catalog", "one_over_x"]) == 0
    capsys.readouterr()
    # the a and b symbols are hat-extended after the transform, and their
    # declared limits checked within value_agreement_tol
    assert len(seen) >= 2
    assert all(c.value_agreement_tol == 1e-7 for c in seen)


@pytest.mark.parametrize("argv", [
    ["toeplitz", "1", "1-z", "--N", "1"],
    ["toeplitz", "1", "1-z", "--N", "-4"],
    ["toeplitz", "1", "1-z", "--N", "7"],
    ["transform", "--op", "aab", "--n", "0"],
    ["transform", "--op", "calc", "--beta", "nan"],
    ["experiment", "--which", "weyl", "--L", "0"],
    ["experiment", "--which", "weyl", "--L", "-1"],
    ["experiment", "--which", "weyl", "--alpha", "nan"],
    ["experiment", "--which", "weyl", "--lam", "inf"],
    ["experiment", "--which", "resolvent", "--lam-c", "nan"],
    ["experiment", "--which", "resolvent", "--n", "0"],
], ids=lambda argv: " ".join(argv[-3:]))
def test_parameter_out_of_range_is_input_error(argv):
    # each is refused at the boundary, not by a failure deeper down
    proc = run_cli(*argv, expect=1)
    assert proc.stderr.startswith("input error:")
    assert "SVD" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["--lam", "25"], "--lam must be finite and at least -20.0 and at most 20.0"),
    (["--L", "nan", "--lam", "25"], "--L must be finite"),
    (["--lam", "19.99"], "window, 32 grid cells, leaves the grid"),
    (["--lam", "17.54"], "window, 32 grid cells, leaves the grid"),
], ids=["lam-off-grid", "L-nan", "window-off-grid", "window-past-last-start"])
def test_weyl_window_point_is_refused_before_any_grid(argv, message,
                                                      monkeypatch, capsys):
    from graphreg import cli, experiments

    built = []
    monkeypatch.setattr(experiments, "weyl_build",
                        lambda *args: built.append(args))
    assert cli.main(["--quiet", "experiment", "--which", "weyl", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    assert built == []


def test_weyl_window_from_the_last_fitting_point_is_built(monkeypatch, capsys):
    # at L = 20, M = 512 the 32-cell window fits from t[480] = 17.5390625,
    # the grid point -L + 480.5·2L/M, and from no later one
    from graphreg import cli, experiments
    from graphreg.errors import BadParameters

    built = []

    def build(*args):
        built.append(args)
        raise BadParameters("stop after the checks")

    monkeypatch.setattr(experiments, "weyl_build", build)
    argv = ["--quiet", "experiment", "--which", "weyl", "--lam", "17.5390625"]
    assert cli.main(argv) == 1
    assert "stop after the checks" in capsys.readouterr().err
    assert len(built) == 1


def test_zero_denominator_is_input_error():
    proc = run_cli("toeplitz", "1", "0", expect=1)
    assert "zero polynomial" in proc.stderr


def test_symbol_with_lower_laurent_degree():
    # |z/2|² + 1 is constant on the circle, so r is a constant
    out = run_cli("toeplitz", "0,0.5", "1", "--N", "16")
    results = json.loads(out.stdout)["results"]
    assert results["verdict"] == "Affiliated"
    assert len(results["r"]) == 1


def test_rounding_level_coefficient_is_no_degree():
    # 1.7e-86·z² is below the rounding of |p|² + |q|²: the factor and the
    # verdict are those of 1 + z over 1
    tiny, plain = (json.loads(run_cli("toeplitz", p, "1", "--N", "16").stdout)
                   ["results"] for p in ("1,1,1.7e-86", "1,1"))
    assert tiny["verdict"] == plain["verdict"] == "Affiliated"
    assert tiny["r"] == plain["r"]


def test_bounded_oscillation_at_infinity_is_regular(tmp_path):
    sym = tmp_path / "sin.json"
    sym.write_text(json.dumps({
        "domain": {"base": "realline"},
        "pieces": [{"lo": None, "hi": None, "expr": "sin(x)"}],
        "declarations": [{"at": "inf", "class": "sing_supp"}]}))
    results = json.loads(run_cli("analyze", str(sym)).stdout)["results"]
    assert results["graph_regular"] is True
    assert results["regular"] is True
    for key in ("a_symbol", "b_symbol"):
        decls = results[key]["declarations"]
        assert [(d["at"], d["class"]) for d in decls] == [("inf", "sing_supp")]
        emitted = tmp_path / f"{key}.json"
        emitted.write_text(json.dumps(results[key]))
        run_cli("analyze", str(emitted))


COEFF = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(
    -4.0, 4.0, allow_nan=False, allow_infinity=False)


def _coefficients(draw_complex):
    real = st.lists(COEFF, min_size=1, max_size=4)
    if not draw_complex:
        return real.map(lambda cs: ",".join(repr(c) for c in cs))
    return st.lists(st.tuples(COEFF, COEFF), min_size=1, max_size=4).map(
        lambda cs: ",".join(repr(complex(re, im)).strip("()") for re, im in cs))


def _finite(text):
    def refuse(token):
        raise AssertionError(f"non-finite {token} in a report that exits 0")
    json.loads(text, parse_constant=refuse)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cplx=st.booleans(), data=st.data(), n=st.integers(8, 64))
def test_toeplitz_command_fuzz(cplx, data, n, capsys):
    from graphreg import cli

    p = data.draw(_coefficients(cplx))
    q = data.draw(_coefficients(cplx))
    try:
        # "--": a list that starts with a minus sign is no option
        code = cli.main(["toeplitz", "--N", str(n), "--", p, q])
    except SystemExit as stop:   # argparse refuses the arguments
        code = stop.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (p, q, n)
    if code == 0:
        _finite(out)


# symbol files: a well-formed tiling of pieces and declarations, then up to
# two fields replaced by a value of any JSON type
POINT = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1e-9, -1e15])
EXPRS = st.sampled_from([
    "x", "1/x", "exp(i/x)", "exp(i/x)/x", "x*exp(-i/x)", "sin(x)", "sin(1/x)^2",
    "sqrt(x)", "abs(x)", "1/(x-1)", "cos(x)/x", "exp(x)", "exp(1/x)", "1/x^2",
    "conj(x)", "0", "x^300", "exp(exp(x))", "1e308*x", "(x", "y*x", "sin",
]) | st.text("x1/()+-*^ie.", max_size=10)
NUMBER = POINT | st.floats() | st.integers(-10 ** 400, 10 ** 400)
JUNK = (NUMBER | st.none() | st.booleans() | st.text(max_size=4)
        | st.lists(st.integers(), max_size=2)
        | st.sampled_from(["inf", [0.0, 1.0], {}]))
CLASSES = st.sampled_from(["reg_b", "reg_inf", "sing_supp", "bogus"])
DOMAIN_KEYS = ("base", "lo", "hi", "punctures", "infinity")


@st.composite
def symbol_files(draw):
    compact = draw(st.booleans())
    cuts = sorted(set(draw(st.lists(POINT, max_size=2))))
    lo, hi = (-2.0, 2.0) if compact else (None, None)
    ends = [lo, *cuts, hi]
    decls = []
    for at in cuts + ([] if compact else ["inf"]):
        decl = {"at": at, "class": draw(CLASSES)}
        if draw(st.booleans()):
            decl["limit"] = [draw(NUMBER), draw(NUMBER)]
        decls.append(decl)
    sym = {"domain": {"base": "interval" if compact else "realline",
                      "lo": lo, "hi": hi, "punctures": cuts,
                      "infinity": not compact},
           "pieces": [{"lo": a, "hi": b, "expr": draw(EXPRS)}
                      for a, b in zip(ends, ends[1:])],
           "declarations": decls}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        where = draw(st.sampled_from(["domain", *DOMAIN_KEYS, "pieces",
                                      "piece", "piece_lo", "declarations",
                                      "at", "class", "limit"]))
        value = draw(JUNK)
        dom, pieces = sym["domain"], sym["pieces"]
        if where in DOMAIN_KEYS:
            if isinstance(dom, dict):
                dom[where] = value
        elif where in ("domain", "pieces", "declarations"):
            sym[where] = value
        elif where == "piece" and isinstance(pieces, list):
            pieces[0] = value
        elif where == "piece_lo":
            if isinstance(pieces, list) and isinstance(pieces[0], dict):
                pieces[0]["lo"] = value
        elif decls:
            decls[0][where] = value
    return sym


_VALID = st.floats(1e-15, 1e15)
CONFIG_VALUE = _VALID | _VALID | _VALID | st.sampled_from(
    [0, 0.0, -1, 1e-320, True, None, "1", 1e300])
CONFIG_KEYS = [*DEFAULT.to_dict(), "bogus"]
CONFIG_FILES = st.lists(st.sampled_from(CONFIG_KEYS), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(dict.fromkeys(keys, CONFIG_VALUE)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(sym=symbol_files(), cfg=CONFIG_FILES)
def test_analyze_command_fuzz(sym, cfg, tmp_path, capsys):
    from graphreg import cli, symbols
    from graphreg.errors import CheckFailed

    # an exit 2 comes from an error the command catches into its report
    # (raised by regularity_report) or one that main catches
    raised = []

    def spy(fn):
        def call(*args):
            try:
                return fn(*args)
            except Exception as err:
                raised.append(err)
                raise
        return call

    sym_path, cfg_path = tmp_path / "symbol.json", tmp_path / "config.json"
    sym_path.write_text(json.dumps(sym))
    cfg_path.write_text(json.dumps(cfg))
    with mock.patch.object(cli, "cmd_analyze", spy(cli.cmd_analyze)), \
            mock.patch.object(symbols, "regularity_report",
                              spy(symbols.regularity_report)):
        code = cli.main(["--config", str(cfg_path), "analyze", str(sym_path)])
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (sym, cfg)
    if code == 0:
        _finite(out)
    if code == 2:
        assert raised and all(isinstance(e, CheckFailed) for e in raised), (
            sym, cfg, raised)


# -- never exit 3: deep, long and non-finite expressions -------------------------------


def _grown(form, k):
    """An expression of the shape ``form`` grown to size k."""
    return {"parens": "(" * k + "x" + ")" * k,
            "calls": "sin(" * k + "x" + ")" * k,
            "sum": "+".join(["x"] * k),
            "minus": "-" * k + "x",
            "powers": "x" + "^1" * k,
            "digits": "1" * k + "+x",
            "folded": "9" * k + "*" + "9" * k + "*x"}[form]


GROWN_EXPRS = st.builds(
    _grown, st.sampled_from(["parens", "calls", "sum", "minus", "powers",
                             "digits", "folded"]),
    st.sampled_from([1, 2, 20, 90, 97, 99, 100, 101, 155, 197, 300, 986, 3000])
    | st.integers(1, 1200))
NON_FINITE_EXPRS = st.sampled_from([
    "NaN", "NaN*x", "x+Infinity", "-Infinity", "inf*x", "1/0*x", "0/0+x",
    "x^99999999999999999999", "exp(exp(exp(x)))*" + "9" * 308])
NON_FINITE_JSON = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(expr=GROWN_EXPRS | NON_FINITE_EXPRS, bad=NON_FINITE_JSON,
       where=st.sampled_from([None, "limit", "lo", "puncture", "at"]))
def test_no_expression_or_number_exits_3(expr, bad, where, tmp_path, capsys):
    # analyze of one piece on [0, 1], punctured at 0, with one number of
    # the file made non-finite; toeplitz and transform calc of the same text
    from graphreg import cli

    sym = _punctured_unit_interval(expr, [0.0, 0.0])
    if where == "limit":
        sym["declarations"][0]["limit"] = [bad, 0.0]
    elif where == "lo":
        sym["domain"]["lo"] = sym["pieces"][0]["lo"] = bad
    elif where == "puncture":
        sym["domain"]["punctures"] = [bad]
    elif where == "at":
        sym["declarations"][0]["at"] = bad
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(sym))
    for argv in (["analyze", str(path)], ["toeplitz", "--N", "16", "--", "1", expr],
                 ["transform", "--op", "calc", "--n", "2", f"--f={expr}"]):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2), (argv, expr)
        if code == 0:
            _finite(out)


@pytest.mark.parametrize("expr, message", [
    ("1" * 400 + "+x", "number is not finite in binary64 (at position 0)"),
    ("9" * 200 + "*" + "9" * 200 + "*x", "not finite in binary64 (at position 200)"),
    ("(" * 197 + "x" + ")" * 197, "parentheses nest more than MAX_DEPTH = 100"),
    ("+".join(["x"] * 986), "expression nests more than MAX_DEPTH = 100"),
    ("-" * 985 + "x", "expression nests more than MAX_DEPTH = 100"),
    ("+".join(["x"] * 97), "cannot write a symbol with a piece nested past"),
], ids=["400-digits", "folded", "197-parens", "986-terms", "985-minus",
        "a-symbol-too-deep"])
def test_bad_expression_is_an_input_error(expr, message, tmp_path, capsys):
    from graphreg import cli

    path = tmp_path / "sym.json"
    path.write_text(json.dumps(_punctured_unit_interval(expr, [0.0, 0.0])))
    assert cli.main(["analyze", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("limit", [[math.nan, 0.0], [math.inf, 0.0]],
                         ids=["NaN", "Infinity"])
@pytest.mark.parametrize("expr, at, base", [
    ("1", "inf", "realline"), ("x", 0.0, "interval")])
def test_non_finite_limit_is_an_input_error(limit, expr, at, base, tmp_path,
                                            capsys):
    from graphreg import cli

    ends = (None, None) if base == "realline" else (0.0, 1.0)
    sym = {"domain": {"base": base, "lo": ends[0], "hi": ends[1],
                      "punctures": [] if at == "inf" else [at]},
           "pieces": [{"lo": ends[0], "hi": ends[1], "expr": expr}],
           "declarations": [{"at": at, "class": "reg_b", "limit": limit}]}
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(sym))
    assert cli.main(["analyze", str(path)]) == 1
    assert "key 'limit' must be [re, im], two finite numbers" in (
        capsys.readouterr().err)


def test_calc_on_the_zero_operator_is_exact(capsys):
    from graphreg import cli

    assert cli.main(["transform", "--op", "calc", "--zero", "--n", "3"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["zero"] is True and results["residual_vs_a"] == 0.0


# -- exit-code contract for argument errors ----------------------------------------


@pytest.mark.parametrize("argv", [
    ["--bogus"],
    ["toeplitz", "1"],
    ["transform", "--op", "nope"],
    ["experiment", "--which", "weyl", "--M", "abc"],
], ids=["unknown-option", "missing-argument", "bad-choice", "bad-type"])
def test_usage_error_is_input_error(argv):
    proc = run_cli(*argv, expect=1)
    assert "usage:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--bogus"], ["--bogus", "toeplitz", "1", "2"], ["toeplitz", "--bogus", "1", "2"],
], ids=["alone", "before-command", "after-command"])
def test_unknown_option_is_named(argv):
    proc = run_cli(*argv, expect=1)
    assert "unrecognized arguments: --bogus" in proc.stderr
    assert "required" not in proc.stderr


def test_missing_command_is_named():
    proc = run_cli("--quiet", expect=1)
    assert "the following arguments are required: cmd" in proc.stderr


@pytest.mark.parametrize("p", ["-z+2", "-(z-2)", "-.5,1"])
def test_leading_minus_expression_needs_no_separator(p, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("--quiet", "--json", str(a), "toeplitz", p, "1", "--N", "16")
    run_cli("--quiet", "--json", str(b), "toeplitz", "--N", "16", "--", p, "1")
    assert a.read_bytes() == b.read_bytes()


def test_leading_minus_coefficient_list_needs_no_separator(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("--quiet", "--json", str(a), "toeplitz", "-1,2", "3-z", "--N", "16")
    run_cli("--quiet", "--json", str(b), "toeplitz", "--N", "16", "--",
            "-1,2", "3-z")
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["results"]["p"] == [[-1.0, 0.0],
                                                         [2.0, 0.0]]


@pytest.mark.parametrize("expression, listed, code", [
    (["1", "1-z"], ["1", "1,-1"], 0),
    (["1+z^2", "1"], ["1,0,1", "1"], 0),
    (["(1-z)^3", "1"], ["1,-3,3,-1", "1"], 0),
    (["(z-2)^8", "1"], ["256,-1024,1792,-1792,1120,-448,112,-16,1", "1"], 0),
], ids=["1-z", "1+z^2", "(1-z)^3", "(z-2)^8"])
def test_expression_and_coefficient_list_give_the_same_report(expression, listed,
                                                              code):
    # the expression is expanded exactly, so its coefficients are the list's
    a, b = (run_cli("toeplitz", "--N", "64", "--", *pq, expect=code)
            for pq in (expression, listed))
    assert (a.stdout, a.stderr) == (b.stdout, b.stderr)


@pytest.mark.parametrize("q, message", [
    ("conj(z)", "conj() is not a polynomial operation"),
    ("1/z", "division by a non-constant"),
    ("conj(1/z)", "division by a non-constant"),
    ("z^-1", "negative power"),
    ("exp(z)", "exp() is not a polynomial operation"),
    ("z/0", "division by zero"),
])
def test_non_polynomial_expression_is_input_error(q, message, capsys):
    from graphreg import cli

    assert cli.main(["toeplitz", "1", q, "--N", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot parse polynomial {q!r}")
    assert message in err


def test_power_beyond_the_degree_cap_is_refused_before_it_is_formed(capsys):
    import time
    import tracemalloc

    from graphreg import cli

    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["toeplitz", "1", "(1-z)^100000000", "--N", "16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "degree 100000000 exceeds the cap 24" in capsys.readouterr().err
    assert peak < 2 ** 20
    assert time.perf_counter() - start < 1.0


def test_exact_expansion_parses_a_degree_twelve_power():
    from graphreg.cli import parse_poly

    coeffs = parse_poly("(z-2)^12")
    assert coeffs.tolist() == [complex(math.comb(12, k) * (-2) ** (12 - k))
                               for k in range(13)]


def test_failed_factorization_is_a_named_check_failure(monkeypatch, capsys):
    # a factor off by 1e-6 in one coefficient of the scaled pair stands
    # in for one that misses the gate: no input found here does
    from graphreg import cli, toeplitz

    exact = toeplitz._factor
    monkeypatch.setattr(toeplitz, "_factor",
                        lambda p, q: exact(p, q) + [0.0, 1e-6])
    assert cli.main(["toeplitz", "1", "2-z", "--N", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verified failure:") and "unit_residual" in err


# -- size caps, each refused by its validator before anything is allocated ----------


def test_size_caps_follow_the_array_budget():
    from graphreg import cli
    from graphreg.config import ARRAY_BUDGET

    # the nine stacked complex residuals of an axiom check
    n = cli.TRANSFORM_MAX_N
    assert 9 * 16 * n ** 2 <= ARRAY_BUDGET < 9 * 16 * (n + 1) ** 2
    # the eight complex n x n arrays of a resolvent check at its peak
    n = cli.RESOLVENT_MAX_N
    assert 8 * 16 * n ** 2 <= ARRAY_BUDGET < 8 * 16 * (n + 1) ** 2


def test_float_bits_count_the_binary_orders_of_the_doubles():
    from graphreg.config import FLOAT_BITS

    x, orders = math.ulp(0.0), 0
    while x < math.inf:
        x, orders = 2 * x, orders + 1
    assert FLOAT_BITS == orders == 2098


# the sampling detector's settings, gone with it, and the sample sizes and
# degree cap, now constants beside the code that reads them
REMOVED_KEYS = ["limit_tol", "blowup", "osc_rel_var", "approach_steps",
                "approach_start", "tail_samples", "inf_start", "inf_reach",
                "vanish_window", "vanish_tol", "grid_points", "dyadic_depth",
                "circle_samples", "max_poly_degree"]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_detector_setting_is_an_unknown_key(key, tmp_path, capsys):
    from graphreg import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 2}))
    assert cli.main(["--quiet", "--config", str(cfg), "analyze",
                     "--catalog", "one_over_x"]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: unknown config keys: ['{key}']")


def test_config_has_five_float_fields():
    from graphreg.config import DEFAULT, Config

    assert [f.name for f in dataclasses.fields(Config)] == [
        "subspace_tol", "kernel_tol", "residual_tol", "zero_tol",
        "value_agreement_tol"]
    assert all(f.type == "float" and type(getattr(DEFAULT, f.name)) is float
               for f in dataclasses.fields(Config))


def test_removed_symbol_residual_tol_is_an_unknown_key():
    from graphreg.config import Config

    with pytest.raises(ValueError, match="unknown config keys"):
        Config.from_dict({"symbol_residual_tol": 1e-9})


def test_removed_graph_angle_tol_is_an_unknown_key(tmp_path, capsys):
    from graphreg import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph_angle_tol": 1e-8}))
    assert cli.main(["--quiet", "--config", str(cfg), "analyze",
                     "--catalog", "x"]) == 1
    assert "unknown config keys: ['graph_angle_tol']" in capsys.readouterr().err


def test_toeplitz_command_builds_one_triple(monkeypatch, capsys):
    # the N/4 and N/2 residuals are read from the leading blocks of the
    # triple at N, and the triple is built from the verdict's factorization:
    # the pair is factored once
    from graphreg import cli, toeplitz

    built, factored = [], []
    aab, trig = toeplitz.aab_from_data, toeplitz.trig_data
    monkeypatch.setattr(toeplitz, "aab_from_data",
                        lambda data, n: built.append(n) or aab(data, n))
    monkeypatch.setattr(toeplitz, "trig_data",
                        lambda p, q: factored.append(1) or trig(p, q))
    assert cli.main(["toeplitz", "1", "1-z", "--N", "64"]) == 0
    assert built == [64] and len(factored) == 1
    residuals = json.loads(capsys.readouterr().out)["results"]["residuals"]
    assert sorted(residuals, key=int) == ["16", "32", "64"]


def test_toeplitz_root_just_inside_the_circle_is_an_inner_root():
    # q = 1 - 1.00000005z has its root at 1/1.00000005, inside the disc;
    # decided exactly, no tolerance makes it a circle root
    proc = run_cli("toeplitz", "1", "1-1.00000005*z", "--N", "32", expect=2)
    assert "root inside the unit disc" in proc.stderr


ONES = "1" * 160  # about 1.1e159: |q|² is past binary64
GREAT_ONES = "1" * 200  # about 1.1e199: 4^e is past binary64 as well


@pytest.mark.parametrize("p, q, verdict, circle", [
    # the triple root is exactly 1
    ("1", "(1-z)^3", "AssociatedOnly", [[1.0, 0.0]]),
    # the roots are 1 apart, and share none
    ("(z-0.5)^6", "(z-1.5)^6", "Affiliated", []),
    # |p|² + |q|² falls to 2 at z = 1 against 2.8e11 at z = -1
    ("1", "(z-2)^12", "Affiliated", []),
    # |p|² + |q|² reaches 4.3e7 on the circle
    ("z^8", "(z-2)^8", "Affiliated", []),
    ("1", f"{ONES}+z", "Affiliated", []),
    ("1", f"{GREAT_ONES}+z", "Affiliated", []),
], ids=["(1-z)^3", "(z-0.5)^6/(z-1.5)^6", "1/(z-2)^12", "z^8/(z-2)^8",
        "1/(1.1e159+z)", "1/(1.1e199+z)"])
def test_valid_symbols_are_decided_exactly(p, q, verdict, circle):
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "graphreg.cli",
                           "toeplitz", "--N", "16", p, q],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["verdict"] == verdict
    assert results["circle_roots"] == circle
    assert math.isfinite(results["factor_residual"])


def test_unparsable_polynomial_is_quoted_in_part(capsys):
    # 3000 terms nest past MAX_DEPTH; the message quotes the first
    # ECHO_CHARS characters, not all 5999
    from graphreg import cli

    text = "+".join(["z"] * 3000)
    assert cli.main(["toeplitz", "1", text]) == 1
    err = capsys.readouterr().err
    assert f"{text[:cli.ECHO_CHARS]!r}…" in err
    assert len(err) < 2 * cli.ECHO_CHARS + 100


@pytest.mark.parametrize("name, value, lo, hi, ok", [
    ("--n", 1365, 1, 1365, True), ("--n", 1366, 1, 1365, False),
    ("--n", 0, 1, 1365, False), ("--n", 10 ** 12, 1, 64, False),
    ("--beta", 1e300, None, None, True),
    # an int beyond every float is finite but out of range, not an error
    pytest.param("--n", 10 ** 400, 1, 1365, False, id="--n-huge-above"),
    pytest.param("--n", 10 ** 400, 1, None, True, id="--n-huge-unbounded"),
    ("--beta", complex("nan"), None, None, False),
])
def test_check_parameter_bounds(name, value, lo, hi, ok):
    from graphreg.cli import check_parameter
    from graphreg.errors import BadParameters

    if ok:
        assert check_parameter(name, value, lo, hi) == value
    else:
        with pytest.raises(BadParameters, match=name):
            check_parameter(name, value, lo, hi)


@pytest.mark.parametrize("argv, cap", [
    (["transform", "--op", "aab", "--n", "5"], "TRANSFORM_MAX_N"),
    (["experiment", "--which", "resolvent", "--n", "5"], "RESOLVENT_MAX_N"),
])
def test_cli_size_above_its_cap_is_an_input_error(argv, cap, monkeypatch,
                                                  capsys):
    # the cap is lowered so that a failed refusal would still be small
    from graphreg import cli

    monkeypatch.setattr(cli, cap, 4)
    assert cli.main(["--quiet", *argv]) == 1
    assert "--n must be finite and at least 1 and at most 4" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("domain, end", [
    ({"base": "realline", "lo": -1, "hi": 1, "punctures": [0.0]}, "lo = -1.0"),
    ({"base": "realline", "punctures": [0.0]}, "left endpoint -inf"),
], ids=["given-ends", "pieces-short"])
def test_symbol_that_misses_an_infinite_end_is_input_error(domain, end, tmp_path):
    sym = tmp_path / "s.json"
    sym.write_text(json.dumps({
        "domain": domain,
        "pieces": [{"lo": -1, "hi": 0, "expr": "x"}, {"lo": 0, "hi": 1, "expr": "x"}],
        "declarations": [{"at": 0.0, "class": "reg_b"}]}))
    proc = run_cli("analyze", str(sym), expect=1)
    assert proc.stderr.startswith("input error:") and end in proc.stderr


# -- large and small constants ---------------------------------------------------------

BIG = "1" + "0" * 200  # 10^200, written out: the grammar has no exponent


def _punctured_unit_interval(expr, limit):
    return {"domain": {"base": "interval", "lo": 0.0, "hi": 1.0,
                       "punctures": [0.0]},
            "pieces": [{"lo": 0.0, "hi": 1.0, "expr": expr}],
            "declarations": [{"at": 0.0, "class": "reg_b", "limit": limit}]}


@pytest.mark.parametrize("expr, limit", [
    (BIG, [1e200, 0.0]),
    (BIG + "+x", [1e200, 0.0]),
    ("0.00001*x*exp(-i/x)", [0.0, 0.0]),
], ids=["10^200", "10^200+x", "0.00001*x*exp(-i/x)"])
def test_emitted_symbols_read_back(expr, limit, tmp_path):
    # a limit near 1e200 squares past binary64 in |m|^2, and the emitted
    # symbols hold numbers whose repr has an exponent
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(_punctured_unit_interval(expr, limit)))
    results = json.loads(run_cli("analyze", str(sym)).stdout)["results"]
    assert results["graph_regular"] is True and results["regular"] is True
    for key in ("a_symbol", "b_symbol"):
        emitted = tmp_path / f"{key}.json"
        emitted.write_text(json.dumps(results[key]))
        run_cli("analyze", str(emitted))


def _punctured_at_zero(expr, lo, declaration):
    pieces = [{"lo": lo, "hi": 0.0, "expr": expr}] if lo < 0 else []
    return {"domain": {"base": "interval", "lo": lo, "hi": 1.0, "punctures": [0.0]},
            "pieces": pieces + [{"lo": 0.0, "hi": 1.0, "expr": expr}],
            "declarations": [{"at": 0.0, **declaration}]}


REG_B_ZERO = {"class": "reg_b", "limit": [0, 0]}


@pytest.mark.parametrize("symbol, code", [
    # aliasing: the sampler's ratio-2 samples landed on the zeros
    (_punctured_at_zero("sin(3.141592653589793/x)^2", -1.0, REG_B_ZERO), 2),
    # slow tails, read as oscillation
    (_punctured_at_zero("sqrt(abs(x))", -1.0, REG_B_ZERO), 0),
    (_punctured_at_zero("sqrt(abs(x))", -1.0, {"class": "sing_supp"}), 2),
    ({"domain": {"base": "realline"},
      "pieces": [{"lo": None, "hi": None, "expr": "x/(1+x^2)"}],
      "declarations": [{"at": "inf", **REG_B_ZERO}]}, 0),
    (_punctured_at_zero("sqrt(abs(x))*sin(1/x)", -1.0, REG_B_ZERO), 0),
    # an oscillation within the sampler's absolute limit_tol
    (_punctured_at_zero("0.0000001*exp(i/x)", 0.0, REG_B_ZERO), 2),
], ids=["sin(pi/x)^2", "sqrt-reg_b", "sqrt-sing_supp", "x/(1+x^2)-inf",
        "sqrt*sin(1/x)", "1e-7*exp(i/x)"])
def test_sampler_repros_get_the_exact_verdict(symbol, code, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(symbol))
    proc = run_cli("analyze", str(path), expect=code)
    results = json.loads(proc.stdout)["results"]
    if code == 0:
        assert results["regular"] is True
    else:
        assert "declared" in results["error"] and "detected" in results["error"]
