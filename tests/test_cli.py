import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    cfg.write_text(json.dumps({"vanish_window": 5000.0}))
    out = run_cli("--config", str(cfg), "analyze", "--catalog", "x")
    data = json.loads(out.stdout)
    assert data["config"]["vanish_window"] == 5000.0


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


def test_bad_experiment_parameters_are_input_errors():
    run_cli("experiment", "--which", "counterdensity", "--K", "4", expect=1)
    run_cli("experiment", "--which", "weyl", "--beta", "1.0", expect=1)


def test_oversized_experiment_parameters_are_input_errors():
    # refused before the large matrices are allocated
    run_cli("experiment", "--which", "counterdensity", "--K", "8,100", expect=1)
    # M itself is allowed, its refined grid 2M is not
    run_cli("experiment", "--which", "weyl", "--M", "4096", expect=1)


@pytest.mark.parametrize("content", [
    {"grid_points": "abc"}, {"approach_steps": -3}, [],
    {"subspace_tol": True}, {"approach_steps": 40.0}, {"blowup": float("inf")},
], ids=["string", "negative", "list", "bool", "float-for-int", "infinite"])
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


def test_config_reaches_hat_extension(tmp_path, monkeypatch, capsys):
    from graphreg import cli, symbols

    seen = []
    original = symbols.hat_extension

    def spy(symbol, cfg=symbols.DEFAULT):
        seen.append(cfg)
        return original(symbol, cfg)

    monkeypatch.setattr(symbols, "hat_extension", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vanish_window": 5000.0}))
    assert cli.main(["--config", str(cfg), "analyze", "--catalog", "one_over_x"]) == 0
    capsys.readouterr()
    # the a and b symbols are hat-extended after the transform
    assert len(seen) >= 2
    assert all(c.vanish_window == 5000.0 for c in seen)


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


def test_zero_denominator_is_input_error():
    proc = run_cli("toeplitz", "1", "0", expect=1)
    assert "zero polynomial" in proc.stderr


def test_symbol_with_lower_laurent_degree():
    # |z/2|² + 1 is constant on the circle, so r is a constant
    out = run_cli("toeplitz", "0,0.5", "1", "--N", "16")
    results = json.loads(out.stdout)["results"]
    assert results["verdict"] == "Affiliated"
    assert len(results["r"]) == 1


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


def test_leading_minus_coefficient_list_needs_no_separator(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("--quiet", "--json", str(a), "toeplitz", "-1,2", "3-z", "--N", "16")
    run_cli("--quiet", "--json", str(b), "toeplitz", "--N", "16", "--",
            "-1,2", "3-z")
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["results"]["p"] == [[-1.0, 0.0],
                                                         [2.0, 0.0]]


def test_expression_and_coefficient_list_give_the_same_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("--quiet", "--json", str(a), "toeplitz", "1", "1-z", "--N", "64")
    run_cli("--quiet", "--json", str(b), "toeplitz", "1", "1,-1", "--N", "64")
    assert a.read_bytes() == b.read_bytes()


def test_failed_factorization_is_a_named_check_failure():
    # 0.01 over (1 - 0.9z)^12: the factorization misses by a residual ~5.7
    q = ",".join(repr(float(c)) for c in np.polynomial.polynomial.polypow(
        [1.0, -0.9], 12))
    proc = run_cli("toeplitz", "0.01", q, "--N", "64", expect=2)
    assert proc.stderr.startswith("verified failure:")
    assert "factor_residual" in proc.stderr
