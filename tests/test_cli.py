import json
import pathlib
import subprocess
import sys

import pytest

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
