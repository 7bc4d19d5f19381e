import json

import numpy as np
import pytest

from graphreg import cli
from graphreg import matrix_symbols
from graphreg.errors import InconclusiveClassification
from graphreg.matrix_symbols import (
    EntryClass,
    SymbolMatrix,
    check_membership,
    entry_profile,
    expr_symbol,
    left_multiplier_pattern,
    matrix_symbol_op,
    multiplier_pattern,
    oscillating_column_example,
    scalar_symbol,
    zero_symbol,
)
from graphreg.symbols import INF, PointClass, detect_point, interval, vanishes_at_infinity
from sampler import _vanishes_at_infinity

C0, C0U, CB = EntryClass.C0, EntryClass.C0U, EntryClass.CB


# -- the multiplier calculus ---------------------------------------------------


def test_multiplier_pattern_of_lower_unitized_algebra():
    # A = (C0 C0; C0 C0~) has M(A) = (Cb C0; C0 C0~), LM(A) = (Cb C0; Cb C0~)
    a = [[C0, C0], [C0, C0U]]
    assert multiplier_pattern(a) == [[CB, C0], [C0, C0U]]
    assert left_multiplier_pattern(a) == [[CB, C0], [CB, C0U]]


def test_multiplier_pattern_of_upper_unitized_algebra():
    a = [[C0U, C0], [C0, C0]]
    assert multiplier_pattern(a) == [[C0U, C0], [C0, CB]]
    assert left_multiplier_pattern(a) == [[C0U, CB], [C0, CB]]


def test_full_c0_algebra_multiplier_is_cb():
    # M(M2 ⊗ C0(X)) = M2 ⊗ Cb(X): every entry may be bounded continuous
    a = [[C0, C0], [C0, C0]]
    assert multiplier_pattern(a) == [[CB, CB], [CB, CB]]


# -- entry profiling -------------------------------------------------------------


def test_profiles_of_reference_entries():
    vanishing = entry_profile(expr_symbol("1/(1+x^2)"))
    assert vanishing.vanishes and vanishing.bounded and vanishing.continuous
    constant = entry_profile(scalar_symbol(1.0))
    assert constant.fits(C0U) and constant.fits(CB) and not constant.fits(C0)
    unbounded = entry_profile(expr_symbol("x"))
    assert not unbounded.bounded and not unbounded.fits(CB)
    oscillating = entry_profile(expr_symbol("(1+cos(x)^2)/3"))
    assert oscillating.bounded and oscillating.fits(CB)
    assert not oscillating.fits(C0U) and not oscillating.fits(C0)


def test_c0_subset_of_unitized():
    slow = entry_profile(expr_symbol("x*sqrt(1+sin(x)^2)/(1+3*x^2)"))
    assert slow.fits(C0) and slow.fits(C0U) and slow.fits(CB)


# the entries above, and 1 ± c at the two ends for c on either side of
# the margin of 10⁻⁵ the sampling detector allowed between side limits
REFERENCE_ENTRIES = ["1/(1+x^2)", "1", "x", "(1+cos(x)^2)/3",
                     "x*sqrt(1+sin(x)^2)/(1+3*x^2)", "1+0.000002*x/(1+abs(x))",
                     "1+0.00002*x/(1+abs(x))", "1+0.0002*x/(1+abs(x))"]


@pytest.mark.parametrize("text", REFERENCE_ENTRIES)
def test_unitized_class_is_the_detectors_verdict_at_infinity(text):
    entry = expr_symbol(text)
    profile = entry_profile(entry)
    settles = detect_point(entry, INF).kind is PointClass.REG_B
    assert profile.fits(C0U) == (profile.vanishes or settles)


@pytest.mark.parametrize("text", REFERENCE_ENTRIES[-3:])
def test_ends_that_differ_are_not_unitized(text):
    # the ends 1 ± c differ for every c ≠ 0: the limits are exact, with no
    # margin between them
    profile = entry_profile(expr_symbol(text))
    assert profile.bounded and not profile.vanishes
    assert profile.fits(CB) and not profile.fits(C0U) and profile.limit is None


def test_exp_over_exp_settles_at_infinity():
    # the sampler evaluated inf/inf at its far samples; the terms cancel
    profile = entry_profile(expr_symbol("exp(x)/exp(x)"))
    assert profile.limit == 1 and profile.fits(C0U) and not profile.fits(C0)


def test_undecided_infinity_is_inconclusive():
    # x·(1 + sin x) swings ever wider: no term outweighs the others to
    # make it diverge, and the rules do not decide whether it nears 0
    with pytest.raises(InconclusiveClassification, match=r"approaching \+inf"):
        entry_profile(expr_symbol("x*(1+sin(x))"))


def test_unbounded_oscillation_is_neither_bounded_nor_continuous_at_infinity():
    profile = entry_profile(expr_symbol("x*sin(x)"))
    assert not profile.bounded and profile.limit is None and not profile.fits(CB)


def test_entry_with_a_slow_limit_at_both_ends_is_unitized():
    # √|x|/(1 + √|x|) tends to 1 at both ends; the sampler read the slow
    # tail as no limit and said nothing
    profile = entry_profile(expr_symbol("sqrt(abs(x))/(1+sqrt(abs(x)))"))
    assert profile.limit == 1 and profile.fits(C0U) and not profile.fits(C0)


def test_entry_on_a_compact_base_has_no_point_at_infinity():
    profile = entry_profile(expr_symbol("1+x", interval(0.0, 1.0)))
    assert profile.continuous and profile.bounded and profile.vanishes
    assert profile.limit is None
    assert profile.fits(C0) and profile.fits(C0U) and profile.fits(CB)


def test_entry_profile_asks_the_detector_once_at_infinity(monkeypatch):
    seen = []

    def spy(symbol, p):
        seen.append(p)
        return detect_point(symbol, p)

    monkeypatch.setattr(matrix_symbols, "detect_point", spy)
    entry_profile(expr_symbol("1/(1+x^2)"))
    assert seen == [INF]


# -- the oscillating-column example ------------------------------------------------


@pytest.fixture(scope="module")
def analysis():
    t, pattern = oscillating_column_example()
    return matrix_symbol_op(t, pattern)


class TestOscillatingColumn:

    def test_a_is_algebra_element(self, analysis):
        assert analysis.a_verdict.in_algebra

    def test_b_is_algebra_element(self, analysis):
        assert analysis.b_verdict.in_algebra

    def test_a_star_is_not_a_multiplier(self, analysis):
        assert not analysis.a_star_verdict.in_multiplier
        assert not analysis.a_star_verdict.in_algebra

    def test_a_values_match_closed_form(self, analysis):
        for x in (0.5, 2.0, -3.7):
            s = 3 * x * x
            expect = np.diag([1.0, 1.0 / (1 + s)])
            assert np.abs(analysis.a.eval(x) - expect).max() < 1e-12

    def test_a_star_values_match_closed_form(self, analysis):
        for x in (1.3, -2.2):
            f = x * np.sqrt(1 + np.sin(x) ** 2)
            g = x * np.sqrt(1 + np.cos(x) ** 2)
            s = f * f + g * g
            expect = np.array([[1 + g * g, -f * g], [-g * f, 1 + f * f]]) / (1 + s)
            assert np.abs(analysis.a_star.eval(x) - expect).max() < 1e-12

    def test_b_values_match_closed_form(self, analysis):
        x = 0.9
        f = x * np.sqrt(1 + np.sin(x) ** 2)
        g = x * np.sqrt(1 + np.cos(x) ** 2)
        s = f * f + g * g
        expect = np.array([[0, f], [0, g]]) / (1 + s)
        assert np.abs(analysis.b.eval(x) - expect).max() < 1e-12

    def test_ab_identity_pointwise(self, analysis):
        # b*b = a - a^2 pointwise at a few sample points
        for x in (0.4, 1.7, -5.0):
            a = analysis.a.eval(x)
            b = analysis.b.eval(x)
            assert np.abs(b.conj().T @ b - (a - a @ a)).max() < 1e-12


# -- constant matrices against the lattice -----------------------------------------


def test_constant_lower_corner_violates_multiplier_class():
    # b = (0 0; 1/2 0): the (2,1) entry must be C0 for M(A), but is constant
    half = scalar_symbol(0.5)
    b = SymbolMatrix([[zero_symbol(), zero_symbol()], [half, zero_symbol()]])
    a_pattern = [[C0, C0], [C0, C0U]]
    verdict = check_membership(b, a_pattern)
    assert not verdict.in_multiplier
    assert not verdict.in_algebra
    # but it IS a left multiplier: LM allows Cb at (2,1)
    assert verdict.in_left_multiplier


@pytest.mark.parametrize("text, vanishes", [
    ("0.00001", False), ("1/sqrt(abs(x)+1)", True), ("x", False)])
def test_c0_test_is_the_limit_at_infinity(text, vanishes):
    # the sampled test read |f| ≤ 1e-4 beyond |x| = 1e4: it called the
    # constant 1e-5 vanishing and 1/√(|x| + 1), about 0.01 there, not
    entry = expr_symbol(text)
    assert vanishes_at_infinity(entry) is vanishes
    assert entry_profile(entry).vanishes is vanishes
    if text != "x":
        assert _vanishes_at_infinity(entry) is not vanishes


def test_matrix_symbols_experiment_echoes_its_config(tmp_path, capsys):
    # the entry profiles read exact point classes, which take no setting
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"value_agreement_tol": 1e-7}))
    argv = ["--config", str(cfg), "experiment", "--which", "matrix-symbols"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["value_agreement_tol"] == 1e-7
    assert report["results"]["t"]["in_A"] is False
