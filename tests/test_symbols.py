import math

import numpy as np
import pytest

from graphreg import catalog
from graphreg import expressions as ex
from graphreg.config import Config
from graphreg.errors import DeclarationMismatch
from graphreg.symbols import (
    Declaration,
    DomainSpec,
    PiecewiseSymbol,
    PointClass,
    _side_sequences,
    classify_point,
    combine_symbols,
    conjugate_symbol,
    detect_point,
    domain_membership,
    hat_extension,
    interval,
    range_membership_one_plus_tt,
    real_line,
    regularity_report,
    sample_grid,
    symbol_equivalent,
    symbol_from_dict,
    symbol_to_dict,
)
from graphreg.transforms import (
    absolute_value_symbol,
    bounded_transform_symbol,
    functional_calculus_symbol,
)

INF = float("inf")


# -- detector -------------------------------------------------------------------


def test_one_over_x_diverges_at_zero():
    det = detect_point(catalog.one_over_x(), 0.0)
    assert det.kind is PointClass.REG_INF
    assert det.sides == 2


def test_oscillation_detected_at_zero():
    det = detect_point(catalog.exp_i_over_x(), 0.0)
    assert det.kind is PointClass.SING_SUPP


def test_squeeze_to_zero_detected():
    det = detect_point(catalog.x_exp_minus_i_over_x(), 0.0)
    assert det.kind is PointClass.REG_B
    assert abs(det.limit) < 1e-9


def test_jump_counts_as_singular_support():
    # sign(x)/sqrt(1+x^2): bounded, both one-sided limits exist but differ
    pos = ex.parse_expression("1/sqrt(1+x^2)")
    neg = ex.parse_expression("-1/sqrt(1+x^2)")
    sym = PiecewiseSymbol(real_line(punctures=(0.0,)),
                          ((-INF, 0.0, neg), (0.0, INF, pos)),
                          (Declaration(0.0, PointClass.SING_SUPP),))
    assert detect_point(sym, 0.0).kind is PointClass.SING_SUPP


def test_declaration_mismatch_raises():
    sym = PiecewiseSymbol(
        interval(0, 1, punctures=(0.0,)),
        ((0.0, 1.0, ex.parse_expression("1/x")),),
        (Declaration(0.0, PointClass.REG_B, 0.0),))
    with pytest.raises(DeclarationMismatch):
        classify_point(sym, 0.0)


def test_declared_limit_checked():
    sym = PiecewiseSymbol(
        interval(0, 1, punctures=(0.0,)),
        ((0.0, 1.0, ex.VAR),),
        (Declaration(0.0, PointClass.REG_B, 7.0),))
    with pytest.raises(DeclarationMismatch):
        classify_point(sym, 0.0)


# -- catalog verdicts ---------------------------------------------------------------


CATALOG_EXPECT = {
    "x": (True, True),
    "one_over_x": (True, False),
    "exp_i_over_x": (False, False),
    "exp_i_over_x_over_x": (True, False),
    "x_exp_minus_i_over_x": (True, True),
}


@pytest.mark.parametrize("name", sorted(CATALOG_EXPECT))
def test_catalog_classification(name):
    rep = regularity_report(catalog.get(name))
    graph_regular, regular = CATALOG_EXPECT[name]
    assert rep.graph_regular == graph_regular
    assert rep.regular == regular
    assert rep.essentially_defined and rep.orthogonally_closed and rep.reg_dense
    assert (rep.a_symbol is not None) == graph_regular


def test_transform_symbols_for_one_over_x():
    rep = regularity_report(catalog.one_over_x())
    xs = np.array([-3.0, -0.7, 0.4, 2.0])
    assert np.abs(rep.a_symbol(xs) - xs ** 2 / (1 + xs ** 2)).max() < 1e-12
    assert np.abs(rep.b_symbol(xs) - xs / (1 + xs ** 2)).max() < 1e-12
    assert rep.a_symbol(0.0) == 0.0  # extension value at the divergence point
    assert rep.b_symbol(0.0) == 0.0


def test_ab_identity_pointwise_on_dense_grid():
    # normal case: |b|^2 = a - a^2 on a 10^4-point grid
    for name in ("one_over_x", "exp_i_over_x_over_x", "x"):
        rep = regularity_report(catalog.get(name))
        grid = sample_grid(rep.symbol, bulk=10_000)
        a = rep.a_symbol(grid)
        b = rep.b_symbol(grid)
        good = ~(np.isnan(a) | np.isnan(b))
        resid = np.abs(np.abs(b[good]) ** 2 - (a[good] - a[good] ** 2))
        assert resid.max() < 1e-9


def test_adjoint_pairing_on_bump_symbols():
    # <t_m f, g> = <f, t_mbar g> pointwise for interior bumps
    m = catalog.exp_i_over_x_over_x()
    bump = PiecewiseSymbol(interval(0, 1),
                           ((0.0, 1.0, ex.parse_expression("x^2*(1-x)")),))
    bump2 = PiecewiseSymbol(interval(0, 1),
                            ((0.0, 1.0, ex.parse_expression("x^3*(1-x)^2")),))
    grid = np.linspace(0.01, 0.99, 500)
    tmf = m(grid) * bump(grid)
    lhs = np.conj(tmf) * bump2(grid)
    rhs = np.conj(bump(grid)) * (np.conj(m(grid)) * bump2(grid))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_product_law_on_common_domain():
    # values of t_m t_n and t_{mn} agree where both are defined
    m, n = catalog.one_over_x(), catalog.identity_symbol()
    prod = combine_symbols(m, n, ex.mul)
    grid = np.array([-5.0, -1.2, 0.3, 2.5])
    assert np.abs(prod(grid) - m(grid) * n(grid)).max() < 1e-12
    assert np.abs(prod(grid) - 1.0).max() < 1e-12


def test_sum_law_on_common_domain():
    m, n = catalog.one_over_x(), catalog.identity_symbol()
    total = combine_symbols(m, n, ex.add)
    grid = np.array([-5.0, -1.2, 0.3, 2.5])
    assert np.abs(total(grid) - (m(grid) + n(grid))).max() < 1e-12
    assert np.abs(total(grid) - (1.0 / grid + grid)).max() < 1e-12


# -- hat extension ------------------------------------------------------------------


def test_hat_absorbs_finite_limit_points():
    m = catalog.x_exp_minus_i_over_x()
    h = hat_extension(m)
    assert h.domain.punctures == ()
    assert h(0.0) == 0.0
    assert hat_extension(h).fills == h.fills  # idempotent


def test_hat_keeps_divergence_points():
    m = catalog.one_over_x()
    h = hat_extension(m)
    assert h.domain.punctures == (0.0,)
    assert detect_point(h, 0.0).kind is PointClass.REG_INF


def test_hat_idempotent_on_catalog():
    for name in catalog.names():
        h = hat_extension(catalog.get(name))
        h2 = hat_extension(h)
        assert h2.domain.punctures == h.domain.punctures
        assert h2.fills == h.fills
        for p in h.domain.punctures:
            assert detect_point(h2, p).kind == detect_point(h, p).kind


# -- equivalence ----------------------------------------------------------------------


def test_equivalent_to_hat():
    m = catalog.x_exp_minus_i_over_x()
    assert symbol_equivalent(m, hat_extension(m))


def test_value_at_divergence_point_irrelevant():
    m = catalog.one_over_x()
    filled = PiecewiseSymbol(m.domain, m.pieces, m.declarations,
                             ((0.0, 5.0 + 0j),))
    assert symbol_equivalent(m, filled)


def test_different_functions_not_equivalent():
    mx = catalog.identity_symbol()
    mx1 = PiecewiseSymbol(mx.domain,
                          ((-INF, INF, ex.add(ex.VAR, ex.ONE)),))
    assert not symbol_equivalent(mx, mx1)


# -- membership questions ----------------------------------------------------------------


class TestDomainMembership:
    def test_paper_witness_pair(self):
        m = catalog.exp_i_over_x_over_x()
        f = catalog.x_exp_minus_i_over_x()
        assert domain_membership(m, f) is True
        assert domain_membership(conjugate_symbol(m), f) is False

    def test_absolute_value_witnesses(self):
        absm = PiecewiseSymbol(
            interval(0, 1, punctures=(0.0,)),
            ((0.0, 1.0, ex.parse_expression("1/x")),),
            (Declaration(0.0, PointClass.REG_INF),))
        f = catalog.x_exp_minus_i_over_x()
        g = catalog.x_on_unit_interval()
        assert domain_membership(absm, f) is False
        assert domain_membership(absm, g) is True
        assert domain_membership(catalog.exp_i_over_x_over_x(), g) is False

    def test_bounded_symbol_full_domain(self):
        m = catalog.x_on_unit_interval()
        f = catalog.x_on_unit_interval()
        assert domain_membership(m, f) is True

    def test_rejects_non_c0_witness(self):
        m = catalog.one_over_x()
        not_c0 = PiecewiseSymbol(real_line(), ((-INF, INF, ex.ONE),))
        with pytest.raises(ValueError):
            domain_membership(m, not_c0)


class TestRangeMembership:
    def test_nonvanishing_excluded(self):
        m = catalog.exp_i_over_x()
        g1 = PiecewiseSymbol(interval(0, 1), ((0.0, 1.0, ex.ONE),))
        assert range_membership_one_plus_tt(m, g1) is False

    def test_vanishing_included(self):
        m = catalog.exp_i_over_x()
        assert range_membership_one_plus_tt(m, catalog.x_on_unit_interval())

    def test_empty_singular_support_accepts_everything(self):
        m = catalog.one_over_x()
        g = PiecewiseSymbol(real_line(), ((-INF, INF, ex.ONE),))
        assert range_membership_one_plus_tt(m, g) is True


# -- vectorised piece mask against the per-point piece_at loop -------------------------


def _catalog_and_hats():
    for name in catalog.names():
        sym = catalog.get(name)
        yield name, sym
        yield name + " hat", hat_extension(sym)


def _in_pieces_loop(symbol, xs):
    """The oracle: piece_at once per point."""
    return np.array([symbol.piece_at(x) is not None for x in xs], dtype=bool)


def _edge_points(symbol):
    """Piece ends, fills, one ulp either side of each, and points off the
    domain, where a mask can disagree with the open intervals."""
    ends = [e for a, b, _ in symbol.pieces for e in (a, b)]
    ends += [p for p, _ in symbol.fills] + [-5.0, 0.0, 5.0]
    finite = np.array([e for e in ends if math.isfinite(e)])
    return np.concatenate([finite, np.nextafter(finite, -INF),
                           np.nextafter(finite, INF), [-INF, INF, np.nan]])


def test_piece_mask_matches_piece_at_loop(monkeypatch):
    grids = {}
    for label, sym in _catalog_and_hats():
        xs = np.concatenate([sample_grid(sym, bulk=256), _edge_points(sym)])
        assert np.array_equal(sym.in_pieces(xs), _in_pieces_loop(sym, xs)), label
        grids[label] = sample_grid(sym)
    monkeypatch.setattr(PiecewiseSymbol, "in_pieces", _in_pieces_loop)
    for label, sym in _catalog_and_hats():
        want = sample_grid(sym)
        assert want.dtype == grids[label].dtype, label
        assert np.array_equal(grids[label], want), label


def test_equivalence_reads_fills_on_the_grid():
    # a fill that lands exactly on a grid point is compared there
    mx = catalog.identity_symbol()
    g = float(sample_grid(mx)[7])
    split = ((-INF, g, ex.VAR), (g, INF, ex.VAR))
    assert symbol_equivalent(mx, PiecewiseSymbol(mx.domain, split, (), ((g, g + 0j),)))
    assert not symbol_equivalent(
        mx, PiecewiseSymbol(mx.domain, split, (), ((g, g + 5.0 + 0j),)))


# -- serialization ---------------------------------------------------------------------


def derived_symbols(name):
    """A catalog symbol with the symbols derived from it: its hat extension
    and modulus, and for a graph regular one its a and b, the bounded
    transform z and a functional calculus."""
    sym = catalog.get(name)
    out = {"symbol": sym, "hat": hat_extension(sym),
           "abs": absolute_value_symbol(sym)}
    rep = regularity_report(sym)
    if rep.graph_regular:
        out.update(a=rep.a_symbol, b=rep.b_symbol,
                   z=bounded_transform_symbol(sym).z,
                   calculus=functional_calculus_symbol(
                       sym, ex.parse_expression("w/(1+abs(w)^2)"), 0.5 - 0.25j))
    return out


FILLS_DROPPED = pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="ROADMAP item 1(a): symbol_to_dict drops fills, and the filled "
           "point 0 breaks the pieces without a puncture")
KNOWN_FAILURES = {
    ("one_over_x", "a"): FILLS_DROPPED,
    ("one_over_x", "b"): FILLS_DROPPED,
    ("one_over_x", "calculus"): FILLS_DROPPED,
}
# exp_i_over_x has singular support, so it has no a, b, z or calculus
ROUND_TRIPS = [
    pytest.param(name, kind, marks=KNOWN_FAILURES.get((name, kind), ()))
    for name in catalog.names()
    for kind in ("symbol", "hat", "abs", "a", "b", "z", "calculus")
    if name != "exp_i_over_x" or kind in ("symbol", "hat", "abs")
]


@pytest.mark.parametrize("name, kind", ROUND_TRIPS)
def test_derived_symbol_reads_back(name, kind):
    sym = derived_symbols(name)[kind]
    assert symbol_equivalent(symbol_from_dict(symbol_to_dict(sym)), sym)


def test_only_exp_i_over_x_lacks_the_graph_regular_derivations():
    assert [name for name in catalog.names()
            if not regularity_report(catalog.get(name)).graph_regular] == [
        "exp_i_over_x"]


def test_symbol_file_round_trip():
    for name in catalog.names():
        sym = catalog.BUILDERS[name]()
        data = symbol_to_dict(sym)
        again = symbol_from_dict(data)
        assert symbol_to_dict(again) == data
        grid = sample_grid(sym, bulk=64)
        v1, v2 = sym(grid), again(grid)
        good = ~np.isnan(v1)
        assert np.allclose(v1[good], v2[good])


_LINE = {"base": "realline", "punctures": [0.0]}
_HALVES = [{"lo": None, "hi": 0.0, "expr": "1/x"}, {"lo": 0.0, "hi": None, "expr": "1/x"}]


@pytest.mark.parametrize("data, message", [
    ({}, "missing key 'domain'"),
    ({"domain": {}, "pieces": []}, "missing key 'base'"),
    ({"domain": _LINE}, "missing key 'pieces'"),
    ({"domain": _LINE, "pieces": 5}, "key 'pieces' must be list"),
    ({"domain": _LINE, "pieces": [3]}, r"symbol.pieces\[0\] must be a JSON object"),
    ({"domain": _LINE, "pieces": [{"lo": 0.0}]}, r"pieces\[0\]: missing key 'expr'"),
    ({"domain": {**_LINE, "base": 1}, "pieces": _HALVES}, "key 'base' must be str"),
    ({"domain": {**_LINE, "punctures": [True]}, "pieces": _HALVES},
     r"punctures\[0\] must be a number"),
    ({"domain": {"base": "interval", "lo": 0, "hi": 10 ** 400}, "pieces": _HALVES},
     "key 'hi' is out of range"),
    ({"domain": _LINE, "pieces": _HALVES, "declarations": [{"class": "reg_inf"}]},
     "missing key 'at'"),
    ({"domain": _LINE, "pieces": _HALVES,
      "declarations": [{"at": "zero", "class": "reg_inf"}]}, "key 'at' must be"),
    ({"domain": _LINE, "pieces": _HALVES,
      "declarations": [{"at": 0.0, "class": "reg_b", "limit": [1.0]}]},
     r"key 'limit' must be \[re, im\]"),
], ids=["empty", "no-base", "no-pieces", "pieces-int", "piece-int", "no-expr",
        "base-int", "puncture-bool", "huge-int", "no-at", "at-string", "short-limit"])
def test_symbol_from_dict_names_the_bad_key(data, message):
    with pytest.raises(ValueError, match=message):
        symbol_from_dict(data)


def test_scalar_evaluation_and_fills():
    m = hat_extension(catalog.x_exp_minus_i_over_x())
    assert m(0.0) == 0.0
    assert math.isnan(catalog.x_exp_minus_i_over_x()(0.0).real)


def test_oscillation_at_infinity_keeps_the_bounded_operator_regular():
    # sin(x) on the line: the paper's bounded multiplication operator
    sym = symbol_from_dict({
        "domain": {"base": "realline"},
        "pieces": [{"lo": None, "hi": None, "expr": "sin(x)"}],
        "declarations": [{"at": "inf", "class": "sing_supp"}]})
    rep = regularity_report(sym)
    assert rep.graph_regular and rep.regular
    for out in (rep.a_symbol, rep.b_symbol):
        assert out.declaration(INF).cls is PointClass.SING_SUPP


def test_settled_transform_at_infinity_is_declared_by_its_limit():
    # |exp(ix)| = 1, so a = 1/(1+|m|²) settles at 1/2 while b = m/2 oscillates
    sym = symbol_from_dict({
        "domain": {"base": "realline"},
        "pieces": [{"lo": None, "hi": None, "expr": "exp(i*x)"}],
        "declarations": [{"at": "inf", "class": "sing_supp"}]})
    rep = regularity_report(sym)
    assert rep.regular
    a_decl = rep.a_symbol.declaration(INF)
    assert a_decl.cls is PointClass.REG_B and abs(a_decl.limit - 0.5) < 1e-9
    assert rep.b_symbol.declaration(INF).cls is PointClass.SING_SUPP


# -- approach sequences and ends ------------------------------------------------


@pytest.mark.parametrize("domain, reaches", [
    (interval(0.0, 1.0), False), (real_line(), True),
    (DomainSpec("halfline", 0.7), True)], ids=["interval", "line", "halfline"])
def test_includes_infinity_is_read_off_the_base(domain, reaches):
    assert domain.includes_infinity is reaches
    assert symbol_to_dict(PiecewiseSymbol(
        domain, ((domain.lo, domain.hi, ex.VAR),)))["domain"]["infinity"] is reaches


def test_includes_infinity_is_no_constructor_field():
    # the base fixes it, so no interval can claim to reach infinity
    with pytest.raises(TypeError):
        DomainSpec("interval", 0.0, 1.0, (), True)


def test_approach_sequences_keep_their_samples():
    # the detected limits end up in the golden a/b symbols, so the sample
    # points are pinned bit for bit
    cfg = Config(approach_steps=4, approach_start=0.3, inf_start=1.3,
                 inf_reach=100.0)
    x = ex.parse_expression("x")
    half = PiecewiseSymbol(DomainSpec("halfline", 0.7), ((0.7, INF, x),))
    line = PiecewiseSymbol(real_line([-0.7]), ((-INF, -0.7, x), (-0.7, INF, x)),
                           (Declaration(-0.7, PointClass.REG_B),))
    punct = PiecewiseSymbol(interval(-1, 1, [0.1]), ((-1, 0.1, x), (0.1, 1, x)),
                            (Declaration(0.1, PointClass.REG_B),))
    cases = [
        (half, INF, [[1.4, 2.8, 5.6, 11.2]]),
        (line, INF, [[1.4, 2.8, 5.6, 11.2], [-1.4, -2.8, -5.6, -11.2]]),
        (punct, 0.1, [[-0.17500000000000002, -0.037500000000000006, 0.03125,
                       0.065625],
                      [0.325, 0.21250000000000002, 0.15625,
                       0.12812500000000002]]),
    ]
    for sym, p, want in cases:
        assert _side_sequences(sym, p, cfg) == want


@pytest.mark.parametrize("domain, pieces, end", [
    ({"base": "realline", "lo": -1, "hi": 1},
     [{"lo": -1, "hi": 1, "expr": "x"}], "lo = -1.0, hi = 1.0"),
    ({"base": "halfline", "lo": 0, "hi": 1},
     [{"lo": 0, "hi": 1, "expr": "x"}], "hi = 1.0"),
    ({"base": "realline", "punctures": [0.0]},
     [{"lo": -1, "hi": 0, "expr": "x"}, {"lo": 0, "hi": 1, "expr": "x"}],
     "left endpoint -inf"),
    ({"base": "halfline", "lo": 0},
     [{"lo": 0, "hi": 1, "expr": "x"}], "right endpoint inf"),
], ids=["realline-ends", "halfline-end", "realline-pieces", "halfline-pieces"])
def test_symbol_must_reach_its_infinite_ends(domain, pieces, end):
    decls = [{"at": p, "class": "reg_b"} for p in domain.get("punctures", [])]
    with pytest.raises(ValueError, match=end):
        symbol_from_dict({"domain": domain, "pieces": pieces,
                          "declarations": decls})
