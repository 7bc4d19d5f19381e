"""The two pointwise maps of the symbol backend.

``symbols.map_symbol`` (a class-preserving f ∘ m) and
``symbols.bounded_map_symbol`` (a bounded f ∘ m as its canonical
representative) replaced six hand-written maps, and ``combine_symbols``
replaced the matrix layer's own combine routine.  Those hand-written
versions are kept below as references: on every symbol they accepted
the helpers must give the same pieces (equal ASTs), declarations and
fills.  The hand-written maps dropped fills, so they failed on a hat
extension whose filled point breaks the pieces; the helpers carry fills.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from graphreg import catalog
from graphreg import expressions as ex
from graphreg.expressions import evaluate, parse_expression
from graphreg.matrix_symbols import matrix_symbol_op, oscillating_column_example
from graphreg.symbols import (
    Declaration,
    PiecewiseSymbol,
    PointClass,
    _merge_pieces,
    combine_symbols,
    conjugate_symbol,
    detect_point,
    hat_extension,
    interval,
    real_line,
    regularity_report,
    symbol_equivalent,
    verify_symbol,
)
from graphreg.transforms import (
    aab_forward_symbol,
    aab_inverse_symbol,
    absolute_value_symbol,
    bounded_transform_symbol,
    functional_calculus_symbol,
)

INF = float("inf")


# -- the replaced hand-written maps, as references ------------------------------------


def transform_symbol_reference(m, verified, which):
    pieces = []
    for a, b, t in m.pieces:
        den_t = ex.add(ex.ONE, ex.abs2(t))
        top = ex.ONE if which == "a" else t
        pieces.append((a, b, ex.div(top, den_t)))
    decls = []
    for d in m.declarations:
        v = verified[d.at]
        if d.cls is PointClass.REG_INF:
            decls.append(Declaration(d.at, PointClass.REG_B, 0.0))
        elif d.cls.finite_limit:
            lim = v.detected.limit
            val = 1 / (1 + abs(lim) ** 2) if which == "a" else lim / (1 + abs(lim) ** 2)
            decls.append(Declaration(d.at, PointClass.REG_B, val))
        else:
            raise AssertionError("transform undefined across sing_supp")
    out = PiecewiseSymbol(m.domain, tuple(pieces), tuple(decls))
    return hat_extension(out)


def functional_calculus_reference(m, f_ast, beta=0.0):
    verified = verify_symbol(m)
    pieces = tuple(
        (a, b, ex.add(ex.substitute(f_ast, t), ex.num(beta)))
        for a, b, t in m.pieces)
    decls = []
    for d in m.declarations:
        if d.cls is PointClass.REG_INF:
            decls.append(Declaration(d.at, PointClass.REG_B, complex(beta)))
        elif d.cls.finite_limit:
            lim = verified[d.at].detected.limit
            val = complex(evaluate(f_ast, lim)) + complex(beta)
            decls.append(Declaration(d.at, PointClass.REG_B, val))
        else:
            raise AssertionError("symbol has singular-support points")
    return hat_extension(PiecewiseSymbol(m.domain, pieces, tuple(decls)))


def absolute_value_reference(m):
    """|m|, each sing_supp point detected on |m|, where the modulus can
    settle an oscillation."""
    pieces = tuple((a, b, ex.call("abs", t)) for a, b, t in m.pieces)
    decls = tuple(
        Declaration(d.at, d.cls,
                    None if d.limit is None else abs(complex(d.limit)))
        for d in m.declarations)
    fills = tuple((p, abs(complex(v))) for p, v in m.fills)
    mapped = PiecewiseSymbol(m.domain, pieces, decls, fills)
    settled = {d.at: detect_point(mapped, d.at) for d in decls
               if d.cls is PointClass.SING_SUPP}
    return replace(mapped, declarations=tuple(
        Declaration(d.at, PointClass.REG_B, settled[d.at].limit)
        if d.at in settled and settled[d.at].kind is PointClass.REG_B else d
        for d in decls))


def conjugate_reference(m):
    pieces = tuple((a, b, ex.conj(t)) for a, b, t in m.pieces)
    decls = tuple(
        Declaration(d.at, d.cls,
                    None if d.limit is None else complex(d.limit).conjugate())
        for d in m.declarations)
    fills = tuple((p, complex(v).conjugate()) for p, v in m.fills)
    return PiecewiseSymbol(m.domain, pieces, decls, fills)


def bounded_probe_reference(m):
    """The z symbol and the per-puncture flags, built on the regularity
    report and the hat extension of m.  z = m/√(1+|m|²) is written
    m/(√(1+i|m|)·√(1−i|m|)), whose factors are conjugate, so that no
    intermediate overflows."""
    assert regularity_report(m).graph_regular
    mh = hat_extension(m)

    def z(t):
        i_mod = ex.mul(ex.I, ex.call("abs", t))
        return ex.div(t, ex.mul(ex.call("sqrt", ex.add(ex.ONE, i_mod)),
                                ex.call("sqrt", ex.sub(ex.ONE, i_mod))))

    def z_value(v):
        u = abs(complex(v))
        return complex(v) / (np.sqrt(1 + 1j * u) * np.sqrt(1 - 1j * u))

    pieces = tuple((a, b, z(t)) for a, b, t in mh.pieces)
    filled = {p for p, _ in mh.fills}
    probe = PiecewiseSymbol(
        mh.domain, pieces,
        tuple(Declaration(p, PointClass.SING_SUPP)
              for p in mh.domain.punctures),
        tuple((p, z_value(v)) for p, v in mh.fills))
    extendable = {}
    for p in sorted(set(m.domain.punctures) | filled):
        if p in filled:
            extendable[p] = True
            continue
        extendable[p] = detect_point(probe, p).kind is PointClass.REG_B
    return probe, extendable


def combine_reference(m1, m2, op):
    dom = replace(m1.domain, punctures=tuple(sorted(
        set(m1.domain.punctures) | set(m2.domain.punctures))))
    decls = tuple(Declaration(p, PointClass.SING_SUPP) for p in dom.punctures)
    return PiecewiseSymbol(dom, _merge_pieces(m1, m2, op), decls)


class SymbolMatrixReference:
    """2x2 symbol-matrix arithmetic on the reference combine routine."""

    def __init__(self, entries):
        self.e = [list(row) for row in entries]

    def adjoint(self):
        e = self.e
        return SymbolMatrixReference(
            [[conjugate_reference(e[0][0]), conjugate_reference(e[1][0])],
             [conjugate_reference(e[0][1]), conjugate_reference(e[1][1])]])

    def __matmul__(self, other):
        a, b = self.e, other.e
        return SymbolMatrixReference(
            [[combine_reference(combine_reference(a[i][0], b[0][j], ex.mul),
                                combine_reference(a[i][1], b[1][j], ex.mul), ex.add)
              for j in range(2)] for i in range(2)])

    def plus_identity(self):
        one = PiecewiseSymbol(real_line(), ((-INF, INF, ex.num(1.0)),))
        zero = PiecewiseSymbol(real_line(), ((-INF, INF, ex.ZERO),))
        eye = [[one, zero], [zero, one]]
        return SymbolMatrixReference(
            [[combine_reference(self.e[i][j], eye[i][j], ex.add)
              for j in range(2)] for i in range(2)])

    def inverse(self):
        e = self.e
        det = combine_reference(combine_reference(e[0][0], e[1][1], ex.mul),
                                combine_reference(e[0][1], e[1][0], ex.mul), ex.sub)
        out = [[e[1][1], e[0][1]], [e[1][0], e[0][0]]]
        signs = [[1, -1], [-1, 1]]
        inv = []
        for i in range(2):
            row = []
            for j in range(2):
                top = out[i][j]
                if signs[i][j] < 0:
                    top = PiecewiseSymbol(
                        top.domain,
                        tuple((a, b, ex.mul(ex.num(-1.0), t))
                              for a, b, t in top.pieces),
                        top.declarations, top.fills)
                row.append(combine_reference(top, det, ex.div))
            inv.append(row)
        return SymbolMatrixReference(inv)


# -- inputs ---------------------------------------------------------------------------


def shifted(sym, s):
    """sym moved right by s (dyadic, so the detector's samples stay exact)."""
    moved = ex.sub(ex.VAR, ex.num(s))
    dom = replace(sym.domain, lo=sym.domain.lo + s, hi=sym.domain.hi + s,
                  punctures=tuple(p + s for p in sym.domain.punctures))
    pieces = tuple((a + s, b + s, ex.substitute(t, moved))
                   for a, b, t in sym.pieces)
    decls = tuple(Declaration(d.at + s, d.cls, d.limit)
                  for d in sym.declarations)
    return PiecewiseSymbol(dom, pieces, decls)


def scaled(sym, c):
    pieces = tuple((a, b, ex.mul(ex.num(c), t)) for a, b, t in sym.pieces)
    decls = tuple(Declaration(d.at, d.cls,
                              None if d.limit is None else c * d.limit)
                  for d in sym.declarations)
    return PiecewiseSymbol(sym.domain, pieces, decls)


SYMBOLS = {}
for _name in catalog.names():
    _base = catalog.get(_name)
    SYMBOLS[_name] = _base
    SYMBOLS[f"{_name}-shifted"] = shifted(_base, 0.75)
    SYMBOLS[f"{_name}-scaled"] = scaled(_base, 2.5)

GRAPH_REGULAR = [k for k, m in SYMBOLS.items() if regularity_report(m).graph_regular]

CALCULUS = [("1/(1+abs(w)^2)", 0.0), ("w/(1+abs(w)^2)", 0.0),
            ("1/(1+abs(w)^2)", 0.5 - 0.25j)]


# detect_point at each declared point, and at infinity where the base
# reaches it, of every symbol above: the class, the number of sides and
# the bits of the limit, decided exactly.  1/x tends to 0 at infinity
# (the sampler read its slow tail as oscillation), and x·e^{-i/x} to
# exactly 0 (the sampler's mean of its last samples was about 1e-12)
DETECTIONS = {
    ("exp_i_over_x", 0.0): ("sing_supp", 1, None),
    ("exp_i_over_x-shifted", 0.75): ("sing_supp", 1, None),
    ("exp_i_over_x-scaled", 0.0): ("sing_supp", 1, None),
    ("exp_i_over_x_over_x", 0.0): ("reg_inf", 1, None),
    ("exp_i_over_x_over_x-shifted", 0.75): ("reg_inf", 1, None),
    ("exp_i_over_x_over_x-scaled", 0.0): ("reg_inf", 1, None),
    ("one_over_x", 0.0): ("reg_inf", 2, None),
    ("one_over_x", math.inf): ("reg_b", 2, ("0x0.0p+0", "0x0.0p+0")),
    ("one_over_x-shifted", 0.75): ("reg_inf", 2, None),
    ("one_over_x-shifted", math.inf): ("reg_b", 2, ("0x0.0p+0", "0x0.0p+0")),
    ("one_over_x-scaled", 0.0): ("reg_inf", 2, None),
    ("one_over_x-scaled", math.inf): ("reg_b", 2, ("0x0.0p+0", "0x0.0p+0")),
    ("x", math.inf): ("reg_inf", 2, None),
    ("x-shifted", math.inf): ("reg_inf", 2, None),
    ("x-scaled", math.inf): ("reg_inf", 2, None),
    ("x_exp_minus_i_over_x", 0.0): ("reg_b", 1, ("0x0.0p+0", "0x0.0p+0")),
    ("x_exp_minus_i_over_x-shifted", 0.75): ("reg_b", 1, ("0x0.0p+0", "0x0.0p+0")),
    ("x_exp_minus_i_over_x-scaled", 0.0): ("reg_b", 1, ("0x0.0p+0", "0x0.0p+0")),
}


@pytest.mark.parametrize("name, point", list(DETECTIONS))
def test_detection_keeps_its_bits(name, point):
    det = detect_point(SYMBOLS[name], point)
    limit = None if det.limit is None else (det.limit.real.hex(),
                                            det.limit.imag.hex())
    assert (det.kind.value, det.sides, limit) == DETECTIONS[name, point]


def test_every_detection_is_pinned():
    points = {(name, p) for name, m in SYMBOLS.items()
              for p in [d.at for d in m.declarations]
              + ([math.inf] if m.domain.includes_infinity else [])}
    assert points == set(DETECTIONS)


def assert_same_symbol(new, ref):
    assert new.domain == ref.domain
    assert len(new.pieces) == len(ref.pieces)
    for (a1, b1, t1), (a2, b2, t2) in zip(new.pieces, ref.pieces):
        assert (a1, b1) == (a2, b2)
        assert t1 == t2
    assert new.declarations == ref.declarations
    assert new.fills == ref.fills


def test_every_symbol_set_is_exercised():
    assert len(SYMBOLS) == 15
    # exp_i_over_x and its variants have singular support
    assert len(GRAPH_REGULAR) == 12


# -- the helpers against the references -------------------------------------------------


@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_class_preserving_maps_match_references(name):
    m = SYMBOLS[name]
    for sym in (m, hat_extension(m)) if name in GRAPH_REGULAR else (m,):
        assert_same_symbol(conjugate_symbol(sym), conjugate_reference(sym))
        assert_same_symbol(absolute_value_symbol(sym), absolute_value_reference(sym))


@pytest.mark.parametrize("name", GRAPH_REGULAR)
def test_transform_symbols_match_reference(name):
    m = SYMBOLS[name]
    rep = regularity_report(m)
    verified = verify_symbol(m)
    assert_same_symbol(rep.a_symbol, transform_symbol_reference(m, verified, "a"))
    assert_same_symbol(rep.b_symbol, transform_symbol_reference(m, verified, "b"))


@pytest.mark.parametrize("name", GRAPH_REGULAR)
@pytest.mark.parametrize("f, beta", CALCULUS)
def test_functional_calculus_matches_reference(name, f, beta):
    m = SYMBOLS[name]
    f_ast = parse_expression(f)
    assert_same_symbol(functional_calculus_symbol(m, f_ast, beta),
                       functional_calculus_reference(m, f_ast, beta))


@pytest.mark.parametrize("name", GRAPH_REGULAR)
def test_bounded_transform_matches_reference(name):
    m = SYMBOLS[name]
    bt = bounded_transform_symbol(m)
    probe, extendable = bounded_probe_reference(m)
    assert_same_symbol(bt.z, probe)
    assert bt.extendable_at == extendable
    assert list(bt.extendable_at) == list(extendable)
    assert bt.adjointable == all(extendable.values())


@pytest.mark.parametrize("name", GRAPH_REGULAR)
def test_inverse_symbol_transform_reads_back(name):
    # b/a declares each of its punctures as detected there, so the
    # verifier accepts it: the same operator as m, with m's point classes
    m = SYMBOLS[name]
    inverse = aab_inverse_symbol(aab_forward_symbol(m))
    assert symbol_equivalent(inverse, m)
    assert ({d.at: d.cls for d in inverse.declarations}
            == {d.at: d.cls for d in m.declarations})


@pytest.mark.parametrize("op", [ex.add, ex.sub, ex.mul, ex.div])
@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_combine_matches_reference_on_fill_free_symbols(name, op):
    m = SYMBOLS[name]
    for other in (m, conjugate_symbol(m), scaled(m, -1.5)):
        assert_same_symbol(combine_symbols(m, other, op),
                           combine_reference(m, other, op))


def test_matrix_symbol_transform_matches_reference():
    t, pattern = oscillating_column_example()
    got = matrix_symbol_op(t, pattern)
    ref_t = SymbolMatrixReference(t.entries)
    ref_th = ref_t.adjoint()
    ref_a = (ref_th @ ref_t).plus_identity().inverse()
    ref_a_star = (ref_t @ ref_th).plus_identity().inverse()
    ref_b = ref_t @ ref_a
    for new, ref in ((got.a, ref_a), (got.a_star, ref_a_star), (got.b, ref_b)):
        for i in range(2):
            for j in range(2):
                assert_same_symbol(new[i, j], ref.e[i][j])


# -- fills are carried -------------------------------------------------------------------


def sinc_hat():
    """sin(x)/x on the line, declared reg_b with limit 1 at 0, hat-extended:
    no puncture is left, and the filled point 0 breaks the pieces."""
    t = ex.parse_expression("sin(x)/x")
    m = PiecewiseSymbol(real_line(punctures=(0.0,)),
                        ((-INF, 0.0, t), (0.0, INF, t)),
                        (Declaration(0.0, PointClass.REG_B, 1.0),))
    hat = hat_extension(m)
    assert hat.domain.punctures == () and hat.fills == ((0.0, 1.0),)
    return hat


def test_hat_extension_passes_through_every_symbol_transform():
    m = sinc_hat()
    rep = regularity_report(m)
    assert rep.graph_regular and rep.regular
    assert rep.a_symbol.fill_value(0.0) == 0.5
    assert rep.b_symbol.fill_value(0.0) == 0.5
    triple = aab_forward_symbol(m)
    assert triple.a.fill_value(0.0) == 0.5 and triple.b.fill_value(0.0) == 0.5
    assert triple.symbol.fill_value(0.0) == 1.0
    fw = functional_calculus_symbol(m, parse_expression("w"))
    assert fw.fill_value(0.0) == 1.0
    bt = bounded_transform_symbol(m)
    assert bt.z.fill_value(0.0) == pytest.approx(1 / math.sqrt(2), abs=1e-16)
    assert bt.extendable_at == {0.0: True} and bt.adjointable
    # the maps are continuous across 0: the fills agree with the pieces
    xs = np.array([-1e-4, 1e-4])
    assert np.abs(rep.a_symbol(xs) - 0.5).max() < 1e-8
    assert np.abs(fw(xs) - 1.0).max() < 1e-8


def test_class_preserving_maps_carry_fills_and_limits():
    m = sinc_hat()
    assert absolute_value_symbol(m).fills == ((0.0, 1.0),)
    i_sinc = PiecewiseSymbol(m.domain, m.pieces, (), ((0.0, 1j),))
    assert conjugate_symbol(i_sinc).fills == ((0.0, -1j),)
    declared = PiecewiseSymbol(real_line(punctures=(0.0,)), m.pieces,
                               (Declaration(0.0, PointClass.REG_B, 1j),))
    assert conjugate_symbol(declared).declarations == (
        Declaration(0.0, PointClass.REG_B, -1j),)
    assert absolute_value_symbol(declared).declarations == (
        Declaration(0.0, PointClass.REG_B, 1.0),)


@pytest.mark.parametrize("left, settles", [("-1", True), ("1/2", False)])
def test_modulus_redetects_singular_support(left, settles):
    # c/sqrt(1+x²) on the left of 0 and 1/sqrt(1+x²) on the right jumps at
    # 0; its modulus is continuous there when |c| = 1
    m = PiecewiseSymbol(
        real_line(punctures=(0.0,)),
        ((-INF, 0.0, parse_expression(f"({left})/sqrt(1+x^2)")),
         (0.0, INF, parse_expression("1/sqrt(1+x^2)"))),
        (Declaration(0.0, PointClass.SING_SUPP),))
    (decl,) = absolute_value_symbol(m).declarations
    if settles:
        assert decl.cls is PointClass.REG_B and abs(decl.limit - 1) < 1e-9
    else:
        assert decl == Declaration(0.0, PointClass.SING_SUPP)


def test_modulus_of_exp_i_over_x_passes_its_hat_extension():
    # |e^{i/x}| = 1, so the oscillation at 0 is gone from the modulus
    absm = absolute_value_symbol(catalog.exp_i_over_x())
    (decl,) = absm.declarations
    assert decl.cls is PointClass.REG_B and abs(decl.limit - 1) < 1e-9
    assert hat_extension(absm).domain.punctures == ()


def one_over_x_squared():
    t = ex.parse_expression("1/x^2")
    return PiecewiseSymbol(real_line(punctures=(0.0,)),
                           ((-INF, 0.0, t), (0.0, INF, t)),
                           (Declaration(0.0, PointClass.REG_INF),))


def test_bounded_transform_extends_across_a_divergence_without_phase_jump():
    # m = 1/x² diverges at 0 with constant phase, so z = m/√(1+|m|²) → 1
    m = one_over_x_squared()
    bt = bounded_transform_symbol(m)
    assert bt.extendable_at == {0.0: True} and bt.adjointable
    (decl,) = bt.z.declarations
    assert decl.at == 0.0 and decl.cls is PointClass.REG_B
    assert abs(decl.limit - 1.0) < 1e-6
    _, extendable = bounded_probe_reference(m)
    assert extendable == {0.0: True}
    # z verifies as declared, and its hat absorbs the point at the limit
    hat = hat_extension(bt.z)
    assert hat.domain.punctures == () and hat.fills == ((0.0, decl.limit),)


@pytest.mark.parametrize("name", GRAPH_REGULAR + ["one_over_x_squared"])
def test_bounded_transform_passes_its_own_hat_extension(name, monkeypatch):
    from graphreg import symbols

    m = SYMBOLS.get(name) or one_over_x_squared()
    detect = symbols.detect_point
    seen = []

    def spy(symbol, p):
        # the hat extension of m verifies m itself; the rest look at z
        if symbol is not m:
            seen.append(p)
        return detect(symbol, p)

    monkeypatch.setattr(symbols, "detect_point", spy)
    bt = bounded_transform_symbol(m)
    # one detector call per surviving puncture, none to declare z
    assert seen == list(hat_extension(m).domain.punctures)
    for d in bt.z.declarations:
        assert (d.cls is PointClass.REG_B) == bt.extendable_at[d.at]
        assert d.cls in (PointClass.REG_B, PointClass.SING_SUPP)
    hat = hat_extension(bt.z)
    assert all(d.cls is PointClass.SING_SUPP for d in hat.declarations)


# -- limits share the arithmetic of the pieces -----------------------------------------


def test_large_finite_limit_maps_without_overflow():
    # |10^200 + x|^2 overflows binary64, where scalar formulas on the limit
    # raised OverflowError; the limits now take the pieces' arithmetic
    big = ex.parse_expression("1" + "0" * 200 + "+x")
    m = PiecewiseSymbol(interval(0.0, 1.0, punctures=(0.0,)), ((0.0, 1.0, big),),
                        (Declaration(0.0, PointClass.REG_B, 1e200),))
    rep = regularity_report(m)
    assert rep.graph_regular and rep.regular
    assert rep.a_symbol.fill_value(0.0) == 0 and rep.b_symbol.fill_value(0.0) == 0
    bt = bounded_transform_symbol(m)
    assert bt.adjointable
    assert bt.z.fill_value(0.0) == bt.z([0.5])[0]


def test_bounded_transform_of_a_divergence_past_the_square_overflow():
    # |1/x^20| passes 1.3e154 before the detector's last sample, where
    # |m|² overflows; z = m/(√(1+i|m|)·√(1−i|m|)) still tends to 1 there
    t = ex.parse_expression("1/x^20")
    m = PiecewiseSymbol(real_line(punctures=(0.0,)),
                        ((-INF, 0.0, t), (0.0, INF, t)),
                        (Declaration(0.0, PointClass.REG_INF),))
    bt = bounded_transform_symbol(m)
    (decl,) = bt.z.declarations
    assert decl.cls is PointClass.REG_B and abs(decl.limit - 1.0) < 1e-6
    assert bt.extendable_at == {0.0: True} and bt.adjointable


def test_bounded_transform_of_a_huge_constant_is_one():
    m = PiecewiseSymbol(interval(0.0, 1.0),
                        ((0.0, 1.0, ex.parse_expression("1" + "0" * 200)),))
    z = bounded_transform_symbol(m).z
    assert z([0.001, 0.25, 0.5, 0.999]) == [1.0] * 4
