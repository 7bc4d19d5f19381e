"""2x2 matrices of symbols over the real line.

The algebra is a 2x2 matrix algebra over C_0(R) with selected corners
unitized; a pattern of entry classes (C0, C0~ or Cb) defines it.  The
multiplier and left-multiplier patterns are derived from the algebra
pattern by a small class calculus, and membership of a concrete symbol
matrix is decided by numerically profiling each entry: continuity across
punctures, boundedness, and limits at the two infinities.

This realizes operator matrices whose transform elements can fail to be
multipliers in instructive ways: b can land outside M(A), and a_* can
oscillate at infinity with no limit, leaving it bounded but outside the
unitized corner class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .config import DEFAULT, Config
from .errors import ClassCheckFailed, InconclusiveClassification
from .symbols import (
    INF,
    DomainSpec,
    PiecewiseSymbol,
    PointClass,
    _vanishes_at_infinity,
    combine_symbols,
    conjugate_symbol,
    detect_point,
    map_symbol,
    real_line,
    sample_grid,
)


class EntryClass(enum.IntEnum):
    """Function classes ordered by inclusion: C0 ⊂ C0~ ⊂ Cb."""

    C0 = 0
    C0U = 1
    CB = 2

    @staticmethod
    def parse(name: str) -> "EntryClass":
        return {"C0": EntryClass.C0, "C0Unitized": EntryClass.C0U,
                "Cb": EntryClass.CB}[name]


def _solve(src: EntryClass, dst: EntryClass) -> EntryClass:
    """Largest class c with c·src ⊆ dst."""
    if src == EntryClass.C0:
        return EntryClass.CB
    if src == EntryClass.C0U:
        return dst
    return EntryClass.CB if dst == EntryClass.CB else EntryClass.C0


def left_multiplier_pattern(alg):
    """Entry classes of {T : T·A ⊆ A} for the algebra pattern ``alg``."""
    return [
        [min(_solve(alg[k][j], alg[i][j]) for j in range(2)) for k in range(2)]
        for i in range(2)
    ]


def multiplier_pattern(alg):
    """Entry classes of M(A) = {T : T·A ⊆ A and A·T ⊆ A}."""
    lm = left_multiplier_pattern(alg)
    rm = [
        [min(_solve(alg[i][k], alg[i][j]) for i in range(2)) for j in range(2)]
        for k in range(2)
    ]
    return [[min(lm[i][j], rm[i][j]) for j in range(2)] for i in range(2)]


# -- entry profiling ------------------------------------------------------------


@dataclass
class EntryProfile:
    continuous: bool
    bounded: bool
    sup: float
    limit: complex | None    # the one value both ends settle on, if any
    vanishes: bool

    def fits(self, cls: EntryClass) -> bool:
        if not self.continuous:
            return False
        if cls == EntryClass.C0:
            return self.vanishes
        if cls == EntryClass.C0U:
            # C0 plus constants: vanishing suffices, otherwise both ends
            # must settle on one finite value
            return self.vanishes or self.limit is not None
        return self.bounded


def entry_profile(sym: PiecewiseSymbol, cfg: Config = DEFAULT) -> EntryProfile:
    """Numerical profile of one matrix entry on the real line.

    ``detect_point`` classifies each puncture and, where the base reaches
    it, the point at infinity: the entry has a limit there when the
    detector finds one value at both ends (``reg_b``), and the largest
    modulus it sampled joins the grid's in ``sup``.  NaN samples are
    ``InconclusiveClassification``, as in ``analyze``.
    """
    continuous = True
    for p in sym.domain.punctures:
        if sym.fill_value(p) is not None:
            continue
        det = detect_point(sym, p, cfg)
        if det.kind is None:
            raise InconclusiveClassification(f"entry unclassifiable at {p}")
        if det.kind is not PointClass.REG_B:
            continuous = False
    grid = sample_grid(sym, cfg, bulk=2048)
    vals = sym(grid)
    sup = float(np.nanmax(np.abs(vals))) if vals.size else 0.0
    limit = None
    if sym.domain.includes_infinity:
        det = detect_point(sym, INF, cfg)
        sup = max(sup, det.peak)
        if det.kind is PointClass.REG_B:
            limit = det.limit
    return EntryProfile(continuous, sup < cfg.blowup, sup, limit,
                        _vanishes_at_infinity(sym, cfg))


# -- symbol matrices -------------------------------------------------------------


def zero_symbol(domain: DomainSpec | None = None) -> PiecewiseSymbol:
    domain = domain or real_line()
    return PiecewiseSymbol(domain, ((domain.lo, domain.hi, ex.ZERO),))


def scalar_symbol(value, domain: DomainSpec | None = None) -> PiecewiseSymbol:
    domain = domain or real_line()
    return PiecewiseSymbol(domain, ((domain.lo, domain.hi, ex.num(value)),))


def expr_symbol(text: str, domain: DomainSpec | None = None) -> PiecewiseSymbol:
    domain = domain or real_line()
    return PiecewiseSymbol(domain, ((domain.lo, domain.hi,
                                     ex.parse_expression(text)),))


class SymbolMatrix:
    """2x2 matrix of PiecewiseSymbols with pointwise matrix arithmetic."""

    def __init__(self, entries):
        self.entries = [[entries[i][j] for j in range(2)] for i in range(2)]

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    @staticmethod
    def identity() -> "SymbolMatrix":
        one, zero = scalar_symbol(1.0), zero_symbol()
        return SymbolMatrix([[one, zero], [zero, one]])

    def adjoint(self) -> "SymbolMatrix":
        e = self.entries
        return SymbolMatrix(
            [[conjugate_symbol(e[0][0]), conjugate_symbol(e[1][0])],
             [conjugate_symbol(e[0][1]), conjugate_symbol(e[1][1])]]
        )

    def __matmul__(self, other: "SymbolMatrix") -> "SymbolMatrix":
        a, b = self.entries, other.entries
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                prod0 = combine_symbols(a[i][0], b[0][j], ex.mul)
                prod1 = combine_symbols(a[i][1], b[1][j], ex.mul)
                row.append(combine_symbols(prod0, prod1, ex.add))
            out.append(row)
        return SymbolMatrix(out)

    def plus_identity(self) -> "SymbolMatrix":
        eye = SymbolMatrix.identity()
        return SymbolMatrix(
            [[combine_symbols(self.entries[i][j], eye.entries[i][j], ex.add)
              for j in range(2)] for i in range(2)]
        )

    def inverse(self) -> "SymbolMatrix":
        """Pointwise 2x2 inverse via the adjugate formula."""
        e = self.entries
        det = combine_symbols(combine_symbols(e[0][0], e[1][1], ex.mul),
                              combine_symbols(e[0][1], e[1][0], ex.mul), ex.sub)

        def neg(sym):
            return map_symbol(sym, ex.mul(ex.num(-1.0), ex.VAR))

        adj = [[e[1][1], neg(e[0][1])], [neg(e[1][0]), e[0][0]]]
        return SymbolMatrix([[combine_symbols(adj[i][j], det, ex.div)
                              for j in range(2)] for i in range(2)])

    def eval(self, x: float) -> np.ndarray:
        return np.array([[complex(self.entries[i][j](x)) for j in range(2)]
                         for i in range(2)])


# -- verdicts ---------------------------------------------------------------------


@dataclass
class MembershipVerdict:
    in_algebra: bool
    in_multiplier: bool
    in_left_multiplier: bool
    entry_detail: list   # per entry: (required-in-A, fits flags per pattern)


@dataclass
class MatrixOpAnalysis:
    algebra_pattern: list
    multiplier: list
    left_multiplier: list
    t_verdict: MembershipVerdict
    a: SymbolMatrix
    a_star: SymbolMatrix
    b: SymbolMatrix
    a_verdict: MembershipVerdict
    a_star_verdict: MembershipVerdict
    b_verdict: MembershipVerdict

    def to_dict(self) -> dict:
        def v(m: MembershipVerdict):
            return {"in_A": m.in_algebra, "in_MA": m.in_multiplier,
                    "in_LMA": m.in_left_multiplier}

        return {"t": v(self.t_verdict), "a": v(self.a_verdict),
                "a_star": v(self.a_star_verdict), "b": v(self.b_verdict)}


def check_membership(mat: SymbolMatrix, alg_pattern, cfg: Config = DEFAULT
                     ) -> MembershipVerdict:
    ma = multiplier_pattern(alg_pattern)
    lma = left_multiplier_pattern(alg_pattern)
    in_a = in_ma = in_lma = True
    detail = []
    for i in range(2):
        for j in range(2):
            prof = entry_profile(mat[i, j], cfg)
            fa = prof.fits(alg_pattern[i][j])
            fm = prof.fits(ma[i][j])
            fl = prof.fits(lma[i][j])
            in_a, in_ma, in_lma = in_a and fa, in_ma and fm, in_lma and fl
            detail.append(((i, j), fa, fm, fl, prof))
    return MembershipVerdict(in_a, in_ma, in_lma, detail)


def matrix_symbol_op(entries: SymbolMatrix, entry_classes,
                     cfg: Config = DEFAULT) -> MatrixOpAnalysis:
    """Analyze the operator of left multiplication by a 2x2 symbol matrix.

    ``entry_classes`` is the algebra pattern (2x2 of EntryClass or their
    string names).  Computes the transform elements via exact pointwise
    matrix algebra,

        a = (1 + t*t)^(-1),  a_* = (1 + tt*)^(-1),  b = t·a,

    and classifies t, a, a_* and b against A, M(A) and LM(A).
    """
    alg = [[c if isinstance(c, EntryClass) else EntryClass.parse(c)
            for c in row] for row in entry_classes]
    t = entries
    th = t.adjoint()
    a = (th @ t).plus_identity().inverse()
    a_star = (t @ th).plus_identity().inverse()
    b = t @ a
    try:
        return MatrixOpAnalysis(
            algebra_pattern=alg,
            multiplier=multiplier_pattern(alg),
            left_multiplier=left_multiplier_pattern(alg),
            t_verdict=check_membership(t, alg, cfg),
            a=a, a_star=a_star, b=b,
            a_verdict=check_membership(a, alg, cfg),
            a_star_verdict=check_membership(a_star, alg, cfg),
            b_verdict=check_membership(b, alg, cfg),
        )
    except InconclusiveClassification as err:
        raise ClassCheckFailed(str(err)) from err


def oscillating_column_example() -> tuple:
    """The operator t = (0 f; 0 g) with f = x√(1+sin²x), g = x√(1+cos²x).

    |f|² + |g|² = 3x², so a is diagonal while a_* mixes f and g and
    oscillates at infinity.  Returned with the algebra pattern whose
    unitized corner sits at (1,1), matching where the transform needs the
    constant.
    """
    f = expr_symbol("x*sqrt(1+sin(x)^2)")
    g = expr_symbol("x*sqrt(1+cos(x)^2)")
    t = SymbolMatrix([[zero_symbol(), f], [zero_symbol(), g]])
    pattern = [[EntryClass.C0U, EntryClass.C0], [EntryClass.C0, EntryClass.C0]]
    return t, pattern
