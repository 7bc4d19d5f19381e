"""Piecewise symbols on a 1-D locally compact domain and their
singularity classification.

A symbol m is given by closed-form expressions on open subintervals plus
a declaration for every puncture (and optionally for the point at
infinity): bounded continuous extension with a stated limit, divergence
of |m| to infinity, or a genuine singular-support point (bounded
oscillation / no extension on the Riemann sphere).  Declarations are
*verified*, never trusted: a geometric two-sided sampling detector
confirms or rejects each one.

The classification drives the operator verdicts: with finitely many
punctures the continuity set is automatically dense, so the
multiplication operator is essentially defined and orthogonally closed;
it is graph regular exactly when no singular-support point remains, and
regular (densely defined) when additionally no divergence point
remains.  In the graph-regular case the transform symbols

    a = 1/(1+|m|²),   b = m/(1+|m|²)

extend continuously by 0 across divergence points and are attached to
the report.

The detector runs on Python lists with ``math`` and ``cmath`` (through
``expressions.evaluate``), so classifying a symbol needs no numpy.  Only
``sample_grid``, ``in_pieces``, ``symbol_equivalent`` and evaluation at
an ndarray of points import it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, replace

from . import expressions as ex
from .complexmath import div, modulus
from .config import DEFAULT, Config
from .errors import (
    DeclarationMismatch,
    InconclusiveClassification,
    NotGraphRegular,
    UnverifiedDeclaration,
)

INF = math.inf  # the point at infinity (one point, both ends of the real line)
_NAN = complex(math.nan, 0.0)

# Fixed slacks of the symbol layer.  Piece ends within TILING_SLACK of each
# other, of a domain end or of a break meet there, and punctures of two
# symbols within PUNCTURE_MATCH are the same point: both absolute in x.
# |m| may dip by MONOTONE_SLACK of itself between samples of a divergence.
# The oscillation test scales osc_rel_var by the mean square of a tail, or
# by the absolute VARIANCE_FLOOR where that is smaller.
TILING_SLACK = 1e-12
MONOTONE_SLACK = 1e-6
VARIANCE_FLOOR = 1e-300
PUNCTURE_MATCH = 1e-9


class PointClass(enum.Enum):
    REG_B = "reg_b"          # finite continuous extension at the point
    REG_INF = "reg_inf"      # |m| diverges; extension on the Riemann sphere
    SING_SUPP = "sing_supp"  # neither: bounded oscillation or a jump
    REMOVABLE = "removable"  # finite extension, spurious puncture

    @property
    def finite_limit(self) -> bool:
        return self in (PointClass.REG_B, PointClass.REMOVABLE)


@dataclass(frozen=True)
class Declaration:
    at: float                 # puncture position or INF
    cls: PointClass
    limit: complex | None = None


@dataclass(frozen=True)
class DomainSpec:
    """Base interval, punctures and whether infinity is a boundary."""

    base: str                 # "interval" | "halfline" | "realline"
    lo: float = -INF
    hi: float = INF
    punctures: tuple = ()

    def __post_init__(self):
        if self.base == "interval":
            if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
                raise ValueError("interval needs finite lo < hi")
        elif self.base == "halfline":
            if not math.isfinite(self.lo):
                raise ValueError("halfline needs a finite left endpoint")
            if self.hi != INF:
                raise ValueError(f"halfline reaches +inf; it takes no right "
                                 f"endpoint, got hi = {self.hi}")
        elif self.base == "realline":
            if (self.lo, self.hi) != (-INF, INF):
                raise ValueError(f"realline reaches -inf and +inf; it takes no "
                                 f"endpoints, got lo = {self.lo}, hi = {self.hi}")
        else:
            raise ValueError(f"unknown base {self.base!r}")
        ps = tuple(sorted(float(p) for p in self.punctures))
        if len(set(ps)) != len(ps):
            raise ValueError("punctures must be distinct")
        for p in ps:
            if not math.isfinite(p):
                raise ValueError("punctures must be finite; declare at infinity instead")
            if not (self.lo <= p <= self.hi):
                raise ValueError(f"puncture {p} outside the closed base")
        object.__setattr__(self, "punctures", ps)

    @property
    def compact(self) -> bool:
        return self.base == "interval"

    @property
    def includes_infinity(self) -> bool:
        return not self.compact


def interval(lo, hi, punctures=()) -> DomainSpec:
    return DomainSpec("interval", lo, hi, tuple(punctures))


def real_line(punctures=()) -> DomainSpec:
    return DomainSpec("realline", punctures=tuple(punctures))


@dataclass(frozen=True)
class PiecewiseSymbol:
    domain: DomainSpec
    pieces: tuple            # ((lo, hi, ast), ...) on open intervals
    declarations: tuple = ()
    fills: tuple = ()        # ((point, value), ...) exact values at points

    def __post_init__(self):
        pieces = tuple(sorted(((float(a), float(b), t) for a, b, t in self.pieces)))
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("symbol needs at least one piece")
        # pieces must tile the base, breaking only at punctures or fills
        breaks = set(self.domain.punctures) | {p for p, _ in self.fills}
        lo, hi = self.domain.lo, self.domain.hi
        # -inf - (-inf) is nan, so an infinite end must be met exactly
        if not (pieces[0][0] == lo or abs(pieces[0][0] - lo) <= TILING_SLACK):
            raise ValueError(f"pieces do not reach the left endpoint {lo}")
        for (a1, b1, _), (a2, b2, _) in zip(pieces, pieces[1:]):
            if b1 > a2 + TILING_SLACK:
                raise ValueError("pieces overlap")
            if abs(b1 - a2) > TILING_SLACK:
                raise ValueError(f"gap between pieces at ({b1}, {a2})")
            if not any(abs(b1 - p) <= TILING_SLACK for p in breaks):
                raise ValueError(f"piece break at {b1} is not a declared puncture")
        if not (pieces[-1][1] == hi or abs(pieces[-1][1] - hi) <= TILING_SLACK):
            raise ValueError(f"pieces do not reach the right endpoint {hi}")
        decl_at = [d.at for d in self.declarations]
        if len(set(decl_at)) != len(decl_at):
            raise ValueError("duplicate declarations")
        for p in self.domain.punctures:
            if p not in decl_at:
                raise ValueError(f"puncture {p} lacks a declaration")

    # -- lookup ---------------------------------------------------------

    def declaration(self, p) -> Declaration | None:
        for d in self.declarations:
            if d.at == p:
                return d
        return None

    def fill_value(self, p):
        for q, v in self.fills:
            if q == p:
                return v
        return None

    def piece_at(self, x: float):
        for a, b, t in self.pieces:
            if a < x < b:
                return t
        return None

    def in_pieces(self, xs):
        """Mask of the points of ``xs`` that lie in some open piece: the
        array form of ``piece_at(x) is not None``."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        mask = np.zeros(xs.shape, dtype=bool)
        for a, b, _ in self.pieces:
            mask |= (xs > a) & (xs < b)
        return mask

    # -- evaluation -------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a number, a list of numbers or an ndarray of points;
        fills override, points off every open piece give nan.  A number
        gives a complex and a list a list, both without numpy."""
        if isinstance(x, (int, float)):
            return self._values([float(x)])[0]
        if isinstance(x, (list, tuple)):
            return self._values([float(v) for v in x])
        import numpy as np

        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(xs.shape, np.nan + 0j, dtype=complex)
        for a, b, t in self.pieces:
            mask = (xs > a) & (xs < b)
            if mask.any():
                out[mask] = ex.evaluate(t, xs[mask])
        for p, v in self.fills:
            out[xs == p] = v
        return out if np.ndim(x) else out[0]

    def _values(self, xs: list) -> list:
        out = [_NAN] * len(xs)
        for a, b, t in self.pieces:
            inside = [i for i, x in enumerate(xs) if a < x < b]
            if inside:
                vals = ex.evaluate(t, [xs[i] for i in inside])
                for i, v in zip(inside, vals):
                    out[i] = v
        for p, v in self.fills:
            v = complex(v)
            out = [v if x == p else o for x, o in zip(xs, out)]
        return out


# -- detector ----------------------------------------------------------------


@dataclass
class Detection:
    kind: PointClass | None   # REG_B (finite), REG_INF, SING_SUPP, or None
    limit: complex | None
    sides: int
    peak: float               # the largest modulus sampled on any side
    note: str = ""


def _side_sequences(symbol: PiecewiseSymbol, p: float, cfg: Config):
    """Geometric sample sequences approaching p (or infinity) along each
    available side, innermost sample last: towards +∞ then −∞ they double
    from beyond every finite point, towards a puncture from the left then
    the right the offsets halve."""
    dom = symbol.domain
    if math.isinf(p):
        signs = [sign for end, sign in ((dom.hi, 1.0), (dom.lo, -1.0))
                 if math.isinf(end)]
        if not signs:
            return []
        finite = [e for e in (dom.lo, dom.hi, *dom.punctures) if math.isfinite(e)]
        x0 = max(cfg.inf_start, *(2 * abs(e) for e in finite), 1.0)
        n = min(cfg.approach_steps, int(math.log2(cfg.inf_reach / x0)) + 1)
        return [[sign * x0 * 2.0 ** k for k in range(n)] for sign in signs]
    seqs = []
    for a, b, _ in symbol.pieces:
        for end, sign in ((b, -1.0), (a, 1.0)):
            if abs(end - p) <= TILING_SLACK:
                d0 = min(cfg.approach_start, (b - a) / 4)
                seqs.append([p + sign * d0 * 0.5 ** k
                             for k in range(cfg.approach_steps)])
    return seqs


def _mean(values: list) -> complex:
    """The mean of two or three complex numbers as numpy's ``mean``
    rounds it: each part summed in order from -0.0 and then added to 0.0,
    and the sum divided by the count as a complex (``complexmath.div``)."""
    re = im = -0.0
    for v in values:
        re += v.real
        im += v.imag
    return div(complex(0.0 + re, 0.0 + im), complex(len(values)))


def _tail_limit(tail: list, cfg: Config) -> complex | None:
    """Mean of the last three samples if the tail is Cauchy to within
    ``limit_tol``, else None."""
    if len(tail) < 2:
        raise ValueError(f"an approach needs two samples, got {len(tail)}")
    if all(modulus(b - a) < cfg.limit_tol for a, b in zip(tail, tail[1:])):
        return _mean(tail[-3:])
    return None


def detect_point(symbol: PiecewiseSymbol, p, cfg: Config = DEFAULT) -> Detection:
    """Classify the behaviour of the symbol at a puncture or at infinity.

    Pattern order matters: convergence to a finite limit is tested first
    (oscillation statistics are meaningless around a vanishing mean),
    then monotone divergence of |m|, then bounded oscillation/jumps.
    """
    seqs = _side_sequences(symbol, p, cfg)
    if not seqs:
        raise InconclusiveClassification(f"no side reaches {p}")
    vals = [symbol(s) for s in seqs]
    if any(z != z for v in vals for z in v):     # a nan in either part
        raise InconclusiveClassification(f"evaluation failed approaching {p}")
    k = cfg.tail_samples
    tails = [v[-k:] for v in vals]
    union = [z for t in tails for z in t]
    peak = max(modulus(z) for v in vals for z in v)

    # finite limit on every side, all sides agreeing
    limits = [_tail_limit(t, cfg) for t in tails]
    cauchy = None not in limits
    if cauchy and all(abs(l - limits[0]) < 10 * cfg.limit_tol for l in limits):
        return Detection(PointClass.REG_B, limits[0], len(seqs), peak)

    # divergence of the modulus
    mags = [[modulus(z) for z in t] for t in tails]
    if all(m[-1] > cfg.blowup for m in mags) and all(
        b - a >= -MONOTONE_SLACK * a for m in mags for a, b in zip(m, m[1:])
    ):
        return Detection(PointClass.REG_INF, None, len(seqs), peak)

    # bounded, but oscillating or with disagreeing side limits
    if peak < cfg.blowup:
        centre = sum(union) / len(union)
        mean_sq = sum(m * m for m in map(modulus, union)) / len(union)
        var = sum(m * m for m in (modulus(z - centre) for z in union)) / len(union)
        if var > cfg.osc_rel_var * max(mean_sq, VARIANCE_FLOOR):
            return Detection(PointClass.SING_SUPP, None, len(seqs), peak,
                             note=f"oscillation variance {var:.3e}")
        if cauchy:
            return Detection(PointClass.SING_SUPP, None, len(seqs), peak,
                             note="side limits disagree")
    return Detection(None, None, len(seqs), peak, note="no pattern fired")


@dataclass
class VerifiedClass:
    declared: Declaration
    detected: Detection


def classify_point(symbol: PiecewiseSymbol, p, cfg: Config = DEFAULT) -> VerifiedClass:
    """Verify the declaration at p against the detector; raise on mismatch."""
    decl = symbol.declaration(p)
    if decl is None:
        raise UnverifiedDeclaration(f"no declaration at {p}")
    det = detect_point(symbol, p, cfg)
    if det.kind is None:
        raise InconclusiveClassification(
            f"no detector pattern fired at {p} ({det.note})")
    want_finite = decl.cls.finite_limit
    if want_finite != (det.kind is PointClass.REG_B) or (
        not want_finite and det.kind is not decl.cls
    ):
        raise DeclarationMismatch(
            f"declared {decl.cls.value} at {p}, detected {det.kind.value}")
    if want_finite and decl.limit is not None:
        if abs(det.limit - decl.limit) > 10 * cfg.limit_tol:
            raise DeclarationMismatch(
                f"declared limit {decl.limit} at {p}, detected {det.limit}")
    return VerifiedClass(decl, det)


def verify_symbol(symbol: PiecewiseSymbol, cfg: Config = DEFAULT) -> dict:
    """classify_point at every declared point; {point: VerifiedClass}."""
    return {d.at: classify_point(symbol, d.at, cfg) for d in symbol.declarations}


# -- equivalence-class plumbing ----------------------------------------------


def hat_extension(symbol: PiecewiseSymbol, cfg: Config = DEFAULT) -> PiecewiseSymbol:
    """Absorb finite-limit punctures as exact values; idempotent.

    Divergence and singular-support punctures stay; the result has no
    reg_b points left, which is the canonical representative of the
    symbol's equivalence class.
    """
    verified = verify_symbol(symbol, cfg)
    keep, fills = [], dict(symbol.fills)
    new_punct = []
    for d in symbol.declarations:
        v = verified[d.at]
        if d.cls.finite_limit and math.isfinite(d.at):
            fills[d.at] = v.detected.limit if d.limit is None else d.limit
        else:
            keep.append(d)
            if math.isfinite(d.at):
                new_punct.append(d.at)
    dom = replace(symbol.domain, punctures=tuple(new_punct))
    return PiecewiseSymbol(dom, symbol.pieces, tuple(keep),
                           tuple(sorted(fills.items())))


def _bad_points(symbol: PiecewiseSymbol) -> list:
    """Finite punctures that survive the hat (reg_inf / sing_supp)."""
    return [d.at for d in symbol.declarations
            if not d.cls.finite_limit and math.isfinite(d.at)]


def symbol_equivalent(m1: PiecewiseSymbol, m2: PiecewiseSymbol,
                      cfg: Config = DEFAULT) -> bool:
    """Same operator test: equal puncture structure after the hat
    extension and equal values on a shared sample grid of the common
    continuity set.  Values at surviving punctures are irrelevant."""
    import numpy as np

    if m1.domain.base != m2.domain.base or (m1.domain.lo, m1.domain.hi) != (
        m2.domain.lo, m2.domain.hi
    ):
        return False
    h1, h2 = hat_extension(m1, cfg), hat_extension(m2, cfg)
    p1, p2 = h1.domain.punctures, h2.domain.punctures
    if len(p1) != len(p2) or any(abs(a - b) > PUNCTURE_MATCH
                                 for a, b in zip(p1, p2)):
        return False
    c1 = [d.cls for d in sorted(h1.declarations, key=lambda d: d.at)
          if math.isfinite(d.at)]
    c2 = [d.cls for d in sorted(h2.declarations, key=lambda d: d.at)
          if math.isfinite(d.at)]
    if c1 != c2:
        return False
    # h2 is nan off its pieces and fills, and the nan mask drops those
    grid = sample_grid(h1, cfg)
    v1, v2 = h1(grid), h2(grid)
    good = ~(np.isnan(v1) | np.isnan(v2))
    return bool(np.all(np.abs(v1[good] - v2[good]) <= cfg.value_agreement_tol
                       * np.maximum(1.0, np.abs(v1[good]))))


# -- sampling ----------------------------------------------------------------


def sample_grid(symbol: PiecewiseSymbol, cfg: Config = DEFAULT,
                bulk: int | None = None):
    """Sample points inside the pieces, as an ndarray: Chebyshev-style
    bulk plus dyadic refinement towards every piece endpoint (punctures
    accumulate)."""
    import numpy as np

    bulk = bulk or cfg.grid_points
    pts = []
    finite_lo = symbol.domain.lo if math.isfinite(symbol.domain.lo) else None
    for a, b, _ in symbol.pieces:
        aa = a if math.isfinite(a) else min(-cfg.vanish_window, b - 1)
        bb = b if math.isfinite(b) else max(cfg.vanish_window, a + 1)
        n = max(16, bulk // max(1, len(symbol.pieces)))
        theta = (np.arange(n) + 0.5) * np.pi / n
        pts.append(0.5 * (aa + bb) + 0.5 * (bb - aa) * np.cos(theta))
        width = bb - aa
        dy = width / 4 * 0.5 ** np.arange(cfg.dyadic_depth)
        if math.isfinite(a):
            pts.append(a + dy)
        if math.isfinite(b):
            pts.append(b - dy)
    # np.unique, spelled out: it would import numpy.ma on first use
    out = np.sort(np.concatenate(pts))
    out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out[symbol.in_pieces(out)]


# -- symbol arithmetic ---------------------------------------------------------


def _merge_pieces(m1: PiecewiseSymbol, m2: PiecewiseSymbol, op):
    cuts = sorted({a for a, _, _ in m1.pieces} | {b for _, b, _ in m1.pieces}
                  | {a for a, _, _ in m2.pieces} | {b for _, b, _ in m2.pieces})
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if math.isfinite(a) and math.isfinite(b):
            mid = 0.5 * (a + b)
        elif math.isfinite(a):
            mid = a + 1.0
        elif math.isfinite(b):
            mid = b - 1.0
        else:
            mid = 0.0
        t1, t2 = m1.piece_at(mid), m2.piece_at(mid)
        if t1 is not None and t2 is not None:
            pieces.append((a, b, op(t1, t2)))
    return tuple(pieces)


def combine_symbols(m1: PiecewiseSymbol, m2: PiecewiseSymbol, op
                    ) -> PiecewiseSymbol:
    """Pointwise combination on the common piece structure; punctures are
    the union (filled points included), all marked for re-detection
    (class declarations are not propagated; derived symbols get
    classified fresh)."""
    pts = (set(m1.domain.punctures) | set(m2.domain.punctures)
           | {p for p, _ in m1.fills} | {p for p, _ in m2.fills})
    dom = replace(m1.domain, punctures=tuple(sorted(pts)))
    decls = tuple(Declaration(p, PointClass.SING_SUPP) for p in dom.punctures)
    return PiecewiseSymbol(dom, _merge_pieces(m1, m2, op), decls)


def map_symbol(m: PiecewiseSymbol, f) -> PiecewiseSymbol:
    """f ∘ m for an f that keeps the class of every point (conjugation,
    modulus, negation), given as an AST in one variable: each piece becomes
    ``substitute(f, piece)``, each declared limit and fill f(value), in
    the arithmetic of the pieces."""
    pieces = tuple((a, b, ex.substitute(f, t)) for a, b, t in m.pieces)
    decls = tuple(
        replace(d, limit=None if d.limit is None else ex.evaluate(f, complex(d.limit)))
        for d in m.declarations)
    fills = tuple((p, ex.evaluate(f, complex(v))) for p, v in m.fills)
    return PiecewiseSymbol(m.domain, pieces, decls, fills)


def bounded_map_symbol(m: PiecewiseSymbol, verified: dict, f,
                       at_divergence, cfg: Config = DEFAULT) -> PiecewiseSymbol:
    """f ∘ m for a bounded continuous f with f(w) → ``at_divergence`` as
    |w| → ∞, as its canonical representative.

    f is an AST in one variable, applied to pieces and fills as by
    ``map_symbol``.  A divergence point becomes reg_b at ``at_divergence``
    and a finite limit l (the one detected in ``verified``, the result of
    ``verify_symbol(m)``) becomes reg_b at f(l).  Bounded oscillation
    at infinity leaves f∘m bounded there; it stays sing_supp unless the
    detector finds that f∘m settles (|exp(ix)| does), in which case it
    becomes reg_b at the detected limit.  A finite singular-support point
    raises NotGraphRegular.  The hat extension re-verifies every
    declaration, so an f without the stated limit surfaces as a
    declaration mismatch rather than a silent wrong extension.
    """
    decls = []
    for d in m.declarations:
        if d.cls is PointClass.REG_INF:
            decls.append(Declaration(d.at, PointClass.REG_B, at_divergence))
        elif d.cls.finite_limit:
            lim = verified[d.at].detected.limit
            decls.append(Declaration(d.at, PointClass.REG_B, ex.evaluate(f, lim)))
        elif math.isinf(d.at):
            decls.append(Declaration(d.at, PointClass.SING_SUPP))
        else:
            raise NotGraphRegular("symbol has singular-support points")
    mapped = replace(map_symbol(m, f), declarations=tuple(decls))
    return hat_extension(redetect_sing_supp(mapped, cfg), cfg)


def redetect_sing_supp(m: PiecewiseSymbol, cfg: Config = DEFAULT) -> PiecewiseSymbol:
    """m with each sing_supp point detected anew: declared reg_b at the
    detected limit where m settles, and kept sing_supp otherwise.  A map
    applied to an oscillating symbol can settle it: |exp(i/x)| = 1."""
    decls = []
    for d in m.declarations:
        if d.cls is PointClass.SING_SUPP:
            det = detect_point(m, d.at, cfg)
            if det.kind is PointClass.REG_B:
                d = Declaration(d.at, PointClass.REG_B, det.limit)
        decls.append(d)
    return replace(m, declarations=tuple(decls))


def conjugate_symbol(m: PiecewiseSymbol) -> PiecewiseSymbol:
    return map_symbol(m, ex.conj(ex.VAR))


# -- regularity report ----------------------------------------------------------

# the transform symbols a = 1/(1+|m|²) and b = m/(1+|m|²) as maps of m
A_MAP = ex.div(ex.ONE, ex.add(ex.ONE, ex.abs2(ex.VAR)))
B_MAP = ex.div(ex.VAR, ex.add(ex.ONE, ex.abs2(ex.VAR)))


@dataclass
class RegularityReport:
    symbol: PiecewiseSymbol
    point_classes: dict
    reg_dense: bool
    essentially_defined: bool
    orthogonally_closed: bool
    graph_regular: bool
    regular: bool
    a_symbol: PiecewiseSymbol | None = None
    b_symbol: PiecewiseSymbol | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "point_classes": {
                ("inf" if math.isinf(p) else p): vc.declared.cls.value
                for p, vc in self.point_classes.items()
            },
            "reg_dense": self.reg_dense,
            "essentially_defined": self.essentially_defined,
            "orthogonally_closed": self.orthogonally_closed,
            "graph_regular": self.graph_regular,
            "regular": self.regular,
            "notes": list(self.notes),
        }


def regularity_report(m: PiecewiseSymbol, cfg: Config = DEFAULT) -> RegularityReport:
    """Full verdict chain for the multiplication operator of m."""
    verified = verify_symbol(m, cfg)
    finite_classes = {p: vc for p, vc in verified.items() if math.isfinite(p)}
    has_sing = any(vc.declared.cls is PointClass.SING_SUPP
                   for vc in finite_classes.values())
    has_inf = any(vc.declared.cls is PointClass.REG_INF
                  for vc in finite_classes.values())
    notes = ["continuity set is dense: finitely many punctures on a 1-D base"]
    graph_regular = not has_sing
    regular = graph_regular and not has_inf
    if has_inf and graph_regular:
        notes.append("a-symbol vanishes at a divergence point, so the domain "
                     "is essential but not dense: graph regular only")
    report = RegularityReport(
        symbol=m,
        point_classes=verified,
        reg_dense=True,
        essentially_defined=True,
        orthogonally_closed=True,
        graph_regular=graph_regular,
        regular=regular,
        notes=notes,
    )
    if graph_regular:
        # a and b are both 0 at divergence points
        report.a_symbol = bounded_map_symbol(m, verified, A_MAP, 0.0, cfg)
        report.b_symbol = bounded_map_symbol(m, verified, B_MAP, 0.0, cfg)
    return report


# -- membership questions ---------------------------------------------------------


def _vanishes_at_infinity(sym: PiecewiseSymbol, cfg: Config) -> bool:
    """The C0 test at infinity: |sym| <= ``vanish_tol`` at every sample of
    each approach with |x| >= ``vanish_window``, or at its last three
    samples when none reaches the window.  A compact base passes."""
    if sym.domain.compact:
        return True
    ok = True
    for seq in _side_sequences(sym, INF, cfg):
        tail = [x for x in seq if abs(x) >= cfg.vanish_window] or seq[-3:]
        ok = ok and all(modulus(v) <= cfg.vanish_tol for v in sym(tail))
    return ok


def _finite_limit_at(sym: PiecewiseSymbol, p, cfg: Config) -> complex | None:
    """Continuous value of sym at p: a fill, an interior evaluation, or a
    detected finite limit; None when no finite extension exists."""
    val = sym.fill_value(p)
    if val is not None:
        return complex(val)
    t = sym.piece_at(p)
    if t is not None:
        return complex(ex.evaluate(t, p))
    det = detect_point(sym, p, cfg)
    return det.limit if det.kind is PointClass.REG_B else None


def domain_membership(m: PiecewiseSymbol, f: PiecewiseSymbol,
                      cfg: Config = DEFAULT) -> bool:
    """Is f in the domain of the multiplication operator of m?

    Requires f continuous after the hat (a genuine module element);
    membership needs f to vanish at every surviving puncture of m, the
    product m·f to extend continuously across each of them, and (on a
    non-compact base) the product to vanish at infinity.
    """
    fh = hat_extension(f, cfg)
    if _bad_points(fh):
        raise ValueError("f must be a continuous symbol (no surviving punctures)")
    if not _vanishes_at_infinity(fh, cfg):
        raise ValueError("f must vanish at infinity to lie in C0")
    mh = hat_extension(m, cfg)
    prod = combine_symbols(mh, fh, ex.mul)
    for p in _bad_points(mh):
        fval = _finite_limit_at(fh, p, cfg)
        if fval is None or abs(fval) > cfg.zero_tol:
            return False
        if _finite_limit_at(prod, p, cfg) is None:
            return False
    return _vanishes_at_infinity(prod, cfg)


def range_membership_one_plus_tt(m: PiecewiseSymbol, g: PiecewiseSymbol,
                                 cfg: Config = DEFAULT) -> bool:
    """g lies in Range(1 + t*t) iff it vanishes at every singular-support
    point of m."""
    verified = verify_symbol(m, cfg)
    for p, vc in verified.items():
        if vc.declared.cls is PointClass.SING_SUPP and math.isfinite(p):
            val = _finite_limit_at(g, p, cfg)
            if val is None or abs(val) > cfg.zero_tol:
                return False
    return True


# -- serialization ------------------------------------------------------------------


def symbol_to_dict(sym: PiecewiseSymbol) -> dict:
    """The JSON shape ``symbol_from_dict`` reads, and nothing it refuses."""
    if any(ex.depth(t) > ex.MAX_DEPTH for _, _, t in sym.pieces):
        raise ValueError(f"cannot write a symbol with a piece nested past the "
                         f"reader's MAX_DEPTH = {ex.MAX_DEPTH} levels")
    dom = {
        "base": sym.domain.base,
        "lo": None if math.isinf(sym.domain.lo) else sym.domain.lo,
        "hi": None if math.isinf(sym.domain.hi) else sym.domain.hi,
        "punctures": list(sym.domain.punctures),
        "infinity": sym.domain.includes_infinity,
    }
    pieces = [
        {"lo": None if math.isinf(a) else a,
         "hi": None if math.isinf(b) else b,
         "expr": ex.to_string(t)}
        for a, b, t in sym.pieces
    ]
    decls = []
    for d in sym.declarations:
        entry = {"at": "inf" if math.isinf(d.at) else d.at, "class": d.cls.value}
        if d.limit is not None:
            entry["limit"] = [complex(d.limit).real, complex(d.limit).imag]
        decls.append(entry)
    return {"domain": dom, "pieces": pieces, "declarations": decls}


_REQUIRED = object()
_NUMBER = (int, float)


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float: not a bool, nor the
    NaN and Infinity that Python's json reads."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        return False
    return (math.isfinite(value) if isinstance(value, float)
            else abs(value) <= sys.float_info.max)


def _key(obj: dict, key: str, kinds: tuple, where: str, default=_REQUIRED):
    """obj[key] if it has one of the JSON types ``kinds``; a missing or
    mistyped key is a ValueError that names it (a bool is not a number)."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise ValueError(f"{where}: key {key!r} must be {names}, "
                         f"not {type(value).__name__}")
    return value


def _entries(obj: dict, key: str, where: str, default=_REQUIRED):
    """The JSON objects in the list obj[key], each with its location."""
    items = _key(obj, key, (list,), where, default)
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"{where}.{key}[{i}] must be a JSON object, "
                             f"not {type(item).__name__}")
    return [(item, f"{where}.{key}[{i}]") for i, item in enumerate(items)]


def _bound(obj: dict, key: str, where: str, infinite: float) -> float:
    value = _key(obj, key, (*_NUMBER, type(None)), where, None)
    if value is None:
        return infinite
    if not _is_number(value):
        raise ValueError(f"{where}: key {key!r} is out of range")
    return float(value)


def symbol_from_dict(data: dict) -> PiecewiseSymbol:
    """Inverse of ``symbol_to_dict``.  Anything but the documented JSON
    shape is a ValueError naming the offending key."""
    if not isinstance(data, dict):
        raise ValueError(f"a symbol must be a JSON object, not {type(data).__name__}")
    dom = _key(data, "domain", (dict,), "symbol")
    punctures = _key(dom, "punctures", (list,), "symbol.domain", [])
    for i, point in enumerate(punctures):
        if not _is_number(point):
            raise ValueError(f"symbol.domain.punctures[{i}] must be a number")
    spec = DomainSpec(_key(dom, "base", (str,), "symbol.domain"),
                      _bound(dom, "lo", "symbol.domain", -INF),
                      _bound(dom, "hi", "symbol.domain", INF),
                      tuple(punctures))
    pieces = tuple(
        (_bound(piece, "lo", where, -INF), _bound(piece, "hi", where, INF),
         ex.parse_expression(_key(piece, "expr", (str,), where)))
        for piece, where in _entries(data, "pieces", "symbol"))
    decls = []
    for d, where in _entries(data, "declarations", "symbol", []):
        at = _key(d, "at", (*_NUMBER, str), where)
        if at != "inf" and not _is_number(at):
            raise ValueError(f"{where}: key 'at' must be a number or \"inf\"")
        lim = _key(d, "limit", (list, type(None)), where, None)
        if lim is not None and (len(lim) != 2 or not all(map(_is_number, lim))):
            raise ValueError(f"{where}: key 'limit' must be [re, im], "
                             f"two finite numbers")
        decls.append(Declaration(INF if at == "inf" else float(at),
                                 PointClass(_key(d, "class", (str,), where)),
                                 None if lim is None else complex(lim[0], lim[1])))
    return PiecewiseSymbol(spec, pieces, tuple(decls))
