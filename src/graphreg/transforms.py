"""The (a, a_*, b)-transform, bounded transform, absolute value, polar
decomposition and functional calculus on the matrix backend.

Operators here are dense complex matrices acting by left multiplication
on the module E = M_n(ℂ); the adjoint is the conjugate transpose.  The
transform of t is

    a   = (1 + t*t)^(-1),   a_* = (1 + tt*)^(-1),   b = t·a,

a bijection onto triples of adjointable elements satisfying

    b*b = a - a²,   bb* = a_* - a_*²,   ab* = b*a_*,

with a, a_* self-adjoint, 0 ≤ a, a_* ≤ 1 and trivial kernels.  The
inverse transform realizes t as the quotient t(ax) = bx.

A matrix with an inf or NaN entry is refused with NonFiniteValue where
it enters: ``aab_forward``, ``bounded_transform``, ``from_bounded``,
``polar_decompose`` and ``ab_axioms_check``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT, Config
from .errors import (
    AxiomsFailed,
    KernelNotTrivial,
    NonCommutingPair,
    NonFiniteValue,
    NotGraphRegular,
    NotNormal,
)

if TYPE_CHECKING:
    from .symbols import PiecewiseSymbol


def _adj(m):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _herm(m):
    return 0.5 * (m + _adj(m))


def _spectral_apply(h, f, floor=None) -> np.ndarray:
    """f(h) = V f(w) V* for h = V diag(w) V*, the eigendecomposition of
    the Hermitian part of h.  A stack (..., n, n) gives the stack of the
    f(h), each from its own eigendecomposition.

    ``floor(w)`` checks the spectrum first and raises when it is out of
    range; f then sees w clipped at 0.
    """
    w, v = np.linalg.eigh(_herm(h))
    if floor is not None:
        floor(w)
    fw = f(np.maximum(w, 0.0))
    return (v * fw[..., None, :]) @ _adj(v)


# the rounding below 0 that hermitian_sqrt forgives, relative to max(1, ‖h‖)
PSD_CLAMP = 1e-12


def hermitian_sqrt(h: np.ndarray) -> np.ndarray:
    """Positive square root via eigendecomposition.

    Eigenvalues in [-PSD_CLAMP·max(1, ‖h‖), 0) are set to 0; anything
    more negative means the input was not PSD and raises.
    """
    def psd(w):
        if w.min() < -PSD_CLAMP * max(1.0, abs(w).max()):
            raise AxiomsFailed(f"matrix not PSD: min eigenvalue {w.min():.3e}")
    return _spectral_apply(h, np.sqrt, psd)


def opnorm(m: np.ndarray):
    """Spectral norm ‖m‖₂, the largest singular value, from LAPACK.

    This is the routine ``np.linalg.norm(m, 2)`` runs inside its wrapper,
    called directly, so the value is the same bit for bit.  A matrix
    gives a float, a stack (..., m, n) the array of its norms; an empty
    matrix has norm 0.
    """
    m = np.asarray(m)
    if m.size:
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    else:
        norms = np.zeros(m.shape[:-2])
    return float(norms) if m.ndim == 2 else norms


def numerical_rank(s: np.ndarray, tol: float) -> int:
    """The package's one rank cut: how many of the singular values ``s``
    exceed tol·max(1, σ₁), with σ₁ = s[0] the largest."""
    return int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))


def hermitian_spectrum(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (or stack), from
    ``eigvalsh`` of h as given: LAPACK reads one triangle, so no
    symmetrised copy of h is formed."""
    return np.linalg.eigvalsh(h)


def _require_finite(where: str, *ms) -> None:
    if not all(np.isfinite(m).all() for m in ms):
        raise NonFiniteValue(f"{where}: input has a non-finite entry")


def random_operator(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix; on M_n every such operator is regular."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# -- triples -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AabTriple:
    """A transform triple (a, a_*, b) as a value.

    The matrices are read-only copies of the ones given, so nothing can
    change them after construction, and ``ab_axioms_check`` keeps the
    report it computes for each ``Config`` on the triple.
    """

    a: np.ndarray
    a_star: np.ndarray
    b: np.ndarray
    _reports: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("a", "a_star", "b"):
            m = np.array(getattr(self, name))
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def is_normal(self, cfg: Config = DEFAULT) -> bool:
        """a = a_* to ``cfg.residual_tol``, relative to max(1, ‖a‖)."""
        skew, norm_a = opnorm(np.stack([self.a - self.a_star, self.a]))
        return bool(skew <= cfg.residual_tol * max(1.0, norm_a))


@dataclass
class QuotientPair:
    """Operator given by t(a x) = b x; domain is Range(a)."""

    a: np.ndarray
    b: np.ndarray

    def kernel_inclusion_residual(self, cfg: Config = DEFAULT) -> float:
        """How far ker(a), cut at ``cfg.subspace_tol``, escapes ker(b);
        must be ~0 for well-definedness."""
        _, s, vh = np.linalg.svd(self.a)
        null = vh[numerical_rank(s, cfg.subspace_tol):].conj().T
        return opnorm(self.b @ null)  # 0.0 when the kernel is empty

    def reconstruct(self, cfg: Config = DEFAULT) -> np.ndarray:
        """t = b a⁻¹; KernelNotTrivial unless every eigenvalue of a
        exceeds ``cfg.kernel_tol``."""
        def floor(w):
            if w.min() <= cfg.kernel_tol:
                raise KernelNotTrivial("a has a nontrivial kernel")
        return self.b @ _spectral_apply(self.a, np.reciprocal, floor)


@dataclass(frozen=True)
class AxiomReport:
    """Residuals and verdict of one triple under one ``Config``; shared by
    every caller that checks that triple, so it is read-only."""

    residual_bb: float
    residual_bbstar: float
    residual_intertwine: float
    a_spectrum_ok: bool
    a_star_spectrum_ok: bool
    kernel_a: float
    kernel_a_star: float
    norm_b: float
    commutation_residuals: Mapping[str, float]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def aab_forward(t: np.ndarray) -> AabTriple:
    """(a, a_*, b) of a matrix operator; exact inverses of 1 + t*t and
    1 + tt* from one stacked solve."""
    t = np.asarray(t, dtype=complex)
    _require_finite("aab_forward", t)
    th = _adj(t)
    eye = np.eye(t.shape[0])
    # the right-hand side has the stack's ndim, so numpy 1.x reads it as a
    # matrix (a b of ndim a.ndim - 1 would there be a stack of vectors)
    a, a_star = _herm(np.linalg.solve(np.stack([eye + th @ t, eye + t @ th]),
                                      eye[None]))
    return AabTriple(a, a_star, t @ a)


# f(a_*) b = b f(a) is checked for each of these f, to 10·residual_tol and
# never tighter than COMMUTATION_FLOOR
COMMUTATION_FLOOR = 1e-9
_COMMUTATION_FAMILY = (("sqrt", np.sqrt), ("square", np.square),
                      ("cube", lambda x: x ** 3))


def _commutation_values(w: np.ndarray) -> np.ndarray:
    return np.stack([f(w) for _, f in _COMMUTATION_FAMILY])


def ab_axioms_check(triple: AabTriple, cfg: Config = DEFAULT) -> AxiomReport:
    """Residuals of the defining identities plus positivity/kernel flags
    and the commutation family f(a_*) b = b f(a) for f in {√, ², ³}.

    The report is computed the first time it is asked for with ``cfg``
    and kept on the triple; later calls return that report.  The
    triple's matrices are read-only, so it cannot go stale.
    """
    report = triple._reports.get(cfg)
    if report is None:
        report = triple._reports[cfg] = _axiom_report(triple, cfg)
    return report


def _axiom_report(triple: AabTriple, cfg: Config) -> AxiomReport:
    """The report ``ab_axioms_check`` keeps, computed from the matrices.

    One eigendecomposition each of a = V_a diag(w_a) V_a* and a_* gives
    the [0, 1] spectrum flags and the kernel minima, read as w[0] and
    w[-1] of the sorted spectra.  The commutators are formed in the eigenbases,
    V_s f(w_s)(V_s* b) − (b V_a) f(w_a) V_a*, so no f(a) or f(a_*) is
    built.  The nine matrices whose 2-norms are read (b*b − (a − a²),
    bb* − (a_* − a_*²), ab* − b*a_*, a − a*, a_* − a_*^*, the three
    commutators and b) form one (9, n, n) stack and go through one
    stacked ``opnorm``, so each norm is the exact largest singular value.
    """
    a, a_star, b = triple.a, triple.a_star, triple.b
    _require_finite("ab_axioms_check", a, a_star, b)
    bh = _adj(b)
    wa, va = np.linalg.eigh(_herm(a))
    ws, vs = np.linalg.eigh(_herm(a_star))
    fa = _commutation_values(np.maximum(wa, 0.0))[:, None, :]
    fs = _commutation_values(np.maximum(ws, 0.0))[:, None, :]
    commutators = (vs * fs) @ (_adj(vs) @ b) - ((b @ va) * fa) @ _adj(va)
    stack = np.stack([bh @ b - (a - a @ a),
                      b @ bh - (a_star - a_star @ a_star),
                      a @ bh - bh @ a_star,
                      a - _adj(a),
                      a_star - _adj(a_star),
                      *commutators,
                      b])
    norms = [float(x) for x in opnorm(stack)]
    r_bb, r_bbs, r_int, skew_a, skew_s = norms[:5]
    comm = {name: v for (name, _), v in zip(_COMMUTATION_FAMILY, norms[5:8])}
    norm_b = norms[8]
    wa_min, ws_min = float(wa[0]), float(ws[0])
    tol = cfg.residual_tol
    a_ok = bool(wa_min > -tol and wa[-1] < 1 + tol and skew_a < tol)
    s_ok = bool(ws_min > -tol and ws[-1] < 1 + tol and skew_s < tol)
    failures = []
    if r_bb > tol:
        failures.append("b*b != a - a^2")
    if r_bbs > tol:
        failures.append("bb* != a_* - a_*^2")
    if r_int > tol:
        failures.append("ab* != b*a_*")
    if not a_ok:
        failures.append("a outside [0,1] or not self-adjoint")
    if not s_ok:
        failures.append("a_* outside [0,1] or not self-adjoint")
    if wa_min <= cfg.kernel_tol:
        failures.append("ker(a) nontrivial")
    if ws_min <= cfg.kernel_tol:
        failures.append("ker(a_*) nontrivial")
    if norm_b > 1 + tol:
        failures.append("||b|| > 1")
    if any(v > max(10 * tol, COMMUTATION_FLOOR) for v in comm.values()):
        failures.append("f(a_*) b != b f(a)")
    return AxiomReport(r_bb, r_bbs, r_int, a_ok, s_ok, wa_min, ws_min,
                       norm_b, MappingProxyType(comm), tuple(failures))


def _require_axioms(triple: AabTriple, cfg: Config) -> None:
    """AxiomsFailed, naming each failure, unless the triple passes."""
    report = ab_axioms_check(triple, cfg)
    if not report.ok:
        raise AxiomsFailed("; ".join(report.failures))


def aab_inverse(triple: AabTriple, cfg: Config = DEFAULT) -> QuotientPair:
    """Quotient-pair realization t(a x) = b x of a valid triple."""
    _require_axioms(triple, cfg)
    return QuotientPair(triple.a, triple.b)


def graph_projection(triple: AabTriple, cfg: Config = DEFAULT) -> np.ndarray:
    """Block projection (a b*; b 1-a_*) onto the graph of t."""
    _require_axioms(triple, cfg)
    n = triple.n
    p = np.zeros((2 * n, 2 * n), dtype=complex)
    p[:n, :n] = triple.a
    p[:n, n:] = triple.b.conj().T
    p[n:, :n] = triple.b
    p[n:, n:] = np.eye(n) - triple.a_star
    return p


# -- bounded transform --------------------------------------------------------


@dataclass
class BoundedTransform:
    z: np.ndarray
    in_z: bool     # ker(1 - z*z) = {0}

    @property
    def in_zd(self) -> bool:
        """Range(1 - z*z) dense; in finite dimensions the same as in_z."""
        return self.in_z

    @property
    def norm(self) -> float:
        return opnorm(self.z)


def bounded_transform(t: np.ndarray, cfg: Config = DEFAULT) -> BoundedTransform:
    """z = t (1 + t*t)^(-1/2); on the matrix backend E_0 = E.

    From one SVD t = UΣV*, z = U·diag(σ/√(1 + σ²))·V*.  The same SVD
    gives 1 − z*z = V·diag(1/(1 + σ²))·V*, whose least eigenvalue is
    1/(1 + σ₁²); ``in_z`` is that value above ``kernel_tol``.
    """
    t = np.asarray(t, dtype=complex)
    _require_finite("bounded_transform", t)
    u, s, vh = np.linalg.svd(t)
    z = (u * (s / np.sqrt(1.0 + s * s))) @ vh
    in_z = bool(1.0 / (1.0 + s[0] ** 2) > cfg.kernel_tol)
    return BoundedTransform(z, in_z)


def from_bounded(z: np.ndarray, cfg: Config = DEFAULT) -> np.ndarray:
    """t_z = z (1 - z*z)^(-1/2) = U·diag(σ/√((1 − σ)(1 + σ)))·V* from one
    SVD z = UΣV*; KernelNotTrivial unless the least eigenvalue
    (1 − σ₁)(1 + σ₁) of 1 − z*z exceeds ``kernel_tol``."""
    z = np.asarray(z, dtype=complex)
    _require_finite("from_bounded", z)
    u, s, vh = np.linalg.svd(z)
    gap = (1.0 - s) * (1.0 + s)
    if gap[0] <= cfg.kernel_tol:
        raise KernelNotTrivial(f"1 - z*z has least eigenvalue {gap[0]:.3e}")
    return (u * (s / np.sqrt(gap))) @ vh


def absolute_value(triple: AabTriple, cfg: Config = DEFAULT) -> AabTriple:
    """Triple of |t|: (a, a, |b|) with |b| = (b*b)^(1/2)."""
    _require_axioms(triple, cfg)
    absb = hermitian_sqrt(triple.b.conj().T @ triple.b)
    return AabTriple(triple.a, triple.a, absb)


def polar_decompose(t: np.ndarray, cfg: Config = DEFAULT):
    """t = v|t| with a partial isometry v; null directions of t are zeroed."""
    t = np.asarray(t, dtype=complex)
    _require_finite("polar_decompose", t)
    u, s, vh = np.linalg.svd(t)
    r = numerical_rank(s, cfg.subspace_tol)
    v = u[:, :r] @ vh[:r]
    absval = (vh.conj().T[:, :r] * s[:r]) @ vh[:r]
    return v, absval


# -- functional calculus -------------------------------------------------------


# the off-diagonal part, relative to max(1, ‖a‖, ‖b‖), above which
# joint_diagonalize refuses a pair as not commuting
JOINT_DIAGONAL_GATE = 1e-8


def joint_diagonalize(a: np.ndarray, b: np.ndarray, rng: np.random.Generator):
    """Common eigenbasis of a commuting normal pair, a Hermitian.

    Re b and Im b then commute with each other and with a, so one ``eigh``
    of a + (κ₁ + 1)·Re b + κ₂·Im b = a + Re(κ̄b), κ = κ₁ + 1 + iκ₂ random
    (distinct eigenvalues with probability one), gives an orthonormal
    common eigenbasis q; both conjugations are validated.
    """
    kappa = complex(*rng.standard_normal(2)) + 1.0
    _, q = np.linalg.eigh(_herm(a + kappa.conjugate() * b))
    da = q.conj().T @ a @ q
    db = q.conj().T @ b @ q
    # the four 2-norms from one stacked SVD
    stack = np.stack([da - np.diag(np.diag(da)), db - np.diag(np.diag(db)), a, b])
    off_a, off_b, norm_a, norm_b = opnorm(stack)
    off = float(max(off_a, off_b))
    if off > JOINT_DIAGONAL_GATE * max(1.0, norm_a, norm_b):
        raise NonCommutingPair(f"joint diagonalization residual {off:.3e}")
    return q, np.diag(da), np.diag(db)


# -- symbol backend ------------------------------------------------------------

# Multiplication operators are normal, so their triples have a = a_*; the
# transform elements are symbols again and every operation is pointwise.
# Each function imports the symbol and expression layers itself, so that
# the matrix backend loads without them.


@dataclass
class SymbolTriple:
    a: PiecewiseSymbol
    a_star: PiecewiseSymbol
    b: PiecewiseSymbol
    symbol: PiecewiseSymbol   # the hat-extended m itself


def aab_forward_symbol(m, cfg: Config = DEFAULT) -> SymbolTriple:
    from .symbols import hat_extension, regularity_report

    rep = regularity_report(m, cfg)
    if not rep.graph_regular:
        raise NotGraphRegular("symbol has singular-support points")
    return SymbolTriple(rep.a_symbol, rep.a_symbol, rep.b_symbol,
                        hat_extension(m, cfg))


def aab_inverse_symbol(triple: SymbolTriple) -> PiecewiseSymbol:
    """Recover the symbol as the pointwise quotient b/a on the
    continuity set (the quotient-pair realization t(a·f) = b·f)."""
    from . import expressions as ex
    from .symbols import combine_symbols

    return combine_symbols(triple.b, triple.a, ex.div)


def absolute_value_symbol(m, cfg: Config = DEFAULT) -> PiecewiseSymbol:
    """|t_m| = t_{|m|}: same punctures, modulus taken pointwise.  The
    modulus can settle where m oscillates (|e^{i/x}| = 1), so each
    sing_supp point is detected anew on |m| (``redetect_sing_supp``)."""
    from . import expressions as ex
    from .symbols import map_symbol, redetect_sing_supp

    return redetect_sing_supp(map_symbol(m, ex.call("abs", ex.VAR)), cfg)


@dataclass
class SymbolBoundedTransform:
    z: PiecewiseSymbol
    extendable_at: dict       # puncture -> has a continuous extension there
    adjointable: bool         # extends to a bounded continuous function

    @property
    def in_zd_on_core(self) -> bool:
        # on the closure of Def(t*t) the transform is always in Z^d
        return True


def bounded_transform_symbol(m, cfg: Config = DEFAULT) -> SymbolBoundedTransform:
    """z = m/(1+|m|²)^(1/2) on the continuity set, evaluated as
    m/(√(1+i|m|)·√(1−i|m|)): the two roots are conjugate, so their product
    is √(1+|m|²), and no intermediate overflows where |m|² would.

    Even for graph regular m the transform need not extend continuously
    across a divergence point (the modulus tends to 1 but the phase can
    jump), in which case no adjointable element represents t and z lives
    on the core module only; the flags record this per puncture.  z is
    built on the hat extension of m; each surviving puncture is detected
    once on z (``redetect_sing_supp``) and declared reg_b at the detected
    limit where z extends, sing_supp elsewhere, so z passes its own hat
    extension.
    """
    from . import expressions as ex
    from .symbols import (Declaration, PointClass, hat_extension, map_symbol,
                          redetect_sing_supp)

    mh = hat_extension(m, cfg)
    if any(d.cls is PointClass.SING_SUPP and math.isfinite(d.at)
           for d in mh.declarations):
        raise NotGraphRegular("symbol has singular-support points")
    redetect = tuple(Declaration(p, PointClass.SING_SUPP)
                     for p in mh.domain.punctures)
    i_mod = ex.mul(ex.I, ex.call("abs", ex.VAR))
    z = redetect_sing_supp(map_symbol(replace(mh, declarations=redetect), ex.div(
        ex.VAR, ex.mul(ex.call("sqrt", ex.add(ex.ONE, i_mod)),
                       ex.call("sqrt", ex.sub(ex.ONE, i_mod))))), cfg)
    # a point absorbed by the hat is a fill: z is continuous there
    filled = {p for p, _ in mh.fills}
    extendable = {p: p in filled or z.declaration(p).cls is PointClass.REG_B
                  for p in sorted(filled | set(mh.domain.punctures))}
    return SymbolBoundedTransform(z, extendable, all(extendable.values()))


def functional_calculus_symbol(m, f_ast, beta: complex = 0.0,
                               cfg: Config = DEFAULT) -> PiecewiseSymbol:
    """(f + β) ∘ m pointwise, with the value β at divergence points.

    The declarations are re-verified by the detector, so an f that fails
    to vanish at infinity surfaces as a declaration mismatch rather than
    a silent wrong extension.
    """
    from . import expressions as ex
    from .symbols import bounded_map_symbol, verify_symbol

    beta = complex(beta)
    return bounded_map_symbol(m, verify_symbol(m, cfg),
                              ex.add(f_ast, ex.num(beta)), beta, cfg)


def functional_calculus(triple: AabTriple, f_ast, beta: complex = 0.0,
                        rng: np.random.Generator | None = None,
                        cfg: Config = DEFAULT) -> np.ndarray:
    """Evaluate (f + β)(t) for a normal triple.

    On the joint eigenbasis of (a, b) the operator t has eigenvalues
    λ_b/λ_a; f is applied there, with the value β wherever λ_a degenerates
    to 0 (the compactification point of the joint-spectrum curve).  f is
    evaluated once over the array of these ratios; a value that is not
    finite raises NonFiniteValue.
    """
    from .expressions import evaluate

    if not triple.is_normal(cfg):
        raise NotNormal("functional calculus requires a = a_*")
    if rng is None:
        rng = np.random.default_rng(0)
    q, la, lb = joint_diagonalize(triple.a, triple.b, rng)
    live = la.real > cfg.kernel_tol
    vals = np.full(len(la), complex(beta))
    vals[live] = evaluate(f_ast, lb[live] / la[live]) + beta
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("functional calculus: f is not finite at an eigenvalue")
    return (q * vals) @ q.conj().T
