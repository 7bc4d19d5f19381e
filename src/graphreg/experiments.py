"""Resolvent affiliation checks, the density-defect counterexample, and
the Weyl fraction-algebra demo.

The counterexample lives on a truncated copy of l²(ℕ²): with s the shift
in the first index and r a strictly positive diagonal with vanishing
tail, the block operator x = (s r; 0 s*) multiplies the algebra densely
from the left while x* does not: the corner projection P₀ (onto the
k = 0 row) satisfies P₀·s = 0, so the P₀-rows of x*·y are throttled by
the decaying diagonal.  At truncation K this shows up as two trends of a
constrained least-squares residual: decreasing for x, floored for x*.
Neither s nor r moves the second index j, so x is the direct sum over j
of K blocks x_j = (S, diag(λ_{·j}); 0, Sᵀ) of size 2K, S the K x K
shift, and every target column lives in a single block.  The K blocks
go through one stacked SVD and their K least-squares problems are
solved together; the dense 2K² x 2K² matrix is never needed.  K is
limited to [8, 64].

The Weyl demo samples the resolvents x = (Q - αi)^{-1} (diagonal) and
y = (P - βi)^{-1} (exponential quadrature kernel, β < 0) on a uniform
grid and measures the fraction-algebra relations and the window-state
limits that identify the characters of the algebra.  The grid keeps
the diagonal d of x and the real kernel k = i·y.  Every product with x
is a row or column scaling, the x-only relations are exact on the
diagonal, and the window averages are matrix-vector products with k.
The phases of d drop out of every 2-norm, so each residual of y is the
spectral norm of a real matrix sandwiched by |D| = diag(|d|), and the
commutator comes from x[y, Q]x since x⁻¹ = Q - αi.  On the grid
T∘k - k@k = -dt·k, so the residual M of xy - yx is -dt·x y x and that
of xy* - y*x is -Mᵀ.  k is dt times a Toeplitz matrix whose inverse is
bidiagonal, so ‖M‖ and each σ(yx) are read off a bidiagonal inverse by
bisection, and a grid costs one ``eigvalsh``, of the damped y-relation
(see ``weyl_relations_check``).  The raw y-relation, which the report
may not read, is decomposed when first read.  The grid has between 256
and 4096 points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebras import BlockAlgebra
from .config import DEFAULT, Config
from .errors import BadParameters, EpsilonBelowGrid, LambdaInSpectrum
from .transforms import (
    _require_finite,
    bidiagonal_singular_value,
    hermitian_opnorm,
    numerical_rank,
    opnorm,
)


# -- resolvent affiliation ------------------------------------------------------


@dataclass
class ResolventReport:
    affiliated: bool
    multiplier_ok: bool
    density_rank: int
    density_rank_star: int
    full_rank: int
    resolvent_residual: float
    failed: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "affiliated": self.affiliated,
            "multiplier_ok": self.multiplier_ok,
            "density_rank": self.density_rank,
            "density_rank_star": self.density_rank_star,
            "full_rank": self.full_rank,
            "failed": self.failed,
        }


def resolvent_affiliation_check(t: np.ndarray, lam: complex,
                                algebra: BlockAlgebra,
                                mult_pattern: BlockAlgebra | None = None,
                                cfg: Config = DEFAULT) -> ResolventReport:
    """Affiliation via the resolvent: (t-λ)^{-1} must be a multiplier and
    must multiply the algebra densely from both sides.

    λ is in the spectrum when t - λ has ``numerical_rank`` below n at
    ``cfg.kernel_tol``, the smallest singular value the package admits
    for an operator it inverts.

    ``mult_pattern`` is the mask of M(A) when it differs from A's own
    mask (unital full-block algebras have M(A) = A).  The pattern and
    multiplier checks allow entries up to ``cfg.subspace_tol`` off the
    mask, and the density ranks are ``numerical_rank`` at that tolerance.
    A t or λ with an inf or NaN entry is refused with NonFiniteValue.
    Each n x n array is formed once, and t - λ is let go once read.
    """
    _require_finite("resolvent_affiliation_check", t, lam)
    shifted = np.array(t, dtype=complex)
    n = shifted.shape[0]
    shifted.flat[:: n + 1] -= lam
    sv = np.linalg.svd(shifted, compute_uv=False)
    if numerical_rank(sv, cfg.kernel_tol) < n:
        raise LambdaInSpectrum(f"min singular value {sv[-1]:.2e} at λ={lam}")
    res = np.linalg.inv(shifted)
    defect = res @ shifted
    defect.flat[:: n + 1] -= 1.0
    direct = opnorm(defect)
    del shifted, defect
    res_h = res.conj().T
    pattern = mult_pattern if mult_pattern is not None else algebra
    tol = cfg.subspace_tol
    mult_ok = bool(pattern.contains(res, tol) and pattern.contains(res_h, tol)
                   and algebra.is_multiplier(res, tol) and
                   algebra.is_multiplier(res_h, tol))
    # density of R·A and R*·A: on each column of a c-block R acts as
    # R[rows of the block of c, c]; the class with the largest σ₁ goes first
    def rank_of(mat):
        s = [np.repeat(np.linalg.svd(mat[np.ix_(algebra.blocks[c[0]], c)],
                                     compute_uv=False), len(c))
             for c in algebra.classes]
        return numerical_rank(np.concatenate(sorted(s, key=lambda x: -x[0])), tol)

    rk, rks = rank_of(res), rank_of(res_h)
    failed = []
    if not mult_ok:
        failed.append("resolvent not a multiplier (pattern-mask violation)")
    if rk < algebra.dim:
        failed.append("resolvent action not dense")
    if rks < algebra.dim:
        failed.append("adjoint resolvent action not dense")
    return ResolventReport(not failed, mult_ok, rk, rks, algebra.dim,
                           direct, failed)


# -- counterdensity experiment ----------------------------------------------------


@dataclass
class TruncatedOperatorPair:
    """x = (s r; 0 s*) on a K x K truncation of l²(ℕ²), stored as K and
    the diagonal λ of r: x is the direct sum of the K blocks ``blocks()``.
    """

    k: int
    lam: np.ndarray

    @property
    def hilbert_dim(self) -> int:
        return self.k * self.k

    def blocks(self) -> np.ndarray:
        """The K blocks x_j = (S, diag(λ_{·j}); 0, Sᵀ), stacked as a
        K x 2K x 2K array; block j acts on the span of the (i, j) basis
        vectors of both halves, ordered by half, then by i."""
        k = self.k
        blocks = np.zeros((k, 2 * k, 2 * k))
        shift = np.eye(k, k=-1)
        blocks[:, :k, :k] = shift
        blocks[:, k:, k:] = shift.T
        i = np.arange(k)
        blocks[:, i, k + i] = self.lam.T
        return blocks

    def decay_ok(self) -> bool:
        """λ > 0 with anti-diagonal maxima vanishing as k+l grows."""
        if np.any(self.lam <= 0):
            return False
        k = self.k
        maxima = [self.lam[[i for i in range(k) for j in range(k)
                            if i + j == m],
                           [j for i in range(k) for j in range(k)
                            if i + j == m]].max()
                  for m in range(2 * k - 1)]
        return bool(np.all(np.diff(maxima) <= 1e-12))


def build_pair(k: int, identity_r: bool = False) -> TruncatedOperatorPair:
    if not (8 <= k <= 64):
        raise BadParameters("K must be between 8 and 64")
    if identity_r:
        lam = np.ones((k, k))
    else:
        lam = np.array([[1.0 / (1 + i + j) for j in range(k)] for i in range(k)])
    return TruncatedOperatorPair(k, lam)


class Side(enum.Enum):
    LEFT = "left"    # multiply by x
    STAR = "star"    # multiply by x*


def density_defect(pair: TruncatedOperatorPair, side: Side) -> float:
    """Relative least-squares distance from the corner-block projection
    to x^(*)·(unit ball of the truncated algebra).

    The target is (0 0; 0 P₀) with P₀ the projection onto the k = 0 row;
    it has K nonzero columns, and for each the best unit-ball preimage is
    a trust-region least-squares problem.  Target column l is row K of
    block l, so each problem is solved through the SVD of that block
    alone.  Optimal preimage columns have disjoint supports, so the
    assembled y stays in the unit ball and the columnwise optimum is exact.

    The K blocks go through one stacked SVD, and the K multipliers μ are
    bisected together: each column still gets its own doubling start
    and 200 halvings.
    """
    k = pair.k
    mats = pair.blocks()  # real, so x* is the transpose
    if side is Side.STAR:
        mats = mats.transpose(0, 2, 1)
    u, s, vh = np.linalg.svd(mats)
    # Uᵀe for e the unit vector K (second half, i = 0) of every block
    beta = u[:, k, :]
    # null directions only lengthen the preimage, so they get weight 0
    # (the μ ↓ 0 limit of s / (s² + μ)); this also keeps μ = 0 finite
    live = s > 0

    def gain(mu):
        return np.divide(s, s ** 2 + mu[:, None], out=np.zeros_like(s),
                         where=live)

    def too_long(mu):
        return np.linalg.norm(gain(mu) * beta, axis=1) > 1.0

    constrained = too_long(np.zeros(k))
    lo, hi = np.zeros(k), np.ones(k)
    growing = constrained & too_long(hi)
    while growing.any():
        hi[growing] *= 2.0
        growing &= too_long(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high = too_long(mid)
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    mu = np.where(constrained, hi, 0.0)
    v = vh.transpose(0, 2, 1) @ (gain(mu) * beta)[..., None]
    residual = -(mats @ v)[..., 0]
    residual[:, k] += 1.0
    return float(np.linalg.norm(residual) / np.sqrt(k))


# -- Weyl fraction algebra ----------------------------------------------------------


@dataclass
class WeylGrid:
    """Samples of x = (Q - αi)^{-1} and y = (P - βi)^{-1} on the grid t,
    stored as the diagonal ``d`` of x and the real kernel k = i·y."""

    alpha: float
    beta: float
    m: int
    length: float
    t: np.ndarray
    dt: float
    d: np.ndarray
    kernel: np.ndarray


WEYL_MAX_M = 4096
# admitted range of |α|, -β and L; beyond it the grid over- or underflows
# and the report is no longer finite
WEYL_SCALE = (1e-6, 1e6)


def weyl_build(alpha: float, beta: float, m: int, length: float) -> WeylGrid:
    """Exact resolvent samples on a uniform midpoint grid of [-L, L].

    x is diagonal; y = -i·k, where k is the quadrature of the one-sided
    exponential kernel of (P - βi)^{-1}, which requires β < 0: real and
    upper triangular, k_jl = e^{β(t_l - t_j)}·dt for l >= j.  The
    parameters and the grid size are checked before any M x M matrix is
    allocated.
    """
    lo, hi = WEYL_SCALE
    if not (lo <= abs(alpha) <= hi and lo <= -beta <= hi):
        raise BadParameters(f"need alpha != 0 and beta < 0, with |alpha| "
                            f"and -beta in [{lo}, {hi}]")
    if not lo <= length <= hi:
        raise BadParameters(f"need L in [{lo}, {hi}], got {length}")
    if m < 256:
        raise BadParameters("need at least 256 grid points")
    if m > WEYL_MAX_M:
        raise BadParameters(f"at most {WEYL_MAX_M} grid points")
    dt = 2 * length / m
    t = -length + (np.arange(m) + 0.5) * dt
    d = 1.0 / (t - 1j * alpha)
    # k is built in its own buffer: (t_j - t_l)·(-β) = β(t_l - t_j), and
    # the strict lower triangle is sent to exp(-inf) = 0
    kernel = np.subtract.outer(t, t)
    kernel *= -beta
    np.copyto(kernel, -np.inf, where=np.tri(m, k=-1, dtype=bool))
    np.exp(kernel, out=kernel)
    kernel *= dt
    return WeylGrid(alpha, beta, m, length, t, dt, d, kernel)


def _yx_inverse(w: WeylGrid) -> tuple:
    """The diagonal and superdiagonal of (k·|D|)⁻¹ = |D|⁻¹R⁻¹/dt, upper
    bidiagonal: k = dt·R with R_jl = ρ^{l-j} for l ≥ j and ρ = e^{β·dt},
    so R⁻¹ = I - ρ·(shift).  They are 1/(dt·|d_j|) and -ρ/(dt·|d_j|)."""
    inv = 1.0 / (w.dt * np.abs(w.d))
    return inv, -np.exp(w.beta * w.dt) * inv[:-1]


@dataclass
class WeylRelationReport:
    """Residuals of the fraction-algebra relations.  ``rel1_y`` is
    computed the first time it is read, each σ_i(yx) when it is asked
    for."""

    rel1_x: float              # x - x* = 2αi x*x (exact for diagonals)
    rel1_x_chain: float        # 2αi x*x = 2αi xx*
    rel1_y_damped: float       # x(y - y* - 2βi y*y)x (shrinks with the grid)
    rel2: float                # xy - yx = i x y² x (quadrature error)
    grid: WeylGrid = field(repr=False)
    ydefect: np.ndarray = field(repr=False)   # S, with y - y* - 2βi y*y = -iS

    @property
    def rel2_star(self) -> float:
        """xy* - y*x = i x y*² x.  Its residual is -Mᵀ for the matrix M
        of ``rel2``, so its norm is ``rel2``."""
        return self.rel2

    @cached_property
    def rel1_y(self) -> float:
        """y - y* = 2βi y*y, raw (edge-limited, O(1))."""
        return hermitian_opnorm(self.ydefect)

    def sigma_at(self, index: int) -> float:
        """σ_index(yx) = σ_index(k·|D|), 0 being the largest: 1 over the
        index-th smallest singular value of the bidiagonal (k·|D|)⁻¹.  An
        index outside [0, M) raises BadParameters."""
        return 1.0 / bidiagonal_singular_value(*_yx_inverse(self.grid), index)


def weyl_relations_check(w: WeylGrid) -> WeylRelationReport:
    """Residuals of the fraction-algebra relations on the grid.

    The commutator identity is implemented as xy - yx = +i·x y² x: with
    P = -i d/dt one has [P, Q] = -i, hence [x, y] = -xy[y⁻¹,x⁻¹]yx =
    +i·xy²x, and the measured residual indeed shrinks O(Δ) under grid
    refinement, which pins the sign.  The raw y-relation residual does
    not converge in operator norm on a finite window (the kernel loses
    O(1) tail mass near the right edge); its x-compressed version, which
    is what the fraction algebra actually sees, does.

    x is its diagonal d, and the x-only residuals are diagonal, so their
    2-norm is a max-abs.  Every other residual is the exact spectral
    norm of a real matrix.  With d = u·|d| for a unitary
    diagonal u, which drops out of a 2-norm, ‖x M x‖ = ‖|D| M |D|‖ for
    |D| = diag(|d|).  With y = -i·k, k real, and T_jl = t_l - t_j:

    * y - y* - 2βi y*y = -i·S with S = k + kᵀ + 2β kᵀk real symmetric,
      so ``rel1_y`` and ``rel1_y_damped`` are largest |eigenvalues| of S
      and |D| S |D|;
    * x⁻¹ = Q - αi, so xy - yx = x[y, Q]x = x(T∘y)x, and ``rel2`` is
      ‖M‖ for M = |D|(T∘k - k@k)|D|.  On the grid k_jl = dt·e^{β(t_l - t_j)}
      for l ≥ j and t_l - t_j = (l - j)·dt, so (k@k)_jl = (l - j + 1)·dt·k_jl
      and T∘k - k@k = -dt·k: the residual is -dt·x y x, and ``rel2`` =
      dt·‖|D| k |D|‖ falls as O(Δ).  The residual of ``rel2_star`` is
      |D|(T∘kᵀ + kᵀ@kᵀ)|D| = -Mᵀ for any kernel k, since Tᵀ = -T and
      (k@k)ᵀ = kᵀ@kᵀ, so it is the same largest singular value;
    * σ(yx) = σ(k·|D|).

    k = dt·R with R_jl = ρ^{l-j} for l ≥ j and ρ = e^{β·dt}, so R⁻¹ =
    I - ρ·(shift) and (dt·|D| k |D|)⁻¹ is upper bidiagonal, with diagonal
    1/(dt²|d_j|²) and superdiagonal -ρ/(dt²|d_j||d_{j+1}|): ``rel2`` is 1
    over its smallest singular value, found by bisection
    (``bidiagonal_singular_value``), and M is never formed.  The one
    matrix decomposed is |D| S |D| (``eigvalsh``); S itself follows when
    ``rel1_y`` is first read, and σ(yx) comes from a bidiagonal inverse
    too (``WeylRelationReport.sigma_at``).  S is formed in one buffer;
    |D| S |D| is a copy sandwiched in place, since S is kept for
    ``rel1_y``.
    """
    d, k = w.d, w.kernel
    ds = d.conj()
    a2 = 2j * w.alpha
    rel1_x = np.abs((d - ds) - a2 * (ds * d)).max()
    rel1_chain = np.abs(a2 * (ds * d) - a2 * (d * ds)).max()
    absd = np.abs(d)
    kt = k.T
    ydefect = kt @ k
    ydefect *= 2 * w.beta
    ydefect += k + kt
    damped = ydefect.copy()
    damped *= absd[:, None]
    damped *= absd[None, :]
    # (dt·|D| k |D|)⁻¹ = (k·|D|)⁻¹·|D|⁻¹/dt scales column j by 1/(dt·|d_j|)
    diag, sup = _yx_inverse(w)
    rel2 = 1.0 / bidiagonal_singular_value(diag * diag, sup * diag[1:], 0)
    return WeylRelationReport(
        rel1_x=float(rel1_x),
        rel1_x_chain=float(rel1_chain),
        rel1_y_damped=hermitian_opnorm(damped),
        rel2=rel2,
        grid=w,
        ydefect=ydefect,
    )


@dataclass
class WeylLimitRow:
    eps: float
    cells: int
    norm_w: float
    x_value: complex
    x_error: float
    y_value: float
    yx_values: dict


def weyl_limits_check(w: WeylGrid, lam: float, eps_seq) -> list:
    """Window-state limits ⟨A ω_{ε,λ}, ω⟩ for A in {x, y, yx·b}.

    ω is the L²-normalized indicator of [λ, λ+ε] on the grid; widths
    below 8 grid cells are refused.  As ε ↓ 0 the x-average approaches
    (λ - αi)^{-1} while every y- and yx-average drains to zero, which is
    the character structure of the algebra.  Each A ω is a chain of
    matrix-vector products, x acting as its diagonal and y = -i·k as
    the real kernel k, applied to the real and imaginary parts of a
    vector; the dense complex y is never formed.
    """
    if not -w.length <= lam <= w.length:
        raise BadParameters(f"lam must lie on the grid [-L, L], got {lam}")
    rows = []
    d, k = w.d, w.kernel

    def y(vec):  # y @ vec
        if np.iscomplexobj(vec):
            return -1j * (k @ vec.real + 1j * (k @ vec.imag))
        return -1j * (k @ vec)

    target = 1.0 / (lam - 1j * w.alpha)
    for eps in eps_seq:
        cells = int(round(eps / w.dt))
        if eps < 8 * w.dt - 1e-12 or cells < 8:
            raise EpsilonBelowGrid(f"eps={eps} below the 8-cell floor {8*w.dt}")
        j0 = int(np.searchsorted(w.t, lam))
        if j0 + cells > w.m:
            raise BadParameters("window leaves the grid")
        omega = np.zeros(w.m)
        omega[j0 : j0 + cells] = 1.0
        omega /= np.sqrt(cells * w.dt)

        def avg(vec):  # ⟨A ω, ω⟩ for vec = A ω
            return complex((omega.conj() @ vec) * w.dt)

        xval = avg(d * omega)
        y_omega = y(omega)
        rows.append(WeylLimitRow(
            eps=float(eps),
            cells=cells,
            norm_w=float(np.sum(np.abs(omega) ** 2) * w.dt),
            x_value=xval,
            x_error=float(abs(xval - target)),
            y_value=float(abs(avg(y_omega))),
            yx_values={
                "1": float(abs(avg(y(d * omega)))),
                "x": float(abs(avg(y(d * (d * omega))))),
                "y": float(abs(avg(y(d * y_omega)))),
            },
        ))
    return rows
