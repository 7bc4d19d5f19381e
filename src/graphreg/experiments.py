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
diagonal, and the window averages are matrix-vector products.  The
phases of d drop out of every 2-norm, so each residual of y is the
spectral norm of a real matrix sandwiched by |D| = diag(|d|), and the
commutator comes from x[y, Q]x since x⁻¹ = Q - αi (see
``weyl_relations_check``).  Values the report may not read, the raw
y-relation and the σ(yx) spectrum, are computed when first read.  The
grid has between 256 and 4096 points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebras import BlockAlgebra
from .config import DEFAULT, Config
from .errors import BadParameters, EpsilonBelowGrid, LambdaInSpectrum


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

    ``mult_pattern`` is the mask of M(A) when it differs from A's own
    mask (unital full-block algebras have M(A) = A).
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    shifted = t - lam * np.eye(n)
    smin = float(np.linalg.svd(shifted, compute_uv=False).min())
    if smin <= 1e-8:
        raise LambdaInSpectrum(f"min singular value {smin:.2e} at λ={lam}")
    res = np.linalg.inv(shifted)
    direct = np.linalg.norm(res @ shifted - np.eye(n), 2)
    pattern = mult_pattern if mult_pattern is not None else algebra
    mult_ok = bool(pattern.contains(res) and pattern.contains(res.conj().T)
                   and algebra.is_multiplier(res) and
                   algebra.is_multiplier(res.conj().T))
    # density of R·A and R*·A as ranks of the left actions
    def rank_of(mat):
        action = algebra.left_mult_map(mat, onto=algebra.blocks)
        return int(np.linalg.matrix_rank(action, tol=cfg.subspace_tol))

    rk, rks = rank_of(res), rank_of(res.conj().T)
    failed = []
    if not mult_ok:
        failed.append("resolvent not a multiplier (pattern-mask violation)")
    if rk < algebra.dim:
        failed.append("resolvent action not dense")
    if rks < algebra.dim:
        failed.append("adjoint resolvent action not dense")
    return ResolventReport(not failed, mult_ok, rk, rks, algebra.dim,
                           float(direct), failed)


# -- counterdensity experiment ----------------------------------------------------


@dataclass
class TruncatedOperatorPair:
    """x = (s r; 0 s*) on a K x K truncation of l²(ℕ²).

    Only K and the diagonal λ of r are stored: x is the direct sum of
    the K blocks ``blocks()``, and the dense matrix is assembled on access.
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

    @property
    def x(self) -> np.ndarray:
        """The dense 2K² x 2K² operator, index (half, i, j) ↦ half·K² + i·K + j."""
        k, n = self.k, self.hilbert_dim
        x = np.zeros((2 * n, 2 * n), dtype=complex)
        rows = np.arange(k) * k
        for j, block in enumerate(self.blocks()):
            idx = np.concatenate([rows + j, n + rows + j])
            x[np.ix_(idx, idx)] = block
        return x

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
    """Samples of x = (Q - αi)^{-1} and y = (P - βi)^{-1} on the grid t.

    Only the diagonal ``d`` of x and the real kernel k = i·y are stored;
    the dense x and y are built on access.
    """

    alpha: float
    beta: float
    m: int
    length: float
    t: np.ndarray
    dt: float
    d: np.ndarray
    kernel: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return np.diag(self.d)

    @property
    def y(self) -> np.ndarray:
        return -1j * self.kernel


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
    diff = t[None, :] - t[:, None]
    upper = np.arange(m)[None, :] >= np.arange(m)[:, None]
    kernel = np.where(upper, np.exp(beta * diff) * dt, 0.0)
    return WeylGrid(alpha, beta, m, length, t, dt, d, kernel)


def _norm2(mat: np.ndarray) -> float:
    """Spectral norm: the largest singular value from LAPACK."""
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _symmetric_norm(mat: np.ndarray) -> float:
    """Spectral norm of a real symmetric matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(mat)).max())


@dataclass
class WeylRelationReport:
    """Residuals of the fraction-algebra relations.  ``rel1_y`` and
    ``yx_singular_values`` are computed the first time they are read."""

    rel1_x: float              # x - x* = 2αi x*x (exact for diagonals)
    rel1_x_chain: float        # 2αi x*x = 2αi xx*
    rel1_y_damped: float       # x(y - y* - 2βi y*y)x (shrinks with the grid)
    rel2: float                # xy - yx = i x y² x (quadrature error)
    rel2_star: float           # xy* - y*x = i x y*² x
    grid: WeylGrid = field(repr=False)
    ydefect: np.ndarray = field(repr=False)   # S, with y - y* - 2βi y*y = -iS

    @cached_property
    def rel1_y(self) -> float:
        """y - y* = 2βi y*y, raw (edge-limited, O(1))."""
        return _symmetric_norm(self.ydefect)

    @cached_property
    def yx_singular_values(self) -> np.ndarray:
        """σ(yx) = σ(k·|D|), in descending order."""
        w = self.grid
        return np.linalg.svd(w.kernel * np.abs(w.d)[None, :],
                             compute_uv=False)

    def sigma_at(self, index: int) -> float:
        return float(self.yx_singular_values[index])


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
    norm of a real matrix, from LAPACK.  With d = u·|d| for a unitary
    diagonal u, which drops out of a 2-norm, ‖x M x‖ = ‖|D| M |D|‖ for
    |D| = diag(|d|).  With y = -i·k, k real, and T_jl = t_l - t_j:

    * y - y* - 2βi y*y = -i·S with S = k + kᵀ + 2β kᵀk real symmetric,
      so ``rel1_y`` and ``rel1_y_damped`` are largest |eigenvalues| of S
      and |D| S |D|;
    * x⁻¹ = Q - αi, so xy - yx = x[y, Q]x = x(T∘y)x, and ``rel2`` is
      ‖|D|(T∘k - k@k)|D|‖ and ``rel2_star`` ‖|D|(T∘kᵀ + kᵀ@kᵀ)|D|‖,
      each from the singular values of its own matrix;
    * σ(yx) = σ(k·|D|).

    ``rel1_y`` and the σ(yx) spectrum are computed when first read.
    """
    d, k = w.d, w.kernel
    ds = d.conj()
    a2 = 2j * w.alpha
    rel1_x = np.abs((d - ds) - a2 * (ds * d)).max()
    rel1_chain = np.abs(a2 * (ds * d) - a2 * (d * ds)).max()
    absd = np.abs(d)

    def sandwich(mat):  # |D|·mat·|D|
        return absd[:, None] * mat * absd[None, :]

    kt = k.T
    ydefect = k + kt + 2 * w.beta * (kt @ k)
    lag = w.t[None, :] - w.t[:, None]
    return WeylRelationReport(
        rel1_x=float(rel1_x),
        rel1_x_chain=float(rel1_chain),
        rel1_y_damped=_symmetric_norm(sandwich(ydefect)),
        rel2=_norm2(sandwich(lag * k - k @ k)),
        rel2_star=_norm2(sandwich(lag * kt + kt @ kt)),
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
    matrix-vector products, x acting as its diagonal.
    """
    if not -w.length <= lam <= w.length:
        raise BadParameters(f"lam must lie on the grid [-L, L], got {lam}")
    rows = []
    d, y = w.d, w.y
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
        y_omega = y @ omega
        rows.append(WeylLimitRow(
            eps=float(eps),
            cells=cells,
            norm_w=float(np.sum(np.abs(omega) ** 2) * w.dt),
            x_value=xval,
            x_error=float(abs(xval - target)),
            y_value=float(abs(avg(y_omega))),
            yx_values={
                "1": float(abs(avg(y @ (d * omega)))),
                "x": float(abs(avg(y @ (d * (d * omega))))),
                "y": float(abs(avg(y @ (d * y_omega)))),
            },
        ))
    return rows
