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
shift, and every target column lives in a single block.  The residual
is computed block by block; the dense 2K² x 2K² matrix is never needed.
K is limited to [8, 64].

The Weyl demo samples the resolvents x = (Q - αi)^{-1} (diagonal) and
y = (P - βi)^{-1} (exponential quadrature kernel, β < 0) on a uniform
grid and measures the fraction-algebra relations and the window-state
limits that identify the characters of the algebra.  Because x is
diagonal, every product with x is a row or column scaling of y, the
x-only relations are exact on the diagonal, and the window averages
are matrix-vector products; only y and its products are dense.  The
grid has between 256 and 4096 points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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
        cols = [algebra.to_full_coords(mat @ e) for e in algebra.basis_matrices()]
        return int(np.linalg.matrix_rank(np.column_stack(cols),
                                         tol=cfg.subspace_tol))

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
    the K blocks ``block(j)``, and the dense matrix is assembled on access.
    """

    k: int
    lam: np.ndarray

    @property
    def hilbert_dim(self) -> int:
        return self.k * self.k

    def block(self, j: int) -> np.ndarray:
        """x_j = (S, diag(λ_{·j}); 0, Sᵀ) on the span of the (i, j) basis
        vectors of both halves, ordered by half, then by i."""
        k = self.k
        shift = np.eye(k, k=-1)
        return np.block([[shift, np.diag(self.lam[:, j])],
                         [np.zeros((k, k)), shift.T]])

    @property
    def x(self) -> np.ndarray:
        """The dense 2K² x 2K² operator, index (half, i, j) ↦ half·K² + i·K + j."""
        k, n = self.k, self.hilbert_dim
        x = np.zeros((2 * n, 2 * n), dtype=complex)
        rows = np.arange(k) * k
        for j in range(k):
            idx = np.concatenate([rows + j, n + rows + j])
            x[np.ix_(idx, idx)] = self.block(j)
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


def density_defect(pair: TruncatedOperatorPair, side: Side,
                   cfg: Config = DEFAULT) -> float:
    """Relative least-squares distance from the corner-block projection
    to x^(*)·(unit ball of the truncated algebra).

    The target is (0 0; 0 P₀) with P₀ the projection onto the k = 0 row;
    it has K nonzero columns, and for each the best unit-ball preimage is
    a trust-region least-squares problem.  Target column l is row K of
    block l, so each problem is solved through the SVD of that block
    alone.  Optimal preimage columns have disjoint supports, so the
    assembled y stays in the unit ball and the columnwise optimum is exact.
    """
    k = pair.k
    e = np.zeros(2 * k)
    e[k] = 1.0  # second half, i = 0: target column l inside block l
    total = 0.0
    for l in range(k):
        mat = pair.block(l)
        if side is Side.STAR:
            mat = mat.conj().T
        u, s, vh = np.linalg.svd(mat)
        beta = u.conj().T @ e
        # null directions only lengthen the preimage, so they get weight 0
        # (the μ ↓ 0 limit of s / (s² + μ)); this also keeps μ = 0 finite
        live = s > 0

        def gain(mu):
            return np.divide(s, s ** 2 + mu, out=np.zeros_like(s), where=live)

        def vnorm(mu):
            return float(np.linalg.norm(gain(mu) * beta))

        if vnorm(0.0) <= 1.0:
            mu = 0.0
        else:
            lo, hi = 0.0, 1.0
            while vnorm(hi) > 1.0:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if vnorm(mid) > 1.0:
                    lo = mid
                else:
                    hi = mid
            mu = hi
        v = vh.conj().T @ (gain(mu) * beta)
        total += float(np.linalg.norm(e - mat @ v) ** 2)
    return float(np.sqrt(total) / np.sqrt(k))


# -- Weyl fraction algebra ----------------------------------------------------------


@dataclass
class WeylGrid:
    alpha: float
    beta: float
    m: int
    length: float
    t: np.ndarray
    dt: float
    x: np.ndarray
    y: np.ndarray


WEYL_MAX_M = 4096


def weyl_build(alpha: float, beta: float, m: int, length: float) -> WeylGrid:
    """Exact resolvent samples on a uniform midpoint grid of [-L, L].

    x is diagonal; y is the quadrature of the one-sided exponential
    kernel of (P - βi)^{-1}, which requires β < 0.  The grid size is
    checked before any M x M matrix is allocated.
    """
    if alpha == 0 or beta >= 0:
        raise BadParameters("need alpha != 0 and beta < 0")
    if m < 256:
        raise BadParameters("need at least 256 grid points")
    if m > WEYL_MAX_M:
        raise BadParameters(f"at most {WEYL_MAX_M} grid points")
    dt = 2 * length / m
    t = -length + (np.arange(m) + 0.5) * dt
    x = np.diag(1.0 / (t - 1j * alpha))
    diff = t[None, :] - t[:, None]
    upper = np.arange(m)[None, :] >= np.arange(m)[:, None]
    y = np.where(upper, -1j * np.exp(beta * diff) * dt, 0.0)
    return WeylGrid(alpha, beta, m, length, t, dt, x, y)


@dataclass
class WeylRelationReport:
    rel1_x: float              # x - x* = 2αi x*x (exact for diagonals)
    rel1_x_chain: float        # 2αi x*x = 2αi xx*
    rel1_y: float              # y - y* = 2βi y*y, raw (edge-limited, O(1))
    rel1_y_damped: float       # x(y - y* - 2βi y*y)x (shrinks with the grid)
    rel2: float                # xy - yx = i x y² x (quadrature error)
    rel2_star: float           # xy* - y*x = i x y*² x
    yx_singular_values: np.ndarray

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

    x enters only through its diagonal d: products with x are row or
    column scalings, and the x-only residuals are diagonal, so their
    2-norm is a max-abs.
    """
    d, y = np.diag(w.x), w.y
    ds, ys = d.conj(), y.conj().T
    a2 = 2j * w.alpha
    rel1_x = np.abs((d - ds) - a2 * (ds * d)).max()
    rel1_chain = np.abs(a2 * (ds * d) - a2 * (d * ds)).max()
    ydefect = (y - ys) - 2j * w.beta * (ys @ y)
    rel1_y = np.linalg.norm(ydefect, 2)

    def sandwich(mat):  # x·mat·x
        return d[:, None] * mat * d[None, :]

    rel1_y_damped = np.linalg.norm(sandwich(ydefect), 2)
    yy = y @ y
    comm = d[:, None] * y - y * d[None, :]
    rel2 = np.linalg.norm(comm - 1j * sandwich(yy), 2)
    comm_star = d[:, None] * ys - ys * d[None, :]
    rel2_star = np.linalg.norm(comm_star - 1j * sandwich(yy.conj().T), 2)
    sv = np.linalg.svd(y * d[None, :], compute_uv=False)
    return WeylRelationReport(float(rel1_x), float(rel1_chain), float(rel1_y),
                              float(rel1_y_damped), float(rel2),
                              float(rel2_star), sv)


@dataclass
class WeylLimitRow:
    eps: float
    cells: int
    norm_w: float
    x_value: complex
    x_error: float
    y_value: float
    yx_values: dict


def weyl_limits_check(w: WeylGrid, lam: float, eps_seq,
                      cfg: Config = DEFAULT) -> list:
    """Window-state limits ⟨A ω_{ε,λ}, ω⟩ for A in {x, y, yx·b}.

    ω is the L²-normalized indicator of [λ, λ+ε] on the grid; widths
    below 8 grid cells are refused.  As ε ↓ 0 the x-average approaches
    (λ - αi)^{-1} while every y- and yx-average drains to zero, which is
    the character structure of the algebra.  Each A ω is a chain of
    matrix-vector products, x acting as its diagonal.
    """
    rows = []
    d = np.diag(w.x)
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
        y_omega = w.y @ omega
        rows.append(WeylLimitRow(
            eps=float(eps),
            cells=cells,
            norm_w=float(np.sum(np.abs(omega) ** 2) * w.dt),
            x_value=xval,
            x_error=float(abs(xval - target)),
            y_value=float(abs(avg(y_omega))),
            yx_values={
                "1": float(abs(avg(w.y @ (d * omega)))),
                "x": float(abs(avg(w.y @ (d * (d * omega))))),
                "y": float(abs(avg(w.y @ (d * y_omega)))),
            },
        ))
    return rows
