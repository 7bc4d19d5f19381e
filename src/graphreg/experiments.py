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
shift, and every target column lives in a single block.  Each block is
in turn, after a permutation, a direct sum of K - 1 unit upper
triangular 2 x 2 pieces [[1, λ_ij], [0, 1]], one 1 x 1 piece λ_0j and a
zero column, and the target column of block j lies in the range of one
piece: the i = 1 piece for x, the transposed λ_0j for x*.  So each of
the K least-squares problems lives on one piece of size ≤ 2: for x* it
has a closed form, and for x its multiplier is one scalar root, found
by Newton's method for all K columns at once (see ``density_defect``).
No SVD is taken, and neither the dense 2K² x 2K² matrix nor any block
is built.  K is limited to [8, 64].

The Weyl demo samples the resolvents x = (Q - αi)^{-1} (diagonal) and
y = (P - βi)^{-1} (exponential quadrature kernel, β < 0) on a uniform
grid and measures the fraction-algebra relations and the window-state
limits that identify the characters of the algebra.  The grid keeps
the diagonal d of x; the real kernel k = i·y is never formed.  Every
product with x is a row or column scaling, the x-only relations are
exact on the diagonal, and the window averages apply k to a vector by a
backward recurrence (see ``weyl_limits_check``).  The phases
of d drop out of every 2-norm, so each residual of y is the spectral
norm of a real matrix sandwiched by |D| = diag(|d|), and the commutator
comes from x[y, Q]x since x⁻¹ = Q - αi.  On the grid T∘k - k@k = -dt·k,
so the residual M of xy - yx is -dt·x y x and that of xy* - y*x is -Mᵀ.
k is dt times a Toeplitz matrix whose inverse is bidiagonal, so ‖M‖ and
each σ(yx) are read off a bidiagonal inverse, and each y-relation off a
tridiagonal congruent to it, as roots of Sturm counts in differential
form over M pivots: Newton steps on log|det|, whose derivative comes
from the same pass as the count, narrow a count bracket, and two counts
certify each root (see ``weyl_relations_check`` and
``_certified_root``).  The demo forms no M x M matrix, and takes no SVD
and no eigensolve.  The raw
y-relation, which the report may not read, is counted when first read.
The grid has between 256 and 4096 points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .algebras import BlockAlgebra
from .config import DEFAULT, Config
from .errors import BadParameters, EpsilonBelowGrid, LambdaInSpectrum
from .transforms import _require_finite, numerical_rank, opnorm


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
        out = asdict(self)
        del out["resolvent_residual"]
        return out


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
    # every mask is symmetric, so R* has R's moduli off it and passes both
    # checks exactly when R does
    mult_ok = bool(pattern.contains(res, cfg) and algebra.is_multiplier(res, cfg))
    # density of R·A and R*·A: on each column of a c-block R acts as
    # R[rows of the block of c, c]; the class with the largest σ₁ goes first
    def rank_of(mat):
        s = [np.repeat(np.linalg.svd(mat[np.ix_(algebra.blocks[c[0]], c)],
                                     compute_uv=False), len(c))
             for c in algebra.classes]
        return numerical_rank(np.concatenate(sorted(s, key=lambda x: -x[0])),
                              cfg.subspace_tol)

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
    the diagonal λ of r: x is the direct sum of K blocks
    x_l = (S, diag(λ_{·l}); 0, Sᵀ), each one of 2 x 2 pieces (see
    ``density_defect``).
    """

    k: int
    lam: np.ndarray


def build_pair(k: int, identity_r: bool = False) -> TruncatedOperatorPair:
    if not (8 <= k <= 64):
        raise BadParameters("K must be between 8 and 64")
    if identity_r:
        lam = np.ones((k, k))
    else:
        i = np.arange(k)
        lam = 1.0 / (1 + np.add.outer(i, i))
    return TruncatedOperatorPair(k, lam)


class Side(enum.Enum):
    LEFT = "left"    # multiply by x
    STAR = "star"    # multiply by x*


def density_defect(pair: TruncatedOperatorPair, side: Side) -> float:
    """Relative least-squares distance from the corner-block projection
    to x^(*)·(unit ball of the truncated algebra).

    The target is (0 0; 0 P₀) with P₀ the projection onto the k = 0 row;
    it has K nonzero columns, and for each the best unit-ball preimage is
    a trust-region least-squares problem.  Target column l is the vector
    G_0 of block l, whose basis is F_0…F_{K-1} (first half) and
    G_0…G_{K-1} (second half).  Up to a permutation the block is the
    direct sum of the pieces [[1, λ_il], [0, 1]] from (F_{i-1}, G_i) to
    (F_i, G_{i-1}) for i = 1…K-1, the 1 x 1 piece λ_0l from G_0 to F_0,
    and a zero column F_{K-1}.  G_0 lies in the range of the i = 1 piece
    alone for x, and of the transposed λ_0l (F_0 to G_0) alone for x*,
    so every other preimage component is optimally 0 and each problem
    lives on that one piece.  Optimal preimage columns have disjoint
    supports, so the assembled y stays in the unit ball and the
    columnwise optimum is exact.  Each piece problem has a closed form
    or a scalar root, so no SVD is taken and no multiplier is bisected:

    * x*: the piece is λ = λ_0l, the best preimage is min(1, 1/|λ|) and
      the residual (1 - |λ|)₊, so the defect is exactly
      sqrt(mean_l (1 - |λ_0l|)₊²);
    * x: the piece is A = [[1, λ], [0, 1]], λ = λ_1l, with target
      e = (0, 1).  With s = 1 + μ the regularized solution
      (AᵀA + μI)⁻¹Aᵀe is v = (-λ, s)/N, N = s² + λ²μ, which leaves the
      unit ball at μ = 0 unless λ = 0.  So μ is the root of
      1/‖v‖ - 1 = N/D - 1, D = sqrt(λ² + s²), which is concave in μ:
      Newton's method from μ = 0 increases monotonically to it (Moré &
      Sorensen, *Computing a trust region step*, SIAM J. Sci. Stat.
      Comput. 4, 1983).  All K columns step together until no μ
      increases.  N/D - 1 is evaluated as (N² - D²)/(D(N + D)) with
      N² - D² = (2μ - λ²) + μ(μ + 2λ²) + a², a = μ(2 + μ + λ²), and its
      derivative is (s³ + 3sλ² + λ⁴)/D³, so neither cancels when λ and
      μ are small.  The residual e - Av = (-(v₀ + λv₁), 1 - v₁) is
      μ/N·(-λ, s + λ²), taken in that form for the same reason.
    """
    k = pair.k
    if side is Side.STAR:
        gap = np.maximum(1.0 - np.abs(pair.lam[0]), 0.0)
        return float(np.linalg.norm(gap) / np.sqrt(k))
    lam = pair.lam[1]
    lam2 = lam * lam
    mu = np.zeros(k)
    # every μ that moves increases, and one that stops moving stays put,
    # so the loop ends once each column has reached its root in floats
    while True:
        s = 1.0 + mu
        a = mu * (2.0 + mu + lam2)  # N - 1
        d2 = lam2 + s * s
        excess = (2.0 * mu - lam2) + mu * (mu + 2.0 * lam2) + a * a  # N² - D²
        step = excess * d2 / ((1.0 + a + np.sqrt(d2))
                              * (s * s * s + 3.0 * s * lam2 + lam2 * lam2))
        moved = mu - step
        up = moved > mu
        if not up.any():
            break
        mu = np.where(up, moved, mu)
    s = 1.0 + mu
    residual = np.stack([-lam, s + lam2]) * (mu / (s * s + lam2 * mu))
    return float(np.linalg.norm(residual) / np.sqrt(k))


# -- Weyl fraction algebra ----------------------------------------------------------


@dataclass
class WeylGrid:
    """Samples of x = (Q - αi)^{-1} and y = (P - βi)^{-1} on the grid t,
    stored as the diagonal ``d`` of x; y = -i·k for the real kernel
    k_jl = e^{β(t_l - t_j)}·dt (l >= j), which is never formed."""

    alpha: float
    beta: float
    m: int
    length: float
    t: np.ndarray
    dt: float
    d: np.ndarray


WEYL_MIN_M, WEYL_MAX_M = 256, 4096
# window states ω_{ε,λ} narrower than this many grid cells are refused;
# an ε short of the floor width by at most WINDOW_SLACK (absolute) is the
# floor, read through its rounding
WEYL_FLOOR_CELLS = 8
WINDOW_SLACK = 1e-12
# admitted range of |α|, -β and L; beyond it the grid over- or underflows
# and the report is no longer finite
WEYL_SCALE = (1e-6, 1e6)


def weyl_build(alpha: float, beta: float, m: int, length: float) -> WeylGrid:
    """Exact resolvent samples on a uniform midpoint grid of [-L, L].

    x is diagonal; y = -i·k, where k is the quadrature of the one-sided
    exponential kernel of (P - βi)^{-1}, which requires β < 0: real and
    upper triangular, k_jl = e^{β(t_l - t_j)}·dt for l >= j.  The
    parameters and the grid size are checked first; only vectors of the
    grid are built.
    """
    lo, hi = WEYL_SCALE
    if not (lo <= abs(alpha) <= hi and lo <= -beta <= hi):
        raise BadParameters(f"need alpha != 0 and beta < 0, with |alpha| "
                            f"and -beta in [{lo}, {hi}]")
    if not lo <= length <= hi:
        raise BadParameters(f"need L in [{lo}, {hi}], got {length}")
    if m < WEYL_MIN_M:
        raise BadParameters(f"need at least {WEYL_MIN_M} grid points")
    if m > WEYL_MAX_M:
        raise BadParameters(f"at most {WEYL_MAX_M} grid points")
    dt = 2 * length / m
    t = -length + (np.arange(m) + 0.5) * dt
    d = 1.0 / (t - 1j * alpha)
    return WeylGrid(alpha, beta, m, length, t, dt, d)


def _yx_inverse(w: WeylGrid) -> tuple:
    """The diagonal and superdiagonal of (k·|D|)⁻¹ = |D|⁻¹R⁻¹/dt, upper
    bidiagonal: k = dt·R with R_jl = ρ^{l-j} for l ≥ j and ρ = e^{β·dt},
    so R⁻¹ = I - ρ·(shift).  They are 1/(dt·|d_j|) and -ρ/(dt·|d_j|)."""
    inv = 1.0 / (w.dt * np.abs(w.d))
    return inv, -np.exp(w.beta * w.dt) * inv[:-1]


# The Weyl spectra are roots of Sturm counts.  Bisection narrows a count
# bracket to this relative width, Newton steps then run until one is this
# small relative to the root, and each answer is certified by two counts
# at 4ε on either side of it.
_NEWTON_WIDTH = 2.0 ** -12
_NEWTON_TOL = 2.0 ** -32
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# the relative slack of the bounds that start a bracket, far above their
# rounding
_BOUND_MARGIN = 2.0 ** -20


def _split(lo: float, hi: float) -> float:
    """The point that splits the bracket (lo, hi]: its geometric mean
    while the ends are more than a factor 2 apart, lo read as at least
    tiny, and its midpoint after."""
    lo = max(lo, _TINY)
    return math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)


def _bisect(covers, lo: float, hi: float, width: float = 0.0) -> tuple:
    """Narrow the bracket (lo, hi] of the monotone predicate ``covers``,
    false at lo and true at hi, by splitting it until hi - lo is at most
    width·hi or its ends are adjacent floats."""
    while hi - lo > width * hi:
        mid = _split(lo, hi)
        if not lo < mid < hi:
            break
        if covers(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _certified_root(probe, covers, index: int, lo: float, hi: float,
                    from_lo: bool = False) -> float:
    """The smallest t in [lo, hi] at which more than ``index`` of the
    eigenvalues of a symmetric pencil lie below t, to 4ε relative.

    ``probe(t)`` makes one pass over the pivots of the pencil at t and
    returns how many eigenvalues lie below t with d log|det|/dt, the sum
    of 1/(t - λ) over the eigenvalues λ; ``covers(t)`` tells whether that
    count exceeds ``index`` and stops as soon as it knows.  covers must
    hold at hi.  Unless ``from_lo``, covers is asked at lo and the
    bracket (lo, hi] is bisected to a relative width of 2⁻¹²; Newton's
    method on log|det| then starts at its midpoint, or at lo itself when
    ``from_lo``, which converges monotonically when the root is the
    lowest eigenvalue above lo.  Each probe moves one end of the bracket.
    A Newton step is taken when the count at t is ``index`` or
    ``index + 1``, so that the nearest eigenvalue is the one sought, when
    it stays inside the bracket, and when it is less than half the step
    before last (as in ``rtsafe``, Press et al., *Numerical Recipes*);
    otherwise the bracket is split.  Once the step from t is below 2⁻³²·t,
    its end r is certified by two counts (``_certify``): covers must fail
    at r·(1 - 4ε) and hold at r·(1 + 4ε).  When it does not, the zero of
    the secant of the Newton step δ(t) through the last two probes is
    certified in its place, if it lies in what is left of the bracket.
    Near an eigenvalue λ of multiplicity m, δ(t) ≈ (t - λ)/m: Newton's
    method converges only linearly and stops short by (m - 1)·δ, while δ
    is nearly linear in t and its secant lands on λ.  When that fails
    too, the bracket is bisected to adjacent floats, as it is when a
    split finds its ends adjacent.
    """
    if from_lo:
        t = lo
    else:
        if covers(lo):
            return lo
        lo, hi = _bisect(covers, lo, hi, _NEWTON_WIDTH)
        t = _split(lo, hi)
    step = older = hi - lo
    last = None  # (t, δ) of the previous probe, when its count was adjacent
    while True:
        count, slope = probe(t)
        if count <= index:
            lo = t
        elif t <= lo:  # the first probe of from_lo
            return lo
        else:
            hi = t
        delta = 1.0 / slope if slope else math.inf
        nxt = t - delta
        adjacent = index <= count <= index + 1
        if adjacent and abs(delta) <= _NEWTON_TOL * t:
            secant = None
            if last is not None and last[1] != delta:
                secant = t - delta * (t - last[0]) / (delta - last[1])
            return _certify(covers, nxt, lo, hi, secant)
        last = (t, delta) if adjacent and math.isfinite(delta) else None
        if adjacent and lo < nxt < hi and abs(delta) < 0.5 * older:
            older, step = step, abs(delta)
            t = nxt
        else:
            t = _split(lo, hi)
            if not lo < t < hi:
                return hi
            older, step = step, 0.5 * (hi - lo)


def _certify(covers, root: float, lo: float, hi: float,
             guess: float | None = None) -> float:
    """``root`` when covers fails at root·(1 - 4ε) and holds at
    root·(1 + 4ε).  Otherwise ``guess`` certified the same way, when it
    lies on the side where covers changes, and failing that the
    bisection's answer in (lo, hi], the side where covers gave the wrong
    answer pushed out first by widths growing 16-fold."""
    width = 4.0 * _EPS
    below = covers(root * (1.0 - width))
    above = covers(root * (1.0 + width))
    if above and not below:
        return root
    # when covers gives one answer on both sides, it changes further out
    # on the side of that answer: try the guess there, or step out there
    # until it changes
    while above == below:
        if below:
            hi = min(hi, root * (1.0 - width))
        else:
            lo = max(lo, root * (1.0 + width))
        if guess is not None and lo < guess < hi:
            return _certify(covers, guess, lo, hi)
        width *= 16.0
        edge = root * (1.0 - width) if below else root * (1.0 + width)
        if not lo < edge < hi:
            break
        if covers(edge) != below:
            lo, hi = (edge, hi) if below else (lo, edge)
            break
    return _bisect(covers, lo, hi)[1]


def _bidiagonal_counts(diag: np.ndarray, sup: np.ndarray, index: int) -> tuple:
    """The counts that locate the ``index``-th smallest singular value of
    the upper bidiagonal B with diagonal ``diag`` and superdiagonal
    ``sup``: (probe, covers, lo, hi, scale) for ``_certified_root`` in
    the variable μ = x² of the scaled B, whose root lies in [lo, hi], and
    the power of two ``scale`` that B was scaled by.  An index outside
    [0, n) raises BadParameters.

    BᵀB = LDLᵀ with D = diag(q), qᵢ = diagᵢ², and L unit lower bidiagonal,
    so the singular values ≤ x are the negative pivots dp of
    LDLᵀ - μI = L₊D₊L₊ᵀ.  The differential stationary qd transform
    (Fernando & Parlett, *Accurate singular values and differential qd
    algorithms*, Numer. Math. 67, 1994) computes them from q and
    eᵢ = supᵢ² alone: s₀ = -μ, dpᵢ = qᵢ + sᵢ and sᵢ₊₁ = eᵢ·(sᵢ/dpᵢ) - μ,
    n pivots where the Golub–Kahan tridiagonal of B has 2n - 1.  Their
    derivatives in μ follow in the same pass: s′₀ = -1 and
    s′ᵢ₊₁ = eᵢqᵢ·s′ᵢ/dpᵢ² - 1, and d log|det(BᵀB - μI)|/dμ = Σ s′ᵢ/dpᵢ.
    ``covers`` stops once more than ``index`` pivots are negative.

    B is first scaled by a power of two, which is exact, so that its
    largest entry lies in [1/2, 1); then q, e and the off-diagonal
    entries diagᵢ·supᵢ of BᵀB are below 1, and LAPACK's pivmin
    tiny·max(1, max offdiag²) is tiny.  A pivot smaller in modulus than
    pivmin counts as -pivmin, as in ``dstebz``; as qᵢ < 1, |sᵢ/dpᵢ| is at
    most 2/pivmin, and no s overflows.  A derivative may overflow there;
    a NaN slope then takes no Newton step, and an infinite one has its
    point certified.  Squaring
    the shift loses singular values below about 2⁻⁵¹¹ of the largest
    entry, where x² meets tiny; on the Weyl grid every singular value
    read, at the ``WEYL_SCALE`` corners with M = 256 and 2048 included,
    is at least 1.3e-7 of the largest entry.  hi is the square of twice
    the Gershgorin bound of the Golub–Kahan tridiagonal.  When every
    |supᵢ| < |diagᵢ|, B = diag(diag)·(I + N) with ‖N‖ = r = max|supᵢ/diagᵢ|
    < 1, and σ_index(B) lies within (1 ± r) of the index-th smallest
    |diagᵢ|: on (k·|D|)⁻¹, r = ρ.  r is raised by 2⁻²⁰ for its rounding.
    """
    n = len(diag)
    if not 0 <= index < n:
        raise BadParameters(f"singular value index {index} outside [0, {n})")
    diag, sup = np.abs(diag), np.abs(sup)
    top = float(max(diag.max(), sup.max(initial=0.0)))
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    diag, sup = diag * scale, sup * scale
    q = diag * diag
    e = np.append(sup * sup, 0.0)
    pivots = list(zip(q.tolist(), e.tolist(), (e * q).tolist()))
    pivmin = _TINY

    def covers(mu):  # whether more than ``index`` singular values are ≤ √μ
        s = -mu
        count = 0
        for q, e, _ in pivots:
            dp = q + s
            if dp < pivmin:
                count += 1
                if count > index:
                    return True
                if dp > -pivmin:
                    dp = -pivmin
            s = e * (s / dp) - mu
        return False

    def probe(mu):
        s, ds = -mu, -1.0
        count, slope = 0, 0.0
        for q, e, eq in pivots:
            dp = q + s
            if dp < pivmin:
                count += 1
                if dp > -pivmin:
                    dp = -pivmin
            r = ds / dp
            slope += r
            s = e * (s / dp) - mu
            ds = eq * (r / dp) - 1.0
        return count, slope

    # each row of the Golub–Kahan tridiagonal holds a diagonal entry of B
    # and a neighbouring superdiagonal one
    padded = np.concatenate([[0.0], sup, [0.0]])
    hi = 2.0 * float((diag + np.maximum(padded[:-1], padded[1:])).max())
    lo = 0.0
    if np.all(sup < diag[:-1]):
        # B = diag(diag)·(I + N), N_{i,i+1} = supᵢ/diagᵢ, and r = ‖N‖ < 1,
        # so σ_index(B) lies within (1 ± r)·σ_index(diag(diag))
        r = float((sup / diag[:-1]).max(initial=0.0)) + _BOUND_MARGIN
        nearest = float(np.partition(diag, index)[index])
        lo = max(1.0 - r, 0.0) * nearest
        hi = min(hi, (1.0 + r) * nearest)
    return probe, covers, lo * lo, hi * hi, scale


def _bidiagonal_singular_value(diag: np.ndarray, sup: np.ndarray,
                               index: int) -> float:
    """The ``index``-th smallest singular value (0 is the smallest) of the
    upper bidiagonal B with diagonal ``diag`` and superdiagonal ``sup``,
    a root of the qd count of ``_bidiagonal_counts`` found by
    ``_certified_root``; no matrix is formed.  Newton's method starts
    the smallest one at the lower end of its bracket, from which it rises
    monotonically.  An index outside [0, n) raises BadParameters.

    A diagonal B needs no count: its singular values are the |diagᵢ|.  On
    the Weyl grid every supᵢ is 0 where ρ = e^{β·dt} underflows, as at
    β = -1e6, L = 1e6.
    """
    if not np.any(sup) and 0 <= index < len(diag):
        return float(np.partition(np.abs(diag), index)[index])
    probe, covers, lo, hi, scale = _bidiagonal_counts(diag, sup, index)
    mu = _certified_root(probe, covers, index, lo, hi, from_lo=index == 0)
    return math.sqrt(mu) / scale


def _y_relation_counts(w: WeylGrid, damped: bool) -> tuple:
    """The counts that locate the extreme eigenvalues of |D| S |D|
    (``damped``) or of S, for the y-relation S = k + kᵀ + 2βkᵀk, in units
    of dt, for ``_certified_root``: (probe, covers, low, high) for the
    largest eigenvalue and (probe_bottom, covers_bottom, hi) for minus the
    smallest.  ``probe(σ)`` counts the eigenvalues below σ·dt, and
    covers(σ) holds when every eigenvalue lies below σ·dt;
    ``probe_bottom(σ)`` counts those above -σ·dt, and covers_bottom(σ)
    holds when none lies at or below -σ·dt.  The largest eigenvalue lies
    in [low, high], and hi bounds the modulus of both.  S is never formed.

    With k = dt·R, R⁻¹ = I - ρN (N the upper shift), c = 2β·dt and
    e = 1 - ρ² + c, S = dt·Rᵀ(R⁻ᵀR⁻¹ + E)R for E = diag(1 + c, e, …, e).
    So |D| S |D| - σ·dt·I is congruent, through C = R|D|, to the
    tridiagonal R⁻ᵀ(I - σ|D|⁻²)R⁻¹ + E, and by Sylvester's law of
    inertia its negative pivots count the eigenvalues of |D| S |D|
    below σ·dt (|D| = I for the raw relation).  With g_j = 1/|d_j|² and
    w_j = 1 - σg_j the pivots are q_j = w_j + s_j, s₀ = 1 + c and
    s_j = e + ρ²·w_{j-1}s_{j-1}/q_{j-1}: the differential form (Fernando
    & Parlett, *Accurate singular values and differential qd
    algorithms*, Numer. Math. 67, 1994), which never forms the entries
    2 + c and -ρ of the tridiagonal and so loses nothing to their
    cancellation where |β|·dt is small.  e = -(expm1(2β·dt) - 2β·dt)
    keeps its digits there too.  The derivatives in σ follow in the same
    pass: s′₀ = 0, s′ⱼ₊₁ = ρ²(s′ⱼwⱼ² - gⱼsⱼ²)/qⱼ², and
    d log|det|/dσ = Σ (s′ⱼ - gⱼ)/qⱼ.  A pivot smaller than
    pivmin = tiny·max(1, max w²) counts as negative and as -pivmin, so
    |w·s/q| ≤ max|w| + 1/tiny and no s overflows; a derivative may.

    The diagonal of S is S_jj/dt = 2 + 2x·expm1(2x(j + 1))/expm1(2x),
    x = β·dt, times |d_j|² for |D| S |D|, and its largest entry, clipped
    at 0, is low.  S/dt = I + RᵀER, and as e ≤ 0, E ≤ diag(1 + c, 0, …, 0):
    the largest eigenvalue of |D| S |D|/dt is at most max|d|² plus
    (1 + c)₊·‖|D|r₀‖² for the first row r₀ = (ρ^l) of R, and high is that
    raised by 2⁻²⁰ for its rounding.  At the README parameters high is 2%
    above the largest eigenvalue of the damped relation and 7% above
    that of the raw one.  ‖|D| S |D|‖/dt ≤ 2n(1 + |x|·n)·max|d|² with
    n = Σ_{j<M} ρ^j ≥ ‖k‖/dt by the Schur test, and hi is twice that,
    which covers its rounding.
    """
    x = w.beta * w.dt
    rho2 = math.exp(2.0 * x)
    s0 = 1.0 + 2.0 * x
    e = -(math.expm1(2.0 * x) - 2.0 * x)
    moduli = np.abs(w.d) ** 2 if damped else np.ones(w.m)  # |d_j|²
    gain = 1.0 / moduli
    g_lo, g_hi = float(gain.min()), float(gain.max())
    gain = gain.tolist()
    columns = np.arange(w.m)
    diagonal = 2.0 + 2.0 * x * np.expm1(2.0 * x * (columns + 1)) \
        / math.expm1(2.0 * x)
    low = max(float((diagonal * moduli).max()), 0.0)
    high = (float(moduli.max()) + max(s0, 0.0)
            * float(moduli @ np.exp(2.0 * x * columns)))
    high *= 1.0 + _BOUND_MARGIN
    n = math.expm1(w.m * x) / math.expm1(x)
    hi = 4.0 * n * (1.0 - x * n) / g_lo

    def pivmin(sigma):
        return _TINY * max(1.0, (1.0 - sigma * g_lo) ** 2,
                           (1.0 - sigma * g_hi) ** 2)

    def covers(sigma):
        # whether every pivot at σ is negative: the first that is not ends it
        pm = pivmin(sigma)
        s = s0
        for g in gain:
            wj = 1.0 - sigma * g
            q = wj + s
            if q > -pm:
                if q >= pm:
                    return False
                q = -pm
            s = e + rho2 * wj * (s / q)
        return True

    def covers_bottom(sigma):
        # whether every pivot at -σ is positive: the first that is not ends it
        pm = pivmin(-sigma)
        s = s0
        for g in gain:
            wj = 1.0 + sigma * g
            q = wj + s
            if q < pm:
                return False
            s = e + rho2 * wj * (s / q)
        return True

    def probe(sigma):
        pm = pivmin(sigma)
        s, ds = s0, 0.0
        count, slope = 0, 0.0
        for g in gain:
            wj = 1.0 - sigma * g
            q = wj + s
            if q < pm:
                count += 1
                if q > -pm:
                    q = -pm
            slope += (ds - g) / q
            r = s / q
            u = 1.0 - r  # w_j/q_j
            ds = rho2 * (ds * u * u - g * r * r)
            s = e + rho2 * wj * r
        return count, slope

    def probe_bottom(sigma):  # the count above -σ·dt rises with σ
        count, slope = probe(-sigma)
        return w.m - count, -slope

    return (probe, covers, low, high), (probe_bottom, covers_bottom, hi)


def _y_relation_norm(w: WeylGrid, damped: bool) -> float:
    """‖|D| S |D|‖ (``damped``) or ‖S‖ for the y-relation S = k + kᵀ +
    2βkᵀk, the largest |eigenvalue|, from the counts of
    ``_y_relation_counts`` by ``_certified_root``; S is never formed.

    The largest eigenvalue is found in [low, high] first.  The norm is
    then the smallest σ at or above it at which no eigenvalue lies at or
    below -σ·dt: ``_certified_root`` asks that of the largest eigenvalue
    with one count, and goes on to the smallest eigenvalue only when it
    is the larger in modulus.
    """
    (probe, covers, low, high), (probe_bottom, covers_bottom, hi) = \
        _y_relation_counts(w, damped)
    top = _certified_root(probe, covers, w.m - 1, low, high)
    return _certified_root(probe_bottom, covers_bottom, w.m - 1, top, hi) * w.dt


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

    @property
    def rel2_star(self) -> float:
        """xy* - y*x = i x y*² x.  Its residual is -Mᵀ for the matrix M
        of ``rel2``, so its norm is ``rel2``."""
        return self.rel2

    @cached_property
    def rel1_y(self) -> float:
        """y - y* = 2βi y*y, raw (edge-limited, O(1))."""
        return _y_relation_norm(self.grid, damped=False)

    def sigma_at(self, index: int) -> float:
        """σ_index(yx) = σ_index(k·|D|), 0 being the largest: 1 over the
        index-th smallest singular value of the bidiagonal (k·|D|)⁻¹, a
        root of the qd count of ``_bidiagonal_singular_value``.  An index
        outside [0, M) raises BadParameters."""
        return 1.0 / _bidiagonal_singular_value(*_yx_inverse(self.grid), index)


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
    over its smallest singular value, a root of a differential qd count
    of the M pivots of BᵀB - x²I (``_bidiagonal_singular_value``), and M
    is never formed.  σ(yx) comes from a bidiagonal inverse too
    (``WeylRelationReport.sigma_at``).  The
    y-relations come from a Sturm count on a tridiagonal congruent to
    |D| S |D| - σ·dt·I (``_y_relation_norm``), the raw one when
    ``rel1_y`` is first read.  No M x M matrix is formed.
    """
    d = w.d
    ds = d.conj()
    a2 = 2j * w.alpha
    rel1_x = np.abs((d - ds) - a2 * (ds * d)).max()
    rel1_chain = np.abs(a2 * (ds * d) - a2 * (d * ds)).max()
    # (dt·|D| k |D|)⁻¹ = (k·|D|)⁻¹·|D|⁻¹/dt scales column j by 1/(dt·|d_j|)
    diag, sup = _yx_inverse(w)
    rel2 = 1.0 / _bidiagonal_singular_value(diag * diag, sup * diag[1:], 0)
    return WeylRelationReport(
        rel1_x=float(rel1_x),
        rel1_x_chain=float(rel1_chain),
        rel1_y_damped=_y_relation_norm(w, damped=True),
        rel2=rel2,
        grid=w,
    )


def _kernel_times(w: WeylGrid, vec: np.ndarray) -> np.ndarray:
    """k @ vec: k_jl = dt·ρ^{l-j} for l >= j, with ρ = e^{β·dt} real, so
    k·v = dt·u for u_j = v_j + ρ·u_{j+1}."""
    rho = math.exp(w.beta * w.dt)
    u, acc = [], 0.0
    for v in reversed(vec.tolist()):
        acc = v + rho * acc
        u.append(acc)
    return w.dt * np.array(u[::-1])


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
    below ``WEYL_FLOOR_CELLS`` grid cells are refused.  As ε ↓ 0 the
    x-average approaches (λ - αi)^{-1} while every y- and yx-average
    drains to zero, which is the character structure of the algebra.
    Each A ω is a chain of matrix-vector products, x acting as its
    diagonal and y = -i·k through the real kernel k, applied by the
    backward recurrence of ``_kernel_times``: neither k nor y is formed.
    k is upper triangular and ω lives on the window's cells, so the
    entries of each A ω on the window depend only on entries on the
    window, and the averages are computed on vectors of the window's
    length.
    """
    if not -w.length <= lam <= w.length:
        raise BadParameters(f"lam must lie on the grid [-L, L], got {lam}")
    rows = []

    def y(vec):  # y @ vec
        return -1j * _kernel_times(w, vec)

    target = 1.0 / (lam - 1j * w.alpha)
    floor = WEYL_FLOOR_CELLS * w.dt
    for eps in eps_seq:
        cells = int(round(eps / w.dt))
        if eps < floor - WINDOW_SLACK or cells < WEYL_FLOOR_CELLS:
            raise EpsilonBelowGrid(f"eps={eps} below the {WEYL_FLOOR_CELLS}-cell "
                                   f"floor {floor}")
        j0 = int(np.searchsorted(w.t, lam))
        if j0 + cells > w.m:
            raise BadParameters("window leaves the grid")
        d = w.d[j0 : j0 + cells]
        omega = np.ones(cells)
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
