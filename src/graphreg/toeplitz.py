"""Unbounded Toeplitz operators with rational symbol p/q.

For coprime polynomials p, q with q zero-free in the open unit disc,
|p|² + |q|² is strictly positive on the circle and factors as |r|² with
r zero-free in the closed disc (spectral factorization via the root
pairing λ ↔ 1/λ̄ of the associated Laurent polynomial).  With f = q/r
and g = p/r the transform elements of T_{p/q} are Toeplitz products

    a = T_f T_f̄,   a_* = 1 - T_g T_ḡ,   b = T_g T_f̄,

all inside the Toeplitz algebra, so the operator is always *associated*.
It is *affiliated* precisely when q has no zero on the circle; a zero
λ there is witnessed by the character T_φ + K ↦ φ(λ), which kills
|f(λ)|² and with it the density of a·T.

Since f and g are analytic in the disc, T_f and T_g are lower triangular.
With L_u the N x N truncation of T_u, the truncated triple is

    a = L_f L_f*,   a_* = 1 − L_g L_g*,   b = L_g L_f*,

and it is kept as its generators: the Taylor coefficients of q/r and
p/r, found by power-series division (no circle sampling, so nothing
aliases).  L_u[j, k] = û_{j−k} reads û only up to j, so T_n(u)T_n(v̄)
is the leading n x n block of T_N(u)T_N(v̄) for n ≤ N
(Böttcher–Silbermann).

* **Residuals in closed form.**  Widom's formula turns the AB-axiom
  residuals into the Gram K of the Taylor tails past N, which has rank
  at most 2·max(deg p, deg q) (Kronecker), so each is the norm of a thin
  matrix and no N x N array is formed (``interior_residuals``).  They
  read the exact truncation defect where dense products read rounding.
* **Field.**  For real p and q the Laurent polynomial |p|² + |q|² has
  real coefficients, its outer roots come in conjugate pairs and the
  phase q(0)/|q(0)| is ±1, so r, f̂, ĝ and the whole triple are real.
  Whether the symbol is real is read off the input coefficients; r then
  differs from a real polynomial only by rounding, which is checked and
  dropped.  Complex symbols give a complex triple.

Truncations only converge strongly, so matrix identities are always
measured on the central block with a decay-in-N requirement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as npoly

from .config import DEFAULT, Config
from .errors import (
    CircleRoot,
    FactorizationFailed,
    InnerRoot,
    NotCoprime,
    NotRealFactor,
)
from .transforms import _require_finite, opnorm


def _trim(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    nz = np.nonzero(np.abs(c) > 0)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


def _sylvester_resultant(p: np.ndarray, q: np.ndarray) -> complex:
    n, m = len(p) - 1, len(q) - 1
    # a max-normalised constant gives a diagonal s with |det s| = 1
    s = np.zeros((n + m, n + m), dtype=complex)
    for i in range(m):
        s[i, i : i + n + 1] = p[::-1]
    for i in range(n):
        s[m + i, i : i + m + 1] = q[::-1]
    return complex(np.linalg.det(s))


def check_coprime(p, q, cfg: Config = DEFAULT):
    p, q = _trim(p), _trim(q)
    if np.all(p == 0) or np.all(q == 0):
        other = q if np.all(p == 0) else p
        if len(other) > 1:
            raise NotCoprime("zero polynomial shares every factor")
        return
    pn = p / np.abs(p).max()
    qn = q / np.abs(q).max()
    if abs(_sylvester_resultant(pn, qn)) <= cfg.coprime_tol:
        raise NotCoprime("resultant vanishes; polynomials share a root")


def circle_samples(coeffs, m: int) -> np.ndarray:
    z = np.exp(2j * np.pi * np.arange(m) / m)
    return npoly.polyval(z, _trim(coeffs))


def fejer_riesz(p, q, cfg: Config = DEFAULT) -> np.ndarray:
    """Spectral factor r with |p|²+|q|² = |r|² on the circle.

    r has the Laurent degree of |p|²+|q|², at most max(deg p, deg q), no
    zeros in the closed unit disc, and the phase is fixed so that
    q(0)/r(0) > 0.  |p|²+|q|² must stay above ``coprime_tol`` times its
    largest value on the circle.  Roots of the Laurent polynomial within
    ``root_circle_tol`` of the circle abort the factorization: under
    coprimality they can only arise from ill-conditioning.  A coefficient
    that is inf or NaN is refused with NonFiniteValue.
    """
    _require_finite("fejer_riesz", p, q)
    p, q = _trim(p), _trim(q)
    if not np.any(q):
        raise ValueError("q is the zero polynomial, so p/q is nowhere defined")
    check_coprime(p, q, cfg)
    d = max(len(p), len(q)) - 1
    if d > cfg.max_poly_degree:
        raise ValueError(f"degree {d} exceeds the cap {cfg.max_poly_degree}")
    m = cfg.circle_samples
    lvals = np.abs(circle_samples(p, m)) ** 2 + np.abs(circle_samples(q, m)) ** 2
    # relative to its largest value, so that (c·p, c·q) is decided as (p, q)
    if lvals.min() <= cfg.coprime_tol * lvals.max():
        raise NotCoprime("|p|^2+|q|^2 reaches zero on the circle")
    # Laurent coefficients c_k = Σ_j a_j conj(a_{j-k}) of p p~ + q q~,
    # k = -d..d: the full autocorrelation of each coefficient vector
    c = np.zeros(2 * d + 1, dtype=complex)
    for a in (p, q):
        c[d - len(a) + 1 : d + len(a)] += np.correlate(a, a, "full")
    # c_{±d} vanish when no coefficient pair spans the full degree (p = z/2
    # over q = 1, say): |p|²+|q|² then has a lower Laurent degree, and so
    # has r.  c_0 = ‖p‖² + ‖q‖² > 0 bounds every |c_k|, so a c_k below its
    # rounding is no degree the root pairing could resolve
    live = np.abs(c[d:]) > np.finfo(float).eps * c[d].real
    top = int(np.flatnonzero(live)[-1])
    c, d = c[d - top : d + top + 1], top
    roots = np.roots(c[::-1])  # roots of z^d * L(z); none at d = 0, r = 1
    if np.any(np.abs(np.abs(roots) - 1.0) < cfg.root_circle_tol):
        raise CircleRoot("Laurent factor has a root too close to the circle")
    outer = roots[np.abs(roots) > 1.0]
    if len(outer) != d:
        raise CircleRoot(f"expected {d} roots outside the circle, got {len(outer)}")
    r = np.array([1.0 + 0j])
    for lam in sorted(outer, key=lambda z: (z.real, z.imag)):
        r = npoly.polymul(r, np.array([1.0, -1.0 / lam]))
    rvals = np.abs(circle_samples(r, m)) ** 2
    gamma = np.sqrt(np.mean(lvals / rvals))
    qq0 = npoly.polyval(0.0, q)
    phase = qq0 / abs(qq0)  # q(0) != 0 since q has no root in the open disc
    return r * gamma * phase


# The gates of TrigData.failures: the largest residual of |p|² + |q|² =
# |r|² on the circle, absolute and relative to |r|², how far past 1 the
# smallest root modulus of r must lie, and the largest imaginary part of
# f(0) = q(0)/r(0) read as rounding.
FACTOR_RESIDUAL_GATE = 1e-8
UNIT_RESIDUAL_GATE = 1e-8
R_ROOT_MARGIN = 1e-9
F0_IMAG_GATE = 1e-10


@dataclass
class TrigData:
    """Validated factorization data for T_{p/q}, with the roots of q."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    q_roots: np.ndarray
    factor_residual: float
    unit_residual: float
    r_root_min_modulus: float
    f0: complex

    def failures(self) -> list:
        """The checks this factorization fails, each with its value."""
        out = []
        if not self.factor_residual < FACTOR_RESIDUAL_GATE:
            out.append(f"factor_residual {self.factor_residual:.2e} "
                       f"(must be below {FACTOR_RESIDUAL_GATE:g})")
        if not self.unit_residual < UNIT_RESIDUAL_GATE:
            out.append(f"unit_residual {self.unit_residual:.2e} "
                       f"(must be below {UNIT_RESIDUAL_GATE:g})")
        if not self.r_root_min_modulus > 1 + R_ROOT_MARGIN:
            out.append(f"smallest root modulus of r "
                       f"{self.r_root_min_modulus:.12g} "
                       f"(must exceed 1 + {R_ROOT_MARGIN:g})")
        if not (abs(self.f0.imag) < F0_IMAG_GATE and self.f0.real > 0):
            out.append(f"f(0) = {self.f0:.3g} (must be positive, with an "
                       f"imaginary part below {F0_IMAG_GATE:g})")
        return out

    @property
    def ok(self) -> bool:
        return not self.failures()

    def require_ok(self) -> None:
        """FactorizationFailed, naming each failed check, unless ``ok``."""
        if not self.ok:
            raise FactorizationFailed(
                "spectral factorization failed its check: "
                + "; ".join(self.failures()))


def trig_data(p, q, cfg: Config = DEFAULT) -> TrigData:
    """Spectral factorization of |p|² + |q|² with its residuals and the
    roots of q; a root below modulus 1 − ``root_circle_tol`` raises
    InnerRoot.  A coefficient that is inf or NaN is refused with
    NonFiniteValue."""
    _require_finite("trig_data", p, q)
    p, q = _trim(p), _trim(q)
    q_roots = np.roots(q[::-1])
    inner = q_roots[np.abs(q_roots) < 1 - cfg.root_circle_tol]
    if inner.size:
        raise InnerRoot(f"q has root {inner[0]} inside the unit disc")
    r = fejer_riesz(p, q, cfg)
    m = cfg.circle_samples
    pv, qv, rv = (circle_samples(c, m) for c in (p, q, r))
    factor_residual = float(np.max(np.abs(np.abs(pv) ** 2 + np.abs(qv) ** 2
                                          - np.abs(rv) ** 2)))
    fv, gv = qv / rv, pv / rv
    unit_residual = float(np.max(np.abs(np.abs(fv) ** 2 + np.abs(gv) ** 2 - 1)))
    f0 = complex(npoly.polyval(0.0, q) / npoly.polyval(0.0, r))
    return TrigData(p, q, r, q_roots, factor_residual, unit_residual,
                    float(np.min(np.abs(np.roots(r[::-1])), initial=np.inf)), f0)


# -- truncations ----------------------------------------------------------------

# the smallest truncation the toeplitz command reports, and the largest
# any truncation may have
TOEPLITZ_MIN_N = 8
TOEPLITZ_MAX_N = 4096


def check_truncation_size(n: int, lo: int = 2) -> int:
    """n if lo <= n <= TOEPLITZ_MAX_N; refused with ValueError before
    anything is allocated otherwise."""
    if not lo <= n <= TOEPLITZ_MAX_N:
        raise ValueError(f"truncation size must be between {lo} and "
                         f"{TOEPLITZ_MAX_N}, got {n}")
    return n


# A double root of |p|² + |q|² is found only to about √eps, so an
# imaginary part of r above that is not rounding
_REAL_FACTOR_TOL = float(np.sqrt(np.finfo(float).eps))

# 2^64 tail terms: past the decay of every root of r that TrigData.ok
# admits (a root just outside its gate needs about 40 doublings)
_MAX_DOUBLINGS = 64


@dataclass
class ToeplitzTriple:
    """Truncated transform triple, kept as its generators: the Taylor
    coefficients ``fhat`` of f = q/r and ``ghat`` of g = p/r through
    index n + d − 1, d the order of ``tail``, the Cholesky factor of the
    Gram of their tails (see ``_tail_factor``).
    """

    fhat: np.ndarray
    ghat: np.ndarray
    n: int
    tail: np.ndarray

    def interior_residuals(self, n: int | None = None) -> dict:
        """AB-axiom residuals of the n x n truncation, read as the leading
        block (n = N by default, 2 ≤ n ≤ N), on its central n/2 block c,
        in closed form.

        With L_u the n x n truncation of T(u), a = L_f L_f*, b = L_g L_f*
        and a_* = 1 − L_g L_g*.  Widom's formula T(ū)T(u) = T(|u|²) and
        |f|² + |g|² = 1 give L_f*L_f + L_g*L_g = 1 − K, with K = H_f*H_f +
        H_g*H_g the Gram of the Taylor tails past n, H_u[i, k] = û_{n+i−k}.
        The residuals are therefore exactly

            b*b − (a − a²)     = −L_f K L_f*,
            bb* − (a_* − a_*²) = −L_g K L_g*,
            ab* − b*a_*        = −L_f K L_g*

        on c.  K = W W*, where row k of the n x 2d matrix W is the
        conjugated window (û_{n−k}, ..., û_{n−k+d−1}) of each of f̂ and ĝ
        times ``tail``.  With X = (L_f W)[c, :] and Y = (L_g W)[c, :] the
        norms are ‖X‖², ‖Y‖² and ‖XY*‖, read off the triangular factors
        of one QR each.  Rows of c reach W only through the lags up to
        the last nonzero coefficient below c.stop (the band), so each
        column of X and Y is one short convolution: O(n·band·d) time.
        """
        n = self.n if n is None else n
        if not 2 <= n <= self.n:
            raise ValueError(f"leading block n={n} outside [2, {self.n}]")
        c = slice(n // 4, n // 4 + n // 2)
        coeffs = (self.fhat, self.ghat)
        # read below c.stop, so that a leading block does the arithmetic
        # of a separately built n triple
        lag = int(np.flatnonzero((self.fhat[: c.stop] != 0)
                                 | (self.ghat[: c.stop] != 0))[-1])
        lo = c.start - lag               # first row of W that c reaches
        first = max(lo, 0)               # rows of W before 0 are zero
        d = len(self.tail)
        w = np.zeros((c.stop - lo, 2 * d), np.result_type(self.fhat, self.tail))
        for i, u in enumerate(coeffs):
            windows = sliding_window_view(u[n - c.stop + 1 : n - first + d], d)
            w[first - lo :, i * d : (i + 1) * d] = windows[::-1].conj() @ self.tail
        # R of (L_u W)[c, :] = Q R, each column one convolution over the lags
        rx, ry = (np.linalg.qr(np.stack([np.convolve(u[: lag + 1], col, "valid")
                                         for col in w.T], axis=1), mode="r")
                  for u in coeffs)
        return {"bstar_b": opnorm(rx) ** 2, "b_bstar": opnorm(ry) ** 2,
                "intertwine": opnorm(rx @ ry.conj().T)}


def _taylor(num: np.ndarray, den: np.ndarray, n: int) -> np.ndarray:
    """First n Taylor coefficients of num/den at 0 by power-series
    division, c_k = (num_k − Σ_{i≥1} den_i c_{k−i}) / den_0, in the field
    of num and den.  The recurrence is stable when den has no zero in the
    closed disc: the c_k then decay geometrically.

    Coefficients below the rounding of the largest one are set to 0.  No
    matrix entry or residual they feed changes beyond rounding; the exact
    zeros bound the band of the triple and the lags of
    ``interior_residuals``, and keep the products of the far tail from
    reaching subnormal numbers.
    """
    d = len(den) - 1
    dtype = np.result_type(num, den)
    rhs = np.zeros(n, dtype=dtype)
    rhs[: min(n, len(num))] = num[:n]
    tail = den[:0:-1]                     # den_d, ..., den_1
    c = np.zeros(d + n, dtype=dtype)      # d leading zeros: c_{-d..-1}
    for k in range(n):
        c[d + k] = (rhs[k] - tail @ c[k : d + k]) / den[0]
    c = c[d:]
    c[np.abs(c) < np.finfo(float).eps * np.abs(c).max()] = 0.0
    return c


def _tail_factor(r: np.ndarray, d: int) -> np.ndarray:
    """Cholesky factor of the Gram of the Taylor tails of num/r, for any
    num of degree at most d (d ≥ deg r, d ≥ 1).

    The coefficients obey r_0 c_k = −Σ_{i≥1} r_i c_{k−i} past deg num, so
    the companion matrix A of that recurrence, padded with zero
    coefficients to order d, maps the window (c_k, ..., c_{k+d−1}) to the
    next one for every k ≥ 1, and c_{k+i} = e₀*A^i(window at k).  The
    tail (c_{k+i})_{i≥0} therefore has the Gram window*·G·window, with
    G = Σ_i (A*)^i e₀e₀* A^i the solution of the Stein equation
    G − A*GA = e₀e₀*.  It is summed by doubling, G ← G + A*GA and
    A ← A², until ‖A‖_F² is below eps, so a root of r at modulus 1 + δ
    costs about log₂(1/δ) steps, not 1/δ terms, and repeated roots need
    no diagonal form.  The first d terms sum to the identity, so G ≥ 1
    and has a Cholesky factor.
    """
    rho = np.zeros(d, dtype=r.dtype)
    rho[: len(r) - 1] = r[1:] / r[0]
    comp = np.eye(d, k=1, dtype=r.dtype)
    comp[-1] = -rho[::-1]
    gram = np.zeros((d, d), dtype=r.dtype)
    gram[0, 0] = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if np.vdot(comp, comp).real <= np.finfo(float).eps:
            break
        gram = gram + comp.conj().T @ gram @ comp
        comp = comp @ comp
    return np.linalg.cholesky(0.5 * (gram + gram.conj().T))


def _symbol_field(data: TrigData) -> tuple:
    """(p, q, r) as real arrays when p and q have no imaginary part, as
    they are otherwise.  r is then real up to rounding, which is checked
    before it is dropped."""
    if np.any(data.p.imag) or np.any(data.q.imag):
        return data.p, data.q, data.r
    drift = float(np.abs(data.r.imag).max() / np.abs(data.r).max())
    if drift > _REAL_FACTOR_TOL:
        raise NotRealFactor(
            f"spectral factor of a real symbol has a relative imaginary "
            f"part {drift:.1e}, above rounding ({_REAL_FACTOR_TOL:.1e})")
    return data.p.real, data.q.real, data.r.real


def toeplitz_aab(p, q, n: int, cfg: Config = DEFAULT) -> ToeplitzTriple:
    """Truncated transform triple of T_{p/q}:
    A = T_f T_f̄, A_* = 1 - T_g T_ḡ, B = T_g T_f̄ with f = q/r, g = p/r.

    The triple is kept as its generators (see ``ToeplitzTriple``): the
    Taylor coefficients of f and g through index n + d − 1, with d =
    max(deg p, deg q, 1), and the Cholesky factor of their tail Gram, so
    it holds O(n·d) numbers and no N x N array.  It is real for real p
    and q and complex otherwise.  A factorization that fails
    ``TrigData.ok`` raises FactorizationFailed.
    """
    check_truncation_size(n)
    data = trig_data(p, q, cfg)
    p, q, r = _symbol_field(data)
    data.require_ok()
    d = max(len(p), len(q), 2) - 1
    fhat = _taylor(q, r, n + d)
    ghat = _taylor(p, r, n + d)
    return ToeplitzTriple(fhat, ghat, n, _tail_factor(r, d))


# -- association vs affiliation ---------------------------------------------------


class Verdict(enum.Enum):
    AFFILIATED = "Affiliated"
    ASSOCIATED_ONLY = "AssociatedOnly"


@dataclass
class AffiliationReport:
    verdict: Verdict
    circle_roots: list
    witnesses: list          # |f(λ)|² per circle root of q
    data: TrigData
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "circle_roots": [[z.real, z.imag] for z in self.circle_roots],
            "witnesses": self.witnesses,
            "factor_residual": self.data.factor_residual,
            "unit_residual": self.data.unit_residual,
            "notes": self.notes,
        }


def affiliation_verdict(p, q, cfg: Config = DEFAULT) -> AffiliationReport:
    """Associated always; affiliated iff q has no zero on the circle.

    Roots of q inside the open disc violate the construction and raise,
    and so does a factorization that fails ``TrigData.ok``;
    roots within ``root_circle_tol`` of the circle count as circle zeros
    and produce the character witness |f(λ)|² ≈ 0.
    """
    data = trig_data(p, q, cfg)
    data.require_ok()
    circle = [complex(z) for z in data.q_roots
              if abs(abs(z) - 1.0) <= cfg.root_circle_tol]
    witnesses = []
    for lam in circle:
        fval = npoly.polyval(lam / abs(lam), data.q) / npoly.polyval(
            lam / abs(lam), data.r)
        witnesses.append(float(abs(fval) ** 2))
    if circle:
        return AffiliationReport(
            Verdict.ASSOCIATED_ONLY, circle, witnesses, data,
            ["character at each circle root kills a·T density"])
    return AffiliationReport(
        Verdict.AFFILIATED, [], [], data,
        ["q has no circle zero, so p/q is continuous on the circle"])
