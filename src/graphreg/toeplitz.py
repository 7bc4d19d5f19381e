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

Since f and g are analytic in the disc, T_f and T_g are lower triangular
and each product is T_u T_v̄ for analytic u, v:

    X[j, k] = Σ_{l ≤ min(j, k)} û_{j-l} conj(v̂_{k-l}),

a running sum along the diagonals of the outer product û ⊗ conj(v̂),
X[j+1, k+1] = X[j, k] + û_{j+1} conj(v̂_{k+1}).  The truncated triple is
built that way from the first N Taylor coefficients of q/r and p/r,
found by power-series division (no circle sampling, so nothing
aliases); the dense truncations are kept for checks.

The triple lives in the smallest field and on the smallest support that
hold it:

* **Field.**  For real p and q the Laurent polynomial |p|² + |q|² has
  real coefficients, its outer roots come in conjugate pairs and the
  phase q(0)/|q(0)| is ±1, so r, f̂, ĝ and the whole triple are real.
  Whether the symbol is real is read off the input coefficients; r then
  differs from a real polynomial only by rounding, which is checked and
  dropped.  Complex symbols give a complex triple.
* **Band.**  f̂ and ĝ decay geometrically and are flushed to exact zeros
  past the rounding of their largest coefficient, so with ``band`` the
  last nonzero index of either, X[j, k] is an exact zero for
  |j − k| > band.  The triple is built along that band only, and the
  interior residuals contract over the columns the band reaches from the
  central block.

Truncations only converge strongly, so matrix identities are always
measured on the central block with a decay-in-N requirement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import DEFAULT, Config
from .errors import (
    CircleRoot,
    FactorizationFailed,
    InnerRoot,
    NotCoprime,
    NotRealFactor,
)


def _trim(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    nz = np.nonzero(np.abs(c) > 0)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


def _sylvester_resultant(p: np.ndarray, q: np.ndarray) -> complex:
    n, m = len(p) - 1, len(q) - 1
    if n == 0 or m == 0:
        return 1.0 + 0j  # a nonzero constant is coprime to everything
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
    q(0)/r(0) > 0.  Roots of the Laurent polynomial within
    ``root_circle_tol`` of the circle abort the factorization: under
    coprimality they can only arise from ill-conditioning.
    """
    p, q = _trim(p), _trim(q)
    if not np.any(q):
        raise ValueError("q is the zero polynomial, so p/q is nowhere defined")
    check_coprime(p, q, cfg)
    d = max(len(p), len(q)) - 1
    if d > cfg.max_poly_degree:
        raise ValueError(f"degree {d} exceeds the cap {cfg.max_poly_degree}")
    m = cfg.circle_samples
    lvals = np.abs(circle_samples(p, m)) ** 2 + np.abs(circle_samples(q, m)) ** 2
    if lvals.min() <= 1e-10:
        raise NotCoprime("|p|^2+|q|^2 reaches zero on the circle")
    # Laurent coefficients c_k of p p~ + q q~,  k = -d..d
    c = np.zeros(2 * d + 1, dtype=complex)
    for coeffs in (p, q):
        a = coeffs
        for k in range(-d, d + 1):
            acc = 0.0 + 0j
            for j in range(len(a)):
                if 0 <= j - k < len(a):
                    acc += a[j] * np.conj(a[j - k])
            c[k + d] += acc
    # c_{±d} vanish when no coefficient pair spans the full degree (p = z/2
    # over q = 1, say): |p|²+|q|² then has a lower Laurent degree, and so
    # has r.  c_0 > 0, so the degree is well defined.
    top = int(np.flatnonzero(c[d:])[-1])
    c, d = c[d - top : d + top + 1], top
    if d == 0:
        gamma = np.sqrt(lvals.mean())
        ph = q[0] / abs(q[0])
        return np.array([gamma * ph])
    roots = np.roots(c[::-1])  # roots of z^d * L(z)
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


@dataclass
class TrigData:
    """Validated factorization data for T_{p/q} at truncation size N."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    n: int
    factor_residual: float
    unit_residual: float
    r_root_min_modulus: float
    f0: complex

    def failures(self) -> list:
        """The checks this factorization fails, each with its value."""
        out = []
        if not self.factor_residual < 1e-8:
            out.append(f"factor_residual {self.factor_residual:.2e} "
                       f"(must be below 1e-8)")
        if not self.unit_residual < 1e-8:
            out.append(f"unit_residual {self.unit_residual:.2e} "
                       f"(must be below 1e-8)")
        if not self.r_root_min_modulus > 1 + 1e-9:
            out.append(f"smallest root modulus of r "
                       f"{self.r_root_min_modulus:.12g} (must exceed 1)")
        if not (abs(self.f0.imag) < 1e-10 and self.f0.real > 0):
            out.append(f"f(0) = {self.f0:.3g} (must be real and positive)")
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


def trig_data(p, q, n: int = 64, cfg: Config = DEFAULT) -> TrigData:
    p, q = _trim(p), _trim(q)
    for root in np.roots(q[::-1]) if len(q) > 1 else []:
        if abs(root) < 1 - 1e-9:
            raise InnerRoot(f"q has root {root} inside the unit disc")
    r = fejer_riesz(p, q, cfg)
    m = cfg.circle_samples
    pv, qv, rv = (circle_samples(c, m) for c in (p, q, r))
    factor_residual = float(np.max(np.abs(np.abs(pv) ** 2 + np.abs(qv) ** 2
                                          - np.abs(rv) ** 2)))
    fv, gv = qv / rv, pv / rv
    unit_residual = float(np.max(np.abs(np.abs(fv) ** 2 + np.abs(gv) ** 2 - 1)))
    rroots = np.roots(r[::-1]) if len(r) > 1 else np.array([np.inf])
    f0 = complex(npoly.polyval(0.0, q) / npoly.polyval(0.0, r))
    return TrigData(p, q, r, n, factor_residual, unit_residual,
                    float(np.min(np.abs(rroots))), f0)


# -- truncations ----------------------------------------------------------------

# the smallest truncation the toeplitz command reports, and the largest
# any truncation may have (three N x N arrays, ~400 MB at the cap)
TOEPLITZ_MIN_N = 8
TOEPLITZ_MAX_N = 4096


def check_truncation_size(n: int, lo: int = 2) -> int:
    """n if lo <= n <= TOEPLITZ_MAX_N; refused with ValueError before
    anything is allocated otherwise."""
    if not lo <= n <= TOEPLITZ_MAX_N:
        raise ValueError(f"truncation size must be between {lo} and "
                         f"{TOEPLITZ_MAX_N}, got {n}")
    return n


def toeplitz_truncation(symbol_values: np.ndarray, n: int) -> np.ndarray:
    """N x N Toeplitz matrix T[j,k] = φ̂(j-k) from circle samples of φ."""
    if n < 2:
        raise ValueError("truncation size must be at least 2")
    m = len(symbol_values)
    if m < 8 * n:
        raise ValueError("need at least 8N circle samples")
    coeffs = np.fft.fft(symbol_values) / m
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % m
    return coeffs[idx]


# A double root of |p|² + |q|² is found only to about √eps, so an
# imaginary part of r above that is not rounding
_REAL_FACTOR_TOL = float(np.sqrt(np.finfo(float).eps))


@dataclass
class ToeplitzTriple:
    """Truncated transform triple; every entry with |j − k| > band is an
    exact zero."""

    a: np.ndarray
    a_star: np.ndarray
    b: np.ndarray
    n: int
    band: int

    def interior_residuals(self) -> dict:
        """AB-axiom residuals restricted to the central N/2 block c.

        Only that block of each product is formed, (XY)[c, c] =
        X[c, w] Y[w, c], and the contraction runs over the window w =
        [N/4 − band, 3N/4 + band) ∩ [0, N) alone: outside it the entries
        of X[c, :] and Y[:, c] are exact zeros.  Each residual is the
        exact spectral norm of its block.
        """
        n = self.n
        c = slice(n // 4, n // 4 + n // 2)
        w = slice(max(0, c.start - self.band), min(n, c.stop + self.band))
        a, s, b = self.a, self.a_star, self.b
        bh_c = b[w, c].conj().T          # (b*)[c, w]
        bh_rows = b[c, w].conj().T       # (b*)[w, c]
        return {
            "bstar_b": float(np.linalg.norm(
                bh_c @ b[w, c] - (a[c, c] - a[c, w] @ a[w, c]), 2)),
            "b_bstar": float(np.linalg.norm(
                b[c, w] @ bh_rows - (s[c, c] - s[c, w] @ s[w, c]), 2)),
            "intertwine": float(np.linalg.norm(
                a[c, w] @ bh_rows - bh_c @ s[w, c], 2)),
        }


def _taylor(num: np.ndarray, den: np.ndarray, n: int) -> np.ndarray:
    """First n Taylor coefficients of num/den at 0 by power-series
    division, c_k = (num_k − Σ_{i≥1} den_i c_{k−i}) / den_0, in the field
    of num and den.  The recurrence is stable when den has no zero in the
    closed disc: the c_k then decay geometrically.

    Coefficients below the rounding of the largest one are set to 0.  No
    matrix entry they feed changes beyond rounding, and left in, their
    products reach subnormal numbers, which make the dense products of
    ``interior_residuals`` several times slower.  The exact zeros also
    bound the band of the triple.
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


def _analytic_product(u: np.ndarray, v: np.ndarray, band: int) -> np.ndarray:
    """N x N truncation of T_u T_v̄ for analytic u, v from their first N
    Fourier coefficients: X[j+1, k+1] = X[j, k] + u[j+1]·conj(v[k+1]),
    starting from the first row and column of the outer product.  u and v
    vanish past index ``band``, so only |j − k| ≤ band is summed; the
    outer product is already an exact zero elsewhere."""
    n = len(u)
    x = np.multiply.outer(u, v.conj())
    for j in range(1, n):
        lo, hi = max(1, j - band), min(n, j + band + 1)
        x[j, lo:hi] += x[j - 1, lo - 1 : hi - 1]
    return x


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

    f and g are analytic, so T_f and T_g are lower triangular and each
    product is a running sum along the diagonals of the outer product of
    two coefficient vectors (see the module docstring), from the first N
    Taylor coefficients of f and g.  No dense T_f, T_g or N³ product is
    formed.  The triple is float64 for real p and q and complex128
    otherwise, and it is stored with its band: the last nonzero index of
    f̂ or ĝ.  A factorization that fails ``TrigData.ok`` raises
    FactorizationFailed.
    """
    check_truncation_size(n)
    data = trig_data(p, q, n, cfg)
    p, q, r = _symbol_field(data)
    data.require_ok()
    fhat = _taylor(q, r, n)
    ghat = _taylor(p, r, n)
    # f̂_0 = q(0)/r(0) > 0, so the band is well defined
    band = int(np.flatnonzero((fhat != 0) | (ghat != 0))[-1])
    a_star = _analytic_product(ghat, ghat, band)
    np.negative(a_star, out=a_star)
    a_star.flat[:: n + 1] += 1.0
    return ToeplitzTriple(_analytic_product(fhat, fhat, band), a_star,
                          _analytic_product(ghat, fhat, band), n, band)


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
    p, q = _trim(p), _trim(q)
    data = trig_data(p, q, cfg=cfg)
    data.require_ok()
    qroots = np.roots(q[::-1]) if len(q) > 1 else np.array([])
    circle = [complex(z) for z in qroots
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
