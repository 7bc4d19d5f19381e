"""Unbounded Toeplitz operators with rational symbol p/q.

For coprime polynomials p, q with q zero-free in the open unit disc,
|p|² + |q|² is strictly positive on the circle and factors as |r|² with
r zero-free in the closed disc (spectral factorization).  With f = q/r
and g = p/r the transform elements of T_{p/q} are Toeplitz products

    a = T_f T_f̄,   a_* = 1 - T_g T_ḡ,   b = T_g T_f̄,

all inside the Toeplitz algebra, so the operator is always *associated*.
It is *affiliated* precisely when q has no zero on the circle; a zero
λ there is witnessed by the character T_φ + K ↦ φ(λ), which kills
|f(λ)|² and with it the density of a·T.

* **Exact verdicts.**  Whether p and q share a root, whether q has a
  root inside the disc and which roots it has on the circle are decided
  over ℚ(i), on the exact values of the binary64 coefficients: Euclid's
  algorithm for the gcd, the Schur–Cohn recursion for the disc and a
  Sturm sequence after the Cayley map for the circle (Henrici, *Applied
  and Computational Complex Analysis* I, §6.8; Marden, *Geometry of
  Polynomials*).  No tolerance enters a verdict.
* **Factorization without roots.**  r comes from Wilson's Newton
  iteration on the Laurent coefficients of |p|² + |q|² (Wilson, SIAM
  J. Numer. Anal. 6, 1969), after p and q are scaled together by a power
  of two, so that nothing squared overflows.  It runs in the field of p
  and q: for a real symbol r, f̂, ĝ and the whole triple are real.
  Complex symbols give a complex triple.

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

Truncations only converge strongly, so matrix identities are always
measured on the central block with a decay-in-N requirement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as npoly

from . import gaussian as gq
from .config import DEFAULT, Config
from .errors import FactorizationFailed, InnerRoot, NotCoprime
from .gaussian import Gaussian
from .transforms import _require_finite, opnorm


def _trim(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    nz = np.nonzero(np.abs(c) > 0)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


# -- exact decisions over ℚ(i) ------------------------------------------------------

# polynomials here are lists of Gaussian coefficients, as in ``gaussian``


def _rounded(a: list, real: bool) -> np.ndarray:
    """The nearest binary64 values, as a real array when ``real``."""
    out = np.array([complex(c) for c in a])
    return out.real if real else out


def _lagged(a: list, k: int) -> Gaussian:
    """Σ_j a_{j+k}·conj(a_j): coefficient k of a(z)·conj(a(1/z̄))."""
    total = gq.ZERO
    for x, y in zip(a[k:], a):
        total = total + x * y.conjugate()
    return total


def check_coprime(p, q) -> None:
    """NotCoprime unless the gcd of p and q over ℚ(i) is a constant."""
    if len(gq.gcd(gq.exact(_trim(p)), gq.exact(_trim(q)))) > 1:
        raise NotCoprime("p and q share a root: their gcd is not a constant")


def _reaches_the_disc(f: list) -> bool:
    """Whether f ≠ 0 has a root in the closed unit disc, by the Schur–Cohn
    recursion (Henrici §6.8) on monic f.  While |f(0)| > 1, the transform
    Tf = conj(f(0))·f − f̃, f̃(z) = zⁿ·conj(f(1/z̄)), has a lower degree
    and, by Rouché on the circle, where |f̃| = |f|, the roots of f there
    and as many inside.  Once |f(0)| ≤ 1, the product of the root moduli
    is at most 1.  Each Tf is made monic in turn, which also keeps its
    coefficients from doubling in size."""
    f = gq.monic(f)
    while len(f) > 1:
        low = f[0]
        if low.a * low.a + low.b * low.b <= low.d * low.d:
            return True
        f = gq.monic(gq.trimmed([low.conjugate() * a - b.conjugate()
                             for a, b in zip(f, reversed(f))][:-1]))
    return False


def _times_linear(a: list, c) -> list:
    """a(w)·(w + c)."""
    return [c * a[0]] + [x + c * y for x, y in zip(a, a[1:])] + [a[-1]]


def _real_root_count(g: list) -> int:
    """The distinct real roots of g ≠ 0 with real coefficients: the sign
    changes of its Sturm sequence at −∞ less those at +∞."""
    seq = [g, gq.derivative(g)]
    while seq[-1]:
        seq.append([-c for c in gq.divide(seq[-2], seq[-1])[1]])
    seq.pop()

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return (changes([(s[-1].a > 0) == (len(s) % 2 == 1) for s in seq])
            - changes([s[-1].a > 0 for s in seq]))


def _circle_root_count(h: list) -> int:
    """The distinct roots of the square-free h on the unit circle.

    The Cayley map z = (w − i)/(w + i) takes the real line onto the
    circle less 1, so those roots other than 1 are the real roots of
    H(w) = (w + i)^m·h(z), m = deg h, which are those of gcd(Re H, Im H).
    A root at z = 1 is w = ∞: H has degree m − 1 then.
    """
    i, minus_i = Gaussian(0, 1), Gaussian(0, -1)
    # Horner in z: H = Σ_k h_k (w − i)^k (w + i)^(m−k)
    acc, power = [h[-1]], [gq.ONE]
    for c in reversed(h[:-1]):
        power = _times_linear(power, i)
        acc = [x + c * y for x, y in zip(_times_linear(acc, minus_i), power)]
    acc = gq.trimmed(acc)
    common = gq.gcd([Gaussian(c.a, 0, c.d) for c in acc],
                    [Gaussian(c.b, 0, c.d) for c in acc])
    return _real_root_count(common) + len(h) - len(acc)


def _circle_roots(q) -> np.ndarray:
    """The distinct roots of q on the unit circle; InnerRoot if q has a
    root inside the open disc.

    With q̃(z) = zⁿ·conj(q(1/z̄)), n = deg q, the roots of g = gcd(q, q̃)
    are those λ of q with 1/λ̄ a root too: the circle roots, with their
    multiplicity in q, and the pairs λ, 1/λ̄.  So q/g has no root on the
    circle, and the Schur–Cohn recursion decides whether it has one
    inside.  The roots of the square-free part h = g/gcd(g, g′) off the
    circle come in pairs λ, 1/λ̄, one of each inside, so h has one inside
    exactly when its circle roots number fewer than deg h; otherwise
    they are all its roots, and ``np.roots`` finds them for the report.
    """
    q = gq.exact(_trim(q))
    g = gq.gcd(q, [c.conjugate() for c in reversed(q)])
    if _reaches_the_disc(gq.divide(q, g)[0]):
        raise InnerRoot("q has a root inside the unit disc")
    h = gq.divide(g, gq.gcd(g, gq.derivative(g)))[0]
    if _circle_root_count(h) < len(h) - 1:
        raise InnerRoot("q has a root λ inside the unit disc, and one at "
                        "1/conj(λ)")
    return np.roots(_rounded(h[::-1], real=not any(c.b for c in h)))


# -- spectral factorization ------------------------------------------------------


def _pair(entry: str, p, q, cfg: Config) -> tuple:
    """p and q trimmed, as real arrays when no coefficient has an
    imaginary part and as complex ones otherwise.  A coefficient that is
    inf or NaN is refused with NonFiniteValue naming ``entry``; q = 0 and
    a degree above ``max_poly_degree`` with ValueError."""
    _require_finite(entry, p, q)
    p, q = _trim(p), _trim(q)
    if not np.any(q):
        raise ValueError("q is the zero polynomial, so p/q is nowhere defined")
    d = max(len(p), len(q)) - 1
    if d > cfg.max_poly_degree:
        raise ValueError(f"degree {d} exceeds the cap {cfg.max_poly_degree}")
    if np.any(p.imag) or np.any(q.imag):
        return p, q
    return p.real, q.real


def _scale(p: np.ndarray, q: np.ndarray) -> int:
    """e with every coefficient part of p and q below 2^e in modulus, and
    one at least 2^(e−1)."""
    top = max(np.abs(a.view(np.float64)).max() for a in (p, q))
    return int(np.frexp(top)[1])


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """a·2^e: exact while the parts stay normal numbers."""
    return np.ldexp(a.view(np.float64), e).view(a.dtype)


# Wilson's iteration stops once a step moves r by at most NEWTON_STOP of
# its largest coefficient, or after NEWTON_MAX_STEPS steps; the
# unit_residual gate then judges the factor it reached
NEWTON_STOP = 1e-12
NEWTON_MAX_STEPS = 100


def _wilson(c: list, real: bool) -> np.ndarray:
    """The r, zero-free in the closed disc, with Σ_j r_{j+k}·conj(r_j) =
    c_k for the exact c_0, ..., c_d, by Wilson's Newton iteration.

    From the constant √c_0 each step adds to r the δ with
    r·δ̃ + δ·r̃ = c − r·r̃, δ̃(z) = conj(δ(1/z̄)), and every iterate stays
    zero-free in the closed disc.  The right side is computed exactly and
    rounded once: rounded Laurent coefficients would miss |p|² + |q|²
    where it is small against c_0.  Coefficient k of the left side is
    (T δ)_k + (H δ̄)_k, with T[k, m] = conj(r_{m−k}) and H[k, j] =
    r_{j+k}; with its conjugate it is one system of size 2(d + 1) in
    (δ, δ̄), real for a real symbol.  The conjugate of equation 0 is
    equation 0 again, so its row instead keeps r(0) real, the phase that
    both leave free.
    """
    d = len(c) - 1
    k = np.arange(d + 1)
    lag, span = k[None, :] - k[:, None], k[None, :] + k[:, None]
    r = np.zeros(d + 1, dtype=float if real else complex)
    r[0] = np.sqrt(_rounded(c[:1], real=True)[0])
    for _ in range(NEWTON_MAX_STEPS):
        exact = gq.exact(r)
        miss = _rounded([c[j] - _lagged(exact, j) for j in k], real)
        padded = np.concatenate([r, np.zeros_like(r)])  # r_j = 0 past d
        toe, hank = padded[lag].conj(), padded[span]
        system = np.block([[toe, hank], [hank.conj(), toe.conj()]])
        known = np.concatenate([miss, miss.conj()])
        system[d + 1], known[d + 1] = 0, 0
        system[d + 1, 0], system[d + 1, d + 1] = 1, -1
        delta = np.linalg.solve(system, known)[: d + 1]
        r = r + delta
        if np.abs(delta).max() <= NEWTON_STOP * np.abs(r).max():
            break
    return r


def fejer_riesz(p, q, cfg: Config = DEFAULT) -> np.ndarray:
    """Spectral factor r with |p|²+|q|² = |r|² on the circle.

    r has the Laurent degree of |p|²+|q|², at most max(deg p, deg q), no
    zeros in the closed unit disc, and the phase that makes q(0)/r(0) >
    0 (r(0) > 0 if q(0) = 0).  Its coefficients are complex, with zero
    imaginary parts for a real symbol.  p and q must be coprime
    (NotCoprime otherwise), so that |p|²+|q|² > 0 on the circle.  A
    coefficient that is inf or NaN is refused with NonFiniteValue.
    """
    p, q = _pair("fejer_riesz", p, q, cfg)
    check_coprime(p, q)
    e = _scale(p, q)
    p, q = _ldexp(p, -e), _ldexp(q, -e)
    # the Laurent coefficients c_k = Σ_j a_{j+k} conj(a_j) of p p̃ + q q̃,
    # exactly, for k = 0..d (c_{−k} = conj(c_k))
    exact = gq.exact(p), gq.exact(q)
    c = [_lagged(exact[0], k) + _lagged(exact[1], k)
         for k in range(max(len(p), len(q)))]
    # c_d vanishes when no coefficient pair spans the full degree (p = z/2
    # over q = 1, say): |p|²+|q|² then has a lower Laurent degree, and so
    # has r.  c_0 = ‖p‖² + ‖q‖² > 0 bounds every |c_k|, so a c_k below its
    # rounding is no degree either
    rounded = np.abs(_rounded(c, real=False))
    top = int(np.flatnonzero(rounded > np.finfo(float).eps * rounded[0])[-1])
    r = _wilson(c[: top + 1], real=not np.iscomplexobj(p))
    # r(0) is set by the mean of |p|²+|q|² over |r|² on the circle
    m = cfg.circle_samples
    lvals = np.abs(circle_samples(p, m)) ** 2 + np.abs(circle_samples(q, m)) ** 2
    shape = r / r[0]
    gamma = np.sqrt(np.mean(lvals / np.abs(circle_samples(shape, m)) ** 2))
    # q(0) = 0 is a root inside the disc, which leaves the phase free
    phase = q[0] / abs(q[0]) if q[0] else 1.0
    return _ldexp((shape * gamma * phase).astype(complex), e)


# The gates of TrigData.failures: the largest residual of |p|² + |q|² =
# |r|² on the circle relative to |r|², and how far past 1 the smallest
# root modulus of r must lie.
UNIT_RESIDUAL_GATE = 1e-8
R_ROOT_MARGIN = 1e-9


@dataclass
class TrigData:
    """Validated factorization data for T_{p/q}, with the distinct roots
    of q on the circle."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    circle_roots: np.ndarray
    factor_residual: float
    unit_residual: float
    r_root_min_modulus: float

    def failures(self) -> list:
        """The checks this factorization fails, each with its value."""
        out = []
        if not self.unit_residual < UNIT_RESIDUAL_GATE:
            out.append(f"unit_residual {self.unit_residual:.2e} "
                       f"(must be below {UNIT_RESIDUAL_GATE:g})")
        if not self.r_root_min_modulus > 1 + R_ROOT_MARGIN:
            out.append(f"smallest root modulus of r "
                       f"{self.r_root_min_modulus:.12g} "
                       f"(must exceed 1 + {R_ROOT_MARGIN:g})")
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
    distinct roots of q on the circle.  Decided exactly, in this order:
    NotCoprime when p and q share a root, InnerRoot when q has a root
    inside the open disc.  A coefficient that is inf or NaN is refused
    with NonFiniteValue.

    Both residuals are read on p, q and r scaled by 2^−e, with 2^e the
    least power of two above every coefficient part, so that nothing
    squared overflows: ``factor_residual`` is the largest |(|p|² + |q|²)
    − |r|²| on the circle, relative to 4^e, and ``unit_residual`` the
    same relative to |r|².
    """
    p, q = _pair("trig_data", p, q, cfg)
    # fejer_riesz decides NotCoprime first; the Newton steps it then
    # takes cost about a tenth of that gcd, so an InnerRoot found after
    # them wastes little
    r = fejer_riesz(p, q, cfg)
    circle = _circle_roots(q)
    e = _scale(p, q)
    m = cfg.circle_samples
    pv, qv, rv = (circle_samples(_ldexp(a, -e), m) for a in (p, q, r))
    miss = np.abs(np.abs(pv) ** 2 + np.abs(qv) ** 2 - np.abs(rv) ** 2)
    return TrigData(p, q, r, circle,
                    float(miss.max()),
                    float(np.max(miss / np.abs(rv) ** 2)),
                    float(np.min(np.abs(np.roots(r[::-1])), initial=np.inf)))


def circle_samples(coeffs, m: int) -> np.ndarray:
    z = np.exp(2j * np.pi * np.arange(m) / m)
    return npoly.polyval(z, _trim(coeffs))


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


# 2^64 tail terms: past the decay of every root of r that TrigData.ok
# admits (a root just outside its gate needs about 40 doublings)
_MAX_DOUBLINGS = 64

# the Taylor coefficients past deg num come in blocks of this many, one
# matrix product each
TAYLOR_BLOCK = 64


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

    Past deg num the recurrence is homogeneous, so each of the next
    TAYLOR_BLOCK coefficients is a fixed combination of the d = deg den
    before them: row i of ``step`` is the recurrence run i + 1 times from
    each unit window, and one matrix product gives a whole block.  Whole
    blocks are computed and then cut to n, so the leading coefficients do
    not depend on n.

    Coefficients below the rounding of the largest one are set to 0.  No
    matrix entry or residual they feed changes beyond rounding; the exact
    zeros bound the band of the triple and the lags of
    ``interior_residuals``, and keep the products of the far tail from
    reaching subnormal numbers.
    """
    d = len(den) - 1
    dtype = np.result_type(num, den)
    tail = den[:0:-1]                     # den_d, ..., den_1
    blocks = -(-max(n - len(num), 0) // TAYLOR_BLOCK)
    c = np.zeros(d + len(num) + blocks * TAYLOR_BLOCK, dtype=dtype)
    for k in range(len(num)):             # c[d + k] = c_k; c_{-d..-1} = 0
        c[d + k] = (num[k] - tail @ c[k : d + k]) / den[0]
    unit = np.zeros((d + TAYLOR_BLOCK, d), dtype=dtype)
    unit[:d] = np.eye(d)
    for k in range(TAYLOR_BLOCK):
        unit[d + k] = -(tail @ unit[k : d + k]) / den[0]
    step = unit[d:]
    for k in range(d + len(num), len(c), TAYLOR_BLOCK):
        c[k : k + TAYLOR_BLOCK] = step @ c[k - d : k]
    c = c[d:]
    c[np.abs(c) < np.finfo(float).eps * np.abs(c).max()] = 0.0
    return c[:n]


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
    return aab_from_data(trig_data(p, q, cfg), n)


def aab_from_data(data: TrigData, n: int) -> ToeplitzTriple:
    """The triple of ``toeplitz_aab`` from a factorization already made,
    as ``affiliation_verdict`` reports it in ``data``."""
    data.require_ok()
    p, q = data.p, data.q
    # the factor of a real symbol has zero imaginary parts
    r = data.r if np.iscomplexobj(q) else data.r.real
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
    and so does a factorization that fails ``TrigData.ok``; each distinct
    circle root λ of q gets the character witness |f(λ)|² ≈ 0.
    """
    data = trig_data(p, q, cfg)
    data.require_ok()
    circle = [complex(z) for z in data.circle_roots]
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
