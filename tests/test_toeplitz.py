import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from graphreg import toeplitz
from graphreg.errors import (
    FactorizationFailed,
    InnerRoot,
    NonFiniteValue,
    NotCoprime,
)
from graphreg.toeplitz import (
    TOEPLITZ_MAX_N,
    Verdict,
    affiliation_verdict,
    check_coprime,
    check_truncation_size,
    circle_samples,
    fejer_riesz,
    toeplitz_aab,
    trig_data,
)

RNG = np.random.default_rng(31337)


def random_instance(rng, max_deg=6):
    """Random coprime (p, q) with q outer (all roots outside the circle)."""
    dp = int(rng.integers(0, max_deg + 1))
    dq = int(rng.integers(0, max_deg + 1))
    p = rng.standard_normal(dp + 1) + 1j * rng.standard_normal(dp + 1)
    q = np.array([1.0 + 0j])
    for _ in range(dq):
        root = (1.1 + rng.random()) * np.exp(2j * np.pi * rng.random())
        q = npoly.polymul(q, np.array([1.0, -1.0 / root]))
    return p, q


# -- factorization ------------------------------------------------------------


def test_trivial_factorization():
    r = fejer_riesz([0.0], [1.0])
    assert np.allclose(r, [1.0])


@pytest.mark.parametrize("p, q", [
    ([0.0, 0.5], [1.0]), ([3.0], [5.0]), ([0.6], [-0.8]), ([0.3j], [2.0]),
    ([0.0, 0.0, 1.0], [-2.0 + 1.0j]), ([0.0], [1.0 - 1.0j]),
])
def test_constant_factor_is_sqrt_c0_times_the_phase_of_q0(p, q):
    # |p|² + |q|² is the constant c₀ = ‖p‖² + ‖q‖² on the circle, so r =
    # √c₀·q(0)/|q(0)|, bit for bit, with c₀ exact and rounded once
    q0 = complex(q[0])
    c0 = sum(Fraction(complex(a).real) ** 2 + Fraction(complex(a).imag) ** 2
             for a in p + q)
    r = fejer_riesz(p, q)
    assert r.dtype == complex
    assert np.array_equal(r, [math.sqrt(c0) * (q0 / abs(q0))])


def test_golden_ratio_instance():
    # oracle: |r|^2 = 3 - 2cosθ means r = c(1 - βz) with β + 1/β = 3,
    # i.e. β the root of β² - 3β + 1 = 0 inside (0,1), c = β^{-1/2}
    beta = (3 - np.sqrt(5)) / 2
    c = beta ** -0.5
    r = fejer_riesz([1.0], [1.0, -1.0])
    assert np.abs(r - np.array([c, -c * beta])).max() < 1e-9


def test_random_battery_invariants():
    for k in range(30):
        p, q = random_instance(RNG)
        data = trig_data(p, q)
        assert data.factor_residual < 1e-8, k
        assert data.unit_residual < 1e-8, k
        assert data.r_root_min_modulus > 1 + 1e-9
        f0 = data.q[0] / data.r[0]
        assert f0.real > 0 and abs(f0.imag) < 1e-10


@pytest.mark.parametrize("p, q, degree", [
    ([0.0, 0.5], [1.0], 0),              # |z/2|² + 1 = 5/4 on the circle
    ([0.0, 0.0, 1.0], [2.0, -1.0], 1),   # |z²|² + |2 - z|² = |2 - z|² + 1
    # c_{±2} = 1.7e-86 lies below the rounding of c_0 = 3, which bounds them
    ([1.0, 1.0, 1.7e-86], [1.0], 1),
])
def test_factor_has_the_laurent_degree(p, q, degree):
    # the outer coefficients of p and q do not pair up, so |p|² + |q|²
    # has a lower Laurent degree than max(deg p, deg q)
    data = trig_data(p, q)
    assert len(data.r) == degree + 1
    assert data.factor_residual < 1e-12 and data.unit_residual < 1e-12
    assert data.ok


def test_coprime_guard():
    base = np.array([1.0, -0.5])
    with pytest.raises(NotCoprime):
        check_coprime(npoly.polymul(base, [1.0, 2.0]),
                      npoly.polymul(base, [3.0, 1.0]))


def test_degenerate_pair_rejected():
    # p = q: |p|^2+|q|^2 vanishes at the shared circle root 1
    with pytest.raises(NotCoprime):
        fejer_riesz([1.0, -1.0], [1.0, -1.0])


# -- truncation -----------------------------------------------------------------


def toeplitz_truncation(symbol_values: np.ndarray, n: int) -> np.ndarray:
    """N x N Toeplitz matrix T[j,k] = φ̂(j-k) from circle samples of φ: the
    dense oracle the structured triples are checked against."""
    if n < 2:
        raise ValueError("truncation size must be at least 2")
    m = len(symbol_values)
    if m < 8 * n:
        raise ValueError("need at least 8N circle samples")
    coeffs = np.fft.fft(symbol_values) / m
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % m
    return coeffs[idx]


def product(u, v):
    """N x N truncation of T_u T_v̄ for analytic u, v from their first N
    Fourier coefficients: running sums X[j+1, k+1] = X[j, k] + u_{j+1}·v̄_{k+1}
    along every diagonal of the outer product."""
    x = np.multiply.outer(u, v.conj())
    for j in range(1, len(u)):
        x[j, 1:] += x[j - 1, :-1]
    return x


def dense_triple(tri):
    """The dense a, a_* and b of a structured triple, from its stored
    Taylor coefficients: the oracle its closed forms are checked against."""
    f, g = tri.fhat[: tri.n], tri.ghat[: tri.n]
    return product(f, f), np.eye(tri.n) - product(g, g), product(g, f)


def test_truncation_constant_is_identity():
    t = toeplitz_truncation(np.ones(256, dtype=complex), 16)
    assert np.abs(t - np.eye(16)).max() < 1e-12


def test_truncation_z_is_shift():
    vals = circle_samples([0.0, 1.0], 256)
    t = toeplitz_truncation(vals, 16)
    assert np.abs(t - np.diag(np.ones(15), -1)).max() < 1e-12


def test_truncation_one_minus_z_bidiagonal():
    # hand Fourier coefficients: φ̂(0) = 1, φ̂(1) = -1, rest zero
    vals = circle_samples([1.0, -1.0], 256)
    t = toeplitz_truncation(vals, 4)
    expect = np.eye(4) - np.diag(np.ones(3), -1)
    assert np.abs(t - expect).max() < 1e-12


# -- transform triples -------------------------------------------------------------


def test_trivial_symbol_triple():
    a, _, b = dense_triple(toeplitz_aab([0.0], [1.0], 16))
    assert np.abs(a - np.eye(16)).max() < 1e-12
    assert np.abs(b).max() < 1e-12


def test_interior_residual_small_for_shift_symbol():
    tri = toeplitz_aab([1.0], [1.0, -1.0], 256)
    res = tri.interior_residuals()
    assert res["bstar_b"] < 1e-6  # far below: outer factor decays fast


def test_interior_residuals_decay_with_n():
    # near-degenerate instance keeps the truncation error visible
    prev = None
    for n in (64, 128, 256):
        res = toeplitz_aab([0.05], [1.0, -1.0], n).interior_residuals()
        if prev is not None:
            for key in res:
                assert res[key] < prev[key], (n, key)
        prev = res


@pytest.mark.parametrize("p, q", [
    ([1.0], [1.0, -1.0]), ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0]),
    ([0.05], [1.0, -1.0]),
])
def test_interior_residuals_match_full_product_slice(p, q):
    # reference: the six full N x N products, then the central N/2 block
    tri = toeplitz_aab(p, q, 64)
    a, s, b = dense_triple(tri)
    sl = (slice(16, 48), slice(16, 48))
    expect = {
        "bstar_b": np.linalg.norm((b.conj().T @ b - (a - a @ a))[sl], 2),
        "b_bstar": np.linalg.norm((b @ b.conj().T - (s - s @ s))[sl], 2),
        "intertwine": np.linalg.norm((a @ b.conj().T - b.conj().T @ s)[sl], 2),
    }
    got = tri.interior_residuals()
    assert got.keys() == expect.keys()
    for key, value in expect.items():
        assert abs(got[key] - value) <= 1e-14 * max(1.0, value), key


def test_resolvent_column_consistency():
    # B applied to interior basis vectors matches (I-S)^{-1} A there
    n = 128
    a, _, b = dense_triple(toeplitz_aab([1.0], [1.0, -1.0], n))
    shift = np.diag(np.ones(n - 1), -1)
    inv = np.linalg.inv(np.eye(n) - shift)
    for k in (3, n // 4, n // 2 - 1):
        assert np.linalg.norm(b[:, k] - inv @ a[:, k]) < 1e-10


# -- verdicts --------------------------------------------------------------------


def test_circle_root_gives_associated_only():
    rep = affiliation_verdict([1.0], [1.0, -1.0])
    assert rep.verdict is Verdict.ASSOCIATED_ONLY
    assert len(rep.witnesses) == 1
    assert rep.witnesses[0] < 1e-12


def test_outer_root_gives_affiliated():
    rep = affiliation_verdict([1.0], [1.0, -0.5])
    assert rep.verdict is Verdict.AFFILIATED


def test_polynomial_symbol_affiliated():
    rep = affiliation_verdict([2.0, 0.0, 1.0], [1.0])
    assert rep.verdict is Verdict.AFFILIATED


def test_inner_root_rejected():
    with pytest.raises(InnerRoot):
        affiliation_verdict([1.0], [1.0, -1.0 / 0.999])


# Gaussian-rational roots a/b, each entering as the integer factor b·z − a,
# so that every coefficient of a product is an exact binary64 integer:
# on the circle (|a| = b), inside it (|a| < b) and outside (|a| > b)
CIRCLE = [(1, 1), (-1, 1), (1j, 1), (-1j, 1),
          (3 + 4j, 5), (3 - 4j, 5), (-4 + 3j, 5), (-3 - 4j, 5)]
INSIDE = [(0, 1), (1, 2), (1j, 2), (1 + 1j, 2), (-1 - 1j, 3), (2j, 3), (-2, 3)]
OUTSIDE = [(2, 1), (-1 + 1j, 1), (1 + 2j, 1), (3, 2), (-2 - 1j, 2), (5j, 4),
           (1 + 1j, 1), (-3, 2)]     # the last two mirror (1 + i)/2 and -2/3


@st.composite
def rooted_pairs(draw):
    """p and q of degree at most 12 built from chosen roots, each of
    multiplicity at most 4, p sometimes sharing a root of q, and the
    verdict that the roots fix."""
    def roots(pool, most):
        chosen = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)),
                               max_size=most, unique_by=lambda t: t[0]))
        kept, degree = {}, 0
        for root, mult in chosen:
            if degree + mult <= 12:
                kept[root], degree = mult, degree + mult
        return kept

    q_roots = roots(CIRCLE + INSIDE + OUTSIDE, 5)
    p_roots = roots([z for z in CIRCLE + INSIDE + OUTSIDE if z not in q_roots], 3)
    if q_roots and draw(st.integers(0, 3)) == 0:
        p_roots = dict(list(p_roots.items())[:-1])
        p_roots[draw(st.sampled_from(sorted(q_roots, key=str)))] = 1

    def poly(roots):
        # scaled by a power of two, exactly, to coefficients of modulus
        # about 1: the integer factors alone would put 5^12 between p and q
        out = np.array([draw(st.sampled_from([1.0, -2.0, 3j]))])
        for (a, b), mult in roots.items():
            out = npoly.polymul(out, npoly.polypow([-a, b], mult))
        return out * 2.0 ** -np.frexp(np.abs(out).max())[1]

    circle = sorted((a / b for a, b in set(q_roots) & set(CIRCLE)), key=str)
    if set(p_roots) & set(q_roots):
        expect = "NotCoprime"
    elif set(q_roots) & set(INSIDE):
        expect = "InnerRoot"
    elif circle:
        expect = ("AssociatedOnly", circle)
    else:
        expect = ("Affiliated", [])
    return poly(p_roots), poly(q_roots), expect


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=rooted_pairs())
def test_verdict_follows_the_roots(pair):
    p, q, expect = pair
    try:
        rep = affiliation_verdict(p, q)
    except (NotCoprime, InnerRoot) as err:
        assert type(err).__name__ == expect
        return
    verdict, circle = expect
    assert rep.verdict.value == verdict
    # each distinct circle root once, found from the square-free part
    assert len(rep.circle_roots) == len(circle)
    for root in circle:
        assert min(abs(z - root) for z in rep.circle_roots) < 1e-12


@pytest.mark.parametrize("q, verdict", [
    # 1/2 and its mirror 2: both are roots of gcd(q, q̃), none of q/gcd
    (npoly.polymul([1.0, -2.0], [2.0, -1.0]), "InnerRoot"),
    (npoly.polymul(npoly.polypow([1.0, -2.0], 2), [2.0, -1.0]), "InnerRoot"),
    # the triple root 1 is one circle root, and no inner one
    (npoly.polypow([1.0, -1.0], 3), ("AssociatedOnly", [1.0])),
    (npoly.polymul(npoly.polypow([1.0, 1.0], 2), [0.0, 1.0]), "InnerRoot"),
    # a real q with the circle roots ±i
    (npoly.polypow([1.0, 0.0, 1.0], 2), ("AssociatedOnly", [-1j, 1j])),
], ids=["(1-2z)(2-z)", "(1-2z)^2(2-z)", "(1-z)^3", "z(1+z)^2", "(1+z^2)^2"])
def test_roots_of_gcd_with_the_mirror(q, verdict):
    try:
        rep = affiliation_verdict([1.0], q)
        got = (rep.verdict.value,
               sorted(rep.circle_roots, key=lambda z: (z.imag, z.real)))
    except InnerRoot:
        got = "InnerRoot"
    assert got == verdict


def test_verdict_stability_under_radial_perturbation():
    base = affiliation_verdict([1.0], [1.0, -1.0])
    assert base.verdict is Verdict.ASSOCIATED_ONLY
    outward = affiliation_verdict([1.0], [1.0, -1.0 / 1.001])
    assert outward.verdict is Verdict.AFFILIATED
    with pytest.raises(InnerRoot):
        affiliation_verdict([1.0], [1.0, -1.0 / 0.999])


def test_truncation_size_bound():
    with pytest.raises(ValueError):
        toeplitz_truncation(np.ones(64, dtype=complex), 1)


@pytest.mark.parametrize("p, q", [
    ([1.0], [1.0, -1.0]),                       # 1/(1-z)
    ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0]),       # zeros of q at 2 and -3
    ([1.0, 0.0, 1.0], [3.0, -2.0, -1.0]),       # (1+z²)/((1-z)(3+z))
    ([0.5 + 1.0j, 0.3], [1.0, 0.4j]),           # complex coefficients
], ids=["one_over_one_minus_z", "affiliated", "circle_and_outer_zero", "complex"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_structured_triple_matches_dense_products(p, q, n):
    # reference: the four dense truncations and their three N³ products
    data = trig_data(p, q)
    m = 8 * n
    rv = circle_samples(data.r, m)
    fv = circle_samples(data.q, m) / rv
    gv = circle_samples(data.p, m) / rv
    tf, tfb = toeplitz_truncation(fv, n), toeplitz_truncation(np.conj(fv), n)
    tg, tgb = toeplitz_truncation(gv, n), toeplitz_truncation(np.conj(gv), n)
    a, s, b = dense_triple(toeplitz_aab(p, q, n))
    assert np.abs(a - tf @ tfb).max() < 1e-13
    assert np.abs(s - (np.eye(n) - tg @ tgb)).max() < 1e-13
    assert np.abs(b - tg @ tfb).max() < 1e-13


def test_triple_size_bound():
    with pytest.raises(ValueError):
        toeplitz_aab([1.0], [1.0, -1.0], 1)


def test_triple_coefficients_do_not_alias():
    # r has a root at about 1.05, so the coefficients of q/r and p/r decay
    # like 1.05^-k; sampling the circle at 8N points would fold f̂(d + 8N)
    # into f̂(d).  2^16 samples make that fold negligible.
    p, q, n = [0.05], [1.0, -1.0], 16
    data = trig_data(p, q)
    m = 2 ** 16
    rv = circle_samples(data.r, m)
    fv = circle_samples(data.q, m) / rv
    gv = circle_samples(data.p, m) / rv
    tf, tfb = toeplitz_truncation(fv, n), toeplitz_truncation(np.conj(fv), n)
    tg, tgb = toeplitz_truncation(gv, n), toeplitz_truncation(np.conj(gv), n)
    a, s, b = dense_triple(toeplitz_aab(p, q, n))
    assert np.abs(a - tf @ tfb).max() < 1e-14
    assert np.abs(s - (np.eye(n) - tg @ tgb)).max() < 1e-14
    assert np.abs(b - tg @ tfb).max() < 1e-14


@pytest.mark.parametrize("p, q", [([1.0], [1.0, -1.0]),
                                  ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0])])
def test_triple_has_no_subnormal_entries(p, q):
    # the coefficients decay geometrically; left unflushed, their far tail
    # and its products are subnormal, which slows every product of them
    tri = toeplitz_aab(p, q, 1024)
    tiny = np.finfo(float).tiny
    for coeffs in (tri.fhat, tri.ghat):
        parts = np.abs(np.concatenate([coeffs.real, coeffs.imag]))
        assert not np.any((parts > 0) & (parts < tiny))


# -- field and band ----------------------------------------------------------------

SYMBOLS = [
    ([1.0], [1.0, -1.0]),
    ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0]),
    ([1.0, 0.0, 1.0], [3.0, -2.0, -1.0]),
    ([0.5 + 1.0j, 0.3], [1.0, 0.4j]),
]
SYMBOL_IDS = ["one_over_one_minus_z", "affiliated", "circle_and_outer_zero",
              "complex"]


def complex_triple(p, q, n):
    """The complex construction: complex Taylor coefficients of q/r and
    p/r (rounding-level coefficients flushed) and full running sums along
    every diagonal of their outer products."""
    data = trig_data(p, q)

    def taylor(num, den):
        d = len(den) - 1
        rhs = np.zeros(n, dtype=complex)
        rhs[: min(n, len(num))] = num[:n]
        c = np.zeros(d + n, dtype=complex)
        for k in range(n):
            c[d + k] = (rhs[k] - den[:0:-1] @ c[k : d + k]) / den[0]
        c = c[d:]
        c[np.abs(c) < np.finfo(float).eps * np.abs(c).max()] = 0.0
        return c

    fhat, ghat = taylor(data.q, data.r), taylor(data.p, data.r)
    return (product(fhat, fhat), np.eye(n) - product(ghat, ghat),
            product(ghat, fhat))


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
def test_triple_field_follows_the_symbol(p, q):
    tri = toeplitz_aab(p, q, 32)
    real = not np.iscomplexobj(p) and not np.iscomplexobj(q)
    expect = np.float64 if real else np.complex128
    for coeffs in (tri.fhat, tri.ghat, tri.tail):
        assert coeffs.dtype == expect


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("n", [16, 64, 256])
def test_triple_matches_complex_construction(p, q, n):
    tri = toeplitz_aab(p, q, n)
    for got, want in zip(dense_triple(tri), complex_triple(p, q, n)):
        assert np.abs(got - want).max() < 1e-15


def band(tri):
    """The last nonzero index of f̂ or ĝ below n."""
    return int(np.flatnonzero((tri.fhat[: tri.n] != 0)
                              | (tri.ghat[: tri.n] != 0))[-1])


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("n", [64, 256])
def test_triple_vanishes_outside_its_band(p, q, n):
    # every product of the generators is then zero for |j − k| > band
    tri = toeplitz_aab(p, q, n)
    for coeffs in (tri.fhat, tri.ghat):
        assert np.all(coeffs[band(tri) + 1 : n] == 0)


def test_band_trims_the_window_at_moderate_n():
    # the coefficients of 1/(1-z) reach rounding after about 37 terms, so
    # at N = 256 the contraction window is shorter than N
    tri = toeplitz_aab([1.0], [1.0, -1.0], 256)
    assert 0 < band(tri) < 256 // 4


@pytest.mark.parametrize("p, q", [
    ([1.0], [1.0, -1.0]), ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0]),
    ([0.5 + 1.0j, 0.3], [1.0, 0.4j]),
    ([0.05], [1.0, -1.0]),            # band past N: the window is everything
], ids=["one_over_one_minus_z", "affiliated", "complex", "near_degenerate"])
@pytest.mark.parametrize("n", [256, 1024])
def test_banded_residuals_match_full_product_slice(p, q, n):
    tri = toeplitz_aab(p, q, n)
    a, s, b = dense_triple(tri)
    bh = b.conj().T
    sl = (slice(n // 4, 3 * n // 4),) * 2
    expect = {
        "bstar_b": np.linalg.norm((bh @ b - (a - a @ a))[sl], 2),
        "b_bstar": np.linalg.norm((b @ bh - (s - s @ s))[sl], 2),
        "intertwine": np.linalg.norm((a @ bh - bh @ s)[sl], 2),
    }
    got = tri.interior_residuals()
    # the dense products of the stored coefficients differ from the exact
    # defect by L_f T_n(e) L_f*, e = |f|² + |g|² − 1 of the computed factor,
    # whose norm is at most sup|e|: 1.2e-14 at N = 256 and 1.3e-14 at
    # N = 1024 on the near-degenerate symbol, whose unit residual is 3.3e-14
    floor = trig_data(p, q).unit_residual if p == [0.05] else 0.0
    for key, value in expect.items():
        assert abs(got[key] - value) <= floor + 1e-14 * max(1.0, value), key


def test_real_triple_peak_memory():
    # three float64 1024 x 1024 arrays are 25 MB; the complex triple and
    # its temporaries peaked at about 59 MB
    tracemalloc.start()
    try:
        toeplitz_aab([1.0], [1.0, -1.0], 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_complex_residuals_peak_memory():
    # the triple holds its generators and each residual comes from thin
    # n x 2d factors; the dense complex triple at N = 4096 and its residual
    # blocks peaked at about 768 MiB
    tracemalloc.start()
    try:
        tri = toeplitz_aab([0.5 + 1.0j, 0.3], [1.0, 0.4j], 4096)
        for n in (1024, 2048, 4096):
            tri.interior_residuals(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def full_product_residuals(tri):
    """The residuals from the six full N x N products of the dense triple,
    on the central block that ``interior_residuals`` reads."""
    a, s, b = dense_triple(tri)
    bh = b.conj().T
    c = slice(tri.n // 4, tri.n // 4 + tri.n // 2)
    return {
        "bstar_b": np.linalg.norm((bh @ b - (a - a @ a))[c, c], 2),
        "b_bstar": np.linalg.norm((b @ bh - (s - s @ s))[c, c], 2),
        "intertwine": np.linalg.norm((a @ bh - bh @ s)[c, c], 2),
    }


def assert_closed_form_matches_dense(p, q, n):
    tri = toeplitz_aab(p, q, n)
    got, floor = tri.interior_residuals(), trig_data(p, q).unit_residual
    for key, value in full_product_residuals(tri).items():
        assert abs(got[key] - value) <= floor + 1e-14 * max(1.0, value), key


@st.composite
def outer_symbols(draw):
    """Coprime p/q of degree at most 3, real or complex, with the roots of
    q at modulus 1.05 to 3."""
    real = draw(st.booleans())
    # a coefficient is 0 or of modulus 0.1 to 2: a nonzero one near
    # underflow is a degree the root pairing cannot resolve
    part = st.just(0.0) | st.builds(lambda sign, x: sign * x,
                                    st.sampled_from([-1.0, 1.0]),
                                    st.floats(0.1, 2.0))
    p = np.array(draw(st.lists(part, min_size=1, max_size=4)), dtype=complex)
    if not real:
        p += 1j * np.array(draw(st.lists(part, min_size=len(p), max_size=len(p))))
    q = np.array([1.0 + 0j])
    for _ in range(draw(st.integers(0, 3))):
        root = draw(st.floats(1.05, 3.0)) * (
            draw(st.sampled_from([1.0, -1.0])) if real
            else np.exp(1j * draw(st.floats(0.0, 2 * np.pi))))
        q = npoly.polymul(q, [1.0, -1.0 / root])
    if real:
        p, q = p.real, q.real
    try:
        check_coprime(p, q)
    except NotCoprime:
        assume(False)
    return p, q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(symbol=outer_symbols(), n=st.integers(16, 256))
def test_closed_form_matches_dense_products(symbol, n):
    assert_closed_form_matches_dense(*symbol, n)


# with s = (1 − z/2)² and s̃ = z²·s(1/z) its reversal, q = s + s̃/2 and
# p = s̃ − s/2 give |p|² + |q|² = 2.5|s|² on the circle: r = √2.5·s has a
# double root at 2
REPEATED = ([-0.25, -0.5, 0.875], [1.125, -1.5, 0.75])


def test_repeated_root_of_r():
    roots = np.roots(trig_data(*REPEATED).r[::-1])
    assert np.abs(roots - 2.0).max() < 1e-6   # the companion has a Jordan block
    for n in (16, 64, 256):
        assert_closed_form_matches_dense(*REPEATED, n)


@pytest.mark.parametrize("n", [16, 64])
def test_tail_past_the_degree_of_r(n):
    # |z²⁰|² + |2|² = 5 on the circle, so r is a constant: at n = 16 the
    # whole defect is the coefficient of g at z²⁰, past the recurrence of r
    assert_closed_form_matches_dense([0.0] * 20 + [1.0], [2.0], n)


@pytest.mark.parametrize("p, q", [
    ([1.0], [1.0, -1.0]),
    ([0.1], npoly.polypow([1.0, -0.9], 12)),
], ids=["1/(1-z)", "0.1/(1-0.9z)^12"])
def test_real_symbol_has_a_real_factor(p, q):
    # Wilson's iteration runs in the field of p and q, so the imaginary
    # parts of r are zero, not rounding
    r = fejer_riesz(np.array(p, complex), np.array(q, complex))
    assert r.dtype == complex and not np.any(r.imag)
    assert toeplitz_aab(p, q, 16).fhat.dtype == np.float64


def test_truncation_size_cap():
    # checked on the validator: a size past the cap is never run
    assert check_truncation_size(TOEPLITZ_MAX_N) == TOEPLITZ_MAX_N
    for n in (TOEPLITZ_MAX_N + 1, 10 ** 12, 1, -4):
        with pytest.raises(ValueError):
            check_truncation_size(n)


# -- the factorization gate ------------------------------------------------------

# 0.1 over (1 - 0.9z)^12: |q|² spans about 24 orders of magnitude on the
# circle, so rounded Laurent coefficients would miss |p|² + |q|² where it
# is small; Wilson's iteration takes its residual exactly
ILL_CONDITIONED = ([0.1], npoly.polypow([1.0, -0.9], 12))


def test_ill_conditioned_pair_is_factored():
    data = trig_data(*ILL_CONDITIONED)
    assert data.ok and data.unit_residual < 1e-10
    assert affiliation_verdict(*ILL_CONDITIONED).verdict is Verdict.AFFILIATED


def test_sum_of_squares_near_zero_against_its_largest_value_is_factored():
    # at 0.01 over the same q, |p|² + |q|² falls to 2e-11 of its largest
    # value on the circle; it stays positive, since p and q are coprime
    data = trig_data([0.01], ILL_CONDITIONED[1])
    assert data.ok and data.unit_residual < 1e-10


@pytest.mark.xfail(strict=True, raises=FactorizationFailed,
                   reason="ROADMAP item 16: the factor gates at the binary64 limit")
def test_large_symbol_near_its_circle_zero_is_factored():
    # 1e9·(1 - z) over 1 is affiliated.  |p|² + |q|² dips to 1 at z = 1
    # against 4e18 at z = -1, so r has its root at 1 + 1e-9, which the
    # R_ROOT_MARGIN gate refuses
    assert affiliation_verdict([1e9, -1e9], [1.0]).verdict is Verdict.AFFILIATED


def test_failed_factorization_is_refused(monkeypatch):
    # a factor off by 1e-6 in one coefficient of the scaled pair stands
    # in for one that misses the gate: no input found here does
    exact = toeplitz._factor
    monkeypatch.setattr(toeplitz, "_factor",
                        lambda p, q: exact(p, q) + [0.0, 1e-6])
    data = trig_data([1.0], [2.0, -1.0])
    assert not data.ok
    assert data.failures()[0].startswith("unit_residual")
    with pytest.raises(FactorizationFailed, match="unit_residual"):
        affiliation_verdict([1.0], [2.0, -1.0])
    with pytest.raises(FactorizationFailed):
        toeplitz_aab([1.0], [2.0, -1.0], 64)


def test_trig_data_checks_the_pair_once(monkeypatch):
    # one _pair call trims, checks and scales p and q, and decides
    # NotCoprime once; the factor is fejer_riesz's, bit for bit
    calls = []
    pair, coprime = toeplitz._pair, toeplitz.check_coprime
    monkeypatch.setattr(toeplitz, "_pair",
                        lambda *args: calls.append("_pair") or pair(*args))
    monkeypatch.setattr(toeplitz, "check_coprime",
                        lambda p, q: calls.append("check_coprime") or coprime(p, q))
    data = trig_data([1.0, 0.0, 1.0], [3.0, -2.0, -1.0])
    assert calls == ["_pair", "check_coprime"]
    assert np.array_equal(data.r, fejer_riesz([1.0, 0.0, 1.0], [3.0, -2.0, -1.0]))


@pytest.mark.parametrize("p, q", [
    ([1.0], [1.0, -1.0]),
    ([1.0], [2.0, -1.0]),
    ([1.0, 0.0, 1.0], [3.0, -2.0, -1.0]),
    ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0]),
], ids=["1/(1-z)", "1/(2-z)", "(1+z²)/((1-z)(3+z))", "affiliated"])
def test_published_symbols_pass_the_gate(p, q):
    data = trig_data(p, q)
    assert data.ok and not data.failures()
    assert data.factor_residual < 1e-12


@pytest.mark.parametrize("entry, call", [
    ("trig_data", lambda: toeplitz_aab([np.nan], [1, -1], 16)),
    ("trig_data", lambda: toeplitz_aab([1], [np.inf, -1], 16)),
    ("trig_data", lambda: affiliation_verdict([1], [np.nan, -1])),
    ("trig_data", lambda: affiliation_verdict([1], [1, np.nan])),
    ("trig_data", lambda: trig_data([1, np.inf], [1, -0.5])),
    ("fejer_riesz", lambda: fejer_riesz([np.nan], [1, -0.5])),
], ids=["toeplitz_aab-p", "toeplitz_aab-q", "affiliation_verdict",
        "trailing-nan", "trig_data", "fejer_riesz"])
def test_non_finite_coefficient_is_refused_where_it_enters(entry, call):
    # a trailing nan must not be trimmed away as a zero coefficient
    with pytest.raises(NonFiniteValue, match=entry):
        call()


# -- nested truncations and the root rule ------------------------------------------


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("big", [64, 256])
def test_leading_blocks_are_the_smaller_truncations(p, q, big):
    # T_n(u)T_n(v̄) is the leading n x n block of T_N(u)T_N(v̄) for
    # analytic u, v: the residuals read off the blocks are those of a
    # separately built n triple, bit for bit
    tri = toeplitz_aab(p, q, big)
    for n in (big // 4, big // 2):
        small = toeplitz_aab(p, q, n)
        for got, want in zip(dense_triple(tri), dense_triple(small)):
            assert np.array_equal(got[:n, :n], want)
        assert tri.interior_residuals(n) == small.interior_residuals()
    assert tri.interior_residuals(big) == tri.interior_residuals()


def test_leading_block_larger_than_the_triple_is_refused():
    tri = toeplitz_aab([1.0], [1.0, -1.0], 32)
    for n in (33, 1, 0):
        with pytest.raises(ValueError, match="leading block"):
            tri.interior_residuals(n)


def test_root_just_inside_the_circle_is_an_inner_root():
    # the root 1/1.00000005 of 1 - 1.00000005z lies inside the disc, and
    # is decided exactly: no tolerance makes it a circle root
    with pytest.raises(InnerRoot):
        affiliation_verdict([1.0], [1.0, -1.00000005])
    assert affiliation_verdict([1.0], [1.0, -0.99999995]).verdict is (
        Verdict.AFFILIATED)


def test_np_roots_sees_only_the_square_free_circle_part(monkeypatch):
    # the verdicts are exact; np.roots reads the circle roots of q for the
    # report from h, square-free, and the roots of r for its margin gate
    q = npoly.polymul(npoly.polypow([1.0, -1.0], 3), [1.0, -0.5])
    seen = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: seen.append(np.array(c)) or roots(c))
    rep = affiliation_verdict([1.0], q)
    assert rep.verdict is Verdict.ASSOCIATED_ONLY and rep.circle_roots == [1.0]
    r = rep.data.r
    assert [c.tolist() for c in seen] == [[1.0, -1.0], r[::-1].tolist()]
