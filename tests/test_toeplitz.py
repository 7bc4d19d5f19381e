import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from graphreg import toeplitz
from graphreg.errors import (
    CircleRoot,
    FactorizationFailed,
    InnerRoot,
    NotCoprime,
    NotRealFactor,
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
    toeplitz_truncation,
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
        assert data.f0.real > 0 and abs(data.f0.imag) < 1e-10


@pytest.mark.parametrize("p, q, degree", [
    ([0.0, 0.5], [1.0], 0),              # |z/2|² + 1 = 5/4 on the circle
    ([0.0, 0.0, 1.0], [2.0, -1.0], 1),   # |z²|² + |2 - z|² = |2 - z|² + 1
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
    # p = q = same polynomial: |p|^2+|q|^2 has circle-touching structure
    with pytest.raises((NotCoprime, CircleRoot)):
        fejer_riesz([1.0, -1.0], [1.0, -1.0])


# -- truncation -----------------------------------------------------------------


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
    tri = toeplitz_aab([0.0], [1.0], 16)
    assert np.abs(tri.a - np.eye(16)).max() < 1e-12
    assert np.abs(tri.b).max() < 1e-12


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
    a, s, b = tri.a, tri.a_star, tri.b
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
    tri = toeplitz_aab([1.0], [1.0, -1.0], n)
    shift = np.diag(np.ones(n - 1), -1)
    inv = np.linalg.inv(np.eye(n) - shift)
    for k in (3, n // 4, n // 2 - 1):
        assert np.linalg.norm(tri.b[:, k] - inv @ tri.a[:, k]) < 1e-10


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
    data = trig_data(p, q, n)
    m = 8 * n
    rv = circle_samples(data.r, m)
    fv = circle_samples(data.q, m) / rv
    gv = circle_samples(data.p, m) / rv
    tf, tfb = toeplitz_truncation(fv, n), toeplitz_truncation(np.conj(fv), n)
    tg, tgb = toeplitz_truncation(gv, n), toeplitz_truncation(np.conj(gv), n)
    tri = toeplitz_aab(p, q, n)
    assert np.abs(tri.a - tf @ tfb).max() < 1e-13
    assert np.abs(tri.a_star - (np.eye(n) - tg @ tgb)).max() < 1e-13
    assert np.abs(tri.b - tg @ tfb).max() < 1e-13


def test_triple_size_bound():
    with pytest.raises(ValueError):
        toeplitz_aab([1.0], [1.0, -1.0], 1)


def test_triple_coefficients_do_not_alias():
    # r has a root at about 1.05, so the coefficients of q/r and p/r decay
    # like 1.05^-k; sampling the circle at 8N points would fold f̂(d + 8N)
    # into f̂(d).  2^16 samples make that fold negligible.
    p, q, n = [0.05], [1.0, -1.0], 16
    data = trig_data(p, q, n)
    m = 2 ** 16
    rv = circle_samples(data.r, m)
    fv = circle_samples(data.q, m) / rv
    gv = circle_samples(data.p, m) / rv
    tf, tfb = toeplitz_truncation(fv, n), toeplitz_truncation(np.conj(fv), n)
    tg, tgb = toeplitz_truncation(gv, n), toeplitz_truncation(np.conj(gv), n)
    tri = toeplitz_aab(p, q, n)
    assert np.abs(tri.a - tf @ tfb).max() < 1e-14
    assert np.abs(tri.a_star - (np.eye(n) - tg @ tgb)).max() < 1e-14
    assert np.abs(tri.b - tg @ tfb).max() < 1e-14


@pytest.mark.parametrize("p, q", [([1.0], [1.0, -1.0]),
                                  ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0])])
def test_triple_has_no_subnormal_entries(p, q):
    # the coefficients decay geometrically; left unflushed, their far tail
    # and its products are subnormal, which slows every dense product
    tri = toeplitz_aab(p, q, 1024)
    tiny = np.finfo(float).tiny
    for mat in (tri.a, tri.a_star, tri.b):
        parts = np.abs(np.concatenate([mat.real.ravel(), mat.imag.ravel()]))
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
    data = trig_data(p, q, n)

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

    def product(u, v):
        x = np.multiply.outer(u, v.conj())
        for j in range(1, n):
            x[j, 1:] += x[j - 1, :-1]
        return x

    fhat, ghat = taylor(data.q, data.r), taylor(data.p, data.r)
    return (product(fhat, fhat), np.eye(n) - product(ghat, ghat),
            product(ghat, fhat))


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
def test_triple_field_follows_the_symbol(p, q):
    tri = toeplitz_aab(p, q, 32)
    real = not np.iscomplexobj(p) and not np.iscomplexobj(q)
    expect = np.float64 if real else np.complex128
    for mat in (tri.a, tri.a_star, tri.b):
        assert mat.dtype == expect


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("n", [16, 64, 256])
def test_triple_matches_complex_construction(p, q, n):
    tri = toeplitz_aab(p, q, n)
    for got, want in zip((tri.a, tri.a_star, tri.b), complex_triple(p, q, n)):
        assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("p, q", SYMBOLS, ids=SYMBOL_IDS)
@pytest.mark.parametrize("n", [64, 256])
def test_triple_vanishes_outside_its_band(p, q, n):
    tri = toeplitz_aab(p, q, n)
    j, k = np.indices((n, n))
    outside = np.abs(j - k) > tri.band
    for mat in (tri.a, tri.a_star, tri.b):
        assert np.all(mat[outside] == 0)


def test_band_trims_the_window_at_moderate_n():
    # the coefficients of 1/(1-z) reach rounding after about 37 terms, so
    # at N = 256 the contraction window is shorter than N
    tri = toeplitz_aab([1.0], [1.0, -1.0], 256)
    assert 0 < tri.band < 256 // 4


@pytest.mark.parametrize("p, q", [
    ([1.0], [1.0, -1.0]), ([1.0, 0.0, 1.0], [6.0, -1.0, -1.0]),
    ([0.5 + 1.0j, 0.3], [1.0, 0.4j]),
    ([0.05], [1.0, -1.0]),            # band past N: the window is everything
], ids=["one_over_one_minus_z", "affiliated", "complex", "near_degenerate"])
@pytest.mark.parametrize("n", [256, 1024])
def test_banded_residuals_match_full_product_slice(p, q, n):
    tri = toeplitz_aab(p, q, n)
    a, s, b = tri.a, tri.a_star, tri.b
    bh = b.conj().T
    sl = (slice(n // 4, 3 * n // 4),) * 2
    expect = {
        "bstar_b": np.linalg.norm((bh @ b - (a - a @ a))[sl], 2),
        "b_bstar": np.linalg.norm((b @ bh - (s - s @ s))[sl], 2),
        "intertwine": np.linalg.norm((a @ bh - bh @ s)[sl], 2),
    }
    got = tri.interior_residuals()
    for key, value in expect.items():
        assert abs(got[key] - value) <= 1e-14 * max(1.0, value), key


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


@pytest.mark.parametrize("drift, real", [(1e-15, True), (1e-6, False)])
def test_real_symbol_factor_is_real_up_to_rounding(drift, real, monkeypatch):
    exact = toeplitz.fejer_riesz
    monkeypatch.setattr(toeplitz, "fejer_riesz",
                        lambda p, q, cfg: exact(p, q, cfg) * (1 + drift * 1j))
    if real:
        assert toeplitz_aab([1.0], [1.0, -1.0], 16).a.dtype == np.float64
    else:
        with pytest.raises(NotRealFactor):
            toeplitz_aab([1.0], [1.0, -1.0], 16)


def test_truncation_size_cap():
    # checked on the validator: a size past the cap is never run
    assert check_truncation_size(TOEPLITZ_MAX_N) == TOEPLITZ_MAX_N
    for n in (TOEPLITZ_MAX_N + 1, 10 ** 12, 1, -4):
        with pytest.raises(ValueError):
            check_truncation_size(n)


# -- the factorization gate ------------------------------------------------------

# 0.01 over (1 - 0.9z)^12: |q|² spans about 24 orders of magnitude on the
# circle, and the root pairing loses |p|² + |q|² = |r|² (residual ~5.7)
ILL_CONDITIONED = ([0.01], npoly.polypow([1.0, -0.9], 12))


def test_failed_factorization_is_refused():
    data = trig_data(*ILL_CONDITIONED)
    assert not data.ok
    assert data.failures()[0].startswith("factor_residual")
    with pytest.raises(FactorizationFailed, match="factor_residual"):
        affiliation_verdict(*ILL_CONDITIONED)
    with pytest.raises(FactorizationFailed):
        toeplitz_aab(*ILL_CONDITIONED, 64)


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
