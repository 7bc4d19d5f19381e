import tracemalloc

import numpy as np
import pytest

from graphreg.algebras import constant_matrix, grid_model, matrix_algebra
from graphreg.errors import BadParameters, EpsilonBelowGrid, LambdaInSpectrum
from graphreg.experiments import (
    Side,
    build_pair,
    density_defect,
    resolvent_affiliation_check,
    weyl_build,
    weyl_limits_check,
    weyl_relations_check,
)
from graphreg.transforms import aab_forward, opnorm, random_operator

RNG = np.random.default_rng(5150)


# -- resolvent affiliation ------------------------------------------------------


def test_invertible_matrix_affiliated_at_zero():
    alg = matrix_algebra(3)
    t = random_operator(3, RNG) + 3 * np.eye(3)
    rep = resolvent_affiliation_check(t, 0.0, alg)
    assert rep.affiliated
    assert rep.density_rank == alg.dim
    assert rep.resolvent_residual < 1e-10


def test_lambda_in_spectrum_rejected():
    alg = matrix_algebra(3)
    with pytest.raises(LambdaInSpectrum):
        resolvent_affiliation_check(np.diag([1.0, 2.0, 3.0]).astype(complex),
                                    2.0, alg)


def test_grid_model_resolvent_mask_failure():
    a, _, ma = grid_model(3)
    t = constant_matrix(a, np.array([[0, 0], [1, 0]], complex))
    rep = resolvent_affiliation_check(t, 1j, a, ma)
    assert not rep.affiliated
    assert not rep.multiplier_ok
    assert any("multiplier" in f for f in rep.failed)


def test_affiliated_for_lambda_away_from_spectrum():
    # regular finite-dim operator: affiliated at every resolvent point,
    # and the inverse matches a direct solve
    alg = matrix_algebra(4)
    t = random_operator(4, RNG)
    eig = np.linalg.eigvals(t)
    for lam in (5.0 + 5.0j, -4.0, 2.0j):
        if np.min(np.abs(eig - lam)) < 1e-3:
            continue
        rep = resolvent_affiliation_check(t, lam, alg)
        assert rep.affiliated
        assert rep.resolvent_residual < 1e-10


# -- counterdensity --------------------------------------------------------------


class TestDensityDefect:
    def test_pair_invariants(self):
        pair = build_pair(8)
        assert pair.decay_ok()
        assert pair.x.shape == (128, 128)

    def test_left_small_and_decreasing(self):
        vals = [density_defect(build_pair(k), Side.LEFT) for k in (8, 16)]
        assert vals[0] < 0.1
        assert vals[1] < vals[0]

    def test_star_floored(self):
        v8 = density_defect(build_pair(8), Side.STAR)
        v16 = density_defect(build_pair(16), Side.STAR)
        assert v8 > 0.5
        assert v16 >= 0.9 * v8

    def test_identity_r_control_restores_star_density(self):
        ctrl = density_defect(build_pair(8, identity_r=True), Side.STAR)
        assert ctrl < 1e-8
        # left control stays bounded (ball-constrained artifact, no growth)
        ctrl_left = density_defect(build_pair(8, identity_r=True), Side.LEFT)
        assert ctrl_left < 0.5

    def test_k_bounds_enforced(self):
        with pytest.raises(BadParameters):
            density_defect(build_pair(4), Side.LEFT)


# -- Weyl fraction algebra ---------------------------------------------------------


class TestWeyl:
    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            weyl_build(0.0, -1.0, 512, 20.0)
        with pytest.raises(BadParameters):
            weyl_build(1.0, 0.5, 512, 20.0)

    @pytest.mark.parametrize("alpha, beta, length", [
        (float("nan"), -1.0, 20.0), (1.0, float("nan"), 20.0),
        (1.0, -1.0, 0.0), (1.0, -1.0, -1.0), (1.0, -1.0, float("inf")),
        (1.0, -1.0, 1e200), (1.7e308, -1.0, 20.0), (1e-300, -1.0, 1e-300),
    ])
    def test_parameters_out_of_range(self, alpha, beta, length):
        # refused before the grid is built: each of these overflows it
        with pytest.raises(BadParameters):
            weyl_build(alpha, beta, 256, length)

    @pytest.mark.parametrize("lam", [float("nan"), -25.0, 25.0])
    def test_window_point_off_the_grid(self, lam):
        w = weyl_build(1.0, -1.0, 256, 20.0)
        with pytest.raises(BadParameters):
            weyl_limits_check(w, lam, [8 * w.dt])

    def test_grid_invariants(self):
        w = weyl_build(1.0, -1.0, 512, 20.0)
        assert np.abs(np.diag(w.x) - 1.0 / (w.t - 1j)).max() == 0.0
        assert opnorm(w.x) <= 1.0
        assert abs(opnorm(w.y) - 1.0) <= 10 * w.dt

    def test_exact_diagonal_relation(self):
        w = weyl_build(1.0, -1.0, 256, 20.0)
        rep = weyl_relations_check(w)
        assert rep.rel1_x < 1e-12
        assert rep.rel1_x_chain < 1e-12  # diagonal operators commute

    def test_commutator_residuals_halve_with_refinement(self):
        r1 = weyl_relations_check(weyl_build(1.0, -1.0, 256, 20.0))
        r2 = weyl_relations_check(weyl_build(1.0, -1.0, 512, 20.0))
        assert r2.rel2 <= 0.55 * r1.rel2
        assert r2.rel2_star <= 0.55 * r1.rel2_star
        assert r2.rel1_y_damped <= 0.55 * r1.rel1_y_damped

    def test_yx_compactness_witness_scale(self):
        # singular values of yx decay like ~1/n (kernel with a diagonal
        # jump); frozen scale so the trend is pinned
        rep = weyl_relations_check(weyl_build(1.0, -1.0, 512, 20.0))
        sv = rep.yx_singular_values
        assert sv[128] < 0.05
        assert sv[128] < 0.6 * sv[64]
        assert sv[256] < 0.6 * sv[128]

    def test_window_normalization_exact(self):
        w = weyl_build(1.0, -1.0, 1024, 8.0)
        rows = weyl_limits_check(w, 0.0, [0.5, 0.25, 0.125])
        for row in rows:
            assert abs(row.norm_w - 1.0) < 1e-12

    def test_x_average_converges_monotonically(self):
        w = weyl_build(1.0, -1.0, 2048, 8.0)
        rows = weyl_limits_check(w, 0.0, [0.5, 0.25, 0.125, 0.0625])
        errs = [r.x_error for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05


    def test_y_averages_drain(self):
        w = weyl_build(1.0, -1.0, 2048, 8.0)
        rows = weyl_limits_check(w, 0.0, [0.5, 0.25, 0.125, 0.0625])
        yvals = [r.y_value for r in rows]
        assert all(b < a for a, b in zip(yvals, yvals[1:]))
        for r in rows:
            for v in r.yx_values.values():
                assert v < 0.5
        last = rows[-1]
        assert all(v < rows[0].yx_values[k] for k, v in last.yx_values.items())

    def test_epsilon_floor_enforced(self):
        w = weyl_build(1.0, -1.0, 512, 20.0)
        with pytest.raises(EpsilonBelowGrid):
            weyl_limits_check(w, 0.0, [4 * w.dt])


# -- dense oracles for the structured experiments -----------------------------------
#
# The library solves the counterdensity problems block by block and treats
# the Weyl x as its diagonal.  These references build the dense operators
# and solve on them directly, as the experiments did before the structure
# was used.

ORACLE_TOL = 1e-12


def assert_agrees(value, ref):
    # absolute near 0, relative otherwise
    assert abs(value - ref) <= ORACLE_TOL * max(1.0, abs(ref)), (value, ref)


def dense_pair_x(pair):
    k = pair.k
    n = k * k

    def idx(i, j):
        return i * k + j

    s = np.zeros((n, n), dtype=complex)
    for i in range(k - 1):
        for j in range(k):
            s[idx(i + 1, j), idx(i, j)] = 1.0
    r = np.diag(pair.lam.reshape(-1)).astype(complex)
    return np.block([[s, r], [np.zeros((n, n), dtype=complex), s.conj().T]])


def dense_density_defect(pair, side):
    x = dense_pair_x(pair)
    mat = x.conj().T if side is Side.STAR else x
    n = pair.hilbert_dim
    u, s, vh = np.linalg.svd(mat)
    total = 0.0
    for l in range(pair.k):
        e = np.zeros(2 * n, dtype=complex)
        e[n + l] = 1.0
        beta = u.conj().T @ e

        def vnorm(mu):
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(np.linalg.norm(s / (s ** 2 + mu) * beta))

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
        v = vh.conj().T @ (s / (s ** 2 + mu) * beta)
        total += float(np.linalg.norm(e - mat @ v) ** 2)
    return float(np.sqrt(total) / np.sqrt(pair.k))


def dense_relations(w):
    x, y = w.x, w.y
    xs, ys = x.conj().T, y.conj().T
    a2 = 2j * w.alpha
    ydefect = (y - ys) - 2j * w.beta * (ys @ y)
    comm = x @ y - y @ x
    comm_star = x @ ys - ys @ x
    norm = lambda a: float(np.linalg.norm(a, 2))  # noqa: E731
    return {
        "rel1_x": norm((x - xs) - a2 * (xs @ x)),
        "rel1_x_chain": norm(a2 * (xs @ x) - a2 * (x @ xs)),
        "rel1_y": norm(ydefect),
        "rel1_y_damped": norm(x @ ydefect @ x),
        "rel2": norm(comm - 1j * (x @ y @ y @ x)),
        "rel2_star": norm(comm_star - 1j * (x @ ys @ ys @ x)),
    }, np.linalg.svd(y @ x, compute_uv=False)


def dense_limits(w, lam, eps_seq):
    rows = []
    for eps in eps_seq:
        cells = int(round(eps / w.dt))
        j0 = int(np.searchsorted(w.t, lam))
        omega = np.zeros(w.m)
        omega[j0 : j0 + cells] = 1.0
        omega /= np.sqrt(cells * w.dt)

        def avg(mat):
            return complex((omega.conj() @ (mat @ omega)) * w.dt)

        yx = w.y @ w.x
        rows.append((avg(w.x), abs(avg(w.y)),
                     {"1": abs(avg(yx)), "x": abs(avg(yx @ w.x)),
                      "y": abs(avg(yx @ w.y))}))
    return rows


class TestStructuredAgainstDense:
    def test_dense_x_matches_reference_construction(self):
        for identity_r in (False, True):
            pair = build_pair(8, identity_r)
            assert np.array_equal(pair.x, dense_pair_x(pair))

    # the blocks have exact zero singular values; they must not turn into
    # NaN on the way to the μ = 0 step
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [8, 16])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.STAR])
    def test_density_defect_matches_full_svd(self, k, side):
        pair = build_pair(k)
        assert_agrees(density_defect(pair, side),
                      dense_density_defect(pair, side))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_identity_r_control_matches_full_svd(self):
        pair = build_pair(8, identity_r=True)
        assert_agrees(density_defect(pair, Side.STAR),
                      dense_density_defect(pair, Side.STAR))

    def test_relations_match_dense_products(self):
        w = weyl_build(1.0, -1.0, 256, 20.0)
        rep = weyl_relations_check(w)
        ref, ref_sv = dense_relations(w)
        for key, value in ref.items():
            assert_agrees(getattr(rep, key), value)
        assert np.abs(rep.yx_singular_values - ref_sv).max() <= ORACLE_TOL

    def test_limits_match_dense_products(self):
        w = weyl_build(1.0, -1.0, 256, 20.0)
        eps_seq = [32 * w.dt, 16 * w.dt, 8 * w.dt]
        rows = weyl_limits_check(w, 0.0, eps_seq)
        for row, (xval, yval, yx) in zip(rows, dense_limits(w, 0.0, eps_seq)):
            assert_agrees(row.x_value, xval)
            assert_agrees(row.y_value, yval)
            for key, value in yx.items():
                assert_agrees(row.yx_values[key], value)


# -- size limits checked before allocation -------------------------------------------


def test_build_pair_refuses_huge_k_before_allocating():
    with pytest.raises(BadParameters):
        build_pair(10_000)


def test_build_pair_stays_small():
    # the dense x at K = 24 alone would take 2·24² squared complex entries
    # (21 MB); the pair keeps only λ
    tracemalloc.start()
    try:
        build_pair(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_weyl_build_refuses_huge_grid_before_allocating():
    with pytest.raises(BadParameters):
        weyl_build(1.0, -1.0, 10**6, 20.0)


# -- auxiliary transform identities exercised on matrices ----------------------------


def test_atstar_identity_family():
    # a_{t*} - a_{t*}^2 = b b* and a_{t*} b = b a on random operators
    for n in (2, 4, 6):
        t = random_operator(n, RNG)
        tr = aab_forward(t)
        assert opnorm(tr.a_star - tr.a_star @ tr.a_star
                      - tr.b @ tr.b.conj().T) < 1e-10
        assert opnorm(tr.a_star @ tr.b - tr.b @ tr.a) < 1e-10


def test_scaled_normal_relation():
    # arrange tt* = q t*t with a scaled normal construction: then
    # a_{t*} = q^{-1} (1 + (q^{-1}-1) a_t)^{-1} a_t
    rng = np.random.default_rng(8)
    n = 4
    h = random_operator(n, rng)
    u, _ = np.linalg.qr(h)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    t = u @ np.diag(d) @ u.conj().T  # normal: tt* = t*t, i.e. q = 1
    q = 1.0
    tr = aab_forward(t)
    lhs = tr.a_star
    rhs = (1 / q) * np.linalg.inv(
        np.eye(n) + (1 / q - 1) * tr.a) @ tr.a
    assert opnorm(lhs - rhs) < 1e-10
