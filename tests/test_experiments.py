import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from graphreg import experiments
from graphreg.algebras import constant_matrix, grid_model, matrix_algebra
from graphreg.config import DEFAULT
from graphreg.errors import (
    BadParameters,
    EpsilonBelowGrid,
    LambdaInSpectrum,
    NonFiniteValue,
)
from graphreg.experiments import (
    WEYL_SCALE,
    Side,
    build_pair,
    density_defect,
    resolvent_affiliation_check,
    weyl_build,
    weyl_limits_check,
    weyl_relations_check,
)
from graphreg.modules import nullspace, orthonormal_columns
from graphreg.transforms import aab_forward, opnorm, polar_decompose, random_operator
from test_modules import loop_left_mult_map

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


def test_small_invertible_shift_is_not_in_the_spectrum():
    # 1e-9·diag(1, 2) has condition number 2: full rank under the rank rule
    rep = resolvent_affiliation_check(1e-9 * np.diag([1.0, 2.0]), 0.0,
                                      matrix_algebra(2))
    assert rep.affiliated and rep.density_rank == 4


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
        assert dense_pair_x(pair).shape == (128, 128)

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
        assert np.abs(w.d - 1.0 / (w.t - 1j)).max() == 0.0
        assert opnorm(np.diag(w.d)) <= 1.0
        assert abs(opnorm(-1j * w.kernel) - 1.0) <= 10 * w.dt

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
        sv64, sv128, sv256 = (rep.sigma_at(i) for i in (64, 128, 256))
        assert sv128 < 0.05
        assert sv128 < 0.6 * sv64
        assert sv256 < 0.6 * sv128

    @pytest.mark.parametrize("index", [-1, 256, 10**6])
    def test_sigma_index_outside_the_grid_is_refused(self, index):
        rep = weyl_relations_check(weyl_build(1.0, -1.0, 256, 20.0))
        with pytest.raises(BadParameters):
            rep.sigma_at(index)

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


def sigma_indices(m):
    """The σ(yx) indices checked against a full spectrum: both ends,
    their neighbours and the quarter points."""
    return (0, 1, m // 8, m // 4, m // 2, m - 2, m - 1)


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
    x, y = np.diag(w.d), -1j * w.kernel
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
    x, y = np.diag(w.d), -1j * w.kernel
    rows = []
    for eps in eps_seq:
        cells = int(round(eps / w.dt))
        j0 = int(np.searchsorted(w.t, lam))
        omega = np.zeros(w.m)
        omega[j0 : j0 + cells] = 1.0
        omega /= np.sqrt(cells * w.dt)

        def avg(mat):
            return complex((omega.conj() @ (mat @ omega)) * w.dt)

        yx = y @ x
        rows.append((avg(x), abs(avg(y)),
                     {"1": abs(avg(yx)), "x": abs(avg(yx @ x)),
                      "y": abs(avg(yx @ y))}))
    return rows


class TestStructuredAgainstDense:
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
        for i in sigma_indices(w.m):
            assert abs(rep.sigma_at(i) - ref_sv[i]) <= ORACLE_TOL, i

    def test_limits_match_dense_products(self):
        w = weyl_build(1.0, -1.0, 256, 20.0)
        eps_seq = [32 * w.dt, 16 * w.dt, 8 * w.dt]
        rows = weyl_limits_check(w, 0.0, eps_seq)
        for row, (xval, yval, yx) in zip(rows, dense_limits(w, 0.0, eps_seq)):
            assert_agrees(row.x_value, xval)
            assert_agrees(row.y_value, yval)
            for key, value in yx.items():
                assert_agrees(row.yx_values[key], value)


# -- size limits checked before allocation, and memory peaks ----------------------


def test_build_pair_refuses_huge_k_before_allocating():
    with pytest.raises(BadParameters):
        build_pair(10_000)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


MIB = 2 ** 20


def test_build_pair_stays_small():
    # the dense x at K = 24 alone would take 2·24² squared complex entries
    # (21 MB); the pair keeps only λ
    assert traced_peak(build_pair, 24) < 1_000_000


def test_weyl_build_peak_memory():
    # k is 8 MiB at M = 1024; the where-build with its difference,
    # exponential and mask temporaries peaked at about 25 MiB
    def kernel():
        return weyl_build(1.0, -1.0, 1024, 20.0).kernel

    assert traced_peak(kernel) < 12 * MIB


def test_weyl_relations_peak_memory():
    # Sturm counts over vectors of the grid; S, |D| S |D| and kᵀk were
    # 32 MiB each at M = 2048
    w = weyl_build(1.0, -1.0, 2048, 20.0)
    assert traced_peak(weyl_relations_check, w) < 1 * MIB


def test_weyl_experiment_at_its_cap_peak_memory(tmp_path):
    # the kernel at M, 32 MiB at M = 2048, is the one M x M matrix; the
    # refined grid has none
    from graphreg import cli

    argv = ["--quiet", "--json", str(tmp_path / "weyl.json"), "experiment",
            "--which", "weyl", "--M", "2048"]
    assert traced_peak(lambda: cli.main(argv) == 0 or pytest.fail()) < 48 * MIB


def test_weyl_limits_peak_memory():
    # matrix-vector products with k; the dense complex y alone is 4 MiB.
    # The kernel itself, 2 MiB, is built before the trace starts
    w = weyl_build(1.0, -1.0, 512, 20.0)
    w.kernel
    eps_seq = [32 * w.dt, 16 * w.dt, 8 * w.dt]
    assert traced_peak(weyl_limits_check, w, 0.0, eps_seq) < 1 * MIB


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


# -- the structured experiments against their previous implementations ---------------
#
# The Weyl residuals were dense complex 2-norms with x as its diagonal,
# and the density defect bisected one column at a time.  Both are kept
# here as references for the real-kernel residuals and the stacked
# bisection.

STRUCTURE_TOL = 1e-13


def assert_close(value, ref):
    assert abs(value - ref) <= STRUCTURE_TOL * max(1.0, abs(ref)), (value, ref)


def complex_residuals(w):
    """The residual matrices of the y-relations and yx, in complex
    arithmetic with x as its diagonal."""
    d, y = w.d, -1j * w.kernel
    ys = y.conj().T
    ydefect = (y - ys) - 2j * w.beta * (ys @ y)

    def sandwich(mat):
        return d[:, None] * mat * d[None, :]

    yy = y @ y
    comm = d[:, None] * y - y * d[None, :]
    comm_star = d[:, None] * ys - ys * d[None, :]
    return {
        "rel1_y": ydefect,
        "rel1_y_damped": sandwich(ydefect),
        "rel2": comm - 1j * sandwich(yy),
        "rel2_star": comm_star - 1j * sandwich(yy.conj().T),
        "yx": y * d[None, :],
    }


def complex_relations(w):
    d = w.d
    ds = d.conj()
    a2 = 2j * w.alpha
    mats = complex_residuals(w)
    yx = mats.pop("yx")
    ref = {key: float(np.linalg.norm(mat, 2)) for key, mat in mats.items()}
    ref["rel1_x"] = float(np.abs((d - ds) - a2 * (ds * d)).max())
    ref["rel1_x_chain"] = float(np.abs(a2 * (ds * d) - a2 * (d * ds)).max())
    return ref, np.linalg.svd(yx, compute_uv=False)


def columnwise_density_defect(pair, side):
    k = pair.k
    shift = np.eye(k, k=-1)
    e = np.zeros(2 * k)
    e[k] = 1.0
    total = 0.0
    for l in range(k):
        mat = np.block([[shift, np.diag(pair.lam[:, l])],
                        [np.zeros((k, k)), shift.T]])
        if side is Side.STAR:
            mat = mat.conj().T
        u, s, vh = np.linalg.svd(mat)
        beta = u.conj().T @ e
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


WEYL_SETTINGS = [(1.0, -1.0, 20.0), (0.3, -2.5, 8.0), (2.0, -0.7, 12.0)]


@pytest.mark.parametrize("m", [256, 512])
@pytest.mark.parametrize("alpha, beta, length", WEYL_SETTINGS)
def test_real_residuals_match_complex_ones(alpha, beta, length, m):
    w = weyl_build(alpha, beta, m, length)
    rep = weyl_relations_check(w)
    ref, ref_sv = complex_relations(w)
    for key, value in ref.items():
        assert_close(getattr(rep, key), value)
    for i in sigma_indices(m):
        assert_close(rep.sigma_at(i), ref_sv[i])


def decimal_negative_pivots(w, sigma, damped):
    """The negative pivots of the LDLᵀ of R⁻ᵀ(I - σ|D|⁻²)R⁻¹ + E, which
    is congruent to |D| S |D| - σ·dt·I, with its entries formed in the
    current decimal context: 2 + c, -ρ and ρ² are not rounded to floats.
    |d_j|⁻² = t_j² + α² on the grid points t_j."""
    x = Decimal(w.beta) * Decimal(w.dt)
    rho = x.exp()
    c = 2 * x
    alpha2 = Decimal(w.alpha) ** 2
    count, q, w_prev = 0, None, None
    for j, t in enumerate(w.t.tolist()):
        w_j = 1 - sigma * (Decimal(t) ** 2 + alpha2 if damped else 1)
        if j == 0:
            q = w_j + 1 + c
        else:
            b = -rho * w_prev
            q = w_j + rho * rho * w_prev + (1 - rho * rho + c) - b * b / q
        if q < 0:
            count += 1
        elif q == 0:
            q, count = Decimal("-1e-100"), count + 1
        w_prev = w_j
    return count


def decimal_y_relation(w, damped, approx, steps=40):
    """The largest |eigenvalue| of |D| S |D| (or of S) in 60-digit
    arithmetic, bisected from approx·(1 ± 1e-12)."""
    with localcontext() as ctx:
        ctx.prec = 60
        dt = Decimal(w.dt)

        def covers(sigma):  # every eigenvalue in [-σ·dt, σ·dt)
            return (decimal_negative_pivots(w, sigma, damped) == w.m
                    and decimal_negative_pivots(w, -sigma, damped) == 0)

        lo = Decimal(approx) / dt * (1 - Decimal("1e-12"))
        hi = Decimal(approx) / dt * (1 + Decimal("1e-12"))
        assert not covers(lo) and covers(hi), approx
        for _ in range(steps):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if covers(mid) else (mid, hi)
        return float(hi * dt)


WEYL_CORNERS = [(alpha, -beta, length) for alpha in WEYL_SCALE
                for beta in WEYL_SCALE for length in WEYL_SCALE]


# at the corners the spectra of S and |D| S |D| are of one sign, positive
# or negative, and |β|·dt runs from 8e-15 to 8e9; at β = -100 and L = 1
# they have both signs, the negative end the larger in modulus.  At
# |β|·dt = 1e-8 a count on the tridiagonal's float entries 2 + c and -ρ
# is off by 1.1e-10 relative
@pytest.mark.parametrize(
    "alpha, beta, length",
    [*WEYL_CORNERS, (1.0, -100.0, 1.0), (1e-3, -1e-6, 1.28)])
def test_y_relations_match_a_decimal_reference(alpha, beta, length):
    rep = weyl_relations_check(weyl_build(alpha, beta, 256, length))
    for damped, value in ((True, rep.rel1_y_damped), (False, rep.rel1_y)):
        ref = decimal_y_relation(rep.grid, damped, value)
        assert abs(value - ref) <= 1e-13 * ref, (damped, value, ref)


def test_grid_keeps_the_real_kernel():
    w = weyl_build(1.0, -1.0, 256, 20.0)
    assert w.kernel.dtype == np.float64
    assert np.array_equal(np.triu(w.kernel), w.kernel)
    assert w.d.shape == (w.m,)


class LinalgSpy:
    """Counts the SVDs and symmetric eigensolves numpy is asked for."""

    def __init__(self, monkeypatch):
        self.svd, self.eigvalsh = [], []
        svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

        def spy_svd(a, *args, **kwargs):
            self.svd.append(np.array(a))
            return svd(a, *args, **kwargs)

        def spy_eigvalsh(a, *args, **kwargs):
            self.eigvalsh.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)


@pytest.mark.parametrize("alpha, beta, length", WEYL_SETTINGS)
def test_each_norm_is_of_its_own_residual_and_unread_ones_wait(
        alpha, beta, length, monkeypatch):
    # the dense reference reads the kernel of a grid of its own
    ref, _ = complex_relations(weyl_build(alpha, beta, 256, length))
    w = weyl_build(alpha, beta, 256, length)
    spy = LinalgSpy(monkeypatch)
    counts = []
    y_norm = experiments._y_relation_norm

    def counting(grid, damped):
        counts.append(damped)
        return y_norm(grid, damped)

    monkeypatch.setattr(experiments, "_y_relation_norm", counting)
    rep = weyl_relations_check(w)
    _ = rep.rel2, rep.rel2_star, rep.rel1_y_damped
    # the commutator norms come from a bidiagonal inverse and the damped
    # y-relation from a Sturm count: no SVD, no eigensolve, and the raw
    # y-relation waits until it is read
    assert counts == [True]
    for key in ("rel2", "rel2_star", "rel1_y_damped"):
        assert_close(getattr(rep, key), ref[key])
    rep.sigma_at(64)
    rep.sigma_at(128)
    assert counts == [True]
    rep.rel1_y
    rep.rel1_y
    assert counts == [True, False]
    assert_close(rep.rel1_y, ref["rel1_y"])
    assert spy.svd == [] and spy.eigvalsh == []
    assert "kernel" not in vars(w)


def test_refined_grid_reports_without_raw_relation_or_spectrum(
        monkeypatch, tmp_path):
    from graphreg import cli

    spy = LinalgSpy(monkeypatch)
    grids = []
    build = experiments.weyl_build

    def recording(*args):
        grids.append(build(*args))
        return grids[-1]

    monkeypatch.setattr(experiments, "weyl_build", recording)
    out = tmp_path / "weyl.json"
    assert cli.main(["--quiet", "--json", str(out), "experiment", "--which",
                     "weyl", "--M", "256"]) == 0
    # the commutators, σ(yx) and both y-relations come from Sturm counts
    # on both grids
    assert spy.svd == [] and spy.eigvalsh == []
    # only the window averages at M read a kernel; the refined grid, read
    # by the relations alone, never forms its own
    assert {g.m: "kernel" in vars(g) for g in grids} == {256: True, 512: False}


def star_commutator_residual(w):
    """The residual matrix of xy* - y*x = i x y*² x, real and up to
    diagonal unitaries: |D|(T∘kᵀ + kᵀ@kᵀ)|D|, from its own products."""
    k, absd = w.kernel, np.abs(w.d)
    lag = w.t[None, :] - w.t[:, None]
    return absd[:, None] * (lag * k.T + k.T @ k.T) * absd[None, :]


def commutator_residual(w):
    """The same for xy - yx = i x y² x: M = |D|(T∘k - k@k)|D|."""
    k, absd = w.kernel, np.abs(w.d)
    lag = w.t[None, :] - w.t[:, None]
    return absd[:, None] * (lag * k - k @ k) * absd[None, :]


@pytest.mark.parametrize("m", [256, 512, 1024])
@pytest.mark.parametrize("alpha, beta, length", WEYL_SETTINGS)
def test_star_commutator_is_minus_the_transpose(alpha, beta, length, m):
    w = weyl_build(alpha, beta, m, length)
    star, comm = star_commutator_residual(w), commutator_residual(w)
    # Tᵀ = -T exactly; kᵀ@kᵀ and (k@k)ᵀ differ by the order of the sums
    assert np.abs(star + comm.T).max() <= STRUCTURE_TOL * np.abs(comm).max()
    assert_close(weyl_relations_check(w).rel2_star,
                 float(np.linalg.norm(star, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("identity_r", [False, True])
@pytest.mark.parametrize("side", [Side.LEFT, Side.STAR])
@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_stacked_bisection_matches_columnwise(k, side, identity_r):
    pair = build_pair(k, identity_r)
    assert_close(density_defect(pair, side),
                 columnwise_density_defect(pair, side))


# -- one rank cut ------------------------------------------------------------------


def test_rank_cut_is_the_same_everywhere():
    # σ₁ = 2 and σ₂ = 1.5e-10: σ₂ lies above subspace_tol but below
    # subspace_tol·σ₁, so every rank decision must drop it
    tol = DEFAULT.subspace_tol
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    mat = u @ np.diag([2.0, 1.5e-10]) @ u.T
    v, _ = polar_decompose(mat)
    assert orthonormal_columns(mat, tol).shape[1] == 1
    assert 2 - nullspace(mat, tol).shape[1] == 1
    assert round(float(np.trace(v.conj().T @ v).real)) == 1
    # the resolvent of t is diag(2, 1.5e-10); on M2 it acts on each of
    # the two columns of x, so its density rank is 2·1
    alg = matrix_algebra(2)
    t = np.diag([0.5, 1 / 1.5e-10]) + 1j * np.eye(2)
    rep = resolvent_affiliation_check(t, 1j, alg)
    action = loop_left_mult_map(alg, np.linalg.inv(t - 1j * np.eye(2)), full=True)
    assert rep.density_rank == orthonormal_columns(action, tol).shape[1] == 2


def test_config_reaches_resolvent_mask_checks():
    # the resolvent leaves the M(A) pattern at the point at infinity by
    # about 1e-7, which subspace_tol = 1e-5 forgives and the default does not
    a, _, ma = grid_model(3)
    t = constant_matrix(a, np.array([[0, 0], [1e-7, 0]], complex))
    default = resolvent_affiliation_check(t, 1j, a, ma)
    loose = resolvent_affiliation_check(t, 1j, a, ma,
                                        replace(DEFAULT, subspace_tol=1e-5))
    assert not default.multiplier_ok
    assert loose.multiplier_ok and loose.affiliated


@pytest.mark.parametrize("t, lam", [
    (np.diag([np.nan, 1.0]), 1j),
    (np.diag([np.inf, 1.0]), 1j),
    (np.eye(2), complex("nan")),
], ids=["nan-entry", "inf-entry", "nan-lambda"])
def test_resolvent_check_refuses_non_finite_input(t, lam):
    with pytest.raises(NonFiniteValue, match="resolvent_affiliation_check"):
        resolvent_affiliation_check(t, lam, matrix_algebra(2))


@pytest.mark.parametrize("m", [256, 512])
@pytest.mark.parametrize("alpha, beta, length", WEYL_SETTINGS)
def test_grid_commutator_is_minus_dt_times_the_kernel(alpha, beta, length, m):
    # k_jl = dt·e^{β(t_l - t_j)} for l >= j, so (k@k)_jl = (l - j + 1)·dt·k_jl
    # and T∘k - k@k = -dt·k: rel2 needs neither T nor k@k
    w = weyl_build(alpha, beta, m, length)
    k = w.kernel
    dense = np.subtract.outer(w.t, w.t).T * k - k @ k
    assert np.abs(dense + w.dt * k).max() <= 1e-13 * np.abs(dense).max()
