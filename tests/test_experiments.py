import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    TruncatedOperatorPair,
    build_pair,
    density_defect,
    resolvent_affiliation_check,
    weyl_build,
    weyl_limits_check,
    weyl_relations_check,
)
from graphreg.modules import nullspace, orthonormal_columns
from graphreg.transforms import (
    _require_finite,
    aab_forward,
    opnorm,
    polar_decompose,
    random_operator,
)
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
        assert decay_ok(pair)
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
        assert abs(opnorm(-1j * dense_kernel(w)) - 1.0) <= 10 * w.dt

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
# The library solves the counterdensity problems on 2 x 2 pieces and treats
# the Weyl x as its diagonal and y through a recurrence.  These references
# build the dense operators and solve on them directly, as the experiments
# did before the structure was used.

ORACLE_TOL = 1e-12


def sigma_indices(m):
    """The σ(yx) indices checked against a full spectrum: both ends,
    their neighbours and the quarter points."""
    return (0, 1, m // 8, m // 4, m // 2, m - 2, m - 1)


def assert_agrees(value, ref):
    # absolute near 0, relative otherwise
    assert abs(value - ref) <= ORACLE_TOL * max(1.0, abs(ref)), (value, ref)


def dense_kernel(w):
    """k_jl = e^{β(t_l - t_j)}·dt for l >= j and 0 below the diagonal,
    built in its own buffer: (t_j - t_l)·(-β) = β(t_l - t_j), and the
    strict lower triangle is sent to exp(-inf) = 0."""
    kernel = np.subtract.outer(w.t, w.t)
    kernel *= -w.beta
    np.copyto(kernel, -np.inf, where=np.tri(w.m, k=-1, dtype=bool))
    np.exp(kernel, out=kernel)
    kernel *= w.dt
    return kernel


def decay_ok(pair):
    """λ > 0 with anti-diagonal maxima vanishing as k+l grows."""
    if np.any(pair.lam <= 0):
        return False
    k = pair.k
    maxima = [pair.lam[[i for i in range(k) for j in range(k)
                        if i + j == m],
                       [j for i in range(k) for j in range(k)
                        if i + j == m]].max()
              for m in range(2 * k - 1)]
    return bool(np.all(np.diff(maxima) <= 1e-12))


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


def trust_region_gain(s, mu):
    """s/(s² + μ) for every singular value s > 0 and 0 for s = 0, taken
    as 1/(s + μ/s), which squares nothing: s² underflows to 0 for s below
    about 1e-154, and s/(s² + μ) then divides by zero at μ = 0."""
    live = s > 0
    ratio = np.divide(mu, s, out=np.zeros_like(s), where=live)
    return np.divide(1.0, s + ratio, out=np.zeros_like(s), where=live)


def vector_norm(vec):
    """‖vec‖ by ``math.hypot``, which scales its arguments: a gain near
    1/tiny overflows the squares that ``np.linalg.norm`` sums."""
    return math.hypot(*np.abs(vec).ravel().tolist())


def dense_density_defect(pair, side):
    x = dense_pair_x(pair)
    mat = x.conj().T if side is Side.STAR else x
    n = pair.k * pair.k
    u, s, vh = np.linalg.svd(mat)
    total = 0.0
    for l in range(pair.k):
        e = np.zeros(2 * n, dtype=complex)
        e[n + l] = 1.0
        beta = u.conj().T @ e

        def vnorm(mu):
            return vector_norm(trust_region_gain(s, mu) * beta)

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
        v = vh.conj().T @ (trust_region_gain(s, mu) * beta)
        total += float(np.linalg.norm(e - mat @ v) ** 2)
    return float(np.sqrt(total) / np.sqrt(pair.k))


def dense_blocks(pair):
    """The K blocks x_l = (S, diag(λ_{·l}); 0, Sᵀ), stacked as a
    K x 2K x 2K array; block l acts on the span of the (i, l) basis
    vectors of both halves, F_0…F_{K-1} then G_0…G_{K-1}."""
    k = pair.k
    blocks = np.zeros((k, 2 * k, 2 * k))
    shift = np.eye(k, k=-1)
    blocks[:, :k, :k] = shift
    blocks[:, k:, k:] = shift.T
    i = np.arange(k)
    blocks[:, i, k + i] = pair.lam.T
    return blocks


def blockwise_density_defect(pair, side):
    """The density defect from one stacked SVD of the K blocks, with a
    stacked bisection of the multipliers μ."""
    k = pair.k
    mats = dense_blocks(pair)
    if side is Side.STAR:
        mats = mats.transpose(0, 2, 1)
    u, s, vh = np.linalg.svd(mats)
    beta = u[:, k, :]  # Uᵀe for e = G_0, the target of every block

    def gain(mu, rows=slice(None)):
        return trust_region_gain(s[rows], mu[:, None])

    def too_long(mu, rows=slice(None)):
        return np.array([vector_norm(v) > 1.0
                         for v in gain(mu, rows) * beta[rows]], dtype=bool)

    mu = np.zeros(k)
    rows = np.flatnonzero(too_long(mu))
    lo, hi = np.zeros(len(rows)), np.ones(len(rows))
    growing = too_long(hi, rows)
    while growing.any():
        hi[growing] *= 2.0
        growing &= too_long(hi, rows)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high = too_long(mid, rows)
        new_lo = np.where(high, mid, lo)
        new_hi = np.where(high, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    mu[rows] = hi
    v = vh.transpose(0, 2, 1) @ (gain(mu) * beta)[..., None]
    residual = -(mats @ v)[..., 0]
    residual[:, k] += 1.0
    return float(np.linalg.norm(residual) / np.sqrt(k))


def piece_order(k):
    """Row and column orders that turn a block into the direct sum of its
    pieces: (F_i, G_{i-1}) from (F_{i-1}, G_i) for i = 1…K-1, then F_0
    from G_0, then the zero row G_{K-1} and zero column F_{K-1}."""
    f, g = np.arange(k), k + np.arange(k)
    rows = [*np.column_stack([f[1:], g[:-1]]).ravel(), f[0], g[-1]]
    cols = [*np.column_stack([f[:-1], g[1:]]).ravel(), g[0], f[-1]]
    return rows, cols


def direct_sum(pieces):
    n = sum(len(p) for p in pieces)
    out, at = np.zeros((n, n)), 0
    for p in pieces:
        out[at : at + len(p), at : at + len(p)] = p
        at += len(p)
    return out


def dense_relations(w):
    x, y = np.diag(w.d), -1j * dense_kernel(w)
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
    x, y = np.diag(w.d), -1j * dense_kernel(w)
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

    @pytest.mark.parametrize("k", [8, 16])
    def test_each_block_is_a_direct_sum_of_pieces(self, k):
        pair = build_pair(k)
        rows, cols = piece_order(k)
        # the target G_0 (index K) is the second row of the i = 1 piece,
        # and the column of the 1 x 1 piece, a row of the transpose
        assert rows.index(k) == 1 and cols.index(k) == 2 * (k - 1)
        for l, block in enumerate(dense_blocks(pair)):
            pieces = [np.array([[1.0, pair.lam[i, l]], [0.0, 1.0]])
                      for i in range(1, k)]
            pieces += [np.array([[pair.lam[0, l]]]), np.zeros((1, 1))]
            assert np.array_equal(block[np.ix_(rows, cols)],
                                  direct_sum(pieces))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("identity_r", [False, True])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.STAR])
    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    def test_density_defect_matches_blockwise_svd(self, k, side, identity_r):
        pair = build_pair(k, identity_r)
        assert_agrees(density_defect(pair, side),
                      blockwise_density_defect(pair, side))

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


@pytest.mark.parametrize("side", [Side.LEFT, Side.STAR])
def test_density_defect_peak_memory(side):
    # a few length-K vectors; the K blocks of 2K x 2K and their stacked
    # SVD peaked at about 24 MiB at K = 64
    pair = build_pair(64)
    assert traced_peak(density_defect, pair, side) < 256 * 1024


def test_weyl_build_peak_memory():
    # the grid is the vectors t and d, 96 KiB at the cap M = 4096; the
    # kernel it used to build on first read was 128 MiB there
    assert traced_peak(weyl_build, 1.0, -1.0, 4096, 20.0) < MIB // 4


def test_weyl_relations_peak_memory():
    # Sturm counts over vectors of the grid; S, |D| S |D| and kᵀk were
    # 32 MiB each at M = 2048
    w = weyl_build(1.0, -1.0, 2048, 20.0)
    assert traced_peak(weyl_relations_check, w) < 1 * MIB


def test_weyl_experiment_at_its_cap_peak_memory(tmp_path):
    # neither grid forms an M x M matrix; the kernel at M, which the
    # window averages read as a matrix, was 32 MiB at M = 2048
    from graphreg import cli

    argv = ["--quiet", "--json", str(tmp_path / "weyl.json"), "experiment",
            "--which", "weyl", "--M", "2048"]
    assert traced_peak(lambda: cli.main(argv) == 0 or pytest.fail()) < 8 * MIB


def test_weyl_limits_peak_memory():
    # k applied by a recurrence; the dense complex y alone is 4 MiB and
    # the real kernel 2 MiB
    w = weyl_build(1.0, -1.0, 512, 20.0)
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
# here as references for the real-kernel residuals and the closed-form
# density defect.

STRUCTURE_TOL = 1e-13


def assert_close(value, ref):
    assert abs(value - ref) <= STRUCTURE_TOL * max(1.0, abs(ref)), (value, ref)


def complex_residuals(w):
    """The residual matrices of the y-relations and yx, in complex
    arithmetic with x as its diagonal."""
    d, y = w.d, -1j * dense_kernel(w)
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
    e = np.zeros(2 * k)
    e[k] = 1.0
    total = 0.0
    for mat in dense_blocks(pair):
        if side is Side.STAR:
            mat = mat.conj().T
        u, s, vh = np.linalg.svd(mat)
        beta = u.conj().T @ e

        def gain(mu):
            return trust_region_gain(s, mu)

        def vnorm(mu):
            return vector_norm(gain(mu) * beta)

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


def holds_no_matrix(w):
    return all(np.ndim(value) < 2 for value in vars(w).values())


def test_grid_keeps_vectors_only():
    w = weyl_build(1.0, -1.0, 256, 20.0)
    assert w.d.shape == w.t.shape == (w.m,)
    assert holds_no_matrix(w)


# k·v by the backward recurrence u_j = v_j + ρ·u_{j+1} rounds differently
# from the dense kernel's exponentials of grid differences: 2.9e-14 of
# max|k·v| at M = 2048 where ρ is nearest 1
@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("alpha, beta, length", [*WEYL_CORNERS, *WEYL_SETTINGS])
def test_kernel_recurrence_matches_the_dense_kernel(alpha, beta, length, m):
    w = weyl_build(alpha, beta, m, length)
    k = dense_kernel(w)
    window = np.zeros(m)
    window[m // 2 : m // 2 + 8] = 1.0
    rng = np.random.default_rng(m)
    for vec in (rng.standard_normal(m), np.abs(rng.standard_normal(m)), window):
        ref = k @ vec
        err = np.abs(experiments._kernel_times(w, vec) - ref).max()
        assert err <= 1e-13 * np.abs(ref).max(), (err, np.abs(ref).max())


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


@pytest.mark.parametrize("side", [Side.LEFT, Side.STAR])
@pytest.mark.parametrize("k", [8, 64])
def test_density_defect_takes_no_svd_and_no_eigensolve(k, side, monkeypatch):
    spy = LinalgSpy(monkeypatch)
    density_defect(build_pair(k), side)
    assert spy.svd == [] and spy.eigvalsh == []


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
    assert holds_no_matrix(w)


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
    # no grid forms a kernel: the window averages at M apply it by a
    # recurrence, and the relations on both grids never read it
    assert sorted(g.m for g in grids) == [256, 512]
    assert all(holds_no_matrix(g) for g in grids)


def star_commutator_residual(w):
    """The residual matrix of xy* - y*x = i x y*² x, real and up to
    diagonal unitaries: |D|(T∘kᵀ + kᵀ@kᵀ)|D|, from its own products."""
    k, absd = dense_kernel(w), np.abs(w.d)
    lag = w.t[None, :] - w.t[:, None]
    return absd[:, None] * (lag * k.T + k.T @ k.T) * absd[None, :]


def commutator_residual(w):
    """The same for xy - yx = i x y² x: M = |D|(T∘k - k@k)|D|."""
    k, absd = dense_kernel(w), np.abs(w.d)
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
def test_density_defect_matches_columnwise(k, side, identity_r):
    pair = build_pair(k, identity_r)
    assert_close(density_defect(pair, side),
                 columnwise_density_defect(pair, side))


# -- closed forms and singular-value counts against their oracles -------------------


@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_star_defect_is_its_closed_form(k):
    # the best preimage of column l is min(1, 1/λ_0l), λ_0l = 1/(1 + l)
    gap = np.maximum(1.0 - 1.0 / (1.0 + np.arange(k)), 0.0)
    assert (density_defect(build_pair(k), Side.STAR)
            == float(np.linalg.norm(gap) / math.sqrt(k)))
    assert density_defect(build_pair(k, identity_r=True), Side.STAR) == 0.0


# every normal float up to 10: the oracles' gain 1/(s + μ/s) squares no
# singular value, so λ = |s| down to tiny divides by no zero
LAMBDAS = st.one_of(st.just(0.0), st.floats(float(np.finfo(float).tiny), 10.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(8, 12), values=st.lists(LAMBDAS, min_size=144, max_size=144))
@example(k=8, values=[0.0] * 144)
@example(k=8, values=[10.0, 1.0, 0.0, 0.5] * 36)
@example(k=8, values=[1.1e-308, 0.5, float(np.finfo(float).tiny)] * 48)
def test_density_defect_matches_columnwise_on_any_diagonal(k, values):
    # λ = 0 leaves x's piece unconstrained and x*'s target out of reach;
    # λ > 1 lets x* reach its target inside the ball
    pair = TruncatedOperatorPair(k, np.array(values[: k * k]).reshape(k, k))
    for side in Side:
        assert_agrees(density_defect(pair, side),
                      columnwise_density_defect(pair, side))


def smallest_covering(covers, hi: float) -> float:
    """The smallest x in (tiny, hi] at which the monotone predicate
    ``covers`` holds, to adjacent floats; 0 when it holds at ``tiny``.

    The bracket (tiny, hi] is split at its geometric mean while its ends
    are more than a factor 2 apart and at its midpoint after, until the
    ends are adjacent floats: the relative width is then at most 2ε.
    This is the bisection of the oracles below, and the one that
    ``experiments._certified_root`` must agree with.
    """
    lo = float(np.finfo(float).tiny)
    if covers(lo):
        return 0.0
    while True:
        mid = (math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo
               else 0.5 * (lo + hi))
        if not lo < mid < hi:
            return hi
        if covers(mid):
            hi = mid
        else:
            lo = mid


def bidiagonal_singular_value(diag, sup, index: int) -> float:
    """The Golub–Kahan oracle for ``experiments._bidiagonal_singular_value``:
    the ``index``-th smallest singular value (0 is the smallest) of the
    upper bidiagonal matrix with diagonal ``diag`` and superdiagonal
    ``sup``, by bisection; no matrix is formed.

    The singular values σ of the n x n bidiagonal B are the positive
    eigenvalues of its Golub–Kahan tridiagonal, the 2n x 2n matrix with
    zero diagonal and off-diagonals d₀, s₀, d₁, s₁, …, d_{n-1}, whose
    eigenvalues are ±σ.  So the Sturm count of that tridiagonal at x > 0,
    the number of negative pivots of its LDLᵀ at shift x, is n plus the
    number of σ ≤ x.  The pivots are recomputed in a loop of floats, and
    one smaller in modulus than pivmin = tiny·max(1, max g²) over the
    off-diagonals g counts as -pivmin, as in LAPACK's ``dstebz``, so no
    pivot divides by zero or overflows.  This count determines every
    singular value to high relative accuracy (Demmel & Kahan, *Accurate
    singular values of bidiagonal matrices*, SIAM J. Sci. Stat. Comput.
    11, 1990).

    The matrix is first scaled by a power of two, which is exact, so
    that its largest entry lies in [1/2, 1), and the count is bisected
    by ``smallest_covering`` from the Gershgorin bound down.  A
    singular value at or below ``tiny`` of the scaled matrix reads 0, so
    a zero one ends the search at once.  With a zero superdiagonal the
    values are exactly the sorted |diag|.  An index outside [0, n)
    raises BadParameters, a non-finite entry NonFiniteValue.
    """
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    n = len(diag)
    if sup.shape != (max(n - 1, 0),):
        raise BadParameters(f"need {max(n - 1, 0)} superdiagonal entries "
                            f"for {n} diagonal ones, got {sup.shape}")
    if not 0 <= index < n:
        raise BadParameters(f"singular value index {index} outside [0, {n})")
    _require_finite("bidiagonal_singular_value", diag, sup)
    offdiag = np.empty(2 * n - 1)
    offdiag[0::2], offdiag[1::2] = np.abs(diag), np.abs(sup)
    top = float(offdiag.max())
    scale = math.ldexp(1.0, -math.frexp(top)[1]) if top else 1.0
    offdiag = (offdiag * scale).tolist()
    # dstebz's pivmin, tiny·max(1, max g²), is tiny as every g < 1
    pivmin = float(np.finfo(float).tiny)

    def at_most(x):  # how many singular values are ≤ x, for x ≥ pivmin
        q = -x  # the first pivot, negative
        count = 1 - n
        for g in offdiag:
            q = -x - g * (g / q)
            if q < pivmin:
                count += 1
                if q > -pivmin:
                    q = -pivmin
        return count

    # Gershgorin bounds the spectrum of the tridiagonal
    hi = 2.0 * max(a + b for a, b in zip([0.0, *offdiag], [*offdiag, 0.0]))
    return smallest_covering(lambda x: at_most(x) > index, hi) / scale



BIDIAGONAL_SIZES = [1, 2, 3, 17, 256]


def random_bidiagonal(n, seed):
    """A well-scaled upper bidiagonal: entries of modulus in [1/2, 2],
    random signs."""
    rng = np.random.default_rng(seed)
    entries = rng.uniform(0.5, 2.0, 2 * n - 1) * rng.choice([-1.0, 1.0], 2 * n - 1)
    return entries[:n], entries[n:]


def bidiagonal_values(diag, sup):
    return [bidiagonal_singular_value(diag, sup, i) for i in range(len(diag))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", BIDIAGONAL_SIZES)
def test_bidiagonal_singular_values_match_the_svd(n):
    diag, sup = random_bidiagonal(n, n)
    ref = np.linalg.svd(np.diag(diag) + np.diag(sup, 1), compute_uv=False)[::-1]
    got = np.array(bidiagonal_values(diag, sup))
    assert np.abs(got - ref).max() <= n * np.finfo(float).eps * ref[-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", BIDIAGONAL_SIZES)
def test_bidiagonal_without_superdiagonal_is_its_sorted_diagonal(n):
    diag, _ = random_bidiagonal(n, 100 + n)
    assert bidiagonal_values(diag, np.zeros(n - 1)) == sorted(np.abs(diag))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", BIDIAGONAL_SIZES)
def test_bidiagonal_zero_diagonal_entry_gives_an_exact_zero(n):
    diag, sup = random_bidiagonal(n, 200 + n)
    diag[n // 2] = 0.0
    ref = np.linalg.svd(np.diag(diag) + np.diag(sup, 1), compute_uv=False)[::-1]
    got = bidiagonal_values(diag, sup)
    assert got[0] == 0.0
    assert np.abs(np.array(got) - ref).max() <= n * np.finfo(float).eps * ref[-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [2.0 ** -900, 2.0 ** 900])
def test_bidiagonal_scaling_by_a_power_of_two_is_exact(scale):
    # neither overflows nor underflows: the pivots are those of the
    # matrix scaled into [1/2, 1)
    diag, sup = random_bidiagonal(17, 7)
    assert bidiagonal_values(scale * diag, scale * sup) == [
        scale * v for v in bidiagonal_values(diag, sup)]


@pytest.mark.parametrize("n", BIDIAGONAL_SIZES)
def test_bidiagonal_index_out_of_range_is_refused(n):
    diag, sup = random_bidiagonal(n, 300 + n)
    for index in (-1, n):
        with pytest.raises(BadParameters, match="index"):
            bidiagonal_singular_value(diag, sup, index)


def test_bidiagonal_malformed_or_non_finite_is_refused():
    with pytest.raises(BadParameters, match="superdiagonal"):
        bidiagonal_singular_value([1.0, 2.0], [1.0, 1.0], 0)
    with pytest.raises(NonFiniteValue, match="bidiagonal_singular_value"):
        bidiagonal_singular_value([1.0, np.nan], [1.0], 0)



@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", BIDIAGONAL_SIZES)
def test_qd_count_matches_the_svd(n):
    diag, sup = random_bidiagonal(n, n)
    ref = np.linalg.svd(np.diag(diag) + np.diag(sup, 1), compute_uv=False)[::-1]
    got = [experiments._bidiagonal_singular_value(diag, sup, i) for i in range(n)]
    assert np.abs(np.array(got) - ref).max() <= n * np.finfo(float).eps * ref[-1]


# -- the certified root finder ---------------------------------------------------


EPS = float(np.finfo(float).eps)
# the root finder certifies its root to 4ε on either side, and the bisection
# lands within 2ε of the same count's change of sign
ROOT_TOL = 8 * EPS


def bisected_singular_value(diag, sup, index):
    """The qd count of ``experiments._bidiagonal_counts`` bisected to
    adjacent floats in x = √μ, as the experiments did before ``_certified_root``."""
    _, covers, _, hi, scale = experiments._bidiagonal_counts(diag, sup, index)
    return smallest_covering(lambda x: covers(x * x), math.sqrt(hi)) / scale


def bisected_y_relation(w, damped):
    """The y-relation counts of ``experiments._y_relation_counts``
    bisected to adjacent floats: the largest eigenvalue, then the
    smallest when it is the larger in modulus."""
    (_, covers_top, _, _), (_, covers_bottom, hi) = \
        experiments._y_relation_counts(w, damped)
    top = smallest_covering(covers_top, hi)
    if not covers_bottom(top):
        top = smallest_covering(covers_bottom, hi)
    return top * w.dt


def assert_within_root_tol(value, ref):
    assert abs(value - ref) <= ROOT_TOL * ref, (value, ref,
                                                  (value - ref) / ref / EPS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", BIDIAGONAL_SIZES)
def test_certified_root_matches_bisection_at_every_index(n):
    diag, sup = random_bidiagonal(n, 400 + n)
    for i in range(n):
        assert_within_root_tol(
            experiments._bidiagonal_singular_value(diag, sup, i),
            bisected_singular_value(diag, sup, i))


# worst 4.8ε at M = 256 and 5.8ε at M = 2048
@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("alpha, beta, length", [*WEYL_CORNERS, *WEYL_SETTINGS])
def test_weyl_spectra_match_bisection(alpha, beta, length, m):
    rep = weyl_relations_check(weyl_build(alpha, beta, m, length))
    diag, sup = experiments._yx_inverse(rep.grid)
    assert_within_root_tol(
        rep.rel2, 1.0 / bisected_singular_value(diag * diag, sup * diag[1:], 0))
    for i in sigma_indices(rep.grid.m):
        assert_within_root_tol(rep.sigma_at(i),
                                 1.0 / bisected_singular_value(diag, sup, i))
    assert_within_root_tol(rep.rel1_y_damped,
                             bisected_y_relation(rep.grid, True))
    assert_within_root_tol(rep.rel1_y, bisected_y_relation(rep.grid, False))


# a predicate that changes at ROOT exactly, with a probe whose Newton
# steps head for ``target``: for target = ROOT they are right, for any
# other they mislead the root finder
ROOT = 1.2345678901234567


def covers_root(t):
    return t >= ROOT


def misleading_probe(target, far=1e3):
    """Count and d log|det|/dt of (t - target)(t - far): Newton's method
    rises monotonically from 0 to target."""
    def probe(t):
        slope = (math.inf if t == target
                 else 1.0 / (t - target) + 1.0 / (t - far))
        return int(covers_root(t)), slope
    return probe


def test_right_newton_steps_need_no_bisection():
    calls = []
    probe = misleading_probe(ROOT)

    def counted_probe(t):
        calls.append("probe")
        return probe(t)

    def counted_covers(t):
        calls.append("covers")
        return covers_root(t)

    got = experiments._certified_root(counted_probe, counted_covers, 0,
                                      0.0, 10.0, from_lo=True)
    assert abs(got - ROOT) <= 4 * EPS * ROOT
    # a handful of Newton probes, then at most the two counts of the
    # certificate: no bisection
    assert calls.count("covers") <= 2 and len(calls) <= 10, calls


@pytest.mark.parametrize("multiplicity", [2, 3, 1024])
def test_multiple_root_is_certified_at_the_secant(multiplicity):
    # an eigenvalue of multiplicity m at ROOT: Newton's step from t is
    # (t - ROOT)/m, so its iterates stop short of ROOT, and the secant of
    # the step through the last two probes lands on it
    calls = []

    def probe(t):
        calls.append("probe")
        return (multiplicity if t >= ROOT else 0), multiplicity / (t - ROOT)

    def covers(t):
        calls.append("covers")
        return covers_root(t)

    got = experiments._certified_root(probe, covers, multiplicity - 1, 0.0, 10.0)
    assert abs(got - ROOT) <= 4 * EPS * ROOT
    # the bracketing counts, then two for the Newton root and two for the
    # secant: no bisection to adjacent floats
    after = calls[calls.index("probe"):]
    assert after.count("covers") == 4, after


@pytest.mark.parametrize("offset", [-1e-12, -1e-6])
def test_root_falls_back_to_bisection_when_the_certificate_fails_above(offset):
    # Newton converges to a point below the root, where covers fails on
    # both sides: the bracket is pushed up and bisected
    probe = misleading_probe(ROOT * (1 + offset))
    got = experiments._certified_root(probe, covers_root, 0, 0.0, 10.0,
                                      from_lo=True)
    assert got == ROOT == smallest_covering(covers_root, 10.0)


@pytest.mark.parametrize("offset", [1e-12, 1e-6])
def test_certificate_that_fails_below_falls_back_to_bisection(offset):
    # covers holds on both sides of the estimate: the root lies below it
    got = experiments._certify(covers_root, ROOT * (1 + offset), 1.0, 10.0)
    assert got == ROOT


def test_certificate_that_fails_above_falls_back_to_bisection():
    got = experiments._certify(covers_root, ROOT * (1 - 1e-9), 1.0, 10.0)
    assert got == ROOT


def test_certificate_that_holds_keeps_the_estimate():
    estimate = ROOT * (1 + 2 * EPS)
    assert experiments._certify(covers_root, estimate, 1.0, 10.0) == estimate


def test_root_without_a_slope_is_the_bisection():
    # a probe with no finite slope forces every step to be a split, and
    # the splits are those of the oracle bisection
    def probe(t):
        return int(covers_root(t)), math.nan

    for from_lo in (False, True):
        got = experiments._certified_root(probe, covers_root, 0, 0.0, 10.0,
                                          from_lo=from_lo)
        assert got == ROOT == smallest_covering(covers_root, 10.0)


@pytest.mark.parametrize("alpha, beta, length", WEYL_SETTINGS)
def test_weyl_spectra_without_newton_steps_are_the_bisection(
        alpha, beta, length, monkeypatch):
    # every probe of the Weyl counts loses its slope, so the root finder only
    # splits brackets; its answers are still the bisection's
    certified_root = experiments._certified_root

    def no_slope(probe, covers, index, lo, hi, from_lo=False):
        return certified_root(lambda t: (probe(t)[0], math.nan), covers, index, lo,
                      hi, from_lo)

    monkeypatch.setattr(experiments, "_certified_root", no_slope)
    rep = weyl_relations_check(weyl_build(alpha, beta, 256, length))
    diag, sup = experiments._yx_inverse(rep.grid)
    assert_within_root_tol(
        rep.rel2, 1.0 / bisected_singular_value(diag * diag, sup * diag[1:], 0))
    assert_within_root_tol(rep.sigma_at(64),
                             1.0 / bisected_singular_value(diag, sup, 64))
    assert_within_root_tol(rep.rel1_y_damped,
                             bisected_y_relation(rep.grid, True))
    assert_within_root_tol(rep.rel1_y, bisected_y_relation(rep.grid, False))


# one `experiment --which weyl --M 512` run reads six Weyl spectra, on the
# grids of 512 and 1024 points; bisection to adjacent floats took 379
# pivot passes for them, and the certified Newton steps take 94.  At
# --M 2048 and at the α = 1e6, β = -1e6, L = 1e-6 corner they take 115 and
# 145, 2 and 5 of them after a certificate that failed.  At α = 1, β = -1e6,
# L = 1e6 the bidiagonals are diagonal, and each y-relation has an
# eigenvalue of multiplicity 2 or M: Newton's steps stop short there, and
# the secant of the last two is certified instead.  That run takes 136
# passes; pushing out from the Newton root and bisecting took 224.
WEYL_PASS_BUDGETS = {
    "--M 512": 160,
    "--M 2048": 130,
    "--alpha 1000000 --beta -1000000 --L 0.000001 --M 1024": 160,
    "--alpha 1 --beta -1000000 --L 1000000 --M 1024": 160,
}


@pytest.mark.parametrize("args", WEYL_PASS_BUDGETS)
def test_weyl_experiment_pass_budget(args, monkeypatch, tmp_path):
    from graphreg import cli

    passes = []
    certified_root = experiments._certified_root

    def counting(probe, covers, index, lo, hi, from_lo=False):
        def counted_probe(t):
            passes.append("probe")
            return probe(t)

        def counted_covers(t):
            passes.append("covers")
            return covers(t)

        return certified_root(counted_probe, counted_covers, index, lo, hi, from_lo)

    monkeypatch.setattr(experiments, "_certified_root", counting)
    out = tmp_path / "weyl.json"
    assert cli.main(["--quiet", "--json", str(out), "experiment", "--which",
                     "weyl", *args.split()]) == 0
    assert 0 < len(passes) <= WEYL_PASS_BUDGETS[args], len(passes)


# at β = -1e6 and L = 1e6, ρ = e^{β·dt} underflows to 0, so (k·|D|)⁻¹ is
# diagonal; counting its singular values took about 40 pivot passes each
@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("alpha", WEYL_SCALE)
def test_diagonal_bidiagonal_takes_no_pass(alpha, m, monkeypatch):
    passes = []
    certified_root = experiments._certified_root

    def counting(probe, covers, index, lo, hi, from_lo=False):
        def counted_probe(t):
            passes.append("probe")
            return probe(t)

        def counted_covers(t):
            passes.append("covers")
            return covers(t)

        return certified_root(counted_probe, counted_covers, index, lo, hi, from_lo)

    monkeypatch.setattr(experiments, "_certified_root", counting)
    diag, sup = experiments._yx_inverse(weyl_build(alpha, -1e6, m, 1e6))
    assert not sup.any()
    for d, index in ((diag * diag, 0), (diag, m // 4)):
        assert (experiments._bidiagonal_singular_value(d, sup, index)
                == np.sort(np.abs(d))[index])
    assert passes == []
    with pytest.raises(BadParameters):
        experiments._bidiagonal_singular_value(diag, sup, m)


# the qd count and the Golub–Kahan count differ by O(M·ε): 3.4e-14 at
# (α, β, L) = (1e6, -1e-6, 1e-6), M = 2048, where a 40-digit reference
# puts them 3.1e-14 and 3.5e-15 off
@pytest.mark.parametrize("m", [256, 2048])
@pytest.mark.parametrize("alpha, beta, length", [*WEYL_CORNERS, *WEYL_SETTINGS])
def test_singular_values_match_the_golub_kahan_oracle(alpha, beta, length, m):
    w = weyl_build(alpha, beta, m, length)
    rep = weyl_relations_check(w)
    diag, sup = experiments._yx_inverse(w)
    ref = 1.0 / bidiagonal_singular_value(diag * diag, sup * diag[1:], 0)
    assert abs(rep.rel2 - ref) <= 1e-13 * ref, (rep.rel2, ref)
    for i in sigma_indices(m):
        ref = 1.0 / bidiagonal_singular_value(diag, sup, i)
        assert abs(rep.sigma_at(i) - ref) <= 1e-13 * ref, (i, rep.sigma_at(i), ref)


def decimal_bidiagonal_squares(w, commutator):
    """The squared diagonal q and superdiagonal e of (dt·|D| k |D|)⁻¹
    (``commutator``) or of (k·|D|)⁻¹, formed in the current decimal
    context from g_j = 1/(dt·|d_j|)² = (t_j² + α²)/dt² and ρ² = e^{2β·dt}:
    the first has diagonal g_j and superdiagonal -ρ·(g_j g_{j+1})^{1/2},
    the second g_j^{1/2} and -ρ·g_j^{1/2}."""
    dt = Decimal(w.dt)
    rho2 = (2 * Decimal(w.beta) * dt).exp()
    alpha2 = Decimal(w.alpha) ** 2
    g = [(Decimal(t) ** 2 + alpha2) / (dt * dt) for t in w.t.tolist()]
    if commutator:
        return [x * x for x in g], [rho2 * a * b for a, b in zip(g, g[1:])]
    return g, [rho2 * x for x in g[:-1]]


def decimal_count_below(q, e, x2):
    """How many eigenvalues of BᵀB lie below x²: the negative pivots of
    the LDLᵀ of the tridiagonal BᵀB - x²I, whose diagonal is
    q_j + e_{j-1} - x² and whose off-diagonal squares are q_j·e_j."""
    count, p = 0, None
    for j, qj in enumerate(q):
        if j == 0:
            p = qj - x2
        else:
            p = qj + e[j - 1] - x2 - q[j - 1] * e[j - 1] / p
        if p < 0:
            count += 1
        elif p == 0:
            p, count = Decimal("-1e-100"), count + 1
    return count


def decimal_singular_value(w, commutator, index, approx, steps=40):
    """The ``index``-th smallest singular value of the bidiagonal of
    ``decimal_bidiagonal_squares`` in 40-digit arithmetic, bisected from
    approx·(1 ± 1e-12)."""
    with localcontext() as ctx:
        ctx.prec = 40
        q, e = decimal_bidiagonal_squares(w, commutator)

        def covers(x):
            return decimal_count_below(q, e, x * x) > index

        lo = Decimal(approx) * (1 - Decimal("1e-12"))
        hi = Decimal(approx) * (1 + Decimal("1e-12"))
        assert not covers(lo) and covers(hi), approx
        for _ in range(steps):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if covers(mid) else (mid, hi)
        return float(hi)


@pytest.mark.parametrize("alpha, beta, length", WEYL_CORNERS)
def test_singular_values_match_a_decimal_reference(alpha, beta, length):
    rep = weyl_relations_check(weyl_build(alpha, beta, 256, length))
    quarter = rep.grid.m // 4
    for commutator, index, value in ((True, 0, rep.rel2),
                                     (False, quarter, rep.sigma_at(quarter))):
        ref = 1.0 / decimal_singular_value(rep.grid, commutator, index,
                                           1.0 / value)
        assert abs(value - ref) <= 1e-13 * ref, (commutator, value, ref)


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
    k = dense_kernel(w)
    dense = np.subtract.outer(w.t, w.t).T * k - k @ k
    assert np.abs(dense + w.dt * k).max() <= 1e-13 * np.abs(dense).max()
