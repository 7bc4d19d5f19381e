from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from graphreg.algebras import matrix_algebra
from graphreg.config import DEFAULT
from graphreg.errors import (
    AxiomsFailed,
    KernelNotTrivial,
    NonCommutingPair,
    NonFiniteValue,
    NotNormal,
)
from graphreg.expressions import conj as ast_conj, evaluate, mul as ast_mul, parse_expression
from graphreg.modules import GraphOperator, projection_onto
from graphreg.transforms import (
    AabTriple,
    QuotientPair,
    _spectral_apply,
    aab_forward,
    aab_inverse,
    ab_axioms_check,
    absolute_value,
    bounded_transform,
    from_bounded,
    functional_calculus,
    graph_projection,
    hermitian_sqrt,
    joint_diagonalize,
    opnorm,
    polar_decompose,
    random_operator,
)
from test_modules import loop_left_mult_map

RNG = np.random.default_rng(99)


def random_normal_operator(n, rng=RNG):
    # unitary conjugation of a random complex diagonal
    h = random_operator(n, rng)
    q, _ = np.linalg.qr(h)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return q @ np.diag(d) @ q.conj().T


# -- forward transform ------------------------------------------------------------


def test_zero_operator_triple():
    tr = aab_forward(np.zeros((3, 3), dtype=complex))
    assert np.allclose(tr.a, np.eye(3))
    assert np.allclose(tr.a_star, np.eye(3))
    assert np.allclose(tr.b, 0.0)


def test_identity_operator_triple():
    tr = aab_forward(np.eye(4, dtype=complex))
    assert np.allclose(tr.a, 0.5 * np.eye(4))
    assert np.allclose(tr.a_star, 0.5 * np.eye(4))
    assert np.allclose(tr.b, 0.5 * np.eye(4))


def test_forward_matches_dense_solve_oracle():
    t = random_operator(4, RNG)
    tr = aab_forward(t)
    eye = np.eye(4)
    # oracle: explicit inverses via an independent route (eigendecomposition)
    w, v = np.linalg.eigh(eye + t.conj().T @ t)
    a_oracle = (v / w) @ v.conj().T
    assert opnorm(tr.a - a_oracle) < 1e-10
    w2, v2 = np.linalg.eigh(eye + t @ t.conj().T)
    assert opnorm(tr.a_star - (v2 / w2) @ v2.conj().T) < 1e-10
    assert opnorm(tr.b - t @ a_oracle) < 1e-10


def test_adjoint_symmetry_of_transform():
    t = random_operator(5, RNG)
    tr = aab_forward(t)
    tr_star = aab_forward(t.conj().T)
    assert opnorm(tr_star.a - tr.a_star) < 1e-12
    assert opnorm(tr_star.a_star - tr.a) < 1e-12
    assert opnorm(tr_star.b - tr.b.conj().T) < 1e-12


def test_kernel_of_b_equals_kernel_of_t():
    t = random_operator(4, RNG)
    t[:, 0] = 0.0
    tr = aab_forward(t)
    _, s, vh = np.linalg.svd(t)
    null_t = vh[np.sum(s > 1e-12):].conj().T
    _, s2, vh2 = np.linalg.svd(tr.b)
    null_b = vh2[np.sum(s2 > 1e-12):].conj().T
    assert null_t.shape == null_b.shape
    overlap = np.linalg.svd(null_t.conj().T @ null_b, compute_uv=False)
    assert overlap.min() > 1 - 1e-10


# -- axiom checking ------------------------------------------------------------------


def test_axiom_report_clean_triple():
    rep = ab_axioms_check(aab_forward(random_operator(5, RNG)))
    assert rep.ok
    assert rep.residual_bb < 1e-10
    assert rep.residual_bbstar < 1e-10
    assert rep.residual_intertwine < 1e-10
    assert rep.norm_b <= 1 + 1e-12
    assert all(v < 1e-9 for v in rep.commutation_residuals.values())


def test_axiom_report_flags_injected_perturbation():
    tr = aab_forward(random_operator(4, RNG))
    e = np.zeros((4, 4)); e[0, 0] = 0.1
    bad = AabTriple(tr.a + e, tr.a_star, tr.b)
    rep = ab_axioms_check(bad)
    assert not rep.ok
    assert "b*b != a - a^2" in rep.failures  # the perturbed identity
    assert rep.residual_bb > 0.01


def test_aab_inverse_rejects_invalid_triple():
    tr = aab_forward(random_operator(3, RNG))
    with pytest.raises(AxiomsFailed):
        aab_inverse(AabTriple(tr.a + 0.2 * np.eye(3), tr.a_star, tr.b))


# -- round trips -----------------------------------------------------------------------


def test_trivial_triple_round_trip():
    qp = aab_inverse(AabTriple(np.eye(2, dtype=complex),
                               np.eye(2, dtype=complex),
                               np.zeros((2, 2), dtype=complex)))
    assert np.allclose(qp.reconstruct(), 0.0)


def test_round_trip_battery_small():
    for n in (2, 3, 5, 8):
        for _ in range(10):
            t = random_operator(n, RNG)
            tr = aab_forward(t)
            back = aab_inverse(tr).reconstruct()
            assert opnorm(back - t) < 1e-9 * max(1.0, opnorm(t))
            again = aab_forward(back)
            assert opnorm(again.a - tr.a) < 1e-9
            assert opnorm(again.a_star - tr.a_star) < 1e-9
            assert opnorm(again.b - tr.b) < 1e-9


def test_quotient_pair_agreement_on_range_a():
    t = random_operator(4, RNG)
    tr = aab_forward(t)
    qp = aab_inverse(tr)
    for _ in range(20):
        x = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        assert np.linalg.norm(qp.reconstruct() @ (tr.a @ x) - tr.b @ x) < 1e-9


# -- graph projection --------------------------------------------------------------------


def test_graph_projection_trivial_cases():
    p0 = graph_projection(aab_forward(np.zeros((2, 2), dtype=complex)))
    expect = np.zeros((4, 4)); expect[0, 0] = expect[1, 1] = 1.0
    assert np.allclose(p0, expect)
    p1 = graph_projection(aab_forward(np.eye(2, dtype=complex)))
    assert np.allclose(p1, 0.5 * np.kron(np.ones((2, 2)), np.eye(2)))


def test_graph_projection_identities_and_action():
    t = random_operator(3, RNG)
    p = graph_projection(aab_forward(t))
    assert opnorm(p @ p - p) < 1e-10
    assert opnorm(p - p.conj().T) < 1e-10
    for _ in range(20):
        x = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        gp = np.concatenate([x, t @ x])
        assert np.linalg.norm(p @ gp - gp) < 1e-9 * np.linalg.norm(gp)
        y = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        vg = np.concatenate([-t.conj().T @ y, y])
        assert np.linalg.norm(p @ vg) < 1e-9 * np.linalg.norm(vg)


def test_graph_projection_matches_module_projection():
    # independent construction through the A-valued complement machinery
    n = 3
    t = random_operator(n, RNG)
    alg = matrix_algebra(n)
    op = GraphOperator.from_matrix(alg, t)
    p_module = projection_onto(op.graph).matrix
    p_block = graph_projection(aab_forward(t))
    # translate the block projection to coordinate space: it acts blockwise
    d = alg.dim
    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = loop_left_mult_map(alg, p_block[:n, :n])
    big[:d, d:] = loop_left_mult_map(alg, p_block[:n, n:])
    big[d:, :d] = loop_left_mult_map(alg, p_block[n:, :n])
    big[d:, d:] = loop_left_mult_map(alg, p_block[n:, n:])
    assert opnorm(big - p_module) < 1e-9


# -- bounded transform -----------------------------------------------------------------------


def test_bounded_transform_zero():
    bt = bounded_transform(np.zeros((3, 3), dtype=complex))
    assert np.allclose(bt.z, 0.0)
    assert bt.in_z and bt.in_zd


def test_bounded_transform_against_eigen_oracle():
    t = random_operator(4, RNG)
    w, v = np.linalg.eigh(np.eye(4) + t.conj().T @ t)
    z_oracle = t @ ((v / np.sqrt(w)) @ v.conj().T)
    bt = bounded_transform(t)
    assert opnorm(bt.z - z_oracle) < 1e-10
    assert bt.norm <= 1 + 1e-12
    tr = aab_forward(t)
    assert opnorm(np.eye(4) - bt.z.conj().T @ bt.z - tr.a) < 1e-12
    assert opnorm(bt.z @ hermitian_sqrt(tr.a) - tr.b) < 1e-12


def test_from_bounded_and_round_trips():
    z = (1 / np.sqrt(2)) * np.eye(3, dtype=complex)
    assert opnorm(from_bounded(z) - np.eye(3)) < 1e-12
    rng = np.random.default_rng(5)
    z2 = 0.6 * random_operator(3, rng) / opnorm(random_operator(3, rng))
    z2 = 0.8 * z2 / max(1.0, opnorm(z2))
    t2 = from_bounded(z2)
    w, v = np.linalg.eigh(np.eye(3) - z2.conj().T @ z2)
    oracle = z2 @ ((v / np.sqrt(w)) @ v.conj().T)
    assert opnorm(t2 - oracle) < 1e-10
    bt = bounded_transform(t2)
    assert opnorm(bt.z - z2) < 1e-9


def test_from_bounded_rejects_isometry():
    with pytest.raises(KernelNotTrivial):
        from_bounded(np.eye(2, dtype=complex))


@pytest.mark.parametrize("top", [None, 1e5, 1e7])
def test_in_z_from_the_svd_matches_the_gram_spectrum(top):
    # 1 - z*z = V·diag(1/(1+σ²))·V*: in_z is 1/(1+σ₁²) > kernel_tol, the
    # verdict the least eigenvalue of the formed matrix gives
    rng = np.random.default_rng(21)
    for _ in range(4):
        t = random_operator(5, rng)
        if top is not None:
            t *= top / opnorm(t)
        z = bounded_transform(t).z
        gram = np.eye(5) - z.conj().T @ z
        oracle = bool(np.linalg.eigvalsh(gram).min() > DEFAULT.kernel_tol)
        assert bounded_transform(t).in_z is oracle is (top != 1e7)


@pytest.mark.parametrize("norm", [0.5, 0.9, 0.999])
def test_from_bounded_matches_eigen_oracle(norm):
    rng = np.random.default_rng(22)
    for _ in range(3):
        z = random_operator(4, rng)
        z *= norm / opnorm(z)
        w, v = np.linalg.eigh(np.eye(4) - z.conj().T @ z)
        oracle = z @ ((v / np.sqrt(w)) @ v.conj().T)
        assert opnorm(from_bounded(z) - oracle) <= 1e-10 * opnorm(oracle)


def test_from_bounded_refusal_names_the_least_eigenvalue():
    z = np.diag([1.0 - 1e-14, 0.5]).astype(complex)
    with pytest.raises(KernelNotTrivial, match="1 - z\\*z has least eigenvalue"):
        from_bounded(z)


def test_bounded_round_trip_on_range_a_squared():
    t = random_operator(5, RNG)
    tr = aab_forward(t)
    bt = bounded_transform(t)
    back = from_bounded(bt.z)
    for _ in range(10):
        x = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
        y = tr.a @ (tr.a @ x)
        assert np.linalg.norm(back @ y - t @ y) < 1e-8 * np.linalg.norm(y)


# -- absolute value -----------------------------------------------------------------------------


def test_absolute_value_of_minus_identity():
    at = absolute_value(aab_forward(-np.eye(3, dtype=complex)))
    assert np.allclose(at.a, 0.5 * np.eye(3))
    assert np.allclose(at.a_star, 0.5 * np.eye(3))
    assert np.allclose(at.b, 0.5 * np.eye(3))


def test_absolute_value_matches_svd_oracle():
    t = random_operator(5, RNG)
    tr = aab_forward(t)
    at = absolute_value(tr)
    _, s, vh = np.linalg.svd(tr.b)
    oracle = (vh.conj().T * s) @ vh
    assert opnorm(at.b - oracle) < 1e-10
    assert ab_axioms_check(at).ok
    assert at.is_normal()


def test_absolute_value_squares_to_tstar_t():
    t = random_operator(4, RNG)
    tr = aab_forward(t)
    at = absolute_value(tr)
    lhs = at.b @ np.linalg.inv(tr.a) @ at.b
    assert opnorm(lhs - t.conj().T @ t @ tr.a) < 1e-10


def test_absolute_value_positive_on_domain():
    t = random_operator(4, RNG)
    at = absolute_value(aab_forward(t))
    abs_op = at.b @ np.linalg.inv(at.a)
    for _ in range(10):
        x = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        val = np.vdot(x, abs_op @ x)
        assert val.real > -1e-9 and abs(val.imag) < 1e-9


# -- polar decomposition ------------------------------------------------------------------------


def test_polar_diag_and_unitary():
    v, absval = polar_decompose(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(v, np.diag([1.0, 0.0]))
    assert np.allclose(absval, np.diag([2.0, 0.0]))
    q, _ = np.linalg.qr(random_operator(3, RNG))
    v2, a2 = polar_decompose(q)
    assert opnorm(v2 - q) < 1e-12
    assert opnorm(a2 - np.eye(3)) < 1e-12


def test_polar_random_with_kernel():
    t = random_operator(5, RNG)
    t[:, 2] = 0.0
    v, absval = polar_decompose(t)
    assert opnorm(t - v @ absval) < 1e-10
    assert opnorm(absval - v.conj().T @ t) < 1e-10
    # v*v and vv* are the range projections
    _, s, vh = np.linalg.svd(t)
    r = np.sum(s > 1e-10)
    p_init = vh[:r].conj().T @ vh[:r]
    u, _, _ = np.linalg.svd(t, full_matrices=False)
    assert opnorm(v.conj().T @ v - p_init) < 1e-10
    assert opnorm(v @ v.conj().T - (t @ np.linalg.pinv(t))) < 1e-8
    # kernels agree
    assert np.linalg.norm(v[:, 2]) < 1e-12


# -- functional calculus ---------------------------------------------------------------------------


def test_calculus_requires_normality():
    t = random_operator(3, RNG) + np.diag([5.0, 0, 0])
    with pytest.raises(NotNormal):
        functional_calculus(aab_forward(t), parse_expression("w"))


def test_calculus_identity_recovers_operator():
    t = random_normal_operator(4)
    tr = aab_forward(t)
    out = functional_calculus(tr, parse_expression("w"), 0.0,
                              np.random.default_rng(1))
    assert opnorm(out - t) < 1e-8 * max(1.0, opnorm(t))


def test_calculus_resolvent_function_recovers_a():
    t = random_normal_operator(5)
    tr = aab_forward(t)
    out = functional_calculus(tr, parse_expression("1/(1+abs(w)^2)"), 0.0,
                              np.random.default_rng(2))
    assert opnorm(out - tr.a) < 1e-10


def test_calculus_b_function_recovers_b():
    t = random_normal_operator(4)
    tr = aab_forward(t)
    out = functional_calculus(tr, parse_expression("w/(1+abs(w)^2)"), 0.0,
                              np.random.default_rng(3))
    assert opnorm(out - tr.b) < 1e-10


def test_calculus_constant_with_beta():
    t = random_normal_operator(3)
    out = functional_calculus(aab_forward(t), parse_expression("0*w"), 1.0,
                              np.random.default_rng(4))
    assert opnorm(out - np.eye(3)) < 1e-12


def test_calculus_star_homomorphism_property():
    t = random_normal_operator(4, np.random.default_rng(17))
    tr = aab_forward(t)
    rng = np.random.default_rng(7)
    fs = ["w/(1+abs(w)^2)", "1/(1+abs(w)^2)", "w^2/(1+abs(w)^2)^2"]
    for _ in range(20):
        f = fs[rng.integers(len(fs))]
        g = fs[rng.integers(len(fs))]
        fa, ga = parse_expression(f), parse_expression(g)
        pf = functional_calculus(tr, fa, 0.0, np.random.default_rng(8))
        pg = functional_calculus(tr, ga, 0.0, np.random.default_rng(8))
        pfg = functional_calculus(tr, ast_mul(fa, ga), 0.0,
                                  np.random.default_rng(8))
        assert opnorm(pf @ pg - pfg) < 1e-8
        pconj = functional_calculus(tr, ast_conj(fa), 0.0,
                                    np.random.default_rng(8))
        assert opnorm(pconj - pf.conj().T) < 1e-8


def test_joint_diagonalize_repeated_eigenvalue():
    # a repeated eigenvalue of t gives a two-dimensional joint eigenspace,
    # of which eigh returns an orthonormal basis; 1, i and -i share the
    # eigenvalue 1/2 of a, and only Im b tells i and -i apart
    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(random_operator(5, rng))
    d = np.array([0.3 + 0.2j, 0.3 + 0.2j, 1.0, 1.0j, -1.0j])
    tr = aab_forward((u * d) @ u.conj().T)
    q, la, lb = joint_diagonalize(tr.a, tr.b, np.random.default_rng(0))
    assert opnorm(q.conj().T @ q - np.eye(5)) < 1e-13
    assert opnorm(q.conj().T @ tr.a @ q - np.diag(la)) < 1e-12
    assert opnorm(q.conj().T @ tr.b @ q - np.diag(lb)) < 1e-12
    assert np.allclose(np.sort_complex(lb / la), np.sort_complex(d))


def test_joint_diagonalize_rejects_noncommuting():
    a = np.diag([0.3, 0.6, 0.9]).astype(complex)
    b = random_operator(3, np.random.default_rng(11))
    with pytest.raises(NonCommutingPair):
        joint_diagonalize(a, b, np.random.default_rng(0))


def test_joint_diagonalize_rejects_non_normal_partner_of_identity():
    # every basis diagonalizes a = 1, so only the residual of b can fail
    b = np.triu(random_operator(3, np.random.default_rng(12)))
    with pytest.raises(NonCommutingPair):
        joint_diagonalize(np.eye(3, dtype=complex), b, np.random.default_rng(0))


# -- symbol backend ----------------------------------------------------------------------------


class TestSymbolBackend:
    def test_forward_triple_of_one_over_x(self):
        from graphreg import catalog
        from graphreg.transforms import aab_forward_symbol

        tr = aab_forward_symbol(catalog.one_over_x())
        xs = np.linspace(0.3, 4.0, 30)
        assert np.abs(tr.a(xs) - xs ** 2 / (1 + xs ** 2)).max() < 1e-12
        assert np.abs(tr.b(xs) - xs / (1 + xs ** 2)).max() < 1e-12

    def test_inverse_recovers_symbol_on_reg_grid(self):
        from graphreg import catalog
        from graphreg.transforms import aab_forward_symbol, aab_inverse_symbol

        m = catalog.one_over_x()
        back = aab_inverse_symbol(aab_forward_symbol(m))
        xs = np.array([-4.0, -0.5, 0.25, 2.0])
        assert np.abs(back(xs) - m(xs)).max() < 1e-9

    def test_forward_rejects_singular_support(self):
        from graphreg import catalog
        from graphreg.errors import NotGraphRegular
        from graphreg.transforms import aab_forward_symbol

        with pytest.raises(NotGraphRegular):
            aab_forward_symbol(catalog.exp_i_over_x())

    def test_absolute_value_symbol_matches_witnesses(self):
        from graphreg import catalog
        from graphreg.symbols import domain_membership
        from graphreg.transforms import absolute_value_symbol

        m = catalog.exp_i_over_x_over_x()
        absm = absolute_value_symbol(m)   # = t_{1/x} on (0,1]
        xs = np.linspace(0.05, 0.95, 20)
        assert np.abs(absm(xs) - 1.0 / xs).max() < 1e-12
        f = catalog.x_exp_minus_i_over_x()
        g = catalog.x_on_unit_interval()
        assert domain_membership(m, f) and not domain_membership(absm, f)
        assert domain_membership(absm, g) and not domain_membership(m, g)

    def test_bounded_transform_symbol_no_adjointable_extension(self):
        from graphreg import catalog
        from graphreg.transforms import bounded_transform_symbol

        bt = bounded_transform_symbol(catalog.one_over_x())
        # z = sign(x)/sqrt(1+x^2) on the continuity set
        xs = np.array([-2.0, -0.5, 0.5, 2.0])
        expect = np.sign(xs) / np.sqrt(1 + xs ** 2)
        assert np.abs(bt.z(xs) - expect).max() < 1e-12
        assert bt.extendable_at[0.0] is False   # phase jumps across 0
        assert not bt.adjointable
        assert bt.in_zd_on_core

    def test_bounded_transform_symbol_extendable_case(self):
        from graphreg import catalog
        from graphreg.transforms import bounded_transform_symbol

        bt = bounded_transform_symbol(catalog.x_exp_minus_i_over_x())
        assert bt.extendable_at[0.0] is True
        assert bt.adjointable

    def test_functional_calculus_recovers_b_symbol(self):
        from graphreg import catalog
        from graphreg.expressions import parse_expression
        from graphreg.symbols import regularity_report
        from graphreg.transforms import functional_calculus_symbol

        m = catalog.one_over_x()
        out = functional_calculus_symbol(m, parse_expression("w/(1+abs(w)^2)"))
        rep = regularity_report(m)
        xs = np.array([-3.0, -1.0, 0.5, 4.0])
        assert np.abs(out(xs) - rep.b_symbol(xs)).max() < 1e-12
        assert out(0.0) == 0.0  # beta-limit at the divergence point

    def test_functional_calculus_resolvent_recovers_a_symbol(self):
        from graphreg import catalog
        from graphreg.expressions import parse_expression
        from graphreg.symbols import regularity_report
        from graphreg.transforms import functional_calculus_symbol

        m = catalog.one_over_x()
        out = functional_calculus_symbol(m, parse_expression("1/(1+abs(w)^2)"))
        rep = regularity_report(m)
        xs = np.linspace(-5, 5, 41)
        good = np.abs(xs) > 1e-9
        assert np.abs(out(xs[good]) - rep.a_symbol(xs[good])).max() < 1e-12

    def test_functional_calculus_constant_beta(self):
        from graphreg import catalog
        from graphreg.expressions import parse_expression
        from graphreg.transforms import functional_calculus_symbol

        out = functional_calculus_symbol(catalog.one_over_x(),
                                         parse_expression("0*w"), 1.0)
        xs = np.array([-1.0, 0.0, 2.0])
        assert np.abs(out(xs) - 1.0).max() < 1e-12


def test_quotient_pair_kernel_inclusion():
    t = random_operator(4, RNG)
    t[:, 1] = 0.0
    qp = aab_inverse(aab_forward(t))
    assert qp.kernel_inclusion_residual() < 1e-10  # ker a trivial here
    # a with a kernel direction that b maps away: ill-defined pair
    a = np.diag([1.0, 0.0, 1.0]).astype(complex)
    b = np.eye(3, dtype=complex)
    from graphreg.transforms import QuotientPair
    assert QuotientPair(a, b).kernel_inclusion_residual() > 0.9


# -- stacked axiom check and vectorised calculus against their loop versions ---------


def _opnorm_ref(m):
    return float(np.linalg.norm(m, 2))


def _apply_spectral_ref(h, f):
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * f(np.clip(w, 0.0, None))) @ v.conj().T


def axioms_check_reference(triple, cfg=DEFAULT):
    """The per-matrix axiom check: one 2-norm SVD per residual, eigvalsh
    for the spectrum flags and one eigh per commutation function."""
    a, a_star, b = triple.a, triple.a_star, triple.b
    r_bb = _opnorm_ref(b.conj().T @ b - (a - a @ a))
    r_bbs = _opnorm_ref(b @ b.conj().T - (a_star - a_star @ a_star))
    r_int = _opnorm_ref(a @ b.conj().T - b.conj().T @ a_star)
    wa = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    ws = np.linalg.eigvalsh(0.5 * (a_star + a_star.conj().T))
    tol = cfg.residual_tol
    a_ok = bool(wa.min() > -tol and wa.max() < 1 + tol
                and _opnorm_ref(a - a.conj().T) < tol)
    s_ok = bool(ws.min() > -tol and ws.max() < 1 + tol
                and _opnorm_ref(a_star - a_star.conj().T) < tol)
    comm = {}
    for name, f in (("sqrt", np.sqrt), ("square", np.square),
                    ("cube", lambda x: x ** 3)):
        comm[name] = _opnorm_ref(_apply_spectral_ref(a_star, f) @ b
                                 - b @ _apply_spectral_ref(a, f))
    failures = []
    if r_bb > tol:
        failures.append("b*b != a - a^2")
    if r_bbs > tol:
        failures.append("bb* != a_* - a_*^2")
    if r_int > tol:
        failures.append("ab* != b*a_*")
    if not a_ok:
        failures.append("a outside [0,1] or not self-adjoint")
    if not s_ok:
        failures.append("a_* outside [0,1] or not self-adjoint")
    if wa.min() <= cfg.kernel_tol:
        failures.append("ker(a) nontrivial")
    if ws.min() <= cfg.kernel_tol:
        failures.append("ker(a_*) nontrivial")
    if _opnorm_ref(b) > 1 + tol:
        failures.append("||b|| > 1")
    if any(v > max(10 * tol, 1e-9) for v in comm.values()):
        failures.append("f(a_*) b != b f(a)")
    return {"residual_bb": r_bb, "residual_bbstar": r_bbs,
            "residual_intertwine": r_int, "a_spectrum_ok": a_ok,
            "a_star_spectrum_ok": s_ok, "kernel_a": float(wa.min()),
            "kernel_a_star": float(ws.min()), "norm_b": _opnorm_ref(b),
            "commutation_residuals": comm, "failures": failures}


def _singular(h):
    """h with its smallest eigenvalue set to 0."""
    w, v = np.linalg.eigh(h)
    w[0] = 0.0
    return (v * w) @ v.conj().T


def _skew(n, rng):
    k = random_operator(n, rng)
    return 1e-3j * (k + k.conj().T)


def oracle_triples():
    """Seeded valid triples on M_2..M_8, their absolute values, and broken
    variants hitting every failure message of the axiom check."""
    rng = np.random.default_rng(2024)
    out = []
    for n in range(2, 9):
        for _ in range(3):
            tr = aab_forward(random_operator(n, rng))
            a, s, b = tr.a, tr.a_star, tr.b
            e = np.zeros((n, n), dtype=complex)
            e[0, -1] = 0.1
            out += [
                ("valid", tr),
                ("abs", absolute_value(tr)),
                ("a scaled", AabTriple(1.5 * a, s, b)),
                ("a_* scaled", AabTriple(a, 1.5 * s, b)),
                ("b perturbed", AabTriple(a, s, b + e)),
                ("b large", AabTriple(a, s, b + 2.0 * np.eye(n))),
                ("a singular", AabTriple(_singular(a), s, b)),
                ("a_* singular", AabTriple(a, _singular(s), b)),
                ("a not Hermitian", AabTriple(a + _skew(n, rng), s, b)),
                ("a_* not Hermitian", AabTriple(a, s + _skew(n, rng), b)),
            ]
    return out


def test_axiom_check_matches_per_matrix_reference():
    fired = set()
    for label, tr in oracle_triples():
        rep = ab_axioms_check(tr)
        ref = axioms_check_reference(tr)
        assert rep.failures == tuple(ref["failures"]), label
        assert rep.a_spectrum_ok == ref["a_spectrum_ok"], label
        assert rep.a_star_spectrum_ok == ref["a_star_spectrum_ok"], label
        for key in ("residual_bb", "residual_bbstar", "residual_intertwine",
                    "kernel_a", "kernel_a_star", "norm_b"):
            want = ref[key]
            assert abs(getattr(rep, key) - want) <= 1e-12 * max(1.0, abs(want)), (label, key)
        assert rep.commutation_residuals.keys() == ref["commutation_residuals"].keys()
        for key, want in ref["commutation_residuals"].items():
            got = rep.commutation_residuals[key]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (label, key)
        if label in ("valid", "abs"):
            assert rep.ok, label
        fired.update(rep.failures)
    assert fired == {
        "b*b != a - a^2", "bb* != a_* - a_*^2", "ab* != b*a_*",
        "a outside [0,1] or not self-adjoint",
        "a_* outside [0,1] or not self-adjoint", "ker(a) nontrivial",
        "ker(a_*) nontrivial", "||b|| > 1", "f(a_*) b != b f(a)",
    }


def test_axiom_check_one_eigh_per_operator_and_one_svd(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "norm": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    ab_axioms_check(aab_forward(random_operator(5, np.random.default_rng(1))))
    assert calls == {"eigh": 2, "eigvalsh": 0, "svd": 1, "norm": 0}


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the np.linalg decompositions, solves and norms called."""
    calls = dict.fromkeys(("svd", "eigh", "eigvalsh", "solve", "eig", "qr", "norm"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_bounded_transform_is_one_svd(linalg_calls):
    bounded_transform(random_operator(5, np.random.default_rng(2)))
    assert linalg_calls == {"svd": 1, "eigh": 0, "eigvalsh": 0, "solve": 0,
                            "eig": 0, "qr": 0, "norm": 0}


def test_forward_is_one_solve(linalg_calls):
    aab_forward(random_operator(5, np.random.default_rng(2)))
    assert linalg_calls == {"svd": 0, "eigh": 0, "eigvalsh": 0, "solve": 1,
                            "eig": 0, "qr": 0, "norm": 0}


def test_transform_battery_decomposition_budget(linalg_calls):
    # the library-sweep battery on one operator; its own residual norms
    # are left out, so every count here is made inside the library
    rng = np.random.default_rng(3)
    t, k = random_operator(4, rng), random_operator(4, rng)
    h = k + k.conj().T
    tr = aab_forward(t)
    ab_axioms_check(tr)
    aab_inverse(tr).reconstruct()
    graph_projection(tr)
    from_bounded(bounded_transform(t).z)
    ab_axioms_check(absolute_value(tr))
    polar_decompose(t)
    functional_calculus(aab_forward(h), parse_expression("w"), 0.0, rng)
    assert linalg_calls == {"svd": 7, "eigh": 7, "eigvalsh": 0, "solve": 2,
                            "eig": 0, "qr": 0, "norm": 0}


def test_one_axiom_check_per_triple(linalg_calls):
    # aab_inverse, graph_projection and absolute_value each check the
    # triple again and get the report the first check kept: the axioms
    # cost their two eigh and one stacked svd once
    tr = aab_forward(random_operator(4, np.random.default_rng(4)))
    rep = ab_axioms_check(tr)
    aab_inverse(tr)
    graph_projection(tr)
    assert ab_axioms_check(tr) is rep
    assert linalg_calls == {"svd": 1, "eigh": 2, "eigvalsh": 0, "solve": 1,
                            "eig": 0, "qr": 0, "norm": 0}
    absolute_value(tr)      # one more eigh, for |b| = (b*b)^(1/2)
    assert linalg_calls == {"svd": 1, "eigh": 3, "eigvalsh": 0, "solve": 1,
                            "eig": 0, "qr": 0, "norm": 0}


def test_axiom_report_is_kept_per_config():
    tr = aab_forward(random_operator(4, np.random.default_rng(5)))
    strict = replace(DEFAULT, residual_tol=1e-30)
    loose = ab_axioms_check(tr)
    tight = ab_axioms_check(tr, strict)
    assert loose.ok and not tight.ok
    assert "b*b != a - a^2" in tight.failures
    assert ab_axioms_check(tr, replace(DEFAULT, residual_tol=1e-30)) is tight
    assert ab_axioms_check(tr, DEFAULT) is loose
    with pytest.raises(AxiomsFailed):
        aab_inverse(tr, strict)


def test_triple_matrices_are_read_only_copies():
    a, s, b = np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2))
    tr = AabTriple(a, s, b)
    with pytest.raises(ValueError):
        tr.a[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        tr.b = np.ones((2, 2))
    a[0, 0] = 7.0       # the caller's array is not the triple's
    assert tr.a[0, 0] == 1.0
    rep = ab_axioms_check(tr)
    assert isinstance(rep.failures, tuple)
    with pytest.raises(TypeError):
        rep.commutation_residuals["sqrt"] = 0.0


@pytest.mark.parametrize("entry", ["aab_forward", "bounded_transform",
                                   "from_bounded", "polar_decompose",
                                   "ab_axioms_check"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_refused(entry, bad):
    m = np.diag([bad, 0.5])
    calls = {
        "aab_forward": lambda: aab_forward(m),
        "bounded_transform": lambda: bounded_transform(m),
        "from_bounded": lambda: from_bounded(m),
        "polar_decompose": lambda: polar_decompose(m),
        "ab_axioms_check": lambda: ab_axioms_check(AabTriple(np.eye(2), np.eye(2), m)),
    }
    with pytest.raises(NonFiniteValue, match=entry):
        calls[entry]()


@pytest.mark.parametrize("n", [2, 5])
def test_forward_solve_right_hand_side_is_a_matrix_on_every_numpy(monkeypatch, n):
    # numpy < 2 reads a b of ndim a.ndim - 1 as a stack of vectors, so the
    # stacked solve must pass b with the stack's ndim to mean eye on both
    solve, shapes = np.linalg.solve, []

    def recording(a, b):
        shapes.append((np.ndim(a), np.ndim(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    t = random_operator(n, np.random.default_rng(n))
    tr = aab_forward(t)
    assert shapes and all(na == nb for na, nb in shapes)
    eye = np.eye(n)
    assert opnorm(tr.a @ (eye + t.conj().T @ t) - eye) < 1e-12
    assert opnorm(tr.a_star @ (eye + t @ t.conj().T) - eye) < 1e-12


@pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5), (4, 3, 3), (2, 5, 2),
                                   (0, 0), (0, 3), (3, 0), (2, 0, 0)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_opnorm_is_numpy_spectral_norm_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(len(shape) + sum(shape))
    m = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        m += 1j * rng.standard_normal(shape)
    got, want = opnorm(m), np.linalg.norm(m, 2, axis=(-2, -1))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert isinstance(got, float) == (len(shape) == 2)


def test_spectral_apply_on_a_stack_matches_separate_calls():
    rng = np.random.default_rng(8)
    k = np.stack([random_operator(4, rng) for _ in range(2)])
    hs = k @ k.conj().swapaxes(-1, -2)
    got = _spectral_apply(hs, np.sqrt)
    assert got.shape == (2, 4, 4)
    for j in range(2):
        want = _spectral_apply(hs[j], np.sqrt)
        assert opnorm(got[j] - want) <= 1e-14 * opnorm(want)


def functional_calculus_reference(triple, f_ast, beta, rng, cfg=DEFAULT):
    """The scalar loop: f evaluated once per eigenvalue ratio λ_b/λ_a."""
    q, la, lb = joint_diagonalize(triple.a, triple.b, rng, cfg)
    vals = np.empty(len(la), dtype=complex)
    for k, (za, zb) in enumerate(zip(la, lb)):
        if za.real <= cfg.kernel_tol:
            vals[k] = beta
        else:
            vals[k] = complex(evaluate(f_ast, zb / za)) + beta
    return (q * vals) @ q.conj().T


def _degenerate_normal_triple(rng):
    # a = a_* with a zero eigenvalue: the compactification point, where f
    # is replaced by β
    q, _ = np.linalg.qr(random_operator(4, rng))
    la = np.array([0.0, 0.5, 0.2, 0.9])
    lb = np.array([0.0, 0.5, 0.4j, -0.3])
    a = (q * la) @ q.conj().T
    return AabTriple(a, a.copy(), (q * lb) @ q.conj().T)


@pytest.mark.parametrize("text", [
    "w", "1/(1+abs(w)^2)", "w/(1+abs(w)^2)", "0*w", "exp(-abs(w)^2)", "2",
])
@pytest.mark.parametrize("beta", [0.0, 1.0 - 0.5j])
def test_functional_calculus_matches_scalar_loop(text, beta):
    rng = np.random.default_rng(12)
    f = parse_expression(text)
    triples = [aab_forward(random_normal_operator(n, rng)) for n in (2, 5, 8)]
    triples.append(_degenerate_normal_triple(rng))
    for tr in triples:
        got = functional_calculus(tr, f, beta, np.random.default_rng(5))
        want = functional_calculus_reference(tr, f, beta, np.random.default_rng(5))
        assert opnorm(got - want) <= 1e-12 * max(1.0, opnorm(want))


def test_functional_calculus_uses_beta_where_a_degenerates():
    tr = _degenerate_normal_triple(np.random.default_rng(3))
    out = functional_calculus(tr, parse_expression("1"), 2.0,
                              np.random.default_rng(0))
    # f + β = 3 on the live ratios; the kernel direction of a gets β alone
    w = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
    assert np.allclose(w, [2.0, 3.0, 3.0, 3.0], atol=1e-12)


def test_functional_calculus_rejects_non_finite_values():
    tr = aab_forward(random_normal_operator(3, np.random.default_rng(4)))
    with pytest.raises(NonFiniteValue, match="functional calculus"):
        functional_calculus(tr, parse_expression("1/(w-w)"), 0.0,
                            np.random.default_rng(0))


def test_spectral_helpers_keep_their_errors():
    with pytest.raises(AxiomsFailed, match="matrix not PSD"):
        hermitian_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(KernelNotTrivial, match="a has a nontrivial kernel"):
        QuotientPair(np.diag([1.0, 0.0]), np.eye(2)).reconstruct()
    h = np.diag([4.0, 0.25])
    assert opnorm(hermitian_sqrt(h) - np.diag([2.0, 0.5])) < 1e-15
    assert opnorm(QuotientPair(h, np.eye(2)).reconstruct()
                  - np.diag([0.25, 4.0])) < 1e-15


def test_bounded_transform_in_zd_is_in_z():
    bt = bounded_transform(random_operator(3, np.random.default_rng(6)))
    assert bt.in_zd is bt.in_z
