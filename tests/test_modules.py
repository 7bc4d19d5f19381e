import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphreg.algebras import (
    BlockAlgebra,
    ModuleElement,
    constant_matrix,
    grid_model,
    inner_product,
    matrix_algebra,
)
from graphreg.config import DEFAULT
from graphreg.experiments import resolvent_affiliation_check
from graphreg.errors import (
    DescriptorMismatch,
    NonFiniteValue,
    NotEssentialDomain,
)
from graphreg import modules
from graphreg.modules import (
    GraphOperator,
    Submodule,
    is_graph_regular,
    nullspace,
    orthogonal_complement,
    orthonormal_columns,
    projection_onto,
    same_span,
)
from graphreg.transforms import QuotientPair, numerical_rank

RNG = np.random.default_rng(20240811)


def random_element(alg, rng=RNG):
    m = np.zeros((alg.N, alg.N), dtype=complex)
    for off, n in zip(alg.offsets, alg.sizes):
        blk = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[off:off + n, off:off + n] = blk
    return m


# -- inner products -----------------------------------------------------------


def test_inner_product_identity():
    alg = matrix_algebra(2)
    e = ModuleElement(alg, np.eye(2))
    assert np.allclose(inner_product(e, e), np.eye(2))


def test_inner_product_matrix_units_against_direct_product():
    alg = matrix_algebra(2)
    e12 = np.zeros((2, 2), complex); e12[0, 1] = 1
    e22 = np.zeros((2, 2), complex); e22[1, 1] = 1
    got = inner_product(ModuleElement(alg, e12), ModuleElement(alg, e22))
    # oracle: direct matrix product e21 @ e22 (= 0 here)
    assert np.allclose(got, e12.conj().T @ e22)
    e11 = np.zeros((2, 2), complex); e11[0, 0] = 1
    got2 = inner_product(ModuleElement(alg, e12), ModuleElement(alg, e11))
    assert np.allclose(got2, e12.conj().T @ e11)
    assert np.allclose(got2, np.array([[0, 0], [1, 0]]))


def test_inner_product_conjugate_symmetric_and_positive():
    alg = matrix_algebra(3)
    x = ModuleElement(alg, random_element(alg))
    y = ModuleElement(alg, random_element(alg))
    assert np.allclose(inner_product(x, y), inner_product(y, x).conj().T)
    gram = inner_product(x, x)
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > -1e-12
    assert abs(x.norm() ** 2 - np.linalg.norm(gram, 2)) < 1e-10


def test_inner_product_descriptor_mismatch():
    x = ModuleElement(matrix_algebra(2), np.eye(2))
    y = ModuleElement(matrix_algebra(3), np.eye(3))
    with pytest.raises(DescriptorMismatch):
        inner_product(x, y)


# -- complements ---------------------------------------------------------------


def test_complement_of_zero_and_full():
    alg = matrix_algebra(2)
    assert orthogonal_complement(Submodule.zero(alg)).dim == alg.dim
    assert orthogonal_complement(Submodule.full(alg)).dim == 0


def test_complement_block_sum_algebra():
    # A = M2 ⊕ M1, F generated by (e11, 0)
    alg = BlockAlgebra((2, 1))
    gen = np.zeros((3, 3), complex)
    gen[0, 0] = 1.0
    f = Submodule.from_elements(alg, [gen])
    assert f.dim == 2  # e11, e12: the top row of the M2 block
    comp = orthogonal_complement(f)
    # brute-force oracle: nullspace of the stacked constraint matrix,
    # built directly from the definition <g, x> = g* x = 0
    rows = []
    for col in f.basis.T:
        g = alg.to_matrix(col)
        rows.append(np.column_stack(
            [(g.conj().T @ u).ravel() for u in alg.basis_matrices()]))
    ns = np.linalg.svd(np.vstack(rows))[2].conj().T[:, np.linalg.matrix_rank(
        np.vstack(rows)):]
    assert comp.dim == ns.shape[1]
    assert same_span(comp.basis, np.linalg.qr(ns)[0], 1e-9)
    # F ⊕ F^⊥ is essential
    total = module_sum(f, comp)
    assert orthogonal_complement(total).dim == 0


def test_complement_triple_equals_single():
    alg = matrix_algebra(3)
    f = Submodule.from_elements(alg, [random_element(alg)[:, :1] @
                                      random_element(alg)[:1, :]])
    c = orthogonal_complement(f)
    ccc = orthogonal_complement(orthogonal_complement(c))
    assert c.equals(ccc)


def test_equals_compares_spans_not_dimensions():
    alg = matrix_algebra(3)
    t = random_element(alg)
    graph, scaled = (GraphOperator.from_matrix(alg, m).graph for m in (t, 2 * t))
    assert graph.dim == scaled.dim and not graph.equals(scaled)
    # e11 and e22 generate the first and the second row
    row1, row2 = (Submodule.from_elements(alg, [np.outer(e, e)])
                  for e in np.eye(3)[:2])
    assert row1.dim == row2.dim == 3 and not row1.equals(row2)


# -- projections -----------------------------------------------------------------


def test_projection_full_and_zero():
    alg = matrix_algebra(2)
    p_full = projection_onto(Submodule.full(alg))
    assert np.allclose(p_full.matrix, np.eye(alg.dim))
    p_zero = projection_onto(Submodule.zero(alg))
    assert np.allclose(p_zero.matrix, 0.0)


def test_projection_identities_and_range():
    alg = matrix_algebra(3)
    t = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    op = GraphOperator.from_matrix(alg, t)
    p = projection_onto(op.graph)
    assert p.idempotency_residual() < 1e-10
    assert p.selfadjoint_residual() < 1e-10
    for col in op.graph.basis.T:
        assert np.linalg.norm(p.matrix @ col - col) < 1e-10


# -- adjoints via graphs -----------------------------------------------------------


def test_adjoint_of_identity():
    alg = matrix_algebra(2)
    op = GraphOperator.identity(alg)
    adj = op.adjoint()
    assert same_span(adj.graph.basis, op.graph.basis, 1e-10)


def test_adjoint_equals_conjugate_transpose():
    alg = matrix_algebra(4)
    for _ in range(3):
        t = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        op = GraphOperator.from_matrix(alg, t)
        adj = op.adjoint()
        expect = loop_left_mult_map(alg, t.conj().T)
        assert np.linalg.norm(adj.action_matrix() - expect, 2) < 1e-12


def test_double_adjoint_returns_graph():
    alg = matrix_algebra(3)
    t = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    op = GraphOperator.from_matrix(alg, t)
    assert op.adjoint().adjoint().graph.equals(op.graph)


def test_null_tstar_equals_range_perp():
    alg = matrix_algebra(3)
    t = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    t[:, 0] = t[:, 1]  # force a kernel
    op = GraphOperator.from_matrix(alg, t)
    null_star = op.adjoint().kernel()
    range_perp = orthogonal_complement(op.range())
    assert same_span(null_star.basis, range_perp.basis, 1e-9)


def test_graph_plus_vgraph_adjoint_essential():
    alg = matrix_algebra(2)
    t = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    op = GraphOperator.from_matrix(alg, t)
    adj = op.adjoint()
    d = alg.dim
    v_adj = np.vstack([-adj.graph.basis[d:], adj.graph.basis[:d]])
    total = module_sum(op.graph, Submodule.from_vectors(alg, 2, v_adj.T))
    assert orthogonal_complement(total).dim == 0


# -- regularity ---------------------------------------------------------------------


def test_identity_is_regular():
    alg = matrix_algebra(2)
    v = GraphOperator.identity(alg).regularity()
    assert v.graph_regular and v.regular


def test_symbol_dispatch_matches_paper_classifications():
    from graphreg import catalog

    v = is_graph_regular(catalog.exp_i_over_x())
    assert not v.graph_regular
    v2 = is_graph_regular(catalog.one_over_x())
    assert v2.graph_regular and not v2.regular


def test_quotient_pair_dispatch():
    from graphreg.transforms import aab_forward, aab_inverse

    t = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    qp = aab_inverse(aab_forward(t))
    v = is_graph_regular(qp)
    assert v.graph_regular and v.regular


# -- the 3-point grid model of 2x2 matrices over C0(R) -------------------------------


class TestGridModel:
    def setup_method(self):
        self.A, self.A0, self.MA = grid_model(3)
        self.a0_in_a = Submodule.from_vectors(
            self.A, 1, [self.A.to_coords(m) for m in self.A0.basis_matrices()])

    def test_masks_multiplicative(self):
        assert self.A.closed_under_product()
        assert self.A0.closed_under_product()

    def test_lower_corner_operator_domains(self):
        t = constant_matrix(self.A, np.array([[0, 0], [1, 0]], complex))
        dom = GraphOperator.mult_domain(self.A, [t])
        assert dom.equals(Submodule.full(self.A))
        dom_star = GraphOperator.mult_domain(self.A, [t.conj().T])
        assert dom_star.equals(self.a0_in_a)

    def test_adjoint_action_on_a0(self):
        t = constant_matrix(self.A, np.array([[0, 0], [1, 0]], complex))
        op = GraphOperator.from_matrix(self.A, t)
        adj = op.adjoint()
        expect = loop_left_mult_map(
            self.A, constant_matrix(self.A, np.array([[0, 1], [0, 0]], complex)))
        resid = np.linalg.norm(
            (adj.action_matrix() - expect) @ self.a0_in_a.basis, 2)
        assert resid < 1e-10

    def test_adjoint_on_a0_is_refused(self):
        # Def(t) = A0 ⊂ A has A0^⊥ ≠ {0}, so Graph(t)^⊥ holds (0, y) pairs
        # and the adjoint would be multivalued
        t = constant_matrix(self.A, np.array(GRID_BLOCKS["lower"], complex))
        op = GraphOperator.from_matrix(self.A, t, domain=self.a0_in_a)
        with pytest.raises(NotEssentialDomain, match="multivalued"):
            op.adjoint()

    def test_b_transform_escapes_multiplier_algebra(self):
        b = constant_matrix(self.A, np.array([[0, 0], [0.5, 0]], complex))
        assert not self.A.is_multiplier(b)
        assert not self.MA.contains(b)
        a = constant_matrix(self.A, np.diag([0.5, 1.0]).astype(complex))
        assert self.A.is_multiplier(a)

    def test_range_one_plus_t_tstar_is_proper(self):
        # for t = (0 0; 1 0): Def(tt*) = A0 and (1+tt*)A0 = A0, a proper
        # submodule, so the inverse a_* is not everywhere defined
        t = constant_matrix(self.A, np.array([[0, 0], [1, 0]], complex))
        dom = GraphOperator.mult_domain(self.A, [t.conj().T, t])
        assert dom.equals(self.a0_in_a)
        one_plus = np.eye(self.A.N) + t @ t.conj().T
        image = [self.A.to_coords(one_plus @ self.A.to_matrix(c))
                 for c in dom.basis.T]
        rng_sub = Submodule.from_vectors(self.A, 1, image)
        assert rng_sub.equals(self.a0_in_a)
        assert rng_sub.dim < self.A.dim

    def test_row_sum_operator_proper_tstar_t_domain(self):
        t3 = constant_matrix(self.A, np.array([[0, 0], [1, 1]], complex))
        dom = GraphOperator.mult_domain(self.A, [t3])
        dom2 = GraphOperator.mult_domain(self.A, [t3, t3.conj().T])
        assert dom.equals(Submodule.full(self.A))
        assert dom2.equals(self.a0_in_a)
        assert dom2.dim < dom.dim


# -- gathered coordinate maps against the per-entry loops they replaced ---------
#
# The references below are the loop implementations: coordinates walk the
# allowed entries block by block, maps are built one matrix unit at a time,
# and nullspaces come from the full SVD.

TOL = DEFAULT.subspace_tol


def loop_entries(alg, full=False):
    out = []
    for mask, n, off in zip(alg.masks, alg.sizes, alg.offsets):
        for i in range(n):
            for j in range(n):
                if full or mask[i, j]:
                    out.append((off + i, off + j))
    return out


def loop_to_matrix(alg, coords):
    m = np.zeros((alg.N, alg.N), dtype=complex)
    for v, (i, j) in zip(np.asarray(coords, dtype=complex), loop_entries(alg)):
        m[i, j] = v
    return m


def loop_to_coords(alg, matrix, full=False):
    matrix = np.asarray(matrix, dtype=complex)
    return np.array([matrix[i, j] for i, j in loop_entries(alg, full)])


def loop_units(alg):
    return [loop_to_matrix(alg, e) for e in np.eye(alg.dim, dtype=complex)]


def loop_left_mult_map(alg, m, full=False):
    """x ↦ m·x from coordinates to the coordinates (or, with ``full``, to
    every block entry), one matrix unit at a time."""
    return np.column_stack([loop_to_coords(alg, m @ u, full)
                            for u in loop_units(alg)])


def loop_right_mult_maps(alg):
    units = loop_units(alg)
    return [np.column_stack([loop_to_coords(alg, f @ e) for f in units])
            for e in units]


def loop_constraint_rows(sub):
    alg = sub.algebra
    units = loop_units(alg)
    rows = []
    for col in sub.basis.T:
        comps = col.reshape(sub.ncomp, alg.dim)
        gmats = [loop_to_matrix(alg, c).conj().T for c in comps]
        block_cols = []
        for g in gmats:
            block_cols.extend(loop_to_coords(alg, g @ u, full=True) for u in units)
        rows.append(np.column_stack(block_cols))
    return np.vstack(rows) if rows else np.zeros((0, sub.ncomp * alg.dim), complex)


def full_svd_nullspace(mat, tol=TOL):
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    r = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
    return vh[r:].conj().T


@dataclass
class LoopModule:
    """A submodule as the loop oracles hold it: an orthonormal basis of
    its coordinate span in ℂ^(ncomp·dim A)."""

    algebra: BlockAlgebra
    ncomp: int
    basis: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]

    def equals(self, other):
        return same_span(self.basis, other.basis, TOL)


def loop_full(alg, ncomp):
    return LoopModule(alg, ncomp, np.eye(ncomp * alg.dim, dtype=complex))


def loop_closure(alg, ncomp, vectors):
    basis = orthonormal_columns(np.column_stack(vectors), TOL)
    rmaps = loop_right_mult_maps(alg)
    while True:
        images = [basis] + [np.kron(np.eye(ncomp), r) @ basis for r in rmaps]
        new = orthonormal_columns(np.hstack(images), TOL)
        if new.shape[1] == basis.shape[1]:
            return LoopModule(alg, ncomp, new)
        basis = new


def loop_complement(sub):
    if sub.dim == 0:
        return loop_full(sub.algebra, sub.ncomp)
    basis = full_svd_nullspace(loop_constraint_rows(sub))
    return LoopModule(sub.algebra, sub.ncomp, basis)


def reduced_loop_complement(sub):
    """``loop_complement`` with the nullspace from the reduced SVD, whose
    memory stays small for the constraint matrices of larger examples."""
    if sub.dim == 0:
        return loop_full(sub.algebra, sub.ncomp)
    return LoopModule(sub.algebra, sub.ncomp,
                      nullspace(loop_constraint_rows(sub), TOL))


def loop_mult_domain(alg, t):
    allowed = np.zeros((alg.N, alg.N), dtype=bool)
    for i, j in loop_entries(alg):
        allowed[i, j] = True
    units = loop_units(alg)
    cons = np.column_stack([np.where(allowed, 0.0, t @ u).ravel()
                            for u in units])
    null = full_svd_nullspace(cons)
    if null.shape[1] == 0:
        return LoopModule(alg, 1, np.zeros((alg.dim, 0), complex))
    return loop_closure(alg, 1, list(null.T))


def loop_graph(alg, t, domain=None):
    if domain is None:
        domain = loop_mult_domain(alg, t)
    cols = [np.concatenate([c, loop_to_coords(alg, t @ loop_to_matrix(alg, c))])
            for c in domain.basis.T]
    if not cols:
        return LoopModule(alg, 2, np.zeros((2 * alg.dim, 0), complex))
    return LoopModule(alg, 2, orthonormal_columns(np.column_stack(cols), TOL))


def module_sum(a, b):
    return Submodule(a.algebra, a.ncomp, [
        orthonormal_columns(np.hstack([u, v]), TOL)
        for u, v in zip(a.spaces, b.spaces)])


def compose_relations(r2, r1, dims):
    """Compose graphs r1 ⊆ E⊕F, r2 ⊆ F⊕G given as stacked column bases."""
    de, df, dg = dims
    x1, y1 = r1[:de], r1[de:]
    x2, y2 = r2[:df], r2[df:]
    if r1.shape[1] == 0 or r2.shape[1] == 0:
        return np.zeros((de + dg, 0), complex)
    pairs = nullspace(np.hstack([y1, -x2]), TOL)
    alpha, beta = pairs[: r1.shape[1]], pairs[r1.shape[1] :]
    return orthonormal_columns(np.vstack([x1 @ alpha, y2 @ beta]), TOL)


def relation_range(rel, de):
    return orthonormal_columns(rel[de:], TOL)


def one_plus_relation(rel, de):
    """{(x, x+y) : (x,y) in rel}."""
    return np.vstack([rel[:de], rel[:de] + rel[de:]])


def loop_regularity(alg, t, domain=None, complement=loop_complement):
    """Graph, verdict fields and diagnostics, each complement formed anew."""
    graph = loop_graph(alg, t, domain)
    d = alg.dim
    dom = LoopModule(alg, 1, orthonormal_columns(graph.basis[:d], TOL))
    essential = complement(dom).dim == 0
    closed = graph.equals(complement(complement(graph)))
    diagnostics = {}
    graph_regular = False
    if essential and closed:
        perp = complement(graph)
        adj = np.vstack([-perp.basis[d:], perp.basis[:d]])
        tstar_t = compose_relations(adj, graph.basis, (d, d, d))
        t_tstar = compose_relations(graph.basis, adj, (d, d, d))
        rng1 = relation_range(one_plus_relation(tstar_t, d), d)
        rng2 = relation_range(one_plus_relation(t_tstar, d), d)
        diagnostics = {"rank_one_plus_tstar_t": rng1.shape[1],
                       "rank_one_plus_t_tstar": rng2.shape[1]}
        graph_regular = rng1.shape[1] == d and rng2.shape[1] == d
    dense = dom.dim == d
    return graph.dim, (essential, closed, graph_regular, graph_regular and dense,
                       dense, diagnostics)


def verdict_tuple(v):
    return (v.essentially_defined, v.orthogonally_closed, v.graph_regular,
            v.regular, v.domain_dense, v.diagnostics)


def random_operator(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


GRID_BLOCKS = {"nilpotent": [[0, 0], [1, 0]], "lower": [[0, 0], [1, 1]]}


def oracle_algebras():
    algs = [matrix_algebra(n) for n in range(2, 6)] + [BlockAlgebra((2, 1))]
    for npts in range(3, 6):
        algs.extend(grid_model(npts))
    return algs


def oracle_submodules(alg, rng):
    """A graph (two components), its domain and a generated submodule."""
    if alg.sizes[0] == 2 and len(alg.sizes) > 2:
        t = constant_matrix(alg, np.array(GRID_BLOCKS["lower"], complex))
    else:
        t = random_element(alg, rng)
    op = GraphOperator.from_matrix(alg, t)
    gen = Submodule.from_elements(alg, [alg.to_matrix(alg.to_coords(
        random_element(alg, rng)[:, :1] @ random_element(alg, rng)[:1, :]))])
    return [op.graph, op.domain(), gen]


# the structural predicates as they were computed, from complements and
# the integer product of the mask
def is_essential_reference(sub):
    return orthogonal_complement(sub).dim == 0


def is_orthogonally_closed_reference(sub):
    return sub.equals(orthogonal_complement(orthogonal_complement(sub)))


def closed_under_product_reference(alg):
    reach = alg.allowed.astype(int) @ alg.allowed.astype(int) > 0
    return not np.any(reach & ~alg.allowed)


@pytest.mark.parametrize("alg", oracle_algebras(), ids=repr)
def test_structural_predicates_match_their_references(alg):
    assert alg.closed_under_product() == closed_under_product_reference(alg)
    subs = oracle_submodules(alg, np.random.default_rng(11)) + [
        Submodule.zero(alg), Submodule.full(alg), Submodule.full(alg, 2)]
    essential = [is_essential_reference(sub) for sub in subs]
    assert [sub.is_essential() for sub in subs] == essential
    assert True in essential and False in essential
    for sub in subs:
        assert sub.is_orthogonally_closed() == is_orthogonally_closed_reference(sub)


class TestGatheredAgainstLoops:
    @pytest.mark.parametrize("alg", oracle_algebras(), ids=repr)
    def test_coordinate_maps_match_loops(self, alg):
        rng = np.random.default_rng(7)
        m = random_element(alg, rng)
        c = alg.to_coords(m)
        assert np.array_equal(c, loop_to_coords(alg, m))
        assert np.array_equal(alg.to_matrix(c), loop_to_matrix(alg, c))
        assert np.array_equal(np.asarray(alg.right_mult_maps()),
                              np.asarray(loop_right_mult_maps(alg)))

    @pytest.mark.parametrize("alg", oracle_algebras(), ids=repr)
    def test_membership_matches_unit_products(self, alg):
        rng = np.random.default_rng(8)
        units = loop_units(alg)
        samples = [random_element(alg, rng), alg.identity(),
                   loop_to_matrix(alg, rng.standard_normal(alg.dim))]
        if len(alg.sizes) > 2:
            samples += [constant_matrix(alg, np.array(b, complex))
                        for b in GRID_BLOCKS.values()]
        for m in samples:
            left = all(alg.contains(m @ e) for e in units)
            right = all(alg.contains(e @ m) for e in units)
            assert alg.is_left_multiplier(m) == left
            assert alg.is_multiplier(m) == (left and right)
        closed = all(alg.contains(e @ f) for e in units for f in units)
        assert alg.closed_under_product() == closed

    @pytest.mark.parametrize("alg", oracle_algebras(), ids=repr)
    def test_constraint_rows_equal_loop_version(self, alg):
        rng = np.random.default_rng(9)
        for sub in oracle_submodules(alg, rng):
            comp, ref = orthogonal_complement(sub), loop_complement(sub)
            assert comp.dim == ref.dim
            assert same_span(comp.basis, ref.basis, 1e-9)

    @pytest.mark.parametrize("alg", oracle_algebras(), ids=repr)
    def test_reduced_nullspace_spans_full_svd_nullspace(self, alg):
        rng = np.random.default_rng(10)
        for sub in oracle_submodules(alg, rng):
            rows = loop_constraint_rows(sub)
            ns, ref = nullspace(rows, TOL), full_svd_nullspace(rows)
            assert ns.shape == ref.shape
            assert same_span(ns, ref, 1e-9)
        # a wide rank-deficient matrix keeps the full SVD
        wide = rng.standard_normal((3, 7)) @ rng.standard_normal((7, 9))
        assert same_span(nullspace(wide, TOL), full_svd_nullspace(wide), 1e-9)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matrix_regularity_matches_loop_path(self, n):
        rng = np.random.default_rng(100 + n)
        for k in range(2):
            t = random_operator(n, rng)
            if k:
                t[:, 0] = t[:, 1]  # a kernel
            op = GraphOperator.from_matrix(matrix_algebra(n), t)
            dim, verdict = loop_regularity(op.algebra, t)
            assert op.graph.dim == dim
            assert verdict_tuple(op.regularity()) == verdict

    @pytest.mark.parametrize("npts", range(3, 6))
    @pytest.mark.parametrize("block", list(GRID_BLOCKS))
    def test_grid_regularity_matches_loop_path(self, npts, block):
        a, a0, _ = grid_model(npts)
        t = constant_matrix(a, np.array(GRID_BLOCKS[block], complex))
        op = GraphOperator.from_matrix(a, t)
        dim, verdict = loop_regularity(a, t)
        assert op.graph.dim == dim
        assert verdict_tuple(op.regularity()) == verdict
        # restricted to A0 ⊂ A the domain is no longer essential
        a0_in_a = Submodule.from_vectors(
            a, 1, [a.to_coords(m) for m in a0.basis_matrices()])
        op = GraphOperator.from_matrix(a, t, domain=a0_in_a)
        dim, verdict = loop_regularity(a, t, a0_in_a)
        assert op.graph.dim == dim
        assert verdict_tuple(op.regularity()) == verdict
        assert not verdict[0]

    @pytest.mark.parametrize("alg, block", [
        (matrix_algebra(3), None), (grid_model(3)[0], "nilpotent"),
        (grid_model(4)[0], "lower"),
    ], ids=["M3", "grid3-nilpotent", "grid4-lower"])
    def test_regularity_forms_no_complement_nullspace_or_svd(self, alg, block,
                                                             monkeypatch):
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        t = (random_operator(3, np.random.default_rng(1)) if block is None else
             constant_matrix(alg, np.array(GRID_BLOCKS[block], complex)))
        op = GraphOperator.from_matrix(alg, t)
        for name in ("orthogonal_complement", "nullspace", "orthonormal_columns"):
            spy(modules, name)
        spy(np.linalg, "svd")
        assert op.regularity().regular
        assert calls == []


@pytest.mark.parametrize("scale", [1e-12, 1e12])
@pytest.mark.parametrize("alg, block", [
    (matrix_algebra(3), None), (matrix_algebra(5), None),
    *((grid_model(4)[0], block) for block in GRID_BLOCKS),
], ids=["M3", "M5", *(f"grid4-{block}" for block in GRID_BLOCKS)])
def test_verdict_is_invariant_under_scaling(alg, block, scale):
    t = (random_operator(alg.N, np.random.default_rng(alg.N)) if block is None
         else constant_matrix(alg, np.array(GRID_BLOCKS[block], complex)))
    verdict = verdict_tuple(GraphOperator.from_matrix(alg, t).regularity())
    op = GraphOperator.from_matrix(alg, scale * t)
    assert verdict_tuple(op.regularity()) == verdict
    assert op.domain().dim == alg.dim
    op.adjoint()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_matrix_refuses_non_finite_entry(bad):
    with pytest.raises(NonFiniteValue, match="GraphOperator.from_matrix"):
        GraphOperator.from_matrix(matrix_algebra(2), np.diag([bad, 1.0]))


# -- the class-by-class path against the loop oracle ----------------------------


@pytest.mark.parametrize("mask", [
    [[1, 1], [0, 1]], [[1, 1], [1, 0]], [[0, 1], [1, 0]],
], ids=["not-adjoint-closed", "unused-index", "no-diagonal"])
def test_mask_that_is_no_equivalence_is_refused(mask):
    with pytest.raises(ValueError, match="closed under products and adjoints"):
        BlockAlgebra((2,), [np.array(mask, dtype=bool)])


@st.composite
def masked_algebras(draw, sizes=None):
    """1-3 blocks of size 1-4, or the blocks ``sizes``; each index in a
    class (a label) or unused."""
    masks = []
    if sizes is None:
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    for n in sizes:
        label = np.array(draw(st.lists(st.integers(-1, n - 1),
                                       min_size=n, max_size=n)))
        masks.append((label[:, None] == label) & (label >= 0))
    return BlockAlgebra([len(m) for m in masks], masks)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alg=masked_algebras().filter(lambda a: a.dim > 0), data=st.data())
def test_class_path_matches_loop_oracle(alg, data):
    # block-diagonal t and a generator x; zeroed columns keep classes in
    # the domain of t and out of the module x generates.  A dense t
    # spills off the mask, which leaves part of A, often none, in its domain
    def zeroed(m):
        m[:, data.draw(st.lists(st.booleans(), min_size=alg.N, max_size=alg.N))] = 0
        return m

    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    t = zeroed(random_element(alg, rng))
    x = zeroed(alg.to_matrix(alg.to_coords(random_element(alg, rng))))
    spill = random_operator(alg.N, rng)
    gen, ref_gen = Submodule.from_elements(alg, [x]), loop_closure(alg, 1, [alg.to_coords(x)])
    dom, ref_dom = GraphOperator.mult_domain(alg, [t]), loop_mult_domain(alg, t)
    for sub, ref in ((gen, ref_gen), (dom, ref_dom)):
        assert sub.dim == ref.dim and same_span(sub.basis, ref.basis, 1e-9)
    for s, domain in ((t, None), (t, gen), (spill, None)):
        op = GraphOperator.from_matrix(alg, s, domain)
        dim, verdict = loop_regularity(alg, s, domain, reduced_loop_complement)
        assert op.graph.dim == dim
        assert verdict_tuple(op.regularity()) == verdict
        for sub in (op.graph, op.domain(), gen):
            comp, ref = orthogonal_complement(sub), reduced_loop_complement(sub)
            assert comp.dim == ref.dim and same_span(comp.basis, ref.basis, 1e-9)
    lam = 1j * (1 + np.linalg.norm(t, 2))
    rep = resolvent_affiliation_check(t, lam, alg)
    res = np.linalg.inv(t - lam * np.eye(alg.N))
    for rank, r in ((rep.density_rank, res), (rep.density_rank_star, res.conj().T)):
        s = np.linalg.svd(loop_left_mult_map(alg, r, full=True), compute_uv=False)
        assert rank == numerical_rank(s, TOL)


def four_check_mult_ok(t, lam, alg, pattern, cfg=DEFAULT):
    """The pattern and multiplier checks of R = (t − λ)⁻¹ and of R*, each
    read on its own, as ``resolvent_affiliation_check`` once did."""
    shifted = np.array(t, dtype=complex)
    shifted.flat[:: alg.N + 1] -= lam
    res = np.linalg.inv(shifted)
    res_h = res.conj().T
    pattern = alg if pattern is None else pattern
    return bool(pattern.contains(res, cfg) and pattern.contains(res_h, cfg)
                and alg.is_multiplier(res, cfg) and alg.is_multiplier(res_h, cfg))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(alg=masked_algebras().filter(lambda a: a.dim > 0), data=st.data())
def test_resolvent_multiplier_verdict_matches_the_four_checks(alg, data):
    # multipliers (block-diagonal on the mask, used indices kept apart) and
    # non-multipliers (a spill off the mask around and far above the
    # subspace_tol cut), under A's own pattern or another mask
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    spill = data.draw(st.sampled_from([0.0, 1e-12, 5e-11, 2e-10, 1.0]))
    t = random_element(alg, rng) + spill * random_operator(alg.N, rng)
    pattern = data.draw(st.none() | masked_algebras(alg.sizes))
    lam = 1j * (1 + np.linalg.norm(t, 2))
    rep = resolvent_affiliation_check(t, lam, alg, pattern)
    assert rep.multiplier_ok == four_check_mult_ok(t, lam, alg, pattern)


def test_resolvent_multiplier_verdict_sees_both_outcomes():
    alg, _, ma = grid_model(3)
    lower = constant_matrix(alg, np.array([[0, 0], [1, 0]], complex))
    assert not resolvent_affiliation_check(lower, 1j, alg, ma).multiplier_ok
    assert resolvent_affiliation_check(np.diag(np.arange(1.0, 7.0)), 1j,
                                       matrix_algebra(6)).multiplier_ok


# -- the empty matrices the general paths take --------------------------------
# the library passes complex matrices, for which the SVD's factors are the
# (rows, 0) basis, the identity vh and the empty residual of norm 0


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_orthonormal_columns_of_an_empty_matrix(shape):
    out = orthonormal_columns(np.zeros(shape, complex), TOL)
    assert out.shape == (shape[0], 0) and out.dtype == complex


@pytest.mark.parametrize("cols", [0, 1, 3])
def test_nullspace_of_no_rows_is_everything(cols):
    out = nullspace(np.zeros((0, cols), complex), TOL)
    assert out.dtype == complex and np.array_equal(out, np.eye(cols))


def test_same_span_of_empty_bases():
    empty = np.zeros((3, 0), complex)
    assert same_span(empty, empty, TOL) is True
    assert same_span(empty, np.eye(3, 1, dtype=complex), TOL) is False


@pytest.mark.parametrize("ncomp", [1, 2])
def test_no_vectors_generate_the_zero_submodule(ncomp):
    alg = grid_model(3)[0]
    sub, zero = Submodule.from_vectors(alg, ncomp, []), Submodule.zero(alg, ncomp)
    assert sub.dim == 0
    for got, want in zip(sub.spaces, zero.spaces):
        assert got.shape == want.shape and got.dtype == want.dtype


def test_kernel_inclusion_residual_with_no_kernel_is_zero():
    rng = np.random.default_rng(5)
    pair = QuotientPair(np.eye(3) + 0j, random_operator(3, rng))
    value = pair.kernel_inclusion_residual()
    assert value == 0.0 and type(value) is float


def test_resolvent_ranks_read_the_rows_of_the_whole_block():
    # the diagonal of M2 has two classes, and the resolvent of the swap at
    # λ = 0 maps each class column into the other class's row
    alg = BlockAlgebra((2,), [np.eye(2, dtype=bool)])
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = resolvent_affiliation_check(swap, 0.0, alg)
    s = np.linalg.svd(loop_left_mult_map(alg, swap, full=True), compute_uv=False)
    assert rep.density_rank == rep.density_rank_star == numerical_rank(s, TOL) == 2


@pytest.mark.parametrize("alg, block", [
    (matrix_algebra(12), None), (grid_model(32)[0], "lower"),
    (matrix_algebra(128), None), (grid_model(256)[0], "lower"),
], ids=["M12", "grid32-lower", "M128", "grid256-lower"])
def test_regularity_memory_stays_small(alg, block):
    t = (random_operator(alg.N, np.random.default_rng(3)) if block is None else
         constant_matrix(alg, np.array(GRID_BLOCKS[block], complex)))
    tracemalloc.start()
    try:
        GraphOperator.from_matrix(alg, t).regularity()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
