"""Submodules, orthogonal complements and graph operators over the
finite-dimensional backend.

A right submodule of E = A^k is stored as an orthonormal basis (w.r.t.
the Hilbert-Schmidt inner product) of its coordinate span.  Over
A = ⊕_c M_{|c|}, one summand per class c of the mask, it is {X : the
columns of each c-block of X lie in a subspace V_c of ℂ^{k|c|}}, and the
A-valued complement {x : <g,x> = 0 for all g} has the spaces V_c^⊥
(Lance, *Hilbert C*-modules*, 1995).  So every module operation gathers
a coordinate basis into per-class column matrices (``_class_columns``),
does column-space algebra there, and expands the per-class spaces back
into a coordinate basis (``_expand``).  Graphs of operators are
submodules of E ⊕ E; adjoints come from the unitary v(x,y) = (-y,x)
applied to the complement of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebras import BlockAlgebra, matrix_algebra
from .config import DEFAULT, Config
from .errors import (
    NotEssentialDomain,
    NotOrthogonallyClosed,
)
from .symbols import PiecewiseSymbol, regularity_report
from .transforms import QuotientPair, _require_finite, numerical_rank, opnorm


def orthonormal_columns(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column space, rank cut at ``tol``."""
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, :numerical_rank(s, tol)]


def nullspace(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the right nullspace.

    With rows >= cols the reduced SVD already returns the full square vh;
    only a wide matrix needs the full one.
    """
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vh[numerical_rank(s, tol):].conj().T


def same_span(b1: np.ndarray, b2: np.ndarray, tol: float) -> bool:
    if b1.shape[1] != b2.shape[1]:
        return False
    if b1.shape[1] == 0:
        return True
    # projection residual of each basis onto the other span
    r1 = opnorm(b1 - b2 @ (b2.conj().T @ b1))
    r2 = opnorm(b2 - b1 @ (b1.conj().T @ b2))
    return max(r1, r2) < tol


class Submodule:
    """Right submodule of E = A^ncomp as an orthonormal coordinate basis."""

    def __init__(self, algebra: BlockAlgebra, ncomp: int, basis: np.ndarray):
        self.algebra = algebra
        self.ncomp = ncomp
        self.basis = np.asarray(basis, dtype=complex)
        if self.basis.shape[0] != ncomp * algebra.dim:
            raise ValueError("basis row count does not match the module")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.ncomp}x{self.algebra.dim})"

    # -- construction ----------------------------------------------------

    @staticmethod
    def full(algebra: BlockAlgebra, ncomp: int = 1) -> "Submodule":
        return Submodule(algebra, ncomp, np.eye(ncomp * algebra.dim, dtype=complex))

    @staticmethod
    def zero(algebra: BlockAlgebra, ncomp: int = 1) -> "Submodule":
        return Submodule(algebra, ncomp, np.zeros((ncomp * algebra.dim, 0), complex))

    @staticmethod
    def from_vectors(algebra, ncomp, vectors, cfg: Config = DEFAULT) -> "Submodule":
        """Right submodule generated by coordinate vectors: per class, the
        span of the columns of their class blocks."""
        if len(vectors) == 0:
            return Submodule.zero(algebra, ncomp)
        v = np.column_stack([np.asarray(x, complex).ravel() for x in vectors])
        return _expand(algebra, ncomp, [orthonormal_columns(x, cfg.subspace_tol)
                                        for x in _class_columns(algebra, ncomp, v)])

    @staticmethod
    def from_elements(algebra, matrices, cfg: Config = DEFAULT) -> "Submodule":
        """Right submodule of E = A generated by ambient matrices."""
        vecs = [algebra.to_coords(m) for m in matrices]
        return Submodule.from_vectors(algebra, 1, vecs, cfg)

    # -- predicates -------------------------------------------------------

    def right_action_residual(self) -> float:
        """How far the right submodule generated by the basis leaves the
        stored span; < tol certifies closure."""
        gen = Submodule.from_vectors(self.algebra, self.ncomp, self.basis.T)
        return opnorm(gen.basis - self.basis @ (self.basis.conj().T @ gen.basis))

    def equals(self, other: "Submodule", cfg: Config = DEFAULT) -> bool:
        return same_span(self.basis, other.basis, cfg.subspace_tol)

    def is_essential(self, cfg: Config = DEFAULT) -> bool:
        return orthogonal_complement(self, cfg).dim == 0

    def is_orthogonally_closed(self, cfg: Config = DEFAULT) -> bool:
        cc = orthogonal_complement(orthogonal_complement(self, cfg), cfg)
        return self.equals(cc, cfg)


def _class_columns(algebra: BlockAlgebra, ncomp: int, basis: np.ndarray):
    """Per class c, the columns of the c-blocks of every basis vector,
    stacked over the components: ncomp·|c| rows, |c| per vector."""
    comps = basis.reshape(ncomp, algebra.dim, -1)
    return [comps[:, idx].reshape(ncomp * len(idx), -1)
            for idx in algebra.class_coords]


def _expand(algebra: BlockAlgebra, ncomp: int, spaces) -> Submodule:
    """{X : the columns of each c-block of X lie in the orthonormal spaces[c]},
    with one basis vector per class column and space column."""
    total = sum(len(idx) * v.shape[1] for idx, v in zip(algebra.class_coords, spaces))
    out = np.zeros((ncomp, algebra.dim, total), dtype=complex)
    k = 0
    for idx, v in zip(algebra.class_coords, spaces):
        n, m = len(idx), v.shape[1]
        cols = k + np.arange(n * m).reshape(1, n, m)
        out[:, idx[:, :, None], cols] = v.reshape(ncomp, n, 1, m)
        k += n * m
    return Submodule(algebra, ncomp, out.reshape(ncomp * algebra.dim, total))


def orthogonal_complement(sub: Submodule, cfg: Config = DEFAULT) -> Submodule:
    """A-valued complement F^⊥ = {x | <g,x> = 0 for all g in F}.

    The c-block of <g,x> is G_c^*·X_c: per class, the nullspace of the
    conjugate transpose of F's gathered columns.  Exact up to the SVD
    rank cut, and a right submodule even when F is only a subspace.
    """
    return _expand(sub.algebra, sub.ncomp, [
        nullspace(x.conj().T, cfg.subspace_tol)
        for x in _class_columns(sub.algebra, sub.ncomp, sub.basis)])


def module_sum(a: Submodule, b: Submodule, cfg: Config = DEFAULT) -> Submodule:
    basis = orthonormal_columns(np.hstack([a.basis, b.basis]), cfg.subspace_tol)
    return Submodule(a.algebra, a.ncomp, basis)


# -- projections -----------------------------------------------------------


@dataclass
class Projection:
    """p = p^2 = p^* onto an orthogonally closed submodule, in coordinates."""

    module: Submodule
    matrix: np.ndarray

    def idempotency_residual(self) -> float:
        return opnorm(self.matrix @ self.matrix - self.matrix)

    def selfadjoint_residual(self) -> float:
        return opnorm(self.matrix - self.matrix.conj().T)


def projection_onto(g: Submodule, cfg: Config = DEFAULT) -> Projection:
    """The projection p_G with range G; G must equal G^⊥⊥."""
    comp = orthogonal_complement(g, cfg)
    cc = orthogonal_complement(comp, cfg)
    if not g.equals(cc, cfg):
        raise NotOrthogonallyClosed(
            f"G has dim {g.dim} but G^⊥⊥ has dim {cc.dim} (or spans differ)"
        )
    total = g.dim + comp.dim
    if total != g.basis.shape[0]:
        raise NotOrthogonallyClosed(
            f"G ⊕ G^⊥ has dimension {total} < {g.basis.shape[0]}; not complemented"
        )
    return Projection(g, g.basis @ g.basis.conj().T)


# -- linear relations (graphs) ---------------------------------------------


def compose_relations(r2: np.ndarray, r1: np.ndarray, dims, cfg: Config = DEFAULT):
    """Compose graphs r1 ⊆ E⊕F, r2 ⊆ F⊕G given as stacked column bases."""
    de, df, dg = dims
    x1, y1 = r1[:de], r1[de:]
    x2, y2 = r2[:df], r2[df:]
    if r1.shape[1] == 0 or r2.shape[1] == 0:
        return np.zeros((de + dg, 0), complex)
    pairs = nullspace(np.hstack([y1, -x2]), cfg.subspace_tol)
    alpha, beta = pairs[: r1.shape[1]], pairs[r1.shape[1] :]
    stacked = np.vstack([x1 @ alpha, y2 @ beta])
    return orthonormal_columns(stacked, cfg.subspace_tol)


def relation_range(rel: np.ndarray, de: int, cfg: Config = DEFAULT) -> np.ndarray:
    return orthonormal_columns(rel[de:], cfg.subspace_tol)


def relation_kernel(rel: np.ndarray, de: int, cfg: Config = DEFAULT) -> np.ndarray:
    null = nullspace(rel[de:], cfg.subspace_tol)
    return orthonormal_columns(rel[:de] @ null, cfg.subspace_tol)


def one_plus_relation(rel: np.ndarray, de: int) -> np.ndarray:
    """{(x, x+y) : (x,y) in rel}."""
    return np.vstack([rel[:de], rel[:de] + rel[de:]])


# -- graph operators ---------------------------------------------------------


@dataclass
class RegularityVerdict:
    essentially_defined: bool
    orthogonally_closed: bool
    graph_regular: bool
    regular: bool
    domain_dense: bool
    diagnostics: dict = field(default_factory=dict)


class GraphOperator:
    """Essentially defined operator t: E -> E over a BlockAlgebra,
    represented by (an orthonormal basis of) its graph in E ⊕ E."""

    def __init__(self, algebra: BlockAlgebra, graph: Submodule):
        if graph.ncomp != 2:
            raise ValueError("graph must live in E ⊕ E")
        self.algebra = algebra
        self.graph = graph

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_matrix(algebra, matrix, domain: Submodule | None = None,
                    cfg: Config = DEFAULT) -> "GraphOperator":
        """Graph of left multiplication by an ambient matrix on ``domain``.

        The domain defaults to all of E intersected with the exact
        multiplication domain {x in A : T·x in A}.  A matrix with an inf
        or NaN entry is refused with NonFiniteValue.
        """
        _require_finite("GraphOperator.from_matrix", matrix)
        if domain is None:
            domain = GraphOperator.mult_domain(algebra, [matrix], cfg)
        m = np.asarray(matrix, dtype=complex)
        cols = _class_columns(algebra, 1, domain.basis)
        return GraphOperator(algebra, _expand(algebra, 2, [
            orthonormal_columns(np.vstack([x, m[np.ix_(c, c)] @ x]), cfg.subspace_tol)
            for c, x in zip(algebra.classes, cols)]))

    @staticmethod
    def identity(algebra, cfg: Config = DEFAULT) -> "GraphOperator":
        return GraphOperator.from_matrix(algebra, algebra.identity(), cfg=cfg)

    @staticmethod
    def mult_domain(algebra, matrices, cfg: Config = DEFAULT) -> Submodule:
        """Exact domain of the composition x ↦ M_k ··· M_1 x on A.

        Every partial product must stay supported on the algebra mask,
        mirroring how multiplication-operator domains compose; with masks
        modelling vanishing at infinity this reproduces proper domains
        (e.g. Def(t^*t) ⊊ A) that the collapsed graph calculus of a
        finite-dimensional model cannot see.  Per class c the domain is
        the nullspace of the stacked S[~c, c] over the partial products S.
        """
        stage, stages = np.eye(algebra.N, dtype=complex), []
        for m in matrices:
            stage = np.asarray(m, complex) @ stage
            stages.append(stage)
        return _expand(algebra, 1, [
            nullspace(np.vstack([np.delete(s[:, c], c, axis=0) for s in stages]),
                      cfg.subspace_tol) for c in algebra.classes])

    # -- structure --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def domain(self, cfg: Config = DEFAULT) -> Submodule:
        return Submodule.from_vectors(self.algebra, 1,
                                      self.graph.basis[: self.dim].T, cfg)

    def range(self, cfg: Config = DEFAULT) -> Submodule:
        return Submodule.from_vectors(self.algebra, 1,
                                      self.graph.basis[self.dim :].T, cfg)

    def kernel(self, cfg: Config = DEFAULT) -> Submodule:
        basis = relation_kernel(self.graph.basis, self.dim, cfg)
        return Submodule(self.algebra, 1, basis)

    def action_matrix(self, cfg: Config = DEFAULT) -> np.ndarray:
        """Scalar matrix T with T x = t(x) on the domain (coordinates)."""
        d = self.dim
        x, y = self.graph.basis[:d], self.graph.basis[d:]
        return y @ np.linalg.pinv(x, rcond=cfg.subspace_tol)

    # -- adjoints and regularity -------------------------------------------

    def adjoint(self, cfg: Config = DEFAULT) -> "GraphOperator":
        """Graph(t^*) = v·Graph(t)^⊥ with v(x,y) = (-y, x)."""
        if not self.domain(cfg).is_essential(cfg):
            raise NotEssentialDomain("Def(t)^⊥ ≠ {0}; adjoint is multivalued")
        perp = orthogonal_complement(self.graph, cfg).basis
        swapped = np.vstack([-perp[self.dim :], perp[: self.dim]])
        return GraphOperator(self.algebra, Submodule(self.algebra, 2, swapped))

    def regularity(self, cfg: Config = DEFAULT) -> RegularityVerdict:
        """Graph-regularity via Range(1+t^*t) = E and Range(1+tt^*) = F.

        Def(t)^⊥, Graph(t)^⊥ and Graph(t)^⊥⊥ are each formed once.  Graph
        ⊆ Graph^⊥⊥ always holds, so closedness compares dimensions.  The
        ranks are taken per class c in ℂ^|c| ⊕ ℂ^|c|, where the adjoint
        graph is v·(Graph(t)^⊥)_c, and each counts |c| times.
        """
        d = self.dim
        dom = self.domain(cfg)
        essential = bool(dom.is_essential(cfg))
        perp = orthogonal_complement(self.graph, cfg)
        closed = orthogonal_complement(perp, cfg).dim == self.graph.dim
        diagnostics = {}
        graph_regular = False
        if essential and closed:
            ranks = [0, 0]
            for g, p in zip(_class_columns(self.algebra, 2, self.graph.basis),
                            _class_columns(self.algebra, 2, perp.basis)):
                n = len(g) // 2
                g, p = (orthonormal_columns(x, cfg.subspace_tol) for x in (g, p))
                adj = np.vstack([-p[n:], p[:n]])
                for i, (r2, r1) in enumerate([(adj, g), (g, adj)]):
                    rel = compose_relations(r2, r1, (n, n, n), cfg)
                    rel = one_plus_relation(rel, n)
                    ranks[i] += n * relation_range(rel, n, cfg).shape[1]
            diagnostics = dict(zip(("rank_one_plus_tstar_t",
                                    "rank_one_plus_t_tstar"), ranks))
            graph_regular = ranks == [d, d]
        dense = dom.dim == d
        return RegularityVerdict(
            essentially_defined=essential,
            orthogonally_closed=closed,
            graph_regular=graph_regular,
            regular=graph_regular and dense,
            domain_dense=dense,
            diagnostics=diagnostics,
        )


def is_graph_regular(op, cfg: Config = DEFAULT) -> RegularityVerdict:
    """Backend dispatch: finite-dimensional graphs get the rank test on
    Range(1+t*t) and Range(1+tt*); symbols delegate to the singularity
    classifier; quotient pairs are reconstructed first."""
    if isinstance(op, GraphOperator):
        return op.regularity(cfg)
    if isinstance(op, PiecewiseSymbol):
        rep = regularity_report(op, cfg)
        return RegularityVerdict(
            essentially_defined=rep.essentially_defined,
            orthogonally_closed=rep.orthogonally_closed,
            graph_regular=rep.graph_regular,
            regular=rep.regular,
            domain_dense=rep.regular,
            diagnostics={"point_classes": {
                p: vc.declared.cls.value for p, vc in rep.point_classes.items()}},
        )
    if isinstance(op, QuotientPair):
        t = op.reconstruct(cfg.kernel_tol)
        alg = matrix_algebra(t.shape[0])
        return GraphOperator.from_matrix(alg, t, cfg=cfg).regularity(cfg)
    raise TypeError(f"unsupported operator representation {type(op)!r}")
