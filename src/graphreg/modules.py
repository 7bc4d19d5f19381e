"""Submodules, orthogonal complements and graph operators over the
finite-dimensional backend.

Over A = ⊕_c M_{|c|}, one summand per class c of the mask, a right
submodule of E = A^k is {X : the columns of each c-block of X lie in a
subspace V_c of ℂ^{k|c|}}, and the A-valued complement {x : <g,x> = 0
for all g} has the spaces V_c^⊥ (Lance, *Hilbert C*-modules*, 1995).  So
a ``Submodule`` holds one orthonormal matrix per class, spanning V_c, and
nothing else: every operation is column-space algebra on those matrices,
and the coordinate basis ``Submodule.basis`` is a view computed on
demand.  Graphs of operators are submodules of E ⊕ E; adjoints come from
the unitary v(x,y) = (-y,x) applied to the complement of the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebras import BlockAlgebra, matrix_algebra
from .config import DEFAULT, Config
from .errors import NotEssentialDomain
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
    """Right submodule of E = A^ncomp: per class c of A, an orthonormal
    (ncomp·|c|) × m_c matrix whose columns span V_c ⊆ ℂ^(ncomp·|c|)."""

    def __init__(self, algebra: BlockAlgebra, ncomp: int, spaces):
        self.algebra = algebra
        self.ncomp = ncomp
        self.spaces = tuple(np.asarray(v, dtype=complex) for v in spaces)
        if len(self.spaces) != len(algebra.classes) or any(
                v.shape[0] != ncomp * len(c)
                for v, c in zip(self.spaces, algebra.classes)):
            raise ValueError("class spaces do not match the module")

    @property
    def dim(self) -> int:
        return sum(len(c) * v.shape[1]
                   for c, v in zip(self.algebra.classes, self.spaces))

    @property
    def basis(self) -> np.ndarray:
        """Coordinate view: an orthonormal basis of the span in
        ℂ^(ncomp·dim A), one vector per class column and space column."""
        alg = self.algebra
        out = np.zeros((self.ncomp, alg.dim, self.dim), dtype=complex)
        k = 0
        for idx, v in zip(alg.class_coords, self.spaces):
            n, m = len(idx), v.shape[1]
            cols = k + np.arange(n * m).reshape(1, n, m)
            out[:, idx[:, :, None], cols] = v.reshape(self.ncomp, n, 1, m)
            k += n * m
        return out.reshape(self.ncomp * alg.dim, self.dim)

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.ncomp}x{self.algebra.dim})"

    # -- construction ----------------------------------------------------

    @staticmethod
    def full(algebra: BlockAlgebra, ncomp: int = 1) -> "Submodule":
        return Submodule(algebra, ncomp, [np.eye(ncomp * len(c), dtype=complex)
                                          for c in algebra.classes])

    @staticmethod
    def zero(algebra: BlockAlgebra, ncomp: int = 1) -> "Submodule":
        return Submodule(algebra, ncomp, [np.zeros((ncomp * len(c), 0), complex)
                                          for c in algebra.classes])

    @staticmethod
    def from_vectors(algebra, ncomp, vectors, cfg: Config = DEFAULT) -> "Submodule":
        """Right submodule generated by coordinate vectors: per class, the
        span of the columns of their class blocks, stacked over the
        components."""
        if len(vectors) == 0:
            return Submodule.zero(algebra, ncomp)
        v = np.column_stack([np.asarray(x, complex).ravel() for x in vectors])
        comps = v.reshape(ncomp, algebra.dim, -1)
        return Submodule(algebra, ncomp, [
            orthonormal_columns(comps[:, idx].reshape(ncomp * len(idx), -1),
                                cfg.subspace_tol)
            for idx in algebra.class_coords])

    @staticmethod
    def from_elements(algebra, matrices, cfg: Config = DEFAULT) -> "Submodule":
        """Right submodule of E = A generated by ambient matrices."""
        vecs = [algebra.to_coords(m) for m in matrices]
        return Submodule.from_vectors(algebra, 1, vecs, cfg)

    # -- predicates -------------------------------------------------------

    def equals(self, other: "Submodule", cfg: Config = DEFAULT) -> bool:
        return all(same_span(a, b, cfg.subspace_tol)
                   for a, b in zip(self.spaces, other.spaces))

    def is_essential(self, cfg: Config = DEFAULT) -> bool:
        return orthogonal_complement(self, cfg).dim == 0

    def is_orthogonally_closed(self, cfg: Config = DEFAULT) -> bool:
        cc = orthogonal_complement(orthogonal_complement(self, cfg), cfg)
        return self.equals(cc, cfg)


def orthogonal_complement(sub: Submodule, cfg: Config = DEFAULT) -> Submodule:
    """A-valued complement F^⊥ = {x | <g,x> = 0 for all g in F}.

    The c-block of <g,x> is G_c^*·X_c, so the complement's class space
    is V_c^⊥: the nullspace of V_c^*.  Exact up to the SVD rank cut.
    """
    return Submodule(sub.algebra, sub.ncomp, [
        nullspace(v.conj().T, cfg.subspace_tol) for v in sub.spaces])


def module_sum(a: Submodule, b: Submodule, cfg: Config = DEFAULT) -> Submodule:
    return Submodule(a.algebra, a.ncomp, [
        orthonormal_columns(np.hstack([u, v]), cfg.subspace_tol)
        for u, v in zip(a.spaces, b.spaces)])


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


def projection_onto(g: Submodule) -> Projection:
    """The projection p_G with range G.  Every submodule held by its class
    spaces V_c is orthogonally closed, (V_c^⊥)^⊥ = V_c, and complemented,
    V_c ⊕ V_c^⊥ = ℂ^(ncomp·|c|), so every one has it."""
    basis = g.basis
    return Projection(g, basis @ basis.conj().T)


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
        return GraphOperator(algebra, Submodule(algebra, 2, [
            orthonormal_columns(np.vstack([v, m[np.ix_(c, c)] @ v]), cfg.subspace_tol)
            for c, v in zip(algebra.classes, domain.spaces)]))

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
        stages = list(itertools.accumulate(
            (np.asarray(m, complex) for m in matrices), lambda s, m: m @ s))
        return Submodule(algebra, 1, [
            nullspace(np.vstack([np.delete(s[:, c], c, axis=0) for s in stages]),
                      cfg.subspace_tol) for c in algebra.classes])

    # -- structure --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def _half(self, half: int, cfg: Config) -> Submodule:
        """The submodule of E whose class spaces are spanned by the top
        (0: the domain) or bottom (1: the range) half of the graph's."""
        return Submodule(self.algebra, 1, [
            orthonormal_columns(g[half * len(c): (half + 1) * len(c)],
                                cfg.subspace_tol)
            for c, g in zip(self.algebra.classes, self.graph.spaces)])

    def domain(self, cfg: Config = DEFAULT) -> Submodule:
        return self._half(0, cfg)

    def range(self, cfg: Config = DEFAULT) -> Submodule:
        return self._half(1, cfg)

    def kernel(self, cfg: Config = DEFAULT) -> Submodule:
        return Submodule(self.algebra, 1, [
            relation_kernel(g, len(c), cfg)
            for c, g in zip(self.algebra.classes, self.graph.spaces)])

    def action_matrix(self, cfg: Config = DEFAULT) -> np.ndarray:
        """Scalar matrix T with T x = t(x) on the domain (coordinates)."""
        d = self.dim
        basis = self.graph.basis
        return basis[d:] @ np.linalg.pinv(basis[:d], rcond=cfg.subspace_tol)

    # -- adjoints and regularity -------------------------------------------

    def adjoint(self, cfg: Config = DEFAULT) -> "GraphOperator":
        """Graph(t^*) = v·Graph(t)^⊥ with v(x,y) = (-y, x), class by class."""
        if not self.domain(cfg).is_essential(cfg):
            raise NotEssentialDomain("Def(t)^⊥ ≠ {0}; adjoint is multivalued")
        perp = orthogonal_complement(self.graph, cfg)
        return GraphOperator(self.algebra, Submodule(
            self.algebra, 2, [_swap(p) for p in perp.spaces]))

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
            for c, g, p in zip(self.algebra.classes, self.graph.spaces,
                               perp.spaces):
                n, adj = len(c), _swap(p)
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


def _swap(space: np.ndarray) -> np.ndarray:
    """v(x, y) = (-y, x) on a class space of ℂ^|c| ⊕ ℂ^|c|."""
    n = len(space) // 2
    return np.vstack([-space[n:], space[:n]])


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
