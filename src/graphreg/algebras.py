"""Finite-dimensional C*-algebras: direct sums of matrix blocks with an
optional entry mask.

A ``BlockAlgebra`` models ⊕_p M_{n_p}(ℂ) cut down to the subspace of
block matrices whose masked-out entries vanish.  Full masks give plain
matrix algebras; the mask mechanism realizes algebras such as 2x2
function matrices over a finite grid where one grid point plays the role
of the point at infinity (entries in C_0 must vanish there, a unitized
corner need not).

Elements are stored as dense block-diagonal "ambient" matrices; the
algebra is the set of those supported on the mask.  A mask closed under
products and adjoints is an equivalence relation on the indices it uses,
so the algebra is ⊕_c M_{|c|} over its classes c, and the constructor
refuses any other mask.  The module backend works class by class.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Config
from .errors import DescriptorMismatch
from .transforms import opnorm


class BlockAlgebra:
    """⊕_p M_{n_p}(ℂ) restricted to an entry mask.

    sizes  -- block dimensions n_p (all >= 1)
    masks  -- optional list of boolean n_p x n_p arrays, True = entry allowed;
              None means every entry of every block is allowed.  A mask
              must be closed under products and adjoints.

    ``classes`` are the index arrays of the classes c of the mask and
    ``class_coords`` the |c| x |c| coordinate indices of each c-block.
    """

    def __init__(self, sizes, masks=None, label=""):
        sizes = tuple(int(n) for n in sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("block sizes must be positive")
        self.sizes = sizes
        self.label = label
        self.N = sum(sizes)
        self.offsets = tuple(np.cumsum((0,) + sizes[:-1]).tolist())
        if masks is None:
            masks = [np.ones((n, n), dtype=bool) for n in sizes]
        self.masks = [np.array(m, dtype=bool) for m in masks]
        if len(self.masks) != len(sizes) or any(
            m.shape != (n, n) for m, n in zip(self.masks, sizes)
        ):
            raise ValueError("mask shapes must match block sizes")
        # allowed entries and the block diagonal of the ambient N x N
        # matrix; row-major order over them is blockwise row-major, the
        # coordinate order
        self.allowed = np.zeros((self.N, self.N), dtype=bool)
        self.blocks = np.zeros((self.N, self.N), dtype=bool)
        for m, n, off in zip(self.masks, sizes, self.offsets):
            self.allowed[off : off + n, off : off + n] = m
            self.blocks[off : off + n, off : off + n] = True
        self._entries = np.nonzero(self.allowed)
        self.dim = len(self._entries[0])
        # label each used index with the first index of its row; the mask
        # must be exactly "same label" on the used indices
        rows, cols = self._entries
        head = np.ones(self.dim, dtype=bool)  # first entry of a row
        head[1:] = rows[1:] != rows[:-1]
        label, first = np.full(self.N, -1), np.zeros(self.N, dtype=int)
        label[rows[head]], first[rows[head]] = cols[head], np.flatnonzero(head)
        self._used = self.allowed.diagonal()
        same = (label[:, None] == label) & self._used[:, None] & self._used
        if not np.array_equal(same, self.allowed):
            raise ValueError("mask is not closed under products and adjoints")
        self.classes = tuple(np.flatnonzero(label == s)
                             for s in np.flatnonzero(label == np.arange(self.N)))
        # row c[a] of the mask is the class c, so entry (c[a], c[b]) is
        # coordinate first[c[a]] + b
        self.class_coords = tuple(first[c][:, None] + np.arange(len(c))
                                  for c in self.classes)

    def __eq__(self, other):
        return (
            isinstance(other, BlockAlgebra)
            and self.sizes == other.sizes
            and all((a == b).all() for a, b in zip(self.masks, other.masks))
        )

    def __hash__(self):
        return hash((self.sizes, tuple(m.tobytes() for m in self.masks)))

    def __repr__(self):
        tag = self.label or "x".join(map(str, self.sizes))
        return f"BlockAlgebra({tag}, dim={self.dim})"

    # -- coordinates ----------------------------------------------------

    def to_matrix(self, coords) -> np.ndarray:
        """Ambient matrix of coordinates; a (..., dim) stack gives (..., N, N)."""
        coords = np.asarray(coords, dtype=complex)
        m = np.zeros(coords.shape[:-1] + (self.N, self.N), dtype=complex)
        m[(...,) + self._entries] = coords
        return m

    def to_coords(self, matrix) -> np.ndarray:
        return np.asarray(matrix, dtype=complex)[(...,) + self._entries]

    def basis_matrices(self):
        """Matrix units spanning the algebra, in coordinate order."""
        for i, j in zip(*self._entries):
            m = np.zeros((self.N, self.N), dtype=complex)
            m[i, j] = 1.0
            yield m

    def identity(self) -> np.ndarray:
        return np.eye(self.N, dtype=complex)

    # -- membership -----------------------------------------------------

    def offmask_residual(self, matrix) -> float:
        """Largest |entry| of ``matrix`` outside the mask (incl. off-block)."""
        return _max_abs(np.asarray(matrix, dtype=complex)[~self.allowed])

    def contains(self, matrix, cfg: Config = DEFAULT) -> bool:
        """Whether no entry off the mask exceeds ``cfg.subspace_tol``."""
        return self.offmask_residual(matrix) <= cfg.subspace_tol

    def is_left_multiplier(self, matrix, cfg: Config = DEFAULT) -> bool:
        """T with T·A ⊆ A: T[k, i] = 0, to ``cfg.subspace_tol``, for every
        used i and every k outside the class of i."""
        m = np.asarray(matrix, dtype=complex)[:, self._used]
        return _max_abs(m[~self.allowed[:, self._used]]) <= cfg.subspace_tol

    def is_multiplier(self, matrix, cfg: Config = DEFAULT) -> bool:
        """T with T·A ⊆ A and A·T ⊆ A; the mask is symmetric, so A·T ⊆ A
        iff Tᵀ·A ⊆ A."""
        m = np.asarray(matrix, dtype=complex)
        return self.is_left_multiplier(m, cfg) and self.is_left_multiplier(m.T, cfg)

    def closed_under_product(self) -> bool:
        """e_ij·e_jl = e_il stays on the mask for all allowed units: the
        constructor accepts only a mask that is an equivalence relation on
        its used indices, which is transitive."""
        return True

    # -- operators as scalar-linear maps on coordinates -----------------

    def right_mult_maps(self) -> np.ndarray:
        """Coordinate matrices of x ↦ x·e for every basis unit e, stacked
        as (dim, dim, dim): entry (e, a, b) is 1 when unit b times e is
        unit a (same row, column of b = row of e, column of a = column of e).
        """
        r, c = self._entries
        re, ra, rb = r[:, None, None], r[None, :, None], r[None, None, :]
        ce, ca, cb = c[:, None, None], c[None, :, None], c[None, None, :]
        return ((ra == rb) & (cb == re) & (ca == ce)).astype(complex)


def _max_abs(values) -> float:
    return float(np.abs(values).max()) if np.size(values) else 0.0


def matrix_algebra(n: int) -> BlockAlgebra:
    """The full matrix algebra M_n(ℂ) as a Hilbert module over itself."""
    return BlockAlgebra((n,), label=f"M{n}")


def grid_model(npts: int = 3):
    """2x2 function matrices over an ``npts``-point model of the line.

    The last grid point stands for the point at infinity: entries of
    class C_0 vanish there, the unitized (2,2) corner does not.  Returns
    the algebra A = (C0 C0; C0 C0~), the ideal A0 (all entries C0) and
    the multiplier pattern M(A) = (Cb C0; C0 C0~), each as a
    BlockAlgebra over the same ambient blocks.
    """
    if npts < 2:
        raise ValueError("need at least two grid points")
    full = np.ones((2, 2), dtype=bool)
    a_inf = np.array([[False, False], [False, True]])
    a0_inf = np.zeros((2, 2), dtype=bool)
    ma_inf = np.array([[True, False], [False, True]])
    sizes = (2,) * npts
    algebra = BlockAlgebra(sizes, [full] * (npts - 1) + [a_inf], label="grid:A")
    ideal = BlockAlgebra(sizes, [full] * (npts - 1) + [a0_inf], label="grid:A0")
    mult = BlockAlgebra(sizes, [full] * (npts - 1) + [ma_inf], label="grid:M(A)")
    return algebra, ideal, mult


def constant_matrix(algebra: BlockAlgebra, block: np.ndarray) -> np.ndarray:
    """Ambient matrix acting as the same small block at every grid point."""
    block = np.asarray(block, dtype=complex)
    n = block.shape[0]
    if any(s != n for s in algebra.sizes):
        raise ValueError("constant block must match every block size")
    out = np.zeros((algebra.N, algebra.N), dtype=complex)
    for off in algebra.offsets:
        out[off : off + n, off : off + n] = block
    return out


class ModuleElement:
    """Element of the Hilbert module E = A (ambient block matrix payload)."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: BlockAlgebra, matrix):
        self.algebra = algebra
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (algebra.N, algebra.N):
            raise ValueError("payload shape does not match the algebra")

    def coords(self) -> np.ndarray:
        return self.algebra.to_coords(self.matrix)

    def norm(self) -> float:
        """Module norm ||x|| = ||<x,x>||^(1/2) = largest singular value."""
        return opnorm(self.matrix)

    def __repr__(self):
        return f"ModuleElement({self.algebra!r})"


def inner_product(x: ModuleElement, y: ModuleElement) -> np.ndarray:
    """A-valued scalar product <x,y> = x*·y."""
    if x.algebra != y.algebra:
        raise DescriptorMismatch("elements live over different algebras")
    return x.matrix.conj().T @ y.matrix
