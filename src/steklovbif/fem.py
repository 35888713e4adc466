"""P1 finite element assembly of the three bilinear forms.

For a mesh of (M, g) this produces, with piecewise-linear basis functions
and exact element integration,

* ``K``  -- stiffness, the Dirichlet energy pairing over the interior,
* ``M``  -- interior mass,
* ``B``  -- boundary mass, supported on boundary vertices.

All three are full symmetric scipy CSR matrices (both triangles stored,
indices canonical), built straight from batched element matrices.  Every
factorization of the pencil K + c M - lam B starts from one c-independent
``FactorInput`` per forms: the dofs renumbered once by a fill-reducing order,
so that no factorization orders its matrix again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, PreconditionError
from .mesh import Mesh


@dataclass(frozen=True, eq=False)
class SharedPattern:
    """K and M (and B) values on one CSC sparsity pattern: a pencil matrix
    built from them is one pass over the value arrays."""

    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray
    K: np.ndarray
    M: np.ndarray
    B: np.ndarray | None = None

    def pencil(self, c: float, lam: float = 0.0) -> sp.csc_matrix:
        """K + c M - lam B, in CSC."""
        data = self.K + c * self.M
        if lam:
            data -= lam * self.B
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


@dataclass(frozen=True, eq=False)
class FactorInput:
    """The c-independent input of every factorization of K + c M - lam B.

    The dofs are renumbered by the COLAMD order (Davis, Gilbert, Larimore &
    Ng, ACM TOMS 30, 2004) of the common sparsity pattern of K, M and B.
    ``full`` is the renumbered pencil, with each boundary dof at its entry
    of ``boundary_positions``.  ``interior`` (A_ii) and ``coupling`` (A_ib)
    have as rows the interior dofs in that order, listed by
    ``interior_order``; their boundary columns, and the dense boundary
    blocks, follow ``boundary_dofs``.
    """

    boundary_positions: np.ndarray
    interior_order: np.ndarray
    full: SharedPattern
    interior: SharedPattern
    coupling: SharedPattern
    K_bb: np.ndarray
    M_bb: np.ndarray
    B_bb: np.ndarray
    B_bb_norm1: float

    def boundary(self, c: float) -> np.ndarray:
        """Dense A_bb = K_bb + c M_bb."""
        return self.K_bb + c * self.M_bb


def _shared_csc(rows, cols, shape, values) -> tuple:
    """(shape, indices, indptr, *values) of the CSC pattern of the distinct
    entries (rows, cols), each value array reordered to match."""
    at = np.lexsort((rows, cols))
    indptr = np.zeros(shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
    return (shape, rows[at].astype(np.int32), indptr, *(v[at] for v in values))


@dataclass(frozen=True, eq=False)
class AssembledForms:
    """The three assembled bilinear forms of one mesh, as full symmetric CSR.

    The factorization input is built on first use and shared by every solve
    on these forms; callers must not modify any matrix in place.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    B: sp.csr_matrix
    boundary_dofs: np.ndarray

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.nonzero(mask)[0]

    @cached_property
    def factor_input(self) -> FactorInput:
        """One fill-reducing order and the pencil's blocks in it; the order
        costs one sparse factorization of K + M + B, once per forms."""
        n, bnd = self.n, self.boundary_dofs
        pattern = (abs(self.K) + abs(self.M) + abs(self.B)).tocoo()
        rows, cols = pattern.row, pattern.col
        K, M, B = (np.asarray(X[rows, cols]).ravel() for X in (self.K, self.M, self.B))
        total = sp.csc_matrix((K + M + B, (rows, cols)), shape=(n, n))
        order = np.argsort(spla.splu(total).perm_c)
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        full = SharedPattern(*_shared_csc(position[rows], position[cols], (n, n), (K, M, B)))

        is_b = np.zeros(n, dtype=bool)
        is_b[bnd] = True
        interior_order = order[~is_b[order]]
        local = np.empty(n, dtype=np.int64)
        local[interior_order] = np.arange(len(interior_order))
        local[bnd] = np.arange(len(bnd))
        n_i, n_b = len(interior_order), len(bnd)

        def block(mask, shape):
            return SharedPattern(*_shared_csc(local[rows[mask]], local[cols[mask]], shape,
                                              (K[mask], M[mask])))

        bb = is_b[rows] & is_b[cols]
        dense = []
        for values in (K, M, B):
            X = np.zeros((n_b, n_b))
            X[local[rows[bb]], local[cols[bb]]] = values[bb]
            dense.append(X)
        return FactorInput(
            boundary_positions=position[bnd],
            interior_order=interior_order,
            full=full,
            interior=block(~is_b[rows] & ~is_b[cols], (n_i, n_i)),
            coupling=block(~is_b[rows] & is_b[cols], (n_i, n_b)),
            K_bb=dense[0],
            M_bb=dense[1],
            B_bb=dense[2],
            B_bb_norm1=float(np.abs(dense[2]).sum(axis=0).max()),
        )


def _symmetric_csr(n: int, simplices: np.ndarray, elements: np.ndarray) -> sp.csr_matrix:
    """Sum the element matrices (s, k, k) of the simplices (s, k) into a full
    symmetric n x n CSR matrix.

    The upper-triangle entries are summed per (row, col) in cell-major order,
    then mirrored below the diagonal, so every entry is the same float sum
    however the matrix is later sliced.
    """
    a, b = np.triu_indices(simplices.shape[1])
    rows, cols = simplices[:, a].ravel(), simplices[:, b].ravel()
    values = elements[:, a, b].ravel()
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys, lo, hi, values = keys[order], lo[order], hi[order], values[order]
    start = np.unique(keys, return_index=True)[1]
    lo, hi, values = lo[start], hi[start], np.add.reduceat(values, start)
    off = lo != hi
    r = np.concatenate([lo, hi[off]])
    c = np.concatenate([hi, lo[off]])
    v = np.concatenate([values, values[off]])
    return sp.csr_matrix((v, (r, c)), shape=(n, n))


def assemble(mesh: Mesh) -> AssembledForms:
    """Assemble stiffness, interior mass, and boundary mass for a valid mesh.

    Element integrals are exact for affine elements; a degenerate cell
    aborts assembly naming the cell.
    """
    d = mesh.dim
    nv = d + 1
    # columns of T are the edge vectors x_k - x_0 of each cell
    x = mesh.vertices[mesh.cells]
    T = np.swapaxes(x[:, 1:] - x[:, :1], 1, 2)
    det = T[:, 0, 0] if d == 1 else np.linalg.det(T)
    vol = det / math.factorial(d)
    bad = np.flatnonzero(~(vol > 0))
    if len(bad):
        idx = int(bad[0])
        raise AssemblyError(f"degenerate cell {idx}: signed volume {vol[idx]:.3e}")
    # gradients of the barycentric coordinates, one row per cell vertex
    grads = np.empty((mesh.n_cells, nv, d))
    grads[:, 1:] = np.linalg.inv(T)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    ke = vol[:, None, None] * (grads @ np.swapaxes(grads, 1, 2))
    me = vol[:, None, None] * ((np.ones((nv, nv)) + np.eye(nv)) / (nv * (nv + 1)))

    facets = mesh.boundary_facets
    nf = facets.shape[1]
    be = mesh.facet_measures()[:, None, None] * (np.ones((nf, nf)) + np.eye(nf)) / (nf * (nf + 1))

    n = mesh.n_vertices
    return AssembledForms(
        K=_symmetric_csr(n, mesh.cells, ke),
        M=_symmetric_csr(n, mesh.cells, me),
        B=_symmetric_csr(n, facets, be),
        boundary_dofs=np.asarray(mesh.boundary_vertex_ids, dtype=np.int64),
    )


def scale_metric_forms(forms: AssembledForms, t: float, m: int) -> AssembledForms:
    """Forms of the homothetic metric t*g on an m-dimensional mesh.

    The Dirichlet form picks up t^((m-2)/2), the interior measure t^(m/2),
    and the boundary measure t^((m-1)/2).
    """
    if t <= 0:
        raise PreconditionError(f"homothety factor must be positive, got {t}")
    return AssembledForms(
        K=forms.K * t ** ((m - 2) / 2.0),
        M=forms.M * t ** (m / 2.0),
        B=forms.B * t ** ((m - 1) / 2.0),
        boundary_dofs=forms.boundary_dofs,
    )


def dump_matrix(matrix: sp.csr_matrix, path) -> None:
    """Write the upper-triangular entries of a symmetric matrix as
    ``row col value`` text lines, row by row."""
    coo = matrix.tocoo()
    upper = coo.row <= coo.col
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row[upper], coo.col[upper], coo.data[upper]):
            fh.write(f"{r} {c} {v:.17g}\n")
