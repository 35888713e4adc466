"""P1 finite element assembly of the three bilinear forms.

For a mesh of (M, g) this produces, with piecewise-linear basis functions
and exact element integration,

* ``K``  -- stiffness, the Dirichlet energy pairing over the interior,
* ``M``  -- interior mass,
* ``B``  -- boundary mass, supported on boundary vertices.

All three are stored as symmetric sparse matrices with each entry kept
once (row <= col).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, PreconditionError
from .mesh import Mesh, simplex_measure


@dataclass(frozen=True, eq=False)
class SparseSymMatrix:
    """Symmetric sparse matrix in upper-triangular coordinate form.

    Entries are finalized: duplicate (row, col) pairs are summed on
    construction and row <= col throughout.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def from_dense(cls, a) -> "SparseSymMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PreconditionError("from_dense needs a square matrix")
        if not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
            raise PreconditionError("from_dense needs a symmetric matrix")
        rows, cols = np.triu_indices(a.shape[0])
        return cls.from_triplets(a.shape[0], rows, cols, a[rows, cols])

    @classmethod
    def from_triplets(cls, n, rows, cols, values) -> "SparseSymMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        keys, lo, hi, values = keys[order], lo[order], hi[order], values[order]
        uniq, start = np.unique(keys, return_index=True)
        summed = np.add.reduceat(values, start)
        return cls(n=n, rows=lo[start], cols=hi[start], values=summed)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def scaled(self, factor: float) -> "SparseSymMatrix":
        return SparseSymMatrix(self.n, self.rows, self.cols, self.values * factor)

    def to_csr(self) -> sp.csr_matrix:
        """Full symmetric CSR (both triangles)."""
        off = self.rows != self.cols
        r = np.concatenate([self.rows, self.cols[off]])
        c = np.concatenate([self.cols, self.rows[off]])
        v = np.concatenate([self.values, self.values[off]])
        return sp.csr_matrix((v, (r, c)), shape=(self.n, self.n))

    def toarray(self) -> np.ndarray:
        return self.to_csr().toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.to_csr() @ x


@dataclass(frozen=True, eq=False)
class AssembledForms:
    """The three assembled bilinear forms of one mesh.

    Their full CSR matrices and interior/boundary blocks are built on first
    use and shared by every solve on these forms; callers must not modify
    them in place.
    """

    K: SparseSymMatrix
    M: SparseSymMatrix
    B: SparseSymMatrix
    boundary_dofs: np.ndarray

    @property
    def n(self) -> int:
        return self.K.n

    @cached_property
    def interior_dofs(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.boundary_dofs] = False
        return np.nonzero(mask)[0]

    @cached_property
    def csr(self) -> tuple:
        """(K, M, B) as full symmetric CSR."""
        return self.K.to_csr(), self.M.to_csr(), self.B.to_csr()

    @cached_property
    def blocks(self) -> tuple:
        """((K_ii, K_ib, K_bb), (M_ii, M_ib, M_bb), B_bb) in CSR, i interior
        and b boundary dofs; the pencil K + c M splits blockwise."""
        i, b = self.interior_dofs, self.boundary_dofs
        K, M, B = self.csr

        def split(X):
            return X[np.ix_(i, i)], X[np.ix_(i, b)], X[np.ix_(b, b)]

        return split(K), split(M), B[np.ix_(b, b)]


def _barycentric_gradients(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradients of the d+1 barycentric coordinates and the signed volume;
    gradients are None for a degenerate simplex."""
    d = points.shape[0] - 1
    T = (points[1:] - points[0]).T
    det = T[0, 0] if d == 1 else np.linalg.det(T)
    vol = det / math.factorial(d)
    if not vol > 0:
        return None, vol
    grads = np.empty((d + 1, d))
    grads[1:] = np.linalg.inv(T)
    grads[0] = -grads[1:].sum(axis=0)
    return grads, vol


def assemble(mesh: Mesh) -> AssembledForms:
    """Assemble stiffness, interior mass, and boundary mass for a valid mesh.

    Element integrals are exact for affine elements; a degenerate cell
    aborts assembly naming the cell.
    """
    d = mesh.dim
    nv = d + 1
    mass_ref = (np.ones((nv, nv)) + np.eye(nv)) / ((nv) * (nv + 1))

    rows_k, cols_k, vals_k = [], [], []
    rows_m, cols_m, vals_m = [], [], []
    for idx, cell in enumerate(mesh.cells):
        grads, vol = _barycentric_gradients(mesh.vertices[cell])
        if grads is None:
            raise AssemblyError(f"degenerate cell {idx}: signed volume {vol:.3e}")
        ke = vol * (grads @ grads.T)
        me = vol * mass_ref
        for a in range(nv):
            for b in range(a, nv):
                rows_k.append(cell[a])
                cols_k.append(cell[b])
                vals_k.append(ke[a, b])
                rows_m.append(cell[a])
                cols_m.append(cell[b])
                vals_m.append(me[a, b])

    rows_b, cols_b, vals_b = [], [], []
    for facet in mesh.boundary_facets:
        nf = len(facet)
        measure = 1.0 if d == 1 else simplex_measure(mesh.vertices[facet])
        be = measure * (np.ones((nf, nf)) + np.eye(nf)) / ((nf) * (nf + 1))
        for a in range(nf):
            for b in range(a, nf):
                rows_b.append(facet[a])
                cols_b.append(facet[b])
                vals_b.append(be[a, b])

    n = mesh.n_vertices
    return AssembledForms(
        K=SparseSymMatrix.from_triplets(n, rows_k, cols_k, vals_k),
        M=SparseSymMatrix.from_triplets(n, rows_m, cols_m, vals_m),
        B=SparseSymMatrix.from_triplets(n, rows_b, cols_b, vals_b),
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
        K=forms.K.scaled(t ** ((m - 2) / 2.0)),
        M=forms.M.scaled(t ** (m / 2.0)),
        B=forms.B.scaled(t ** ((m - 1) / 2.0)),
        boundary_dofs=forms.boundary_dofs,
    )


def dump_matrix(matrix: SparseSymMatrix, path) -> None:
    """Write the upper-triangular entries as ``row col value`` text lines."""
    with open(path, "w") as fh:
        for r, c, v in zip(matrix.rows, matrix.cols, matrix.values):
            fh.write(f"{r} {c} {v:.17g}\n")
