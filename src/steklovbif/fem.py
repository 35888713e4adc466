"""P1 finite element assembly of the three bilinear forms.

For a mesh of (M, g) this produces, with piecewise-linear basis functions
and exact element integration,

* ``K``  -- stiffness, the Dirichlet energy pairing over the interior,
* ``M``  -- interior mass,
* ``B``  -- boundary mass, supported on boundary vertices.

All three are full symmetric scipy CSR matrices (both triangles stored,
indices canonical), built straight from batched element matrices.  Every
factorization of the pencil K + c M - lam B starts from one c-independent
``FactorInput`` per forms, which builds one order and one tree of the
interior dofs the first time a solve asks for it: a bandwidth-reducing
order, in which A_ii is kept in LAPACK band storage and A_ib as a dense
Fortran-order array, both scattered from cached positions, and the
nested-dissection tree, whose fronts a multifrontal Cholesky fills and
factors.  A run pays only for what its solves use, and no factorization
orders its matrix again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra, reverse_cuthill_mckee

from .errors import AssemblyError, PreconditionError
from .mesh import Mesh

# largest part that nested dissection leaves whole: on the disk L6 interior,
# leaves of 32 give 12% less fill than 128 and take 2.5 times as long
DISSECTION_LEAF = 128


@dataclass(frozen=True, eq=False)
class DensePattern:
    """K and M values at the Fortran-order flat ``positions`` of a dense
    array of ``shape``, zero elsewhere."""

    shape: tuple
    positions: np.ndarray
    K: np.ndarray
    M: np.ndarray

    def pencil(self, c: float) -> np.ndarray:
        """K + c M, in Fortran order, so that LAPACK works on it in place."""
        out = np.zeros(self.shape, order="F")
        out.reshape(-1, order="F")[self.positions] = self.K + c * self.M
        return out

    def matvec(self, c: float, x: np.ndarray) -> np.ndarray:
        """(K + c M) x, without the dense array."""
        col, row = np.divmod(self.positions, self.shape[0])
        return np.bincount(row, (self.K + c * self.M) * x[col], self.shape[0])


class Front(NamedTuple):
    """A node of the nested-dissection tree of A_ii.  Its update set is the
    later dofs adjacent to its subtree, n_inner interior ones, then boundary
    ones.  Its front keeps the first len(pivots) + n_inner columns of A's
    lower triangle on pivots + update, in Fortran order.  By flat positions,
    int32 to halve their memory, ``gather`` puts the pivot columns' K and M
    there, ``extend_add[i]`` child i's (len(update), n_inner) contribution,
    and ``boundary`` its boundary block into S."""

    pivots: np.ndarray
    update: np.ndarray
    n_inner: int
    children: tuple
    K: np.ndarray
    M: np.ndarray
    gather: np.ndarray
    extend_add: tuple
    boundary: np.ndarray


class FactorInput:
    """The c-independent input of every factorization of K + c M - lam B:
    the dense blocks K_bb, M_bb and B_bb, in the order of ``boundary_dofs``,
    and one order and one tree of the interior dofs, each with the pencil in
    it, built on first use:

    * ``interior`` (A_ii, in upper band storage) and ``coupling`` (A_ib,
      dense), each a ``DensePattern`` scattered from cached positions: rows
      are the interior dofs in the reverse Cuthill-McKee order of their
      pattern (George & Liu, 1981), ``interior_order``, which keeps A_ii in
      a narrow band; the columns of A_ib follow ``boundary_dofs``;
    * ``fronts``: the nested-dissection tree of the interior dofs, one
      ``Front`` per node, in postorder.
    """

    def __init__(self, K: sp.csr_matrix, M: sp.csr_matrix, B: sp.csr_matrix,
                 boundary_dofs: np.ndarray):
        self.n, self.boundary_dofs = K.shape[0], boundary_dofs
        pattern = (abs(K) + abs(M) + abs(B)).tocoo()
        self._rows, self._cols = pattern.row, pattern.col
        self._values = tuple(np.asarray(X[self._rows, self._cols]).ravel() for X in (K, M, B))
        self._is_b = np.zeros(self.n, dtype=bool)
        self._is_b[boundary_dofs] = True
        n_b = len(boundary_dofs)
        local = np.empty(self.n, dtype=np.int64)
        local[boundary_dofs] = np.arange(n_b)
        bb = self._is_b[self._rows] & self._is_b[self._cols]
        at = (local[self._rows[bb]], local[self._cols[bb]])
        self.K_bb, self.M_bb, self.B_bb = (
            sp.coo_matrix((v[bb], at), shape=(n_b, n_b)).toarray() for v in self._values)
        self.B_bb_norm1 = float(np.abs(self.B_bb).sum(axis=0).max())

    def boundary(self, c: float) -> np.ndarray:
        """Dense A_bb = K_bb + c M_bb."""
        return self.K_bb + c * self.M_bb

    @cached_property
    def _total(self) -> sp.csc_matrix:
        return sp.csc_matrix((sum(self._values), (self._rows, self._cols)), shape=(self.n,) * 2)

    @cached_property
    def fronts(self) -> tuple:
        """The ``Front`` of each node of the nested-dissection tree of the
        interior pattern, with unit weights, in postorder."""
        inner = np.flatnonzero(~self._is_b)
        if not len(inner):
            return ()
        graph = self._total[inner][:, inner].tocsr()
        graph.data[:] = 1.0
        order, start, children = nested_dissection(graph)
        n_i, n_b = len(inner), len(self.boundary_dofs)
        # renumbered by elimination, node k pivots on columns start[k]:start[k + 1],
        # and the pencil's entries sorted by column, then row
        dofs = np.concatenate([inner[order], self.boundary_dofs])
        position = np.empty(self.n, dtype=np.int64)
        position[dofs] = np.arange(self.n)
        rows, cols = position[self._rows], position[self._cols]
        at = np.lexsort((rows, cols))
        rows, cols, K, M = rows[at], cols[at], self._values[0][at], self._values[1][at]
        ptr = np.r_[0, np.cumsum(np.bincount(cols, minlength=self.n))]
        update, fronts = [], []
        for lo, hi, kids in zip(start[:-1], start[1:], children):
            at = slice(ptr[lo], ptr[hi])
            r, col = rows[at], cols[at]
            upd = np.concatenate([r] + [update[j] for j in kids])
            upd = np.unique(upd[upd >= hi])
            front, n_inner, low = np.r_[lo:hi, upd], int(np.searchsorted(upd, n_i)), r >= col

            def flat(i, j):  # positions of the entries (i, j) in the front
                at_i, at_j = np.searchsorted(front, i), np.searchsorted(front, j)
                return (at_i + len(front) * at_j).ravel().astype(np.int32)

            b = upd[n_inner:] - n_i
            update.append(upd)
            fronts.append(Front(
                dofs[lo:hi], dofs[upd], n_inner, kids, K[at][low], M[at][low],
                flat(r[low], col[low]),
                tuple(flat(update[j], update[j][:fronts[j].n_inner, None]) for j in kids),
                (b + n_b * b[:, None]).ravel().astype(np.int32)))
        return tuple(fronts)

    @cached_property
    def _band(self) -> tuple:
        """(interior_order, interior, coupling); A_ii's entry (i, j), i <= j,
        sits at row bw + i - j, column j of its band, bw the bandwidth."""
        rows, cols, is_b, bnd = self._rows, self._cols, self._is_b, self.boundary_dofs
        interior_order = np.flatnonzero(~is_b)
        if len(interior_order):  # RCM rejects an empty graph
            inner = self._total[interior_order][:, interior_order].tocsr()
            interior_order = interior_order[reverse_cuthill_mckee(inner, symmetric_mode=True)]
        local = np.empty(self.n, dtype=np.int64)
        local[interior_order] = np.arange(len(interior_order))
        local[bnd] = np.arange(len(bnd))
        n_i, n_b = len(interior_order), len(bnd)
        ii = ~is_b[rows] & ~is_b[cols] & (local[rows] <= local[cols])  # A_ii's upper triangle
        r, c = local[rows[ii]], local[cols[ii]]
        bw = int((c - r).max(initial=0))  # its bandwidth
        ib = ~is_b[rows] & is_b[cols]
        K, M, _ = self._values
        return (interior_order,
                DensePattern((bw + 1, n_i), bw + r - c + (bw + 1) * c, K[ii], M[ii]),
                DensePattern((n_i, n_b), local[rows[ib]] + n_i * local[cols[ib]], K[ib], M[ib]))

    interior_order = property(lambda self: self._band[0])
    interior = property(lambda self: self._band[1])
    coupling = property(lambda self: self._band[2])


def nested_dissection(graph: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, list]:
    """A nested-dissection order (George, SIAM J. Numer. Anal. 10, 1973) of
    the symmetric graph with adjacency pattern ``graph``, with its separator
    tree: a connected part of more than DISSECTION_LEAF vertices is split by
    the breadth-first level, from a pseudo-peripheral vertex, that holds its
    middle vertex, and ordered after the levels below and then those above
    it.  Neither holds more than half the part, so the recursion depth grows
    like log2(n).  Smaller parts keep their numbering and are leaves; the
    parts of a disconnected graph are sibling subtrees.  Returns (order,
    start, children): node k of the tree, in postorder, holds the vertices
    order[start[k]:start[k + 1]], and children[k] is the tuple of its
    children.  No edge joins two sibling subtrees."""
    parts, children = [], []

    def node(verts, kids):
        parts.append(verts)
        children.append(tuple(kids))
        return [len(parts) - 1]

    def dissect(verts):
        if len(verts) <= DISSECTION_LEAF:
            return node(verts, []) if len(verts) else []
        sub = graph[verts][:, verts]
        reach = dijkstra(sub, indices=0, unweighted=True)
        if np.isinf(reach).any():
            _, label = connected_components(sub, directed=False)
            by_label = verts[np.argsort(label, kind="stable")]
            return [root for part in np.split(by_label, np.cumsum(np.bincount(label))[:-1])
                    for root in dissect(part)]
        level = dijkstra(sub, indices=int(np.argmax(reach)), unweighted=True)
        middle = np.searchsorted(np.cumsum(np.bincount(level.astype(np.int64))), len(verts) / 2)
        return node(verts[level == middle],
                    dissect(verts[level < middle]) + dissect(verts[level > middle]))

    dissect(np.arange(graph.shape[0]))
    return np.concatenate(parts), np.cumsum([0] + [len(part) for part in parts]), children


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
        """The pencil's blocks and orders, shared by every solve on these
        forms."""
        return FactorInput(self.K, self.M, self.B, self.boundary_dofs)


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
