"""P1 finite element assembly of the three bilinear forms.

For a mesh of (M, g) this produces, with piecewise-linear basis functions
and exact element integration,

* ``K``  -- stiffness, the Dirichlet energy pairing over the interior,
* ``M``  -- interior mass,
* ``B``  -- boundary mass, supported on boundary vertices.

All three are full symmetric scipy CSR matrices (both triangles stored,
indices canonical), built straight from batched element matrices; K and M,
summed over the same cells, share one pattern.  Every factorization of the
pencil K + c M - lam B starts from one c-independent ``FactorInput`` per
forms, which reads K and M in place and builds one order and one tree of
the interior dofs the first time a solve asks for it: a bandwidth-reducing
order, in which A_ii is kept in LAPACK band storage and A_ib as a dense
Fortran-order array, and the nested-dissection tree, which bisects the
interior along the coordinates of its vertices and whose fronts a
multifrontal Cholesky fills and factors, every dense block scattered from
cached positions.  A run pays only for what its solves use, and no
factorization orders its matrix again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import AssemblyError, PreconditionError
from .mesh import Mesh

# largest part that nested dissection leaves whole: on the disk L6 interior,
# leaves of 32 keep half the factor entries (L's lower triangles and W) of 128
# (0.92M against 1.79M) at about the same time per S(c), but take 1.5-2 times
# as long to build
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


class Front(NamedTuple):
    """A node of the nested-dissection tree of A_ii.  It pivots on the slice
    ``pivots`` of the elimination order; its update set holds the later
    positions next to its subtree, n_inner interior ones, then boundary ones.
    Its buffer, ``values.pencil(c)``, holds the p x p pivot block, then the
    update rows on all p + n_inner columns, each in Fortran order, with the
    pivot columns' lower K + c M in place.  By intp flat positions,
    ``extend_add[i]`` adds child i's ``lower_trapezoid`` there, and
    ``boundary`` the lower triangle of its boundary block into S."""

    pivots: slice
    update: np.ndarray
    n_inner: int
    children: tuple
    values: DensePattern
    extend_add: tuple
    boundary: np.ndarray


def lower_trapezoid(n_rows: int, n_cols: int) -> np.ndarray:
    """The entries (i, j), i >= j, of an n_rows x n_cols array in Fortran
    order, column by column: a mask of its transpose, in C order.  The
    top-left n_cols x n_rows corner of a larger one masks the same."""
    return np.less_equal.outer(np.arange(n_cols), np.arange(n_rows))


class FactorInput:
    """The c-independent input of every factorization of K + c M - lam B.
    K and M must share one canonical CSR pattern, which it reads in place:
    it holds views of K.data and M.data and positions in that pattern, not
    copies, and ``vertices`` one coordinate row per dof, which only the tree
    reads.  Each dense block of K + c M is a ``DensePattern``: A_bb
    (``boundary(c)``), in the order of ``boundary_dofs`` like B_bb, which
    is read from B's own pattern, and, built on first use, one order and
    one tree of the interior dofs:

    * ``interior`` (A_ii, in upper band storage) and ``coupling`` (A_ib,
      dense): rows are the interior dofs in the reverse Cuthill-McKee order
      of their pattern (George & Liu, 1981), ``interior_order``, which keeps
      A_ii in a narrow band; the columns of A_ib follow ``boundary_dofs``;
    * ``fronts``: the nested-dissection tree of the interior dofs, by
      bisection of their coordinates, one ``Front`` per node, in postorder,
      ``elimination``, the dofs in the order in which they pivot, the
      boundary dofs last, and ``trapezoid``, the one ``lower_trapezoid``
      whose corners mask every front's blocks.

    Both are built from one interior pattern.  ``banded`` picks the route
    of S(c) by flop count, read off the order's bandwidth and each node's
    pivots and update set, so a slice or a count through the fronts builds
    no band, and forms whose slices and counts take the band build fronts
    only for the table.
    """

    def __init__(self, K: sp.csr_matrix, M: sp.csr_matrix, B: sp.csr_matrix,
                 boundary_dofs: np.ndarray, vertices: np.ndarray):
        if not (K.has_canonical_format and np.array_equal(K.indptr, M.indptr)
                and np.array_equal(K.indices, M.indices)):
            raise PreconditionError("K and M must share one canonical CSR pattern")
        if np.ndim(vertices) != 2 or len(vertices) != K.shape[0]:
            raise PreconditionError(f"need one vertex row per dof ({K.shape[0]}), "
                                    f"got shape {np.shape(vertices)}")
        self._vertices = vertices
        self.n, self.boundary_dofs, n_b = K.shape[0], boundary_dofs, len(boundary_dofs)
        self._indptr, self._cols, self._K, self._M = K.indptr, K.indices, K.data, M.data
        self._rows = np.repeat(np.arange(self.n), np.diff(K.indptr))
        self._is_b = np.zeros(self.n, dtype=bool)
        self._is_b[boundary_dofs] = True
        self._inner = np.flatnonzero(~self._is_b)  # the interior dofs, ascending
        # each boundary dof's place in boundary_dofs, and, once the band is
        # built, each interior dof's in interior_order
        self._local = local = np.empty(self.n, dtype=np.int64)
        local[boundary_dofs] = np.arange(n_b)
        bb = self._is_b[self._rows] & self._is_b[self._cols]
        at = local[self._rows[bb]] + n_b * local[self._cols[bb]]
        self._boundary = DensePattern((n_b, n_b), at, self._K[bb], self._M[bb])
        self.B_bb = B[boundary_dofs][:, boundary_dofs].toarray()
        self.B_bb_norm1 = float(np.abs(self.B_bb).sum(axis=0).max())

    @cached_property
    def _interior_graph(self) -> sp.csr_matrix:
        """The pattern of A_ii, a slice of K's, on the interior dofs in order."""
        return sp.csr_matrix((np.ones(len(self._cols)), self._cols, self._indptr),
                             shape=(self.n, self.n))[self._inner][:, self._inner]

    @cached_property
    def _dissection(self) -> tuple:
        """(elimination, position, at, nodes, updates): the dofs in the
        elimination order of the nested-dissection tree of the interior
        pattern, the boundary dofs last, and each dof's place in it; the
        pattern's entries on or below the diagonal in the pivot columns,
        sorted by column, then row; and per node, in postorder, (lo, hi,
        children, begin, end), which pivots on positions lo:hi and whose
        columns' entries are at[begin:end], and its update set."""
        inner = self._inner
        order, start, children = nested_dissection(self._interior_graph, self._vertices[inner])
        n_i = len(inner)
        elimination = np.concatenate([inner[order], self.boundary_dofs])
        position = np.empty(self.n, dtype=np.intp)
        position[elimination] = np.arange(self.n)
        rows, cols = position[self._rows], position[self._cols]
        at = np.flatnonzero((rows >= cols) & (cols < n_i))
        at = at[np.argsort(cols[at] * self.n + rows[at])]
        ptr = np.searchsorted(cols[at], start)
        nodes = list(zip(start[:-1].tolist(), start[1:].tolist(), children,
                         ptr[:-1].tolist(), ptr[1:].tolist()))
        rows = rows[at]
        updates, near = [], np.zeros(self.n, dtype=bool)  # the positions next to a subtree
        for lo, hi, kids, begin, end in nodes:
            for x in [rows[begin:end]] + [updates[j] for j in kids]:
                near[x] = True
            updates.append(hi + np.flatnonzero(near[hi:]))
            near[:] = False
        return elimination, position, at, nodes, updates

    @cached_property
    def _tree(self) -> tuple:
        """(fronts, trapezoid): the ``Front`` of each node of the dissection,
        in postorder, and a mask as wide as the widest."""
        _, position, at, nodes, updates = self._dissection
        n_i, n_b = self.n - len(self.boundary_dofs), len(self.boundary_dofs)
        rows, cols = position[self._rows[at]], position[self._cols[at]]
        K, M = self._K[at], self._M[at]
        width = max(map(len, updates), default=0)
        trapezoid = lower_trapezoid(width, width)

        def flat(offset, step, column):  # of the lower trapezoid: rows (offset, step)
            return (offset + step * column[:, None])[trapezoid[:len(column), :len(offset)]]

        # in the front being built, entry (i, j) sits at first[i] + stride[i] * place[j]
        place, first, stride = (np.empty(self.n, dtype=np.intp) for _ in range(3))
        fronts = []
        for (lo, hi, kids, begin, end), upd in zip(nodes, updates):
            r, col = rows[begin:end], cols[begin:end] - lo
            p, u, n_inner = hi - lo, len(upd), int(np.searchsorted(upd, n_i))
            place[lo:hi], first[lo:hi], stride[lo:hi] = np.arange(p), np.arange(p), p
            place[upd], first[upd], stride[upd] = np.arange(p, p + u), p * p + np.arange(u), u
            b = upd[n_inner:] - n_i
            fronts.append(Front(
                slice(lo, hi), upd, n_inner, kids,
                DensePattern((p * p + u * (p + n_inner),), first[r] + stride[r] * col,
                             K[begin:end], M[begin:end]),
                tuple(flat(first[x.update], stride[x.update], place[x.update[:x.n_inner]])
                      for x in [fronts[j] for j in kids]),
                flat(b, n_b, b)))
        return tuple(fronts), trapezoid

    @cached_property
    def _order(self) -> tuple:
        """(interior_order, bw): the interior dofs in the reverse
        Cuthill-McKee order of their pattern, and the bandwidth of A_ii in
        it."""
        interior_order = self._inner
        if not len(interior_order):  # RCM rejects an empty graph
            return interior_order, 0
        graph = self._interior_graph
        rcm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        rank = np.argsort(rcm)  # each dof's place in the order
        rows = np.repeat(rank, np.diff(graph.indptr))
        return interior_order[rcm], int(np.abs(rows - rank[graph.indices]).max())

    @cached_property
    def _band(self) -> tuple:
        """(interior, coupling) in ``interior_order``; A_ii's entry (i, j),
        i <= j, sits at row bw + i - j, column j of its band."""
        rows, cols, is_b, local = self._rows, self._cols, self._is_b, self._local
        interior_order, bw = self._order
        local[interior_order] = np.arange(len(interior_order))
        n_i, n_b = len(interior_order), len(self.boundary_dofs)
        ii = ~is_b[rows] & ~is_b[cols] & (local[rows] <= local[cols])  # A_ii's upper triangle
        r, c = local[rows[ii]], local[cols[ii]]
        ib = ~is_b[rows] & is_b[cols]
        K, M = self._K, self._M
        return (DensePattern((bw + 1, n_i), bw + r - c + (bw + 1) * c, K[ii], M[ii]),
                DensePattern((n_i, n_b), local[rows[ib]] + n_i * local[cols[ib]], K[ib], M[ib]))

    @cached_property
    def banded(self) -> bool:
        """Whether S(c) comes from the banded Cholesky: true when its flop
        count, n_i bw^2 + 2 n_i bw n_b + n_i n_b^2 = n_i (bw + n_b)^2, is at
        most the fronts', the sum of p^3/3 + p^2 u + p u^2 over fronts of p
        pivots and u update dofs.  Both are compared exactly, as integers
        times 3, and a tie goes to the band."""
        n_i, n_b, bw = len(self.interior_order), len(self.boundary_dofs), self._order[1]
        sizes = [(hi - lo, len(u)) for (lo, hi, *_), u in zip(*self._dissection[3:])]
        return 3 * n_i * (bw + n_b) ** 2 <= sum(p**3 + 3 * p * u * (p + u) for p, u in sizes)

    boundary = property(lambda self: self._boundary.pencil)  # A_bb(c), in Fortran order
    elimination = property(lambda self: self._dissection[0])
    fronts = property(lambda self: self._tree[0])
    trapezoid = property(lambda self: self._tree[1])
    interior_order = property(lambda self: self._order[0])
    interior = property(lambda self: self._band[0])
    coupling = property(lambda self: self._band[1])


def nested_dissection(graph: sp.csr_matrix,
                       points: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """A nested-dissection order of the symmetric graph with adjacency
    pattern ``graph``, whose vertex i sits at ``points[i]``, with its
    separator tree, by coordinate bisection (George, SIAM J. Numer. Anal. 10,
    1973; Gilbert, Miller & Teng, SIAM J. Sci. Comput. 19, 1998).  A part of
    more than DISSECTION_LEAF vertices is sorted along the widest axis of its
    bounding box, ties by vertex number: its lower size // 2 vertices form
    one half, and its separator is the vertices of the upper half next to
    the lower one, or, where the halves do not touch, the upper half's first
    vertex.  The lower half and the rest of the upper one are its children,
    neither more than half the part, so the tree is about log2(n) deep.
    Smaller parts keep their numbering and are leaves.  Returns (order,
    start, children): node k of the tree, in postorder, holds the vertices
    order[start[k]:start[k + 1]], and children[k] is the tuple of its
    children.  No edge joins two sibling subtrees.

    The tree grows a level at a time, every part of a level split by one
    sort of the vertices not yet in a node, by (part, coordinate)."""
    n = graph.shape[0]
    rows, cols = np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices
    # each vertex's place along each axis, ties by vertex number
    place = np.argsort(np.argsort(points, axis=0, kind="stable"), axis=0)
    part = np.zeros(n, dtype=np.intp)  # node k splits into parts 2k + 1, 2k + 2
    node, labels = np.empty(n, dtype=np.intp), []  # the part each node was made of
    verts = np.arange(n)  # the vertices no node holds yet, each part's together
    while len(verts):
        first = np.flatnonzero(np.r_[True, np.diff(part[verts]) != 0])
        size = np.diff(np.r_[first, len(verts)])
        unit, made = np.repeat(np.arange(len(first)), size), len(labels)
        labels.extend(part[verts[first]].tolist())
        x = points[verts]
        axis = np.argmax(np.maximum.reduceat(x, first) - np.minimum.reduceat(x, first), axis=1)
        verts = verts[np.argsort(unit * n + place[verts, axis[unit]])]
        big = size[unit] > DISSECTION_LEAF
        lower = big & (np.arange(len(verts)) - first[unit] < size[unit] // 2)
        half = np.zeros(n, dtype=np.intp)  # 1 below, 2 above the middle of a big part
        half[verts[big]] = 2 - lower[big]
        taken = np.zeros(n, dtype=bool)
        taken[verts[~big]] = True
        taken[rows[(half[rows] == 2) & (half[cols] == 1)]] = True
        apart = (size > DISSECTION_LEAF) & ~np.logical_or.reduceat(taken[verts], first)
        taken[verts[first[apart] + size[apart] // 2]] = True
        here = taken[verts]
        node[verts[here]] = made + unit[here]
        part[verts] = 2 * (made + unit) + half[verts]
        verts = verts[~here]
    index = dict(zip(labels, range(len(labels))))  # the node made of each part
    post = []

    def emit(label):
        if label in index:
            emit(2 * index[label] + 1)
            emit(2 * index[label] + 2)
            post.append(index[label])

    emit(0)
    rank = np.empty(len(post), dtype=np.intp)
    rank[post] = np.arange(len(post))
    return (np.argsort(rank[node], kind="stable"),
            np.r_[0, np.cumsum(np.bincount(rank[node], minlength=len(post)))],
            [tuple(int(rank[index[half]]) for half in (2 * k + 1, 2 * k + 2) if half in index)
             for k in post])


@dataclass(frozen=True, eq=False)
class AssembledForms:
    """The three assembled bilinear forms of one mesh, as full symmetric CSR,
    K and M on one canonical pattern, with the coordinates of their dofs,
    the mesh's ``vertices``, by which the nested-dissection tree bisects.

    The factorization input, built on first use and shared by every solve,
    reads K and M in place: callers must not modify any matrix in place.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    B: sp.csr_matrix
    boundary_dofs: np.ndarray
    vertices: np.ndarray

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
        return FactorInput(self.K, self.M, self.B, self.boundary_dofs, self.vertices)


def _symmetric_csr(n: int, simplices: np.ndarray, *elements: np.ndarray) -> tuple:
    """Sum each stack of element matrices (s, k, k) of the simplices (s, k)
    into a full symmetric n x n CSR matrix, all on one canonical pattern.

    The upper-triangle entries are summed per (row, col) in cell-major order,
    then mirrored below the diagonal, so every entry is the same float sum
    however the matrix is later sliced.
    """
    a, b = np.triu_indices(simplices.shape[1])
    rows, cols = simplices[:, a].ravel(), simplices[:, b].ravel()
    keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    lo, hi = np.divmod(keys[start], n)
    off = lo != hi
    r, c = np.concatenate([lo, hi[off]]), np.concatenate([hi, lo[off]])
    at = np.argsort(r * n + c)  # row by row, each row's columns ascending
    indptr = np.r_[0, np.cumsum(np.bincount(r, minlength=n))]
    sums = [np.add.reduceat(e[:, a, b].ravel()[order], start) for e in elements]
    return tuple(sp.csr_matrix((np.concatenate([v, v[off]])[at], c[at], indptr), shape=(n, n))
                 for v in sums)


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
    K, M = _symmetric_csr(n, mesh.cells, ke, me)
    (B,) = _symmetric_csr(n, facets, be)
    return AssembledForms(K, M, B, np.asarray(mesh.boundary_vertex_ids, dtype=np.int64),
                          mesh.vertices)


def scale_metric_forms(forms: AssembledForms, t: float, m: int) -> AssembledForms:
    """Forms of the homothetic metric t*g on an m-dimensional mesh.

    The Dirichlet form picks up t^((m-2)/2), the interior measure t^(m/2),
    and the boundary measure t^((m-1)/2).  The vertices stay: a homothety
    leaves the tree that they give as it is.
    """
    if not 0 < t < math.inf:  # a NaN fails every comparison
        raise PreconditionError(f"homothety factor must be positive and finite, got {t}")
    return AssembledForms(
        K=forms.K * t ** ((m - 2) / 2.0),
        M=forms.M * t ** (m / 2.0),
        B=forms.B * t ** ((m - 1) / 2.0),
        boundary_dofs=forms.boundary_dofs,
        vertices=forms.vertices,
    )

