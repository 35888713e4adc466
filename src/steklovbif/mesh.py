"""Simplicial meshes of manifolds with boundary.

A mesh is a flat (Euclidean) simplicial complex: vertices carry embedding
coordinates, cells are positively oriented (dim+1)-simplices, and the
boundary is the set of facets incident to exactly one cell.  Interval
endpoints (0-dimensional facets) carry counting measure 1.

Meshes are immutable after construction; generators and refinement are
pure functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, InvalidMeshError, PreconditionError
from .serialize import read_json_object, typed, typed_rows


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial mesh with boundary structure.

    Attributes
    ----------
    dim : int
        Intrinsic dimension; vertices live in R^dim (flat metric).
    vertices : (n, dim) float array
    cells : (m, dim+1) int array, positively oriented simplices
    boundary_facets : (b, dim) int array, facets incident to one cell
    boundary_vertex_ids : sorted int array of vertices on the boundary
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=np.int64))

    @cached_property
    def boundary_facets(self) -> np.ndarray:
        return extract_boundary_facets(self.cells, self.dim)

    @cached_property
    def boundary_vertex_ids(self) -> np.ndarray:
        return np.unique(self.boundary_facets)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_volumes(self) -> np.ndarray:
        """Signed volumes of all cells (positive for valid meshes)."""
        return signed_volumes(self.vertices, self.cells)

    def facet_measures(self) -> np.ndarray:
        """Measures of the boundary facets; counting measure 1 in dimension 0."""
        e = self.vertices[self.boundary_facets]
        e = e[:, 1:] - e[:, :1]
        gram = e @ np.swapaxes(e, 1, 2)  # empty in dimension 1, of determinant 1
        return np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(self.dim - 1)

    def interior_measure(self) -> float:
        return float(self.cell_volumes().sum())

    def boundary_measure(self) -> float:
        return float(self.facet_measures().sum())


def signed_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Signed simplex volumes det([x_1-x_0, ..., x_d-x_0]) / d!."""
    x = vertices[cells]
    edges = x[:, 1:, :] - x[:, :1, :]
    d = cells.shape[1] - 1
    if d == 1:
        dets = edges[:, 0, 0]
    else:
        dets = np.linalg.det(edges)
    return dets / math.factorial(d)


def simplex_measure(points: np.ndarray) -> float:
    """Unsigned measure of a simplex from its vertex coordinates (Gram determinant)."""
    e = points[1:] - points[0]
    k = e.shape[0]
    if k == 0:
        return 1.0
    gram = e @ e.T
    return math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(k)


def extract_boundary_facets(cells: np.ndarray, dim: int) -> np.ndarray:
    """Facets (dim-subsimplices) incident to exactly one cell, canonically sorted.

    Each sorted facet is one int64 key, its vertex ids as digits in a base
    above every id, so key order is lexicographic row order, and the rows
    are decoded from the keys that occur once.
    """
    facets = np.sort(
        np.concatenate([np.delete(cells, drop, axis=1) for drop in range(dim + 1)]), axis=1
    ).reshape(-1, dim)
    base = int(cells.max()) + 1 if cells.size else 1
    if base**dim > np.iinfo(np.int64).max:
        raise PreconditionError(f"vertex ids up to {base - 1} overflow int64 facet keys "
                                f"in dimension {dim}")
    keys = np.zeros(len(facets), dtype=np.int64)
    for column in facets.T:
        keys = keys * base + column
    keys, counts = np.unique(keys, return_counts=True)
    keys = keys[counts == 1]
    rows = np.empty((len(keys), dim), dtype=facets.dtype)
    for j in reversed(range(dim)):
        keys, rows[:, j] = np.divmod(keys, base)
    return rows


def generate_interval(n: int, L: float) -> Mesh:
    """Uniform mesh of [0, L] with n cells.

    Boundary facets are the two endpoints, each carrying counting measure 1.
    """
    if n < 1:
        raise PreconditionError(f"interval mesh needs n >= 1 cells, got {n}")
    if not 0 < L < math.inf:  # a NaN fails every comparison
        raise PreconditionError(f"interval mesh needs a finite L > 0, got {L}")
    vertices = np.linspace(0.0, L, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(dim=1, vertices=vertices, cells=cells)


def generate_disk(refinement_level: int) -> Mesh:
    """Triangulation of the closed unit disk.

    Level 0 is a fan of 8 triangles around the origin; each level splits
    every triangle in four and re-projects new boundary vertices onto the
    unit circle, so the boundary measure converges to 2*pi.
    """
    if refinement_level < 0:
        raise PreconditionError("refinement_level must be non-negative")
    angles = 2.0 * math.pi * np.arange(8) / 8.0
    vertices = np.vstack(
        [np.zeros((1, 2)), np.column_stack([np.cos(angles), np.sin(angles)])]
    )
    cells = np.array([[0, k + 1, (k + 1) % 8 + 1] for k in range(8)])
    mesh = Mesh(dim=2, vertices=vertices, cells=cells)
    for _ in range(refinement_level):
        mesh = project_boundary_to_unit_circle(refine_uniform(mesh))
    return mesh


def project_boundary_to_unit_circle(mesh: Mesh) -> Mesh:
    """Radially project boundary vertices of a planar mesh onto the unit
    circle; the cells are kept."""
    vertices = mesh.vertices.copy()
    ids = mesh.boundary_vertex_ids
    norms = np.linalg.norm(vertices[ids], axis=1)
    vertices[ids] = vertices[ids] / norms[:, None]
    projected = Mesh(dim=mesh.dim, vertices=vertices, cells=mesh.cells)
    # the same cells: their boundary, already derived, is not derived again
    vars(projected).update(boundary_facets=mesh.boundary_facets, boundary_vertex_ids=ids)
    return projected


def refine_uniform(mesh: Mesh) -> Mesh:
    """Uniform midpoint refinement: each cell splits into 2^dim children."""
    if mesh.dim == 1:
        mids = 0.5 * (mesh.vertices[mesh.cells[:, 0]] + mesh.vertices[mesh.cells[:, 1]])
        n = mesh.n_vertices
        vertices = np.vstack([mesh.vertices, mids])
        mid_ids = n + np.arange(mesh.n_cells)
        cells = np.vstack(
            [
                np.column_stack([mesh.cells[:, 0], mid_ids]),
                np.column_stack([mid_ids, mesh.cells[:, 1]]),
            ]
        )
        return Mesh(dim=1, vertices=vertices, cells=cells)
    if mesh.dim != 2:
        raise PreconditionError("uniform refinement implemented for dim <= 2")

    # One new vertex per edge, numbered in order of first occurrence over the
    # cell-major (m01, m12, m02) edge sequence; then each triangle splits in four.
    c = mesh.cells
    edges = np.sort(np.stack([c[:, [0, 1]], c[:, [1, 2]], c[:, [0, 2]]], axis=1), axis=2)
    unique, first, inverse = np.unique(
        edges.reshape(-1, 2), axis=0, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    m01, m12, m02 = (mesh.n_vertices + rank[inverse.reshape(-1)]).reshape(-1, 3).T
    a, b = unique[by_first].T
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])
    v0, v1, v2 = c.T
    cells = np.stack(
        [[v0, m01, m02], [m01, v1, m12], [m02, m12, v2], [m01, m12, m02]], axis=0
    ).transpose(2, 0, 1).reshape(-1, 3)
    return Mesh(dim=2, vertices=vertices, cells=cells)


def validate(mesh: Mesh) -> list[str]:
    """Report violated mesh invariants; an empty list means the mesh is valid."""
    report = []
    n = mesh.n_vertices
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != mesh.dim:
        report.append(f"vertex coordinates must have length dim={mesh.dim}")
        return report
    if mesh.cells.ndim != 2 or mesh.cells.shape[1] != mesh.dim + 1:
        report.append(f"cells must be ({mesh.dim + 1})-tuples")
        return report
    if mesh.n_cells and (mesh.cells.min() < 0 or mesh.cells.max() >= n):
        report.append("cell vertex index out of range")
        return report

    ordered = np.sort(mesh.cells, axis=1)
    for idx in np.nonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))[0]:
        report.append(f"degenerate cell {int(idx)}: repeated vertex index")
    vols = mesh.cell_volumes()
    for idx in np.nonzero(vols <= 0)[0]:
        report.append(f"degenerate cell {int(idx)}: non-positive volume {vols[idx]:.3e}")

    if mesh.n_cells and not _is_connected(mesh):
        report.append("mesh is not connected")
    return report


def _same_facets(facets, computed: np.ndarray) -> bool:
    """Whether facets list the computed (canonically sorted) boundary facets,
    in any vertex and row order."""
    try:
        facets = np.asarray(facets)
    except ValueError:  # ragged rows
        return False
    return facets.ndim == 2 and np.array_equal(
        np.unique(np.sort(facets, axis=1), axis=0), computed
    )


def _is_connected(mesh: Mesh) -> bool:
    """Connectivity of cells through shared vertices (what the stiffness kernel
    sees); vertices used by no cell do not count."""
    m = mesh.n_cells
    incidence = sp.csr_matrix(
        (np.ones(mesh.cells.size), (np.repeat(np.arange(m), mesh.dim + 1), mesh.cells.ravel())),
        shape=(m, mesh.n_vertices),
    )
    n_components, _ = connected_components(incidence @ incidence.T, directed=False)
    return n_components == 1


def save_mesh(mesh: Mesh, path) -> None:
    doc = {
        "dim": mesh.dim,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
        "boundary_facets": mesh.boundary_facets.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_mesh(path) -> Mesh:
    """Load a mesh from its JSON document.

    The boundary is recomputed from the cells; if the document carries
    ``boundary_facets`` they are cross-checked against the recomputed set.
    A file that holds no JSON object is a bad config; a document that is
    not a mesh, or any violated invariant, raises :class:`InvalidMeshError`.
    """
    doc = read_json_object(path, "mesh file")
    try:
        dim = typed(doc["dim"], int, "dim")
        vertices = typed_rows(doc["vertices"], float, "vertices")
        cells = np.asarray(typed_rows(doc["cells"], int, "cells"))
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError(f"cells must be lists of {dim + 1} integer vertex ids, "
                             f"got {doc['cells']!r:.80}")
        mesh = Mesh(dim=dim, vertices=vertices, cells=cells)
    except KeyError as exc:
        raise InvalidMeshError([f"mesh document missing key {exc}"]) from exc
    except (TypeError, ValueError) as exc:
        raise InvalidMeshError([f"mesh document is not a mesh: {exc}"]) from exc
    if "boundary_facets" in doc and not _same_facets(doc["boundary_facets"], mesh.boundary_facets):
        raise InvalidMeshError(
            ["boundary mismatch: declared boundary_facets are not the facets "
             "incident to exactly one cell"]
        )
    report = validate(mesh)
    if report:
        raise InvalidMeshError(report)
    return mesh


def mesh_from_dict(doc: dict, base_dir=".") -> Mesh:
    """The mesh of a boundary description: ``{"path": <mesh file>}``, relative
    to base_dir, ``{"builtin": "disk", "level": 4}`` or ``{"builtin":
    "interval", "n": 100, "L": 1.0}``, the values shown being the defaults."""
    try:
        if "path" in doc:
            return load_mesh(Path(base_dir) / doc["path"])
        if doc.get("builtin") == "disk":
            return generate_disk(typed(doc.get("level", 4), int, "level"))
        if doc.get("builtin") == "interval":
            return generate_interval(typed(doc.get("n", 100), int, "n"),
                                     typed(doc.get("L", 1.0), float, "L"))
    except TypeError as exc:
        raise ConfigError(f"boundary description has a mistyped value: {exc}") from exc
    raise ConfigError(f"unrecognized boundary description {doc}")
