import math
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import Delaunay

from steklovbif import generate_disk, generate_interval, load_mesh, refine_uniform, validate
from steklovbif.errors import InvalidMeshError, PreconditionError
from steklovbif.mesh import (
    Mesh,
    extract_boundary_facets,
    project_boundary_to_unit_circle,
    save_mesh,
    simplex_measure,
)


def inscribed_polygon_perimeter(n):
    return 2 * n * math.sin(math.pi / n)


class TestGenerateDisk:
    def test_level_zero_fan(self):
        mesh = generate_disk(0)
        assert mesh.n_cells == 8
        assert mesh.n_vertices == 9
        assert len(mesh.boundary_facets) == 8
        assert validate(mesh) == []

    def test_level_one_splits_in_four_and_projects(self):
        mesh = generate_disk(1)
        assert mesh.n_cells == 32
        radii = np.linalg.norm(mesh.vertices[mesh.boundary_vertex_ids], axis=1)
        assert np.allclose(radii, 1.0, atol=1e-15)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_perimeter_is_inscribed_polygon(self, level):
        mesh = generate_disk(level)
        n_edges = 8 * 2**level
        assert mesh.boundary_measure() == pytest.approx(
            inscribed_polygon_perimeter(n_edges), rel=1e-13
        )

    def test_perimeter_converges_to_circle(self):
        mesh = generate_disk(4)
        assert abs(mesh.boundary_measure() - 2 * math.pi) / (2 * math.pi) < 0.005

    def test_negative_level_rejected(self):
        with pytest.raises(PreconditionError):
            generate_disk(-1)


def _row_sorted_boundary(cells, dim):
    """Boundary facets by a row-wise unique over all sorted facets: the
    reference for the keyed extraction."""
    facets = np.sort(np.concatenate([np.delete(cells, d, axis=1) for d in range(dim + 1)]), axis=1)
    unique, counts = np.unique(facets.reshape(-1, dim), axis=0, return_counts=True)
    return unique[counts == 1]


class TestBoundaryFacets:
    @pytest.mark.parametrize("level", range(7))
    def test_disk_boundary_equals_row_sorted_reference(self, level):
        # projection passes the refined mesh's boundary through; both must be
        # the row-sorted extraction of the final cells, bit for bit
        mesh = generate_disk(level)
        reference = _row_sorted_boundary(mesh.cells, 2)
        assert mesh.boundary_facets.dtype == reference.dtype
        assert np.array_equal(mesh.boundary_facets, reference)
        assert np.array_equal(mesh.boundary_vertex_ids, np.unique(reference))

    def test_unordered_and_higher_dimensional_cells(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(size=(40, 2))
        cells = rng.permutation(Delaunay(points).simplices, axis=1)
        tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        for c, dim in ((cells, 2), (tets, 3), (np.array([[0, 1], [1, 2]]), 1)):
            got = extract_boundary_facets(c, dim)
            assert np.array_equal(got, _row_sorted_boundary(c, dim))

    def test_mesh_derives_its_boundary_from_its_cells(self):
        # a mesh holds no boundary of its own; its facet measures are the
        # Gram-determinant measures of each facet
        tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        mesh = Mesh(dim=3, vertices=np.random.default_rng(3).uniform(size=(5, 3)), cells=tets)
        facets = extract_boundary_facets(tets, 3)
        assert np.array_equal(mesh.boundary_facets, facets)
        assert np.array_equal(mesh.boundary_vertex_ids, np.unique(facets))
        measures = [simplex_measure(mesh.vertices[f]) for f in facets]
        assert np.array_equal(mesh.facet_measures(), measures)

    def test_key_overflow_rejected(self):
        with pytest.raises(PreconditionError, match="overflow"):
            extract_boundary_facets(np.array([[0, 1, 2, 3_000_000]]), 3)


class TestGenerateInterval:
    def test_single_cell(self):
        mesh = generate_interval(1, 1.0)
        assert mesh.n_vertices == 2
        assert mesh.n_cells == 1
        assert len(mesh.boundary_vertex_ids) == 2
        assert validate(mesh) == []

    def test_spacing(self):
        mesh = generate_interval(4, 2.0)
        assert mesh.n_vertices == 5
        assert np.allclose(np.diff(mesh.vertices[:, 0]), 0.5)

    @pytest.mark.parametrize("n,L", [(1, 1.0), (7, 3.5), (100, 0.25)])
    def test_partition_identity(self, n, L):
        mesh = generate_interval(n, L)
        assert mesh.interior_measure() == pytest.approx(L, abs=1e-14)

    def test_endpoint_counting_measure(self):
        mesh = generate_interval(5, 2.0)
        assert mesh.boundary_measure() == 2.0

    @pytest.mark.parametrize("n,L", [(0, 1.0), (3, 0.0), (3, -1.0), (3, float("nan")),
                                     (3, float("inf"))])
    def test_bad_arguments_rejected(self, n, L):
        with pytest.raises(PreconditionError):
            generate_interval(n, L)


class TestRefineUniform:
    def test_triangle_splits_in_four(self):
        mesh = Mesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0, 1, 2]])
        fine = refine_uniform(mesh)
        assert fine.n_cells == 4
        assert validate(fine) == []
        assert fine.interior_measure() == pytest.approx(mesh.interior_measure(), rel=1e-14)

    def test_midpoints_numbered_by_first_occurrence(self):
        # new vertices follow the cell-major (m01, m12, m02) edge order
        mesh = Mesh(dim=2, vertices=[[0, 0], [2, 0], [0, 2]], cells=[[0, 1, 2]])
        fine = refine_uniform(mesh)
        assert fine.vertices[3:].tolist() == [[1, 0], [1, 1], [0, 1]]
        assert fine.cells.tolist() == [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]

    def test_interval_doubles_cells(self):
        fine = refine_uniform(generate_interval(5, 1.0))
        assert fine.n_cells == 10
        assert fine.boundary_measure() == 2.0
        assert validate(fine) == []

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_projected_refinement_matches_generator(self, level):
        refined = project_boundary_to_unit_circle(refine_uniform(generate_disk(level)))
        target = generate_disk(level + 1)
        assert refined.boundary_measure() == pytest.approx(
            target.boundary_measure(), abs=1e-12
        )
        assert refined.interior_measure() == pytest.approx(
            target.interior_measure(), abs=1e-12
        )

    def test_refinement_preserves_interior_measure(self):
        mesh = generate_disk(2)
        assert refine_uniform(mesh).interior_measure() == pytest.approx(
            mesh.interior_measure(), rel=1e-14
        )

    def test_disk_boundary_measure_nondecreasing(self):
        measures = [generate_disk(level).boundary_measure() for level in range(4)]
        assert all(b > a for a, b in zip(measures, measures[1:]))
        assert measures[-1] < 2 * math.pi


class TestValidate:
    def test_valid_disk_empty_report(self):
        assert validate(generate_disk(1)) == []

    def test_repeated_vertex_reported(self):
        mesh = Mesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0, 1, 1]])
        report = validate(mesh)
        assert any("degenerate cell" in line for line in report)
        mesh = Mesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0, 1, 2], [2, 0, 2]])
        assert "degenerate cell 1: repeated vertex index" in validate(mesh)

    def test_negative_orientation_reported(self):
        mesh = Mesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0, 2, 1]])
        report = validate(mesh)
        assert any("non-positive volume" in line for line in report)

    def test_disconnected_reported(self):
        mesh = Mesh(
            dim=1,
            vertices=[[0.0], [1.0], [2.0], [3.0]],
            cells=[[0, 1], [2, 3]],
        )
        assert any("not connected" in line for line in validate(mesh))

    def test_boundary_ids_sorted_and_deterministic(self):
        mesh = generate_disk(2)
        ids = mesh.boundary_vertex_ids
        assert np.array_equal(ids, np.sort(ids))
        again = generate_disk(2)
        assert np.array_equal(ids, again.boundary_vertex_ids)


class TestFuzzTopology:
    def test_delaunay_boundary_is_convex_hull(self, fuzz_meshes):
        mesh, _ = fuzz_meshes["delaunay"]
        hull = np.sort(Delaunay(mesh.vertices).convex_hull, axis=1)
        assert mesh.boundary_facets.tolist() == sorted(hull.tolist())

    @pytest.mark.parametrize("name", ["jittered", "delaunay"])
    def test_refinement_adds_one_vertex_per_edge(self, fuzz_meshes, name):
        mesh, _ = fuzz_meshes[name]
        edges = {tuple(sorted(e)) for cell in mesh.cells.tolist() for e in combinations(cell, 2)}
        fine = refine_uniform(mesh)
        assert fine.n_vertices == mesh.n_vertices + len(edges)
        assert validate(fine) == []
        assert fine.interior_measure() == pytest.approx(mesh.interior_measure(), rel=1e-14)

    def test_unused_vertex_does_not_disconnect(self):
        mesh = Mesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1], [5, 5]], cells=[[0, 1, 2]])
        assert validate(mesh) == []


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = generate_disk(1)
        path = tmp_path / "disk.json"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        assert loaded.dim == mesh.dim
        assert np.allclose(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.cells, mesh.cells)
        assert np.array_equal(loaded.boundary_vertex_ids, mesh.boundary_vertex_ids)

    def test_reversed_and_shuffled_facets_load(self, tmp_path):
        import json

        mesh = generate_disk(1)
        declared = mesh.boundary_facets[:, ::-1][np.random.default_rng(3).permutation(16)]
        doc = {
            "dim": 2,
            "vertices": mesh.vertices.tolist(),
            "cells": mesh.cells.tolist(),
            "boundary_facets": declared.tolist(),
        }
        path = tmp_path / "shuffled.json"
        path.write_text(json.dumps(doc))
        assert np.array_equal(load_mesh(path).boundary_facets, mesh.boundary_facets)

    def test_boundary_cross_check(self, tmp_path):
        import json

        mesh = generate_interval(3, 1.0)
        doc = {
            "dim": 1,
            "vertices": mesh.vertices.tolist(),
            "cells": mesh.cells.tolist(),
            "boundary_facets": [[0], [1]],  # vertex 1 is interior
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidMeshError, match="boundary mismatch"):
            load_mesh(path)

    def test_invalid_mesh_rejected(self, tmp_path):
        import json

        doc = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, 1]]}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidMeshError):
            load_mesh(path)
