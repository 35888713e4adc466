import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import delaunay_disks
from hypothesis import given, settings
from scipy.sparse.csgraph import reverse_cuthill_mckee

from steklovbif import (assemble, fem, generate_disk, generate_interval, scale_metric_forms,
                        steklov_spectrum)
from steklovbif.errors import AssemblyError, PreconditionError
from steklovbif.fem import FactorInput
from steklovbif.mesh import Mesh, simplex_measure


def per_cell_forms(mesh):
    """Dense K, M, B assembled one cell and one facet at a time: the
    reference for the batched assembly."""
    d, n = mesh.dim, mesh.n_vertices
    K, M, B = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for cell in mesh.cells:
        T = (mesh.vertices[cell[1:]] - mesh.vertices[cell[0]]).T
        vol = np.linalg.det(T) / math.factorial(d)
        grads = np.vstack([np.zeros(d), np.linalg.inv(T)])
        grads[0] = -grads[1:].sum(axis=0)
        K[np.ix_(cell, cell)] += vol * grads @ grads.T
        M[np.ix_(cell, cell)] += vol * (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    for facet in mesh.boundary_facets:
        measure = 1.0 if d == 1 else simplex_measure(mesh.vertices[facet])
        B[np.ix_(facet, facet)] += measure * (np.ones((d, d)) + np.eye(d)) / (d * (d + 1))
    return K, M, B


def interior_graph(forms):
    """The pattern of A_ii with unit entries, sliced from the summed forms."""
    inner = forms.interior_dofs
    graph = (abs(forms.K) + abs(forms.M) + abs(forms.B)).tocsc()[inner][:, inner].tocsr()
    graph.data[:] = 1.0
    return graph


class TestElementMatrices:
    def test_unit_right_triangle_stiffness(self):
        mesh = Mesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0, 1, 2]])
        K = assemble(mesh).K.toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_unit_interval_forms(self):
        forms = assemble(generate_interval(1, 1.0))
        assert np.allclose(forms.K.toarray(), [[1, -1], [-1, 1]], atol=1e-15)
        assert np.allclose(
            forms.M.toarray(), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15
        )
        assert np.allclose(forms.B.toarray(), np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("builder", [lambda: generate_disk(2), lambda: generate_interval(37, 2.5)])
    def test_partition_of_unity(self, builder):
        mesh = builder()
        forms = assemble(mesh)
        ones = np.ones(mesh.n_vertices)
        assert ones @ (forms.M @ ones) == pytest.approx(mesh.interior_measure(), abs=1e-12)
        assert ones @ (forms.B @ ones) == pytest.approx(mesh.boundary_measure(), abs=1e-12)
        assert np.abs(forms.K @ ones).max() < 1e-12

    def test_degenerate_cell_aborts_naming_cell(self):
        mesh = Mesh(
            dim=2,
            vertices=[[0, 0], [1, 0], [0, 1], [1, 1]],
            cells=np.array([[0, 1, 2], [1, 3, 2]]),
        )
        squashed = mesh.vertices.copy()
        squashed[3] = squashed[1]  # second triangle collapses
        bad = Mesh(dim=2, vertices=squashed, cells=mesh.cells)
        with pytest.raises(AssemblyError, match="cell 1"):
            assemble(bad)


class TestFormProperties:
    def test_spd_structure(self, disk):
        _, forms = disk(2)
        K, M, B = forms.K.toarray(), forms.M.toarray(), forms.B.toarray()
        wk = np.linalg.eigvalsh(K)
        assert wk[0] > -1e-12 and wk[1] > 1e-12  # PSD, kernel exactly the constants
        assert np.linalg.eigvalsh(M)[0] > 0
        wb = np.linalg.eigvalsh(B)
        assert np.sum(wb > 1e-14) == len(forms.boundary_dofs)

    def test_galerkin_consistency_linear_function(self):
        # phi(x) = x is reproduced exactly by P1: both quotients are continuum values
        L = 2.0
        mesh = generate_interval(20, L)
        forms = assemble(mesh)
        phi = mesh.vertices[:, 0]
        dirichlet = phi @ (forms.K @ phi)
        mass = phi @ (forms.M @ phi)
        boundary = phi @ (forms.B @ phi)
        assert dirichlet == pytest.approx(L, rel=1e-13)
        assert mass == pytest.approx(L**3 / 3, rel=1e-13)
        assert boundary == pytest.approx(L**2, rel=1e-13)

    @staticmethod
    def _case(case, disk, interval, fuzz_meshes):
        builders = {"disk1": lambda: disk(1), "interval": lambda: interval(37, 2.5)}
        return builders[case]() if case in builders else fuzz_meshes[case]

    @pytest.mark.parametrize("case", ["disk1", "interval", "jittered", "delaunay"])
    def test_canonical_and_exactly_symmetric(self, case, disk, interval, fuzz_meshes):
        _, forms = self._case(case, disk, interval, fuzz_meshes)
        for mat in (forms.K, forms.M, forms.B):
            assert mat.has_canonical_format
            assert (mat != mat.T).nnz == 0

    @pytest.mark.parametrize("case", ["disk1", "interval", "jittered", "delaunay"])
    def test_stiffness_and_mass_share_one_pattern(self, case, disk, interval, fuzz_meshes):
        # K and M come from the same cells: one canonical pattern, kept by a
        # homothety and by a negated K
        _, forms = self._case(case, disk, interval, fuzz_meshes)
        negated = fem.AssembledForms(-forms.K, forms.M, forms.B, forms.boundary_dofs,
                                     forms.vertices)
        for f in (forms, scale_metric_forms(forms, 2.5, 3), negated):
            assert f.K.has_canonical_format and f.M.has_canonical_format
            assert np.array_equal(f.K.indptr, f.M.indptr)
            assert np.array_equal(f.K.indices, f.M.indices)

    @pytest.mark.parametrize("case", ["disk1", "interval", "jittered", "delaunay"])
    def test_matches_per_cell_reference(self, case, disk, interval, fuzz_meshes):
        # the reference sums in another order, so agreement is to rounding
        mesh, forms = self._case(case, disk, interval, fuzz_meshes)
        for mat, ref in zip((forms.K, forms.M, forms.B), per_cell_forms(mesh)):
            assert np.abs(mat.toarray() - ref).max() <= 16 * np.finfo(float).eps * np.abs(ref).max()


class TestFactorInput:
    @staticmethod
    def _forms(case, disk, interval, fuzz_meshes):
        if case.startswith("disk"):
            return disk(int(case[4:]))[1]
        if case.startswith("interval"):
            return interval(int(case[8:]), 1.0)[1]
        return fuzz_meshes[case][1]

    @pytest.mark.parametrize("case", [f"disk{level}" for level in range(6)]
                             + ["interval50", "interval1000", "jittered", "delaunay"])
    def test_order_is_that_of_a_full_factorization(self, case, disk, interval, fuzz_meshes):
        # the interior dofs take the reverse Cuthill-McKee order of their block
        forms = self._forms(case, disk, interval, fuzz_meshes)
        total = (abs(forms.K) + abs(forms.M) + abs(forms.B)).tocsc()
        fi = forms.factor_input
        inner = forms.interior_dofs
        rcm = reverse_cuthill_mckee(total[inner][:, inner].tocsr(), symmetric_mode=True)
        assert np.array_equal(fi.interior_order, inner[rcm])

    @pytest.mark.parametrize("case", ["disk3", "interval50", "jittered", "delaunay"])
    def test_dense_blocks_hold_the_assembled_pencil(self, case, disk, interval, fuzz_meshes):
        # A_ib, the upper band of A_ii and A_bb, in Fortran order, scattered
        # from the cached positions
        forms = self._forms(case, disk, interval, fuzz_meshes)
        fi, c = forms.factor_input, 2.5
        A = (forms.K + c * forms.M).tocsr()
        inner, bnd = fi.interior_order, forms.boundary_dofs
        A_ib, band = fi.coupling.pencil(c), fi.interior.pencil(c)
        assert A_ib.flags.f_contiguous and band.flags.f_contiguous
        assert np.array_equal(A_ib, A[inner][:, bnd].toarray())
        A_ii, bw = A[inner][:, inner].toarray(), band.shape[0] - 1
        assert np.array_equal(A_ii, np.triu(A_ii, -bw)) and np.array_equal(A_ii, np.tril(A_ii, bw))
        for d in range(bw + 1):
            assert np.array_equal(band[bw - d, d:], np.diagonal(A_ii, d))
        A_bb = fi.boundary(c)
        assert A_bb.flags.f_contiguous
        assert np.array_equal(A_bb, A[bnd][:, bnd].toarray())

    @pytest.mark.parametrize("case", ["disk3", "interval50", "jittered", "delaunay"])
    def test_reads_the_values_in_place(self, case, disk, interval, fuzz_meshes):
        forms = self._forms(case, disk, interval, fuzz_meshes)
        fi = FactorInput(forms.K, forms.M, forms.B, forms.boundary_dofs, forms.vertices)
        assert np.shares_memory(fi._K, forms.K.data) and np.shares_memory(fi._M, forms.M.data)

    def test_stiffness_and_mass_must_share_one_canonical_pattern(self, disk):
        # an M with one entry fewer than K, and a K and M whose rows list
        # their columns in descending order
        forms = disk(2)[1]
        K, M, B, bnd = forms.K, forms.M.copy(), forms.B, forms.boundary_dofs
        M.data[1] = 0.0
        M.eliminate_zeros()
        descending = np.concatenate([np.arange(a, b)[::-1]
                                     for a, b in zip(K.indptr[:-1], K.indptr[1:])])
        K_desc, M_desc = (sp.csr_matrix((X.data[descending], X.indices[descending], X.indptr),
                                        shape=X.shape) for X in (K, forms.M))
        assert not K_desc.has_canonical_format
        for k, m in ((K, M), (K_desc, M_desc)):
            with pytest.raises(PreconditionError, match="one canonical CSR pattern"):
                FactorInput(k, m, B, bnd, forms.vertices)

    def test_vertices_must_have_one_row_per_dof(self, disk):
        # the tree bisects the interior by its coordinates
        forms = disk(2)[1]
        K, M, B, bnd, x = forms.K, forms.M, forms.B, forms.boundary_dofs, forms.vertices
        for wrong in (x[:-1], x[:, 0], np.vstack([x, x[:1]])):
            with pytest.raises(PreconditionError, match="one vertex row per dof"):
                FactorInput(K, M, B, bnd, wrong)

    @pytest.mark.parametrize("case", ["disk3", "interval50", "jittered", "delaunay"])
    def test_orders_build_without_warnings(self, case, disk, interval, fuzz_meshes):
        forms = self._forms(case, disk, interval, fuzz_meshes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fi = FactorInput(forms.K, forms.M, forms.B, forms.boundary_dofs, forms.vertices)
            fi.interior, fi.fronts


def assert_separator_tree(graph, points, leaf):
    """The contract of ``fem.nested_dissection``: (order, start, children)
    is a separator tree of ``graph`` in postorder whose subtrees halve, with
    leaves of at most ``leaf`` vertices, the same for the same input."""
    with mock.patch.object(fem, "DISSECTION_LEAF", leaf):
        order, start, children = fem.nested_dissection(graph, points)
        again = fem.nested_dissection(graph, points)
    assert np.array_equal(again[0], order) and np.array_equal(again[1], start)
    assert again[2] == children
    n, m = graph.shape[0], len(children)
    assert np.array_equal(np.sort(order), np.arange(n))
    assert start[0] == 0 and start[-1] == n and np.all(np.diff(start) > 0)
    # children come before their parent, each non-root has one parent, and
    # every subtree is a run of the postorder that ends at its root
    parent, lowest, size = np.full(m, -1), np.arange(m), np.diff(start)
    for k, kids in enumerate(children):
        for j in kids:
            assert j < k and parent[j] == -1
            parent[j] = k
            lowest[k] = min(lowest[k], lowest[j])
            size[k] += size[j]
        if kids:
            assert all(size[j] <= math.ceil(size[k] / 2) for j in kids)
        else:  # a leaf, in its own numbering
            verts = order[start[k]:start[k + 1]]
            assert size[k] <= leaf and np.all(np.diff(verts) > 0)
    assert np.flatnonzero(parent < 0).tolist() == [m - 1]  # one tree
    nodes = np.ones(m, dtype=np.int64)
    for k, kids in enumerate(children):
        nodes[k] += sum(nodes[j] for j in kids)
    assert np.array_equal(nodes, np.arange(m) - lowest + 1)
    # no edge joins two sibling subtrees: one end's node is in the other's subtree
    node = np.empty(n, dtype=np.int64)
    node[order] = np.repeat(np.arange(m), np.diff(start))
    edges = graph.tocoo()
    a, b = node[edges.row], node[edges.col]
    assert np.all(lowest[np.maximum(a, b)] <= np.minimum(a, b))
    return order


class TestNestedDissection:
    """Coordinate bisection builds a separator tree, in postorder, whose
    subtrees halve: the contract that ``FactorInput``'s fronts rely on."""

    @pytest.mark.parametrize("leaf", [4, 16, fem.DISSECTION_LEAF])
    @pytest.mark.parametrize("case", [f"disk{level}" for level in range(7)]
                             + ["interval1000", "jittered", "delaunay"])
    def test_separator_tree(self, case, leaf, disk, interval, fuzz_meshes):
        forms = TestFactorInput._forms(case, disk, interval, fuzz_meshes)
        inner = forms.interior_dofs
        order = assert_separator_tree(interior_graph(forms), forms.vertices[inner], leaf)
        with mock.patch.object(fem, "DISSECTION_LEAF", leaf):
            fi = FactorInput(forms.K, forms.M, forms.B, forms.boundary_dofs, forms.vertices)
            assert np.array_equal(fi.elimination, np.r_[inner[order], forms.boundary_dofs])

    @pytest.mark.parametrize("leaf", [4, 16])
    @settings(max_examples=20)
    @given(mesh=delaunay_disks())
    def test_delaunay_separator_trees(self, leaf, mesh):
        # small leaves: deep trees on meshes without symmetry
        forms = assemble(mesh)
        assert_separator_tree(interior_graph(forms), mesh.vertices[forms.interior_dofs], leaf)


class TestScaleMetricForms:
    def test_identity_at_t_one(self, disk):
        _, forms = disk(1)
        scaled = scale_metric_forms(forms, 1.0, 2)
        for a, b in [(scaled.K, forms.K), (scaled.M, forms.M), (scaled.B, forms.B)]:
            assert np.array_equal(a.data, b.data)

    def test_surface_exponents(self, disk):
        # m = 2: Dirichlet form invariant, boundary measure doubles at t = 4
        _, forms = disk(1)
        scaled = scale_metric_forms(forms, 4.0, 2)
        assert np.allclose(scaled.K.data, forms.K.data)
        assert np.allclose(scaled.B.data, 2.0 * forms.B.data)
        assert np.allclose(scaled.M.data, 4.0 * forms.M.data)

    @pytest.mark.parametrize("t", [0.25, 2.0, 9.0])
    def test_spectrum_scales_by_inverse_sqrt(self, disk, t):
        _, forms = disk(2)
        base = steklov_spectrum(forms, 5).eigenvalues
        scaled = steklov_spectrum(scale_metric_forms(forms, t, 2), 5).eigenvalues
        assert np.abs(scaled - base / np.sqrt(t)).max() < 1e-10

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_nonpositive_t_rejected(self, disk, t):
        # a NaN factor would give forms of NaNs, an infinite one infinite forms
        _, forms = disk(0)
        with pytest.raises(PreconditionError):
            scale_metric_forms(forms, t, 2)

