import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklovbif import (
    assemble,
    generate_disk,
    generate_interval,
    oracle,
    robin_steklov_spectrum,
    scale_metric_forms,
    solve_dense_gevp,
    spectral,
    steklov_spectrum,
    trace_eigencurves,
)
from steklovbif.errors import EigensolverError, PreconditionError
from steklovbif.spectral import (
    count_below,
    curves_to_csv,
    harmonic_extension,
    load_curves_csv,
    load_slice_csv,
    slice_to_csv,
)


class TestSteklovSpectrum:
    def test_interval_spectrum(self, interval):
        _, forms = interval(500, 2.0)
        vals = steklov_spectrum(forms, 2).eigenvalues
        assert abs(vals[0]) < 1e-9
        assert vals[1] == pytest.approx(2.0 / 2.0, rel=1e-6)

    def test_single_cell_interval_has_no_interior(self, interval):
        # both dofs sit on the boundary; P1 reproduces {0, 2/L} exactly
        _, forms = interval(1, 2.0)
        assert len(forms.interior_dofs) == 0
        vals = steklov_spectrum(forms, 2).eigenvalues
        assert np.allclose(vals, [0.0, 1.0], atol=1e-14)

    def test_disk_spectrum(self, disk):
        _, forms = disk(4)
        vals = steklov_spectrum(forms, 7).eigenvalues
        exact = [0, 1, 1, 2, 2, 3, 3]
        for got, want in zip(vals[1:], exact[1:]):
            assert abs(got - want) / want < 0.02

    def test_zero_mode_is_constant(self, disk):
        _, forms = disk(2)
        sl = steklov_spectrum(forms, 3)
        assert abs(sl.eigenvalues[0]) < 1e-9
        v0 = sl.eigenvectors[:, 0]
        assert np.abs(v0 - v0.mean()).max() < 1e-8 * abs(v0.mean())

    def test_homothety_covariance(self, disk):
        _, forms = disk(2)
        base = steklov_spectrum(forms, 6).eigenvalues
        for t in [0.25, 2.0, 9.0]:
            scaled = steklov_spectrum(scale_metric_forms(forms, t, 2), 6).eigenvalues
            assert np.abs(scaled - base / np.sqrt(t)).max() < 1e-10


class TestRobinSteklovSpectrum:
    def test_disk_first_eigenvalue_at_c_one(self, disk):
        _, forms = disk(4)
        val = robin_steklov_spectrum(forms, 1.0, 1).eigenvalues[0]
        assert val == pytest.approx(0.4463899658965345, rel=2e-3)

    def test_matches_disk_oracle(self, disk):
        _, forms = disk(4)
        for c in [0.5, 4.0]:
            got = robin_steklov_spectrum(forms, c, 5).eigenvalues
            want = oracle.disk_spectrum(c, 5)
            assert np.abs(got - np.array(want)).max() / min(want) < 0.02

    def test_b_orthonormality(self, disk):
        _, forms = disk(2)
        sl = robin_steklov_spectrum(forms, 1.0, 5)
        bnd = forms.boundary_dofs
        B_bb = forms.B[np.ix_(bnd, bnd)].toarray()
        gram = sl.eigenvectors.T @ B_bb @ sl.eigenvectors
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_b_orthonormality_on_shift_invert_path(self, disk, monkeypatch):
        _, forms = disk(3)
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        for c, k in [(0.0, 1), (1.0, 5), (4.0, 8)]:
            v = robin_steklov_spectrum(forms, c, k).eigenvectors
            gram = v.T @ forms.factor_input.B_bb @ v
            assert np.abs(gram - np.eye(k)).max() < 1e-10

    def test_monotone_in_bulk_coefficient(self, disk):
        _, forms = disk(2)
        cs = [0.0, 0.5, 1.0, 2.0, 4.0]
        slices = [robin_steklov_spectrum(forms, c, 6).eigenvalues for c in cs]
        for lo, hi in zip(slices, slices[1:]):
            assert np.all(hi >= lo - 1e-12)
            assert hi[0] > lo[0]

    def test_preconditions(self, disk):
        _, forms = disk(0)
        with pytest.raises(PreconditionError):
            robin_steklov_spectrum(forms, -1.0, 2)
        with pytest.raises(PreconditionError):
            robin_steklov_spectrum(forms, 0.0, 9)  # only 8 boundary dofs

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_shift_invert_path_matches_dense(self, disk, c, monkeypatch):
        _, forms = disk(2)
        dense = robin_steklov_spectrum(forms, c, 5).eigenvalues
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        iterative = robin_steklov_spectrum(forms, c, 5).eigenvalues
        assert np.abs(dense - iterative).max() < 1e-9


class TestShiftInvert:
    @pytest.fixture(params=["disk5", "jittered", "delaunay"])
    def forms(self, request, disk, fuzz_meshes):
        if request.param == "disk5":
            return disk(5)[1]
        return fuzz_meshes[request.param][1]

    @pytest.mark.parametrize("c", [0.3, 3.0])
    def test_matches_dense(self, forms, c, monkeypatch):
        # the disk's values come in exact pairs (1, 2), (3, 4), ...: k = 2, 4
        # and 8 end inside a pair, k = 1 and 3 after one
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 10**9)
        dense = robin_steklov_spectrum(forms, c, 8).eigenvalues
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        for k in (1, 2, 3, 4, 8):
            got = robin_steklov_spectrum(forms, c, k).eigenvalues
            assert np.all(np.abs(got - dense[:k]) <= 1e-10 * np.abs(dense[:k]))

    def test_repeat_calls_are_bit_identical(self, disk):
        _, forms = disk(5)
        assert len(forms.boundary_dofs) > spectral.DENSE_LIMIT
        first = robin_steklov_spectrum(forms, 3.0, 4).eigenvalues
        second = robin_steklov_spectrum(forms, 3.0, 4).eigenvalues
        assert first.tobytes() == second.tobytes()

    def test_missing_copy_of_double_eigenvalue_raises(self, disk, monkeypatch):
        # valid pairs, so the residual check passes; only the count sees that
        # one copy of rho_1 = rho_2 is gone and rho_3 took its place
        _, forms = disk(3)
        eigsh = spectral.spla.eigsh

        def dropping(*args, k, **kwargs):
            w, v = eigsh(*args, k=k + 1, **kwargs)
            keep = np.delete(np.argsort(w), 1)
            return w[keep], v[:, keep]

        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        full = robin_steklov_spectrum(forms, 0.3, 4).eigenvalues
        assert full[2] - full[1] < 1e-10 * full[1] and full[3] - full[2] > 0.1
        monkeypatch.setattr(spectral.spla, "eigsh", dropping)
        with pytest.raises(EigensolverError, match="missed eigenvalues"):
            robin_steklov_spectrum(forms, 0.3, 3)


class TestResidualChecks:
    def test_dense_path_rejects_wrong_pairs(self, disk, monkeypatch):
        _, forms = disk(2)
        dense_gevp = spectral._dense_gevp

        def shifted(a, b, k):
            w, v = dense_gevp(a, b, k)
            return w + 1e-6, v

        monkeypatch.setattr(spectral, "_dense_gevp", shifted)
        with pytest.raises(EigensolverError, match="dense eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)

    @staticmethod
    def _fault_after_rayleigh_ritz(monkeypatch, fault):
        # Rayleigh-Ritz is the shift-invert slice's only dense solve
        dense_gevp = spectral._dense_gevp
        monkeypatch.setattr(spectral, "_dense_gevp", lambda a, b, k: fault(*dense_gevp(a, b, k)))
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)

    def test_shift_invert_path_rejects_wrong_pairs(self, disk, monkeypatch):
        _, forms = disk(2)
        self._fault_after_rayleigh_ritz(monkeypatch, lambda w, v: (w, np.roll(v, 1, axis=1)))
        with pytest.raises(EigensolverError, match="shift-invert eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)

    def test_shift_invert_path_rejects_shifted_values(self, disk, monkeypatch):
        _, forms = disk(2)
        self._fault_after_rayleigh_ritz(monkeypatch, lambda w, v: (w + 1e-6, v))
        with pytest.raises(EigensolverError, match="shift-invert eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)

    def test_shift_invert_path_rejects_non_harmonic_interior(self, disk, monkeypatch):
        # solves off by 1e-6 on the dofs with no boundary neighbour: the
        # boundary rows of A X and the returned traces are untouched, only
        # the residual over every row sees that X is not harmonic
        _, forms = disk(2)
        fi = forms.factor_input
        boundary = np.zeros(forms.n)
        boundary[fi.boundary_positions] = 1.0
        interior = abs(fi.full.pencil(1.0)) @ boundary == 0
        factor = spectral._factor

        class OffInterior:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, b):
                x = self.lu.solve(b)
                x[interior] *= 1 + 1e-6
                return x

        monkeypatch.setattr(spectral, "_factor", lambda a: OffInterior(factor(a)))
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        with pytest.raises(EigensolverError, match="shift-invert eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)

    def test_rotated_arpack_vectors_come_back_as_ordered_pairs(self, disk, monkeypatch):
        # Rayleigh-Ritz needs only the span of ARPACK's vectors, not their
        # order or its values
        _, forms = disk(2)
        dense = robin_steklov_spectrum(forms, 1.0, 5).eigenvalues
        eigsh = spectral.spla.eigsh

        def rotated(*args, **kwargs):
            w, v = eigsh(*args, **kwargs)
            return w[::-1], np.roll(v, 1, axis=1)

        monkeypatch.setattr(spectral.spla, "eigsh", rotated)
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        sl = robin_steklov_spectrum(forms, 1.0, 5)
        assert np.all(np.diff(sl.eigenvalues) >= 0)
        assert np.all(np.abs(sl.eigenvalues - dense) <= 1e-10 * np.abs(dense))
        fi = forms.factor_input
        residual = spectral._schur_complement(fi, 1.0, fi.boundary(1.0)) @ sl.eigenvectors
        residual -= fi.B_bb @ sl.eigenvectors * sl.eigenvalues
        assert np.abs(residual).max() < 1e-9


def _eigen_count(forms, c, lam):
    """Eigenvalues below lam by a full dense solve; None when lam sits too
    close to one for either count to be well defined."""
    vals = robin_steklov_spectrum(forms, c, len(forms.boundary_dofs)).eigenvalues
    if np.min(np.abs(vals - lam)) <= 1e-9 * max(1.0, abs(lam)):
        return None
    return int(np.sum(vals < lam))


class TestCountBelow:
    @pytest.mark.parametrize("name", ["jittered", "delaunay"])
    @settings(max_examples=40, deadline=None, database=None)
    @given(c=st.floats(0.0, 50.0), lam=st.floats(-1.0, 20.0))
    def test_equals_eigen_count(self, fuzz_meshes, name, c, lam):
        _, forms = fuzz_meshes[name]
        expected = _eigen_count(forms, c, lam)
        assume(expected is not None)
        assert count_below(forms, c, lam) == expected

    def test_disk_counts(self, disk):
        _, forms = disk(4)
        # Steklov spectrum of the disk: 0, 1, 1, 2, 2, ... (within 2%)
        assert [count_below(forms, 0.0, lam) for lam in (0.5, 1.5, 2.5)] == [1, 3, 5]
        assert count_below(forms, 1.0, 0.3) == 0

    @pytest.fixture
    def ldl_calls(self, monkeypatch):
        calls = []
        ldl = spectral.la.ldl
        monkeypatch.setattr(spectral.la, "ldl", lambda a: calls.append(a) or ldl(a))
        return calls

    def test_zero_pivot_falls_back_to_ldl(self, interval, ldl_calls):
        # the endpoint is eliminated first, and lam = K_00 / B_00 makes its
        # diagonal entry vanish: SuperLU must leave the diagonal
        _, forms = interval(50, 1.0)
        K, B = forms.K, forms.B
        lam = K[0, 0] / B[0, 0]
        assert count_below(forms, 0.0, lam) == _eigen_count(forms, 0.0, lam)
        assert len(ldl_calls) == 1

    def test_tiny_pivot_falls_back_to_ldl(self, fuzz_meshes, ldl_calls):
        # lam on an eigenvalue: A - lam B is singular up to rounding
        _, forms = fuzz_meshes["jittered"]
        for j in (1, 3):
            lam = robin_steklov_spectrum(forms, 2.0, j + 1).eigenvalues[j]
            assert count_below(forms, 2.0, lam) in (j, j + 1)
        assert len(ldl_calls) == 2

    def test_row_pivoting_falls_back_to_ldl(self, fuzz_meshes, ldl_calls, monkeypatch):
        # a factorization that left the diagonal says nothing about inertia
        _, forms = fuzz_meshes["jittered"]
        forms.factor_input  # the cached order's own factorization stays intact
        splu = spectral.spla.splu

        class RowPivoted:
            def __init__(self, lu):
                self.U, self.perm_c, self.perm_r = lu.U, lu.perm_c, lu.perm_c[::-1]

        def pivoting(a, **kwargs):
            # only the count factors a full-size matrix; the dense fallback
            # and the eigen count factor the interior block
            lu = splu(a, **kwargs)
            return RowPivoted(lu) if a.shape[0] == forms.n else lu

        monkeypatch.setattr(spectral.spla, "splu", pivoting)
        assert count_below(forms, 3.0, 1.7) == _eigen_count(forms, 3.0, 1.7)
        assert len(ldl_calls) == 1

    def test_superlu_failure_falls_back_to_ldl(self, fuzz_meshes, monkeypatch):
        _, forms = fuzz_meshes["jittered"]
        forms.factor_input  # the cached order's own factorization stays intact
        splu = spectral.spla.splu

        def failing(a, **kwargs):
            if a.shape[0] == forms.n:  # the count's factorization, as above
                raise RuntimeError("Factor is exactly singular")
            return splu(a, **kwargs)

        monkeypatch.setattr(spectral.spla, "splu", failing)
        for c, lam in [(0.0, 0.5), (0.0, 2.5), (3.0, 1.7), (20.0, 6.0)]:
            assert count_below(forms, c, lam) == _eigen_count(forms, c, lam)

    def test_negative_coefficient_rejected(self, disk):
        _, forms = disk(0)
        with pytest.raises(PreconditionError):
            count_below(forms, -1.0, 1.0)


class TestFactorizationBudget:
    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        splu = spectral.spla.splu

        def counted(a, **kwargs):
            lu = splu(a, **kwargs)
            calls.append((a.shape[0], lu))
            return lu

        monkeypatch.setattr(spectral.spla, "splu", counted)
        return calls

    def test_shift_invert_slice_factors_twice(self, disk, splu_calls, monkeypatch):
        # the shifted full matrix for ARPACK and Rayleigh-Ritz, and the count
        _, forms = disk(3)
        forms.factor_input
        splu_calls.clear()  # the order, when these forms had none yet
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 0)
        robin_steklov_spectrum(forms, 1.0, 4)
        assert [n for n, _ in splu_calls] == [forms.n, forms.n]

    def test_dense_slice_factors_once(self, disk, splu_calls):
        _, forms = disk(3)
        forms.factor_input
        splu_calls.clear()  # the order, when these forms had none yet
        robin_steklov_spectrum(forms, 1.0, 4)
        assert [n for n, _ in splu_calls] == [len(forms.interior_dofs)]

    def test_count_factors_once(self, disk, splu_calls):
        _, forms = disk(3)
        forms.factor_input
        splu_calls.clear()  # the order, when these forms had none yet
        count_below(forms, 1.0, 2.5)
        assert [n for n, _ in splu_calls] == [forms.n]

    def test_order_built_once_per_forms(self, splu_calls, monkeypatch):
        forms = assemble(generate_disk(2))
        for c, lam in [(0.0, 0.5), (1.0, 2.5), (3.0, 1.7)]:
            count_below(forms, c, lam)
        for limit in (10**9, 0):
            monkeypatch.setattr(spectral, "DENSE_LIMIT", limit)
            for c in (0.5, 2.0):
                robin_steklov_spectrum(forms, c, 3)
        harmonic_extension(forms, np.ones(len(forms.boundary_dofs)), 1.0)
        # 3 counts, 2 dense and 2 shift-invert slices, 1 extension, 1 order
        assert len(splu_calls) == 3 + 2 * 1 + 2 * 2 + 1 + 1

    @pytest.mark.parametrize("name", ["disk2", "disk3", "disk4", "disk5", "jittered", "delaunay"])
    def test_cached_order_counts_equal_eigen_counts(self, disk, fuzz_meshes, splu_calls, name):
        # every count factors on the diagonal in the cached order (perm_r ==
        # perm_c) and matches a full dense eigensolve, between and near pairs
        forms = disk(int(name[-1]))[1] if name.startswith("disk") else fuzz_meshes[name][1]
        n_b = len(forms.boundary_dofs)
        for c in (0.0, 2.0):
            vals = robin_steklov_spectrum(forms, c, n_b).eigenvalues
            splu_calls.clear()
            levels = [0.5 * (a + b) for a, b in zip(vals, vals[1:]) if b - a > 1e-6 * abs(b)]
            for lam in levels[:: max(1, len(levels) // 8)] + [vals[0] - 1.0, vals[-1] + 1.0]:
                assert count_below(forms, c, lam) == np.count_nonzero(vals < lam)
            assert all(np.array_equal(lu.perm_r, lu.perm_c) for _, lu in splu_calls)
            assert [n for n, _ in splu_calls] == [forms.n] * len(splu_calls)


class TestSchurEquivalence:
    @pytest.mark.parametrize(
        "builder,c",
        [
            (lambda: generate_disk(0), 0.0),
            (lambda: generate_disk(0), 1.0),
            (lambda: generate_disk(1), 0.0),
            (lambda: generate_interval(9, 2.0), 0.5),
        ],
        ids=["disk0-c0", "disk0-c1", "disk1-c0", "interval-c0.5"],
    )
    def test_reduced_equals_full_pencil(self, builder, c):
        # brute force: finite eigenvalues of the full singular-B pencil
        mesh = builder()
        forms = assemble(mesh)
        assert mesh.n_vertices <= 50
        n_b = len(forms.boundary_dofs)
        reduced = robin_steklov_spectrum(forms, c, n_b).eigenvalues
        A = (forms.K + c * forms.M).toarray()
        ev = la.eig(A, forms.B.toarray(), right=False)
        finite = np.sort(ev[np.isfinite(ev)].real)
        assert len(finite) == n_b
        assert np.abs(finite - reduced).max() < 1e-8


class TestDenseGevp:
    def test_diagonal_pencil(self):
        w, _ = solve_dense_gevp(np.diag([1.0, 2.0]), np.eye(2), 2)
        assert np.allclose(w, [1.0, 2.0])

    def test_equal_matrices_give_ones(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        w, _ = solve_dense_gevp(a, a, 2)
        assert np.allclose(w, 1.0)

    def test_random_pencil_residuals(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((20, 20))
        a = q + q.T
        p = rng.standard_normal((20, 20))
        b = p @ p.T + 20 * np.eye(20)
        w, v = solve_dense_gevp(a, b, 20)
        residuals = np.linalg.norm(a @ v - b @ v * w, axis=0)
        assert residuals.max() <= 1e-9 * np.linalg.norm(a, 2)

    def test_k_out_of_range(self):
        A = np.eye(3)
        with pytest.raises(PreconditionError):
            solve_dense_gevp(A, A, 4)

    def test_requires_symmetry(self):
        with pytest.raises(PreconditionError, match="symmetric"):
            solve_dense_gevp(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2), 1)


class TestEigenCurves:
    def test_zero_factor_gives_constant_curve(self, disk):
        _, forms = disk(2)
        curve = trace_eigencurves(forms, 0.0, [1], [0.5, 1.0, 2.0])[0]
        vals = curve.values
        assert np.abs(vals - vals[0]).max() < 1e-12
        assert vals[0] == pytest.approx(steklov_spectrum(forms, 2).eigenvalues[1])

    def test_disk_branch_matches_bessel_quotient(self, disk):
        _, forms = disk(4)
        t_grid = np.linspace(0.2, 3.0, 6)
        curve = trace_eigencurves(forms, 1.0, [0], t_grid)[0]
        for t, got in curve.samples:
            want = oracle.disk_robin_steklov(0, t)
            assert abs(got - want) / want < 0.02

    def test_strictly_increasing_for_positive_factor(self, disk):
        _, forms = disk(2)
        for rho_i in [1.0, 2.0]:
            curve = trace_eigencurves(forms, rho_i, [0], np.linspace(0.1, 4.0, 12))[0]
            assert np.all(np.diff(curve.values) > 0)

    def test_grid_validation(self, disk):
        _, forms = disk(0)
        with pytest.raises(PreconditionError):
            trace_eigencurves(forms, 1.0, [0], [])
        with pytest.raises(PreconditionError):
            trace_eigencurves(forms, 1.0, [0], [1.0, 0.5])
        with pytest.raises(PreconditionError):
            trace_eigencurves(forms, 1.0, [0], [-1.0, 1.0])

    @pytest.mark.parametrize("j_list", [[], [0, -1]])
    def test_branch_list_validation(self, disk, j_list):
        _, forms = disk(0)
        with pytest.raises(PreconditionError, match="branch positions"):
            trace_eigencurves(forms, 1.0, j_list, [1.0])

    @pytest.mark.parametrize("dense_limit", [10**9, 0], ids=["dense", "shift-invert"])
    def test_grouped_branches_equal_single_slices(self, disk, dense_limit, monkeypatch):
        # one slice per t serves every branch; each must agree with the slice
        # sized for that branch alone
        _, forms = disk(3)
        monkeypatch.setattr(spectral, "DENSE_LIMIT", dense_limit)
        t_grid = [0.2, 1.0, 4.5]
        j_list = [3, 0, 1, 3]
        curves = trace_eigencurves(forms, 2.0, j_list, t_grid, factor_index=1)
        assert [c.branch_index for c in curves] == j_list
        for curve in curves:
            j = curve.branch_index
            for t, got in curve.samples:
                want = robin_steklov_spectrum(forms, t * 2.0, j + 1).eigenvalues[j]
                assert abs(got - want) <= 1e-12 * abs(want)


class TestHarmonicExtension:
    def test_extension_is_discretely_harmonic(self, disk):
        _, forms = disk(2)
        trace = np.linspace(1.0, 2.0, len(forms.boundary_dofs))
        phi = harmonic_extension(forms, trace)
        residual = (forms.K @ phi)[forms.interior_dofs]
        assert np.abs(residual).max() < 1e-10

    def test_wrong_trace_length_rejected(self, disk):
        _, forms = disk(0)
        with pytest.raises(PreconditionError):
            harmonic_extension(forms, np.ones(3))


class TestCsvRoundTrips:
    def test_slice_round_trip(self, disk, tmp_path):
        _, forms = disk(1)
        sl = steklov_spectrum(forms, 4)
        path = tmp_path / "slice.csv"
        slice_to_csv(sl, path)
        loaded = load_slice_csv(path)
        assert [j for j, _ in loaded] == [0, 1, 2, 3]
        assert np.allclose([v for _, v in loaded], sl.eigenvalues)

    def test_curve_round_trip(self, disk, tmp_path):
        _, forms = disk(1)
        curve = trace_eigencurves(forms, 1.0, [0], [0.5, 1.0], factor_index=1)[0]
        path = tmp_path / "curves.csv"
        curves_to_csv([curve], path)
        rows = load_curves_csv(path)
        assert rows == [(0.5, 1, 0, curve.values[0]), (1.0, 1, 0, curve.values[1])]

    def test_unlabeled_curve_export_rejected(self, disk, tmp_path):
        _, forms = disk(0)
        curve = trace_eigencurves(forms, 1.0, [0], [1.0])[0]
        with pytest.raises(PreconditionError):
            curves_to_csv([curve], tmp_path / "c.csv")

    def test_wrong_header_names_file_and_both_headers(self, disk, tmp_path):
        _, forms = disk(0)
        path = tmp_path / "slice.csv"
        slice_to_csv(steklov_spectrum(forms, 2), path)
        with pytest.raises(PreconditionError) as info:
            load_curves_csv(path)
        message = str(info.value)
        assert "slice.csv" in message
        assert "['j', 'rho']" in message and "['t', 'i', 'j', 'rho']" in message
