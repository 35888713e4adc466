from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from conftest import delaunay_disks
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from steklovbif import (
    assemble,
    fem,
    generate_disk,
    generate_interval,
    oracle,
    robin_steklov_spectrum,
    scale_metric_forms,
    spectral,
    steklov_spectrum,
)
from steklovbif.errors import (
    CutoffExhaustedError,
    EigensolverError,
    HhatIsSteklovEigenvalueError,
    PreconditionError,
)
from steklovbif.mesh import Mesh
from steklovbif.spectral import BRACKET_RTOL, count_below, harmonic_extension


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

    def test_single_cell_interval_dense_slice_and_count(self, interval):
        # the empty interior band still has one row, so only its column count
        # shows that there is nothing to factor: S(c) is A_bb itself
        _, forms = interval(1, 2.0)
        fi = forms.factor_input
        assert fi.interior.shape == (1, 0)
        A_bb = fi.boundary(3.0)
        assert spectral._schur_complement(fi, 3.0, A_bb) is A_bb
        vals = robin_steklov_spectrum(forms, 3.0, 2).eigenvalues
        assert [count_below(forms, 3.0, v + 1e-9) for v in vals] == [1, 2]

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

    def test_b_orthonormality_on_multifrontal_path(self, disk, monkeypatch):
        _, forms = disk(3)
        monkeypatch.setattr(forms.factor_input, "banded", False)
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

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, disk, c):
        # the slice calls LAPACK without scipy's finiteness check
        _, forms = disk(2)
        with pytest.raises(PreconditionError, match="finite"):
            robin_steklov_spectrum(forms, c, 2)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_multifrontal_path_matches_dense(self, disk, c, monkeypatch):
        _, forms = disk(2)
        assert forms.factor_input.banded
        dense = robin_steklov_spectrum(forms, c, 5).eigenvalues
        monkeypatch.setattr(forms.factor_input, "banded", False)
        iterative = robin_steklov_spectrum(forms, c, 5).eigenvalues
        assert np.abs(dense - iterative).max() < 1e-9


class TestMultifrontalSlice:
    """Slices through the fronts, which form S(c) by a multifrontal Cholesky
    of the interior block on its nested-dissection tree: S(c) is the trailing
    block, on the boundary dofs, of that partial factorization."""

    @pytest.fixture(params=["disk5", "jittered", "delaunay"])
    def forms(self, request, disk, fuzz_meshes):
        if request.param == "disk5":
            return disk(5)[1]
        return fuzz_meshes[request.param][1]

    @pytest.mark.parametrize("c", [0.3, 3.0])
    def test_matches_dense(self, forms, c, monkeypatch):
        # the disk's values come in exact pairs (1, 2), (3, 4), ...: k = 2, 4
        # and 8 end inside a pair, k = 1 and 3 after one
        monkeypatch.setattr(forms.factor_input, "banded", True)
        dense = robin_steklov_spectrum(forms, c, 8).eigenvalues
        monkeypatch.setattr(forms.factor_input, "banded", False)
        for k in (1, 2, 3, 4, 8):
            got = robin_steklov_spectrum(forms, c, k).eigenvalues
            assert np.all(np.abs(got - dense[:k]) <= 1e-10 * np.abs(dense[:k]))

    @pytest.mark.parametrize("name", ["disk2", "disk3", "disk4", "disk5", "jittered", "delaunay"])
    @pytest.mark.parametrize("c", [0.0, 3.0, 100.0])
    def test_multifrontal_schur_equals_banded_schur_complement(self, disk, fuzz_meshes, name,
                                                               c, monkeypatch):
        forms = disk(int(name[-1]))[1] if name.startswith("disk") else fuzz_meshes[name][1]
        fi = forms.factor_input
        monkeypatch.setattr(fi, "banded", True)
        band, _ = spectral._schur(fi, c)
        monkeypatch.setattr(fi, "banded", False)
        multifrontal, _ = spectral._schur(fi, c)
        assert np.abs(multifrontal - band).max() <= 1e-12 * np.abs(band).max()

    @pytest.mark.parametrize("name", ["disk2", "disk3", "disk4", "disk5", "jittered", "delaunay"])
    @pytest.mark.parametrize("c", [0.0, 3.0, 100.0])
    def test_deep_trees_equal_banded_schur_complement(self, disk, fuzz_meshes, name, c,
                                                      monkeypatch):
        # leaves of 4 dofs: deep trees
        forms = disk(int(name[-1]))[1] if name.startswith("disk") else fuzz_meshes[name][1]
        monkeypatch.setattr(fem, "DISSECTION_LEAF", 4)
        fi = fem.FactorInput(forms.K, forms.M, forms.B, forms.boundary_dofs, forms.vertices)
        band = spectral._schur_complement(fi, c, fi.boundary(c))
        multifrontal, _ = spectral._multifrontal_schur(fi, c)
        assert np.abs(multifrontal - band).max() <= 1e-12 * np.abs(band).max()

    def test_no_interior_dof_leaves_the_boundary_block(self, interval):
        _, forms = interval(1, 1.0)
        fi = forms.factor_input
        assert fi.fronts == ()
        assert np.array_equal(spectral._multifrontal_schur(fi, 2.0)[0], fi.boundary(2.0))

    def test_repeat_calls_are_bit_identical(self, disk):
        _, forms = disk(5)
        assert not forms.factor_input.banded
        first = robin_steklov_spectrum(forms, 3.0, 4).eigenvalues
        second = robin_steklov_spectrum(forms, 3.0, 4).eigenvalues
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("t", np.linspace(0.1, 3.0, 7)[4:])
    def test_skipped_double_eigenvalue_is_solved_densely(self, disk, t, monkeypatch):
        # eigencurve on disk L5 x 2pi-torus, i = 2 (rho_i = 2), j = 0, 1, 2:
        # at these three t an iterative solver can return one copy of
        # rho_1 = rho_2; a dense subset solve returns both
        _, forms = disk(5)
        c = t * 2.0
        assert not forms.factor_input.banded
        got = robin_steklov_spectrum(forms, c, 3).eigenvalues
        monkeypatch.setattr(forms.factor_input, "banded", True)
        dense = robin_steklov_spectrum(forms, c, 3).eigenvalues
        assert np.all(np.abs(got - dense) <= 1e-10 * np.abs(dense))

    def test_double_eigenvalue_eigencurves_return_every_row(self, disk, square_torus,
                                                            monkeypatch):
        # eigencurve on disk L5 x 2pi-torus (H2 = 1), i = 1, 2, j = 0, 1, 2,
        # 7 values of t in [0.1, 3]: three slices of i = 2 hold the double
        # rho_1 = rho_2 (see above)
        _, forms = disk(5)
        torus = square_torus(20.0)
        t_grid = np.linspace(0.1, 3.0, 7)

        def rows():
            slices = np.array([[robin_steklov_spectrum(forms, t * torus.value(i), 3).eigenvalues
                                for t in t_grid] for i in (1, 2)])  # indexed (i, t, j)
            return slices.transpose(0, 2, 1).reshape(6, 7)  # one row per branch (i, j)

        trailing = rows()
        monkeypatch.setattr(forms.factor_input, "banded", True)
        band = rows()
        assert trailing.shape == band.shape == (6, 7)
        assert np.all(np.abs(trailing - band) <= 1e-10 * np.abs(band))

    def test_indefinite_interior_block_raises(self, disk):
        # K negated: A_ii = -K_ii + c M_ii is not positive definite
        _, forms = disk(3)
        negated = fem.AssembledForms(-forms.K, forms.M, forms.B, forms.boundary_dofs,
                                     forms.vertices)
        negated.factor_input.banded = False
        with pytest.raises(EigensolverError, match=r"factorization at c=1\.5 failed"):
            robin_steklov_spectrum(negated, 1.5, 4)


class TestRoute:
    """Each forms' slices take the route of S(c) with fewer flops,
    ``FactorInput.banded``, a tie to the band."""

    @pytest.mark.parametrize("name, banded", [
        ("interval1000", True), ("disk0", True), ("disk1", False), ("disk2", True),
        ("disk3", True), ("disk4", False), ("disk5", False), ("disk6", False),
    ])
    def test_routes(self, disk, interval, name, banded):
        forms = interval(1000, 2.0)[1] if name == "interval1000" else disk(int(name[4:]))[1]
        assert forms.factor_input.banded == banded


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
    def _fault_after_eigh(monkeypatch, forms, fault):
        # the slice takes the fronts
        dense_gevp = spectral._dense_gevp
        monkeypatch.setattr(spectral, "_dense_gevp", lambda a, b, k: fault(*dense_gevp(a, b, k)))
        monkeypatch.setattr(forms.factor_input, "banded", False)

    def test_multifrontal_path_rejects_wrong_pairs(self, disk, monkeypatch):
        _, forms = disk(2)
        self._fault_after_eigh(monkeypatch, forms, lambda w, v: (w, np.roll(v, 1, axis=1)))
        with pytest.raises(EigensolverError, match="dense eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)

    def test_multifrontal_path_rejects_shifted_values(self, disk, monkeypatch):
        _, forms = disk(2)
        self._fault_after_eigh(monkeypatch, forms, lambda w, v: (w + 1e-6, v))
        with pytest.raises(EigensolverError, match="dense eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)

    def test_multifrontal_path_rejects_pairs_of_a_wrong_schur_complement(self, disk,
                                                                         monkeypatch):
        # pairs of S(c) one part in 10^4 off in c, checked against S(c)
        _, forms = disk(2)
        fi = forms.factor_input
        dense_gevp = spectral._dense_gevp
        monkeypatch.setattr(fi, "banded", False)
        wrong, _ = spectral._schur(fi, 1.0 + 1e-4)
        monkeypatch.setattr(spectral, "_dense_gevp", lambda a, b, k: dense_gevp(wrong, b, k))
        with pytest.raises(EigensolverError, match="dense eigenpair residual"):
            robin_steklov_spectrum(forms, 1.0, 5)


def _eigen_count(forms, c, lam):
    """Eigenvalues below lam by a full dense solve; None when lam sits too
    close to one for either count to be well defined."""
    vals = robin_steklov_spectrum(forms, c, len(forms.boundary_dofs)).eigenvalues
    if np.min(np.abs(vals - lam)) <= 1e-9 * max(1.0, abs(lam)):
        return None
    return int(np.sum(vals < lam))


class TestCountBelow:
    @pytest.mark.parametrize("name", ["jittered", "delaunay"])
    @settings(max_examples=40)
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
        # the (ldu, ipiv, info) of every Bunch-Kaufman factorization
        calls = []
        dsytrf = spectral.lapack.dsytrf
        monkeypatch.setattr(spectral.lapack, "dsytrf",
                            lambda a, **kw: calls.append(dsytrf(a, **kw)) or calls[-1])
        return calls

    def test_zero_pivot_counted_by_ldl(self, interval, ldl_calls):
        # lam = S_00 / B_00 makes the first diagonal entry of S - lam B_bb
        # vanish: the count is one pivoted LDL of it, which pivots on a 2x2
        # block
        _, forms = interval(50, 1.0)
        fi = forms.factor_input
        lam = spectral._schur(fi, 0.0)[0][0, 0] / fi.B_bb[0, 0]
        assert count_below(forms, 0.0, lam) == _eigen_count(forms, 0.0, lam)
        assert len(ldl_calls) == 1
        assert np.count_nonzero(ldl_calls[0][1] < 0) == 2

    def test_tiny_pivot_counted_by_ldl(self, fuzz_meshes, ldl_calls):
        # lam on an eigenvalue: A - lam B is singular up to rounding
        _, forms = fuzz_meshes["jittered"]
        for j in (1, 3):
            lam = robin_steklov_spectrum(forms, 2.0, j + 1).eigenvalues[j]
            assert count_below(forms, 2.0, lam) in (j, j + 1)
        assert len(ldl_calls) == 2

    @pytest.mark.parametrize("name, c, lam", [
        ("jittered", 0.0, 0.5), ("jittered", 0.0, 2.5), ("jittered", 3.0, 1.7),
        ("jittered", 20.0, 6.0), ("disk5", 3.0, 2.0),
    ])
    def test_counts_equal_eigen_counts(self, disk, fuzz_meshes, name, c, lam):
        forms = disk(5)[1] if name == "disk5" else fuzz_meshes[name][1]
        assert count_below(forms, c, lam) == _eigen_count(forms, c, lam)

    def test_each_count_forms_one_schur_complement(self, disk, monkeypatch, ldl_calls):
        # one level per count: one S(c) and one LDL, on the band route's
        # sizes too
        _, forms = disk(3)
        assert forms.factor_input.banded
        formed = []
        schur = spectral._schur
        monkeypatch.setattr(spectral, "_schur",
                            lambda fi, c, *rest: formed.append(c) or schur(fi, c, *rest))
        assert [count_below(forms, 0.0, lam) for lam in (0.5, 1.5, 2.5)] == [1, 3, 5]
        assert formed == [0.0] * 3 and len(ldl_calls) == 3

    def test_negative_coefficient_rejected(self, disk):
        _, forms = disk(0)
        with pytest.raises(PreconditionError):
            count_below(forms, -1.0, 1.0)

    @pytest.mark.parametrize("c, lam, message", [
        (np.nan, 1.0, "bulk coefficient"), (np.inf, 1.0, "bulk coefficient"),
        (-1e-300, 1.0, "bulk coefficient"), (1.0, np.nan, "level"), (1.0, np.inf, "level"),
        (1.0, -np.inf, "level"),
    ])
    def test_non_finite_coefficient_or_level_rejected(self, disk, c, lam, message):
        # LAPACK would factor NaNs without a word and la.ldl would raise
        # scipy's own ValueError; the table's solve checks its level too
        _, forms = disk(2)
        with pytest.raises(PreconditionError, match=f"{message} must be finite"):
            count_below(forms, c, lam)
        if message == "level":
            with pytest.raises(PreconditionError, match="level must be finite"):
                spectral.level_crossings(forms, lam)

    @pytest.mark.parametrize("lam", [[0.5, 1.5], np.array([1.5]), [[1.5]]])
    def test_level_that_is_not_one_number_rejected(self, disk, lam):
        # not left to a NumPy broadcast error inside the inertia count
        _, forms = disk(2)
        with pytest.raises(PreconditionError, match="level must be one number"):
            count_below(forms, 1.0, lam)
        with pytest.raises(PreconditionError, match="level must be one number"):
            spectral.level_crossings(forms, lam)


class TestLevelCrossings:
    """The c_j* table from one S(0): the Bunch-Kaufman factor of S(0) -
    lam B_bb counts the roots, refuses a level on a Steklov eigenvalue and,
    through the fronts, is the shift-invert operator."""

    @pytest.mark.parametrize("name", ["disk3", "delaunay"])
    def test_solve_equals_dense_solve(self, disk, fuzz_meshes, name):
        # at lam = 7/3, S(0) - lam B_bb is indefinite; a vector and a block
        forms = disk(3)[1] if name == "disk3" else fuzz_meshes[name][1]
        fi, lam, factors = forms.factor_input, 7.0 / 3.0, []
        S = spectral._multifrontal_schur(fi, 0.0, factors)[0]
        boundary, negative = spectral._bunch_kaufman(S, fi.B_bb, lam)
        assert 0 < negative < len(fi.boundary_dofs)
        b = np.random.default_rng(1).standard_normal((forms.n, 3))
        dense = la.solve((forms.K - lam * forms.B).toarray(), b)
        for x, want in ((b[:, 0], dense[:, 0]), (b, dense)):
            got = spectral._solve(fi, factors, boundary, x)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("lam, roots", [(1.0 / 3.0, 1), (4.0 / 3.0, 3), (7.0 / 3.0, 5)])
    def test_table_forms_one_schur_complement(self, disk, monkeypatch, lam, roots):
        # disk L4: S(0) alone, one dpotrf per front and no other Cholesky,
        # however many roots the table holds
        forms = disk(4)[1]
        formed, potrf_calls = [], []
        schur, potrf = spectral._multifrontal_schur, spectral.lapack.dpotrf
        monkeypatch.setattr(spectral, "_multifrontal_schur",
                            lambda fi, c, *rest: formed.append(c) or schur(fi, c, *rest))
        monkeypatch.setattr(spectral.lapack, "dpotrf",
                            lambda a, **kw: potrf_calls.append(a.shape[0]) or potrf(a, **kw))
        assert len(spectral.level_crossings(forms, lam)) == roots
        assert formed == [0.0]
        assert len(potrf_calls) == len(forms.factor_input.fronts)

    def test_refusals_come_before_lanczos(self, disk, monkeypatch):
        # a level within BRACKET_RTOL of the double sigma_1 of disk L2, and
        # one above every Steklov eigenvalue
        forms = disk(2)[1]
        sigma = steklov_spectrum(forms, len(forms.boundary_dofs)).eigenvalues

        def forbidden(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(spectral.spla, "eigsh", forbidden)
        with pytest.raises(HhatIsSteklovEigenvalueError, match="of 2 Steklov eigenvalue"):
            spectral.level_crossings(forms, sigma[1] * (1 + 0.1 * BRACKET_RTOL))
        with pytest.raises(CutoffExhaustedError, match="boundary spectrum exhausted"):
            spectral.level_crossings(forms, 2.0 * sigma[-1])

    def test_lanczos_non_convergence_is_an_eigensolver_error(self, disk, monkeypatch):
        forms = disk(2)[1]

        def stalled(*args, **kwargs):
            raise spectral.spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                                    np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral.spla, "eigsh", stalled)
        with pytest.raises(EigensolverError, match="level-crossing iteration did not converge"):
            spectral.level_crossings(forms, 4.0 / 3.0)

    def test_bound_off_m_orthonormal_vectors_is_inf(self, disk, monkeypatch):
        # disk L3 at lam = 7/3: 2 Z is far from M-orthonormal, so the bound
        # refuses it; a bound forced to inf leaves each root group to its two
        # bracket counts, which take the band and prove the same table
        forms = disk(3)[1]
        args, brackets = [], []
        kahan_bound, count = spectral._kahan_bound, spectral.count_below
        monkeypatch.setattr(spectral, "_kahan_bound",
                            lambda *a: args.append(a) or kahan_bound(*a))
        table = spectral.level_crossings(forms, 7.0 / 3.0)
        A, M, w, Z, AZ, MZ = args[0]
        assert kahan_bound(A, M, w, Z, AZ, MZ) <= BRACKET_RTOL * w[0]
        assert kahan_bound(A, M, w, 2 * Z, 2 * AZ, 2 * MZ) == np.inf
        monkeypatch.setattr(spectral, "_kahan_bound", lambda *a: np.inf)
        monkeypatch.setattr(spectral, "count_below",
                            lambda forms, c, lam: brackets.append(c) or count(forms, c, lam))
        assert np.array_equal(spectral.level_crossings(forms, 7.0 / 3.0), table)
        w = table[::-1, 0]
        groups = 1 + np.count_nonzero(w[1:] * (1 - BRACKET_RTOL) > w[:-1] * (1 + BRACKET_RTOL))
        assert forms.factor_input.banded and len(table) == 5
        assert len(brackets) == 2 * groups < 2 * len(table)


def _dense_spectrum(forms, c):
    """Every eigenvalue of (K + c M) u = rho B u, ascending, by a dense Schur
    complement and a dense generalized eigensolve."""
    A, B = (forms.K + c * forms.M).toarray(), forms.B.toarray()
    b, i = forms.boundary_dofs, forms.interior_dofs
    S = A[np.ix_(b, b)] - A[np.ix_(b, i)] @ la.solve(A[np.ix_(i, i)], A[np.ix_(i, b)],
                                                    assume_a="pos")
    return la.eigh(S, B[np.ix_(b, b)], eigvals_only=True)


class TestDelaunayDiskProperties:
    """Counts, the c_j* table and S(c) on Delaunay disks of random points,
    against dense solves."""

    @settings(max_examples=25)
    @given(mesh=delaunay_disks(), c=st.floats(0.0, 20.0))
    def test_routes_equal_the_dense_schur_complement(self, mesh, c):
        # leaves of 4 dofs: a drawn disk gets a real tree.  The route is the
        # one with fewer flops, bw read off the interior pattern in its
        # order, p and u off the fronts; a slice through the fronts builds
        # no band
        with mock.patch.object(fem, "DISSECTION_LEAF", 4):
            forms = assemble(mesh)
            fi = forms.factor_input
            n_i, n_b = len(forms.interior_dofs), len(forms.boundary_dofs)
            A_ii = forms.K[fi.interior_order][:, fi.interior_order].tocoo()
            bw = int(np.abs(A_ii.row - A_ii.col).max(initial=0))
            sizes = [(f.pivots.stop - f.pivots.start, len(f.update)) for f in fi.fronts]
            fronts = sum(Fraction(p**3, 3) + p * p * u + p * u * u for p, u in sizes)
            assert fi.banded == (n_i * (bw * bw + 2 * bw * n_b + n_b * n_b) <= fronts)
            robin_steklov_spectrum(forms, c, min(4, n_b))
            assert fi.banded or "_band" not in vars(fi)
            multifrontal, _ = spectral._multifrontal_schur(fi, c)
        band = spectral._schur_complement(fi, c, fi.boundary(c))
        dense, _ = _dense_interior_solve(forms, c)
        scale = np.abs(dense).max()
        assert np.abs(band - dense).max() <= 1e-12 * scale
        assert np.abs(multifrontal - dense).max() <= 1e-12 * scale

    @settings(max_examples=25)
    @given(mesh=delaunay_disks(), c=st.floats(0.0, 20.0), dc=st.floats(1e-3, 20.0),
           t=st.floats(0.1, 10.0))
    def test_branches_increase_and_obey_the_homothety_law(self, mesh, c, dc, t):
        # every branch: rho_j(c + dc) >= rho_j(c), and on the metric t g,
        # rho_j(c) = t^(-1/2) rho_j(t c) of g, each within 1e-12 of the
        # largest value
        forms = assemble(mesh)
        k = len(forms.boundary_dofs)
        lo = robin_steklov_spectrum(forms, c, k).eigenvalues
        hi = robin_steklov_spectrum(forms, c + dc, k).eigenvalues
        assert np.all(hi >= lo - 1e-12 * hi[-1])
        scaled = robin_steklov_spectrum(scale_metric_forms(forms, t, 2), c, k).eigenvalues
        want = robin_steklov_spectrum(forms, t * c, k).eigenvalues / np.sqrt(t)
        assert np.abs(scaled - want).max() <= 1e-12 * want[-1]

    @settings(max_examples=25)
    @given(mesh=delaunay_disks(), c=st.floats(0.0, 20.0))
    def test_counts_equal_dense_eigen_counts(self, mesh, c):
        # levels mid-gap and within relative 1e-6 and 1e-9 of an eigenvalue,
        # each kept when no eigenvalue is nearer than half its offset; the
        # mid-gap ones on both routes, forced, too
        forms = assemble(mesh)
        vals = _dense_spectrum(forms, c)

        def kept(levels):
            return [lam for lam in levels if np.abs(vals - lam).min() >= 5e-10 * abs(lam)]

        def counts(levels):
            return [count_below(forms, c, lam) for lam in levels]

        mid = kept([0.5 * (a + b) for a, b in zip(vals, vals[1:])])
        levels = mid + kept([v * (1 + side * rtol) for v in vals[vals > 1e-3]
                             for rtol in (1e-6, 1e-9) for side in (-1, 1)])
        assert counts(levels) == [int(np.count_nonzero(vals < lam)) for lam in levels]
        routes = []
        for banded in (True, False):
            forms.factor_input.banded = banded
            routes.append(counts(mid))
        assert routes[0] == routes[1] == [int(np.count_nonzero(vals < lam)) for lam in mid]

    @settings(max_examples=25)
    @given(mesh=delaunay_disks(), data=st.data())
    def test_level_crossings_equal_dense_eigenvalues(self, mesh, data):
        # lam between the Steklov eigenvalues j and j + 1, at any gap of the
        # drawn disk: the table holds the j + 1 positive eigenvalues of
        # (lam B - K) u = c M u, c_0* >> 1 at the high gaps
        forms = assemble(mesh)
        steklov = _dense_spectrum(forms, 0.0)
        j = data.draw(st.integers(0, len(steklov) - 2))
        assume(steklov[j + 1] - steklov[j] > 1e-3 * steklov[j + 1])
        lam = 0.5 * (steklov[j] + steklov[j + 1])
        assert count_below(forms, 0.0, lam) == j + 1
        dense = la.eigh((lam * forms.B - forms.K).toarray(), forms.M.toarray(),
                        eigvals_only=True)[::-1][:j + 1]
        assert dense[-1] > 0
        c_star, low, high = spectral.level_crossings(forms, lam).T
        np.testing.assert_allclose(c_star, dense, rtol=BRACKET_RTOL, atol=0)
        assert np.all((low <= dense) & (dense <= high))  # each in the window it was proved in


class TestRenumbering:
    """Relabelling a mesh's vertices and moving it rigidly moves no
    eigenvalue, count or c_j*: the shared pattern of K and M, the tree and
    the band meet numberings and coordinates that the builtin meshes never
    have."""

    @settings(max_examples=20)
    @given(mesh=st.one_of(st.sampled_from([2, 3]).map(generate_disk), delaunay_disks()),
           data=st.data())
    def test_invariant_under_vertex_permutations(self, mesh, data):
        # the permuted mesh is also rotated and translated; leaves of 4 dofs
        # give deep trees, bisected along other coordinates
        perm = np.array(data.draw(st.permutations(range(mesh.n_vertices))))
        angle = data.draw(st.floats(0.0, 2.0 * np.pi))
        shift = np.array(data.draw(st.tuples(*[st.floats(-10.0, 10.0)] * 2)))
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        vertices = np.empty_like(mesh.vertices)
        vertices[perm] = mesh.vertices @ rotation.T + shift
        with mock.patch.object(fem, "DISSECTION_LEAF", 4):
            forms = assemble(mesh)
            other = assemble(Mesh(vertices=vertices, cells=perm[mesh.cells]))
            k = len(forms.boundary_dofs)
            vals = steklov_spectrum(forms, k).eigenvalues
            moved = steklov_spectrum(other, k).eigenvalues
            assert np.abs(moved - vals).max() <= 1e-12 * vals[-1]
            for c in (2.0, 0.0):  # the levels of c = 0 serve the table
                vals = robin_steklov_spectrum(forms, c, k).eigenvalues
                levels = [0.5 * (a + b) for a, b in zip(vals, vals[1:]) if b - a > 1e-6 * b]
                counts = [count_below(forms, c, lam) for lam in levels]
                assert [count_below(other, c, lam) for lam in levels] == counts
                assert counts == [int(np.count_nonzero(vals < lam)) for lam in levels]
            lam = levels[min(3, len(levels) - 1)]
            np.testing.assert_allclose(spectral.level_crossings(other, lam),
                                       spectral.level_crossings(forms, lam),
                                       rtol=BRACKET_RTOL, atol=0)


class TestFactorizationBudget:
    @pytest.fixture
    def band_calls(self, monkeypatch):
        # the band's column count of every banded Cholesky
        calls = []
        dpbtrf = spectral.lapack.dpbtrf
        monkeypatch.setattr(spectral.lapack, "dpbtrf",
                            lambda a, **kw: calls.append(a.shape[-1]) or dpbtrf(a, **kw))
        return calls

    def test_multifrontal_slice_factors_once(self, band_calls, monkeypatch):
        # one dpotrf per front, each interior dof a pivot once: no band and
        # no ARPACK, the tree too
        forms = assemble(generate_disk(3))
        eigsh_calls, potrf_calls = [], []
        potrf = spectral.lapack.dpotrf
        monkeypatch.setattr(spectral.spla, "eigsh", lambda *a, **kw: eigsh_calls.append(a))
        monkeypatch.setattr(spectral.lapack, "dpotrf",
                            lambda a, **kw: potrf_calls.append(a.shape[0]) or potrf(a, **kw))
        forms.factor_input.banded = False
        robin_steklov_spectrum(forms, 1.0, 4)
        assert band_calls == [] and eigsh_calls == []
        assert len(potrf_calls) == len(forms.factor_input.fronts)
        assert sum(potrf_calls) == len(forms.interior_dofs)

    def test_dense_slice_factors_once(self, disk, band_calls):
        # one banded Cholesky of A_ii
        _, forms = disk(3)
        robin_steklov_spectrum(forms, 1.0, 4)
        assert band_calls == [len(forms.interior_dofs)]

    def test_multifrontal_slice_builds_no_band(self, band_calls):
        # only the band path builds and factors the band of A_ii
        forms = assemble(generate_disk(3))
        forms.factor_input.banded = False
        robin_steklov_spectrum(forms, 1.0, 4)
        assert band_calls == [] and "_band" not in vars(forms.factor_input)

    def test_order_built_once_per_forms(self, band_calls, monkeypatch):
        # disk L2 takes the band: its counts, slices and extension build no
        # fronts, the table builds them, and the tree is dissected once
        forms = assemble(generate_disk(2))
        fi = forms.factor_input
        dissections = []
        dissect = fem.nested_dissection
        monkeypatch.setattr(fem, "nested_dissection",
                            lambda g, x: dissections.append(g) or dissect(g, x))
        for c, lam in [(0.0, 0.5), (1.0, 2.5), (3.0, 1.7)]:
            count_below(forms, c, lam)
        for c in (0.5, 2.0):
            robin_steklov_spectrum(forms, c, 3)
        harmonic_extension(forms, np.ones(len(forms.boundary_dofs)), 1.0)
        # 3 counts, 2 slices and 1 extension
        assert fi.banded and len(band_calls) == 3 + 2 + 1
        assert "_tree" not in vars(fi)
        assert len(spectral.level_crossings(forms, 1.5)) == 3
        assert "_tree" in vars(fi)
        fi.banded = False
        for c in (0.5, 2.0):
            robin_steklov_spectrum(forms, c, 3)
        assert len(band_calls) == 3 + 2 + 1
        assert len(dissections) == 1

    @pytest.mark.parametrize("name", ["disk3", "jittered", "delaunay", "interval50"])
    def test_dissection_tree(self, disk, interval, fuzz_meshes, name, monkeypatch):
        # the tree pivots on every interior dof once, in postorder, and on no
        # boundary dof; a node's update set holds the later dofs next to its
        # subtree, boundary ones last; no edge joins two sibling subtrees
        if name.startswith("disk"):
            forms = disk(int(name[4:]))[1]
        elif name.startswith("interval"):
            forms = interval(int(name[8:]), 1.0)[1]
        else:
            forms = fuzz_meshes[name][1]
        graph = (abs(forms.K) + abs(forms.M) + abs(forms.B)).tocsr()
        edges = graph.tocoo()

        def apart(parts):
            owner = np.full(forms.n, -1)
            for i, part in enumerate(parts):
                owner[part] = i
            a, b = owner[edges.row], owner[edges.col]
            assert not np.any((a >= 0) & (b >= 0) & (a != b))

        for leaf in (fem.DISSECTION_LEAF, 4):
            monkeypatch.setattr(fem, "DISSECTION_LEAF", leaf)
            fi = fem.FactorInput(forms.K, forms.M, forms.B, forms.boundary_dofs, forms.vertices)
            fronts, elimination, n_i = fi.fronts, fi.elimination, len(forms.interior_dofs)
            # the fronts pivot on consecutive slices of the elimination order,
            # which ends with the boundary dofs
            assert [front.pivots.start for front in fronts] == [0] + [
                front.pivots.stop for front in fronts[:-1]]
            assert fronts[-1].pivots.stop == n_i
            assert all(front.pivots.stop > front.pivots.start for front in fronts)
            assert np.array_equal(elimination[n_i:], forms.boundary_dofs)
            order = elimination[:n_i]
            assert np.array_equal(np.sort(order), forms.interior_dofs)
            position = np.empty(forms.n, dtype=np.int64)
            position[elimination] = np.arange(forms.n)
            subtree = []  # the pivots of each node's subtree
            for front in fronts:
                pivots = elimination[front.pivots]
                subtree.append(np.concatenate([pivots] + [subtree[j] for j in front.children]))
                near = np.unique(graph[subtree[-1]].indices)
                later = position[near[position[near] >= front.pivots.stop]]
                assert front.update.dtype == np.intp
                assert np.array_equal(front.update, np.sort(later))
                assert np.all(front.update[front.n_inner:] >= n_i)
                assert np.all(front.update[:front.n_inner] < n_i)
                apart([subtree[j] for j in front.children])
            children = {j for front in fronts for j in front.children}
            apart([subtree[k] for k in range(len(fronts)) if k not in children])

    @pytest.mark.parametrize("name", ["disk3", "disk5", "jittered", "delaunay", "interval50"])
    def test_fronts_hand_on_lower_trapezoids(self, disk, interval, fuzz_meshes, name):
        # a front's buffer holds its p x p pivot block, then its u update rows
        # on all its columns, each in Fortran order; every intp map lands on
        # or below a diagonal, and a child hands on only the lower trapezoid
        # of its (u, n_inner) block, u n_inner - n_inner (n_inner - 1) / 2
        # entries, column by column
        if name.startswith("disk"):
            forms = disk(int(name[4:]))[1]
        elif name.startswith("interval"):
            forms = interval(int(name[8:]), 1.0)[1]
        else:
            forms = fuzz_meshes[name][1]
        fi, n_b = forms.factor_input, len(forms.boundary_dofs)
        A, dofs = (forms.K + 2.0 * forms.M).tocsr(), fi.elimination
        handed = expected = 0
        for front in fi.fronts:
            p, u = front.pivots.stop - front.pivots.start, len(front.update)
            held = np.r_[front.pivots.start:front.pivots.stop, front.update]

            def entries(at):
                assert at.dtype == np.intp and len(np.unique(at)) == len(at)
                assert 0 <= at.min() and at.max() < p * p + u * (p + front.n_inner)
                top = at < p * p
                col, row = np.where(top, at // p, (at - p * p) // max(u, 1)), np.where(
                    top, at % p, p + (at - p * p) % max(u, 1))
                assert np.all(row >= col)
                return held[row], held[col]

            row, col = entries(front.values.positions)
            assert np.array_equal(np.asarray(A[dofs[row], dofs[col]]).ravel(),
                                  front.values.K + 2.0 * front.values.M)
            for j, at in zip(front.children, front.extend_add):
                child = fi.fronts[j]
                # the child's entries (i, j), i >= j, column by column: the
                # upper triangle of its (n_inner, u) transpose, row by row
                child_j, child_i = np.triu_indices(child.n_inner, 0, len(child.update))
                row, col = entries(at)
                assert np.array_equal(row, child.update[child_i])
                assert np.array_equal(col, child.update[child_j])
                handed += len(at)
                expected += (len(child.update) * child.n_inner
                             - child.n_inner * (child.n_inner - 1) // 2)
            m = u - front.n_inner
            col, row = np.divmod(front.boundary, n_b)
            assert front.boundary.dtype == np.intp and len(front.boundary) == m * (m + 1) // 2
            assert np.all(row >= col)
            assert np.array_equal(np.unique(row), front.update[front.n_inner:] - forms.n + n_b)
        assert handed == expected

    def test_band_route_builds_the_tree_once_and_factors_no_front(self, monkeypatch):
        # slices, counts and extensions on disk L3 (n_b = 64) and the
        # interval (n = 1000) take the band: the route reads the
        # nested-dissection tree's pivots and update sets for its flop count,
        # dissecting once, and no front is built or factored until the table
        # needs them
        potrf_calls = []
        potrf = spectral.lapack.dpotrf
        monkeypatch.setattr(spectral.lapack, "dpotrf",
                            lambda a, **kw: potrf_calls.append(a.shape[0]) or potrf(a, **kw))
        dissect = fem.nested_dissection
        for mesh in (generate_disk(3), generate_interval(1000, 2.0)):
            dissections = []
            monkeypatch.setattr(fem, "nested_dissection",
                                lambda g, x: dissections.append(g) or dissect(g, x))
            forms = assemble(mesh)
            fi = forms.factor_input
            for c in (0.1, 1.0, 5.0):
                robin_steklov_spectrum(forms, c, min(4, len(forms.boundary_dofs)))
                count_below(forms, c, 0.5)
            harmonic_extension(forms, np.ones(len(forms.boundary_dofs)), 1.0)
            assert fi.banded and len(dissections) == 1
            assert "_tree" not in vars(fi) and potrf_calls == []
            assert len(spectral.level_crossings(forms, 0.5)) == 1
            assert len(potrf_calls) == len(fi.fronts) and len(dissections) == 1
            potrf_calls.clear()

    @pytest.mark.parametrize("name", ["disk2", "disk3", "disk4", "disk5", "jittered", "delaunay"])
    def test_cached_order_counts_equal_eigen_counts(self, disk, fuzz_meshes, band_calls, name):
        # every count takes the route of a slice, one banded Cholesky each on
        # the band (disk L2, L3 and both fuzz meshes) and none through the
        # fronts, which only a fronts route builds; each matches a full dense
        # eigensolve, between and near pairs
        mesh = disk(int(name[-1]))[0] if name.startswith("disk") else fuzz_meshes[name][0]
        forms = assemble(mesh)
        fi, n_b = forms.factor_input, len(forms.boundary_dofs)
        for c in (0.0, 2.0):
            vals = robin_steklov_spectrum(forms, c, n_b).eigenvalues
            band_calls.clear()
            levels = [0.5 * (a + b) for a, b in zip(vals, vals[1:]) if b - a > 1e-6 * abs(b)]
            levels = levels[:: max(1, len(levels) // 8)] + [vals[0] - 1.0, vals[-1] + 1.0]
            for lam in levels:
                assert count_below(forms, c, lam) == np.count_nonzero(vals < lam)
            assert band_calls == ([len(forms.interior_dofs)] * len(levels) if fi.banded else [])
        assert fi.banded == (name in ("disk2", "disk3", "jittered", "delaunay"))
        assert ("_tree" in vars(fi)) != fi.banded


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
    # the kernel of every slice, on its own pencils
    def test_diagonal_pencil(self):
        w, _ = spectral._dense_gevp(np.diag([1.0, 2.0]), np.eye(2), 2)
        assert np.allclose(w, [1.0, 2.0])

    def test_equal_matrices_give_ones(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        w, _ = spectral._dense_gevp(a, a, 2)
        assert np.allclose(w, 1.0)

    def test_random_pencil_residuals(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((20, 20))
        a = q + q.T
        p = rng.standard_normal((20, 20))
        b = p @ p.T + 20 * np.eye(20)
        w, v = spectral._dense_gevp(a, b, 20)
        residuals = np.linalg.norm(a @ v - b @ v * w, axis=0)
        assert residuals.max() <= 1e-9 * np.linalg.norm(a, 2)


class TestEigenCurves:
    # branch (i, j) at t is rho_j at c = t * rho_i: a branch is a function of c
    def test_zero_factor_gives_constant_curve(self, disk):
        # rho_i = 0 puts every t at c = 0, the Steklov slice
        _, forms = disk(2)
        vals = np.array([robin_steklov_spectrum(forms, t * 0.0, 2).eigenvalues[1]
                         for t in (0.5, 1.0, 2.0)])
        assert np.abs(vals - vals[0]).max() < 1e-12
        assert vals[0] == pytest.approx(steklov_spectrum(forms, 2).eigenvalues[1])

    def test_disk_branch_matches_bessel_quotient(self, disk):
        _, forms = disk(4)
        for c in np.linspace(0.2, 3.0, 6):
            got = robin_steklov_spectrum(forms, c, 1).eigenvalues[0]
            want = oracle.disk_robin_steklov(0, c)
            assert abs(got - want) / want < 0.02

    def test_strictly_increasing_for_positive_factor(self, disk):
        _, forms = disk(2)
        for rho_i in [1.0, 2.0]:
            vals = [robin_steklov_spectrum(forms, t * rho_i, 1).eigenvalues[0]
                    for t in np.linspace(0.1, 4.0, 12)]
            assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("banded", [True, False], ids=["band", "multifrontal"])
    def test_grouped_branches_equal_single_slices(self, disk, banded, monkeypatch):
        # the eigencurve command reads every branch of one t from one slice
        # of max(j) + 1 pairs; each must agree with the slice sized for that
        # branch alone
        _, forms = disk(3)
        monkeypatch.setattr(forms.factor_input, "banded", banded)
        for c in (0.4, 2.0, 9.0):
            grouped = robin_steklov_spectrum(forms, c, 4).eigenvalues
            for j in range(4):
                want = robin_steklov_spectrum(forms, c, j + 1).eigenvalues[j]
                assert abs(grouped[j] - want) <= 1e-12 * abs(want)


def _dense_interior_solve(forms, c):
    """A_bb - A_ib' A_ii^-1 A_ib and A_ii^-1 A_ib of A = K + c M, by a dense
    solve in the assembled numbering: the reference for the banded Cholesky."""
    A = (forms.K + c * forms.M).toarray()
    bnd, inner = forms.boundary_dofs, forms.interior_dofs
    A_ib = A[np.ix_(inner, bnd)]
    X = np.linalg.solve(A[np.ix_(inner, inner)], A_ib)
    return A[np.ix_(bnd, bnd)] - A_ib.T @ X, X


class TestInteriorCholesky:
    @pytest.fixture(params=["disk2", "disk3", "disk4", "interval50", "interval1000",
                            "jittered", "delaunay"])
    def forms(self, request, disk, interval, fuzz_meshes):
        name = request.param
        if name.startswith("disk"):
            return disk(int(name[4:]))[1]
        if name.startswith("interval"):
            return interval(int(name[8:]), 1.0)[1]
        return fuzz_meshes[name][1]

    @pytest.mark.parametrize("c", [0.0, 3.0, 100.0])
    def test_schur_complement_equals_dense_solve(self, forms, c):
        # relative to A_bb, from which S is a difference: on the interval
        # n = 1000, S is about 500 times smaller than A_bb, and both the
        # reference and W'W lose digits to that cancellation (5e-13 and
        # 1.5e-12 of S at c = 3, against the exact Schur complement)
        want, _ = _dense_interior_solve(forms, c)
        fi = forms.factor_input
        A_bb = fi.boundary(c)
        got = spectral._schur_complement(fi, c, A_bb)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(A_bb).max()

    @pytest.mark.parametrize("c", [0.0, 3.0, 100.0])
    def test_harmonic_extension_equals_dense_solve(self, forms, c):
        _, X = _dense_interior_solve(forms, c)
        trace = np.cos(np.arange(len(forms.boundary_dofs)))
        phi = harmonic_extension(forms, trace, c)
        want = -X @ trace
        assert np.array_equal(phi[forms.boundary_dofs], trace)
        assert np.abs(phi[forms.interior_dofs] - want).max() <= 1e-12 * np.abs(want).max()

    def test_interior_order_is_a_permutation_of_interior_dofs(self, forms):
        assert np.array_equal(np.sort(forms.factor_input.interior_order), forms.interior_dofs)

    def test_interval_interior_block_is_tridiagonal(self, interval):
        _, forms = interval(1000, 1.0)
        band = forms.factor_input.interior
        assert band.shape == (2, len(forms.interior_dofs))

    def test_non_positive_pivot_raises(self, disk):
        # A_ii = K_ii + c M_ii is indefinite once c is below minus its
        # lowest Dirichlet eigenvalue (about 5.8 on the unit disk)
        _, forms = disk(2)
        fi = forms.factor_input
        with pytest.raises(EigensolverError, match="interior block factorization failed"):
            spectral._schur_complement(fi, -100.0, fi.boundary(-100.0))


def _wrapper_slice(forms, c, k):
    """A band-route slice by scipy's wrappers, the way the slice was formed
    before it called LAPACK directly: la.cholesky_banded of the band of A_ii,
    a CSC A_ib densified, dtbtrs and la.eigh with an index subset.  Every
    block is read off the assembled K + c M, in the cached interior order."""
    fi = forms.factor_input
    order, bnd = fi.interior_order, forms.boundary_dofs
    A = (forms.K + c * forms.M).tocsr()
    S = A[bnd][:, bnd].toarray()
    if len(order):
        A_ii = A[order][:, order].toarray()
        bw = fi.interior.shape[0] - 1
        band = np.zeros((bw + 1, len(order)), order="F")
        for d in range(bw + 1):
            band[bw - d, d:] = np.diagonal(A_ii, d)
        U = la.cholesky_banded(band, overwrite_ab=True, check_finite=False)
        A_ib = sp.csc_matrix(A[order][:, bnd]).toarray(order="F")
        W, info = lapack.dtbtrs(U, A_ib, uplo="U", trans="T", overwrite_b=True)
        assert info == 0
        S = S - W.T @ W
        S = 0.5 * (S + S.T)
    return la.eigh(S, forms.B[bnd][:, bnd].toarray(), subset_by_index=[0, k - 1])


class TestDirectLapackSlice:
    """Band-route slices call dpbtrf, dtbtrs and dsygvx themselves, on
    Fortran-order arrays scattered from cached positions."""

    @pytest.fixture(params=["interval1000", "interval1", "disk2", "disk3", "disk4",
                            "jittered", "delaunay"])
    def forms(self, request, disk, interval, fuzz_meshes):
        name = request.param
        if name.startswith("disk"):
            return disk(int(name[4:]))[1]
        if name.startswith("interval"):
            return interval(int(name[8:]), 1.0)[1]
        return fuzz_meshes[name][1]

    @pytest.mark.parametrize("c", [0.0, 3.0, 100.0])
    def test_band_slice_equals_the_scipy_wrappers_bit_for_bit(self, forms, c, monkeypatch):
        # disk L4 takes the fronts unless the band is forced
        monkeypatch.setattr(forms.factor_input, "banded", True)
        n_b = len(forms.boundary_dofs)
        for k in sorted({1, min(4, n_b), n_b}):
            got = robin_steklov_spectrum(forms, c, k)
            w, v = _wrapper_slice(forms, c, k)
            assert np.array_equal(got.eigenvalues, w)
            assert np.array_equal(got.eigenvectors, v)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_dense_gevp_equals_eigh_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        p, q = rng.standard_normal((2, n, n))
        a, b = p @ p.T + np.eye(n), q @ q.T + n * np.eye(n)
        for k in sorted({1, (n + 1) // 2, n}):
            w, v = spectral._dense_gevp(a, b, k)
            want_w, want_v = la.eigh(a, b, subset_by_index=[0, k - 1])
            assert np.array_equal(w, want_w) and np.array_equal(v, want_v)

    @pytest.mark.parametrize("name", ["interval", "disk3"])
    def test_band_slice_budget(self, disk, interval, name, monkeypatch):
        # built forms: a slice constructs no sparse matrix, calls neither
        # scipy wrapper and makes one call of each LAPACK routine
        forms = interval(1000, 1.0)[1] if name == "interval" else disk(3)[1]
        fi = forms.factor_input
        fi.interior, fi.coupling, fi.banded
        base = next(cls for cls in sp.csc_matrix.__mro__ if cls.__name__ == "_spbase")
        monkeypatch.setattr(base, "__init__", lambda *a, **kw: pytest.fail("sparse matrix"))
        for wrapper in ("eigh", "cholesky_banded"):
            monkeypatch.setattr(la, wrapper,
                                lambda *a, _w=wrapper, **kw: pytest.fail(f"la.{_w}"))
        calls = []
        for routine in ("dpbtrf", "dtbtrs", "dsygvx"):
            original = getattr(spectral.lapack, routine)
            monkeypatch.setattr(spectral.lapack, routine,
                                lambda *a, _f=original, _r=routine, **kw:
                                calls.append(_r) or _f(*a, **kw))
        robin_steklov_spectrum(forms, 2.0, 2)
        assert calls == ["dpbtrf", "dtbtrs", "dsygvx"]
        with pytest.raises(pytest.fail.Exception, match="sparse matrix"):
            sp.csc_matrix(np.eye(1))  # the guard sees every construction

    def test_indefinite_b_raises(self):
        with pytest.raises(EigensolverError, match="dense generalized eigensolver failed"):
            spectral._dense_gevp(np.eye(2), np.diag([1.0, -1.0]), 1)

    @pytest.mark.parametrize("fault", ["info", "short"])
    def test_failed_or_short_subset_raises(self, disk, fault, monkeypatch):
        # LAPACK's info, or fewer pairs than asked: never a short subset
        _, forms = disk(2)
        dsygvx = spectral.lapack.dsygvx

        def faulty(*args, **kwargs):
            w, v, m, ifail, info = dsygvx(*args, **kwargs)
            return (w, v, m, ifail, 1) if fault == "info" else (w, v[:, :-1], m - 1, ifail, 0)

        monkeypatch.setattr(spectral.lapack, "dsygvx", faulty)
        with pytest.raises(EigensolverError, match="dense generalized eigensolver failed"):
            robin_steklov_spectrum(forms, 1.0, 4)
        with pytest.raises(EigensolverError, match="dense generalized eigensolver failed"):
            spectral._dense_gevp(np.eye(3), np.eye(3), 2)


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

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_coefficient_rejected(self, disk, c):
        # the band Cholesky would return NaN values, or fail, without a word
        _, forms = disk(2)
        with pytest.raises(PreconditionError, match="bulk coefficient must be finite"):
            harmonic_extension(forms, np.ones(len(forms.boundary_dofs)), c)
