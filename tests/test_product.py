import json
import math

import numpy as np
import pytest
import scipy.linalg as la
from conftest import delaunay_disks
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklovbif import (
    ProductModel,
    assemble,
    conformal_mean_curvature,
    from_list,
    generate_disk,
    load_model,
    mean_curvature_gt,
    morse_index,
    nullity,
    product,
    scale_metric_forms,
    steklov_spectrum,
    yamabe_residual,
)
from steklovbif.errors import (
    ConfigError,
    CutoffExhaustedError,
    DegenerateInstantError,
    HhatIsSteklovEigenvalueError,
    PreconditionError,
)
from steklovbif.product import model_from_dict, normalize_boundary_power
from steklovbif.spectral import count_below, harmonic_extension

# oracle root of the lowest disk branch at target 1/3 (Hhat of the disk x torus model)
C_STAR = 0.7253659025


def _inertia_count(model, t, level):
    """Multiplicity-weighted number of Jacobi branches below level at t, by
    one inertia count per factor index: the reference for the c_j* table."""
    forms = model.boundary_forms
    total = count_below(forms, 0.0, level) - 1  # the Steklov row, without the constant
    for i in range(1, len(model.factor)):
        n = count_below(forms, t * model.factor.value(i), level)
        if n == 0:
            return total
        total += model.factor.multiplicity(i) * n
    raise AssertionError(f"factor spectrum exhausted at t={t}")


def _bisected_table(forms, hhat):
    """c_j* per j, descending, by the count bisection the table once used:
    rho_j(c) < hhat exactly when more than j eigenvalues lie below hhat, so
    doubling and bisection on counts bracket c_j* to a relative width of
    1e-9."""
    table = []
    for j in range(count_below(forms, 0.0, hhat)):
        lo, hi = 0.0, 1.0
        while count_below(forms, hi, hhat) > j:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if count_below(forms, mid, hhat) > j else (lo, mid)
        table.append(0.5 * (lo + hi))
    return table


def unit_boundary_disk_forms(level=3):
    mesh = generate_disk(level)
    forms = assemble(mesh)
    # homothety with t = P^-2 makes the boundary measure exactly 1 (m2 = 2)
    return mesh, scale_metric_forms(forms, mesh.boundary_measure() ** -2.0, 2)


class TestProductModel:
    def test_hhat_formula(self, disk_torus_model):
        model = disk_torus_model(2, 20.0)
        assert (model.m1, model.m2, model.m) == (2, 2, 4)
        assert model.Hhat == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_minimum_dimension_enforced(self, interval):
        mesh, forms = interval(4, 1.0)
        one_dim = from_list([(0.0, 1), (1.0, 2)], m1=1)
        with pytest.raises(PreconditionError, match=">= 3"):
            ProductModel(one_dim, mesh, forms, H2=0.0)

    def test_boundary_spectrum_exhaustion_is_loud(self, disk, square_torus):
        # disk L0 has 4 boundary dofs, so 4 discrete Steklov eigenvalues; an
        # Hhat above all of them is above the whole discrete spectrum, which
        # the mesh must be refined to resolve
        mesh, forms = disk(0)
        n_b = len(forms.boundary_dofs)
        sigma_max = steklov_spectrum(forms, n_b).eigenvalues[-1]
        model = ProductModel(square_torus(20.0), mesh, forms, H2=3.0 * 2.0 * sigma_max)
        assert count_below(forms, 0.0, model.Hhat) == n_b
        with pytest.raises(CutoffExhaustedError, match="boundary spectrum exhausted"):
            model.critical_windows

    def test_dropped_copy_of_a_double_root_raises(self, disk, square_torus, monkeypatch):
        # Lanczos returning one copy of the disk's double root c_1* = c_2* at
        # Hhat = 4/3, and in place of the other an eigenvector of the negative
        # c nearest zero: a refined value is not positive, where the inertia
        # of S(0) - Hhat B_bb puts all three
        from steklovbif import spectral
        from steklovbif.errors import EigensolverError

        mesh, forms = disk(3)
        model = ProductModel(square_torus(20.0), mesh, forms, H2=4.0)
        c, u = la.eigh((model.Hhat * forms.B - forms.K).toarray(), forms.M.toarray())
        negative = u[:, np.flatnonzero(c < 0)[-1]]  # M-normalized, as ARPACK's vectors
        eigsh = spectral.spla.eigsh

        def dropping(*args, **kwargs):
            w, v = eigsh(*args, **kwargs)
            v[:, 1 + int(np.argmin(np.diff(w)))] = negative  # the second copy of the double root
            return w, v

        monkeypatch.setattr(spectral.spla, "eigsh", dropping)
        with pytest.raises(EigensolverError,
                           match=r"at 1\.33333333333: 3 are positive, .* returned -3\.72"):
            model.critical_windows

    def test_values_shifted_after_rayleigh_ritz_raise(self, disk, monkeypatch):
        # every refined c_j* moved by 1e-5 relative: the pairs' residuals show it
        from steklovbif import spectral
        from steklovbif.errors import EigensolverError

        dense_gevp = spectral._dense_gevp

        def shifted(a, b, k):
            w, y = dense_gevp(a, b, k)
            return w * (1 + 1e-5), y

        monkeypatch.setattr(spectral, "_dense_gevp", shifted)
        with pytest.raises(EigensolverError, match="level-crossing eigenpair residual"):
            spectral.level_crossings(disk(3)[1], 4.0 / 3.0)

    @pytest.mark.parametrize("scale", [1 + 1e-6, 1 - 1e-6])
    @pytest.mark.parametrize("level, lam", [(3, 4.0 / 3.0), (4, 1.0 / 3.0), (4, 7.0 / 3.0)])
    def test_values_scaled_within_the_residual_check_raise(self, disk, monkeypatch, level,
                                                            lam, scale):
        # 1e-6 relative passes the residual check but not the residual bound,
        # so every group takes its bracket counts; the inertia count beside
        # the lowest (or highest) bracket window finds one group fewer (or
        # more) above it than the table
        from steklovbif import spectral
        from steklovbif.errors import EigensolverError

        forms = disk(level)[1]
        dense_gevp = spectral._dense_gevp

        def scaled(a, b, k):
            w, y = dense_gevp(a, b, k)
            return w * scale, y

        monkeypatch.setattr(spectral, "_dense_gevp", scaled)
        with pytest.raises(EigensolverError, match="an inertia count puts"):
            spectral.level_crossings(forms, lam)

    @pytest.mark.parametrize("H2", [1.0, 4.0, 7.0])
    @pytest.mark.parametrize("mesh_name", ["disk3", "disk4", "jittered", "delaunay"])
    def test_table_matches_count_bisection(self, disk, fuzz_meshes, square_torus, mesh_name, H2):
        # Hhat = 1/3, 4/3 and 7/3; the symmetric disks have c_1* = c_2* at 4/3
        # and two double roots at 7/3
        mesh = disk(int(mesh_name[-1]))[0] if mesh_name.startswith("disk") else (
            fuzz_meshes[mesh_name][0])
        first, second = (
            ProductModel(square_torus(20.0), mesh, assemble(mesh), H2=H2)
            for _ in range(2)
        )
        table = first.critical_windows[:, 0]
        assert np.array_equal(first.critical_windows, second.critical_windows)  # bit for bit
        reference = np.array(_bisected_table(first.boundary_forms, first.Hhat))
        assert table.shape == reference.shape == ({1.0: 1, 4.0: 3, 7.0: 5}[H2],)
        np.testing.assert_allclose(table, reference, rtol=1e-9, atol=0)


class TestTableProof:
    """level_crossings proves each c_j* by Kahan's residual bound, and a root
    group that the bound cannot prove by two inertia counts beside it."""

    @pytest.mark.parametrize("name", ["interval", "disk3", "jittered", "delaunay"])
    def test_mass_dominates_half_its_diagonal(self, interval, disk, fuzz_meshes, name):
        # every P1 element mass is vol/((d+1)(d+2)) (11' + I), so M >= diag(M)/2
        # in every dimension; and M <= (d+2)/2 diag(M), from the eigenvalue
        # d + 2 of 11' + I, so conformal_mean_curvature's harmonicity check is
        # stricter than the exact mass-dual norm by at most sqrt(d + 2)
        mesh, forms = {"interval": interval(50, 1.0), "disk3": disk(3)}.get(name) or \
            fuzz_meshes[name]
        M = forms.M.toarray()
        ratios = la.eigh(M, np.diag(np.diag(M)), eigvals_only=True)
        assert ratios[0] >= 0.5 * (1 - 1e-12)
        assert ratios[-1] <= (mesh.dim + 2) / 2 * (1 + 1e-12)

    @staticmethod
    def _bounds_and_brackets(monkeypatch):
        """Every residual bound level_crossings computes, and the c of every
        inertia count it makes beside a root group."""
        from steklovbif import spectral

        bounds, brackets = [], []
        kahan_bound, count_below = spectral._kahan_bound, spectral.count_below

        def bound(*args):
            bounds.append(kahan_bound(*args))
            return bounds[-1]

        def bracket(forms, c, lam):
            brackets.append(c)
            return count_below(forms, c, lam)

        monkeypatch.setattr(spectral, "_kahan_bound", bound)
        monkeypatch.setattr(spectral, "count_below", bracket)
        return bounds, brackets

    @pytest.mark.parametrize("H2", [1.0, 4.0, 7.0])
    @pytest.mark.parametrize("mesh_name", ["disk2", "disk3", "disk4", "disk5", "jittered",
                                           "delaunay"])
    def test_bound_proves_every_root(self, disk, fuzz_meshes, square_torus, monkeypatch,
                                     mesh_name, H2):
        # Hhat = 1/3, 4/3 and 7/3, double roots on the symmetric disks: eta is
        # far inside BRACKET_RTOL of the least root, so no bracket count runs
        mesh, forms = disk(int(mesh_name[-1])) if mesh_name.startswith("disk") else (
            fuzz_meshes[mesh_name])
        bounds, brackets = self._bounds_and_brackets(monkeypatch)
        table = ProductModel(square_torus(20.0), mesh, forms, H2=H2).critical_windows[:, 0]
        assert len(bounds) == 1 and bounds[0] <= 1e-9 * min(table)
        assert brackets == []

    def test_root_at_rounding_level_takes_the_bracket_counts(self, disk, square_torus,
                                                             monkeypatch):
        # Hhat 1e-7 relative above the double sigma_1 of disk L2 puts a double
        # root at c* = 4e-7, where eta, at rounding level, exceeds
        # BRACKET_RTOL c*: that group alone takes two counts, and the table is
        # the one every group's counts prove, by a third route too
        from steklovbif import spectral
        from steklovbif.spectral import BRACKET_RTOL

        mesh, forms = disk(2)
        sigma = steklov_spectrum(forms, 3).eigenvalues[1]

        def model():
            return ProductModel(square_torus(20.0), mesh, forms, H2=3.0 * sigma * (1 + 1e-7))

        bounds, brackets = self._bounds_and_brackets(monkeypatch)
        proved = model().critical_windows[:, 0]
        assert len(proved) == 3 and proved[1] < 1e-6
        assert BRACKET_RTOL * proved[1] < bounds[0] <= 1e-9 * proved[0]
        assert len(brackets) == 2 and max(brackets) < 1e-6
        monkeypatch.setattr(spectral, "_kahan_bound", lambda *args: np.inf)
        assert np.array_equal(model().critical_windows[:, 0], proved)
        assert len(brackets) == 2 + 4
        np.testing.assert_allclose(proved, _bisected_table(forms, model().Hhat),
                                   rtol=BRACKET_RTOL, atol=0)


class TestMeanCurvature:
    def test_values_from_formula(self, disk_torus_model):
        model = disk_torus_model(1, 20.0)
        assert mean_curvature_gt(model, 1.0) == pytest.approx(1.0 / 3.0)
        assert mean_curvature_gt(model, 4.0) == pytest.approx(1.0 / 6.0)

    def test_flat_boundary_gives_zero(self, torus_interval_model):
        model = torus_interval_model(50)
        for t in [0.1, 1.0, 7.0]:
            assert mean_curvature_gt(model, t) == 0.0

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_nonpositive_t_rejected(self, disk_torus_model, t):
        with pytest.raises(PreconditionError):
            mean_curvature_gt(disk_torus_model(1, 20.0), t)


class TestMorseIndex:
    def test_flat_boundary_index_zero(self, torus_interval_model):
        model = torus_interval_model(100)
        for t in [0.01, 1.0, 100.0]:
            assert morse_index(model, t) == 0

    def test_zero_past_first_instant(self, disk_torus_model):
        model = disk_torus_model(4, 20.0)
        assert morse_index(model, 1.1 * C_STAR) == 0

    def test_first_crossing_multiplicity_below(self, disk_torus_model):
        model = disk_torus_model(4, 20.0)
        assert morse_index(model, 0.9 * C_STAR) == 4

    def test_cutoff_exhaustion_is_loud(self, disk):
        # at t = 0.05 the lowest branch of the last factor index is still
        # below Hhat: the last listed row is not empty
        mesh, forms = disk(1)
        short = from_list([(0.0, 1), (1.0, 4)], m1=2)
        model = ProductModel(short, mesh, forms, H2=1.0)
        with pytest.raises(CutoffExhaustedError, match="factor spectrum cutoff"):
            morse_index(model, 0.05)

    def test_one_cutoff_rule(self, disk_torus_model):
        # enumeration and Morse indices close the factor spectrum at the same
        # t: where the lowest branch of the last factor index meets Hhat
        from steklovbif import enumerate_instants

        model = disk_torus_model(3, 20.0)
        edge = model.critical_windows[0, 0] / model.factor.value(len(model.factor) - 1)
        short = edge * (1 - 1e-3)
        with pytest.raises(CutoffExhaustedError, match="factor spectrum cutoff"):
            enumerate_instants(model, short, 10.0)
        with pytest.raises(CutoffExhaustedError, match="factor spectrum cutoff"):
            morse_index(model, short)
        enumerate_instants(model, edge * (1 + 1e-3), 10.0)
        morse_index(model, edge * (1 + 1e-3))

    def test_truncation_wins_over_degeneracy(self, disk):
        # at the instant of the only positive factor index, its row is both
        # degenerate and the last listed one
        mesh, forms = disk(1)
        short = from_list([(0.0, 1), (1.0, 4)], m1=2)
        model = ProductModel(short, mesh, forms, H2=1.0)
        with pytest.raises(CutoffExhaustedError, match="factor spectrum cutoff"):
            morse_index(model, model.critical_windows[0, 0])

    @pytest.mark.parametrize("H2", [0.0, -1.0])
    def test_zero_only_factor_gives_steklov_row(self, disk, H2):
        # Hhat <= 0 empties the table, so no factor index i >= 1 is needed
        mesh, forms = disk(1)
        model = ProductModel(from_list([(0.0, 1)], m1=2), mesh, forms, H2=H2)
        assert morse_index(model, 1.0) == 0
        assert nullity(model, 1.0) == 0

    def test_degenerate_instant_raises(self, disk_torus_model):
        model = disk_torus_model(3, 20.0)
        from steklovbif import find_degeneracy_instant

        t1 = find_degeneracy_instant(model, 1)
        with pytest.raises(DegenerateInstantError, match="degenerate at t"):
            morse_index(model, t1)

    def test_nonincreasing_in_t(self, disk_torus_model):
        model = disk_torus_model(2, 20.0)
        scale = 0.7255  # discrete first instant is near the oracle value
        grid = scale * np.array([0.21, 0.35, 0.7, 1.4, 2.8])
        indices = [morse_index(model, t) for t in grid]
        assert indices == sorted(indices, reverse=True)
        assert indices[-1] == 0

    def test_matches_brute_force_rectangle(self, disk_torus_model):
        from steklovbif import robin_steklov_spectrum

        model = disk_torus_model(2, 20.0)
        t = 0.31
        expected = 0
        # dense rectangle: every factor entry x first 12 branch positions
        for i in range(1, len(model.factor)):
            vals = robin_steklov_spectrum(
                model.boundary_forms, t * model.factor.value(i), 12
            ).eigenvalues
            expected += model.factor.multiplicity(i) * int(np.sum(vals < model.Hhat))
        steklov = robin_steklov_spectrum(model.boundary_forms, 0.0, 12).eigenvalues
        expected += int(np.sum(steklov[1:] < model.Hhat))
        assert morse_index(model, t) == expected

    @pytest.mark.parametrize("name", ["jittered", "delaunay"])
    @settings(max_examples=30)
    @given(t=st.floats(0.25, 5.0))
    def test_table_index_equals_inertia_walk(self, fuzz_torus_model, name, t):
        # Hhat = 4/3 lies above sigma_1 and sigma_2, which the missing
        # symmetry splits: three distinct c_j*
        model = fuzz_torus_model(name, 4.0)
        c_stars = model.critical_windows[:, 0]
        rho = np.array([v for v, _ in model.factor.entries[1:]])
        # away from every instant c_j* / rho_i
        assume(np.min(np.abs(np.outer(rho, 1.0 / c_stars) * t - 1.0)) > 1e-3)
        assert len(c_stars) == 3
        assert morse_index(model, t) == _inertia_count(model, t, model.Hhat)

    @settings(max_examples=50)
    @given(mesh=delaunay_disks(), t=st.floats(0.50, 5.0))
    def test_table_index_equals_inertia_walk_on_drawn_disks(self, square_torus, mesh, t):
        # on a drawn disk x torus at Hhat = 4/3, at t outside every window
        # and above the edge
        model = ProductModel(square_torus(20.0), mesh, assemble(mesh), H2=4.0)
        table = model.instants
        assume(not table.truncated(t))
        assume(np.all((t * table.rho < table.low) | (t * table.rho > table.high)))
        assert morse_index(model, t) == _inertia_count(model, t, model.Hhat)

    def test_table_built_then_nothing_counted_or_solved(self, disk_torus_model, monkeypatch):
        from steklovbif import classify, spectral

        model = disk_torus_model(3, 20.0)
        model.critical_windows

        def forbidden(*args, **kwargs):
            raise AssertionError("counted or solved after the table was built")

        for name in ("count_below", "robin_steklov_spectrum", "_multifrontal_schur"):
            monkeypatch.setattr(spectral, name, forbidden)
        t1 = model.critical_windows[0, 0]
        assert [morse_index(model, t) for t in (0.1, 0.5, 2.0)] == [20, 4, 0]
        assert nullity(model, t1) == 4
        assert [classify(model, t) for t in (0.5, t1)] == ["rigid", "degenerate"]


class TestInstantTable:
    def test_order_ties_and_edge(self, disk):
        # c_j* = 4, 2, 1 over factor eigenvalues 1, 2, 4: ties at t = 2, 1 and
        # 0.5 go by i, then j; the edge is the top of the window of 4 / 4, and
        # every window is the row's, as level_crossings returns it
        from steklovbif.spectral import BRACKET_RTOL

        mesh, forms = disk(1)
        factor = from_list([(0.0, 1), (1.0, 3), (2.0, 1), (4.0, 2)], m1=2)
        model = ProductModel(factor, mesh, forms, H2=1.0)
        c_star = np.array([4.0, 2.0, 1.0])
        windows = np.column_stack((c_star, c_star * (1 - BRACKET_RTOL), c_star * (1 + BRACKET_RTOL)))
        model.__dict__["critical_windows"] = windows  # set, not solved
        table = model.instants
        assert np.array_equal(table.high, windows[table.j, 2])
        assert list(zip(table.t.tolist(), table.i.tolist(), table.j.tolist())) == [
            (4.0, 1, 0), (2.0, 1, 1), (2.0, 2, 0), (1.0, 1, 2), (1.0, 2, 1), (1.0, 3, 0),
            (0.5, 2, 2), (0.5, 3, 1), (0.25, 3, 2)]
        assert table.mu.tolist() == [3, 3, 1, 3, 1, 2, 1, 2, 2]
        assert np.array_equal(table.low, table.t * table.rho * (1 - BRACKET_RTOL))
        assert table.steklov == 2
        assert table.edge == (4.0, 4.0 * (1 + BRACKET_RTOL))
        assert table.truncated(1.0) and not table.truncated(1.0 + 2 * BRACKET_RTOL)
        with pytest.raises(CutoffExhaustedError, match="exhausted at t=1 "):
            morse_index(model, 1.0)
        assert morse_index(model, 1.5) == 2 + 3 * 2 + 1  # steklov, (1, 0), (1, 1), (2, 0)
        with pytest.raises(DegenerateInstantError, match="1 branch.* i=1 "):
            morse_index(model, 2.0)
        assert nullity(model, 2.0) == 3 + 1

    def test_no_roots_no_edge_and_constant_alone_all_edge(self, disk):
        mesh, forms = disk(1)
        flat = ProductModel(from_list([(0.0, 1), (1.0, 4)], m1=2), mesh, forms, H2=0.0)
        assert len(flat.instants.t) == 0 and not flat.instants.truncated(1e-300)
        constant = ProductModel(from_list([(0.0, 1)], m1=2), mesh, forms, H2=1.0)
        assert len(constant.instants.t) == 0 and constant.instants.truncated(1e300)


class TestNullity:
    def test_generic_t_zero(self, disk_torus_model):
        model = disk_torus_model(3, 20.0)
        assert nullity(model, 0.5) == 0

    def test_at_first_instant(self, disk_torus_model):
        from steklovbif import find_degeneracy_instant

        model = disk_torus_model(3, 20.0)
        t1 = find_degeneracy_instant(model, 1)
        assert nullity(model, t1) == 4

    def test_flat_boundary_zero(self, torus_interval_model):
        model = torus_interval_model(100)
        for t in [0.05, 1.0, 20.0]:
            assert nullity(model, t) == 0

    def test_steklov_membership_is_the_bracket_window(self, disk, square_torus):
        # Hhat 1e-9 relative above the double sigma_1 of the symmetric disk
        # lies inside the BRACKET_RTOL window of a Steklov eigenvalue, whose
        # branches are constant in t; 1e-7 above lies outside it, and the
        # table's Morse index is the inertia walk's
        mesh, forms = disk(2)
        sigma = steklov_spectrum(forms, 3).eigenvalues
        assert sigma[2] - sigma[1] < 1e-12 * sigma[1]

        def model(offset):
            return ProductModel(square_torus(20.0), mesh, forms, H2=3.0 * sigma[1] * (1 + offset))

        with pytest.raises(HhatIsSteklovEigenvalueError, match="Hhat"):
            morse_index(model(1e-9), 5.0)
        outside = model(1e-7)
        for t in (0.5, 2.0, 5.0):
            assert morse_index(outside, t) == _inertia_count(outside, t, outside.Hhat)
        assert morse_index(outside, 5.0) == 2  # the Steklov row: both copies of sigma_1

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("name", ["jittered", "delaunay"])
    def test_window_edges_match_inertia_walk(self, fuzz_torus_model, name, side):
        # branch (1, j) at c = c_j* (1 -/+ 2 BRACKET_RTOL) lies outside the
        # window, where the table's Morse index must be the inertia walk's;
        # at c = c_j* it lies inside, and the nullity is mu_1 times the
        # multiplicity of c_j*
        from steklovbif.spectral import BRACKET_RTOL

        model = fuzz_torus_model(name, 4.0)
        rho_1, mu_1 = model.factor.value(1), model.factor.multiplicity(1)
        c_stars = model.critical_windows[:, 0]
        assert len(c_stars) == 3
        for c_star in c_stars:
            t = c_star * (1 + side * 2 * BRACKET_RTOL) / rho_1
            assert morse_index(model, t) == _inertia_count(model, t, model.Hhat)
            assert nullity(model, t) == 0
            with pytest.raises(DegenerateInstantError, match="i=1"):
                morse_index(model, c_star / rho_1)
            multiplicity = sum(abs(c / c_star - 1) <= BRACKET_RTOL for c in c_stars)
            assert nullity(model, c_star / rho_1) == mu_1 * multiplicity


class TestConformalMeanCurvature:
    def test_normalized_constant_returns_boundary_curvature(self):
        mesh, forms = unit_boundary_disk_forms()
        phi = np.ones(mesh.n_vertices)
        for H_g in [1.0 / 3.0, 0.8]:
            assert conformal_mean_curvature(forms, phi, H_g, m=4) == pytest.approx(
                H_g, abs=1e-10
            )

    def test_direct_substitution_formula(self):
        # 2/(m-2) * 0.3 + H_g * 1 with m = 4, H_g = 1/3
        mesh, forms = unit_boundary_disk_forms()
        trace = np.ones(len(forms.boundary_dofs))
        phi = harmonic_extension(forms, trace)
        K = forms.K
        target_energy = 0.3

        # build a harmonic phi with prescribed Dirichlet energy on top of the
        # constant, then renormalize to the unit boundary power integral
        x_trace = mesh.vertices[forms.boundary_dofs, 0]
        bump = harmonic_extension(forms, x_trace)
        energy = float(bump @ (K @ bump))
        phi = phi + math.sqrt(target_energy / energy) * bump
        phi = normalize_boundary_power(forms, phi, m=4)
        energy = float(phi @ (K @ phi))
        bmass = float(phi @ (forms.B @ phi))
        want = 2.0 / 2.0 * energy + (1.0 / 3.0) * bmass
        got = conformal_mean_curvature(forms, phi, 1.0 / 3.0, m=4)
        assert got == pytest.approx(want, rel=1e-12)

    def test_scaled_phi_breaks_normalization(self):
        mesh, forms = unit_boundary_disk_forms()
        phi = np.ones(mesh.n_vertices)
        with pytest.raises(PreconditionError, match="normalization"):
            conformal_mean_curvature(forms, 1.1 * phi, 1.0 / 3.0, m=4)

    def test_nonharmonic_phi_rejected(self):
        mesh, forms = unit_boundary_disk_forms()
        phi = np.ones(mesh.n_vertices)
        phi[forms.interior_dofs[0]] += 0.5
        with pytest.raises(PreconditionError, match="harmonic"):
            conformal_mean_curvature(forms, phi, 1.0 / 3.0, m=4)

    def test_no_sparse_solve(self, monkeypatch):
        # harmonicity is bounded by the diagonal of the mass matrix: SuperLU,
        # behind every spsolve, splu and spilu, is never called
        import scipy.sparse.linalg as spla

        def superlu(*args, **kwargs):
            raise AssertionError("SuperLU called")

        for name in ("spsolve", "splu", "spilu"):
            monkeypatch.setattr(spla, name, superlu)
        mesh, forms = unit_boundary_disk_forms()
        phi = np.ones(mesh.n_vertices)
        H_g = 1.0 / 3.0
        assert abs(conformal_mean_curvature(forms, phi, H_g, m=4) - H_g) <= 1e-10
        assert yamabe_residual(forms, phi, H_g, H_g, m=4) <= 1e-10
        phi[forms.interior_dofs[0]] += 0.5
        with pytest.raises(PreconditionError, match="harmonic"):
            conformal_mean_curvature(forms, phi, H_g, m=4)


    def test_nonpositive_boundary_value_rejected(self):
        _, forms = unit_boundary_disk_forms()
        trace = np.ones(len(forms.boundary_dofs))
        trace[0] = 0.0
        phi = harmonic_extension(forms, trace)
        with pytest.raises(PreconditionError, match="positive on the boundary"):
            normalize_boundary_power(forms, phi, m=4)
        with pytest.raises(PreconditionError, match="positive on the boundary"):
            conformal_mean_curvature(forms, phi, 1.0 / 3.0, m=4)


class TestYamabeResidual:
    def test_trivial_solution(self):
        mesh, forms = unit_boundary_disk_forms()
        phi = np.ones(mesh.n_vertices)
        assert yamabe_residual(forms, phi, 1.0 / 3.0, 1.0 / 3.0, m=4) <= 1e-10

    def test_wrong_candidate_scales_with_mismatch(self):
        mesh, forms = unit_boundary_disk_forms()
        phi = np.ones(mesh.n_vertices)
        H_g, H_c = 1.0 / 3.0, 0.5
        got = yamabe_residual(forms, phi, H_c, H_g, m=4)
        want = 0.5 * (4 - 2) * abs(H_g - H_c) * np.linalg.norm(forms.B @ phi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_random_phi_positive_residual(self):
        mesh, forms = unit_boundary_disk_forms()
        rng = np.random.default_rng(11)
        phi = 1.0 + 0.5 * rng.standard_normal(mesh.n_vertices)
        assert yamabe_residual(forms, phi, 1.0 / 3.0, 1.0 / 3.0, m=4) > 1e-3


class TestModelIO:
    MODEL_DOC = {
        "m1": 2,
        "m2": 2,
        "H2": 1.0,
        "factor": {
            "flat_torus": {
                "basis": [[2 * math.pi, 0.0], [0.0, 2 * math.pi]],
                "cutoff": 20.0,
            }
        },
        "boundary": {"builtin": "disk", "level": 2},
    }

    def test_load_model(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.MODEL_DOC))
        model = load_model(path)
        assert model.Hhat == pytest.approx(1.0 / 3.0)
        assert model.boundary_mesh.n_vertices == 81

    def test_inline_factor_and_interval_boundary(self):
        doc = {
            "m1": 2,
            "m2": 1,
            "H2": 0.0,
            "factor": {"dim": 2, "entries": [[0.0, 1], [1.0, 4]], "cutoff": 1.0},
            "boundary": {"builtin": "interval", "n": 10, "L": 2.0},
        }
        model = model_from_dict(doc)
        assert model.Hhat == 0.0
        assert model.boundary_mesh.n_cells == 10

    def test_factor_by_path(self, tmp_path):
        from steklovbif.factors import save_spectrum
        from steklovbif import flat_torus_spectrum

        save_spectrum(flat_torus_spectrum(2 * math.pi * np.eye(2), 5.0), tmp_path / "f.json")
        doc = dict(self.MODEL_DOC, factor={"path": "f.json"})
        model = model_from_dict(doc, base_dir=tmp_path)
        assert len(model.factor) == 5

    @pytest.mark.parametrize("key,value,detail", [
        ("m1", 3, "m1=3 does not match factor dimension 2"),
        ("m2", 3, "m2=3 does not match boundary mesh dimension 2"),
        ("m2", 1, "m2=1 does not match boundary mesh dimension 2"),
    ], ids=["m1-3", "m2-3", "m2-1"])
    def test_dimension_consistency_enforced(self, monkeypatch, key, value, detail):
        # a model file states m1 and m2; they must be the factor's and the
        # mesh's dimensions, checked before anything is assembled
        def forbidden(mesh):
            raise AssertionError("assembled a model whose dimensions do not match")

        monkeypatch.setattr(product, "assemble", forbidden)
        with pytest.raises(PreconditionError) as info:
            model_from_dict(dict(self.MODEL_DOC, **{key: value}))
        assert str(info.value) == detail

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing key"):
            model_from_dict({"m1": 2, "m2": 2, "H2": 1.0, "factor": {}})

    def test_unknown_boundary_rejected(self):
        doc = dict(self.MODEL_DOC, boundary={"builtin": "sphere"})
        with pytest.raises(ConfigError, match="boundary"):
            model_from_dict(doc)

