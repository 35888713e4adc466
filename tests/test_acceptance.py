"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as la

from steklovbif import (
    assemble,
    certify_bifurcation,
    classify,
    conformal_mean_curvature,
    enumerate_instants,
    generate_disk,
    generate_interval,
    oracle,
    robin_steklov_spectrum,
    scale_metric_forms,
    steklov_spectrum,
    yamabe_residual,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_1_disk_steklov_convergence(disk):
    with criterion(1, "disk Steklov convergence"):
        exact = np.array([0, 1, 1, 2, 2, 3, 3], dtype=float)
        errors = {}
        for level in (2, 3, 4):
            _, forms = disk(level)
            vals = steklov_spectrum(forms, 7).eigenvalues
            rel = np.abs(vals[1:] - exact[1:]) / exact[1:]
            errors[level] = abs(vals[1] - 1.0)
            if level == 4:
                assert rel.max() < 0.02
        for coarse, fine in ((2, 3), (3, 4)):
            order = math.log2(errors[coarse] / errors[fine])
            assert 1.6 <= order <= 2.4


def test_criterion_2_robin_steklov_oracle_agreement(disk):
    with criterion(2, "Robin-Steklov oracle agreement"):
        _, forms = disk(4)
        for c in (0.5, 1.0, 4.0):
            got = robin_steklov_spectrum(forms, c, 6).eigenvalues
            want = np.array(oracle.disk_spectrum(c, 6))
            assert np.all(np.abs(got - want) / want < 0.02)
            # multiplicity pattern 1, 2, 2 for the angular modes k = 0..2
            assert abs(got[1] - got[2]) < 1e-8 * got[1]
            assert abs(got[3] - got[4]) < 1e-8 * got[3]
            assert got[0] < got[1] and got[2] < got[3]


def test_criterion_3_interval_exactness(interval):
    with criterion(3, "interval exactness"):
        for L in (1.0, 2.0):
            _, forms = interval(1000, L)
            for c in (0.1, 1.0, 10.0):
                got = np.sort(robin_steklov_spectrum(forms, c, 2).eigenvalues)
                want = np.sort(
                    [
                        oracle.interval_robin_steklov("even", c, L),
                        oracle.interval_robin_steklov("odd", c, L),
                    ]
                )
                assert np.all(np.abs(got - want) / want < 1e-3)


@pytest.fixture(scope="module")
def disk_torus_instants(disk_torus_model):
    model = disk_torus_model(4, 20.0)
    return model, enumerate_instants(model, 0.05, 10.0)


def test_criterion_4_degeneracy_instants(disk_torus_instants):
    with criterion(4, "degeneracy instants disk x 2pi-torus"):
        model, records = disk_torus_instants
        assert model.Hhat == pytest.approx(1.0 / 3.0, abs=1e-15)
        # oracle root computed before touching the FEM answers
        c_star = oracle.solve_branch_root(oracle.disk_branch(0), 1.0 / 3.0)
        in_range = [
            (i, v)
            for i, (v, _) in enumerate(model.factor.entries)
            if i >= 1 and 0.05 <= c_star / v <= 10.0
        ]
        assert [v for _, v in in_range] == pytest.approx(
            [1, 2, 4, 5, 8, 9, 10, 13], abs=1e-9
        )
        assert len(records) == len(in_range)
        for record, (i, v) in zip(records, in_range):
            assert record.crossings == ((i, 0, model.factor.multiplicity(i)),)
            t_oracle = c_star / v
            assert abs(record.t_star - t_oracle) / t_oracle < 0.02
        t = [r.t_star for r in records]
        assert all(b < a for a, b in zip(t, t[1:]))


def test_criterion_5_certification(disk_torus_instants):
    with criterion(5, "bifurcation certification"):
        model, records = disk_torus_instants
        first = True
        for record in records:
            out = certify_bifurcation(model, record)
            assert out.certified
            jump = out.n_minus - out.n_plus
            assert jump == sum(mu for _, _, mu in record.crossings)
            if first:
                assert jump == 4
                first = False


def test_criterion_6_rigidity_for_flat_boundary(torus_interval_model):
    with criterion(6, "rigidity for H <= 0"):
        model = torus_interval_model(200)
        assert model.Hhat == 0.0
        assert enumerate_instants(model, 1e-3, 1e3) == []
        for t in np.geomspace(1e-3, 1e3, 50):
            assert classify(model, t) == "rigid"


def test_criterion_7_homothety_law(disk, interval):
    with criterion(7, "homothety law"):
        cases = [(disk(3), 2), (interval(200, 1.0), 1)]
        for (mesh, forms), m in cases:
            k = min(6, len(forms.boundary_dofs))
            base = steklov_spectrum(forms, k).eigenvalues
            for t in (0.25, 2.0, 9.0):
                scaled = steklov_spectrum(scale_metric_forms(forms, t, m), k).eigenvalues
                assert np.abs(scaled - base / math.sqrt(t)).max() < 1e-10


def test_criterion_8_monotonicity_and_limits(disk):
    with criterion(8, "branch monotonicity and linear bound"):
        _, forms = disk(3)
        # discrete trace inequality: phi' M phi <= C phi' (K + B) phi
        K, M, B = forms.K.toarray(), forms.M.toarray(), forms.B.toarray()
        C = la.eigh(M, K + B, eigvals_only=True)[-1]
        t_grid = np.linspace(0.05, 5.0, 30)
        for rho_i in (1.0, 2.0, 5.0):
            vals = np.array(
                [
                    robin_steklov_spectrum(forms, t * rho_i, 1).eigenvalues[0]
                    for t in t_grid
                ]
            )
            assert np.all(np.diff(vals) > 0)
            assert np.all(vals <= t_grid * rho_i * C * (1 + 1e-12))


def test_criterion_9_conformal_diagnostics(disk):
    with criterion(9, "conformal diagnostics at the trivial solution"):
        mesh, raw = disk(3)
        # normalize the metric to unit boundary volume (m2 = 2 homothety)
        forms = scale_metric_forms(raw, mesh.boundary_measure() ** -2.0, 2)
        phi = np.ones(mesh.n_vertices)
        H_g = 1.0 / 3.0
        assert abs(conformal_mean_curvature(forms, phi, H_g, m=4) - H_g) <= 1e-10
        assert yamabe_residual(forms, phi, H_g, H_g, m=4) <= 1e-10


def test_criterion_10_schur_equivalence():
    with criterion(10, "Schur complement equivalence"):
        cases = [
            (generate_disk(0), 0.0),
            (generate_disk(0), 2.0),
            (generate_disk(1), 0.0),
            (generate_disk(1), 1.0),
            (generate_interval(9, 2.0), 0.0),
            (generate_interval(9, 2.0), 0.5),
        ]
        for mesh, c in cases:
            assert mesh.n_vertices <= 50
            forms = assemble(mesh)
            n_b = len(forms.boundary_dofs)
            reduced = robin_steklov_spectrum(forms, c, n_b).eigenvalues
            A = (forms.K + c * forms.M).toarray()
            eigs = la.eig(A, forms.B.toarray(), right=False)
            finite = np.sort(eigs[np.isfinite(eigs)].real)
            assert len(finite) == n_b
            assert np.abs(finite - reduced).max() < 1e-8
