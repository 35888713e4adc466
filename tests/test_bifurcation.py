import json

import numpy as np
import pytest

from steklovbif import (
    ProductModel,
    certify_bifurcation,
    classify,
    enumerate_instants,
    find_degeneracy_instant,
    from_list,
    oracle,
)
from steklovbif.bifurcation import (
    DegeneracyRecord,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from steklovbif.errors import (
    ConfigError,
    CutoffExhaustedError,
    EpsilonExhaustedError,
    HhatIsSteklovEigenvalueError,
    NoDegeneracyError,
    PreconditionError,
)


@pytest.fixture(scope="module")
def model(disk_torus_model):
    return disk_torus_model(3, 20.0)


@pytest.fixture(scope="module")
def flat_model(torus_interval_model):
    return torus_interval_model(100)


@pytest.fixture(scope="module")
def oracle_c_star(model):
    return oracle.solve_branch_root(oracle.disk_branch(0), model.Hhat)


@pytest.fixture(scope="module")
def instants(model):
    return enumerate_instants(model, 0.05, 10.0)


def _near_pair_model(disk, rho_2):
    """Disk level 2 with factor eigenvalues 1 (double) and rho_2 just above:
    two instants c_0* and c_0* / rho_2 close together."""
    mesh, forms = disk(2)
    factor = from_list([(0.0, 1), (1.0, 2), (rho_2, 1), (4.0, 1)], m1=2)
    return ProductModel(factor, mesh, forms, m1=2, m2=2, H2=1.0)


class TestFindDegeneracyInstant:
    def test_first_instant_matches_oracle(self, model, oracle_c_star):
        t1 = find_degeneracy_instant(model, 1)
        assert abs(t1 - oracle_c_star) / oracle_c_star < 0.02

    def test_only_the_product_t_rho_matters(self, model):
        # the lowest branch depends on c = t * rho_i alone
        t1 = find_degeneracy_instant(model, 1)  # rho = 1
        t2 = find_degeneracy_instant(model, 2)  # rho = 2
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-6)

    def test_flat_boundary_has_no_instants(self, flat_model):
        with pytest.raises(NoDegeneracyError, match="no degeneracy instants"):
            find_degeneracy_instant(flat_model, 1)

    def test_constant_branch_rejected(self, model):
        with pytest.raises(PreconditionError):
            find_degeneracy_instant(model, 0)


class TestEnumerateInstants:
    def test_count_and_descending_order(self, instants):
        assert len(instants) == 8
        t = [r.t_star for r in instants]
        assert all(b < a for a, b in zip(t, t[1:]))

    def test_against_oracle_roots(self, model, instants, oracle_c_star):
        for r in instants:
            (i, j, mu), = r.crossings
            assert j == 0  # higher branches stay above Hhat on this window
            t_oracle = oracle_c_star / model.factor.value(i)
            assert abs(r.t_star - t_oracle) / t_oracle < 0.02
            assert mu == model.factor.multiplicity(i)

    def test_root_correctness_fresh_eigensolve(self, model, instants):
        from steklovbif import robin_steklov_spectrum

        for r in instants:
            (i, j, _), = r.crossings
            c = r.t_star * model.factor.value(i)
            val = robin_steklov_spectrum(model.boundary_forms, c, j + 1).eigenvalues[j]
            assert abs(val - model.Hhat) <= 1e-8 * model.Hhat

    def test_extending_window_only_appends(self, model, instants):
        shorter = enumerate_instants(model, 0.1, 10.0)
        kept = [r.t_star for r in instants if r.t_star >= 0.1]
        assert len(shorter) == len(kept)
        # roots agree to the bisection tolerance; the wider window adds only
        # smaller instants below
        for got, want in zip((r.t_star for r in shorter), kept):
            assert got == pytest.approx(want, rel=1e-7)
        assert all(r.t_star < 0.1 for r in instants[len(kept):])

    def test_window_above_first_instant_is_empty(self, model):
        assert enumerate_instants(model, 0.8, 10.0) == []

    def test_flat_boundary_empty(self, flat_model):
        assert enumerate_instants(flat_model, 1e-3, 1e3) == []

    def test_cutoff_exhaustion(self, disk):
        mesh, forms = disk(2)
        short = from_list([(0.0, 1), (1.0, 4), (2.0, 4)], m1=2)
        model = ProductModel(short, mesh, forms, m1=2, m2=2, H2=1.0)
        with pytest.raises(CutoffExhaustedError):
            enumerate_instants(model, 0.05, 10.0)

    def test_boundary_spectrum_exhaustion(self, disk):
        mesh, forms = disk(0)  # 8 boundary dofs, every Steklov eigenvalue below Hhat
        factor = from_list([(0.0, 1), (1.0, 4), (1e4, 1)], m1=2)
        model = ProductModel(factor, mesh, forms, m1=2, m2=2, H2=300.0)
        with pytest.raises(CutoffExhaustedError):
            enumerate_instants(model, 0.01, 1.0)

    def test_matches_per_branch_roots_on_jittered_disk(self, fuzz_meshes, square_torus):
        from scipy.optimize import brentq

        from steklovbif import robin_steklov_spectrum

        # every vertex moved, so no branch is double: sigma_1 = 0.9805, sigma_2 = 0.9863
        mesh, forms = fuzz_meshes["jittered"]
        model = ProductModel(square_torus(20.0), mesh, forms, m1=2, m2=2, H2=4.5)
        t_min, t_max = 0.5, 10.0

        def branch(rho_i, j):
            return lambda t: (
                robin_steklov_spectrum(forms, t * rho_i, j + 1).eigenvalues[j] - model.Hhat
            )

        # every (i, j) branch that changes sign on the window, solved in t
        expected = {}
        for i in range(1, len(model.factor)):
            for j in range(6):
                f = branch(model.factor.value(i), j)
                if f(t_min) < 0 < f(t_max):
                    expected[(i, j)] = brentq(f, t_min, t_max, xtol=1e-14, rtol=1e-13)
        assert len(expected) == 11

        got = {
            (i, j): r.t_star
            for r in enumerate_instants(model, t_min, t_max)
            for i, j, _ in r.crossings
        }
        assert sorted(got) == sorted(expected)
        for key, t in expected.items():
            assert got[key] == pytest.approx(t, rel=1e-7)

    def test_merge_anchors_on_first_root(self, disk):
        # roots 0.9e-6 apart (relative): the second merges with the first, the
        # third lies 1.8e-6 from the group's first root and opens its own record
        from steklovbif.bifurcation import MERGE_RTOL

        mesh, forms = disk(2)
        factor = from_list(
            [(0.0, 1), (1.0, 1), (1.0 + 0.9e-6, 1), (1.0 + 1.8e-6, 1), (4.0, 1)], m1=2
        )
        model = ProductModel(factor, mesh, forms, m1=2, m2=2, H2=1.0)
        records = enumerate_instants(model, 0.5, 1.0)
        assert [r.crossings for r in records] == [((1, 0, 1), (2, 0, 1)), ((3, 0, 1),)]
        # merging moves no crossing's coefficient t_star * rho_i off c_0* by more
        # than MERGE_RTOL
        c0 = model.critical_coefficients[0]
        for r in records:
            for i, _, _ in r.crossings:
                assert abs(r.t_star * factor.value(i) - c0) <= MERGE_RTOL * c0

    def test_bad_window_rejected(self, model):
        with pytest.raises(PreconditionError):
            enumerate_instants(model, 1.0, 0.5)

    def test_coincident_crossings_merge(self, disk):
        from scipy.optimize import brentq

        from steklovbif import robin_steklov_spectrum

        mesh, forms = disk(2)
        hhat_target = 1.5  # H2 = 4.5 with m1 = m2 = 2
        # discrete roots of the two lowest disk branches at the target level
        c0 = brentq(
            lambda c: robin_steklov_spectrum(forms, c, 1).eigenvalues[0] - hhat_target,
            1e-3, 30.0, xtol=1e-13,
        )
        c1 = brentq(
            lambda c: robin_steklov_spectrum(forms, c, 2).eigenvalues[1] - hhat_target,
            1e-3, 30.0, xtol=1e-13,
        )
        # factor tuned so the double j = 1,2 branch of eigenvalue 1 and the
        # j = 0 branch of eigenvalue c0/c1 cross at the same t = c1
        factor = from_list([(0.0, 1), (1.0, 2), (c0 / c1, 3), (4.0, 1)], m1=2)
        model = ProductModel(factor, mesh, forms, m1=2, m2=2, H2=4.5)
        t_star = c1

        records = enumerate_instants(model, 0.98 * t_star, 1.02 * t_star)
        assert len(records) == 1
        rec = records[0]
        assert rec.t_star == pytest.approx(t_star, rel=1e-6)
        assert set(rec.crossings) == {(1, 1, 2), (1, 2, 2), (2, 0, 3)}
        assert rec.nullity == 7

        out = certify_bifurcation(model, rec)
        assert out.certified
        assert out.n_minus - out.n_plus == 7

    def test_hhat_in_steklov_spectrum_refused(self, disk, square_torus):
        from steklovbif import steklov_spectrum

        mesh, forms = disk(2)
        rho1 = steklov_spectrum(forms, 2).eigenvalues[1]
        # H2 tuned so Hhat lands exactly on the discrete Steklov eigenvalue
        model = ProductModel(square_torus(20.0), mesh, forms, m1=2, m2=2, H2=3.0 * rho1)
        with pytest.raises(HhatIsSteklovEigenvalueError):
            enumerate_instants(model, 0.5, 2.0)


class TestCertifyBifurcation:
    def test_first_instant(self, model, instants):
        rec = certify_bifurcation(model, instants[0])
        assert rec.certified
        assert rec.n_minus == 4
        assert rec.n_plus == 0
        assert rec.epsilon <= 0.05 * rec.t_star

    def test_index_jump_equals_multiplicity(self, model, instants):
        for rec in instants[:4]:
            out = certify_bifurcation(model, rec)
            assert out.certified
            assert out.n_minus - out.n_plus == sum(mu for _, _, mu in rec.crossings)

    def test_non_crossing_record_not_certified(self, model):
        fake = DegeneracyRecord(t_star=0.5, crossings=((1, 0, 4),), nullity=4)
        out = certify_bifurcation(model, fake)
        assert not out.certified
        assert out.n_minus == out.n_plus

    def test_default_epsilon_halved_to_isolate(self, disk):
        model = _near_pair_model(disk, 1.03)
        recs = enumerate_instants(model, 0.5, 1.0)
        out = certify_bifurcation(model, recs[0])
        assert out.epsilon == pytest.approx(0.025 * out.t_star, rel=1e-12)
        assert (out.n_minus, out.n_plus, out.certified) == (2, 0, True)

    def test_unisolable_instant_exhausts_epsilon(self, disk):
        model = _near_pair_model(disk, 1.0 + 3e-6)
        recs = enumerate_instants(model, 0.5, 1.0)
        with pytest.raises(EpsilonExhaustedError):
            certify_bifurcation(model, recs[0])

    def test_bad_epsilon_rejected(self, model, instants):
        with pytest.raises(PreconditionError):
            certify_bifurcation(model, instants[0], epsilon=instants[0].t_star * 2)


class TestClassify:
    def test_flat_boundary_always_rigid(self, flat_model):
        for t in np.geomspace(1e-3, 1e3, 7):
            assert classify(flat_model, t) == "rigid"

    def test_degenerate_at_instant(self, model, instants):
        assert classify(model, instants[0].t_star) == "degenerate"

    def test_rigid_between_instants(self, model, instants):
        t_mid = np.sqrt(instants[0].t_star * instants[1].t_star)
        assert classify(model, t_mid) == "rigid"
        assert enumerate_instants(model, instants[1].t_star * 1.01, instants[0].t_star * 0.99) == []


class TestRecordsIO:
    def test_json_round_trip(self, instants, tmp_path):
        path = tmp_path / "records.json"
        records_to_json(instants, path)
        loaded = records_from_json(path)
        assert loaded == instants

    def test_csv_round_trip(self, model, instants, tmp_path):
        certified = [certify_bifurcation(model, r) for r in instants[:2]]
        path = tmp_path / "records.csv"
        records_to_csv(certified, path)
        loaded = records_from_csv(path)
        # the CSV schema carries everything except the working epsilon
        from dataclasses import replace

        assert loaded == [replace(r, epsilon=None) for r in certified]

    _VALID = {"t_star": 0.7, "crossings": [[1, 0, 4]], "nullity": 4, "n_minus": 4,
              "n_plus": 0, "epsilon": 0.01, "certified": True}

    @pytest.mark.parametrize(
        "field,value",
        [("certified", "false"), ("t_star", "0.7"), ("crossings", [[1, 0.5, 4]]),
         ("crossings", [[1, 0]]), ("nullity", True), ("n_minus", 4.0), ("epsilon", "0.01")],
        ids=["string-certified", "string-t-star", "non-integer-crossing", "short-crossing",
             "bool-nullity", "float-n-minus", "string-epsilon"],
    )
    def test_wrong_json_types_rejected(self, tmp_path, field, value):
        path = tmp_path / "records.json"
        path.write_text(json.dumps([{**self._VALID, field: value}]))
        with pytest.raises(ConfigError, match=field if field != "crossings" else "crossing"):
            records_from_json(path)

    def test_json_types_read_exactly(self, tmp_path):
        # an integer t* is a number; absent optional fields take their defaults
        path = tmp_path / "records.json"
        path.write_text(json.dumps([{**self._VALID, "certified": False, "t_star": 1},
                                    {"t_star": 0.5, "crossings": [], "nullity": 0}]))
        first, second = records_from_json(path)
        assert first == DegeneracyRecord(1.0, ((1, 0, 4),), 4, 4, 0, 0.01, False)
        assert isinstance(first.t_star, float) and first.certified is False
        assert second == DegeneracyRecord(0.5, (), 0)

    def test_csv_header(self, instants, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(instants, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_star,i,j,multiplicity,nullity,n_minus,n_plus,certified"


class TestSliceBudget:
    def test_report_pipeline_counts_instead_of_solving(self, disk, square_torus, monkeypatch):
        # enumerate + certify + Morse indices between instants on disk L4 x
        # torus: the c = 0 spectrum and the root's accepting slice are the
        # only solves; the c_0* bracket and two counts per crossing factor
        # index are the only counts, and the Morse indices read the table
        import math

        from steklovbif import bifurcation, morse_index, product, spectral

        mesh, forms = disk(4)
        model = ProductModel(square_torus(20.0), mesh, forms, m1=2, m2=2, H2=1.0)
        solves = []
        original = spectral.robin_steklov_spectrum

        def counted(*args, **kwargs):
            solves.append(args[1:])
            return original(*args, **kwargs)

        for module in (spectral, product):
            monkeypatch.setattr(module, "robin_steklov_spectrum", counted)
        counts = []
        count_below = spectral.count_below

        def counted_inertia(*args):
            counts.append(args[1:])
            return count_below(*args)

        for module in (spectral, product, bifurcation):
            monkeypatch.setattr(module, "count_below", counted_inertia)

        records = enumerate_instants(model, 0.05, 10.0)
        t = [r.t_star for r in records]
        certified = [certify_bifurcation(model, r) for r in records]
        cuts = [10.0] + t + [0.05]
        indices = [morse_index(model, math.sqrt(lo * hi)) for hi, lo in zip(cuts, cuts[1:])]

        assert [r.n_minus - r.n_plus for r in certified] == [4, 4, 4, 8, 4, 4, 8, 8]
        assert all(r.certified for r in certified)
        assert indices == [0, 4, 8, 12, 20, 24, 28, 36, 44]
        assert len(solves) <= 2
        assert len(counts) <= 49
