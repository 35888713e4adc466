import json
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklovbif import (
    ProductModel,
    certify_bifurcation,
    classify,
    enumerate_instants,
    find_degeneracy_instant,
    from_list,
    morse_index,
    nullity,
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

    def test_infinite_t_star_rejected(self, model):
        # no file carries inf, so only a caller can hand it in; its radius
        # 0.05 * inf is positive, and the t test of check_edge refuses it
        record = DegeneracyRecord(t_star=math.inf, crossings=((1, 0, 4),), nullity=4)
        with pytest.raises(PreconditionError, match="must be positive and finite, got inf"):
            certify_bifurcation(model, record)

    def test_unisolable_instant_exhausts_epsilon(self, disk):
        model = _near_pair_model(disk, 1.0 + 3e-6)
        recs = enumerate_instants(model, 0.5, 1.0)
        with pytest.raises(EpsilonExhaustedError):
            certify_bifurcation(model, recs[0])

    def test_isolation_stays_above_the_edge(self, disk):
        # factor eigenvalues 1 (double) and 1.02, the cutoff: the edge, the
        # top of the window of c_0* / 1.02, lies 2% below t* = c_0*, so the
        # radii 0.05 t* and 0.025 t* reach below it, though the window asked
        # for starts above it; 0.0125 t* isolates t* above the edge
        mesh, forms = disk(2)
        model = ProductModel(from_list([(0.0, 1), (1.0, 2), (1.02, 1)], m1=2), mesh, forms,
                             m1=2, m2=2, H2=1.0)
        (record,) = enumerate_instants(model, 0.7137, 10.0)
        assert record.crossings == ((1, 0, 2),)
        out = certify_bifurcation(model, record)
        assert (out.n_minus, out.n_plus, out.certified) == (2, 0, True)
        assert out.epsilon == pytest.approx(0.0125 * out.t_star, rel=1e-12)
        # a record from a file at the edge (the instant c_0* / 1.02, inside
        # its own window) or below it lies where the factor spectrum is cut
        table = model.instants
        for t_star in (float(table.t[table.i == 2][0]), 0.5):
            with pytest.raises(CutoffExhaustedError, match=f"exhausted at t={t_star:g} "):
                certify_bifurcation(model, DegeneracyRecord(t_star, ((2, 0, 1),), 1))

    def test_isolation_widens_the_edge_once(self, disk):
        # the cutoff rho = (1 + d)(1 + d / 2) / 0.95, d = BRACKET_RTOL: the
        # default radius puts t* - epsilon = 0.95 c_0* where (t* - epsilon) rho
        # = c_0* (1 + d)(1 + d / 2) clears the edge c_0* (1 + d), the top of
        # the window of c_0* / rho, so morse_index reads t* - epsilon and no
        # halving is due; a second widening by 1 + d would halve it
        from steklovbif.spectral import BRACKET_RTOL

        mesh, forms = disk(2)
        rho = (1 + BRACKET_RTOL) * (1 + BRACKET_RTOL / 2) / 0.95
        model = ProductModel(from_list([(0.0, 1), (1.0, 2), (rho, 1)], m1=2), mesh, forms,
                             m1=2, m2=2, H2=1.0)
        (record,) = enumerate_instants(model, 0.7, 10.0)
        assert record.crossings == ((1, 0, 2),)
        assert record.t_star == model.critical_coefficients[0]
        out = certify_bifurcation(model, record)
        assert (out.n_minus, out.n_plus, out.certified) == (2, 0, True)
        assert out.epsilon == 0.05 * out.t_star

    @settings(max_examples=100)
    @given(values=st.lists(st.floats(0.5, 3.0, exclude_min=True, exclude_max=True),
                           min_size=2, max_size=4, unique=True),
           mus=st.lists(st.integers(1, 4), min_size=4, max_size=4),
           H2=st.sampled_from([1.0, 4.0]))
    def test_isolation_on_drawn_factor_spectra(self, disk, values, mus, H2):
        # the windows c_j* (1 -/+ BRACKET_RTOL) formed here, not read from the
        # instant table: every certified radius keeps [t* -/+ epsilon] rho_i
        # off the window of each instant farther than MERGE_RTOL from t*, and
        # t* - epsilon above the edge; H2 = 4 gives the double c_1* = c_2*
        from steklovbif.bifurcation import MERGE_RTOL
        from steklovbif.spectral import BRACKET_RTOL

        mesh, forms = disk(2)
        rho = np.sort(values)
        model = ProductModel(from_list([(0.0, 1)] + list(zip(rho, mus)), m1=2), mesh, forms,
                             m1=2, m2=2, H2=H2)
        c_star = np.array(model.critical_coefficients)
        t = c_star / rho[:, None]  # the instant of branch (i, j) at [i - 1, j]
        ordered = np.sort(t.ravel())
        gaps = np.diff(ordered) / ordered[1:]
        assume(not np.any((MERGE_RTOL < gaps) & (gaps < 1e-3)))
        low, high = c_star * (1 - BRACKET_RTOL), c_star * (1 + BRACKET_RTOL)
        t_min = high[0] / rho[-1] * (1 + 1e-12)
        records = enumerate_instants(model, t_min, 2 * t.max())
        assert sum(r.nullity for r in records) == sum(
            mu * np.count_nonzero(row >= t_min) for row, mu in zip(t, mus))
        for record in records:
            out = certify_bifurcation(model, record)
            t_star, epsilon = out.t_star, out.epsilon
            assert out.certified and out.n_minus - out.n_plus == out.nullity
            lo, hi = (t_star - epsilon) * rho[:, None], (t_star + epsilon) * rho[:, None]
            far = np.abs(t - t_star) > MERGE_RTOL * np.maximum(t, t_star)
            assert not np.any(far & (lo <= high) & (hi >= low))
            assert (t_star - epsilon) * rho[-1] > high[0]

    def test_isolation_clears_the_bracket_windows(self, disk, monkeypatch):
        # the instant c_0* / 1 sits at (t* + epsilon)(1 + BRACKET_RTOL / 2) for
        # t* = c_0* / rho_2 and the default epsilon = 0.05 t*: outside the
        # window, but t* + epsilon reads branch (1, 0) inside the bracket
        # window of c_0*, where the table is not proved
        from steklovbif import bifurcation
        from steklovbif.spectral import BRACKET_RTOL

        model = _near_pair_model(disk, 1.05 * (1 + BRACKET_RTOL / 2))
        c_stars = np.array(model.critical_coefficients)
        rho = np.array([model.factor.value(i) for i in range(1, len(model.factor))])
        read = []
        morse_index = bifurcation.morse_index

        def recorded(model, t, **kwargs):
            read.append(t)
            return morse_index(model, t, **kwargs)

        monkeypatch.setattr(bifurcation, "morse_index", recorded)
        record = enumerate_instants(model, 0.5, 1.0)[1]
        out = certify_bifurcation(model, record)
        assert out.epsilon == pytest.approx(0.025 * out.t_star, rel=1e-12)
        assert (out.n_minus, out.n_plus, out.certified) == (3, 2, True)
        assert read
        c = np.outer(read, rho)
        assert np.all(np.abs(c[:, :, None] / c_stars - 1.0) > BRACKET_RTOL)


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

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_nonpositive_t_rejected(self, model, flat_model, t):
        # by the table's own rows, also where Hhat <= 0 leaves the table
        # empty; a NaN or an infinite t fails every comparison of the table
        # as a branch below Hhat, so would read index 0 and 'rigid'
        for m in (model, flat_model):
            for query in (classify, morse_index, nullity):
                with pytest.raises(PreconditionError, match="metric parameter t must be positive"):
                    query(m, t)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [sys.float_info.max, -sys.float_info.max, sys.float_info.min, 5e-324, -0.0])
_COUNT = st.integers(0, 2**53)


@st.composite
def _records(draw):
    """A record as enumeration and certification write it: at least one
    crossing, each of a branch (i >= 1, j >= 0) with multiplicity >= 1, and
    the nullity their sum."""
    crossings = tuple(draw(st.lists(st.tuples(st.integers(1, 2**31), _COUNT,
                                              st.integers(1, 2**31)), min_size=1, max_size=3)))
    return DegeneracyRecord(
        t_star=draw(_FINITE),
        crossings=crossings,
        nullity=sum(mu for _, _, mu in crossings),
        n_minus=draw(st.none() | _COUNT),
        n_plus=draw(st.none() | _COUNT),
        epsilon=draw(st.none() | _FINITE),
        certified=draw(st.booleans()),
    )


@pytest.fixture(scope="class")
def records_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


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
        assert loaded == [replace(r, epsilon=None) for r in certified]

    def test_csv_round_trip_of_two_crossings(self, tmp_path):
        # one row per crossing, regrouped into one record on reading
        records = [DegeneracyRecord(1.25, ((1, 0, 4), (2, 1, 8)), 12, 20, 8, None, True),
                   DegeneracyRecord(0.5, ((3, 0, 4),), 4)]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert len(path.read_text().splitlines()) == 4
        assert records_from_csv(path) == records

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
                                    {"t_star": 0.5, "crossings": [[2, 1, 3]], "nullity": 3}]))
        first, second = records_from_json(path)
        assert first == DegeneracyRecord(1.0, ((1, 0, 4),), 4, 4, 0, 0.01, False)
        assert isinstance(first.t_star, float) and first.certified is False
        assert second == DegeneracyRecord(0.5, ((2, 1, 3),), 3)

    @pytest.mark.parametrize(
        "change,match",
        [({"crossings": [], "nullity": 0}, "nonempty"),
         ({"crossings": [[0, 0, 4]]}, "i >= 1"),
         ({"crossings": [[1, -1, 4]]}, "j >= 0"),
         ({"crossings": [[1, 0, 0]], "nullity": 0}, "multiplicity >= 1"),
         ({"nullity": -3}, "nullity -3"),
         ({"crossings": [[1, 0, 4], [2, 1, 8]], "nullity": 4}, "nullity 4")],
        ids=["no-crossings", "constant-factor", "negative-branch", "zero-multiplicity",
             "negative-nullity", "nullity-short-of-sum"],
    )
    def test_records_enumeration_cannot_write_rejected(self, tmp_path, change, match):
        # a record with no crossing would be certified and vanish from the
        # CSV, and one whose nullity is not its multiplicities' sum would be
        # written out as is
        path = tmp_path / "records.json"
        path.write_text(json.dumps([self._VALID, {**self._VALID, "t_star": 0.5, **change}]))
        with pytest.raises(ConfigError, match=re.escape(match)):
            records_from_json(path)

    @settings(max_examples=60)
    @given(records=st.lists(_records(), max_size=4, unique_by=lambda r: r.t_star))
    def test_round_trips_of_valid_records(self, records_dir, records):
        # JSON keeps every field; CSV every field but the working epsilon
        records_to_json(records, records_dir / "records.json")
        assert records_from_json(records_dir / "records.json") == records
        records_to_csv(records, records_dir / "records.csv")
        assert records_from_csv(records_dir / "records.csv") == [
            replace(r, epsilon=None) for r in records]

    def test_csv_header(self, instants, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(instants, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_star,i,j,multiplicity,nullity,n_minus,n_plus,certified"


class TestSliceBudget:
    def test_report_pipeline_counts_instead_of_solving(self, disk, square_torus, monkeypatch):
        # enumerate + certify + Morse indices between instants on disk L4 x
        # torus: no slice is solved and nothing is counted; one S(0) sizes
        # the c_j* table and is the solve's operator, the residual bound
        # proves its one root, and certification and the Morse indices read
        # the table
        import math

        from steklovbif import morse_index, spectral

        mesh, forms = disk(4)
        model = ProductModel(square_torus(20.0), mesh, forms, m1=2, m2=2, H2=1.0)
        solves = []
        original = spectral.robin_steklov_spectrum

        def counted(*args, **kwargs):
            solves.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "robin_steklov_spectrum", counted)
        counts = []
        count_below = spectral.count_below

        def counted_inertia(*args):
            counts.append(args[1:])
            return count_below(*args)

        monkeypatch.setattr(spectral, "count_below", counted_inertia)
        formed = []
        schur = spectral._multifrontal_schur
        monkeypatch.setattr(spectral, "_multifrontal_schur",
                            lambda fi, c, *rest: formed.append(c) or schur(fi, c, *rest))

        records = enumerate_instants(model, 0.05, 10.0)
        t = [r.t_star for r in records]
        certified = [certify_bifurcation(model, r) for r in records]
        cuts = [10.0] + t + [0.05]
        indices = [morse_index(model, math.sqrt(lo * hi)) for hi, lo in zip(cuts, cuts[1:])]

        assert [r.n_minus - r.n_plus for r in certified] == [4, 4, 4, 8, 4, 4, 8, 8]
        assert all(r.certified for r in certified)
        assert indices == [0, 4, 8, 12, 20, 24, 28, 36, 44]
        assert solves == []
        assert counts == []
        assert formed == [0.0]

    def test_double_roots_certify_without_counting(self, disk, square_torus, monkeypatch):
        # disk L4 at Hhat = 7/3: five c_j* in three groups (two double roots).
        # The table reads its size off S(0) without a count and, as the
        # residual bound proves every group, makes none beside a root;
        # certifying its 17 instants makes none
        import sys

        from steklovbif import spectral

        mesh, forms = disk(4)
        model = ProductModel(square_torus(20.0), mesh, forms, m1=2, m2=2, H2=7.0)
        counts = []
        count_below = spectral.count_below
        binding = [module for name, module in list(sys.modules.items())
                   if name.startswith("steklovbif")
                   and vars(module).get("count_below") is count_below]

        def counted_inertia(forms, c, lam):
            counts.append(c)
            return count_below(forms, c, lam)

        for module in binding:
            monkeypatch.setattr(module, "count_below", counted_inertia)
        c_stars = np.sort(model.critical_coefficients)
        groups = 1 + int(np.count_nonzero(np.diff(c_stars) > 1e-6 * c_stars[1:]))
        assert (len(c_stars), groups) == (5, 3)
        assert counts == []

        def forbidden(*args, **kwargs):
            raise AssertionError("counted after the table was built")

        for module in binding:
            monkeypatch.setattr(module, "count_below", forbidden)
        certified = [certify_bifurcation(model, r) for r in enumerate_instants(model, 0.6, 10.0)]
        assert len(certified) == 17
        assert all(r.certified for r in certified)
