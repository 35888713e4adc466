import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steklovbif import assemble, cli, fem, robin_steklov_spectrum, spectral, steklov_spectrum
from steklovbif.bifurcation import CSV_HEADER, records_from_json
from steklovbif.errors import EigensolverError, PreconditionError
from steklovbif.product import load_model
from steklovbif.serialize import format_float, read_csv

SLICE_HEADER, CURVES_HEADER = ["j", "rho"], ["t", "i", "j", "rho"]

DISK_TORUS_DOC = {
    "m1": 2,
    "m2": 2,
    "H2": 1.0,
    "factor": {
        "flat_torus": {"basis": [[2 * math.pi, 0.0], [0.0, 2 * math.pi]], "cutoff": 20.0}
    },
    "boundary": {"builtin": "disk", "level": 3},
}

INTERVAL_DOC = {
    "m1": 2,
    "m2": 1,
    "H2": 0.0,
    "factor": {
        "flat_torus": {"basis": [[2 * math.pi, 0.0], [0.0, 2 * math.pi]], "cutoff": 20.0}
    },
    "boundary": {"builtin": "interval", "n": 100, "L": 1.0},
}

# disk L2 cut off at factor eigenvalue 1.02: the edge, the top of the window
# of c_0* / 1.02, lies 2% below the instant t* = c_0* / 1, inside the default
# radius 0.05 t* but below EDGE_T_MIN
EDGE_DOC = dict(DISK_TORUS_DOC, boundary={"builtin": "disk", "level": 2},
                factor={"dim": 2, "entries": [[0, 1], [1, 2], [1.02, 1]], "cutoff": 1.02})
EDGE_T_MIN = "0.7137"


def _numbers(path, header):
    return [[float(x) for x in row] for row in read_csv(path, header)]


def write_model(tmp_path, doc):
    """The path of tmp_path / model.json, written with the model document doc."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def disk_model_path(tmp_path):
    return str(write_model(tmp_path, DISK_TORUS_DOC))


@pytest.fixture
def interval_model_path(tmp_path):
    return str(write_model(tmp_path, INTERVAL_DOC))


class TestSteklovCommand:
    def test_builtin_interval(self, tmp_path):
        out = tmp_path / "spec.csv"
        status = cli.main(
            ["steklov", "--mesh", "builtin:interval:400:2.0", "-k", "2", "--out", str(out)]
        )
        assert status == 0
        rows = _numbers(out, SLICE_HEADER)
        assert len(rows) == 2
        assert abs(rows[0][1]) < 1e-9
        assert rows[1][1] == pytest.approx(1.0, rel=1e-5)  # 2/L with L = 2

    def test_builtin_disk(self, tmp_path):
        out = tmp_path / "disk.csv"
        assert cli.main(["steklov", "--mesh", "builtin:disk:2", "-k", "3", "--out", str(out)]) == 0
        rows = _numbers(out, SLICE_HEADER)
        assert rows[1][1] == pytest.approx(1.0, rel=0.01)

    def test_mesh_file(self, tmp_path):
        from steklovbif import generate_disk
        from steklovbif.mesh import save_mesh

        mesh_path = tmp_path / "mesh.json"
        save_mesh(generate_disk(1), mesh_path)
        out = tmp_path / "spec.csv"
        assert cli.main(["steklov", "--mesh", str(mesh_path), "-k", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("level, angle, shift", [(3, 0.0, 0.0), (5, 0.3, [2.5, -1.0])],
                             ids=["disk3-reversed", "disk5-moved"])
    def test_renumbered_mesh_file_keeps_the_builtin_spectrum(self, tmp_path, level, angle,
                                                              shift):
        # vertex ids reversed, a numbering that no builtin mesh has, through
        # the file reader, the shared pattern of K and M and the band (disk
        # L3); disk L5 also rotated and translated has 256 boundary dofs, so
        # its S(c) comes from the fronts of a tree bisected along the moved
        # coordinates.  Two runs write the same bytes, and the 7 eigenvalues
        # are the builtin disk's within 1e-12 of the largest
        from steklovbif import Mesh, generate_disk
        from steklovbif.mesh import save_mesh

        disk, c, s = generate_disk(level), np.cos(angle), np.sin(angle)
        moved = disk.vertices[::-1] @ np.array([[c, s], [-s, c]]) + shift
        save_mesh(Mesh(vertices=moved, cells=disk.n_vertices - 1 - disk.cells),
                  tmp_path / "mesh.json")
        outs = [tmp_path / name for name in ("1.csv", "2.csv", "builtin.csv")]
        for mesh, out in zip([str(tmp_path / "mesh.json")] * 2 + [f"builtin:disk:{level}"], outs):
            assert cli.main(["steklov", "--mesh", mesh, "-k", "7", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rho, builtin = (np.array(_numbers(out, SLICE_HEADER))[:, 1] for out in outs[::2])
        assert len(rho) == len(builtin) == 7
        assert np.abs(rho - builtin).max() <= 1e-12 * np.abs(builtin).max()

    def test_missing_mesh_is_precondition_failure(self, tmp_path, capsys):
        status = cli.main(["steklov", "--mesh", str(tmp_path / "nope.json"), "-k", "2"])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"


    def test_model_flag_is_not_parsed(self, capsys):
        # steklov reads no model
        with pytest.raises(SystemExit) as exc:
            cli.main(["steklov", "--mesh", "builtin:disk:1", "--model", "model.json"])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err


class TestEigencurveCommand:
    def test_constant_curve_for_i_zero(self, disk_model_path, tmp_path):
        out = tmp_path / "curves.csv"
        status = cli.main(
            ["eigencurve", "--model", disk_model_path, "--i", "0", "--j", "1",
             "--t-min", "0.5", "--t-max", "2.0", "--t-steps", "5", "--out", str(out)]
        )
        assert status == 0
        rows = _numbers(out, CURVES_HEADER)
        values = [rho for _, _, _, rho in rows]
        assert np.ptp(values) < 1e-12

    def test_increasing_curve_for_positive_factor(self, disk_model_path, tmp_path):
        out = tmp_path / "curves.csv"
        status = cli.main(
            ["eigencurve", "--model", disk_model_path, "--i", "1,2", "--j", "0",
             "--t-min", "0.2", "--t-max", "1.0", "--t-steps", "4", "--out", str(out)]
        )
        assert status == 0
        rows = _numbers(out, CURVES_HEADER)
        for i in (1, 2):
            vals = [rho for _, fi, _, rho in rows if fi == i]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "flag,value",
        [("--j", ","), ("--j", "-1"), ("--i", ","), ("--i", "-1")],
        ids=["empty-j", "negative-j", "empty-i", "negative-i"],
    )
    def test_bad_branch_lists_rejected(self, disk_model_path, tmp_path, capsys, flag, value):
        out = tmp_path / "curves.csv"
        status = cli.main(["eigencurve", "--model", disk_model_path, flag, value,
                           "--t-steps", "2", "--out", str(out)])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert flag[2:] + "_list" in payload["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("m2, boundary, j_list, banded", [
        (1, {"builtin": "interval", "n": 1000, "L": 2.0}, (0, 1), None),
        (2, {"builtin": "disk", "level": 3}, (0, 2), None),
        (2, {"builtin": "disk", "level": 3}, (0, 2), False),
        (2, {"builtin": "disk", "level": 4}, (0, 2), None),
        (2, {"builtin": "disk", "level": 4}, (0, 2), True),
    ], ids=["interval", "disk3-band", "disk3-multifrontal", "disk4-multifrontal", "disk4-band"])
    def test_rows_are_the_slices(self, tmp_path, monkeypatch, m2, boundary, j_list, banded):
        # each row is t, i, j and entry j of the slice of max(j) + 1 pairs at
        # c = t * rho_i, as written by format_float, in the order i, j, t;
        # banded forces the route of every forms, None leaves it to the flops
        if banded is not None:
            monkeypatch.setattr(fem.FactorInput, "banded", banded)
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, m2=m2, boundary=boundary))
        out = tmp_path / "curves.csv"
        i_list, t_grid = (0, 1, 3), np.linspace(0.1, 10.0, 4)
        assert cli.main(["eigencurve", "--model", str(model_path), "--i", "0,1,3",
                         "--j", ",".join(map(str, j_list)), "--t-min", "0.1", "--t-max", "10",
                         "--t-steps", "4", "--out", str(out)]) == 0
        model = load_model(model_path)
        want = []
        for i in i_list:
            slices = [robin_steklov_spectrum(model.boundary_forms, t * model.factor.value(i),
                                             max(j_list) + 1).eigenvalues for t in t_grid]
            want += [[format_float(t), str(i), str(j), format_float(w[j])]
                     for j in j_list for t, w in zip(t_grid, slices)]
        assert read_csv(out, CURVES_HEADER) == want

    @pytest.mark.parametrize("m2, boundary, flags, lines", [
        (2, {"builtin": "disk", "level": 3}, "--i 0,1,3 --j 0,2 --t-steps 5", 31),
        (2, {"builtin": "disk", "level": 4}, "--i 0,1,3 --j 0,2 --t-steps 5", 31),
        (2, {"builtin": "disk", "level": 5},
         "--i 1,2 --j 0,1,2 --t-min 0.1 --t-max 3 --t-steps 7", 43),
        (1, {"builtin": "interval", "n": 1000, "L": 2},
         "--i 1,2 --j 0,1 --t-min 0.1 --t-max 10 --t-steps 50", 201),
    ], ids=["disk3-band", "disk4-multifrontal", "disk5-double-eigenvalue", "interval-k-is-n_b"])
    def test_repeats_write_every_row_and_the_same_bytes(self, tmp_path, m2, boundary, flags,
                                                        lines):
        # a header and one row per (i, j, t); disk L5's slices meet a double
        # eigenvalue at three t, and the interval's j = 0, 1 ask for k = n_b
        # = 2 pairs (dsygvx's iu = n edge)
        model = str(write_model(tmp_path, dict(DISK_TORUS_DOC, m2=m2, boundary=boundary)))
        outs = [tmp_path / "1.csv", tmp_path / "2.csv"]
        for out in outs:
            assert cli.main(["eigencurve", "--model", model, *flags.split(), "--out",
                             str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes().count(b"\n") == lines

    @pytest.mark.parametrize("model, flags, error, detail", [
        (INTERVAL_DOC, ["--j", "0,2"], "precondition", "need 1 <= k <= 2 boundary dofs, got k=3"),
        (DISK_TORUS_DOC, ["--i", "1,500"], "cutoff_exhausted", "factor index 500 beyond"),
    ], ids=["j-beyond-boundary-dofs", "i-beyond-cutoff"])
    def test_branch_beyond_the_model_writes_nothing(self, tmp_path, capsys, model, flags,
                                                    error, detail):
        model_path = write_model(tmp_path, model)
        out = tmp_path / "curves.csv"
        assert cli.main(["eigencurve", "--model", str(model_path), *flags, "--t-steps", "3",
                         "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == error and detail in payload["detail"]
        assert not out.exists()


class TestCsvOutput:
    @pytest.mark.parametrize("mesh, k, banded", [
        ("builtin:interval:1000:2.0", 2, None), ("builtin:disk:3", 5, None),
        ("builtin:disk:3", 5, False), ("builtin:disk:4", 5, None), ("builtin:disk:4", 5, True),
    ], ids=["interval", "disk3-band", "disk3-multifrontal", "disk4-multifrontal", "disk4-band"])
    def test_steklov_rows_are_the_slice(self, tmp_path, monkeypatch, mesh, k, banded):
        if banded is not None:
            monkeypatch.setattr(fem.FactorInput, "banded", banded)
        out = tmp_path / "spec.csv"
        assert cli.main(["steklov", "--mesh", mesh, "-k", str(k), "--out", str(out)]) == 0
        forms = assemble(cli._mesh_from_spec(mesh))
        want = steklov_spectrum(forms, k).eigenvalues
        assert read_csv(out, SLICE_HEADER) == [[str(j), format_float(v)]
                                                for j, v in enumerate(want)]

    def test_numbers_read_back_exactly(self, disk_model_path, tmp_path):
        # 17 significant digits: every value reads back to the same double
        out = tmp_path / "curves.csv"
        assert cli.main(["eigencurve", "--model", disk_model_path, "--i", "1", "--j", "0",
                         "--t-min", "0.5", "--t-max", "1.0", "--t-steps", "2",
                         "--out", str(out)]) == 0
        model = load_model(disk_model_path)
        want = [robin_steklov_spectrum(model.boundary_forms, t * model.factor.value(1),
                                       1).eigenvalues[0] for t in (0.5, 1.0)]
        assert _numbers(out, CURVES_HEADER) == [[0.5, 1, 0, want[0]], [1.0, 1, 0, want[1]]]

    def test_wrong_header_names_file_and_both_headers(self, tmp_path):
        path = tmp_path / "slice.csv"
        assert cli.main(["steklov", "--mesh", "builtin:disk:0", "-k", "2",
                         "--out", str(path)]) == 0
        with pytest.raises(PreconditionError) as info:
            read_csv(path, CURVES_HEADER)
        message = str(info.value)
        assert "slice.csv" in message
        assert "['j', 'rho']" in message and "['t', 'i', 'j', 'rho']" in message


class TestInstantsCommand:
    def test_descending_instants_and_round_trip(self, disk_model_path, tmp_path):
        out_json = tmp_path / "instants.json"
        out_csv = tmp_path / "instants.csv"
        status = cli.main(
            ["instants", "--model", disk_model_path, "--t-min", "0.3", "--t-max", "2.0",
             "--out-json", str(out_json), "--out-csv", str(out_csv)]
        )
        assert status == 0
        records = records_from_json(out_json)
        assert len(records) == 2  # torus eigenvalues 1 and 2 cross in [0.3, 2]
        t = [r.t_star for r in records]
        assert all(b < a for a, b in zip(t, t[1:]))
        # one row per crossing
        assert ([float(row[0]) for row in read_csv(out_csv, CSV_HEADER)]
                == [r.t_star for r in records for _ in r.crossings])

    def test_deterministic_output(self, disk_model_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out_json = tmp_path / f"{tag}.json"
            out_csv = tmp_path / f"{tag}.csv"
            assert cli.main(
                ["instants", "--model", disk_model_path, "--t-min", "0.5", "--t-max", "1.0",
                 "--out-json", str(out_json), "--out-csv", str(out_csv)]
            ) == 0
            outs.append((out_json.read_bytes(), out_csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_mesh_file_boundary_matches_builtin(self, disk_model_path, tmp_path):
        # the boundary {"path": ...} branch of a model, on the builtin disk saved
        from steklovbif import generate_disk
        from steklovbif.mesh import save_mesh

        save_mesh(generate_disk(DISK_TORUS_DOC["boundary"]["level"]), tmp_path / "mesh.json")
        mesh_model = tmp_path / "mesh_model.json"
        mesh_model.write_text(json.dumps(dict(DISK_TORUS_DOC, boundary={"path": "mesh.json"})))
        outs = []
        for tag, model in (("builtin", disk_model_path), ("file", str(mesh_model))):
            out_json, out_csv = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            assert cli.main(["instants", "--model", model, "--t-min", "0.3", "--t-max", "2.0",
                             "--out-json", str(out_json), "--out-csv", str(out_csv)]) == 0
            outs.append((out_json.read_bytes(), out_csv.read_bytes()))
        assert len(json.loads(outs[0][0])) == 2
        assert outs[0] == outs[1]

    def test_oracle_cross_check(self, disk_model_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status = cli.main(
            ["instants", "--model", disk_model_path, "--t-min", "0.5", "--t-max", "1.0",
             "--oracle"]
        )
        assert status == 0
        deltas = json.loads((tmp_path / "instants_oracle.json").read_text())
        assert len(deltas) == 1
        assert deltas[0]["rel_delta"] < 0.02

    def test_oracle_needs_disk_boundary(self, interval_model_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status = cli.main(
            ["instants", "--model", interval_model_path, "--t-min", "0.5", "--t-max", "1.0",
             "--oracle"]
        )
        assert status == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_config"
        # the precondition fires before anything is computed or written
        assert not (tmp_path / "instants.json").exists()
        assert not (tmp_path / "instants.csv").exists()

    def test_oracle_file_beside_dotted_out_json(self, disk_model_path, tmp_path):
        # only a trailing .json is replaced: the folder name keeps its own
        out_dir = tmp_path / "a.json.d"
        out_dir.mkdir()
        status = cli.main(
            ["instants", "--model", disk_model_path, "--t-min", "0.5", "--t-max", "1.0",
             "--oracle", "--out-json", str(out_dir / "inst.json"),
             "--out-csv", str(out_dir / "inst.csv")]
        )
        assert status == 0
        assert len(json.loads((out_dir / "inst_oracle.json").read_text())) == 1

    @pytest.mark.parametrize("H2", [0.0, -1.0])
    @pytest.mark.parametrize("command", ["instants", "report"])
    def test_oracle_without_instants(self, tmp_path, monkeypatch, command, H2):
        # Hhat <= 0 has no instants, so the oracle has no root to solve
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path, dict(DISK_TORUS_DOC, H2=H2))
        assert cli.main([command, "--model", "model.json", "--oracle"]) == 0
        if command == "instants":
            assert json.loads((tmp_path / "instants_oracle.json").read_text()) == []
        else:
            assert json.loads((tmp_path / "report" / "report.json").read_text())[
                "oracle_deltas"] == []

    def test_flat_model_empty(self, interval_model_path, tmp_path):
        out_json = tmp_path / "instants.json"
        out_csv = tmp_path / "instants.csv"
        status = cli.main(
            ["instants", "--model", interval_model_path, "--t-min", "0.001", "--t-max", "1000",
             "--out-json", str(out_json), "--out-csv", str(out_csv)]
        )
        assert status == 0
        assert records_from_json(out_json) == []


class TestCertifyCommand:
    def test_certify_emitted_instants(self, disk_model_path, tmp_path):
        out_json = tmp_path / "instants.json"
        out_csv = tmp_path / "i.csv"
        cli.main(
            ["instants", "--model", disk_model_path, "--t-min", "0.3", "--t-max", "2.0",
             "--out-json", str(out_json), "--out-csv", str(out_csv)]
        )
        cert_json = tmp_path / "certified.json"
        cert_csv = tmp_path / "certified.csv"
        status = cli.main(
            ["certify", "--model", disk_model_path, "--instants", str(out_json),
             "--out-json", str(cert_json), "--out-csv", str(cert_csv)]
        )
        assert status == 0
        certified = records_from_json(cert_json)
        assert all(r.certified for r in certified)
        assert certified[0].n_minus - certified[0].n_plus == certified[0].nullity


    @pytest.mark.parametrize(
        "content",
        ["{", '{"t_star": 0.7, "crossings": [[1, 0, 4]], "nullity": 4}', '[{"t_star": "x"}]',
         '[{"t_star": 0.7, "crossings": [], "nullity": 0}]'],
        ids=["malformed-json", "object", "string-t-star", "no-crossings"],
    )
    def test_malformed_instants_rejected(self, disk_model_path, tmp_path, capsys, content):
        instants = tmp_path / "instants.json"
        instants.write_text(content)
        out_json = tmp_path / "c.json"
        status = cli.main(["certify", "--model", disk_model_path, "--instants", str(instants),
                           "--out-json", str(out_json), "--out-csv", str(tmp_path / "c.csv")])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert str(instants) in payload["detail"]
        assert not out_json.exists()

    @pytest.mark.parametrize("t_star", [0, -1, 5e-324])
    def test_nonpositive_t_star_rejected(self, disk_model_path, tmp_path, capsys, t_star):
        # a well-typed record from outside the program, with no radius around
        # it: 0.05 * 5e-324 rounds to 0
        instants = tmp_path / "instants.json"
        instants.write_text(json.dumps([{"t_star": t_star, "crossings": [[1, 0, 4]],
                                         "nullity": 4}]))
        out_json, out_csv = tmp_path / "c.json", tmp_path / "c.csv"
        status = cli.main(["certify", "--model", disk_model_path, "--instants", str(instants),
                           "--out-json", str(out_json), "--out-csv", str(out_csv)])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "precondition", "detail": "t_star must leave a positive "
                           f"radius 0.05 * t_star, got t_star = {float(t_star)}"}
        assert not out_json.exists() and not out_csv.exists()


    def test_certify_above_the_edge(self, tmp_path):
        model_path, out_json = write_model(tmp_path, EDGE_DOC), tmp_path / "instants.json"
        assert cli.main(["instants", "--model", str(model_path), "--t-min", EDGE_T_MIN,
                         "--out-json", str(out_json), "--out-csv", str(tmp_path / "i.csv")]) == 0
        (record,) = records_from_json(out_json)
        assert record.crossings == ((1, 0, 2),)
        cert_json = tmp_path / "certified.json"
        assert cli.main(["certify", "--model", str(model_path), "--instants", str(out_json),
                         "--out-json", str(cert_json), "--out-csv", str(tmp_path / "c.csv")]) == 0
        (out,) = records_from_json(cert_json)
        assert (out.n_minus, out.n_plus, out.certified) == (2, 0, True)
        assert out.epsilon == pytest.approx(0.0125 * out.t_star, rel=1e-12)

    def test_record_at_or_below_the_edge_exhausts_the_cutoff(self, tmp_path, capsys):
        model_path, instants = write_model(tmp_path, EDGE_DOC), tmp_path / "instants.json"
        instants.write_text(json.dumps([{"t_star": 0.7, "crossings": [[2, 0, 1]],
                                         "nullity": 1}]))
        out_json = tmp_path / "c.json"
        status = cli.main(["certify", "--model", str(model_path), "--instants", str(instants),
                           "--out-json", str(out_json), "--out-csv", str(tmp_path / "c.csv")])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "cutoff_exhausted"
        assert "exhausted at t=0.7 " in payload["detail"]
        assert not out_json.exists()


class TestReportCommand:
    def test_report_summary(self, disk_model_path, tmp_path):
        out_dir = tmp_path / "report"
        status = cli.main(
            ["report", "--model", disk_model_path, "--t-min", "0.3", "--t-max", "2.0",
             "--oracle", "--out", str(out_dir)]
        )
        assert status == 0
        summary = json.loads((out_dir / "report.json").read_text())
        assert summary["model"]["Hhat"] == pytest.approx(1 / 3)
        assert len(summary["instants"]) == 2
        assert all(r["certified"] for r in summary["instants"])
        indices = [row["morse_index"] for row in summary["morse_indices"]]
        assert indices == sorted(indices)  # descending t order: index grows downward
        self._check_indices_against_certification(summary)
        assert summary["oracle_deltas"][0]["rel_delta"] < 0.02
        assert (out_dir / "instants.csv").exists()

    # the Morse indices of disk x torus over [0.05, 10] at Hhat = 1/3
    DISK_TORUS_MORSE_INDICES = [0, 4, 8, 12, 20, 24, 28, 36, 44]

    @staticmethod
    def _morse_indices(summary):
        return [row["morse_index"] for row in summary["morse_indices"]]

    @staticmethod
    def _check_indices_against_certification(summary):
        """Each reported Morse index is n_minus of the record above its point
        and n_plus of the record below it, and consecutive records agree."""
        records = summary["instants"]
        for above, below in zip(records, records[1:]):
            assert above["n_minus"] == below["n_plus"]
        assert summary["morse_indices"]
        for row in summary["morse_indices"]:
            above = [r for r in records if r["t_star"] > row["t"]]
            below = [r for r in records if r["t_star"] < row["t"]]
            assert len(above) + len(below) == len(records)
            if above:
                assert row["morse_index"] == above[-1]["n_minus"]
            if below:
                assert row["morse_index"] == below[0]["n_plus"]

    @staticmethod
    def _report_calls(tmp_path, monkeypatch, level, H2=1.0, t_min=0.05):
        """Slices, inertia count calls and S(c) formations of report on
        disk L<level> x torus over [t_min, 10], and its summary."""
        calls = {"robin_steklov_spectrum": 0, "count_below": 0, "_multifrontal_schur": 0}
        for name in calls:
            original = getattr(spectral, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("steklovbif") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, H2=H2,
                                                 boundary={"builtin": "disk", "level": level}))
        status = cli.main(["report", "--model", str(model_path), "--t-min", str(t_min),
                           "--t-max", "10", "--out", str(tmp_path / "report")])
        assert status == 0
        summary = json.loads((tmp_path / "report" / "report.json").read_text())
        TestReportCommand._check_indices_against_certification(summary)
        return calls, summary

    def test_report_budget(self, tmp_path, monkeypatch):
        # disk L4 x torus on [0.05, 10]: no slice is solved.  The c_j* table
        # is one level-crossing solve on one S(0), whose inertia sizes it and
        # whose fronts and Bunch-Kaufman factor are the solve's operator, and
        # its residual bound proves the one root; certification and the Morse
        # indices read the table, and one count per factor index at the first
        # midpoint, through the first empty row, anchors them
        calls, summary = self._report_calls(tmp_path, monkeypatch, 4)
        assert self._morse_indices(summary) == self.DISK_TORUS_MORSE_INDICES
        assert calls == {"robin_steklov_spectrum": 0, "count_below": 1, "_multifrontal_schur": 2}

    def test_report_budget_on_the_multifrontal_path(self, tmp_path, monkeypatch):
        # disk L5 has 256 boundary dofs, twice L4's, yet the report still
        # solves no slice, makes the same counts and S(c) and finds the
        # same Morse indices
        calls, summary = self._report_calls(tmp_path, monkeypatch, 5)
        assert self._morse_indices(summary) == self.DISK_TORUS_MORSE_INDICES
        assert calls == {"robin_steklov_spectrum": 0, "count_below": 1, "_multifrontal_schur": 2}

    @pytest.mark.parametrize("level, H2, t_min", [(4, 4.0, 0.3), (4, 7.0, 0.6), (5, 7.0, 0.6)])
    def test_report_factorizations_at_double_roots(self, tmp_path, monkeypatch, level, H2,
                                                   t_min):
        # Hhat = 4/3 and 7/3, where the disk has double roots: the table's one
        # S(0), no bracket count, and the anchor's one count, as at 1/3
        calls, summary = self._report_calls(tmp_path, monkeypatch, level, H2, t_min)
        assert all(r["certified"] for r in summary["instants"])
        assert calls == {"robin_steklov_spectrum": 0, "count_below": 1, "_multifrontal_schur": 2}

    @pytest.mark.parametrize("level, H2, t_min, instants", [
        (2, 4.0, 0.3, 10), (3, 7.0, 0.6, 17), (4, 1.0, 0.05, 8), (4, 4.0, 0.3, 10),
        (4, 7.0, 0.6, 17), (5, 1.0, 0.05, 8), (5, 7.0, 0.6, 17),
    ])
    def test_report_makes_no_superlu_call(self, tmp_path, monkeypatch, level, H2, t_min,
                                          instants):
        # counts and the c_j* table factor only by the interior's Cholesky;
        # every instant is certified with an index jump equal to its
        # multiplicity, also on disk L2 and L3, whose counts take the band
        # while only the table builds the fronts
        import scipy.sparse.linalg as spla

        def superlu(*args, **kwargs):
            raise AssertionError("SuperLU called")

        monkeypatch.setattr(spla, "splu", superlu)
        monkeypatch.setattr(spla, "spilu", superlu)
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, H2=H2,
                                                 boundary={"builtin": "disk", "level": level}))
        assert cli.main(["report", "--model", str(model_path), "--t-min", str(t_min),
                         "--t-max", "10", "--out", str(tmp_path / "report")]) == 0
        summary = json.loads((tmp_path / "report" / "report.json").read_text())
        assert len(summary["instants"]) == instants
        assert all(r["certified"] and r["n_minus"] - r["n_plus"] == r["nullity"]
                   for r in summary["instants"])
        self._check_indices_against_certification(summary)

    @pytest.mark.parametrize("level, H2, flags", [
        (4, 1.0, "--oracle --t-min 0.05 --t-max 10"), (4, 7.0, "--t-min 0.6"),
        (3, 7.0, "--t-min 0.6"),
    ], ids=["disk4-oracle", "disk4-H2-7", "disk3-H2-7"])
    def test_report_repeats_and_certify_reproduces_it(self, tmp_path, level, H2, flags):
        # two reports write the same bytes, and certify on the first one's
        # instants.json writes its instants.json and instants.csv byte for byte
        model = str(write_model(tmp_path, dict(DISK_TORUS_DOC, H2=H2,
                                               boundary={"builtin": "disk", "level": level})))
        files = ("report.json", "instants.json", "instants.csv")
        runs = []
        for run in ("1", "2"):
            assert cli.main(["report", "--model", model, *flags.split(), "--out",
                             str(tmp_path / run)]) == 0
            runs.append([(tmp_path / run / name).read_bytes() for name in files])
        assert runs[0] == runs[1]
        out = [str(tmp_path / name) for name in ("certified.json", "certified.csv")]
        assert cli.main(["certify", "--model", model, "--instants", str(tmp_path / "1" / files[1]),
                         "--out-json", out[0], "--out-csv", out[1]]) == 0
        assert [Path(name).read_bytes() for name in out] == runs[0][1:]

    def test_crossing_count_mismatch_exits_two(self, tmp_path, capsys, monkeypatch):
        # the inertia counts bracketing a root group that the residual bound
        # cannot prove must equal the table's; one off by one is a numerical
        # failure, not a report.  Hhat 1e-7 relative above the double sigma_1
        # of disk L2 puts a double root at rounding level, c* = 4e-7, which
        # only the bracket counts prove; the counts at c = 0 stay true, so the
        # brackets are the first counts the fault reaches
        from steklovbif import generate_disk

        sigma = steklov_spectrum(assemble(generate_disk(2)), 3).eigenvalues[1]
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, H2=3 * sigma * (1 + 1e-7),
                                                 boundary={"builtin": "disk", "level": 2}))
        argv = ["report", "--model", str(model_path), "--t-min", "0.5",
                "--out", str(tmp_path / "report")]
        assert cli.main(argv) == 0
        assert len(json.loads((tmp_path / "report" / "report.json").read_text())[
            "instants"]) == 4
        (tmp_path / "report" / "report.json").unlink()

        count_below = spectral.count_below
        monkeypatch.setattr(spectral, "count_below",
                            lambda forms, c, lam: count_below(forms, c, lam) + (c > 0))
        assert cli.main(argv) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "eigensolver_failure"
        assert "an inertia count puts" in payload["detail"]
        assert not (tmp_path / "report" / "report.json").exists()

    def test_lanczos_non_convergence_exits_two(self, tmp_path, capsys, monkeypatch):
        # the table's ARPACK solve stalls: a numerical failure, not a report
        def stalled(*args, **kwargs):
            raise spectral.spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                                    np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral.spla, "eigsh", stalled)
        model_path = write_model(tmp_path, DISK_TORUS_DOC)
        assert cli.main(["report", "--model", str(model_path), "--t-min", "0.5",
                         "--out", str(tmp_path / "report")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "eigensolver_failure"
        assert "level-crossing iteration did not converge" in payload["detail"]
        assert not (tmp_path / "report" / "report.json").exists()

    def test_root_beyond_the_residual_bound_exits_two(self, tmp_path, capsys):
        # disk L4 at Hhat 1e-7 relative above the double sigma_1: a double root
        # at rounding level, c* = 4e-7, whose windows are 4e-15 wide, while
        # Kahan's eta is about 2e-7, half the root; the bracket counts then
        # disagree with the solve, a numerical failure, not a report (disk L2
        # passes, see above)
        from steklovbif import generate_disk

        sigma = steklov_spectrum(assemble(generate_disk(4)), 3).eigenvalues[1]
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, H2=3 * sigma * (1 + 1e-7),
                                                 boundary={"builtin": "disk", "level": 4}))
        assert cli.main(["report", "--model", str(model_path), "--t-min", "0.5",
                         "--out", str(tmp_path / "report")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "eigensolver_failure"
        # which bracket side disagrees, and by how much, rests on the last bits
        # of sigma_1 and of the solve
        assert re.search(r"an inertia count puts \d above c=4\.0016\d*e-07, the solve \d",
                         payload["detail"])
        assert not (tmp_path / "report" / "report.json").exists()

    @pytest.mark.xfail(strict=True, reason=(
        "the closed-form K of dba5625 flipped disk L3 to exit 2 (an inertia count puts 2 "
        "above c=4.0064308586e-07, the solve 1); ROADMAP item 2 turns it on"))
    def test_near_steklov_report_on_disk_l3(self, tmp_path):
        # the report of test_crossing_count_mismatch_exits_two on disk L3, at
        # Hhat 1e-7 relative above the L3 disk's own double sigma_1
        from steklovbif import generate_disk

        sigma = steklov_spectrum(assemble(generate_disk(3)), 3).eigenvalues[1]
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, H2=3 * sigma * (1 + 1e-7)))
        assert cli.main(["report", "--model", str(model_path), "--t-min", "0.5",
                         "--out", str(tmp_path / "report")]) == 0
        assert len(json.loads((tmp_path / "report" / "report.json").read_text())[
            "instants"]) == 4

    def test_report_above_the_edge(self, tmp_path):
        model_path = write_model(tmp_path, EDGE_DOC)
        assert cli.main(["report", "--model", str(model_path), "--t-min", EDGE_T_MIN,
                         "--out", str(tmp_path / "report")]) == 0
        summary = json.loads((tmp_path / "report" / "report.json").read_text())
        (record,) = summary["instants"]
        assert (record["n_minus"], record["n_plus"], record["certified"]) == (2, 0, True)
        assert record["epsilon"] == pytest.approx(0.0125 * record["t_star"], rel=1e-12)
        assert self._morse_indices(summary) == [0, 2]
        self._check_indices_against_certification(summary)

    def test_anchor_counts_rows_through_first_empty(self, tmp_path, monkeypatch):
        # disk L3 x torus on [0.05, 0.16]: the first midpoint, near 0.152, has
        # branches below Hhat at factor indices 1-3, so the anchor counts
        # indices 1 through 4, one count each, at c = t * rho_i
        count_below, seen = spectral.count_below, []

        def recorded(forms, c, lam):
            seen.append(c)
            return count_below(forms, c, lam)

        monkeypatch.setattr(spectral, "count_below", recorded)
        model_path = write_model(tmp_path, DISK_TORUS_DOC)
        status = cli.main(["report", "--model", str(model_path), "--t-min", "0.05",
                           "--t-max", "0.16", "--out", str(tmp_path / "report")])
        assert status == 0
        t = json.loads((tmp_path / "report" / "report.json").read_text())[
            "morse_indices"][0]["t"]
        assert t == pytest.approx(0.152, abs=1e-3)
        rows = [t * rho for rho, _ in load_model(model_path).factor.entries]
        assert [c for c in seen if c in rows[1:]] == rows[1:5]

    def test_anchor_checks_each_row(self, disk_model_path, tmp_path, capsys, monkeypatch):
        # counts off by +1 at factor index 1 and -1 at index 2 (both of
        # multiplicity 4) keep the Morse index; the row check still fails
        from steklovbif import product

        count_below, shift = spectral.count_below, {}

        def shifted(forms, c, lam):
            return count_below(forms, c, lam) + shift.get(c, 0)

        branch_sides = product.branch_sides

        def sides_then_shift(model, t):
            shift.update({t * model.factor.value(1): 1, t * model.factor.value(2): -1})
            return branch_sides(model, t)

        monkeypatch.setattr(spectral, "count_below", shifted)
        monkeypatch.setattr(product, "branch_sides", sides_then_shift)
        status = cli.main(["report", "--model", disk_model_path, "--t-min", "0.05",
                           "--t-max", "0.16", "--out", str(tmp_path / "report")])
        assert status == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "numerical"
        assert "anchor at t=" in payload["detail"]
        assert not (tmp_path / "report" / "report.json").exists()

    def test_anchor_mismatch_exits_two(self, disk_model_path, tmp_path, capsys, monkeypatch):
        # a table index off by one at every midpoint: the inertia counts at
        # the first midpoint disagree, and no report is written
        from steklovbif import product

        morse_index = product.morse_index
        monkeypatch.setattr(product, "morse_index", lambda *a, **kw: morse_index(*a, **kw) + 1)
        status = cli.main(["report", "--model", disk_model_path, "--t-min", "0.3",
                           "--t-max", "2.0", "--out", str(tmp_path / "report")])
        assert status == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "numerical"
        assert "anchor at t=" in payload["detail"]
        assert not (tmp_path / "report" / "report.json").exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, disk_model_path, tmp_path):
        # config window [0.5, 0.6] has no instants; the flag widens it to
        # [0.5, 0.9], which contains the first instant near 0.726
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model_path": disk_model_path,
            "t_min": 0.5,
            "t_max": 0.6,
            "out_json": str(tmp_path / "cfg_instants.json"),
            "out_csv": str(tmp_path / "cfg_instants.csv"),
        }))
        status = cli.main(["instants", "--config", str(cfg), "--t-max", "0.9"])
        assert status == 0
        records = records_from_json(tmp_path / "cfg_instants.json")
        assert len(records) == 1
        assert 0.5 <= records[0].t_star <= 0.9

    def test_unknown_config_key_rejected(self, disk_model_path, tmp_path, capsys):
        # a misspelt t_min must not fall back to the default window
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model_path": disk_model_path,
            "t_mn": 0.5,
            "t_max": 0.9,
            "out_json": str(tmp_path / "instants.json"),
            "out_csv": str(tmp_path / "instants.csv"),
        }))
        assert cli.main(["instants", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert "'t_mn'" in payload["detail"]
        assert not (tmp_path / "instants.json").exists()

    @pytest.mark.parametrize(
        "command,config,detail",
        [
            ("instants", '{"t_min": 0.5,', "not valid JSON"),
            ("instants", "[1]", "must hold a JSON object"),
            ("instants", '{"t_min": "0.1"}', "'t_min'"),
            ("eigencurve", '{"t_steps": 2.5}', "'t_steps'"),
            ("instants", '{"oracle_check": "no"}', "'oracle_check'"),
            ("eigencurve", '{"j_list": [0, "1"]}', "'j_list'"),
        ],
        ids=["malformed-json", "not-an-object", "string-float", "float-int", "string-bool",
             "string-index"],
    )
    def test_malformed_config_rejected(self, disk_model_path, tmp_path, capsys, command, config,
                                       detail):
        # each on a command that reads the key
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        out = tmp_path / "out"
        outs = {"instants": ["--out-json", str(out), "--out-csv", str(tmp_path / "i.csv")],
                "eigencurve": ["--out", str(out)]}
        status = cli.main([command, "--config", str(cfg), "--model", disk_model_path]
                          + outs[command])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert detail in payload["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        ("steklov", "model_path"), ("eigencurve", "out_json"), ("instants", "epsilon"),
        ("certify", "t_min"), ("report", "out_json"), ("certify", "epsilon"),
        ("report", "epsilon"),
    ] + [(command, "command") for command in cli.COMMANDS])
    def test_config_key_the_command_does_not_read_rejected(self, disk_model_path, tmp_path,
                                                           capsys, monkeypatch, command, key):
        # a config holds only its command's parameters: a field of another
        # command is refused like a misspelt key, before anything is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "records.json").write_text("[]")
        value = {"model_path": disk_model_path, "out_json": "x.json", "epsilon": 0.1,
                 "t_min": 0.5, "command": "report"}[key]
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        args = {"steklov": ["--mesh", "builtin:disk:1"],
                "certify": ["--model", disk_model_path, "--instants", "records.json"]}
        assert cli.main([command, "--config", "run.json"]
                        + args.get(command, ["--model", disk_model_path])) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert f"unknown config key {key!r} for command {command!r}" in payload["detail"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "records.json",
                                                               "run.json"]

    def test_config_sets_what_the_flags_set(self, disk_model_path, tmp_path):
        flags = ["--model", disk_model_path, "--i", "1,2", "--j", "0,1", "--t-min", "0.5",
                 "--t-max", "2", "--t-steps", "3", "--out", str(tmp_path / "flags.csv")]
        assert cli.main(["eigencurve"] + flags) == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model_path": disk_model_path, "i_list": [1, 2],
                                   "j_list": [0, 1], "t_min": 0.5, "t_max": 2, "t_steps": 3,
                                   "out": str(tmp_path / "config.csv")}))
        assert cli.main(["eigencurve", "--config", str(cfg)]) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

    def test_null_leaves_a_field_at_its_default(self, disk_model_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "records.json").write_text("[]")
        (tmp_path / "run.json").write_text(json.dumps({
            "model_path": disk_model_path, "instants_path": "records.json", "out_json": None,
            "out_csv": None}))
        assert cli.main(["certify", "--config", "run.json"]) == 0
        assert (tmp_path / "certified.csv").exists()

    def test_malformed_model_rejected(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"m1": 2,')
        status = cli.main(["instants", "--model", str(model_path),
                           "--out-json", str(tmp_path / "i.json"),
                           "--out-csv", str(tmp_path / "i.csv")])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert "not valid JSON" in payload["detail"]

    @pytest.mark.parametrize(
        "change,oracle",
        [({"m1": "x"}, False), ({"factor": [1, 2]}, False), ({"boundary": "disk"}, True),
         ({"boundary": "disk"}, False), ({"m1": 2.7}, False), ({"m1": "2"}, False),
         ({"H2": "1"}, False), ({"H2": True}, False),
         ({"boundary": {"builtin": "disk", "level": "1"}}, False),
         ({"boundary": {"builtin": "disk", "level": 1.9}}, False),
         ({"boundary": {"builtin": "disk", "level": True}}, False),
         ({"factor": {"flat_torus": dict(DISK_TORUS_DOC["factor"]["flat_torus"],
                                         cutoff="20")}}, False)],
        ids=["string-dimension", "list-factor", "string-boundary-oracle", "string-boundary",
             "fractional-dimension", "numeric-string-dimension", "string-H2", "boolean-H2",
             "string-level", "fractional-level", "boolean-level", "string-cutoff"],
    )
    def test_mistyped_model_rejected(self, tmp_path, capsys, change, oracle):
        model_path = write_model(tmp_path, dict(DISK_TORUS_DOC, **change))
        out_json = tmp_path / "i.json"
        status = cli.main(["instants", "--model", str(model_path), "--out-json", str(out_json),
                           "--out-csv", str(tmp_path / "i.csv")] + ["--oracle"] * oracle)
        assert status == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_config"
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "change,detail",
        [({"m1": 3}, "m1=3 does not match factor dimension 2"),
         ({"m2": 3}, "m2=3 does not match boundary mesh dimension 2"),
         ({"m2": 1}, "m2=1 does not match boundary mesh dimension 2")],
        ids=["m1-3", "m2-3", "m2-1"],
    )
    def test_dimension_mismatch_refused(self, tmp_path, capsys, change, detail):
        # a model file's m1 and m2 must be its factor's and its mesh's dimensions
        doc = dict(DISK_TORUS_DOC, boundary={"builtin": "disk", "level": 1}, **change)
        out = tmp_path / "report"
        assert cli.main(["report", "--model", str(write_model(tmp_path, doc)),
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == json.dumps({"error": "precondition", "detail": detail}) + "\n"
        assert captured.out == "" and not out.exists()

    _TORUS = DISK_TORUS_DOC["factor"]["flat_torus"]
    _TRIANGLE = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}

    @pytest.mark.parametrize(
        "model,mesh,reason",
        [
            ({"factor": {"flat_torus": {"basis": _TORUS["basis"]}}}, None, "bad_config"),
            ({"factor": {"dim": "x", "entries": [[0, 1], [1, 4]], "cutoff": 1}}, None,
             "bad_config"),
            ({"factor": {"dim": 2, "entries": [[0, 1], [1]], "cutoff": 1}}, None, "bad_config"),
            ({"factor": {"dim": 2, "entries": [[0, 1], [1, 4.0]], "cutoff": 1}}, None,
             "bad_config"),
            ({"boundary": {"builtin": "disk", "level": "x"}}, None, "bad_config"),
            ({"factor": {"path": "missing.json"}}, None, "bad_config"),
            ({"boundary": {"path": "missing.json"}}, None, "bad_config"),
            (None, "{", "bad_config"),
            (None, json.dumps(dict(_TRIANGLE, cells=[[0, 1, "x"]])), "invalid_mesh"),
            (None, json.dumps(dict(_TRIANGLE, cells=[[0, 1, 2.5]])), "invalid_mesh"),
            (None, json.dumps(dict(_TRIANGLE, cells=[[0, 1]])), "invalid_mesh"),
            (None, json.dumps(dict(_TRIANGLE, dim="2", cells=[[0, 1, 2]])), "invalid_mesh"),
            ({"factor": {"flat_torus": {"basis": [["6.283185307179586", 0],
                                                  [0, "6.283185307179586"]], "cutoff": 20}}},
             None, "bad_config"),
            (None, json.dumps({"dim": 2, "vertices": [["0", 0], [1, 0], [0, 1]],
                               "cells": [[0, 1, 2]]}), "invalid_mesh"),
            (None, json.dumps({"dim": 2, "vertices": [[0, 0], [True, 0], [0, 1]],
                               "cells": [[0, 1, 2]]}), "invalid_mesh"),
            (None, json.dumps(dict(_TRIANGLE, cells=[[0, True, 2]])), "invalid_mesh"),
            (None, json.dumps({"dim": 2, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                               "cells": [[0, 1, 2]]}), "invalid_mesh"),
        ],
        ids=["torus-without-cutoff", "string-factor-dim", "one-number-entry",
             "fractional-multiplicity", "string-disk-level", "missing-factor-path",
             "missing-boundary-path", "malformed-mesh-json", "string-cell", "fractional-cell",
             "two-vertex-cell", "string-mesh-dim", "string-basis-entry", "string-vertex",
             "boolean-vertex", "boolean-cell", "three-wide-vertex"],
    )
    def test_bad_input_file_fails_structured(self, tmp_path, capsys, model, mesh, reason):
        # a model through instants --model, a mesh through steklov --mesh
        if model is not None:
            path = write_model(tmp_path, dict(DISK_TORUS_DOC, **model))
            argv = ["instants", "--model", str(path), "--out-json", str(tmp_path / "i.json"),
                    "--out-csv", str(tmp_path / "i.csv")]
        else:
            path = tmp_path / "mesh.json"
            path.write_text(mesh)
            argv = ["steklov", "--mesh", str(path), "-k", "1", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == reason
        assert not any(tmp_path.glob("[is].*"))

    @pytest.mark.parametrize("flag", ["--config", "--model"])
    def test_directory_rejected(self, disk_model_path, tmp_path, capsys, flag):
        # a later --model overrides the first
        status = cli.main(["instants", "--model", disk_model_path, flag, str(tmp_path),
                           "--out-json", str(tmp_path / "i.json"),
                           "--out-csv", str(tmp_path / "i.csv")])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert "unreadable" in payload["detail"]

    def test_bad_range_rejected(self, disk_model_path, capsys):
        status = cli.main(
            ["instants", "--model", disk_model_path, "--t-min", "2.0", "--t-max", "1.0"]
        )
        assert status == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad_config"

    @pytest.mark.parametrize("command", ["report", "eigencurve"])
    @pytest.mark.parametrize("flag, value", [("--t-max", "inf"), ("--t-min", "nan"),
                                             ("--t-max", "nan"), ("--t-min", "-inf")])
    def test_non_finite_range_rejected(self, disk_model_path, tmp_path, capsys, command,
                                       flag, value):
        # inf <= t_min and a NaN's every comparison are false: the range must
        # be checked finite before any count at c = t * rho_i
        out = tmp_path / "out"
        status = cli.main([command, "--model", disk_model_path, f"{flag}={value}",
                           "--out", str(out)])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert "finite" in payload["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["H2", "cutoff", "entry", "L", "vertex", "t_star"])
    def test_non_finite_number_in_input_file_rejected(self, disk_model_path, tmp_path, capsys,
                                                      field, literal):
        # the JSON reader accepts NaN and Infinity and reads 1e400 as infinity;
        # each must fail as a mistyped value of the model, mesh or records
        # file, not as a later precondition or a silent empty answer
        mark = -1234.5  # stands for the literal in the written file
        docs = {
            "H2": dict(DISK_TORUS_DOC, H2=mark),
            "cutoff": dict(DISK_TORUS_DOC, factor={"flat_torus": dict(
                DISK_TORUS_DOC["factor"]["flat_torus"], cutoff=mark)}),
            "entry": dict(DISK_TORUS_DOC, factor={"dim": 2, "entries": [[0, 1], [mark, 4]],
                                                  "cutoff": 20}),
            "L": dict(INTERVAL_DOC, boundary={"builtin": "interval", "n": 100, "L": mark}),
            "vertex": {"dim": 2, "vertices": [[0, 0], [mark, 0], [0, 1]], "cells": [[0, 1, 2]]},
            "t_star": [{"t_star": mark, "crossings": [[1, 0, 1]], "nullity": 1}],
        }
        path = tmp_path / "input.json"
        path.write_text(json.dumps(docs[field]).replace(str(mark), literal))
        out = ["--out-json", str(tmp_path / "i.json"), "--out-csv", str(tmp_path / "i.csv")]
        argv = {"vertex": ["steklov", "--mesh", str(path), "--out", str(tmp_path / "s.csv")],
                "t_star": ["certify", "--model", disk_model_path, "--instants", str(path)] + out}
        assert cli.main(argv.get(field, ["instants", "--model", str(path)] + out)) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == ("invalid_mesh" if field == "vertex" else "bad_config")
        assert "finite" in payload["detail"]
        assert not any(tmp_path.glob("[is].*"))

    @pytest.mark.parametrize("command", ["certify", "report"])
    def test_epsilon_flag_is_gone(self, disk_model_path, capsys, command):
        # the proved c_j* table decides the indices at every isolating radius:
        # none is tunable, and the flag is no longer parsed
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--model", disk_model_path, "--epsilon", "0.1"])
        assert exc.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_non_finite_interval_length_rejected(self, tmp_path, capsys):
        status = cli.main(["steklov", "--mesh", "builtin:interval:10:nan", "-k", "1",
                           "--out", str(tmp_path / "s.csv")])
        assert status == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert "L must be a finite JSON float" in payload["detail"]

    def test_numerical_failures_exit_two(self, disk_model_path, capsys, monkeypatch):
        def boom(cfg):
            raise EigensolverError("synthetic non-convergence")

        command_help, _, flags = cli.COMMANDS["instants"]
        monkeypatch.setitem(cli.COMMANDS, "instants", (command_help, boom, flags))
        status = cli.main(
            ["instants", "--model", disk_model_path, "--t-min", "0.5", "--t-max", "1.0"]
        )
        assert status == 2
        assert json.loads(capsys.readouterr().err)["error"] == "eigensolver_failure"

    @pytest.mark.parametrize("command", ["certify", "report"])
    def test_degeneracy_rtol_is_gone(self, disk_model_path, tmp_path, capsys, monkeypatch,
                                     command):
        # degeneracy is decided by the proved c_j* windows alone: a config
        # that still sets the old tolerance is an unknown key, and the flag
        # is no longer parsed
        monkeypatch.chdir(tmp_path)  # a run that is not refused writes here
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"degeneracy_rtol": 1e-6}))
        assert cli.main([command, "--config", str(cfg), "--model", disk_model_path]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "bad_config"
        assert "unknown config key 'degeneracy_rtol'" in payload["detail"]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--model", disk_model_path, "--degeneracy-rtol", "1e-6"])
        assert exc.value.code == 2
        assert "--degeneracy-rtol" in capsys.readouterr().err


# values of every JSON kind that a valid input's field may lack; NaN and
# Infinity, which the JSON reader accepts, replace a value of any kind
_SWAPS = ("x", True, None, [1], math.nan, math.inf)
_SMALL_MODEL = dict(DISK_TORUS_DOC, boundary={"builtin": "disk", "level": 1})
_RECORDS = [{"t_star": 0.7, "crossings": [[1, 0, 4]], "nullity": 4}]
_OUT = ["--out-json", "out.json", "--out-csv", "out.csv"]
# input: (file, valid document, keys with a default, argv), run in the
# folder that holds model.json and records.json
_INPUTS = {
    "model": ("model.json", _SMALL_MODEL, {("boundary", "level")},
              ["instants", "--model", "model.json", "--t-min", "0.5", "--t-max", "2"] + _OUT),
    "mesh": ("mesh.json", {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]],
                           "cells": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]}, set(),
             ["steklov", "--mesh", "mesh.json", "-k", "2", "--out", "out.csv"]),
    "records": ("records.json", _RECORDS, set(),
                ["certify", "--model", "model.json", "--instants", "records.json"] + _OUT),
    "steklov-config": ("run.json", {"mesh_spec": "builtin:disk:1", "k": 3}, {("k",)},
                       ["steklov", "--config", "run.json", "--out", "out.csv"]),
    "eigencurve-config": ("run.json", {"model_path": "model.json", "i_list": [1, 2],
                                       "j_list": [0, 1], "t_min": 0.5, "t_max": 2.0,
                                       "t_steps": 3},
                          {("i_list",), ("j_list",), ("t_min",), ("t_max",), ("t_steps",)},
                          ["eigencurve", "--config", "run.json", "--out", "out.csv"]),
    "instants-config": ("run.json", {"model_path": "model.json", "t_min": 0.5, "t_max": 2.0,
                                     "oracle_check": True},
                        {("t_min",), ("t_max",), ("oracle_check",)},
                        ["instants", "--config", "run.json"] + _OUT),
    "certify-config": ("run.json", {"model_path": "model.json", "instants_path": "records.json"},
                       set(), ["certify", "--config", "run.json"] + _OUT),
    "report-config": ("run.json", {"model_path": "model.json", "t_min": 0.5, "t_max": 2.0,
                                   "oracle_check": True},
                      {("t_min",), ("t_max",), ("oracle_check",)},
                      ["report", "--config", "run.json", "--out", "out"]),
}


def _kind(value) -> str:
    """The JSON kind of a value, a non-finite number apart from the finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number" if math.isfinite(value) else "non-finite"
    return type(value).__name__


def _mutations(doc, defaulted) -> list:
    """Every type-breaking mutation of a JSON document but truncation: a
    value swapped for one of another kind, (path, value), and a key without
    a default dropped, (path,)."""
    found = []

    def walk(value, path):
        found.extend((path, swap) for swap in _SWAPS if _kind(swap) != _kind(value))
        items = value.items() if isinstance(value, dict) else enumerate(
            value if isinstance(value, list) else [])
        for key, item in items:
            if isinstance(value, dict) and path + (key,) not in defaulted:
                found.append((path + (key,),))
            walk(item, path + (key,))

    walk(doc, ())
    return found


def _mutated(doc, mutation) -> str:
    """The text of doc with a mutation applied; an int cuts the text there."""
    if isinstance(mutation, int):
        return json.dumps(doc)[:mutation]
    path, *swap = mutation
    if not path:
        return json.dumps(swap[0])
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if swap:
        parent[path[-1]] = swap[0]
    else:
        del parent[path[-1]]
    return json.dumps(doc)


class TestMutatedInputs:
    """A valid model, mesh, records file or run config with one value of the
    wrong JSON kind, NaN or Infinity, a required key dropped, or its text
    cut short: every command refuses it with exit status 1 and a
    machine-readable reason, writes nothing, and never raises."""

    @pytest.mark.parametrize("name", list(_INPUTS))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_refused(self, tmp_path, monkeypatch, capsys, name, data):
        monkeypatch.chdir(tmp_path)
        file, doc, defaulted, argv = _INPUTS[name]
        Path("model.json").write_text(json.dumps(_SMALL_MODEL))
        Path("records.json").write_text(json.dumps(_RECORDS))
        mutation = data.draw(st.sampled_from(_mutations(doc, defaulted))
                             | st.integers(0, len(json.dumps(doc)) - 1))
        Path(file).write_text(_mutated(doc, mutation))
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert set(json.loads(capsys.readouterr().err)) == {"error", "detail"}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"model.json", "records.json", file})
