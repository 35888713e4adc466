"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one steklovbif command on one model.  The seed moves only
the lower edge of the t window, inside a range that keeps the work the same:
the same instants and truncation for ``disk4_report``, the same number of
slices for the eigencurve workloads.  The largest error against the oracle sits
at the fixed upper edge ``t_max``, so the seed does not move ``max_rel_err``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

TWO_PI = 2.0 * math.pi
TORUS_CUTOFF = 20.0


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def torus_levels(cutoff: float) -> list[tuple[float, int]]:
    """Distinct Laplace eigenvalues |k|^2, k in Z^2, of the 2pi-square torus,
    with multiplicities; computed here, independently of the program."""
    r = int(math.isqrt(int(cutoff)))
    counts = Counter(
        a * a + b * b for a in range(-r, r + 1) for b in range(-r, r + 1) if a * a + b * b <= cutoff
    )
    return sorted((float(v), m) for v, m in counts.items())


def model_doc(m2: int, boundary: dict) -> dict:
    return {
        "m1": 2,
        "m2": m2,
        "H2": 1.0,
        "factor": {"flat_torus": {"basis": [[TWO_PI, 0.0], [0.0, TWO_PI]], "cutoff": TORUS_CUTOFF}},
        "boundary": boundary,
    }


def digest(out_dir: Path) -> str:
    """Hash of every output file, names included, so repeats compare byte for byte."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.params = self.make_params(random.Random(seed))

    def write_inputs(self, run_dir: Path) -> None:
        (run_dir / "model.json").write_text(json.dumps(self.model(), indent=2))

    def check(self, out_dir: Path) -> float:
        """Raise CheckFailed on a wrong output; return the worst relative
        deviation from the closed-form oracle."""
        raise NotImplementedError


class Disk4Report(Workload):
    """``report --oracle`` on disk level 4 x 2pi-square torus, window [t_min, 10]."""

    name = "disk4_report"
    T_MAX = 10.0
    HHAT = 1.0 / 3.0  # (m2 - 1) / (m - 1) * H2 with m1 = m2 = 2, H2 = 1

    def make_params(self, rng):
        # instants sit at c*/rho_i ~ 0.0558 (rho = 13) and 0.0454 (rho = 16):
        # any t_min strictly between keeps the same eight instants
        return {"t_min": round(rng.uniform(0.0460, 0.0550), 6)}

    def model(self):
        return model_doc(2, {"builtin": "disk", "level": 4})

    def argv(self, run_dir, out_dir):
        return ["report", "--model", str(run_dir / "model.json"),
                "--t-min", repr(self.params["t_min"]), "--t-max", repr(self.T_MAX),
                "--oracle", "--out", str(out_dir / "report")]

    def check(self, out_dir):
        from steklovbif import oracle

        path = out_dir / "report" / "report.json"
        _require(path.is_file(), f"missing {path}")
        doc = json.loads(path.read_text())
        c_star = oracle.solve_branch_root(oracle.disk_branch(0), self.HHAT)
        levels = torus_levels(TORUS_CUTOFF)
        expected = [
            (i, v, mu) for i, (v, mu) in enumerate(levels)
            if i >= 1 and self.params["t_min"] <= c_star / v <= self.T_MAX
        ]
        instants = doc["instants"]
        _require(len(expected) == 8, f"window holds {len(expected)} oracle instants, not 8")
        _require(len(instants) == 8, f"found {len(instants)} instants, expected 8")
        worst = 0.0
        index = 0
        indices = [index]
        for rec, (i, v, mu) in zip(instants, expected):
            t_oracle = c_star / v
            rel = abs(rec["t_star"] - t_oracle) / t_oracle
            _require(rec["crossings"] == [[i, 0, mu]],
                     f"crossings {rec['crossings']} at t*={rec['t_star']}, expected [[{i}, 0, {mu}]]")
            _require(rec["certified"], f"instant t*={rec['t_star']} not certified")
            _require(rec["n_minus"] - rec["n_plus"] == mu,
                     f"index jump {rec['n_minus'] - rec['n_plus']} at t*={rec['t_star']}, expected {mu}")
            _require(rel < 0.02, f"t*={rec['t_star']} is {rel:.3g} from c*/rho_i={t_oracle}")
            worst = max(worst, rel)
            index += mu
            indices.append(index)
        _require(instants[0]["n_minus"] - instants[0]["n_plus"] == 4, "first index jump is not 4")
        got = [m["morse_index"] for m in doc["morse_indices"]]
        _require(got == indices, f"Morse indices {got}, expected {indices}")
        return worst


class Eigencurve(Workload):
    """``eigencurve`` on a torus x boundary model, checked row by row against
    the closed-form branch values at c = t * rho_i."""

    T_MAX = 10.0

    def argv(self, run_dir, out_dir):
        p = self.params
        return ["eigencurve", "--model", str(run_dir / "model.json"),
                "--i", ",".join(map(str, self.I_LIST)), "--j", ",".join(map(str, self.J_LIST)),
                "--t-min", repr(p["t_min"]), "--t-max", repr(self.T_MAX),
                "--t-steps", str(self.T_STEPS), "--out", str(out_dir / "curves.csv")]

    def check(self, out_dir):
        path = out_dir / "curves.csv"
        _require(path.is_file(), f"missing {path}")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["t", "i", "j", "rho"], f"unexpected header {rows[0]}")
        rows = rows[1:]
        t_min, n = self.params["t_min"], self.T_STEPS
        t_grid = [t_min + (self.T_MAX - t_min) * s / (n - 1) for s in range(n)]
        expected = [(t, i, j) for i in self.I_LIST for j in self.J_LIST for t in t_grid]
        _require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
        levels = torus_levels(TORUS_CUTOFF)
        worst = 0.0
        for row, (t, i, j) in zip(rows, expected):
            got_t, got_i, got_j, rho = float(row[0]), int(row[1]), int(row[2]), float(row[3])
            _require((got_i, got_j) == (i, j) and abs(got_t - t) <= 1e-12 * t,
                     f"row {row} out of order, expected t={t}, i={i}, j={j}")
            want = self.oracle_value(t * levels[i][0], j)
            rel = abs(rho - want) / want
            _require(rel <= self.REL_TOL, f"rho={rho} at t={t}, i={i}, j={j}: {rel:.3g} from {want}")
            worst = max(worst, rel)
        return worst


class Disk6Eigencurve(Eigencurve):
    """Disk level 6 (512 boundary dofs, dense path), branches j = 0 and 3 of i = 1."""

    name = "disk6_eigencurve"
    I_LIST, J_LIST, T_STEPS = (1,), (0, 3), 3
    REL_TOL = 1e-3  # P1 error at level 6 is about 1.6e-4 at t = 10

    def make_params(self, rng):
        return {"t_min": round(rng.uniform(0.05, 0.5), 6)}

    def model(self):
        return model_doc(2, {"builtin": "disk", "level": 6})

    def oracle_value(self, c, j):
        from steklovbif import oracle

        return oracle.disk_spectrum(c, j + 1)[j]


class IntervalEigencurve(Eigencurve):
    """Interval n = 1000, L = 2 (2 boundary dofs), i = 1..4, j = 0, 1, 200 t samples."""

    name = "interval_eigencurve"
    I_LIST, J_LIST, T_STEPS = (1, 2, 3, 4), (0, 1), 200
    LENGTH = 2.0
    REL_TOL = 1e-4  # P1 error with n = 1000 is about 8.3e-6 at t = 10

    def make_params(self, rng):
        return {"t_min": round(rng.uniform(0.05, 0.15), 6)}

    def model(self):
        return model_doc(1, {"builtin": "interval", "n": 1000, "L": self.LENGTH})

    def oracle_value(self, c, j):
        from steklovbif import oracle

        return oracle.interval_robin_steklov("even" if j == 0 else "odd", c, self.LENGTH)


WORKLOADS = {w.name: w for w in (Disk4Report, Disk6Eigencurve, IntervalEigencurve)}
