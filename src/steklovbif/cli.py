"""Batch command line front end.

One self-describing JSON config per run; command line flags override config
fields so every reported number is reproducible from the emitted files.
Exit status: 0 success, 1 precondition violation, 2 numerical failure;
failures print a machine-readable reason to stderr.  It reads inputs, calls
``product`` and ``bifurcation`` and writes files; it owns no rule of theirs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from . import oracle, product, spectral
from .errors import ConfigError, SteklovBifError
from .fem import assemble
from .mesh import mesh_from_dict
from .serialize import read_json_object, typed, write_csv


@dataclass
class RunConfig:
    """Merged parameters of one run (defaults < config file < flags)."""

    command: str
    model_path: str | None = None
    mesh_spec: str | None = None
    k: int = 7
    i_list: tuple = (1,)
    j_list: tuple = (0,)
    t_min: float = 0.1
    t_max: float = 10.0
    t_steps: int = 30
    instants_path: str | None = None
    oracle_check: bool = False
    out: str | None = None
    out_json: str | None = None
    out_csv: str | None = None

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not 0 < self.t_min < self.t_max < np.inf:  # a NaN fails every comparison
            raise ConfigError(f"t range must be finite, ascending and positive, got "
                              f"[{self.t_min}, {self.t_max}]")
        if self.t_steps < 1:
            raise ConfigError("t_steps must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        for name in ("i_list", "j_list"):
            values = getattr(self, name)
            if not values or min(values) < 0:
                raise ConfigError(f"{name} must be a nonempty list of non-negative "
                                  f"indices, got {list(values)}")
        for path in (self.model_path, self.instants_path):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"referenced file does not exist: {path}")
        return self


# field: the JSON type of its values (a list for a tuple) and whether it takes null
_FIELD_TYPES = {f.name: ({"str": str, "int": int, "float": float, "bool": bool,
                          "tuple": list}[f.type.split(" | ")[0]], f.type.endswith(" | None"))
                for f in fields(RunConfig)}


def _config_value(key, value, path):
    """The value of config key, checked by the type rule of every input file."""
    kind, nullable = _FIELD_TYPES[key]
    if value is None and nullable:
        return None
    name = f"config key {key!r} in {path}"
    try:
        value = typed(value, kind, name)
        return tuple(typed(v, int, f"an entry of {name}") for v in value) if kind is list else value
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _mesh_from_spec(spec: str):
    """The mesh of --mesh: builtin:disk:<level>, builtin:interval:<n>:<L> or a mesh file."""
    if not spec.startswith("builtin:"):
        return mesh_from_dict({"path": spec})
    parts = spec.split(":")
    try:
        if parts[1] == "disk" and len(parts) == 3:
            return mesh_from_dict({"builtin": "disk", "level": int(parts[2])})
        if parts[1] == "interval" and len(parts) == 4:
            return mesh_from_dict({"builtin": "interval", "n": int(parts[2]), "L": float(parts[3])})
    except ValueError as exc:
        raise ConfigError(f"malformed builtin mesh {spec!r}: {exc}") from exc
    raise ConfigError(f"unrecognized builtin mesh {spec!r}; expected builtin:disk:<level> "
                      "or builtin:interval:<n>:<L>")


def _load_model(cfg: RunConfig):
    """The model of --model, its description read once; with --oracle the
    boundary must be the builtin unit disk, checked before any computation."""
    if cfg.model_path is None:
        raise ConfigError(f"command {cfg.command!r} needs --model")
    doc = read_json_object(cfg.model_path, "model description")
    boundary = doc.get("boundary")
    if cfg.oracle_check and not (isinstance(boundary, dict) and boundary.get("builtin") == "disk"):
        raise ConfigError("--oracle requires a builtin disk boundary factor")
    return product.load_model(cfg.model_path, doc=doc)


def _oracle_instants(model, records):
    """Closed-form instants for a unit-disk boundary factor: the lowest
    branch depends only on c = t * rho_i, so one root serves every i, and it
    is solved only when some record is a single crossing of that branch."""
    lowest = [(r.t_star, model.factor.value(r.crossings[0][0])) for r in records
              if len(r.crossings) == 1 and r.crossings[0][1] == 0]
    if not lowest:
        return []
    c_star = oracle.solve_branch_root(oracle.disk_branch(0), model.Hhat)
    pairs = [(t, c_star / rho) for t, rho in lowest]
    return [{"t_star": t, "t_oracle": o, "rel_delta": abs(t - o) / o} for t, o in pairs]


def _write_records(records, out_json, out_csv) -> list:
    bif.records_to_json(records, out_json)
    bif.records_to_csv(records, out_csv)
    return [out_json, out_csv]


def cmd_steklov(cfg: RunConfig) -> list[str]:
    if cfg.mesh_spec is None:
        raise ConfigError("steklov needs --mesh")
    mesh = _mesh_from_spec(cfg.mesh_spec)
    forms = assemble(mesh)
    sl = spectral.steklov_spectrum(forms, cfg.k)
    out = cfg.out or "steklov.csv"
    write_csv(out, ["j", "rho"], enumerate(sl.eigenvalues))
    return [out]


def cmd_eigencurve(cfg: RunConfig) -> list[str]:
    model = _load_model(cfg)
    t_grid = np.linspace(cfg.t_min, cfg.t_max, cfg.t_steps)
    k = max(cfg.j_list) + 1
    rows = []
    for i in cfg.i_list:
        # branch (i, j) at t is rho_j at c = t * rho_i: one slice per t serves every j
        rho_i = model.factor.value(i)
        slices = [spectral.robin_steklov_spectrum(model.boundary_forms, t * rho_i, k).eigenvalues
                  for t in t_grid]
        rows += [(t, i, j, w[j]) for j in cfg.j_list for t, w in zip(t_grid, slices)]
    out = cfg.out or "eigencurves.csv"
    write_csv(out, ["t", "i", "j", "rho"], rows)
    return [out]


def cmd_instants(cfg: RunConfig) -> list[str]:
    model = _load_model(cfg)
    records = bif.enumerate_instants(model, cfg.t_min, cfg.t_max)
    emitted = _write_records(records, cfg.out_json or "instants.json",
                             cfg.out_csv or "instants.csv")
    if cfg.oracle_check:
        out_oracle = emitted[0].removesuffix(".json") + "_oracle.json"
        with open(out_oracle, "w") as fh:
            json.dump(_oracle_instants(model, records), fh, indent=2)
        emitted.append(out_oracle)
    return emitted


def cmd_certify(cfg: RunConfig) -> list[str]:
    model = _load_model(cfg)
    if cfg.instants_path is None:
        raise ConfigError("certify needs --instants <file>")
    records = bif.records_from_json(cfg.instants_path)
    certified = [bif.certify_bifurcation(model, r) for r in records]
    return _write_records(certified, cfg.out_json or "certified.json",
                          cfg.out_csv or "certified.csv")


def cmd_report(cfg: RunConfig) -> list[str]:
    model = _load_model(cfg)
    out_dir = Path(cfg.out or "report")
    out_dir.mkdir(parents=True, exist_ok=True)

    records = bif.enumerate_instants(model, cfg.t_min, cfg.t_max)
    certified = [bif.certify_bifurcation(model, r) for r in records]
    _write_records(certified, out_dir / "instants.json", out_dir / "instants.csv")

    # Morse index between consecutive instants, read off the c_j* table; at
    # the first point, inertia counts anchor it row by row
    points = bif.index_points(certified, cfg.t_min, cfg.t_max)
    indices = [{"t": t, "morse_index": product.morse_index(model, t)} for t in points]
    if points:
        product.anchor_index(model, points[0], indices[0]["morse_index"])

    summary = {
        "model": {"m1": model.m1, "m2": model.m2, "H2": model.H2, "Hhat": model.Hhat,
                  "factor_cutoff": model.factor.cutoff, "factor_entries": len(model.factor),
                  "boundary_vertices": model.boundary_mesh.n_vertices,
                  "boundary_dofs": len(model.boundary_forms.boundary_dofs)},
        "t_range": [cfg.t_min, cfg.t_max],
        "instants": bif.records_document(certified),
        "morse_indices": indices,
    }
    if cfg.oracle_check:
        summary["oracle_deltas"] = _oracle_instants(model, certified)
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    return [str(report_path)]


# command: its help, its handler, and after --config the flags of all it reads
COMMANDS = {
    "steklov": ("Steklov spectrum of one mesh", cmd_steklov, ("--mesh", "-k", "--out")),
    "eigencurve": ("sample branches over a t grid", cmd_eigencurve,
                   ("--model", "--i", "--j", "--t-min", "--t-max", "--t-steps", "--out")),
    "instants": ("enumerate degeneracy instants", cmd_instants,
                 ("--model", "--t-min", "--t-max", "--oracle", "--out-json", "--out-csv")),
    "certify": ("certify instants from a records file", cmd_certify,
                ("--model", "--instants", "--out-json", "--out-csv")),
    "report": ("summary report: instants, indices, oracle deltas", cmd_report,
               ("--model", "--t-min", "--t-max", "--oracle", "--out")),
}

# flag: the RunConfig field it sets, whose annotation gives its type, and its help
_FLAGS = {
    "--model": ("model_path", "model description JSON"),
    "--mesh": ("mesh_spec", "mesh file or builtin:disk:<level> / builtin:interval:<n>:<L>"),
    "-k": ("k", "number of eigenvalues"),
    "--i": ("i_list", "factor indices, comma separated"),
    "--j": ("j_list", "branch positions, comma separated"),
    "--t-min": ("t_min", None), "--t-max": ("t_max", None), "--t-steps": ("t_steps", None),
    "--instants": ("instants_path", None), "--oracle": ("oracle_check", None),
    "--out": ("out", None), "--out-json": ("out_json", None), "--out-csv": ("out_csv", None),
}


def _fail(exc: SteklovBifError) -> int:
    """Print the machine-readable reason to stderr; returns the exit status."""
    json.dump(exc.payload(), sys.stderr)
    sys.stderr.write("\n")
    return exc.exit_code


def run(config: RunConfig) -> int:
    """Execute config's command; returns the process exit status."""
    try:
        config.validate()
        emitted = COMMANDS[config.command][1](config)
    except SteklovBifError as exc:
        return _fail(exc)
    for path in emitted:
        print(path)
    return 0


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklovbif",
        description="Steklov spectra, eigencurves, and bifurcation instants "
        "of product metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, _, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="JSON run config; flags override its fields")
        for flag in flags:
            field, flag_help = _FLAGS[flag]
            kind = _FIELD_TYPES[field][0]
            how = (dict(action="store_true", default=None) if kind is bool else
                   dict(type=_int_list if kind is list else kind))
            p.add_argument(flag, dest=field, help=flag_help, **how)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        path = Path(args.config)
        read = {_FLAGS[flag][0] for flag in COMMANDS[args.command][2]}
        for key, value in read_json_object(path, "config file").items():
            if key not in read:
                raise ConfigError(f"unknown config key {key!r} for command {args.command!r} "
                                  f"in {path}")
            setattr(cfg, key, _config_value(key, value, path))
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            setattr(cfg, key, value)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except SteklovBifError as exc:
        return _fail(exc)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
