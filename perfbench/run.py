"""steklovbif benchmark: one workload, closed loop, one fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's command again and again, one at a time, each in a fresh
``perfbench/worker.py`` process, until the next one would end past S seconds
(at least one command; two with --trace 1).  BLAS and OpenMP are pinned to one
thread in that process.  Every command's outputs are checked against the
closed-form oracle and against the first command's files byte for byte.

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics (medians over the commands), with --trace 1 the per-layer
metrics from the span trees of the traced commands (median per command, counts
exact), plus trace.overhead_s against the untraced commands of the same run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # every run must end within 180 s

# One BLAS/OpenMP thread: on the 2-core reference machine the disk4_report
# command took 21-28 s with two OpenBLAS threads against 6.9-9.2 s pinned.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def run_op(workload, run_dir: Path, index: int, traced: bool, deadline: float) -> dict:
    out_dir = run_dir / f"op{index}"
    out_dir.mkdir()
    result_path = run_dir / f"op{index}.result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(result_path), "1" if traced else "0"]
    cmd += workload.argv(run_dir, out_dir)
    env = {**os.environ, **PINNED_THREADS, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    # cache bytecode, as an installed package does, so set-up does not recompile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    op = {"traced": traced, "ok": False}
    with open(run_dir / f"op{index}.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=run_dir)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            op["error"] = "timed out"
            return op
    op["wall_s"] = time.monotonic() - spawned
    if rc != 0 or not result_path.is_file():
        op["error"] = f"exit status {rc}: " + (run_dir / f"op{index}.log").read_text()[-2000:]
        return op
    res = json.loads(result_path.read_text())
    if res["ready"] is None:
        op["error"] = "product.load_model was never called, so set-up has no end"
        return op
    op.update(
        setup_s=res["ready"] - spawned,
        solve_s=res["done"] - res["ready"],
        peak_rss_mb=res["maxrss_kb"] / 1024.0,
        spans=res["spans"],
        replaced=res["replaced"],
        env=res["env"],
    )
    try:
        op["max_rel_err"] = workload.check(out_dir)
    except (CheckFailed, KeyError, ValueError, IndexError, TypeError) as exc:
        op["error"] = f"output check: {exc!r}"
        return op
    op["digest"] = digest(out_dir)
    op["ok"] = True
    return op


def percentile(values, pct):
    """Nearest-rank percentile; 0 when there are no samples."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)] if s else 0.0


def tail_pct(n):
    """The highest ladder percentile with at least ten of n samples beyond it;
    the median when there are fewer than twenty samples."""
    return max([p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10] or [TAIL_LADDER[0]])


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced command, from its span tree."""
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        while span[1] is not None:
            span = by_id[span[1]]
            yield span[2]

    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])

    def named(name):
        return [s for s in spans if s[2] == name]

    def facts(name, key):
        # a call that raised (and was handled by its caller) recorded no facts
        return [s[5][key] for s in named(name) if s[5] is not None]

    def total(name):
        return sum(s[4] - s[3] for s in named(name))

    def self_time(name):
        return sum(s[4] - s[3] - child_time.get(s[0], 0.0) for s in named(name))

    slices = named("spectral.slice")
    under = [set(ancestors(s)) for s in slices]
    enumerates = named("bifurcation.enumerate")
    top_level = [s for s in enumerates if "bifurcation.certify" not in set(ancestors(s))]
    certify_ids = {s[0] for s in named("bifurcation.certify")}
    certify_with_enumerate = {s[1] for s in enumerates if s[1] in certify_ids}
    instants = sum(s[5]["instants"] for s in top_level if s[5] is not None)
    return {
        "mesh.generate_s": total("mesh.generate"),
        "mesh.vertices": sum(facts("mesh.generate", "vertices")),
        "fem.assemble_s": total("fem.assemble"),
        "fem.nnz": sum(facts("fem.assemble", "nnz")),
        "factors.entries": sum(facts("factors.spectrum", "entries")),
        "spectral.slices": len(slices),
        "spectral.slice_s": total("spectral.slice"),
        "spectral.k_requested": sum(facts("spectral.slice", "k")),
        "spectral.boundary_dofs": max(facts("spectral.slice", "n_b"), default=0),
        "product.jacobi_slices": len(named("product.jacobi_slice")),
        "product.jacobi_slice_self_s": self_time("product.jacobi_slice"),
        "product.morse_index_calls": len(named("product.morse_index")),
        "bifurcation.instants": instants,
        "bifurcation.enumerate_calls": len(enumerates),
        "bifurcation.enumerate_self_s": self_time("bifurcation.enumerate"),
        "bifurcation.certify_self_s": self_time("bifurcation.certify"),
        "bifurcation.enumerate_slices": sum(
            1 for a in under if "bifurcation.enumerate" in a and "bifurcation.certify" not in a
        ),
        "bifurcation.certify_slices": sum(1 for a in under if "bifurcation.certify" in a),
        "bifurcation.slices_per_instant": len(slices) / instants if instants else 0.0,
        "bifurcation.certify_retries": len(enumerates) - len(top_level) - len(certify_with_enumerate),
        "oracle.root_s": total("oracle.root"),
        "cli.write_s": total("cli.write"),
    }


LAYER_UNITS = {
    "mesh.generate_s": "s", "mesh.vertices": "count", "fem.assemble_s": "s", "fem.nnz": "count",
    "factors.entries": "count", "spectral.slices": "count", "spectral.slice_s": "s",
    "spectral.k_requested": "count", "spectral.boundary_dofs": "count",
    "product.jacobi_slices": "count", "product.jacobi_slice_self_s": "s",
    "product.morse_index_calls": "count", "bifurcation.instants": "count",
    "bifurcation.enumerate_calls": "count", "bifurcation.enumerate_self_s": "s",
    "bifurcation.certify_self_s": "s", "bifurcation.enumerate_slices": "count",
    "bifurcation.certify_slices": "count", "bifurcation.slices_per_instant": "slices/instant",
    "bifurcation.certify_retries": "count", "oracle.root_s": "s", "cli.write_s": "s",
}


def per_layer(ops) -> dict:
    traced = [op for op in ops if op["ok"] and op["traced"]]
    plain = [op for op in ops if op["ok"] and not op["traced"]]
    per_op = [layer_metrics(op["spans"]) for op in traced]
    # counts agree between traced commands; median_low keeps them whole numbers
    metrics = {
        name: {
            "value": (statistics.median if unit == "s" else statistics.median_low)(
                [m[name] for m in per_op]
            ),
            "unit": unit,
        }
        for name, unit in LAYER_UNITS.items()
    }
    slice_ms = [
        (s[4] - s[3]) * 1e3 for op in traced for s in op["spans"] if s[2] == "spectral.slice"
    ]
    pct = tail_pct(len(slice_ms))
    metrics.update({
        "spectral.slice_ms.p50": {"value": percentile(slice_ms, 50.0), "unit": "ms"},
        "spectral.slice_ms.tail": {"value": percentile(slice_ms, pct), "unit": "ms"},
        "spectral.slice_ms.tail_pct": {"value": pct, "unit": "%"},
        "spectral.slice_ms.samples": {"value": len(slice_ms), "unit": "count"},
        "trace.overhead_s": {
            "value": statistics.median(op["solve_s"] for op in traced)
            - statistics.median(op["solve_s"] for op in plain),
            "unit": "s",
        },
    })
    return metrics


def end_to_end(ops) -> dict:
    good = [op for op in ops if op["ok"]]
    return {
        "setup_s": {"value": statistics.median(op["setup_s"] for op in good), "unit": "s"},
        "solve_s": {"value": statistics.median(op["solve_s"] for op in good), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(op["peak_rss_mb"] for op in good), "unit": "MB"},
        "max_rel_err": {"value": max(op["max_rel_err"] for op in good), "unit": "1"},
        "ok_ops_frac": {"value": len(good) / len(ops), "unit": "1"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "steklovbif" / "cli.py").is_file():
        print(f"no steklovbif sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload.write_inputs(run_dir)

    budget_end = started + args.seconds
    hard_end = started + HARD_LIMIT_S
    min_ops = 2 if args.trace else 1
    ops = []
    while True:
        # traced, plain, plain, traced, ...: neither kind always runs first
        traced = bool(args.trace) and len(ops) % 4 in (0, 3)
        ops.append(run_op(workload, run_dir, len(ops), traced, hard_end))
        longest = max(op.get("wall_s", 0.0) for op in ops)
        now = time.monotonic()
        if now + longest > hard_end or (len(ops) >= min_ops and now + longest > budget_end):
            break

    good = [op for op in ops if op["ok"]]
    for i, op in enumerate(ops):
        if not op["ok"]:
            print(f"op{i} failed: {op['error']}", file=sys.stderr)
    if not good or (args.trace and not (any(op["traced"] for op in good)
                                        and any(not op["traced"] for op in good))):
        print("no command completed with checked outputs; no result", file=sys.stderr)
        return 1
    digests = {op["digest"] for op in good}
    correct = len(good) == len(ops) and len(digests) == 1
    if len(digests) > 1:
        print("repeated commands wrote different output files", file=sys.stderr)

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "inputs": workload.params,
        "env": good[0]["env"], "replaced": good[0]["replaced"] if args.trace else None,
        "ops": [{k: op.get(k) for k in ("traced", "ok", "wall_s", "setup_s", "solve_s",
                                        "peak_rss_mb")} for op in ops],
    }))
    metrics = per_layer(ops) if args.trace else end_to_end(ops)
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(ops) - len(good),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
