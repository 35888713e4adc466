"""Run one steklovbif command in this process and record when each phase ended.

    python3 perfbench/worker.py <result.json> <trace 0|1> <cli arguments...>

The library is timed from outside: the public layer functions are replaced,
in every steklovbif module that bound them by name, by wrappers that record a
span (name, start, end, parent, a few facts about the call).  Without tracing
only ``product.load_model`` is wrapped, which marks the moment the model is
ready.  Spans stay in memory and go to <result.json> once the command ends.
Clock: ``time.monotonic`` (CLOCK_MONOTONIC), shared with the parent process.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _slice_info(call, result):
    return {"k": int(call.arguments["k"]), "n_b": len(call.arguments["forms"].boundary_dofs)}


def _forms_info(call, result):
    return {"nnz": int(result.K.nnz + result.M.nnz + result.B.nnz)}


# (defining module, function, span name, facts taken from the bound call and result)
LAYER_FUNCTIONS = [
    ("product", "load_model", "product.load_model", None),
    ("mesh", "generate_disk", "mesh.generate", lambda call, r: {"vertices": r.n_vertices}),
    ("mesh", "generate_interval", "mesh.generate", lambda call, r: {"vertices": r.n_vertices}),
    ("fem", "assemble", "fem.assemble", _forms_info),
    ("factors", "flat_torus_spectrum", "factors.spectrum", lambda call, r: {"entries": len(r)}),
    ("spectral", "robin_steklov_spectrum", "spectral.slice", _slice_info),
    ("product", "jacobi_slice", "product.jacobi_slice", None),
    ("product", "morse_index", "product.morse_index", None),
    ("product", "nullity", "product.nullity", None),
    ("bifurcation", "enumerate_instants", "bifurcation.enumerate",
     lambda call, r: {"instants": len(r)}),
    ("bifurcation", "certify_bifurcation", "bifurcation.certify", None),
    ("oracle", "solve_branch_root", "oracle.root", None),
    ("bifurcation", "records_to_json", "cli.write", None),
    ("bifurcation", "records_to_csv", "cli.write", None),
    ("spectral", "curves_to_csv", "cli.write", None),
]


class Recorder:
    """In-memory span list; a stack of open span ids gives each span its parent."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name, info):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            span = [span_id, parent, name, time.monotonic(), None, None]
            spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = time.monotonic()
            if info is not None:
                span[5] = info(signature.bind(*args, **kwargs), result)
            return result

        return wrapper


def install(recorder: Recorder, traced: bool) -> dict:
    """Replace each layer function in every steklovbif namespace that binds it;
    returns, per function, the modules where it was replaced."""
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if name == "steklovbif" or name.startswith("steklovbif.")
    }
    replaced = {}
    for module, func, span_name, info in LAYER_FUNCTIONS:
        if not traced and span_name != "product.load_model":
            continue
        where = replaced.setdefault(f"{module}.{func}", [])
        original = getattr(modules.get(f"steklovbif.{module}"), func, None)
        if original is None:  # gone from the library: its spans and counts read 0
            continue
        wrapper = recorder.wrap(original, span_name, info)
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    where.append(mod_name)
    return replaced


def environment() -> dict:
    import numpy
    import scipy

    def blas_of(config):
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy.show_config(mode="dicts")),
        "scipy_blas": blas_of(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv) -> int:
    result_path, traced, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(SRC))
    import steklovbif.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"steklovbif imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    recorder = Recorder()
    replaced = install(recorder, traced)
    rc = cli.main(cli_args)
    done = time.monotonic()
    ready = [s[4] for s in recorder.spans if s[2] == "product.load_model"]
    doc = {
        "rc": rc,
        "ready": ready[0] if ready else None,
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.spans,
        "replaced": replaced,
        "env": environment(),
    }
    result_path.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
