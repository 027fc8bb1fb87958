"""One benchmark rep in a fresh process.

    python3 bench/worker.py WORKLOAD SEED WORKDIR [--trace]
    python3 bench/worker.py --info

``run.py`` starts this with the BLAS thread variables already in the
environment, so numpy reads them at import.  The worker imports
``fblbound.cli`` (and with it numpy), writes its inputs into WORKDIR,
prints ``ready``, runs the workload's op list once, and prints one JSON
line: the op list's wall time, the speed-reference samples taken before
the first op and after each op, the peak resident memory, and per op its
seconds, error (exception type and message) and result fingerprint, plus
the trace summary when traced.  ``--info`` prints the Python, numpy and
BLAS versions instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import fblbound.cli  # noqa: E402,F401  (numpy comes in here)
import numpy as np  # noqa: E402

from tracing import Tracer, canonical  # noqa: E402


def fingerprint(value) -> dict:
    """Result summary the references are compared against: a hash of
    everything but the floats (structure, strings, integers, booleans),
    which must match exactly, and the floats in a fixed order, which
    must match within a relative tolerance."""
    floats: list[float] = []

    def strip(x):
        if isinstance(x, float):
            floats.append(x)
            return "<float>"
        if isinstance(x, dict):
            return {k: strip(x[k]) for k in sorted(x)}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    skeleton = json.dumps(strip(canonical(value)), sort_keys=True)
    return {"exact": hashlib.sha256(skeleton.encode()).hexdigest()[:20],
            "floats": floats}


def run_ops(ops, reference: list | None = None) -> list[dict]:
    """Run each op once, in order.  An exception is recorded with its
    type, and the remaining ops still run.  Given a ``reference`` list,
    a ``reference_s`` sample is appended after each op (outside its
    timing), so the samples follow the machine's speed through the rep."""
    records = []
    for op in ops:
        start = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed op is a measured outcome
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"name": op.name, "seconds": perf_counter() - start,
                        "error": error, "result": result})
        if reference is not None:
            reference.append(reference_s())
    return records


def check_records(ops, records, earlier: dict | None = None) -> dict:
    """Apply each op's invariant check; a violation becomes its error.
    ``earlier`` holds results of ops not rerun here.  Returns the results
    by op name."""
    results = dict(earlier or {})
    results.update((r["name"], r["result"]) for r in records)
    for op, rec in zip(ops, records):
        if rec["error"] is None and op.check is not None:
            problem = op.check(rec["result"], results)
            if problem:
                rec["error"] = f"CheckFailed: {problem}"
    return results


def reference_s() -> float:
    """Seconds this machine takes, right now, for a fixed mix of
    interpreted and numpy work that never touches fblbound: the speed
    reference that ``wall_norm_s`` divides out."""
    start = perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    a = np.arange(90_000, dtype=float).reshape(300, 300)
    for _ in range(4):
        total += float((a @ a).sum())
    return perf_counter() - start


def op_rows(records) -> list[dict]:
    """The per-op part of the worker's report."""
    return [{"name": r["name"], "seconds": r["seconds"], "error": r["error"],
             "fingerprint": None if r["error"] else fingerprint(r["result"])}
            for r in records]


def info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv) -> int:
    if argv == ["--info"]:
        print(json.dumps(info()))
        return 0
    import workloads

    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    os.chdir(workdir)
    ops = workloads.build(workload, seed)
    tracer = Tracer() if "--trace" in argv[3:] else None
    if tracer:
        tracer.install()
    print("ready", flush=True)
    reference = [reference_s()]
    records = run_ops(ops, reference)
    wall = sum(r["seconds"] for r in records)
    if tracer:
        tracer.uninstall()
    check_records(ops, records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "wall_s": wall,
        "reference_s": reference,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": op_rows(records),
        "trace": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
