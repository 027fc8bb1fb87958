"""Record the reference results in bench/refs.json.

    python3 bench/record_refs.py

Runs every op of every workload in this one process, with the worker's
thread settings: the seed-independent ops once, the seeded ops once per
seed in ``SEEDS``.  An op that raises or fails its invariant check stops
the recording.  Floats are stored to 12 significant digits, well inside
the 1e-9 relative tolerance ``run.py`` compares with.

Seed 4242 is the held-out seed: it was never run while the workloads
and checks were being tuned.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import BENCH, OUT, THREAD_ENV, WORKLOADS

if any(os.environ.get(k) != v for k, v in THREAD_ENV.items()):
    # the hash seed only takes effect at interpreter start
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {**os.environ, **THREAD_ENV})

import worker  # noqa: E402  (imports numpy after the thread settings)
import workloads  # noqa: E402

SEEDS = list(range(41)) + [4242]
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _record(ops, records, earlier: dict) -> dict:
    earlier.update(worker.check_records(ops, records, earlier))
    out = {}
    for rec in records:
        if rec["error"]:
            sys.exit(f"{rec['name']} failed: {rec['error']}")
        fp = worker.fingerprint(rec["result"])
        fp["floats"] = [float(f"{x:.12g}") for x in fp["floats"]]
        out[rec["name"]] = fp
    return out


def main() -> int:
    refs = {"rel_tol": REL_TOL, "abs_tol": ABS_TOL, "held_out_seed": 4242,
            "seeds": SEEDS, "workloads": {}}
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        os.chdir(workdir)
        for name in WORKLOADS:
            store = {"op_names": [], "ops": {}, "seeds": {}}
            results: dict = {}
            for seed in SEEDS:
                ops = workloads.build(name, seed)
                if seed == SEEDS[0]:
                    store["op_names"] = [op.name for op in ops]
                else:
                    ops = [op for op in ops if op.seeded]
                recorded = _record(ops, worker.run_ops(ops), results)
                for op in ops:
                    target = store["seeds"].setdefault(str(seed), {}) \
                        if op.seeded else store["ops"]
                    target[op.name] = recorded[op.name]
                print(name, seed, flush=True)
            refs["workloads"][name] = store
        os.chdir(BENCH)
    with open(os.path.join(BENCH, "refs.json"), "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
