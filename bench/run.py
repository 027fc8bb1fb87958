"""fblbound benchmark: time to result for four workloads, per-layer trace.

    python3 bench/run.py --workload rcu-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; the program is imported from
``src/``.  Each rep is one fresh worker process (``worker.py``) that runs
the workload's op list once; reps run one at a time until ``--seconds``
is spent (at least three untraced reps).  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` traced and untraced reps alternate and
it carries the per-layer metrics, including the tracing overhead.  Every
rep's values, in run order, are appended to ``bench/out/samples.jsonl``.
See bench/README.md for the workloads, metrics and correctness rules.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import hashlib
import json
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("rcu-exact", "ldpc-bounds", "sim-decode", "sim-sample")

# BLAS pools are fixed at one thread, at or below nproc, before the worker
# imports numpy; the hash seed is fixed so that set and dict orders repeat.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
MIN_UNTRACED_REPS = 3
# wall_norm_s rescales each rep's op times to a machine on which
# worker.reference_s() takes this long: its median on the 2-core virtual
# machine the benchmark was defined on.  The speed of a shared machine
# drifts by tens of percent within seconds to minutes; the reference
# samples, taken between the ops of the same rep, drift with it and
# divide it out.
REFERENCE_NOMINAL_S = 0.023
RUN_BUDGET_S = 150.0        # no new rep starts after this; exit within 180 s
README_EXAMPLE_TIMEOUT_S = 40.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _last_level_cache() -> str | None:
    """Size of CPU 0's highest cache level, as the kernel reports it."""
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                best = max(best, (level, fh.read().strip()))
        except (OSError, ValueError):
            continue
    return best[1]


def machine_record() -> dict:
    """nproc, Python, numpy and BLAS versions, last-level cache, and the
    thread variables the workers run with."""
    out = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                          "--info"], env=worker_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    record = json.loads(out.stdout)
    record.update({
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": _last_level_cache(),
        "worker_env": THREAD_ENV,
    })
    return record


# ---------------------------------------------------------------------------
# one rep


def run_rep(workload: str, seed: int, traced: bool, workdir: str,
            timeout: float) -> dict:
    """Start one worker and wait for it.  ``setup_s`` runs from spawn to
    the worker's ready line: interpreter start, ``import fblbound.cli``
    with numpy, and building the inputs."""
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), workload,
            str(seed), workdir] + (["--trace"] if traced else [])
    log_path = os.path.join(workdir, "worker.log")
    with open(log_path, "w") as log:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=worker_env(), stdout=subprocess.PIPE,
                                stderr=log, text=True)
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out = ""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        return {"crashed": f"worker exit {proc.returncode}: {tail}",
                "traced": traced}
    rep = json.loads(out.strip().splitlines()[-1])
    rep.update({"setup_s": setup, "traced": traced})
    return rep


# ---------------------------------------------------------------------------
# correctness


def load_refs() -> dict:
    with open(os.path.join(BENCH, "refs.json")) as fh:
        return json.load(fh)


def compare_fingerprint(got: dict, want: dict, rel_tol: float,
                        abs_tol: float) -> str | None:
    """None when ``got`` matches ``want``: identical exact part, floats
    equal within the tolerance."""
    if got["exact"] != want["exact"]:
        return "structure, integer or string fields differ"
    if len(got["floats"]) != len(want["floats"]):
        return "float count differs"
    for i, (a, b) in enumerate(zip(got["floats"], want["floats"])):
        if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol):
            return f"float #{i} is {a!r}, reference {b!r}"
    return None


def judge(workload: str, seed: int, reps: list[dict], refs: dict) -> dict:
    """Count failed ops over every rep.  An op fails when it raised, broke
    its invariant check, or disagrees with the stored reference (seeded
    ops: the reference for this seed; a seed without one is compared with
    the first rep, so traced and untraced reps must still agree)."""
    store = refs["workloads"][workload]
    by_seed = store["seeds"].get(str(seed), {})
    first: dict = {}
    attempted, failures = 0, []
    for i, rep in enumerate(reps):
        if "crashed" in rep:
            n_ops = len(store["op_names"])
            attempted += n_ops
            failures += [{"rep": i, "op": "*", "error": rep["crashed"]}] * n_ops
            continue
        for op in rep["ops"]:
            attempted += 1
            error = op["error"]
            if error is None:
                want = store["ops"].get(op["name"]) or by_seed.get(op["name"])
                if want is None:
                    want = first.setdefault(op["name"], op["fingerprint"])
                problem = compare_fingerprint(op["fingerprint"], want,
                                              refs["rel_tol"], refs["abs_tol"])
                if problem:
                    error = f"Mismatch: {problem}"
            if error:
                failures.append({"rep": i, "op": op["name"], "error": error})
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures}


# ---------------------------------------------------------------------------
# README probe


def readme_examples(text: str) -> tuple[list[str], dict]:
    """The ``fblbound`` command lines of the README's sh blocks, and the
    channel and config files its JSON blocks define (ch.json, mac.json,
    run.json)."""
    commands, files = [], {}
    for lang, body in re.findall(r"```(\w*)\n(.*?)```", text, re.S):
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                if line.strip().startswith("fblbound "):
                    commands.append(" ".join(line.split()))
        elif lang == "json":
            obj = json.loads(body)
            if "n_sweep" in obj:
                files["run.json"] = obj
            elif isinstance(obj.get("inputs"), list):
                files["mac.json"] = obj
            else:
                files["ch.json"] = obj
    return commands, files


def _tree_digest() -> str:
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "README.md"), os.path.abspath(__file__)]
    for base, _dirs, names in sorted(os.walk(os.path.join(ROOT, "src"))):
        paths += [os.path.join(base, n) for n in sorted(names)
                  if n.endswith(".py")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def readme_probe() -> dict:
    """Run every README CLI example once as a subprocess, untimed, and
    count the ones that exit non-zero.  The outcome depends only on the
    source tree, so it is cached under bench/out keyed by a digest of
    README.md, src/ and this file."""
    cache = os.path.join(OUT, "readme_probe.json")
    key = _tree_digest()
    if os.path.exists(cache):
        with open(cache) as fh:
            cached = json.load(fh)
        if cached.get("key") == key:
            return cached
    with open(os.path.join(ROOT, "README.md")) as fh:
        commands, files = readme_examples(fh.read())
    examples = []
    with tempfile.TemporaryDirectory(dir=OUT) as probe_dir:
        for name, obj in files.items():
            with open(os.path.join(probe_dir, name), "w") as fh:
                json.dump(obj, fh)
        for command in commands:
            argv = [sys.executable, "-m", "fblbound.cli"] + \
                shlex.split(command)[1:]
            start = perf_counter()
            try:
                code = subprocess.run(argv, cwd=probe_dir, env=worker_env(),
                                      capture_output=True,
                                      timeout=README_EXAMPLE_TIMEOUT_S
                                      ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            examples.append({"command": command, "exit": code,
                             "seconds": perf_counter() - start})
    result = {"key": key, "examples": examples,
              "readme_exit_nonzero": sum(e["exit"] != 0 for e in examples)}
    with open(cache, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


# ---------------------------------------------------------------------------
# one workload


def _median(values):
    """Median of the samples; a count that repeated exactly keeps its
    integer value, and a layer never called reads 0."""
    if not values:
        return 0
    if len(set(values)) == 1:
        return values[0]
    return statistics.median(values)


def _norm_wall(rep: dict) -> float:
    """The rep's wall time at the nominal reference speed: each op's time
    divided by the mean of the reference samples taken just before and
    just after it, so a long op is scaled by the speed around it."""
    ref = rep["reference_s"]
    return REFERENCE_NOMINAL_S * sum(
        op["seconds"] / ((ref[i] + ref[i + 1]) / 2)
        for i, op in enumerate(rep["ops"]))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            refs: dict) -> dict:
    """Reps of one workload until ``seconds`` is spent; with ``trace``
    each round is one untraced and one traced rep, in alternating order."""
    reps: list[dict] = []
    start = perf_counter()
    rounds = 0
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        while True:
            kinds = [False, True] if trace else [False]
            if trace and rounds % 2:
                kinds.reverse()
            for traced in kinds:
                reps.append(run_rep(workload, seed, traced, workdir,
                                    timeout=170.0 - (perf_counter() - start)))
            rounds += 1
            elapsed = perf_counter() - start
            enough = trace or rounds >= MIN_UNTRACED_REPS
            if (enough and elapsed * (rounds + 1) / rounds > seconds) \
                    or elapsed > RUN_BUDGET_S:
                break
    verdict = judge(workload, seed, reps, refs)
    plain = [r for r in reps if not r["traced"] and "crashed" not in r]
    traced = [r for r in reps if r["traced"] and "crashed" not in r]
    e2e = {
        "wall_s": [r["wall_s"] for r in plain],
        "wall_norm_s": [_norm_wall(r) for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    layers: dict[str, list] = {}
    for rep in traced:
        for name, value in rep["trace"]["layers"].items():
            layers.setdefault(name, []).append(value)
    # work counts must repeat exactly from one traced rep to the next
    unsteady = sorted(name for name, values in layers.items()
                      if not name.endswith("self_s") and len(set(values)) > 1)
    if traced and plain:
        layers["trace.overhead_ratio"] = [
            _median([_norm_wall(r) for r in traced])
            / _median(e2e["wall_norm_s"])]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "reps": reps, "e2e": e2e, "layers": layers,
        "unsteady_counts": unsteady, **verdict,
        "correct": verdict["failed"] == 0 and not unsteady
        and (bool(traced) if trace else True) and bool(plain),
    }


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metrics_for(result: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json names: end-to-end medians untraced, or
    per-layer medians over the traced reps (0 for a layer never called)."""
    if result["trace"]:
        return {m["name"]: {"value": _median(result["layers"].get(m["name"])),
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": _median(result["e2e"][m["name"]]),
                        "unit": m["unit"]} for m in spec["end_to_end"]}


def save_samples(result: dict, machine: dict, probe: dict) -> None:
    """Append every rep (run order kept) to bench/out/samples.jsonl."""
    reps = []
    for order, rep in enumerate(result["reps"]):
        row = {"order": order, "traced": rep["traced"]}
        if "crashed" in rep:
            row["crashed"] = rep["crashed"]
        else:
            row.update({k: rep[k] for k in ("setup_s", "wall_s",
                                            "peak_rss_mb", "reference_s")})
            row["op_seconds"] = {op["name"]: op["seconds"] for op in rep["ops"]}
            if rep["trace"]:
                row["layers"] = rep["trace"]["layers"]
                row["edges"] = rep["trace"]["edges"]
        reps.append(row)
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": result["workload"], "seed": result["seed"],
        "seconds": result["seconds"], "trace": result["trace"],
        "machine": machine, "reps": reps,
        "failed_op_ratio": result["failed"] / max(result["attempted"], 1),
        "failures": result["failures"],
        "unsteady_counts": result["unsteady_counts"],
        "readme_exit_nonzero": probe["readme_exit_nonzero"],
    }
    with open(os.path.join(OUT, "samples.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


def print_report(result: dict, metrics: dict) -> None:
    """Human-readable lines: each metric's median with its sample count,
    then the failed ops."""
    w = result["workload"]
    samples = result["layers"] if result["trace"] else result["e2e"]
    if not result["trace"]:  # raw wall_s too, which BENCHMARK.json omits
        metrics = {"wall_s": {"value": _median(samples["wall_s"]),
                              "unit": "s"}, **metrics}
    for name, m in metrics.items():
        values = samples.get(name) or []
        spread = (f"min {min(values):.6g} max {max(values):.6g}"
                  if values else "never called")
        print(f"{w:12s} {name:44s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={len(values)} {spread}")
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{w:12s} {'failed_op_ratio':44s} {ratio:14.6g} "
          f"{'ratio':6s} {result['failed']}/{result['attempted']} ops")
    for f in result["failures"][:10]:
        print(f"{w:12s} FAILED rep {f['rep']} {f['op']}: {f['error'][:300]}")
    if result["unsteady_counts"]:
        print(f"{w:12s} counts that did not repeat: "
              + ", ".join(result["unsteady_counts"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per workload (default: "
                        "run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fblbound", "cli.py")):
        print(f"no fblbound source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    spec = _spec()
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    machine = machine_record()
    probe = readme_probe()
    refs = load_refs()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"readme_exit_nonzero {probe['readme_exit_nonzero']} count "
          f"({len(probe['examples'])} README examples)")
    for e in probe["examples"]:
        if e["exit"] != 0:
            print(f"  exit {e['exit']}: {e['command']}")
    results, merged = [], {}
    for name in names:
        result = measure(name, args.seed, seconds, bool(args.trace), refs)
        save_samples(result, machine, probe)
        metrics = metrics_for(result, spec)
        print_report(result, metrics)
        results.append(result)
        if len(names) == 1:
            merged = metrics
        else:
            merged.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
