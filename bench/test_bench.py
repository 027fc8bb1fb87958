"""Tests of the benchmark itself, not of fblbound.

    python3 -m pytest -q bench/test_bench.py

The worker-process tests run every workload once untraced and twice
traced, about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

os.environ.update(run.THREAD_ENV)

import worker  # noqa: E402  (imports numpy after the thread settings)
import workloads  # noqa: E402
from fblbound import cli, gfq, simulator  # noqa: E402
from tracing import Tracer  # noqa: E402

# work counts that must be positive on their workload
NAMED_COUNTS = {
    "rcu-exact": ("fbl.lattice_points", "fbl.rcu_exact_ppc.joint_types"),
    "ldpc-bounds": ("spectrum.socket_lattice_points",
                    "spectrum.check_polynomial.coeffs"),
    "sim-decode": ("simulator.simulate_error.candidate_evals",
                   "gfq.rank_and_nullspace.entries"),
    "sim-sample": ("gfq.rank_and_nullspace.entries",
                   "simulator.min_distance.pair_symbols"),
}


def _refs_for(names):
    return {"rel_tol": 1e-9, "abs_tol": 1e-12,
            "workloads": {"w": {"op_names": names, "ops": {}, "seeds": {}}}}


def test_guard_trip_counts_as_failed_op(tmp_path, monkeypatch):
    # the joint-type lattice of the 4-ary symmetric channel at n=24 has
    # 25,140,840,660 points, far beyond the enumeration guard
    monkeypatch.chdir(tmp_path)
    ch = workloads.write_channels()
    ops = [workloads.Op("achieve_ldpc_2_4_qsc_n24",
                        lambda: cli.cmd_achieve(ch["qsc"], 0.05, 24,
                                                ldpc=(2, 4)))]
    rows = worker.op_rows(worker.run_ops(ops))
    assert rows[0]["error"].startswith("ValueError:")
    assert "guard" in rows[0]["error"]
    verdict = run.judge("w", 1, [{"traced": False, "ops": rows}],
                        _refs_for([op.name for op in ops]))
    assert (verdict["attempted"], verdict["failed"]) == (1, 1)
    assert verdict["failures"][0]["error"].startswith("ValueError:")


def test_reference_mismatch_counts_as_failed_op():
    fp = worker.fingerprint({"value": 0.25, "n": 12, "hist": {"3": 7}})
    refs = _refs_for(["op"])
    refs["workloads"]["w"]["ops"]["op"] = fp

    def verdict(got):
        rep = {"traced": False, "ops": [{"name": "op", "error": None,
                                         "fingerprint": got}]}
        return run.judge("w", 1, [rep], refs)

    assert verdict(fp)["failed"] == 0
    near = worker.fingerprint({"value": 0.25 * (1 + 1e-11), "n": 12,
                               "hist": {"3": 7}})
    assert verdict(near)["failed"] == 0
    for wrong in ({"value": 0.25 * (1 + 1e-7), "n": 12, "hist": {"3": 7}},
                  {"value": 0.25, "n": 12, "hist": {"3": 8}}):
        assert verdict(worker.fingerprint(wrong))["failed"] == 1


def test_failed_check_counts_as_failed_op():
    ops = [workloads.Op("op", lambda: 1.0, check=lambda r, _: "bad")]
    records = worker.run_ops(ops)
    worker.check_records(ops, records)
    assert records[0]["error"] == "CheckFailed: bad"


def test_tracer_wraps_aliases_and_restores_them():
    original = gfq.rank_and_nullspace
    tracer = Tracer()
    tracer.install()
    try:
        assert simulator.rank_and_nullspace is gfq.rank_and_nullspace
        assert gfq.rank_and_nullspace is not original
        assert cli.cmd_rcu.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert gfq.rank_and_nullspace is original
    assert simulator.rank_and_nullspace is original


def test_readme_examples_cover_every_command():
    with open(os.path.join(run.ROOT, "README.md")) as fh:
        commands, files = run.readme_examples(fh.read())
    assert sorted(files) == ["ch.json", "mac.json", "run.json"]
    verbs = {c.split()[1] for c in commands}
    assert verbs == {"exponent", "spectrum", "rcu", "achieve", "simulate",
                     "compare", "schema"}


def test_missing_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rcu-exact", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def traced_layers(tmp_path_factory):
    """Per workload: one untraced and two traced reps."""
    out = {}
    for name in run.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(name))
        out[name] = [run.run_rep(name, 3, traced, workdir, timeout=170)
                     for traced in (False, True, True)]
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_and_tracing_changes_no_result(traced_layers, name):
    plain, first, second = traced_layers[name]
    for rep in (plain, first, second):
        assert "crashed" not in rep
        assert all(op["error"] is None for op in rep["ops"])
        # one speed-reference sample before the ops and one after each
        assert len(rep["reference_s"]) == len(rep["ops"]) + 1
        assert run._norm_wall(rep) > 0
    for rep in (first, second):
        for a, b in zip(plain["ops"], rep["ops"]):
            assert run.compare_fingerprint(a["fingerprint"], b["fingerprint"],
                                           0.0, 0.0) is None, a["name"]
    la, lb = first["trace"]["layers"], second["trace"]["layers"]
    counts = {k for k in la if not k.endswith("self_s")}
    assert counts == {k for k in lb if not k.endswith("self_s")}
    assert {k: la[k] for k in counts} == {k: lb[k] for k in counts}
    for key in NAMED_COUNTS[name]:
        assert la[key] > 0, key


def test_every_per_layer_metric_is_produced(traced_layers):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    seen = {"trace.overhead_ratio"}  # computed by run.py from both kinds
    for reps in traced_layers.values():
        seen |= {k for k, v in reps[1]["trace"]["layers"].items() if v}
    assert names <= seen, sorted(names - seen)
