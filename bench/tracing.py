"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the fblbound modules
with a timing wrapper.  A function is looked up by name at call time, so
the wrapper is bound under every module attribute that holds the original
(``gfq.rank_and_nullspace`` and its alias ``simulator.rank_and_nullspace``
alike): intra-module and cross-module calls are both seen.  Generator
functions are left alone, since their work happens while the caller
iterates; it counts toward the caller's self time.

A layer is a module.  Each span records its caller (the nearest traced
frame below it); a function's self time is its span time minus the time
of the traced spans it called.  Work counts are computed from arguments
and results by the ``_COUNTERS`` below, so they repeat exactly.  Spans
are aggregated in memory per (caller, function) edge and read out with
``summary`` after the timed region.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("cli", "fbl", "spectrum", "simulator", "gfq", "exponent",
           "infodensity", "channel")


def _support_cells(w, probs) -> int:
    """Joint (x, y) cells with positive probability: the dimension of the
    joint-type lattice the exact and relaxed RCU routes enumerate."""
    return sum(1 for x, px in enumerate(probs) if px > 0
               for wy in w[x] if wy > 0)


def _lattice(n: int, cells: int) -> int:
    return math.comb(n + cells - 1, cells - 1)


def _count_ppc(t, a, r):
    if "quantizer" in a:
        probs = a["quantizer"].counts
    else:  # an InputPmf or a plain list of probabilities
        probs = getattr(a["input_pmf"], "probs", a["input_pmf"])
    t.counts["fbl.lattice_points"] += _lattice(
        a["n"], _support_cells(a["dmc"].w, probs))


def _count_rcu_exact(t, a, r):
    _count_ppc(t, a, r)
    t.counts["fbl.rcu_exact_ppc.joint_types"] += r.components["joint_types"]


def _count_achieve(t, a, r):
    if r.components.get("path") == "exact-search":
        _count_ppc(t, a, r)


def _count_rcu_mac(t, a, r):
    if a["mode"] != "exact":
        return
    mac = a["mac"]
    w = mac.w.reshape(-1, mac.w.shape[-1])
    t.counts["fbl.lattice_points"] += _lattice(a["n"], _support_cells(
        w, [1.0] * w.shape[0]))


def _count_socket_lattice(t, a, r):
    q, k = a["q"], a.get("num_users", 1)
    rho = a["check_degree"]
    checks = a["n"] * a["var_degree"] // rho
    t.counts["spectrum.socket_lattice_points"] += _lattice(
        rho * checks, q ** k)


def _count_rank(t, a, r):
    rows, cols = a["mat"].data.shape
    t.counts["gfq.rank_and_nullspace.entries"] += rows * cols
    # nullspace words the caller enumerates, for simulator.kept_word_ratio
    t.counts[f"nullspace_words.{t.caller}"] += a["mat"].field.q ** r[1].shape[0]


def _count_simulate(t, a, r):
    n, lam, rho, q = (int(v) for v in a["ensemble_params"])
    codes, noise = a["trials_codes"], a["trials_noise"]
    users = 2 if isinstance(a["quantizers"], (tuple, list)) \
        and len(a["quantizers"]) == 2 else 1
    t.counts["simulator.simulate_error.codes"] += codes
    t.counts["simulator.simulate_error.noise_words"] += codes * noise
    t.counts["simulator.simulate_error.candidate_evals"] += (
        codes * noise * int(r.num_messages) * n)
    t.counts["kept_words"] += codes * users * q ** round(n * (1 - lam / rho))


def _count_enumerate(t, a, r):
    t.counts["kept_words"] += r.size


def _count_min_distance(t, a, r):
    book = a["codebook"]
    if isinstance(book, (tuple, list)):
        m1, n = book[0].words.shape
        pairs = (m1 * book[1].words.shape[0]) ** 2
    else:
        m, n = book.words.shape
        pairs = m * (m - 1) // 2
    t.counts["simulator.min_distance.pair_symbols"] += pairs * n


def _count_cli_output(t, a, r):
    t.counts["cli.output_bytes"] += len(
        json.dumps(canonical(r), sort_keys=True, indent=2)) + 1


_COUNTERS = {
    "fbl.rcu_exact_ppc": _count_rcu_exact,
    "fbl.rcu_relaxed_ppc": _count_ppc,
    "fbl.ldpc_rcu_ppc": _count_ppc,
    "fbl.achievable_logM_ppc": _count_achieve,
    "fbl.rcu_mac": _count_rcu_mac,
    "fbl.rcu_mc_ppc": lambda t, a, r: t.counts.update(
        {"fbl.rcu_mc_ppc.trials": a["trials"]}),
    "spectrum.check_polynomial": lambda t, a, r: t.counts.update(
        {"spectrum.check_polynomial.coeffs": len(r.coeffs)}),
    "spectrum.ldpc_spectrum_table": _count_socket_lattice,
    "spectrum.rate_offset_decomposition": _count_socket_lattice,
    "gfq.rank_and_nullspace": _count_rank,
    "simulator.simulate_error": _count_simulate,
    "simulator.enumerate_codebook": _count_enumerate,
    "simulator.min_distance": _count_min_distance,
}


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def canonical(x):
    """Plain JSON value of a result: dataclasses as dicts, tuples and
    arrays as lists, numpy scalars as Python numbers, dict keys and
    non-finite floats as strings."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: canonical(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {_key(k): canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, np.ndarray):
        return canonical(x.tolist())
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return str(x)


class Tracer:
    """Timing wrappers around the public functions of the fblbound
    modules; ``install`` and ``uninstall`` swap them in and out."""

    def __init__(self):
        self._stack: list[list] = []      # [name, child seconds]
        self.edges: dict[tuple, list] = {}  # (caller, name) -> [calls, s]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.caller: str | None = None    # set while a counter runs
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        counter = _COUNTERS.get(name)
        if name.startswith("cli.cmd_"):
            counter = _count_cli_output
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                self.self_s[name] += span - frame[1]
                self.calls[name] += 1
                edge = self.edges.setdefault((caller, name), [0, 0.0])
                edge[0] += 1
                edge[1] += span
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.caller = caller
                counter(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"fblbound.{m}")
                   for m in MODULES}
        wrappers = {}
        for mname, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{mname}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-function and per-module self time and calls, work counts,
        and the caller edges."""
        layers: dict[str, float] = {}
        for name, calls in self.calls.items():
            layers[f"{name}.calls"] = calls
            layers[f"{name}.self_s"] = self.self_s[name]
            module = name.split(".")[0]
            layers[f"{module}.calls"] = layers.get(f"{module}.calls", 0) + calls
            layers[f"{module}.self_s"] = (layers.get(f"{module}.self_s", 0.0)
                                          + self.self_s[name])
        counts = dict(self.counts)
        kept = counts.pop("kept_words", 0)
        enumerated = 0
        for key in list(counts):
            if key.startswith("nullspace_words."):
                caller = key.split(".", 1)[1]
                words = counts.pop(key)
                if caller == "simulator.empirical_spectrum":
                    kept += words  # the full nullspace is kept
                    enumerated += words
                elif caller in ("simulator.enumerate_codebook",
                                "simulator.simulate_error"):
                    enumerated += words
        layers.update(counts)
        layers["simulator.kept_word_ratio"] = (kept / enumerated
                                               if enumerated else 0.0)
        return {
            "layers": layers,
            "edges": [[caller, name, calls, span] for (caller, name),
                      (calls, span) in sorted(self.edges.items(),
                                              key=lambda e: str(e[0]))],
        }
