"""Op lists of the four benchmark workloads.

Every op calls a public function of ``fblbound.cli``,
``fblbound.spectrum`` or ``fblbound.simulator`` (the ``cmd_*`` functions
reach ``fblbound.fbl``) through its module attribute (``cli.cmd_rcu``,
not an imported alias), so that the wrappers installed by ``tracing.py``
see the call.  ``build`` writes the channel files the ops read and
returns the ops; only ops marked ``seeded`` use the workload seed, every
other op computes the same result for any seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from fblbound import cli, simulator, spectrum
from fblbound.channel import InputPmf, channel_from_json, make_quantizer
from fblbound.gfq import field_from_order

# Channel files, in the README's JSON format.  "bsc" and "adder" are the
# README's ch.json and mac.json.
CHANNELS = {
    "bsc": {"inputs": 2, "outputs": 2,
            "rows": [["89/100", "11/100"], ["11/100", "89/100"]]},
    "bsc_float": {"inputs": 2, "outputs": 2,
                  "rows": [[0.89, 0.11], [0.11, 0.89]]},
    "bec": {"inputs": 2, "outputs": 3,
            "rows": [["1/2", "1/2", "0"], ["0", "1/2", "1/2"]]},
    "tsc": {"inputs": 3, "outputs": 3,
            "rows": [["4/5", "1/10", "1/10"], ["1/10", "4/5", "1/10"],
                     ["1/10", "1/10", "4/5"]]},
    "qsc": {"inputs": 4, "outputs": 4,
            "rows": [["7/10", "1/10", "1/10", "1/10"],
                     ["1/10", "7/10", "1/10", "1/10"],
                     ["1/10", "1/10", "7/10", "1/10"],
                     ["1/10", "1/10", "1/10", "7/10"]]},
    "adder": {"inputs": [2, 2], "outputs": 3,
              "rows": [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]},
}


@dataclass(frozen=True)
class Op:
    """One timed call; ``seeded`` ops take the workload seed.

    ``check(result, results)`` returns a message when the result breaks a
    property that holds at every seed (``results`` maps earlier op names
    to their results); seeds with stored references are also compared
    against those."""

    name: str
    run: Callable[[], object]
    seeded: bool = False
    check: Callable[[object, dict], str | None] | None = None


def _check_sim_report(rep: dict, trials: int) -> str | None:
    """Invariants of a simulate_error report: the realized error never
    exceeds the ties-as-error rate, and the Wilson interval holds it."""
    c, value = rep["components"], rep["value"]
    if rep["trials"] != trials:
        return f"{rep['trials']} trials, expected {trials}"
    if not 0.0 <= value <= c["ties_as_error_rate"] <= 1.0:
        return (f"eps_hat {value} outside [0, ties-as-error rate "
                f"{c['ties_as_error_rate']}]")
    if not c["wilson_low"] <= value <= c["wilson_high"]:
        return f"eps_hat {value} outside its Wilson interval"
    return None


def _sim_check(trials: int):
    return lambda rep, _results: _check_sim_report(asdict(rep), trials)


def _cmd_sim_check(codes: int, noise: int):
    def check(payload, _results):
        hist = sum(payload["dmin_histogram"].values())
        if hist > codes or payload["rate_gap_stats"]["trials"] != codes:
            return f"d_min histogram holds {hist} codes of {codes}"
        return _check_sim_report(payload["report"], codes * noise)
    return check


def _check_mc_against_exact(report, results) -> str | None:
    exact = results["rcu_exact_bsc_float_n48"]["value"]
    gap = abs(report["value"] - exact)
    if gap > 4.0 * report["ci_half_width"]:
        return (f"Monte Carlo {report['value']} is {gap:.3g} from the exact "
                f"{exact}, beyond 4 CI half-widths")
    return None


def _check_rate_stats(stats, _results) -> str | None:
    tails = stats.tail_probs
    if any(a < b for a, b in zip(tails, tails[1:])) or not (
            0.0 <= stats.mean_gap <= stats.max_gap):
        return f"rate-gap statistics inconsistent: {stats}"
    return None


def _check_empirical_spectrum(table, _results) -> str | None:
    # every nullspace holds the all-zero word exactly once
    zero = table.entries.get((table.n, 0))
    if zero != 0.0:
        return f"all-zero type has log-mean {zero}, expected 0"
    return None


def write_channels() -> dict[str, str]:
    """Write the channel files into the current directory and return
    their relative paths, which reports echo (``compare`` configs)."""
    paths = {}
    for name, obj in CHANNELS.items():
        paths[name] = f"{name}.json"
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    return paths


def _quantizer(channel, q: int):
    return make_quantizer(field_from_order(q),
                          InputPmf.uniform(channel.input_size))


def _rcu_exact(ch, seed):
    return [
        Op("rcu_exact_bsc_n32",
           lambda: cli.cmd_rcu(ch["bsc"], 32, 2 ** 8, mode="exact")),
        Op("rcu_exact_bsc_float_n48",
           lambda: cli.cmd_rcu(ch["bsc_float"], 48, 2 ** 12, mode="exact")),
        Op("rcu_exact_bec_n30",
           lambda: cli.cmd_rcu(ch["bec"], 30, 2 ** 8, mode="exact")),
        Op("rcu_exact_tsc_n8",
           lambda: cli.cmd_rcu(ch["tsc"], 8, 3 ** 3, mode="exact")),
        Op("rcu_mc_bsc_n48",
           lambda: cli.cmd_rcu(ch["bsc"], 48, 2 ** 12, mode="mc",
                               trials=1000, seed=seed),
           seeded=True, check=_check_mc_against_exact),
        Op("achieve_exact_search_n24",
           lambda: cli.cmd_achieve(ch["bsc"], 0.05, 24)),
        Op("rcu_mac_adder_n12",
           lambda: cli.cmd_rcu(ch["adder"], 12, 2 ** 3, m2=2 ** 3,
                               mode="exact")),
    ]


def _ldpc_bounds(ch, seed):
    ens = {"var_degree": 3, "check_degree": 6, "q": 2}
    return [
        Op("compare_ensemble_n24_48",
           lambda: cli.cmd_compare({"channel": ch["bsc"], "n_sweep": [24, 48],
                                    "epsilon": 0.001, "units": "bits",
                                    "ensemble": ens})),
        Op("compare_readme_n200_2000",
           lambda: cli.cmd_compare({"channel": ch["bsc"],
                                    "n_sweep": [200, 600, 1200, 2000],
                                    "epsilon": 0.001, "units": "bits"})),
        Op("achieve_ldpc_3_6_n48",
           lambda: cli.cmd_achieve(ch["bsc"], 0.05, 48, ldpc=(3, 6))),
        Op("achieve_ldpc_2_4_q4_n16",
           lambda: cli.cmd_achieve(ch["bsc"], 0.05, 16, ldpc=(2, 4), q=4)),
        Op("rcu_relaxed_n60", lambda: cli.cmd_rcu(ch["bsc"], 60, 2 ** 24)),
        Op("spectrum_alpha_q4_n10",
           lambda: cli.cmd_spectrum(4, 1, 3, 6, 10, want_alpha=True)),
        Op("spectrum_alpha_q2_k2_n16",
           lambda: cli.cmd_spectrum(2, 2, 3, 6, 16, want_alpha=True)),
        Op("theta_curves_q4",
           lambda: cli.cmd_spectrum(4, 1, 3, 6, 1200,
                                    thetas=[0.25, 0.5, 0.75])),
        Op("theta_curves_q2_k2",
           lambda: cli.cmd_spectrum(2, 2, 3, 6, 1200,
                                    thetas=[0.25, 0.5, 0.75])),
        Op("exponent_expurgated",
           lambda: cli.cmd_exponent(ch["bsc"], 0.5, 40, expurgate=0.1,
                                    var_degree=3, check_degree=6)),
        Op("exponent_mac",
           lambda: cli.cmd_exponent(ch["adder"], 0.25, 64, mac=True)),
        Op("rate_offset_n36_rho18",
           lambda: spectrum.rate_offset_decomposition(36, 3, 18, 0.1, 2, 1)),
    ]


def _ml_decode_op(seed) -> Op:
    """100 ml_decode calls on a sampled n=12 code over the rational BSC
    (the exact Fraction comparison path), outputs drawn from the seed.
    The check confirms each decision is a maximum-likelihood word."""
    dmc = channel_from_json(CHANNELS["bsc"])
    graph = simulator.sample_graph(12, 3, 6, field_from_order(2), seed)
    book = simulator.build_inputs(
        simulator.enumerate_codebook(graph, 0.5, seed), seed,
        _quantizer(dmc, 2))
    rng = np.random.Generator(np.random.Philox(key=[seed, 99]))
    sent = rng.integers(book.size, size=100)
    ys = book.inputs[sent] ^ (rng.random((100, 12)) < 0.11)

    def check(decoded, _results):
        ll = np.log(dmc.w)[book.inputs[:, None, :], ys[None, :, :]].sum(axis=2)
        picked = ll[decoded, np.arange(len(ys))]
        if np.any(picked < ll.max(axis=0) - 1e-9):
            return "a decision is not a maximum-likelihood codeword"
        return None

    return Op("ml_decode_exact_x100",
              lambda: [simulator.ml_decode(dmc, book, y, seed=seed + i)
                       for i, y in enumerate(ys)],
              seeded=True, check=check)


def _sim_decode(ch, seed):
    bsc = channel_from_json(CHANNELS["bsc"])
    adder = channel_from_json(CHANNELS["adder"])
    tsc = channel_from_json(CHANNELS["tsc"])
    q2, q3 = _quantizer(bsc, 2), _quantizer(tsc, 3)
    return [
        Op("simulate_error_n24",
           lambda: simulator.simulate_error((24, 3, 6, 2), bsc, q2, 10, 2000,
                                            seed),
           seeded=True, check=_sim_check(10 * 2000)),
        Op("simulate_error_n30",
           lambda: simulator.simulate_error((30, 3, 6, 2), bsc, q2, 3, 200,
                                            seed),
           seeded=True, check=_sim_check(3 * 200)),
        Op("simulate_error_adder_n12",
           lambda: simulator.simulate_error((12, 3, 6, 2), adder, (q2, q2),
                                            10, 500, seed),
           seeded=True, check=_sim_check(10 * 500)),
        Op("simulate_error_q3_n12",
           lambda: simulator.simulate_error((12, 2, 4, 3), tsc, q3, 10, 1000,
                                            seed),
           seeded=True, check=_sim_check(10 * 1000)),
        _ml_decode_op(seed),
    ]


def _sim_sample(ch, seed):
    return [
        Op("simulate_readme_n12",
           lambda: cli.cmd_simulate(ch["bsc"], 2, 3, 6, 12, 200, 200, seed),
           seeded=True, check=_cmd_sim_check(200, 200)),
        Op("simulate_mac_same_coset",
           lambda: cli.cmd_simulate(ch["adder"], 2, 2, 4, 8, 50, 100, seed,
                                    mac=True, same_coset=True),
           seeded=True, check=_cmd_sim_check(50, 100)),
        Op("simulate_q4_n12",
           lambda: cli.cmd_simulate(ch["bsc"], 4, 3, 4, 12, 10, 100, seed),
           seeded=True, check=_cmd_sim_check(10, 100)),
        Op("actual_rate_stats_n96",
           lambda: simulator.actual_rate_stats((96, 3, 6, 2), 40, seed),
           seeded=True, check=_check_rate_stats),
        Op("empirical_spectrum_n12",
           lambda: simulator.empirical_spectrum((12, 3, 6, 2), 500, seed),
           seeded=True, check=_check_empirical_spectrum),
    ]


_BUILDERS = {
    "rcu-exact": _rcu_exact,
    "ldpc-bounds": _ldpc_bounds,
    "sim-decode": _sim_decode,
    "sim-sample": _sim_sample,
}


def build(workload: str, seed: int) -> list[Op]:
    """Write the channel files into the current directory and return the
    op list."""
    return _BUILDERS[workload](write_channels(), seed)
