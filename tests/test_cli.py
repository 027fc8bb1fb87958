"""Command-line layer: wiring, exit codes, report formats, determinism.

Every invocation goes through main() with an argv list; stdout is
captured per test.  Channel files are written fresh into tmp_path so the
tests never depend on repository data files.
"""

import json
import math
import time

import numpy as np
import pytest

from fblbound import GuardError
from fblbound.channel import (InputPmf, binary_adder_mac, bsc, dmc_to_json,
                              mac_to_json, make_quantizer, noiseless)
from fblbound.cli import (CSV_HEADER, ConfigError, cmd_achieve, cmd_compare,
                          cmd_exponent, cmd_report_schema, cmd_rcu,
                          cmd_simulate, cmd_spectrum, main, schema_validate)
from fblbound.exponent import kmac_exponent_bound, two_mac_exponent_bound
from fblbound.fbl import rcu_exact_ppc
from fblbound.gfq import _find_reduction_poly, field_from_order
from fblbound.simulator import (Codebook, empirical_spectrum,
                                enumerate_codebook, min_distance, ml_decode,
                                sample_graph)
from fblbound.spectrum import (SpectrumTable, alpha_log, check_polynomial,
                               ldpc_spectrum_table, rate_offset_decomposition,
                               uniform_spectrum_table)

LN2 = math.log(2.0)


@pytest.fixture
def bsc_path(tmp_path):
    path = tmp_path / "bsc11.json"
    path.write_text(json.dumps(dmc_to_json(bsc("11/100"))))
    return str(path)


@pytest.fixture
def mac_path(tmp_path):
    path = tmp_path / "adder.json"
    path.write_text(json.dumps(mac_to_json(binary_adder_mac())))
    return str(path)


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def compare_config(tmp_path, bsc_path, **overrides):
    cfg = {"channel": bsc_path, "n_sweep": [200, 400], "epsilon": 1e-3}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# schema command

def test_schema_lists_bound_report_with_version(capsys):
    rc, out, _ = run(capsys, ["schema"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["version"] == "1"
    assert "BoundReport" in payload
    assert "required" in payload["BoundReport"]


def test_emitted_reports_pass_their_own_schema(capsys, bsc_path, tmp_path):
    rc, out, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n", "6",
                              "--M", "4"])
    assert rc == 0
    schema_validate("BoundReport", json.loads(out))

    payload = cmd_simulate(bsc_path, 2, 3, 6, 6, codes=5, noise=5, seed=1)
    schema_validate("SimulateReport", payload)
    schema_validate("BoundReport", payload["report"])

    table = cmd_spectrum(2, 1, 3, 6, 12, want_alpha=True)
    schema_validate("SpectrumReport", table)

    cfg = {"channel": bsc_path, "n_sweep": [200], "epsilon": 1e-3}
    schema_validate("CompareReport", cmd_compare(cfg))


def test_schema_validate_flags_missing_and_mistyped():
    with pytest.raises(ValueError, match="missing"):
        schema_validate("BoundReport", {"name": "x"})
    bad = {"name": "x", "value": "not-a-number", "units": "nats",
           "method": "closed-form", "n": 4, "components": {}}
    with pytest.raises(ValueError, match="wrong type"):
        schema_validate("BoundReport", bad)
    with pytest.raises(ValueError, match="no validatable schema"):
        schema_validate("NoSuchReport", {})


# ---------------------------------------------------------------------------
# exponent command

def test_exponent_ppc_equals_direct_library_call(bsc_path):
    payload = cmd_exponent(bsc_path, rate=0.25, n=16)
    field = field_from_order(2)
    quantizer = make_quantizer(field, InputPmf.uniform(2))
    direct = kmac_exponent_bound(
        rate=0.25, t_set=(),
        spectrum_table=SpectrumTable(n=16, q=2, num_users=1, kind="uniform",
                                     entries={}),
        alpha_mac=1.0, channel=bsc("11/100"), quantizer=quantizer,
    )
    assert payload["value"] == direct.value
    assert payload["num_messages"] == 2 ** 4


def test_exponent_mac_equals_direct_library_call(mac_path):
    payload = cmd_exponent(mac_path, rate=0.25, n=16, mac=True)
    direct = two_mac_exponent_bound(
        n=16, rate1=0.25 * LN2, rate2=0.25 * LN2, alphas=(1.0, 1.0),
        mac=binary_adder_mac(), pmf1=InputPmf.uniform(2),
        pmf2=InputPmf.uniform(2),
    )
    assert payload["value"] == direct.value


def test_exponent_values_pinned(bsc_path, mac_path):
    # the README examples; any change to how the composed bounds derive
    # n, K, the input pmf or the pair penalty moves these values
    ppc = cmd_exponent(bsc_path, rate=0.25, n=64)
    assert ppc["value"] == pytest.approx(0.055630324183371355, rel=1e-12)
    assert ppc["components"]["gallager_rho_star"] == pytest.approx(
        0.6107399920287399, rel=1e-12)
    mac = cmd_exponent(mac_path, rate=0.25, n=64, mac=True)
    assert mac["value"] == pytest.approx(7.107776779409789e-15, rel=1e-12)
    assert mac["components"]["term_pair_log_nats"] == pytest.approx(
        -40.59236241483222, rel=1e-12)
    exp = cmd_exponent(bsc_path, rate=0.5, n=40, expurgate=0.1,
                       var_degree=3, check_degree=6)
    assert exp["value"] == 1.0
    assert exp["components"]["log_alpha_ex"] == pytest.approx(
        14.556091745433623, rel=1e-12)
    assert exp["components"]["delta_rate_nats"] == pytest.approx(
        0.3639022936358406, rel=1e-12)
    assert tuple(exp["components"]["penalty_argmax_type"]) == (0, 40)


def test_exponent_expurgate_without_ensemble_is_config_error(capsys, bsc_path):
    rc, _, err = run(capsys, ["exponent", "--channel", bsc_path, "--rate",
                              "0.5", "--n", "40", "--expurgate", "0.1"])
    assert rc == 2
    assert "check-degree" in err


def test_exponent_channel_kind_must_match_flag(capsys, bsc_path, mac_path):
    rc, _, _ = run(capsys, ["exponent", "--channel", bsc_path, "--rate",
                            "0.5", "--n", "8", "--mac"])
    assert rc == 2
    rc, _, _ = run(capsys, ["exponent", "--channel", mac_path, "--rate",
                            "0.25", "--n", "8"])
    assert rc == 2


def test_exponent_non_integer_message_count_exits_4(capsys, bsc_path):
    rc, _, err = run(capsys, ["exponent", "--channel", bsc_path, "--rate",
                              "0.37", "--n", "64"])
    assert rc == 4
    assert "numeric" in err


# ---------------------------------------------------------------------------
# spectrum command

def test_spectrum_table_payload_and_alpha_block():
    payload = cmd_spectrum(2, 1, 3, 6, 12, want_alpha=True)
    assert payload["kind"] == "ldpc"
    assert len(payload["entries"]) == 13
    assert payload["entries"]["0,12"] == pytest.approx(0.0)
    table = ldpc_spectrum_table(12, 3, 6, 2, 1)
    log_a, argmax_t = alpha_log(table, 2 ** 6)
    assert payload["alpha"]["log_alpha"] == pytest.approx(log_a)
    assert tuple(payload["alpha"]["argmax_type"]) == argmax_t
    assert payload["alpha"]["num_messages_per_user"] == 64


@pytest.mark.parametrize("num_users,n,expurgate,log_alpha,argmax,num", [
    (1, 12, None, 4.17463144032781, [0, 12], 64),
    (1, 12, 0.2, 4.867778620887756, [0, 12], 64),
    (2, 8, None, 5.549091343800699, [0, 0, 0, 8], 16),
    (2, 8, 0.2, 6.242238524360644, [0, 0, 0, 8], 16),
])
def test_spectrum_alpha_pinned(num_users, n, expurgate, log_alpha, argmax,
                               num):
    alpha = cmd_spectrum(2, num_users, 3, 6, n, want_alpha=True,
                         expurgate=expurgate)["alpha"]
    assert alpha["log_alpha"] == pytest.approx(log_alpha, rel=1e-12)
    assert alpha["argmax_type"] == argmax
    assert alpha["num_messages_per_user"] == num


def test_spectrum_expurgated_table_doubles_survivors():
    plain = cmd_spectrum(2, 1, 3, 6, 12)
    exp = cmd_spectrum(2, 1, 3, 6, 12, expurgate=0.25)
    assert exp["kind"] == "ldpc-expurgated"
    assert exp["is_upper_bound"] is True
    # weight 2 = 12 - 10 sits inside the expurgation band
    assert exp["entries"]["10,2"] == -math.inf
    surv = exp["entries"]["6,6"]
    assert surv == pytest.approx(plain["entries"]["6,6"] + LN2)


def test_spectrum_theta_grid_rows(capsys, tmp_path):
    rc, out, _ = run(capsys, ["spectrum", "--q", "2", "--lambda", "3",
                              "--check-degree", "6", "--n", "12",
                              "--theta", "0.25", "0.5", "0.75"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta0,exponent_L,exponent_U"
    assert len(lines) == 4
    for line in lines[1:]:
        t0, lo, up = (float(v) for v in line.split(","))
        assert math.isfinite(lo) and math.isfinite(up)
    csv_path = tmp_path / "curve.csv"
    rc, out, _ = run(capsys, ["spectrum", "--q", "2", "--lambda", "3",
                              "--check-degree", "6", "--n", "12",
                              "--theta", "0.25", "0.5", "0.75",
                              "--csv", str(csv_path)])
    assert rc == 0 and out == ""
    assert csv_path.read_text().strip().split("\n") == lines


def test_spectrum_large_n_table_hits_guard(capsys):
    rc, _, err = run(capsys, ["spectrum", "--q", "2", "--lambda", "3",
                              "--check-degree", "6", "--n", "100"])
    assert rc == 3
    assert "guard" in err


def test_spectrum_check_node_guard(capsys):
    # one degree-6 check over GF(16)^2 has about 4.1e11 socket types
    rc, _, err = run(capsys, ["spectrum", "--q", "16", "--K", "2",
                              "--lambda", "3", "--check-degree", "6",
                              "--n", "1200", "--theta", "0.5"])
    assert rc == 3
    assert "guard" in err


def test_spectrum_divisibility_is_config_error(capsys):
    rc, _, _ = run(capsys, ["spectrum", "--q", "2", "--lambda", "3",
                            "--check-degree", "6", "--n", "13"])
    assert rc == 2


# ---------------------------------------------------------------------------
# rcu command

def test_rcu_modes_relaxed_dominates_exact(capsys, bsc_path):
    rc, out_r, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8",
                                "--M", "4"])
    rc_e, out_e, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8",
                                  "--M", "4", "--exact"])
    assert rc == 0 and rc_e == 0
    relaxed = json.loads(out_r)
    exact = json.loads(out_e)
    assert relaxed["name"] != exact["name"]
    assert exact["value"] <= relaxed["value"] + 1e-12
    rc_m, out_m, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8",
                                  "--M", "4", "--mc", "4000", "--seed", "3"])
    assert rc_m == 0
    mc = json.loads(out_m)
    assert mc["ci_half_width"] is not None
    assert abs(mc["value"] - exact["value"]) < 5 * mc["ci_half_width"] + 1e-3


def test_rcu_mac_reports_message_pair(capsys, mac_path):
    rc, out, _ = run(capsys, ["rcu", "--channel", mac_path, "--n", "6",
                              "--M", "2", "--mac", "--M2", "2"])
    assert rc == 0
    assert json.loads(out)["num_messages"] == [2, 2]


def test_rcu_mc_without_seed_is_config_error(capsys, bsc_path):
    for trials in ("100", "0"):
        rc, _, err = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8",
                                  "--M", "4", "--mc", trials])
        assert rc == 2
        assert "seed" in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 63), str(2 ** 64)])
def test_out_of_range_seed_is_config_error(capsys, bsc_path, seed):
    # one seed rule for every command: Philox keys fold or warn outside
    # [0, 2**63), and 2**64 used to overflow with a traceback
    for args in (["rcu", "--channel", bsc_path, "--n", "8", "--M", "4",
                  "--mc", "1000"],
                 ["simulate", "--channel", bsc_path, "--q", "2", "--lambda",
                  "3", "--check-degree", "6", "--n", "12", "--codes", "2",
                  "--noise", "2"]):
        rc, out, err = run(capsys, args + ["--seed", seed])
        assert rc == 2 and out == ""
        assert "seed must be an int in [0, 2**63)" in err
    rc, _, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8", "--M",
                            "4", "--mc", "1000", "--seed", str(2 ** 63 - 1)])
    assert rc == 0


def test_rcu_mc_zero_trials_is_not_the_relaxed_bound(capsys, bsc_path):
    rc, _, err = run(capsys, ["rcu", "--channel", bsc_path, "--n", "16",
                              "--M", "32", "--mc", "0", "--seed", "1"])
    assert rc == 4
    assert "trials" in err


def test_rcu_mac_without_m2_is_config_error(capsys, mac_path):
    rc, _, _ = run(capsys, ["rcu", "--channel", mac_path, "--n", "6",
                            "--M", "2", "--mac"])
    assert rc == 2


def test_rcu_mac_flag_must_match_channel(capsys, bsc_path, mac_path):
    rc, _, err = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8",
                              "--M", "4", "--mac"])
    assert rc == 2 and "--mac" in err
    rc, _, err = run(capsys, ["rcu", "--channel", mac_path, "--n", "6",
                              "--M", "2", "--M2", "2"])
    assert rc == 2 and "--mac" in err
    rc, _, err = run(capsys, ["rcu", "--channel", bsc_path, "--n", "8",
                              "--M", "4", "--M2", "4"])
    assert rc == 2 and "--M2" in err


def test_rcu_exact_lattice_guard_exits_3(capsys, bsc_path):
    # BSC, n = 200: 1,373,701 joint types against the 10^6 guard
    rc, out, err = run(capsys, ["rcu", "--channel", bsc_path, "--n", "200",
                                "--M", "32", "--exact"])
    assert rc == 3 and out == ""
    assert "1373701" in err


def test_rcu_sweep_emits_rows_and_csv(capsys, tmp_path, bsc_path):
    csv_path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n-sweep",
                              "4,6,8", "--M", "4", "--exact",
                              "--csv", str(csv_path)])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [4, 6, 8]
    assert all(r["unit"] == "probability" for r in rows)
    # longer codes with the same M can only help
    assert rows[2]["value"] <= rows[0]["value"] + 1e-12
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4


def test_rcu_rejects_n_together_with_sweep(capsys, bsc_path):
    rc, _, _ = run(capsys, ["rcu", "--channel", bsc_path, "--n", "4",
                            "--n-sweep", "4,6", "--M", "2"])
    assert rc == 2
    rc, _, _ = run(capsys, ["rcu", "--channel", bsc_path, "--M", "2"])
    assert rc == 2


def test_achieve_sweep_rates_grow_with_blocklength(capsys, tmp_path,
                                                   bsc_path):
    csv_path = tmp_path / "ach.csv"
    rc, out, _ = run(capsys, ["achieve", "--channel", bsc_path, "--epsilon",
                              "0.1", "--n-sweep", "8,12,16", "--units",
                              "bits", "--csv", str(csv_path)])
    assert rc == 0
    rows = json.loads(out)["rows"]
    values = [r["value"] for r in rows]
    assert values == sorted(values)
    assert all(r["unit"] == "bits" for r in rows)
    assert len(csv_path.read_text().strip().split("\n")) == 4


# ---------------------------------------------------------------------------
# achieve command

def test_achieve_small_blocklength_runs_exact_search(capsys, bsc_path):
    rc, out, _ = run(capsys, ["achieve", "--channel", bsc_path,
                              "--epsilon", "0.05", "--n", "12"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["components"]["path"] == "exact-search"
    assert payload["value"] == pytest.approx(math.log(3.0))


def test_achieve_units_bits_rescales_by_ln2(capsys, bsc_path):
    _, out_n, _ = run(capsys, ["achieve", "--channel", bsc_path,
                               "--epsilon", "0.05", "--n", "12"])
    _, out_b, _ = run(capsys, ["achieve", "--channel", bsc_path,
                               "--epsilon", "0.05", "--n", "12",
                               "--units", "bits"])
    nats = json.loads(out_n)["value"]
    bits = json.loads(out_b)["value"]
    assert bits == pytest.approx(nats / LN2, rel=1e-12)


def test_achieve_strict_window_fails_at_desk_scale(capsys, bsc_path):
    rc, _, _ = run(capsys, ["achieve", "--channel", bsc_path,
                            "--epsilon", "0.05", "--n", "12",
                            "--strict-window"])
    assert rc == 4


def test_achieve_ldpc_reports_design_rate_and_target_flag(capsys, bsc_path):
    rc, out, _ = run(capsys, ["achieve", "--channel", bsc_path,
                              "--epsilon", "0.05", "--n", "12",
                              "--ldpc", "3,6"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(6 * LN2)
    comp = payload["components"]
    assert comp["meets_target"] == (comp["ensemble_error"] <= 0.05)
    assert comp["design_rate_qary"] == pytest.approx(0.5)
    rc, out, _ = run(capsys, ["achieve", "--channel", bsc_path,
                              "--epsilon", "1.0", "--n", "12",
                              "--ldpc", "3,6"])
    assert json.loads(out)["components"]["meets_target"] is True


def test_achieve_ldpc_values_pinned(bsc_path):
    for n, log_m, log_alpha in ((12, 4.1588830833596715, 4.17463144032781),
                                (24, 8.317766166719343, 8.318010337151517)):
        payload = cmd_achieve(bsc_path, 0.05, n, ldpc=(3, 6))
        assert payload["value"] == pytest.approx(log_m, rel=1e-12)
        assert payload["components"]["log_alpha"] == pytest.approx(
            log_alpha, rel=1e-12)
        assert payload["components"]["ensemble_error"] == 1.0


def test_achieve_malformed_ldpc_pair_is_config_error(capsys, bsc_path):
    rc, _, _ = run(capsys, ["achieve", "--channel", bsc_path,
                            "--epsilon", "0.05", "--n", "12",
                            "--ldpc", "3-6"])
    assert rc == 2


# ---------------------------------------------------------------------------
# simulate command

def test_simulate_payload_has_contract_keys(bsc_path):
    payload = cmd_simulate(bsc_path, 2, 3, 6, 12, codes=20, noise=20, seed=5)
    for key in ("eps_hat", "ci", "dmin_histogram", "rate_gap_stats"):
        assert key in payload
    lo, hi = payload["ci"]
    assert lo <= payload["eps_hat"] <= hi
    assert sum(payload["dmin_histogram"].values()) <= 20
    gaps = payload["rate_gap_stats"]
    assert gaps["n"] == 12 and gaps["trials"] == 20
    assert len(gaps["eps_grid"]) == len(gaps["tail_probs"])


def test_simulate_output_is_byte_identical_across_runs(capsys, bsc_path):
    args = ["simulate", "--channel", bsc_path, "--q", "2", "--lambda", "3",
            "--check-degree", "6", "--n", "12", "--codes", "10",
            "--noise", "10", "--seed", "9"]
    rc1, out1, _ = run(capsys, args)
    rc2, out2, _ = run(capsys, args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_simulate_mac_flag_must_match_channel(capsys, bsc_path, mac_path):
    rc, _, _ = run(capsys, ["simulate", "--channel", bsc_path, "--q", "2",
                            "--lambda", "2", "--check-degree", "4", "--n",
                            "8", "--codes", "2", "--noise", "2", "--seed",
                            "1", "--mac"])
    assert rc == 2
    rc, _, _ = run(capsys, ["simulate", "--channel", mac_path, "--q", "2",
                            "--lambda", "2", "--check-degree", "4", "--n",
                            "8", "--codes", "2", "--noise", "2",
                            "--seed", "1"])
    assert rc == 2


def test_simulate_codebook_guard_exits_3(capsys, bsc_path):
    # (3,6) at n = 48 asks for 2^24 codewords against the 2^20 guard
    rc, out, err = run(capsys, ["simulate", "--channel", bsc_path, "--q",
                                "2", "--lambda", "3", "--check-degree", "6",
                                "--n", "48", "--codes", "2", "--noise", "2",
                                "--seed", "1"])
    assert rc == 3 and out == ""
    assert "16777216" in err


def test_simulate_mac_same_coset_runs(capsys, mac_path):
    rc, out, _ = run(capsys, ["simulate", "--channel", mac_path, "--q", "2",
                              "--lambda", "2", "--check-degree", "4", "--n",
                              "8", "--codes", "5", "--noise", "10",
                              "--seed", "5", "--mac", "--same-coset"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["num_messages"] == 256
    assert 0.0 <= payload["eps_hat"] <= 1.0


def test_simulate_huge_prime_field_order_exits_3_fast(capsys, bsc_path):
    # a prime order above the table limit must not be trial-divided
    start = time.perf_counter()
    rc, out, err = run(capsys, ["simulate", "--channel", bsc_path, "--q",
                                "1000000007", "--lambda", "3",
                                "--check-degree", "6", "--n", "12",
                                "--codes", "1", "--noise", "1", "--seed",
                                "1"])
    assert rc == 3 and out == ""
    assert "table limit" in err
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# compare command

def test_compare_rejects_unknown_keys_and_prints_schema(capsys, tmp_path,
                                                        bsc_path):
    cfg = compare_config(tmp_path, bsc_path, bogus=1)
    rc, _, err = run(capsys, ["compare", "--config", cfg])
    assert rc == 2
    assert "bogus" in err
    assert "n_sweep" in err and "epsilon" in err  # full schema shown
    with pytest.raises(ConfigError, match="bogus"):
        cmd_compare({"channel": bsc_path, "n_sweep": [8], "epsilon": 0.1,
                     "bogus": 1})
    with pytest.raises(ConfigError, match="simulate.oops"):
        cmd_compare({"channel": bsc_path, "n_sweep": [8], "epsilon": 0.1,
                     "seed": 1, "simulate": {"codes": 1, "noise": 1,
                                             "oops": 2}})


def test_compare_empty_sweep_is_config_error(capsys, tmp_path, bsc_path):
    cfg = compare_config(tmp_path, bsc_path, n_sweep=[])
    rc, _, _ = run(capsys, ["compare", "--config", cfg])
    assert rc == 2
    with pytest.raises(ConfigError, match="n_sweep"):
        cmd_compare({"channel": bsc_path, "n_sweep": [], "epsilon": 0.1})


def test_compare_requires_core_keys(bsc_path):
    with pytest.raises(ConfigError, match="epsilon"):
        cmd_compare({"channel": bsc_path, "n_sweep": [8]})
    with pytest.raises(ConfigError, match="simulate"):
        cmd_compare({"channel": bsc_path, "n_sweep": [8], "epsilon": 0.1,
                     "simulate": {"codes": 2, "noise": 2}})
    with pytest.raises(ConfigError, match="q-ary"):
        cmd_compare({"channel": bsc_path, "n_sweep": [8], "epsilon": 0.1,
                     "units": "qary"})


def test_compare_zero_variance_is_not_a_window_miss(capsys, tmp_path):
    # the rigorous row needs positive dispersion; a noiseless channel must
    # fail on that, not pass as an out-of-window n with rate 0
    path = tmp_path / "noiseless.json"
    path.write_text(json.dumps(dmc_to_json(noiseless(2))))
    cfg = compare_config(tmp_path, str(path))
    rc, out, err = run(capsys, ["compare", "--config", cfg])
    assert rc == 4
    assert out == ""
    assert "variance" in err


_ENSEMBLE = {"var_degree": 3, "check_degree": 6, "q": 2}


@pytest.mark.parametrize("overrides", [
    {"n_sweep": [True, 12]},
    {"seed": "abc"},
    {"seed": -3},
    {"seed": 2 ** 63},
    {"seed": 1.9},
    {"seed": True},
    {"ensemble": dict(_ENSEMBLE, q=True)},
    {"ensemble": _ENSEMBLE, "seed": 1,
     "simulate": {"codes": True, "noise": 2}},
    {"ensemble": _ENSEMBLE, "seed": 1,
     "simulate": {"codes": 2, "noise": True}},
], ids=["sweep-bool", "seed-str", "seed-negative", "seed-too-large",
        "seed-float",
        "seed-bool", "ensemble-bool", "codes-bool", "noise-bool"])
def test_compare_rejects_non_integer_config_values(capsys, tmp_path,
                                                   bsc_path, overrides):
    cfg = {"n_sweep": [12], "epsilon": 0.1, **overrides}
    rc, out, err = run(capsys, ["compare", "--config",
                                compare_config(tmp_path, bsc_path, **cfg)])
    assert rc == 2 and out == ""
    assert err.startswith("config error")
    with pytest.raises(ConfigError):
        cmd_compare({"channel": bsc_path, **cfg})


@pytest.mark.parametrize("value", [0.1, "0.1", {"a": 0.1}, [True],
                                   [0.1, False], [0.0], [0.6]],
                         ids=["float", "str", "dict", "bool-entry",
                              "bool-after-float", "zero", "above-half"])
def test_compare_rejects_malformed_scaling_epsilons(capsys, tmp_path,
                                                    bsc_path, value):
    cfg = compare_config(tmp_path, bsc_path, scaling_epsilons=value)
    rc, out, err = run(capsys, ["compare", "--config", cfg])
    assert rc == 2 and out == ""
    assert "scaling_epsilons" in err


def test_compare_checks_sweep_against_ensemble(bsc_path):
    with pytest.raises(ConfigError, match="n = 7"):
        cmd_compare({"channel": bsc_path, "n_sweep": [6, 7], "epsilon": 0.1,
                     "ensemble": {"var_degree": 3, "check_degree": 6,
                                  "q": 2}})


def test_compare_dispersion_beats_exponent_at_moderate_error(bsc_path):
    payload = cmd_compare({"channel": bsc_path,
                           "n_sweep": [200, 600, 1200, 2000],
                           "epsilon": 1e-3})
    rows = {(r["n"], r["bound_name"]): r["value"] for r in payload["rows"]}
    for n in (200, 600, 1200, 2000):
        assert rows[(n, "dispersion-rate")] > rows[(n, "exponent-rate")]
    for entry in payload["crossover"]["dispersion_minus_exponent"]:
        assert entry["dispersion_minus_exponent"] > 0.0


def test_compare_exponent_wins_at_very_small_error(bsc_path):
    payload = cmd_compare({"channel": bsc_path, "n_sweep": [2000],
                           "epsilon": 1e-12})
    wins = payload["crossover"]["exponent_wins_over_rigorous_dispersion"]
    assert wins, "expected the exponent route to beat the windowed form"
    assert wins[0]["exponent_rate"] > 0.0
    assert wins[0]["window_valid"] is False


def test_compare_rate_units_differ_by_exactly_ln2(bsc_path):
    # small n: the LDPC finite-spectrum path enumerates joint types
    base = {"channel": bsc_path, "n_sweep": [12, 24], "epsilon": 1e-3,
            "seed": 2,
            "ensemble": {"var_degree": 3, "check_degree": 6, "q": 2},
            "simulate": {"codes": 5, "noise": 5}}
    nats = cmd_compare(dict(base, units="nats"))
    bits = cmd_compare(dict(base, units="bits"))
    for rn, rb in zip(nats["rows"], bits["rows"]):
        assert rn["bound_name"] == rb["bound_name"] and rn["n"] == rb["n"]
        if rn["unit"] == "probability":
            assert rb["unit"] == "probability"
            assert rb["value"] == rn["value"]
        else:
            assert rb["value"] == pytest.approx(rn["value"] / LN2, abs=1e-15)


def test_compare_output_files_are_byte_identical(capsys, tmp_path, bsc_path):
    csv_a, json_a = tmp_path / "a.csv", tmp_path / "a.json"
    csv_b, json_b = tmp_path / "b.csv", tmp_path / "b.json"
    common = {"epsilon": 0.1, "n_sweep": [12], "seed": 11,
              "ensemble": {"var_degree": 3, "check_degree": 6, "q": 2},
              "simulate": {"codes": 10, "noise": 10}}
    cfg_a = compare_config(tmp_path, bsc_path, csv=str(csv_a),
                           json=str(json_a), **common)
    rc, out_a, _ = run(capsys, ["compare", "--config", cfg_a])
    cfg_b = compare_config(tmp_path, bsc_path, csv=str(csv_b),
                           json=str(json_b), **common)
    rc_b, out_b, _ = run(capsys, ["compare", "--config", cfg_b])
    assert rc == rc_b == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    # config echo excludes the output paths, so the reports match too
    assert json_a.read_bytes() == json_b.read_bytes()
    payload = json.loads(json_a.read_text())
    assert "csv" not in payload["config"] and "json" not in payload["config"]


def test_compare_csv_has_frozen_columns(capsys, tmp_path, bsc_path):
    csv_path = tmp_path / "rows.csv"
    cfg = compare_config(tmp_path, bsc_path, n_sweep=[200],
                         csv=str(csv_path))
    rc, _, _ = run(capsys, ["compare", "--config", cfg])
    assert rc == 0
    lines = csv_path.read_text().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    first = lines[1].split(",")
    assert first[0] == "200" and first[3] == "nats"
    assert first[4] == "" and first[5] == ""  # no CI on analytic rows


def test_compare_simulated_row_carries_its_interval(bsc_path):
    payload = cmd_compare({"channel": bsc_path, "n_sweep": [12],
                           "epsilon": 0.1, "seed": 4,
                           "ensemble": {"var_degree": 3, "check_degree": 6,
                                        "q": 2},
                           "simulate": {"codes": 15, "noise": 15}})
    sim = [r for r in payload["rows"]
           if r["bound_name"] == "simulated-ml-error"]
    assert len(sim) == 1
    assert sim[0]["ci_lo"] <= sim[0]["value"] <= sim[0]["ci_hi"]
    names = [r["bound_name"] for r in payload["rows"]]
    assert "ldpc-rcu-error" in names and "ldpc-rate" in names


def test_compare_scaling_table_tracks_requested_grid(bsc_path):
    payload = cmd_compare({"channel": bsc_path, "n_sweep": [100],
                           "epsilon": 0.01,
                           "scaling_epsilons": [0.5, 0.1, 0.01]})
    table = payload["scaling_table"]
    assert [row[0] for row in table] == [0.5, 0.1, 0.01]
    assert table[0][1] == pytest.approx(0.0)  # Qinv(1/2) = 0


def test_missing_channel_file_is_config_error(capsys, tmp_path):
    rc, _, err = run(capsys, ["rcu", "--channel",
                              str(tmp_path / "nope.json"), "--n", "4",
                              "--M", "2"])
    assert rc == 2
    assert "cannot read" in err


def test_invalid_channel_json_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, _ = run(capsys, ["rcu", "--channel", str(bad), "--n", "4",
                            "--M", "2"])
    assert rc == 2


def test_schema_command_output_is_stable(capsys):
    _, out1, _ = run(capsys, ["schema"])
    _, out2, _ = run(capsys, ["schema"])
    assert out1 == out2
    assert cmd_report_schema()["RunConfig"]["epsilon"].startswith("target")


# ---------------------------------------------------------------------------
# guards

_F2 = field_from_order(2)


def _book(count: int, n: int) -> Codebook:
    """The first ``count`` binary words of length ``n``, each its own
    channel input."""
    words = (np.arange(count)[:, None] >> np.arange(n)[None, :]) & 1
    return Codebook(field=_F2, words=words, inputs=words)

# each guard's message fragment and a call that trips it
GUARDS = [
    pytest.param("joint-type lattice", lambda: rcu_exact_ppc(
        bsc("11/100"), InputPmf.uniform(2), 200, 32), id="rcu-lattice"),
    pytest.param("codebook size", lambda: enumerate_codebook(
        sample_graph(48, 3, 6, _F2, 0), 0.5), id="codebook"),
    pytest.param("nullspace size", lambda: enumerate_codebook(
        sample_graph(48, 3, 6, _F2, 0), 0.25), id="nullspace"),
    pytest.param("candidates exceed", lambda: ml_decode(
        binary_adder_mac(), (_book(1025, 11), _book(1025, 11)),
        np.zeros(11, dtype=np.int64)), id="ml-candidates"),
    pytest.param("codematrix tuple count", lambda: empirical_spectrum(
        (24, 3, 6, 2), 1, 0, num_users=2), id="codematrix-pairs"),
    pytest.param("pair scan", lambda: min_distance(_book(10_000, 14)),
                 id="pair-scan"),
    pytest.param("pair scan", lambda: min_distance(
        (_book(100, 11), _book(100, 11))), id="mac-pair-scan"),
    pytest.param("socket types of one", lambda: check_polynomial(16, 2, 6),
                 id="check-node"),
    pytest.param("dense table", lambda: uniform_spectrum_table(
        400, 4, 2, 7), id="dense-table"),
    pytest.param("decomposition needs", lambda: rate_offset_decomposition(
        200, 3, 6, 0.1, 4, 1), id="decomposition-lattice"),
    pytest.param("per-type table guard", lambda: cmd_spectrum(
        2, 1, 3, 6, 66), id="spectrum-command"),
    pytest.param("exceeds table limit", lambda: field_from_order(
        1_000_000_007), id="field-table"),
    # the table limit keeps every public field far below this limit
    pytest.param("trial divisors", lambda: _find_reduction_poly(
        2_000_003, 2), id="field-trial-divisors"),
]


@pytest.mark.parametrize("message,trip", GUARDS)
def test_every_guard_raises_guard_error(message, trip):
    with pytest.raises(GuardError, match=message):
        trip()
