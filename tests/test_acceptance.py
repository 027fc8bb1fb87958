"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

The headline guarantees are asymptotic, so the gate combines exact
small-instance equivalences against independent oracles with desk-scale
statistical checks at fixed seeds.  Every test writes a single
"[acceptance NN] label: PASS/FAIL" line straight to the terminal
(bypassing capture) and then asserts, so a red run still reports every
verdict.
"""

import json
import math

import numpy as np
import pytest

import oracles
from fblbound.channel import (DmcModel, InputPmf, bsc, capacity,
                              make_quantizer, noiseless)
from fblbound.cli import cmd_compare
from fblbound.exponent import (critical_rate, e0, error_exponent,
                               kmac_exponent_bound, quadratic_exponent_bound)
from fblbound.fbl import (GaussianRegion, achievable_logM_ppc, ldpc_rcu_ppc,
                          q_fun, q_inv, qinv_membership, rcu_exact_ppc)
from fblbound.gfq import make_field
from fblbound.simulator import (actual_rate_stats, empirical_spectrum,
                                simulate_error)
from fblbound.spectrum import (alpha_log, check_polynomial,
                               ldpc_spectrum_table, rate_concentration,
                               rate_offset_decomposition)
from helpers import dmc_to_json

UNIF2 = InputPmf.uniform(2)


def asym23() -> DmcModel:
    return DmcModel.from_rows([["1/2", "1/3", "1/6"], ["1/5", "3/10", "1/2"]])


@pytest.fixture
def announce(capsys):
    def _line(num: int, label: str, ok: bool, detail: str = ""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance {num:02d}] {label}: "
                  f"{'PASS' if ok else 'FAIL'}{tail}")
    return _line


def test_accept_01_rcu_matches_exhaustive_oracles(announce):
    """Exact iid random-coding error against two independent oracles:
    full codebook enumeration (small grid) and the factorized
    conditional form (whole grid), to 1e-12.  The noiseless channel,
    BEC(1/2) and the Z-channel make most competitor scores tie exactly
    with the sent word's, so they exercise the tie tolerance."""
    bec = DmcModel.from_rows([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
    z_channel = DmcModel.from_rows([["1", "0"], ["1/2", "1/2"]])
    worst = 0.0
    for ch in (bsc("11/100"), asym23(), noiseless(2), bec, z_channel):
        for n in (1, 2, 3, 4):
            for m in (2, 3, 4):
                want = float(oracles.ensemble_error_factorized(ch, UNIF2, n, m))
                got = rcu_exact_ppc(ch, UNIF2, n, m).value
                worst = max(worst, abs(want - got))
        for n in (1, 2):
            for m in (2, 3, 4):
                want = float(oracles.ensemble_error_codebooks(ch, UNIF2, n, m))
                got = rcu_exact_ppc(ch, UNIF2, n, m).value
                worst = max(worst, abs(want - got))
    ok = worst <= 1e-12
    announce(1, "iid RCU equals exhaustive ensemble enumeration", ok,
             f"max gap {worst:.2e}, tol 1e-12")
    assert ok


def test_accept_02_check_polynomial_routes_agree(announce):
    """The production character sum, direct enumeration and the edge DP
    must produce identical integer coefficients for every small check
    node."""
    mismatches = []
    for q in (2, 3, 4):
        for num_users in (1, 2):
            for rho in (2, 3, 4):
                got = check_polynomial(q, num_users, rho).coeffs
                if not (got == oracles.enumerate_check_poly(q, num_users, rho)
                        == oracles.dp_check_poly(q, num_users, rho)):
                    mismatches.append((q, num_users, rho))
    ok = not mismatches
    announce(2, "check-node enumerator: character sum vs enumeration "
             "vs edge DP", ok,
             "coefficient-exact on q in {2,3,4}, users in {1,2}, "
             "degree <= 4" if ok else f"mismatches {mismatches}")
    assert ok


def test_accept_03_spectrum_matches_sampled_graphs(announce):
    """Analytic per-type expected counts vs 1e5 sampled graphs, within
    three standard errors at every type (variance floored at the
    predicted mean for rarely-observed types)."""
    failures = []
    for n in (6, 12):
        table = ldpc_spectrum_table(n, 3, 6, 2, 1)
        _emp, stats = empirical_spectrum((n, 3, 6, 2), trials=100_000,
                                         seed=31, return_stats=True)
        trials = 100_000
        for t, log_pred in table.entries.items():
            pred = 0.0 if log_pred == -math.inf else math.exp(log_pred)
            mean, var, _cnt = stats.get(t, (0.0, 0.0, trials))
            if pred == 0.0:
                if mean != 0.0:
                    failures.append((n, t, mean, pred))
                continue
            se = math.sqrt(max(var, pred) / trials)
            if abs(mean - pred) > 3.0 * se:
                failures.append((n, t, mean, pred))
    ok = not failures
    announce(3, "finite spectrum vs 1e5 sampled graphs", ok,
             "all types within 3 sigma at n in {6,12}" if ok
             else f"outliers {failures[:4]}")
    assert ok


def test_accept_04_exponent_sandwich_and_concavity(announce):
    """Parabolic lower bounds never exceed the true random-coding
    exponent; the E0 curve is concave; the exponent vanishes at
    capacity under the capacity-achieving input."""
    problems = []
    for name, ch in (("bsc", bsc("11/100")), ("asym23", asym23())):
        cap, popt = capacity(ch)
        grid = np.linspace(0.0, cap, 50)
        rcr = critical_rate(ch, popt)
        log_ny = math.log(ch.output_size)
        strong_lo = max(0.0, cap - (4.0 / math.e ** 2 + log_ny ** 2
                                    - rcr ** 2))
        for r in grid:
            er, _rho = error_exponent("PPC", float(r), ch, (popt,))
            if quadratic_exponent_bound(float(r), ch, popt) > er + 1e-9:
                problems.append((name, "weak", float(r)))
            if r >= strong_lo and quadratic_exponent_bound(
                    float(r), ch, popt, strong=True) > er + 1e-9:
                problems.append((name, "strong", float(r)))
        curve = np.array([e0("PPC", float(x), ch, (popt,))
                          for x in np.linspace(0.0, 1.0, 41)])
        if np.diff(curve, 2).max() > 1e-9:
            problems.append((name, "concavity",
                             float(np.diff(curve, 2).max())))
        ep_c = error_exponent("PPC", cap, ch, (popt,))[0]
        if ep_c > 1e-8:
            problems.append((name, "capacity", ep_c))
    ok = not problems
    announce(4, "quadratic bounds under the exponent, E0 concave", ok,
             "50-point grids, both channels" if ok else f"{problems[:4]}")
    assert ok


def test_accept_05_simulation_respects_composed_bounds(announce):
    """Sampled-code ML error (1e3 codes x 1e3 noise) stays below both
    composed achievability bounds at the 95% lower confidence limit, at an
    operating point where both bounds are below 1 (a bound of 1 holds
    trivially)."""
    dmc = bsc("1/100")
    qz = make_quantizer(make_field(2, 1), UNIF2)
    rows = []
    ok = True
    for n in (15, 20):
        rep = simulate_error((n, 3, 5, 2), dmc, qz, trials_codes=1000,
                             trials_noise=1000, seed=43)
        num = 2 ** (n - n * 3 // 5)
        table = ldpc_spectrum_table(n, 3, 5, 2, 1)
        log_a, _t = alpha_log(table, num)
        rcu = ldpc_rcu_ppc(dmc, qz, n, 3, 5, log_alpha=log_a)
        handled = [t for t in table.entries if t != (n, 0)]
        kmac = kmac_exponent_bound(
            rate=0.4, t_set=handled, spectrum_table=table,
            alpha_mac=math.exp(log_a), channel=dmc, quantizer=qz,
        )
        low = rep.components["wilson_low"]
        ok = (ok and rcu.value < 1.0 and kmac.value < 1.0
              and low <= rcu.value and low <= kmac.value)
        rows.append(f"n={n}: sim {rep.value:.4f} <= rcu {rcu.value:.4f}, "
                    f"exp {min(kmac.value, 1.0):.4f}")
    announce(5, "simulated ML error under both composed bounds", ok,
             "; ".join(rows))
    assert ok


def test_accept_06_rate_target_feeds_back_consistently(announce):
    """The achievable message count, pushed back through the exact RCU
    evaluation, must come in strictly under the target error."""
    ch = bsc("11/100")
    problems = []
    for n in (8, 12, 16):
        for eps in (0.1, 0.05):
            m = achievable_logM_ppc(ch, UNIF2, n, eps,
                                    strict_window=False).num_messages
            err = rcu_exact_ppc(ch, UNIF2, n, m).value
            if not err < eps:
                problems.append((n, eps, m, err))
    ok = not problems
    announce(6, "achievable M re-checked by exact RCU, strictly below "
                "target", ok,
             "n in {8,12,16}, eps in {0.1,0.05}" if ok else f"{problems}")
    assert ok


def test_accept_07_rate_offset_decays_like_logn_over_n(announce):
    """Total rate offset at a fixed check-degree fraction fits
    c*log(n)/n across an octave sweep with R^2 >= 0.95."""
    xs, ys = [], []
    for n in (100, 200, 400, 800):
        dec = rate_offset_decomposition(n, 3, 3 * n // 10, 0.1, 2, 1)
        total = (dec.expurgation_term + dec.finite_spectrum_term
                 + dec.geometric_term + dec.stirling_term)
        xs.append(math.log(n) / n)
        ys.append(total)
    x, y = np.array(xs), np.array(ys)
    c = float(x @ y / (x @ x))
    r2 = 1.0 - float(((y - c * x) ** 2).sum() / ((y - y.mean()) ** 2).sum())
    ok = r2 >= 0.95
    announce(7, "rate offset follows c*log(n)/n", ok,
             f"c={c:.3f}, R^2={r2:.4f} over n in {{100..800}}")
    assert ok


def test_accept_08_rate_concentration_envelope(announce):
    """Sampled rank deficiencies: tail probability of the rate gap stays
    under the q^(-n*eps/2) envelope at every realized grid point.  The
    envelope is asymptotic in n at fixed eps; here it is checked at the
    per-n default grids, where it already holds with slack."""
    failures = []
    for n in (12, 24, 48):
        g = actual_rate_stats((n, 3, 6, 2), trials=10_000, seed=29)
        for eps, tail in zip(g.eps_grid, g.tail_probs):
            envelope = rate_concentration(n, eps, 2)
            if tail > envelope + 1e-12:
                failures.append((n, eps, tail, envelope))
    ok = not failures
    announce(8, "rate-gap tails under the exponential envelope", ok,
             "1e4 graphs at n in {12,24,48}" if ok else f"{failures[:4]}")
    assert ok


def test_accept_09_gaussian_tail_machinery(announce):
    """Q/Qinv round-trip below 1e-9 on a log grid, and the 1-d Monte
    Carlo membership probe lands within 3 CI half-widths of its target
    at the analytic boundary."""
    grid = np.exp(np.linspace(math.log(1e-12), math.log(0.5), 200))
    worst = max(abs(q_fun(q_inv(float(e))) - float(e)) for e in grid)
    ok = worst < 1e-9
    detail = [f"roundtrip {worst:.1e}"]
    for eps in (0.1, 0.01):
        region = GaussianRegion(covariance=np.array([[1.0]]), epsilon=eps)
        res = qinv_membership(region, [q_inv(eps)], trials=10 ** 6, seed=7)
        gap = abs(res.prob_estimate - (1.0 - eps))
        ok = ok and gap <= 3.0 * res.ci_half_width
        detail.append(f"boundary@{eps}: {gap:.1e} <= "
                      f"{3 * res.ci_half_width:.1e}")
    announce(9, "Gaussian tail inversion and membership probe", ok,
             ", ".join(detail))
    assert ok


def test_accept_10_regime_comparison_flips(announce, tmp_path):
    """At moderate error the dispersion curve dominates the exponent
    route at every swept n; at very small error the always-valid
    exponent route beats the windowed dispersion form somewhere."""
    path = tmp_path / "bsc11.json"
    path.write_text(json.dumps(dmc_to_json(bsc("11/100"))))
    moderate = cmd_compare({"channel": str(path),
                            "n_sweep": [200, 600, 1200, 2000],
                            "epsilon": 1e-3})
    rows = {(r["n"], r["bound_name"]): r["value"] for r in moderate["rows"]}
    dominated = all(rows[(n, "dispersion-rate")] > rows[(n, "exponent-rate")]
                    for n in (200, 600, 1200, 2000))
    tiny = cmd_compare({"channel": str(path), "n_sweep": [2000],
                        "epsilon": 1e-12})
    wins = tiny["crossover"]["exponent_wins_over_rigorous_dispersion"]
    flipped = bool(wins) and wins[0]["exponent_rate"] > 0.0
    ok = dominated and flipped
    announce(10, "dispersion leads at 1e-3, exponent route wins at 1e-12",
             ok, f"sweep margins positive: {dominated}; "
                 f"win at n=2000: rate {wins[0]['exponent_rate']:.4f}"
                 if wins else "no win found")
    assert ok
