"""Tests for the error-exponent module: Gallager-function variants, the
exponent maximization, quadratic lower bounds, pairwise weights, and the
three composed exponential bounds."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import oracles

from fblbound import exponent as ex
from fblbound.channel import (
    DmcModel,
    InputPmf,
    MacModel,
    bsc,
    make_quantizer,
    noiseless,
)
from fblbound.fbl import rcu_exact_ppc
from fblbound.gfq import make_field
from fblbound.infodensity import mac_moments, ppc_moments
from fblbound.spectrum import alpha_log, ldpc_spectrum_table
from helpers import binary_adder_mac, uniform_spectrum_table

UNIF2 = InputPmf.uniform(2)
LN2 = math.log(2.0)


def asym23():
    return DmcModel.from_rows([
        ["1/2", "1/3", "1/6"],
        ["1/5", "3/10", "1/2"],
    ])


def parallel_mac(pa, pb):
    """Two independent binary symmetric legs seen as one 2-user MAC."""
    fa, fb = Fraction(pa), Fraction(pb)

    def row(x1, x2):
        out = []
        for y1 in (0, 1):
            for y2 in (0, 1):
                w1 = fa if y1 != x1 else 1 - fa
                w2 = fb if y2 != x2 else 1 - fb
                out.append(w1 * w2)
        return out

    return MacModel.from_rows(
        [[row(x1, x2) for x2 in (0, 1)] for x1 in (0, 1)]
    )


def e0_grid(variant, channel, pmfs, points):
    """E0 on ``points`` equally spaced tilts in [0, 1]."""
    return np.array([ex.e0(variant, float(r), channel, pmfs)
                     for r in np.linspace(0.0, 1.0, points)])


def binary_quantizer():
    return make_quantizer(make_field(2, 1), UNIF2)


# ---------------------------------------------------------------------------
# Gallager function

def test_e0_zero_rho_is_exactly_zero():
    ch = bsc("11/100")
    assert ex.e0("PPC", 0.0, ch, UNIF2) == 0.0
    am = binary_adder_mac()
    for variant in ("MAC-1", "MAC-2", "MAC-12"):
        assert ex.e0(variant, 0.0, am, (UNIF2, UNIF2)) == 0.0


def test_e0_bsc_rho_one_closed_form():
    # at full tilt the binary symmetric value is ln2 - 2 ln(sum of root probs)
    want = LN2 - 2.0 * math.log(math.sqrt(0.11) + math.sqrt(0.89))
    got = ex.e0("PPC", 1.0, bsc("11/100"), UNIF2)
    assert abs(got - want) < 1e-12


def test_e0_mac12_factorizes_over_parallel_legs():
    pm = parallel_mac("11/100", "1/20")
    for rho in (0.25, 0.5, 1.0):
        joint = ex.e0("MAC-12", rho, pm, (UNIF2, UNIF2))
        split = (ex.e0("PPC", rho, bsc("11/100"), UNIF2)
                 + ex.e0("PPC", rho, bsc("1/20"), UNIF2))
        assert abs(joint - split) < 1e-12


def test_e0_ppc_on_mac_equals_flattened_product():
    am = binary_adder_mac()
    flat = am.flatten()
    prod = InputPmf.from_values(["1/4", "1/4", "1/4", "1/4"])
    for rho in (0.3, 1.0):
        assert abs(
            ex.e0("PPC", rho, am, UNIF2) - ex.e0("PPC", rho, flat, prod)
        ) < 1e-14


def test_e0_validation():
    ch = bsc("11/100")
    with pytest.raises(ValueError, match="variant"):
        ex.e0("MAC-3", 0.5, ch, UNIF2)
    with pytest.raises(ValueError, match="gallager_rho"):
        ex.e0("PPC", 1.5, ch, UNIF2)
    with pytest.raises(ValueError, match="gallager_rho"):
        ex.e0("PPC", -0.1, ch, UNIF2)
    # rho = 0 has E0 = 0 on every valid input, but must not skip validation
    for rho in (0.5, 0.0):
        with pytest.raises(ValueError, match="two-user"):
            ex.e0("MAC-1", rho, ch, UNIF2)
        with pytest.raises(ValueError, match="pmf size"):
            ex.e0("PPC", rho, ch, InputPmf.uniform(3))
        with pytest.raises(ValueError, match="two input pmfs"):
            ex.e0("MAC-12", rho, binary_adder_mac(), UNIF2)


def noisy_adder_mac():
    """Binary adder MAC whose output is right with probability 8/10 and
    each wrong sum with 1/10."""
    hi, lo = "8/10", "1/10"
    return MacModel.from_rows([
        [[hi, lo, lo], [lo, hi, lo]],
        [[lo, hi, lo], [lo, lo, hi]],
    ])


# Gallager function event of each variant: the users averaged in the bracket
_VARIANT_EVENTS = {"PPC": (0, 1), "MAC-1": (0,), "MAC-2": (1,),
                   "MAC-12": (0, 1)}


def test_e0_variants_match_event_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mac = MacModel(rng.dirichlet(np.ones(3), size=(2, 2)))
        p1 = InputPmf(rng.dirichlet(np.ones(2)))
        p2 = InputPmf(rng.dirichlet(np.ones(2)))
        probs = (p1.probs, p2.probs)
        for variant, event in _VARIANT_EVENTS.items():
            for rho in (0.25, 0.5, 1.0):
                want = oracles.e0_event(mac.w, probs, event, rho)
                got = ex.e0(variant, rho, mac, (p1, p2))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("mac,want", [
    (parallel_mac("1/10", "1/4"), (0.18547983568250162, 0.29248001550928365)),
    (noisy_adder_mac(), (0.15281185833194125, 0.23438981590286923)),
])
def test_e0_mac12_pinned(mac, want):
    got = [ex.e0("MAC-12", rho, mac, (UNIF2, UNIF2)) for rho in (0.5, 1.0)]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("channel,pmfs,variant", [
    (bsc("11/100"), (UNIF2,), "PPC"),
    (asym23(), (UNIF2,), "PPC"),
    (binary_adder_mac(), (UNIF2, UNIF2), "MAC-1"),
    (binary_adder_mac(), (UNIF2, UNIF2), "MAC-12"),
])
def test_e0_concave_and_nondecreasing_on_grid(channel, pmfs, variant):
    vals = e0_grid(variant, channel, pmfs, 101)
    d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.all(d2 <= 1e-9)
    assert np.all(np.diff(vals) >= -1e-12)


def test_e0_slope_at_zero_is_capacity():
    for ch in (bsc("11/100"), asym23()):
        cap = ppc_moments(ch, UNIF2).mean
        h = 1e-6
        d = ex.e0("PPC", h, ch, UNIF2) / h
        d_half = ex.e0("PPC", h / 2.0, ch, UNIF2) / (h / 2.0)
        assert abs(2.0 * d_half - d - cap) < 1e-6


# ---------------------------------------------------------------------------
# exponent maximization

def test_error_exponent_zero_rate_hits_full_tilt():
    ch = bsc("11/100")
    ep, rho = ex.error_exponent("PPC", 0.0, ch, UNIF2)
    assert rho == 1.0
    assert abs(ep - ex.e0("PPC", 1.0, ch, UNIF2)) < 1e-12


def test_error_exponent_vanishes_at_and_above_capacity():
    ch = bsc("11/100")
    cap = ppc_moments(ch, UNIF2).mean
    ep_at, rho_at = ex.error_exponent("PPC", cap, ch, UNIF2)
    assert ep_at <= 1e-8 and rho_at <= 1e-4
    assert ex.error_exponent("PPC", 2.0 * cap, ch, UNIF2) == (0.0, 0.0)


def test_error_exponent_positive_below_capacity():
    ep, rho = ex.error_exponent("PPC", 0.25 * LN2, bsc("11/100"), UNIF2)
    assert ep > 0.0 and 0.0 < rho <= 1.0


def test_error_exponent_matches_dense_grid_scan():
    ch = asym23()
    for rate in (0.05, 0.15, 0.25):
        ep, _ = ex.error_exponent("PPC", rate, ch, UNIF2)
        rhos = np.linspace(0.0, 1.0, 2001)
        grid_best = max(
            ex.e0("PPC", float(r), ch, UNIF2) - float(r) * rate for r in rhos
        )
        assert ep >= grid_best - 1e-9
        assert ep <= grid_best + 1e-6


def test_error_exponent_decreasing_in_rate():
    ch = bsc("11/100")
    rates = [0.0, 0.05, 0.1, 0.2, 0.3]
    vals = [ex.error_exponent("PPC", r, ch, UNIF2)[0] for r in rates]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_error_exponent_validation():
    ch = bsc("11/100")
    with pytest.raises(ValueError, match="nonnegative"):
        ex.error_exponent("PPC", -0.1, ch, UNIF2)


# ---------------------------------------------------------------------------
# critical rate

def test_critical_rate_noiseless_binary():
    assert abs(ex.critical_rate(noiseless(2), UNIF2) - LN2) < 1e-8


def test_critical_rate_useless_channel_is_zero():
    assert ex.critical_rate(bsc("1/2"), UNIF2) == 0.0


def _slope_at_full_tilt(ch, pmf):
    # closed-form derivative of the Gallager function at the right edge:
    # with A_y = sum_x P sqrt(W), F = sum_y A_y^2,
    # F' = sum_y A_y^2 ln A_y - (A_y / 2) sum_x P sqrt(W) ln W.
    w = ch.w
    p = np.asarray(pmf.probs)
    sq = np.sqrt(w)
    a = p @ sq
    sql = np.where(w > 0.0, sq * np.log(np.where(w > 0.0, w, 1.0)), 0.0)
    f = np.sum(a * a)
    fp = np.sum(a * a * np.log(a) - 0.5 * a * (p @ sql))
    return -fp / f


def test_critical_rate_below_capacity_and_matches_closed_form():
    for ch in (bsc("11/100"), asym23()):
        rcr = ex.critical_rate(ch, UNIF2)
        cap = ppc_moments(ch, UNIF2).mean
        assert 0.0 < rcr <= cap + 1e-12
        assert abs(rcr - _slope_at_full_tilt(ch, UNIF2)) < 1e-8


# ---------------------------------------------------------------------------
# quadratic bounds and the closed-form rate bound

def test_quadratic_bound_zero_at_capacity():
    ch = bsc("11/100")
    cap = ppc_moments(ch, UNIF2).mean
    assert ex.quadratic_exponent_bound(cap, ch, UNIF2) == 0.0
    assert ex.quadratic_exponent_bound(cap, ch, UNIF2, strong=True) == 0.0


@pytest.mark.parametrize("ch", [bsc("11/100"), asym23()])
def test_quadratic_bound_below_exponent_on_grid(ch):
    cap = ppc_moments(ch, UNIF2).mean
    rcr = ex.critical_rate(ch, UNIF2)
    ny = ch.output_size
    strong_lo = max(
        0.0, cap - (4.0 / math.e**2 + math.log(ny)**2 - rcr**2)
    )
    for rate in np.linspace(0.0, cap, 50):
        rate = float(rate)
        ep, _ = ex.error_exponent("PPC", rate, ch, UNIF2)
        assert ex.quadratic_exponent_bound(rate, ch, UNIF2) <= ep + 1e-9
        if rate >= strong_lo:
            strong = ex.quadratic_exponent_bound(rate, ch, UNIF2, strong=True)
            assert strong <= ep + 1e-9


def test_quadratic_strong_denominator_is_smaller():
    ch = bsc("11/100")
    cap = ppc_moments(ch, UNIF2).mean
    rate = 0.9 * cap
    weak = ex.quadratic_exponent_bound(rate, ch, UNIF2)
    strong = ex.quadratic_exponent_bound(rate, ch, UNIF2, strong=True)
    assert strong > weak  # smaller denominator, critical rate > 0


def test_quadratic_bound_validation():
    ch = bsc("11/100")
    cap = ppc_moments(ch, UNIF2).mean
    with pytest.raises(ValueError, match=r"\[0, C\]"):
        ex.quadratic_exponent_bound(cap + 0.1, ch, UNIF2)
    with pytest.raises(ValueError, match="rate"):
        ex.quadratic_exponent_bound(-0.01, ch, UNIF2)
    # the strong window excludes low rates on a clean channel
    with pytest.raises(ValueError, match="strong quadratic"):
        ex.quadratic_exponent_bound(0.05, noiseless(2), UNIF2, strong=True)


def test_exponent_rate_bound_examples():
    ch = bsc("11/100")
    cap = ppc_moments(ch, UNIF2).mean
    assert ex.exponent_rate_bound(100, 1.0, ch, UNIF2) == cap
    small = ex.exponent_rate_bound(100, 1e-6, ch, UNIF2)
    large = ex.exponent_rate_bound(10000, 1e-6, ch, UNIF2)
    assert small < large < cap
    assert 0.0 < large
    assert ex.exponent_rate_bound(1, 1e-12, ch, UNIF2) == 0.0  # clamped


def test_exponent_rate_bound_validation():
    ch = bsc("11/100")
    with pytest.raises(ValueError, match="positive integer"):
        ex.exponent_rate_bound(0, 0.5, ch, UNIF2)
    with pytest.raises(ValueError, match="epsilon"):
        ex.exponent_rate_bound(10, 0.0, ch, UNIF2)
    with pytest.raises(ValueError, match="epsilon"):
        ex.exponent_rate_bound(10, 1.5, ch, UNIF2)


def test_output_permutation_invariance():
    base = asym23()
    perm = DmcModel.from_rows([
        ["1/6", "1/2", "1/3"],
        ["1/2", "1/5", "3/10"],
    ])  # columns reordered
    assert abs(
        ex.e0("PPC", 0.7, base, UNIF2) - ex.e0("PPC", 0.7, perm, UNIF2)
    ) < 1e-12
    eb, _ = ex.error_exponent("PPC", 0.1, base, UNIF2)
    ep, _ = ex.error_exponent("PPC", 0.1, perm, UNIF2)
    assert abs(eb - ep) < 1e-12
    assert abs(
        ex.critical_rate(base, UNIF2) - ex.critical_rate(perm, UNIF2)
    ) < 1e-10


@settings(deadline=None, max_examples=25)
@given(
    st.lists(
        st.lists(st.integers(1, 9), min_size=2, max_size=3),
        min_size=2, max_size=3,
    ),
    st.floats(0.0, 0.6),
)
def test_exponent_properties_random_channels(raw, rate):
    rows = [[Fraction(v, sum(r)) for v in r] for r in raw if sum(r) > 0]
    if len({len(r) for r in rows}) != 1:
        return
    ch = DmcModel.from_rows(rows)
    pmf = InputPmf.uniform(ch.input_size)
    ep, rho = ex.error_exponent("PPC", rate, ch, pmf)
    assert ep >= 0.0 and 0.0 <= rho <= 1.0
    assert ep <= ex.e0("PPC", 1.0, ch, pmf) + 1e-12
    vals = e0_grid("PPC", ch, pmf, 21)
    d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.all(d2 <= 1e-9)


# ---------------------------------------------------------------------------
# pairwise weights

def test_bhattacharyya_bsc_identity_label():
    bv = ex.bhattacharyya(bsc("11/100"), binary_quantizer())
    assert bv.values[0] == 1.0
    assert abs(bv.values[1] - 2.0 * math.sqrt(0.11 * 0.89)) < 1e-12


def test_bhattacharyya_noiseless_label_is_zero():
    bv = ex.bhattacharyya(noiseless(2), binary_quantizer())
    assert bv.values[1] == 0.0


def test_bhattacharyya_adder_mac_hand_values():
    # deterministic adder: a joint flip of both users keeps y half the
    # time, a single-user flip always moves y
    qz = binary_quantizer()
    bv = ex.bhattacharyya(binary_adder_mac(), (qz, qz))
    # flat label index, user 1 most significant: (g1, g2) -> 2 g1 + g2
    assert bv.values[0] == 1.0
    assert abs(bv.values[3] - 0.5) < 1e-12
    assert bv.values[1] == 0.0
    assert bv.values[2] == 0.0
    assert np.all(bv.values >= 0.0) and np.all(bv.values <= 1.0)


def test_bhattacharyya_weight_products():
    bv = ex.bhattacharyya(bsc("11/100"), binary_quantizer())
    d1 = bv.values[1]
    assert bv.log_weight_product((4, 0)) == 0.0  # only the zero label
    assert abs(math.exp(bv.log_weight_product((2, 2))) - d1 * d1) < 1e-15
    zero = ex.bhattacharyya(noiseless(2), binary_quantizer())
    assert zero.log_weight_product((1, 3)) == -math.inf
    with pytest.raises(ValueError, match="length"):
        bv.log_weight_product((1, 1, 2))


def test_bhattacharyya_vector_validation():
    with pytest.raises(ValueError, match="zero difference"):
        ex.BhattacharyyaVector(q=2, num_users=1, values=[0.9, 0.3])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ex.BhattacharyyaVector(q=2, num_users=1, values=[1.0, 1.2])
    with pytest.raises(ValueError, match="one weight per"):
        ex.BhattacharyyaVector(q=2, num_users=2, values=[1.0, 0.5])


def test_bhattacharyya_validation():
    qz = binary_quantizer()
    qz3 = make_quantizer(make_field(3, 1), InputPmf.uniform(3))
    with pytest.raises(ValueError, match="share one field"):
        ex.bhattacharyya(binary_adder_mac(), (qz, qz3))
    tern = DmcModel.from_rows([["1/2", "1/2"], ["1/3", "2/3"], ["1/4", "3/4"]])
    with pytest.raises(ValueError, match="does not match input alphabet"):
        ex.bhattacharyya(tern, qz)
    with pytest.raises(ValueError, match="quantizers"):
        ex.bhattacharyya(binary_adder_mac(), (qz, qz, qz))


# ---------------------------------------------------------------------------
# K-user exponential bound

def test_kmac_empty_handled_set_is_pure_exponent_term():
    ch = bsc("1/20")
    qz = binary_quantizer()
    tab = uniform_spectrum_table(4, 2, 1, 4)
    rep = ex.kmac_exponent_bound(0.5, [], tab, 1.0, ch, qz)
    ep, _ = ex.error_exponent("PPC", 0.5 * LN2, ch, UNIF2)
    assert abs(rep.value - math.exp(-4.0 * ep)) < 1e-12
    assert rep.components["pairwise_term"] == 0.0
    assert rep.num_messages == 4


def test_kmac_alpha_shifts_effective_rate_exactly():
    ch = bsc("1/20")
    qz = binary_quantizer()
    tab = uniform_spectrum_table(4, 2, 1, 4)
    r1 = ex.kmac_exponent_bound(0.5, [], tab, 1.0, ch, qz)
    re_ = ex.kmac_exponent_bound(0.5, [], tab, math.e, ch, qz)
    assert abs(
        re_.components["effective_sum_rate_nats"]
        - r1.components["effective_sum_rate_nats"] - 0.25
    ) < 1e-12


def test_kmac_pairwise_term_manual():
    ch = bsc("1/20")
    qz = binary_quantizer()
    tab = uniform_spectrum_table(4, 2, 1, 4)
    bv = ex.bhattacharyya(ch, qz)
    rep = ex.kmac_exponent_bound(0.5, [(2, 2)], tab, 1.0, ch, qz)
    want = math.exp(tab.log_value((2, 2))) * bv.values[1] ** 2
    assert abs(rep.components["pairwise_term"] - want) < 1e-12
    assert rep.components["handled_types"] == 1.0


def test_kmac_full_handled_set_matches_binomial_sum():
    ch = bsc("1/20")
    qz = binary_quantizer()
    n, m = 4, 4
    tab = uniform_spectrum_table(n, 2, 1, m)
    t_all = [(n - w, w) for w in range(1, n + 1)]
    rep = ex.kmac_exponent_bound(0.5, t_all, tab, 1.0, ch, qz)
    d1 = ex.bhattacharyya(ch, qz).values[1]
    want = m * 2.0 ** (-n) * ((1.0 + d1) ** n - 1.0)
    assert abs(rep.components["pairwise_term"] - want) < 1e-12


def test_kmac_bound_dominates_coset_ensemble_truth():
    """Exhaustive generator-plus-shift ensemble at q=2, n=4, rate 1/2:
    the closed-form bound must sit above the exact ML ensemble error."""
    ch = bsc("1/20")
    qz = binary_quantizer()
    tab = uniform_spectrum_table(4, 2, 1, 4)
    rep = ex.kmac_exponent_bound(0.5, [], tab, 1.0, ch, qz)
    truth = oracles.coset_ensemble_error(ch, 4, 2)
    assert rep.value >= float(truth) - 1e-12
    iid = rcu_exact_ppc(ch, UNIF2, 4, 4)
    assert rep.value >= iid.value - 1e-12


def test_kmac_uniform_spectrum_reproduces_classical_gallager():
    # the uniform table's max ratio is exactly M/(M-1); the bound may
    # drift from the unpenalized exponent by at most that slack
    ch = bsc("1/20")
    qz = binary_quantizer()
    n, m = 8, 16
    tab = uniform_spectrum_table(n, 2, 1, m)
    la, _ = alpha_log(tab, m)
    assert abs(la - math.log(m / (m - 1.0))) < 1e-12
    with_pen = ex.kmac_exponent_bound(
        0.5, [], tab, math.exp(la), ch, qz
    )
    plain = ex.kmac_exponent_bound(0.5, [], tab, 1.0, ch, qz)
    gap = abs(
        with_pen.components["exponent_term_log_nats"]
        - plain.components["exponent_term_log_nats"]
    )
    assert gap <= la + 1e-12


def test_kmac_two_user_integration():
    qz = binary_quantizer()
    tab = uniform_spectrum_table(2, 2, 2, 2)
    rep = ex.kmac_exponent_bound(
        0.5, [], tab, 1.0, binary_adder_mac(), qz
    )
    assert 0.0 < rep.value <= 1.0
    assert rep.components["error_exponent_nats"] >= 0.0


def test_kmac_underflow_reports_log_only():
    ch = bsc("1/20")
    qz = binary_quantizer()
    n = 30000  # n * exponent far past where exp() underflows
    tab = uniform_spectrum_table(n, 2, 1, 2 ** (n // 2))
    rep = ex.kmac_exponent_bound(0.5, [], tab, 1.0, ch, qz)
    assert rep.value == 0.0
    assert rep.components["exponent_term_log_nats"] < -690.0


def test_kmac_validation():
    ch = bsc("1/20")
    qz = binary_quantizer()
    tab = uniform_spectrum_table(4, 2, 1, 4)
    with pytest.raises(ValueError, match="restrict the operational rate"):
        ex.kmac_exponent_bound(1 / 3, [], tab, 1.0, ch, qz)
    with pytest.raises(ValueError, match="alpha_mac"):
        ex.kmac_exponent_bound(0.5, [], tab, 0.0, ch, qz)
    with pytest.raises(ValueError, match="all-zero"):
        ex.kmac_exponent_bound(0.5, [(4, 0)], tab, 1.0, ch, qz)
    with pytest.raises(ValueError, match="not a length"):
        ex.kmac_exponent_bound(0.5, [(1, 2)], tab, 1.0, ch, qz)
    small = ldpc_spectrum_table(6, 2, 3, 2, 1, types=[(4, 2)])
    with pytest.raises(ValueError, match="does not cover"):
        ex.kmac_exponent_bound(0.5, [(3, 3)], small, 1.0, ch, qz)
    tab2 = uniform_spectrum_table(4, 2, 2, 4)
    with pytest.raises(ValueError, match="num_users=1"):
        ex.kmac_exponent_bound(0.5, [], tab2, 1.0, ch, qz)


# ---------------------------------------------------------------------------
# two-user exponential bound

def test_two_mac_inside_region_all_exponents_positive():
    am = binary_adder_mac()
    rep = ex.two_mac_exponent_bound(
        50, 0.1, 0.1, (1.0, 1.0), am, UNIF2, UNIF2
    )
    assert rep.components["exponent_user1_nats"] > 0.0
    assert rep.components["exponent_user2_nats"] > 0.0
    assert rep.components["exponent_pair_nats"] > 0.0
    assert 0.0 < rep.value < 1.0


def test_two_mac_term_saturates_at_conditional_mi():
    am = binary_adder_mac()
    r1 = float(mac_moments(am, UNIF2, UNIF2).means[0])
    rep = ex.two_mac_exponent_bound(
        50, r1, 0.05, (1.0, 1.0), am, UNIF2, UNIF2
    )
    assert abs(rep.components["term_user1"] - 1.0) < 1e-9


def test_two_mac_degenerate_user_reduces_to_ppc():
    # one-symbol second input: the channel is a plain BSC seen by user 1
    side = MacModel.from_rows([
        [["89/100", "11/100"]],
        [["11/100", "89/100"]],
    ])
    one = InputPmf.from_values(["1"])
    rep = ex.two_mac_exponent_bound(
        20, 0.2, 0.0, (1.0, 1.0), side, UNIF2, one
    )
    ep, _ = ex.error_exponent("PPC", 0.2, bsc("11/100"), UNIF2)
    assert abs(rep.value - math.exp(-20.0 * ep)) < 1e-12
    assert rep.components["active_user2"] == 0.0
    assert rep.components["active_pair"] == 0.0


def test_two_mac_validation():
    am = binary_adder_mac()
    with pytest.raises(ValueError, match="more than one message"):
        ex.two_mac_exponent_bound(10, 0.0, 0.0, (1.0, 1.0), am, UNIF2, UNIF2)
    with pytest.raises(ValueError, match="nonnegative"):
        ex.two_mac_exponent_bound(10, -0.1, 0.1, (1.0, 1.0), am, UNIF2, UNIF2)
    with pytest.raises(ValueError, match="two-user"):
        ex.two_mac_exponent_bound(10, 0.1, 0.1, (1.0, 1.0),
                                  bsc("1/20"), UNIF2, UNIF2)
    with pytest.raises(ValueError, match="positive"):
        ex.two_mac_exponent_bound(10, 0.1, 0.1, (0.0, 1.0), am, UNIF2, UNIF2)


def test_two_mac_penalties_pinned():
    # the pair term carries alpha_1 * alpha_2 = 3; any change to how the
    # three terms take their penalties moves these values
    rep = ex.two_mac_exponent_bound(10, 0.1, 0.15, (1.5, 2.0),
                                    binary_adder_mac(), UNIF2, UNIF2)
    assert rep.value == pytest.approx(0.014745037150319447, rel=1e-12)
    for label, want in (("user1", -5.5260066974912885),
                        ("user2", -4.738324625039508),
                        ("pair", -6.209680241449151)):
        assert rep.components[f"term_{label}_log_nats"] == pytest.approx(
            want, rel=1e-12)


def test_two_mac_reports_conditional_mutual_informations():
    am = binary_adder_mac()
    rep = ex.two_mac_exponent_bound(
        25, 0.1, 0.1, (1.0, 1.0), am, UNIF2, UNIF2
    )
    i1, i2, i12 = rep.components["conditional_mi_nats"]
    assert abs(i1 - LN2) < 1e-12 and abs(i2 - LN2) < 1e-12
    assert abs(i12 - (1.5 * LN2 - 0.0)) < 0.2  # adder sum capacity ~1.5 bits


# ---------------------------------------------------------------------------
# expurgated bound

def test_expurgated_rate_offset_decreases_toward_zero():
    """Fixed check-degree fraction: the reported offset must shrink like
    a constant over n along a doubling schedule."""
    ch = bsc("1/20")
    qz = binary_quantizer()
    offsets = []
    for n in (50, 100, 200, 400):
        rep = ex.expurgated_bound(n, 0.1, (3, n // 5), ch, qz)
        offsets.append(rep.components["delta_rate_nats"])
    assert all(a > b for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] < offsets[0] / 7.0
    assert offsets[-1] > 0.0


def test_expurgated_single_term_structure_and_rate_form():
    ch = bsc("1/20")
    qz = binary_quantizer()
    rep = ex.expurgated_bound(12, 0.1, (3, 6), ch, qz)
    assert "pairwise_term" not in rep.components
    assert rep.components["exponent_log_nats"] == -12.0 * rep.components[
        "error_exponent_nats"
    ]
    if rep.components["error_exponent_nats"] > 0.0:
        rf = rep.components["achievable_rate_nats_per_user"]
        cap = ppc_moments(ch, UNIF2).mean
        assert rf < cap


def test_expurgated_validation():
    ch = bsc("1/20")
    qz = binary_quantizer()
    with pytest.raises(ValueError, match="expurgation"):
        ex.expurgated_bound(12, 0.1, (2, 4), ch, qz)
    with pytest.raises(ValueError, match="sigma"):
        ex.expurgated_bound(12, 1.0, (3, 6), ch, qz)
    with pytest.raises(ValueError, match="sigma"):
        ex.expurgated_bound(12, 1.5, (3, 6), ch, qz)
    with pytest.raises(ValueError, match="multiple of"):
        ex.expurgated_bound(11, 0.1, (3, 6), ch, qz)
