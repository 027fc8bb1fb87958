import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblbound import GuardError, fbl
from fblbound.channel import (
    DmcModel,
    InputPmf,
    MacModel,
    bsc,
    induced_input_pmf,
    make_quantizer,
    noiseless,
)
from fblbound.fbl import (
    BoundReport,
    GaussianRegion,
    _keyed_rng,
    achievable_logM_ppc,
    ldpc_rcu_mac,
    ldpc_rcu_ppc,
    mac_region_check,
    q_fun,
    q_inv,
    qinv_membership,
    rcu_exact_ppc,
    rcu_mac,
    rcu_mc_ppc,
    rcu_relaxed_ppc,
    scaling_table,
)
from fblbound.gfq import make_field
from fblbound.infodensity import mac_moments, ppc_moments

import oracles
from helpers import binary_adder_mac, parallel_bsc_mac

LN2 = math.log(2.0)


def asym23() -> DmcModel:
    return DmcModel.from_rows([["1/2", "1/3", "1/6"], ["1/5", "3/10", "1/2"]])


# ---------------------------------------------------------------------------
# Gaussian tail helpers


def _qinv_bisect(eps: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_fun(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_q_fun_examples():
    assert q_fun(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_fun(1.959963984540054) == pytest.approx(0.025, abs=1e-12)
    assert q_fun(-math.inf) == 1.0 and q_fun(math.inf) == 0.0


def test_q_inv_matches_bisection():
    for eps in (1e-3, 1e-6, 0.3, 0.499):
        assert q_inv(eps) == pytest.approx(_qinv_bisect(eps), abs=1e-9)
    assert q_inv(1e-3) == pytest.approx(3.090232306168, abs=1e-9)


def test_q_inv_roundtrip_log_grid():
    for eps in np.logspace(-12, math.log10(0.5), 60):
        assert abs(q_fun(q_inv(float(eps))) - eps) < 1e-9


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            q_inv(bad)


# ---------------------------------------------------------------------------
# BoundReport contract


def test_bound_report_validation():
    with pytest.raises(ValueError, match="method"):
        BoundReport("x", 0.5, "probability", "guesswork", 4)
    with pytest.raises(ValueError, match="monte-carlo"):
        BoundReport("x", 0.5, "probability", "monte-carlo", 4)
    with pytest.raises(ValueError, match="monte-carlo"):
        BoundReport("x", 0.5, "probability", "exact-type-enum", 4,
                    ci_half_width=0.01)
    with pytest.raises(ValueError, match="outside"):
        BoundReport("x", 1.7, "probability", "closed-form", 4)
    r = BoundReport("x", 1.0 + 5e-10, "probability", "closed-form", 4)
    assert r.value == 1.0


# ---------------------------------------------------------------------------
# exact PPC bound


def test_rcu_exact_noiseless_single_use():
    r = rcu_exact_ppc(noiseless(2), InputPmf.uniform(2), 1, 2)
    assert r.value == pytest.approx(0.5, abs=1e-15)
    assert r.method == "exact-type-enum"


def test_rcu_exact_one_message_is_zero():
    assert rcu_exact_ppc(bsc(0.11), InputPmf.uniform(2), 5, 1).value == 0.0


def test_rcu_exact_bsc_single_use_three_messages():
    # hand value: P[tie-or-better] is 1/2 when the flip did not happen and 1
    # when it did, so the error is 0.89 * (1 - 1/4) + 0.11 = 0.7775
    r = rcu_exact_ppc(bsc(0.11), InputPmf.uniform(2), 1, 3)
    assert r.value == pytest.approx(0.7775, abs=1e-14)
    assert r.components["union_bound"] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 2), (3, 4), (4, 3)])
def test_rcu_exact_matches_factorized_oracle_bsc(n, m):
    pmf = InputPmf.uniform(2)
    want = float(oracles.ensemble_error_factorized(bsc(0.11), pmf, n, m))
    got = rcu_exact_ppc(bsc(0.11), pmf, n, m).value
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 4), (3, 3)])
def test_rcu_exact_matches_factorized_oracle_asym(n, m):
    pmf = InputPmf.uniform(2)
    want = float(oracles.ensemble_error_factorized(asym23(), pmf, n, m))
    got = rcu_exact_ppc(asym23(), pmf, n, m).value
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (2, 4)])
def test_oracle_factorization_equals_codebook_enumeration(n, m):
    # validates the fast oracle against literal all-codebook enumeration
    pmf = InputPmf.uniform(2)
    for ch in (bsc(0.11), asym23()):
        full = oracles.ensemble_error_codebooks(ch, pmf, n, m)
        fact = oracles.ensemble_error_factorized(ch, pmf, n, m)
        assert full == fact


def test_rcu_exact_nonuniform_pmf_matches_oracle():
    pmf = InputPmf.from_values(["1/4", "3/4"])
    want = float(oracles.ensemble_error_factorized(asym23(), pmf, 2, 3))
    got = rcu_exact_ppc(asym23(), pmf, 2, 3).value
    assert got == pytest.approx(want, abs=1e-12)


def test_rcu_exact_float_channel_agrees_with_exact_path():
    # a float table and the rational BSC(11/100) run the same log-domain
    # tail keys; only the parsed entries differ, by rounding
    w = np.array([[0.89, 0.11], [0.11, 0.89]])
    got_float = rcu_exact_ppc(DmcModel(w), InputPmf(np.array([0.5, 0.5])), 4, 3)
    got_exact = rcu_exact_ppc(bsc(0.11), InputPmf.uniform(2), 4, 3)
    assert got_float.value == pytest.approx(got_exact.value, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-math.inf, -1.0, 0.0, 2.5]),
                          st.integers(0, 8),
                          st.floats(0.01, 1.0)), min_size=1, max_size=30))
def test_merge_close_matches_list_rule(draws):
    # offsets in steps of 0.4e-12 build chains of close keys wider than the
    # tolerance, which split at their group's first key
    items = sorted(((b + 0.4e-12 * k if math.isfinite(b) else b, p)
                    for b, k, p in draws), key=lambda kp: kp[0])
    keys, probs = fbl._merge_close(np.array([k for k, _ in items]),
                                   np.array([p for _, p in items]))
    want = oracles.merge_close(items)
    assert keys.tolist() == [k for k, _ in want]
    assert probs.tolist() == pytest.approx([p for _, p in want], rel=1e-15)


def test_tail_tables_pool_equal_laws_only():
    # cells 0 and 2 share a law (listed in another order); cell 1 has the
    # same keys with other probabilities, so it is a class of its own
    atoms = [[(0.0, 0.25), (math.log(3.0), 0.75)],
             [(0.0, 0.75), (math.log(3.0), 0.25)],
             [(math.log(3.0), 0.75), (0.0, 0.25)],
             [(-math.inf, 0.5), (math.log(2.0), 0.5)]]
    system = fbl._TailSystem(atoms)
    assert system.classes == [0, 1, 0, 2]
    ref = oracles.DictTails(atoms)
    for counts in ((2, 1, 1, 0), (0, 3, 0, 2), (1, 0, 3, 1), (4, 4, 0, 0)):
        keys, _probs, suffix = system.build(
            np.bincount(system.classes, weights=counts).astype(int))
        want_keys, want_suffix = ref.table(counts)
        assert keys.tolist() == pytest.approx(want_keys, rel=1e-15)
        assert suffix.tolist() == pytest.approx(want_suffix, rel=1e-14)


def eight_output() -> DmcModel:
    # eight outputs with eight different competitor laws
    return DmcModel.from_rows([[f"{k}/36" for k in range(1, 9)],
                               [f"{k}/36"
                                for k in (3, 1, 4, 1, 5, 9, 2, 11)]])


def generic35() -> DmcModel:
    # 15 distinct information-density atoms under the uniform input
    return DmcModel.from_rows([["1/2", "1/4", "1/8", "1/16", "1/16"],
                               ["1/10", "2/10", "3/10", "3/10", "1/10"],
                               ["1/7", "1/7", "1/7", "1/7", "3/7"]])


def test_rcu_exact_lattice_guard():
    # C(47, 7) = 62,891,499 output types at n = 40
    with pytest.raises(GuardError, match="y-type lattice has 62891499 .*"
                                         "rcu_mc_ppc"):
        rcu_exact_ppc(eight_output(), InputPmf.uniform(2), 40, 2)


def test_rcu_exact_table_guard():
    # 4,845 output types, but tables that may build C(30, 14) =
    # 145,422,675 keys before merging
    with pytest.raises(GuardError, match="competitor-table lattice has "
                                         "145422675 .*rcu_mc_ppc"):
        rcu_exact_ppc(generic35(), InputPmf.uniform(3), 16, 2)


def test_relaxed_information_density_guard():
    # 15 distinct atoms: the law of i(X^n; Y^n) may hold C(24, 14) keys
    with pytest.raises(GuardError, match="information-density lattice has "
                                         "1961256"):
        rcu_relaxed_ppc(generic35(), InputPmf.uniform(3), 10, 2)
    # the BSC's law has n + 1 keys, so n = 2000 runs
    r = rcu_relaxed_ppc(bsc("11/100"), InputPmf.uniform(2), 2000, 2 ** 400)
    assert 0.0 < r.value < 1e-20


def test_rcu_exact_refuses_underflowed_tables():
    # noiseless(2), n = 1100: a competitor copies the sent word with
    # probability 2^-1100, which underflows, so the sent-word law would
    # lose its mass and the bound would read 0
    with pytest.raises(ValueError, match="underflowed"):
        rcu_exact_ppc(noiseless(2), InputPmf.uniform(2), 1100, 2)
    assert rcu_exact_ppc(noiseless(2), InputPmf.uniform(2), 1000,
                         2).value == pytest.approx(2.0 ** -1000, rel=1e-12)


def test_mc_routes_refuse_underflowed_tails():
    # the same underflow read through a competitor tail: a tail of 0 would
    # count as no error, and both bounds read 0 at n = 1100
    u = InputPmf.uniform(2)
    with pytest.raises(ValueError, match="underflowed at n=1100"):
        rcu_mc_ppc(noiseless(2), u, 1100, 2, trials=1000, seed=0)
    with pytest.raises(ValueError, match="underflowed at n=1100"):
        rcu_mac(binary_adder_mac(), u, u, 1100, 2, 2, mode="mc",
                trials=1000, seed=0)
    r = rcu_mc_ppc(noiseless(2), u, 1000, 2, trials=1000, seed=0)
    assert r.value == pytest.approx(2.0 ** -1000, rel=1e-12)
    # the joint event's tail is about 2^-1.5n, so n = 600 still reads
    r = rcu_mac(binary_adder_mac(), u, u, 600, 2, 2, mode="mc",
                trials=1000, seed=0)
    assert 0.0 < r.value < 1e-170


def test_huge_message_counts_saturate():
    # M - 1 is taken in the log domain: M = 2**1100 has no float, and at
    # 2**1023 the exponent (M-1) ln(1-p) overflowed with a RuntimeWarning
    u = InputPmf.uniform(2)
    for m in (2 ** 1100, 2 ** 1023):
        for r in (rcu_exact_ppc(bsc("11/100"), u, 40, m),
                  rcu_mc_ppc(bsc("11/100"), u, 40, m, trials=1000)):
            assert r.value == pytest.approx(1.0, abs=1e-12)
            assert r.components["union_bound"] == pytest.approx(1.0,
                                                                abs=1e-12)
        for mode in ("exact", "mc"):
            r = rcu_mac(binary_adder_mac(), u, u, 4, m, 2, mode=mode,
                        trials=1000)
            assert r.value == pytest.approx(1.0, abs=1e-12)


def test_saturated_exact_bound_reads_exactly_one():
    # the y-type law's weights are divided by their sum, which rounding
    # left 9.4e-15 short of 1
    r = rcu_exact_ppc(bsc("11/100"), InputPmf.uniform(2), 40, 2 ** 1100)
    assert r.value == 1.0
    assert r.components["union_bound"] == 1.0


# 13 channels x 3 input pmfs against the joint-type oracle: tie-heavy
# noiseless, erasure, Z and useless channels, symmetric and asymmetric
# ones, rational and float entries
ORACLE_DMCS = {
    "noiseless2": noiseless(2),
    "noiseless3": noiseless(3),
    "bec": DmcModel.from_rows([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]]),
    "bec-float": DmcModel(np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])),
    "z": DmcModel.from_rows([["1", "0"], ["1/4", "3/4"]]),
    "tsc": DmcModel.from_rows([["4/5", "1/10", "1/10"],
                               ["1/10", "4/5", "1/10"],
                               ["1/10", "1/10", "4/5"]]),
    "bsc": bsc("11/100"),
    "bsc-float": DmcModel(np.array([[0.89, 0.11], [0.11, 0.89]])),
    "asym23": asym23(),
    "useless": DmcModel.from_rows([["1/3", "2/3"], ["1/3", "2/3"]]),
    "qsc": DmcModel.from_rows([["7/10", "1/10", "1/10", "1/10"],
                               ["1/10", "7/10", "1/10", "1/10"],
                               ["1/10", "1/10", "7/10", "1/10"],
                               ["1/10", "1/10", "1/10", "7/10"]]),
    "ternary-to-binary": DmcModel.from_rows([["9/10", "1/10"],
                                             ["1/2", "1/2"],
                                             ["1/5", "4/5"]]),
    "float23": DmcModel(np.array([[0.6, 0.3, 0.1], [0.15, 0.25, 0.6]])),
}
ORACLE_PMFS = {
    2: ([0.5, 0.5], [0.25, 0.75], [0.9, 0.1]),
    3: ([1 / 3] * 3, [0.5, 1 / 3, 1 / 6], [0.5, 0.5, 0.0]),
    4: ([0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.5, 0.0, 0.5, 0.0]),
}


def _oracle_cases():
    for name, ch in ORACLE_DMCS.items():
        for k, probs in enumerate(ORACLE_PMFS[ch.input_size]):
            yield pytest.param(ch, InputPmf(np.array(probs)), id=f"{name}-{k}")


def _oracle_n(ch, pmf) -> int:
    # the largest n <= 24 whose joint-type lattice the oracle walks quickly
    cells = int(np.count_nonzero(pmf.probs[:, None] * ch.w > 0))
    return max(n for n in range(1, 25)
               if math.comb(n + cells - 1, cells - 1) <= 2000)


def _rel_close(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(abs(got), abs(want))


@pytest.mark.parametrize("ch,pmf", list(_oracle_cases()))
def test_ppc_routes_match_joint_type_oracle(ch, pmf):
    n = _oracle_n(ch, pmf)
    m = 2 ** max(1, n // 4)
    exact = rcu_exact_ppc(ch, pmf, n, m)
    value, union = oracles.rcu_ppc_joint_types(ch.w, pmf.probs, n, m)
    assert _rel_close(exact.value, value)
    assert _rel_close(exact.components["union_bound"], union)
    moments = ppc_moments(ch, pmf)
    if moments.tail_prefactor is None:
        return
    log_scale = (math.log(m) + math.log(moments.tail_prefactor)
                 - 0.5 * math.log(n))
    want = oracles.relaxed_ppc_joint_types(ch.w, pmf.probs, n, log_scale)
    assert _rel_close(rcu_relaxed_ppc(ch, pmf, n, m).value, want)
    rep = achievable_logM_ppc(ch, pmf, n, 0.1, strict_window=False)
    if rep.components["path"] == "exact-search":
        assert rep.num_messages == oracles.exact_search_joint_types(
            ch.w, pmf.probs, n, 0.1)


def test_rcu_exact_matches_two_binomial_closed_form():
    for delta, ch in (("11/100", bsc("11/100")),
                      (0.11, DmcModel(np.array([[0.89, 0.11],
                                                [0.11, 0.89]])))):
        for n in (32, 64, 96):
            m = 2 ** (n // 4)
            r = rcu_exact_ppc(ch, InputPmf.uniform(2), n, m)
            value, union = oracles.bsc_rcu_two_binomial(delta, n, m)
            assert _rel_close(r.value, value)
            assert _rel_close(r.components["union_bound"], union)


def test_rcu_mc_matches_dict_table_oracle():
    # the oracle draws the same Philox stream and folds each word into
    # per-cell counts itself
    for ch, pmf in ((bsc("11/100"), InputPmf.uniform(2)),
                    (ORACLE_DMCS["bec"], InputPmf.uniform(2)),
                    (ORACLE_DMCS["tsc"], InputPmf.from_values(
                        ["1/2", "1/3", "1/6"]))):
        r = rcu_mc_ppc(ch, pmf, 16, 64, trials=2000, seed=9)
        value, union = oracles.rcu_mc_ppc_dict_tables(ch.w, pmf.probs, 16,
                                                       64, 2000, 9)
        assert _rel_close(r.value, value)
        assert _rel_close(r.components["union_bound"], union)


def test_rcu_mac_matches_dict_table_oracle():
    u = InputPmf.uniform(2)
    skew = InputPmf.from_values(["1/4", "3/4"])
    for mac, p1, p2, n, m1, m2 in (
            (binary_adder_mac(), u, u, 8, 4, 4),
            (binary_adder_mac(), skew, u, 6, 3, 2),
            (parallel_bsc_mac("1/10", "1/4"), u, skew, 3, 4, 2)):
        want = oracles.rcu_mac_joint_types(mac.w, p1.probs, p2.probs, n,
                                           m1, m2)
        assert _rel_close(rcu_mac(mac, p1, p2, n, m1, m2).value, want)


def test_rcu_exact_rejects_bad_args():
    with pytest.raises(ValueError):
        rcu_exact_ppc(bsc(0.11), InputPmf.uniform(2), 0, 2)
    with pytest.raises(ValueError):
        rcu_exact_ppc(bsc(0.11), InputPmf.uniform(2), 4, 0)


@st.composite
def exact_dmcs(draw):
    sx = draw(st.integers(2, 3))
    sy = draw(st.integers(2, 3))
    rows = []
    for _ in range(sx):
        weights = draw(
            st.lists(st.integers(0, 4), min_size=sy, max_size=sy)
            .filter(lambda v: sum(v) > 0)
        )
        tot = sum(weights)
        rows.append([Fraction(a, tot) for a in weights])
    return DmcModel.from_rows(rows)


@settings(max_examples=30, deadline=None)
@given(ch=exact_dmcs(), n=st.integers(1, 3), m=st.integers(2, 5))
def test_exact_below_union_below_relaxed(ch, n, m):
    pmf = InputPmf.uniform(ch.input_size)
    r = rcu_exact_ppc(ch, pmf, n, m)
    assert r.value <= r.components["union_bound"] + 1e-12
    if ppc_moments(ch, pmf).tail_prefactor is not None:
        relaxed = rcu_relaxed_ppc(ch, pmf, n, m).value
        assert r.components["union_bound"] <= relaxed + 1e-12


@settings(max_examples=25, deadline=None)
@given(ch=exact_dmcs(), n=st.integers(1, 2), m=st.integers(1, 6))
def test_exact_monotone_in_messages(ch, n, m):
    pmf = InputPmf.uniform(ch.input_size)
    lo = rcu_exact_ppc(ch, pmf, n, m).value
    hi = rcu_exact_ppc(ch, pmf, n, m + 1).value
    assert lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo PPC bound


def test_rcu_mc_agrees_with_exact():
    pmf = InputPmf.uniform(2)
    bec = DmcModel.from_rows([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
    for ch in (bsc(0.11), bec):
        exact = rcu_exact_ppc(ch, pmf, 8, 16).value
        mc = rcu_mc_ppc(ch, pmf, 8, 16, trials=20_000, seed=3)
        assert abs(mc.value - exact) <= 3 * mc.ci_half_width
        assert mc.trials == 20_000


def test_rcu_mc_reproducible():
    pmf = InputPmf.uniform(2)
    a = rcu_mc_ppc(bsc(0.11), pmf, 6, 8, trials=2000, seed=11)
    b = rcu_mc_ppc(bsc(0.11), pmf, 6, 8, trials=2000, seed=11)
    assert a.value == b.value and a.ci_half_width == b.ci_half_width
    c = rcu_mc_ppc(bsc(0.11), pmf, 6, 8, trials=2000, seed=12)
    assert c.value != a.value


def test_rcu_mc_streams_pinned():
    # values recorded from the chunked Philox streams; any change to the
    # draw order or to the per-sample arithmetic moves them
    u = InputPmf.uniform(2)
    r = rcu_mc_ppc(bsc("11/100"), u, 16, 64, trials=3000, seed=3)
    assert r.value == pytest.approx(0.2054854228528021, rel=1e-12)
    assert r.components["union_bound"] == pytest.approx(
        0.24410570780436197, rel=1e-12)
    r = rcu_mac(binary_adder_mac(), u, u, 8, 4, 4, mode="mc", trials=2000,
                seed=5)
    assert r.value == pytest.approx(0.026915565490722656, rel=1e-12)
    r = rcu_mac(parallel_bsc_mac("1/10", "1/4"), u, u, 24, 4, 2, mode="mc",
                trials=1000, seed=7)
    assert r.value == pytest.approx(0.04816888815161117, rel=1e-12)
    assert r.components["relaxed"] == pytest.approx(0.29197092624055737,
                                                    rel=1e-12)


def _same_state(got, want):
    """Bit-generator states equal entry by entry, arrays by dtype and
    value."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same_state(got[k], want[k]) for k in want)
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and np.array_equal(got, want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("key", [(0, 0), (5, 7), (123456789, 42),
                                 (2 ** 63 - 1, 2 ** 63 - 1)])
def test_keyed_rng_is_numpys_philox_key(key):
    # the keyed seed object gives Philox(key=...)'s state and streams
    got, want = _keyed_rng(*key), np.random.Generator(np.random.Philox(key=key))
    assert _same_state(got.bit_generator.state, want.bit_generator.state)
    assert np.array_equal(got.integers(0, 2 ** 40, 1000),
                          want.integers(0, 2 ** 40, 1000))
    assert np.array_equal(got.random(1000), want.random(1000))
    assert np.array_equal(got.permutation(1000), want.permutation(1000))
    assert _same_state(got.bit_generator.state, want.bit_generator.state)
    seed = _keyed_rng(*key).bit_generator.seed_seq
    with pytest.raises(ValueError, match="2 uint64 words"):
        seed.generate_state(4, np.uint64)
    with pytest.raises(ValueError, match="2 uint64 words"):
        seed.generate_state(2, np.uint32)


def test_keyed_rng_rejects_keys_numpy_would_fold():
    # numpy's Philox gives keys 2**63 and 2**63 + 1 one stream, warns at
    # 2**64 - 1 and overflows at 2**64; every seeded routine refuses them
    for bad in (-1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            _keyed_rng(bad)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            _keyed_rng(0, bad)
    u = InputPmf.uniform(2)
    for draw in (lambda: rcu_mc_ppc(bsc(0.11), u, 8, 4, trials=1000,
                                    seed=-1),
                 lambda: rcu_mac(binary_adder_mac(), u, u, 4, 2, 2,
                                 mode="mc", trials=1000, seed=2 ** 64),
                 lambda: qinv_membership(GaussianRegion(np.eye(1), 0.1),
                                         [1.0], trials=10, seed=-1)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            draw()


def test_pmf_size_mismatch_rejected():
    u3 = InputPmf.uniform(3)
    for bound in (lambda: rcu_exact_ppc(bsc(0.11), u3, 4, 2),
                  lambda: rcu_mc_ppc(bsc(0.11), u3, 4, 2, trials=1000),
                  lambda: rcu_relaxed_ppc(bsc(0.11), u3, 4, 2),
                  lambda: rcu_mac(binary_adder_mac(), InputPmf.uniform(2),
                                  u3, 2, 2, 2)):
        with pytest.raises(ValueError, match="not match"):
            bound()


def test_rcu_mc_saturates_at_huge_m():
    mc = rcu_mc_ppc(bsc(0.11), InputPmf.uniform(2), 4, 10**9, trials=1000)
    assert mc.value >= 0.999


def test_rcu_mc_requires_enough_trials():
    with pytest.raises(ValueError, match="trials"):
        rcu_mc_ppc(bsc(0.11), InputPmf.uniform(2), 4, 2, trials=10)


# ---------------------------------------------------------------------------
# relaxed PPC bound


def test_relaxed_zero_and_degenerate():
    assert rcu_relaxed_ppc(bsc(0.11), InputPmf.uniform(2), 4, 0).value == 0.0
    with pytest.raises(ValueError, match="variance"):
        rcu_relaxed_ppc(noiseless(2), InputPmf.uniform(2), 4, 2)


def test_relaxed_closed_form_single_type():
    # n = 1, every term clipped at 1 when M A / sqrt(n) >= e^i on all cells
    pmf = InputPmf.uniform(2)
    mo = ppc_moments(bsc(0.11), pmf)
    r = rcu_relaxed_ppc(bsc(0.11), pmf, 1, 4)
    # direct two-cell evaluation
    want = 0.0
    for i_val, p in ((math.log(2 * 0.89), 0.89), (math.log(2 * 0.11), 0.11)):
        want += p * min(1.0, 4 * mo.tail_prefactor * math.exp(-i_val))
    assert r.value == pytest.approx(want, abs=1e-14)


def test_relaxed_decreases_with_blocklength_at_fixed_rate():
    pmf = InputPmf.uniform(2)
    vals = []
    for n in (10, 20, 40):
        m = 2 ** max(1, n // 10)
        vals.append(rcu_relaxed_ppc(bsc(0.11), pmf, n, m).value)
    assert vals[2] < vals[0]


# ---------------------------------------------------------------------------
# achievable log M


def test_achievable_window_error_names_window():
    with pytest.raises(ValueError, match="validity window"):
        achievable_logM_ppc(bsc(0.11), InputPmf.uniform(2), 12, 0.1)


def test_achievable_exact_search_keeps_error_below_target():
    pmf = InputPmf.uniform(2)
    for n in (8, 12, 16):
        for eps in (0.1, 0.05):
            rep = achievable_logM_ppc(bsc(0.11), pmf, n, eps,
                                      strict_window=False)
            assert rep.components["path"] == "exact-search"
            err = rcu_exact_ppc(bsc(0.11), pmf, n, rep.num_messages).value
            assert err < eps
            # maximality: one more message pushes past the target
            bigger = rcu_exact_ppc(bsc(0.11), pmf, n,
                                   rep.num_messages + 1).value
            assert bigger >= eps


def test_achievable_exact_search_doubles_until_the_target():
    # the doubling used to stop at 2^201, where 2M still erred at 3.0e-23
    pmf = InputPmf.uniform(2)
    ch = bsc("1/1000")
    rep = achievable_logM_ppc(ch, pmf, 300, 0.05, strict_window=False)
    assert rep.components["path"] == "exact-search"
    m = rep.num_messages
    assert m.bit_length() > 202
    assert rcu_exact_ppc(ch, pmf, 300, m).value < 0.05
    assert rcu_exact_ppc(ch, pmf, 300, m + 1).value >= 0.05


def test_achievable_num_messages_past_the_float_range():
    # ln M is 10,098.7 nats; num_messages used to be capped at e^700
    rep = achievable_logM_ppc(bsc("11/100"), InputPmf.uniform(2), 30000,
                              0.05)
    assert rep.components["path"] == "proof-constant"
    assert math.log(rep.num_messages) == pytest.approx(rep.value, rel=1e-9)


def test_achievable_proof_constant_path():
    pmf = InputPmf.uniform(2)
    rep = achievable_logM_ppc(bsc(0.11), pmf, 8000, 0.1)
    assert rep.components["path"] == "proof-constant"
    mo = ppc_moments(bsc(0.11), pmf)
    rate = rep.components["rate_per_symbol"]
    assert rate < mo.mean
    assert rate == pytest.approx(mo.mean, abs=0.05)
    # bits conversion
    rep_b = achievable_logM_ppc(bsc(0.11), pmf, 8000, 0.1, units="bits")
    assert rep_b.value == pytest.approx(rep.value / LN2, rel=1e-12)


def test_achievable_rate_grows_with_epsilon():
    pmf = InputPmf.uniform(2)
    lo = achievable_logM_ppc(bsc(0.11), pmf, 16, 0.05,
                             strict_window=False).value
    hi = achievable_logM_ppc(bsc(0.11), pmf, 16, 0.2,
                             strict_window=False).value
    assert lo <= hi


def test_achievable_input_validation():
    pmf = InputPmf.uniform(2)
    with pytest.raises(ValueError):
        achievable_logM_ppc(bsc(0.11), pmf, 16, 0.0)
    with pytest.raises(ValueError, match="units"):
        achievable_logM_ppc(bsc(0.11), pmf, 16, 0.1, units="dits")
    with pytest.raises(ValueError, match="variance"):
        achievable_logM_ppc(noiseless(2), pmf, 16, 0.1)


# ---------------------------------------------------------------------------
# Gaussian region membership


def test_gaussian_region_validation():
    with pytest.raises(ValueError, match="square"):
        GaussianRegion(np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError, match="symmetric"):
        GaussianRegion(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1)
    with pytest.raises(ValueError, match="semidefinite"):
        GaussianRegion(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        GaussianRegion(np.eye(2), 1.5)


def test_membership_scalar_clear_cases():
    region = GaussianRegion(np.array([[1.0]]), 0.1)
    res = qinv_membership(region, [4.0], trials=50_000, seed=0)
    assert res.member and not res.indeterminate
    res = qinv_membership(region, [0.0], trials=50_000, seed=0)
    assert not res.member and not res.indeterminate


def test_membership_boundary_matches_qinv():
    # at z = sigma * Qinv(eps) the acceptance probability is exactly 1-eps
    eps = 0.1
    sigma = 2.0
    region = GaussianRegion(np.array([[sigma**2]]), eps)
    res = qinv_membership(region, [sigma * q_inv(eps)], trials=10**5, seed=1)
    assert abs(res.prob_estimate - (1 - eps)) <= 3 * res.ci_half_width


def test_membership_diagonal_factorizes():
    region = GaussianRegion(np.diag([4.0, 9.0]), 0.5)
    res = qinv_membership(region, [0.0, 0.0], trials=10**5, seed=2)
    assert res.prob_estimate == pytest.approx(0.25, abs=0.01)
    assert not res.member
    region = GaussianRegion(np.diag([4.0, 9.0]), 0.8)
    res = qinv_membership(region, [0.0, 0.0], trials=10**5, seed=2)
    assert res.member


def test_membership_rank_zero_covariance():
    region = GaussianRegion(np.zeros((2, 2)), 0.25)
    assert qinv_membership(region, [0.0, 0.0], trials=1000).member
    res = qinv_membership(region, [-1.0, 0.0], trials=1000)
    assert not res.member and not res.indeterminate


def test_membership_reproducible_and_validated():
    region = GaussianRegion(np.eye(1), 0.3)
    a = qinv_membership(region, [0.5], trials=5000, seed=9)
    b = qinv_membership(region, [0.5], trials=5000, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        qinv_membership(region, [0.5, 0.5], trials=1000)
    with pytest.raises(ValueError):
        qinv_membership(region, [0.5], trials=0)


# ---------------------------------------------------------------------------
# MAC bounds


def test_rcu_mac_adder_single_use_hand_value():
    # each single-user competitor ties with probability 1/2, so the clamped
    # sum hits 1 on every type
    mac = binary_adder_mac()
    u = InputPmf.uniform(2)
    r = rcu_mac(mac, u, u, 1, 2, 2)
    assert r.value == pytest.approx(1.0, abs=1e-14)
    assert r.num_messages == (2, 2)


def test_rcu_mac_dominates_true_ensemble_error():
    mac = binary_adder_mac()
    u = InputPmf.uniform(2)
    truth = float(oracles.mac_ensemble_error_codebooks(mac, u, u, 1, 2, 2))
    bound = rcu_mac(mac, u, u, 1, 2, 2).value
    assert truth <= bound + 1e-12
    mac2 = parallel_bsc_mac("1/10", "1/4")
    truth2 = float(oracles.mac_ensemble_error_codebooks(mac2, u, u, 1, 2, 2))
    bound2 = rcu_mac(mac2, u, u, 1, 2, 2).value
    assert truth2 <= bound2 + 1e-12
    # noiseless adder: every competitor pair with the same sum ties exactly
    for m1, m2 in ((2, 2), (3, 2)):
        truth = float(oracles.mac_ensemble_error_codebooks(mac, u, u, 2,
                                                           m1, m2))
        assert truth <= rcu_mac(mac, u, u, 2, m1, m2).value + 1e-12


def test_rcu_mac_degenerate_user_reduces_to_ppc_union():
    # channel ignores user 2 and M2 = 1: the MAC bound must equal the
    # point-to-point union bound on the side-information channel
    # W'(x2, y | x1) = P2(x2) W(y | x1)
    a = Fraction(11, 100)
    rows = []
    for x1 in (0, 1):
        per = []
        for _x2 in (0, 1):
            flip = [1 - a, a] if x1 == 0 else [a, 1 - a]
            per.append(flip)
        rows.append(per)
    mac = MacModel.from_rows(rows)
    u = InputPmf.uniform(2)
    side_rows = []
    for x1 in (0, 1):
        flip = [1 - a, a] if x1 == 0 else [a, 1 - a]
        # output alphabet is (x2, y) pairs: probabilities P2(x2) W(y|x1)
        side_rows.append([Fraction(1, 2) * flip[y]
                          for _x2 in (0, 1) for y in (0, 1)])
    side = DmcModel.from_rows(side_rows)
    for n, m1 in ((2, 2), (3, 4)):
        got = rcu_mac(mac, u, u, n, m1, 1).value
        want = rcu_exact_ppc(side, u, n, m1).components["union_bound"]
        assert got == pytest.approx(want, abs=1e-12)


def test_rcu_mac_relaxed_dominates_exact():
    mac = parallel_bsc_mac("1/10", "1/4")
    u = InputPmf.uniform(2)
    r = rcu_mac(mac, u, u, 3, 3, 2)
    assert r.components["relaxed_available"]
    assert r.value <= r.components["relaxed"] + 1e-12


def _mac_oracle_n(mac, p1, p2) -> int:
    # the largest n <= 12 whose joint-type lattice the relaxed oracle walks
    # in about a second; at the n of 2,000 types the 16-cell MACs' sums
    # are still 1.0 once two events are active
    cells = int(np.count_nonzero(
        np.multiply.outer(p1.probs, p2.probs)[..., None] * mac.w > 0))
    return max(n for n in range(1, 13)
               if math.comb(n + cells - 1, cells - 1) <= 20_000)


def _mac_log_scales(mac, p1, p2, n, log_ms):
    # ln M_e + ln A_e - (ln n)/2 per event; None marks an inactive event
    prefs = mac_moments(mac, p1, p2).tail_prefactors
    return [None if lm is None else lm + math.log(a) - 0.5 * math.log(n)
            for lm, a in zip(log_ms, prefs)]


def xor_mac() -> MacModel:
    return MacModel.from_rows([[["99/100", "1/100"], ["1/100", "99/100"]],
                               [["1/100", "99/100"], ["99/100", "1/100"]]])


SKEW = InputPmf.from_values(["1/4", "3/4"])


# the adder's user-2 variance vanishes under these pmfs, so it runs with
# M2 = 1, which leaves only the user-1 event active
@pytest.mark.parametrize("mac,p1,p2,m1,m2", [
    pytest.param(binary_adder_mac(), SKEW, InputPmf.uniform(2), 8, 1,
                 id="adder-skew-uniform"),
    pytest.param(parallel_bsc_mac("1/10", "1/4"), InputPmf.uniform(2),
                 InputPmf.uniform(2), 2, 2, id="pbsc-uniform"),
    pytest.param(parallel_bsc_mac("1/10", "1/4"), InputPmf.uniform(2),
                 SKEW, 2, 2, id="pbsc-uniform-skew"),
    pytest.param(xor_mac(), InputPmf.uniform(2), InputPmf.uniform(2), 4, 2,
                 id="xor"),
])
def test_rcu_mac_relaxed_matches_joint_type_oracle(mac, p1, p2, m1, m2):
    n = _mac_oracle_n(mac, p1, p2)
    log_ms = [math.log(m1) if m1 > 1 else None,
              math.log(m2) if m2 > 1 else None,
              math.log(m1 * m2) if m1 > 1 and m2 > 1 else None]
    want = oracles.relaxed_mac_joint_types(
        mac.w, p1.probs, p2.probs, n, _mac_log_scales(mac, p1, p2, n, log_ms))
    r = rcu_mac(mac, p1, p2, n, m1, m2)
    assert r.components["relaxed_available"]
    assert want < 1.0
    assert _rel_close(r.components["relaxed"], want)


def test_rcu_mac_adder_relaxed_unavailable():
    # conditional single-user variances vanish for the noiseless adder
    r = rcu_mac(binary_adder_mac(), InputPmf.uniform(2),
                InputPmf.uniform(2), 2, 2, 2)
    assert not r.components["relaxed_available"]
    assert math.isnan(r.components["relaxed"])


def test_rcu_mac_mc_agrees_with_exact():
    mac = parallel_bsc_mac("1/10", "1/4")
    u = InputPmf.uniform(2)
    exact = rcu_mac(mac, u, u, 3, 4, 4).value
    mc = rcu_mac(mac, u, u, 3, 4, 4, mode="mc", trials=5000, seed=5)
    assert abs(mc.value - exact) <= 3 * mc.ci_half_width + 1e-12
    again = rcu_mac(mac, u, u, 3, 4, 4, mode="mc", trials=5000, seed=5)
    assert mc.value == again.value


@pytest.mark.parametrize("mac,n,log2_m", [
    pytest.param(binary_adder_mac(), 200, 145, id="adder-n200"),
    pytest.param(xor_mac(), 60, 25, id="xor-n60"),
    pytest.param(parallel_bsc_mac("1/10", "1/4"), 24, 4, id="pbsc-n24"),
])
def test_rcu_mac_exact_past_the_joint_type_lattice_agrees_with_mc(
        mac, n, log2_m):
    # atom types: 201 for the adder (1,373,701 joint types), 61 for the
    # xor MAC (869,648,208) and 2,925 for the parallel BSCs
    # (25,140,840,660); each joint-type lattice is past the guard
    u = InputPmf.uniform(2)
    m = 2 ** log2_m
    exact = rcu_mac(mac, u, u, n, m, m)
    mc = rcu_mac(mac, u, u, n, m, m, mode="mc", trials=10_000, seed=3)
    assert exact.components["joint_types"] > 1_000_000
    assert 1e-3 < exact.value < 0.5
    assert abs(exact.value - mc.value) <= 4 * mc.ci_half_width


def test_rcu_mac_validation():
    mac = binary_adder_mac()
    u = InputPmf.uniform(2)
    with pytest.raises(ValueError, match="mode"):
        rcu_mac(mac, u, u, 2, 2, 2, mode="typical")
    with pytest.raises(ValueError):
        rcu_mac(mac, u, u, 2, 0, 2)
    # skewed pmfs split the 16 cells into 16 atoms: C(39, 15) atom types
    skew = InputPmf.from_values(["1/4", "3/4"])
    with pytest.raises(GuardError, match="mode='mc'"):
        rcu_mac(parallel_bsc_mac("1/10", "1/4"), skew, skew, 24, 2, 2)


def test_mac_region_check_clear_member_and_nonmember():
    mac = binary_adder_mac()
    u = InputPmf.uniform(2)
    res = mac_region_check(mac, u, u, 400, 0.1, 0.05, 0.05,
                           trials=20_000, seed=4)
    assert res.member and res.margin > 0
    res = mac_region_check(mac, u, u, 400, 0.1, 0.9, 0.9,
                           trials=20_000, seed=4)
    assert not res.member and not res.indeterminate
    assert res.residual_term == 0.0 and res.residual_unquantified


def test_mac_region_check_rank_zero_raises():
    rows = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]]
    mac = MacModel.from_rows(rows)
    u = InputPmf.uniform(2)
    with pytest.raises(ValueError, match="rank zero"):
        mac_region_check(mac, u, u, 100, 0.1, 0.2, 0.2, trials=1000)


# ---------------------------------------------------------------------------
# LDPC ensemble variants


def _binary_quantizer():
    f = make_field(2, 1)
    return make_quantizer(f, InputPmf.uniform(2))


def test_ldpc_rcu_ppc_alpha_one_matches_iid_relaxed():
    quant = _binary_quantizer()
    n = 10
    rep = ldpc_rcu_ppc(bsc(0.05), quant, n, 3, 6, log_alpha=0.0)
    assert rep.num_messages == 2 ** (n - 5)
    iid = rcu_relaxed_ppc(bsc(0.05), InputPmf.uniform(2), n, 2 ** (n - 5))
    assert rep.value == pytest.approx(iid.value, abs=1e-14)
    assert rep.components["design_rate_qary"] == pytest.approx(0.5)


def test_ldpc_rcu_ppc_alpha_monotone():
    quant = _binary_quantizer()
    base = ldpc_rcu_ppc(bsc(0.05), quant, 10, 3, 6, log_alpha=0.0).value
    worse = ldpc_rcu_ppc(bsc(0.05), quant, 10, 3, 6,
                         log_alpha=math.log(2.0)).value
    assert base <= worse


def test_ldpc_rcu_ppc_rate_expansion_present():
    rep = ldpc_rcu_ppc(bsc(0.05), _binary_quantizer(), 12, 3, 6,
                       log_alpha=math.log(1.5))
    assert 0.0 < rep.value < 1.0
    assert "rate_expansion_nats" in rep.components
    assert rep.components["log_alpha"] == pytest.approx(math.log(1.5))


def test_ldpc_rcu_ppc_alpha_past_float_range():
    # e^800 is no float: the penalty folds in as a log, alpha reads inf
    rep = ldpc_rcu_ppc(bsc(0.05), _binary_quantizer(), 12, 3, 6,
                       log_alpha=800.0)
    assert rep.value == 1.0
    assert rep.components["alpha"] == math.inf
    assert rep.components["log_alpha"] == 800.0


def test_ldpc_rcu_ppc_validation():
    quant = _binary_quantizer()
    with pytest.raises(ValueError, match="integral"):
        ldpc_rcu_ppc(bsc(0.05), quant, 10, 3, 7)
    with pytest.raises(ValueError, match="alpha"):
        ldpc_rcu_ppc(bsc(0.05), quant, 10, 3, 6, log_alpha=math.log(0.5))
    ch3 = DmcModel.from_rows([["1/3"] * 3] * 3)
    with pytest.raises(ValueError, match="quantizer"):
        ldpc_rcu_ppc(ch3, quant, 10, 3, 6)
    with pytest.raises(ValueError, match="var_degree"):
        ldpc_rcu_ppc(bsc(0.05), quant, 10, 6, 3)


def test_ldpc_rcu_mac_alpha_one_matches_iid_relaxed_component():
    mac = parallel_bsc_mac("1/10", "1/4")
    quants = (_binary_quantizer(), _binary_quantizer())
    n = 4
    rep = ldpc_rcu_mac(mac, quants, n, (3, 6), (3, 6))
    m = 2 ** (n - 2)
    iid = rcu_mac(mac, InputPmf.uniform(2), InputPmf.uniform(2), n, m, m)
    assert rep.value == pytest.approx(iid.components["relaxed"], abs=1e-14)
    assert rep.num_messages == (m, m)


def _skew_quantizer():
    # GF(4) onto the binary input with pmf (1/4, 3/4)
    return make_quantizer(make_field(2, 2), SKEW)


@pytest.mark.parametrize("mac,quants", [
    pytest.param(parallel_bsc_mac("1/10", "1/4"),
                 (_binary_quantizer(), _binary_quantizer()),
                 id="pbsc-uniform"),
    pytest.param(parallel_bsc_mac("1/10", "1/4"),
                 (_binary_quantizer(), _skew_quantizer()),
                 id="pbsc-uniform-skew"),
    pytest.param(xor_mac(), (_binary_quantizer(), _binary_quantizer()),
                 id="xor"),
])
def test_ldpc_rcu_mac_matches_joint_type_oracle(mac, quants):
    p1, p2 = (induced_input_pmf(q) for q in quants)
    n = _mac_oracle_n(mac, p1, p2)
    # (4, 5) ensembles: n / 5 information symbols per user at n = 5 and 10
    params = (4, 5)
    log_m = [n // 5 * math.log(q.field.q) for q in quants]
    for a1, a2 in ((1.0, 1.0), (1.5, 2.5)):
        la1, la2 = math.log(a1), math.log(a2)
        log_ms = [log_m[0] + la1, log_m[1] + la2,
                  log_m[0] + log_m[1] + la1 + la2]
        want = oracles.relaxed_mac_joint_types(
            mac.w, p1.probs, p2.probs, n,
            _mac_log_scales(mac, p1, p2, n, log_ms))
        # the penalised parallel-BSC sums saturate; the plain ones do not
        assert want < 1.0 or a1 > 1.0
        rep = ldpc_rcu_mac(mac, quants, n, params, params, la1, la2)
        assert _rel_close(rep.value, want)


def test_ldpc_rcu_mac_runs_past_the_joint_type_lattice():
    # 8 cells but 2 distinct i-vectors: 25 law points at n = 24, where the
    # joint-type lattice has C(31, 7) = 2,629,575 points
    quants = (_binary_quantizer(), _binary_quantizer())
    rep = ldpc_rcu_mac(xor_mac(), quants, 24, (3, 4), (3, 4),
                       math.log(1.5), math.log(2.5))
    assert 0.0 < rep.value < 1.0


def test_ldpc_rcu_mac_takes_penalties_past_the_float_range():
    # ln alpha = 812.5, the (3, 5) ensemble's penalty at n = 2000, has no
    # float alpha; as a log it folds into the message counts
    quants = (_binary_quantizer(), _binary_quantizer())
    rep = ldpc_rcu_mac(xor_mac(), quants, 2000, (3, 5), (3, 5), 812.5, 812.5)
    assert rep.value == 1.0
    assert rep.components["log_penalty_vector"] == (812.5, 812.5, 1625.0)
    with pytest.raises(ValueError, match="spectrum ratios"):
        ldpc_rcu_mac(xor_mac(), quants, 20, (3, 5), (3, 5), -0.1, 0.0)


def test_ldpc_rcu_mac_information_density_guard():
    # both users skewed: 16 distinct i-vectors, C(24, 15) law points at n = 9
    quants = (_skew_quantizer(), _skew_quantizer())
    with pytest.raises(GuardError, match="information-density lattice has "
                                         "1307504 .*mode='mc'"):
        ldpc_rcu_mac(parallel_bsc_mac("1/10", "1/4"), quants, 9, (2, 3),
                     (2, 3))


def test_ldpc_rcu_mac_same_coset_doubles_log_penalties():
    mac = parallel_bsc_mac("1/10", "1/4")
    quants = (_binary_quantizer(), _binary_quantizer())
    la1, la2 = math.log(1.5), math.log(2.5)
    sep = ldpc_rcu_mac(mac, quants, 4, (3, 6), (3, 6), la1, la2)
    shared = ldpc_rcu_mac(mac, quants, 4, (3, 6), (3, 6), la1, la2,
                          same_coset=True)
    assert sep.components["log_penalty_vector"] == pytest.approx(
        (la1, la2, la1 + la2))
    assert shared.components["log_penalty_vector"] == pytest.approx(
        (2 * la1, 2 * la2, 2 * la1 + 2 * la2))
    assert sep.value <= shared.value + 1e-14


def test_ldpc_rcu_mac_pinned():
    # the design (q, checks, message counts) comes from the quantizers and
    # the degree pairs; any change to that derivation moves the value
    xor = MacModel.from_rows([[["99/100", "1/100"], ["1/100", "99/100"]],
                              [["1/100", "99/100"], ["99/100", "1/100"]]])
    quants = (_binary_quantizer(), _binary_quantizer())
    rep = ldpc_rcu_mac(xor, quants, 12, (3, 4), (3, 4),
                       math.log(1.5), math.log(2.5))
    assert rep.value == pytest.approx(0.5585417649485457, rel=1e-12)
    assert rep.components["log_num_messages"] == pytest.approx(
        (3 * LN2, 3 * LN2), rel=1e-12)


# ---------------------------------------------------------------------------
# scaling table


def test_scaling_table_rows():
    rows = scaling_table([0.5, 1e-2, 1e-6])
    assert rows[0] == (0.5, pytest.approx(q_inv(0.5), abs=1e-12),
                       pytest.approx(math.sqrt(LN2), abs=1e-12))
    eps = 1e-6
    assert rows[2][1] == pytest.approx(q_inv(eps), abs=1e-12)
    assert rows[2][2] == pytest.approx(math.sqrt(math.log(1 / eps)), abs=1e-12)
    # the quantile scale outgrows the exponent-style sqrt-log scale
    assert rows[2][1] / rows[1][1] > rows[2][2] / rows[1][2]


def test_scaling_table_validates_range():
    with pytest.raises(ValueError):
        scaling_table([0.6])
    with pytest.raises(ValueError):
        scaling_table([0.0])
