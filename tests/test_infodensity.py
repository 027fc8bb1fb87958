import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblbound.channel import (
    DmcModel,
    InputPmf,
    MacModel,
    bsc,
    noiseless,
)
from fblbound.infodensity import (
    BERRY_ESSEEN_C0,
    EVENTS,
    _check_sizes,
    _event_tables,
    average_inputs,
    mac_moments,
    ppc_moments,
)
import oracles
from helpers import binary_adder_mac

LN2 = math.log(2.0)


def _tables(channel, *pmfs):
    """Per-event information-density tables, shaped like ``channel.w``."""
    return _event_tables(channel.w, _check_sizes(channel.w, pmfs))


def _mutual_information(w: np.ndarray, p: np.ndarray) -> float:
    qy = p @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        lr = np.log(w) - np.log(qy)[None, :]
    return float(np.where(w > 0, p[:, None] * w * lr, 0.0).sum())


def test_info_density_noiseless_binary():
    t, = _tables(noiseless(2), InputPmf.uniform(2))
    assert t[0, 0] == pytest.approx(LN2)
    assert t[1, 1] == pytest.approx(LN2)
    assert t[0, 1] == -np.inf
    assert t[1, 0] == -np.inf


def test_info_density_bsc011():
    t, = _tables(bsc("11/100"), InputPmf.uniform(2))
    assert t[0, 0] == pytest.approx(math.log(1.78), abs=1e-14)
    assert t[0, 1] == pytest.approx(math.log(0.22), abs=1e-14)


def test_info_density_degenerate_input():
    pmf = InputPmf.from_values([1, 0])
    c = DmcModel.from_rows([["3/4", "1/4"], ["1/2", "1/2"]])
    t, = _tables(c, pmf)
    assert t[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert t[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_ppc_moments_noiseless():
    ms = ppc_moments(noiseless(2), InputPmf.uniform(2))
    assert ms.mean == pytest.approx(LN2, abs=1e-14)
    assert ms.variance == pytest.approx(0.0, abs=1e-14)
    assert ms.be_term is None and ms.tail_prefactor is None


def test_ppc_moments_bsc011_closed_form():
    p = Fraction(11, 100)
    ms = ppc_moments(bsc(p), InputPmf.uniform(2))
    pf = float(p)
    delta = math.log((1 - pf) / pf)
    v_closed = pf * (1 - pf) * delta**2
    assert ms.variance == pytest.approx(v_closed, abs=1e-12)
    assert ms.variance / LN2**2 == pytest.approx(0.891, abs=5e-4)
    # third absolute central moment, closed form for a two-point density
    mu = (1 - pf) * math.log(2 * (1 - pf)) + pf * math.log(2 * pf)
    t_closed = (1 - pf) * abs(math.log(2 * (1 - pf)) - mu) ** 3 + pf * abs(
        math.log(2 * pf) - mu
    ) ** 3
    assert ms.third_abs_moment == pytest.approx(t_closed, abs=1e-12)
    assert ms.be_term == pytest.approx(
        BERRY_ESSEEN_C0 * t_closed / v_closed**1.5, abs=1e-12
    )
    assert ms.tail_prefactor == pytest.approx(
        2 * (LN2 / math.sqrt(2 * math.pi * v_closed) + 2 * ms.be_term), abs=1e-12
    )


def test_ppc_moments_useless_bsc():
    ms = ppc_moments(bsc("1/2"), InputPmf.uniform(2))
    assert ms.mean == pytest.approx(0.0, abs=1e-15)
    assert ms.variance == pytest.approx(0.0, abs=1e-15)


def test_ppc_mean_matches_mutual_information():
    channels = [
        bsc("11/100"),
        DmcModel.from_rows([["1/2", "1/3", "1/6"], ["1/10", "3/10", "6/10"]]),
    ]
    pmfs = [InputPmf.uniform(2), InputPmf.from_values(["1/4", "3/4"])]
    for c in channels:
        for pmf in pmfs:
            ms = ppc_moments(c, pmf)
            assert ms.mean == pytest.approx(
                _mutual_information(c.w, pmf.probs), abs=1e-12
            )


def test_ppc_variance_two_ways():
    c = DmcModel.from_rows([["1/2", "1/3", "1/6"], ["1/10", "3/10", "6/10"]])
    pmf = InputPmf.from_values(["2/5", "3/5"])
    ms = ppc_moments(c, pmf)
    t, = _tables(c, pmf)
    joint = pmf.probs[:, None] * c.w
    mask = joint > 0
    second = float(np.sum(joint * np.where(mask, t, 0.0) ** 2, where=mask))
    assert ms.variance == pytest.approx(second - ms.mean**2, abs=1e-10)


def test_ppc_cond_var_bsc_equals_variance():
    ms = ppc_moments(bsc("11/100"), InputPmf.uniform(2))
    assert ms.cond_var_by_output == pytest.approx([ms.variance] * 2, abs=1e-12)
    assert ms.cond_var_min == pytest.approx(ms.variance, abs=1e-12)


def test_mac_moments_adder():
    ms = mac_moments(binary_adder_mac(), InputPmf.uniform(2), InputPmf.uniform(2))
    assert ms.means == pytest.approx([LN2, LN2, 1.5 * LN2], abs=1e-12)
    # conditional densities are constant ln 2; joint takes ln4, ln2, ln4
    assert ms.cov[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert ms.cov[1, 1] == pytest.approx(0.0, abs=1e-12)
    # ln4 with prob 1/2 (outputs 0 and 2), ln2 with prob 1/2 (output 1)
    var12 = 0.5 * (2 * LN2) ** 2 + 0.5 * LN2**2 - (1.5 * LN2) ** 2
    assert ms.cov[2, 2] == pytest.approx(var12, abs=1e-12)
    assert np.isnan(ms.tail_prefactors[0]) and np.isnan(ms.tail_prefactors[1])
    assert ms.tail_prefactors[2] > 0


def test_mac_parallel_channels_uncorrelated():
    # Y = (Y1, Y2), user k drives Y_k through its own BSC
    w1 = bsc("1/10").w
    w2 = bsc("1/5").w
    w = np.einsum("ac,bd->abcd", w1, w2).reshape(2, 2, 4)
    ms = mac_moments(MacModel(w), InputPmf.uniform(2), InputPmf.uniform(2))
    assert ms.cov[0, 1] == pytest.approx(0.0, abs=1e-12)
    # joint density splits as a sum, so V12 = V1 + V2
    assert ms.cov[2, 2] == pytest.approx(ms.cov[0, 0] + ms.cov[1, 1], abs=1e-12)


def test_mac_degenerate_first_input():
    ms = mac_moments(
        binary_adder_mac(), InputPmf.from_values([1, 0]), InputPmf.uniform(2)
    )
    assert ms.means[0] == pytest.approx(0.0, abs=1e-14)
    assert ms.cov[0, :] == pytest.approx([0.0] * 3, abs=1e-14)
    assert ms.cov[:, 0] == pytest.approx([0.0] * 3, abs=1e-14)


def test_mac_cov_psd_and_sum_rule():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = rng.dirichlet(np.ones(3), size=(2, 2))
        ms = mac_moments(MacModel(w), InputPmf.uniform(2), InputPmf.uniform(2))
        assert np.linalg.eigvalsh(ms.cov).min() >= -1e-10
        assert ms.means[2] >= max(ms.means[0], ms.means[1]) - 1e-12


def _parallel_bsc_mac(pa, pb):
    w = np.einsum("ac,bd->abcd", bsc(pa).w, bsc(pb).w).reshape(2, 2, 4)
    return MacModel(w)


def _noisy_adder_mac():
    hi, lo = "8/10", "1/10"
    return MacModel.from_rows([
        [[hi, lo, lo], [lo, hi, lo]],
        [[lo, hi, lo], [lo, lo, hi]],
    ])


@pytest.mark.parametrize("mac,cov,prefs", [
    (_parallel_bsc_mac("1/10", "1/4"),
     [[0.4345016258925295, 0.0, 0.4345016258925296],
      [0.0, 0.2263029301523591, 0.22630293015235917],
      [0.4345016258925296, 0.22630293015235917, 0.6608045560448887]],
     [6.943095182209706, 4.385920092012775, 5.050510929694438]),
    (_noisy_adder_mac(),
     [[0.3950321701152864, 0.28191972934062187, 0.434010539660611],
      [0.28191972934062187, 0.3950321701152865, 0.434010539660611],
      [0.434010539660611, 0.434010539660611, 0.6699531945018178]],
     [6.4099565740820434, 6.409956574082041, 4.408086333455708]),
])
def test_mac_moments_pinned(mac, cov, prefs):
    ms = mac_moments(mac, InputPmf.uniform(2), InputPmf.uniform(2))
    assert ms.cov == pytest.approx(np.array(cov), rel=1e-12, abs=1e-14)
    assert ms.tail_prefactors == pytest.approx(prefs, rel=1e-12)


def test_mac_tables_shapes_and_sentinels():
    i1, i2, i12 = _tables(
        binary_adder_mac(), InputPmf.uniform(2), InputPmf.uniform(2)
    )
    assert i1.shape == (2, 2, 3)
    # adder MAC: output 2 impossible under (0,0)
    assert i1[0, 0, 2] == -np.inf and i12[0, 0, 2] == -np.inf
    assert i1[0, 0, 0] == pytest.approx(LN2, abs=1e-14)


def test_mac_tables_reject_wrong_users():
    m = MacModel(np.array([[0.5, 0.5], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="2-user"):
        mac_moments(m, InputPmf.uniform(2), InputPmf.uniform(2))


def test_ppc_moments_reject_size_mismatch():
    with pytest.raises(ValueError, match="do not match"):
        ppc_moments(noiseless(2), InputPmf.uniform(3))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2), st.lists(st.integers(1, 4), min_size=3,
                                   max_size=3),
       st.integers(0, 2**32 - 1))
def test_average_inputs_matches_tensordot_bitwise(users, sizes, seed):
    # a random nonnegative table over K = 1 or 2 inputs and an output, with
    # random pmfs (zeros included), averaged over every event's inputs
    rng = np.random.default_rng(seed)
    shape = tuple(sizes[:users]) + (sizes[2],)
    arr = rng.random(shape) * (rng.random(shape) < 0.8)
    probs = []
    for s in shape[:-1]:
        p = rng.random(s) * (rng.random(s) < 0.7)
        p[rng.integers(s)] += 0.5
        probs.append(p / p.sum())
    for event in EVENTS[users]:
        got = average_inputs(arr, probs, event)
        want = oracles.average_inputs_tensordot(arr, probs, event)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
