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
    capacity,
    channel_from_json,
    induced_input_pmf,
    make_quantizer,
    noiseless,
)
from fblbound.gfq import field_from_order
from helpers import binary_adder_mac, dmc_to_json, mac_to_json

LN2 = math.log(2.0)


def test_dmc_from_rational_rows_is_exact():
    c = DmcModel.from_rows([["89/100", "11/100"], ["11/100", "89/100"]])
    assert c.w_exact is not None
    assert c.w_exact[0][1] == Fraction(11, 100)
    assert c.w[0, 0] == pytest.approx(0.89)


def test_dmc_rejects_bad_rows():
    with pytest.raises(ValueError, match="sums to"):
        DmcModel.from_rows([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError, match="sums to"):
        DmcModel.from_rows([["1/2", "1/3"], ["1/2", "1/2"]])
    with pytest.raises(ValueError, match="negative"):
        DmcModel.from_rows([[1.5, -0.5], [0.5, 0.5]])


def test_dmc_double_rows_within_tolerance():
    c = DmcModel.from_rows([[0.3, 0.7], [0.25, 0.75]])
    assert c.w_exact is None


def test_mac_shapes_and_exactness():
    m = binary_adder_mac()
    assert m.num_users == 2
    assert m.input_sizes == (2, 2)
    assert m.output_size == 3
    assert m.w_exact is not None
    assert m.w_exact[1][0][1] == 1
    flat = m.flatten()
    assert flat.input_size == 4
    # lexicographic: (x1,x2) = (1,0) is row 2
    assert flat.w[2, 1] == 1.0
    assert flat.w_exact[2][1] == 1


def test_mac_rejects_non_stochastic():
    with pytest.raises(ValueError):
        MacModel.from_rows([[[0.5, 0.4], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])


def test_quantizer_identity_binary():
    f = field_from_order(2)
    qz = make_quantizer(f, InputPmf.from_values(["1/2", "1/2"]))
    assert list(qz.assignment) == [0, 1]
    assert induced_input_pmf(qz).exact == (Fraction(1, 2), Fraction(1, 2))


def test_quantizer_block_map_q4():
    f = field_from_order(4)
    qz = make_quantizer(f, InputPmf.from_values(["3/4", "1/4"]))
    assert list(qz.assignment) == [0, 0, 0, 1]
    assert qz.counts == (3, 1)
    assert induced_input_pmf(qz).exact == (Fraction(3, 4), Fraction(1, 4))


def test_quantizer_counts_q8():
    f = field_from_order(8)
    qz = make_quantizer(f, InputPmf.from_values(["5/8", "2/8", "1/8"]))
    assert qz.counts == (5, 2, 1)
    got = induced_input_pmf(qz).exact
    assert got == (Fraction(5, 8), Fraction(1, 4), Fraction(1, 8))


def test_quantizer_rejects_non_multiple():
    f = field_from_order(2)
    with pytest.raises(ValueError, match="integer multiple of 1/q"):
        make_quantizer(f, InputPmf(np.array([0.6, 0.4])))
    with pytest.raises(ValueError, match="integer multiple of 1/q"):
        make_quantizer(f, InputPmf.from_values(["1/3", "2/3"]))


def test_quantizer_apply_maps_blocks():
    f = field_from_order(4)
    qz = make_quantizer(f, InputPmf.from_values(["1/2", "1/2"]))
    assert list(qz.apply([0, 1, 2, 3])) == [0, 0, 1, 1]


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 8, 9]),
    data=st.data(),
)
def test_quantizer_round_trip(q, data):
    f = field_from_order(q)
    k = data.draw(st.integers(1, min(q, 4)))
    # random composition of q into k positive parts
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(1, q - 1), min_size=k - 1, max_size=k - 1, unique=True
            )
        )
    )
    counts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    pmf = InputPmf.from_values([Fraction(c, q) for c in counts])
    back = induced_input_pmf(make_quantizer(f, pmf))
    assert back.exact == pmf.exact


def test_capacity_noiseless_binary():
    c_nats, pstar = capacity(noiseless(2))
    assert c_nats / LN2 == pytest.approx(1.0, abs=1e-9)
    assert pstar.probs == pytest.approx([0.5, 0.5], abs=1e-6)


def test_capacity_bsc011():
    c_nats, _ = capacity(bsc(0.11))
    p = 0.11
    h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert c_nats / LN2 == pytest.approx(1 - h2, abs=1e-6)
    assert c_nats / LN2 == pytest.approx(0.5001, abs=5e-5)


def test_capacity_useless_bsc():
    c_nats, _ = capacity(bsc(0.5))
    assert c_nats == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_capacity_dominates_random_pmfs(seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(3), size=3)
    dmc = DmcModel(w)
    tol = 1e-9
    c_nats, _ = capacity(dmc)
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        qy = p @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = np.log(w) - np.log(qy)[None, :]
        mi = float(np.where(w > 0, p[:, None] * w * lr, 0.0).sum())
        assert c_nats >= mi - tol


def test_json_round_trip_dmc():
    c = bsc("11/100")
    obj = dmc_to_json(c)
    assert obj["inputs"] == 2 and obj["outputs"] == 2
    assert obj["rows"][0][1] == "11/100"
    back = channel_from_json(obj)
    assert isinstance(back, DmcModel)
    assert back.w_exact == c.w_exact


def test_json_round_trip_mac():
    m = binary_adder_mac()
    obj = mac_to_json(m)
    assert obj["inputs"] == [2, 2]
    back = channel_from_json(obj)
    assert isinstance(back, MacModel)
    assert np.array_equal(back.w, m.w)


def test_json_rejects_mismatched_sizes():
    obj = dmc_to_json(bsc(0.25))
    obj["outputs"] = 3
    with pytest.raises(ValueError, match="do not"):
        channel_from_json(obj)
    with pytest.raises(ValueError, match="missing key"):
        channel_from_json({"inputs": 2})

