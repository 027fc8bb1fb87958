"""Sampled-code simulator: graphs, codebooks, ML decoding, spectra.

Statistical tests use frozen seeds, so they are deterministic in
practice; the stated 3-sigma / p > 0.001 envelopes describe how they
were sized, not a per-run coin flip.
"""

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

import oracles
from fblbound import GuardError, simulator
from fblbound.channel import (DmcModel, InputPmf, MacModel, bsc,
                              make_quantizer, noiseless)
from fblbound.exponent import kmac_exponent_bound
from fblbound.fbl import ldpc_rcu_ppc
from fblbound.gfq import field_from_order, make_field, rank_and_nullspace
from fblbound.simulator import (Codebook, TannerGraph, actual_rate_stats,
                                build_inputs, empirical_spectrum,
                                enumerate_codebook, min_distance, ml_decode,
                                sample_graph, simulate_error)
from fblbound.spectrum import alpha_log, ldpc_spectrum_table
from fblbound.cli import cmd_simulate
from helpers import binary_adder_mac, dmc_to_json, mac_to_json

F2 = make_field(2, 1)
F4 = make_field(2, 2)
UNIF2 = InputPmf.uniform(2)


def binary_quantizer():
    return make_quantizer(F2, UNIF2)


# ---------------------------------------------------------------------------
# graph sampling


def test_sample_graph_shape():
    g = sample_graph(6, 3, 6, F2, seed=0)
    assert g.num_checks == 3
    assert g.num_sockets == 18
    assert g.check_matrix().shape == (3, 6)


def test_sample_graph_reproducible():
    a = sample_graph(6, 3, 6, F2, seed=42)
    b = sample_graph(6, 3, 6, F2, seed=42)
    assert np.array_equal(a.perm, b.perm)
    assert np.array_equal(a.labels, b.labels)
    c = sample_graph(6, 3, 6, F2, seed=43)
    assert not np.array_equal(a.perm, c.perm)


def test_sample_graph_regular_degrees():
    g = sample_graph(8, 3, 4, F2, seed=5)
    # every variable owns var_degree sockets, every check absorbs
    # check_degree of them under the permutation
    var_counts = np.bincount(np.arange(g.num_sockets) // g.var_degree)
    chk_counts = np.bincount(g.perm // g.check_degree)
    assert np.all(var_counts == 3)
    assert np.all(chk_counts == 4)


def test_sample_graph_labels_nonzero():
    g = sample_graph(6, 2, 4, F4, seed=1)
    assert np.all(g.labels >= 1)
    assert np.all(g.labels < 4)
    assert len(np.unique(g.labels)) > 1  # labels actually vary over GF(4)


@pytest.mark.parametrize("q,shape,want", [
    (2, (12, 3, 6), "2538773ba76a0423"),
    (3, (12, 2, 4), "177d71dc17292650"),
    (4, (8, 3, 6), "b49253374d5b4cc3"),
])
def test_sample_graph_draws_without_eliminating(monkeypatch, q, shape, want):
    # the permutation, then (q > 2) the labels, drawn as the elimination
    # stack draws them; the digest was recorded when every sample_graph
    # call still reduced its check matrix
    def refuse(mat):
        raise AssertionError("sample_graph eliminated")

    field = field_from_order(q)
    seeds = (0, 1, 7, 123456789)
    stacked = [simulator._sample_graphs(shape, field,
                                        [simulator._keyed_rng(s)])
               for s in seeds]
    monkeypatch.setattr(simulator, "rank_and_nullspace", refuse)
    h = hashlib.sha256()
    for seed, (_, _, (perms, labels)) in zip(seeds, stacked):
        g = sample_graph(*shape, field, seed)
        assert np.array_equal(g.perm, perms[0])
        assert np.array_equal(g.labels, labels[0])
        h.update(g.perm.astype("<i8").tobytes())
        h.update(g.labels.astype("<i8").tobytes())
    assert h.hexdigest()[:16] == want


def test_sample_graph_divisibility_error():
    with pytest.raises(ValueError, match="multiple of check_degree"):
        sample_graph(5, 3, 6, F2, seed=0)


def test_tanner_graph_validation():
    m = 8
    perm = np.arange(m)
    labels = np.ones(m, dtype=np.int64)
    TannerGraph(n=4, var_degree=2, check_degree=2, field=F2,
                perm=perm, labels=labels)
    bad = perm.copy()
    bad[0] = 1  # not a bijection
    with pytest.raises(ValueError, match="bijection"):
        TannerGraph(n=4, var_degree=2, check_degree=2, field=F2,
                    perm=bad, labels=labels)
    with pytest.raises(ValueError, match="nonzero"):
        TannerGraph(n=4, var_degree=2, check_degree=2, field=F2,
                    perm=perm, labels=np.zeros(m, dtype=np.int64))
    with pytest.raises(ValueError, match="var_degree >= 2"):
        TannerGraph(n=8, var_degree=1, check_degree=2, field=F2,
                    perm=np.arange(8), labels=np.ones(8, dtype=np.int64))


def test_check_matrix_hand_instance():
    # sockets 0,1 belong to var 0 and 2,3 to var 1; perm [0,2,1,3] routes
    # one socket of each variable to each check
    g = TannerGraph(n=2, var_degree=2, check_degree=2, field=F2,
                    perm=np.array([0, 2, 1, 3]),
                    labels=np.ones(4, dtype=np.int64))
    assert np.array_equal(g.check_matrix().data, [[1, 1], [1, 1]])


def test_check_matrix_parallel_edges_cancel():
    # identity perm sends both sockets of each variable into one check;
    # over GF(2) the labels add to zero
    g = TannerGraph(n=2, var_degree=2, check_degree=2, field=F2,
                    perm=np.arange(4), labels=np.ones(4, dtype=np.int64))
    assert np.array_equal(g.check_matrix().data, [[0, 0], [0, 0]])


def test_check_matrix_gf4_labels():
    g = TannerGraph(n=2, var_degree=2, check_degree=2, field=F4,
                    perm=np.array([0, 2, 1, 3]),
                    labels=np.array([1, 2, 3, 1]))
    assert np.array_equal(g.check_matrix().data, [[1, 3], [2, 1]])
    # parallel edges add in the field: 1+2 = 3, 3+1 = 2 over GF(4)
    g = TannerGraph(n=2, var_degree=2, check_degree=2, field=F4,
                    perm=np.arange(4), labels=np.array([1, 2, 3, 1]))
    assert np.array_equal(g.check_matrix().data, [[3, 0], [0, 2]])


# ---------------------------------------------------------------------------
# codebook enumeration


def test_codebook_full_rank_is_whole_nullspace():
    g = sample_graph(6, 3, 6, F2, seed=7)  # frozen: rank 3 == num_checks
    rank, _ = rank_and_nullspace(g.check_matrix())
    assert rank == 3
    cb = enumerate_codebook(g, 0.5, seed=0)
    assert cb.size == 8
    assert any(not w.any() for w in cb.words)  # zero word survives


def test_codebook_checks_verified_directly():
    # re-verify H c = 0 by plain substitution, independent of the
    # nullspace routine that produced the words
    g = sample_graph(12, 3, 6, F2, seed=3)
    cb = enumerate_codebook(g, 0.5, seed=0)
    h = g.check_matrix()
    for w in cb.words:
        assert not h.mat_vec(w).any()


def duplicate_check_graph():
    # perm [2v] -> check 0 slot v, perm [2v+1] -> check 1 slot v: both
    # checks read the same variables with the same labels, so rank <= 1
    perm = np.empty(8, dtype=np.int64)
    perm[0::2] = np.arange(4)
    perm[1::2] = 4 + np.arange(4)
    return TannerGraph(n=4, var_degree=2, check_degree=4, field=F2,
                       perm=perm, labels=np.ones(8, dtype=np.int64))


def test_codebook_removal_trims_to_design_size():
    g = duplicate_check_graph()
    rank, _ = rank_and_nullspace(g.check_matrix())
    assert rank == 1
    cb = enumerate_codebook(g, 0.5, seed=4)  # nullspace 8 > 2^{nR} = 4
    assert cb.size == 4
    assert np.unique(cb.words, axis=0).shape[0] == 4
    h = g.check_matrix()
    for w in cb.words:
        assert not h.mat_vec(w).any()
    again = enumerate_codebook(g, 0.5, seed=4)
    assert np.array_equal(cb.words, again.words)
    other = enumerate_codebook(g, 0.5, seed=5)
    assert not np.array_equal(cb.words, other.words)


def test_codebook_validation():
    g = duplicate_check_graph()
    with pytest.raises(ValueError, match="nonnegative integer"):
        enumerate_codebook(g, 0.3, seed=0)
    with pytest.raises(ValueError, match="nullspace holds"):
        enumerate_codebook(g, 1.0, seed=0)  # 16 words > nullspace of 8
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_codebook(sample_graph(42, 3, 6, F2, seed=0), 0.5)
    with pytest.raises(ValueError, match="distinct"):
        Codebook(field=F2, words=np.zeros((2, 3), dtype=np.int64))


def test_codebook_rejects_inputs_and_coset_of_the_wrong_shape():
    words = np.array([[0, 0, 0], [1, 1, 0]])
    with pytest.raises(ValueError, match="do not match the words"):
        Codebook(F2, words, inputs=words[:1])  # one row short
    with pytest.raises(ValueError, match="do not match the words"):
        Codebook(F2, words, inputs=words[:, :2])
    with pytest.raises(ValueError, match="one symbol per position"):
        Codebook(F2, words, coset=np.zeros(2, dtype=np.int64))
    assert Codebook(F2, words, coset=np.zeros(3), inputs=words).size == 2


@pytest.mark.parametrize("q,dtype", [(2, np.uint8), (3, np.uint8),
                                     (256, np.uint8), (257, np.uint16)])
def test_codebook_words_take_the_smallest_unsigned_dtype(q, dtype):
    words = np.array([[0, 1], [q - 1, 0]])
    book = Codebook(field_from_order(q), words)
    assert book.words.dtype == dtype
    assert book.words.tolist() == words.tolist()
    with pytest.raises(ValueError, match="outside the field"):
        Codebook(field_from_order(q), np.array([[0, 1], [-1, 0]]))


@pytest.mark.parametrize("q,n", [(2, 70), (3, 40), (16, 20)])
def test_codebook_duplicate_check_spans_key_columns(q, n):
    # q=2 packs 62 symbols per key, q=3 packs 31 and q=16 packs 15, so
    # each case needs two key columns.  Row i is one shared word with the
    # base-q digits of i written into its tail, last symbol fastest, so
    # rows 0..q-1 differ only in their last symbol; one extra row differs
    # from row 0 only in its first symbol.
    field = field_from_order(q)
    k = math.ceil(math.log(40, q))
    words = np.tile(np.random.default_rng(q).integers(0, q, size=n), (41, 1))
    for d in range(k):
        words[:40, n - 1 - d] = (np.arange(40) // q ** d) % q
    words[40] = words[0]
    words[40, 0] = (words[0, 0] + 1) % q
    assert np.unique(words, axis=0).shape[0] == 41
    assert Codebook(field=field, words=words).size == 41
    for i, j in [(0, 1), (0, 40), (q - 1, q), (3, 39)]:
        dup = words.copy()
        dup[j] = dup[i]
        with pytest.raises(ValueError, match="^codewords must be distinct$"):
            Codebook(field=field, words=dup)


def test_codebook_duplicate_check_matches_unique():
    rng = np.random.default_rng(5)
    for q, n in [(2, 3), (2, 63), (4, 31), (5, 2), (16, 16)]:
        for _ in range(30):
            words = rng.integers(0, q, size=(rng.integers(1, 12), n))
            want = np.unique(words, axis=0).shape[0] < words.shape[0]
            assert simulator._has_duplicate_rows(words, q) == want


@pytest.mark.parametrize("q,n,keys", [(2, 30, 1), (2, 70, 2), (16, 20, 2)])
def test_duplicate_check_is_per_code_at_both_key_widths(q, n, keys):
    # q = 2 packs 62 symbols per key and q = 16 packs 15: n = 30 words
    # sort on one key per word, the others on key columns after the code's
    field = field_from_order(q)
    assert -(-n // (62 // (q - 1).bit_length())) == keys
    rng = np.random.default_rng(n)
    words = np.stack([np.unique(rng.integers(0, q, size=(40, n)), axis=0)
                      [:32] for _ in range(3)])
    words[1, 5] = words[0, 7]  # two codes of one stack share a word
    assert simulator._check_books(field, words).shape == words.shape
    words[2, 31] = words[2, 0]
    with pytest.raises(ValueError, match="^codewords must be distinct$"):
        simulator._check_books(field, words)
    with pytest.raises(ValueError, match="^codewords must be distinct$"):
        Codebook(field=field, words=words[2])
    assert Codebook(field=field, words=words[2, 1:]).size == 31


# ---------------------------------------------------------------------------
# coset inputs


def _nullspace_by_digits(field, basis):
    """Word w = sum_j digit_j(w) basis_j, digit 0 fastest, one at a time."""
    k, n = basis.shape
    words = []
    for w in range(field.q ** k):
        word = np.zeros(n, dtype=np.int64)
        for j in range(k):
            word = field.add(word, field.mul((w // field.q ** j) % field.q,
                                             basis[j]))
        words.append(word)
    return np.array(words).reshape(-1, n)


@pytest.mark.parametrize("q,k,n,codes", [(2, 5, 7, 3), (3, 3, 5, 2),
                                         (4, 3, 6, 4), (257, 1, 3, 2)])
def test_enumerate_nullspace_matches_digit_sums(monkeypatch, q, k, n, codes):
    # a small fill block splits every coefficient's copy into many blocks;
    # q = 257 fills uint16 words
    field = field_from_order(q)
    basis = np.random.default_rng(q).integers(0, q, size=(codes, k, n))
    want = np.stack([_nullspace_by_digits(field, b) for b in basis])
    for block in (simulator._FILL_BLOCK, 2 * n):
        monkeypatch.setattr(simulator, "_FILL_BLOCK", block)
        got = simulator._enumerate_nullspace(field, basis)
        assert got.dtype == field.symbol_dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 251])
def test_coset_enumeration_matches_field_add(monkeypatch, q):
    # the coset words are the digit-sum nullspace words plus the coset
    # through FieldSpec.add, word for word; at q = 251 two symbols sum
    # past 255, which a wrapping uint8 add gets wrong.  A small fill block
    # splits the add-table route (q = 9) into many blocks.
    field = field_from_order(q)
    k = 1 if q > 9 else 3
    rng = np.random.default_rng(q)
    basis = rng.integers(1, q, size=(3, k, 6))
    cosets = rng.integers(0, q, size=(3, 6))
    cosets[:, 0] = q - 1
    words = np.stack([_nullspace_by_digits(field, b) for b in basis])
    want = field.add(words, cosets[:, None, :])
    assert q < 251 or (words + cosets[:, None, :]).max() > 255
    for block in (simulator._FILL_BLOCK, 12):
        monkeypatch.setattr(simulator, "_FILL_BLOCK", block)
        got = simulator._enumerate_nullspace(field, basis, cosets)
        assert got.dtype == field.symbol_dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 3, 4, 16, 256])
def test_enumerate_nullspace_is_uint8(q):
    field = field_from_order(q)
    basis = np.ones((1, 1, 4), dtype=np.int64)
    assert simulator._enumerate_nullspace(field, basis).dtype == np.uint8


def test_enumerate_nullspace_peak_memory():
    # 2^16 words of 32 symbols: 2 MB of uint8 output, filled in place
    basis = np.random.default_rng(0).integers(0, 2, size=(1, 16, 32))
    tracemalloc.start()
    try:
        words = simulator._enumerate_nullspace(F2, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.shape == (1, 1 << 16, 32)
    assert peak <= 1.25 * words.nbytes


def test_build_inputs_consistency():
    g = sample_graph(6, 3, 6, F2, seed=7)
    cb = build_inputs(enumerate_codebook(g, 0.5, 0), 9, binary_quantizer())
    shifted = F2.add(cb.words, cb.coset[None, :])
    assert np.array_equal(cb.inputs, cb.quantizer.apply(shifted))
    # an identity assignment makes the coset words the inputs, uncopied
    assert simulator._quantize(cb.quantizer, shifted) is shifted
    # same coset seed reproduces the same shift vector on another book
    g2 = sample_graph(6, 3, 6, F2, seed=8)
    cb2 = build_inputs(enumerate_codebook(g2, 0.5, 0), 9, binary_quantizer())
    assert np.array_equal(cb.coset, cb2.coset)
    cb3 = build_inputs(enumerate_codebook(g2, 0.5, 0), 10, binary_quantizer())
    assert not np.array_equal(cb.coset, cb3.coset)


def test_build_inputs_field_mismatch():
    g = sample_graph(6, 3, 6, F2, seed=7)
    cb = enumerate_codebook(g, 0.5, 0)
    qz4 = make_quantizer(F4, InputPmf.from_values(["1/4", "3/4"]))
    with pytest.raises(ValueError, match="quantizer field"):
        build_inputs(cb, 0, qz4)


def test_coset_marginal_matches_induced_pmf():
    """Across coset draws each input symbol is the quantizer push-forward
    of a uniform field symbol: chi-square against (1/4, 3/4) over GF(4).

    Frozen seeds; sized so p > 0.001 with ~4 sigma to spare.
    """
    g = sample_graph(4, 2, 4, F4, seed=2)
    cb = enumerate_codebook(g, 0.5, seed=0)
    qz = make_quantizer(F4, InputPmf.from_values(["1/4", "3/4"]))
    counts = np.zeros(2)
    draws = 6000
    for t in range(draws):
        full = build_inputs(cb, 1000 + t, qz)
        counts += np.bincount(full.inputs[0], minlength=2)
    total = draws * cb.n
    chi2, p = sps.chisquare(counts, [total / 4, 3 * total / 4])
    assert p > 0.001


# ---------------------------------------------------------------------------
# ML decoding


def frozen_binary_codebook():
    g = sample_graph(6, 3, 6, F2, seed=7)
    return build_inputs(enumerate_codebook(g, 0.5, 0), 9, binary_quantizer())


def test_ml_decode_noiseless_recovers_message():
    cb = frozen_binary_codebook()
    ch = noiseless(2)
    for m in range(cb.size):
        assert ml_decode(ch, cb, cb.inputs[m], seed=0) == m


def test_ml_decode_duplicate_inputs_split_evenly():
    # two distinct codewords mapped onto identical channel inputs: the
    # decoder must split 10^4 tie-breaks 50/50 (3 sigma = 150)
    cb = Codebook(field=F2, words=np.array([[0] * 4, [1] * 4]),
                  inputs=np.zeros((2, 4), dtype=np.int64))
    ch = noiseless(2)
    y = np.zeros(4, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=[99, 0]))
    wins = sum(ml_decode(ch, cb, y, rng=rng) for _ in range(10_000))
    assert abs(wins - 5000) <= 150


def test_ml_decode_equidistant_tie_uniform():
    # y = (0, 1) sits at Hamming distance 1 from both 00 and 11; the two
    # log-likelihood sums agree to rounding, and the 1e-9 tie tolerance
    # must see the tie and break it uniformly
    cb = Codebook(field=F2, words=np.array([[0, 0], [1, 1]]),
                  inputs=np.array([[0, 0], [1, 1]]))
    ch = bsc("1/10")
    assert ch.w_exact is not None
    y = np.array([0, 1])
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    wins = sum(ml_decode(ch, cb, y, rng=rng) for _ in range(10_000))
    assert abs(wins - 5000) <= 150


def test_ml_decode_impossible_output_ties_all_candidates():
    # y = 001 cannot come out of the noiseless channel from either 000 or
    # 111: every candidate has likelihood 0, so all of them tie, however
    # many impossible symbols each one has
    cb = Codebook(field=F2, words=np.array([[0, 0, 0], [1, 1, 1]]),
                  inputs=np.array([[0, 0, 0], [1, 1, 1]]))
    y = np.array([0, 0, 1])
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    wins = sum(ml_decode(noiseless(2), cb, y, rng=rng) for _ in range(10_000))
    assert abs(wins - 5000) <= 150


@pytest.mark.parametrize("trials,cands", [(1, 1), (40, 2), (300, 7),
                                          (64, 300)])
def test_ml_decide_matches_per_row_tie_break(trials, cands):
    # integer scores make most rows tie; some rows get a unique best, some
    # a near-tie inside the tolerance, some an output impossible under
    # every candidate.  Three codes are decided as one stack, code c
    # breaking its ties from its own generator.
    codes = 3
    rng = np.random.default_rng(trials * 1000 + cands)
    ll = -rng.integers(0, 3, size=(codes, trials, cands)).astype(float)
    ll[:, ::5, 0] = 1.0
    ll[:, 1::7] += rng.uniform(0, 0.5e-9, size=(codes, len(ll[0, 1::7]),
                                                 cands))
    ll[:, 2::6] = simulator._LOG_ZERO * (1 + rng.integers(0, 3, size=(
        codes, len(ll[0, 2::6]), cands)))
    for seed in range(3):
        got = [simulator._keyed_rng(seed, 3 + c) for c in range(codes)]
        want = [simulator._keyed_rng(seed, 3 + c) for c in range(codes)]
        top, n_tied, decoded = simulator._ml_decide(ll.copy(), got)
        for c in range(codes):
            expect = oracles.ml_decide_rows(ll[c], want[c],
                                            simulator._TIE_ATOL,
                                            simulator._LOG_ZERO)
            assert np.array_equal(decoded[c], expect)
            assert got[c].random() == want[c].random()
        assert np.array_equal(top, ll.max(axis=2))
    if cands > 1:
        assert 0 < np.sum(n_tied > 1) < codes * trials
        impossible = ll.max(axis=2) <= 0.5 * simulator._LOG_ZERO
        assert np.all(n_tied[impossible] == cands)


# per-letter score matrix width K for n positions: one column per
# position and non-reference letter plus a bias column when some output
# letter has no zero transition, one per position and letter otherwise
SCORE_CHANNELS = {
    "bsc-rational": (lambda: bsc("11/100"), lambda n: n + 1),
    "bsc-float": (lambda: bsc(0.11), lambda n: n + 1),
    "bec": (lambda: DmcModel.from_rows([["1/2", "1/2", "0"],
                                        ["0", "1/2", "1/2"]]),
            lambda n: 2 * n + 1),
    "tsc": (lambda: DmcModel.from_rows([["4/5", "1/10", "1/10"],
                                        ["1/10", "4/5", "1/10"],
                                        ["1/10", "1/10", "4/5"]]),
            lambda n: 2 * n + 1),
    "adder-mac": (binary_adder_mac, lambda n: 3 * n),
    "noiseless2": (lambda: noiseless(2), lambda n: 2 * n),
}


@pytest.mark.parametrize("name", sorted(SCORE_CHANNELS))
def test_scorer_matches_onehot_oracle(name):
    # three codes scored as one stack, each against its own outputs
    make, width = SCORE_CHANNELS[name]
    ch = make()
    w = ch.w.reshape(-1, ch.w.shape[-1])
    logw = simulator._log_table(w)
    rng = np.random.default_rng(len(name))
    codes, n, m = 3, 7, 40
    cand = rng.integers(0, w.shape[0], size=(codes, m, n))
    cand[:, :, 0] = 0  # every candidate sends input 0 first
    ys = np.empty((codes, 300, n), dtype=np.int64)
    for c in range(codes):
        sent = rng.integers(m, size=200)
        ys[c] = np.concatenate([
            simulator._sample_outputs(w, cand[c, sent], rng),
            rng.integers(0, w.shape[1], size=(100, n))])
    # an output that input 0 never yields is impossible under every
    # candidate
    dead = np.flatnonzero(w[0] == 0.0)
    if dead.size:
        ys[:, -1, 0] = dead[0]
    score = simulator._StackScorer(logw, cand)
    assert score.table.shape == (codes, m, width(n))
    got = score(ys)
    n_tied = simulator._ml_decide(
        got, [simulator._keyed_rng(0, 3 + c) for c in range(codes)])[1]
    for c in range(codes):
        want = oracles.log_likelihoods_onehot(logw, cand[c], ys[c])
        finite = want > 0.5 * simulator._LOG_ZERO
        assert np.all(np.abs(got[c][finite] - want[finite]) <= 1e-9)
        assert np.all(got[c][~finite] <= 0.5 * simulator._LOG_ZERO)
        hopeless = ~finite.any(axis=1)
        assert hopeless.any() == bool(dead.size)
        assert np.all(n_tied[c][hopeless] == m)
    # each code's scores are those of the code scored alone
    for c in range(codes):
        alone = simulator._StackScorer(logw, cand[c:c + 1])(ys[c:c + 1])
        assert np.array_equal(alone[0], got[c])
    # the float32 screening scores stay within the proven error bound of
    # every finite score, and impossible ones stay impossible
    screen = simulator._StackScorer(logw, cand, screen=True)
    rough = screen(ys)
    assert rough.dtype == np.float32
    e = (screen.slack - simulator._TIE_ATOL) / 2
    for c in range(codes):
        want = oracles.log_likelihoods_onehot(logw, cand[c], ys[c])
        finite = want > 0.5 * simulator._LOG_ZERO
        assert np.all(np.abs(rough[c][finite] - want[finite]) <= e)
        assert np.all(rough[c][~finite] <= 0.5 * simulator._LOG_ZERO)


# channels for the float32 screen: the score channels, BSC(1/2), where
# every candidate ties, a Z-channel and a skewed 2 x 3 channel with three
# and six distinct finite log levels, and a float channel whose distinct
# scores differ by about 1e-7: inside float32 rounding at these score
# sizes, outside _TIE_ATOL
SCREEN_CHANNELS = {
    **{name: make for name, (make, _) in SCORE_CHANNELS.items()},
    "bsc-half": lambda: bsc("1/2"),
    "z": lambda: DmcModel.from_rows([["1", "0"], ["3/10", "7/10"]]),
    "skew-2x3": lambda: DmcModel.from_rows([[0.7, 0.2, 0.1],
                                            [0.05, 0.35, 0.6]]),
    "near-1e-7": lambda: DmcModel.from_rows([[0.8, 0.2],
                                             [0.2 + 1e-7, 0.8 - 1e-7]]),
}


def _screen_case(ch, m, seed):
    """Three codes of m random candidate words at n = 9, all sending input
    0 first, and 300 output rows each: 200 sent through the channel and
    100 random, of which the last 10, where the channel has zeros, start
    with a letter input 0 never yields, impossible under every candidate;
    and the sent words."""
    w = ch.w.reshape(-1, ch.w.shape[-1])
    rng = np.random.default_rng(seed)
    codes, n = 3, 9
    cand = rng.integers(0, w.shape[0], size=(codes, m, n)).astype(np.uint8)
    cand[:, :, 0] = 0
    sent = rng.integers(m, size=(codes, 300))
    ys = np.empty((codes, 300, n), dtype=np.int64)
    for c in range(codes):
        ys[c, :200] = simulator._sample_outputs(w, cand[c, sent[c, :200]], rng)
        ys[c, 200:] = rng.integers(0, w.shape[1], size=(100, n))
    dead = np.flatnonzero(w[0] == 0.0)
    if dead.size:
        ys[:, -10:, 0] = dead[0]
    return simulator._log_table(w), cand, sent, ys


@pytest.mark.parametrize("m", [1, 40, 600])
@pytest.mark.parametrize("name", sorted(SCREEN_CHANNELS))
def test_screen_matches_dense_oracle(name, m):
    # decisions, tie counts, ties-as-error and the generators' states
    # after the draws match the dense float64 decision of every candidate
    ch = SCREEN_CHANNELS[name]()
    logw, cand, sent, ys = _screen_case(ch, m, len(name) + m)
    score = simulator._StackScorer(logw, cand, screen=True)
    got = [simulator._keyed_rng(5, 3 + c) for c in range(3)]
    n_tied, decoded, beaten = simulator._screen_decide(
        score(ys), sent, got, score.slack,
        functools.partial(score.exact, ys), math.inf)
    hopeless = 0
    for c in range(3):
        ll = oracles.log_likelihoods_onehot(logw, cand[c], ys[c])
        want_rng = simulator._keyed_rng(5, 3 + c)
        want = oracles.ml_decide_rows(ll, want_rng, simulator._TIE_ATOL,
                                      simulator._LOG_ZERO)
        top = ll.max(axis=1)
        dead = top <= 0.5 * simulator._LOG_ZERO
        tied = np.where(dead, m, np.sum(
            ll >= (top - simulator._TIE_ATOL)[:, None], axis=1))
        sent_ll = ll[np.arange(300), sent[c]]
        assert np.array_equal(decoded[c], want)
        assert np.array_equal(n_tied[c], tied)
        assert np.array_equal(beaten[c] | (n_tied[c] > 1),
                              (top > sent_ll + simulator._TIE_ATOL)
                              | (tied > 1))
        assert got[c].random() == want_rng.random()
        hopeless += int(dead.sum())
    assert (hopeless > 0) == bool(np.any(ch.w.reshape(-1, ch.w.shape[-1])[0]
                                         == 0.0))


def test_screen_declines_many_contenders():
    # BSC(1/2) ties every candidate: past ``most`` contenders the screen
    # returns None before drawing, and the block is decided in float64
    logw, cand, sent, ys = _screen_case(bsc("1/2"), 600, 1)
    score = simulator._StackScorer(logw, cand, screen=True)
    rng = [simulator._keyed_rng(5, 3 + c) for c in range(3)]
    assert simulator._screen_decide(score(ys), sent, rng, score.slack,
                                    functools.partial(score.exact, ys),
                                    3 * 300 * 600 - 1) is None
    assert rng[0].random() == simulator._keyed_rng(5, 3).random()
    assert score.dense(ys).dtype == np.float64


@pytest.mark.parametrize("case", [
    ((20, 2, 4, 2), lambda: bsc("11/100"), 3, 200),
    ((20, 2, 4, 2), lambda: bsc("1/2"), 2, 100),
    ((20, 2, 4, 2), SCREEN_CHANNELS["near-1e-7"], 2, 200),
    ((20, 2, 4, 2), SCREEN_CHANNELS["z"], 2, 200),
    ((12, 2, 4, 3), lambda: _TSC, 2, 300),
])
def test_simulate_screened_matches_dense(monkeypatch, case):
    # 1,024 and 729 candidates: the same report screened or not
    ensemble, make, codes, noise = case
    qz = _qz(ensemble[3], [f"1/{ensemble[3]}"] * ensemble[3])
    args = (ensemble, make(), qz, codes, noise, 4)
    assert ensemble[3] ** (ensemble[0] // 2) >= simulator._SCREEN_MIN
    screened = simulate_error(*args)
    monkeypatch.setattr(simulator, "_SCREEN_MIN", 1 << 30)
    assert simulate_error(*args) == screened


@pytest.mark.parametrize("symbol", [-1, 2])
def test_ml_decode_rejects_symbols_outside_alphabet(symbol):
    # a symbol outside [0, |Y|) matches no one-hot column, so it would be
    # scored as the reference letter
    cb = frozen_binary_codebook()
    y = cb.inputs[0].astype(np.int64)  # the inputs are uint8
    y[3] = symbol
    for ch in (bsc("1/10"), noiseless(2)):
        with pytest.raises(ValueError,
                           match=r"output symbols must lie in \[0, 2\)"):
            ml_decode(ch, cb, y)


@pytest.mark.parametrize("symbol", [-1, 5])
def test_ml_decode_rejects_inputs_outside_alphabet(symbol):
    # -1 used to wrap to the last input letter and 5 to raise IndexError
    cb = frozen_binary_codebook()
    inputs = cb.inputs.astype(np.int64)  # the inputs are uint8
    inputs[1, 2] = symbol
    bad = dataclasses.replace(cb, inputs=inputs)
    with pytest.raises(ValueError, match=r"inputs must lie in \[0, 2\)"):
        ml_decode(bsc("1/10"), bad, cb.inputs[0])
    with pytest.raises(ValueError, match=r"inputs must lie in \[0, 2\)"):
        ml_decode(binary_adder_mac(), (cb, bad), cb.inputs[0])


def test_candidates_flatten_wide_mac_inputs_without_overflow():
    # 17 x 17 inputs: a flattened symbol reaches 16 * 17 + 16 = 288 > 255
    mac = MacModel(np.full((17, 17, 2), 0.5))
    x1 = np.array([[16, 0], [3, 16]], dtype=np.uint8)
    x2 = np.array([[16, 1], [0, 7], [15, 16]], dtype=np.uint8)
    cand = simulator._candidates(mac, [x1[None], x2[None]], 2)
    want = (x1.astype(np.int64)[:, None, :] * 17 + x2[None, :, :]).reshape(-1, 2)
    assert cand.dtype == np.uint16
    assert cand.shape == (1, 6, 2)
    assert np.array_equal(cand[0], want)
    assert cand.max() == 288


def test_ml_decode_float_path_matches_exact():
    cb = frozen_binary_codebook()
    exact = bsc("1/20")
    approx_rows = [[0.95, 0.05], [0.05, 0.95]]
    from fblbound.channel import DmcModel
    approx = DmcModel.from_rows(approx_rows)
    assert approx.w_exact is None
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    ys = rng.integers(0, 2, size=(40, 6))
    for y in ys:
        a = ml_decode(exact, cb, y, seed=1)
        b = ml_decode(approx, cb, y, seed=1)
        assert a == b


def test_ml_decode_mac_pair():
    qz = binary_quantizer()
    g1 = sample_graph(4, 2, 4, F2, seed=1)
    g2 = sample_graph(4, 2, 4, F2, seed=2)
    cb1 = build_inputs(enumerate_codebook(g1, 0.5, 0), 10, qz)
    cb2 = build_inputs(enumerate_codebook(g2, 0.5, 0), 11, qz)
    mac = binary_adder_mac()
    y = cb1.inputs[1] + cb2.inputs[2]  # noiseless adder output
    m1, m2 = ml_decode(mac, (cb1, cb2), y, seed=0)
    # the adder output pins down the pair only up to ties; the decoded
    # pair must reproduce the observed sum exactly
    assert np.array_equal(cb1.inputs[m1] + cb2.inputs[m2], y)


def test_ml_decode_validation():
    cb = frozen_binary_codebook()
    with pytest.raises(ValueError, match="output length"):
        ml_decode(noiseless(2), cb, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="no channel inputs"):
        ml_decode(noiseless(2),
                  Codebook(field=F2, words=np.array([[0, 0], [1, 1]])),
                  np.zeros(2, dtype=np.int64))


# ---------------------------------------------------------------------------
# ensemble error simulation


def test_simulate_noiseless_is_zero():
    rep = simulate_error((6, 3, 6, 2), noiseless(2), binary_quantizer(),
                         trials_codes=20, trials_noise=30, seed=1)
    assert rep.value == 0.0
    assert rep.components["ties_as_error_rate"] == 0.0
    assert rep.method == "monte-carlo"
    assert rep.trials == 600


def test_simulate_useless_channel_hits_uniform_guess():
    # BSC(1/2) carries nothing: ensemble error is exactly 1 - 1/M
    rep = simulate_error((4, 2, 4, 2), bsc("1/2"), binary_quantizer(),
                         trials_codes=40, trials_noise=100, seed=3)
    target = 1.0 - 1.0 / rep.num_messages
    assert rep.components["wilson_low"] <= target <= rep.components["wilson_high"]
    assert rep.components["ties_as_error_rate"] >= rep.value


def test_simulate_reproducible():
    args = ((6, 3, 6, 2), bsc("1/20"), binary_quantizer())
    a = simulate_error(*args, trials_codes=10, trials_noise=20, seed=5)
    b = simulate_error(*args, trials_codes=10, trials_noise=20, seed=5)
    assert a.value == b.value
    c = simulate_error(*args, trials_codes=10, trials_noise=20, seed=6)
    assert a.value != c.value or a.components != c.components


def test_simulate_blocks_match_one_block(monkeypatch):
    # BEC(1/2) ties often, so every block draws tie-breaks; 16 candidates
    # by 300 noise trials fit one block by default and split into six
    # blocks of 50 rows here
    bec = DmcModel.from_rows([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
    args = ((8, 2, 4, 2), bec, binary_quantizer(), 5, 300, 9)
    assert 8 * 16 * 300 <= simulator._SCORE_BYTES
    whole = simulate_error(*args)
    monkeypatch.setattr(simulator, "_SCORE_BYTES", 8 * 16 * 50)
    blocked = simulate_error(*args)
    assert blocked == whole
    assert 0.0 < whole.value < whole.components["ties_as_error_rate"]


def test_simulate_peak_memory():
    # 4,096 candidates by 2,000 noise words at n = 24: they are screened,
    # so the score table is 0.4 MB of float32 and each row block of scores
    # 4 MB, and one block is alive at a time, with a copy of an eighth of
    # its rows at a time while their contenders are found (5.8 MB traced;
    # 9.1 MB when all of them were copied at once, 8.0 MB when the table
    # and blocks were float64)
    tracemalloc.start()
    try:
        simulate_error((24, 3, 6, 2), bsc("11/100"), binary_quantizer(),
                       1, 2000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _score_blocks(monkeypatch):
    """A list that gains the shape of every row block of scores decided,
    float64 or screened."""
    blocks = []
    count = simulator._count_errors

    def spy(ll, *args):
        blocks.append(ll.shape)
        return count(ll, *args)

    monkeypatch.setattr(simulator, "_count_errors", spy)
    return blocks


def test_stacked_chunk_scores_within_score_block(monkeypatch):
    # the adder MAC at n = 12 puts 10 trials of 64 x 64 = 4,096 candidates
    # into one chunk.  A trial scores 256 rows per block, as it would
    # alone, so the trials take one product each and a block holds
    # _SCORE_BYTES of screened float32 scores (4 MB); the 500 rows of all
    # ten trials at once would take 82 MB.  The stacked candidates and
    # outputs take 1 MB.
    blocks = _score_blocks(monkeypatch)
    assert len(simulator._chunks(10, (12, 3, 6), 2, 64)) == 1
    tracemalloc.start()
    try:
        simulate_error((12, 3, 6, 2), binary_adder_mac(), (_Q2, _Q2), 10, 500,
                       1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {shape[2] for shape in blocks} == {4096}
    assert sum(shape[0] * shape[1] for shape in blocks) == 10 * 500
    assert max(4 * math.prod(shape) for shape in blocks) \
        <= simulator._SCORE_BYTES
    assert peak < 12e6
    # 21 BSC codes of 64 words share one chunk, and the 200 rows of five
    # of them fit one product of _STACK_SCORES scores
    blocks.clear()
    assert len(simulator._chunks(21, (12, 3, 6), 1, 64)) == 1
    assert 5 * 200 * 64 <= simulator._STACK_SCORES < 6 * 200 * 64
    simulate_error((12, 3, 6, 2), bsc(0.11), _Q2, 21, 200, 1)
    assert blocks == [(5, 200, 64)] * 4 + [(1, 200, 64)]


def test_stacked_chunk_draws_messages_and_outputs_per_stack():
    # 128 codes of 16 words at n = 8 share one chunk, and 4,000 noise rows
    # of 16 candidates fill a stack of one trial.  Drawing every trial's
    # outputs up front would hold 128 x 4,000 x 8 int64 symbols (33 MB);
    # a stack at a time holds one trial's (0.3 MB).
    assert len(simulator._chunks(128, (8, 2, 4), 1, 16)) == 1
    assert 2 * 4000 * 16 > simulator._STACK_SCORES
    tracemalloc.start()
    try:
        simulate_error((8, 2, 4, 2), bsc(0.11), _Q2, 128, 4000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


# ---------------------------------------------------------------------------
# large code trials, one at a time on the calling thread


@pytest.mark.parametrize("codes", [2, 64])
def test_pooled_codes_peak_under_one_inline_code(codes):
    # 2^15 candidates at n = 30 run one code per chunk: each holds a 4.1 MB
    # float32 score table, 1 MB of uint8 candidates, 50 kB of messages and
    # outputs and a 4 MB score block (11.8 MB traced, on numpy 2.4; 14.9 MB
    # when the screen copied all of a block's undecided rows at once, 16.5
    # MB with two codes decoded at once and 20 MB with three).  Codes
    # decode one after another, so 64 of them peak where one does.
    assert len(simulator._chunks(codes, (30, 3, 6), 1, 1 << 15)) == codes
    tracemalloc.start()
    try:
        simulate_error((30, 3, 6, 2), bsc("11/100"), binary_quantizer(),
                       codes, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


_NO_THREADS = """
import dataclasses, json, threading
from fblbound.channel import InputPmf, bsc, make_quantizer
from fblbound.gfq import make_field
from fblbound.simulator import simulate_error

started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self.name) or start(self)
report = simulate_error((24, 3, 6, 2), bsc("11/100"),
                        make_quantizer(make_field(2, 1), InputPmf.uniform(2)),
                        4, 150, 2)
print(json.dumps({"started": started, "active": threading.active_count(),
                  "names": [t.name for t in threading.enumerate()],
                  "report": dataclasses.asdict(report)}))
"""


@pytest.mark.parametrize("blas", ["1", None])
def test_large_codes_start_no_thread(blas):
    # 4,096 candidates at n = 24 run one code per chunk; however many
    # threads BLAS runs on, no Python thread is started and the report is
    # the pinned one
    assert len(simulator._chunks(4, (24, 3, 6), 1, 1 << 12)) == 4
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _NO_THREADS], env=env, capture_output=True,
        text=True, check=True, timeout=120).stdout)
    assert out["started"] == []
    assert out["active"] == 1
    assert not any(name.startswith("fblbound-decode")
                   for name in out["names"])
    assert _digest(out["report"]) == PINNED["bsc_n24"][1]


def test_pool_threads_end_with_the_call():
    # a call leaves the same threads running as before it, and none of
    # them decodes
    before = set(threading.enumerate())
    PINNED["bsc_n24"][0]()
    assert set(threading.enumerate()) == before
    assert not any(t.name.startswith("fblbound-decode")
                   for t in threading.enumerate())


def test_pool_threads_call_no_public_function(monkeypatch):
    # every public function runs on the caller's thread: an outside tracer
    # that wraps them keeps one call stack
    threads = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            threads.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapped

    modules = [m for name, m in sys.modules.items()
               if name.startswith("fblbound.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__.startswith("fblbound.")):
                monkeypatch.setattr(mod, attr, spy(value))
    simulator.simulate_error((24, 3, 6, 2), bsc("11/100"), binary_quantizer(),
                             4, 150, 2)
    names = {name for name, _ in threads}
    assert {"simulate_error", "rank_and_nullspace"} <= names
    assert all(t is threading.main_thread() for _, t in threads)


def test_simulated_error_below_bounds():
    """Ensemble-average ML error vs the analytic bounds it must respect:
    the 95% lower confidence limit stays under both composed bounds."""
    n, lam, rho, q = 8, 3, 6, 2
    dmc = bsc("1/20")
    qz = binary_quantizer()
    rep = simulate_error((n, lam, rho, q), dmc, qz,
                         trials_codes=200, trials_noise=200, seed=17)
    num = 2 ** (n - n * lam // rho)
    table = ldpc_spectrum_table(n, lam, rho, q, 1)
    log_a, _ = alpha_log(table, num)
    rcu = ldpc_rcu_ppc(dmc, qz, n, lam, rho, log_alpha=log_a)
    handled = [t for t in table.entries if t != (n, 0)]
    kmac = kmac_exponent_bound(
        rate=0.5, t_set=handled, spectrum_table=table,
        alpha_mac=math.exp(log_a), channel=dmc, quantizer=qz,
    )
    low = rep.components["wilson_low"]
    assert low <= rcu.value
    assert low <= kmac.value


def test_simulate_mac_modes():
    mac = binary_adder_mac()
    qz = binary_quantizer()
    indep = simulate_error((4, 2, 4, 2), mac, (qz, qz), trials_codes=30,
                           trials_noise=60, seed=4)
    shared = simulate_error((4, 2, 4, 2), mac, (qz, qz), trials_codes=30,
                            trials_noise=60, seed=4, same_coset=True)
    assert indep.num_messages == 16
    assert 0.0 <= indep.value <= 1.0
    assert 0.0 <= shared.value <= 1.0
    assert indep.components["ties_as_error_rate"] >= indep.value


def test_simulate_validation():
    qz = binary_quantizer()
    with pytest.raises(ValueError, match="same_coset"):
        simulate_error((6, 3, 6, 2), bsc("1/20"), qz, 2, 2, 0,
                       same_coset=True)
    with pytest.raises(ValueError, match="two quantizers"):
        simulate_error((4, 2, 4, 2), binary_adder_mac(), qz, 2, 2, 0)
    qz4 = make_quantizer(F4, InputPmf.from_values(["1/4", "3/4"]))
    with pytest.raises(ValueError, match="ensemble q"):
        simulate_error((6, 3, 6, 2), bsc("1/20"), qz4, 2, 2, 0)
    with pytest.raises(ValueError, match="at least one code"):
        simulate_error((6, 3, 6, 2), bsc("1/20"), qz, 0, 5, 0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*63\)"):
            simulate_error((6, 3, 6, 2), bsc("1/20"), qz, 1, 1, seed)


# ---------------------------------------------------------------------------
# empirical spectrum


def test_empirical_spectrum_zero_type_is_one():
    tab = empirical_spectrum((6, 3, 6, 2), trials=100, seed=5)
    assert tab.kind == "empirical"
    assert tab.log_value((6, 0)) == 0.0  # the zero word is always there


def test_empirical_spectrum_matches_analytic_table():
    """Sampled per-type means vs the exact finite-n ensemble average,
    within 3 standard errors per type (variance floored at the predicted
    mean to cover types with no observed words)."""
    pred = ldpc_spectrum_table(6, 3, 6, 2, 1)
    tab, stats = empirical_spectrum((6, 3, 6, 2), trials=3000, seed=13,
                                    return_stats=True)
    for t, lv in pred.entries.items():
        pm = math.exp(lv) if lv != -math.inf else 0.0
        em, var, trials = stats[t]
        if pm == 0.0:
            assert em == 0.0  # structurally impossible types never appear
            continue
        se = math.sqrt(max(var, pm) / trials)
        assert abs(em - pm) <= 3.0 * se


def test_empirical_spectrum_post_removal_totals():
    tab = empirical_spectrum((6, 3, 6, 2), trials=60, seed=8,
                             post_removal=True)
    assert tab.kind == "empirical-post-removal"
    total = sum(math.exp(v) for v in tab.entries.values() if v != -math.inf)
    assert abs(total - 8.0) < 1e-9  # every trial keeps exactly 2^{nR} words


def test_empirical_spectrum_two_users():
    tab = empirical_spectrum((4, 2, 4, 2), trials=40, seed=2, num_users=2)
    assert tab.num_users == 2
    assert tab.log_value((4, 0, 0, 0)) == 0.0  # all-zero pair matrix
    # tuple counts factor over the two independent graphs, so the total
    # equals the product of the two nullspace sizes on average; at least
    # it must dominate the zero-type count
    total = sum(math.exp(v) for v in tab.entries.values() if v != -math.inf)
    assert total >= 16.0  # both graphs have >= 2^{n-r} words each trial


def test_empirical_spectrum_validation():
    with pytest.raises(ValueError, match="at least one trial"):
        empirical_spectrum((6, 3, 6, 2), trials=0, seed=0)
    with pytest.raises(ValueError, match="1 or 2"):
        empirical_spectrum((6, 3, 6, 2), trials=5, seed=0, num_users=3)


@pytest.mark.parametrize("params", [
    (12.9, 3, 6, 2), (12.0, 3, 6, 2), (12, 3.5, 6, 2), (12, 3, "6", 2),
    (12, 3, 6, 2.0)])
@pytest.mark.parametrize("use", [
    lambda p: simulate_error(p, bsc("1/20"), binary_quantizer(), 1, 1, 0),
    lambda p: empirical_spectrum(p, trials=1, seed=0),
    lambda p: actual_rate_stats(p, 1, 0)],
    ids=["simulate_error", "empirical_spectrum", "actual_rate_stats"])
def test_fractional_ensemble_entry_is_refused(use, params):
    # int() would truncate 12.9 to a 12-symbol design
    with pytest.raises(ValueError, match=r"q\) must be integers, got \(12"):
        use(params)


def test_numpy_integer_ensemble_entries_are_accepted():
    params = (np.int64(12), np.int32(3), np.uint8(6), np.int16(2))
    assert actual_rate_stats(params, 2, 1) == actual_rate_stats(
        (12, 3, 6, 2), 2, 1)


# ---------------------------------------------------------------------------
# minimum distance


def test_min_distance_pair():
    cb = Codebook(field=F2, words=np.array([[0, 0], [1, 1]]))
    assert min_distance(cb) == 2


def test_min_distance_repetition_instance():
    # var_degree == check_degree == 2 with a frozen full-deficiency seed:
    # the nullspace is {0, all-ones}, so the distance is the blocklength
    g = sample_graph(4, 2, 2, F2, seed=0)
    rank, _ = rank_and_nullspace(g.check_matrix())
    assert rank == 3
    cb = enumerate_codebook(g, 0.25, seed=0)  # nR = 1: both nullspace words
    assert cb.size == 2
    assert min_distance(cb) == 4


def test_min_distance_mac_equals_single():
    # same codebook on both adder inputs: tuple-level row differences
    # bottom out at the single-book minimum distance (checked both via
    # the op and an explicit brute-force scan)
    cb = frozen_binary_codebook()
    d_single = min_distance(cb)
    d_mac = min_distance((cb, cb))
    assert d_mac == d_single
    best = cb.n + 1
    for a in range(cb.size):
        for b in range(cb.size):
            for c in range(cb.size):
                for d in range(cb.size):
                    if a == b and c == d:
                        continue
                    diff = (cb.words[a] != cb.words[b]) | \
                        (cb.words[c] != cb.words[d])
                    best = min(best, int(diff.sum()))
    assert d_mac == best


def _pair_loop_distance(words):
    return min(int((words[i + 1:] != words[i]).sum(axis=1).min())
               for i in range(len(words) - 1))


def _distinct_words(rng, q, m, n):
    return (rng.choice(q ** n, size=m, replace=False)[:, None]
            // q ** np.arange(n)) % q


@pytest.mark.parametrize("block", [1, 50, 1 << 22])
def test_min_distance_blocks_match_pair_loop(monkeypatch, block):
    monkeypatch.setattr(simulator, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(11)
    for q, m, n in [(2, 40, 12), (4, 33, 9), (3, 60, 20)]:
        words = np.unique(rng.integers(0, q, size=(m, n)), axis=0)
        rng.shuffle(words)
        cb = Codebook(field=field_from_order(q), words=words)
        assert min_distance(cb) == _pair_loop_distance(words)
    assert min_distance(Codebook(field=F2, words=np.array([[1], [0]]))) == 1
    # the stacked kernel of cmd_simulate: random codes of one size per
    # (q, codes, m, n), each code against the pair loop
    for q, codes, m, n in [(2, 7, 20, 8), (3, 5, 30, 6), (4, 6, 17, 5),
                           (2, 3, 2, 1)]:
        words = np.stack([_distinct_words(rng, q, m, n)
                          for _ in range(codes)])
        got = simulator._min_distances(words.astype(np.uint8))
        assert got.tolist() == [_pair_loop_distance(w) for w in words]


@pytest.mark.parametrize("q", [257, 1 << 16])
def test_min_distance_work_and_memory_do_not_grow_with_q(q):
    # 100 words of length 8: the scan compares 100^2 x 8 symbol pairs, in
    # a few kB, whatever the alphabet.  A one-hot product over n q columns
    # would take 210 MB at q = 2^16.
    rng = np.random.default_rng(q)
    words = np.unique(rng.integers(0, q, size=(100, 8)), axis=0)
    words[1] = words[0]
    words[1, 3] = (words[0, 3] + 1) % q
    stack = words.astype(np.min_scalar_type(q - 1))[None]
    book = Codebook(field=field_from_order(q), words=words) if q < 512 else None
    tracemalloc.start()
    try:
        got = simulator._min_distances(stack).tolist()
        if book is not None:
            got.append(min_distance(book))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _pair_loop_distance(words) == 1
    assert got == [1] * (1 + (book is not None))
    assert peak < 1e6


def test_min_distance_guards():
    with pytest.raises(ValueError, match="two codewords"):
        min_distance(Codebook(field=F2, words=np.zeros((1, 3), dtype=np.int64)))
    words = np.concatenate(
        [np.eye(1000, dtype=np.int64)[:512], np.zeros((1, 1000), dtype=np.int64)]
    )
    big = Codebook(field=F2, words=words)
    with pytest.raises(ValueError, match="operation guard"):
        min_distance((big, big))


# ---------------------------------------------------------------------------
# actual-rate statistics


def test_rate_gap_positive_for_degenerate_degrees():
    # var_degree == check_degree makes the all-ones vector orthogonal to
    # every row, so the rank deficiency is certain
    st = actual_rate_stats((6, 2, 2, 2), trials=50, seed=3)
    assert st.design_rate == 0.0
    assert st.mean_gap >= 1.0 / 6.0
    assert st.tail_probs[0] == 1.0  # every draw exceeds eps = 1/(2n)


def test_rate_gap_tail_envelope():
    # empirical tail of R_C - R against the q^{-n eps / 2} envelope
    st = actual_rate_stats((12, 3, 6, 2), trials=2000, seed=11)
    for eps, tail in zip(st.eps_grid, st.tail_probs):
        assert tail <= 2.0 ** (-12 * eps / 2.0) + 1e-12


def test_rate_gap_decreases_with_blocklength():
    gaps = []
    sizes = (6, 12, 24)
    for n in sizes:
        st = actual_rate_stats((n, 3, 6, 2), trials=400, seed=21)
        gaps.append(st.mean_gap)
    assert gaps[0] > gaps[1] > gaps[2]
    slope = np.polyfit(sizes, gaps, 1)[0]
    assert slope < 0.0


def test_rate_gap_validation():
    with pytest.raises(ValueError, match="at least one trial"):
        actual_rate_stats((6, 3, 6, 2), trials=0, seed=0)


def test_mac_min_distance_matches_pair_loop():
    # brute force over message pairs, with words shared between the users
    rng = np.random.default_rng(5)
    for q, n in [(2, 8), (4, 5)]:
        f = field_from_order(q)
        for _ in range(6):
            w1 = np.unique(rng.integers(0, q, size=(7, n)), axis=0)
            w2 = np.unique(np.concatenate(
                [w1[:2], rng.integers(0, q, size=(4, n))]), axis=0)
            assert min_distance((Codebook(f, w1), Codebook(f, w2))) == \
                oracles.mac_min_distance_pairs(w1, w2)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("q, m1, m2", [(2, 3, 5), (2, 16, 4), (3, 5, 3)])
def test_mac_min_distance_matches_oracle_unequal_books(q, m1, m2, n):
    rng = np.random.default_rng(100 * m1 + 10 * m2 + n)
    f = field_from_order(q)
    for _ in range(4):
        w1, w2 = _distinct_words(rng, q, m1, n), _distinct_words(rng, q, m2, n)
        assert min_distance((Codebook(f, w1), Codebook(f, w2))) == \
            oracles.mac_min_distance_pairs(w1, w2)


def test_mac_min_distance_holds_one_message_fixed():
    # user 1 has two words at distance 1 and user 2's words lie 2 apart,
    # so only pairs that keep user 2's message reach distance 1; a mask
    # that dropped every pair with one message fixed would read 2
    close = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1]])
    even = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0],
                     [1, 0, 0, 1], [0, 1, 1, 0]])
    for w1, w2 in [(close, even), (even, close)]:
        assert oracles.mac_min_distance_pairs(w1, w2) == 1
        assert min_distance((Codebook(F2, w1), Codebook(F2, w2))) == 1


def test_guard_messages_name_count_and_limit():
    words = (np.arange(10_000)[:, None] >> np.arange(14)[None, :]) & 1
    with pytest.raises(GuardError, match=r"^pair scan exceeds the operation "
                       r"guard: 1400000000 > 1000000000$"):
        min_distance(Codebook(F2, words))
    book = Codebook(F2, words[:100, :11])
    with pytest.raises(GuardError, match=r"^pair scan exceeds the operation "
                       r"guard: 1100000000 > 1000000000$"):
        min_distance((book, book))
    with pytest.raises(GuardError, match=r"^codematrix tuple count exceeds "
                       r"the guard: \d+ > 1000000$"):
        empirical_spectrum((24, 3, 6, 2), 1, 0, num_users=2)


# ---------------------------------------------------------------------------
# one elimination stack per chunk of trials


def _plain(x):
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _plain(getattr(x, f.name))
                for f in dataclasses.fields(x)
                if f.name not in ("field", "quantizer")}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    return x


def _digest(x) -> str:
    """Digest of a result's JSON form: every float at full precision."""
    text = json.dumps(_plain(x), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _qz(q, probs):
    return make_quantizer(field_from_order(q), InputPmf.from_values(probs))


_BEC = DmcModel.from_rows([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
_TSC = DmcModel.from_rows([["8/10", "1/10", "1/10"], ["1/10", "8/10", "1/10"],
                           ["1/10", "1/10", "8/10"]])
_Q2 = _qz(2, ["1/2", "1/2"])

# outputs of the graph-at-a-time simulator, recorded before the stacked
# elimination replaced it; (8, 2, 4) codes over GF(2) are always rank
# deficient, so their trims draw from the trial generators
PINNED = {
    "sim_q2": (lambda: simulate_error((8, 2, 4, 2), _BEC, _Q2, 20, 50, 3),
               "a78f89f149c5f4e3"),
    "sim_q3": (lambda: simulate_error(
        (12, 2, 4, 3), _TSC, _qz(3, ["1/3", "1/3", "1/3"]), 12, 40, 5),
               "9b6f4e0f51b8a0c5"),
    "sim_q4": (lambda: simulate_error(
        (8, 2, 4, 4), bsc("1/10"), _qz(4, ["1/4", "3/4"]), 10, 40, 6),
               "841b6ed4d398e51f"),
    "sim_mac": (lambda: simulate_error(
        (8, 2, 4, 2), binary_adder_mac(), (_Q2, _Q2), 10, 40, 4),
                "5552c53da6c8d5a0"),
    "sim_mac_shared": (lambda: simulate_error(
        (8, 2, 4, 2), binary_adder_mac(), (_Q2, _Q2), 10, 40, 4,
        same_coset=True), "9e2f954e8fa1b512"),
    "spec_k1": (lambda: empirical_spectrum(
        (8, 2, 4, 2), 200, 7, return_stats=True), "0ee8a7b52c22e49c"),
    "spec_k1_q3": (lambda: empirical_spectrum(
        (8, 2, 4, 3), 50, 9, return_stats=True), "3ed540966321a069"),
    "spec_k2": (lambda: empirical_spectrum(
        (4, 2, 4, 2), 30, 2, num_users=2, return_stats=True),
                "5d2fd253cfb12004"),
    "spec_post": (lambda: empirical_spectrum(
        (8, 2, 4, 2), 100, 8, post_removal=True, return_stats=True),
                  "f5f5e90fbd69d1ff"),
    "rate_q2": (lambda: actual_rate_stats((12, 3, 6, 2), 300, 11),
                "c6eca6cb81be1387"),
    "rate_q3": (lambda: actual_rate_stats((12, 2, 4, 3), 100, 4),
                "58daa7557c0b9f80"),
    # recorded when large codes were decoded several at once on a thread
    # pool, alike with it on and off: BSC codes of 2^12 and 2^15 words (one
    # per chunk), ternary codes of 729 words and adder-MAC codes of 64
    # words per user (several to a chunk)
    "bsc_n24": (lambda: simulate_error((24, 3, 6, 2), bsc("11/100"),
                                       binary_quantizer(), 4, 150, 2),
                "d07a4c9d4541c550"),
    "bsc_n30": (lambda: simulate_error((30, 3, 6, 2), bsc("11/100"),
                                       binary_quantizer(), 3, 200, 1),
                "ea0598dff3f0e401"),
    "ternary_n12": (lambda: simulate_error(
        (12, 2, 4, 3), _TSC, _qz(3, ["1/3", "1/3", "1/3"]), 5, 100, 4),
                    "9163f8417b8e0da1"),
    "adder_mac": (lambda: simulate_error(
        (12, 3, 6, 2), binary_adder_mac(), (_Q2, _Q2), 4, 60, 6),
                  "440dc3a811d12c11"),
    "adder_mac_shared": (lambda: simulate_error(
        (12, 3, 6, 2), binary_adder_mac(), (_Q2, _Q2), 4, 60, 6,
        same_coset=True), "19084aa6eb0eace6"),
    # recorded when the coset words were the nullspace words plus the coset
    # through FieldSpec.add: one screened code family per field route of
    # the enumeration, GF(5) (add mod p), GF(8) (XOR) and GF(9) (the add
    # table), each through a quantizer that is not the identity
    "sim_q5": (lambda: simulate_error(
        (8, 2, 4, 5), _TSC, _qz(5, ["1/5", "2/5", "2/5"]), 6, 100, 7),
               "78a3fa4490ab02ec"),
    "sim_q8": (lambda: simulate_error(
        (6, 2, 4, 8), bsc("1/10"), _qz(8, ["1/4", "3/4"]), 6, 100, 8),
               "4d20d1ee3b55883c"),
    "sim_q9": (lambda: simulate_error(
        (6, 2, 4, 9), _TSC, _qz(9, ["1/3", "1/3", "1/3"]), 4, 100, 9),
               "1837bd548d66499e"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_pinned(name):
    run, want = PINNED[name]
    assert _digest(run()) == want


@pytest.mark.parametrize("mac,want", [(False, "5960987973cb7927"),
                                      (True, "3be1cd14ef08861f")])
def test_cmd_simulate_pinned(tmp_path, mac, want):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(mac_to_json(binary_adder_mac()) if mac
                               else dmc_to_json(bsc("11/100"))))
    args = (10, 20, 3) if mac else (30, 30, 5)
    assert _digest(cmd_simulate(str(path), 2, 2, 4, 8, *args,
                                mac=mac)) == want


def test_pinned_cases_use_trims_and_stacks():
    ranks = [rank_and_nullspace(sample_graph(8, 2, 4, F2, s).check_matrix())[0]
             for s in range(20)]
    assert max(ranks) < 4  # every (8, 2, 4) binary code is trimmed
    assert len(simulator._chunks(20, (8, 2, 4), 1, 16)) == 1


def _record_stacks(monkeypatch):
    seen = []

    def recording(mat):
        seen.append(mat.data.copy())
        return rank_and_nullspace(mat)

    monkeypatch.setattr(simulator, "rank_and_nullspace", recording)
    return seen


def _cmd_simulate_here(mac):
    """cmd_simulate on a channel file written into the working directory:
    the error run, then the d_min draws (one stack holding every user's
    graph of a trial), then the rate-gap statistics."""
    path = "adder.json" if mac else "bsc.json"
    with open(path, "w") as fh:
        json.dump(mac_to_json(binary_adder_mac()) if mac
                  else dmc_to_json(bsc("11/100")), fh)
    if mac:
        return cmd_simulate(path, 2, 2, 4, 8, 5, 20, 3, mac=True)
    return cmd_simulate(path, 2, 3, 6, 12, 7, 30, 5)


# each case with the users of its elimination phases: a phase of K users
# stacks user 1's graphs, then user 2's
CHUNKED = [
    ((1,), lambda: simulate_error((8, 2, 4, 2), _BEC, _Q2, 7, 30, 3)),
    ((1,), lambda: simulate_error((12, 2, 4, 3), _TSC,
                                  _qz(3, ["1/3", "1/3", "1/3"]), 5, 20, 5)),
    ((2,), lambda: simulate_error((8, 2, 4, 2), binary_adder_mac(),
                                  (_Q2, _Q2), 5, 20, 4, same_coset=True)),
    ((1,), lambda: empirical_spectrum((8, 2, 4, 2), 9, 8, post_removal=True,
                                      return_stats=True)),
    ((2,), lambda: empirical_spectrum((4, 2, 4, 2), 6, 2, num_users=2)),
    ((1,), lambda: actual_rate_stats((12, 3, 6, 2), 11, 11)),
    ((1, 1, 1), lambda: _cmd_simulate_here(False)),
    ((2, 1, 1), lambda: _cmd_simulate_here(True)),
]


@pytest.mark.parametrize("case", range(len(CHUNKED)))
def test_chunks_of_one_trial_match_one_chunk(monkeypatch, tmp_path, case):
    # the graphs reach the elimination in trial order however the trials
    # are chunked, and the results (the d_min histogram too) do not move
    monkeypatch.chdir(tmp_path)
    phases, run = CHUNKED[case]
    seen = _record_stacks(monkeypatch)
    monkeypatch.setattr(simulator, "_STACK_ENTRIES", 1)
    single = run()
    singles = list(seen)
    seen.clear()
    monkeypatch.setattr(simulator, "_STACK_ENTRIES", 1 << 40)
    whole = run()
    assert _digest(single) == _digest(whole)
    if isinstance(whole, dict):
        assert whole["dmin_histogram"] == single["dmin_histogram"]
        assert sum(whole["dmin_histogram"].values()) == (
            whole["report"]["components"]["trials_codes"])
    assert len(seen) == sum(phases)
    trials = len(singles) // sum(phases)
    assert trials > 1 and len(singles) == trials * sum(phases)
    for users in phases:
        stacks, seen = seen[:users], seen[users:]
        part, singles = singles[:trials * users], singles[trials * users:]
        assert users in (1, 2)
        for j, stack in enumerate(stacks):
            assert np.array_equal(np.concatenate(part[j::users]), stack)
