"""Monte Carlo cross-validation of the bounds on sampled sparse-graph codes.

Samples regular bipartite graphs with uniformly permuted sockets and
uniform nonzero edge labels, enumerates the resulting coset codebooks,
pushes them through a quantizer onto the channel alphabet, and measures
exhaustive-ML error rates, empirical spectra, minimum distances, and
actual-rate statistics.

Scale guards: everything here is exhaustive (codebook enumeration and ML
search), sized for desk experiments; guards fail fast with the limit in
the message.  Randomness is keyed: every public op takes an integer seed,
and multi-trial drivers give trial t its own counter-based stream, so
results are reproducible and trials are isolated.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import GuardError
from .channel import DmcModel, MacModel, Quantizer
from .fbl import BoundReport, _keyed_rng, _sample_outputs
from .gfq import FieldSpec, GfMatrix, field_from_order, rank_and_nullspace
from .spectrum import (SpectrumTable, _compositions, _ldpc_checks,
                       _num_compositions)

_ENUM_GUARD = 1 << 20
_TUPLE_GUARD = 1_000_000  # codeword pairs of a two-user spectrum trial
_PAIR_OPS_GUARD = 10 ** 9
_PAIR_BLOCK = 1 << 22  # symbol comparisons per block of the pair scan
# bytes of candidate scores per row block (at least 16 rows): 2^19
# float64 scores, or 2^20 screened float32 ones
_SCORE_BYTES = 1 << 22
_STACK_SCORES = 1 << 16  # scores of the trials stacked into one product
# candidates from which a code's rows are screened in float32 (see
# ``_StackScorer``): below it the screen and its re-scoring cost more than
# the float64 bytes they save
_SCREEN_MIN = 512
_FILL_BLOCK = 1 << 14  # symbols per row block of a codebook fill
# entries per elimination stack, and per chunk of codebooks held at once:
# the README's n = 12 codes run 85 to a chunk, so a chunk's fixed costs
# are paid for 85 codes, not 21 as at 2^16; the benchmark's sim-sample
# peak RSS grows by 2.3 MB (42.8 to 45.1 MB) for it
_STACK_ENTRIES = 1 << 18
_TIE_ATOL = 1e-9
_LOG_ZERO = -1e30  # stand-in for log 0; keeps impossible words out of ties
_WILSON_Z = 1.96


# ---------------------------------------------------------------------------
# graphs and codebooks

@dataclass(frozen=True)
class TannerGraph:
    """Regular bipartite graph: n variable nodes of degree var_degree,
    n var_degree / check_degree check nodes, a socket permutation, and a
    nonzero field label per socket."""

    n: int
    var_degree: int
    check_degree: int
    field: FieldSpec
    perm: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "perm", np.asarray(self.perm, dtype=np.int64))
        object.__setattr__(self, "labels",
                           np.asarray(self.labels, dtype=np.int64))
        _ldpc_checks(self.n, self.var_degree, self.check_degree)
        m = self.n * self.var_degree
        if self.perm.shape != (m,) or not np.array_equal(
            np.sort(self.perm), np.arange(m)
        ):
            raise ValueError("perm must be a bijection on the sockets")
        if self.labels.shape != (m,):
            raise ValueError("need one label per socket")
        if np.any(self.labels < 1) or np.any(self.labels >= self.field.q):
            raise ValueError("labels must be nonzero field elements")

    @property
    def num_checks(self) -> int:
        return _ldpc_checks(self.n, self.var_degree, self.check_degree)

    @property
    def num_sockets(self) -> int:
        return self.n * self.var_degree

    def check_matrix(self) -> GfMatrix:
        """Parity-check matrix (see ``_check_stack``)."""
        return GfMatrix(self.field, _check_stack(
            self.n, self.var_degree, self.check_degree, self.field,
            self.perm[None, :], self.labels[None, :])[0])


def _check_stack(n, var_degree, check_degree, field, perms, labels):
    """(graphs, checks, n) parity-check matrices, one per row of ``perms``
    and ``labels``: socket s of variable s // var_degree lands in check
    perm[s] // check_degree; parallel edges add labels (digitwise mod p)."""
    graphs, sockets = perms.shape
    digits = np.zeros((graphs, sockets // check_degree, n, field.m),
                      dtype=np.int64)
    np.add.at(digits, (np.arange(graphs)[:, None], perms // check_degree,
                       np.arange(sockets)[None, :] // var_degree),
              field._digit[labels])
    return field._from_digits(np.remainder(digits, field.p, out=digits))


def _draw_graph(rng, sockets: int, q: int):
    """A uniform socket permutation, then (for q > 2) uniform nonzero
    labels, drawn from ``rng``."""
    perm = rng.permutation(sockets)
    if q == 2:
        return perm, np.ones(sockets, dtype=np.int64)
    return perm, rng.integers(1, q, size=sockets)


def sample_graph(n: int, var_degree: int, check_degree: int,
                 field: FieldSpec, seed: int) -> TannerGraph:
    """Uniform socket permutation and uniform nonzero labels."""
    _ldpc_checks(n, var_degree, check_degree)
    perm, labels = _draw_graph(_keyed_rng(seed), n * var_degree, field.q)
    return TannerGraph(n, var_degree, check_degree, field, perm, labels)


@dataclass(frozen=True)
class Codebook:
    """Ordered codeword list over the label field, with optional coset
    vector, quantizer, and derived channel-input words.

    The words are stored in the field's symbol dtype, the smallest unsigned
    dtype that holds q - 1 (the rule of ``spectrum._compositions``): uint8
    for q <= 256.  A coset has one symbol per position and the inputs one
    symbol per codeword symbol."""

    field: FieldSpec
    words: np.ndarray
    coset: np.ndarray | None = None
    quantizer: Quantizer | None = None
    inputs: np.ndarray | None = None

    def __post_init__(self):
        words = np.asarray(self.words)
        if words.ndim != 2:
            raise ValueError("codebook words must form a 2-d array")
        object.__setattr__(self, "words", _check_books(
            self.field, words[None],
            None if self.coset is None else np.asarray(self.coset)[None],
            None if self.inputs is None else np.asarray(self.inputs)[None])[0])

    @property
    def size(self) -> int:
        return self.words.shape[0]

    @property
    def n(self) -> int:
        return self.words.shape[1]


def _check_books(field: FieldSpec, words, cosets=None, inputs=None):
    """The ``Codebook`` checks, run once over a (codes, m, n) stack of word
    arrays: every symbol inside the field, no two words of one code equal,
    and, where given, a (codes, n) coset stack and an input stack of the
    words' shape.  Returns the words in the field's symbol dtype."""
    if words.size and (words.min() < 0 or words.max() >= field.q):
        raise ValueError("codeword symbols outside the field")
    words = words.astype(field.symbol_dtype, copy=False)
    if _has_duplicate_rows(words, field.q):
        raise ValueError("codewords must be distinct")
    if cosets is not None and np.shape(cosets) != words.shape[::2]:
        raise ValueError(f"the coset needs one symbol per position, "
                         f"got shape {np.shape(cosets)[1:]}")
    if inputs is not None and np.shape(inputs) != words.shape:
        raise ValueError(f"inputs of shape {np.shape(inputs)[1:]} do "
                         f"not match the words' {words.shape[1:]}")
    return words


def _has_duplicate_rows(words: np.ndarray, q: int) -> bool:
    """Whether two rows of a (m, n) array over [0, q), or of one code of a
    (codes, m, n) stack, are equal.

    Packs floor(62 / bitlen(q - 1)) symbols into each int64 key, by one
    integer product per row block of at most ``_FILL_BLOCK`` symbols.  A
    word of one key has its code's keys sorted and neighbours compared;
    wider words are sorted by their code, then their key columns, and
    compared the same way."""
    *codes, m, n = words.shape
    if m < 2:
        return False
    if n == 0:
        return True
    rows = math.prod(codes) * m
    words = words.reshape(rows, n)
    bits = (q - 1).bit_length()
    per = 62 // bits
    i = np.arange(n)
    weights = np.zeros((n, -(-n // per)), dtype=np.int64)
    weights[i, i // per] = 1 << bits * (i % per)
    keys = np.empty((rows, weights.shape[1]), dtype=np.int64)
    step = max(1, _FILL_BLOCK // n)
    for lo in range(0, rows, step):
        np.matmul(words[lo:lo + step], weights, out=keys[lo:lo + step])
    if keys.shape[1] == 1:
        keys = keys.reshape(-1, m)
        keys.sort(axis=1)
        return bool(np.any(keys[:, 1:] == keys[:, :-1]))
    keys = np.column_stack([np.arange(rows) // m, keys])
    packed = keys[np.lexsort(keys.T)]
    return bool(np.any(np.all(packed[1:] == packed[:-1], axis=1)))


def _add_symbols(field: FieldSpec, a, b, out) -> np.ndarray:
    """``out = a + b`` over ``field`` for arrays in its symbol dtype, ``b``
    broadcast against the (..., rows, n) array ``a``, each in the field's
    own operation: XOR over characteristic 2; over a prime field
    a - (q - b), plus q where that wraps below zero, so no sum leaves the
    dtype (q > 128 would pass 255 in uint8); else ``FieldSpec.add``, a row
    block of at most ``_FILL_BLOCK`` symbols at a time."""
    if field.p == 2:
        return np.bitwise_xor(a, b, out=out)
    if field.m == 1:
        c = field.q - b
        np.subtract(a, c, out=out)
        return np.add(out, field.q, out=out, where=a < c)
    step = max(1, _FILL_BLOCK // max(1, a[..., 0, :].size))
    for lo in range(0, a.shape[-2], step):
        out[..., lo:lo + step, :] = field.add(a[..., lo:lo + step, :], b)
    return out


def _enumerate_nullspace(field: FieldSpec, basis: np.ndarray,
                         cosets=None) -> np.ndarray:
    """All field-linear combinations of the rows of each basis in the
    (codes, k, n) stack ``basis``, coefficient of the first row varying
    fastest, each plus its code's row of the (codes, n) stack ``cosets``
    (zero without it): a (codes, q^k, n) array in the field's symbol dtype.

    The array is filled in place by doubling from the coset vector: the
    words of coefficient c of row j are the words before row j plus c
    times row j, added by ``_add_symbols`` at the symbol dtype."""
    codes, k, n = basis.shape
    size = 1
    words = np.empty((codes, field.q ** k, n), dtype=field.symbol_dtype)
    words[:, 0] = 0 if cosets is None else cosets
    for j in range(k):
        row = basis[:, j, None, :]
        for coef in range(1, field.q):
            shift = field.mul(coef, row).astype(field.symbol_dtype)
            _add_symbols(field, words[:, :size], shift,
                         words[:, coef * size:(coef + 1) * size])
        size *= field.q
    return words


def enumerate_codebook(graph: TannerGraph, rate: float,
                       seed: int = 0) -> Codebook:
    """Nullspace of the graph's parity-check matrix, trimmed to exactly
    q^(n rate) codewords.

    When the matrix is rank deficient the nullspace is larger than the
    design count; a uniform subset (keyed shuffle, without replacement)
    is kept.  The paper-level removal definition only fixes the ensemble
    average, so uniform subsampling is our realization of it."""
    k = round(graph.n * rate)
    if abs(graph.n * rate - k) > 1e-9 or k < 0:
        raise ValueError(
            f"n rate must be a nonnegative integer, got {graph.n * rate!r}")
    shape = (graph.n, graph.var_degree, graph.check_degree)
    words = _sample_codes(shape, graph.field, [graph],
                          _design_count(k, graph.field.q),
                          [_keyed_rng(seed, 1)])
    return Codebook(field=graph.field, words=words[0])


def _design_count(k: int, q: int) -> int:
    """q^k, the codewords a trimmed code of dimension k keeps, within the
    exhaustive-enumeration guard."""
    num = q ** k
    if num > _ENUM_GUARD:
        raise GuardError(f"codebook size q^(n rate) = {num} exceeds the "
                         f"{_ENUM_GUARD} exhaustive-enumeration guard")
    return num


def _sample_graphs(shape, field, rngs):
    """Graphs of one code per entry of ``rngs``, reduced as one stack.

    shape is (n, var_degree, check_degree).  Draws a uniform socket
    permutation and uniform nonzero labels from each generator (a
    TannerGraph entry stands for its own draw) and reduces the check
    matrices in one ``rank_and_nullspace`` call.  Returns the ranks, the
    (codes, max nullity, n) basis stack and the (perms, labels) drawn."""
    n, var_degree, check_degree = shape
    q, m = field.q, n * var_degree
    _ldpc_checks(n, var_degree, check_degree)
    perms = np.empty((len(rngs), m), dtype=np.int64)
    labels = np.empty((len(rngs), m), dtype=np.int64)
    for i, rng in enumerate(rngs):
        if isinstance(rng, TannerGraph):
            perms[i], labels[i] = rng.perm, rng.labels
        else:
            perms[i], labels[i] = _draw_graph(rng, m, q)
    h = _check_stack(n, var_degree, check_degree, field, perms, labels)
    ranks, bases = rank_and_nullspace(
        GfMatrix(field, h.reshape(-1, n), blocks=len(rngs)))
    return (np.atleast_1d(ranks), bases.reshape(len(rngs), -1, n),
            (perms, labels))


def _code_plans(field, ranks, bases, num, trim_rngs):
    """Per code, its nullspace basis and the rows of the enumerated
    nullspace its codebook keeps: all of them (None) without
    ``trim_rngs``, else ``num`` rows drawn from trim_rngs[i] as
    ``enumerate_codebook`` describes.  Checks each nullspace against the
    exhaustive-enumeration guard first."""
    nullity = (bases.shape[2] - ranks).tolist()
    for k in nullity:
        if field.q ** k > _ENUM_GUARD:
            raise GuardError(f"nullspace size q^{k} exceeds the "
                             f"{_ENUM_GUARD} exhaustive-enumeration guard")
    plans = []
    for i, k in enumerate(nullity):
        keep, size = None, field.q ** k
        if trim_rngs is not None:
            if num > size:
                raise ValueError(f"rate asks for {num} codewords but the "
                                 f"nullspace holds {size}")
            if num < size:
                keep = trim_rngs[i].permutation(size)[:num]
        plans.append((bases[i, :k], keep))
    return plans


def _enumerate_codes(field, plans, cosets=None) -> list[np.ndarray]:
    """The word arrays of the codes ``plans`` (see ``_code_plans``), code
    i shifted by row i of the (codes, n) stack ``cosets`` when given; the
    codes of one nullity are enumerated as one stack."""
    nullity = np.array([basis.shape[0] for basis, _ in plans])
    books = [None] * len(plans)
    for k in sorted(set(nullity.tolist())):
        idx = np.flatnonzero(nullity == k)
        stack = np.stack([plans[i][0] for i in idx])
        shifts = None if cosets is None else cosets[idx]
        for i, book in zip(idx, _enumerate_nullspace(field, stack, shifts)):
            keep = plans[i][1]
            books[i] = book if keep is None else book[keep]
    return books


def _sample_codes(shape, field, rngs, num=None, trim_rngs=None):
    """Word arrays of one code per entry of ``rngs``: the graphs of
    ``_sample_graphs``, each nullspace enumerated, and with ``trim_rngs``
    code i trimmed to ``num`` words drawn from trim_rngs[i] as
    ``enumerate_codebook`` describes."""
    ranks, bases, _ = _sample_graphs(shape, field, rngs)
    return _enumerate_codes(field, _code_plans(field, ranks, bases, num,
                                               trim_rngs))


def _chunks(count: int, shape, users: int, words: int) -> list[range]:
    """Consecutive ranges over count trials, as many per range (at least
    one) as fit _STACK_ENTRIES entries, where a trial holds users check
    matrices of the given shape and users codebooks of ``words`` words;
    a codebook counts four times (its enumeration, stacked words, inputs
    and candidates).  A range pays once for its draws' stack, its
    elimination call, its enumeration, checks, inputs, candidate stack
    and score groups, so small codes run many to a range; a code whose
    entries pass the budget runs alone."""
    n, var_degree, check_degree = shape
    entries = users * n * max(n * var_degree // check_degree, 4 * words)
    step = max(1, _STACK_ENTRIES // entries)
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _quantize(quantizer: Quantizer, words: np.ndarray) -> np.ndarray:
    """Channel inputs of the coset words ``words`` in the field's symbol
    dtype: ``words`` itself under an identity assignment, else the
    assignment read a block of at most ``_FILL_BLOCK`` symbols at a
    time."""
    assignment = quantizer.assignment
    if np.array_equal(assignment, np.arange(assignment.size)):
        return words
    table = assignment.astype(words.dtype)
    out = np.empty_like(words)
    src, dst = words.reshape(-1), out.reshape(-1)
    for lo in range(0, src.size, _FILL_BLOCK):
        table.take(src[lo:lo + _FILL_BLOCK], out=dst[lo:lo + _FILL_BLOCK],
                   mode="clip")
    return out


def build_inputs(codebook: Codebook, coset_seed: int,
                 quantizer: Quantizer) -> Codebook:
    """Attach a uniform coset vector and the quantized channel inputs.

    Two transmitters get independent cosets by using different seeds; the
    shared-coset variant reuses one seed for both."""
    field = codebook.field
    if quantizer.field.q != field.q:
        raise ValueError("quantizer field does not match the codebook field")
    v = _keyed_rng(coset_seed, 2).integers(0, field.q, size=codebook.n)
    words = _add_symbols(field, codebook.words, v.astype(field.symbol_dtype),
                         np.empty_like(codebook.words))
    return replace(codebook, coset=v, quantizer=quantizer,
                   inputs=_quantize(quantizer, words))


# ---------------------------------------------------------------------------
# ML decoding

def _candidates(channel, words, n: int) -> np.ndarray:
    """Candidate channel-input words for exhaustive ML decoding from each
    user's (codes, M_u, n) stack of input words ``words``: one stack, or
    for a two-user MAC every pair of a code's rows as one word over the
    flattened input alphabet (user 2 fastest), in the smallest unsigned
    dtype that holds it; a (codes, M, n) stack.  Checks the candidate count
    of a code against ``_ENUM_GUARD``, the word length against ``n`` and
    each user's inputs against its input alphabet, once for the stack."""
    if not isinstance(channel, (DmcModel, MacModel)):
        raise ValueError("channel must be a DmcModel or MacModel")
    count = math.prod(x.shape[1] for x in words)
    if count > _ENUM_GUARD:
        raise GuardError(f"{count} candidates exceed the {_ENUM_GUARD} guard")
    if any(x.shape[2] != n for x in words):
        raise ValueError("output length does not match the codebooks")
    for x, size in zip(words, channel.w.shape[:-1]):
        if x.size and (x.min() < 0 or x.max() >= size):
            raise ValueError(f"codebook inputs must lie in [0, {size})")
    if len(words) == 1:
        return words[0]
    x1, x2 = words
    wide = np.min_scalar_type(math.prod(channel.input_sizes) - 1)
    return (x1.astype(wide)[:, :, None, :] * channel.input_sizes[1]
            + x2[:, None, :, :]).reshape(x1.shape[0], -1, n)


def ml_decode(channel, codebook, y, rng=None, seed: int = 0):
    """Exhaustive maximum-likelihood decoding of one output word.

    Pass one codebook for a point-to-point channel or a pair for a
    two-user MAC (returns a message pair).  Candidates are scored by
    log-likelihood sums, rational and float channels alike; scores within
    1e-9 of the best tie, an output impossible under every candidate ties
    them all, and ties are broken uniformly via the keyed RNG.  Codebook
    inputs must lie in each user's input alphabet and output symbols in
    [0, |Y|).  The stacked decoder of ``simulate_error``, one code and one
    output word."""
    if rng is None:
        rng = _keyed_rng(seed, 3)
    y = np.asarray(y, dtype=np.int64)
    mac = isinstance(channel, MacModel)
    books = codebook if mac else (codebook,)
    if any(book.inputs is None for book in books):
        raise ValueError("codebook has no channel inputs; run build_inputs")
    cand = _candidates(channel, [np.asarray(book.inputs)[None]
                                 for book in books], y.shape[0])
    letters = channel.w.shape[-1]
    if np.any((y < 0) | (y >= letters)):
        raise ValueError(f"output symbols must lie in [0, {letters})")
    logw = _log_table(channel.w.reshape(-1, letters))
    scores = _StackScorer(logw, cand)(y[None, None, :])
    win = int(_ml_decide(scores, [rng])[2][0, 0])
    if mac:
        return divmod(win, codebook[1].size)
    return win


def _log_table(w) -> np.ndarray:
    """Elementwise log of a transition table, ``_LOG_ZERO`` for log 0."""
    return np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), _LOG_ZERO)


class _StackScorer:
    """Log-likelihoods of the (codes, M, n) stack of candidate words
    ``cand`` under the per-letter table ``logw`` (inputs, |Y|), for a
    (codes, rows, n) block of output words by one batched matrix product
    with the (codes, M, K) score stack ``table``: code c's rows are scored
    against code c's candidates.

    When some output letter b0 has no zero transition, column (i, b)
    holds log w(b|x_i) - log w(b0|x_i) for each b != b0 and the last
    column sum_i log w(b0|x_i), so K = n(|Y| - 1) + 1; only a finite log
    is subtracted, so an impossible letter stays near ``_LOG_ZERO``.
    Otherwise column (i, b) holds log w(b|x_i) and K = n|Y|.  Each code's
    table is column-major, so the product reads its transpose row by row,
    and column (i, b) is filled by one ``take`` of letter b's entries at
    position i of a contiguous (n, codes, M) copy of the candidates; the
    last column sums in float64, position by position, and is rounded
    once.

    With ``screen`` the table is the float32 rounding of that float64
    table and the scores are screening scores: ``slack`` is then the
    margin within which a row's candidates are kept for ``exact`` scoring
    (see ``_screen_decide``), else None."""

    def __init__(self, logw, cand, screen: bool = False):
        codes, m, n = cand.shape
        self.logw, self.cand, self.slack = logw, cand, None
        self._dense = None
        dtype = np.float32 if screen else np.float64
        free = np.flatnonzero(np.all(logw > _LOG_ZERO, axis=0))[:1]
        self.letters = np.delete(np.arange(logw.shape[1]), free)
        k = self.letters.size
        ref = logw[:, free].sum(axis=1)  # 0 without a reference letter
        # one contiguous row per letter
        per = (logw[:, self.letters] - ref[:, None]).T.astype(dtype)
        table = np.empty((codes, n * k + free.size, m), dtype)
        bias = np.zeros((codes, m))
        for i, x in enumerate(np.ascontiguousarray(cand.transpose(2, 0, 1))):
            for b in range(k):
                per[b].take(x, out=table[:, i * k + b], mode="clip")
            if free.size:
                bias += ref.take(x)
        table[:, n * k:] = bias[:, None]  # no column without a reference
        self.table = table.transpose(0, 2, 1)
        if screen:
            # a row reads at most n finite entries of at most 2L and one
            # sum of n logs (n entries of at most L without a reference
            # letter), L the largest finite |log w|, so a finite score sums
            # at most reach = 3nL in absolute value.  e bounds |float32
            # score - float64 score| (either float64 route): gamma_K reach
            # for a K-term float32 sum (Higham, Accuracy and Stability of
            # Numerical Algorithms, sec. 3.1), u reach for rounding the
            # table to float32, and u reach more for the float64 roundings,
            # far below it.  Every candidate within _TIE_ATOL of the float64
            # best then lies within 2e + _TIE_ATOL of the float32 best, and
            # u reach of the doubled margin covers the float32 rounding of
            # that threshold.
            reach = 3 * n * np.abs(logw[logw > 0.5 * _LOG_ZERO]).max(
                initial=0.0)
            u, width = 2.0 ** -24, self.table.shape[2]
            e = (width * u / (1.0 - width * u) + 2.0 * u) * reach
            self.slack = float(2.0 * e + _TIE_ATOL)  # keeps float32

    def __call__(self, ys) -> np.ndarray:
        """(codes, rows, M) scores of the output words ``ys``
        (codes, rows, n), in the table's dtype."""
        codes, rows, n = ys.shape
        hot = np.ones((codes, rows, self.table.shape[2]), self.table.dtype)
        hot[:, :, :n * self.letters.size] = (
            ys[:, :, :, None] == self.letters).reshape(codes, rows, -1)
        return hot @ self.table.transpose(0, 2, 1)

    def exact(self, ys, hits):
        """Float64 log-likelihood sums, read from the per-letter table, of
        the (row, candidate) pairs at the flat indices ``hits`` of the
        (codes, rows, M) scores of the output words ``ys``."""
        codes, rows, n = ys.shape
        row, m = np.divmod(hits, self.cand.shape[1])
        cell = self.cand[row // rows, m].astype(np.intp)
        cell *= self.logw.shape[1]
        cell += ys.reshape(-1, n)[row]
        return self.logw.ravel().take(cell).sum(axis=1)

    def dense(self, ys) -> np.ndarray:
        """The float64 scores of the output words ``ys``, from a float64
        scorer of the same candidates built on first use."""
        if self._dense is None:
            self._dense = _StackScorer(self.logw, self.cand)
        return self._dense(ys)


def _ml_decide(ll, rngs):
    """ML decisions for a (codes, rows, candidates) log-likelihood stack.

    Returns each row's best score, its number of tied candidates, and the
    decoded candidate, as (codes, rows) arrays.  Candidates within
    ``_TIE_ATOL`` of the best tie; a row whose best candidate holds an
    impossible symbol (the output is impossible under every candidate)
    ties them all.  Several tied candidates are split uniformly via
    rngs[c] for code c: one draw per tied row, in row order, the same
    draws a per-row ``rng.integers(n_tied)`` loop makes."""
    codes, trials, cands = ll.shape
    ll = ll.reshape(codes * trials, cands)
    top = ll.max(axis=1)
    tied = ll >= (top - _TIE_ATOL)[:, None]
    tied[top <= 0.5 * _LOG_ZERO] = True
    hits = np.flatnonzero(tied)
    n_tied = np.bincount(hits // cands, minlength=codes * trials)
    return (top.reshape(codes, trials), n_tied.reshape(codes, trials),
            _break_ties(hits, n_tied, rngs, cands).reshape(codes, trials))


def _break_ties(hits, n_tied, rngs, cands) -> np.ndarray:
    """The decoded candidate of each row of a (codes * trials, cands)
    stack whose tied candidates are at the sorted flat indices ``hits``,
    n_tied[i] of them in row i: the row's only one, or for code c one draw
    per tied row via rngs[c], in row order."""
    trials = n_tied.size // len(rngs)
    # row i's run of hits starts after the runs of the rows before it
    starts = np.cumsum(n_tied) - n_tied
    rows = np.flatnonzero(n_tied > 1)
    # the tied rows of code c are rows[ends[c]:ends[c + 1]]
    ends = np.searchsorted(rows, trials * np.arange(len(rngs) + 1))
    for rng, lo, hi in zip(rngs, ends[:-1].tolist(), ends[1:].tolist()):
        if lo < hi:
            starts[rows[lo:hi]] += rng.integers(n_tied[rows[lo:hi]])
    return hits[starts] % cands


def _screen_decide(ll, sent, rngs, slack, exact, most):
    """The decisions of ``_ml_decide`` for a (codes, rows, M) stack of
    float32 screening scores ``ll`` (see ``_StackScorer``) with
    transmitted candidates ``sent`` (codes, rows), from the float64 scores
    ``exact(hits)`` of the candidates at flat indices ``hits`` that lie
    within ``slack`` of their row's float32 best.

    Each row's sent word is masked for one reduction: its score and the
    best of the others give the row's best, and a row whose others all
    trail the sent word by more than ``slack`` decodes to it alone.  The
    other rows have their contenders found; a row with one decodes to it,
    the rows with several are decided on their contenders' float64
    scores, and a row whose float32 best is impossible ties every
    candidate, as ``_ml_decide`` decides them.  Returns the (codes, rows)
    tie counts, decisions and whether a score passes the sent word's by
    more than ``_TIE_ATOL`` (true when the sent word is no contender;
    false on an impossible row, which ties every candidate).  None, before
    any draw, when the rows with several contenders hold more than
    ``most`` of them.  ``ll`` is written to and restored."""
    codes, trials, cands = ll.shape
    ll = ll.reshape(codes * trials, cands)
    rows, sent = np.arange(codes * trials), sent.ravel()
    mine = ll[rows, sent]
    ll[rows, sent] = -np.inf
    other = ll.max(axis=1)
    ll[rows, sent] = mine
    top = np.maximum(mine, other)
    hopeless = top <= 0.5 * _LOG_ZERO
    floor = top - slack
    alone = other < floor  # the sent word is the row's only contender
    several = np.flatnonzero(~alone)
    # an eighth of the block's rows at a time, so that no copy of most of
    # the block is alive
    step = max(1, codes * trials // 8)
    kept = [np.empty(0, np.intp)]
    for lo in range(0, several.size, step):
        part = several[lo:lo + step]
        kept.append(lo * cands + np.flatnonzero(ll[part] >= floor[part, None]))
    at, m = np.divmod(np.concatenate(kept), cands)
    count = np.bincount(at, minlength=several.size)
    if count[count > 1].sum() > most:
        return None
    hits = np.sort(np.concatenate([(rows * cands + sent)[alone],
                                   several[at] * cands + m]))
    alone[several[count == 1]] = True
    row = hits // cands
    is_sent = hits % cands == sent[row]
    beaten = np.ones(codes * trials, dtype=bool)
    beaten[row[is_sent]] = False
    beaten[hopeless] = False
    redo = ~(alone | hopeless)[row]
    if redo.any():
        ll64, at = exact(hits[redo]), row[redo]
        best = np.full(codes * trials, -np.inf)
        np.maximum.at(best, at, ll64)
        sent64 = is_sent[redo]
        beaten[at[sent64]] = best[at[sent64]] > ll64[sent64] + _TIE_ATOL
        redo[redo] = ll64 < best[at] - _TIE_ATOL  # contenders that lose
        hits, row = hits[~redo], row[~redo]
    if hopeless.any():
        everyone = cands * np.flatnonzero(hopeless)[:, None] + np.arange(cands)
        hits = np.sort(np.concatenate([hits[~hopeless[row]],
                                       everyone.ravel()]))
    n_tied = np.bincount(hits // cands, minlength=codes * trials)
    return (n_tied.reshape(codes, trials),
            _break_ties(hits, n_tied, rngs, cands).reshape(codes, trials),
            beaten.reshape(codes, trials))


# ---------------------------------------------------------------------------
# ensemble error simulation

def _wilson(errors: int, total: int) -> tuple[float, float, float]:
    z = _WILSON_Z
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total
                         + z * z / (4.0 * total * total)) / denom
    return center, max(0.0, center - half), min(1.0, center + half)


def _check_ensemble_params(ensemble_params):
    """(n, var_degree, check_degree, q, checks) of ``ensemble_params``,
    whose entries must be integers (numpy's too): ValueError otherwise."""
    if not all(isinstance(v, numbers.Integral) for v in ensemble_params):
        raise ValueError("LDPC design: (n, var_degree, check_degree, q) must "
                         f"be integers, got {tuple(ensemble_params)}")
    n, var_degree, check_degree, q = (int(v) for v in ensemble_params)
    return (n, var_degree, check_degree, q,
            _ldpc_checks(n, var_degree, check_degree))


def _simulate_chunk(channel, qzs, shape, num: int, rngs, trials_noise: int,
                    same_coset: bool) -> tuple[int, int, np.ndarray]:
    """Decoding errors and ties-as-error count over the code trials of one
    chunk, and the ranks of user 1's check matrices, trial t drawing from
    its generator rngs[t]: for user 1, then user 2, its graph (one stacked
    elimination per user), its trim to ``num`` words and its coset (with
    same_coset user 2 reuses user 1's), then its messages, the uniforms of
    its outputs and its tie-breaks in row order.  The trials share one
    candidate count, so their words, checks, inputs and candidates run as
    one stack: each code's coset words are enumerated at the symbol dtype
    from its coset vector (``_enumerate_nullspace``), checked, and
    quantized into its inputs (the words themselves under an identity
    assignment, ``_quantize``).  Their output draws, score tables, scores
    and decisions in stacks of as many trials as ``_STACK_SCORES`` scores
    hold (at least one); a stack's outputs invert the output CDF once for
    all its trials (``fbl._sample_outputs``).  A trial scores the rows it
    would score alone per row block: ``_SCORE_BYTES`` of scores (at least
    16 rows, and all of them when fewer).  From ``_SCREEN_MIN`` candidates
    the rows are screened in float32 against each row's sent word and only
    the contenders of the rows it does not win alone scored in float64
    (``_screen_decide``); the decisions are the same.

    The words are freed once their inputs exist, the messages and outputs
    of a stack of trials are drawn just before it is scored and freed
    after, and everything else is freed when the chunk returns."""
    n = shape[0]
    flat_w = channel.w.reshape(-1, channel.w.shape[-1])
    inputs, ranks = [], []  # per user, its (trials, words, n) inputs, ranks
    cosets = None
    for qz in qzs:
        rank, bases, _ = _sample_graphs(shape, qz.field, rngs)
        ranks.append(rank)
        plans = _code_plans(qz.field, rank, bases, num, rngs)
        if cosets is None or not same_coset:
            cosets = np.stack([rng.integers(0, qz.field.q, size=n)
                               for rng in rngs])
        words = np.stack(_enumerate_codes(qz.field, plans, cosets))
        _check_books(qz.field, words)
        inputs.append(_quantize(qz, words))
        del words
    cand = _candidates(channel, inputs, n)
    del inputs
    codes, num_messages = cand.shape[:2]
    logw = _log_table(flat_w)
    screen = num_messages >= _SCREEN_MIN
    rows = min(trials_noise, max(16, _SCORE_BYTES // (
        (4 if screen else 8) * num_messages)))
    # stack no more trials than keep each trial's own row block: a shorter
    # block reads the trial's whole score table for fewer rows
    group = max(1, _STACK_SCORES // (rows * num_messages))
    realized = pessimistic = 0
    for g in range(0, codes, group):
        part, stack = rngs[g:g + group], cand[g:g + group]
        # the messages, then the uniforms, of this group's trials only
        sent = np.stack([rng.integers(num_messages, size=trials_noise)
                         for rng in part])
        ys = _sample_outputs(
            flat_w, stack[np.arange(len(part))[:, None], sent],
            np.stack([rng.random((trials_noise, n)) for rng in part]))
        score = _StackScorer(logw, stack, screen)
        for lo in range(0, trials_noise, rows):
            y = ys[:, lo:lo + rows]
            errors, ties = _count_errors(score(y), sent[:, lo:lo + rows],
                                         part, score, y)
            realized += errors
            pessimistic += ties
    return realized, pessimistic, ranks[0]


def _count_errors(ll, sent, rngs, score, ys) -> tuple[int, int]:
    """Decoding errors and ties-as-error count of one row block of the
    (codes, rows, M) score stack ``ll = score(ys)`` with transmitted
    candidates ``sent`` (codes, rows).  A screening ``score`` has its
    float32 scores decided by ``_screen_decide``, or, where re-scoring the
    contenders would cost more than the block's float64 scores, those by
    ``_ml_decide`` (a contender reads n letters, at about four times the
    cost of one score of the product).  The blocks are freed on return,
    before the next one is scored."""
    decided = None
    if score.slack is not None:
        decided = _screen_decide(ll, sent, rngs, score.slack,
                                 functools.partial(score.exact, ys),
                                 ll.size // (4 * ys.shape[2]))
        if decided is None:
            ll = score.dense(ys)
    if decided is None:
        top, n_tied, decoded = _ml_decide(ll, rngs)
        sent_ll = ll.reshape(sent.size, -1)[np.arange(sent.size),
                                            sent.ravel()].reshape(sent.shape)
        decided = n_tied, decoded, top > sent_ll + _TIE_ATOL
    n_tied, decoded, beaten = decided
    # a bound counts the trial whenever any competitor reaches the
    # transmitted word's likelihood
    return (int(np.count_nonzero(decoded != sent)),
            int(np.count_nonzero(beaten | (n_tied > 1))))


def simulate_error(ensemble_params, channel, quantizers, trials_codes: int,
                   trials_noise: int, seed: int,
                   same_coset: bool = False) -> BoundReport:
    """Double Monte Carlo estimate of the ensemble-average ML error.

    ensemble_params is (n, var_degree, check_degree, q).  Each code trial
    samples a fresh graph per transmitter (independent coset vectors, or
    one shared vector with same_coset=True), then runs trials_noise
    uniform-message transmissions decoded exhaustively.  The reported
    value resolves ties uniformly; the ties-as-error rate every bound
    actually controls is in the components.

    Consecutive trials whose codes fit one elimination stack are sampled
    and checked as one stack and scored and decided in batched products;
    larger codes run one per stack; each code's coset words are enumerated
    and quantized at the field's symbol dtype; codes of 512 or more
    candidates are screened in float32 against each row's sent word
    before the contenders of the other rows are scored in float64; the
    outputs of each stack of trials invert the output CDF once.  Every
    trial runs on the calling thread.  None of these changes a result.
    The ranks that the eliminations find are kept too: ``fblbound
    simulate`` reads its rate-gap statistics from them (``_simulate``)."""
    return _simulate(ensemble_params, channel, quantizers, trials_codes,
                     trials_noise, seed, same_coset)[0]


def _simulate(ensemble_params, channel, quantizers, trials_codes,
              trials_noise, seed, same_coset):
    """``simulate_error``'s report, and the ranks of the check matrices
    behind it (user 1's graph of each trial), in trial order."""
    n, var_degree, check_degree, q, r = _check_ensemble_params(
        ensemble_params)
    if trials_codes < 1 or trials_noise < 1:
        raise ValueError("need at least one code and one noise trial")
    if isinstance(channel, MacModel):
        if channel.num_users != 2:
            raise ValueError("only two-user MACs are simulated")
        if not isinstance(quantizers, (tuple, list)) or len(quantizers) != 2:
            raise ValueError("two-user simulation needs two quantizers")
        qzs = tuple(quantizers)
    else:
        if not isinstance(channel, DmcModel):
            raise ValueError("channel must be a DmcModel or MacModel")
        if isinstance(quantizers, Quantizer):
            qzs = (quantizers,)
        else:
            qzs = tuple(quantizers)
            if len(qzs) != 1:
                raise ValueError("point-to-point simulation takes one quantizer")
        if same_coset:
            raise ValueError("same_coset only applies to the MAC mode")
    for qz in qzs:
        if qz.field.q != q:
            raise ValueError("quantizer field does not match ensemble q")
    shape = (n, var_degree, check_degree)
    num = _design_count(n - r, q)
    realized = pessimistic = 0
    ranks = []
    for chunk in _chunks(trials_codes, shape, len(qzs), num):
        errors, ties, rank = _simulate_chunk(
            channel, qzs, shape, num, [_keyed_rng(seed, tc) for tc in chunk],
            trials_noise, same_coset)
        realized += errors
        pessimistic += ties
        ranks.append(rank)
    total = trials_codes * trials_noise
    center, low, high = _wilson(realized, total)
    return BoundReport(
        name="simulated-ml-error",
        value=realized / total,
        units="probability",
        method="monte-carlo",
        n=n,
        num_messages=num ** len(qzs),
        ci_half_width=(high - low) / 2.0,
        trials=total,
        components={
            "ties_as_error_rate": pessimistic / total,
            "wilson_center": center,
            "wilson_low": low,
            "wilson_high": high,
            "trials_codes": float(trials_codes),
            "trials_noise": float(trials_noise),
            "design_rate_qary": 1.0 - var_degree / check_degree,
        },
    ), np.concatenate(ranks)


# ---------------------------------------------------------------------------
# empirical spectrum

def _weight_counts(books, n: int) -> np.ndarray:
    """(codes, n + 1) counts of the words of each binary word array in
    ``books`` by Hamming weight: one bincount over (code, weight)."""
    sizes = [words.shape[0] for words in books]
    weights = np.concatenate(books).sum(axis=1, dtype=np.int64)
    keys = np.repeat((n + 1) * np.arange(len(books)), sizes) + weights
    return np.bincount(keys, minlength=len(books) * (n + 1)).reshape(-1, n + 1)


def _word_type_counts(words: np.ndarray, q: int) -> Counter:
    """Histogram of symbol-type vectors over the given words."""
    return Counter(tuple(np.bincount(row, minlength=q).tolist())
                   for row in words)


def empirical_spectrum(ensemble_params, trials: int, seed: int,
                       num_users: int = 1, post_removal: bool = False,
                       return_stats: bool = False):
    """Ensemble-average per-type codeword (or codematrix) counts from
    sampled graphs.

    Pre-removal counts run over the full nullspace (the all-zero type
    then averages exactly 1); post_removal trims each code to the design
    size first.  With return_stats=True also returns a per-type dict of
    (mean, sample variance, trials) for significance tests."""
    n, var_degree, check_degree, q, r = _check_ensemble_params(
        ensemble_params)
    if trials < 1:
        raise ValueError("need at least one trial")
    if num_users not in (1, 2):
        raise ValueError("only 1 or 2 users are simulated")
    field = field_from_order(q)
    keep = _design_count(n - r, q) if post_removal else None
    shape = (n, var_degree, check_degree)
    qk = q ** num_users
    sums, sumsq = Counter(), Counter()  # exact integer sums per type
    for chunk in _chunks(trials, shape, num_users, q ** (n - r)):
        rngs = [_keyed_rng(seed, t) for t in chunk]
        # per trial: user 1's graph (and trim), then user 2's
        books = [_sample_codes(shape, field, rngs, keep,
                               rngs if post_removal else None)
                 for _ in range(num_users)]
        if qk == 2:
            counts = _weight_counts(books[0], n)
            for w in np.flatnonzero(counts.any(axis=0)).tolist():
                tt, c = (n - w, w), counts[:, w]
                sums[tt] += int(c.sum())
                sumsq[tt] += int(np.dot(c, c))
            continue
        for word_sets in zip(*books):
            if num_users == 2:
                w1, w2 = word_sets
                pairs = w1.shape[0] * w2.shape[0]
                if pairs > _TUPLE_GUARD:
                    raise GuardError(f"codematrix tuple count exceeds the "
                                     f"guard: {pairs} > {_TUPLE_GUARD}")
                # the codematrix of messages (a, b) is one word over q^2
                wide = w1.astype(np.min_scalar_type(q * q - 1))
                word_sets = [wide[a] * q + w2 for a in range(w1.shape[0])]
            counts = Counter()
            for words in word_sets:
                counts.update(_word_type_counts(words, qk))
            for tt, c in counts.items():
                sums[tt] += c
                sumsq[tt] += c * c
    keys = (map(tuple, _compositions(n, qk).tolist())
            if _num_compositions(n, qk) <= 100_000 else list(sums))
    entries, stats = {}, {}
    for tt in keys:
        mean = sums[tt] / trials
        var = max(0.0, sumsq[tt] / trials - mean * mean)
        entries[tt] = math.log(mean) if mean > 0.0 else -math.inf
        stats[tt] = (mean, var, trials)
    table = SpectrumTable(
        n=n, q=q, num_users=num_users,
        kind="empirical-post-removal" if post_removal else "empirical",
        entries=entries, var_degree=var_degree, check_degree=check_degree,
        log_num_messages=(n - r) * math.log(q),
    )
    return (table, stats) if return_stats else table


# ---------------------------------------------------------------------------
# minimum distance and actual-rate statistics

def _min_distances(words: np.ndarray) -> np.ndarray:
    """Minimum pairwise Hamming distance of each code of a (codes, m, n)
    stack of words: n minus the most positions in which two distinct words
    of a code agree.  The agreements are counted one position at a time
    over a row block of every code, at most ``_PAIR_BLOCK`` symbol
    comparisons per block, so a code costs m^2 n comparisons whatever the
    alphabet.  Checks the word count and the pair-scan guard of a code."""
    codes, m, n = words.shape
    if m < 2:
        raise ValueError("need at least two codewords")
    if m * m * n > _PAIR_OPS_GUARD:
        raise GuardError(f"pair scan exceeds the operation guard: "
                         f"{m * m * n} > {_PAIR_OPS_GUARD}")
    columns = np.ascontiguousarray(words.transpose(2, 0, 1))  # (n, codes, m)
    block = max(1, _PAIR_BLOCK // (codes * m * n))
    most = np.zeros(codes, dtype=np.int64)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        agree = np.zeros((codes, hi - lo, m), dtype=np.min_scalar_type(n))
        equal = np.empty(agree.shape, dtype=bool)
        for col in columns:
            np.equal(col[:, lo:hi, None], col[:, None, :], out=equal)
            agree += equal
        rows = np.arange(hi - lo)
        agree[:, rows, lo + rows] = 0  # a word with itself is no pair
        most = np.maximum(most, agree.max(axis=(1, 2)))
    return n - most


def min_distance(codebook) -> int:
    """Minimum pairwise Hamming distance over codewords, or over message
    tuples of a two-user pair (rows differ when either component does)."""
    if isinstance(codebook, Codebook):
        return int(_min_distances(codebook.words[None])[0])
    cb1, cb2 = codebook
    w1, w2 = cb1.words, cb2.words
    if w1.shape[1] != w2.shape[1]:
        raise ValueError("codebooks must share one blocklength")
    (m1, n), m2 = w1.shape, w2.shape[0]
    if (m1 * m2) ** 2 * n > _PAIR_OPS_GUARD:
        raise GuardError(f"pair scan exceeds the operation guard: "
                         f"{(m1 * m2) ** 2 * n} > {_PAIR_OPS_GUARD}")
    # n minus the most positions where both users' words agree: E1 E2^T
    # over the (m1^2, n) and (m2^2, n) symbol-equality tables, reduced in
    # place; float32 holds every count, partial sums included, exactly
    # while n < 2^24, and takes a third of float64's time at n = 8
    dtype = np.float32 if n < 1 << 24 else np.float64
    e1 = (w1[:, None, :] == w1[None, :, :]).reshape(m1 * m1, n)
    e2 = (w2[:, None, :] == w2[None, :, :]).reshape(m2 * m2, n)
    agree = e1.astype(dtype) @ e2.T.astype(dtype)
    # the pair of a message pair with itself is no pair
    agree[np.ix_(np.arange(m1) * (m1 + 1), np.arange(m2) * (m2 + 1))] = -1
    return n - int(agree.max())


@dataclass(frozen=True)
class RateGapStats:
    """Empirical law of the actual-rate excess (n - rank)/n - design."""

    n: int
    design_rate: float
    trials: int
    eps_grid: tuple
    tail_probs: tuple
    mean_gap: float
    max_gap: float


def actual_rate_stats(ensemble_params, trials: int, seed: int,
                      eps_grid=None) -> RateGapStats:
    """Sampled distribution of R_C - R, the rank-deficiency rate excess.

    R_C = (n - rank)/n from each sampled graph; the design rate uses the
    full check count.  Gaps are in q-ary symbols per channel use.  Trial
    t's graph is the first draw of ``_keyed_rng(seed, t)``, which is user
    1's graph of trial t in ``simulate_error``: ``fblbound simulate``
    reads these statistics from the ranks of its error run instead of
    eliminating the graphs again (``_rate_gaps`` serves both)."""
    params = _check_ensemble_params(ensemble_params)
    if trials < 1:
        raise ValueError("need at least one trial")
    shape = params[:3]
    return _rate_gaps(params, np.concatenate([
        _sample_graphs(shape, field_from_order(params[3]),
                       [_keyed_rng(seed, t) for t in chunk])[0]
        for chunk in _chunks(trials, shape, 1, 0)]), eps_grid)


def _rate_gaps(params, ranks, eps_grid=None) -> RateGapStats:
    """The ``RateGapStats`` of the checked ensemble parameters ``params``
    (see ``_check_ensemble_params``) over the check-matrix ranks
    ``ranks``, one per sampled graph."""
    n, var_degree, check_degree, _, r = params
    if eps_grid is None:
        eps_grid = (0.5 / n, 1.0 / n, 2.0 / n, 4.0 / n)
    eps_grid = tuple(float(e) for e in eps_grid)
    gaps = (r - ranks) / n
    return RateGapStats(
        n=n, design_rate=1.0 - var_degree / check_degree, trials=gaps.size,
        eps_grid=eps_grid, tail_probs=tuple(float(np.mean(gaps > e))
                                            for e in eps_grid),
        mean_gap=float(gaps.mean()), max_gap=float(gaps.max()),
    )
