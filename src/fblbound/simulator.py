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
import os
from collections import Counter, deque
from dataclasses import dataclass, replace

import numpy as np

from . import GuardError
from .channel import DmcModel, MacModel, Quantizer
from .fbl import BoundReport, _keyed_rng, _sample_outputs
from .gfq import FieldSpec, GfMatrix, field_from_order, rank_and_nullspace
from .spectrum import SpectrumTable, _compositions, _num_compositions

_ENUM_GUARD = 1 << 20
_TUPLE_GUARD = 1_000_000  # codeword pairs of a two-user spectrum trial
_PAIR_OPS_GUARD = 10 ** 9
_PAIR_BLOCK = 1 << 22  # symbol comparisons per block of the pair scan
_SCORE_BLOCK = 1 << 19  # candidate scores per row block (at least 16 rows)
_STACK_SCORES = 1 << 16  # scores of the trials stacked into one product
_FILL_BLOCK = 1 << 14  # symbols per row block of a codebook fill
# entries per elimination stack, and per chunk of codebooks held at once:
# the README's n = 12 codes run 85 to a chunk, so a chunk's fixed costs
# are paid for 85 codes, not 21 as at 2^16; the benchmark's sim-sample
# peak RSS grows by 2.3 MB (42.8 to 45.1 MB) for it
_STACK_ENTRIES = 1 << 18
_TIE_ATOL = 1e-9
_LOG_ZERO = -1e30  # stand-in for log 0; keeps impossible words out of ties
_WILSON_Z = 1.96
# score-matrix bytes that the large code trials decoded at once may hold
# between them (one trial always runs): two BSC codes of 2^15 words at n = 30
_FLIGHT_BYTES = 1 << 25
# the CPUs this process may run on
try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # a platform without affinity masks
    _CPUS = os.cpu_count() or 1


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
        _check_degrees(self.n, self.var_degree, self.check_degree)
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
        return (self.n * self.var_degree) // self.check_degree

    @property
    def num_sockets(self) -> int:
        return self.n * self.var_degree

    def check_matrix(self) -> GfMatrix:
        """Parity-check matrix (see ``_check_stack``)."""
        return GfMatrix(self.field, _check_stack(
            self.n, self.var_degree, self.check_degree, self.field,
            self.perm[None, :], self.labels[None, :])[0])


def _check_degrees(n, var_degree, check_degree):
    if var_degree < 2:
        raise ValueError("need var_degree >= 2")
    if (n * var_degree) % check_degree != 0:
        raise ValueError(f"n var_degree must be a multiple of check_degree: "
                         f"{n} * {var_degree} / {check_degree}")


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
    _check_degrees(n, var_degree, check_degree)
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

    Packs floor(62 / bitlen(q - 1)) symbols into each int64 key column,
    after a column holding the row's code when there are several, one row
    block of at most ``_FILL_BLOCK`` symbols at a time, sorts the rows by
    their keys and compares neighbours."""
    *codes, m, n = words.shape
    if m < 2:
        return False
    if n == 0:
        return True
    rows = math.prod(codes) * m
    words = words.reshape(rows, n)
    bits = (q - 1).bit_length()
    per = 62 // bits
    shifts = bits * (np.arange(n) % per)
    lead = int(rows > m)
    keys = np.empty((rows, lead + -(-n // per)), dtype=np.int64)
    if lead:
        keys[:, 0] = np.arange(rows) // m
    step = max(1, _FILL_BLOCK // n)
    for lo in range(0, rows, step):
        block = words[lo:lo + step].astype(np.int64) << shifts
        keys[lo:lo + step, lead:] = np.add.reduceat(
            block, np.arange(0, n, per), axis=1)
    packed = keys[np.lexsort(keys.T)]
    return bool(np.any(np.all(packed[1:] == packed[:-1], axis=1)))


def _enumerate_nullspace(field: FieldSpec, basis: np.ndarray) -> np.ndarray:
    """All field-linear combinations of the rows of each basis in the
    (codes, k, n) stack ``basis``, coefficient of the first row varying
    fastest: a (codes, q^k, n) array in the field's symbol dtype.

    The array is filled in place, row block by row block of at most
    ``_FILL_BLOCK`` symbols per code, so the field arithmetic's int64
    results are cast into it a block at a time."""
    codes, k, n = basis.shape
    size = 1
    words = np.empty((codes, field.q ** k, n), dtype=field.symbol_dtype)
    words[:, 0] = 0
    step = max(1, _FILL_BLOCK // max(1, codes * n))
    for j in range(k):
        row = basis[:, j, None, :]
        for coef in range(1, field.q):
            shift = field.mul(coef, row)
            for lo in range(0, size, step):
                src = words[:, lo:min(lo + step, size)]
                start = coef * size + lo
                words[:, start:start + src.shape[1]] = field.add(src, shift)
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
    words = _sample_codes((graph.n, graph.var_degree, graph.check_degree),
                          graph.field, [graph], rate, [_keyed_rng(seed, 1)])
    return Codebook(field=graph.field, words=words[0])


def _design_count(n: int, rate: float, q: int) -> int:
    """q^(n rate), the codewords a trimmed code keeps, within the
    exhaustive-enumeration guard."""
    k = round(n * rate)
    if abs(n * rate - k) > 1e-9 or k < 0:
        raise ValueError(
            f"n rate must be a nonnegative integer, got {n * rate!r}")
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
    _check_degrees(n, var_degree, check_degree)
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
    nullity = bases.shape[2] - ranks
    for k in nullity.tolist():
        if field.q ** k > _ENUM_GUARD:
            raise GuardError(f"nullspace size q^{k} exceeds the "
                             f"{_ENUM_GUARD} exhaustive-enumeration guard")
    plans = []
    for i, k in enumerate(nullity.tolist()):
        keep, size = None, field.q ** k
        if trim_rngs is not None:
            if num > size:
                raise ValueError(f"rate asks for {num} codewords but the "
                                 f"nullspace holds {size}")
            if num < size:
                keep = trim_rngs[i].permutation(size)[:num]
        plans.append((bases[i, :k], keep))
    return plans


def _enumerate_codes(field, plans) -> list[np.ndarray]:
    """The word arrays of the codes ``plans`` (see ``_code_plans``); the
    codes of one nullity are enumerated as one stack."""
    nullity = np.array([basis.shape[0] for basis, _ in plans])
    books = [None] * len(plans)
    for k in np.unique(nullity).tolist():
        idx = np.flatnonzero(nullity == k)
        stack = np.stack([plans[i][0] for i in idx])
        for i, book in zip(idx, _enumerate_nullspace(field, stack)):
            keep = plans[i][1]
            books[i] = book if keep is None else book[keep]
    return books


def _sample_codes(shape, field, rngs, rate=None, trim_rngs=None):
    """Word arrays of one code per entry of ``rngs``: the graphs of
    ``_sample_graphs``, each nullspace enumerated, and with ``trim_rngs``
    code i trimmed to q^(n rate) words drawn from trim_rngs[i] as
    ``enumerate_codebook`` describes."""
    num = None if trim_rngs is None else _design_count(shape[0], rate,
                                                         field.q)
    ranks, bases, _ = _sample_graphs(shape, field, rngs)
    return _enumerate_codes(field, _code_plans(field, ranks, bases, num,
                                               trim_rngs))


def _chunks(count: int, shape, users: int, words: int) -> list[range]:
    """Consecutive ranges over count trials, as many per range (at least
    one) as fit _STACK_ENTRIES entries, where a trial holds users check
    matrices of the given shape and users codebooks of ``words`` words;
    a codebook counts four times (nullspace, words, coset words, inputs).
    A range pays once for its draws' stack, its elimination call, its
    nullspace enumeration, checks, coset inputs, candidate stack and score
    groups, so small codes run many to a range; a code whose entries pass
    the budget runs alone, which lets ``simulate_error`` decode it on the
    pool."""
    n, var_degree, check_degree = shape
    entries = users * n * max(n * var_degree // check_degree, 4 * words)
    step = max(1, _STACK_ENTRIES // entries)
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _coset_inputs(quantizer: Quantizer, words, cosets) -> np.ndarray:
    """Channel inputs of the coset words ``words + cosets`` of a (codes, m, n)
    word stack and its (codes, n) coset stack, in the field's symbol dtype,
    a block of at most ``_FILL_BLOCK`` symbols (whole codes, or rows of one
    code) at a time: symbol s in column i of code c reads entry
    (c n + i) q + s of one flat table, the input
    assignment[s + cosets[c, i]]."""
    f = quantizer.field
    codes, m, n = words.shape
    table = quantizer.assignment[f.add(np.arange(f.q), cosets[:, :, None])]
    table = table.astype(f.symbol_dtype).ravel()
    out = np.empty(words.shape, dtype=f.symbol_dtype)
    per = max(1, _FILL_BLOCK // max(1, m * n))
    step = max(1, _FILL_BLOCK // max(1, n))
    for c in range(0, codes, per):
        offsets = f.q * (n * np.arange(c, min(c + per, codes))[:, None, None]
                         + np.arange(n))
        for lo in range(0, m, step):
            out[c:c + per, lo:lo + step] = table[
                words[c:c + per, lo:lo + step] + offsets]
    return out


def build_inputs(codebook: Codebook, coset_seed: int,
                 quantizer: Quantizer) -> Codebook:
    """Attach a uniform coset vector and the quantized channel inputs.

    Two transmitters get independent cosets by using different seeds; the
    shared-coset variant reuses one seed for both."""
    if quantizer.field.q != codebook.field.q:
        raise ValueError("quantizer field does not match the codebook field")
    v = _keyed_rng(coset_seed, 2).integers(0, codebook.field.q,
                                            size=codebook.n)
    return replace(codebook, coset=v, quantizer=quantizer,
                   inputs=_coset_inputs(quantizer, codebook.words[None],
                                        v[None])[0])


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
    Otherwise column (i, b) holds log w(b|x_i) and K = n|Y|."""

    def __init__(self, logw, cand):
        codes, m, n = cand.shape
        free = np.flatnonzero(np.all(logw > _LOG_ZERO, axis=0))
        if free.size == 0:
            self.letters = np.arange(logw.shape[1])
            self.table = logw[cand].reshape(codes, m, -1)
            return
        ref = int(free[0])
        self.letters = np.delete(np.arange(logw.shape[1]), ref)
        k = self.letters.size
        per = logw[:, self.letters] - logw[:, ref, None]
        # filled one position at a time, no (codes, M, n, |Y| - 1)
        # temporary; each code's table column-major, so the product reads
        # its transpose row by row
        self.table = np.empty((codes, n * k + 1, m)).transpose(0, 2, 1)
        self.table[:, :, -1] = 0.0
        for i in range(n):
            x = cand[:, :, i]
            self.table[:, :, i * k:(i + 1) * k] = per[x]
            self.table[:, :, -1] += logw[x, ref]

    def __call__(self, ys) -> np.ndarray:
        """(codes, rows, M) scores of the output words ``ys``
        (codes, rows, n)."""
        codes, rows, n = ys.shape
        hot = np.ones((codes, rows, self.table.shape[2]))
        hot[:, :, :n * self.letters.size] = (
            ys[:, :, :, None] == self.letters).reshape(codes, rows, -1)
        return hot @ self.table.transpose(0, 2, 1)


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
    # flat indices of the tied entries, row by row: row i's run starts
    # after the runs of the rows before it
    hits = np.flatnonzero(tied)
    n_tied = np.bincount(hits // cands, minlength=codes * trials)
    starts = np.cumsum(n_tied) - n_tied
    rows = np.flatnonzero(n_tied > 1)
    # the tied rows of code c are rows[ends[c]:ends[c + 1]]
    ends = np.searchsorted(rows, trials * np.arange(codes + 1))
    for rng, lo, hi in zip(rngs, ends[:-1].tolist(), ends[1:].tolist()):
        if lo < hi:
            starts[rows[lo:hi]] += rng.integers(n_tied[rows[lo:hi]])
    return (top.reshape(codes, trials), n_tied.reshape(codes, trials),
            (hits[starts] % cands).reshape(codes, trials))


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
    n, var_degree, check_degree, q = ensemble_params
    n, var_degree, check_degree, q = int(n), int(var_degree), int(check_degree), int(q)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n, var_degree, check_degree, q


@functools.cache
def _openblas_threads_query():
    """OpenBLAS's thread-count query in the library numpy loaded, or None
    where none is found (another BLAS): looked up through numpy's linear
    algebra extension, whose handle also searches the libraries it links."""
    import ctypes
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            query = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                            None)
            if query is not None:
                return query
    return None


def _blas_threads() -> int:
    """The threads numpy's BLAS runs a matrix product on, read at each
    call; every CPU when that cannot be read."""
    query = _openblas_threads_query()
    return _CPUS if query is None else max(1, int(query()))


def _draw_trials(qzs, shape, num: int, rngs, same_coset: bool):
    """The draws of the code trials of one chunk, made on the calling
    thread: for user 1, then user 2, each trial's graph (one stacked
    elimination per user), trim to ``num`` words and coset, from the
    trial's generator rngs[t]; with same_coset user 2 reuses user 1's
    cosets.  Returns per trial a tuple over users of (plan, coset), a plan
    as ``_code_plans`` gives it."""
    users = []
    cosets = None
    for qz in qzs:
        ranks, bases, _ = _sample_graphs(shape, qz.field, rngs)
        plans = _code_plans(qz.field, ranks, bases, num, rngs)
        if not (same_coset and cosets):
            cosets = [rng.integers(0, qz.field.q, size=shape[0])
                      for rng in rngs]
        users.append(list(zip(plans, cosets)))
    return list(zip(*users))


def _simulate_chunk(channel, qzs, trials, rngs, trials_noise: int,
                    in_flight: int) -> tuple[int, int]:
    """Decoding errors and ties-as-error count over the drawn code trials
    ``trials`` of one chunk (see ``_draw_trials``), trial t drawing its
    messages, then its outputs, then its tie-breaks in row order from
    rngs[t].  The trials share one candidate count, so their words, checks,
    inputs and candidates run as one stack, and their score tables, scores
    and decisions in stacks of as many trials as ``_STACK_SCORES`` scores
    hold (at least one).  A trial scores the rows it would score alone per
    row block: ``_SCORE_BLOCK`` scores (at least 16 rows, and all of them
    when fewer), and each of the ``in_flight`` chunks decoded at once
    scores a 1/in_flight share (at least 8 rows).

    Calls no public function of the package, so it can run on a worker
    thread.  The words are freed once their inputs exist, the messages and
    outputs of a stack of trials are drawn just before it is scored and
    freed after, and everything else is freed when the chunk returns."""
    n = trials[0][0][1].size  # the length of a coset
    flat_w = channel.w.reshape(-1, channel.w.shape[-1])
    inputs = []  # per user, the (trials, words, n) input stack
    for u, qz in enumerate(qzs):
        codes = [trial[u] for trial in trials]
        words = np.stack(_enumerate_codes(qz.field,
                                          [plan for plan, _ in codes]))
        cosets = np.stack([v for _, v in codes])
        inputs.append(_coset_inputs(qz, words, cosets))
        _check_books(qz.field, words, cosets, inputs[-1])
        del words
    cand = _candidates(channel, inputs, n)
    del inputs
    codes, num_messages = cand.shape[:2]
    logw = _log_table(flat_w)
    rows = min(trials_noise, max(8, max(16, _SCORE_BLOCK // num_messages)
                                 // in_flight))
    # stack no more trials than keep each trial's own row block: a shorter
    # block reads the trial's whole score table for fewer rows
    group = max(1, _STACK_SCORES // (rows * num_messages))
    realized = pessimistic = 0
    for g in range(0, codes, group):
        # the messages and outputs of this group's trials only
        sent = np.stack([rng.integers(num_messages, size=trials_noise)
                         for rng in rngs[g:g + group]])
        ys = np.stack([_sample_outputs(flat_w, cand[g + t, sent[t]], rng)
                       for t, rng in enumerate(rngs[g:g + group])])
        score = _StackScorer(logw, cand[g:g + group])
        for lo in range(0, trials_noise, rows):
            errors, ties = _count_errors(score(ys[:, lo:lo + rows]),
                                         sent[:, lo:lo + rows],
                                         rngs[g:g + group])
            realized += errors
            pessimistic += ties
    return realized, pessimistic


def _count_errors(ll, sent, rngs) -> tuple[int, int]:
    """Decoding errors and ties-as-error count of one row block of the
    (codes, rows, M) score stack ``ll`` with transmitted candidates ``sent``
    (codes, rows); the block is freed on return, before the next one is
    scored."""
    top, n_tied, decoded = _ml_decide(ll, rngs)
    sent_ll = ll.reshape(sent.size, -1)[np.arange(sent.size),
                                        sent.ravel()].reshape(sent.shape)
    # a bound counts the trial whenever any competitor reaches the
    # transmitted word's likelihood
    return (int(np.count_nonzero(decoded != sent)),
            int(np.count_nonzero((top > sent_ll + _TIE_ATOL) | (n_tied > 1))))


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
    larger codes run one per stack, several at once on a thread pool of
    this call where BLAS leaves CPUs idle.  Neither changes a result."""
    n, var_degree, check_degree, q = _check_ensemble_params(ensemble_params)
    if trials_codes < 1 or trials_noise < 1:
        raise ValueError("need at least one code and one noise trial")
    mac = isinstance(channel, MacModel)
    if mac:
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
    rate = 1.0 - var_degree / check_degree
    shape = (n, var_degree, check_degree)
    num = _design_count(n, rate, q)
    chunks = _chunks(trials_codes, shape, len(qzs), num)
    # chunks of one trial hold large codes: decode as many at once as the
    # CPUs that BLAS leaves idle and _FLIGHT_BYTES of score matrices allow
    # (BLAS on every CPU already runs the dominant product in parallel);
    # the many small codes of a chunk run faster inline, as one stack
    in_flight = 1
    if len(chunks[0]) == 1 < len(chunks):
        matrix = 8 * num ** len(qzs) * n * channel.w.shape[-1]
        in_flight = max(1, min(_CPUS // _blas_threads(),
                               _FLIGHT_BYTES // matrix))
    pool = None
    if in_flight > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(in_flight,
                                  thread_name_prefix="fblbound-decode")
    counts = []  # each chunk's (errors, ties), in chunk order
    pending = deque()  # the chunks on the pool, oldest first
    try:
        for chunk in chunks:
            rngs = [_keyed_rng(seed, tc) for tc in chunk]
            trials = _draw_trials(qzs, shape, num, rngs, same_coset)
            if pool is None:
                counts.append(_simulate_chunk(channel, qzs, trials, rngs,
                                              trials_noise, 1))
                continue
            if len(pending) == in_flight:
                counts.append(pending.popleft().result())
            pending.append(pool.submit(_simulate_chunk, channel, qzs, trials,
                                       rngs, trials_noise, in_flight))
        while pending:
            counts.append(pending.popleft().result())
    finally:
        if pool is not None:
            # drops the queued trials and waits for the running ones
            pool.shutdown(cancel_futures=True)
    realized = sum(errors for errors, _ in counts)
    pessimistic = sum(ties for _, ties in counts)
    num_messages = num ** len(qzs)
    total = trials_codes * trials_noise
    eps_hat = realized / total
    center, low, high = _wilson(realized, total)
    return BoundReport(
        name="simulated-ml-error",
        value=eps_hat,
        units="probability",
        method="monte-carlo",
        n=n,
        num_messages=num_messages,
        ci_half_width=(high - low) / 2.0,
        trials=total,
        components={
            "ties_as_error_rate": pessimistic / total,
            "wilson_center": center,
            "wilson_low": low,
            "wilson_high": high,
            "trials_codes": float(trials_codes),
            "trials_noise": float(trials_noise),
            "design_rate_qary": rate,
        },
    )


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
    n, var_degree, check_degree, q = _check_ensemble_params(ensemble_params)
    if trials < 1:
        raise ValueError("need at least one trial")
    if num_users not in (1, 2):
        raise ValueError("only 1 or 2 users are simulated")
    field = field_from_order(q)
    rate = 1.0 - var_degree / check_degree
    r = (n * var_degree) // check_degree
    shape = (n, var_degree, check_degree)
    qk = q ** num_users
    sums: dict[tuple[int, ...], float] = {}
    sumsq: dict[tuple[int, ...], float] = {}
    for chunk in _chunks(trials, shape, num_users, q ** (n - r)):
        rngs = [_keyed_rng(seed, t) for t in chunk]
        # per trial: user 1's graph (and trim), then user 2's
        books = [_sample_codes(shape, field, rngs, rate,
                               rngs if post_removal else None)
                 for _ in range(num_users)]
        if qk == 2:
            counts = _weight_counts(books[0], n)
            for w in np.flatnonzero(counts.any(axis=0)).tolist():
                tt, c = (n - w, w), counts[:, w]
                sums[tt] = sums.get(tt, 0.0) + int(c.sum())
                sumsq[tt] = sumsq.get(tt, 0.0) + int(np.dot(c, c))
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
                sums[tt] = sums.get(tt, 0.0) + c
                sumsq[tt] = sumsq.get(tt, 0.0) + c * c
    keys = (map(tuple, _compositions(n, qk).tolist())
            if _num_compositions(n, qk) <= 100_000 else list(sums))
    entries, stats = {}, {}
    for tt in keys:
        s = sums.get(tt, 0.0)
        mean = s / trials
        var = max(0.0, sumsq.get(tt, 0.0) / trials - mean * mean)
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
    m1, m2 = w1.shape[0], w2.shape[0]
    n = w1.shape[1]
    if (m1 * m2) ** 2 * n > _PAIR_OPS_GUARD:
        raise GuardError(f"pair scan exceeds the operation guard: "
                         f"{(m1 * m2) ** 2 * n} > {_PAIR_OPS_GUARD}")
    # n minus the most positions where both users' words agree: E1 E2^T
    # over the (m1^2, n) and (m2^2, n) symbol-equality tables, exact
    # integer counts in float64, reduced in place
    e1 = (w1[:, None, :] == w1[None, :, :]).reshape(m1 * m1, n)
    e2 = (w2[:, None, :] == w2[None, :, :]).reshape(m2 * m2, n)
    agree = e1.astype(np.float64) @ e2.T.astype(np.float64)
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
    full check count.  Gaps are in q-ary symbols per channel use."""
    n, var_degree, check_degree, q = _check_ensemble_params(ensemble_params)
    if trials < 1:
        raise ValueError("need at least one trial")
    field = field_from_order(q)
    r = (n * var_degree) // check_degree
    if eps_grid is None:
        eps_grid = (0.5 / n, 1.0 / n, 2.0 / n, 4.0 / n)
    eps_grid = tuple(float(e) for e in eps_grid)
    gaps = np.empty(trials)
    shape = (n, var_degree, check_degree)
    for chunk in _chunks(trials, shape, 1, 0):
        ranks = _sample_graphs(shape, field, [_keyed_rng(seed, t)
                                              for t in chunk])[0]
        gaps[chunk.start:chunk.stop] = (r - ranks) / n
    tails = tuple(float(np.mean(gaps > e)) for e in eps_grid)
    return RateGapStats(
        n=n, design_rate=1.0 - var_degree / check_degree, trials=trials,
        eps_grid=eps_grid, tail_probs=tails,
        mean_gap=float(gaps.mean()), max_gap=float(gaps.max()),
    )
