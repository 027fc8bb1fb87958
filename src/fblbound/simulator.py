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

import math
from collections import Counter
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
# entries per elimination stack, and per chunk of codebooks held at once
_STACK_ENTRIES = 1 << 16
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


def sample_graph(n: int, var_degree: int, check_degree: int,
                 field: FieldSpec, seed: int) -> TannerGraph:
    """Uniform socket permutation and uniform nonzero labels."""
    perms, labels = _sample_codes((n, var_degree, check_degree), field,
                                  [_keyed_rng(seed)], words=False)[2]
    return TannerGraph(n, var_degree, check_degree, field, perms[0], labels[0])


@dataclass(frozen=True)
class Codebook:
    """Ordered codeword list over the label field, with optional coset
    vector, quantizer, and derived channel-input words."""

    field: FieldSpec
    words: np.ndarray
    coset: np.ndarray | None = None
    quantizer: Quantizer | None = None
    inputs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "words",
                           np.asarray(self.words, dtype=np.int64))
        if self.words.ndim != 2:
            raise ValueError("codebook words must form a 2-d array")
        if np.any(self.words < 0) or np.any(self.words >= self.field.q):
            raise ValueError("codeword symbols outside the field")
        if _has_duplicate_rows(self.words, self.field.q):
            raise ValueError("codewords must be distinct")

    @property
    def size(self) -> int:
        return self.words.shape[0]

    @property
    def n(self) -> int:
        return self.words.shape[1]


def _has_duplicate_rows(words: np.ndarray, q: int) -> bool:
    """Whether two rows of a (m, n) array over [0, q) are equal.

    Packs floor(62 / bitlen(q - 1)) symbols into each int64 key column,
    sorts the rows by their keys and compares neighbours."""
    m, n = words.shape
    if m < 2:
        return False
    if n == 0:
        return True
    bits = (q - 1).bit_length()
    per = 62 // bits
    keys = []
    for s in range(0, n, per):
        block = words[:, s:s + per]
        keys.append((block << (bits * np.arange(block.shape[1]))).sum(axis=1))
    packed = np.stack(keys, axis=1)[np.lexsort(keys)]
    return bool(np.any(np.all(packed[1:] == packed[:-1], axis=1)))


def _enumerate_nullspace(field: FieldSpec, basis: np.ndarray) -> np.ndarray:
    """All field-linear combinations of the rows of each basis in the
    (codes, k, n) stack ``basis``, coefficient of the first row varying
    fastest: a (codes, q^k, n) array."""
    words = np.zeros((basis.shape[0], 1, basis.shape[2]), dtype=np.int64)
    for j in range(basis.shape[1]):
        row = basis[:, j, None, :]
        words = np.concatenate([words] + [
            field.add(words, field.mul(coef, row))
            for coef in range(1, field.q)], axis=1)
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
                          graph.field, [graph], rate, [_keyed_rng(seed, 1)])[1]
    return Codebook(field=graph.field, words=words[0])


def _sample_codes(shape, field, rngs, rate=None, trim_rngs=None,
                  words=True):
    """Codes of one graph per entry of ``rngs``, reduced as one stack.

    shape is (n, var_degree, check_degree).  Draws a uniform socket
    permutation and uniform nonzero labels from each generator (a
    TannerGraph entry stands for its own draw), reduces the check
    matrices in one ``rank_and_nullspace`` call and enumerates each
    nullspace; with ``trim_rngs``, code i keeps q^(n rate) words drawn
    from trim_rngs[i] as ``enumerate_codebook`` describes.  Returns the
    ranks, the word arrays (None with words=False) and the (perms,
    labels) drawn."""
    n, var_degree, check_degree = shape
    q, m = field.q, n * var_degree
    _check_degrees(n, var_degree, check_degree)
    if trim_rngs is not None:
        k = round(n * rate)
        if abs(n * rate - k) > 1e-9 or k < 0:
            raise ValueError(
                f"n rate must be a nonnegative integer, got {n * rate!r}")
        num = q ** k
        if num > _ENUM_GUARD:
            raise GuardError(f"codebook size q^(n rate) = {num} exceeds the "
                             f"{_ENUM_GUARD} exhaustive-enumeration guard")
    perms = np.empty((len(rngs), m), dtype=np.int64)
    labels = np.ones((len(rngs), m), dtype=np.int64)
    for i, rng in enumerate(rngs):
        if isinstance(rng, TannerGraph):
            perms[i], labels[i] = rng.perm, rng.labels
        else:
            perms[i] = rng.permutation(m)
            labels[i] = rng.integers(1, q, size=m) if q > 2 else 1
    h = _check_stack(n, var_degree, check_degree, field, perms, labels)
    ranks, bases = rank_and_nullspace(
        GfMatrix(field, h.reshape(-1, n), blocks=len(rngs)))
    ranks, bases = np.atleast_1d(ranks), bases.reshape(len(rngs), -1, n)
    if not words:
        return ranks, None, (perms, labels)
    nullity = n - ranks
    for k in nullity.tolist():
        if q ** k > _ENUM_GUARD:
            raise GuardError(f"nullspace size q^{k} exceeds the "
                             f"{_ENUM_GUARD} exhaustive-enumeration guard")
    books = [None] * len(rngs)
    for k in np.unique(nullity).tolist():  # codes of one nullity at once
        idx = np.flatnonzero(nullity == k)
        for i, book in zip(idx, _enumerate_nullspace(field, bases[idx, :k])):
            books[i] = book
    for i, book in enumerate(books if trim_rngs is not None else ()):
        if num > book.shape[0]:
            raise ValueError(f"rate asks for {num} codewords but the "
                             f"nullspace holds {book.shape[0]}")
        if num < book.shape[0]:
            books[i] = book[trim_rngs[i].permutation(book.shape[0])[:num]]
    return ranks, books, (perms, labels)


def _chunks(count: int, shape, users: int, words: int) -> list[range]:
    """Consecutive ranges over count trials, as many per range (at least
    one) as fit _STACK_ENTRIES entries, where a trial holds users check
    matrices of the given shape and users codebooks of ``words`` words;
    a codebook counts four times (nullspace, words, coset words, inputs)."""
    n, var_degree, check_degree = shape
    entries = users * n * max(n * var_degree // check_degree, 4 * words)
    step = max(1, _STACK_ENTRIES // entries)
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def build_inputs(codebook: Codebook, coset_seed: int,
                 quantizer: Quantizer) -> Codebook:
    """Attach a uniform coset vector and the quantized channel inputs.

    Two transmitters get independent cosets by using different seeds; the
    shared-coset variant reuses one seed for both."""
    if quantizer.field.q != codebook.field.q:
        raise ValueError("quantizer field does not match the codebook field")
    v = _keyed_rng(coset_seed, 2).integers(0, codebook.field.q,
                                            size=codebook.n)
    shifted = codebook.field.add(codebook.words, v[None, :])
    return replace(codebook, coset=v, quantizer=quantizer,
                   inputs=quantizer.apply(shifted))


# ---------------------------------------------------------------------------
# ML decoding

def _candidates(channel, books, n: int) -> np.ndarray:
    """Candidate channel-input words for exhaustive ML decoding: the rows
    of one codebook, or for a two-user MAC every pair of rows as one word
    over the flattened input alphabet (user 2 fastest).  Checks the
    candidate count against ``_ENUM_GUARD`` and the word length against
    ``n``."""
    if not isinstance(channel, (DmcModel, MacModel)):
        raise ValueError("channel must be a DmcModel or MacModel")
    words = [cb.inputs for cb in
             (books if isinstance(channel, MacModel) else (books,))]
    if any(x is None for x in words):
        raise ValueError("codebook has no channel inputs; run build_inputs")
    count = math.prod(x.shape[0] for x in words)
    if count > _ENUM_GUARD:
        raise GuardError(f"{count} candidates exceed the {_ENUM_GUARD} guard")
    if any(x.shape[1] != n for x in words):
        raise ValueError("output length does not match the codebooks")
    if len(words) == 1:
        return words[0]
    x1, x2 = words
    return (x1[:, None, :] * channel.input_sizes[1]
            + x2[None, :, :]).reshape(-1, n)


def ml_decode(channel, codebook, y, rng=None, seed: int = 0):
    """Exhaustive maximum-likelihood decoding of one output word.

    Pass one codebook for a point-to-point channel or a pair for a
    two-user MAC (returns a message pair).  Candidates are scored by
    log-likelihood sums, rational and float channels alike; scores within
    1e-9 of the best tie, an output impossible under every candidate ties
    them all, and ties are broken uniformly via the keyed RNG.  Codebook
    inputs must lie in each user's input alphabet and output symbols in
    [0, |Y|)."""
    if rng is None:
        rng = _keyed_rng(seed, 3)
    y = np.asarray(y, dtype=np.int64)
    cand = _candidates(channel, codebook, y.shape[0])
    mac = isinstance(channel, MacModel)
    for book, size in zip(codebook if mac else (codebook,),
                          channel.w.shape[:-1]):
        if np.any((book.inputs < 0) | (book.inputs >= size)):
            raise ValueError(f"codebook inputs must lie in [0, {size})")
    letters = channel.w.shape[-1]
    if np.any((y < 0) | (y >= letters)):
        raise ValueError(f"output symbols must lie in [0, {letters})")
    logw = _log_table(channel.w.reshape(-1, letters))
    win = int(_ml_decide(_Scorer(logw, cand)(y[None, :]), rng)[2][0])
    if mac:
        return divmod(win, codebook[1].size)
    return win


def _log_table(w) -> np.ndarray:
    """Elementwise log of a transition table, ``_LOG_ZERO`` for log 0."""
    return np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), _LOG_ZERO)


class _Scorer:
    """Log-likelihoods of the (M, n) candidate words ``cand`` under the
    per-letter table ``logw`` (inputs, |Y|), for a block of output words
    by one matrix product with the (M, K) score matrix ``table``.

    When some output letter b0 has no zero transition, column (i, b)
    holds log w(b|x_i) - log w(b0|x_i) for each b != b0 and the last
    column sum_i log w(b0|x_i), so K = n(|Y| - 1) + 1; only a finite log
    is subtracted, so an impossible letter stays near ``_LOG_ZERO``.
    Otherwise column (i, b) holds log w(b|x_i) and K = n|Y|."""

    def __init__(self, logw, cand):
        m, n = cand.shape
        free = np.flatnonzero(np.all(logw > _LOG_ZERO, axis=0))
        if free.size == 0:
            self.letters = np.arange(logw.shape[1])
            self.table = logw[cand].reshape(m, -1)
            return
        ref = int(free[0])
        self.letters = np.delete(np.arange(logw.shape[1]), ref)
        k = self.letters.size
        per = logw[:, self.letters] - logw[:, ref, None]
        # filled one position at a time, no (M, n, |Y| - 1) temporary;
        # column-major, so the product reads table.T row by row
        self.table = np.empty((m, n * k + 1), order="F")
        self.table[:, -1] = 0.0
        for i in range(n):
            self.table[:, i * k:(i + 1) * k] = per[cand[:, i]]
            self.table[:, -1] += logw[cand[:, i], ref]

    def __call__(self, ys) -> np.ndarray:
        """(len(ys), M) scores of the output words ``ys`` (len(ys), n)."""
        rows, width = ys.shape[0], self.table.shape[1]
        hot = np.ones((rows, width))
        hot[:, :ys.shape[1] * self.letters.size] = (
            ys[:, :, None] == self.letters).reshape(rows, -1)
        return hot @ self.table.T


def _ml_decide(ll, rng):
    """ML decisions for a (trials, candidates) log-likelihood table.

    Returns each row's best score, its number of tied candidates, and the
    decoded candidate.  Candidates within ``_TIE_ATOL`` of the best tie;
    a row whose best candidate holds an impossible symbol (the output is
    impossible under every candidate) ties them all.  Several tied
    candidates are split uniformly via ``rng``: one draw per tied row, in
    row order, the same draws a per-row ``rng.integers(n_tied)`` loop
    makes."""
    trials, cands = ll.shape
    top = ll.max(axis=1)
    tied = ll >= (top - _TIE_ATOL)[:, None]
    tied[top <= 0.5 * _LOG_ZERO] = True
    # flat indices of the tied entries, row by row: row i's run starts
    # after the runs of the rows before it
    hits = np.flatnonzero(tied)
    n_tied = np.bincount(hits // cands, minlength=trials)
    starts = np.cumsum(n_tied) - n_tied
    rows = np.flatnonzero(n_tied > 1)
    if rows.size:
        starts[rows] += rng.integers(n_tied[rows])
    return top, n_tied, hits[starts] % cands


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


def _simulate_chunk(channel, qzs, shape, rate, rngs, trials_noise: int,
                    same_coset: bool):
    """Decoding errors, ties-as-error count and candidate count over the
    code trials of one chunk, trial t drawing from rngs[t]: user 1's
    graph, trim and coset, then user 2's, then the noise and tie-break
    draws.  Everything a code holds is freed when the chunk returns."""
    n = shape[0]
    q = qzs[0].field.q
    flat_w = channel.w.reshape(-1, channel.w.shape[-1])
    logw = _log_table(flat_w)
    books = []
    cosets = None
    for qz in qzs:
        words = _sample_codes(shape, qz.field, rngs, rate, rngs)[1]
        if not (same_coset and cosets):
            cosets = [rng.integers(0, q, size=n) for rng in rngs]
        books.append([
            Codebook(field=qz.field, words=w, coset=v, quantizer=qz,
                     inputs=qz.apply(qz.field.add(w, v[None, :])))
            for w, v in zip(words, cosets)])
    realized = pessimistic = 0
    mac = isinstance(channel, MacModel)
    for rng, trial_books in zip(rngs, zip(*books)):
        cand = _candidates(channel, trial_books if mac else trial_books[0], n)
        num_messages = cand.shape[0]
        sent = rng.integers(num_messages, size=trials_noise)
        ys = _sample_outputs(flat_w, cand[sent], rng)
        score = _Scorer(logw, cand)
        # row blocks, decided in row order: the tie-break draws of one
        # whole-table call
        rows = max(16, _SCORE_BLOCK // num_messages)
        for lo in range(0, trials_noise, rows):
            errors, ties = _count_errors(score(ys[lo:lo + rows]),
                                         sent[lo:lo + rows], rng)
            realized += errors
            pessimistic += ties
    return realized, pessimistic, num_messages


def _count_errors(ll, sent, rng) -> tuple[int, int]:
    """Decoding errors and ties-as-error count of one row block of scores
    ``ll`` with transmitted candidates ``sent``; the block is freed on
    return, before the next one is scored."""
    top, n_tied, decoded = _ml_decide(ll, rng)
    sent_ll = ll[np.arange(sent.size), sent]
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
    actually controls is in the components."""
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
    realized = 0
    pessimistic = 0
    shape = (n, var_degree, check_degree)
    for chunk in _chunks(trials_codes, shape, len(qzs), q ** round(n * rate)):
        errors, ties, num_messages = _simulate_chunk(
            channel, qzs, shape, rate, [_keyed_rng(seed, tc) for tc in chunk],
            trials_noise, same_coset)
        realized += errors
        pessimistic += ties
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

def _word_type_counts(words: np.ndarray, q: int) -> dict:
    """Histogram of symbol-type vectors over the given words."""
    if q == 2:
        n = words.shape[1]
        counts = np.bincount(words.sum(axis=1), minlength=n + 1).tolist()
        return {(n - w, w): c for w, c in enumerate(counts) if c}
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
    sums: dict[tuple[int, ...], float] = {}
    sumsq: dict[tuple[int, ...], float] = {}
    for chunk in _chunks(trials, shape, num_users, q ** (n - r)):
        rngs = [_keyed_rng(seed, t) for t in chunk]
        # per trial: user 1's graph (and trim), then user 2's
        books = [_sample_codes(shape, field, rngs, rate,
                               rngs if post_removal else None)[1]
                 for _ in range(num_users)]
        for word_sets in zip(*books):
            if num_users == 2:
                w1, w2 = word_sets
                pairs = w1.shape[0] * w2.shape[0]
                if pairs > _TUPLE_GUARD:
                    raise GuardError(f"codematrix tuple count exceeds the "
                                     f"guard: {pairs} > {_TUPLE_GUARD}")
                # the codematrix of messages (a, b) is one word over q^2
                word_sets = [w1[a] * q + w2 for a in range(w1.shape[0])]
            counts = Counter()
            for words in word_sets:
                counts.update(_word_type_counts(words, q ** num_users))
            for tt, c in counts.items():
                sums[tt] = sums.get(tt, 0.0) + c
                sumsq[tt] = sumsq.get(tt, 0.0) + c * c
    qk = q ** num_users
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

def min_distance(codebook) -> int:
    """Minimum pairwise Hamming distance over codewords, or over message
    tuples of a two-user pair (rows differ when either component does)."""
    if isinstance(codebook, Codebook):
        words = codebook.words
        m, n = words.shape
        if m < 2:
            raise ValueError("need at least two codewords")
        if m * m * n > _PAIR_OPS_GUARD:
            raise GuardError(f"pair scan exceeds the operation guard: "
                             f"{m * m * n} > {_PAIR_OPS_GUARD}")
        block = max(1, _PAIR_BLOCK // (m * n))
        best = n + 1
        for i in range(0, m - 1, block):
            rows = words[i:i + block]
            d = (rows[:, None, :] != words[None, :, :]).sum(axis=2)
            later = np.arange(m)[None, :] > np.arange(i, i + len(rows))[:, None]
            best = min(best, int(d[later].min()))
        return best
    cb1, cb2 = codebook
    w1, w2 = cb1.words, cb2.words
    if w1.shape[1] != w2.shape[1]:
        raise ValueError("codebooks must share one blocklength")
    m1, m2 = w1.shape[0], w2.shape[0]
    n = w1.shape[1]
    if (m1 * m2) ** 2 * n > _PAIR_OPS_GUARD:
        raise GuardError(f"pair scan exceeds the operation guard: "
                         f"{(m1 * m2) ** 2 * n} > {_PAIR_OPS_GUARD}")
    # n minus the positions where both users' words agree: E1 E2^T over
    # the (m1^2, n) and (m2^2, n) symbol-equality tables
    e1 = (w1[:, None, :] == w1[None, :, :]).reshape(m1 * m1, n)
    e2 = (w2[:, None, :] == w2[None, :, :]).reshape(m2 * m2, n)
    dist = n - e1.astype(np.float64) @ e2.T.astype(np.float64)
    # the pair of a message pair with itself is no pair
    dist[np.ix_(np.arange(m1) * (m1 + 1), np.arange(m2) * (m2 + 1))] = n + 1
    return int(dist.min())


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
        ranks = _sample_codes(shape, field, [_keyed_rng(seed, t)
                                             for t in chunk], words=False)[0]
        gaps[chunk.start:chunk.stop] = (r - ranks) / n
    tails = tuple(float(np.mean(gaps > e)) for e in eps_grid)
    return RateGapStats(
        n=n, design_rate=1.0 - var_degree / check_degree, trials=trials,
        eps_grid=eps_grid, tail_probs=tails,
        mean_gap=float(gaps.mean()), max_gap=float(gaps.max()),
    )
