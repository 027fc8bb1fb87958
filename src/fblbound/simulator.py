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
from dataclasses import dataclass, replace

import numpy as np

from . import GuardError
from .channel import DmcModel, MacModel, Quantizer
from .fbl import BoundReport
from .gfq import FieldSpec, GfMatrix, field_from_order, rank_and_nullspace
from .spectrum import SpectrumTable, type_compositions

_ENUM_GUARD = 1 << 20
_PAIR_OPS_GUARD = 10 ** 9
_TIE_ATOL = 1e-9
_LOG_ZERO = -1e30  # stand-in for log 0; keeps impossible words out of ties
_WILSON_Z = 1.96


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


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
        if self.var_degree < 2:
            raise ValueError("need var_degree >= 2")
        if (self.n * self.var_degree) % self.check_degree != 0:
            raise ValueError(
                f"n var_degree must be a multiple of check_degree: "
                f"{self.n} * {self.var_degree} / {self.check_degree}"
            )
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
        """Parity-check matrix: socket s of variable s // var_degree lands
        in check perm[s] // check_degree; parallel edges add labels."""
        sockets = np.arange(self.num_sockets)
        var_idx = sockets // self.var_degree
        chk_idx = self.perm // self.check_degree
        h = np.zeros((self.num_checks, self.n), dtype=np.int64)
        if self.field.m == 1:
            np.add.at(h, (chk_idx, var_idx), self.labels)
            h %= self.field.p
        else:
            for s in range(self.num_sockets):
                c, v = int(chk_idx[s]), int(var_idx[s])
                h[c, v] = int(self.field.add(h[c, v], int(self.labels[s])))
        return GfMatrix(self.field, h)


def sample_graph(n: int, var_degree: int, check_degree: int,
                 field: FieldSpec, seed: int) -> TannerGraph:
    """Uniform socket permutation and uniform nonzero labels."""
    rng = _rng(seed)
    return _sample_graph(n, var_degree, check_degree, field, rng)


def _sample_graph(n, var_degree, check_degree, field, rng) -> TannerGraph:
    if (n * var_degree) % check_degree != 0:
        raise ValueError(
            f"n var_degree must be a multiple of check_degree: "
            f"{n} * {var_degree} / {check_degree}"
        )
    m = n * var_degree
    perm = rng.permutation(m)
    if field.q == 2:
        labels = np.ones(m, dtype=np.int64)
    else:
        labels = rng.integers(1, field.q, size=m)
    return TannerGraph(n=n, var_degree=var_degree, check_degree=check_degree,
                       field=field, perm=perm, labels=labels)


@dataclass(frozen=True)
class Codebook:
    """Ordered codeword list over the label field, with optional coset
    vector, quantizer, and derived channel-input words."""

    field: FieldSpec
    words: np.ndarray
    graph: TannerGraph | None = None
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
        if np.unique(self.words, axis=0).shape[0] != self.words.shape[0]:
            raise ValueError("codewords must be distinct")

    @property
    def size(self) -> int:
        return self.words.shape[0]

    @property
    def n(self) -> int:
        return self.words.shape[1]


def _enumerate_nullspace(field: FieldSpec, basis: np.ndarray,
                         n: int) -> np.ndarray:
    """All field-linear combinations of the basis rows, coefficient of the
    first row varying slowest."""
    words = np.zeros((1, n), dtype=np.int64)
    for row in basis:
        layers = [words]
        for coef in range(1, field.q):
            shift = field.mul(coef, row)
            layers.append(field.add(words, shift[None, :]))
        words = np.concatenate(layers, axis=0)
    return words


def enumerate_codebook(graph: TannerGraph, rate: float,
                       seed: int = 0) -> Codebook:
    """Nullspace of the graph's parity-check matrix, trimmed to exactly
    q^(n rate) codewords.

    When the matrix is rank deficient the nullspace is larger than the
    design count; a uniform subset (keyed shuffle, without replacement)
    is kept.  The paper-level removal definition only fixes the ensemble
    average, so uniform subsampling is our realization of it."""
    rng = _rng(seed, 1)
    return _enumerate_codebook(graph, rate, rng)


def _enumerate_codebook(graph, rate, rng) -> Codebook:
    n, q = graph.n, graph.field.q
    digits = n * rate
    k = round(digits)
    if abs(digits - k) > 1e-9 or k < 0:
        raise ValueError(f"n rate must be a nonnegative integer, got {digits!r}")
    num = q ** k
    if num > _ENUM_GUARD:
        raise GuardError(
            f"codebook size q^(n rate) = {num} exceeds the {_ENUM_GUARD} "
            f"exhaustive-enumeration guard"
        )
    rank, basis = rank_and_nullspace(graph.check_matrix())
    if q ** (n - rank) > _ENUM_GUARD:
        raise GuardError(
            f"nullspace size q^{n - rank} exceeds the {_ENUM_GUARD} "
            f"exhaustive-enumeration guard"
        )
    words = _enumerate_nullspace(graph.field, basis, n)
    if num > words.shape[0]:
        raise ValueError(
            f"rate asks for {num} codewords but the nullspace holds "
            f"{words.shape[0]}"
        )
    if num < words.shape[0]:
        keep = rng.permutation(words.shape[0])[:num]
        words = words[keep]
    return Codebook(field=graph.field, words=words, graph=graph)


def build_inputs(codebook: Codebook, coset_seed: int,
                 quantizer: Quantizer) -> Codebook:
    """Attach a uniform coset vector and the quantized channel inputs.

    Two transmitters get independent cosets by using different seeds; the
    shared-coset variant reuses one seed for both."""
    rng = _rng(coset_seed, 2)
    return _build_inputs(codebook, quantizer, rng)


def _build_inputs(codebook, quantizer, rng) -> Codebook:
    if quantizer.field.q != codebook.field.q:
        raise ValueError("quantizer field does not match the codebook field")
    v = rng.integers(0, codebook.field.q, size=codebook.n)
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
    them all, and ties are broken uniformly via the keyed RNG."""
    if rng is None:
        rng = _rng(seed, 3)
    y = np.asarray(y, dtype=np.int64)
    cand = _candidates(channel, codebook, y.shape[0])
    logw = _log_table(channel.w.reshape(-1, channel.w.shape[-1]))
    win = int(_ml_decide(_log_likelihoods(logw, cand, y[None, :]), rng)[2][0])
    if isinstance(channel, MacModel):
        return divmod(win, codebook[1].size)
    return win


def _log_table(w) -> np.ndarray:
    """Elementwise log of a transition table, ``_LOG_ZERO`` for log 0."""
    return np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), _LOG_ZERO)


def _ml_decide(ll, rng):
    """ML decisions for a (trials, candidates) log-likelihood table.

    Returns each row's best score, its number of tied candidates, and the
    decoded candidate.  Candidates within ``_TIE_ATOL`` of the best tie;
    a row whose best candidate holds an impossible symbol (the output is
    impossible under every candidate) ties them all.  Several tied
    candidates are split uniformly via ``rng``, row by row."""
    top = ll.max(axis=1)
    tied = ll >= (top - _TIE_ATOL)[:, None]
    tied[top <= 0.5 * _LOG_ZERO] = True
    n_tied = tied.sum(axis=1)
    decoded = tied.argmax(axis=1)
    for t in np.flatnonzero(n_tied > 1):
        opts = np.flatnonzero(tied[t])
        decoded[t] = opts[rng.integers(opts.size)]
    return top, n_tied, decoded


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


def _log_likelihoods(logw_rows, cand, ys) -> np.ndarray:
    """(trials, candidates) log-likelihood table; rows index candidate
    words, ys holds one output word per trial."""
    gathered = logw_rows[cand]                     # (M, n, |Y|)
    return np.einsum(
        "mns,tns->tm", gathered,
        np.eye(logw_rows.shape[1])[ys], optimize=True
    )


def _sample_outputs(w_rows, xwords, rng) -> np.ndarray:
    """One output word per trial: xwords is (trials, n) over the row
    alphabet of w_rows."""
    cum = np.cumsum(w_rows, axis=1)
    u = rng.random(xwords.shape)
    return (u[:, :, None] >= cum[xwords][:, :, :-1]).sum(axis=2)


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
    flat_w = channel.w.reshape(-1, channel.w.shape[-1])
    logw = _log_table(flat_w)
    realized = 0
    pessimistic = 0
    num_messages = None
    for tc in range(trials_codes):
        rng = _rng(seed, tc)
        books = []
        shared_v = None
        for qz in qzs:
            graph = _sample_graph(n, var_degree, check_degree,
                                  qz.field, rng)
            cb = _enumerate_codebook(graph, rate, rng)
            if same_coset and shared_v is not None:
                v = shared_v
            else:
                v = rng.integers(0, q, size=n)
                shared_v = v
            shifted = cb.field.add(cb.words, v[None, :])
            cb = replace(cb, coset=v, quantizer=qz,
                         inputs=qz.apply(shifted))
            books.append(cb)
        cand = _candidates(channel, books if mac else books[0], n)
        num_messages = cand.shape[0]
        sent = rng.integers(num_messages, size=trials_noise)
        ys = _sample_outputs(flat_w, cand[sent], rng)
        ll = _log_likelihoods(logw, cand, ys)
        top, n_tied, decoded = _ml_decide(ll, rng)
        sent_ll = ll[np.arange(trials_noise), sent]
        realized += int(np.sum(decoded != sent))
        # a bound counts the trial whenever any competitor reaches the
        # transmitted word's likelihood
        pessimistic += int(np.sum(
            (top > sent_ll + _TIE_ATOL) | (n_tied > 1)
        ))
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
    out: dict[tuple[int, ...], int] = {}
    if q == 2:
        weights = words.sum(axis=1)
        n = words.shape[1]
        for w, cnt in zip(*np.unique(weights, return_counts=True)):
            out[(n - int(w), int(w))] = int(cnt)
        return out
    for row in words:
        t = tuple(int(c) for c in np.bincount(row, minlength=q))
        out[t] = out.get(t, 0) + 1
    return out


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
    sums: dict[tuple[int, ...], float] = {}
    sumsq: dict[tuple[int, ...], float] = {}
    for t in range(trials):
        rng = _rng(seed, t)
        word_sets = []
        for _ in range(num_users):
            graph = _sample_graph(n, var_degree, check_degree, field, rng)
            cb = _enumerate_codebook(graph, rate, rng) if post_removal else None
            if cb is not None:
                word_sets.append(cb.words)
            else:
                rank, basis = rank_and_nullspace(graph.check_matrix())
                word_sets.append(_enumerate_nullspace(field, basis, n))
        if num_users == 1:
            counts = _word_type_counts(word_sets[0], q)
        else:
            w1, w2 = word_sets
            if w1.shape[0] * w2.shape[0] > 1_000_000:
                raise GuardError("codematrix tuple count exceeds the guard")
            counts = {}
            for a in range(w1.shape[0]):
                labels = w1[a][None, :] * q + w2
                for row in labels:
                    tt = tuple(int(c) for c in np.bincount(row, minlength=q * q))
                    counts[tt] = counts.get(tt, 0) + 1
        for tt, c in counts.items():
            sums[tt] = sums.get(tt, 0.0) + c
            sumsq[tt] = sumsq.get(tt, 0.0) + c * c
    qk = q ** num_users
    all_types = None
    if math.comb(n + qk - 1, qk - 1) <= 100_000:
        all_types = list(type_compositions(n, qk))
    entries = {}
    stats = {}
    keys = all_types if all_types is not None else list(sums)
    for tt in keys:
        s = sums.get(tt, 0.0)
        mean = s / trials
        var = max(0.0, sumsq.get(tt, 0.0) / trials - mean * mean)
        entries[tt] = math.log(mean) if mean > 0.0 else -math.inf
        stats[tt] = (mean, var, trials)
    r = (n * var_degree) // check_degree
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
            raise GuardError("pair scan exceeds the operation guard")
        best = n + 1
        for i in range(m - 1):
            d = (words[i + 1:] != words[i][None, :]).sum(axis=1)
            best = min(best, int(d.min()))
        return best
    cb1, cb2 = codebook
    w1, w2 = cb1.words, cb2.words
    if w1.shape[1] != w2.shape[1]:
        raise ValueError("codebooks must share one blocklength")
    m1, m2 = w1.shape[0], w2.shape[0]
    n = w1.shape[1]
    if (m1 * m2) ** 2 * n > _PAIR_OPS_GUARD:
        raise GuardError("pair scan exceeds the operation guard")
    d1 = w1[:, None, :] != w1[None, :, :]           # (m1, m1, n)
    d2 = w2[:, None, :] != w2[None, :, :]           # (m2, m2, n)
    dist = (d1[:, :, None, None, :] | d2[None, None, :, :, :]).sum(axis=4)
    same = np.zeros((m1, m1, m2, m2), dtype=bool)
    same[np.arange(m1), np.arange(m1), :, :] = True
    same &= np.eye(m2, dtype=bool)[None, None, :, :]
    dist = np.where(same, n + 1, dist)
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
    for t in range(trials):
        rng = _rng(seed, t)
        graph = _sample_graph(n, var_degree, check_degree, field, rng)
        rank, _ = rank_and_nullspace(graph.check_matrix())
        gaps[t] = (r - rank) / n
    tails = tuple(float(np.mean(gaps > e)) for e in eps_grid)
    return RateGapStats(
        n=n, design_rate=1.0 - var_degree / check_degree, trials=trials,
        eps_grid=eps_grid, tail_probs=tails,
        mean_gap=float(gaps.mean()), max_gap=float(gaps.max()),
    )
