"""Finite-blocklength achievability bounds for random code ensembles.

Point-to-point bounds come in three strengths: the exact ensemble average
of the maximum-likelihood error (ties counted as errors), its clamped
union-bound relaxation, and the closed-form relaxation with the
1/sqrt(n) tail prefactor.  Two-user MAC versions split the competitor
tail into single-user and joint terms.  LDPC variants reuse the relaxed
forms with a spectrum-ratio penalty supplied by the caller.  Everything
internal is in nats.

The two-user MAC bound is the point-to-point bound with one competitor
term per error event: user 1 wrong, user 2 wrong, or both wrong; the
point-to-point channel is the one-event case.  Every bound reads one
per-letter model (``_Context``: the supported cells pooled into atoms,
and one competitor-tail system per event), walks one lattice of
compositions (``_type_lattice``), and each lattice is guarded:

- Exact point-to-point RCU (``rcu_exact_ppc`` and the exact search of
  ``achievable_logM_ppc``) sums over output types y.  Given y^n, the sent
  word has law P(x^n | y^n) = P^n(x^n) e^{i(x^n; y^n)}, so the sent
  word's score law is the competitor's score law tilted by e^k, and one
  competitor table per y-type gives the whole inner sum.
- Relaxed bounds, point-to-point and MAC (``rcu_relaxed_ppc``,
  ``ldpc_rcu_ppc``, the ``relaxed`` component of ``rcu_mac``,
  ``ldpc_rcu_mac``), are one sum over the law of the event i-vector: one
  point per composition of n over the distinct per-letter i-vectors
  (n + 1 points for the BSC).
- Exact two-user MAC bounds sum over atom types (n + 1 points for the
  adder and xor MACs).
- Monte Carlo routes sample words from one chunked Philox stream, count
  each word's atoms and read the same competitor tables.

A competitor table is the law of an n-fold sum of one likelihood-ratio
atom set per conditioning symbol, held as sorted numpy arrays.  Ratio keys
are log-domain floats for rational and float channels alike: after every
convolution step, keys within 1e-12 of their group's first key merge into
one atom (``_merge_close``), and a competitor whose score comes within
1e-9 of the sent word's information density counts as a tie, hence as an
error, which keeps every bound conservative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import GuardError
from .channel import DmcModel, InputPmf, MacModel, Quantizer, induced_input_pmf
from .infodensity import (EVENTS, _check_sizes, _event_tables,
                          average_inputs, mac_moments, ppc_moments)
from .spectrum import _compositions, _num_compositions

LN2 = math.log(2.0)

# a route refuses once the lattice it walks outgrows this
_LATTICE_GUARD = 1_000_000
# the exact route refuses once its competitor tables could build more keys
# than this before merging (numpy work, about 10 s on a 2-core VM)
_TABLE_GUARD = 50_000_000
# float ratio keys closer than this are treated as one atom
_KEY_MERGE_TOL = 1e-12
# tie tolerance: keys within this below a threshold count as ties
_TIE_TOL = 1e-9
_MC_CHUNK = 4096
_MIN_TRIALS = 1000
_SEED_LIMIT = 1 << 63  # numpy folds Philox keys from here on, or warns


@functools.cache
def _philox_key_class():
    """The seed class of ``_keyed_rng``, built on first use so that
    importing this module leaves ``numpy.random`` unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """A Philox seed whose state is its key: Philox asks it for two
        uint64 words and runs from key [seed, stream] at counter 0, the
        state of ``Philox(key=[seed, stream])`` without the OS-entropy
        SeedSequence that call builds and drops."""

        def __init__(self, seed: int, stream: int):
            self.key = (seed, stream)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is 2 uint64 words, not "
                                 f"{n_words} of {np.dtype(dtype)}")
            return np.array(self.key, dtype=np.uint64)

    return PhiloxKey


def _keyed_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by (seed, stream), both in [0, 2**63): the
    stream of ``Philox(key=[seed, stream])``."""
    if not (0 <= seed < _SEED_LIMIT and 0 <= stream < _SEED_LIMIT):
        raise ValueError(f"seed and stream must lie in [0, 2**63), got "
                         f"({seed}, {stream})")
    return np.random.Generator(
        np.random.Philox(_philox_key_class()(seed, stream)))


class WindowError(ValueError):
    """The blocklength lies below the validity window of the proof-constant
    closed form for ``achievable_logM_ppc``."""


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    """Uniform result record for every bound in this module.

    ``value`` is a probability for error bounds and a log-cardinality for
    rate bounds (see ``units``).  ``method`` is one of "exact-type-enum",
    "monte-carlo", or "closed-form"; Monte Carlo reports must carry
    ``ci_half_width`` and ``trials`` and nothing else may.
    """

    name: str
    value: float
    units: str
    method: str
    n: int
    num_messages: object = None
    ci_half_width: float | None = None
    trials: int | None = None
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("exact-type-enum", "monte-carlo", "closed-form"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "monte-carlo":
            if self.ci_half_width is None or self.trials is None:
                raise ValueError("monte-carlo reports need ci_half_width and trials")
        elif self.ci_half_width is not None or self.trials is not None:
            raise ValueError("only monte-carlo reports carry a CI and trial count")
        if self.units == "probability":
            v = self.value
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"probability value {v} outside [0, 1]")
            object.__setattr__(self, "value", min(max(v, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Gaussian tail machinery

# Acklam's rational approximation to the standard normal quantile,
# refined below by one Newton step.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_PLOW = 0.02425


def q_fun(x: float) -> float:
    """Standard normal upper tail Q(x) = P[N(0,1) > x]."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _acklam_phi_inv(p: float) -> float:
    if p < _ACK_PLOW:
        r = math.sqrt(-2.0 * math.log(p))
        num = ((((_ACK_C[0] * r + _ACK_C[1]) * r + _ACK_C[2]) * r + _ACK_C[3]) * r
               + _ACK_C[4]) * r + _ACK_C[5]
        den = (((_ACK_D[0] * r + _ACK_D[1]) * r + _ACK_D[2]) * r + _ACK_D[3]) * r + 1.0
        return num / den
    if p > 1.0 - _ACK_PLOW:
        r = math.sqrt(-2.0 * math.log(1.0 - p))
        num = ((((_ACK_C[0] * r + _ACK_C[1]) * r + _ACK_C[2]) * r + _ACK_C[3]) * r
               + _ACK_C[4]) * r + _ACK_C[5]
        den = (((_ACK_D[0] * r + _ACK_D[1]) * r + _ACK_D[2]) * r + _ACK_D[3]) * r + 1.0
        return -num / den
    r = p - 0.5
    s = r * r
    num = (((((_ACK_A[0] * s + _ACK_A[1]) * s + _ACK_A[2]) * s + _ACK_A[3]) * s
            + _ACK_A[4]) * s + _ACK_A[5]) * r
    den = ((((_ACK_B[0] * s + _ACK_B[1]) * s + _ACK_B[2]) * s + _ACK_B[3]) * s
           + _ACK_B[4]) * s + 1.0
    return num / den


def q_inv(epsilon: float) -> float:
    """Inverse of ``q_fun`` on (0, 1): the x with Q(x) = epsilon.

    Rational approximation plus exactly one Newton correction, accurate to
    well below 1e-9 across [1e-12, 1 - 1e-12].
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"q_inv needs epsilon in (0, 1), got {epsilon}")
    x = -_acklam_phi_inv(epsilon)
    # Newton step on Q(x) - epsilon; Q'(x) = -phi(x)
    phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if phi > 0.0:
        x += (q_fun(x) - epsilon) / phi
    return x


@dataclass(frozen=True)
class GaussianRegion:
    """Acceptance region data for a d-dimensional Gaussian membership test:
    mean-zero covariance plus a target outage ``epsilon``."""

    covariance: np.ndarray
    epsilon: float

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * scale:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "covariance", cov)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]


class MembershipResult(NamedTuple):
    member: bool
    prob_estimate: float
    ci_half_width: float
    indeterminate: bool


def qinv_membership(region: GaussianRegion, z, trials: int,
                    seed: int = 0) -> MembershipResult:
    """Monte Carlo test of P[Z <= z componentwise] >= 1 - epsilon for
    Z ~ N(0, covariance).

    ``member`` is True only when the lower 95% confidence edge clears the
    target; ``indeterminate`` flags a confidence interval that straddles
    it.  Sampling is chunked with one Philox substream per chunk keyed by
    (seed, chunk), so results are reproducible and order-independent.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (region.dim,):
        raise ValueError(f"z has shape {z.shape}, expected ({region.dim},)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    w, u = np.linalg.eigh(region.covariance)
    keep = w > max(1e-18, float(w.max(initial=0.0)) * 1e-12)
    root = u[:, keep] * np.sqrt(w[keep])      # (d, r) factor, cov = root root^T
    rank = root.shape[1]
    hits = 0
    done = 0
    chunk_idx = 0
    while done < trials:
        c = min(_MC_CHUNK * 32, trials - done)
        rng = _keyed_rng(seed, chunk_idx)
        if rank == 0:
            s = np.zeros((c, region.dim))
        else:
            s = rng.standard_normal((c, rank)) @ root.T
        hits += int(np.count_nonzero(np.all(s <= z[None, :], axis=1)))
        done += c
        chunk_idx += 1
    p_hat = hits / trials
    ci = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    target = 1.0 - region.epsilon
    member = p_hat - ci >= target
    indeterminate = (not member) and (p_hat + ci >= target)
    return MembershipResult(bool(member), p_hat, ci, bool(indeterminate))


# ---------------------------------------------------------------------------
# competitor-tail machinery


def _merge_close(keys: np.ndarray, probs: np.ndarray):
    """Collapse ascending ``keys`` into atoms.  A key joins the group of
    the key before it when it equals the group's first key or, both being
    finite, lies within ``_KEY_MERGE_TOL`` above it; the group keeps its
    first key and sums its probabilities.  Equal -inf keys merge by
    equality, since their difference is nan."""
    with np.errstate(invalid="ignore"):     # -inf - -inf
        new = ~((keys[1:] == keys[:-1]) | (np.diff(keys) <= _KEY_MERGE_TOL))
    starts = np.flatnonzero(np.concatenate(([True], new)))
    # a chain of close keys wider than the tolerance splits greedily
    ends = np.append(starts[1:], keys.size) - 1
    with np.errstate(invalid="ignore"):
        wide = np.flatnonzero(keys[ends] - keys[starts] > _KEY_MERGE_TOL)
    if wide.size:
        extra = []
        for s, e in zip(starts[wide], ends[wide]):
            first = keys[s]
            for j in range(s + 1, e + 1):
                if keys[j] - first > _KEY_MERGE_TOL:
                    extra.append(j)
                    first = keys[j]
        starts = np.union1d(starts, extra)
    return keys[starts], np.add.reduceat(probs, starts)


def _sorted_law(keys: np.ndarray, probs: np.ndarray):
    """(keys, probs) as a law: a stable sort by key, then ``_merge_close``."""
    order = np.argsort(keys, kind="stable")
    return _merge_close(keys[order], probs[order])


def _convolve(law, atoms):
    """Law of the sum of two independent scores, each a (keys, probs)
    pair: one outer sum, a stable sort and ``_merge_close``."""
    return _sorted_law(np.add.outer(law[0], atoms[0]).ravel(),
                       np.multiply.outer(law[1], atoms[1]).ravel())


class _TailSystem:
    """Law of the competitor score under n-fold conditioning types, as
    sorted numpy tables.

    ``atoms[cell]`` lists (log-likelihood-ratio, probability) pairs for one
    conditioning symbol; the score of a sequence is the sum over its
    letters, i.e. the competitor's information density.  Cells whose atom
    laws are equal form one class (``classes[cell]``), since only the
    number of letters drawn from each law shapes the score.  Each class
    caches its c-fold power, built from its (c-1)-fold power by one
    ``_convolve`` step; the table of a class-count vector is the
    convolution of its classes' cached powers, merged after every step by
    the ``_merge_close`` rule.  A table is (keys ascending, probs, suffix)
    with suffix[i] = P[score >= keys[i]] and a trailing 0.
    ``tail(class_counts, thresholds)`` returns P[score >= thr - _TIE_TOL]
    per threshold, so exact ties, which float rounding can push either way,
    count as errors.  A threshold is the sent word's score, which a
    competitor matches with positive probability, so a tail of 0 can only
    come from an underflowed table; it is refused, not read as "no error".
    """

    def __init__(self, atoms):
        self.classes = []
        self.laws = []
        for pairs in atoms:
            keys, probs = _sorted_law(*np.asarray(pairs, dtype=np.float64).T)
            for c, (ck, cp) in enumerate(self.laws):
                if np.array_equal(keys, ck) and np.array_equal(probs, cp):
                    break
            else:
                c = len(self.laws)
                self.laws.append((keys, probs))
            self.classes.append(c)
        # the tables of every class-count vector summing to n build at most
        # C(n + num_atoms - 1, num_atoms - 1) keys before merging
        self.num_atoms = sum(keys.size for keys, _ in self.laws)
        self._powers = [[(np.zeros(1), np.ones(1))] for _ in self.laws]
        self._tables: dict = {}

    def _power(self, c: int, count: int):
        powers = self._powers[c]
        while len(powers) <= count:
            powers.append(_convolve(powers[-1], self.laws[c]))
        return powers[count]

    def build(self, class_counts):
        """The table of ``class_counts``, built afresh (not cached)."""
        law = None
        for c, count in enumerate(class_counts):
            if count:
                power = self._power(c, count)
                law = power if law is None else _convolve(law, power)
        keys, probs = law
        suffix = np.append(np.cumsum(probs[::-1])[::-1], 0.0)
        return keys, probs, suffix

    def tail(self, class_counts, thresholds) -> np.ndarray:
        """Competitor tail at each of ``thresholds`` under one class-count
        vector, whose table is cached."""
        class_counts = tuple(int(c) for c in class_counts)
        if class_counts not in self._tables:
            self._tables[class_counts] = self.build(class_counts)
        keys, _probs, suffix = self._tables[class_counts]
        tails = suffix[np.searchsorted(keys, thresholds - _TIE_TOL)]
        if not tails.all():
            raise ValueError(
                f"competitor tail is 0: table probabilities underflowed at "
                f"n={sum(class_counts)}"
            )
        return np.minimum(tails, 1.0)


def _check_lattice(points: int, what: str, caller: str,
                   guard: int = _LATTICE_GUARD):
    """Refuse a route whose lattice ``what`` has more than ``guard``
    points, naming ``caller`` as the way out."""
    if points > guard:
        raise GuardError(
            f"{what} has {points} points, beyond the {guard} enumeration "
            f"guard; use {caller}"
        )


def _type_lattice(n: int, log_probs, what: str, caller: str):
    """(types, log-probabilities) of n letters drawn from atoms of
    probabilities p = e^``log_probs``: every composition c of n into len(p)
    parts, one row each (``spectrum._compositions``), and ln[multinomial(n;
    c) prod_j p_j^{c_j}].  The lattice ``what`` is guarded."""
    _check_lattice(_num_compositions(n, len(log_probs)), what, caller)
    types = _compositions(n, len(log_probs))
    log_fact = np.array([math.lgamma(c + 1.0) for c in range(n + 1)])
    log_w = np.full(len(types), log_fact[n])
    for count, log_p in zip(types.T, log_probs):
        log_w = log_w + count * log_p - log_fact[count]
    return types, log_w


def _count_sums(counts, values) -> np.ndarray:
    """counts @ values, ``_MC_CHUNK`` rows at a time, so that numpy never
    casts a whole lattice of up to a million count rows at once."""
    return np.concatenate([counts[i:i + _MC_CHUNK] @ values
                           for i in range(0, len(counts), _MC_CHUNK)])


def _pool(log_probs, ivecs, classes):
    """Pool rows into atoms: a row joins the first row whose i-vector is
    within ``_KEY_MERGE_TOL`` of its own and whose class equals its own, in
    every event.  Returns atoms' first rows, rows' atoms, atoms' log-probs."""
    same = (np.all(np.abs(ivecs[:, None] - ivecs) <= _KEY_MERGE_TOL, axis=2)
            & np.all(classes[:, None] == classes, axis=2))
    first, atom = np.unique(same.argmax(axis=1), return_inverse=True)
    return first, atom, np.log(np.bincount(atom, weights=np.exp(log_probs)))


def _sample_outputs(w_rows, xwords, rng) -> np.ndarray:
    """One output word per row of the (trials, n) input words ``xwords``,
    each letter inverting the CDF of its row of ``w_rows`` at a uniform."""
    cum = np.cumsum(w_rows, axis=1)
    u = rng.random(xwords.shape)
    return (u[:, :, None] >= cum[:, :-1][xwords]).sum(axis=2)


class _Context:
    """The per-letter model of P_1 x ... x P_K x W for K = 1 or 2 users,
    read by every random-coding bound: its supported cells pooled into
    atoms, and one competitor-tail system per error event.

    ``w`` has shape (|X_1|, ..., |X_K|, |Y|).  For an event E the
    competitor letters are x_E, drawn from the product of E's input pmfs,
    and the conditioning symbol is (x_rest, y), rest being the users not in
    E; E's system holds the symbols the output reaches, P(y|x_rest) > 0,
    in C order over (x_rest, y).  Information densities, of cells and
    competitor atoms alike, are read from ``infodensity._event_tables``.

    A joint type enters a bound only through its i-vector and, per event,
    its letter counts per class of the event's system, so cells whose
    i-vectors agree within ``_KEY_MERGE_TOL`` and whose conditioning
    symbols share a class, in every event, are one atom (``_pool``): by the
    multinomial theorem a sum over joint types is the same sum over atom
    types.  Atom j has log-probability ``log_probs[j]``, i-vector
    ``ivecs[j]`` and class ``classes[j, e]`` in event e; atoms run in the
    order of their first cell, and ``_atom_of`` maps flat cells to atoms.
    """

    def __init__(self, w: np.ndarray, pmfs):
        probs = _check_sizes(w, pmfs)
        self._w = w
        self._probs = probs
        k = len(probs)
        tables = _event_tables(w, probs)
        joint = functools.reduce(np.multiply.outer, probs)[..., None] * w
        live = joint > 0.0
        idx = np.nonzero(live)
        self.systems = []
        classes = []
        for event, tab in zip(EVENTS[k], tables):
            rest = tuple(u for u in range(k) if u not in event)
            marg = average_inputs(w, probs, event)
            cond = np.ravel_multi_index([idx[u] for u in rest] + [idx[k]],
                                        marg.shape)
            marg = marg.ravel()
            reached = marg > 0.0
            prior = functools.reduce(np.multiply.outer,
                                     [probs[u] for u in event]).ravel()
            keys = tab.transpose(rest + (k,) + event).reshape(marg.size, -1)
            support = prior > 0.0
            system = _TailSystem(np.stack(np.broadcast_arrays(
                keys[reached][:, support], prior[support]), axis=-1))
            self.systems.append(system)
            classes.append(np.array(system.classes)[np.cumsum(reached)[cond]
                                                    - 1])
        self.num_cells = int(live.sum())
        ivecs = np.stack([tab[live] for tab in tables], axis=1)
        classes = np.stack(classes, axis=1)
        first, atom, self.log_probs = _pool(np.log(joint[live]), ivecs,
                                            classes)
        self.ivecs = ivecs[first]
        self.classes = classes[first]
        self._atom_of = np.full(w.size, -1)
        self._atom_of[np.flatnonzero(live)] = atom

    def tails(self, counts):
        """(i-vectors, competitor tails), each (rows, events), of atom-count
        rows: event e reads its system's table of the row's class counts,
        counts @ onehot(classes[:, e]), at the row's i-vector entry e."""
        ivecs = _count_sums(counts, self.ivecs)
        tails = np.empty_like(ivecs)
        for e, system in enumerate(self.systems):
            onehot = np.eye(len(system.laws), dtype=int)[self.classes[:, e]]
            class_counts, group = np.unique(_count_sums(counts, onehot),
                                            axis=0, return_inverse=True)
            rows = np.split(np.argsort(group, kind="stable"),
                            np.cumsum(np.bincount(group))[:-1])
            for cc, r in zip(class_counts, rows):
                tails[r, e] = system.tail(cc, ivecs[r, e])
        return ivecs, tails

    def sample(self, n: int, trials: int, seed: int):
        """``tails`` of ``trials`` sampled word tuples.  Chunk c holds up to
        ``_MC_CHUNK`` trials drawn from Philox key (seed, c): user 1's
        uniforms, then user 2's, then the outputs', each a (chunk, n) block
        inverting a CDF; one bincount makes the chunk's atom-count rows."""
        w = self._w
        atoms = len(self.log_probs)
        out = []
        for chunk_idx, done in enumerate(range(0, trials, _MC_CHUNK)):
            c = min(_MC_CHUNK, trials - done)
            rng = _keyed_rng(seed, chunk_idx)
            xs = [np.minimum(np.searchsorted(np.cumsum(p), rng.random((c, n)),
                                             side="right"), p.size - 1)
                  for p in self._probs]
            rows = np.ravel_multi_index(xs, w.shape[:-1])
            cells = rows * w.shape[-1] + _sample_outputs(
                w.reshape(-1, w.shape[-1]), rows, rng)
            slots = np.arange(c)[:, None] * atoms + self._atom_of[cells]
            out.append(self.tails(np.bincount(
                slots.ravel(), minlength=c * atoms).reshape(c, atoms)))
        return tuple(map(np.concatenate, zip(*out)))


def _log_count(count: int) -> float:
    """ln of a count of any size (``math.log`` takes ints past the float
    range); -inf for 0."""
    return math.log(count) if count else -math.inf


def _per_event(logs) -> np.ndarray:
    """Per error event, the sum of the per-user ``logs`` over its users:
    the log of a product such as the (M_1 - 1)(M_2 - 1) competitors of the
    event "both wrong"."""
    return np.array([sum(logs[u] for u in event)
                     for event in EVENTS[len(logs)]])


def _clamped_sum(log_terms) -> np.ndarray:
    """min{1, sum_e e^{min(x_e, 0)}} over the last axis of ``log_terms``:
    the clamped union of the per-event terms e^{x_e}, each capped at 1 so
    that none overflows; a term of -inf is absent."""
    return np.minimum(np.exp(np.minimum(log_terms, 0.0)).sum(axis=-1), 1.0)


def _clamped_union(tails, log_counts) -> np.ndarray:
    """min{1, sum_e N_e p_e} over the last axis of the competitor tails p,
    N_e = e^{log_counts[e]} taken in the log domain so that any count
    works."""
    with np.errstate(divide="ignore"):      # ln 0 at p = 0
        return _clamped_sum(log_counts + np.log(tails))


def _relaxed_sum(ctx: _Context, n: int, log_scales, caller: str) -> float:
    """E[min{1, sum_e e^{min(s_e - i_e, 0)}}] over the law of the event
    i-vector i of n letters from the context, s = ``log_scales`` (-inf for
    an inactive event).  The context's atoms pool further by i-vector
    alone (``_pool``); with a pooled atoms the law has one point per
    composition c of n into a parts, of probability multinomial(n; c)
    prod_j p_j^{c_j} and key sum_j c_j v_j.  Its C(n+a-1, a-1) points are
    guarded (``caller`` is the way out).
    """
    first, _atom, log_probs = _pool(ctx.log_probs, ctx.ivecs,
                                    np.zeros_like(ctx.classes))
    types, log_w = _type_lattice(n, log_probs, "information-density lattice",
                                 caller)
    # the weights sum to 1 up to rounding; dividing by their sum makes a
    # sum saturated at every point read exactly 1
    weights = np.exp(log_w)
    keys = _count_sums(types, ctx.ivecs[first])
    return float((weights * _clamped_sum(log_scales - keys)).sum()
                 / weights.sum())


def _as_pmf(pmf) -> InputPmf:
    if isinstance(pmf, InputPmf):
        return pmf
    return InputPmf.from_values(pmf)


def _check_block(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"blocklength must be a positive integer, got {n}")


# ---------------------------------------------------------------------------
# point-to-point bounds


def _error_from_tails(tails: np.ndarray, num_messages) -> np.ndarray:
    """1 - (1 - p)^(M-1) per competitor tail p in [0, 1], stable for small
    p and large M, with ln(M-1) in the exponent so that M need not fit a
    float; 0 for M = 1, which has no competitor."""
    if num_messages == 1:
        return np.zeros_like(tails)
    # ln 0 at p = 0 and p = 1, and exponents past the float range
    with np.errstate(divide="ignore", over="ignore"):
        return -np.expm1(-np.exp(math.log(num_messages - 1)
                                 + np.log(-np.log1p(-tails))))


def _sent_law(ctx: _Context, n: int, caller: str):
    """Exact point-to-point law of (sent score, competitor tail), summed
    over output types: (weights, tails), one entry per (y-type, key) pair.

    Given y^n of type t, a competitor's score i(Xbar^n; y^n) has the law of
    the table of t, and the sent word, P(x^n | y^n) = P^n(x^n)
    e^{i(x^n; y^n)}, scores key k with probability P_comp(k) e^k.  So the
    weight of (t, k) is multinomial(n; t) prod_b P_Y(b)^{t_b} P_comp(k)
    e^k, and its tail is P_comp[score >= k - _TIE_TOL], ties counting as
    errors.  Outputs whose competitor laws are equal form one class of the
    one-user context's tail system (both outputs of a BSC; the two
    unerased outputs of a BEC), so y-types are taken over classes: t
    counts letters per class and P_Y(b) is the class's output probability.
    The y-type lattice and the keys the tables may build are guarded
    (``caller`` is the way out).  The weights must sum to
    (sum_b P_Y(b))^n; a table probability that underflowed breaks that,
    and is refused rather than returned low.  Past that check they are
    divided by their sum, so that a bound saturated at every point reads
    exactly 1.
    """
    system, = ctx.systems
    p_y = np.bincount(ctx.classes[:, 0], weights=np.exp(ctx.log_probs),
                      minlength=len(system.laws))
    types, log_types = _type_lattice(n, np.log(p_y), "y-type lattice", caller)
    _check_lattice(_num_compositions(n, system.num_atoms),
                   "competitor-table lattice", caller, _TABLE_GUARD)
    weights = []
    tails = []
    with np.errstate(divide="ignore"):      # log of an underflowed 0
        for t, log_t in zip(types.tolist(), log_types):
            keys, p_comp, suffix = system.build(t)
            weights.append(np.exp(np.log(p_comp) + keys + log_t))
            tails.append(suffix[np.searchsorted(keys, keys - _TIE_TOL)])
    weights = np.concatenate(weights)
    mass = float(p_y.sum()) ** n
    if not abs(float(weights.sum()) - mass) <= 1e-9:
        raise ValueError(
            f"sent-word law sums to {float(weights.sum())!r}, not {mass!r}: "
            f"table probabilities underflowed at n={n}"
        )
    return weights / weights.sum(), np.minimum(np.concatenate(tails), 1.0)


def rcu_exact_ppc(dmc: DmcModel, input_pmf, n: int, num_messages) -> BoundReport:
    """Exact ensemble-average ML error (ties as errors) of the i.i.d. random
    code with M codewords, summed over output types (``_sent_law``): per
    y-type, one competitor table and its e^k tilt give the law of the sent
    word's score, so the inner sum is sum_k P_comp(k) e^k f(tail(k)).

    Equals the brute-force average over all equally-likely codebooks when
    the input pmf matches the codeword distribution.  The clamped union
    form E[min{1, (M-1) P[tie-or-better]}] is reported under
    ``components["union_bound"]``.  ``components["joint_types"]`` counts
    the joint types of n letters over the c supported (x, y) cells,
    C(n+c-1, c-1) (0 when M = 1): the size of the problem, not of the
    y-type lattice the sum walks.
    """
    _check_block(n)
    if num_messages < 1:
        raise ValueError(f"need at least one message, got {num_messages}")
    ctx = _Context(dmc.w, (_as_pmf(input_pmf),))
    weights, tails = _sent_law(ctx, n, "rcu_mc_ppc")
    m = num_messages
    union = float(weights @ _clamped_union(tails[:, None],
                                           _log_count(m - 1)))
    count = _num_compositions(n, ctx.num_cells) if m > 1 else 0
    return BoundReport(
        name="rcu-exact-ppc",
        value=float(weights @ _error_from_tails(tails, m)),
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=m,
        components={"union_bound": min(union, 1.0), "joint_types": count},
    )


def rcu_mc_ppc(dmc: DmcModel, input_pmf, n: int, num_messages,
               trials: int, seed: int = 0) -> BoundReport:
    """Monte Carlo estimate of the same ensemble-average error as
    ``rcu_exact_ppc``: (X^n, Y^n) is sampled, the competitor tail for each
    sample is read from the table of its y-type, and the mean carries a
    1.96 sigma / sqrt(trials) half-width.
    """
    _check_block(n)
    if num_messages < 1:
        raise ValueError(f"need at least one message, got {num_messages}")
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be >= {_MIN_TRIALS}, got {trials}")
    m = num_messages
    tails = _Context(dmc.w, (_as_pmf(input_pmf),)).sample(n, trials,
                                                          seed)[1][:, 0]
    v = _error_from_tails(tails, m)
    union = _clamped_union(tails[:, None], _log_count(m - 1))
    return _mc_report("rcu-mc-ppc", n, m, trials, float(v.sum()),
                      float(v @ v),
                      {"union_bound": float(union.sum()) / trials})


def _mc_report(name: str, n: int, num_messages, trials: int, total: float,
               total_sq: float, components: dict) -> BoundReport:
    # sample mean with a 1.96 sigma / sqrt(trials) half-width
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    if trials > 1:
        var *= trials / (trials - 1)
    ci = 1.96 * math.sqrt(var / trials)
    return BoundReport(
        name=name,
        value=mean,
        units="probability",
        method="monte-carlo",
        n=n,
        num_messages=num_messages,
        ci_half_width=ci,
        trials=trials,
        components=components,
    )


def _relaxed_ppc(dmc: DmcModel, pmf: InputPmf, n: int, log_scale: float):
    """(value, moments) of the relaxed bound
    E[min{1, e^log_scale (A/sqrt(n)) e^{-i(X^n;Y^n)}}], A the closed-form
    tail prefactor, summed exactly over the law of i(X^n; Y^n)
    (``_relaxed_sum``)."""
    moments = ppc_moments(dmc, pmf)
    if moments.tail_prefactor is None:
        raise ValueError(
            "relaxed bound needs positive information-density variance"
        )
    log_pref = math.log(moments.tail_prefactor) - 0.5 * math.log(n)
    return _relaxed_sum(_Context(dmc.w, (pmf,)), n, log_scale + log_pref,
                        "rcu_mc_ppc"), moments


def rcu_relaxed_ppc(dmc: DmcModel, input_pmf, n: int, num_messages) -> BoundReport:
    """Relaxed random-coding bound E[min{1, M (A/sqrt(n)) e^{-I_n}}] with the
    closed-form tail prefactor A; the outer expectation is an exact sum
    over the law of i(X^n; Y^n)."""
    _check_block(n)
    if num_messages < 0:
        raise ValueError(f"message count must be >= 0, got {num_messages}")
    m = num_messages
    value, moments = _relaxed_ppc(dmc, _as_pmf(input_pmf), n,
                                  math.log(m) if m > 0 else -math.inf)
    return BoundReport(
        name="rcu-relaxed-ppc",
        value=value,
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=m,
        components={
            "tail_prefactor": moments.tail_prefactor,
            "mean_info_density": moments.mean,
        },
    )


def achievable_logM_ppc(dmc: DmcModel, input_pmf, n: int, epsilon: float,
                        units: str = "nats",
                        strict_window: bool = True) -> BoundReport:
    """Largest guaranteed-achievable log M at blocklength n and target
    error epsilon.

    Inside the validity window the proof-constant closed form
    n I + (1/2) ln n - ln A - sqrt(n V) Qinv(epsilon - (B+A)/sqrt(n))
    applies.  Below the window the default is an error naming the window;
    with ``strict_window=False`` the function instead searches for the
    largest integer M whose exact ensemble-average error stays strictly
    below epsilon, which is a valid achievability statement at every n
    (some code in the ensemble performs at least as well as the average).
    The search builds the y-type law of ``rcu_exact_ppc`` once and reads
    it for every candidate M.
    """
    _check_block(n)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"target error must be in (0, 1), got {epsilon}")
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")
    pmf = _as_pmf(input_pmf)
    moments = ppc_moments(dmc, pmf)
    if moments.tail_prefactor is None or moments.be_term is None:
        raise ValueError(
            "achievable log M needs positive information-density variance"
        )
    i_mean = moments.mean
    v = moments.variance
    ba = moments.be_term + moments.tail_prefactor
    if epsilon <= 0.5:
        window = (ba / epsilon) ** 2
    else:
        window = (ba / (epsilon - 0.5)) ** 2
    in_window = n > window
    components: dict = {
        "window_n_min": window,
        "mean_info_density": i_mean,
        "dispersion": v,
        "be_plus_prefactor": ba,
        "asymptotic_rate_nats": i_mean - math.sqrt(v / n) * q_inv(epsilon)
        + math.log(n) / (2.0 * n),
    }
    if in_window:
        u = epsilon - ba / math.sqrt(n)
        log_m = (n * i_mean + 0.5 * math.log(n)
                 - math.log(moments.tail_prefactor)
                 - math.sqrt(n * v) * q_inv(u))
        log_m = max(log_m, 0.0)
        # floor(e^log_m) past the float range: e^(log_m - shift ln 2) << shift
        shift = max(math.floor(log_m / LN2) - 1000, 0)
        m_int = max(math.floor(math.exp(log_m - shift * LN2)) << shift, 1)
        components["path"] = "proof-constant"
        method = "closed-form"
    else:
        if strict_window:
            raise WindowError(
                f"n={n} is below the validity window n > {window:.6g} for "
                f"target error {epsilon}; pass strict_window=False to fall "
                f"back to the finite relaxed-bound search"
            )
        weights, tails = _sent_law(_Context(dmc.w, (pmf,)), n, "rcu_mc_ppc")

        def exact_err(m: int) -> float:
            return float(weights @ _error_from_tails(tails, m))

        # largest integer M with exact ensemble error strictly below target;
        # M = 1 errs with probability 0, so the search never comes up empty,
        # and the error tends to 1 as M grows, so the doubling stops
        lo_m = 1
        hi_m = 2
        while exact_err(hi_m) < epsilon:
            lo_m, hi_m = hi_m, 2 * hi_m
        while hi_m - lo_m > 1:
            mid = (lo_m + hi_m) // 2
            if exact_err(mid) < epsilon:
                lo_m = mid
            else:
                hi_m = mid
        log_m = math.log(lo_m)
        m_int = lo_m
        components["exact_error_at_m"] = exact_err(lo_m)
        components["path"] = "exact-search"
        method = "exact-type-enum"
    value = log_m if units == "nats" else log_m / LN2
    components["rate_per_symbol"] = value / n
    return BoundReport(
        name="achievable-log-messages",
        value=value,
        units=units,
        method=method,
        n=n,
        num_messages=m_int,
        components=components,
    )


# ---------------------------------------------------------------------------
# two-user MAC bounds


def rcu_mac(mac: MacModel, pmf1, pmf2, n: int, m1, m2,
            mode: str = "exact", trials: int = 10_000,
            seed: int = 0) -> BoundReport:
    """Two-user MAC random-coding bound
    E[min{1, (M1-1) P1 + (M2-1) P2 + (M1-1)(M2-1) P12}] with ties counted
    as errors in each competitor tail.

    ``mode="exact"`` sums exactly over atom types (``_Context``);
    ``mode="mc"`` samples word triples.
    The relaxed sum with the three 1/sqrt(n) prefactors, over the law of
    the event i-vector or the sampled i-vectors, is reported under
    ``components["relaxed"]`` when all needed prefactors exist (terms whose
    message count is 1 are omitted, matching their identically-zero exact
    counterparts).  ``components["joint_types"]`` counts the joint types
    of n letters over the c supported cells, C(n+c-1, c-1): the size of
    the problem, not of the atom-type lattice the exact sum walks.
    """
    _check_block(n)
    if m1 < 1 or m2 < 1:
        raise ValueError("message counts must be >= 1")
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    p1 = _as_pmf(pmf1)
    p2 = _as_pmf(pmf2)
    prefs = mac_moments(mac, p1, p2).tail_prefactors
    ctx = _Context(mac.w, (p1, p2))
    # competitors per event; an event with none is inactive
    log_counts = _per_event((_log_count(m1 - 1), _log_count(m2 - 1)))
    active = log_counts > -math.inf
    relax_ok = bool(np.all(np.isfinite(prefs[active])))
    log_scales = np.where(active, _per_event((math.log(m1), math.log(m2)))
                          + np.log(prefs) - 0.5 * math.log(n), -math.inf)
    if mode == "exact":
        counts, log_w = _type_lattice(n, ctx.log_probs, "atom-type lattice",
                                      "mode='mc'")
        ivecs, tails = ctx.tails(counts)
    else:
        if trials < _MIN_TRIALS:
            raise ValueError(f"trials must be >= {_MIN_TRIALS}, got {trials}")
        ivecs, tails = ctx.sample(n, trials, seed)
    v = _clamped_union(tails, log_counts)
    relaxed = float("nan")
    if relax_ok and mode == "exact":
        relaxed = _relaxed_sum(ctx, n, log_scales, "mode='mc'")
    elif relax_ok:
        relaxed = float(_clamped_sum(log_scales - ivecs).sum()) / trials
    components = {
        "relaxed": relaxed,
        "relaxed_available": relax_ok,
        "tail_prefactors": tuple(float(f) for f in prefs),
    }
    if mode == "mc":
        return _mc_report("rcu-mac", n, (m1, m2), trials, float(v.sum()),
                          float(v @ v), components)
    return BoundReport(
        name="rcu-mac",
        value=min(float(np.exp(log_w) @ v), 1.0),
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=(m1, m2),
        components={"joint_types": _num_compositions(n, ctx.num_cells),
                    **components},
    )


@dataclass(frozen=True)
class RegionCheckResult:
    """Outcome of the Gaussian rate-region membership test.  ``margin`` is
    prob_estimate - (1 - epsilon); the O(1/n) remainder of the expansion is
    not quantified by the bound, so it is reported as zero and flagged."""

    member: bool
    margin: float
    prob_estimate: float
    ci_half_width: float
    indeterminate: bool
    z: tuple
    residual_term: float = 0.0
    residual_unquantified: bool = True


def mac_region_check(mac: MacModel, pmf1, pmf2, n: int, epsilon: float,
                     rate1: float, rate2: float, trials: int = 200_000,
                     seed: int = 0) -> RegionCheckResult:
    """Tests whether the rate pair (rate1, rate2), in nats per symbol, sits
    inside the order-(1/2 ln n)/n achievable region at blocklength n and
    error target epsilon.

    The test point is z = sqrt(n) (I + (ln n / 2n) 1 - (R1, R2, R1+R2))
    against the three-dimensional info-density Gaussian.
    """
    _check_block(n)
    p1 = _as_pmf(pmf1)
    p2 = _as_pmf(pmf2)
    mm = mac_moments(mac, p1, p2)
    cov = mm.cov
    if float(np.max(np.linalg.eigvalsh(cov))) <= 1e-14:
        raise ValueError(
            "dispersion covariance has rank zero; the Gaussian region "
            "test is degenerate for this channel and input pair"
        )
    shift = math.log(n) / (2.0 * n)
    rates = np.array([rate1, rate2, rate1 + rate2])
    z = math.sqrt(n) * (mm.means + shift - rates)
    res = qinv_membership(GaussianRegion(cov, epsilon), z, trials, seed)
    return RegionCheckResult(
        member=res.member,
        margin=res.prob_estimate - (1.0 - epsilon),
        prob_estimate=res.prob_estimate,
        ci_half_width=res.ci_half_width,
        indeterminate=res.indeterminate,
        z=tuple(float(v) for v in z),
    )


# ---------------------------------------------------------------------------
# LDPC ensemble variants


def _ldpc_design(n: int, var_degree: int, check_degree: int, q: int):
    if var_degree < 2 or check_degree <= var_degree:
        raise ValueError(
            f"need 2 <= var_degree < check_degree, got ({var_degree}, "
            f"{check_degree})"
        )
    if (n * var_degree) % check_degree != 0:
        raise ValueError(
            f"n R must be integral: n lambda / rho = {n * var_degree}/"
            f"{check_degree} checks is not an integer"
        )
    r = n * var_degree // check_degree
    if r >= n:
        raise ValueError(f"design has {r} checks >= n = {n}; rate is zero")
    return r, q ** (n - r)


def _exp_or_inf(x: float) -> float:
    """e^x, or inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ldpc_rcu_ppc(dmc: DmcModel, quantizer: Quantizer, n: int,
                 var_degree: int, check_degree: int,
                 log_alpha: float = 0.0) -> BoundReport:
    """Relaxed random-coding bound for the quantized coset LDPC ensemble:
    the i.i.d. relaxed form with M = q^{n-r} messages and the spectrum
    ratio alpha = e^log_alpha folded into the message count.

    ``alpha`` is the worst-case ratio of the ensemble's average spectrum
    to the uniform-ensemble reference (log_alpha 0 recovers the i.i.d.
    bound exactly); compute it with the spectrum module.  Taken as a log
    so that a ratio past the float range still folds in.
    """
    _check_block(n)
    if quantizer.target_size != dmc.input_size:
        raise ValueError(
            f"quantizer maps onto {quantizer.target_size} symbols but the "
            f"channel has |X| = {dmc.input_size}"
        )
    if not log_alpha >= 0.0:
        raise ValueError(
            f"spectrum ratio alpha must be >= 1, got log alpha {log_alpha}")
    q = quantizer.field.q
    r, m = _ldpc_design(n, var_degree, check_degree, q)
    log_m = (n - r) * math.log(q)
    value, moments = _relaxed_ppc(dmc, induced_input_pmf(quantizer), n,
                                  log_m + log_alpha)
    components = {
        "alpha": _exp_or_inf(log_alpha),
        "log_alpha": log_alpha,
        "log_num_messages": log_m,
        "num_checks": r,
        "design_rate_qary": 1.0 - var_degree / check_degree,
    }
    # normal-approximation rate expansion at the achieved error level
    if 0.0 < value < 1.0:
        components["rate_expansion_nats"] = (
            moments.mean
            - math.sqrt(moments.variance / n) * q_inv(value)
            + math.log(n) / (2.0 * n)
            - log_alpha / n
        )
    return BoundReport(
        name="ldpc-rcu-ppc",
        value=value,
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=m,
        components=components,
    )


def ldpc_rcu_mac(mac: MacModel, quantizers, n: int, params1, params2,
                 log_alpha1: float = 0.0, log_alpha2: float = 0.0,
                 same_coset: bool = False) -> BoundReport:
    """Two-user MAC relaxed bound for per-user quantized coset LDPC
    ensembles: E[min{1, a1 E1 + a2 E2 + a1 a2 E12}] where E_j are the
    relaxed per-user terms and a_j = e^log_alpha_j the spectrum
    penalties, taken as logs so that a penalty past the float range still
    folds in.

    ``params_j = (var_degree, check_degree)``; user j's code lives over
    the field of ``quantizers[j]``.  ``same_coset=True`` models both users
    drawing from one shared coset vector, which squares each penalty (the
    log-penalty vector doubles).
    """
    _check_block(n)
    quant1, quant2 = quantizers
    q1, q2 = quant1.field.q, quant2.field.q
    for j, quant in enumerate(quantizers):
        if quant.target_size != mac.input_sizes[j]:
            raise ValueError(
                f"user-{j + 1} quantizer maps onto {quant.target_size} "
                f"symbols but the MAC alphabet has {mac.input_sizes[j]}"
            )
    if not (log_alpha1 >= 0.0 and log_alpha2 >= 0.0):
        raise ValueError(f"spectrum ratios must be >= 1, got log alphas "
                         f"{log_alpha1} and {log_alpha2}")
    (vd1, cd1), (vd2, cd2) = params1, params2
    r1, m1 = _ldpc_design(n, vd1, cd1, q1)
    r2, m2 = _ldpc_design(n, vd2, cd2, q2)
    p1 = induced_input_pmf(quant1)
    p2 = induced_input_pmf(quant2)
    prefs = mac_moments(mac, p1, p2).tail_prefactors
    # each user has q^(n-r) >= 2 messages, so every event is active
    for j in range(3):
        if not (math.isfinite(prefs[j]) and prefs[j] > 0):
            raise ValueError(
                "relaxed MAC bound needs positive conditional variance for "
                f"every active coordinate; coordinate {j} has none"
            )
    power = 2.0 if same_coset else 1.0
    log_alphas = _per_event((power * log_alpha1, power * log_alpha2))
    log_m1 = math.log(q1) * (n - r1)
    log_m2 = math.log(q2) * (n - r2)
    log_scales = (_per_event((log_m1, log_m2)) + log_alphas + np.log(prefs)
                  - 0.5 * math.log(n))
    value = _relaxed_sum(_Context(mac.w, (p1, p2)), n, log_scales,
                         "rcu_mac with mode='mc' on the i.i.d. ensemble")
    return BoundReport(
        name="ldpc-rcu-mac",
        value=value,
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=(m1, m2),
        components={
            "log_penalty_vector": tuple(log_alphas.tolist()),
            "same_coset": same_coset,
            "log_num_messages": (log_m1, log_m2),
            "num_checks": (r1, r2),
            "tail_prefactors": tuple(float(f) for f in prefs),
        },
    )


def scaling_table(eps_grid) -> list[tuple[float, float, float]]:
    """Rows (epsilon, Qinv(epsilon), sqrt(ln(1/epsilon))) contrasting the
    dispersion-style and exponent-style back-off scales."""
    rows = []
    for eps in eps_grid:
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"epsilon must be in (0, 1/2], got {eps}")
        rows.append((float(eps), q_inv(eps), math.sqrt(math.log(1.0 / eps))))
    return rows
