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
point-to-point channel is the one-event case.  Every RCU bound here runs
through one joint-type context for K = 1 or 2 users, which holds the
supported (x_1, ..., x_K, y) cells, each cell's information density per
event, and one competitor-tail system per event.  Exact evaluation
enumerates joint types; Monte Carlo evaluation samples words from one
chunked Philox stream; both read the same per-event tails.

The per-type competitor tail of an event is the tail of an n-fold product
distribution built by convolving one likelihood-ratio atom set per
conditioning symbol.  Ratio keys are log-domain floats for rational and
float channels alike: keys within 1e-12 merge into one atom, and a
competitor whose score comes within 1e-9 of the sent word's information
density counts as a tie, hence as an error, which keeps every bound
conservative.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import GuardError
from .channel import DmcModel, InputPmf, MacModel, Quantizer, induced_input_pmf
from .infodensity import (EVENTS, _check_sizes, average_inputs,
                          mac_moments, ppc_moments)
from .spectrum import _log_multinomial, type_compositions

LN2 = math.log(2.0)

# enumeration refuses once the joint-type lattice outgrows this
_JOINT_TYPE_GUARD = 1_000_000
# float ratio keys closer than this are treated as one atom
_KEY_MERGE_TOL = 1e-12
# tie tolerance: keys within this below a threshold count as ties
_TIE_TOL = 1e-9
_MC_CHUNK = 4096
_MIN_TRIALS = 1000
_SEED_LIMIT = 1 << 63  # numpy folds Philox keys from here on, or warns


def _keyed_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by (seed, stream), both in [0, 2**63)."""
    if not (0 <= seed < _SEED_LIMIT and 0 <= stream < _SEED_LIMIT):
        raise ValueError(f"seed and stream must lie in [0, 2**63), got "
                         f"({seed}, {stream})")
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


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


def _merge_close(items):
    # items sorted by key; collapse float keys within _KEY_MERGE_TOL
    out: list = []
    for k, p in items:
        if out and (k == out[-1][0]
                    or (math.isfinite(k) and math.isfinite(out[-1][0])
                        and k - out[-1][0] <= _KEY_MERGE_TOL)):
            out[-1][1] += p
        else:
            out.append([k, p])
    return out


class _TailSystem:
    """Tail of the competitor score over an n-fold conditioning type.

    ``atoms[cell]`` lists (log-likelihood-ratio, probability) pairs for one
    conditioning symbol; the score of a sequence is the sum over its
    letters, i.e. the competitor's information density.  Scores within
    ``_KEY_MERGE_TOL`` merge into one atom.  ``tail(counts, thr)`` returns
    P[score >= thr - _TIE_TOL] under the given per-cell letter counts, so
    exact ties, which float rounding can push either way, count as errors.
    """

    def __init__(self, atoms):
        self.atoms = atoms
        self._tables: dict = {}

    def _convolve(self, dist, cell):
        out: dict = {}
        for k, p in dist.items():
            for ak, ap in self.atoms[cell]:
                nk = k + ak
                out[nk] = out.get(nk, 0.0) + p * ap
        return out

    def table(self, counts):
        counts = tuple(counts)
        tab = self._tables.get(counts)
        if tab is not None:
            return tab
        dist = {0.0: 1.0}
        for cell, c in enumerate(counts):
            for _ in range(c):
                dist = self._convolve(dist, cell)
        items = _merge_close(sorted(dist.items()))
        keys = [k for k, _ in items]
        suffix = [0.0] * (len(keys) + 1)
        for i in range(len(keys) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + items[i][1]
        tab = (keys, suffix)
        if len(self._tables) > 50_000:
            self._tables.clear()
        self._tables[counts] = tab
        return tab

    def tail(self, counts, threshold) -> float:
        keys, suffix = self.table(counts)
        return min(suffix[bisect_left(keys, threshold - _TIE_TOL)], 1.0)


def _competitor_atoms(lik, prior, out_prob):
    """One atom list per conditioning cell c: (log lik[c, j] - log
    out_prob[c], prior[j]) over the candidate symbols j in the support of
    ``prior``; a cell the output never reaches gets no atoms."""
    atoms = []
    for row, po in zip(lik, out_prob):
        ats = []
        if po > 0.0:
            for w, p in zip(row, prior):
                if p <= 0.0:
                    continue
                k = math.log(w) - math.log(po) if w > 0.0 else -math.inf
                ats.append((k, float(p)))
        atoms.append(ats)
    return atoms


def _check_lattice(n: int, num_cells: int, caller: str):
    lattice = math.comb(n + num_cells - 1, num_cells - 1)
    if lattice > _JOINT_TYPE_GUARD:
        raise GuardError(
            f"joint-type lattice has {lattice} points, beyond the "
            f"{_JOINT_TYPE_GUARD} enumeration guard; use {caller}"
        )


class _Context:
    """Supported cells of P_1 x ... x P_K x W for K = 1 or 2 users, with
    one competitor-tail system per error event.

    ``w`` has shape (|X_1|, ..., |X_K|, |Y|).  For an event E the
    competitor letters are x_E, drawn from the product of E's input pmfs,
    and the conditioning symbol is (x_rest, y), rest being the users not in
    E.  A cell is (log_prob, i_vec, slots): its log-probability, its
    information density ln W(y|x) - ln P(y|x_rest) per event, and per
    event the slot of its conditioning symbol in the flat count list.
    Event e owns slots [base_e, base_e + |X_rest| |Y|) of that list, in
    C order over (x_rest, y).  Cells run in ``np.ndindex(w.shape)`` order.
    """

    def __init__(self, w: np.ndarray, pmfs):
        probs = _check_sizes(w, pmfs)
        self._w = w
        self._probs = probs
        users = range(len(probs))
        events = []     # (rest, P(x_rest, y), base slot)
        self._systems = []
        base = 0
        for event in EVENTS[len(probs)]:
            rest = tuple(u for u in users if u not in event)
            marg = average_inputs(w, probs, event)
            prior = functools.reduce(np.multiply.outer,
                                     [probs[u] for u in event])
            lik = w.transpose(rest + (len(probs),) + event)
            system = _TailSystem(_competitor_atoms(
                lik.reshape(marg.size, -1), prior.ravel(), marg.ravel()))
            self._systems.append((system, base, base + marg.size))
            events.append((rest, marg, base))
            base += marg.size
        self._num_slots = base
        self.cells = []
        self._cell_at = {}
        for flat, idx in enumerate(np.ndindex(w.shape)):
            jp = math.prod(probs[u][idx[u]] for u in users) * w[idx]
            if jp <= 0.0:
                continue
            log_w = math.log(w[idx])
            ivec = []
            slots = []
            for rest, marg, ev_base in events:
                cond = tuple(idx[u] for u in rest) + (idx[-1],)
                ivec.append(log_w - math.log(marg[cond]))
                slots.append(ev_base + int(np.ravel_multi_index(cond,
                                                               marg.shape)))
            cell = (math.log(jp), tuple(ivec), tuple(slots))
            self.cells.append(cell)
            self._cell_at[flat] = cell

    def _fold(self, logp, cell_counts):
        """Sum (cell, count) pairs in one pass into (log_prob, i_vec,
        slot_counts): i_vec per event, slot_counts the flat list of every
        event's conditioning counts (layout in the class docstring)."""
        ivec = [0.0] * len(self._systems)
        counts = [0] * self._num_slots
        for (lp, iv, slots), cnt in cell_counts:
            if cnt == 0:
                continue
            logp += cnt * lp
            for e, i_val in enumerate(iv):
                ivec[e] += cnt * i_val
            for s in slots:
                counts[s] += cnt
        return logp, ivec, counts

    def tails(self, ivec, counts):
        """Competitor tail per event: event e's system read at its slice of
        ``counts`` with threshold ``ivec[e]``."""
        return [system.tail(counts[lo:hi], i_val)
                for (system, lo, hi), i_val in zip(self._systems, ivec)]

    def type_terms(self, n: int, caller: str):
        """Check the joint-type lattice against the guard (the error names
        ``caller`` as the way out), then return an iterator of
        (log_prob, i_vec, slot_counts) per joint type."""
        _check_lattice(n, len(self.cells), caller)
        cells = self.cells
        return (self._fold(_log_multinomial(n, t), zip(cells, t))
                for t in type_compositions(n, len(cells)))

    def trial_terms(self, n: int, trials: int, seed: int):
        """Yield (i_vec, slot_counts) for ``trials`` sampled word tuples.

        Chunk c holds up to ``_MC_CHUNK`` trials drawn from Philox key
        (seed, c): user 1's uniforms, then user 2's, then the outputs', each
        a (chunk, n) block; inputs invert their pmf's CDF and outputs the
        row of W their inputs select.
        """
        w = self._w
        sizes = w.shape[:-1]
        sy = w.shape[-1]
        cum_x = [np.cumsum(p) for p in self._probs]
        cum_w = np.cumsum(w.reshape(-1, sy), axis=1)
        cell_at = self._cell_at
        done = 0
        chunk_idx = 0
        while done < trials:
            c = min(_MC_CHUNK, trials - done)
            rng = _keyed_rng(seed, chunk_idx)
            ux = [rng.random((c, n)) for _ in sizes]
            uy = rng.random((c, n))
            xs = [np.minimum(np.searchsorted(cum, u, side="right"), size - 1)
                  for cum, u, size in zip(cum_x, ux, sizes)]
            rows = np.ravel_multi_index(xs, sizes)
            ys = (uy[:, :, None] >= cum_w[rows][:, :, :-1]).sum(axis=2)
            for word in rows * sy + ys:
                counts = Counter(word.tolist())
                yield self._fold(0.0, ((cell_at[k], cnt)
                                       for k, cnt in counts.items()))[1:]
            done += c
            chunk_idx += 1


def _as_pmf(pmf) -> InputPmf:
    if isinstance(pmf, InputPmf):
        return pmf
    return InputPmf.from_values(pmf)


def _check_block(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"blocklength must be a positive integer, got {n}")


def _exact_error_from_tail(p_tail: float, num_messages) -> float:
    # 1 - (1 - p)^(M-1), stable for small p and large M
    if p_tail >= 1.0:
        return 1.0
    if p_tail <= 0.0:
        return 0.0
    return -math.expm1((num_messages - 1) * math.log1p(-p_tail))


# ---------------------------------------------------------------------------
# point-to-point bounds


def rcu_exact_ppc(dmc: DmcModel, input_pmf, n: int, num_messages) -> BoundReport:
    """Exact ensemble-average ML error (ties as errors) of the i.i.d. random
    code with M codewords, evaluated by joint-type enumeration.

    Equals the brute-force average over all equally-likely codebooks when
    the input pmf matches the codeword distribution.  The clamped union
    form E[min{1, (M-1) P[tie-or-better]}] is reported under
    ``components["union_bound"]``.
    """
    _check_block(n)
    if num_messages < 1:
        raise ValueError(f"need at least one message, got {num_messages}")
    ctx = _Context(dmc.w, (_as_pmf(input_pmf),))
    terms = ctx.type_terms(n, "rcu_mc_ppc")
    m = num_messages
    total = 0.0
    union = 0.0
    count = 0
    if m > 1:
        for logp, ivec, counts in terms:
            p_tail = ctx.tails(ivec, counts)[0]
            pj = math.exp(logp)
            total += pj * _exact_error_from_tail(p_tail, m)
            union += pj * min(1.0, (m - 1) * p_tail)
            count += 1
    return BoundReport(
        name="rcu-exact-ppc",
        value=total,
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
    sample is computed exactly from its joint type, and the mean carries a
    1.96 sigma / sqrt(trials) half-width.
    """
    _check_block(n)
    if num_messages < 1:
        raise ValueError(f"need at least one message, got {num_messages}")
    if trials < _MIN_TRIALS:
        raise ValueError(f"trials must be >= {_MIN_TRIALS}, got {trials}")
    ctx = _Context(dmc.w, (_as_pmf(input_pmf),))
    m = num_messages
    total = 0.0
    total_sq = 0.0
    union_total = 0.0
    for ivec, counts in ctx.trial_terms(n, trials, seed):
        p_tail = ctx.tails(ivec, counts)[0]
        v = _exact_error_from_tail(p_tail, m) if m > 1 else 0.0
        total += v
        total_sq += v * v
        union_total += min(1.0, (m - 1) * p_tail) if m > 1 else 0.0
    return _mc_report("rcu-mc-ppc", n, m, trials, total, total_sq,
                      {"union_bound": union_total / trials})


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
    E[min{1, e^log_scale (A/sqrt(n)) e^{-i(X^n;Y^n)}}] by joint-type
    enumeration, A the closed-form tail prefactor."""
    moments = ppc_moments(dmc, pmf)
    if moments.tail_prefactor is None:
        raise ValueError(
            "relaxed bound needs positive information-density variance"
        )
    terms = _Context(dmc.w, (pmf,)).type_terms(n, "rcu_mc_ppc")
    if log_scale == -math.inf:      # no messages, no errors
        return 0.0, moments
    log_pref = math.log(moments.tail_prefactor) - 0.5 * math.log(n)
    total = 0.0
    for logp, (i_tot,), _counts in terms:
        lt = log_scale + log_pref - i_tot
        total += math.exp(logp) if lt >= 0.0 else math.exp(logp + lt)
    return min(total, 1.0), moments


def rcu_relaxed_ppc(dmc: DmcModel, input_pmf, n: int, num_messages) -> BoundReport:
    """Relaxed random-coding bound E[min{1, M (A/sqrt(n)) e^{-I_n}}] with the
    closed-form tail prefactor A; exact type-enumeration of the outer
    expectation."""
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
        m_int = max(int(math.floor(math.exp(min(log_m, 700.0)))), 1)
        components["path"] = "proof-constant"
        method = "closed-form"
    else:
        if strict_window:
            raise WindowError(
                f"n={n} is below the validity window n > {window:.6g} for "
                f"target error {epsilon}; pass strict_window=False to fall "
                f"back to the finite relaxed-bound search"
            )
        ctx = _Context(dmc.w, (pmf,))
        terms = [(math.exp(logp), ctx.tails(ivec, counts)[0])
                 for logp, ivec, counts in ctx.type_terms(n, "rcu_mc_ppc")]

        def exact_err(m: int) -> float:
            return sum(pj * _exact_error_from_tail(pt, m) for pj, pt in terms)

        # largest integer M with exact ensemble error strictly below target;
        # M = 1 errs with probability 0, so the search never comes up empty
        lo_m = 1
        hi_m = 2
        for _ in range(200):
            if exact_err(hi_m) >= epsilon:
                break
            lo_m = hi_m
            hi_m *= 2
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


def _relaxed_term(ivec, log_scales) -> float:
    """min{1, sum over events of min{1, e^{log_scale_e - i_e}}}; events
    whose log scale is None are inactive and omitted."""
    total = 0.0
    for log_scale, i_val in zip(log_scales, ivec):
        if log_scale is not None:
            total += math.exp(min(log_scale - i_val, 0.0))
    return min(total, 1.0)


def rcu_mac(mac: MacModel, pmf1, pmf2, n: int, m1, m2,
            mode: str = "exact", trials: int = 10_000,
            seed: int = 0) -> BoundReport:
    """Two-user MAC random-coding bound
    E[min{1, (M1-1) P1 + (M2-1) P2 + (M1-1)(M2-1) P12}] with ties counted
    as errors in each competitor tail.

    ``mode="exact"`` enumerates joint (x1, x2, y) types; ``mode="mc"``
    samples them.  The per-type relaxed sum with the three 1/sqrt(n)
    prefactors is accumulated under ``components["relaxed"]`` when all
    needed prefactors exist (terms whose message count is 1 are omitted,
    matching their identically-zero exact counterparts).
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
    # competitor count per event; an event with none is inactive
    mults = (m1 - 1, m2 - 1, (m1 - 1) * (m2 - 1))
    relax_ok = all(math.isfinite(prefs[j]) for j in range(3) if mults[j])
    half_log_n = 0.5 * math.log(n)
    log_ms = (math.log(m1), math.log(m2), math.log(m1) + math.log(m2))
    log_scales = [log_ms[j] + (math.log(prefs[j]) - half_log_n)
                  if mults[j] else None for j in range(3)]
    if mode == "exact":
        terms = ((math.exp(logp), ivec, counts)
                 for logp, ivec, counts in ctx.type_terms(n, "mode='mc'"))
    else:
        if trials < _MIN_TRIALS:
            raise ValueError(f"trials must be >= {_MIN_TRIALS}, got {trials}")
        terms = ((1.0, ivec, counts)
                 for ivec, counts in ctx.trial_terms(n, trials, seed))
    total = 0.0
    total_sq = 0.0
    relaxed = 0.0
    count = 0
    for pj, ivec, counts in terms:
        v = 0.0
        if any(mults):
            for mult, p_tail in zip(mults, ctx.tails(ivec, counts)):
                v += mult * p_tail
        v = min(1.0, v)
        total += pj * v
        total_sq += v * v
        if relax_ok:
            relaxed += pj * _relaxed_term(ivec, log_scales)
        count += 1
    if not relax_ok:
        relaxed = float("nan")
    elif mode == "mc":
        relaxed /= trials
    else:
        relaxed = min(relaxed, 1.0)
    components = {
        "relaxed": relaxed,
        "relaxed_available": relax_ok,
        "tail_prefactors": tuple(float(f) for f in prefs),
    }
    if mode == "mc":
        return _mc_report("rcu-mac", n, (m1, m2), trials, total, total_sq,
                          components)
    return BoundReport(
        name="rcu-mac",
        value=min(total, 1.0),
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=(m1, m2),
        components={"joint_types": count, **components},
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


def ldpc_rcu_ppc(dmc: DmcModel, quantizer: Quantizer, n: int,
                 var_degree: int, check_degree: int,
                 alpha: float = 1.0) -> BoundReport:
    """Relaxed random-coding bound for the quantized coset LDPC ensemble:
    the i.i.d. relaxed form with M = q^{n-r} messages and the spectrum
    ratio ``alpha`` folded into the message count.

    ``alpha`` is the worst-case ratio of the ensemble's average spectrum
    to the uniform-ensemble reference (1.0 recovers the i.i.d. bound
    exactly); compute it with the spectrum module.
    """
    _check_block(n)
    if quantizer.target_size != dmc.input_size:
        raise ValueError(
            f"quantizer maps onto {quantizer.target_size} symbols but the "
            f"channel has |X| = {dmc.input_size}"
        )
    if not alpha >= 1.0:
        raise ValueError(f"spectrum ratio alpha must be >= 1, got {alpha}")
    q = quantizer.field.q
    r, m = _ldpc_design(n, var_degree, check_degree, q)
    log_m = (n - r) * math.log(q)
    value, moments = _relaxed_ppc(dmc, induced_input_pmf(quantizer), n,
                                  log_m + math.log(alpha))
    components = {
        "alpha": alpha,
        "log_alpha": math.log(alpha),
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
            - math.log(alpha) / n
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
                 alpha1: float = 1.0, alpha2: float = 1.0,
                 same_coset: bool = False) -> BoundReport:
    """Two-user MAC relaxed bound for per-user quantized coset LDPC
    ensembles: E[min{1, a1 E1 + a2 E2 + a1 a2 E12}] where E_j are the
    relaxed per-user terms and a_j the spectrum penalties.

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
    if not (alpha1 >= 1.0 and alpha2 >= 1.0):
        raise ValueError("spectrum ratios must be >= 1")
    (vd1, cd1), (vd2, cd2) = params1, params2
    r1, m1 = _ldpc_design(n, vd1, cd1, q1)
    r2, m2 = _ldpc_design(n, vd2, cd2, q2)
    p1 = induced_input_pmf(quant1)
    p2 = induced_input_pmf(quant2)
    prefs = mac_moments(mac, p1, p2).tail_prefactors
    ctx = _Context(mac.w, (p1, p2))
    terms = ctx.type_terms(n, "rcu_mac with mode='mc' on the i.i.d. ensemble")
    power = 2.0 if same_coset else 1.0
    la1 = power * math.log(alpha1)
    la2 = power * math.log(alpha2)
    log_m1 = math.log(q1) * (n - r1)
    log_m2 = math.log(q2) * (n - r2)
    # each user has q^(n-r) >= 2 messages, so every event is active
    for j in range(3):
        if not (math.isfinite(prefs[j]) and prefs[j] > 0):
            raise ValueError(
                "relaxed MAC bound needs positive conditional variance for "
                f"every active coordinate; coordinate {j} has none"
            )
    half_log_n = 0.5 * math.log(n)
    log_scales = [log_scale + (math.log(pref) - half_log_n)
                  for log_scale, pref in zip((log_m1 + la1, log_m2 + la2,
                                              log_m1 + log_m2 + la1 + la2),
                                             prefs)]
    total = 0.0
    for logp, ivec, _counts in terms:
        total += math.exp(logp) * _relaxed_term(ivec, log_scales)
    return BoundReport(
        name="ldpc-rcu-mac",
        value=min(total, 1.0),
        units="probability",
        method="exact-type-enum",
        n=n,
        num_messages=(m1, m2),
        components={
            "log_penalty_vector": (la1, la2, la1 + la2),
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
