"""Ensemble-average codeword/codematrix spectra over GF(q)^K.

A *type* is a histogram over the composite alphabet Q = GF(q)^K, stored
as a tuple of counts indexed by the flat symbol index (user 1 most
significant).  The module computes:

  * uniform-ensemble spectra (closed form) and their exponent,
  * sparse-graph (regular bipartite, variable degree ``var_degree``,
    check degree ``check_degree``) coset-ensemble spectra, exactly at
    finite n by big-integer coefficient extraction and asymptotically
    by convex minimization,
  * the max-ratio penalty ``alpha_log`` used by the random-coding bounds,
  * low-weight expurgation and the four-term rate-offset decomposition,
  * the q^(-n eps/2) tail bound on the actual-vs-design code rate.

Internally everything is kept in natural log; the two exponent
functions return per-symbol q-ary units as documented.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import GuardError
from .gfq import field_from_order

# Guards: coefficient-lattice size (the socket types of one check node,
# and the lattice during polynomial powering); dense per-type table size.
_LATTICE_GUARD = 20_000_000
_TABLE_GUARD = 2_000_000
_LSE_TOL = 1e-10  # inner-infimum gradient tolerance, relative to rho
_LSE_RESTARTS = 10  # descent starts of the inner infimum
_JSIGMA_CAP = 200_000  # rate-offset types at full lattice resolution


# ---------------------------------------------------------------------------
# types and small combinatorics

def _counts(t) -> tuple[int, ...]:
    return tuple(int(c) for c in t)


def symbol_components(index: int, q: int, num_users: int) -> tuple[int, ...]:
    comps = []
    for _ in range(num_users):
        comps.append(index % q)
        index //= q
    return tuple(reversed(comps))


def type_compositions(total: int, parts: int):
    """All length-`parts` tuples of nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in type_compositions(total - head, parts - 1):
            yield (head,) + rest


def _num_compositions(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def multinomial_exact(n: int, t) -> int:
    counts = _counts(t)
    if sum(counts) != n:
        raise ValueError(f"type sums to {sum(counts)}, expected {n}")
    return _multinomial(n, counts)


def _multinomial(n: int, counts) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def multinomial_log(n: int, t) -> float:
    """ln of the multinomial coefficient n!/prod(t_g!).

    Exact big-integer evaluation for n <= 64, lgamma otherwise.
    """
    counts = _counts(t)
    if sum(counts) != n:
        raise ValueError(f"type sums to {sum(counts)}, expected {n}")
    return _log_multinomial(n, counts)


def _log_multinomial(n: int, counts) -> float:
    # multinomial_log without validation: counts must be ints summing to n
    if n <= 64:
        return math.log(_multinomial(n, counts))
    out = math.lgamma(n + 1)
    for c in counts:
        out -= math.lgamma(c + 1)
    return out


def _entropy_nats(theta: np.ndarray) -> float:
    pos = theta[theta > 0]
    return float(-(pos * np.log(pos)).sum())


def uniform_spectrum_exponent(theta, num_users: int, rate: float) -> float:
    """Normalized spectrum exponent of the uniform random ensemble, in
    q-ary units: H_q(theta) - K(1 - R)."""
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or abs(th.sum() - 1.0) > 1e-9 or (th < -1e-12).any():
        raise ValueError("theta must be a pmf over the composite alphabet")
    q = _alphabet_base(th.size, num_users)
    h_q = _entropy_nats(th) / math.log(q)
    return h_q - num_users * (1.0 - rate)


def _alphabet_base(size: int, num_users: int) -> int:
    q = 2
    while q ** num_users < size:
        q += 1
    if q ** num_users != size:
        raise ValueError(f"alphabet size {size} is not a {num_users}-th power")
    return q


# ---------------------------------------------------------------------------
# single-check polynomial

@dataclass(frozen=True)
class CheckPolynomial:
    """Sparse socket-type enumerator of one degree-rho check node, as
    computed by the exact character sum in ``check_polynomial``.

    coeffs[t] counts the pairs (edge labels in GF(q)*^rho, socket symbols
    in Q^rho) of socket type t whose labeled sum vanishes componentwise;
    only nonzero coefficients are stored.
    """

    q: int
    num_users: int
    check_degree: int
    coeffs: dict[tuple[int, ...], int]

    def __post_init__(self):
        for t, c in self.coeffs.items():
            if c < 0:
                raise ValueError("negative coefficient")
            if sum(t) != self.check_degree:
                raise ValueError("socket type does not sum to the check degree")

    def total_mass(self) -> int:
        return sum(self.coeffs.values())

    def expected_total_mass(self) -> int:
        q, rho = self.q, self.check_degree
        return (q - 1) ** rho * q ** (self.num_users * (rho - 1))


def check_polynomial(q: int, num_users: int,
                     check_degree: int) -> CheckPolynomial:
    """Socket-type enumerator of a single check node, exact in integers.

    Character (MacWilliams) sum over k in Q = GF(q)^K, with <k, s> the
    base-p digit inner product mod p.  For every k and socket symbol g
    the label sum over e in GF(q)* of omega^<k, e*g> is exactly q - 1
    when the GF(p)-linear map e -> <k, e*g> vanishes and exactly -1
    otherwise, so with a_k(t) the count of sockets orthogonal to k,

        coeff(t) = multinomial(rho, t) q^-K
                   sum_k (q - 1)^a_k(t) (-1)^(rho - a_k(t)).

    Raises GuardError when the socket types of one check exceed the
    lattice guard, ArithmeticError when the character sum is
    not divisible by q^K or the total mass is off.
    """
    if check_degree < 1:
        raise ValueError("check degree must be at least 1")
    if num_users < 1:
        raise ValueError("need at least one user")
    rho = check_degree
    qk = q ** num_users
    num_types = _num_compositions(rho, qk)
    if num_types > _LATTICE_GUARD:
        raise GuardError(
            f"{num_types} socket types of one degree-{rho} check exceed "
            f"the {_LATTICE_GUARD} lattice guard"
        )
    f = field_from_order(q)
    comps = np.array(
        [symbol_components(g, q, num_users) for g in range(qk)], dtype=np.int64
    )
    dig = f._digit[comps].reshape(qk, -1)
    # orth[k, g]: e -> <k, e*g> vanishes on all of GF(q)
    orth = np.ones((qk, qk), dtype=bool)
    for e in range(1, q):
        orth &= (dig @ f._digit[f.mul(e, comps)].reshape(qk, -1).T) % f.p == 0
    # the sum depends on k only through its orthogonal socket set
    orth_sets = Counter(
        tuple(int(g) for g in np.flatnonzero(row)) for row in orth
    )
    term = [(q - 1) ** a * (-1) ** (rho - a) for a in range(rho + 1)]
    coeffs = {}
    for t in type_compositions(rho, qk):
        total = sum(
            mult * term[sum(t[g] for g in gs)] for gs, mult in orth_sets.items()
        )
        count, rem = divmod(total, qk)
        if rem:
            raise ArithmeticError(
                f"character sum {total} at {t} is not divisible by {qk}"
            )
        if count:
            coeffs[t] = multinomial_exact(rho, t) * count
    poly = CheckPolynomial(q, num_users, rho, coeffs)
    if poly.total_mass() != poly.expected_total_mass():
        raise ArithmeticError(
            f"check polynomial mass {poly.total_mass()} != "
            f"{poly.expected_total_mass()} (q={q}, K={num_users}, rho={rho})"
        )
    return poly


@functools.lru_cache(maxsize=16)
def _cached_check_poly(q, num_users, rho) -> CheckPolynomial:
    return check_polynomial(q, num_users, rho)


# ---------------------------------------------------------------------------
# asymptotic sparse-graph exponent

def _minimize_lse_affine(log_c, tmat, target, scale, floor):
    """Minimize lse(log_c + T u) - <target, u>; convex in u.

    Returns the best objective found, or -inf once the objective drops
    below `floor` (the target lies outside the achievable hull).  Any
    start whose gradient norm reaches _LSE_TOL*scale is a global minimum
    by convexity, so the search returns immediately at that point."""
    _, dim = tmat.shape
    goal = _LSE_TOL * scale

    def fgrad(u):
        w = log_c + tmat @ u
        wm = w.max()
        e = np.exp(w - wm)
        s = e.sum()
        return wm + math.log(s) - float(target @ u), (tmat.T @ e) / s - target

    def fval(u):
        w = log_c + tmat @ u
        wm = w.max()
        return wm + math.log(np.exp(w - wm).sum()) - float(target @ u)

    def descend(u, f, g, iters, check_goal=True):
        # backtracking gradient steps; returns (u, f, g, hit_floor)
        step = 1.0
        for _ in range(iters):
            if f < floor:
                return u, f, g, True
            gn2 = float(g @ g)
            if check_goal and math.sqrt(gn2) <= goal:
                return u, f, g, False
            while step >= 1e-18:
                un = u - step * g
                fn = fval(un)
                if fn <= f - 0.5 * step * gn2:
                    break
                step *= 0.5
            if step < 1e-18:
                return u, f, g, False
            u = un
            f, g = fgrad(u)
            step = min(step * 2.0, 1e8)
        return u, f, g, False

    def polish(u, f):
        # damped Newton; the Hessian is tiny (dim <= |Q|)
        for _ in range(60):
            w = log_c + tmat @ u
            wm = w.max()
            e = np.exp(w - wm)
            prob = e / e.sum()
            g = tmat.T @ prob - target
            if math.sqrt(float(g @ g)) <= goal:
                return u, f, g, True
            hess = tmat.T @ (prob[:, None] * tmat) - np.outer(
                tmat.T @ prob, tmat.T @ prob
            )
            hess = hess + 1e-12 * np.eye(dim)
            try:
                delta = np.linalg.solve(hess, g)
            except np.linalg.LinAlgError:
                return u, f, g, False
            damp = 1.0
            while damp >= 1e-12:
                fn = fval(u - damp * delta)
                if math.isfinite(fn) and fn <= f + 1e-15:
                    break
                damp *= 0.5
            if damp < 1e-12:
                return u, f, g, False
            u = u - damp * delta
            f = fn
        g = fgrad(u)[1]
        return u, f, g, math.sqrt(float(g @ g)) <= goal

    rng = np.random.default_rng(0)
    best = math.inf
    for start in range(_LSE_RESTARTS):
        u = np.zeros(dim) if start == 0 else rng.normal(0.0, 2.0, size=dim)
        f, g = fgrad(u)
        u, f, g, hit = descend(u, f, g, 250)
        if hit:
            return -math.inf
        u, f, g, converged = polish(u, f)
        if f < floor:
            return -math.inf
        if converged:
            return f
        # no stationary point found: either a hard line search or an
        # unreachable target; push hard along the gradient to find out
        u, f, g, hit = descend(u, f, g, 4000, check_goal=True)
        if hit or f < floor:
            return -math.inf
        u, f, g, converged = polish(u, f)
        if f < floor:
            return -math.inf
        if converged:
            return f
        best = min(best, f)
    return best


def ldpc_spectrum_exponent(theta, var_degree: int, check_degree: int,
                           q: int, num_users: int) -> float:
    """Asymptotic normalized spectrum exponent of the regular sparse-graph
    coset ensemble at composition theta, in q-ary units.

    The inner infimum runs in log coordinates, restricted to the symbols
    theta actually uses (the sign-pattern constraint); convexity holds
    because the check enumerator has nonnegative coefficients.  Returns
    -inf when theta is not realizable by any codeword type.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or abs(th.sum() - 1.0) > 1e-8 or (th < -1e-12).any():
        raise ValueError("theta must be a pmf over the composite alphabet")
    qk = th.size
    if q ** num_users != qk:
        raise ValueError(f"theta has {qk} entries, expected {q ** num_users}")
    lam, rho = var_degree, check_degree
    poly = _cached_check_poly(q, num_users, rho)
    support = np.flatnonzero(th > 1e-15)
    supp_set = set(int(g) for g in support)
    terms = [
        (t, c)
        for t, c in poly.coeffs.items()
        if all(tg == 0 or g in supp_set for g, tg in enumerate(t))
    ]
    if not terms:
        return -math.inf
    tmat = np.array([[t[g] for g in support] for t, _ in terms], dtype=float)
    log_c = np.array([math.log(c) for _, c in terms])
    target = rho * th[support]
    # with integer coefficients >= 1 the infimum, when finite, is at least
    # -ln(#terms) >= -|Q| ln(rho+1); anything far below means unreachable
    floor = -(qk * math.log(rho + 1.0) + 50.0)
    fmin = _minimize_lse_affine(log_c, tmat, target, max(1.0, rho), floor)
    if fmin == -math.inf:
        return -math.inf
    h = _entropy_nats(th)
    nats = (1.0 - lam) * h - lam * math.log(q - 1) + (lam / rho) * fmin
    return nats / math.log(q)


# ---------------------------------------------------------------------------
# finite-n sparse-graph spectrum

@functools.lru_cache(maxsize=8)
def _poly_power(q, num_users, rho, num_checks):
    """coeffs of the check enumerator raised to num_checks, or None when
    the coefficient lattice would exceed the memory guard."""
    if _num_compositions(rho * num_checks, q ** num_users) > _LATTICE_GUARD:
        # the full socket lattice cannot fit; skip the powering outright
        return None
    base = _cached_check_poly(q, num_users, rho).coeffs
    cur = dict(base)
    for _ in range(num_checks - 1):
        nxt: dict = {}
        for ta, ca in cur.items():
            for tb, cb in base.items():
                tkey = tuple(a + b for a, b in zip(ta, tb))
                nxt[tkey] = nxt.get(tkey, 0) + ca * cb
            if len(nxt) > _LATTICE_GUARD:
                return None
        cur = nxt
    return cur


def ldpc_finite_spectrum(n: int, t, var_degree: int, check_degree: int,
                         q: int, num_users: int) -> float:
    """ln of the ensemble-average number of codematrices of type t for the
    regular (var_degree, check_degree) coset ensemble on n symbols.

    Exact big-integer evaluation: multinomial(n,t) times the socket-lattice
    coefficient of the powered check enumerator at var_degree*t, divided by
    the socket multinomial and (q-1)^(n*var_degree).  Falls back to
    n*ln(q)*asymptotic exponent with a warning when the lattice guard trips.
    """
    counts = _counts(t)
    if sum(counts) != n:
        raise ValueError(f"type sums to {sum(counts)}, expected {n}")
    lam, rho = var_degree, check_degree
    if (n * lam) % rho:
        raise ValueError(
            f"n*var_degree/check_degree = {n * lam}/{rho} is not an integer; "
            "the ensemble needs a whole number of check nodes"
        )
    r = (n * lam) // rho
    power = _poly_power(q, num_users, rho, r)
    if power is None:
        warnings.warn(
            "socket-lattice guard exceeded; returning the asymptotic "
            "exponent approximation",
            RuntimeWarning,
            stacklevel=2,
        )
        th = np.array(counts, dtype=float) / n
        return n * math.log(q) * ldpc_spectrum_exponent(
            th, lam, rho, q, num_users
        )
    return _log_finite_count(power, n, counts, lam, q)


def _log_finite_count(power, n: int, counts, lam: int, q: int) -> float:
    """ln[multinomial(n, t) coeff / (multinomial(n lam, lam t)
    (q-1)^(n lam))], coeff the powered check enumerator ``power`` at the
    socket type lam t; -inf when that coefficient is 0."""
    socket_t = tuple(lam * c for c in counts)
    coeff = power.get(socket_t, 0)
    if coeff == 0:
        return -math.inf
    num = multinomial_exact(n, counts) * coeff
    den = multinomial_exact(n * lam, socket_t) * (q - 1) ** (n * lam)
    return math.log(num) - math.log(den)


# ---------------------------------------------------------------------------
# spectrum tables

@dataclass
class SpectrumTable:
    """Per-type table of ln(ensemble-average codematrix count).

    kind is "uniform", "ldpc", or "ldpc-expurgated"; entries with value
    -inf mean the ensemble average is exactly zero for that type.
    is_upper_bound marks tables whose entries bound the average from
    above rather than equal it.
    """

    n: int
    q: int
    num_users: int
    kind: str
    entries: dict[tuple[int, ...], float]
    var_degree: int | None = None
    check_degree: int | None = None
    log_num_messages: float | None = None
    is_upper_bound: bool = False

    def log_value(self, t) -> float:
        key = _counts(t)
        if key not in self.entries:
            raise KeyError(f"type {key} not present in this table")
        return self.entries[key]


def _log_mk_minus_one(num_messages, num_users: int) -> float:
    if isinstance(num_messages, int):
        total = num_messages ** num_users - 1
        if total <= 0:
            raise ValueError("need at least two messages overall")
        return math.log(total)
    lm = num_users * math.log(num_messages)
    return lm + math.log1p(-math.exp(-lm)) if lm < 700 else lm


def _all_types_guarded(n: int, qk: int):
    if _num_compositions(n, qk) > _TABLE_GUARD:
        raise GuardError(
            f"dense table over {_num_compositions(n, qk)} types exceeds the "
            f"{_TABLE_GUARD} guard; pass an explicit type list"
        )
    return type_compositions(n, qk)


def uniform_spectrum_table(n: int, q: int, num_users: int,
                           num_messages) -> SpectrumTable:
    """Exact expected type counts for M^K independent uniform codewords
    (one per message tuple), all-zero row removal not applied."""
    qk = q ** num_users
    log_m = math.log(num_messages)
    base = num_users * log_m - n * num_users * math.log(q)
    entries = {
        t: base + multinomial_log(n, t) for t in _all_types_guarded(n, qk)
    }
    return SpectrumTable(
        n=n, q=q, num_users=num_users, kind="uniform", entries=entries,
        log_num_messages=log_m,
    )


def ldpc_spectrum_table(n: int, var_degree: int, check_degree: int,
                        q: int, num_users: int,
                        types=None) -> SpectrumTable:
    """Exact finite-n sparse-graph ensemble spectrum table.

    types defaults to every type of length q^K (guarded); the stored
    message count is the design value q^((n - num_checks) per user)."""
    qk = q ** num_users
    if types is None:
        types = _all_types_guarded(n, qk)
    entries = {}
    for t in types:
        key = _counts(t)
        entries[key] = ldpc_finite_spectrum(
            n, key, var_degree, check_degree, q, num_users
        )
    r = (n * var_degree) // check_degree
    return SpectrumTable(
        n=n, q=q, num_users=num_users, kind="ldpc", entries=entries,
        var_degree=var_degree, check_degree=check_degree,
        log_num_messages=(n - r) * math.log(q),
    )


# ---------------------------------------------------------------------------
# alpha penalty, expurgation

def alpha_log(spectrum: SpectrumTable, num_messages,
              exclude=()) -> tuple[float, tuple[int, ...]]:
    """ln of the max-ratio penalty and its maximizing type.

    Ratio per type: table entry over the uniform reference
    (M^K - 1) B(n,t) q^(-nK), with n and K the table's.  The all-zero
    type is always excluded; exclude may remove further types from the
    maximization."""
    n, num_users = spectrum.n, spectrum.num_users
    log_ref_const = _log_mk_minus_one(num_messages, num_users) \
        - n * num_users * math.log(spectrum.q)
    skip = {_counts(t) for t in exclude}
    best = None
    best_t = None
    for t, v in spectrum.entries.items():
        if v == -math.inf or t in skip or sum(t) == t[0]:
            continue
        ratio = v - (log_ref_const + multinomial_log(n, t))
        if best is None or ratio > best:
            best, best_t = ratio, t
    if best is None:
        raise ValueError("no candidate types left for the penalty maximum")
    return best, best_t


def expurgate_spectrum(spectrum: SpectrumTable,
                       sigma: float) -> SpectrumTable:
    """Zero all types of weight in (0, sigma*n] and double the rest, n the
    table's blocklength.

    Valid only for variable degree >= 3 (the low-weight mass argument
    needs it); the result is an upper-bound table."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie strictly between 0 and 1")
    if spectrum.var_degree is None or spectrum.var_degree < 3:
        raise ValueError("expurgation requires variable degree >= 3")
    band = sigma * spectrum.n
    entries = {}
    for t, v in spectrum.entries.items():
        w = sum(t) - t[0]
        if w == 0:
            entries[t] = v
        elif w <= band:
            entries[t] = -math.inf
        else:
            entries[t] = v + math.log(2.0) if v > -math.inf else v
    return SpectrumTable(
        n=spectrum.n, q=spectrum.q, num_users=spectrum.num_users,
        kind="ldpc-expurgated", entries=entries,
        var_degree=spectrum.var_degree, check_degree=spectrum.check_degree,
        log_num_messages=spectrum.log_num_messages,
        is_upper_bound=True,
    )


# ---------------------------------------------------------------------------
# rate-offset decomposition and rate concentration

def geometric_contraction(q: int, num_users: int) -> float:
    """Contraction factor of the character-sum recursion: sqrt of
    1 - (1 - cos(2 pi / p)) * 2 l (1 - l) with l the fraction of
    nonorthogonal digit vectors.  Equals 1 exactly when q is prime and
    K = 1; strictly below 1 otherwise."""
    f = field_from_order(q)
    p = f.p
    qk = q ** num_users
    lam_frac = qk * (p - 1) / (p * (qk - 1))
    tau = math.cos(2.0 * math.pi / p)
    psi2 = 1.0 - (1.0 - tau) * 2.0 * lam_frac * (1.0 - lam_frac)
    return math.sqrt(max(psi2, 0.0))


def _geometric_gap_term(theta0: float, var_degree: int, check_degree: int,
                        q: int, num_users: int) -> float:
    psi = geometric_contraction(q, num_users)
    qk = q ** num_users
    base = theta0 + psi * (1.0 - theta0)
    return (var_degree / check_degree) * math.log1p(
        (qk - 1) * base ** check_degree
    )


@dataclass(frozen=True)
class RateOffsetDecomposition:
    """The four max-terms whose sum bounds the per-symbol rate offset of
    the expurgated ensemble penalty, all in nats.

    expurgation_term: the doubling cost, exactly ln(2)/n.
    finite_spectrum_term: finite-n vs asymptotic ensemble-spectrum gap.
    geometric_term: uniform-vs-ensemble gap from the character contraction.
    stirling_term: multinomial-vs-entropy gap of the uniform reference.
    """

    n: int
    expurgation_term: float
    finite_spectrum_term: float
    geometric_term: float
    stirling_term: float
    total: float
    argmax_finite_spectrum: tuple[int, ...] | None
    argmax_geometric: float
    argmax_stirling: tuple[int, ...] | None
    design_rate: float
    num_checks: int
    units: str = "nats"


def _jsigma_types(n: int, qk: int, sigma: float):
    """Types with zero-symbol share at most 1 - sigma, at full lattice
    resolution when affordable, else on a strided grid refined later."""
    wmin = math.ceil(sigma * n - 1e-9)
    total = sum(
        _num_compositions(w, qk - 1) for w in range(wmin, n + 1)
    )
    if total <= _JSIGMA_CAP:
        for w in range(wmin, n + 1):
            for rest in type_compositions(w, qk - 1):
                yield (n - w,) + rest
        return
    stride = max(2, math.ceil((total / _JSIGMA_CAP)
                              ** (1.0 / max(qk - 1, 1))))
    for w in range(wmin, n + 1):
        for rest in type_compositions(w, qk - 1):
            if all(c % stride == 0 for c in rest[:-1]):
                yield (n - w,) + rest


def rate_offset_decomposition(n: int, var_degree: int, check_degree: int,
                              sigma: float, q: int,
                              num_users: int) -> RateOffsetDecomposition:
    """Evaluate the four rate-offset max-terms over the type lattice with
    zero-share at most 1 - sigma, at the ensemble design rate.

    Maxima run over the types the ensemble actually realizes (positive
    finite spectrum).  Requires the exact socket lattice; raises when the
    lattice guard would trip."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie strictly between 0 and 1")
    if var_degree < 3:
        raise ValueError("the decomposition requires variable degree >= 3")
    lam, rho = var_degree, check_degree
    if (n * lam) % rho:
        raise ValueError("n*var_degree/check_degree must be an integer")
    r = (n * lam) // rho
    rate = 1.0 - lam / rho
    qk = q ** num_users
    power = _poly_power(q, num_users, rho, r)
    if power is None:
        raise GuardError(
            "socket-lattice guard exceeded; the decomposition needs the "
            "exact finite spectrum at this n"
        )
    lnq = math.log(q)
    log_mk1 = math.log(q ** ((n - r) * num_users) - 1)

    term1 = math.log(2.0) / n

    best2 = -math.inf
    best2_t = None
    best4 = -math.inf
    best4_t = None
    for t in _jsigma_types(n, qk, sigma):
        ln_fin = _log_finite_count(power, n, t, lam, q)
        if ln_fin == -math.inf:
            continue
        th = np.array(t, dtype=float) / n
        asym = ldpc_spectrum_exponent(th, lam, rho, q, num_users)
        cand2 = ln_fin / n - asym * lnq
        if cand2 > best2:
            best2, best2_t = cand2, t
        h = _entropy_nats(th)
        uniform_nats = h - num_users * (1.0 - rate) * lnq
        ref = (log_mk1 + multinomial_log(n, t) - n * num_users * lnq) / n
        cand4 = uniform_nats - ref
        if cand4 > best4:
            best4, best4_t = cand4, t

    best3 = -math.inf
    best3_theta0 = 0.0
    for t0 in range(0, math.floor((1.0 - sigma) * n + 1e-9) + 1):
        cand3 = _geometric_gap_term(t0 / n, lam, rho, q, num_users)
        if cand3 > best3:
            best3, best3_theta0 = cand3, t0 / n

    total = term1 + best2 + best3 + best4
    return RateOffsetDecomposition(
        n=n,
        expurgation_term=term1,
        finite_spectrum_term=best2,
        geometric_term=best3,
        stirling_term=best4,
        total=total,
        argmax_finite_spectrum=best2_t,
        argmax_geometric=best3_theta0,
        argmax_stirling=best4_t,
        design_rate=rate,
        num_checks=r,
    )


def rate_concentration(n: int, epsilon: float, q: int) -> float:
    """Tail bound q^(-n*epsilon/2) on the probability that the actual
    code rate exceeds the design rate by more than epsilon (rates in
    q-ary units)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.exp(-0.5 * n * epsilon * math.log(q))
