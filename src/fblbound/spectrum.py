"""Ensemble-average codeword/codematrix spectra over GF(q)^K.

A *type* is a histogram over the composite alphabet Q = GF(q)^K, stored
as a tuple of counts indexed by the flat symbol index (user 1 most
significant).  The module computes:

  * uniform-ensemble spectra (closed form) and their exponent,
  * sparse-graph (regular bipartite, variable degree ``var_degree``,
    check degree ``check_degree``) coset-ensemble spectra, exactly at
    finite n by coefficient extraction from the powered check enumerator
    (dense powering modulo word-size primes, joined by the CRT) and
    asymptotically by convex minimization,
  * the max-ratio penalty ``alpha_log`` used by the random-coding bounds,
  * low-weight expurgation and the four-term rate-offset decomposition,
  * the q^(-n eps/2) tail bound on the actual-vs-design code rate.

Internally everything is kept in natural log; the two exponent
functions return per-symbol q-ary units as documented.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import GuardError
from .gfq import field_from_order

# Guards: the socket types of one check node, and the residue entries
# (box of nonzero-symbol counts times primes) of the powered check
# enumerator; dense per-type table size.
_LATTICE_GUARD = 20_000_000
_TABLE_GUARD = 2_000_000
_LSE_TOL = 1e-10  # Newton stops at this gradient norm, relative to rho
_SLAB_ENTRIES = 1 << 16  # residue entries powered at once; kept cache-sized
_INT64_MAX = (1 << 63) - 1  # residue sums are reduced before passing it


# ---------------------------------------------------------------------------
# types and small combinatorics

def _type_of(n: int, t) -> tuple[int, ...]:
    """t as a tuple of ints, refused unless it sums to n."""
    counts = tuple(int(c) for c in t)
    if sum(counts) != n:
        raise ValueError(f"type sums to {sum(counts)}, expected {n}")
    return counts


def symbol_components(index: int, q: int, num_users: int) -> tuple[int, ...]:
    comps = []
    for _ in range(num_users):
        comps.append(index % q)
        index //= q
    return tuple(reversed(comps))


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every composition of ``total`` into ``parts`` nonnegative parts, one
    row each in lexicographic order (the first part slowest), in the
    smallest unsigned dtype that holds ``total``."""
    small = np.min_scalar_type(total)
    cols = []
    used = np.zeros(1, dtype=np.int64)      # total given to earlier parts
    for _ in range(parts - 1):
        # every row spreads over the counts 0..total-used left for this part
        spread = total - used + 1
        row = np.repeat(np.arange(used.size), spread)
        count = np.arange(row.size) - np.repeat(np.cumsum(spread) - spread,
                                                spread)
        cols = [c[row] for c in cols] + [count.astype(small)]
        used = used[row] + count
    return np.stack(cols + [(total - used).astype(small)], axis=1)


def _num_compositions(total: int, parts: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def multinomial_exact(n: int, t) -> int:
    out = 1
    rem = n
    for c in _type_of(n, t):
        out *= math.comb(rem, c)
        rem -= c
    return out


def multinomial_log(n: int, t) -> float:
    """ln of the multinomial coefficient n!/prod(t_g!).

    Exact big-integer evaluation for n <= 64, lgamma otherwise.
    """
    if n <= 64:
        return math.log(multinomial_exact(n, t))
    out = math.lgamma(n + 1)
    for c in _type_of(n, t):
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
    # row by row: the guard admits tens of millions of socket types
    for row in _compositions(rho, qk):
        t = tuple(row.tolist())
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
    """Minimize the convex lse(log_c + T u) - <target, u> by damped Newton
    steps from u = 0, halving each step until the objective does not rise.
    When no Newton step passes (rounding can defeat every one near the
    minimum, where the Hessian is singular along directions the objective
    ignores), a step against the gradient is halved the same way.

    Returns the objective once the gradient norm reaches _LSE_TOL*scale,
    a global minimum by convexity, or -inf once the objective drops below
    `floor` (the target lies outside the achievable hull).  Raises
    ArithmeticError when neither step passes or 60 steps do not
    converge, rather than return a value that is not the minimum."""
    dim = tmat.shape[1]
    goal = _LSE_TOL * scale

    def value(u):
        # objective and the softmax weights of the terms
        w = log_c + tmat @ u
        wm = w.max()
        e = np.exp(w - wm)
        s = e.sum()
        return wm + math.log(s) - float(target @ u), e / s

    def descend(u, f, direction):
        # the longest step u - 2^-j direction, down to 1e-12, that does not
        # raise the objective: (point, objective, weights), or None
        damp = 1.0
        while damp >= 1e-12:
            un = u - damp * direction
            fn, pn = value(un)
            if math.isfinite(fn) and fn <= f + 1e-15:
                return un, fn, pn
            damp *= 0.5
        return None

    u = np.zeros(dim)
    f, prob = value(u)
    for _ in range(60):
        if f < floor:
            return -math.inf
        mean = tmat.T @ prob
        g = mean - target
        if math.sqrt(float(g @ g)) <= goal:
            return f
        # the Hessian is tiny (dim <= |Q|); the ridge keeps it invertible
        hess = (tmat.T @ (prob[:, None] * tmat) - np.outer(mean, mean)
                + 1e-12 * np.eye(dim))
        step = (descend(u, f, np.linalg.solve(hess, g))
                or descend(u, f, g))
        if step is None:
            raise ArithmeticError(
                f"inner infimum: Newton line search stalled at f = {float(f)}")
        u, f, prob = step
    raise ArithmeticError(
        f"inner infimum: no stationary point in 60 Newton steps "
        f"(f = {float(f)})")


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
def _poly_power(q, num_users, rho, num_checks, lam):
    """Nonzero coefficients of the check enumerator P raised to num_checks
    at the socket types lam*t, all that a spectrum reads; None past the
    lattice guard.  Exact: P^num_checks is powered densely over the
    nonzero-symbol counts modulo primes below 2^28 whose product exceeds
    P(1)^num_checks, a bound on every coefficient, and the CRT joins the
    residues.  ArithmeticError when a residue array does not sum to
    P(1)^num_checks modulo its prime."""
    poly = _cached_check_poly(q, num_users, rho)
    dim, side = q ** num_users - 1, rho * num_checks + 1
    mass = poly.total_mass() ** num_checks
    # every prime exceeds 2^27, so this many always cover the mass
    if side ** dim * (mass.bit_length() // 27 + 1) > _LATTICE_GUARD:
        return None
    primes, read = _residue_primes(mass), []
    slab = max(1, _SLAB_ENTRIES // side ** dim)
    for ps in (primes[i:i + slab] for i in range(0, len(primes), slab)):
        res = _residue_power(poly, num_checks, ps, dim)
        sums = res.reshape(len(ps), -1).sum(axis=1) % np.array(ps)
        if sums.tolist() != [mass % p for p in ps]:
            raise ArithmeticError(f"residues of P^{num_checks} miss its "
                                  f"mass (q={q}, K={num_users}, rho={rho})")
        read.append(res[(slice(None),) + (slice(None, None, lam),) * dim]
                    .reshape(len(ps), -1))
    read = np.concatenate(read)
    flat = np.flatnonzero(read.any(axis=0))
    rest = lam * np.column_stack(
        np.unravel_index(flat, ((side - 1) // lam + 1,) * dim))
    types = np.column_stack([side - 1 - rest.sum(axis=1), rest])
    return dict(zip(map(tuple, types.tolist()), _crt(read[:, flat], primes)))


def _residue_power(poly, num_checks, primes, dim):
    """P^num_checks modulo each prime, dense over the nonzero-symbol
    counts.  Each step adds c_b * (the power so far) at the offset of
    every term b; entries are reduced only when their tracked bound would
    pass int64 (residues below 2^28 keep products below 2^56)."""
    pv = np.array(primes, dtype=np.int64).reshape((-1,) + (1,) * dim)
    top = max(primes) - 1  # bound of a reduced entry
    # per term: offset, coefficient modulo each prime, bound on those
    terms = [(t[1:], np.array([c % p for p in primes]).reshape(pv.shape),
              min(c, top)) for t, c in poly.coeffs.items()]
    res, bound = np.ones_like(pv), 1
    for j in range(1, num_checks + 1):
        if bound * max(cm for *_, cm in terms) > _INT64_MAX - top:
            res %= pv
            bound = top
        nxt = np.zeros((len(primes),) + (poly.check_degree * j + 1,) * dim,
                       dtype=np.int64)
        tmp, acc = np.empty_like(res), 0
        for off, c, cm in terms:
            if acc + bound * cm > _INT64_MAX:
                nxt %= pv
                acc = top
            nxt[(slice(None),) + tuple(slice(o, o + res.shape[1]) for o in off)
                ] += res if cm == 1 else np.multiply(res, c, out=tmp)
            acc += bound * cm
        res, bound = nxt, acc
    return res % pv


def _residue_primes(bound: int) -> list[int]:
    """Primes below 2^28, largest first, until their product exceeds
    bound; Miller-Rabin with bases 2, 3, 5, 7 is exact below 3.2e9."""
    primes, m = [], (1 << 28) - 1
    while math.prod(primes) <= bound:
        s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d 2^s, d odd
        xs = [pow(a, (m - 1) >> s, m) for a in (2, 3, 5, 7)]
        if all(x == 1 or m - 1 in (pow(x, 1 << i, m) for i in range(s))
               for x in xs):
            primes.append(m)
        m -= 2
    return primes


def _crt(res, primes) -> list[int]:
    """The integers below the primes' product whose residues modulo
    primes[i] are row i of res, lifted one prime at a time."""
    value, prod = np.zeros(res.shape[1], dtype=object), 1
    for p, row in zip(primes, res):
        value += prod * ((row - value % p) * pow(prod, -1, p) % p)
        prod *= p
    return value.tolist()


def ldpc_finite_spectrum(n: int, t, var_degree: int, check_degree: int,
                         q: int, num_users: int) -> float:
    """ln of the ensemble-average number of codematrices of type t for the
    regular (var_degree, check_degree) coset ensemble on n symbols.

    Exact: multinomial(n,t) times the coefficient at var_degree*t of the
    check enumerator raised to the number of checks (powered modulo
    word-size primes, joined by the CRT), divided by the socket
    multinomial and (q-1)^(n*var_degree).  Raises GuardError when the
    powering would exceed the lattice guard; there is no asymptotic
    stand-in.
    """
    counts = _type_of(n, t)
    lam, rho = var_degree, check_degree
    if (n * lam) % rho:
        raise ValueError(
            f"n*var_degree/check_degree = {n * lam}/{rho} is not an integer; "
            "the ensemble needs a whole number of check nodes"
        )
    r = (n * lam) // rho
    power = _poly_power(q, num_users, rho, r, lam)
    if power is None:
        raise GuardError(
            f"powering the degree-{rho} check enumerator to {r} checks over "
            f"GF({q})^{num_users} exceeds the {_LATTICE_GUARD} residue-entry "
            "lattice guard"
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
        key = tuple(int(c) for c in t)
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


def _all_types_guarded(n: int, qk: int) -> np.ndarray:
    if _num_compositions(n, qk) > _TABLE_GUARD:
        raise GuardError(
            f"dense table over {_num_compositions(n, qk)} types exceeds the "
            f"{_TABLE_GUARD} guard; pass an explicit type list"
        )
    return _compositions(n, qk)


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
        key = _type_of(n, t)
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

def alpha_log(spectrum: SpectrumTable,
              num_messages) -> tuple[float, tuple[int, ...]]:
    """ln of the max-ratio penalty and its maximizing type.

    Ratio per type: table entry over the uniform reference
    (M^K - 1) B(n,t) q^(-nK), with n and K the table's.  The all-zero
    type is excluded."""
    n, num_users = spectrum.n, spectrum.num_users
    log_ref_const = _log_mk_minus_one(num_messages, num_users) \
        - n * num_users * math.log(spectrum.q)
    best = None
    best_t = None
    for t, v in spectrum.entries.items():
        if v == -math.inf or sum(t) == t[0]:
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
    power = _poly_power(q, num_users, rho, r, lam)
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
    # types of zero-symbol share at most 1 - sigma, the zero count
    # descending; a stable sort keeps the first maximum of a tie
    types = _compositions(n, qk)
    types = types[types[:, 0] <= n - math.ceil(sigma * n - 1e-9)]
    order = np.argsort(n - types[:, 0], kind="stable")
    for t in map(tuple, types[order].tolist()):
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
