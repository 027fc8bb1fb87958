"""Ensemble-average codeword/codematrix spectra over GF(q)^K.

A *type* is a histogram over the composite alphabet Q = GF(q)^K, stored
as a tuple of counts indexed by the flat symbol index (user 1 most
significant).  The module computes:

  * uniform-ensemble spectra (closed form) and their exponent,
  * sparse-graph (regular bipartite, variable degree ``var_degree``,
    check degree ``check_degree``) coset-ensemble spectra, exactly at
    finite n by coefficient extraction from the powered check enumerator
    and asymptotically by convex minimization.  The enumerator is powered
    as a polynomial in the sums of its variables over the GF(q)*-orbits
    of Q, one dimension per nonzero orbit ((q^K - 1)/(q - 1) of them;
    the q^K - 1 nonzero symbols themselves when q = 2), on its parity
    classes modulo word-size primes to one check short of the count; a
    read step multiplies the last check in only at the orbit counts lam*u
    that a table reads, the CRT joins those, and a table takes every
    type's entry in one exact array pass over them,
  * the max-ratio penalty ``alpha_log`` used by the random-coding bounds,
  * low-weight expurgation and the four-term rate-offset decomposition,
  * the q^(-n eps/2) tail bound on the actual-vs-design code rate.

Internally everything is kept in natural log; the two exponent
functions return per-symbol q-ary units as documented.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import GuardError
from .gfq import _is_prime, field_from_order

# Guards: the socket types of one check node, and the residue entries
# (box of nonzero-orbit counts times primes) of the powered check
# enumerator; dense per-type table size.
_LATTICE_GUARD = 20_000_000
_TABLE_GUARD = 2_000_000
_WALK_GUARD = 50_000  # types the rate-offset walk solves, one Newton each
_LSE_TOL = 1e-10  # Newton stops at this gradient norm, relative to rho
_LSE_ROUND = 1e-15  # or, no step passing, at this half decrement per |f|
_SLAB_ENTRIES = 1 << 16  # entries of all parity classes powered at once
_ROW_BLOCK = 1 << 16  # types whose exact counts are formed at once
_INT64_MAX = (1 << 63) - 1  # residue sums are reduced before passing it


# ---------------------------------------------------------------------------
# types and small combinatorics

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


def _ldpc_checks(n: int, var_degree: int, check_degree: int) -> int:
    """The check count r = n var_degree / check_degree of the regular
    (var_degree, check_degree) coset ensemble on n symbols, of design rate
    1 - var_degree/check_degree and q^(n - r) words per user: the one rule
    for a design.  ValueError unless n is a positive integer,
    2 <= var_degree <= check_degree and check_degree divides
    n var_degree."""
    if not 2 <= var_degree <= check_degree:
        raise ValueError(f"LDPC design (var_degree {var_degree}, check_degree "
                         f"{check_degree}): need var_degree >= 2 and "
                         "var_degree <= check_degree")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"LDPC design: n must be a positive integer, "
                         f"got n = {n!r}")
    if (n * var_degree) % check_degree:
        raise ValueError(
            f"LDPC design (n = {n}): n*var_degree = {n * var_degree} is not "
            f"a multiple of check_degree = {check_degree}; n R must be "
            "integral, a whole number of check nodes")
    return n * var_degree // check_degree


def _ldpc_design(n: int, var_degree: int, check_degree: int, q: int):
    """(checks r, words per user q^(n - r)) of a design for a bound, which
    needs two messages: ``_ldpc_checks``'s rule, and ValueError at r = n."""
    r = _ldpc_checks(n, var_degree, check_degree)
    if r == n:
        raise ValueError(f"design has {r} checks = n; rate is zero")
    return r, q ** (n - r)


def _factorials(top: int) -> np.ndarray:
    """i! for i = 0..top, exact ints in an object array."""
    out = [1]
    for i in range(1, top + 1):
        out.append(out[-1] * i)
    return np.array(out, dtype=object)


_comb = np.frompyfunc(math.comb, 2, 1)  # exact binomials, elementwise


def _multinomials(counts) -> np.ndarray:
    """The exact multinomial (row sum choose row) of every row of the int
    array counts, a product of binomials C(prefix sum, count).  Cheaper
    than factorials when the counts run into the thousands."""
    return _comb(np.cumsum(counts, axis=1), counts).prod(axis=1)


def _log_multinomials(n: int, rows) -> np.ndarray:
    """ln of the multinomial coefficient n!/prod(t_g!) at every row t of
    the valid type array rows: the ln of the exact integer for n <= 64, a
    block of rows at a time, else lgamma(n + 1) less each count's, in
    their order."""
    if n > 64:
        lgam = np.array([math.lgamma(c + 1) for c in range(n + 1)])
        out = np.full(len(rows), lgam[n])
        for col in rows.T:
            out -= lgam[col]
        return out
    fact, out = _factorials(n), []
    for block in np.array_split(rows, max(1, len(rows) // _ROW_BLOCK)):
        out += [math.log(b) for b in
                (fact[n] // fact[block].prod(axis=1)).tolist()]
    return np.array(out)


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
    fact, coeffs = _factorials(rho).tolist(), {}
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
            coeffs[t] = fact[rho] // math.prod(fact[c] for c in t) * count
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


@functools.lru_cache(maxsize=16)
def _cached_orbit_poly(q, num_users, rho) -> dict[tuple[int, ...], int]:
    return _orbit_poly(_cached_check_poly(q, num_users, rho))


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
    `floor` (the target lies outside the achievable hull).  When neither
    step passes or 60 steps do not reach that norm, the objective is
    still returned if the Newton decrement puts it within rounding of
    the minimum (g H^-1 g / 2 <= _LSE_ROUND * max(1, |f|): the gradient
    can stay above the goal where the objective no longer moves in
    floating point); otherwise ArithmeticError, rather than return a
    value that is not the minimum."""
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
    for steps in range(61):
        if f < floor:
            return -math.inf
        mean = tmat.T @ prob
        g = mean - target
        if math.sqrt(float(g @ g)) <= goal:
            return f
        # the Hessian is tiny (dim <= |Q|); the ridge keeps it invertible
        hess = (tmat.T @ (prob[:, None] * tmat) - np.outer(mean, mean)
                + 1e-12 * np.eye(dim))
        newton = np.linalg.solve(hess, g)
        step = None if steps == 60 else (descend(u, f, newton)
                                         or descend(u, f, g))
        if step is None:
            if float(g @ newton) / 2 <= _LSE_ROUND * max(1.0, abs(f)):
                return f
            if steps == 60:
                raise ArithmeticError(
                    f"inner infimum: no stationary point in 60 Newton "
                    f"steps (f = {float(f)})")
            raise ArithmeticError(
                f"inner infimum: Newton line search stalled at f = {float(f)}")
        u, f, prob = step


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
    # the degree half of the design rule: n = check_degree is always whole
    _ldpc_checks(check_degree, var_degree, check_degree)
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

@functools.lru_cache(maxsize=None)
def _orbits(q: int, num_users: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of Q = GF(q)^K under scaling by GF(q)*, each a sorted
    tuple of flat symbol indices: the zero symbol's first, then the rest in
    the order of their smallest symbols.  Every nonzero orbit has q - 1
    symbols, so for q = 2 each symbol is an orbit of its own."""
    f = field_from_order(q)
    comps = np.array([symbol_components(g, q, num_users)
                      for g in range(q ** num_users)], dtype=np.int64)
    # scaled[e - 1, g]: the flat index of e * g
    scaled = f.mul(np.arange(1, q)[:, None, None], comps) \
        @ q ** np.arange(num_users - 1, -1, -1)
    orbits, seen = [], set()
    for g in range(q ** num_users):
        if g not in seen:
            orbits.append(tuple(sorted(set(scaled[:, g].tolist()))))
            seen.update(orbits[-1])
    return tuple(orbits)


def _orbit_poly(poly: CheckPolynomial) -> dict[tuple[int, ...], int]:
    """The check enumerator as a polynomial in the orbit sums s_o, the sum
    of x_g over the symbols g of orbit o.  A label absorbs any GF(q)*
    scaling of its socket symbol, so coeff(t) is multinomial(rho, t) times
    a function of the orbit counts u of t, and the coefficient at s^u is
    the sum of coeff(t) over the t with orbit counts u, divided by
    prod_o |o|^u_o = (q - 1)^(rho - u_0).  ArithmeticError when that
    division leaves a remainder."""
    orbits = _orbits(poly.q, poly.num_users)
    sums = Counter()
    for t, c in poly.coeffs.items():
        sums[tuple(sum(t[g] for g in o) for o in orbits)] += c
    coeffs = {}
    for u, c in sums.items():
        coeffs[u], rem = divmod(c, (poly.q - 1) ** (poly.check_degree - u[0]))
        if rem:
            raise ArithmeticError(
                f"check enumerator coefficients at orbit counts {u} sum to "
                f"{c}, not a multiple of the orbit sizes' product")
    return coeffs


@functools.lru_cache(maxsize=8)
def _poly_power(q, num_users, rho, num_checks, lam):
    """The orbit-reduced check enumerator (see ``_orbit_poly``) raised to
    num_checks, read only where a spectrum reads it: at the orbit counts
    lam*u of the socket types lam*t.  Returns an object array of exact
    ints over the counts u of the (q^K - 1)/(q - 1) nonzero orbits, each
    0..rho*num_checks/lam (the zero orbit holds the rest; entries past it
    are 0), or None past the lattice guard.  For q = 2 the orbits are the
    symbols and nothing is reduced.

    Exact: powered to num_checks - 1 on its parity classes
    (``_residue_power``) modulo primes below 2^28 whose product exceeds
    the reduced enumerator's mass raised to num_checks, a bound on every
    coefficient, as many primes at once as fill _SLAB_ENTRIES class
    entries; the last check is multiplied in only at the points lam*u
    (``_read_step``), and the points are joined by the CRT.
    ArithmeticError when a residue array misses its mass modulo its
    prime, or the read step misses the sums of the power over its residue
    classes modulo lam."""
    coeffs = _cached_orbit_poly(q, num_users, rho)
    dim, side = len(_orbits(q, num_users)) - 1, rho * num_checks + 1
    total = sum(coeffs.values())
    mass = total ** num_checks
    # every prime exceeds 2^27, so this many always cover the mass
    if side ** dim * (mass.bit_length() // 27 + 1) > _LATTICE_GUARD:
        return None
    primes, read = _residue_primes(mass), []
    step, classes = parity = _parity_classes(coeffs)
    # the entries powered per prime: every class's share of the box
    powered = sum(math.prod((side - 1 - x) // step + 1 for x in h)
                  for h in classes)
    slab = max(1, _SLAB_ENTRIES // powered)
    for ps in (primes[i:i + slab] for i in range(0, len(primes), slab)):
        pv = np.array(ps, dtype=np.int64)
        res = _residue_power(coeffs, rho, num_checks - 1, ps, parity)
        sums = res.reshape(len(ps), -1).sum(axis=1) % pv
        if sums.tolist() != [pow(total, num_checks - 1, p) for p in ps]:
            raise ArithmeticError(f"residues of P^{num_checks - 1} miss its "
                                  f"mass (q={q}, K={num_users}, rho={rho})")
        lattice = _read_step(res, coeffs, rho, lam, ps).reshape(len(ps), -1)
        # sum_u P^r[lam u] = sum_b c_b S_{-b mod lam}, S_k the sum of the
        # power over the indices = k (mod lam) in every coordinate
        want, classes = 0, {}
        for offs, c, _ in _term_groups(coeffs, ps):
            for k in (tuple(-o % lam for o in off) for off in offs):
                if k not in classes:
                    classes[k] = _residue_class(res, k, lam) \
                        .reshape(len(ps), -1).sum(axis=1) % pv
                want = (want + c.reshape(-1) * classes[k]) % pv
        if (lattice.sum(axis=1) % pv).tolist() != want.tolist():
            raise ArithmeticError(f"read step of P^{num_checks} misses its "
                                  f"class sums (q={q}, K={num_users}, "
                                  f"rho={rho})")
        read.append(lattice)
    read = np.concatenate(read)
    power = np.zeros(read.shape[1], dtype=object)
    flat = np.flatnonzero(read.any(axis=0))
    power[flat] = _crt(read[:, flat], primes)
    power.flags.writeable = False  # cached: every caller gets this array
    return power.reshape(((side - 1) // lam + 1,) * dim)


def _term_groups(coeffs, primes):
    """The terms of ``coeffs`` grouped by coefficient: per distinct value,
    its offsets (the counts but the first), its residues modulo each
    prime and the value itself."""
    groups = {}
    for t, c in coeffs.items():
        groups.setdefault(c, []).append(t[1:])
    shape = (-1,) + (1,) * (len(next(iter(coeffs))) - 1)
    return [(offs, np.array([c % p for p in primes]).reshape(shape), c)
            for c, offs in groups.items()]


def _parity_classes(coeffs):
    """(step, classes) of the enumerator ``coeffs``: step 2 and the span of
    its offsets' parities, where all its powers live (2^(dim - K) of the
    2^dim classes for q = 2: each user's checks have even parity), or,
    when that span is every class (q > 2), step 1 and one dense class."""
    dim = len(next(iter(coeffs))) - 1
    span = {(0,) * dim}
    for g in {tuple(x % 2 for x in t[1:]) for t in coeffs}:
        span |= {tuple((a + b) % 2 for a, b in zip(h, g)) for h in span}
    if len(span) == 2 ** dim:
        return 1, [(0,) * dim]
    return 2, sorted(span)


def _residue_power(coeffs, rho, num_checks, primes, parity):
    """The enumerator ``coeffs`` (degree rho) to the power num_checks
    modulo each prime, dense over the counts but the first.  It is powered
    as one array per class h of ``parity`` (step, classes), entry c at
    step*c + h; each step multiplies a class once per distinct coefficient
    c and adds it, for each term b with c_b = c, into class (h + b) mod step
    at (h + b) // step.  Entries are reduced only when their tracked bound
    would pass int64 (residues below 2^28 keep products below 2^56)."""
    step, classes = parity
    dim = len(classes[0])
    pv = np.array(primes, dtype=np.int64).reshape((-1,) + (1,) * dim)
    top = max(primes) - 1  # bound of a reduced entry
    # per distinct coefficient: offsets, residues, bound on those
    terms = [(offs, c, min(v, top))
             for offs, c, v in _term_groups(coeffs, primes)]
    res, bound = {(0,) * dim: np.ones_like(pv)}, 1
    for j in range(1, num_checks + 1):
        if bound * max(cm for *_, cm in terms) > _INT64_MAX - top:
            for part in res.values():
                part %= pv
            bound = top
        nxt = {g: np.zeros((len(primes),) + tuple((rho * j - x) // step + 1
                                                  for x in g), dtype=np.int64)
               for g in classes}
        acc = dict.fromkeys(classes, 0)
        for h, cur in res.items():
            tmp = np.empty_like(cur)
            for offs, c, cm in terms:
                part = cur if cm == 1 else np.multiply(cur, c, out=tmp)
                for off in offs:
                    at = [a + o for a, o in zip(h, off)]
                    g = tuple(x % step for x in at)
                    if acc[g] + bound * cm > _INT64_MAX:
                        nxt[g] %= pv
                        acc[g] = top
                    nxt[g][(slice(None),) + tuple(
                        slice(x // step, x // step + size)
                        for x, size in zip(at, cur.shape[1:]))] += part
                    acc[g] += bound * cm
        res, bound = nxt, max(acc.values())
    out = np.zeros((len(primes),) + (rho * num_checks + 1,) * dim,
                   dtype=np.int64)
    for h, part in res.items():
        np.remainder(part, pv, out=out[(slice(None),) + tuple(
            slice(x, None, step) for x in h)])
    return out


def _residue_class(res, k, lam):
    """The entries of the residue arrays ``res`` whose indices are k
    (mod lam) in every coordinate, a strided view."""
    return res[(slice(None),) + tuple(slice(i, None, lam) for i in k)]


def _read_step(res, coeffs, rho, lam, primes):
    """The enumerator ``coeffs`` (degree rho) times the reduced residue
    power ``res`` (as ``_residue_power`` returns it), modulo each prime,
    at the points lam*u only: P^r[lam u] = sum_b c_b P^(r-1)[lam u - b].
    A term b reads the power's residue class -b (mod lam) in every
    coordinate, so each class is multiplied once per distinct
    coefficient."""
    dim = res.ndim - 1
    pv = np.array(primes, dtype=np.int64).reshape((-1,) + (1,) * dim)
    # P^r has rho*r + 1 counts per coordinate, rho more than res
    out = np.zeros((len(primes),) + ((res.shape[1] + rho - 1) // lam + 1,)
                   * dim, dtype=np.int64)
    # residues below 2^28: an entry sums at most one per term, and the
    # lattice guard keeps the terms far below 2^35
    for offs, c, value in _term_groups(coeffs, primes):
        parts = {}
        for off in offs:
            k = tuple(-o % lam for o in off)
            if k not in parts:
                part = _residue_class(res, k, lam)
                parts[k] = part if value == 1 else part * c % pv
            part = parts[k]
            out[(slice(None),) + tuple(
                slice(-(-o // lam), -(-o // lam) + size)
                for o, size in zip(off, part.shape[1:]))] += part
    return out % pv


def _residue_primes(bound: int) -> list[int]:
    """Primes below 2^28, largest first, until their product exceeds
    bound."""
    primes, prod, m = [], 1, (1 << 28) - 1
    while prod <= bound:
        if _is_prime(m):
            primes.append(m)
            prod *= m
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


def _type_rows(n: int, types, qk: int) -> np.ndarray:
    """types as an int64 array of rows, refused (ValueError) unless each
    row holds qk nonnegative counts that sum to n."""
    rows = np.array([*types] or np.zeros((0, qk)), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != qk or (rows < 0).any():
        raise ValueError(f"a type is {qk} nonnegative counts")
    bad = np.flatnonzero(rows.sum(axis=1) != n)
    if bad.size:
        raise ValueError(f"type sums to {rows[bad[0]].sum()}, expected {n}")
    return rows


def _log_counts(power, n: int, rows, lam: int, q: int,
                num_users: int) -> list[float]:
    """ln[multinomial(n, t) coeff / (multinomial(n lam, lam t)
    (q-1)^(n lam))] for every row t of rows, coeff the powered check
    enumerator at the socket type lam t: the orbit-reduced ``power`` at
    the orbit counts u of t times the ways to spread each lam*u_o over
    the symbols of orbit o, whose product with multinomial(n lam, lam u)
    is multinomial(n lam, lam t); -inf where coeff is 0.  One pass over
    the rows in exact integers, a block of rows at a time, forming the
    rest only where the power reads nonzero; the ln is taken of the
    numerator and of the denominator."""
    fact, orbits = _factorials(n), _orbits(q, num_users)
    out = np.full(len(rows), -math.inf)
    for block in np.array_split(np.arange(len(rows)),
                                max(1, len(rows) // _ROW_BLOCK)):
        t = rows[block].astype(np.int64)
        counts = np.stack([t[:, list(o)].sum(axis=1) for o in orbits],
                          axis=1)
        coeff = power[tuple(counts[:, 1:].T)]
        live = coeff != 0
        t, counts, coeff = t[live], counts[live], coeff[live]
        ways = 1
        for o in orbits[1:]:
            ways = ways * _multinomials(lam * t[:, list(o)])
        num = fact[n] // fact[t].prod(axis=1) * coeff * ways
        den = _multinomials(lam * counts) * ways * (q - 1) ** (n * lam)
        out[block[live]] = [math.log(a) - math.log(b)
                            for a, b in zip(num.tolist(), den.tolist())]
    return out.tolist()


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
    """Exact finite-n spectrum table of the regular (var_degree,
    check_degree) coset ensemble on n symbols: per type t, ln of the
    ensemble-average number of codematrices of type t, all in one pass
    over the types (``_log_counts``).

    That count is multinomial(n, t) times the coefficient at
    var_degree*t of the check enumerator raised to the number of checks,
    divided by the socket multinomial and (q-1)^(n*var_degree).  The
    coefficient is the orbit-reduced power's (see ``_poly_power``; one
    dimension per nonzero GF(q)*-orbit of Q, so a 1-d power for every q
    when K = 1, and the unreduced power when q = 2) times the multinomials
    that spread each orbit's count over its symbols.

    types defaults to every type of length q^K (guarded); ValueError
    before any powering when a type is not q^K nonnegative counts summing
    to n, or when ``_ldpc_checks`` refuses the design.  Raises GuardError
    when the powering would exceed the lattice guard; there is no
    asymptotic stand-in.  The stored message count is the design value
    q^((n - num_checks) per user)."""
    lam, rho, qk = var_degree, check_degree, q ** num_users
    r = _ldpc_checks(n, lam, rho)
    rows = _all_types_guarded(n, qk) if types is None \
        else _type_rows(n, types, qk)
    power = _poly_power(q, num_users, rho, r, lam)
    if power is None:
        raise GuardError(
            f"powering the degree-{rho} check enumerator to {r} checks over "
            f"GF({q})^{num_users} exceeds the {_LATTICE_GUARD} residue-entry "
            "lattice guard"
        )
    values = _log_counts(power, n, rows, lam, q, num_users)
    return SpectrumTable(
        n=n, q=q, num_users=num_users, kind="ldpc",
        # the column lists zip into key tuples faster than rows map
        entries=dict(zip(zip(*rows.T.tolist()), values)),
        var_degree=var_degree, check_degree=check_degree,
        log_num_messages=(n - r) * math.log(q),
    )


# ---------------------------------------------------------------------------
# alpha penalty, expurgation

def alpha_log(spectrum: SpectrumTable,
              num_messages) -> tuple[float, tuple[int, ...]]:
    """ln of the max-ratio penalty and its maximizing type, the first
    one in table order on a tie.

    Ratio per type: table entry over the uniform reference
    (M^K - 1) B(n,t) q^(-nK), with n and K the table's, ln B(n,t) as
    ``_log_multinomials`` gives it.  The all-zero type and the types of
    ensemble count 0 are excluded."""
    n, num_users = spectrum.n, spectrum.num_users
    log_ref_const = _log_mk_minus_one(num_messages, num_users) \
        - n * num_users * math.log(spectrum.q)
    types = np.array([*spectrum.entries], dtype=np.int64).reshape(
        len(spectrum.entries), spectrum.q ** num_users)
    values = np.fromiter(spectrum.entries.values(), float, len(types))
    keep = (values != -math.inf) & (types[:, 1:].sum(axis=1) != 0)
    if not keep.any():
        raise ValueError("no candidate types left for the penalty maximum")
    types = types[keep]
    bad = np.flatnonzero(types.sum(axis=1) != n)
    if bad.size:
        raise ValueError(f"type sums to {types[bad[0]].sum()}, expected {n}")
    ratio = values[keep] - (log_ref_const + _log_multinomials(n, types))
    best = int(np.argmax(ratio))
    return float(ratio[best]), tuple(types[best].tolist())


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
    finite spectrum).  Requires the exact socket lattice; raises
    GuardError when the walk would pass the type guard or the powering
    the lattice guard, ValueError when ``_ldpc_checks`` refuses the
    design or the design rate is zero."""
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie strictly between 0 and 1")
    lam, rho = var_degree, check_degree
    r, words = _ldpc_design(n, lam, rho, q)
    if var_degree < 3:
        raise ValueError("the decomposition requires variable degree >= 3")
    rate = 1.0 - lam / rho
    qk = q ** num_users
    # the walk takes the types of weight at least `least`
    least = math.ceil(sigma * n - 1e-9)
    walked = _num_compositions(n, qk) - _num_compositions(least - 1, qk)
    if walked > _WALK_GUARD:
        raise GuardError(
            f"the decomposition needs one exponent solve per type: {walked} "
            f"types exceed the {_WALK_GUARD} type guard"
        )
    power = _poly_power(q, num_users, rho, r, lam)
    if power is None:
        raise GuardError(
            "socket-lattice guard exceeded; the decomposition needs the "
            "exact finite spectrum at this n"
        )
    lnq = math.log(q)
    log_mk1 = math.log(words ** num_users - 1)

    term1 = math.log(2.0) / n

    best2 = -math.inf
    best2_t = None
    best4 = -math.inf
    best4_t = None
    # types of zero-symbol share at most 1 - sigma, the zero count
    # descending; a stable sort keeps the first maximum of a tie
    types = _compositions(n, qk)
    types = types[types[:, 0] <= n - least]
    types = types[np.argsort(n - types[:, 0], kind="stable")]
    for t, ln_fin, log_b in zip(
            map(tuple, types.tolist()),
            _log_counts(power, n, types, lam, q, num_users),
            _log_multinomials(n, types).tolist()):
        if ln_fin == -math.inf:
            continue
        th = np.array(t, dtype=float) / n
        asym = ldpc_spectrum_exponent(th, lam, rho, q, num_users)
        cand2 = ln_fin / n - asym * lnq
        if cand2 > best2:
            best2, best2_t = cand2, t
        h = _entropy_nats(th)
        uniform_nats = h - num_users * (1.0 - rate) * lnq
        ref = (log_mk1 + log_b - n * num_users * lnq) / n
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
