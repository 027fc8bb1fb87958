"""Independent exact oracles used by the unit and acceptance tests.

The codebook and sequence oracles are computed in rational or integer
arithmetic with direct sequence enumeration and share no code with the
implementations under test.  The two check-node oracles and the
row-by-row elimination share only ``fblbound.gfq`` field arithmetic with
production.  The float oracles are the Gallager function (scalar loops
over every input tuple), the random-coding union bounds, exact and
relaxed, by joint-type enumeration with one dict convolution per letter
(the slow route that the y-type, information-density and atom-type
routes of ``fblbound.fbl`` replace), the Monte Carlo RCU with its own
draws and a per-cell fold of each word, the two-binomial closed form of
the BSC, and the ML scores as one-hot contractions of the gathered (M, n,
|Y|) per-letter table (the route that the simulator's score matrix
replaces).
The powered check enumerator is a big-integer dict convolution, the
route that ``fblbound.spectrum``'s residue powering replaces; a finite
spectrum entry is read from it one type at a time in big integers, the
route that the spectrum table's one array pass replaces, as is the
penalty maximum one entry at a time, each multinomial a scalar product of
binomials (or of lgamma values); the spectrum exponent's inner infimum
has the gradient/restart solver that its damped Newton loop replaces; and
a field's exp, log and product tables come from its smallest primitive
element, found by brute force.
"""

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from fblbound.gfq import field_from_order
from fblbound.spectrum import _log_mk_minus_one


def _seq_prob(pmf_exact, seq):
    out = Fraction(1)
    for s in seq:
        out *= pmf_exact[s]
    return out


def _word_likelihood(w_exact, xseq, yseq):
    out = Fraction(1)
    for x, y in zip(xseq, yseq):
        out *= w_exact[x][y]
    return out


def ensemble_error_codebooks(dmc, pmf, n, num_messages):
    """Average ML error (ties as errors) over every codebook, weighted by
    the product input pmf, with a uniformly chosen transmitted message.
    Exact; exponential in num_messages, so keep the instance tiny.
    """
    sx, sy = dmc.input_size, dmc.output_size
    seqs = list(itertools.product(range(sx), repeat=n))
    outs = list(itertools.product(range(sy), repeat=n))
    pseq = {s: _seq_prob(pmf.exact, s) for s in seqs}
    like = {(s, y): _word_likelihood(dmc.w_exact, s, y)
            for s in seqs for y in outs}
    total = Fraction(0)
    for codebook in itertools.product(seqs, repeat=num_messages):
        pcb = Fraction(1)
        for c in codebook:
            pcb *= pseq[c]
        if pcb == 0:
            continue
        err = Fraction(0)
        for m in range(num_messages):
            for y in outs:
                wy = like[(codebook[m], y)]
                if wy == 0:
                    continue
                beaten = any(
                    like[(codebook[mp], y)] >= wy
                    for mp in range(num_messages) if mp != m
                )
                if beaten:
                    err += wy
        total += pcb * err / num_messages
    return total


def ensemble_error_factorized(dmc, pmf, n, num_messages):
    """Same ensemble average, using the independence of the codewords:
    condition on (transmitted word, output) and enumerate competitor
    sequences directly.  Exact; polynomial in the alphabet sizes.
    """
    sx, sy = dmc.input_size, dmc.output_size
    seqs = list(itertools.product(range(sx), repeat=n))
    outs = list(itertools.product(range(sy), repeat=n))
    pseq = {s: _seq_prob(pmf.exact, s) for s in seqs}
    total = Fraction(0)
    for c1 in seqs:
        if pseq[c1] == 0:
            continue
        for y in outs:
            wy = _word_likelihood(dmc.w_exact, c1, y)
            if wy == 0:
                continue
            p_beat = Fraction(0)
            for cp in seqs:
                if _word_likelihood(dmc.w_exact, cp, y) >= wy:
                    p_beat += pseq[cp]
            err = 1 - (1 - p_beat) ** (num_messages - 1)
            total += pseq[c1] * wy * err
    return total


def mac_ensemble_error_codebooks(mac, pmf1, pmf2, n, m1, m2):
    """Two-user analog of ``ensemble_error_codebooks``: every pair of
    codebooks, uniform message pair, joint ML with ties as errors."""
    s1, s2 = mac.input_sizes
    sy = mac.output_size
    seqs1 = list(itertools.product(range(s1), repeat=n))
    seqs2 = list(itertools.product(range(s2), repeat=n))
    outs = list(itertools.product(range(sy), repeat=n))

    def like(c1, c2, y):
        out = Fraction(1)
        for a, b, yy in zip(c1, c2, y):
            out *= mac.w_exact[a][b][yy]
        return out

    p1 = {s: _seq_prob(pmf1.exact, s) for s in seqs1}
    p2 = {s: _seq_prob(pmf2.exact, s) for s in seqs2}
    total = Fraction(0)
    for cb1 in itertools.product(seqs1, repeat=m1):
        pc1 = Fraction(1)
        for c in cb1:
            pc1 *= p1[c]
        if pc1 == 0:
            continue
        for cb2 in itertools.product(seqs2, repeat=m2):
            pc2 = Fraction(1)
            for c in cb2:
                pc2 *= p2[c]
            if pc2 == 0:
                continue
            err = Fraction(0)
            for ma in range(m1):
                for mb in range(m2):
                    for y in outs:
                        wy = like(cb1[ma], cb2[mb], y)
                        if wy == 0:
                            continue
                        beaten = any(
                            like(cb1[na], cb2[nb], y) >= wy
                            for na in range(m1) for nb in range(m2)
                            if (na, nb) != (ma, mb)
                        )
                        if beaten:
                            err += wy
            total += pc1 * pc2 * err / (m1 * m2)
    return total


def coset_ensemble_error(dmc, n, msg_digits, q=2):
    """Average ML error (ties as errors) over every generator matrix in
    GF(q)^(msg_digits x n) and every coset shift in GF(q)^n, uniform
    transmitted message.  Exact; q must be prime here (componentwise
    modular arithmetic, no extension-field reduction).
    """
    sy = dmc.output_size
    if dmc.input_size != q:
        raise ValueError("oracle maps field symbols straight onto inputs")
    msgs = list(itertools.product(range(q), repeat=msg_digits))
    outs = list(itertools.product(range(sy), repeat=n))
    words = list(itertools.product(range(q), repeat=n))
    like = {(c, y): _word_likelihood(dmc.w_exact, c, y)
            for c in words for y in outs}
    total = Fraction(0)
    codes = 0
    for gen_flat in itertools.product(range(q), repeat=msg_digits * n):
        gen = [gen_flat[i * n:(i + 1) * n] for i in range(msg_digits)]
        for shift in words:
            cws = {}
            for m in msgs:
                cws[m] = tuple(
                    (sum(mi * gen[i][j] for i, mi in enumerate(m)) + shift[j]) % q
                    for j in range(n)
                )
            err = Fraction(0)
            for m in msgs:
                cm = cws[m]
                for y in outs:
                    wy = like[(cm, y)]
                    if wy == 0:
                        continue
                    beaten = any(
                        like[(cws[mp], y)] >= wy for mp in msgs if mp != m
                    )
                    if beaten:
                        err += wy
            total += err / len(msgs)
            codes += 1
    return total / codes


def _composite_symbols(q, num_users):
    """Components of every composite symbol, user 1 most significant, and
    the flat index of a component tuple."""
    comps = [
        tuple(g // q ** (num_users - 1 - u) % q for u in range(num_users))
        for g in range(q ** num_users)
    ]

    def flat(cs):
        idx = 0
        for c in cs:
            idx = idx * q + int(c)
        return idx

    return comps, flat


def enumerate_check_poly(q, num_users, rho):
    """Socket-type enumerator of one degree-rho check node by direct
    enumeration of edge labels and the first rho-1 socket symbols (the
    last symbol is forced).  Raises ValueError past 1e8 tuples."""
    if (q - 1) ** rho * q ** (num_users * rho) > 100_000_000:
        raise ValueError("direct enumeration guard exceeded")
    f = field_from_order(q)
    qk = q ** num_users
    comps, flat = _composite_symbols(q, num_users)
    add = [[int(f.add(a, b)) for b in range(q)] for a in range(q)]
    mul = [[int(f.mul(a, b)) for b in range(q)] for a in range(q)]
    neg = [int(f.neg(a)) for a in range(q)]
    inv = [0] + [int(f.inv(a)) for a in range(1, q)]
    counts = Counter()
    for evec in itertools.product(range(1, q), repeat=rho):
        rows = [mul[e] for e in evec[:-1]]
        ilast = inv[evec[-1]]
        for gs in itertools.product(range(qk), repeat=rho - 1):
            last = []
            for u in range(num_users):
                s = 0
                for i, g in enumerate(gs):
                    s = add[s][rows[i][comps[g][u]]]
                last.append(mul[ilast][neg[s]])
            t = [0] * qk
            for g in gs:
                t[g] += 1
            t[flat(last)] += 1
            counts[tuple(t)] += 1
    return dict(counts)


def dp_check_poly(q, num_users, rho):
    """Same enumerator by an edge-by-edge dynamic program over (running
    labeled sum, partial socket type)."""
    f = field_from_order(q)
    qk = q ** num_users
    comps, flat = _composite_symbols(q, num_users)
    add_flat = [
        [flat([int(f.add(a, b)) for a, b in zip(comps[x], comps[y])])
         for y in range(qk)]
        for x in range(qk)
    ]
    # per socket symbol: multiset of labeled values e*g, e in GF(q)*
    deltas = [
        list(Counter(flat([int(f.mul(e, c)) for c in comps[g]])
                     for e in range(1, q)).items())
        for g in range(qk)
    ]
    state = [dict() for _ in range(qk)]
    state[0][(0,) * qk] = 1
    for _ in range(rho):
        nxt = [dict() for _ in range(qk)]
        for s in range(qk):
            for t, cnt in state[s].items():
                for g in range(qk):
                    key = t[:g] + (t[g] + 1,) + t[g + 1:]
                    for eg, w in deltas[g]:
                        dst = nxt[add_flat[s][eg]]
                        dst[key] = dst.get(key, 0) + cnt * w
        state = nxt
    return {t: c for t, c in state[0].items() if c}


def poly_power_dict(coeffs, num_checks):
    """A sparse enumerator ``coeffs`` (type tuple -> int) raised to
    num_checks by repeated dict convolution in exact integers."""
    cur = {tuple(0 for _ in next(iter(coeffs))): 1}
    for _ in range(num_checks):
        nxt = {}
        for ta, ca in cur.items():
            for tb, cb in coeffs.items():
                key = tuple(a + b for a, b in zip(ta, tb))
                nxt[key] = nxt.get(key, 0) + ca * cb
        cur = nxt
    return cur


def power_coeff(power, socket_t, orbits):
    """The coefficient of P^r at the socket type socket_t, from ``power``,
    a map from orbit counts (zero orbit first) to the coefficients of the
    orbit-reduced power: its coefficient at the orbit counts u of
    socket_t times, per orbit o, the multinomial ways to spread u_o over
    the symbols of o, a product of binomials."""
    counts, ways = [], 1
    for o in orbits:
        u = 0
        for g in o:
            u += socket_t[g]
            ways *= math.comb(u, socket_t[g])
        counts.append(u)
    return power.get(tuple(counts), 0) * ways


def multinomial(n, counts):
    """n!/prod(t_g!) in exact integers, refused (ValueError) unless the
    counts sum to n."""
    counts = [int(c) for c in counts]
    if sum(counts) != n:
        raise ValueError(f"type sums to {sum(counts)}, expected {n}")
    out = 1
    for c in counts:
        out *= math.comb(n, c)
        n -= c
    return out


def multinomial_log(n, counts):
    """ln multinomial(n, counts): the ln of the exact integer for n <= 64,
    else lgamma(n + 1) less each count's, in their order.  The scalar
    route that ``fblbound.spectrum._log_multinomials`` takes over a type
    array."""
    if n <= 64:
        return math.log(multinomial(n, counts))
    if sum(counts) != n:
        raise ValueError(f"type sums to {sum(counts)}, expected {n}")
    return _log_multinomial(n, counts)


def log_finite_count(power, n, counts, lam, q, orbits):
    """ln[multinomial(n, t) coeff / (multinomial(n lam, lam t)
    (q-1)^(n lam))] for one type t = counts, in big integers, coeff the
    powered check enumerator at the socket type lam t by ``power_coeff``;
    -inf when that coefficient is 0.  The per-type route that the one
    array pass of ``fblbound.spectrum.ldpc_spectrum_table`` replaces."""
    socket_t = tuple(lam * c for c in counts)
    coeff = power_coeff(power, socket_t, orbits)
    if coeff == 0:
        return -math.inf
    num = multinomial(n, counts) * coeff
    den = multinomial(n * lam, socket_t) * (q - 1) ** (n * lam)
    return math.log(num) - math.log(den)


def alpha_log_loop(spectrum, num_messages):
    """The max-ratio penalty and its type one table entry at a time: the
    loop that ``fblbound.spectrum.alpha_log``'s array pass replaces."""
    n = spectrum.n
    log_ref_const = _log_mk_minus_one(num_messages, spectrum.num_users) \
        - n * spectrum.num_users * math.log(spectrum.q)
    best = best_t = None
    for t, v in spectrum.entries.items():
        if v == -math.inf or sum(t) == t[0]:
            continue
        ratio = v - (log_ref_const + multinomial_log(n, t))
        if best is None or ratio > best:
            best, best_t = ratio, t
    if best is None:
        raise ValueError("no candidate types left for the penalty maximum")
    return best, best_t


# tolerance and descent starts of the restart solver's inner infimum
_LSE_TOL = 1e-10
_LSE_RESTARTS = 10


def minimize_lse_affine_restarts(log_c, tmat, target, scale, floor):
    """Minimize lse(log_c + T u) - <target, u>; convex in u.  The
    gradient-descent, Newton-polish and random-restart search that
    ``fblbound.spectrum._minimize_lse_affine``'s Newton loop replaces.

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


def e0_event(w, probs, event, rho):
    """Gallager's E0 of one error event by direct loops over symbols:
    -ln sum over (x_rest, y) of P(x_rest) (sum over x_E of P(x_E)
    W(y|x)^(1/(1+rho)))^(1+rho), where ``event`` lists the users whose
    inputs are averaged inside the bracket and ``probs`` holds one pmf
    (a sequence of floats) per user."""
    users = range(len(probs))
    rest = [u for u in users if u not in event]
    s = 1.0 / (1.0 + rho)
    total = 0.0
    for x_rest in itertools.product(*(range(len(probs[u])) for u in rest)):
        p_rest = math.prod(float(probs[u][x]) for u, x in zip(rest, x_rest))
        for y in range(w.shape[-1]):
            inner = 0.0
            for x_ev in itertools.product(*(range(len(probs[u]))
                                            for u in event)):
                x = [0] * len(probs)
                for u, xu in zip(rest, x_rest):
                    x[u] = xu
                for u, xu in zip(event, x_ev):
                    x[u] = xu
                p_ev = math.prod(float(probs[u][x[u]]) for u in event)
                inner += p_ev * float(w[tuple(x) + (y,)]) ** s
            total += p_rest * inner ** (1.0 + rho)
    return -math.log(total)


def primitive_tables(field):
    """(exp, log, mul) of GF(q) from its smallest primitive element, found
    by brute force: the first g >= 2 (1 when q = 2) whose q - 1 powers under
    the field's scalar product are all distinct.  exp[k] = g^k, log
    inverts it with -1 at 0, and mul[g^i][g^j] = g^(i+j), 0 at 0; nested
    lists."""
    q = field.q
    for g in range(1 if q == 2 else 2, q):
        exp = [1]
        for _ in range(q - 2):
            exp.append(field._mul_scalar(exp[-1], g))
        if len(set(exp)) == q - 1:
            break
    log = [-1] * q
    for k, x in enumerate(exp):
        log[x] = k
    mul = [[0] * q for _ in range(q)]
    for i, a in enumerate(exp):
        for j, b in enumerate(exp):
            mul[a][b] = exp[(i + j) % (q - 1)]
    return exp, log, mul


def rank_and_nullspace_rows(mat):
    """Gauss-Jordan elimination one row and one basis entry at a time, with
    the pivot rule of ``gfq.rank_and_nullspace`` (first nonzero row, top to
    bottom): returns the same (rank, basis) by a scalar route."""
    f = mat.field
    a = mat.data.copy()
    rows, cols = a.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = f.mul(a[r], f.inv(int(a[r, c])))
        for rr in range(rows):
            if rr != r and a[rr, c] != 0:
                a[rr] = f.sub(a[rr], f.mul(int(a[rr, c]), a[r]))
        pivot_cols.append(c)
        r += 1
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), cols), dtype=np.int64)
    for k, fc in enumerate(free_cols):
        basis[k, fc] = 1
        for i, pc in enumerate(pivot_cols):
            basis[k, pc] = f.neg(int(a[i, fc]))
    return len(pivot_cols), basis


def mac_min_distance_pairs(w1, w2):
    """Minimum Hamming distance of a two-user code, one pair of distinct
    message pairs (a, b) != (a', b') at a time: the positions where user
    1's words a, a' or user 2's words b, b' differ."""
    w1, w2 = np.asarray(w1).tolist(), np.asarray(w2).tolist()
    pairs1 = list(itertools.product(range(len(w1)), repeat=2))
    pairs2 = list(itertools.product(range(len(w2)), repeat=2))
    return min(sum(x != x2 or y != y2 for x, x2, y, y2
                   in zip(w1[a], w1[a2], w2[b], w2[b2]))
               for a, a2 in pairs1 for b, b2 in pairs2
               if (a, b) != (a2, b2))


def log_likelihoods_onehot(logw, cand, ys):
    """(trials, candidates) log-likelihood sums: the gathered (M, n, |Y|)
    table ``logw[cand]`` contracted with the one-hot outputs ``ys``."""
    gathered = logw[cand]
    return np.einsum("mns,tns->tm", gathered,
                     np.eye(gathered.shape[2])[ys], optimize=True)


def ml_decide_rows(ll, rng, tie_atol, log_zero):
    """The tie-break of ``simulator._ml_decide`` one row at a time: each
    row with several candidates within ``tie_atol`` of its best (all of
    them when the best is below ``log_zero / 2``) draws
    ``rng.integers(count)`` and takes that tied candidate."""
    decoded = []
    for row in ll:
        top = row.max()
        opts = np.flatnonzero(row >= top - tie_atol)
        if top <= 0.5 * log_zero:
            opts = np.arange(row.size)
        decoded.append(opts[rng.integers(opts.size)] if opts.size > 1
                       else opts[0])
    return np.array(decoded, dtype=np.int64)


# ---------------------------------------------------------------------------
# random-coding union bounds by joint-type enumeration with dict tables


def merge_close(items, tol=1e-12):
    """Sorted (key, probability) items with float keys collapsed: a key
    equal to its group's first key, or finite and within ``tol`` above
    it, joins the group."""
    out: list = []
    for k, p in items:
        if out and (k == out[-1][0]
                    or (math.isfinite(k) and math.isfinite(out[-1][0])
                        and k - out[-1][0] <= tol)):
            out[-1][1] += p
        else:
            out.append([k, p])
    return out


class DictTails:
    """Competitor-score tails over n-fold conditioning types, one dict
    convolution per letter: ``atoms[cell]`` lists (log-likelihood ratio,
    probability) pairs; ``tail(counts, thr)`` is P[score >= thr - tie]."""

    def __init__(self, atoms, tie=1e-9):
        self.atoms = atoms
        self.tie = tie
        self._tables: dict = {}

    def table(self, counts):
        counts = tuple(counts)
        if counts not in self._tables:
            dist = {0.0: 1.0}
            for cell, c in enumerate(counts):
                for _ in range(c):
                    out: dict = {}
                    for k, p in dist.items():
                        for ak, ap in self.atoms[cell]:
                            out[k + ak] = out.get(k + ak, 0.0) + p * ap
                    dist = out
            items = merge_close(sorted(dist.items()))
            keys = [k for k, _ in items]
            suffix = [0.0] * (len(keys) + 1)
            for i in range(len(keys) - 1, -1, -1):
                suffix[i] = suffix[i + 1] + items[i][1]
            self._tables[counts] = (keys, suffix)
        return self._tables[counts]

    def tail(self, counts, threshold):
        keys, suffix = self.table(counts)
        return min(suffix[bisect.bisect_left(keys, threshold - self.tie)], 1.0)


def type_compositions(total, parts):
    """All length-``parts`` tuples of nonnegative ints summing to ``total``,
    the first part slowest: the order ``spectrum._compositions`` keeps."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in type_compositions(total - head, parts - 1):
            yield (head,) + rest


def _log_multinomial(n, counts):
    out = math.lgamma(n + 1)
    for c in counts:
        out -= math.lgamma(c + 1)
    return out


class JointTypes:
    """Joint (x_1, ..., x_K, y) types of P_1 x ... x P_K x W for K = 1 or
    2, with one ``DictTails`` per error event (user 1 wrong, user 2 wrong,
    both wrong; one event for K = 1).  ``w`` has shape (|X_1|, ..., |X_K|,
    |Y|) and ``probs`` holds one float pmf per user."""

    def __init__(self, w, probs):
        w = np.asarray(w, dtype=np.float64)
        users = list(range(len(probs)))
        events = [(0,)] if len(probs) == 1 else [(0,), (1,), (0, 1)]
        sizes = w.shape[:-1]
        self.systems = []
        layouts = []
        for event in events:
            rest = [u for u in users if u not in event]
            conds = list(itertools.product(*[range(sizes[u]) for u in rest],
                                           range(w.shape[-1])))
            comps = list(itertools.product(*[range(sizes[u])
                                             for u in event]))
            marg = {}
            atoms = []
            for cond in conds:
                def full(comp, cond=cond):
                    x = [0] * len(users)
                    for u, v in zip(rest, cond[:-1]):
                        x[u] = v
                    for u, v in zip(event, comp):
                        x[u] = v
                    return tuple(x) + (cond[-1],)
                prior = [math.prod(probs[u][v] for u, v in zip(event, comp))
                         for comp in comps]
                po = sum(p * w[full(c)] for p, c in zip(prior, comps))
                marg[cond] = po
                atoms.append([(math.log(w[full(c)]) - math.log(po)
                               if w[full(c)] > 0 else -math.inf, p)
                              for p, c in zip(prior, comps)
                              if p > 0 and po > 0])
            self.systems.append(DictTails(atoms))
            layouts.append((rest, conds, marg))
        self.cells = []
        self.cell_at = {}
        for idx in itertools.product(*[range(s) for s in w.shape]):
            jp = math.prod(probs[u][idx[u]] for u in users) * w[idx]
            if jp <= 0:
                continue
            self.cell_at[idx] = len(self.cells)
            ivec = []
            slots = []
            for rest, conds, marg in layouts:
                cond = tuple(idx[u] for u in rest) + (idx[-1],)
                ivec.append(math.log(w[idx]) - math.log(marg[cond]))
                slots.append(conds.index(cond))
            self.cells.append((math.log(jp), ivec, slots))

    def types(self, n):
        """(probability, i per event, conditioning counts per event) for
        every joint type of length n."""
        for t in type_compositions(n, len(self.cells)):
            logp = _log_multinomial(n, t)
            ivec = [0.0] * len(self.systems)
            counts = [[0] * len(sys_.atoms) for sys_ in self.systems]
            for (lp, iv, slots), c in zip(self.cells, t):
                logp += c * lp
                for e in range(len(ivec)):
                    ivec[e] += c * iv[e]
                    counts[e][slots[e]] += c
            yield math.exp(logp), ivec, counts

    def terms(self, n):
        """(probability, i per event, competitor tail per event) for every
        joint type of length n."""
        for pj, ivec, counts in self.types(n):
            yield (pj, ivec,
                   [s.tail(cnt, i) for s, cnt, i in zip(self.systems, counts,
                                                       ivec)])


def _error_from_tail(p, num_messages):
    # 1 - (1 - p)^(M-1)
    if p >= 1.0:
        return 1.0
    return -math.expm1((num_messages - 1) * math.log1p(-p))


def rcu_ppc_joint_types(w, probs, n, num_messages):
    """(exact RCU, clamped union bound) of the i.i.d. random code by
    joint-type enumeration."""
    value = union = 0.0
    for pj, _ivec, (tail,) in JointTypes(w, [probs]).terms(n):
        value += pj * _error_from_tail(tail, num_messages)
        union += pj * min(1.0, (num_messages - 1) * tail)
    return value, min(union, 1.0)


def relaxed_ppc_joint_types(w, probs, n, log_scale):
    """E[min{1, e^{log_scale - i(X^n; Y^n)}}] by joint-type enumeration."""
    total = 0.0
    for pj, (i_val,), _tails in JointTypes(w, [probs]).terms(n):
        total += pj * math.exp(min(log_scale - i_val, 0.0))
    return min(total, 1.0)


def exact_search_joint_types(w, probs, n, epsilon):
    """Largest M whose exact RCU stays strictly below ``epsilon``, by the
    doubling-then-bisection search over joint-type terms."""
    terms = [(pj, tail) for pj, _i, (tail,)
             in JointTypes(w, [probs]).terms(n)]

    def err(m):
        return sum(pj * _error_from_tail(t, m) for pj, t in terms)

    lo, hi = 1, 2
    while err(hi) < epsilon:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if err(mid) < epsilon else (lo, mid)
    return lo


def rcu_mac_joint_types(w, probs1, probs2, n, m1, m2):
    """Exact two-user RCU E[min{1, (M1-1) P1 + (M2-1) P2 + (M1-1)(M2-1)
    P12}] by joint-type enumeration."""
    mults = (m1 - 1, m2 - 1, (m1 - 1) * (m2 - 1))
    total = 0.0
    for pj, _ivec, tails in JointTypes(w, [probs1, probs2]).terms(n):
        total += pj * min(1.0, sum(a * t for a, t in zip(mults, tails)))
    return min(total, 1.0)


def relaxed_mac_joint_types(w, probs1, probs2, n, log_scales):
    """Two-user relaxed sum E[min{1, sum_e min{1, e^{s_e - i_e}}}] over
    the event i-vector by joint-type enumeration; events whose log scale
    s_e is None are inactive and omitted."""
    total = 0.0
    for pj, ivec, _counts in JointTypes(w, [probs1, probs2]).types(n):
        term = 0.0
        for log_scale, i_val in zip(log_scales, ivec):
            if log_scale is not None:
                term += math.exp(min(log_scale - i_val, 0.0))
        total += pj * min(term, 1.0)
    return min(total, 1.0)


def rcu_mc_ppc_dict_tables(w, probs, n, num_messages, trials, seed):
    """Mean exact and union terms over ``trials`` words drawn as
    ``fblbound.fbl.rcu_mc_ppc`` draws them: chunks of 4096 trials, chunk c
    from Philox key (seed, c), the inputs' (chunk, n) uniforms and then the
    outputs', each letter inverting a CDF.  Each word is folded into
    per-cell counts, and its tail read from ``DictTails``."""
    jt = JointTypes(w, [probs])
    tails = jt.systems[0]
    cum_x = list(itertools.accumulate(probs))
    cum_w = [list(itertools.accumulate(row))[:-1] for row in w]
    value = union = 0.0
    for chunk, done in enumerate(range(0, trials, 4096)):
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk]))
        ux = rng.random((min(4096, trials - done), n))
        uy = rng.random(ux.shape)
        for urow, vrow in zip(ux.tolist(), uy.tolist()):
            i_val = 0.0
            counts = [0] * len(tails.atoms)
            xs = [min(bisect.bisect_right(cum_x, u), len(probs) - 1)
                  for u in urow]
            ys = [bisect.bisect_right(cum_w[x], v) for x, v in zip(xs, vrow)]
            for cell, cnt in Counter(zip(xs, ys)).items():
                _lp, (iv,), (slot,) = jt.cells[jt.cell_at[cell]]
                i_val += cnt * iv
                counts[slot] += cnt
            tail = tails.tail(counts, i_val)
            value += _error_from_tail(tail, num_messages)
            union += min(1.0, (num_messages - 1) * tail)
    return value / trials, union / trials


def bsc_rcu_two_binomial(delta, n, num_messages):
    """(exact RCU, union bound) of the BSC(delta < 1/2) with uniform
    inputs in the two-binomial form of Polyanskiy, Poor and Verdu (IEEE
    T-IT 2010, Thm 33), ties counted as errors: with j flips, a competitor
    at distance d <= j from the output scores at least as high, and d is
    Binomial(n, 1/2)."""
    delta = Fraction(delta)
    value = union = 0.0
    beat = Fraction(0)
    for j in range(n + 1):
        beat += Fraction(math.comb(n, j), 2 ** n)
        pj = float(math.comb(n, j) * delta ** j * (1 - delta) ** (n - j))
        value += pj * _error_from_tail(float(beat), num_messages)
        union += pj * min(1.0, (num_messages - 1) * float(beat))
    return value, min(union, 1.0)
