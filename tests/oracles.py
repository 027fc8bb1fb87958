"""Independent exact oracles used by the unit and acceptance tests.

Everything here is computed in rational or integer arithmetic with direct
sequence enumeration: no joint types, no convolutions, no shared code with
the implementations under test.  The two check-node oracles and the
row-by-row elimination share only ``fblbound.gfq`` field arithmetic with
production.  The Gallager-function
oracle is the one float routine: scalar loops over every input tuple.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from fblbound.gfq import field_from_order


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
