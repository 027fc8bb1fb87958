"""Finite-field arithmetic over GF(p^m) with vectorized numpy kernels.

Elements of GF(p^m) are represented as integers in ``[0, q)``; the base-p
digits of an element (little-endian) are the coefficients of its polynomial
representative, so addition is digitwise mod p and multiplication is
polynomial multiplication modulo a fixed reduction polynomial.

The reduction polynomial is chosen deterministically: among all monic degree-m
polynomials ``x^m + c_{m-1} x^{m-1} + ... + c_0`` over GF(p), the one whose
lower-coefficient vector ``(c_0, ..., c_{m-1})`` encodes the smallest base-p
integer ``sum_i c_i p^i`` and is irreducible.  Irreducibility is verified by
exhaustive trial division by every monic polynomial of degree 1..m//2.
Examples: GF(4) uses x^2+x+1, GF(8) uses x^3+x+1, GF(9) uses x^2+1,
GF(16) uses x^4+x+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import GuardError

_MAX_EXT_DEGREE = 8
_MAX_TABLE_Q = 1 << 16
# exhaustive trial division is only honest if we can afford to enumerate all
# candidate divisors; beyond this the field order is rejected outright (no
# field within _MAX_TABLE_Q comes near it)
_MAX_TRIAL_DIVISORS = 2_000_000


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p)[x]; polys are little-endian lists."""
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * inv_lead) % p
        for j, dj in enumerate(den):
            num[i - dn + j] = (num[i - dn + j] - f * dj) % p
    r = num[:dn]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


def _poly_is_zero(poly: list[int]) -> bool:
    return all(c == 0 for c in poly)


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _find_reduction_poly(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    n_divisors = sum(p ** d for d in range(1, m // 2 + 1))
    if n_divisors > _MAX_TRIAL_DIVISORS:
        raise GuardError(
            f"cannot exhaustively certify irreducibility for p={p}, m={m}: "
            f"{n_divisors} trial divisors exceeds {_MAX_TRIAL_DIVISORS}"
        )
    for low in range(p ** m):
        cand = _digits(low, p, m) + [1]
        if cand[0] == 0:
            continue  # divisible by x
        reducible = False
        for d in range(1, m // 2 + 1):
            for dlow in range(p ** d):
                div = _digits(dlow, p, d) + [1]
                if _poly_is_zero(_poly_mod(cand, div, p)):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial found for p={p}, m={m}")


@dataclass
class FieldSpec:
    """A finite field GF(q) = GF(p^m) with precomputed arithmetic tables.

    Attributes
    ----------
    p, m, q:
        Characteristic, extension degree, and order q = p^m.
    reduction_poly:
        Monic reduction polynomial as little-endian coefficients (length m+1).
    symbol_dtype:
        Smallest unsigned dtype that holds q - 1 (uint8 for q <= 256): the
        dtype of symbol arrays such as codewords.
    """

    p: int
    m: int
    q: int
    reduction_poly: tuple[int, ...]
    _exp: np.ndarray = field(repr=False, default=None)
    _log: np.ndarray = field(repr=False, default=None)
    _digit: np.ndarray = field(repr=False, default=None)
    _mul_t: np.ndarray = field(repr=False, default=None)
    _inv_t: np.ndarray = field(repr=False, default=None)
    _add_t: np.ndarray = field(repr=False, default=None)
    _neg_t: np.ndarray = field(repr=False, default=None)
    symbol_dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q, p, m = self.q, self.p, self.m
        self.symbol_dtype = np.min_scalar_type(q - 1)
        digit = np.zeros((q, m), dtype=np.int64)
        r = np.arange(q)
        for i in range(m):
            digit[:, i] = r % p
            r = r // p
        self._digit = digit
        self._build_log_tables()
        self._neg_t = self._from_digits((-digit) % p)
        if q <= 512:
            a = np.arange(q)
            self._mul_t = self._mul_general(a[:, None], a[None, :])
            self._add_t = self._from_digits(
                (digit[:, None, :] + digit[None, :, :]) % p)
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = self._exp[(q - 1 - self._log[1:]) % (q - 1)]
        self._inv_t = inv

    def _mul_scalar(self, a: int, b: int) -> int:
        """Schoolbook polynomial product mod the reduction polynomial."""
        p, m = self.p, self.m
        da = _digits(a, p, m)
        db = _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai == 0:
                continue
            for j, bj in enumerate(db):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        rem = _poly_mod(prod, list(self.reduction_poly), p)
        val = 0
        for c in reversed(rem):
            val = val * p + c
        return val

    def _build_log_tables(self):
        """exp[k] = g^k for the smallest g >= 2 (1 when q = 2) whose powers
        g^0..g^(q-2) never return to 1, a primitive element; log inverts
        exp, -1 at 0."""
        q = self.q
        for g in range(min(2, q - 1), q):
            exp = [1]
            for _ in range(q - 2):
                exp.append(self._mul_scalar(exp[-1], g))
                if exp[-1] == 1:
                    break
            else:
                break
        else:
            raise RuntimeError(f"no primitive element found for q={q}")
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.full(q, -1, dtype=np.int64)
        self._log[self._exp] = np.arange(q - 1)

    # -- vectorized arithmetic ------------------------------------------------

    def _from_digits(self, d):
        """Field elements from base-p digits along the last axis
        (little-endian)."""
        out = d[..., -1]
        for i in range(self.m - 2, -1, -1):
            out = out * self.p + d[..., i]
        return out

    def add(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._add_t is not None:
            return self._add_t[a, b]
        return self._from_digits((self._digit[a] + self._digit[b]) % self.p)

    def neg(self, a):
        return self._neg_t[np.asarray(a, dtype=np.int64)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_general(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        la = self._log[np.where(nz, a, 1)]
        lb = self._log[np.where(nz, b, 1)]
        prod = self._exp[(la + lb) % (self.q - 1)]
        return np.where(nz, prod, 0)

    def mul(self, a, b):
        if self._mul_t is not None:
            a = np.asarray(a, dtype=np.int64)
            b = np.asarray(b, dtype=np.int64)
            return self._mul_t[a, b]
        return self._mul_general(a, b)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._inv_t[a]


def make_field(p: int, m: int) -> FieldSpec:
    """Construct GF(p^m).

    Parameters
    ----------
    p:
        Prime characteristic.
    m:
        Extension degree, 1 <= m <= 8.
    """
    if not isinstance(p, int) or not isinstance(m, int):
        raise ValueError(f"p and m must be integers, got p={p!r}, m={m!r}")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not 1 <= m <= _MAX_EXT_DEGREE:
        raise ValueError(f"extension degree m={m} outside [1, {_MAX_EXT_DEGREE}]")
    q = p ** m
    if q > _MAX_TABLE_Q:
        raise GuardError(f"q={q} exceeds table limit {_MAX_TABLE_Q}")
    return FieldSpec(p=p, m=m, q=q, reduction_poly=_find_reduction_poly(p, m))


def field_from_order(q: int) -> FieldSpec:
    """Construct GF(q) from its order, factoring q = p^m.

    Orders above the table limit are rejected before any factoring."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    if q > _MAX_TABLE_Q:
        raise GuardError(f"q={q} exceeds table limit {_MAX_TABLE_Q}")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    m = 0
    r = q
    while r % p == 0 and r > 1:
        r //= p
        m += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, m)


@dataclass
class GfMatrix:
    """A dense matrix over a finite field, entries as integers in [0, q).

    With ``blocks`` > 1, ``data`` stacks that many matrices of equal height,
    one above the next; ``mat_vec`` then multiplies each of them."""

    field: FieldSpec
    data: np.ndarray
    blocks: int = 1

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int64)
        if self.data.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {self.data.shape}")
        if np.any(self.data < 0) or np.any(self.data >= self.field.q):
            raise ValueError("matrix entries outside [0, q)")
        if self.blocks < 1 or self.data.shape[0] % self.blocks:
            raise ValueError(f"{self.blocks} blocks do not split the rows")

    @property
    def shape(self):
        return self.data.shape

    def mat_vec(self, v: Sequence[int]) -> np.ndarray:
        """Matrix-vector product over the field."""
        v = np.asarray(v, dtype=np.int64)
        prods = self.field.mul(self.data, v[None, :])
        out = np.zeros(self.data.shape[0], dtype=np.int64)
        for j in range(self.data.shape[1]):
            out = self.field.add(out, prods[:, j])
        return out


def rank_and_nullspace(mat: GfMatrix):
    """Row-reduce each matrix of the stack ``mat``; return (rank, basis).

    The ``mat.blocks`` matrices are reduced in one pass over the columns,
    a few numpy calls per column for the whole stack.  Each keeps its own
    row pointer, with a mask of the open rows at or below it, and pivots
    on its first open row with a nonzero entry in the column, which makes
    its reduced form, and hence its basis, deterministic; a pivot clears
    its column only in the rows where the column is nonzero, so each
    reduced form is the one a row-by-row elimination reaches.  Over GF(2)
    a pivot row needs no scaling, and the pass stops once every block has
    a pivot in each row.  (Row steps would be 43% faster on stacks of
    n = 12 matrices but are 1.3-3.5x slower from n = 600 and over GF(4)
    at n = 200.)

    A single matrix gives its rank and a (cols - rank, cols) array whose
    rows span the right nullspace (``mat.mat_vec(row) == 0``); a stack
    gives an array of ranks and a (blocks, cols - min(rank), cols) array
    whose block b holds its cols - rank[b] basis rows, then zero rows."""
    f = mat.field
    cols = mat.data.shape[1]
    a = mat.data.reshape(mat.blocks, -1, cols).astype(
        np.uint8 if f.q == 2 else np.int64)
    stack, rows = a.shape[:2]
    rank = np.zeros(stack, dtype=np.int64)  # also each block's pivot row
    is_pivot = np.zeros((stack, cols), dtype=bool)
    open_rows = np.ones((stack, rows), dtype=bool)  # at or below rank
    done = 0  # blocks whose every row holds a pivot
    for c in range(cols):
        below = (a[:, :, c] != 0) & open_rows
        b = np.flatnonzero(below.any(axis=1))
        if b.size == 0:
            continue
        r, src = rank[b], below[b].argmax(axis=1)
        top = a[b, src]
        a[b, src] = a[b, r]
        if f.q != 2:  # a GF(2) pivot is 1 already
            top = f.mul(top, f.inv(top[:, c])[:, None])
        a[b, r] = top
        hit = a[b, :, c] != 0
        hit[np.arange(b.size), r] = False
        hb, hr = np.nonzero(hit)
        # rows at or below a pivot row are zero left of its column
        bb, piv = b[hb], top[hb, c:]
        if f.q == 2:
            a[bb, hr, c:] ^= piv
        else:
            a[bb, hr, c:] = f.sub(a[bb, hr, c:],
                                  f.mul(a[bb, hr, c][:, None], piv))
        is_pivot[b, c] = True
        open_rows[b, r] = False
        rank[b] = r + 1
        done += np.count_nonzero(r == rows - 1)
        if done == stack:
            break
    # basis row s of a block belongs to its s-th free column; the rows
    # past its nullity take pivot columns here and are zeroed below
    k = int((cols - rank).max())
    free = np.argsort(is_pivot, axis=1, kind="stable")[:, :k]
    basis = np.zeros((stack, k, cols), dtype=np.int64)
    basis[np.arange(stack)[:, None], np.arange(k), free] = 1
    pb, pc = np.nonzero(is_pivot)  # block b's i-th pivot column is row i's
    pr = np.arange(pb.size) - np.repeat(np.cumsum(rank) - rank, rank)
    basis[pb[:, None], np.arange(k), pc[:, None]] = f._neg_t[
        a[pb[:, None], pr[:, None], free[pb]]]
    basis[np.arange(k) >= cols - rank[:, None]] = 0
    return (int(rank[0]), basis[0]) if mat.blocks == 1 else (rank, basis)
