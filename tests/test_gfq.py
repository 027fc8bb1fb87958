import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fblbound import GuardError
from fblbound.gfq import (
    FieldSpec,
    GfMatrix,
    field_from_order,
    make_field,
    rank_and_nullspace,
)
from fblbound.simulator import sample_graph

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.fixture(scope="module")
def fields():
    return {q: field_from_order(q) for q in SMALL_ORDERS}


def test_make_field_basic():
    f = make_field(2, 2)
    assert (f.p, f.m, f.q) == (2, 2, 4)
    # x^2 + x + 1 in little-endian coefficients
    assert f.reduction_poly == (1, 1, 1)


def test_known_reduction_polys():
    assert make_field(2, 3).reduction_poly == (1, 1, 0, 1)  # x^3+x+1
    assert make_field(3, 2).reduction_poly == (1, 0, 1)  # x^2+1
    assert make_field(2, 4).reduction_poly == (1, 1, 0, 0, 1)  # x^4+x+1


def test_make_field_rejects_bad_args():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)
    with pytest.raises(ValueError, match="not prime"):
        make_field(1, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 9)


def test_field_from_order_rejects_non_prime_power():
    with pytest.raises(ValueError, match="6 is not a prime power"):
        field_from_order(6)
    with pytest.raises(ValueError, match="not a prime power"):
        field_from_order(12)
    with pytest.raises(ValueError):
        field_from_order(1)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q, fields):
    f = fields[q]
    els = list(range(q))
    for a, b in itertools.product(els, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in itertools.product(els, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_mul_matches_scalar_polynomial_route(q, fields):
    f = fields[q]
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f._mul_scalar(a, b)


def test_inv_of_zero_raises(fields):
    with pytest.raises(ZeroDivisionError):
        fields[4].inv(0)


def test_vectorized_ops_match_scalar(fields):
    f = fields[9]
    rng = np.random.default_rng(0)
    a = rng.integers(0, 9, size=50)
    b = rng.integers(0, 9, size=50)
    add_v = f.add(a, b)
    mul_v = f.mul(a, b)
    for i in range(50):
        assert add_v[i] == f.add(int(a[i]), int(b[i]))
        assert mul_v[i] == f.mul(int(a[i]), int(b[i]))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 625])
def test_add_and_neg_are_digitwise_mod_p(q):
    # q=625 has no addition table and takes the digit route
    f = field_from_order(q)
    a = np.arange(q)
    place = f.p ** np.arange(f.m)
    digits = (a[:, None] // place) % f.p
    want_add = ((digits[:, None, :] + digits[None, :, :]) % f.p) @ place
    assert np.array_equal(f.add(a[:, None], a[None, :]), want_add)
    assert np.array_equal(f.neg(a), ((-digits) % f.p) @ place)
    assert (f._add_t is None) == (q > 512)


def test_gf_matrix_validates_entries():
    f = make_field(2, 1)
    with pytest.raises(ValueError):
        GfMatrix(f, np.array([[0, 2]]))
    with pytest.raises(ValueError):
        GfMatrix(f, np.array([0, 1]))


def test_rank_and_nullspace_worked_example():
    f = field_from_order(2)
    h = GfMatrix(f, np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]]))
    rank, basis = rank_and_nullspace(h)
    # third row is the sum of the first two
    assert rank == 2
    assert basis.shape == (2, 4)
    for v in basis:
        assert np.all(h.mat_vec(v) == 0)


def test_rank_full_and_zero():
    f = field_from_order(3)
    eye = GfMatrix(f, np.eye(3, dtype=int))
    rank, basis = rank_and_nullspace(eye)
    assert rank == 3 and basis.shape == (0, 3)
    z = GfMatrix(f, np.zeros((2, 3), dtype=int))
    rank, basis = rank_and_nullspace(z)
    assert rank == 0 and basis.shape == (3, 3)


def _brute_force_nullspace_count(h: GfMatrix) -> int:
    f = h.field
    n = h.shape[1]
    count = 0
    for vec in itertools.product(range(f.q), repeat=n):
        if np.all(h.mat_vec(np.array(vec)) == 0):
            count += 1
    return count


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    rows=st.integers(1, 4),
    cols=st.integers(1, 6),
    data=st.data(),
)
def test_nullspace_matches_brute_force(q, rows, cols, data):
    f = field_from_order(q)
    entries = data.draw(
        st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols)
    )
    h = GfMatrix(f, np.array(entries).reshape(rows, cols))
    rank, basis = rank_and_nullspace(h)
    nullity = cols - rank
    assert basis.shape == (nullity, cols)
    for v in basis:
        assert np.all(h.mat_vec(v) == 0)
    # basis spans: q^nullity distinct combinations, all in the kernel
    assert _brute_force_nullspace_count(h) == f.q ** nullity
    if nullity > 0:
        span = set()
        for coeffs in itertools.product(range(f.q), repeat=nullity):
            vec = np.zeros(cols, dtype=np.int64)
            for c, bv in zip(coeffs, basis):
                vec = f.add(vec, f.mul(c, bv))
            span.add(tuple(int(x) for x in vec))
        assert len(span) == f.q ** nullity


@st.composite
def _matrices(draw):
    """Wide, tall and square matrices; about half are built with repeated
    rows, scaled rows and zero columns, so they are rank deficient."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 9))
    a = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    if draw(st.booleans()):
        f = field_from_order(q)
        for i in range(1, rows):
            src = draw(st.integers(0, i - 1))
            a[i] = f.mul(draw(st.integers(0, q - 1)), a[src])
        a[:, draw(st.integers(0, cols - 1))] = 0
    return GfMatrix(field_from_order(q), a)


@settings(max_examples=300, deadline=None)
@given(h=_matrices())
def test_rank_and_nullspace_equals_row_by_row_oracle(h):
    rank, basis = rank_and_nullspace(h)
    want_rank, want_basis = oracles.rank_and_nullspace_rows(h)
    assert rank == want_rank
    assert basis.dtype == want_basis.dtype
    assert np.array_equal(basis, want_basis)


def test_rank_and_nullspace_equals_oracle_on_sampled_check_matrices():
    for q, (n, dv, dc) in [(2, (24, 3, 6)), (3, (12, 2, 4)),
                           (4, (12, 3, 4)), (9, (8, 2, 4))]:
        f = field_from_order(q)
        for seed in range(20):
            h = sample_graph(n, dv, dc, f, seed).check_matrix()
            rank, basis = rank_and_nullspace(h)
            want_rank, want_basis = oracles.rank_and_nullspace_rows(h)
            assert rank == want_rank and np.array_equal(basis, want_basis)


@pytest.mark.parametrize("q", [2 ** 17, 1_000_000_007, 2 ** 61 - 1])
def test_field_order_guards_fail_fast(q):
    # 2^61 - 1 is prime: trial division alone would take ~1e9 steps
    with pytest.raises(GuardError, match="exceeds table limit"):
        field_from_order(q)


def test_larger_field_no_mul_table():
    f = make_field(5, 4)  # q=625 > 512, falls back to log/antilog route
    assert f._mul_t is None
    for a, b in [(7, 13), (624, 624), (0, 5), (1, 600)]:
        assert f.mul(a, b) == f._mul_scalar(a, b)
    assert f.mul(3, f.inv(3)) == 1
