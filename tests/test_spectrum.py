import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fblbound import spectrum as sp


LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# multinomials and symbol indices

def test_multinomial_known_values():
    assert math.exp(sp.multinomial_log(4, (2, 2))) == pytest.approx(6.0, abs=1e-9)
    assert sp.multinomial_log(7, (7, 0, 0)) == 0.0
    assert math.exp(sp.multinomial_log(6, (1, 2, 3))) == pytest.approx(60.0, abs=1e-9)
    assert sp.multinomial_exact(6, (1, 2, 3)) == 60


def test_multinomial_sum_mismatch():
    with pytest.raises(ValueError):
        sp.multinomial_log(5, (2, 2))
    with pytest.raises(ValueError):
        sp.multinomial_exact(4, (1, 1, 1))


def test_multinomial_large_n_uses_lgamma():
    # n=200 exceeds the exact-path cutoff; compare against lgamma by hand
    val = sp.multinomial_log(200, (120, 80))
    ref = math.lgamma(201) - math.lgamma(121) - math.lgamma(81)
    assert val == pytest.approx(ref, rel=1e-13)


@given(st.integers(2, 4), st.lists(st.integers(0, 8), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_multinomial_log_matches_exact(parts, counts):
    counts = tuple(counts[:parts]) + (0,) * max(0, parts - len(counts))
    n = sum(counts)
    if n == 0:
        counts = (1,) + counts[1:]
        n = sum(counts)
    assert sp.multinomial_log(n, counts) == pytest.approx(
        math.log(sp.multinomial_exact(n, counts)), rel=1e-12, abs=1e-12
    )


def test_compositions_total_count():
    # sum of multinomials over all compositions is parts^n
    n, parts = 6, 3
    total = sum(
        sp.multinomial_exact(n, t) for t in sp.type_compositions(n, parts)
    )
    assert total == parts ** n


def test_symbol_index_round_trip():
    q, k = 3, 2
    for idx in range(q ** k):
        c1, c2 = sp.symbol_components(idx, q, k)
        assert c1 * q + c2 == idx
    assert sp.symbol_components(5, 3, 2) == (1, 2)


# ---------------------------------------------------------------------------
# uniform ensemble exponent

def test_uniform_exponent_uniform_theta_is_kr():
    assert sp.uniform_spectrum_exponent([0.5, 0.5], 1, 0.5) == pytest.approx(0.5)
    th = [1.0 / 9.0] * 9
    assert sp.uniform_spectrum_exponent(th, 2, 0.3) == pytest.approx(0.6, abs=1e-12)


def test_uniform_exponent_degenerate_theta():
    assert sp.uniform_spectrum_exponent([1.0, 0.0], 1, 0.4) == pytest.approx(-0.6)


def test_uniform_exponent_matches_finite_formula():
    # (1/n) log_q of M^K B(n,t) q^{-nK} at M = q^{nR}, n = 200
    n, q, rate = 200, 2, 0.5
    t = (140, 60)
    th = np.array(t) / n
    finite = (n * rate * LN2 + sp.multinomial_log(n, t) - n * LN2) / (n * LN2)
    exact = sp.uniform_spectrum_exponent(th, 1, rate)
    # the multinomial sits below e^{nH}, so finite approaches from below
    assert -0.03 < finite - exact <= 1e-12


def test_uniform_exponent_bad_theta():
    with pytest.raises(ValueError):
        sp.uniform_spectrum_exponent([0.7, 0.7], 1, 0.5)
    with pytest.raises(ValueError):
        sp.uniform_spectrum_exponent([0.2, 0.3, 0.5], 2, 0.5)


# ---------------------------------------------------------------------------
# single-check enumerator

def test_check_polynomial_binary_pair():
    poly = sp.check_polynomial(2, 1, 2)
    assert poly.coeffs == {(2, 0): 1, (0, 2): 1}


def test_check_polynomial_mass_ternary():
    poly = sp.check_polynomial(3, 1, 2)
    assert poly.total_mass() == 12
    assert poly.expected_total_mass() == 12


def test_check_polynomial_zero_type_coefficient():
    for q, k, rho in [(2, 1, 3), (3, 1, 3), (4, 1, 2), (2, 2, 3)]:
        poly = sp.check_polynomial(q, k, rho)
        zero = tuple([rho] + [0] * (q ** k - 1))
        assert poly.coeffs[zero] == (q - 1) ** rho


def test_check_polynomial_degree_one():
    poly = sp.check_polynomial(3, 1, 1)
    assert poly.coeffs == {(1, 0, 0): 2}


def test_check_polynomial_routes_agree():
    for q, k, rho in [(3, 1, 3), (4, 1, 3), (2, 2, 3), (3, 2, 2), (4, 2, 4)]:
        coeffs = sp.check_polynomial(q, k, rho).coeffs
        assert coeffs == oracles.enumerate_check_poly(q, k, rho)
        assert coeffs == oracles.dp_check_poly(q, k, rho)
    # past the enumeration oracle's guard, only the edge DP checks these
    for q, k, rho in [(8, 1, 6), (3, 1, 40)]:
        coeffs = sp.check_polynomial(q, k, rho).coeffs
        assert coeffs == oracles.dp_check_poly(q, k, rho)


def test_check_polynomial_enumeration_guard():
    with pytest.raises(ValueError):
        oracles.enumerate_check_poly(2, 1, 60)
    # production stays exact past the oracle's guard
    poly = sp.check_polynomial(2, 1, 40)
    assert poly.total_mass() == poly.expected_total_mass()
    assert poly.coeffs == oracles.dp_check_poly(2, 1, 40)


def test_check_polynomial_scaling_symmetry():
    # relabeling the nonzero symbols by field scalings and automorphisms
    # permutes coefficients; for q=4, K=1 every permutation of the three
    # nonzero counts gives the same coefficient
    import itertools

    poly = sp.check_polynomial(4, 1, 3)
    for t, c in poly.coeffs.items():
        for perm in itertools.permutations(t[1:]):
            assert poly.coeffs.get((t[0],) + perm, 0) == c


def test_check_polynomial_user_swap_symmetry():
    # q=2, K=2: the check constraint is linear, so any linear bijection of
    # the composite alphabet fixing 0 permutes the three nonzero symbols
    import itertools

    poly = sp.check_polynomial(2, 2, 4)
    for t, c in poly.coeffs.items():
        for perm in itertools.permutations(t[1:]):
            assert poly.coeffs.get((t[0],) + perm, 0) == c


# ---------------------------------------------------------------------------
# asymptotic sparse-graph exponent

def test_ldpc_exponent_zero_type():
    assert sp.ldpc_spectrum_exponent([1.0, 0.0], 3, 6, 2, 1) == pytest.approx(
        0.0, abs=1e-9
    )


def test_ldpc_exponent_all_ones_parity():
    # the all-ones word satisfies every even-degree binary check, so the
    # degenerate composition on the nonzero symbol has exponent 0; with an
    # odd check degree it is unreachable
    assert sp.ldpc_spectrum_exponent([0.0, 1.0], 3, 6, 2, 1) == pytest.approx(
        0.0, abs=1e-9
    )
    assert sp.ldpc_spectrum_exponent([0.0, 1.0], 3, 3, 2, 1) == -math.inf


def test_ldpc_exponent_approaches_uniform_at_half_density():
    gaps = []
    for rho in (8, 16, 32):
        ldpc = sp.ldpc_spectrum_exponent([0.7, 0.3], rho // 2, rho, 2, 1)
        uni = sp.uniform_spectrum_exponent([0.7, 0.3], 1, 0.5)
        assert ldpc <= uni + 1e-3
        gaps.append(abs(uni - ldpc))
    assert gaps[1] <= gaps[0] + 1e-12
    assert gaps[2] <= gaps[1] + 1e-12
    assert gaps[2] < 1e-6
    # at the uniform composition the two ensembles agree exactly
    exact = sp.ldpc_spectrum_exponent([0.5, 0.5], 8, 16, 2, 1)
    assert exact == pytest.approx(0.5, abs=1e-8)


def test_ldpc_exponent_bad_theta():
    with pytest.raises(ValueError):
        sp.ldpc_spectrum_exponent([0.5, 0.5, 0.0], 3, 6, 2, 1)
    with pytest.raises(ValueError):
        sp.ldpc_spectrum_exponent([0.9, 0.2], 3, 6, 2, 1)


# ---------------------------------------------------------------------------
# finite-n spectrum

def test_finite_spectrum_zero_type_is_one():
    assert sp.ldpc_finite_spectrum(6, (6, 0), 3, 6, 2, 1) == 0.0
    assert sp.ldpc_finite_spectrum(12, (12, 0, 0, 0), 2, 4, 2, 2) == 0.0


def test_finite_spectrum_odd_weight_vanishes():
    # an even-degree binary check forces an even number of one-sockets in
    # total, so odd-weight types carry exactly zero ensemble mass
    assert sp.ldpc_finite_spectrum(6, (3, 3), 3, 6, 2, 1) == -math.inf


def test_finite_spectrum_against_sympy_power():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    # degree-6 binary check enumerator: even-weight binomials
    a = sum(math.comb(6, w) * x ** (6 - w) * y ** w for w in (0, 2, 4, 6))
    cubed = sympy.expand(a ** 3)
    for t in [(6, 0), (4, 2), (2, 4), (0, 6)]:
        coeff = int(cubed.coeff(x, 3 * t[0]).coeff(y, 3 * t[1]))
        expect = (
            math.log(sp.multinomial_exact(6, t) * coeff)
            - math.log(sp.multinomial_exact(18, (3 * t[0], 3 * t[1])))
        )
        got = sp.ldpc_finite_spectrum(6, t, 3, 6, 2, 1)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_finite_spectrum_fractional_checks_rejected():
    with pytest.raises(ValueError):
        sp.ldpc_finite_spectrum(5, (3, 2), 3, 6, 2, 1)


def test_finite_spectrum_total_mass_near_design_count():
    # sum over all types = ensemble-average codeword count; at least the
    # design count, and close to it when short loops are rare
    n = 12
    total = 0.0
    for t in sp.type_compositions(n, 2):
        v = sp.ldpc_finite_spectrum(n, t, 3, 6, 2, 1)
        if v > -math.inf:
            total += math.exp(v)
    design = 2.0 ** 6
    assert total >= design - 1e-6
    assert total <= design * 1.5


def test_finite_spectrum_converges_to_asymptotic():
    for th in [(0.5, 0.5), (0.75, 0.25)]:
        asym = sp.ldpc_spectrum_exponent(th, 3, 6, 2, 1)
        gaps = []
        for n in (24, 48):
            t = (round(th[0] * n), round(th[1] * n))
            fin = sp.ldpc_finite_spectrum(n, t, 3, 6, 2, 1) / (n * LN2)
            gaps.append(abs(fin - asym))
        assert gaps[1] < gaps[0]


def test_finite_spectrum_guard_falls_back_with_warning():
    # 4-symbol composite alphabet at n=168 needs a socket lattice beyond
    # the guard; the call degrades to the asymptotic value and warns
    with pytest.warns(RuntimeWarning):
        val = sp.ldpc_finite_spectrum(168, (42, 42, 42, 42), 3, 6, 2, 2)
    th = (0.25, 0.25, 0.25, 0.25)
    asym = 168 * LN2 * sp.ldpc_spectrum_exponent(th, 3, 6, 2, 2)
    assert val == pytest.approx(asym, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# tables, alpha, expurgation

def test_uniform_table_alpha_closed_form():
    for n, q, k, m in [(8, 2, 1, 16), (6, 3, 1, 9), (4, 2, 2, 4)]:
        tab = sp.uniform_spectrum_table(n, q, k, m)
        closed = m ** k / (m ** k - 1.0)
        assert math.exp(sp.alpha_log(tab, m)[0]) == pytest.approx(
            closed, abs=1e-12)


def test_uniform_table_zero_type_entry():
    tab = sp.uniform_spectrum_table(8, 2, 1, 16)
    expect = math.log(16) + 0.0 - 8 * LN2
    assert tab.log_value((8, 0)) == pytest.approx(expect, abs=1e-12)


def test_ldpc_table_zero_type_and_alpha_cross_check():
    n = 12
    tab = sp.ldpc_spectrum_table(n, 3, 6, 2, 1)
    assert tab.log_value((n, 0)) == 0.0
    assert tab.kind == "ldpc"
    # direct maximum over the 13 binary weight classes
    m = 2 ** 6
    best = -math.inf
    for w in range(1, n + 1):
        t = (n - w, w)
        v = tab.log_value(t)
        if v == -math.inf:
            continue
        ref = math.log(m - 1) + sp.multinomial_log(n, t) - n * LN2
        best = max(best, v - ref)
    direct = math.exp(best)
    assert math.exp(sp.alpha_log(tab, m)[0]) == pytest.approx(
        direct, rel=1e-12)


def test_alpha_exclusion_and_errors():
    n = 12
    tab = sp.ldpc_spectrum_table(n, 3, 6, 2, 1)
    m = 2 ** 6
    la_all, argmax = sp.alpha_log(tab, m)
    la_excl, _ = sp.alpha_log(tab, m, exclude=[argmax])
    assert la_excl <= la_all
    with pytest.raises(ValueError):
        sp.alpha_log(tab, m, exclude=list(tab.entries))


def test_table_missing_type_raises():
    tab = sp.uniform_spectrum_table(6, 2, 1, 4)
    with pytest.raises(KeyError):
        tab.log_value((5, 2))


def test_dense_table_guard():
    with pytest.raises(ValueError):
        sp.uniform_spectrum_table(400, 4, 2, 7)


def test_expurgation_band_and_doubling():
    n = 12
    tab = sp.ldpc_spectrum_table(n, 3, 6, 2, 1)
    ex = sp.expurgate_spectrum(tab, 0.25)
    assert ex.kind == "ldpc-expurgated"
    assert ex.is_upper_bound
    assert ex.log_value((n, 0)) == 0.0
    # weight 2 and the floor(sigma n) = 3 class sit inside the band
    assert ex.log_value((n - 2, 2)) == -math.inf
    assert ex.log_value((n - 3, 3)) == -math.inf
    for w in range(4, n + 1):
        t = (n - w, w)
        base = tab.log_value(t)
        if base == -math.inf:
            assert ex.log_value(t) == -math.inf
        else:
            assert ex.log_value(t) == pytest.approx(base + LN2, abs=1e-12)


def test_expurgation_preconditions():
    n = 8
    tab = sp.ldpc_spectrum_table(n, 2, 4, 2, 1)
    with pytest.raises(ValueError):
        sp.expurgate_spectrum(tab, 0.2)  # variable degree 2
    tab3 = sp.ldpc_spectrum_table(8, 3, 6, 2, 1)
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            sp.expurgate_spectrum(tab3, bad)


# ---------------------------------------------------------------------------
# rate offset and concentration

def test_geometric_contraction_values():
    assert sp.geometric_contraction(2, 1) == pytest.approx(1.0)
    assert sp.geometric_contraction(3, 1) == pytest.approx(1.0)
    assert sp.geometric_contraction(4, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sp.geometric_contraction(9, 1) == pytest.approx(
        math.sqrt(7.0) / 4.0, abs=1e-12
    )
    # composite alphabets contract strictly even for prime q: here the
    # nonorthogonal fraction is 2/3 and tau = -1, so psi = 1/3
    assert sp.geometric_contraction(2, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rate_offset_first_term_exact():
    d = sp.rate_offset_decomposition(100, 3, 30, 0.1, 2, 1)
    assert d.expurgation_term == LN2 / 100
    assert d.units == "nats"
    assert d.design_rate == pytest.approx(0.9)
    assert d.num_checks == 10


def test_rate_offset_geometric_term_decreases_in_check_degree():
    vals = []
    for rho in (20, 25, 50):
        d = sp.rate_offset_decomposition(100, 3, rho, 0.1, 2, 1)
        vals.append(d.geometric_term)
    assert vals[0] > vals[1] > vals[2]


def test_rate_offset_total_scaling():
    # total * n / ln n stays bounded as n grows at fixed check density
    ratios = []
    for n in (100, 200):
        d = sp.rate_offset_decomposition(n, 3, 3 * n // 10, 0.1, 2, 1)
        assert d.finite_spectrum_term >= -1e-9
        assert d.stirling_term > 0
        assert d.total > 0
        ratios.append(d.total * n / math.log(n))
    assert all(r < 2.5 for r in ratios)
    assert ratios[1] <= ratios[0]


def test_rate_offset_argmaxes_reported():
    d = sp.rate_offset_decomposition(100, 3, 30, 0.1, 2, 1)
    assert d.argmax_stirling is not None
    assert sum(d.argmax_stirling) == 100
    assert 0.0 <= d.argmax_geometric <= 0.9 + 1e-12


def test_rate_offset_preconditions():
    with pytest.raises(ValueError):
        sp.rate_offset_decomposition(100, 2, 30, 0.1, 2, 1)
    with pytest.raises(ValueError):
        sp.rate_offset_decomposition(100, 3, 7, 0.1, 2, 1)
    with pytest.raises(ValueError):
        sp.rate_offset_decomposition(100, 3, 30, 1.2, 2, 1)


def test_rate_concentration_values():
    n, q = 64, 2
    eps = 2.0 * math.log(n) / (math.log(q) * n)
    assert sp.rate_concentration(n, eps, q) == pytest.approx(1.0 / n,
                                                             rel=1e-12)
    # bound decreasing in n at fixed epsilon
    tails = [sp.rate_concentration(m, 0.05, 2) for m in (16, 32, 64)]
    assert tails[0] > tails[1] > tails[2]
    with pytest.raises(ValueError):
        sp.rate_concentration(16, 0.0, 2)
