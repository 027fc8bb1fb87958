import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import binary_adder_mac, uniform_spectrum_table
from fblbound import GuardError
from fblbound import spectrum as sp
from fblbound.channel import InputPmf, bsc, make_quantizer
from fblbound.exponent import expurgated_bound
from fblbound.fbl import ldpc_rcu_mac, ldpc_rcu_ppc
from fblbound.gfq import field_from_order
from fblbound.simulator import (TannerGraph, actual_rate_stats,
                                empirical_spectrum, sample_graph,
                                simulate_error)
from fblbound.cli import cmd_spectrum


LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# multinomials and symbol indices

def _log_multinomial(n, t):
    return sp._log_multinomials(n, np.array([t], dtype=np.int64))[0]


def test_multinomial_known_values():
    assert math.exp(_log_multinomial(4, (2, 2))) == pytest.approx(6.0, abs=1e-9)
    assert _log_multinomial(7, (7, 0, 0)) == 0.0
    assert math.exp(_log_multinomial(6, (1, 2, 3))) == pytest.approx(60.0, abs=1e-9)
    assert sp._multinomials(np.array([(1, 2, 3)])).tolist() == [60]


def test_multinomial_sum_mismatch():
    # a type that does not sum to n is refused before any multinomial
    with pytest.raises(ValueError, match="type sums to 4, expected 5"):
        sp._type_rows(5, [(2, 2)], 2)
    tab = uniform_spectrum_table(4, 2, 1, 4)
    tab.entries[(2, 3)] = 0.0
    with pytest.raises(ValueError, match="type sums to 5, expected 4"):
        sp.alpha_log(tab, 4)
    with pytest.raises(ValueError):
        oracles.multinomial(4, (1, 1, 1))


def test_multinomial_large_n_uses_lgamma():
    # n=200 exceeds the exact-path cutoff; compare against lgamma by hand
    val = _log_multinomial(200, (120, 80))
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
    assert _log_multinomial(n, counts) == pytest.approx(
        math.log(oracles.multinomial(n, counts)), rel=1e-12, abs=1e-12
    )


def test_compositions_total_count():
    # sum of multinomials over all compositions is parts^n
    n, parts = 6, 3
    rows = sp._compositions(n, parts).astype(np.int64)
    assert sp._multinomials(rows).sum() == parts ** n


def test_compositions_match_the_generator_row_for_row():
    for n in range(13):
        for parts in range(1, 6):
            rows = sp._compositions(n, parts)
            assert list(map(tuple, rows.tolist())) == list(
                oracles.type_compositions(n, parts))
            assert len(rows) == sp._num_compositions(n, parts)
            assert rows.dtype == np.min_scalar_type(n)


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
    finite = (n * rate * LN2 + oracles.multinomial_log(n, t) - n * LN2) / (n * LN2)
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


# (q, K, lam, rho): the callers' ensembles, odd check degrees whose
# all-ones targets are unreachable, and the (2,1,3,240) lattice of the
# rate-offset sweeps
EXPONENT_GRID = [
    (4, 1, 3, 6), (2, 2, 3, 6), (2, 1, 3, 6), (3, 1, 3, 6), (2, 1, 4, 5),
    (2, 1, 3, 240), (2, 1, 3, 3), (2, 1, 2, 4), (4, 1, 2, 4), (2, 2, 2, 4),
    (3, 1, 2, 3), (2, 1, 3, 18),
]


def _exponent_thetas(q, k, rho):
    """Equal-split curves over the zero share, random thetas with zeros,
    for one binary user the half-lattice points j/(2 rho): (4,5) reaches
    the hull face at theta = (0.2, 0.8) and leaves the hull at (0.1, 0.9);
    and for one ternary user the skewed type (1, 16, 1)/18, where every
    damped Newton step near the minimum fails to lower the objective in
    floating point."""
    qk = q ** k
    out = [np.r_[t0, np.full(qk - 1, (1.0 - t0) / (qk - 1))]
           for t0 in np.linspace(0.0, 1.0, 11)]
    rng = np.random.default_rng(rho * qk)
    for _ in range(8):
        th = rng.dirichlet(np.ones(qk)) * (rng.random(qk) >= 0.3)
        out.append(th / th.sum() if th.any() else np.eye(qk)[0])
    if qk == 2:
        steps = np.arange(0, 2 * rho + 1, max(1, rho // 10))
        out += [np.array([1.0 - w, w]) for w in steps / (2 * rho)]
    if qk == 3:
        out.append(np.array([1.0, 16.0, 1.0]) / 18)
    return out


def _assert_same_exponents(got, want):
    for g, w in zip(got, want, strict=True):
        if w == -math.inf:
            assert g == -math.inf
        else:
            assert g == pytest.approx(w, rel=1e-9)


@pytest.mark.parametrize("q,k,lam,rho", EXPONENT_GRID)
def test_ldpc_exponent_matches_restart_oracle(monkeypatch, q, k, lam, rho):
    thetas = _exponent_thetas(q, k, rho)
    got = [sp.ldpc_spectrum_exponent(th, lam, rho, q, k) for th in thetas]
    monkeypatch.setattr(sp, "_minimize_lse_affine",
                        oracles.minimize_lse_affine_restarts)
    want = [sp.ldpc_spectrum_exponent(th, lam, rho, q, k) for th in thetas]
    _assert_same_exponents(got, want)


def test_ldpc_exponent_hull_face_and_outside():
    face = sp.ldpc_spectrum_exponent([0.2, 0.8], 4, 5, 2, 1)
    assert math.isfinite(face)
    assert sp.ldpc_spectrum_exponent([0.1, 0.9], 4, 5, 2, 1) == -math.inf


@pytest.mark.parametrize("args", [
    (36, 3, 18, 0.1, 2, 1), (24, 3, 6, 0.1, 2, 1), (12, 3, 6, 0.1, 2, 2),
    (100, 3, 30, 0.1, 2, 1), (18, 3, 6, 0.1, 3, 1),
])
def test_rate_offset_infima_match_restart_oracle(monkeypatch, args):
    calls = []
    newton = sp._minimize_lse_affine

    def record(*problem):
        calls.append(problem)
        return newton(*problem)

    monkeypatch.setattr(sp, "_minimize_lse_affine", record)
    sp.rate_offset_decomposition(*args)
    assert calls
    _assert_same_exponents(
        [newton(*c) for c in calls],
        [oracles.minimize_lse_affine_restarts(*c) for c in calls])


def test_lse_newton_refuses_to_stop_short():
    # a target outside the hull with no floor to stop at runs the Newton
    # loop to its cap, which raises instead of returning where it stopped
    with pytest.raises(ArithmeticError, match="60 Newton steps"):
        sp._minimize_lse_affine(np.zeros(2), np.array([[0.0], [1.0]]),
                                np.array([1.5]), 1.0, -math.inf)


def test_lse_newton_stops_where_the_objective_stops_moving(monkeypatch):
    # q = 4, rho = 6 at theta = (0, 32, 2, 2)/36: past step 4 no step moves
    # the objective in floating point while the gradient norm stays near
    # 1.8e-8, above the 6e-10 goal; the Newton decrement, 3.6e-16, puts
    # it within rounding of the minimum, where the restart oracle agrees
    theta = np.array([0, 32, 2, 2]) / 36
    got = sp.ldpc_spectrum_exponent(theta, 3, 6, 4, 1)
    assert math.isfinite(got)
    monkeypatch.setattr(sp, "_minimize_lse_affine",
                        oracles.minimize_lse_affine_restarts)
    want = sp.ldpc_spectrum_exponent(theta, 3, 6, 4, 1)
    _assert_same_exponents([got], [want])


def test_rate_offset_quaternary_n36_returns():
    # its walk solves the type above; before the decrement stop it raised
    # ArithmeticError ("no stationary point in 60 Newton steps")
    d = sp.rate_offset_decomposition(36, 3, 6, 0.1, 4, 1)
    assert all(math.isfinite(v) for v in (
        d.finite_spectrum_term, d.geometric_term, d.stirling_term, d.total))
    assert sum(d.argmax_finite_spectrum) == sum(d.argmax_stirling) == 36


# ---------------------------------------------------------------------------
# finite-n spectrum

def _finite(n, t, lam, rho, q, k):
    """The entry of one type t, as a table of that type alone reads it."""
    return sp.ldpc_spectrum_table(n, lam, rho, q, k, types=[t]).log_value(t)


def test_finite_spectrum_zero_type_is_one():
    assert _finite(6, (6, 0), 3, 6, 2, 1) == 0.0
    assert _finite(12, (12, 0, 0, 0), 2, 4, 2, 2) == 0.0


def test_finite_spectrum_odd_weight_vanishes():
    # an even-degree binary check forces an even number of one-sockets in
    # total, so odd-weight types carry exactly zero ensemble mass
    assert _finite(6, (3, 3), 3, 6, 2, 1) == -math.inf


def test_finite_spectrum_against_sympy_power():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    # degree-6 binary check enumerator: even-weight binomials
    a = sum(math.comb(6, w) * x ** (6 - w) * y ** w for w in (0, 2, 4, 6))
    cubed = sympy.expand(a ** 3)
    for t in [(6, 0), (4, 2), (2, 4), (0, 6)]:
        coeff = int(cubed.coeff(x, 3 * t[0]).coeff(y, 3 * t[1]))
        expect = (
            math.log(oracles.multinomial(6, t) * coeff)
            - math.log(oracles.multinomial(18, (3 * t[0], 3 * t[1])))
        )
        got = _finite(6, t, 3, 6, 2, 1)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_finite_spectrum_fractional_checks_rejected():
    with pytest.raises(ValueError):
        _finite(5, (3, 2), 3, 6, 2, 1)


def test_finite_spectrum_total_mass_near_design_count():
    # sum over all types = ensemble-average codeword count; at least the
    # design count, and close to it when short loops are rare
    n = 12
    total = 0.0
    for t in sp._compositions(n, 2):
        v = _finite(n, t, 3, 6, 2, 1)
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
            fin = _finite(n, t, 3, 6, 2, 1) / (n * LN2)
            gaps.append(abs(fin - asym))
        assert gaps[1] < gaps[0]


def test_finite_spectrum_gap_at_an_interior_type_is_logn_over_n():
    # the rate-offset maxima sit at the all-ones corner, where both
    # spectra vanish; at theta0 = 1/2 the finite count sits below the
    # exponent by about 0.4 ln(n)/n, so an exponent off by 1e-3 nats fails
    # at n = 480 (n gap / ln n would move by 0.08)
    asym = sp.ldpc_spectrum_exponent((0.5, 0.5), 3, 6, 2, 1) * LN2
    gaps = []
    for n in (60, 120, 240, 480):
        ln_count = _finite(n, (n // 2, n // 2), 3, 6, 2, 1)
        gap = ln_count / n - asym
        assert gap < 0
        assert -0.45 <= n * gap / math.log(n) <= -0.35
        gaps.append(abs(gap))
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == 4


@pytest.mark.parametrize("n,want", [
    # recorded when every q = 4 table powered all three nonzero symbols
    (24, "8965454f220e39484ac85a84161b5431399b79f5357455bcadb494e6abc9cabb"),
    (32, "5f4c108227b5f268e6750b5cdcffc3970aa5217207169447dd8de2d8ee886d51"),
])
def test_quaternary_alpha_tables_pinned(n, want):
    text = json.dumps(cmd_spectrum(4, 1, 3, 6, n, want_alpha=True),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_two_user_binary_alpha_table_at_n40_pinned():
    # recorded before the power kept only its two parity classes; the
    # (0,0,0) and (1,1,1) classes hold a quarter of the dense box
    text = json.dumps(cmd_spectrum(2, 2, 3, 6, 40, want_alpha=True),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b186260150d247043ddce1193db7c14d67a39653b5e0625e387091af9d98a07f")


def test_quaternary_alpha_table_at_n48():
    # past the residue-entry guard while all three nonzero symbols were
    # powered (a 145^3 box per prime); one orbit powers a 145-entry line
    payload = cmd_spectrum(4, 1, 3, 6, 48, want_alpha=True)
    assert len(payload["entries"]) == sp._num_compositions(48, 4)
    assert payload["entries"]["48,0,0,0"] == 0.0
    assert math.isfinite(payload["alpha"]["log_alpha"])
    assert math.isfinite(payload["alpha"]["alpha"])


def test_finite_spectrum_guard_raises_guard_error():
    # 4-symbol composite alphabet at n=168: the residue powering needs a
    # 505^3 box per prime, far past the guard; no asymptotic stand-in
    with pytest.raises(GuardError, match="residue-entry lattice guard"):
        _finite(168, (42, 42, 42, 42), 3, 6, 2, 2)


# (q, K, rho, checks): every q, K and rho of the grid at the most checks
# whose dense box stays small, P(1)^20 = 2^100 for four primes and
# reductions between the steps, and the orbit reductions of q = 8 (seven
# symbols, one orbit) and of q = 4, K = 2 (fifteen symbols, five orbits)
POWER_GRID = [
    (q, k, rho, r)
    for q in (2, 3, 4) for rho in (3, 4, 6) for r in (1, 2, 3)
    for k in (1, 2)
    if k == 1 or q == 2
] + [(3, 2, 3, 1), (3, 2, 3, 2), (3, 2, 4, 1), (3, 2, 6, 1), (2, 1, 6, 20),
     (8, 1, 3, 1), (8, 1, 3, 2), (8, 1, 4, 1), (8, 1, 4, 2), (8, 1, 6, 1),
     (4, 2, 3, 1), (4, 2, 3, 2),
     # two parity classes with odd rho, and 16 of 128 for three users
     (2, 2, 5, 4), (2, 2, 6, 4), (2, 3, 3, 2), (2, 3, 4, 2)]


@pytest.mark.parametrize("q,k,rho,r", POWER_GRID)
def test_poly_power_matches_dict_oracle(q, k, rho, r):
    want = oracles.poly_power_dict(sp.check_polynomial(q, k, rho).coeffs, r)
    orbits = sp._orbits(q, k)
    # a spectrum reads lam*t with t summing to n, so lam divides rho*r
    for lam in [lam for lam in (1, 2, 3) if rho * r % lam == 0]:
        lattice = sp._poly_power(q, k, rho, r, lam)
        # the orbit-reduced power at the points lam*u, keyed by all the
        # orbit counts; nothing past the zero orbit's share
        power = {(rho * r - lam * sum(u),) + tuple(lam * x for x in u): c
                 for u, c in np.ndenumerate(lattice) if c}
        assert all(u[0] >= 0 for u in power)
        # every socket type lam*t, read back from the orbit-reduced power
        got = {t: oracles.power_coeff(power, t, orbits)
               for t in (tuple(lam * x for x in row) for row in
                         sp._compositions(rho * r // lam, q ** k).tolist())}
        assert {t: c for t, c in got.items() if c} == {
            t: c for t, c in want.items() if all(x % lam == 0 for x in t)}
        assert all(type(c) is int for c in got.values())
        assert all(type(c) is int for c in lattice.flat)


@pytest.mark.parametrize("rho", [3, 4, 5, 6])
def test_parity_classes_of_the_check_enumerators(rho):
    def classes(q, k):
        poly = sp.check_polynomial(q, k, rho)
        return sp._parity_classes(sp._orbit_poly(poly))
    assert classes(2, 1) == (2, [(0,)])
    assert classes(2, 2) == (2, [(0, 0, 0), (1, 1, 1)])
    # three users: the classes of even parity per user, 16 of 128
    step, members = classes(2, 3)
    assert step == 2 and len(members) == 16
    assert members == [h for h in itertools.product((0, 1), repeat=7)
                       if all(sum(x for g, x in enumerate(h, 1) if g >> b & 1)
                              % 2 == 0 for b in range(3))]
    # q > 2 has odd orbit counts: one class, the dense box
    for q in (3, 4, 8):
        assert classes(q, 1) == (1, [(0,)])
    assert classes(3, 2) == (1, [(0,) * 4])


def test_orbits_partition_the_symbols_under_scaling():
    assert sp._orbits(2, 2) == ((0,), (1,), (2,), (3,))
    assert sp._orbits(4, 1) == ((0,), (1, 2, 3))
    # GF(3)^2, user 1 most significant: 2 * (0, 1) = (0, 2), ...
    assert sp._orbits(3, 2) == ((0,), (1, 2), (3, 6), (4, 8), (5, 7))
    orbits = sp._orbits(4, 2)
    assert len(orbits) == 1 + (16 - 1) // 3
    assert sorted(g for o in orbits for g in o) == list(range(16))
    assert all(len(o) == 3 for o in orbits[1:])


def test_poly_power_guard_checks_before_allocating():
    # q=4, K=2: the 5 nonzero orbit counts of 8 degree-3 checks need a
    # 25^5-entry box per prime, and 3 primes: 29,296,875 residue entries
    assert sp._poly_power(4, 2, 3, 8, 1) is None


def test_orbit_reduction_refuses_a_map_that_is_not_orbit_invariant(
        monkeypatch):
    # GF(3): the orbit counts (0, 2) hold (0, 2, 0), (0, 1, 1) and
    # (0, 0, 2), whose coefficients must sum to a multiple of 2^2
    fake = sp.CheckPolynomial(3, 1, 2, {(2, 0, 0): 1, (0, 2, 0): 1,
                                        (0, 1, 1): 2})
    monkeypatch.setattr(sp, "_cached_check_poly", lambda *a: fake)
    with pytest.raises(ArithmeticError, match="orbit sizes"):
        sp._poly_power.__wrapped__(3, 1, 2, 1, 1)


def test_poly_power_mass_check_raises(monkeypatch):
    real = sp._residue_power
    monkeypatch.setattr(sp, "_residue_power", lambda *a: real(*a) + 1)
    with pytest.raises(ArithmeticError, match="residues of P"):
        sp._poly_power(2, 1, 6, 7, 3)


def test_residue_primes_are_prime_and_cover_the_bound():
    primes = sp._residue_primes(1 << 200)
    assert all(p < 1 << 28 and p % 2 for p in primes)
    # trial division, independent of the Miller-Rabin test
    assert all(p % d for p in primes for d in range(3, math.isqrt(p) + 1, 2))
    assert math.prod(primes) > 1 << 200
    assert math.prod(primes[:-1]) <= 1 << 200
    assert primes == sorted(set(primes), reverse=True)


# (q, K, lam, rho, n): every q and K whose check enumerator and power fit,
# at lam = 2 and 3; the binary tables hold -inf entries (odd weights),
# and at rho = 70 check coefficients pass int64 (C(70, 35) > 2^66).
# At q = 8, K = 2 lam = 3 needs rho >= 3, whose enumerator alone takes a
# second, so only lam = 2 runs there.
TABLE_GRID = [
    (2, 1, 2, 4, 20), (2, 1, 3, 6, 24), (2, 1, 3, 70, 70),
    (2, 2, 2, 4, 8), (2, 2, 3, 6, 8),
    (3, 1, 2, 3, 12), (3, 1, 3, 6, 12), (3, 2, 2, 3, 6), (3, 2, 3, 3, 4),
    (4, 1, 2, 4, 12), (4, 1, 3, 6, 10), (4, 2, 2, 4, 4), (4, 2, 3, 3, 3),
    (8, 1, 2, 4, 6), (8, 1, 3, 6, 6), (8, 2, 2, 2, 1),
]


def _per_type_oracle(q, k, lam, rho, n):
    """Every type's entry by the big-integer per-type route, its power
    the dict convolution of the orbit-reduced enumerator."""
    power = oracles.poly_power_dict(
        sp._orbit_poly(sp.check_polynomial(q, k, rho)), n * lam // rho)
    orbits = sp._orbits(q, k)
    return {t: oracles.log_finite_count(power, n, t, lam, q, orbits)
            for t in map(tuple, sp._compositions(n, q ** k).tolist())}


@pytest.mark.parametrize("q,k,lam,rho,n", TABLE_GRID)
def test_table_matches_per_type_oracle(q, k, lam, rho, n):
    want = _per_type_oracle(q, k, lam, rho, n)
    tab = sp.ldpc_spectrum_table(n, lam, rho, q, k)
    assert tab.entries == want
    assert list(tab.entries) == list(want)
    assert all(type(c) is int for t in tab.entries for c in t)
    # a subset, out of table order and with a repeat, reads the same
    subset = list(want)[::-3] + [list(want)[0]]
    part = sp.ldpc_spectrum_table(n, lam, rho, q, k, types=subset)
    assert part.entries == {t: want[t] for t in subset}
    assert list(part.entries) == list(dict.fromkeys(subset))
    # and so does one type at a time, the -inf ones included
    for t in subset[:8] + [t for t, v in want.items() if v == -math.inf][:2]:
        assert _finite(n, t, lam, rho, q, k) == want[t]


def test_table_refuses_bad_types_before_powering(monkeypatch):
    def power(*args):
        raise AssertionError("powered")

    monkeypatch.setattr(sp, "_poly_power", power)
    with pytest.raises(ValueError, match="type sums to 11, expected 12"):
        sp.ldpc_spectrum_table(12, 3, 6, 2, 1, types=[(6, 6), (6, 5)])
    with pytest.raises(ValueError, match="2 nonnegative counts"):
        sp.ldpc_spectrum_table(12, 3, 6, 2, 1, types=[(13, -1)])
    with pytest.raises(ValueError, match="2 nonnegative counts"):
        sp.ldpc_spectrum_table(12, 3, 6, 2, 1, types=[(6, 6, 0)])
    # 5 * 3 / 6 checks: not whole, for a dense table and a type list alike
    with pytest.raises(ValueError, match="whole number of check nodes"):
        sp.ldpc_spectrum_table(5, 3, 6, 2, 1)
    with pytest.raises(ValueError, match="whole number of check nodes"):
        sp.ldpc_spectrum_table(5, 3, 6, 2, 1, types=[(3, 2)])


_F2 = field_from_order(2)
_Q2 = make_quantizer(_F2, InputPmf.uniform(2))
# every public entry point that takes an (n, var_degree, check_degree)
# design, called on one
DESIGN_USERS = {
    "ldpc_spectrum_table": lambda n, lam, rho: sp.ldpc_spectrum_table(
        n, lam, rho, 2, 1),
    "rate_offset_decomposition": lambda n, lam, rho:
        sp.rate_offset_decomposition(n, lam, rho, 0.1, 2, 1),
    "ldpc_rcu_ppc": lambda n, lam, rho: ldpc_rcu_ppc(bsc("1/10"), _Q2, n,
                                                     lam, rho),
    "ldpc_rcu_mac": lambda n, lam, rho: ldpc_rcu_mac(
        binary_adder_mac(), (_Q2, _Q2), n, (lam, rho), (lam, rho)),
    "expurgated_bound": lambda n, lam, rho: expurgated_bound(
        n, 0.1, (lam, rho), bsc("1/10"), _Q2),
    "simulate_error": lambda n, lam, rho: simulate_error(
        (n, lam, rho, 2), bsc("1/10"), _Q2, 1, 1, 0),
    "empirical_spectrum": lambda n, lam, rho: empirical_spectrum(
        (n, lam, rho, 2), 1, 0),
    "actual_rate_stats": lambda n, lam, rho: actual_rate_stats(
        (n, lam, rho, 2), 1, 0),
    "sample_graph": lambda n, lam, rho: sample_graph(n, lam, rho, _F2, 0),
    "TannerGraph": lambda n, lam, rho: TannerGraph(
        n, lam, rho, _F2, np.arange(max(0, n * lam)),
        np.ones(max(0, n * lam), dtype=np.int64)),
}


@pytest.mark.parametrize("design", [(6, 3, 0), (0, 3, 6), (6, 6, 3),
                                    (6, 1, 2), (5, 3, 6)],
                         ids=lambda d: "n{}-{}-{}".format(*d))
@pytest.mark.parametrize("use", DESIGN_USERS)
def test_every_design_user_refuses_a_bad_design(use, design):
    with pytest.raises(ValueError) as want:
        sp._ldpc_checks(*design)
    with pytest.raises(ValueError) as got:
        DESIGN_USERS[use](*design)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("LDPC design")


def test_design_rule_messages_and_rate_zero():
    with pytest.raises(ValueError, match="var_degree >= 2"):
        sp._ldpc_checks(6, 1, 2)
    with pytest.raises(ValueError, match="positive integer"):
        sp._ldpc_checks(6.0, 3, 6)
    assert sp._ldpc_checks(6, 2, 2) == 6  # rate 0: a graph, no bound
    # the asymptotic exponent has no n but the same degree rule
    with pytest.raises(ValueError, match="var_degree >= 2"):
        sp.ldpc_spectrum_exponent([0.5, 0.5], 0, 6, 2, 1)
    with pytest.raises(ValueError, match="rate is zero"):
        sp.rate_offset_decomposition(6, 3, 3, 0.1, 2, 1)
    with pytest.raises(ValueError, match="rate is zero"):
        ldpc_rcu_ppc(bsc("1/10"), _Q2, 6, 3, 3)
    with pytest.raises(ValueError, match="rate is zero"):
        expurgated_bound(6, 0.1, (3, 3), bsc("1/10"), _Q2)


def test_read_step_check_raises(monkeypatch):
    real = sp._read_step

    def corrupt(*args):
        out = real(*args)
        out[(0,) * out.ndim] += 1
        return out

    monkeypatch.setattr(sp, "_read_step", corrupt)
    with pytest.raises(ArithmeticError, match="read step of P"):
        sp._poly_power.__wrapped__(2, 1, 6, 7, 3)
    with pytest.raises(ArithmeticError, match="read step of P"):
        sp._poly_power.__wrapped__(4, 2, 3, 2, 2)


def test_q4_n24_table_pinned():
    # recorded from the big-integer dict powering; the table reads 2,925
    # of the power's 67,522 coefficients
    pinned = {
        (24, 0, 0, 0): 0.0,
        (0, 24, 0, 0): -16.58625095000685,
        (23, 1, 0, 0): -3.8414664119650013,
        (21, 1, 1, 1): -1.7170330773096936,
        (12, 4, 4, 4): 8.642483816471213,
        (6, 6, 6, 6): 11.832141311459992,
        (3, 5, 7, 9): 10.242692256486606,
    }
    tab = sp.ldpc_spectrum_table(24, 3, 6, 4, 1, types=list(pinned))
    assert tab.entries == pinned


# ---------------------------------------------------------------------------
# tables, alpha, expurgation

def test_uniform_table_alpha_closed_form():
    for n, q, k, m in [(8, 2, 1, 16), (6, 3, 1, 9), (4, 2, 2, 4)]:
        tab = uniform_spectrum_table(n, q, k, m)
        closed = m ** k / (m ** k - 1.0)
        assert math.exp(sp.alpha_log(tab, m)[0]) == pytest.approx(
            closed, abs=1e-12)


def test_uniform_table_zero_type_entry():
    tab = uniform_spectrum_table(8, 2, 1, 16)
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
        ref = math.log(m - 1) + oracles.multinomial_log(n, t) - n * LN2
        best = max(best, v - ref)
    direct = math.exp(best)
    assert math.exp(sp.alpha_log(tab, m)[0]) == pytest.approx(
        direct, rel=1e-12)


@pytest.mark.parametrize("table,m", [
    (lambda: sp.ldpc_spectrum_table(12, 3, 6, 2, 1), 2 ** 6),
    (lambda: sp.ldpc_spectrum_table(10, 3, 6, 4, 1), 4 ** 5),
    (lambda: sp.ldpc_spectrum_table(16, 3, 6, 2, 2), 2 ** 8),
    # past the exact cutoff: the lgamma route
    (lambda: sp.ldpc_spectrum_table(1200, 3, 5, 2, 1), 2 ** 480),
    (lambda: sp.ldpc_spectrum_table(66, 3, 6, 2, 1), 2 ** 33),
    # every ratio ties up to rounding, so the first maximum decides
    (lambda: uniform_spectrum_table(8, 3, 1, 9), 9),
    (lambda: uniform_spectrum_table(80, 2, 2, 7), 7),
])
def test_alpha_matches_the_per_entry_loop(table, m):
    tab = table()
    got = sp.alpha_log(tab, m)
    assert got == oracles.alpha_log_loop(tab, m)
    assert type(got[0]) is float and all(type(c) is int for c in got[1])


@pytest.mark.parametrize("n,parts,step", [
    (12, 4, 1), (64, 3, 5), (65, 2, 1), (200, 4, 997)])
def test_log_multinomials_match_the_scalar_route(n, parts, step):
    rows = sp._compositions(n, parts)[::step]
    assert sp._log_multinomials(n, rows).tolist() == [
        oracles.multinomial_log(n, t) for t in rows.tolist()]


def test_alpha_exclusion_and_errors():
    # the all-zero type never enters the maximum, nor does a type of
    # ensemble count 0; with nothing else left the penalty is refused
    n = 12
    tab = sp.ldpc_spectrum_table(n, 3, 6, 2, 1)
    assert tab.log_value((n, 0)) == 0.0
    tab.entries = {t: v if t == (n, 0) else -math.inf
                   for t, v in tab.entries.items()}
    with pytest.raises(ValueError, match="no candidate types left"):
        sp.alpha_log(tab, 2 ** 6)


def test_table_missing_type_raises():
    tab = uniform_spectrum_table(6, 2, 1, 4)
    with pytest.raises(KeyError):
        tab.log_value((5, 2))


def test_dense_table_guard():
    with pytest.raises(ValueError):
        uniform_spectrum_table(400, 4, 2, 7)


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


@pytest.mark.parametrize("q,num_users,want", [
    # at (4, 1): finite_spectrum_term -3.3306690738754696e-16 at (0, 0, 0,
    # 12), stirling_term 0.3179666570934328 at (3, 3, 3, 3)
    (4, 1, "505978e2c46846ed"),
    (2, 2, "4eaf2e135febde8e"),
])
def test_rate_offset_pinned_at_four_symbols(q, num_users, want):
    dec = sp.rate_offset_decomposition(12, 3, 6, 0.1, q, num_users)
    assert hashlib.sha256(repr(dec).encode()).hexdigest()[:16] == want


def test_rate_offset_walk_guard_trips_before_any_solve(monkeypatch):
    # q = 4 at n = 200: the orbit-reduced power fits, but the walk would
    # solve 1,372,161 of the 1,373,701 types, those of weight >= 20
    def solve(*problem):
        raise AssertionError("a type was solved")

    monkeypatch.setattr(sp, "_minimize_lse_affine", solve)
    with pytest.raises(GuardError, match="needs one exponent solve per "
                                         "type: 1372161 types"):
        sp.rate_offset_decomposition(200, 3, 6, 0.1, 4, 1)


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
