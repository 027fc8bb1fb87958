"""Gallager-style error exponents and exponential achievability bounds.

Every scalar exponent API here works in nats.  The composed bounds accept
design rates in q-ary symbols per channel use and convert internally,
using exp(-n E_nats) = q^(-n E_nats / ln q), so the probability values
agree with the base-q statements without carrying a base parameter
through every function.

The four Gallager-function variants are the error events of
``fblbound.infodensity`` (the users whose codewords are wrong), all
evaluated by one formula: "PPC" (every user: a single transmitter, or a
multiple-access channel seen as one super-transmitter with independent
per-user inputs), and the two-user "MAC-1" (user 1), "MAC-2" (user 2)
and "MAC-12" (both) of the three-term multiple-access bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import DmcModel, InputPmf, MacModel, Quantizer, induced_input_pmf
from .fbl import BoundReport
from .infodensity import (_check_sizes, average_inputs, mac_moments,
                          ppc_moments)
from .spectrum import (
    SpectrumTable,
    _ldpc_design,
    alpha_log,
    expurgate_spectrum,
    ldpc_spectrum_table,
    symbol_components,
)

# the error event of each MAC variant: the users averaged inside the
# bracket; "PPC" averages every user
_VARIANT_EVENTS = {"MAC-1": (0,), "MAC-2": (1,), "MAC-12": (0, 1)}
_VARIANTS = ("PPC", *_VARIANT_EVENTS)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EIGHT_OVER_ESQ = 8.0 / (math.e * math.e)
_LOG_FLOOR = -690.0  # exp() underflows to subnormal/0 a little below this
_RHO_TOL = 1e-10  # final width of the golden-section bracket on rho


# ---------------------------------------------------------------------------
# Gallager function

def _as_pmf_tuple(pmfs) -> tuple:
    if isinstance(pmfs, InputPmf):
        return (pmfs,)
    out = tuple(pmfs)
    if not out or not all(isinstance(p, InputPmf) for p in out):
        raise ValueError("pmfs must be an InputPmf or a tuple of them")
    return out


def _user_probs(variant: str, channel, pmfs) -> list:
    """One pmf vector per user of ``channel``, after checking the pmfs
    against the variant and the channel; "PPC" lets one pmf serve every
    user."""
    pmfs = _as_pmf_tuple(pmfs)
    if not isinstance(channel, (DmcModel, MacModel)):
        raise ValueError("channel must be a DmcModel or MacModel")
    users = channel.w.ndim - 1
    if variant != "PPC":
        if users != 2:
            raise ValueError("MAC variants need a two-user MacModel")
        if len(pmfs) != 2:
            raise ValueError("MAC variants take exactly two input pmfs")
    if len(pmfs) == 1:
        pmfs *= users
    if len(pmfs) != users:
        raise ValueError(f"a {users}-user channel takes one pmf per user "
                         f"or one shared pmf")
    return _check_sizes(channel.w, pmfs)


def e0(variant: str, gallager_rho: float, channel, pmfs) -> float:
    """Gallager function in nats at tilt parameter ``gallager_rho``:
    -ln sum over (x_rest, y) of P(x_rest) (E_{X_E} W(y|X)^s)^(1+rho),
    s = 1/(1+rho), for the variant's error event E.

    "PPC" on a MacModel treats the users as one super-transmitter with
    the product input law (independent per-user inputs)."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if not 0.0 <= gallager_rho <= 1.0:
        raise ValueError("gallager_rho must lie in [0, 1]")
    probs = _user_probs(variant, channel, pmfs)
    if gallager_rho == 0.0:
        return 0.0
    event = _VARIANT_EVENTS.get(variant, tuple(range(len(probs))))
    rest = [p for u, p in enumerate(probs) if u not in event]
    inner = average_inputs(np.power(channel.w, 1.0 / (1.0 + gallager_rho)),
                           probs, event)
    outer = average_inputs(np.power(inner, 1.0 + gallager_rho), rest,
                           range(len(rest)))
    return -math.log(float(np.sum(outer)))


def error_exponent(variant: str, rate: float, channel,
                   pmfs) -> tuple[float, float]:
    """Random-coding exponent max over rho in [0,1] of E0(rho) - rho*rate.

    Returns (exponent, maximizing rho), both 0 when the supremum is <= 0.
    Golden-section search; the objective is concave in rho, so the final
    bracket, ``_RHO_TOL`` wide, localizes the maximizer."""
    if rate < 0.0:
        raise ValueError("rate must be nonnegative (nats)")
    def obj(r: float) -> float:
        return e0(variant, r, channel, pmfs) - r * rate

    lo, hi = 0.0, 1.0
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = obj(c), obj(d)
    best_rho, best_val = (c, fc) if fc >= fd else (d, fd)
    while hi - lo > _RHO_TOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = obj(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = obj(d)
        if fc >= fd and fc > best_val:
            best_rho, best_val = c, fc
        elif fd > fc and fd > best_val:
            best_rho, best_val = d, fd
    # the boundary points are never interior iterates; check them directly
    f1 = obj(1.0)
    if f1 > best_val:
        best_rho, best_val = 1.0, f1
    if best_val <= 0.0:
        return 0.0, 0.0
    return best_val, best_rho


def critical_rate(channel: DmcModel, pmf: InputPmf) -> float:
    """Slope of the Gallager function at rho = 1, in nats.

    One-sided difference from below with one Richardson extrapolation
    step; the curve is only defined on [0, 1], so a centered stencil is
    unavailable."""
    top = e0("PPC", 1.0, channel, pmf)
    h = 1e-5

    def diff(step: float) -> float:
        return (top - e0("PPC", 1.0 - step, channel, pmf)) / step

    return max(0.0, 2.0 * diff(h / 2.0) - diff(h))


# ---------------------------------------------------------------------------
# quadratic lower bounds and the closed-form rate bound

def quadratic_exponent_bound(rate: float, channel: DmcModel, pmf: InputPmf,
                             strong: bool = False) -> float:
    """Parabolic lower bound (C - R)^2 / denom on the random-coding exponent.

    The weak denominator 8/e^2 + 4 ln^2|Y| is valid on all of [0, C]; the
    strong one 8/e^2 + 2 ln^2|Y| - 2 R_cr^2 trades a smaller denominator
    for a validity window near capacity."""
    cap = ppc_moments(channel, pmf).mean
    if not 0.0 <= rate <= cap + 1e-12:
        raise ValueError(f"rate must lie in [0, C] = [0, {cap:.6g}] nats")
    gap = max(0.0, cap - rate)
    if not strong:
        log_ny = math.log(channel.output_size)
        return gap * gap / (_EIGHT_OVER_ESQ + 4.0 * log_ny * log_ny)
    denom = _strong_denominator(channel, pmf)
    # halving is exact, so this is C - (4/e^2 + ln^2|Y| - R_cr^2) bit for bit
    lo = max(0.0, cap - denom / 2.0)
    if rate < lo - 1e-12:
        raise ValueError(
            f"strong quadratic bound only holds for rates in "
            f"[{lo:.6g}, {cap:.6g}] nats; got {rate:.6g}"
        )
    return gap * gap / denom


def _strong_denominator(channel: DmcModel, pmf: InputPmf) -> float:
    """8/e^2 + 2 ln^2|Y| - 2 R_cr^2, the strong quadratic bound's
    denominator."""
    log_ny = math.log(channel.output_size)
    rcr = critical_rate(channel, pmf)
    return _EIGHT_OVER_ESQ + 2.0 * log_ny * log_ny - 2.0 * rcr * rcr


def exponent_rate_bound(n: int, epsilon: float, channel: DmcModel,
                        pmf: InputPmf) -> float:
    """Rate (nats per use) guaranteed achievable at blocklength n and
    average error epsilon by inverting the strong quadratic bound.

    Clamped at zero; epsilon = 1 returns capacity exactly."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    cap = ppc_moments(channel, pmf).mean
    coeff = _strong_denominator(channel, pmf)
    return max(0.0, cap - math.sqrt(coeff / n * math.log(1.0 / epsilon)))


# ---------------------------------------------------------------------------
# pairwise Bhattacharyya weights over the label alphabet

@dataclass(frozen=True)
class BhattacharyyaVector:
    """Pairwise weight D(g) for each difference label g in GF(q)^K.

    values[g] is indexed by the flat label index (user 1 most
    significant); values[0] (the zero difference) is identically 1 and
    every entry lies in [0, 1].  log_weight_product is ln of D(g) raised to
    the per-label multiplicities of a type vector, with 0^0 = 1."""

    q: int
    num_users: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.q ** self.num_users,):
            raise ValueError("need one weight per difference label")
        if abs(vals[0] - 1.0) > 1e-9:
            raise ValueError("the zero difference must have weight 1")
        if np.any(vals < -1e-9) or np.any(vals > 1.0 + 1e-9):
            raise ValueError("weights must lie in [0, 1]")
        object.__setattr__(self, "values", np.clip(vals, 0.0, 1.0))

    def log_weight_product(self, t) -> float:
        counts = tuple(int(c) for c in t)
        if len(counts) != self.values.shape[0]:
            raise ValueError("type length does not match the label alphabet")
        total = 0.0
        for g, mult in enumerate(counts):
            if mult == 0:
                continue
            v = float(self.values[g])
            if v == 0.0:
                return -math.inf
            total += mult * math.log(v)
        return total


def bhattacharyya(channel, quantizers) -> BhattacharyyaVector:
    """Pairwise weights of the label-difference alphabet through quantized
    channel inputs: D(g) averages sqrt(W(y|x') W(y|x'+g)) over a uniform
    reference label tuple g' and the output alphabet."""
    if isinstance(quantizers, Quantizer):
        quantizers = (quantizers,)
    else:
        quantizers = tuple(quantizers)
    if isinstance(channel, DmcModel):
        k = 1
        sizes = (channel.input_size,)
        rows = channel.w
    elif isinstance(channel, MacModel):
        k = channel.num_users
        sizes = channel.input_sizes
        rows = channel.flatten().w
    else:
        raise ValueError("channel must be a DmcModel or MacModel")
    if len(quantizers) == 1 and k > 1:
        quantizers = quantizers * k
    if len(quantizers) != k:
        raise ValueError(f"need 1 or {k} quantizers")
    fld = quantizers[0].field
    for j, qz in enumerate(quantizers):
        if qz.field.q != fld.q or qz.field.p != fld.p:
            raise ValueError("all quantizers must share one field")
        if qz.target_size != sizes[j]:
            raise ValueError(f"quantizer {j + 1} does not match input alphabet {j + 1}")
    q = fld.q
    qk = q ** k
    comps = np.array([symbol_components(i, q, k) for i in range(qk)],
                     dtype=np.int64)  # (qk, K)
    # channel-input row index of each label tuple after quantization
    def row_index(label_comps) -> np.ndarray:
        idx = np.zeros(label_comps.shape[0], dtype=np.int64)
        for j in range(k):
            idx = idx * sizes[j] + quantizers[j].assignment[label_comps[:, j]]
        return idx

    base_rows = rows[row_index(comps)]  # (qk, |Y|)
    sqrt_base = np.sqrt(base_rows)
    vals = np.empty(qk)
    for g in range(qk):
        g_comps = comps[g]
        shifted = np.empty_like(comps)
        for j in range(k):
            shifted[:, j] = fld.add(comps[:, j], int(g_comps[j]))
        shifted_rows = rows[row_index(shifted)]
        vals[g] = float(np.sum(sqrt_base * np.sqrt(shifted_rows))) / qk
    return BhattacharyyaVector(q=q, num_users=k, values=vals)


# ---------------------------------------------------------------------------
# composed exponential bounds

def _message_count(n: int, rate: float, q: int) -> int:
    """q^(n * rate) as an exact integer; the construction has no meaning
    at non-integer message counts."""
    digits = n * rate
    k = round(digits)
    if abs(digits - k) > 1e-9:
        raise ValueError(
            f"q^(n rate) = q^{digits!r} is not an integer message count; "
            f"restrict the operational rate to equal the design rate"
        )
    return q ** k


def _kmac_channel_check(channel, num_users: int, quantizer: Quantizer):
    if isinstance(channel, DmcModel):
        if num_users != 1:
            raise ValueError("a point-to-point channel supports num_users=1 only")
        if channel.input_size != quantizer.target_size:
            raise ValueError("quantizer does not match the input alphabet")
    elif isinstance(channel, MacModel):
        if channel.num_users != num_users:
            raise ValueError(
                f"channel has {channel.num_users} users, not {num_users}"
            )
        for j, sz in enumerate(channel.input_sizes):
            if sz != quantizer.target_size:
                raise ValueError(f"quantizer does not match input alphabet {j + 1}")
    else:
        raise ValueError("channel must be a DmcModel or MacModel")


def kmac_exponent_bound(rate: float, t_set, spectrum_table: SpectrumTable,
                        alpha_mac: float, channel,
                        quantizer: Quantizer) -> BoundReport:
    """Two-part exponential achievability bound for the symmetric K-user
    ensemble: a per-type pairwise term over the handled set ``t_set`` plus
    an exponent term at the penalty-shifted sum rate.

    ``rate`` is the per-user design rate in q-ary symbols per use;
    ``alpha_mac`` is the spectrum max-ratio penalty over the complement of
    ``t_set``; ``spectrum_table`` must cover every type in ``t_set`` and
    fixes the blocklength n and the user count K.  Every user's input law
    is the one ``quantizer`` induces from a uniform field symbol."""
    n, num_users = spectrum_table.n, spectrum_table.num_users
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not alpha_mac > 0.0:
        raise ValueError("alpha_mac must be positive")
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    q = quantizer.field.q
    _kmac_channel_check(channel, num_users, quantizer)
    if spectrum_table.q != q:
        raise ValueError("spectrum table does not match the label alphabet")
    num_messages = _message_count(n, rate, q)
    weights = bhattacharyya(channel, quantizer)
    qk = q ** num_users
    handled = [tuple(int(c) for c in t) for t in t_set]
    first = 0.0
    for counts in handled:
        if len(counts) != qk or sum(counts) != n or any(c < 0 for c in counts):
            raise ValueError(f"type {counts} is not a length-{qk} type of weight n")
        if counts[0] == n:
            raise ValueError("t_set must not contain the all-zero difference type")
        try:
            lv = spectrum_table.log_value(counts)
        except KeyError:
            raise ValueError(f"spectrum table does not cover type {counts}")
        lt = lv + weights.log_weight_product(counts)
        if lt > -math.inf:
            first += math.exp(lt) if lt < 700.0 else math.inf
    rate_nats = num_users * rate * math.log(q) + math.log(alpha_mac) / n
    exponent, rho_star = error_exponent("PPC", rate_nats, channel,
                                        induced_input_pmf(quantizer))
    log_second = -n * exponent
    second = math.exp(log_second) if log_second >= _LOG_FLOOR else 0.0
    raw = first + second
    return BoundReport(
        name="kmac-exponent-achievability",
        value=min(raw, 1.0),
        units="probability",
        method="closed-form",
        n=n,
        num_messages=num_messages,
        components={
            "pairwise_term": first,
            "exponent_term": second,
            "exponent_term_log_nats": log_second,
            "error_exponent_nats": exponent,
            "error_exponent_qary": exponent / math.log(q),
            "gallager_rho_star": rho_star,
            "effective_sum_rate_nats": rate_nats,
            "alpha_mac": alpha_mac,
            "handled_types": float(len(handled)),
            "raw_sum": raw,
        },
    )


def two_mac_exponent_bound(n: int, rate1: float, rate2: float, alphas,
                           mac: MacModel, pmf1: InputPmf,
                           pmf2: InputPmf) -> BoundReport:
    """Three-term exponential achievability bound for a two-user MAC.

    Rates are in nats per use.  ``alphas`` is the per-user spectrum
    penalty pair (alpha_1, alpha_2); the pair event's penalty is their
    product.  Pass (1, 1) for the unpenalized ensemble.  A user with zero
    rate and unit penalty carries one message, so its error terms are
    dropped."""
    if not isinstance(mac, MacModel) or mac.num_users != 2:
        raise ValueError("need a two-user MacModel")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if rate1 < 0.0 or rate2 < 0.0:
        raise ValueError("rates must be nonnegative (nats)")
    a1, a2 = (float(a) for a in alphas)
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("penalties must be positive")
    single1 = rate1 == 0.0 and a1 == 1.0
    single2 = rate2 == 0.0 and a2 == 1.0
    if single1 and single2:
        raise ValueError("at least one user must carry more than one message")
    pmfs = (pmf1, pmf2)
    specs = (
        ("user1", "MAC-1", rate1, a1, not single1),
        ("user2", "MAC-2", rate2, a2, not single2),
        ("pair", "MAC-12", rate1 + rate2, a1 * a2, not (single1 or single2)),
    )
    total = 0.0
    components: dict[str, float] = {}
    for label, variant, rate, pen, active in specs:
        if not active:
            components[f"term_{label}"] = 0.0
            components[f"active_{label}"] = 0.0
            continue
        eff = rate + math.log(pen) / n
        exponent, rho_star = error_exponent(variant, eff, mac, pmfs)
        log_term = -n * exponent
        term = math.exp(log_term) if log_term >= _LOG_FLOOR else 0.0
        total += term
        components[f"term_{label}"] = term
        components[f"term_{label}_log_nats"] = log_term
        components[f"exponent_{label}_nats"] = exponent
        components[f"rho_star_{label}"] = rho_star
        components[f"active_{label}"] = 1.0
    means = mac_moments(mac, pmf1, pmf2).means
    components["conditional_mi_nats"] = (
        float(means[0]), float(means[1]), float(means[2])
    )
    components["raw_sum"] = total
    return BoundReport(
        name="two-mac-exponent-achievability",
        value=min(total, 1.0),
        units="probability",
        method="closed-form",
        n=n,
        components=components,
    )


def expurgated_bound(n: int, sigma: float, ensemble_params,
                     channel, quantizer: Quantizer) -> BoundReport:
    """Single-term exponential bound for the expurgated sparse-graph
    ensemble: low-weight difference types up to sigma*n are removed, the
    surviving spectrum is doubled, and the whole error lands in the
    exponent term at a rate shifted by (ln alpha_ex)/n.

    ``ensemble_params`` is (var_degree, check_degree); the expurgation
    hypothesis needs var_degree >= 3.  The rate is the design rate
    (n - checks)/n.  The user count is the channel's, and every user's
    input law is the one ``quantizer`` induces."""
    var_degree, check_degree = (int(v) for v in ensemble_params)
    q = quantizer.field.q
    num_checks, num_messages = _ldpc_design(n, var_degree, check_degree, q)
    if var_degree < 3:
        raise ValueError(
            "the expurgation hypothesis needs var_degree >= 3; lighter "
            "variable nodes leave too much low-weight spectrum mass"
        )
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie strictly between 0 and 1")
    num_users = channel.num_users if isinstance(channel, MacModel) else 1
    _kmac_channel_check(channel, num_users, quantizer)
    induced = induced_input_pmf(quantizer)
    rate = (n - num_checks) / n
    table = ldpc_spectrum_table(n, var_degree, check_degree, q, num_users)
    expurgated = expurgate_spectrum(table, sigma)
    log_alpha, argmax_t = alpha_log(expurgated, num_messages)
    delta_rate_nats = log_alpha / n
    rate_nats = num_users * rate * math.log(q) + delta_rate_nats
    exponent, rho_star = error_exponent("PPC", rate_nats, channel, induced)
    log_value = -n * exponent
    value = math.exp(log_value) if log_value >= _LOG_FLOOR else 0.0
    components = {
        "exponent_log_nats": log_value,
        "error_exponent_nats": exponent,
        "error_exponent_qary": exponent / math.log(q),
        "gallager_rho_star": rho_star,
        "delta_rate_nats": delta_rate_nats,
        "delta_rate_qary": delta_rate_nats / math.log(q),
        "log_alpha_ex": log_alpha,
        "penalty_argmax_type": argmax_t,
        "sigma": sigma,
        "var_degree": float(var_degree),
        "check_degree": float(check_degree),
        "num_checks": float(num_checks),
    }
    if exponent > 0.0:
        # closed-form achievable rate at this error level, per user, by
        # inverting the weak quadratic bound on the exponent
        cap_total = ppc_moments(*_dmc_and_pmf(channel, induced)).mean
        ny = channel.output_size
        coeff = _EIGHT_OVER_ESQ + 2.0 * math.log(ny) ** 2
        rf = (cap_total - math.sqrt(coeff * exponent) - log_alpha / n) / num_users
        components["achievable_rate_nats_per_user"] = rf
        components["achievable_rate_qary_per_user"] = rf / math.log(q)
    return BoundReport(
        name="expurgated-exponent-achievability",
        value=value,
        units="probability",
        method="closed-form",
        n=n,
        num_messages=num_messages,
        components=components,
    )


def _dmc_and_pmf(channel, per_user_pmf: InputPmf):
    if isinstance(channel, DmcModel):
        return channel, per_user_pmf
    return channel.flatten(), InputPmf.from_values(
        functools.reduce(np.kron, (per_user_pmf.probs,) * channel.num_users)
    )
