"""Command-line front end: channel specs in, JSON reports and CSV out.

Subcommands map onto the library modules: exponent (composed exponential
achievability bounds), spectrum (per-type tables and asymptotic curves),
rcu (finite-blocklength random-coding bounds), achieve (rate targets at
a given error), simulate (sampled-code Monte Carlo), compare (rate-curve
sweeps plus the scaling table), schema (report formats).

Conventions shared by every command: channels arrive as JSON files,
randomized runs require an explicit --seed (no wall-clock seeding), and
identical arguments produce byte-identical output.  Exit codes: 0
success, 2 configuration error, 3 a computation guard tripped, 4 a
numeric assumption failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import GuardError
from .channel import InputPmf, MacModel, channel_from_json, make_quantizer
from .exponent import (expurgated_bound, exponent_rate_bound,
                       kmac_exponent_bound, two_mac_exponent_bound)
from .fbl import (_SEED_LIMIT, WindowError, _exp_or_inf, _keyed_rng,
                  achievable_logM_ppc, ldpc_rcu_ppc, q_inv, rcu_exact_ppc,
                  rcu_mac, rcu_mc_ppc, rcu_relaxed_ppc, scaling_table)
from .gfq import field_from_order
from .infodensity import ppc_moments
from .simulator import (_ENUM_GUARD, Codebook, _chunks, _sample_codes,
                        actual_rate_stats, min_distance, simulate_error)
from .spectrum import (SpectrumTable, alpha_log, expurgate_spectrum,
                       ldpc_spectrum_exponent, ldpc_spectrum_table,
                       uniform_spectrum_exponent)

LN2 = math.log(2.0)
SCHEMA_VERSION = "1"
CSV_HEADER = ("n", "bound_name", "value", "unit", "ci_lo", "ci_hi")
_DEFAULT_SCALING_EPS = tuple(10.0 ** -k for k in range(1, 11))


class ConfigError(ValueError):
    """Invalid flags, paths, or config keys: exit code 2."""


# ---------------------------------------------------------------------------
# shared plumbing

def _jsonable(x):
    if isinstance(x, dict):
        return {str(k) if not isinstance(k, str) else k: _jsonable(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)  # "inf" / "-inf" / "nan"; JSON has no literals for these
    return x


def _dumps(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _load_channel(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read channel file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"channel file {path} is not valid JSON: {exc}") from exc
    return channel_from_json(obj)


def _report_dict(report) -> dict:
    out = asdict(report)
    m = out.get("num_messages")
    if m is not None:
        # per-user tuple for MACs, scalar (possibly a bignum) otherwise
        out["num_messages"] = [int(v) for v in m] if isinstance(m, tuple) \
            else int(m)
    return out


def _check_seed(seed) -> None:
    if not (_is_int(seed) and 0 <= seed < _SEED_LIMIT):
        raise ConfigError(f"seed must be an int in [0, 2**63), got {seed!r}")


def _uniform_setup(input_size: int, q: int | None):
    """(q, quantizer) realizing the uniform input pmf over GF(q)."""
    q_eff = input_size if q is None else q
    if q_eff % input_size:
        raise ConfigError(
            f"--q must be a multiple of the input alphabet size "
            f"{input_size}, got {q_eff}"
        )
    field = field_from_order(q_eff)
    return q_eff, make_quantizer(field, InputPmf.uniform(input_size))


def _ldpc_bound(channel, n: int, var_degree: int, check_degree: int,
                q: int | None):
    """Relaxed RCU bound of the uniform-input coset LDPC ensemble over
    GF(q), its spectrum penalty folded in: (q, quantizer, log alpha,
    report)."""
    q_eff, quantizer = _uniform_setup(channel.input_size, q)
    table = ldpc_spectrum_table(n, var_degree, check_degree, q_eff, 1)
    r = (n * var_degree) // check_degree
    log_a, _t = alpha_log(table, q_eff ** (n - r))
    report = ldpc_rcu_ppc(channel, quantizer, n, var_degree, check_degree,
                          log_alpha=log_a)
    return q_eff, quantizer, log_a, report


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be 'a,b', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{what} must hold integers, got {text!r}") from exc


def _parse_sweep(text: str) -> list[int]:
    try:
        sweep = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-sweep must be comma-separated ints: {exc}") from exc
    if not sweep:
        raise ConfigError("--n-sweep is empty")
    return sweep


def _sweep_or_single(args) -> list[int]:
    """Blocklengths for an rcu/achieve run: --n alone prints the report,
    --n-sweep collects per-n rows (CSV on request) instead."""
    if args.n_sweep and args.n is not None:
        raise ConfigError("pass either --n or --n-sweep, not both")
    if args.n_sweep:
        ns = _parse_sweep(args.n_sweep)
        args._single = False
    elif args.n is not None:
        ns = [args.n]
        args._single = True
    else:
        raise ConfigError("one of --n or --n-sweep is required")
    args._rows = []
    return ns


def _sweep_row(args, n, name, value, unit, ci_lo, ci_hi, payload) -> None:
    args._rows.append({"n": n, "bound_name": name, "value": value,
                       "unit": unit, "ci_lo": ci_lo, "ci_hi": ci_hi})
    if args._single:
        sys.stdout.write(_dumps(payload))


def _sweep_flush(args) -> None:
    if not args._single:
        sys.stdout.write(_dumps({"rows": args._rows}))
    if args.csv:
        with open(args.csv, "w") as fh:
            _write_csv_rows(args._rows, fh)


def _write_csv_rows(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r["n"], r["bound_name"],
            "" if r["value"] is None else repr(float(r["value"])), r["unit"],
            "" if r.get("ci_lo") is None else repr(float(r["ci_lo"])),
            "" if r.get("ci_hi") is None else repr(float(r["ci_hi"])),
        ])


# ---------------------------------------------------------------------------
# exponent command

def cmd_exponent(channel_path: str, rate: float, n: int, mac: bool = False,
                 rate2: float | None = None, expurgate: float | None = None,
                 q: int | None = None, var_degree: int | None = None,
                 check_degree: int | None = None) -> dict:
    """Composed exponential achievability bound as a report dict.

    ``rate`` is the per-user design rate in q-ary symbols per use."""
    channel = _load_channel(channel_path)
    is_mac = isinstance(channel, MacModel)
    if mac and not is_mac:
        raise ConfigError("--mac given but the channel file is point-to-point")
    if is_mac and not mac:
        raise ConfigError("channel file is a MAC; pass --mac")

    if expurgate is not None:
        if var_degree is None or check_degree is None:
            raise ConfigError(
                "--expurgate needs the ensemble: --lambda and --check-degree"
            )
        size = channel.input_sizes[0] if is_mac else channel.input_size
        _q, quantizer = _uniform_setup(size, q)
        report = expurgated_bound(
            n=n, rate=rate, sigma=expurgate,
            ensemble_params=(var_degree, check_degree), channel=channel,
            quantizer=quantizer,
        )
        return _report_dict(report)

    if is_mac:
        if channel.num_users != 2:
            raise ConfigError("only two-user MACs are supported here")
        s1, s2 = channel.input_sizes
        q1 = q if q is not None else s1
        q2 = q if q is not None else s2
        r2 = rate if rate2 is None else rate2
        report = two_mac_exponent_bound(
            n=n, rate1=rate * math.log(q1), rate2=r2 * math.log(q2),
            alphas=(1.0, 1.0), mac=channel,
            pmf1=InputPmf.uniform(s1), pmf2=InputPmf.uniform(s2),
        )
        return _report_dict(report)

    q_eff, quantizer = _uniform_setup(channel.input_size, q)
    # empty handled set: the table fixes n and K but is never read
    table = SpectrumTable(n=n, q=q_eff, num_users=1, kind="uniform",
                          entries={})
    report = kmac_exponent_bound(
        rate=rate, t_set=(), spectrum_table=table, alpha_mac=1.0,
        channel=channel, quantizer=quantizer,
    )
    return _report_dict(report)


# ---------------------------------------------------------------------------
# spectrum command

def cmd_spectrum(q: int, num_users: int, var_degree: int, check_degree: int,
                 n: int, thetas=None, want_alpha: bool = False,
                 expurgate: float | None = None):
    """Per-type table dict, or (with thetas) curve rows
    (theta0, exponent_L, exponent_U): LDPC vs uniform-reference growth
    exponents along the equal-split direction at zero-share theta0."""
    if (n * var_degree) % check_degree:
        raise ConfigError(
            f"n*lambda must be a multiple of check_degree: "
            f"{n}*{var_degree}/{check_degree}"
        )
    rate = 1.0 - var_degree / check_degree
    if thetas is not None:
        qk = q ** num_users
        rows = []
        for t0 in thetas:
            if not 0.0 <= t0 <= 1.0:
                raise ConfigError(f"theta0 must lie in [0, 1], got {t0}")
            theta = np.full(qk, (1.0 - t0) / (qk - 1))
            theta[0] = t0
            rows.append((
                float(t0),
                float(ldpc_spectrum_exponent(theta, var_degree, check_degree,
                                             q, num_users)),
                float(uniform_spectrum_exponent(theta, num_users, rate)),
            ))
        return rows
    if n > 64:
        raise GuardError(
            "per-type table guard: n <= 64; pass --theta for asymptotic curves"
        )
    table = ldpc_spectrum_table(n, var_degree, check_degree, q, num_users)
    if expurgate is not None:
        table = expurgate_spectrum(table, expurgate)
    payload = {
        "n": n, "q": q, "num_users": num_users, "kind": table.kind,
        "var_degree": var_degree, "check_degree": check_degree,
        "design_rate_qary": rate,
        "is_upper_bound": table.is_upper_bound,
        "entries": {",".join(str(c) for c in t): v
                    for t, v in sorted(table.entries.items())},
    }
    if want_alpha:
        r = (n * var_degree) // check_degree
        num = q ** (n - r)
        log_a, argmax_t = alpha_log(table, num)
        payload["alpha"] = {
            "log_alpha": log_a,
            "alpha": _exp_or_inf(log_a),
            "argmax_type": list(argmax_t),
            "num_messages_per_user": num,
        }
    return payload


# ---------------------------------------------------------------------------
# rcu and achieve commands

def cmd_rcu(channel_path: str, n: int, m: int, m2: int | None = None,
            mode: str = "relaxed", trials: int | None = None,
            seed: int | None = None) -> dict:
    """Random-coding union bound report.  A two-user MAC runs the exact sum
    over atom types (``fbl._Context``) unless ``mode`` is "mc"; its relaxed
    sum over the i-vector law appears only as ``components["relaxed"]``,
    "nan" for the adder MAC, whose conditional variances vanish."""
    if seed is not None:
        _check_seed(seed)
    channel = _load_channel(channel_path)
    if isinstance(channel, MacModel):
        if m2 is None:
            raise ConfigError("MAC channels need --M2")
        s1, s2 = channel.input_sizes
        p1, p2 = InputPmf.uniform(s1), InputPmf.uniform(s2)
        if mode == "mc":
            if trials is None or seed is None:
                raise ConfigError("Monte Carlo runs need --mc TRIALS and --seed")
            report = rcu_mac(channel, p1, p2, n, m, m2, mode="mc",
                             trials=trials, seed=seed)
        else:
            report = rcu_mac(channel, p1, p2, n, m, m2, mode="exact")
        return _report_dict(report)
    pmf = InputPmf.uniform(channel.input_size)
    if mode == "exact":
        report = rcu_exact_ppc(channel, pmf, n, m)
    elif mode == "mc":
        if trials is None or seed is None:
            raise ConfigError("Monte Carlo runs need --mc TRIALS and --seed")
        report = rcu_mc_ppc(channel, pmf, n, m, trials=trials, seed=seed)
    else:
        report = rcu_relaxed_ppc(channel, pmf, n, m)
    return _report_dict(report)


def cmd_achieve(channel_path: str, epsilon: float, n: int,
                ldpc: tuple[int, int] | None = None, q: int | None = None,
                units: str = "nats", strict_window: bool = False) -> dict:
    channel = _load_channel(channel_path)
    if isinstance(channel, MacModel):
        raise ConfigError("achieve handles point-to-point channels only")
    if units not in ("nats", "bits"):
        raise ConfigError(f"units must be nats or bits, got {units!r}")
    pmf = InputPmf.uniform(channel.input_size)
    if ldpc is None:
        report = achievable_logM_ppc(channel, pmf, n, epsilon, units=units,
                                     strict_window=strict_window)
        return _report_dict(report)
    _q, _qz, log_a, report = _ldpc_bound(channel, n, *ldpc, q)
    comp = report.components
    log_m = comp["log_num_messages"]
    return {
        "name": "ldpc-achievable-log-messages",
        "value": log_m if units == "nats" else log_m / LN2,
        "units": units,
        "n": n,
        "num_messages": report.num_messages,
        "components": {
            "ensemble_error": report.value,
            "meets_target": bool(report.value <= epsilon),
            "target_error": epsilon,
            "alpha": comp["alpha"],
            "log_alpha": log_a,
            "design_rate_qary": comp["design_rate_qary"],
            "num_checks": comp["num_checks"],
        },
    }


# ---------------------------------------------------------------------------
# simulate command

def cmd_simulate(channel_path: str, q: int, var_degree: int,
                 check_degree: int, n: int, codes: int, noise: int,
                 seed: int, mac: bool = False,
                 same_coset: bool = False) -> dict:
    """Monte Carlo error estimate plus ensemble diagnostics.

    The rate-gap statistics read exactly the codes behind eps_hat (for a
    MAC, user 1's graph of each trial).  The minimum-distance histogram is
    taken over fresh draws from the same ensemble, seeded from the same
    seed; it describes the ensemble, not the particular error run.  Code
    t of user j < K draws its graph from ``_keyed_rng(s)`` and its trim
    from ``_keyed_rng(s, 1)``, s = K ((seed 1_000_003 + t) mod 2^62) + j;
    the codes of consecutive trials are sampled as one stack."""
    _check_seed(seed)
    channel = _load_channel(channel_path)
    is_mac = isinstance(channel, MacModel)
    if mac != is_mac:
        raise ConfigError(
            "channel kind does not match the --mac flag"
        )
    field = field_from_order(q)
    if is_mac:
        sizes = channel.input_sizes
        quantizers = tuple(
            _uniform_setup(s, q)[1] for s in sizes
        )
    else:
        quantizers = _uniform_setup(channel.input_size, q)[1]
    report = simulate_error((n, var_degree, check_degree, q), channel,
                            quantizers, codes, noise, seed,
                            same_coset=same_coset)
    rate = 1.0 - var_degree / check_degree
    users = 2 if is_mac else 1
    hist: dict[str, int] = {}
    shape = (n, var_degree, check_degree)
    for chunk in _chunks(codes, shape, users, q ** round(n * rate)):
        seeds = [users * ((seed * 1_000_003 + t) % (1 << 62)) + j
                 for t in chunk for j in range(users)]
        words = _sample_codes(shape, field, [_keyed_rng(s) for s in seeds],
                              rate, [_keyed_rng(s, 1) for s in seeds])
        for lo in range(0, len(words), users):
            books = tuple(Codebook(field, w) for w in words[lo:lo + users])
            if any(b.size < 2 for b in books):
                continue
            d = min_distance(books if is_mac else books[0])
            hist[str(d)] = hist.get(str(d), 0) + 1
    gap = actual_rate_stats((n, var_degree, check_degree, q), codes, seed)
    return {
        "eps_hat": report.value,
        "ci": [report.components["wilson_low"],
               report.components["wilson_high"]],
        "ties_as_error_rate": report.components["ties_as_error_rate"],
        "trials": report.trials,
        "num_messages": int(report.num_messages),
        "design_rate_qary": rate,
        "dmin_histogram": hist,
        "rate_gap_stats": asdict(gap),
        "report": _report_dict(report),
    }


# ---------------------------------------------------------------------------
# compare command

RUN_CONFIG_SCHEMA = {
    "command": "must equal 'compare'",
    "channel": "path to a channel JSON file (required)",
    "n_sweep": "nonempty list of positive blocklengths (required)",
    "epsilon": "target error probability in (0, 1) (required)",
    "units": "rate units: nats | bits | qary (default nats)",
    "seed": "integer seed, required when 'simulate' is present",
    "ensemble": {"var_degree": "int", "check_degree": "int", "q": "int"},
    "simulate": {"codes": "int", "noise": "int"},
    "scaling_epsilons": "optional list of errors in (0, 1/2] for the "
                        "scaling table",
    "csv": "optional output path for the CSV rows (default stdout skips it)",
    "json": "optional output path for the JSON report (default stdout)",
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    bad = sorted(set(config) - set(RUN_CONFIG_SCHEMA))
    nested = {"ensemble": {"var_degree", "check_degree", "q"},
              "simulate": {"codes", "noise"}}
    for key, allowed in nested.items():
        sub = config.get(key)
        if sub is not None:
            if not isinstance(sub, dict):
                bad.append(key)
            else:
                bad.extend(f"{key}.{k}" for k in sorted(set(sub) - allowed))
    if bad:
        raise ConfigError(
            "unknown config keys: " + ", ".join(bad) + "\nschema:\n"
            + json.dumps(RUN_CONFIG_SCHEMA, sort_keys=True, indent=2)
        )
    if config.get("command", "compare") != "compare":
        raise ConfigError(f"config command must be 'compare', "
                          f"got {config.get('command')!r}")
    for key in ("channel", "n_sweep", "epsilon"):
        if key not in config:
            raise ConfigError(f"config key {key!r} is required")
    sweep = config["n_sweep"]
    if not isinstance(sweep, list) or not sweep or \
            not all(_is_int(v) and v >= 1 for v in sweep):
        raise ConfigError("n_sweep must be a nonempty list of positive ints")
    eps = config["epsilon"]
    if not isinstance(eps, (int, float)) or not 0.0 < eps < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    units = config.get("units", "nats")
    if units not in ("nats", "bits", "qary"):
        raise ConfigError(f"units must be nats, bits, or qary, got {units!r}")
    if units == "qary" and "ensemble" not in config:
        raise ConfigError("q-ary units need the ensemble block for q")
    if "simulate" in config:
        if "ensemble" not in config:
            raise ConfigError("simulate needs the ensemble block")
        if "seed" not in config:
            raise ConfigError("simulate needs an explicit seed")
        sim = config["simulate"]
        if not all(_is_int(sim.get(k)) and sim[k] >= 1
                   for k in ("codes", "noise")):
            raise ConfigError("simulate.codes and simulate.noise must be "
                              "positive ints")
    if "ensemble" in config:
        ens = config["ensemble"]
        for k in ("var_degree", "check_degree", "q"):
            if not _is_int(ens.get(k)) or ens[k] < 2:
                raise ConfigError(f"ensemble.{k} must be an int >= 2")
        for n in sweep:
            if (n * ens["var_degree"]) % ens["check_degree"]:
                raise ConfigError(
                    f"n = {n} is incompatible with the ensemble: "
                    f"n*var_degree must be a multiple of check_degree"
                )
    if "seed" in config:
        _check_seed(config["seed"])
    scaling = config.get("scaling_epsilons", [])
    if not isinstance(scaling, list):
        raise ConfigError("scaling_epsilons must be a list")
    for e in scaling:
        if isinstance(e, bool) or not isinstance(e, (int, float)) \
                or not 0.0 < e <= 0.5:
            raise ConfigError("scaling_epsilons entries must lie in (0, 1/2]")
    return config


def _rate_units(value_nats: float, units: str, q: int | None) -> float:
    if units == "nats":
        return value_nats
    if units == "bits":
        return value_nats / LN2
    return value_nats / math.log(q)


def cmd_compare(config: dict) -> dict:
    """Rate-curve comparison across an n-sweep at one target error.

    Emits four rate rows per n: the closed-form exponent-route rate (the
    strong quadratic inversion, valid at every n), the dispersion
    normal-approximation rate, the rigorous windowed dispersion rate
    (0 with window_valid=false when the proof window excludes n), and,
    when an ensemble is configured, the LDPC design rate with its
    ensemble error; plus the simulator error where requested and the
    Qinv-vs-sqrt-log scaling table.  Where the simulator's codebook guard
    refuses q^(n rate) codewords, the simulated row carries no value and
    is flagged ``"skipped": "codebook guard"``."""
    config = _validate_config(config)
    channel = _load_channel(config["channel"])
    if isinstance(channel, MacModel):
        raise ConfigError("compare sweeps point-to-point channels only")
    eps = float(config["epsilon"])
    units = config.get("units", "nats")
    ens = config.get("ensemble")
    q_ens = ens["q"] if ens else None
    pmf = InputPmf.uniform(channel.input_size)
    moments = ppc_moments(channel, pmf)
    qi = q_inv(eps)
    rows: list[dict] = []
    unit_name = units
    for n in config["n_sweep"]:
        exp_rate = exponent_rate_bound(n, eps, channel, pmf)
        rows.append({
            "n": n, "bound_name": "exponent-rate",
            "value": _rate_units(exp_rate, units, q_ens), "unit": unit_name,
        })
        disp = (moments.mean - math.sqrt(moments.variance / n) * qi
                + math.log(n) / (2.0 * n))
        rows.append({
            "n": n, "bound_name": "dispersion-rate",
            "value": _rate_units(disp, units, q_ens), "unit": unit_name,
        })
        try:
            rig = achievable_logM_ppc(channel, pmf, n, eps,
                                      strict_window=True)
            rig_rate, window_valid = rig.value / n, True
        except WindowError:
            rig_rate, window_valid = 0.0, False
        rows.append({
            "n": n, "bound_name": "dispersion-rate-rigorous",
            "value": _rate_units(rig_rate, units, q_ens), "unit": unit_name,
            "window_valid": window_valid,
        })
        if ens:
            lam, rho = ens["var_degree"], ens["check_degree"]
            q_eff, quantizer, _la, ldpc_rep = _ldpc_bound(channel, n, lam,
                                                          rho, ens["q"])
            rows.append({
                "n": n, "bound_name": "ldpc-rcu-error",
                "value": ldpc_rep.value, "unit": "probability",
            })
            design_nats = (1.0 - lam / rho) * math.log(q_eff)
            rows.append({
                "n": n, "bound_name": "ldpc-rate",
                "value": _rate_units(design_nats, units, q_ens),
                "unit": unit_name,
                "meets_target": bool(ldpc_rep.value <= eps),
            })
            if "simulate" in config:
                sim = config["simulate"]
                # the simulator enumerates q^(n rate) codewords per code
                if q_eff ** (n - n * lam // rho) > _ENUM_GUARD:
                    rows.append({
                        "n": n, "bound_name": "simulated-ml-error",
                        "value": None, "unit": "probability",
                        "skipped": "codebook guard",
                    })
                else:
                    rep = simulate_error((n, lam, rho, q_eff), channel,
                                         quantizer, sim["codes"],
                                         sim["noise"], config["seed"])
                    rows.append({
                        "n": n, "bound_name": "simulated-ml-error",
                        "value": rep.value, "unit": "probability",
                        "ci_lo": rep.components["wilson_low"],
                        "ci_hi": rep.components["wilson_high"],
                    })
    by_kind: dict[str, dict[int, dict]] = {}
    for r in rows:
        by_kind.setdefault(r["bound_name"], {})[r["n"]] = r
    margins = []
    exponent_wins = []
    for n in config["n_sweep"]:
        d = by_kind["dispersion-rate"][n]["value"]
        e = by_kind["exponent-rate"][n]["value"]
        rig = by_kind["dispersion-rate-rigorous"][n]
        margins.append({"n": n, "dispersion_minus_exponent": d - e})
        if e > rig["value"]:
            exponent_wins.append({
                "n": n, "epsilon": eps, "exponent_rate": e,
                "rigorous_dispersion_rate": rig["value"],
                "window_valid": rig["window_valid"],
            })
    scaling_eps = config.get("scaling_epsilons", list(_DEFAULT_SCALING_EPS))
    return {
        "config": {k: v for k, v in config.items() if k not in ("csv", "json")},
        "rows": rows,
        "crossover": {
            "dispersion_minus_exponent": margins,
            "exponent_wins_over_rigorous_dispersion": exponent_wins,
        },
        "scaling_table": [list(r) for r in scaling_table(scaling_eps)],
    }


# ---------------------------------------------------------------------------
# schema command

REPORT_SCHEMA = {
    "version": SCHEMA_VERSION,
    "BoundReport": {
        "required": ["name", "value", "units", "method", "n", "components"],
        "properties": {
            "name": "string", "value": "number", "units": "string",
            "method": "string", "n": "integer",
            "num_messages": "integer|null", "ci_half_width": "number|null",
            "trials": "integer|null", "components": "object",
        },
    },
    "SimulateReport": {
        "required": ["eps_hat", "ci", "dmin_histogram", "rate_gap_stats"],
        "properties": {
            "eps_hat": "number", "ci": "array", "ties_as_error_rate": "number",
            "trials": "integer", "num_messages": "integer",
            "design_rate_qary": "number", "dmin_histogram": "object",
            "rate_gap_stats": "object", "report": "object",
        },
    },
    "SpectrumReport": {
        "required": ["n", "q", "num_users", "kind", "entries"],
        "properties": {
            "n": "integer", "q": "integer", "num_users": "integer",
            "kind": "string", "var_degree": "integer",
            "check_degree": "integer", "design_rate_qary": "number",
            "is_upper_bound": "boolean", "entries": "object",
            "alpha": "object",
        },
    },
    "CompareReport": {
        "required": ["config", "rows", "crossover", "scaling_table"],
        "properties": {
            "config": "object", "rows": "array", "crossover": "object",
            "scaling_table": "array",
        },
    },
    "RunConfig": RUN_CONFIG_SCHEMA,
}


def cmd_report_schema() -> dict:
    return REPORT_SCHEMA


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fblbound",
        description="Finite-blocklength and exponent achievability bounds "
                    "with sampled-code verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("exponent", help="composed exponential bound")
    pe.add_argument("--channel", required=True)
    pe.add_argument("--rate", type=float, required=True,
                    help="per-user design rate, q-ary symbols per use")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--rate2", type=float)
    pe.add_argument("--mac", action="store_true")
    pe.add_argument("--expurgate", type=float, metavar="SIGMA")
    pe.add_argument("--q", type=int)
    pe.add_argument("--lambda", dest="var_degree", type=int)
    pe.add_argument("--check-degree", dest="check_degree", type=int)

    ps = sub.add_parser("spectrum", help="ensemble spectrum tables/curves")
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--K", dest="num_users", type=int, default=1)
    ps.add_argument("--lambda", dest="var_degree", type=int, required=True)
    ps.add_argument("--check-degree", dest="check_degree", type=int,
                    required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--theta", type=float, nargs="+")
    ps.add_argument("--alpha", action="store_true")
    ps.add_argument("--expurgate", type=float, metavar="SIGMA")
    ps.add_argument("--csv", help="write curve rows here instead of stdout")

    pr = sub.add_parser("rcu", help="random-coding union bounds")
    pr.add_argument("--channel", required=True)
    pr.add_argument("--n", type=int)
    pr.add_argument("--n-sweep", metavar="N1,N2,...")
    pr.add_argument("--M", dest="m", type=int, required=True)
    pr.add_argument("--mac", action="store_true")
    pr.add_argument("--M2", dest="m2", type=int)
    group = pr.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--mc", type=int, metavar="TRIALS")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--csv", help="write sweep rows here as well")

    pa = sub.add_parser("achieve", help="achievable log M at target error")
    pa.add_argument("--channel", required=True)
    pa.add_argument("--epsilon", type=float, required=True)
    pa.add_argument("--n", type=int)
    pa.add_argument("--n-sweep", metavar="N1,N2,...")
    pa.add_argument("--ldpc", metavar="LAMBDA,CHECK")
    pa.add_argument("--q", type=int)
    pa.add_argument("--units", choices=("nats", "bits"), default="nats")
    pa.add_argument("--strict-window", action="store_true")
    pa.add_argument("--csv", help="write sweep rows here as well")

    pm = sub.add_parser("simulate", help="sampled-code Monte Carlo")
    pm.add_argument("--channel", required=True)
    pm.add_argument("--q", type=int, required=True)
    pm.add_argument("--lambda", dest="var_degree", type=int, required=True)
    pm.add_argument("--check-degree", dest="check_degree", type=int,
                    required=True)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--codes", type=int, required=True)
    pm.add_argument("--noise", type=int, required=True)
    pm.add_argument("--seed", type=int, required=True)
    pm.add_argument("--mac", action="store_true")
    pm.add_argument("--same-coset", action="store_true")

    pc = sub.add_parser("compare", help="rate-curve sweep, CSV + JSON")
    pc.add_argument("--config", required=True)

    sub.add_parser("schema", help="print the report schemas")
    return p


def _dispatch(args) -> int:
    if args.command == "exponent":
        payload = cmd_exponent(args.channel, args.rate, args.n, mac=args.mac,
                               rate2=args.rate2, expurgate=args.expurgate,
                               q=args.q, var_degree=args.var_degree,
                               check_degree=args.check_degree)
        sys.stdout.write(_dumps(payload))
    elif args.command == "spectrum":
        out = cmd_spectrum(args.q, args.num_users, args.var_degree,
                           args.check_degree, args.n, thetas=args.theta,
                           want_alpha=args.alpha, expurgate=args.expurgate)
        if isinstance(out, list):
            rows = "theta0,exponent_L,exponent_U\n" + "".join(
                f"{t0!r},{lo!r},{up!r}\n" for t0, lo, up in out
            )
            if args.csv:
                with open(args.csv, "w") as fh:
                    fh.write(rows)
            else:
                sys.stdout.write(rows)
        else:
            sys.stdout.write(_dumps(out))
    elif args.command == "rcu":
        if args.mac != isinstance(_load_channel(args.channel), MacModel):
            raise ConfigError("channel kind does not match the --mac flag")
        if args.m2 is not None and not args.mac:
            raise ConfigError("--M2 needs --mac")
        mode = "exact" if args.exact else (
            "mc" if args.mc is not None else "relaxed")
        for n in _sweep_or_single(args):
            payload = cmd_rcu(args.channel, n, args.m, m2=args.m2,
                              mode=mode, trials=args.mc, seed=args.seed)
            hw = payload.get("ci_half_width")
            _sweep_row(args, n, payload["name"], payload["value"],
                       "probability",
                       None if hw is None else payload["value"] - hw,
                       None if hw is None else payload["value"] + hw,
                       payload)
        _sweep_flush(args)
    elif args.command == "achieve":
        ldpc = _parse_pair(args.ldpc, "--ldpc") if args.ldpc else None
        for n in _sweep_or_single(args):
            payload = cmd_achieve(args.channel, args.epsilon, n, ldpc=ldpc,
                                  q=args.q, units=args.units,
                                  strict_window=args.strict_window)
            _sweep_row(args, n, payload["name"], payload["value"],
                       args.units, None, None, payload)
        _sweep_flush(args)
    elif args.command == "simulate":
        payload = cmd_simulate(args.channel, args.q, args.var_degree,
                               args.check_degree, args.n, args.codes,
                               args.noise, args.seed, mac=args.mac,
                               same_coset=args.same_coset)
        sys.stdout.write(_dumps(payload))
    elif args.command == "compare":
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        payload = cmd_compare(config)
        if config.get("csv"):
            with open(config["csv"], "w") as fh:
                _write_csv_rows(payload["rows"], fh)
        if config.get("json"):
            with open(config["json"], "w") as fh:
                fh.write(_dumps(payload))
        else:
            sys.stdout.write(_dumps(payload))
    else:
        sys.stdout.write(_dumps(cmd_report_schema()))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"numeric assumption violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
