"""Test-side helpers that the program never calls: channel-file writers
(the inverse of ``fblbound.channel.channel_from_json``, exact rows as
"a/b" strings) and a check of report payloads against the schema that
``fblbound schema`` publishes."""

import math
from fractions import Fraction

from fblbound.channel import MacModel
from fblbound.cli import REPORT_SCHEMA
from fblbound.spectrum import SpectrumTable, _all_types_guarded
from oracles import multinomial_log


def binary_adder_mac() -> MacModel:
    """Y = X1 + X2 over the integers: inputs {0,1}^2, outputs {0,1,2}."""
    one = Fraction(1)
    zero = Fraction(0)
    rows = [
        [[one, zero, zero], [zero, one, zero]],
        [[zero, one, zero], [zero, zero, one]],
    ]
    return MacModel.from_rows(rows)


def parallel_bsc_mac(p1: str, p2: str) -> MacModel:
    """W((y1,y2)|x1,x2) = BSC_p1(y1|x1) BSC_p2(y2|x2), outputs flattened."""
    a = Fraction(p1)
    b = Fraction(p2)
    rows = []
    for x1 in (0, 1):
        per_x1 = []
        for x2 in (0, 1):
            ent = []
            for y1 in (0, 1):
                for y2 in (0, 1):
                    pa = a if y1 != x1 else 1 - a
                    pb = b if y2 != x2 else 1 - b
                    ent.append(pa * pb)
            per_x1.append(ent)
        rows.append(per_x1)
    return MacModel.from_rows(rows)


def uniform_spectrum_table(n: int, q: int, num_users: int,
                           num_messages) -> SpectrumTable:
    """Exact expected type counts for M^K independent uniform codewords
    (one per message tuple), all-zero row removal not applied."""
    qk = q ** num_users
    log_m = math.log(num_messages)
    base = num_users * log_m - n * num_users * math.log(q)
    entries = {
        t: base + multinomial_log(n, t)
        for t in map(tuple, _all_types_guarded(n, qk).tolist())
    }
    return SpectrumTable(
        n=n, q=q, num_users=num_users, kind="uniform", entries=entries,
        log_num_messages=log_m,
    )


def _entry_to_json(v: float, exact: Fraction | None):
    if exact is not None:
        if exact.denominator == 1:
            return int(exact)
        return f"{exact.numerator}/{exact.denominator}"
    return v


def dmc_to_json(dmc) -> dict:
    rows = []
    for x in range(dmc.input_size):
        exact_row = dmc.w_exact[x] if dmc.w_exact is not None else None
        rows.append(
            [
                _entry_to_json(
                    float(dmc.w[x, y]),
                    exact_row[y] if exact_row is not None else None,
                )
                for y in range(dmc.output_size)
            ]
        )
    return {"inputs": dmc.input_size, "outputs": dmc.output_size, "rows": rows}


def mac_to_json(mac) -> dict:
    def build(idx):
        if len(idx) == mac.num_users:
            exact = None
            if mac.w_exact is not None:
                exact = mac.w_exact
                for i in idx:
                    exact = exact[i]
            row = mac.w[idx]
            return [
                _entry_to_json(
                    float(row[y]), exact[y] if exact is not None else None
                )
                for y in range(mac.output_size)
            ]
        size = mac.input_sizes[len(idx)]
        return [build(idx + (i,)) for i in range(size)]

    return {
        "inputs": list(mac.input_sizes),
        "outputs": mac.output_size,
        "rows": build(()),
    }


_TYPE_MAP = {
    "string": str, "number": (int, float), "integer": int, "object": dict,
    "array": list, "boolean": bool, "null": type(None),
}


def schema_validate(kind: str, obj: dict) -> None:
    """Check a payload against the published schema; raises ValueError on
    the first missing or mistyped field."""
    spec = REPORT_SCHEMA.get(kind)
    if spec is None or "required" not in spec:
        raise ValueError(f"no validatable schema for {kind!r}")
    for key in spec["required"]:
        if key not in obj:
            raise ValueError(f"{kind} payload is missing {key!r}")
    for key, tname in spec["properties"].items():
        if key not in obj:
            continue
        allowed = tuple()
        for part in tname.split("|"):
            t = _TYPE_MAP[part]
            allowed += t if isinstance(t, tuple) else (t,)
        if isinstance(obj[key], bool) and bool not in allowed:
            raise ValueError(f"{kind}.{key} has the wrong type")
        if not isinstance(obj[key], allowed):
            raise ValueError(f"{kind}.{key} has the wrong type")
