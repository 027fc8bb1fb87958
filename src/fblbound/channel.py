"""Discrete memoryless channel models: point-to-point, two-user and
symmetric K-user multiple access, plus input pmfs and field-to-input
quantizers.

Transition probabilities may be exact rationals (kept as ``Fraction`` rows
alongside the float matrix, where they serve the exact row-sum check and
JSON round trips; every bound computes with the float matrix)
or plain doubles with a 1e-12 stochasticity tolerance.  All information
quantities are computed internally in nats.

JSON schema for channel files::

    {"inputs": 2, "outputs": 2, "rows": [["89/100", "11/100"], [...]]}

Entries are numbers or rational strings "a/b".  The multiple-access variant
gives ``"inputs"`` as a list of alphabet sizes and nests ``"rows"`` one level
per user, innermost lists running over the output alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gfq import FieldSpec

_ROW_SUM_TOL = 1e-12
_CAPACITY_TOL = 1e-10  # width of the mutual-information bracket at exit
_CAPACITY_MAX_ITER = 200_000


def _parse_entry(v):
    """Parse a probability entry; returns (float, Fraction-or-None)."""
    if isinstance(v, Fraction):
        return float(v), v
    if isinstance(v, bool):
        raise ValueError(f"bad probability entry {v!r}")
    if isinstance(v, int):
        return float(v), Fraction(v)
    if isinstance(v, str):
        fr = Fraction(v)
        return float(fr), fr
    if isinstance(v, float):
        return v, None
    raise ValueError(f"bad probability entry {v!r}")


def _parse_rows(rows) -> tuple[np.ndarray, tuple | None]:
    """Parse a nested list of entries into (float array, exact nest or None)."""
    arr = np.asarray(
        [[_parse_entry(v)[0] for v in row] for row in rows], dtype=np.float64
    )
    exacts = [[_parse_entry(v)[1] for v in row] for row in rows]
    if all(e is not None for row in exacts for e in row):
        return arr, tuple(tuple(row) for row in exacts)
    return arr, None


def _check_stochastic(w: np.ndarray, exact, what: str):
    if np.any(w < 0):
        raise ValueError(f"{what} has negative entries")
    if exact is not None:
        for i, row in enumerate(exact):
            if sum(row) != 1:
                raise ValueError(f"{what} row {i} sums to {sum(row)}, not 1")
    else:
        sums = w.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(
                f"{what} row {bad} sums to {sums.flat[bad]!r}, "
                f"outside 1 +/- {_ROW_SUM_TOL}"
            )


@dataclass(frozen=True)
class DmcModel:
    """Point-to-point DMC with transition matrix ``w`` of shape (|X|, |Y|)."""

    w: np.ndarray
    w_exact: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 2:
            raise ValueError(f"transition matrix must be 2-d, got {self.w.shape}")
        _check_stochastic(self.w, self.w_exact, "transition matrix")

    @classmethod
    def from_rows(cls, rows) -> "DmcModel":
        w, exact = _parse_rows(rows)
        return cls(w, exact)

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    @property
    def output_size(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class MacModel:
    """Multiple-access channel: ``w`` has shape (|X_1|, ..., |X_K|, |Y|).

    The symmetric-K mode is the special case where all input alphabets share
    one size.
    """

    w: np.ndarray
    w_exact: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim < 2:
            raise ValueError(f"MAC tensor must have >= 2 dims, got {self.w.shape}")
        flat = self.w.reshape(-1, self.w.shape[-1])
        flat_exact = None
        if self.w_exact is not None:
            flat_exact = _flatten_exact(self.w_exact, self.w.ndim - 1)
        _check_stochastic(flat, flat_exact, "MAC tensor")

    @classmethod
    def from_rows(cls, rows) -> "MacModel":
        arr = np.asarray(_nested_floats(rows), dtype=np.float64)
        exact = _nested_exact(rows)
        return cls(arr, exact)

    @property
    def num_users(self) -> int:
        return self.w.ndim - 1

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.w.shape[:-1]

    @property
    def output_size(self) -> int:
        return self.w.shape[-1]

    def flatten(self) -> DmcModel:
        """View the MAC as a point-to-point channel over the product input
        alphabet, input tuples ordered lexicographically (last user fastest)."""
        flat = self.w.reshape(-1, self.output_size)
        flat_exact = None
        if self.w_exact is not None:
            flat_exact = _flatten_exact(self.w_exact, self.num_users)
        return DmcModel(flat, flat_exact)


def _nested_floats(rows):
    if isinstance(rows, (list, tuple)) and rows and isinstance(
        rows[0], (list, tuple)
    ):
        return [_nested_floats(r) for r in rows]
    return [_parse_entry(v)[0] for v in rows]


def _nested_exact(rows):
    if isinstance(rows, (list, tuple)) and rows and isinstance(
        rows[0], (list, tuple)
    ):
        subs = [_nested_exact(r) for r in rows]
        if any(s is None for s in subs):
            return None
        return tuple(subs)
    vals = [_parse_entry(v)[1] for v in rows]
    if any(v is None for v in vals):
        return None
    return tuple(vals)


def _flatten_exact(nest, depth: int):
    if depth == 1:
        return nest
    out = []
    for sub in nest:
        out.extend(_flatten_exact(sub, depth - 1))
    return tuple(out)


@dataclass(frozen=True)
class InputPmf:
    """Pmf over a finite input alphabet; optionally exact."""

    probs: np.ndarray
    exact: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.probs.ndim != 1:
            raise ValueError("pmf must be 1-d")
        if np.any(self.probs < 0):
            raise ValueError("pmf has negative entries")
        if self.exact is not None:
            if sum(self.exact) != 1:
                raise ValueError(f"exact pmf sums to {sum(self.exact)}, not 1")
        elif abs(self.probs.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError(
                f"pmf sums to {self.probs.sum()!r}, outside 1 +/- {_ROW_SUM_TOL}"
            )

    @classmethod
    def from_values(cls, values) -> "InputPmf":
        parsed = [_parse_entry(v) for v in values]
        floats = np.array([p[0] for p in parsed])
        exacts = [p[1] for p in parsed]
        if all(e is not None for e in exacts):
            return cls(floats, tuple(exacts))
        return cls(floats, None)

    @classmethod
    def uniform(cls, n: int) -> "InputPmf":
        return cls(np.full(n, 1.0 / n), tuple([Fraction(1, n)] * n))

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class Quantizer:
    """Surjection from GF(q) onto a channel input alphabet.

    Element ``g`` (as an integer in [0, q)) maps to the input symbol
    ``assignment[g]``; preimage sizes are ``counts``, so the induced pmf is
    ``counts[u] / q`` exactly.
    """

    field: FieldSpec
    counts: tuple[int, ...]
    assignment: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "assignment", np.asarray(self.assignment, dtype=np.int64)
        )
        if self.assignment.shape != (self.field.q,):
            raise ValueError("assignment must cover all q field elements")
        if any(c < 1 for c in self.counts):
            raise ValueError("every input symbol needs at least one preimage")
        if sum(self.counts) != self.field.q:
            raise ValueError("preimage counts must sum to q")
        tallies = np.bincount(self.assignment, minlength=len(self.counts))
        if tuple(int(t) for t in tallies) != tuple(self.counts):
            raise ValueError("assignment inconsistent with counts")

    @property
    def target_size(self) -> int:
        return len(self.counts)

    def apply(self, symbols):
        """Map field symbols (any integer array) to channel inputs."""
        return self.assignment[np.asarray(symbols, dtype=np.int64)]


def make_quantizer(field: FieldSpec, target_pmf: InputPmf) -> Quantizer:
    """Build the order-preserving block quantizer for a pmf with entries
    that are integer multiples of 1/q: field elements [0, N_0) map to the
    first input symbol, [N_0, N_0+N_1) to the second, and so on."""
    q = field.q
    counts = []
    for u in range(target_pmf.size):
        if target_pmf.exact is not None:
            scaled = target_pmf.exact[u] * q
            if scaled.denominator != 1:
                raise ValueError(
                    f"P_U({u}) = {target_pmf.exact[u]} is not an integer "
                    f"multiple of 1/q (q={q}); choose a larger field"
                )
            n_u = int(scaled)
        else:
            scaled = target_pmf.probs[u] * q
            n_u = round(scaled)
            if abs(scaled - n_u) > 1e-9:
                raise ValueError(
                    f"P_U({u}) = {target_pmf.probs[u]} is not an integer "
                    f"multiple of 1/q (q={q}); choose a larger field"
                )
        if n_u < 1:
            raise ValueError(f"P_U({u}) must be >= 1/q, got {target_pmf.probs[u]}")
        counts.append(n_u)
    if sum(counts) != q:
        raise ValueError(f"pmf multiples sum to {sum(counts)}/q, not 1")
    assignment = np.repeat(np.arange(len(counts)), counts)
    return Quantizer(field=field, counts=tuple(counts), assignment=assignment)


def induced_input_pmf(quantizer: Quantizer) -> InputPmf:
    """Exact pmf of the quantizer output under a uniform field symbol."""
    q = quantizer.field.q
    exact = tuple(Fraction(c, q) for c in quantizer.counts)
    return InputPmf(np.array([float(e) for e in exact]), exact)


def capacity(dmc: DmcModel) -> tuple[float, InputPmf]:
    """Channel capacity in nats and a capacity-achieving input pmf.

    Alternating maximization over the input pmf; stops when the gap between
    the running mutual information and its upper bound drops below
    ``_CAPACITY_TOL``.
    """
    w = dmc.w
    _check_stochastic(w, None, "transition matrix")
    nx = dmc.input_size
    r = np.full(nx, 1.0 / nx)
    logw = np.full_like(w, -np.inf)
    np.log(w, out=logw, where=w > 0)
    for _ in range(_CAPACITY_MAX_ITER):
        qy = r @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = logw - np.log(qy)[None, :]
            d = np.where(w > 0, w * lr, 0.0).sum(axis=1)
        lower = float(r @ d)
        upper = float(np.max(d))
        if upper - lower < _CAPACITY_TOL:
            return lower, InputPmf(r)
        r = r * np.exp(d - upper)
        r /= r.sum()
    raise RuntimeError(
        f"capacity iteration failed to converge in {_CAPACITY_MAX_ITER} steps"
    )


# -- serialization ------------------------------------------------------------


def _entry_to_json(v: float, exact: Fraction | None):
    if exact is not None:
        if exact.denominator == 1:
            return int(exact)
        return f"{exact.numerator}/{exact.denominator}"
    return v


def dmc_to_json(dmc: DmcModel) -> dict:
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


def mac_to_json(mac: MacModel) -> dict:
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


def channel_from_json(obj: dict):
    """Parse a channel file; returns DmcModel or MacModel by the shape of
    the "inputs" entry (scalar vs list)."""
    for key in ("inputs", "outputs", "rows"):
        if key not in obj:
            raise ValueError(f"channel file missing key {key!r}")
    inputs = obj["inputs"]
    if isinstance(inputs, list):
        mac = MacModel.from_rows(obj["rows"])
        if list(mac.input_sizes) != list(inputs) or mac.output_size != obj["outputs"]:
            raise ValueError(
                f"declared sizes inputs={inputs}, outputs={obj['outputs']} do not "
                f"match rows of shape {mac.w.shape}"
            )
        return mac
    dmc = DmcModel.from_rows(obj["rows"])
    if dmc.input_size != inputs or dmc.output_size != obj["outputs"]:
        raise ValueError(
            f"declared sizes inputs={inputs}, outputs={obj['outputs']} do not "
            f"match rows of shape {dmc.w.shape}"
        )
    return dmc


# -- convenience constructors -------------------------------------------------


def bsc(crossover) -> DmcModel:
    """Binary symmetric channel; exact when given a Fraction or "a/b"."""
    _, fr = _parse_entry(crossover)
    if fr is None:
        fr = Fraction(crossover).limit_denominator(10**12)
        if abs(float(fr) - crossover) > 1e-15:
            p = float(crossover)
            return DmcModel.from_rows([[1 - p, p], [p, 1 - p]])
    return DmcModel.from_rows([[1 - fr, fr], [fr, 1 - fr]])


def noiseless(n: int) -> DmcModel:
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return DmcModel.from_rows(eye)


def binary_adder_mac() -> MacModel:
    """Y = X1 + X2 over the integers: inputs {0,1}^2, outputs {0,1,2}."""
    one = Fraction(1)
    zero = Fraction(0)
    rows = [
        [[one, zero, zero], [zero, one, zero]],
        [[zero, one, zero], [zero, zero, one]],
    ]
    return MacModel.from_rows(rows)
