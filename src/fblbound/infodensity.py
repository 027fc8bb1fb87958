"""Information-density tables and moment summaries for point-to-point and
two-user multiple-access channels.

All quantities are in nats.  An information density is ln of a likelihood
ratio; output symbols the channel cannot produce under a given input get a
-inf sentinel, and such zero-probability atoms are excluded from every
moment sum.  Third-order bound constants are built from the Berry-Esseen
constant 0.5583 for sums of independent (not necessarily identical) terms.

The error events every bound family shares live here (``EVENTS``): the
users whose codewords are wrong, one event for a point-to-point channel,
three for a two-user MAC (user 1, user 2, both).  Event E's information
density is ln W(y|x) - ln P(y|x_rest), P(y|x_rest) averaging W over x_E
(``average_inputs``).  Moments, Gallager's E0 and the RCU competitor
tails are all taken per event.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import DmcModel, InputPmf, MacModel

BERRY_ESSEEN_C0 = 0.5583

LN2 = math.log(2.0)

# Error events per number of users: the users whose codewords are wrong.
EVENTS = {1: ((0,),), 2: ((0,), (1,), (0, 1))}


def average_inputs(arr: np.ndarray, probs, axes) -> np.ndarray:
    """Average the input axes ``axes`` (ascending) of ``arr`` against
    their pmfs: axis u against ``probs[u]``.  The other axes keep their
    order.

    Per axis this is the one ``np.dot`` that ``np.tensordot`` would make:
    the pmf as a (1, N) row against ``arr`` with that axis moved to the
    front and the others flattened, (N, rest)."""
    for k, u in enumerate(axes):
        ax, p = u - k, probs[u]
        order = (ax, *range(ax), *range(ax + 1, arr.ndim))
        shape = arr.shape[:ax] + arr.shape[ax + 1:]
        arr = np.dot(p.reshape(1, p.size),
                     arr.transpose(order).reshape(p.size, -1)).reshape(shape)
    return arr


def _check_sizes(w: np.ndarray, pmfs) -> list:
    """The pmfs' probability vectors, checked against ``w``'s input axes."""
    sizes = tuple(p.size for p in pmfs)
    if w.shape[:-1] != sizes:
        raise ValueError(
            f"input pmf sizes {sizes} do not match the channel's input "
            f"alphabets {w.shape[:-1]}"
        )
    return [p.probs for p in pmfs]


def _event_tables(w: np.ndarray, probs) -> list:
    """Per event, the table ln W(y|x) - ln P(y|x_rest) shaped like ``w``.

    Entries with W(y|x) = 0 are -inf; entries where P(y|x_rest) = 0 while
    W(y|x) > 0 (possible only off the support of the input pmfs) are +inf.
    """
    tables = []
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(w)
        for event in EVENTS[len(probs)]:
            denom = np.expand_dims(average_inputs(w, probs, event), event)
            tab = np.where(w == 0, -np.inf, logw - np.log(denom))
            tables.append(np.where((w > 0) & (denom == 0), np.inf, tab))
    return tables


def _moments(w: np.ndarray, probs):
    """Moments of the event information densities under P_1 x ... x W, by
    exact summation over the supported cells: (means, covariance, third
    absolute central moments, variance conditional on each output with
    nan off the output support, per-event minimum of those)."""
    tables = _event_tables(w, probs)
    joint = functools.reduce(np.multiply.outer, probs)[..., None] * w
    mask = joint > 0
    means = np.array([float(np.sum(joint * np.where(mask, tab, 0.0),
                                   where=mask)) for tab in tables])
    centered = [np.where(mask, tab - mu, 0.0)
                for tab, mu in zip(tables, means)]
    cov = np.array([[float(np.sum(joint * (ca * cb), where=mask))
                     for cb in centered] for ca in centered])
    thirds = np.array([float(np.sum(joint * np.abs(c) ** 3, where=mask))
                       for c in centered])
    py = joint.sum(axis=tuple(range(len(probs))))
    cond_var = np.full((len(tables), py.size), np.nan)
    for y in np.flatnonzero(py > 0):
        pxy = joint[..., y] / py[y]
        m = mask[..., y]
        for k, tab in enumerate(tables):
            mu = float(np.sum(pxy * np.where(m, tab[..., y], 0.0), where=m))
            dev = np.where(m, tab[..., y] - mu, 0.0)
            cond_var[k, y] = float(np.sum(pxy * dev**2, where=m))
    return means, cov, thirds, cond_var, np.fmin.reduce(cond_var, axis=1)


@dataclass(frozen=True)
class MomentSet:
    """Moments of the single-letter information density under P_X x W.

    ``be_term`` is the Berry-Esseen ratio C0 * third_abs_moment /
    variance^{3/2}; ``tail_prefactor`` is the constant
    2 (ln2 / sqrt(2 pi variance) + 2 be_term) multiplying 1/sqrt(n) in the
    clipped-tail-expectation estimate.  Both are None when variance is 0.
    """

    mean: float
    variance: float
    cond_var_by_output: np.ndarray
    cond_var_min: float
    third_abs_moment: float
    be_term: float | None
    tail_prefactor: float | None


def _tail_constants(variance: float, third: float):
    if variance <= 0.0:
        return None, None
    be = BERRY_ESSEEN_C0 * third / variance**1.5
    pref = 2.0 * (LN2 / math.sqrt(2.0 * math.pi * variance) + 2.0 * be)
    return be, pref


def ppc_moments(dmc: DmcModel, pmf: InputPmf) -> MomentSet:
    """Mean, variance, per-output conditional variances, and third absolute
    moment of i(X;Y), plus the derived bound constants."""
    means, cov, thirds, cond_var, cond_min = _moments(
        dmc.w, _check_sizes(dmc.w, (pmf,)))
    variance = float(cov[0, 0])
    third = float(thirds[0])
    be, pref = _tail_constants(variance, third)
    return MomentSet(
        mean=float(means[0]),
        variance=max(variance, 0.0),
        cond_var_by_output=cond_var[0],
        cond_var_min=float(cond_min[0]),
        third_abs_moment=third,
        be_term=be,
        tail_prefactor=pref,
    )


@dataclass(frozen=True)
class MacMomentSet:
    """Moments of the two-user info-density vector
    (i(X1;Y|X2), i(X2;Y|X1), i(X1,X2;Y)).

    ``means`` and ``third_abs_moments`` are length-3 arrays in that order;
    ``cov`` is the 3x3 covariance; ``cond_var_by_output`` has shape (3, |Y|)
    with the variance of each coordinate conditional on Y=y (nan off the
    output support) and ``cond_var_min`` the per-coordinate minima;
    ``tail_prefactors`` are the per-coordinate 1/sqrt(n) constants (nan when
    the matching diagonal variance vanishes).
    """

    means: np.ndarray
    cov: np.ndarray
    third_abs_moments: np.ndarray
    cond_var_by_output: np.ndarray
    cond_var_min: np.ndarray
    tail_prefactors: np.ndarray


def mac_moments(mac: MacModel, pmf1: InputPmf, pmf2: InputPmf) -> MacMomentSet:
    """All first/second/third moments of the info-density vector by exact
    summation over (x1, x2, y) with independent inputs."""
    if mac.num_users != 2:
        raise ValueError(f"need a 2-user MAC, got {mac.num_users} users")
    means, cov, thirds, cond_var, cond_min = _moments(
        mac.w, _check_sizes(mac.w, (pmf1, pmf2)))
    # nan where the variance vanishes and _tail_constants gives None
    prefs = np.array([_tail_constants(float(v), float(t))[1] or np.nan
                      for v, t in zip(np.diag(cov), thirds)])
    return MacMomentSet(
        means=means,
        cov=cov,
        third_abs_moments=thirds,
        cond_var_by_output=cond_var,
        cond_var_min=cond_min,
        tail_prefactors=prefs,
    )
