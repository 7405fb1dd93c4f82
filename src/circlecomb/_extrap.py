"""Shrinking-window limits: value sequences extrapolated to zero width.

Window averages of a function that is smooth at the evaluation point
expand in even powers of the window half-width, so extrapolating in the
squared parameter converges fastest there.  At kinks the expansion
picks up odd powers and the even model stalls; plain polynomial
extrapolation in the parameter itself handles those.
`extrapolated_limits` runs both and keeps whichever settles better,
judged by the divergence and concentrated-mass heuristics below.  This
module is the one place for those limits: the schedule check, the
Neville tableau (a row at a time), the model choice and the heuristics
(least-squares fits on the base schedule), over one column per node.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NoConvergence


def neville_to_zero(xs, values):
    """Extrapolate values sampled at xs > 0 to x = 0.

    `values` has shape (m,) or (m, n) with one row per sample, and `xs`
    shape (m,) or that of `values` (one schedule per column).  Returns
    (value, correction, grew): the running extrapolant's change at the
    last level, the usual residual estimate, and whether every level
    changed it strictly more than the one before (False for m < 3).
    """
    xs = np.asarray(xs, dtype=float)
    p = np.array(values, dtype=float)
    m = len(xs)
    correction, grew = -np.inf, m > 2
    for lev in range(1, m):
        prev = p[m - lev]
        for i in range(m - lev):
            p[i] = p[i + 1] + (p[i + 1] - p[i]) * xs[i + lev] / (xs[i] - xs[i + lev])
        change = np.abs(p[m - lev - 1] - prev)
        grew = grew & (change > correction)
        correction = change
    return p[0].copy(), correction, grew


# Corrections below this never count as a blowup, however they grow.
_DIVERGENCE_FLOOR = 1e-8
# Columns per concentrated-mass fit: a block's copy stays small.
_BLOCK = 4096


def mass_signatures(es, samples, tol):
    """Per column of `samples` (m, N): True when its window averages
    grow like concentrated mass at the point.

    Mass lodged at the evaluation point itself (a jump's one-sided
    difference, an outlier sample under an interpolant) makes the
    average follow c + A/eps: the excess is spread over the window, so
    halving the window doubles its share.  Polynomial extrapolation fits
    such data deceptively well — its corrections shrink — so divergence
    has to be read off the structure of the samples instead.  The fit
    separates the growth from the smooth background (constant plus
    eps^2); the flag needs the growth term to dominate both the fit
    residual and `tol` (a scalar or one per column), and the residual
    to be structurally small next to the growth, which keeps any
    amplitude of smooth or kinked data unflagged (both guards scale
    linearly with the data).  A column's own scale on the base schedule
    `es` (m,) only rescales the basis, so one fit on `es` serves `_BLOCK`
    columns.  Infinite tol or fewer than 4 samples: not fitted, no flag.
    """
    tol = np.broadcast_to(tol, samples.shape[1:])
    flags = np.zeros(tol.shape, dtype=bool)
    if len(es) < 4:
        return flags
    basis = np.column_stack([np.ones(es.size), es ** 2, 1.0 / es])
    cols = np.flatnonzero(tol < np.inf)
    for lo in range(0, cols.size, _BLOCK):
        block = cols[lo:lo + _BLOCK]
        vals = samples[:, block]
        coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        vals -= basis @ coef
        resid = np.sqrt(np.sum(vals * vals, axis=0))
        growth = np.abs(coef[2]) * (1.0 / es[-1] - 1.0 / es[0])
        flags[block] = (growth > 4.0 * (resid + tol[block])) \
            & (resid <= 0.01 * growth)
    return flags


def check_eps_schedule(eps_schedule) -> np.ndarray:
    """The schedule as an array; DomainError unless it holds >= 3
    strictly decreasing half-widths in (0, pi]."""
    es = np.asarray(eps_schedule, dtype=float)
    if es.size < 3 or not np.all((es > 0) & (es <= math.pi)) \
            or not np.all(np.diff(es) < 0):
        raise DomainError("shrinking-window schedule must be >= 3 strictly "
                          "decreasing half-widths in (0, pi]")
    return es


def extrapolated_limits(es, scale, samples):
    """Shrinking-window limits column by column, from window averages
    `samples` (m, N) at half-widths `es[:, None] * scale`: the base
    schedule `es` (m,) times one scale per column (N,).

    Runs the even-power model (polynomial in eps^2, right for windows
    centred at smooth points) and the plain polynomial model (right at
    kinks, where odd powers appear) and keeps whichever one's own last
    correction is smaller.  Returns (values, corrections, settled), the
    last correction of the kept model per column.  A column is not
    settled when it holds NaN, when the kept tableau's corrections grow
    instead of shrinking, or when an unsettled tableau sits on samples
    with the concentrated-mass signature (growth like 1/eps, which
    polynomial extrapolation fits deceptively well).
    """
    # The poly model first, so the even model's squares can take the
    # half-widths' place: one (m, N) schedule is held, not two.
    eps = es[:, None] * scale
    v_poly, c_poly, g_poly = neville_to_zero(eps, samples)
    eps *= eps
    v_even, c_even, g_even = neville_to_zero(eps, samples)
    poly = c_poly < c_even
    values = np.where(poly, v_poly, v_even)
    corr = np.where(poly, c_poly, c_even)
    diverging = np.where(poly, g_poly, g_even) & (
        corr > np.maximum(_DIVERGENCE_FLOOR, 0.1 * (1.0 + np.abs(values))))
    settled = np.isfinite(corr) & ~diverging
    suspect = settled & (corr > 1e-3 * (1.0 + np.abs(values)))
    # The largest |sample| of each column, with no (m, N) temporary.
    top = np.maximum(np.max(samples, axis=0), -np.min(samples, axis=0))
    settled &= ~mass_signatures(
        es, samples, np.where(suspect, 1e-9 * (1.0 + top), np.inf))
    return values, corr, settled


def extrapolated_limit(eps_values, samples):
    """`extrapolated_limits` of one schedule: returns (value, correction)
    and raises NoConvergence where that column is not settled."""
    es = np.asarray(eps_values, dtype=float)
    vals = np.asarray(samples, dtype=float)[:, None]
    values, corr, settled = extrapolated_limits(es, np.ones(1), vals)
    if not settled[0]:
        raise NoConvergence(
            "window averages do not settle (growing corrections or "
            f"concentrated mass at the point): {vals[:, 0].tolist()}")
    return float(values[0]), float(corr[0])
