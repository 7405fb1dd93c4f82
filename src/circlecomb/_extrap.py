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
(one least-squares fit per distinct schedule), over one column per node.
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


def mass_signatures(eps, samples, tol):
    """Per column of `samples` (m, N): True when its window averages at
    half-widths `eps` (m, N) grow like concentrated mass at the point.

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
    linearly with the data).  Columns sharing a schedule share one fit;
    an infinite tol or fewer than 4 samples never flag, and go unfitted.
    """
    tol = np.broadcast_to(tol, samples.shape[1:])
    flags = np.zeros(tol.shape, dtype=bool)
    cols = np.flatnonzero(tol < np.inf)
    if len(eps) < 4 or not cols.size:
        return flags
    # Equal schedules end up adjacent; a group starts where a row changes.
    cols = cols[np.lexsort([row[cols] for row in eps])]
    starts = np.zeros(cols.size, dtype=bool)
    for e in (row[cols] for row in eps):
        starts[1:] |= e[1:] != e[:-1]
    for group in np.split(cols, np.flatnonzero(starts)):
        es = eps[:, group[0]]
        basis = np.column_stack([np.ones(es.size), es ** 2, 1.0 / es])
        vals = samples[:, group]
        coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        vals -= basis @ coef
        resid = np.sqrt(np.sum(vals * vals, axis=0))
        growth = np.abs(coef[2]) * (1.0 / es[-1] - 1.0 / es[0])
        flags[group] = (growth > 4.0 * (resid + tol[group])) \
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


def extrapolated_limits(eps, samples):
    """Shrinking-window limits column by column, from window averages
    `samples` (m, N) at half-widths `eps` of the same shape.

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
    v_even, c_even, g_even = neville_to_zero(eps * eps, samples)
    v_poly, c_poly, g_poly = neville_to_zero(eps, samples)
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
        eps, samples, np.where(suspect, 1e-9 * (1.0 + top), np.inf))
    return values, corr, settled


def extrapolated_limit(eps_values, samples):
    """`extrapolated_limits` of one schedule: returns (value, correction)
    and raises NoConvergence where that column is not settled."""
    es = np.asarray(eps_values, dtype=float)[:, None]
    vals = np.asarray(samples, dtype=float)[:, None]
    values, corr, settled = extrapolated_limits(es, vals)
    if not settled[0]:
        raise NoConvergence(
            "window averages do not settle (growing corrections or "
            f"concentrated mass at the point): {vals[:, 0].tolist()}")
    return float(values[0]), float(corr[0])
