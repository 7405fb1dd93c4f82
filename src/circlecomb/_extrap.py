"""Shrinking-window limits: value sequences extrapolated to zero width.

Window averages of a function that is smooth at the evaluation point
expand in even powers of the window half-width, so extrapolating in the
squared parameter converges fastest there.  At kinks the expansion
picks up odd powers and the even model stalls; plain polynomial
extrapolation in the parameter itself handles those.
`extrapolated_limits` runs both and keeps whichever settles better,
judged by the divergence and concentrated-mass heuristics below.  This
module is the one place for those limits: the schedule check, the
Neville tableau, the model choice and the heuristics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NoConvergence


def neville_to_zero(xs, values):
    """Extrapolate values sampled at xs > 0 to x = 0.

    `values` has shape (m,) or (m, n) with one row per sample, and `xs`
    shape (m,) or that of `values` (one schedule per column).  Returns
    (value, corrections) where corrections[j] is the change of the
    running extrapolant at level j+1; the last one is the usual
    residual estimate.
    """
    xs = np.asarray(xs, dtype=float)
    p = np.array(values, dtype=float)
    m = len(xs)
    corrections = []
    for lev in range(1, m):
        prev = p[-1]
        for i in range(m - lev):
            p[i] = p[i + 1] + (p[i + 1] - p[i]) * xs[i + lev] / (xs[i] - xs[i + lev])
        p = p[:m - lev]
        corrections.append(np.abs(p[-1] - prev))
    return p[-1], corrections


# Corrections below this never count as a blowup, however they grow.
_DIVERGENCE_FLOOR = 1e-8


def diverging(corrections, values):
    """Per column of the `neville_to_zero` corrections: they strictly grow
    and end up large vs the extrapolated value."""
    c = np.asarray(corrections, dtype=float)
    growing = np.all(c[1:] > c[:-1], axis=0) & (len(c) >= 2)
    return growing & (c[-1] > np.maximum(_DIVERGENCE_FLOOR,
                                         0.1 * (1.0 + np.abs(values))))


def mass_signature(eps_values, samples, tol):
    """True when window averages grow like concentrated mass at the point.

    Mass lodged at the evaluation point itself (a jump's one-sided
    difference, an outlier sample under an interpolant) makes the
    average follow c + A/eps: the excess is spread over the window, so
    halving the window doubles its share.  Polynomial extrapolation fits
    such data deceptively well — its corrections shrink — so divergence
    has to be read off the structure of the samples instead.  The fit
    separates the growth from the smooth background (constant plus
    eps^2); the flag needs the growth term to dominate both the fit
    residual and the tolerance, and the residual to be structurally
    small next to the growth, which keeps any amplitude of smooth or
    kinked data unflagged (both guards scale linearly with the data).
    """
    es = np.asarray(eps_values, dtype=float)
    vals = np.asarray(samples, dtype=float)
    if es.size < 4:
        return False
    basis = np.column_stack([np.ones(es.size), es ** 2, 1.0 / es])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    resid = float(np.sqrt(np.sum((vals - basis @ coef) ** 2)))
    growth = abs(float(coef[2])) * (1.0 / es[-1] - 1.0 / es[0])
    return growth > 4.0 * (resid + tol) and resid <= 0.01 * growth


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
    v_even, c_even = neville_to_zero(eps * eps, samples)
    v_poly, c_poly = neville_to_zero(eps, samples)
    poly = c_poly[-1] < c_even[-1]
    values = np.where(poly, v_poly, v_even)
    corr = np.where(poly, c_poly, c_even)
    settled = np.isfinite(corr[-1]) & ~diverging(corr, values)
    suspect = settled & (corr[-1] > 1e-3 * (1.0 + np.abs(values)))
    mass_tol = 1e-9 * (1.0 + np.max(np.abs(samples), axis=0))
    for j in np.flatnonzero(suspect):
        settled[j] = not mass_signature(eps[:, j], samples[:, j], mass_tol[j])
    return values, corr[-1], settled


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
