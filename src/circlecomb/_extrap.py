"""Polynomial extrapolation of parameter-indexed value sequences to zero.

Two models are used in this package.  Window averages of a function
that is smooth at the evaluation point expand in even powers of the
window half-width, so extrapolating in the squared parameter converges
fastest there.  At kinks the expansion picks up odd powers and the even
model stalls; plain polynomial extrapolation in the parameter itself
handles those.  `realfilter.extrapolated_limits` is the one place that
runs both and keeps whichever settles better; this module holds the
Neville tableau and the divergence and concentrated-mass heuristics it
judges them with.
"""

from __future__ import annotations

import numpy as np


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
