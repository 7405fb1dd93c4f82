"""Composite Gauss-Legendre panel quadrature with pinned panel boundaries.

All integrals in this package go through :func:`refine`, the one
panel-doubling loop; :func:`integrate` is its scalar form.  Panels are
pinned at declared trouble points (jumps, kinks, poles, interpolation
nodes) so that sample abscissae never land on them: Gauss-Legendre nodes
are strictly interior to each panel.  Refinement doubles the panel count
until two consecutive levels agree to the requested tolerance.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import QuadratureFailure

GAUSS_ORDER = 16
MAX_DOUBLINGS = 12

# The quadrature tolerance of every window average, relative to the
# window's width.
WINDOW_TOL = 1e-12


@cache
def _gauss_rule():
    """Reference nodes and weights on [-1, 1], built on first use so that
    import loads no `numpy.polynomial`; shared, so never written to."""
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _panel_samples(edges):
    """Map the reference Gauss rule onto every panel described by `edges`.

    Returns (x, w) flat arrays of sample abscissae and weights.
    """
    nodes, weights = _gauss_rule()
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    x = mid[:, None] + half[:, None] * nodes[None, :]
    w = half[:, None] * weights[None, :]
    return x.ravel(), w.ravel()


def _initial_edges(lo, hi, pins, base_panels):
    pins = np.asarray(sorted(p for p in pins if lo < p < hi), dtype=float)
    anchors = np.concatenate(([lo], pins, [hi]))
    pieces = []
    for a, b in zip(anchors[:-1], anchors[1:]):
        pieces.append(np.linspace(a, b, base_panels + 1)[:-1])
    pieces.append(np.array([hi]))
    return np.concatenate(pieces)


def _refine(edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def refine(level, lo, hi, pins=(), tol=1e-10, base_panels=1):
    """Double the panels over [lo, hi] until two levels agree to `tol`.

    `level(x, w)` maps one panel set's flat sample abscissae and weights
    to a float or an array; the estimate is the worst entry of the
    difference of two consecutive levels.  Returns (value, estimate) of
    the last level.  Raises QuadratureFailure as soon as that difference
    is not finite (an undefined sample stays at every level), or when
    the doubling budget runs out above `tol`.
    """
    edges = _initial_edges(lo, hi, pins, base_panels)
    value = level(*_panel_samples(edges))
    estimate = np.inf
    for _ in range(MAX_DOUBLINGS):
        edges = _refine(edges)
        new = level(*_panel_samples(edges))
        diff = abs(new - value)
        estimate = float(diff.max()) if isinstance(diff, np.ndarray) else diff
        value = new
        if not math.isfinite(estimate):
            raise QuadratureFailure(
                f"non-finite level difference {estimate}: the integrand "
                "is undefined or infinite on the range", estimate=estimate)
        if estimate <= tol:
            return value, estimate
    raise QuadratureFailure(
        f"panel refinement exhausted ({MAX_DOUBLINGS} doublings), "
        f"estimate {estimate:.3e} > tol {tol:.3e}", estimate=estimate)


def integrate(fn, lo, hi, pins=(), tol=1e-10):
    """Integrate `fn` over [lo, hi] with panel boundaries pinned at `pins`.

    Parameters
    ----------
    fn : callable
        Vectorized integrand, ndarray in, ndarray out.
    lo, hi : float
        Integration limits, lo < hi.
    pins : iterable of float
        Points that must coincide with panel boundaries.  Only pins
        strictly inside (lo, hi) matter; the limits are boundaries anyway.
    tol : float
        Absolute tolerance on the difference of two consecutive
        refinement levels.

    Returns
    -------
    (value, estimate) : tuple of float
        The integral and the last inter-level difference.

    Raises
    ------
    QuadratureFailure
        See :func:`refine`.
    """
    return refine(lambda x, w: float(np.dot(w, fn(x))), lo, hi, pins=pins,
                  tol=tol)
