"""Window averages of real functions on the circle.

The basic operation replaces f(theta) by its average over the arc
[theta - eps, theta + eps] with half-width eps in (0, pi].  It comes in
three interchangeable forms: direct quadrature against a pointwise
evaluator, a diagonal multiplier sin(k eps)/(k eps) on coefficient
sequences, and the closed-form average of the piecewise-linear
interpolant on uniform grids, which a grid's evaluator carries for any
centres and half-widths.  `filter_limit` and `filtered_derivative_limit`
shrink the window at one point; the limits themselves are taken by
`_extrap`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (DomainError, EpsilonBelowResolution, QuadratureFailure,
                     UndefinedHere)
from .spectrum import (SEAM, TWO_PI, CoefficientSequence, EvaluatorFunction,
                       GridFunction, SingularPoint, check_half_width,
                       circle_distance, sinc, wrap_angle)

DEFAULT_EPS_SCHEDULE = (0.2, 0.1, 0.05, 0.025)


def kernel_filter_eval(f: EvaluatorFunction, theta: float,
                       eps: float) -> float:
    """Window average of a circle evaluator at one angle, by quadrature
    to `_quad.WINDOW_TOL` of the window's width.

    A non-integrable singular point anywhere in the closed window
    (endpoints count as inside) makes the average undefined.  Integrable
    singular points, spikes and interpolation pins become panel edges,
    so no quadrature abscissa ever lands on a removable defect.
    """
    check_half_width(eps)
    if not f.periodic:
        raise DomainError("kernel_filter_eval needs a full-circle evaluator; "
                          "use transport_filter for interval data")
    theta = wrap_angle(theta)
    lo, hi = theta - eps, theta + eps

    for s in f.singular_points:
        if not s.integrable and circle_distance(theta, s.theta) <= eps:
            raise UndefinedHere(
                f"non-integrable singular point at {s.theta} inside the "
                f"window of half-width {eps} around {theta}")

    # The pins and their 2-pi translates; `_quad` keeps those inside.
    # The width is hi - lo as computed: 2 eps can be an ulp(theta) off.
    from . import _quad
    pins = np.add.outer(f.pin_points(), TWO_PI * np.array([-1, 0, 1]))
    value, _ = _quad.integrate(lambda x: f.sample(wrap_angle(x)), lo, hi,
                               pins=np.unique(pins),
                               tol=_quad.WINDOW_TOL * (hi - lo))
    return value / (hi - lo)


def multiplier_filter(seq: CoefficientSequence, eps: float) -> CoefficientSequence:
    """Window average on the coefficient side: harmonic k is scaled by
    sin(k eps)/(k eps); the mean passes through unchanged."""
    check_half_width(eps)
    m = sinc(seq.k_values() * eps)
    return CoefficientSequence(seq.a0, seq.a * m, seq.b * m,
                               quadrature_error=seq.quadrature_error)


def _interpolant_windows(grid: GridFunction, c, q):
    """Exact averages of the grid's piecewise-linear interpolant over the
    index windows [c - q, c + q], NaN where a window has no average.

    Positions are in index units, node i at i; `c` and `q > 0`
    broadcast.  `c` None with a scalar `q` centres one window on every
    node, and those are read off the prefix arrays as slices.  The
    average is (F(c + q) - F(c - q)) / (2 q), F the interpolant's
    piecewise-quadratic antiderivative: a prefix sum of trapezoids over
    v - mean(v), extended floor(max q) + 2 nodes past each end so that
    no window wraps.  Taking out the mean keeps data with a large offset
    precise.  A running sum of K terms errs by up to (K - 1) u sum|terms|
    (Higham 2002, sec. 4.2), which a difference of two prefixes
    inherits, so the sum is compensated (sec. 4.3): the average errs by
    a few u times the mean of |v - mean(v)| over the window, for any
    grid size.

    Each window is placed from the node r nearest its centre, c = r + a
    with a exact, its ends at r + floor(q) + (a + frac(q)) and
    r - floor(q) + (a - frac(q)).  So the end pieces' fractions are
    exact to an ulp of the window's width, never to an ulp of c +- q,
    which on a large grid is an ulp of the node index.  A window inside
    one cell averages a linear piece, and is its value at c: the whole
    cell less two end pieces would cancel to an error of u |v| / q.

    A window reads the nodes ceil(c - q) - 1 .. floor(c + q) + 1 and
    has no average when any of them is undefined.
    """
    n = grid.n
    if c is not None:
        c, q = np.broadcast_arrays(c, q)
    qi = np.floor(q).astype(int)
    fq = q - qi
    pad = int(np.max(qi, initial=0)) + 2
    r = 0 if c is None else np.rint(c)
    a = 0.0 if c is None else c - r
    # The ends: c + q = jh + th and c - q = jl - tl with th, tl in [0, 1).
    # Position p of the extended arrays holds node (p - pad) mod n; hi
    # and lo are the positions of jh and jl - 1.
    s, d = a + fq, a - fq
    th, tl = s - np.floor(s), np.ceil(d) - d
    to_hi = pad + qi + np.floor(s).astype(int)
    to_lo = pad - qi - 1 + np.ceil(d).astype(int)
    if c is None:
        hi, lo = slice(to_hi, to_hi + n), slice(to_lo, to_lo + n)
    else:
        r = r.astype(int) % n
        hi, lo = r + to_hi, r + to_lo
    ext = np.arange(-pad, n + pad)
    # Prefix sums start at 0: bad_count[p], F[p] and E[p] sum the
    # positions before p.
    bad_count = np.zeros(ext.size + 1, dtype=int)
    np.cumsum(np.take(~grid.defined, ext, mode="wrap"), out=bad_count[1:])
    bad = bad_count[2:][hi] > bad_count[lo]

    v = np.where(grid.defined, grid.values, 0.0)
    mean = np.mean(v)
    w = np.take(v - mean, ext, mode="wrap")
    cells = 0.5 * (w[:-1] + w[1:])
    F = np.zeros(w.size)
    np.cumsum(cells, out=F[1:])
    # The exact rounding error of every step of the running sum, by
    # TwoSum, summed apart: F + E is the prefix to O(u^2).
    step = F[1:] - F[:-1]
    E = np.zeros(w.size)
    np.cumsum((F[:-1] - (F[1:] - step)) + (cells - step), out=E[1:])
    # Whole cells jl..jh plus the two end pieces.
    w_hi, w_lo = w[hi], w[1:][lo]
    span = (F[hi] - F[1:][lo]) + (E[hi] - E[1:][lo]) \
        + (th * w_hi + tl * w_lo) \
        + 0.5 * th * th * (w[1:][hi] - w_hi) + 0.5 * tl * tl * (w[lo] - w_lo)
    out = mean + span / (2.0 * q)
    if c is not None:
        inside = (qi == 0) & (np.abs(a) > fq)
        p, side = pad + r[inside], np.sign(a[inside]).astype(int)
        out[inside] = mean + (w[p] + np.abs(a[inside]) * (w[p + side] - w[p]))
    out[bad] = np.nan
    return out


def kernel_filter_grid(grid: GridFunction, eps: float) -> GridFunction:
    """Exact window average of the grid's piecewise-linear interpolant,
    centred at every node (see `_interpolant_windows`).

    Output nodes are undefined wherever an undefined input node lies
    within floor(q) + 1 of them, q = eps / h.  The window must span at
    least one grid cell.  On interval data (`grid.domain` set) wrapping
    would blend the two ends, so every node whose window, widened by
    the cell it reads on each side, touches the seam is undefined too,
    and the note says "boundary-masked".
    """
    check_half_width(eps)
    h = TWO_PI / grid.n
    if eps < h:
        raise EpsilonBelowResolution(
            f"half-width {eps} below the grid spacing {h:.6g}; "
            "the window would see no neighbouring node")
    out = _interpolant_windows(grid, None, eps / h)
    note = f"filtered(eps={eps:.17g}) {grid.note}".strip()
    if grid.domain is not None:
        out[circle_distance(grid.thetas(), math.pi) <= eps + h] = np.nan
        note += " boundary-masked"
    return GridFunction(values=out, defined=~np.isnan(out),
                        singular_points=grid.singular_points, note=note,
                        domain=grid.domain)


def window_averages(f: EvaluatorFunction, thetas, eps) -> np.ndarray:
    """Window averages of f at centres `thetas` (N,) and half-widths
    `eps` (m, N), one column per centre, NaN throughout where any of its
    windows has no average.

    Uses the evaluator's exact `window_average` when it has one, with
    every window that meets a declared non-integrable point masked as
    `kernel_filter_eval` refuses it; otherwise `kernel_filter_eval`.
    """
    eps = np.asarray(eps, dtype=float)
    check_half_width(eps)
    if f.window_average is None:
        out = np.full(eps.shape, np.nan)
        for j, theta in enumerate(thetas):
            try:
                out[:, j] = [kernel_filter_eval(f, float(theta), float(e))
                             for e in eps[:, j]]
            except (UndefinedHere, QuadratureFailure):
                pass
        return out
    out = f.window_average(thetas, eps)
    for s in f.singular_points:
        if not s.integrable:
            out[circle_distance(thetas, s.theta) <= eps] = np.nan
    out[:, np.isnan(out).any(axis=0)] = np.nan
    return out


def filter_limit(f: EvaluatorFunction, theta: float,
                 eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE):
    """Limit of window averages at `theta` as the window shrinks.

    Returns (value, residual).  The residual is the last extrapolation
    correction, an honest error scale for the reported value.
    UndefinedHere, with its reason, where a window meets a
    non-integrable point.
    """
    from ._extrap import check_eps_schedule, extrapolated_limit
    es = check_eps_schedule(eps_schedule)
    vals = [kernel_filter_eval(f, theta, e) for e in es]
    return extrapolated_limit(es, vals)


def filtered_derivative_limit(f: EvaluatorFunction, theta: float,
                              eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE):
    """Limit of the derivative of the window average as the window shrinks.

    The derivative of the window average at its centre is exactly the
    endpoint difference (f(theta+eps) - f(theta-eps)) / (2 eps), so no
    quadrature is involved.  UndefinedHere if an endpoint lands on a
    declared singular point or on a point without a value; NoConvergence
    where the endpoint differences blow up (one-sided jumps).
    """
    from ._extrap import check_eps_schedule, extrapolated_limit
    es = check_eps_schedule(eps_schedule)
    vals = []
    for e in es:
        hi, lo = wrap_angle(theta + e), wrap_angle(theta - e)
        for s in f.singular_points:
            if circle_distance(hi, s.theta) < 1e-12 \
                    or circle_distance(lo, s.theta) < 1e-12:
                raise UndefinedHere(
                    f"window endpoint at half-width {e} hits the singular "
                    f"point {s.theta}")
        dv = (f(hi) - f(lo)) / (2.0 * e)
        if not np.isfinite(dv):
            raise UndefinedHere(
                f"no value at a window endpoint for half-width {e}")
        vals.append(dv)
    return extrapolated_limit(es, vals)


def grid_evaluator(grid: GridFunction) -> EvaluatorFunction:
    """Piecewise-linear periodic interpolant through the grid nodes.

    Between a defined node and an undefined one the interpolant has no
    value.  Its window averages are exact (`_interpolant_windows`); every
    node is also a quadrature pin, so that quadrature, their independent
    reference, integrates it exactly piece by piece.  On interval data
    (`grid.domain` set) both seam ends are declared non-integrable, so
    no window average blends the two ends.
    """
    n = grid.n
    h = TWO_PI / n
    values = np.where(grid.defined, grid.values, 0.0)
    defined = grid.defined

    def rule(th):
        th = np.asarray(th, dtype=float)
        pos = (wrap_angle(th) + math.pi) / h
        i0 = np.floor(pos).astype(int) % n
        t = pos - np.floor(pos)
        i1 = (i0 + 1) % n
        out = (1.0 - t) * values[i0] + t * values[i1]
        bad = ~defined[i0] | ((t > 0) & ~defined[i1])
        return np.where(bad, np.nan, out)

    def window_average(thetas, eps):
        c = (wrap_angle(thetas) + math.pi) / h
        return _interpolant_windows(grid, c, np.asarray(eps) / h)

    return EvaluatorFunction(
        rule=rule,
        singular_points=tuple(SingularPoint(s) for s in grid.singular_points)
        + (() if grid.domain is None else SEAM),
        quadrature_pins=tuple(float(t) for t in grid.thetas()),
        name="grid-interpolant", window_average=window_average)
