"""Window averages of real functions on the circle.

The basic operation replaces f(theta) by its average over the arc
[theta - eps, theta + eps] with half-width eps in (0, pi].  It comes in
three interchangeable forms: direct quadrature against a pointwise
evaluator, a diagonal multiplier sin(k eps)/(k eps) on coefficient
sequences, and the closed-form average of the piecewise-linear
interpolant on uniform grids.  Shrinking-window limits with polynomial
extrapolation recover pointwise values where the function is tame and
expose defects where it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _quad
from ._extrap import diverging, mass_signature, neville_to_zero
from .errors import (DomainError, EpsilonBelowResolution, NoConvergence,
                     UndefinedHere)
from .spectrum import (TWO_PI, CoefficientSequence, EvaluatorFunction,
                       SingularPoint, circle_distance, grid_nodes, sinc,
                       wrap_angle)

DEFAULT_EPS_SCHEDULE = (0.2, 0.1, 0.05, 0.025)

DEFAULT_FILTER_TOL = 1e-12


@dataclass(frozen=True)
class GridFunction:
    """Sampled values on the uniform symmetric grid of `grid_nodes`.

    `defined` marks nodes carrying a value; values are NaN elsewhere and
    must be finite wherever defined.  `singular_points` carries declared
    jump/kink angles through grid-level operations (grids cannot encode
    non-integrable points, their values are finite by construction).
    """

    values: np.ndarray
    defined: np.ndarray
    singular_points: tuple = ()
    note: str = ""

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        d = np.array(self.defined, dtype=bool)
        if v.ndim != 1 or v.shape != d.shape or v.size < 2:
            raise DomainError("grid needs matching 1-D values and mask, "
                              "at least 2 nodes")
        if not np.all(np.isfinite(v[d])):
            raise DomainError("grid values must be finite wherever defined")
        v[~d] = np.nan
        v.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "defined", d)
        object.__setattr__(self, "singular_points",
                           tuple(float(s) for s in self.singular_points))

    @property
    def n(self):
        return self.values.size

    def thetas(self):
        return grid_nodes(self.n)


@dataclass(frozen=True)
class FilterSpec:
    """Half-width plus the route used to apply the window average."""

    epsilon: float
    method: str = "kernel"

    def __post_init__(self):
        if not (0.0 < self.epsilon <= math.pi):
            raise DomainError(f"window half-width {self.epsilon} "
                              "outside (0, pi]")
        if self.method not in ("kernel", "multiplier"):
            raise DomainError(f"unknown filter method {self.method!r}")


def _window_copies(point, lo, hi, closed):
    """2-pi translates of `point` that land in the window [lo, hi]."""
    out = []
    for m in (-1, 0, 1):
        x = point + TWO_PI * m
        inside = (lo <= x <= hi) if closed else (lo < x < hi)
        if inside:
            out.append(x)
    return out


def kernel_filter_eval(f: EvaluatorFunction, theta: float, eps: float,
                       tol: float = 1e-10) -> float:
    """Window average of a circle evaluator at one angle, by quadrature.

    A non-integrable singular point anywhere in the closed window
    (endpoints count as inside) makes the average undefined.  Integrable
    singular points, spikes and interpolation pins become panel edges,
    so no quadrature abscissa ever lands on a removable defect.
    """
    if not (0.0 < eps <= math.pi):
        raise DomainError(f"window half-width {eps} outside (0, pi]")
    if not f.periodic:
        raise DomainError("kernel_filter_eval needs a full-circle evaluator; "
                          "use transport_filter for interval data")
    theta = wrap_angle(theta)
    lo, hi = theta - eps, theta + eps

    for s in f.singular_points:
        if not s.integrable and _window_copies(s.theta, lo, hi, closed=True):
            raise UndefinedHere(
                f"non-integrable singular point at {s.theta} inside the "
                f"window of half-width {eps} around {theta}")

    pins = set()
    for p in f.pin_points():
        pins.update(_window_copies(p, lo, hi, closed=False))

    value, _ = _quad.integrate(lambda x: f.sample(wrap_angle(x)), lo, hi,
                               pins=tuple(sorted(pins)),
                               tol=tol * 2.0 * eps)
    return value / (2.0 * eps)


def multiplier_filter(seq: CoefficientSequence, eps: float) -> CoefficientSequence:
    """Window average on the coefficient side: harmonic k is scaled by
    sin(k eps)/(k eps); the mean passes through unchanged."""
    if not (0.0 < eps <= math.pi):
        raise DomainError(f"window half-width {eps} outside (0, pi]")
    m = sinc(seq.k_values() * eps)
    return CoefficientSequence(seq.a0, seq.a * m, seq.b * m,
                               quadrature_error=seq.quadrature_error)


def kernel_filter_grid(grid: GridFunction, eps: float) -> GridFunction:
    """Exact window average of the grid's piecewise-linear interpolant.

    With q = eps / h in index units, the average at node i is
    (F(i + q) - F(i - q)) / (2 q), F the interpolant's piecewise-quadratic
    antiderivative: a prefix sum of trapezoids over v - mean(v), extended
    floor(q) + 1 nodes past each end so that no window wraps.  Taking out
    the mean keeps data with a large offset precise.  A running sum of K
    terms errs by up to (K - 1) u sum|terms| (Higham 2002, sec. 4.2),
    which a difference of two prefixes inherits, so the sum is
    compensated (sec. 4.3): the average errs by a few u times the mean
    of |v - mean(v)| over the window, for any grid size.

    Output nodes are undefined wherever an undefined input node lies
    within floor(q) + 1 of them.  The window must span at least one
    grid cell.
    """
    if not (0.0 < eps <= math.pi):
        raise DomainError(f"window half-width {eps} outside (0, pi]")
    n = grid.n
    h = TWO_PI / n
    if eps < h:
        raise EpsilonBelowResolution(
            f"half-width {eps} below the grid spacing {h:.6g}; "
            "the window would see no neighbouring node")

    q = eps / h
    m = int(math.floor(q))
    r = q - m
    # Position p of the extended arrays holds node (p - m - 1) mod n, so
    # lo and hi hold nodes i - m and i + m, and positions lo - 1 .. hi + 1
    # the nodes within m + 1 of node i.
    ext = np.arange(-m - 1, n + m + 1)
    lo, hi = np.arange(n) + 1, np.arange(n) + 2 * m + 1
    bad_count = np.concatenate(
        ([0], np.cumsum(np.take(~grid.defined, ext, mode="wrap"))))
    bad = bad_count[hi + 2] > bad_count[lo - 1]

    v = np.where(grid.defined, grid.values, 0.0)
    mean = np.mean(v)
    w = np.take(v - mean, ext, mode="wrap")
    cells = 0.5 * (w[:-1] + w[1:])
    F = np.concatenate(([0.0], np.cumsum(cells)))
    # The exact rounding error of every step of the running sum, by
    # TwoSum, summed apart: F + E is the prefix to O(u^2).
    step = F[1:] - F[:-1]
    E = np.concatenate(([0.0], np.cumsum((F[:-1] - (F[1:] - step))
                                         + (cells - step))))
    # F(i + q) - F(i - q): whole cells lo..hi plus the two end pieces.
    span = (F[hi] - F[lo]) + (E[hi] - E[lo]) + r * (w[hi] + w[lo]) \
        + 0.5 * r * r * (w[hi + 1] - w[hi] - w[lo] + w[lo - 1])
    out = mean + span / (2.0 * q)

    return GridFunction(values=np.where(bad, np.nan, out),
                        defined=~bad,
                        singular_points=grid.singular_points,
                        note=f"filtered(eps={eps:.17g}) {grid.note}".strip())


def check_eps_schedule(eps_schedule) -> np.ndarray:
    """The schedule as an array; DomainError unless it holds >= 3
    strictly decreasing half-widths in (0, pi]."""
    es = np.asarray(eps_schedule, dtype=float)
    if es.size < 3 or np.any(es <= 0) or np.any(es > math.pi) \
            or np.any(np.diff(es) >= 0):
        raise DomainError("shrinking-window schedule must be >= 3 strictly "
                          "decreasing half-widths in (0, pi]")
    return es


def extrapolated_limit(eps_values, samples):
    """Shrinking-window limit from window averages at the given half-widths.

    Runs the even-power model (polynomial in eps^2, right for windows
    centred at smooth points) and the plain polynomial model (right at
    kinks, where odd powers appear) and keeps whichever one's own last
    correction is smaller.  Raises NoConvergence when the winning
    tableau's corrections grow instead of shrinking, or when an
    unsettled tableau sits on samples with the concentrated-mass
    signature (growth like 1/eps, which polynomial extrapolation fits
    deceptively well).
    """
    es = np.asarray(eps_values, dtype=float)
    vals = np.asarray(samples, dtype=float)
    v_even, c_even = neville_to_zero(es * es, vals)
    v_poly, c_poly = neville_to_zero(es, vals)
    if c_poly[-1] < c_even[-1]:
        value, corr = v_poly, c_poly
    else:
        value, corr = v_even, c_even
    value = float(value)
    if diverging(corr, value):
        raise NoConvergence(
            f"window averages do not settle: corrections "
            f"{[float(c) for c in corr]}")
    if float(corr[-1]) > 1e-3 * (1.0 + abs(value)) and mass_signature(
            es, vals, 1e-9 * (1.0 + float(np.max(np.abs(vals))))):
        raise NoConvergence(
            "window averages grow like concentrated mass at the point "
            f"(~1/eps): {[float(v) for v in vals]}")
    return value, float(corr[-1])


def filter_limit(f: EvaluatorFunction, theta: float,
                 eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
                 tol: float = DEFAULT_FILTER_TOL):
    """Limit of window averages at `theta` as the window shrinks.

    Returns (value, residual).  The residual is the last extrapolation
    correction, an honest error scale for the reported value.
    """
    es = check_eps_schedule(eps_schedule)
    vals = [kernel_filter_eval(f, theta, e, tol=tol) for e in es]
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
    value.  Every node becomes a quadrature pin, so window averages of
    the interpolant integrate it exactly piece by piece.
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

    return EvaluatorFunction(
        rule=rule,
        singular_points=tuple(SingularPoint(s) for s in grid.singular_points),
        quadrature_pins=tuple(float(t) for t in grid.thetas()),
        name="grid-interpolant")
