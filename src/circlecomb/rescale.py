"""Affine transport between a physical interval [a, b] and the circle.

The map is x = a + (b - a)(theta + pi) / (2 pi), a pure stretch: window
averages commute with it exactly, with the half-width scaled by the
same factor.  Interval functions are not periodic, so their pullbacks
mask the wrap-around seam: both endpoints are declared non-integrable
boundary points, and any window average whose window crosses the seam
is refused rather than silently blending g(a) with g(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfDomain, UndefinedHere
from .spectrum import (SEAM, TWO_PI, EvaluatorFunction, GridFunction,
                       SingularPoint, check_half_width, check_interval,
                       wrap_angle)


@dataclass(frozen=True)
class IntervalMap:
    """Affine chart [a, b] <-> [-pi, pi] with a -> -pi and b -> +pi."""

    a: float
    b: float

    def __post_init__(self):
        a, b = check_interval((self.a, self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> float:
        return self.b - self.a

    def to_canonical(self, x):
        xs = np.asarray(x, dtype=float)
        if np.any(xs < self.a) or np.any(xs > self.b):
            raise OutOfDomain(f"point outside [{self.a}, {self.b}]")
        # Same form as grid_nodes: exact at both ends, never past pi.
        th = ((2.0 * (xs - self.a) - self.length) / self.length) * math.pi
        return float(th) if np.ndim(x) == 0 else th

    def from_canonical(self, theta):
        th = np.asarray(theta, dtype=float)
        if np.any(th < -math.pi) or np.any(th > math.pi):
            raise OutOfDomain("angle outside [-pi, pi]")
        x = self.a + self.length * (th + math.pi) / TWO_PI
        return float(x) if np.ndim(theta) == 0 else x

    def epsilon_map(self, eps_canonical: float) -> float:
        """Physical window half-width matching a canonical one."""
        check_half_width(eps_canonical)
        # The product can round an ulp past the half-length at pi.
        return min(self.length / TWO_PI * eps_canonical, 0.5 * self.length)

    def epsilon_to_canonical(self, eps_physical: float) -> float:
        if not (0.0 < eps_physical <= 0.5 * self.length):
            raise DomainError(f"physical half-width {eps_physical} outside "
                              f"(0, {0.5 * self.length}]")
        # The product can round an ulp past pi at the half-length.
        return min(TWO_PI / self.length * eps_physical, math.pi)


def _interval_map_of(g: EvaluatorFunction) -> IntervalMap:
    if g.periodic:
        raise DomainError("evaluator already lives on the circle; "
                          "transport applies to interval domains")
    return IntervalMap(*g.domain)


def pullback(g: EvaluatorFunction) -> EvaluatorFunction:
    """Canonical-circle version of an interval evaluator.

    Declared trouble points move along with the map, and both interval
    endpoints become non-integrable boundary points at the seam, so no
    window average ever blends values from the two ends.
    """
    m = _interval_map_of(g)

    def rule(th):
        th = np.asarray(th, dtype=float)
        return g.rule(m.from_canonical(wrap_angle(th)))

    return EvaluatorFunction(
        rule=rule,
        singular_points=tuple(
            SingularPoint(m.to_canonical(s.theta), s.integrable)
            for s in g.singular_points) + SEAM,
        quadrature_pins=tuple(m.to_canonical(p) for p in g.quadrature_pins),
        name=f"pullback-{g.name}" if g.name else "pullback")


def transport_filter(g: EvaluatorFunction, x: float, eps_physical: float
                     ) -> float:
    """Window average of an interval evaluator in its own coordinate.

    The whole window must fit inside [a, b]; averages have no meaning
    past the boundary.  Matches the canonical filter of the pullback at
    the mapped point and half-width, because the map is affine.
    """
    m = _interval_map_of(g)
    if not 0.0 < eps_physical:
        raise DomainError(f"window half-width must be positive, "
                          f"got {eps_physical}")
    lo, hi = x - eps_physical, x + eps_physical
    if lo < m.a or hi > m.b:
        raise OutOfDomain(
            f"window [{lo}, {hi}] leaves the domain [{m.a}, {m.b}]")
    for s in g.singular_points:
        if not s.integrable and lo <= s.theta <= hi:
            raise UndefinedHere(
                f"non-integrable singular point at {s.theta} inside "
                f"the window around {x}")
    pins = tuple(sorted(p for p in g.pin_points() if lo < p < hi))
    from . import _quad
    value, _ = _quad.integrate(lambda u: g.sample(u), lo, hi, pins=pins,
                               tol=_quad.WINDOW_TOL * (hi - lo))
    return value / (hi - lo)


def filter_physical_grid(grid: GridFunction, eps_physical: float
                         ) -> GridFunction:
    """Window-average a domain-tagged grid with a physical half-width;
    `kernel_filter_grid` masks the seam."""
    if grid.domain is None:
        raise DomainError("a physical half-width needs a grid with a domain")
    from .realfilter import kernel_filter_grid
    m = IntervalMap(*grid.domain)
    return kernel_filter_grid(grid, m.epsilon_to_canonical(eps_physical))
