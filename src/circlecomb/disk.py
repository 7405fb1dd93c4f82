"""Analytic extension of trigonometric data into the unit disk.

A coefficient sequence (a0, a_k, b_k) determines the complex series
w(z) = sum_{k>=1} c_k z^k with c_k = a_k - i b_k, which is analytic on
the open disk and satisfies f(theta) = a0 + Re w(e^{i theta}) for the
trigonometric sum it came from.  This module evaluates such series
inside the disk, applies the window-average filter in its multiplier
and arc-difference forms, and recovers boundary values by radial
extrapolation.

Coefficient-wise derivative and primitive along the angle act
diagonally, multiplying c_k by +k or 1/k.  To keep composed chains of
those operations exact in floating point they are not applied eagerly:
an InnerAnalyticFunction stores the base coefficients together with an
integer power of k, and only materializes the product when values are
actually needed.  Composing a derivative with a primitive therefore
cancels exactly instead of through a divide-then-multiply round trip.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, OutOfDomain
from .spectrum import (CoefficientSequence, check_half_width, grid_sum,
                       horner, sinc)

DEFAULT_DELTA_SCHEDULE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

# Radial divergence heuristic: ring magnitudes must grow at least this
# fast at every step and overshoot the coefficient scale by this factor.
_DIVERGE_RATIO = 1.5
_DIVERGE_SCALE = 100.0

# Tail guard: relative threshold and the shortest sequence length that
# counts as evidence of a continuing series (shorter ones are taken at
# face value as exact polynomials).
_TAIL_WARN = 1e-6
_TAIL_MIN_N = 8


@dataclass(frozen=True)
class DiskPoint:
    """Polar point strictly inside the unit disk."""

    rho: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0) or not np.isfinite(self.theta):
            raise OutOfDomain(f"point (rho={self.rho}, theta={self.theta}) "
                              "is not strictly inside the disk")

    @property
    def z(self) -> complex:
        return self.rho * complex(np.cos(self.theta), np.sin(self.theta))


@dataclass(frozen=True)
class InnerAnalyticFunction:
    """Truncated power series sum c_k z^k, k = 1..n, with no constant term.

    `log_power` is the pending diagonal power of k: the effective
    coefficient of z^k is c[k-1] * k**log_power.
    """

    c: np.ndarray
    log_power: int = 0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 1:
            raise DomainError("coefficient array must be one-dimensional")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "log_power", int(self.log_power))

    @property
    def n(self) -> int:
        return self.c.size

    def materialize(self) -> np.ndarray:
        """Effective coefficients c_k * k**log_power, index k-1."""
        if self.log_power == 0:
            return self.c
        k = np.arange(1, self.n + 1, dtype=float)
        return self.c * k ** self.log_power


def from_coefficients(seq: CoefficientSequence) -> InnerAnalyticFunction:
    """Analytic part of a real sequence; the mean a0 is not carried."""
    return InnerAnalyticFunction(seq.complex_view())


def log_derivative(w: InnerAnalyticFunction) -> InnerAnalyticFunction:
    """Angular derivative on the disk side: c_k -> k c_k (rotated by the
    caller's convention on the real side; here purely diagonal)."""
    return InnerAnalyticFunction(w.c, w.log_power + 1)


def log_primitive(w: InnerAnalyticFunction) -> InnerAnalyticFunction:
    """Diagonal inverse of `log_derivative`; exact round trip by design."""
    return InnerAnalyticFunction(w.c, w.log_power - 1)


def _tail_check(w: InnerAnalyticFunction, rho: float):
    if w.n < _TAIL_MIN_N or rho == 0.0:
        return
    # Estimate the discarded tail from the top few coefficients (a block,
    # not just the last one, so sparse sequences with alternating zeros
    # are not missed); series that have already died off relative to
    # their own peak stay quiet.
    eff = w.materialize()
    top = float(np.max(np.abs(eff[-4:])))
    peak = float(np.max(np.abs(eff)))
    if top == 0.0:
        return
    bound = top * rho ** w.n * rho / (1.0 - rho)
    if bound > _TAIL_WARN * peak:
        warnings.warn(
            f"truncation tail bound {bound:.2e} at rho={rho}; "
            "increase the coefficient count for radii this close to 1",
            RuntimeWarning, stacklevel=3)   # boundary_value_grid's caller


def evaluate(w: InnerAnalyticFunction, point) -> complex:
    """Value of w at a DiskPoint (or a complex number strictly inside)."""
    if isinstance(point, DiskPoint):
        z = point.z
    else:
        z = complex(point)
        if not abs(z) < 1.0:        # written so that NaN fails it
            raise OutOfDomain(f"|z| = {abs(z)} is not strictly inside "
                              "the disk")
    return complex(horner(w.materialize(), z))


def _check_ring_radius(rho: float):
    if not (0.0 <= rho < 1.0):      # written so that NaN fails it
        raise OutOfDomain(f"ring radius {rho} is not strictly inside the disk")


def eval_ring(w: InnerAnalyticFunction, rho: float, thetas) -> np.ndarray:
    """Values of w on the circle of radius rho < 1 at the given angles,
    by Horner's rule; `ring_grid` takes the uniform grid."""
    _check_ring_radius(rho)
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    z = rho * np.exp(1j * th)
    return horner(w.materialize(), z)


def ring_grid(seq: CoefficientSequence, rho: float, n_nodes: int) -> np.ndarray:
    """a0 + Re w on the circle of radius rho < 1 at grid_nodes(n_nodes),
    by `spectrum.grid_sum`."""
    _check_ring_radius(rho)
    return grid_sum(seq.a0, seq.complex_view(), n_nodes, rho)


def complex_filter(w: InnerAnalyticFunction, eps: float) -> InnerAnalyticFunction:
    """Window-average filter as a coefficient multiplier.

    Each effective coefficient is scaled by sin(k eps)/(k eps).  The
    pending k-power is preserved, so filtering commutes bitwise with
    `log_derivative` / `log_primitive`.
    """
    check_half_width(eps)
    k = np.arange(1, w.n + 1, dtype=float)
    return InnerAnalyticFunction(w.c * sinc(k * eps), w.log_power)


def arc_filter_eval(w: InnerAnalyticFunction, theta: float, eps: float,
                    rho: float = 1.0) -> complex:
    """Filtered value by the arc-difference route.

    With W the term-wise primitive of w, the window average of w along
    the arc of half-width eps centred at angle theta on the circle of
    radius rho is -(i / (2 eps)) (W(z e^{i eps}) - W(z e^{-i eps})),
    z = rho e^{i theta}.  A truncated series is a polynomial, so the
    boundary circle rho = 1 itself is allowed here; this is the
    cross-check route against `complex_filter`.
    """
    check_half_width(eps)
    if not (0.0 <= rho <= 1.0):
        raise OutOfDomain(f"arc radius {rho} outside [0, 1]")
    coeffs = log_primitive(w).materialize()
    z_hi = rho * np.exp(1j * (theta + eps))
    z_lo = rho * np.exp(1j * (theta - eps))
    diff = horner(coeffs, z_hi) - horner(coeffs, z_lo)
    return complex(-0.5j / eps * diff)


def _check_schedule(deltas) -> np.ndarray:
    d = np.asarray(deltas, dtype=float)
    if d.size < 3 or not np.all((d > 0) & (d < 1)) \
            or not np.all(np.diff(d) < 0):
        raise DomainError("delta schedule must be >= 3 strictly decreasing "
                          "values in (0, 1)")
    return d


def boundary_value_grid(seq: CoefficientSequence, n_nodes: int,
                        delta_schedule: Sequence[float] = DEFAULT_DELTA_SCHEDULE):
    """Radial limits a0 + Re w((1-delta) e^{i theta}) extrapolated to
    delta = 0, at theta = grid_nodes(n_nodes).

    Each ring is one `ring_grid`.  Returns (values, residuals, defined)
    where `defined` is False at nodes whose ring values blow up
    monotonically past the coefficient scale; those values are NaN.
    """
    from ._extrap import neville_to_zero
    d = _check_schedule(delta_schedule)
    w = from_coefficients(seq)
    _tail_check(w, 1.0 - float(d[-1]))
    rings = np.empty((d.size, int(n_nodes)))
    for ring, dj in zip(rings, d):
        ring[:] = ring_grid(seq, 1.0 - dj, n_nodes)

    # The growth test a pair of rings at a time: no (m, N) magnitudes.
    growing = np.ones(rings.shape[1], dtype=bool)
    for inner, outer in zip(rings[:-1], rings[1:]):
        growing &= np.abs(outer) >= _DIVERGE_RATIO * np.abs(inner)
    scale = abs(seq.a0) + (float(np.max(np.abs(w.materialize()))) if seq.n else 0.0)
    blown = np.abs(rings[-1]) > max(_DIVERGE_SCALE * scale, 1e-12)
    diverged = growing & blown

    values, residuals, _ = neville_to_zero(d, rings)
    values[diverged] = residuals[diverged] = np.nan
    return values, residuals, ~diverged
