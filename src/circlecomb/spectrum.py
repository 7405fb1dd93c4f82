"""Coefficient sequences and grid samples of periodic functions.

Conventions used across the whole package:

    f(theta) = a0 + sum_{k>=1} (a_k cos(k theta) + b_k sin(k theta))

with theta on [-pi, pi).  The complex view pairs the two real
coefficients of each harmonic as c_k = a_k - i b_k, so that
f = a0 + Re sum_k c_k e^{i k theta}.  The mean a0 is kept separate and
is never part of the complex sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonIntegrableInput, UndefinedHere

TWO_PI = 2.0 * math.pi

DEFAULT_N = 256

# compute_coefficients: absolute tolerance on the worst coefficient,
# judged between consecutive refinement levels, and the panels per
# pin-delimited segment at the coarsest level.
_COEFF_TOL = 1e-10
_BASE_PANELS = 4

# k-block size for chunked trigonometric sums; bounds temporary arrays.
_CHUNK = 8192


def wrap_angle(theta):
    """Map angles to the principal branch [-pi, pi)."""
    th = np.asarray(theta, dtype=float)
    wrapped = th - TWO_PI * np.round(th / TWO_PI)
    wrapped = np.where(wrapped >= math.pi, wrapped - TWO_PI, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def circle_distance(x, y):
    """Arc distance between two angles on the circle."""
    return np.abs(wrap_angle(np.asarray(x, dtype=float) - y))


@dataclass(frozen=True)
class SingularPoint:
    """A declared trouble point of an evaluator.

    `integrable` is True for jumps, kinks and integrable blowups, False
    for poles that defeat every window integral containing them.
    """
    theta: float
    integrable: bool = True


# Interval data's two ends meet at theta = +-pi.  Declared non-integrable,
# they keep every window average from blending one end with the other.
SEAM = (SingularPoint(-math.pi, integrable=False),
        SingularPoint(math.pi, integrable=False))


@dataclass(frozen=True)
class EvaluatorFunction:
    """A pointwise evaluation rule on the circle (or on an interval).

    `rule` maps angles to values; it must accept a float ndarray and
    return one of the same shape (scalars also work).  It returns NaN
    wherever the function has no value.  `singular_points` declares
    jumps, kinks and poles so quadrature can pin panels there and
    classification can keep its windows clear.  `quadrature_pins` are
    further panel anchors: removable single-point defects (spikes), so
    that no sample abscissa ever lands on one and every integral is
    blind to them, and points with no analytic meaning, e.g.
    interpolation nodes.
    `window_average`, when present, maps centres and half-widths (arrays)
    to exact window averages, NaN where a window reads no value, which
    `realfilter.window_averages` uses in place of quadrature.
    """
    rule: Callable
    singular_points: tuple = ()
    quadrature_pins: tuple = ()
    domain: tuple = (-math.pi, math.pi)
    name: str = ""
    window_average: Optional[Callable] = None

    def __call__(self, theta):
        out = self.rule(np.asarray(theta, dtype=float))
        if np.ndim(theta) == 0:
            return float(out)
        return out

    def sample(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        out = np.asarray(self.rule(thetas), dtype=float)
        if out.shape != thetas.shape:
            out = np.array([self.rule(float(t)) for t in thetas.ravel()],
                           dtype=float).reshape(thetas.shape)
        return out

    @property
    def periodic(self):
        return self.domain == (-math.pi, math.pi)

    def pin_points(self):
        """All abscissae that quadrature must place panel edges at."""
        pts = [s.theta for s in self.singular_points]
        pts.extend(self.quadrature_pins)
        return pts


@dataclass(frozen=True)
class CoefficientSequence:
    """Truncated coefficient sequence: a0 plus harmonics k = 1..n, dense.

    `a` and `b` are read-only float arrays with a[j], b[j] the
    coefficients of harmonic k = j + 1.  There are no gaps: an absent
    harmonic is stored as an explicit zero.  `generator`, when present,
    is a catalog tag {"name": ..., "params": {...}} that can regenerate
    the sequence exactly at any truncation order.  `quadrature_error` is
    the inter-level error estimate when the sequence came out of
    numerical integration, None otherwise.
    """
    a0: float
    a: np.ndarray
    b: np.ndarray
    generator: Optional[dict] = None
    quadrature_error: Optional[float] = field(default=None, compare=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("coefficient arrays must be 1-D and equal length")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self):
        return self.a.size

    def complex_view(self):
        """c_k = a_k - i b_k as a complex array, k = 1..n."""
        return self.a - 1j * self.b

    def k_values(self):
        return np.arange(1, self.n + 1, dtype=float)


def check_half_width(eps):
    """DomainError unless every window half-width in `eps` (a scalar or
    an array) lies in (0, pi]: the one rule for a window.  NaN fails."""
    e = np.asarray(eps, dtype=float)
    bad = ~((e > 0.0) & (e <= math.pi))
    if np.any(bad):
        shown = eps if e.ndim == 0 else e[bad][0]
        raise DomainError(f"window half-width {shown} outside (0, pi]")


def check_interval(pair, source="interval"):
    """`pair` as a tuple of floats (a, b) with a < b and a, b and b - a
    finite: the one rule for an interval.  DomainError naming `source`
    otherwise."""
    vals = tuple(float(x) for x in pair)
    if len(vals) != 2:
        raise DomainError(f"{source} needs exactly a,b, got {len(vals)} "
                          "numbers")
    a, b = vals
    if not (math.isfinite(b - a) and a < b):
        raise DomainError(f"{source} needs finite b > a and a finite "
                          f"b - a, got [{a}, {b}]")
    return vals


@dataclass(frozen=True)
class GridFunction:
    """Sampled values on the uniform symmetric grid of `grid_nodes`.

    `defined` marks nodes carrying a value; values are NaN elsewhere and
    must be finite wherever defined.  `singular_points` carries declared
    jump/kink angles through grid-level operations (grids cannot encode
    non-integrable points, their values are finite by construction).
    `domain` (a, b), when set, marks interval data sampled at the images
    of the nodes under x = a + (b - a)(theta + pi) / (2 pi): the seam at
    theta = +-pi joins the two ends, and no window may cross it.
    """
    values: np.ndarray
    defined: np.ndarray
    singular_points: tuple = ()
    note: str = ""
    domain: Optional[tuple] = None

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
        if self.domain is not None:
            object.__setattr__(self, "domain", check_interval(self.domain))

    @property
    def n(self):
        return self.values.size

    def thetas(self):
        return grid_nodes(self.n)


def compute_coefficients(f, n=DEFAULT_N):
    """Project an evaluator on the first `n` harmonics by panel quadrature.

    Parameters
    ----------
    f : EvaluatorFunction
        Must be integrable over the circle: no singular point may be
        flagged non-integrable.
    n : int
        Truncation order.

    Returns
    -------
    CoefficientSequence
        With `quadrature_error` set to the final error estimate.

    Raises
    ------
    NonIntegrableInput
        If any singular point is flagged non-integrable.
    QuadratureFailure
        If the refinement budget runs out above 1e-10, or at once where
        the evaluator has no value on a sampled stretch.
    """
    for s in f.singular_points:
        if not s.integrable:
            raise NonIntegrableInput(
                f"cannot integrate across the point theta={s.theta!r}")
    lo, hi = f.domain

    def level(x, w):
        # One array [a0, a_1..a_n, b_1..b_n], so the estimate is the
        # worst coefficient.
        fw = f.sample(x) * w
        out = np.empty(2 * n + 1)
        out[0] = fw.sum() / TWO_PI
        for k0 in range(0, n, _CHUNK):
            k = np.arange(k0 + 1, min(k0 + _CHUNK, n) + 1, dtype=float)
            kx = np.multiply.outer(k, x)
            out[1 + k0:1 + k0 + k.size] = np.cos(kx) @ fw / math.pi
            out[1 + n + k0:1 + n + k0 + k.size] = np.sin(kx) @ fw / math.pi
        return out

    from . import _quad
    values, estimate = _quad.refine(level, lo, hi, pins=f.pin_points(),
                                    tol=_COEFF_TOL, base_panels=_BASE_PANELS)
    return CoefficientSequence(a0=values[0], a=values[1:n + 1],
                               b=values[n + 1:], quadrature_error=estimate)


def sinc(x):
    """sin(x)/x with a series guard near zero, elementwise.

    The window-average multiplier of harmonic k at half-width eps is
    sinc(k eps).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0 * (1.0 - xs * xs / 20.0)
    xb = x[~small]
    out[~small] = np.sin(xb) / xb
    return out


def partial_sum_eval(seq, theta, m=None):
    """Evaluate the order-`m` partial sum at `theta` (scalar or array),
    by Horner's rule in e^{i theta}.

    `m` defaults to the full truncation order and must not exceed it.
    """
    m = seq.n if m is None else int(m)
    if not 0 <= m <= seq.n:
        raise DomainError(f"partial sum order {m} outside [0, {seq.n}]")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    acc = seq.a0 + horner(seq.complex_view()[:m], np.exp(1j * th)).real
    if np.ndim(theta) == 0:
        return float(acc[0])
    return acc


def grid_nodes(n_nodes):
    """Uniform circle grid theta_i = -pi + 2 pi i / n, i = 0..n-1.

    Computed as ((2 i - n) / n) * pi: the ratio is exactly -1 at i = 0
    and exactly 0 at i = n/2, so the seam node is bit-exact -pi for
    every n (and the origin exact for even n), and no node ever rounds
    outside [-pi, pi).
    """
    n = int(n_nodes)
    i = np.arange(n)
    return ((2 * i - n) / n) * math.pi


def horner(coeffs, z):
    """sum coeffs[k-1] z^k, k = 1..n, by Horner's rule; no constant term.

    The package's one power-series kernel, in memory the size of `z`.
    Its error is a multiple of ulp * sum k |c_k| (Higham 2002, ch. 5).
    """
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for ck in coeffs[::-1]:
        acc += ck
        acc *= z
    return acc


def partial_sum_grid(seq, n_nodes, m=None):
    """Partial sums on a uniform grid: `partial_sum_eval` at
    grid_nodes(n_nodes), in memory linear in the grid size and the
    order."""
    return partial_sum_eval(seq, grid_nodes(n_nodes), m)


def grid_coefficients(values, n=DEFAULT_N):
    """Exact coefficients of the periodic piecewise-linear interpolant.

    `values` sit at grid_nodes(N).  The interpolant is a sum of hat
    functions of width h = 2 pi / N, each transforming to h sinc^2(k h/2)
    times the phase of its node, so a0 = mean(v) and

        c_k = (2/N) FFT(v)[k mod N] (-1)^k sinc^2(k h/2),  k = 1..n,

    with n > N reading the aliased bins.  UndefinedHere if any value is
    not finite: the interpolant has no value next to such a node.
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise UndefinedHere(
            f"{int(np.sum(~np.isfinite(v)))} of {v.size} grid nodes have "
            "no value, so the interpolant has no coefficients")
    k = np.arange(1, n + 1)
    c = (2.0 / v.size) * np.fft.fft(v)[k % v.size] \
        * np.where(k % 2, -1.0, 1.0) * sinc(k * math.pi / v.size) ** 2
    return CoefficientSequence(a0=np.mean(v), a=c.real, b=-c.imag)


def angular_derivative(seq, order=1):
    """Differentiate `order` times with respect to the angle.

    One application maps (a_k, b_k) to (k b_k, -k a_k) and zeroes the
    mean.  Higher orders are computed by repeating the single step, so
    applying order m and then order n performs exactly the same float
    operations as applying order m + n at once.
    """
    order = int(order)
    if order < 0:
        raise DomainError("derivative order must be >= 0")
    a0, a, b = seq.a0, seq.a, seq.b
    k = seq.k_values()
    for _ in range(order):
        a, b = k * b, -(k * a)
        a0 = 0.0
    return CoefficientSequence(a0=a0, a=a, b=b)
