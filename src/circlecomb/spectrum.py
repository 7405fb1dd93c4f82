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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NonIntegrableInput, UndefinedHere

TWO_PI = 2.0 * math.pi

DEFAULT_N = 256

# compute_coefficients: absolute tolerance on the worst coefficient,
# judged between consecutive refinement levels, and the panels per
# pin-delimited segment at the coarsest level.
_COEFF_TOL = 1e-10
_BASE_PANELS = 4

# k-block size for chunked sums over k; bounds temporary arrays.
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
    classification can keep its windows clear.  `quadrature_pins`, a
    sequence of angles, are further panel anchors: removable single-point
    defects (spikes), so that no sample abscissa ever lands on one and
    every integral is blind to them, and points with no analytic
    meaning, e.g. interpolation nodes (an array of them).
    `window_average`, when present, maps centres and half-widths (arrays)
    to exact window averages, NaN where a window reads no value, which
    `realfilter.window_averages` uses in place of quadrature.
    """
    rule: Callable
    singular_points: tuple = ()
    quadrature_pins: Sequence[float] = ()
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
    numerical integration, None otherwise.  Every coefficient is finite.
    """
    a0: float
    a: np.ndarray
    b: np.ndarray
    generator: Optional[dict] = None
    quadrature_error: Optional[float] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("coefficient arrays must be 1-D and equal length")
        if not (math.isfinite(self.a0) and np.all(np.isfinite(a))
                and np.all(np.isfinite(b))):
            raise DomainError("coefficients must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
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


def check_grid_sums(values):
    """DomainError unless 2 sum |v| over the finite grid `values` is
    finite: the bound on every sum that a grid's coefficients and window
    averages take, with the mean taken out or not."""
    with np.errstate(over="ignore"):
        total = 2.0 * np.sum(np.abs(values))
    if not np.isfinite(total):
        raise DomainError("grid values too large: their sums overflow the "
                          "float range")


@dataclass(frozen=True)
class GridFunction:
    """Sampled values on the uniform symmetric grid of `grid_nodes`.

    `defined` marks nodes carrying a value; values are NaN elsewhere and
    must be finite wherever defined.  `singular_points` carries declared
    jump/kink angles (finite) through grid-level operations (grids cannot encode
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
        if not np.all(np.isfinite(v) | ~d):
            raise DomainError("grid values must be finite wherever defined")
        v[~d] = np.nan
        v.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "defined", d)
        object.__setattr__(self, "singular_points",
                           tuple(float(s) for s in self.singular_points))
        if not all(map(math.isfinite, self.singular_points)):
            raise DomainError("grid singular points must be finite")
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
    DomainError
        If `f` lives on an interval (see `rescale.pullback`).
    NonIntegrableInput
        If any singular point is flagged non-integrable.
    QuadratureFailure
        If the refinement budget runs out above 1e-10, or at once where
        the evaluator has no value on a sampled stretch.
    """
    if not f.periodic:
        raise DomainError("compute_coefficients needs a full-circle "
                          "evaluator; use rescale.pullback for interval data")
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


def _truncated(seq, m):
    """c_1..c_m, with `m` in [0, seq.n] and the whole sequence by default."""
    m = seq.n if m is None else int(m)
    if not 0 <= m <= seq.n:
        raise DomainError(f"partial sum order {m} outside [0, {seq.n}]")
    return seq.complex_view()[:m]


def partial_sum_eval(seq, theta, m=None):
    """Evaluate the order-`m` partial sum at `theta` (scalar or array),
    by Horner's rule in e^{i theta}.

    `m` defaults to the full truncation order and must not exceed it.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    acc = seq.a0 + horner(_truncated(seq, m), np.exp(1j * th)).real
    if np.ndim(theta) == 0:
        return float(acc[0])
    return acc


def grid_nodes(n_nodes, start=0, stop=None):
    """Uniform circle grid theta_i = -pi + 2 pi i / n, i = 0..n-1, or
    the nodes i = start..stop-1 of it, each the same float.

    Computed as ((2 i - n) / n) * pi: the ratio is exactly -1 at i = 0
    and exactly 0 at i = n/2, so the seam node is bit-exact -pi for
    every n (and the origin exact for even n), and no node ever rounds
    outside [-pi, pi).
    """
    n = int(n_nodes)
    stop = n if stop is None else stop
    # 2 i - n, exact below 2^52 nodes, then in place in the same array.
    x = np.arange(2 * start - n, 2 * stop - n, 2, dtype=float)
    x /= n
    x *= math.pi
    return x


def horner(coeffs, z):
    """sum coeffs[k-1] z^k, k = 1..n, by Horner's rule; no constant term.

    The power-series kernel at points off the uniform grid (`grid_sum`
    takes the grid), in memory the size of `z`, at O(n) work a point.
    Its error is a multiple of ulp * sum k |c_k| (Higham 2002, ch. 5):
    term k carries the rounding of z^k.
    """
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for ck in coeffs[::-1]:
        acc += ck
        acc *= z
    return acc


def _signed_powers(rho, lo, hi):
    """(-1)^k rho^k for k = lo..hi-1, the same floats over any range."""
    weights = rho ** np.arange(float(lo), float(hi))
    weights[1 - lo % 2::2] *= -1.0
    return weights


def _fold_rows(bins, c, rho, k0):
    """Add c[j] (-1)^k rho^k, k = k0 + j, to the N `bins` a row of N
    terms at a time, each bin down its rows in order, as the padded sum
    down the rows adds them: term j goes to bin j mod N, and a short
    last row adds +0 to the bins it misses.  Whole rows go a block at a
    time, each with its own weights."""
    n_nodes = bins.size
    step = n_nodes * max(_CHUNK // n_nodes, 1)
    block = np.empty(min(step, c.size), dtype=complex)
    for start in range(0, c.size, step):
        terms = block[:min(step, c.size - start)]
        np.multiply(c[start:start + terms.size],
                    _signed_powers(rho, k0 + start, k0 + start + terms.size),
                    out=terms)
        whole = terms.size - terms.size % n_nodes
        if whole:
            rows = terms[:whole].reshape(-1, n_nodes)
            # Summed from +0 as the padded sum is, so a -0 left in
            # `bins` by the first row becomes +0 as it did there.
            rows[0] += bins
            np.add.reduce(rows, axis=0, out=bins)
        if whole < terms.size:
            bins[:terms.size - whole] += terms[whole:]
            bins[terms.size - whole:] += 0.0


def grid_sum(a0, c, n_nodes, rho=1.0):
    """a0 + Re sum_k c[k-1] rho^k e^{i k theta_j}, k = 1..n, at the nodes
    theta_j = grid_nodes(N): the one synthesis on a uniform grid.

    There e^{i k theta_j} = (-1)^k e^{2 pi i k j / N}, so the sum is the
    real part of the unscaled inverse DFT of
    C_r = sum_{k = r mod N} (-1)^k rho^k c_k.  The terms fold straight
    into the N bins, a row of N at a time and in order of k.  The real
    part is the inverse DFT of the bins' Hermitian part
    H_r = (C_r + conj C_{-r}) / 2, so one real inverse FFT of its half
    r = 0..N/2 (Sorensen et al., IEEE Trans. ASSP 35(6), 1987) takes the
    sum with half a complex transform's work and buffers.  The cost is
    O(n + N log N) in O(N) memory beyond the terms, and every phase is
    exact.  `rho` lies in [0, 1].  DomainError where a value overflows.
    """
    n_nodes = int(n_nodes)
    c = np.asarray(c, dtype=complex)
    bins = np.zeros(n_nodes, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if n_nodes == 1:
            # One column, which numpy sums pairwise, not row by row.
            bins[0] = np.sum(np.r_[0j, c * _signed_powers(rho, 1,
                                                          c.size + 1)])
        else:
            head = min(c.size, n_nodes - 1)
            np.multiply(c[:head], _signed_powers(rho, 1, head + 1),
                        out=bins[1:head + 1])
            _fold_rows(bins, c[head:], rho, head + 1)
        # H_r for r = 0..N/2 as a copy, so the bins go before the
        # transform.  H_0 is C_0, as the real transform reads only its
        # real part; C_{-r} = C_{N-r} for r >= 1.  The parts are added
        # and halved as floats, in place: a complex product with 0.5
        # would flip signed zeros.
        half = bins[:n_nodes // 2 + 1].copy()
        mirror = bins[:-half.size:-1]
        half.real[1:] += mirror.real
        half.imag[1:] -= mirror.imag
        del bins, mirror
        parts = half[1:].view(float)
        parts *= 0.5
        out = np.fft.irfft(half, n=n_nodes, norm="forward")
        out += a0
    if not np.all(np.isfinite(out)):
        raise DomainError("coefficients too large: their sums on the grid "
                          "overflow the float range")
    return out


def partial_sum_grid(seq, n_nodes, m=None):
    """Partial sums at grid_nodes(n_nodes) by `grid_sum`: the values of
    `partial_sum_eval` there, with exact phases."""
    return grid_sum(seq.a0, _truncated(seq, m), n_nodes)


def grid_coefficients(values, n=DEFAULT_N):
    """Exact coefficients of the periodic piecewise-linear interpolant.

    `values` sit at grid_nodes(N).  The interpolant is a sum of hat
    functions of width h = 2 pi / N, each transforming to h sinc^2(k h/2)
    times the phase of its node, so a0 = mean(v) and

        c_k = (2/N) FFT(v)[k mod N] (-1)^k sinc^2(k h/2),  k = 1..n,

    with n > N reading the aliased bins.  UndefinedHere if any value is
    not finite: the interpolant has no value next to such a node.
    DomainError if the sums overflow (`check_grid_sums`).
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise UndefinedHere(
            f"{int(np.sum(~np.isfinite(v)))} of {v.size} grid nodes have "
            "no value, so the interpolant has no coefficients")
    check_grid_sums(v)
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
