"""Shared helpers: independent oracles and reproducible randomness.

Oracle rule: expected values come either from closed forms evaluated
right here (never from the code under test) or from brute-force
numerics (dense trapezoid sums, explicit partial sums) that share no
code path with the package.
"""

import json
import math

import numpy as np
import pytest

from circlecomb.spectrum import CoefficientSequence

TWO_PI = 2.0 * np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def oracle_coefficients(fn, n, breakpoints=(), samples_per_piece=2 ** 17):
    """Brute-force Fourier coefficients by composite trapezoid sums.

    Splits [-pi, pi] at the given breakpoints so each piece is smooth;
    accuracy is O(h^2) per piece, around 1e-10 at the default density.
    Completely independent of the package's quadrature.
    """
    edges = np.concatenate(([-np.pi], np.sort(np.asarray(breakpoints, float)),
                            [np.pi]))
    k = np.arange(1, n + 1)
    a0 = 0.0
    a = np.zeros(n)
    b = np.zeros(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0.0:
            continue
        x = np.linspace(lo, hi, samples_per_piece + 1)
        fx = fn(x)
        a0 += np.trapezoid(fx, x) / TWO_PI
        a += np.trapezoid(fx[None, :] * np.cos(k[:, None] * x[None, :]),
                          x, axis=1) / np.pi
        b += np.trapezoid(fx[None, :] * np.sin(k[:, None] * x[None, :]),
                          x, axis=1) / np.pi
    return a0, a, b


def square_coefficients(n):
    """Unit square wave sign(theta): b_k = 4/(k pi) for odd k, else 0."""
    k = np.arange(1, n + 1)
    b = np.where(k % 2 == 1, 4.0 / (k * np.pi), 0.0)
    return CoefficientSequence(a0=0.0, a=np.zeros(n), b=b)


def delta_coefficients(theta0, n):
    """Unit point mass at theta0: a_k = cos(k theta0)/pi, b_k = sin/pi."""
    k = np.arange(1, n + 1)
    return CoefficientSequence(a0=1.0 / TWO_PI,
                               a=np.cos(k * theta0) / np.pi,
                               b=np.sin(k * theta0) / np.pi)


def poisson_square_wave(rho, theta):
    """Poisson extension of the unit square wave sign(theta) to the ring
    of radius rho < 1, in closed form:

        (4/pi) sum_{k odd} rho^k sin(k theta)/k
            = (2/pi) arctan(2 rho sin(theta) / (1 - rho^2)).
    """
    theta = np.asarray(theta, dtype=float)
    return (2.0 / np.pi) * np.arctan(
        2.0 * rho * np.sin(theta) / ((1.0 - rho) * (1.0 + rho)))


def poisson_arc_indicator(rho, theta, center, half_width):
    """Poisson extension of the indicator of the arc
    |theta - center| < half_width to the ring of radius rho < 1.

    With q = (1 + rho)/(1 - rho), A(phi) = arctan(q tan(phi/2)) for phi
    wrapped to (-pi, pi], and psi+- = theta - center +- half_width:

        (A(psi+) - A(psi-))/pi + [wrapped psi+ < wrapped psi-].

    A is the Poisson kernel's primitive over 2 pi and drops by pi where
    phi crosses pi; the indicator term adds that back where the arc
    seen from theta wraps through the seam.
    """
    q = (1.0 + rho) / (1.0 - rho)
    psi = np.asarray(theta, dtype=float) - center
    hi = np.pi - np.mod(np.pi - (psi + half_width), TWO_PI)
    lo = np.pi - np.mod(np.pi - (psi - half_width), TWO_PI)
    prim_hi = np.arctan(q * np.tan(hi / 2.0))
    prim_lo = np.arctan(q * np.tan(lo / 2.0))
    return (prim_hi - prim_lo) / np.pi + (hi < lo)


def random_trig_poly(rng, degree):
    """Random trigonometric polynomial returned as (a0, a, b, callable)."""
    a0 = float(rng.normal())
    a = rng.normal(size=degree)
    b = rng.normal(size=degree)
    k = np.arange(1, degree + 1)

    def fn(theta):
        theta = np.asarray(theta, dtype=float)
        return (a0
                + np.cos(np.multiply.outer(theta, k)) @ a
                + np.sin(np.multiply.outer(theta, k)) @ b)

    return a0, a, b, fn


# ------------------------------------------------- reference file formats
# Element-wise writers and a row reader for the on-disk formats, written
# with the stdlib only, one row or one element at a time.  The package's
# column-wise writers must give the same bytes and its reader the same
# arrays.

def reference_grid_csv(thetas, values, defined):
    """Grid CSV text: the header, then `theta,value,defined` per node
    with 17 significant digits and "nan" at undefined nodes."""
    lines = ["theta,value,defined"]
    for th, val, ok in zip(thetas, values, defined):
        cell = format(float(val), ".17g") if ok else "nan"
        lines.append(f"{format(float(th), '.17g')},{cell},{1 if ok else 0}")
    return "\n".join(lines) + "\n"


def reference_read_grid_rows(text):
    """(thetas, values, defined) of well-formed grid CSV text, row by row;
    values are NaN where undefined."""
    rows = [ln for ln in text.splitlines()[1:] if ln]
    thetas, values, defined = [], [], []
    for row in rows:
        th, val, flag = row.split(",")
        ok = {"0": False, "1": True}[flag]
        thetas.append(float(th))
        values.append(float(val) if ok else math.nan)
        defined.append(ok)
    return np.array(thetas), np.array(values), np.array(defined, bool)


def reference_json(obj):
    """JSON text with insertion-ordered keys and 17-digit floats, one
    element at a time.  Only for documents the package can write: NaN,
    inf and foreign types are not handled."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_json(v)}"
                               for k, v in obj.items()) + "}"
    return "[" + ", ".join(reference_json(v) for v in obj) + "]"
