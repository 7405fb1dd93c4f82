"""Built-in reference functions with exact coefficients and closed forms.

Each entry bundles a pointwise evaluator (when the object is an honest
function), an exact coefficient generator at any truncation order, a
declared classification tag, and, where available, the closed form of
its window average.  The generator tag on each coefficient sequence
regenerates it bit-identically, make(tag["name"],
**tag["params"]).coefficients(n), so serialized data stays tied to its
source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParams, DomainError, NotAvailable, UnknownName
from .spectrum import (DEFAULT_N, CoefficientSequence, EvaluatorFunction,
                       SingularPoint, angular_derivative, check_half_width,
                       circle_distance, sinc, wrap_angle)

COMBED = "combed"
RAGGED = "ragged"

# Exact float match would be brittle against wrap rounding; angles this
# close are treated as the same point (grids are never finer than ~1e-3).
_POINT_TOL = 1e-13


@dataclass(frozen=True)
class CatalogEntry:
    """One named reference function.

    `evaluator` is None for objects that are not pointwise functions
    (point masses and their derivatives).  `classification` is the
    declared ground truth the classifiers are tested against.
    """

    name: str
    params: dict
    classification: str
    evaluator: Optional[EvaluatorFunction]
    coeff_fn: Callable = field(repr=False)
    filtered_fn: Optional[Callable] = field(default=None, repr=False)

    def coefficients(self, n: int = DEFAULT_N) -> CoefficientSequence:
        """Exact coefficients through harmonic n, tagged for regeneration."""
        if n < 1:
            raise DomainError(f"truncation order must be >= 1, got {n}")
        a0, a, b = self.coeff_fn(int(n))
        return CoefficientSequence(a0, a, b, generator={
            "name": self.name, "params": dict(self.params)})


def exact_filtered(entry: CatalogEntry, eps: float) -> EvaluatorFunction:
    """Closed form of the window average, for entries that have one."""
    check_half_width(eps)
    if entry.filtered_fn is None:
        raise NotAvailable(
            f"no closed filtered form for catalog entry {entry.name!r}")
    return entry.filtered_fn(eps)


def _finite(value, key) -> float:
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    except (TypeError, ValueError):
        raise BadParams(f"parameter {key} must be a real number, "
                        f"got {value!r}") from None
    if not math.isfinite(x):
        raise BadParams(f"parameter {key} must be finite, got {value!r}")
    return x


def _integer(value, key) -> int:
    x = _finite(value, key)
    if x != int(x):
        raise BadParams(f"parameter {key} must be an integer, got {value!r}")
    return int(x)


def _angle(value, key) -> float:
    return wrap_angle(_finite(value, key))


def _as_given(value, key):
    return value


# name -> (builder, {parameter: (parser, default)}), each table in
# generator-tag order.  `make` parses the values, refuses leftover keys
# and calls the builder with them; the builder returns the entry's other
# fields (and "params" only to override a parsed value).
_REGISTRY = {}


def _entry(name, **table):
    def register(builder):
        _REGISTRY[name] = (builder, table)
        return builder
    return register


def _alternating(k: np.ndarray) -> np.ndarray:
    """(-1)**k for integer-valued float arrays."""
    return np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)


# ---------------------------------------------------------------- constant

@_entry("constant", c=(_finite, 1.0))
def _build_constant(c):
    def rule(th):
        return np.full_like(np.asarray(th, dtype=float), c)

    ev = EvaluatorFunction(rule=rule, name="constant")

    def coeffs(n):
        z = np.zeros(n)
        return c, z, z.copy()

    return dict(evaluator=ev, coeff_fn=coeffs, filtered_fn=lambda eps: ev)


# ------------------------------------------------------------------ cosine

@_entry("cosine", k=(_integer, 1))
def _build_cosine(k):
    if k < 1:
        raise BadParams(f"harmonic index k must be >= 1, got {k}")

    def rule(th):
        return np.cos(k * np.asarray(th, dtype=float))

    ev = EvaluatorFunction(rule=rule, name=f"cosine(k={k})")

    def coeffs(n):
        a = np.zeros(n)
        if k <= n:
            a[k - 1] = 1.0
        return 0.0, a, np.zeros(n)

    def filtered(eps):
        m = float(sinc(k * eps))

        def frule(th):
            return m * np.cos(k * np.asarray(th, dtype=float))

        return EvaluatorFunction(rule=frule, name=f"filtered-cosine(k={k})")

    return dict(evaluator=ev, coeff_fn=coeffs, filtered_fn=filtered)


# ------------------------------------------------------------------- delta

def _delta_coeff_fn(theta0):
    def coeffs(n):
        j = np.arange(1, n + 1, dtype=float)
        return (1.0 / (2.0 * math.pi),
                np.cos(j * theta0) / math.pi,
                np.sin(j * theta0) / math.pi)
    return coeffs


def _pulse_evaluator(theta0, eps):
    """Window average of a unit point mass: a flat pulse of height
    1/(2 eps) over the window, half-height exactly at the two edges.
    At eps = pi the edges coincide and their halves add back up."""
    height = 1.0 / (2.0 * eps)
    lo = wrap_angle(theta0 - eps)
    hi = wrap_angle(theta0 + eps)

    def rule(th):
        th = np.asarray(th, dtype=float)
        d = np.asarray(circle_distance(th, theta0))
        edge_hi = np.asarray(circle_distance(th, hi)) <= _POINT_TOL
        edge_lo = np.asarray(circle_distance(th, lo)) <= _POINT_TOL
        out = np.where(d < eps - _POINT_TOL, height, 0.0)
        out = np.where(edge_hi | edge_lo, 0.0, out)
        out = out + (edge_hi.astype(float) + edge_lo.astype(float)) \
            * (0.5 * height)
        return out

    return EvaluatorFunction(
        rule=rule,
        singular_points=(SingularPoint(lo), SingularPoint(hi)),
        name="filtered-delta")


@_entry("delta", theta0=(_angle, 0.0))
def _build_delta(theta0):
    return dict(evaluator=None, coeff_fn=_delta_coeff_fn(theta0),
                filtered_fn=lambda eps: _pulse_evaluator(theta0, eps))


@_entry("delta_derivative", theta0=(_angle, 0.0), order=(_integer, 1))
def _build_delta_derivative(theta0, order):
    if not (1 <= order <= 8):
        raise BadParams(f"derivative order must be in 1..8, got {order}")
    base = _delta_coeff_fn(theta0)

    def coeffs(n):
        a0, a, b = base(n)
        d = angular_derivative(CoefficientSequence(a0, a, b), order)
        return d.a0, np.array(d.a), np.array(d.b)

    return dict(evaluator=None, coeff_fn=coeffs)


# -------------------------------------------------------------------- step

def _step_filtered_fn(theta0, l_minus, l_plus):
    def filtered(eps):
        gap = min(theta0 + math.pi, math.pi - theta0)
        if 2.0 * eps >= gap:
            raise NotAvailable(
                f"closed filtered step needs 2*eps < {gap:.6g} so the two "
                f"ramps stay apart; got eps={eps}")
        mid = 0.5 * (l_minus + l_plus)
        slope = (l_plus - l_minus) / (2.0 * eps)

        def rule(th):
            th = np.asarray(th, dtype=float)
            u = wrap_angle(th - theta0)
            s = wrap_angle(th - math.pi)
            out = np.where(u < 0.0, l_minus, l_plus)
            out = np.where(np.abs(u) <= eps, mid + slope * u, out)
            out = np.where(np.abs(s) <= eps, mid - slope * s, out)
            return out

        kinks = (wrap_angle(theta0 - eps), wrap_angle(theta0 + eps),
                 wrap_angle(math.pi - eps), wrap_angle(-math.pi + eps))
        return EvaluatorFunction(
            rule=rule,
            singular_points=tuple(SingularPoint(x) for x in sorted(kinks)),
            name="filtered-step")
    return filtered


@_entry("step", theta0=(_angle, 0.0), l_minus=(_finite, 0.0),
        l_plus=(_finite, 1.0))
def _build_step(theta0, l_minus, l_plus):
    if theta0 == -math.pi:
        raise BadParams("step jump cannot sit on the seam at -pi; "
                        "a single seam jump is the sawtooth pattern")
    a0 = (l_minus * (theta0 + math.pi)
          + l_plus * (math.pi - theta0)) / (2.0 * math.pi)
    if not (math.isfinite(l_plus - l_minus) and math.isfinite(a0)):
        raise BadParams(f"step levels l_minus={l_minus} and l_plus={l_plus} "
                        "overflow: l_plus - l_minus and the mean level must "
                        "be finite")
    mid = 0.5 * (l_minus + l_plus)

    def rule(th):
        u = wrap_angle(np.asarray(th, dtype=float))
        out = np.where(u < theta0, l_minus, l_plus)
        out = np.where(u == theta0, mid, out)
        out = np.where(u == -math.pi, mid, out)
        return out

    ev = EvaluatorFunction(
        rule=rule,
        singular_points=(SingularPoint(-math.pi), SingularPoint(theta0)),
        name="step")

    def coeffs(n):
        k = np.arange(1, n + 1, dtype=float)
        a = (l_minus - l_plus) * np.sin(k * theta0) / (k * math.pi)
        b = (l_plus - l_minus) * (np.cos(k * theta0) - _alternating(k)) \
            / (k * math.pi)
        return a0, a, b

    return dict(evaluator=ev, coeff_fn=coeffs,
                filtered_fn=_step_filtered_fn(theta0, l_minus, l_plus))


# ------------------------------------------------------------- square wave

@_entry("square_wave")
def _build_square_wave():
    def rule(th):
        u = wrap_angle(np.asarray(th, dtype=float))
        out = np.sign(u)
        return np.where(u == -math.pi, 0.0, out)

    ev = EvaluatorFunction(
        rule=rule,
        singular_points=(SingularPoint(-math.pi), SingularPoint(0.0)),
        name="square_wave")

    def coeffs(n):
        k = np.arange(1, n + 1, dtype=float)
        b = np.where(np.mod(k, 2.0) == 1.0, 4.0 / (k * math.pi), 0.0)
        return 0.0, np.zeros(n), b

    return dict(evaluator=ev, coeff_fn=coeffs,
                filtered_fn=_step_filtered_fn(0.0, -1.0, 1.0))


# ----------------------------------------------------------- triangle wave

@_entry("triangle_wave")
def _build_triangle_wave():
    c = 2.0 / math.pi

    def rule(th):
        u = wrap_angle(np.asarray(th, dtype=float))
        return 1.0 - c * np.abs(u)

    ev = EvaluatorFunction(
        rule=rule,
        singular_points=(SingularPoint(-math.pi), SingularPoint(0.0)),
        name="triangle_wave")

    def coeffs(n):
        k = np.arange(1, n + 1, dtype=float)
        a = np.where(np.mod(k, 2.0) == 1.0,
                     8.0 / (math.pi * math.pi * k * k), 0.0)
        return 0.0, a, np.zeros(n)

    def filtered(eps):
        if 2.0 * eps >= math.pi:
            raise NotAvailable(
                "closed filtered triangle needs 2*eps < pi so the windows "
                f"of the two kinks stay apart; got eps={eps}")

        def frule(th):
            th = np.asarray(th, dtype=float)
            u = np.abs(wrap_angle(th))
            s = math.pi - u
            out = 1.0 - c * u
            out = np.where(u <= eps,
                           1.0 - c * (u * u + eps * eps) / (2.0 * eps), out)
            out = np.where(s <= eps,
                           -1.0 + c * (s * s + eps * eps) / (2.0 * eps), out)
            return out

        pins = (0.0, eps, -eps, -math.pi, -math.pi + eps, math.pi - eps)
        return EvaluatorFunction(rule=frule, quadrature_pins=pins,
                                 name="filtered-triangle")

    return dict(evaluator=ev, coeff_fn=coeffs, filtered_fn=filtered)


# ---------------------------------------------------------------- sawtooth

@_entry("sawtooth")
def _build_sawtooth():
    def rule(th):
        u = wrap_angle(np.asarray(th, dtype=float))
        return np.where(u == -math.pi, 0.0, u)

    ev = EvaluatorFunction(rule=rule,
                           singular_points=(SingularPoint(-math.pi),),
                           name="sawtooth")

    def coeffs(n):
        k = np.arange(1, n + 1, dtype=float)
        b = -2.0 * _alternating(k) / k
        return 0.0, np.zeros(n), b

    return dict(evaluator=ev, coeff_fn=coeffs)


# ------------------------------------------------------------------ spiked

@_entry("spiked", base=(_as_given, "square_wave"), point=(_angle, 0.5),
        value=(_finite, 0.0), base_params=(_as_given, {}))
def _build_spiked(base, point, value, base_params):
    if not isinstance(base, str) or base == "spiked":
        raise BadParams(f"spiked base must name another catalog entry, "
                        f"got {base!r}")
    if not isinstance(base_params, dict):
        raise BadParams("base_params must be a mapping")
    entry = make(base, **base_params)
    base_ev = entry.evaluator
    if base_ev is None:
        raise BadParams(f"catalog entry {base!r} has no pointwise "
                        "evaluator to spike")
    if abs(float(base_ev(point)) - value) == 0.0:
        raise BadParams("the spike value equals the base value at that "
                        "point; nothing would change")

    def rule(th):
        th = np.asarray(th, dtype=float)
        out = np.asarray(base_ev.rule(th), dtype=float)
        return np.where(np.asarray(circle_distance(th, point)) < _POINT_TOL,
                        value, out)

    ev = EvaluatorFunction(
        rule=rule,
        singular_points=base_ev.singular_points,
        quadrature_pins=base_ev.quadrature_pins + (point,),
        name=f"spiked-{base}")

    return dict(params={"base_params": dict(entry.params)},
                classification=RAGGED, evaluator=ev,
                coeff_fn=entry.coeff_fn, filtered_fn=entry.filtered_fn)


# --------------------------------------------------------- conjugate delta

@_entry("conjugate_delta", theta0=(_angle, 0.0))
def _build_conjugate_delta(theta0):
    def rule(th):
        d = wrap_angle(np.asarray(th, dtype=float) - theta0)
        with np.errstate(divide="ignore"):
            out = 1.0 / (2.0 * math.pi * np.tan(0.5 * d))
        return np.where(d == 0.0, np.nan, out)

    ev = EvaluatorFunction(
        rule=rule,
        singular_points=(SingularPoint(theta0, integrable=False),),
        name="conjugate_delta")

    def coeffs(n):
        j = np.arange(1, n + 1, dtype=float)
        return (0.0,
                -np.sin(j * theta0) / math.pi,
                np.cos(j * theta0) / math.pi)

    return dict(evaluator=ev, coeff_fn=coeffs)


def names() -> tuple:
    return tuple(sorted(_REGISTRY))


def make(name: str, **params) -> CatalogEntry:
    """Build a catalog entry by name; BadParams / UnknownName on misuse."""
    try:
        builder, table = _REGISTRY[name]
    except KeyError:
        raise UnknownName(f"no catalog entry named {name!r}; known entries: "
                          f"{', '.join(names())}") from None
    raw = dict(params)
    params = {key: parse(raw.pop(key, default), key)
              for key, (parse, default) in table.items()}
    if raw:
        raise BadParams(f"unknown parameters {sorted(raw)}")
    fields = {"classification": COMBED, **builder(**params)}
    params.update(fields.pop("params", {}))
    return CatalogEntry(name=name, params=params, **fields)
