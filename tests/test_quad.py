"""Panel quadrature: exactness, pinning, refinement, failure reporting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from circlecomb._quad import GAUSS_ORDER, integrate, refine
from circlecomb.errors import QuadratureFailure
from circlecomb.realfilter import GridFunction, grid_evaluator, kernel_filter_eval
from circlecomb.spectrum import compute_coefficients, grid_nodes


def test_polynomial_exactness():
    # A single 16-point Gauss panel is exact through degree 31.
    value, _ = integrate(lambda x: x ** 20, 0.0, 1.0, tol=1e-14)
    assert value == pytest.approx(1.0 / 21.0, abs=1e-15)
    assert GAUSS_ORDER == 16


def test_smooth_transcendental():
    value, est = integrate(np.sin, 0.0, 1.0, tol=1e-12)
    assert value == pytest.approx(1.0 - math.cos(1.0), abs=1e-13)
    assert est <= 1e-12


def test_kink_with_pin_converges_fast():
    value, _ = integrate(np.abs, -1.0, 1.0, pins=(0.0,), tol=1e-13)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_jump_with_pin():
    def f(x):
        return np.where(x < 0.25, -2.0, 3.0)

    value, _ = integrate(f, -1.0, 1.0, pins=(0.25,), tol=1e-12)
    # -2 * 1.25 + 3 * 0.75
    assert value == pytest.approx(-0.25, abs=1e-13)


def test_pins_outside_interval_ignored():
    v1, _ = integrate(np.cos, 0.0, 1.0, pins=(-5.0, 7.0), tol=1e-12)
    v2, _ = integrate(np.cos, 0.0, 1.0, tol=1e-12)
    assert v1 == v2


def test_samples_avoid_pinned_points():
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.ones_like(x)

    integrate(f, -1.0, 1.0, pins=(0.0,), tol=1e-12)
    samples = np.concatenate(seen)
    assert 0.0 not in samples


def test_budget_exhaustion_raises_with_context():
    def wild(x):
        return np.sin(1.0 / (np.abs(x) + 1e-14))

    with pytest.raises(QuadratureFailure) as err:
        integrate(wild, -1.0, 1.0, tol=1e-13)
    assert err.value.estimate > 1e-13


def test_integrate_many_matches_scalar_route():
    # The shared refinement loop on a whole family at once: one panel
    # set, judged on the worst row, matches the scalar route row by row.
    def family(x, w):
        return np.vstack([np.cos(x), np.sin(x), x ** 2]) @ w

    values, _ = refine(family, 0.0, 2.0, tol=1e-12)
    for row, fn in zip(values, (np.cos, np.sin, lambda t: t ** 2)):
        single, _ = integrate(fn, 0.0, 2.0, tol=1e-12)
        assert row == pytest.approx(single, abs=1e-13)


def _holey_interpolant():
    """Grid interpolant with one undefined node, wrapped to count how
    often its rule runs: the two cells next to the node are NaN at every
    refinement level."""
    th = grid_nodes(64)
    defined = np.ones(64, dtype=bool)
    defined[40] = False
    ev = grid_evaluator(GridFunction(np.where(defined, np.cos(th), np.nan),
                                     defined))
    calls = []

    def rule(x):
        calls.append(1)
        return ev.rule(x)

    return replace(ev, rule=rule), float(th[40]), calls


def test_undefined_samples_fail_fast_in_coefficient_quadrature():
    ev, _, calls = _holey_interpolant()
    with pytest.raises(QuadratureFailure, match="non-finite"):
        compute_coefficients(ev, n=64)
    assert len(calls) <= 2


def test_undefined_samples_fail_fast_in_window_quadrature():
    ev, theta, calls = _holey_interpolant()
    with pytest.raises(QuadratureFailure, match="non-finite"):
        kernel_filter_eval(ev, theta + 0.01, 0.2)
    assert len(calls) <= 2
