"""Disk-side evaluation, diagonal operators, and boundary limits."""

import math
import warnings

import numpy as np
import pytest

from circlecomb.disk import (
    DiskPoint,
    InnerAnalyticFunction,
    arc_filter_eval,
    boundary_value_grid,
    complex_filter,
    evaluate,
    eval_ring,
    from_coefficients,
    log_derivative,
    log_primitive,
)
from circlecomb.errors import DomainError, OutOfDomain
from circlecomb.spectrum import CoefficientSequence

from conftest import delta_coefficients, square_coefficients

PI = math.pi


def _random_inner(rng, n):
    return InnerAnalyticFunction(rng.normal(size=n) + 1j * rng.normal(size=n))


def _geometric_inner(n):
    """Truncation of z / (2 - z) = sum 2^{-k} z^k."""
    k = np.arange(1, n + 1)
    return InnerAnalyticFunction((0.5 ** k).astype(complex))


# ------------------------------------------------------------- containers

def test_disk_point_validates_radius():
    p = DiskPoint(0.5, PI / 4)
    assert p.z == pytest.approx(0.5 * np.exp(1j * PI / 4), abs=1e-16)
    with pytest.raises(OutOfDomain):
        DiskPoint(1.0, 0.0)
    with pytest.raises(OutOfDomain):
        DiskPoint(-0.1, 0.0)


def test_inner_function_freezes_coefficients():
    w = InnerAnalyticFunction(np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        w.c[0] = 2.0
    with pytest.raises(DomainError):
        InnerAnalyticFunction(np.zeros((2, 2), dtype=complex))


def test_materialize_applies_pending_power():
    c = np.array([1.0, 1.0, 1.0], dtype=complex)
    w = InnerAnalyticFunction(c, log_power=2)
    assert np.array_equal(w.materialize(), np.array([1.0, 4.0, 9.0],
                                                    dtype=complex))


def test_sequence_round_trip_is_bitwise(rng):
    seq = CoefficientSequence(0.25, rng.normal(size=6), rng.normal(size=6))
    c = from_coefficients(seq).materialize()
    assert np.array_equal(c.real, seq.a)
    assert np.array_equal(-c.imag, seq.b)


# ------------------------------------------------------------- evaluation

def test_identity_series_evaluates_to_its_argument():
    w = InnerAnalyticFunction(np.array([1.0 + 0j]))
    assert evaluate(w, 0.5) == 0.5 + 0j
    assert evaluate(w, DiskPoint(0.5, 0.0)) == 0.5 + 0j


def test_every_series_vanishes_at_the_origin(rng):
    w = _random_inner(rng, 17)
    assert evaluate(w, 0j) == 0j
    assert evaluate(w, DiskPoint(0.0, 1.3)) == 0j


def test_point_mass_series_matches_geometric_closed_form():
    w = from_coefficients(delta_coefficients(0.0, 256))
    got = evaluate(w, DiskPoint(0.9, PI))
    # sum (1/pi) z^k = (1/pi) z/(1-z) at z = -0.9
    assert got == pytest.approx((-0.9 / 1.9) / PI, abs=1e-10)


def test_evaluate_rejects_points_outside_the_disk():
    w = InnerAnalyticFunction(np.array([1.0 + 0j]))
    with pytest.raises(OutOfDomain):
        evaluate(w, 1.0 + 0j)
    with pytest.raises(OutOfDomain):
        evaluate(w, 2.0j)


def test_ring_evaluation_matches_pointwise(rng):
    w = _random_inner(rng, 9)
    thetas = np.linspace(-3.0, 3.0, 7)
    ring = eval_ring(w, 0.7, thetas)
    single = [evaluate(w, DiskPoint(0.7, t)) for t in thetas]
    assert ring == pytest.approx(single, abs=1e-14)
    with pytest.raises(OutOfDomain):
        eval_ring(w, 1.0, thetas)


# ---------------------------------------------------- diagonal operators

def test_log_operators_round_trip_bitwise(rng):
    w = _random_inner(rng, 12)
    down_up = log_derivative(log_primitive(w))
    up_down = log_primitive(log_derivative(w))
    for back in (down_up, up_down):
        assert back.log_power == w.log_power
        assert np.array_equal(back.c, w.c)
        assert np.array_equal(back.materialize(), w.materialize())


def test_log_primitive_of_cube_has_third_coefficient():
    w = InnerAnalyticFunction(np.array([0.0, 0.0, 1.0], dtype=complex))
    prim = log_primitive(w)
    z = 0.4 + 0.2j
    assert evaluate(prim, z) == pytest.approx(z ** 3 / 3.0, rel=1e-15)


def test_log_derivative_matches_elementwise_route():
    k = np.arange(1, 33, dtype=float)
    w = InnerAnalyticFunction((1.0 / k).astype(complex))
    eff = log_derivative(w).materialize()
    assert eff == pytest.approx(np.ones(32, dtype=complex), rel=1e-15)


# ----------------------------------------------------------------- filter

def test_filter_multiplier_on_first_harmonics():
    w = InnerAnalyticFunction(np.array([1.0, 0.0], dtype=complex))
    assert complex_filter(w, PI / 2).c[0] == pytest.approx(2.0 / PI,
                                                           rel=1e-15)
    w2 = InnerAnalyticFunction(np.array([0.0, 1.0], dtype=complex))
    assert abs(complex_filter(w2, PI / 2).c[1]) <= 1e-16


def test_filter_validates_window_width(rng):
    w = _random_inner(rng, 3)
    for eps in (0.0, -0.1, PI + 0.1):
        with pytest.raises(DomainError):
            complex_filter(w, eps)
        with pytest.raises(DomainError):
            arc_filter_eval(w, 0.3, eps)


def test_filter_preserves_pending_power_bitwise(rng):
    w = _random_inner(rng, 10)
    a = complex_filter(log_derivative(w), 0.3)
    b = log_derivative(complex_filter(w, 0.3))
    assert a.log_power == b.log_power
    assert np.array_equal(a.c, b.c)


def test_arc_route_agrees_with_multiplier_route(rng):
    for _ in range(8):
        w = _random_inner(rng, 14)
        rho = float(rng.uniform(0.1, 0.95))
        theta = float(rng.uniform(-PI, PI))
        eps = float(rng.uniform(0.05, PI))
        mult = evaluate(complex_filter(w, eps), DiskPoint(rho, theta))
        arc = arc_filter_eval(w, theta, eps, rho)
        assert abs(mult - arc) <= 1e-12 * (1.0 + abs(mult))


def test_arc_route_allowed_on_the_boundary_circle(rng):
    w = _random_inner(rng, 6)
    filtered = complex_filter(w, 0.4)
    boundary = eval_ring(filtered, 0.999999999, [1.1])[0]
    arc = arc_filter_eval(w, 1.1, 0.4, rho=1.0)
    assert arc == pytest.approx(boundary, abs=1e-7)
    with pytest.raises(OutOfDomain):
        arc_filter_eval(w, 1.1, 0.4, rho=1.5)


def test_filtered_series_vanishes_at_the_origin(rng):
    w = _random_inner(rng, 11)
    assert evaluate(complex_filter(w, 0.2), 0j) == 0j
    assert abs(arc_filter_eval(w, 0.4, 0.2, rho=0.0)) == 0.0


def test_filter_converges_quadratically_as_window_shrinks():
    w = _geometric_inner(64)
    z = DiskPoint(0.9, 0.7)
    base = evaluate(w, z)
    errs = [abs(evaluate(complex_filter(w, e), z) - base)
            for e in (0.2, 0.1, 0.05, 0.025)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders == pytest.approx([2.0, 2.0, 2.0], abs=0.1)


# -------------------------------------------------------- boundary values

def test_boundary_value_of_cosine():
    seq = CoefficientSequence(0.0, np.array([1.0]), np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, residuals, defined = boundary_value_grid(seq, [PI / 3])
    assert defined[0]
    assert values[0] == pytest.approx(0.5, abs=1e-8)
    assert residuals[0] < 1e-8


def test_boundary_value_of_point_mass_away_from_its_carrier():
    seq = delta_coefficients(0.0, 32768)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _, defined = boundary_value_grid(seq, [PI])
    assert defined[0]
    assert abs(values[0]) < 1e-8


def test_boundary_value_of_square_wave_at_jump_is_the_midpoint():
    seq = square_coefficients(1024)
    with pytest.warns(RuntimeWarning, match="truncation tail"):
        values, _, _ = boundary_value_grid(seq, [0.0])
    assert values[0] == 0.0


def test_boundary_value_diverges_on_the_point_mass():
    seq = delta_coefficients(0.0, 2048)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values, residuals, defined = boundary_value_grid(seq, [0.0])
    assert not defined[0]
    assert np.isnan(values[0]) and np.isnan(residuals[0])


def test_boundary_grid_masks_divergent_angles():
    seq = delta_coefficients(0.0, 32768)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values, residuals, defined = boundary_value_grid(seq, [0.0, PI])
    assert not defined[0] and defined[1]
    assert np.isnan(values[0]) and np.isnan(residuals[0])
    assert abs(values[1]) < 1e-6


def test_boundary_schedule_is_validated():
    seq = CoefficientSequence(0.0, np.array([1.0]), np.array([0.0]))
    for bad in [(0.01, 0.005), (0.01, 0.01, 0.005),
                (1.5, 0.5, 0.25), (0.01, 0.005, -0.001),
                (0.1, np.nan, 0.01), (np.nan, 0.05, 0.01),
                (0.1, 0.05, np.nan)]:
        with pytest.raises(DomainError, match="delta schedule"):
            boundary_value_grid(seq, [0.3], delta_schedule=bad)


def test_under_truncated_series_warns_near_the_boundary():
    with pytest.warns(RuntimeWarning, match="truncation tail") as record:
        boundary_value_grid(delta_coefficients(0.0, 256), [PI])
    # The warning names the caller's line, not the library's.
    assert record[0].filename == __file__
    # The same mass with enough harmonics extrapolates quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boundary_value_grid(delta_coefficients(0.0, 32768), [PI])
