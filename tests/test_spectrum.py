"""Coefficient sequences: projection, partial sums, exact operators."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from circlecomb.catalog import make
from circlecomb.disk import boundary_value_grid, ring_grid
from circlecomb.errors import DomainError, NonIntegrableInput, UndefinedHere
from circlecomb.realfilter import GridFunction, grid_evaluator
from circlecomb.spectrum import (
    CoefficientSequence,
    EvaluatorFunction,
    SingularPoint,
    angular_derivative,
    circle_distance,
    compute_coefficients,
    grid_coefficients,
    grid_nodes,
    grid_sum,
    partial_sum_eval,
    partial_sum_grid,
    wrap_angle,
)

from conftest import (delta_coefficients, exact_phase_sums, random_trig_poly,
                      reference_grid_sum, square_coefficients)

PI = math.pi
EPS = np.finfo(float).eps

# Exact partial sum of the unit square wave at a quarter turn, order 199:
# (4/pi) * sum_{j=0}^{99} (-1)^j / (2j+1), evaluated in rational arithmetic.
SQUARE_PARTIAL_199_AT_QUARTER = 0.9968169807056896


def _sequence(a0, a, b):
    return CoefficientSequence(a0=a0, a=np.asarray(a, float),
                               b=np.asarray(b, float))


# ---------------------------------------------------------------- angles

def test_wrap_angle_principal_branch():
    assert wrap_angle(PI) == -PI
    assert wrap_angle(-PI) == -PI
    assert wrap_angle(3 * PI / 2) == pytest.approx(-PI / 2, abs=1e-15)
    assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
    out = wrap_angle(np.array([0.0, 2 * PI, -2 * PI]))
    assert out == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_circle_distance_takes_short_way():
    assert circle_distance(3.0, -3.0) == pytest.approx(2 * PI - 6.0, abs=1e-15)
    assert circle_distance(0.1, 0.4) == pytest.approx(0.3, abs=1e-15)
    assert float(circle_distance(-PI, PI)) == 0.0


# ------------------------------------------------------------ containers

def test_sequence_validates_and_freezes_arrays():
    seq = _sequence(1.0, [1.0, 2.0], [3.0, 4.0])
    assert seq.n == 2
    with pytest.raises(ValueError):
        seq.a[0] = 99.0
    with pytest.raises(DomainError):
        _sequence(0.0, [1.0, 2.0], [3.0])
    with pytest.raises(DomainError):
        CoefficientSequence(a0=0.0, a=np.zeros((2, 2)), b=np.zeros((2, 2)))
    for bad in (math.nan, math.inf, -math.inf):
        for a0, a, b in ((bad, [1.0], [0.0]), (0.0, [bad], [0.0]),
                         (0.0, [1.0], [bad])):
            with pytest.raises(DomainError, match="coefficients must be "
                                                  "finite"):
                CoefficientSequence(a0, a, b)


def test_complex_view_round_trip_is_bitwise():
    _, a, b, _ = random_trig_poly(np.random.default_rng(7), 9)
    seq = _sequence(0.5, a, b)
    c = seq.complex_view()
    back = CoefficientSequence(seq.a0, c.real, -c.imag)
    assert np.array_equal(back.a, seq.a)
    assert np.array_equal(back.b, seq.b)
    assert back.a0 == seq.a0


def test_evaluator_sample_handles_scalar_only_rules():
    f = EvaluatorFunction(rule=lambda th: 3.0)
    assert f.sample(np.array([0.1, 0.2])) == pytest.approx([3.0, 3.0])
    assert f(0.7) == 3.0


def test_evaluator_pin_points_collects_all_kinds():
    f = EvaluatorFunction(rule=np.cos,
                          singular_points=(SingularPoint(0.5),),
                          quadrature_pins=(1.0, -2.0))
    assert sorted(f.pin_points()) == [-2.0, 0.5, 1.0]


# ------------------------------------------------------------ projection

def test_projection_of_pure_cosine_is_orthogonal():
    seq = compute_coefficients(EvaluatorFunction(rule=np.cos), n=4)
    assert seq.a[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(seq.a[1:])) < 1e-12
    assert np.max(np.abs(seq.b)) < 1e-12
    assert abs(seq.a0) < 1e-12
    assert seq.quadrature_error is not None
    assert seq.quadrature_error < 1e-10


def test_projection_of_constant():
    seq = compute_coefficients(
        EvaluatorFunction(rule=lambda th: np.full_like(th, 2.5)), n=3)
    assert seq.a0 == pytest.approx(2.5, abs=1e-13)
    assert np.max(np.abs(seq.a)) < 1e-13
    assert np.max(np.abs(seq.b)) < 1e-13


def test_projection_of_square_wave_matches_closed_form():
    f = EvaluatorFunction(rule=np.sign,
                          singular_points=(SingularPoint(0.0),))
    seq = compute_coefficients(f, n=5)
    expect = square_coefficients(5)
    assert seq.a0 == pytest.approx(0.0, abs=1e-10)
    assert seq.a == pytest.approx(expect.a, abs=1e-9)
    assert seq.b == pytest.approx(expect.b, abs=1e-9)


def test_projection_matches_independent_closed_form():
    # exp(cos theta): mean I_0(1), cosine coefficients 2 I_k(1), no sines.
    f = EvaluatorFunction(rule=lambda th: np.exp(np.cos(th)))
    seq = compute_coefficients(f, n=8)
    assert seq.a0 == pytest.approx(scipy.special.iv(0, 1.0), abs=1e-10)
    k = np.arange(1, 9)
    assert seq.a == pytest.approx(2.0 * scipy.special.iv(k, 1.0), abs=1e-9)
    assert np.max(np.abs(seq.b)) < 1e-10


def test_projection_round_trips_trig_polynomials(rng):
    a0, a, b, fn = random_trig_poly(rng, 6)
    seq = compute_coefficients(EvaluatorFunction(rule=fn), n=6)
    assert seq.a0 == pytest.approx(a0, abs=1e-11)
    assert seq.a == pytest.approx(a, abs=1e-11)
    assert seq.b == pytest.approx(b, abs=1e-11)


def test_projection_refuses_non_integrable_inputs():
    f = EvaluatorFunction(rule=lambda th: 1.0 / th,
                          singular_points=(SingularPoint(0.0,
                                                         integrable=False),))
    with pytest.raises(NonIntegrableInput):
        compute_coefficients(f, n=2)
    # An interval evaluator would be integrated over its own domain with
    # the circle's 1/(2 pi).
    interval = EvaluatorFunction(rule=np.ones_like, domain=(0.0, 10.0))
    with pytest.raises(DomainError, match="rescale.pullback"):
        compute_coefficients(interval, n=2)


# ----------------------------------------------------------- partial sums

def test_partial_sum_of_cosine_at_origin_is_exact():
    seq = _sequence(0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert partial_sum_eval(seq, 0.0, m=1) == 1.0
    assert partial_sum_eval(seq, 0.0) == 1.0


def test_partial_sum_of_square_wave_at_jump_is_exactly_zero():
    seq = square_coefficients(50)
    assert partial_sum_eval(seq, 0.0) == 0.0


def test_partial_sum_of_square_wave_matches_rational_arithmetic():
    seq = square_coefficients(199)
    got = partial_sum_eval(seq, PI / 2, m=199)
    assert got == pytest.approx(SQUARE_PARTIAL_199_AT_QUARTER, abs=5e-15)


def test_partial_sum_order_is_validated():
    seq = square_coefficients(4)
    with pytest.raises(DomainError):
        partial_sum_eval(seq, 0.3, m=5)
    with pytest.raises(DomainError):
        partial_sum_eval(seq, 0.3, m=-1)


def test_partial_sum_accepts_arrays():
    seq = _sequence(1.0, [0.5], [0.25])
    th = np.array([0.0, PI / 2])
    got = partial_sum_eval(seq, th)
    assert got == pytest.approx([1.5, 1.25], abs=1e-15)


def test_grid_nodes_hit_exact_floats():
    nodes = grid_nodes(4)
    assert np.array_equal(nodes, np.array([-PI, -PI / 2, 0.0, PI / 2]))


@pytest.mark.parametrize("n", [2, 7, 64, 1027])
def test_grid_nodes_over_a_range_are_the_same_floats(rng, n):
    whole = grid_nodes(n)
    for _ in range(20):
        start, stop = sorted(rng.integers(0, n + 1, 2))
        assert grid_nodes(n, start, stop).tobytes() == \
            whole[start:stop].tobytes()


@pytest.mark.parametrize("n_nodes, n", [(16, 40), (64, 4096), (4096, 8)])
def test_partial_sum_grid_matches_pointwise_route(rng, n_nodes, n):
    # n >> N wraps harmonics around the grid, N >> n puts few terms on
    # many nodes.  Those two are held to Horner's running error bound,
    # 16 ulp * (|a0| + sum_k k |c_k|).
    a0, a, b, _ = random_trig_poly(rng, n)
    seq = _sequence(a0, a, b)
    tol = 1e-12 if (n_nodes, n) == (16, 40) else 16 * np.finfo(float).eps \
        * (abs(a0) + np.sum(seq.k_values() * np.abs(seq.complex_view())))
    nodes = grid_nodes(n_nodes)
    fast = partial_sum_grid(seq, n_nodes)
    slow = partial_sum_eval(seq, nodes)
    assert fast == pytest.approx(slow, abs=tol)
    part = partial_sum_grid(seq, n_nodes, m=7)
    assert part == pytest.approx(partial_sum_eval(seq, nodes, m=7), abs=tol)


def _traced_peak(run):
    """Peak traced bytes allocated while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partial_sum_grid_memory_is_linear(rng):
    # 8192 harmonics on 1024 nodes: an (n x N) power matrix would take
    # 128 MB; the fold's few coefficient-sized arrays take about 0.5 MB.
    a0, a, b, _ = random_trig_poly(rng, 8192)
    peak = _traced_peak(lambda: partial_sum_grid(_sequence(a0, a, b), 1024))
    assert peak < 1 << 20, f"traced peak {peak} bytes"


def test_ring_grid_memory_is_linear(rng):
    # The same series on the default schedule's four rings: four grid
    # rows more.
    a0, a, b, _ = random_trig_poly(rng, 8192)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the rings' tail bound
        peak = _traced_peak(
            lambda: boundary_value_grid(_sequence(a0, a, b), 1024))
    assert peak < 1 << 20, f"traced peak {peak} bytes"


@pytest.mark.parametrize("n, n_nodes, rho", [(32768, 4096, 1.0),
                                             (16384, 2048, 0.99)],
                         ids=["square-wave", "random-ring"])
def test_grid_sums_have_exact_phases(rng, n, n_nodes, rho):
    # Against long-double sums with phases reduced in integers, at 64
    # nodes.  Horner's rule on the rounded nodes, whose term k carries
    # k ulp of phase, misses this bound: 2.6e-12 against 6.6e-15 on the
    # square wave, and 2.7e-13 against 1.0e-13 on the ring.
    seq = square_coefficients(n) if rho == 1.0 \
        else _sequence(*random_trig_poly(rng, n)[:3])
    nodes = np.arange(0, n_nodes, n_nodes // 64)
    exact = exact_phase_sums(seq.a0, seq.a, seq.b, n_nodes, rho, nodes)
    got = grid_sum(seq.a0, seq.complex_view(), n_nodes, rho)[nodes]
    bound = 4 * EPS * np.sum(rho ** seq.k_values()
                             * np.abs(seq.complex_view()))
    assert np.max(np.abs(got - exact)) <= bound


def test_partial_sum_grid_takes_a_million_terms_onto_a_million_nodes():
    # c_k = q^k sums to z (1 - z^n) / (1 - z) at z = q e^{i theta_j}, and
    # z^n = q^n at every node, since n = N is even.  Horner's rule would
    # take n N = 2^40 steps.
    n = 1 << 20
    q = 1.0 - 2.0 ** -20
    a = q ** np.arange(1.0, n + 1)
    got = partial_sum_grid(_sequence(0.0, a, np.zeros(n)), n)
    nodes = np.r_[0:n:4099, n // 2 - 1:n // 2 + 2]
    half = (2 * nodes - n) * (4 * np.arctan(np.longdouble(1))) / (2 * n)
    ql = np.longdouble(q)
    z = ql * (np.cos(2 * half) + 1j * np.sin(2 * half))
    # 1 - z without cancellation next to theta = 0.
    one_minus_z = (1 - ql) + 2 * ql * np.sin(half) ** 2 \
        - 1j * ql * np.sin(2 * half)
    exact = (z * (1 - ql ** n) / one_minus_z).real
    assert np.max(np.abs(got[nodes] - exact)) <= 4 * EPS * np.sum(a)


@pytest.mark.parametrize("n, n_nodes", [(0, 8), (3, 1), (5, 2), (9, 4)])
def test_grid_sum_folds_every_length_onto_every_grid(rng, n, n_nodes):
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    z = 0.5 * np.exp(1j * grid_nodes(n_nodes))
    direct = 0.25 + sum((ck * z ** k).real for k, ck in enumerate(c, 1))
    assert grid_sum(0.25, c, n_nodes, 0.5) == pytest.approx(direct,
                                                            abs=1e-15)


def test_grid_sum_refuses_sums_that_overflow():
    with pytest.raises(DomainError, match="overflow"):
        grid_sum(0.0, [1e308 - 1e308j] * 3, 16)
    with pytest.raises(DomainError, match="overflow"):
        grid_sum(1.7e308, [1.7e308], 2)


def _signed_zero_terms(rng, n, zeros_only=False):
    """n complex terms whose parts are random or +-0.0, about half each,
    or +-0.0 only."""
    parts = rng.standard_normal((2, n))
    parts[zeros_only | (rng.random((2, n)) < 0.5)] = 0.0
    parts[rng.random((2, n)) < 0.5] *= -1.0
    c = np.empty(n, dtype=complex)
    c.real, c.imag = parts
    return c


@pytest.mark.parametrize("rho", [1.0, 0.5])
def test_grid_sum_gives_the_padded_fold_bytes(rng, rho):
    # Every grid to 700 nodes, with the terms filling part of the first
    # row, all of it, one term or one short of a second row, and three
    # rows and a part, and a random length; signed zeros as well.
    for n_nodes in range(1, 701):
        lengths = {0, max(n_nodes - 2, 0), n_nodes - 1, n_nodes,
                   n_nodes + 1, 3 * n_nodes + 5,
                   int(rng.integers(0, 4 * n_nodes + 4))}
        for n in sorted(lengths):
            for zeros_only in (False, True):
                c = _signed_zero_terms(rng, n, zeros_only)
                got = grid_sum(-0.0, c, n_nodes, rho)
                want = reference_grid_sum(-0.0, c, n_nodes, rho)
                assert got.tobytes() == want.tobytes(), (n_nodes, n)


@pytest.mark.parametrize("n_nodes, n", [(2, 20001), (3, 3 * 8192 + 7),
                                        (700, 30000), (8192, 3 * 8192),
                                        (9000, 40000)])
def test_grid_sum_gives_the_padded_fold_bytes_over_many_blocks(rng, n_nodes,
                                                               n):
    c = _signed_zero_terms(rng, n)
    for rho in (1.0, 0.9999):
        assert grid_sum(0.5, c, n_nodes, rho).tobytes() == \
            reference_grid_sum(0.5, c, n_nodes, rho).tobytes()


@pytest.mark.parametrize("n_nodes", [1, 2, 7, 64, 700])
def test_grid_partial_sums_and_rings_give_the_padded_fold_bytes(rng,
                                                                n_nodes):
    n = 3 * n_nodes + 5
    for zeros_only in (False, True):
        c = _signed_zero_terms(rng, n, zeros_only)
        seq = CoefficientSequence(-0.0, c.real, -c.imag)
        for m in (0, n_nodes - 1, n_nodes + 1, n):
            assert partial_sum_grid(seq, n_nodes, m).tobytes() == \
                reference_grid_sum(-0.0, seq.complex_view()[:m],
                                   n_nodes).tobytes()
        assert ring_grid(seq, 0.5, n_nodes).tobytes() == \
            reference_grid_sum(-0.0, seq.complex_view(), n_nodes,
                               0.5).tobytes()


@pytest.mark.parametrize("n_nodes, n", [(16, 40), (128, 200), (384, 96)])
def test_grid_coefficients_match_the_interpolant_quadrature(rng, n_nodes, n):
    # n > N reads aliased FFT bins; the quadrature of the interpolant
    # (pinned at every node) is the independent reference.
    v = 3.0 * rng.standard_normal(n_nodes) + rng.uniform(-5.0, 5.0)
    ref = compute_coefficients(
        grid_evaluator(GridFunction(v, np.ones(n_nodes, bool))), n=n)
    got = grid_coefficients(v, n)
    bound = 1e-12 * (1.0 + np.max(np.abs(v)))
    assert got.n == n
    assert abs(got.a0 - ref.a0) <= bound
    assert np.max(np.abs(got.a - ref.a)) <= bound
    assert np.max(np.abs(got.b - ref.b)) <= bound


def test_grid_coefficients_refuse_undefined_nodes():
    v = np.cos(grid_nodes(16))
    v[3] = np.nan
    with pytest.raises(UndefinedHere):
        grid_coefficients(v, 8)


# -------------------------------------------------------------- operators

def test_derivative_of_cosine_is_negative_sine():
    seq = _sequence(0.0, [1.0], [0.0])
    d = angular_derivative(seq)
    assert d.a[0] == 0.0
    assert d.b[0] == -1.0
    assert d.a0 == 0.0


def test_derivative_order_zero_is_identity():
    seq = delta_coefficients(0.7, 12)
    d = angular_derivative(seq, order=0)
    assert d.a0 == seq.a0
    assert np.array_equal(d.a, seq.a)
    assert np.array_equal(d.b, seq.b)


def test_derivative_of_point_mass_matches_formula():
    theta0 = 0.7
    seq = delta_coefficients(theta0, 16)
    d = angular_derivative(seq)
    k = np.arange(1, 17)
    assert d.a == pytest.approx(k * np.sin(k * theta0) / PI, rel=1e-14)
    assert d.b == pytest.approx(-k * np.cos(k * theta0) / PI, rel=1e-14)
    assert d.a0 == 0.0


def test_derivative_orders_compose_bitwise(rng):
    _, a, b, _ = random_trig_poly(rng, 11)
    seq = _sequence(0.3, a, b)
    split = angular_derivative(angular_derivative(seq, order=2), order=3)
    joint = angular_derivative(seq, order=5)
    assert np.array_equal(split.a, joint.a)
    assert np.array_equal(split.b, joint.b)
    with pytest.raises(DomainError):
        angular_derivative(seq, order=-1)


def test_conjugate_of_point_mass_matches_closed_form():
    # The catalog's conjugate of the unit mass at 0 is
    # (1/pi) sum sin(k theta); its
    # radius-rho regularization has the closed form
    # rho sin(theta) / (pi (1 - 2 rho cos(theta) + rho^2)),
    # and near rho = 1 it approaches cot(theta/2) / (2 pi).
    n, rho, theta = 4096, 0.99, 2.0
    c = make("conjugate_delta").coefficients(n)
    k = np.arange(1, n + 1)
    damped = c.a0 + np.sum((rho ** k) * (c.a * np.cos(k * theta)
                                         + c.b * np.sin(k * theta)))
    closed = rho * math.sin(theta) / (
        PI * (1.0 - 2.0 * rho * math.cos(theta) + rho * rho))
    assert damped == pytest.approx(closed, abs=1e-13)
    assert damped == pytest.approx(1.0 / math.tan(theta / 2) / (2 * PI),
                                   abs=1e-3)
