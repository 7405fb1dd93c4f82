"""Invariants that must hold across the whole parameter space."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlecomb.formats import dumps_json
from circlecomb.realfilter import multiplier_filter
from circlecomb.rescale import IntervalMap
from circlecomb.spectrum import (
    CoefficientSequence,
    circle_distance,
    grid_nodes,
    wrap_angle,
)

angles = st.floats(-1e6, 1e6, allow_nan=False)
widths = st.floats(1e-6, math.pi, allow_nan=False)
amplitudes = st.lists(st.floats(-10.0, 10.0, allow_nan=False,
                                allow_infinity=False),
                      min_size=2, max_size=16)


def sequence_from(amps):
    """Pack a flat list of draws into (a0, a, b) of equal harmonic count."""
    half = len(amps) // 2
    a = amps[1:half + 1]
    b = amps[half + 1:half + 1 + len(a)]
    b = b + [0.0] * (len(a) - len(b))
    return CoefficientSequence(amps[0], a, b)


def combine(x, y, sx, sy):
    """sx * x + sy * y for sequences of one length."""
    return CoefficientSequence(sx * x.a0 + sy * y.a0, sx * x.a + sy * y.a,
                               sx * x.b + sy * y.b)


def rotated(seq, alpha):
    """Coefficients of f(theta - alpha)."""
    k = seq.k_values()
    ca, sa = np.cos(k * alpha), np.sin(k * alpha)
    return CoefficientSequence(seq.a0, seq.a * ca - seq.b * sa,
                               seq.a * sa + seq.b * ca)


def sup_gap(s1, s2):
    parts = [abs(s1.a0 - s2.a0)]
    if s1.n:
        parts.append(float(np.max(np.abs(s1.a - s2.a))))
        parts.append(float(np.max(np.abs(s1.b - s2.b))))
    return max(parts)


def magnitude(seq):
    m = abs(seq.a0)
    if seq.n:
        m = max(m, float(np.max(np.abs(seq.a))),
                float(np.max(np.abs(seq.b))))
    return m


class TestAngles:
    @given(angles)
    def test_wrap_lands_in_the_canonical_interval(self, theta):
        w = wrap_angle(theta)
        assert -math.pi <= w < math.pi

    @given(angles)
    def test_wrap_is_idempotent(self, theta):
        w = wrap_angle(theta)
        assert wrap_angle(w) == w

    @given(st.floats(-1e3, 1e3, allow_nan=False))
    def test_wrap_is_periodic(self, theta):
        assert circle_distance(wrap_angle(theta + 2.0 * math.pi),
                               wrap_angle(theta)) < 1e-12

    @given(angles, angles)
    def test_distance_is_a_symmetric_metric_bounded_by_pi(self, x, y):
        d = float(circle_distance(x, y))
        assert 0.0 <= d <= math.pi
        assert d == float(circle_distance(y, x))

    @given(angles, angles, angles)
    def test_distance_triangle_inequality(self, x, y, z):
        dxz = float(circle_distance(x, z))
        dxy = float(circle_distance(x, y))
        dyz = float(circle_distance(y, z))
        assert dxz <= dxy + dyz + 1e-9

    @given(st.integers(2, 512))
    def test_grid_nodes_are_already_wrapped(self, n):
        nodes = grid_nodes(n)
        assert np.array_equal(wrap_angle(nodes), nodes)
        assert nodes[0] == -math.pi


class TestIntervalMaps:
    @given(st.floats(-100.0, 100.0, allow_nan=False),
           st.floats(1e-3, 200.0, allow_nan=False),
           st.floats(0.0, 1.0, allow_nan=False))
    @example(a=0.0, length=177.0, frac=1.0)   # b must map to pi, not above
    def test_round_trip(self, a, length, frac):
        m = IntervalMap(a, a + length)
        x = min(a + frac * length, m.b)
        back = m.from_canonical(m.to_canonical(x))
        assert abs(back - x) <= 1e-12 * max(1.0, abs(a) + length)

    @given(st.floats(-100.0, 100.0, allow_nan=False),
           st.floats(1e-3, 200.0, allow_nan=False),
           st.floats(0.0, 1.0, allow_nan=False),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_map_preserves_order(self, a, length, f1, f2):
        m = IntervalMap(a, a + length)
        x1 = min(a + f1 * length, m.b)
        x2 = min(a + f2 * length, m.b)
        if x2 < x1:
            x1, x2 = x2, x1
        # monotone (ties allowed: nearby points may share a float angle)
        assert m.to_canonical(x1) <= m.to_canonical(x2)

    @given(st.floats(1e-3, 200.0, allow_nan=False),
           st.floats(1e-6, math.pi, allow_nan=False))
    @example(length=7.0, eps=math.pi)
    def test_width_maps_are_inverse(self, length, eps):
        m = IntervalMap(0.0, length)
        back = m.epsilon_to_canonical(m.epsilon_map(eps))
        assert math.isclose(back, eps, rel_tol=1e-12)


class TestMultiplier:
    @given(st.integers(1, 2000), widths)
    @settings(max_examples=200)
    def test_envelope(self, k, eps):
        a = np.zeros(k)
        a[-1] = 1.0
        out = multiplier_filter(CoefficientSequence(0.0, a, np.zeros(k)),
                                eps)
        assert abs(float(out.a[-1])) <= min(1.0, 1.0 / (k * eps)) + 1e-15

    @given(amplitudes, widths)
    def test_mean_passes_through_bitwise(self, amps, eps):
        seq = sequence_from(amps)
        assert multiplier_filter(seq, eps).a0 == seq.a0

    @given(amplitudes, widths,
           st.floats(-5.0, 5.0, allow_nan=False),
           st.floats(-5.0, 5.0, allow_nan=False))
    def test_linearity(self, amps, eps, alpha, beta):
        f = sequence_from(amps)
        g = CoefficientSequence(-f.a0, f.b, f.a[::-1])
        lhs = multiplier_filter(combine(f, g, alpha, beta), eps)
        rhs = combine(multiplier_filter(f, eps), multiplier_filter(g, eps),
                      alpha, beta)
        scale = 1.0 + (abs(alpha) + abs(beta)) * magnitude(f)
        assert sup_gap(lhs, rhs) <= 1e-12 * scale

    @given(amplitudes, widths, st.floats(-10.0, 10.0, allow_nan=False))
    def test_rotation_equivariance(self, amps, eps, alpha):
        seq = sequence_from(amps)
        lhs = rotated(multiplier_filter(seq, eps), alpha)
        rhs = multiplier_filter(rotated(seq, alpha), eps)
        assert sup_gap(lhs, rhs) <= 1e-12 * (1.0 + magnitude(seq))

    @given(amplitudes, widths, widths)
    def test_composition_is_commutative(self, amps, e1, e2):
        seq = sequence_from(amps)
        lhs = multiplier_filter(multiplier_filter(seq, e1), e2)
        rhs = multiplier_filter(multiplier_filter(seq, e2), e1)
        assert sup_gap(lhs, rhs) <= 1e-14 * (1.0 + magnitude(seq))


class TestSerialization:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_format_round_trips_bitwise(self, x):
        assert float(dumps_json(x)) == x
