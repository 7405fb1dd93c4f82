"""Affine transport between physical intervals and the canonical circle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from circlecomb.classify import COMBED, RAGGED, SPIKE_MISMATCH, classify_pointwise
from circlecomb.errors import DomainError, OutOfDomain, UndefinedHere
from circlecomb.realfilter import (
    GridFunction,
    grid_evaluator,
    kernel_filter_eval,
    kernel_filter_grid,
)
from circlecomb.rescale import (
    IntervalMap,
    filter_physical_grid,
    pullback,
    transport_filter,
)
from circlecomb.spectrum import (
    EvaluatorFunction,
    SingularPoint,
    circle_distance,
    grid_nodes,
    wrap_angle,
)


def interval_cos(a=0.0, b=10.0):
    return EvaluatorFunction(rule=lambda x: np.cos(np.asarray(x, float)),
                             domain=(a, b), name="cos-on-interval")


class TestIntervalMap:
    def test_forward_map_examples(self):
        m = IntervalMap(0.0, 10.0)
        assert m.to_canonical(5.0) == 0.0
        assert m.to_canonical(2.5) == -math.pi / 2
        assert m.to_canonical(0.0) == -math.pi
        assert m.to_canonical(10.0) == math.pi

    def test_round_trip(self, rng):
        m = IntervalMap(-3.0, 4.5)
        xs = rng.uniform(-3.0, 4.5, size=32)
        assert np.max(np.abs(m.from_canonical(m.to_canonical(xs)) - xs)) \
            < 1e-12

    def test_points_outside_are_rejected_both_ways(self):
        m = IntervalMap(0.0, 10.0)
        with pytest.raises(OutOfDomain):
            m.to_canonical(10.5)
        with pytest.raises(OutOfDomain):
            m.from_canonical(3.5)

    def test_degenerate_or_reversed_intervals_are_rejected(self):
        for a, b in [(3.0, 3.0), (5.0, 1.0), (0.0, math.inf)]:
            with pytest.raises(DomainError):
                IntervalMap(a, b)
            with pytest.raises(DomainError):
                GridFunction(np.zeros(4), np.ones(4, bool), domain=(a, b))

    def test_window_width_scaling(self):
        assert IntervalMap(0.0, 2 * math.pi).epsilon_map(0.1) == 0.1
        assert IntervalMap(0.0, 10.0).epsilon_map(math.pi) == 5.0
        m = IntervalMap(0.0, 10.0)
        assert m.epsilon_to_canonical(5.0) == pytest.approx(math.pi)

    def test_window_widths_are_validated(self):
        m = IntervalMap(0.0, 10.0)
        with pytest.raises(DomainError):
            m.epsilon_map(4.0)
        with pytest.raises(DomainError):
            m.epsilon_to_canonical(5.5)
        with pytest.raises(DomainError):
            m.epsilon_to_canonical(0.0)


class TestPullback:
    def test_values_carry_over(self):
        g = interval_cos()
        f = pullback(g)
        m = IntervalMap(0.0, 10.0)
        for x in (0.5, 2.0, 7.25):
            assert float(f(m.to_canonical(x))) == pytest.approx(
                math.cos(x), abs=1e-14)
        assert f.name == "pullback-cos-on-interval"

    def test_endpoints_become_hard_boundaries(self):
        f = pullback(interval_cos())
        seam = [(s.theta, s.integrable) for s in f.singular_points]
        assert (-math.pi, False) in seam
        assert (math.pi, False) in seam

    def test_declared_points_move_with_the_map(self):
        def srule(x):
            x = np.asarray(x, float)
            return np.where(x < 5.0, 0.0, 1.0)

        g = EvaluatorFunction(rule=srule, domain=(0.0, 10.0),
                              singular_points=(SingularPoint(5.0),),
                              quadrature_pins=(2.5,))
        f = pullback(g)
        assert f.singular_points[0].theta == 0.0
        assert f.singular_points[0].integrable is True
        assert f.quadrature_pins == (-math.pi / 2,)

    def test_circle_evaluators_are_refused(self):
        with pytest.raises(DomainError, match="already lives on the circle"):
            pullback(EvaluatorFunction(rule=np.cos))

    def test_seam_crossing_windows_are_refused(self):
        f = pullback(interval_cos())
        with pytest.raises(UndefinedHere):
            kernel_filter_eval(f, math.pi - 0.05, 0.2)


class TestTransportFilter:
    def test_constant_passes_through(self):
        c = EvaluatorFunction(
            rule=lambda x: np.full_like(np.asarray(x, float), 3.0),
            domain=(0.0, 10.0))
        assert transport_filter(c, 7.0, 0.25) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("x", [7.0, 3.0, 9.9])
    def test_narrow_window_divides_by_the_computed_width(self, x):
        c = EvaluatorFunction(rule=np.ones_like, domain=(0.0, 10.0))
        got = transport_filter(c, x, 1e-9)
        assert abs(got - 1.0) <= 4 * np.spacing(1.0)

    def test_cosine_picks_up_the_window_factor(self):
        # average of cos over x +- 0.1 is cos(x) * sin(0.1)/0.1
        value = transport_filter(interval_cos(), 2.0, 0.1)
        assert value == pytest.approx(math.cos(2.0) * math.sin(0.1) / 0.1,
                                      abs=1e-10)

    def test_step_averages_to_its_midpoint(self):
        def srule(x):
            x = np.asarray(x, float)
            return np.where(x < 5.0, 0.0, 1.0)

        g = EvaluatorFunction(rule=srule, domain=(0.0, 10.0),
                              singular_points=(SingularPoint(5.0),))
        assert transport_filter(g, 5.0, 0.3) == pytest.approx(0.5, abs=1e-12)

    def test_commutes_with_the_canonical_filter(self, rng):
        g = interval_cos()
        f = pullback(g)
        m = IntervalMap(0.0, 10.0)
        for _ in range(32):
            x = float(rng.uniform(1.0, 9.0))
            ep = float(rng.uniform(0.05, 0.5))
            direct = transport_filter(g, x, ep)
            mapped = kernel_filter_eval(f, m.to_canonical(x),
                                        m.epsilon_to_canonical(ep))
            assert abs(direct - mapped) < 1e-9

    def test_windows_may_not_leave_the_domain(self):
        g = interval_cos()
        with pytest.raises(OutOfDomain):
            transport_filter(g, 0.05, 0.2)
        with pytest.raises(OutOfDomain):
            transport_filter(g, 9.99, 0.2)
        with pytest.raises(DomainError):
            transport_filter(g, 5.0, 0.0)

    def test_non_integrable_interior_points_are_refused(self):
        g = EvaluatorFunction(
            rule=lambda x: 1.0 / (np.asarray(x, float) - 5.0),
            domain=(0.0, 10.0),
            singular_points=(SingularPoint(5.0, integrable=False),))
        with pytest.raises(UndefinedHere):
            transport_filter(g, 5.1, 0.2)


class TestPhysicalGrids:
    N = 256
    DOMAIN = (0.0, 10.0)

    def physical_samples(self):
        m = IntervalMap(*self.DOMAIN)
        xs = m.from_canonical(grid_nodes(self.N))
        return m, xs

    def test_grid_pullback_interpolates_physical_data(self):
        m, xs = self.physical_samples()
        grid = GridFunction(np.cos(xs), np.ones(self.N, bool))
        f = grid_evaluator(replace(grid, domain=self.DOMAIN))
        theta = m.to_canonical(2.5)
        assert float(f(theta)) == pytest.approx(math.cos(2.5), abs=1e-12)
        hard = [(s.theta, s.integrable) for s in f.singular_points]
        assert (-math.pi, False) in hard and (math.pi, False) in hard

    def test_boundary_mask_clears_the_seam_neighbourhood(self):
        m, xs = self.physical_samples()
        grid = GridFunction(np.cos(xs), np.ones(self.N, bool), note="raw")
        eps = 0.2
        masked = kernel_filter_grid(replace(grid, domain=self.DOMAIN), eps)
        h = 2.0 * math.pi / self.N
        keep = circle_distance(grid.thetas(), math.pi) > eps + h
        assert np.array_equal(masked.defined, keep)
        assert np.all(np.isnan(masked.values[~keep]))
        assert masked.note == "filtered(eps=0.20000000000000001) raw " \
            "boundary-masked"

    def test_filtered_physical_grid_matches_the_window_model(self):
        m, xs = self.physical_samples()
        grid = GridFunction(np.cos(xs), np.ones(self.N, bool))
        eps_phys = m.epsilon_map(0.2)
        out = filter_physical_grid(replace(grid, domain=self.DOMAIN),
                                   eps_phys)
        assert not bool(out.defined.all())  # seam nodes are masked
        good = out.defined
        model = np.cos(xs) * math.sin(eps_phys) / eps_phys
        # piecewise-linear interpolation caps the accuracy at ~h^2
        assert np.max(np.abs(out.values[good] - model[good])) < 1e-3

    def test_classification_is_transport_invariant(self):
        m = IntervalMap(*self.DOMAIN)
        th = grid_nodes(4096)
        xs = m.from_canonical(th)

        smooth = GridFunction(np.cos(xs), np.ones(4096, bool))
        rep = classify_pointwise(
            grid_evaluator(replace(smooth, domain=self.DOMAIN)), n_grid=256)
        assert rep.overall == COMBED

        values = np.cos(xs)
        values[2048] = 50.0  # x = 5.0, the image of theta = 0
        spiked = GridFunction(values, np.ones(4096, bool))
        rep = classify_pointwise(
            grid_evaluator(replace(spiked, domain=self.DOMAIN)), n_grid=256)
        assert rep.overall == RAGGED
        flagged = [n.theta for n in rep.nodes if n.verdict == SPIKE_MISMATCH]
        assert flagged == [0.0]
        assert m.from_canonical(flagged[0]) == 5.0
