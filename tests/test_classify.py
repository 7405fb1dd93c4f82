"""Classification verdicts and the combing (spike-removal) routes."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from circlecomb.catalog import make
from circlecomb.classify import (
    COMBED,
    JUMP_MIDPOINT_MISMATCH,
    RAGGED,
    RECOVERED,
    SPIKE_MISMATCH,
    UNDEFINED,
    certificate_report,
    classify_coefficients,
    classify_pointwise,
    comb_by_disk,
    comb_by_filter_limit,
    comb_from_coefficients,
)
from circlecomb.errors import DomainError
from circlecomb.realfilter import GridFunction, grid_evaluator
from circlecomb.spectrum import (
    CoefficientSequence,
    EvaluatorFunction,
    SingularPoint,
    compute_coefficients,
    grid_nodes,
    wrap_angle,
)

from conftest import exact_phase_sums

EPS = np.finfo(float).eps


def verdict_tally(report):
    counts = {}
    for node in report.nodes:
        counts[node.verdict] = counts.get(node.verdict, 0) + 1
    return counts


# A spike is only visible to pointwise classification when it sits on a
# node of the classification grid; node 48 of 64 is exactly pi/2.
SPIKE_THETA = float(grid_nodes(64)[48])


@pytest.fixture(scope="module")
def cosine_report():
    return classify_pointwise(make("cosine", k=1).evaluator, n_grid=64)


@pytest.fixture(scope="module")
def spiked_entry():
    return make("spiked", base="cosine", base_params={"k": 1},
                point=SPIKE_THETA, value=99.0)


@pytest.fixture(scope="module")
def spiked_report(spiked_entry):
    return classify_pointwise(spiked_entry.evaluator, n_grid=64)


class TestClassifyEvaluators:
    def test_smooth_function_is_combed(self, cosine_report):
        assert cosine_report.overall == COMBED
        assert verdict_tally(cosine_report) == {RECOVERED: 64}

    def test_node_reports_carry_values_and_residuals(self, cosine_report):
        thetas = grid_nodes(64)
        for node, theta in zip(cosine_report.nodes, thetas):
            assert node.theta == theta
            assert abs(node.value - math.cos(theta)) < 1e-6
            assert node.residual < 1e-6

    def test_spike_at_a_node_is_flagged(self, spiked_report):
        assert spiked_report.overall == RAGGED
        assert verdict_tally(spiked_report) == {RECOVERED: 63,
                                                SPIKE_MISMATCH: 1}

    def test_spike_flag_lands_on_the_spiked_node(self, spiked_report):
        flagged = [n for n in spiked_report.nodes
                   if n.verdict == SPIKE_MISMATCH]
        assert len(flagged) == 1
        assert flagged[0].theta == SPIKE_THETA
        # the recovered limit ignores the spike value entirely
        assert abs(flagged[0].value - math.cos(SPIKE_THETA)) < 1e-6

    def test_step_with_midpoint_values_is_combed(self):
        ent = make("step", theta0=-math.pi / 2, l_minus=0.0, l_plus=1.0)
        report = classify_pointwise(ent.evaluator, n_grid=64)
        assert report.overall == COMBED
        assert verdict_tally(report) == {RECOVERED: 64}

    def test_wrong_valued_jump_is_a_midpoint_mismatch(self):
        # A 0/1 step valued 1.0 (not 0.5) at both of its jumps.
        def rule(th):
            u = wrap_angle(np.asarray(th, dtype=float))
            return np.where(u < 0.0, 0.0, 1.0)

        f = EvaluatorFunction(
            rule=rule,
            singular_points=(SingularPoint(0.0), SingularPoint(-math.pi)),
            name="misvalued-step")
        report = classify_pointwise(f, n_grid=64)
        assert report.overall == RAGGED
        assert verdict_tally(report) == {RECOVERED: 62,
                                         JUMP_MIDPOINT_MISMATCH: 2}
        flagged = sorted(n.theta for n in report.nodes
                         if n.verdict == JUMP_MIDPOINT_MISMATCH)
        assert flagged == [-math.pi, 0.0]

    def test_grid_size_and_tolerance_are_validated(self):
        f = make("cosine", k=1).evaluator
        with pytest.raises(DomainError):
            classify_pointwise(f, n_grid=8)
        with pytest.raises(DomainError):
            classify_pointwise(f, tol=0.0)
        with pytest.raises(DomainError, match="tol"):
            classify_pointwise(f, tol=math.inf)
        with pytest.raises(DomainError):
            classify_pointwise(f, eps_schedule=(0.1, 0.2, 0.3))


class TestClassifyGrids:
    """Grid data is classified through its periodic interpolant."""

    DATA_N = 4096

    def data_thetas(self):
        return grid_nodes(self.DATA_N)

    def test_smooth_grid_is_combed(self):
        th = self.data_thetas()
        grid = GridFunction(np.cos(th), np.ones(self.DATA_N, dtype=bool))
        report = classify_pointwise(grid_evaluator(grid), n_grid=256)
        assert report.overall == COMBED
        assert verdict_tally(report) == {RECOVERED: 256}

    def test_spiked_grid_node_is_flagged(self):
        th = self.data_thetas()
        values = np.cos(th)
        values[2048] = 99.0  # theta = 0, which is node 128 of 256
        grid = GridFunction(values, np.ones(self.DATA_N, dtype=bool))
        report = classify_pointwise(grid_evaluator(grid), n_grid=256)
        assert report.overall == RAGGED
        tally = verdict_tally(report)
        assert tally[SPIKE_MISMATCH] == 1
        assert tally[RECOVERED] == 239
        # Windows overlapping the interpolated tent around the spike
        # cannot settle; those neighbours come back undefined.
        assert tally[UNDEFINED] == 16
        flagged = [n for n in report.nodes if n.verdict == SPIKE_MISMATCH]
        assert flagged[0].theta == 0.0

    def test_step_grid_with_declared_jumps_is_combed(self):
        # Both jumps of a circle step (the nominal one and the seam)
        # must carry midpoint samples and be declared.
        th = self.data_thetas()
        values = np.where(th < -math.pi / 2, 0.0, 1.0)
        values[th == -math.pi / 2] = 0.5
        values[0] = 0.5  # seam node at -pi
        grid = GridFunction(values, np.ones(self.DATA_N, dtype=bool),
                            singular_points=(-math.pi / 2, -math.pi))
        report = classify_pointwise(grid_evaluator(grid), n_grid=256)
        assert report.overall == COMBED
        assert verdict_tally(report) == {RECOVERED: 256}


class TestCoefficientCertificates:
    def test_point_mass_coefficients_are_combed(self):
        cert = classify_coefficients(make("delta").coefficients(512))
        assert cert.verdict == COMBED
        assert cert.checked_k == (1, 256, 512)

    def test_wildly_growing_coefficients_are_still_combed(self):
        seq = make("delta_derivative", theta0=0.5, order=8).coefficients(256)
        cert = classify_coefficients(seq)
        assert cert.verdict == COMBED
        assert cert.checked_k == (1, 128, 256)

    def test_certificate_table_shape_and_final_gap(self):
        seq = make("cosine", k=1).coefficients(64)
        cert = classify_coefficients(seq)
        assert cert.eps_values == (0.1, 0.05, 0.025, 0.0125)
        assert len(cert.multipliers) == len(cert.checked_k)
        assert all(len(row) == 4 for row in cert.multipliers)
        # Worst final deviation from 1 sits at the top harmonic:
        # 1 - sin(64 * 0.0125) / (64 * 0.0125).
        expected = 1.0 - math.sin(0.8) / 0.8
        assert cert.max_final_gap == pytest.approx(expected, rel=1e-12)

    def test_empty_sequence_checks_nothing(self):
        cert = classify_coefficients(CoefficientSequence(2.5, [], []))
        assert cert.verdict == COMBED
        assert cert.checked_k == ()
        assert cert.max_final_gap == 0.0

    def test_certificate_report_form(self):
        cert = classify_coefficients(make("cosine", k=3).coefficients(16))
        report = certificate_report(cert)
        assert report.overall == COMBED
        assert report.nodes == ()
        assert report.params["method"] == "coefficients"
        assert report.params["checked_k"] == [1, 8, 16]
        assert report.params["max_final_gap"] == cert.max_final_gap
        assert report.params["multipliers"] == [list(r)
                                                for r in cert.multipliers]


class TestCombByFilterLimit:
    def test_spike_is_removed(self, spiked_entry):
        grid = comb_by_filter_limit(spiked_entry.evaluator, n_grid=64)
        assert bool(grid.defined.all())
        assert np.max(np.abs(grid.values - np.cos(grid.thetas()))) < 1e-9
        assert grid.note == "combed by shrinking-window limits"

    def test_declared_singular_points_propagate(self):
        ent = make("step", theta0=0.5, l_minus=-1.0, l_plus=3.0)
        grid = comb_by_filter_limit(ent.evaluator, n_grid=64)
        assert grid.singular_points == (-math.pi, 0.5)

    def test_unreachable_nodes_become_mask_holes(self):
        # Data undefined on an arc: the interpolant is unusable there,
        # so combing leaves holes instead of raising.
        th = grid_nodes(64)
        defined = np.abs(th - 1.5) > 0.5
        values = np.where(defined, np.cos(th), np.nan)
        f = grid_evaluator(GridFunction(values, defined))
        grid = comb_by_filter_limit(f, n_grid=64)
        assert not bool(grid.defined.all())
        assert bool(grid.defined.any())
        assert np.all(np.isnan(grid.values[~grid.defined]))
        good = grid.defined
        # accuracy is capped by the 64-node piecewise-linear curvature
        assert np.max(np.abs(grid.values[good] - np.cos(th[good]))) < 1e-3


class TestCombFromCoefficients:
    def test_smooth_series_is_settled(self):
        res = comb_from_coefficients(make("cosine", k=1).coefficients(64),
                                     n_grid=64)
        # The cosine at the exact nodes, cos(pi ((2j - N) mod 2N) / N),
        # not at the rounded ones.
        exact = exact_phase_sums(0.0, [1.0], [0.0], 64)
        assert np.max(np.abs(res.grid.values - exact)) <= 2 * EPS
        assert res.sup_change == 0.0
        assert res.non_convergent is False
        assert res.grid.note == "series reconstruction at n=64"

    def test_slow_series_is_flagged_as_still_moving(self):
        res = comb_from_coefficients(make("square_wave").coefficients(1024),
                                     n_grid=256)
        assert res.non_convergent is True
        assert res.sup_change > 1e-3

    def test_generator_tag_supplies_singular_points(self):
        res = comb_from_coefficients(make("square_wave").coefficients(1024),
                                     n_grid=256)
        assert res.grid.singular_points == (-math.pi, 0.0)

    def test_untagged_sequence_gets_no_declarations(self):
        seq = CoefficientSequence(0.0, [1.0], [0.0])
        res = comb_from_coefficients(seq, n_grid=64)
        assert res.grid.singular_points == ()

    def test_explicit_singular_points_override_the_tag(self):
        res = comb_from_coefficients(make("square_wave").coefficients(64),
                                     n_grid=64, singular_points=(0.25,))
        assert res.grid.singular_points == (0.25,)


class TestCombByFourier:
    # The Fourier route: coefficients by quadrature, then resummed.
    def test_node_spike_is_invisible_to_quadrature(self, spiked_entry):
        # The spiked point is pinned as a panel edge, so coefficients
        # match those of the spike-free base pinned the same way, bit
        # for bit.
        base = replace(make("cosine", k=1).evaluator,
                       quadrature_pins=(SPIKE_THETA,))
        s_spiked = compute_coefficients(spiked_entry.evaluator, n=64)
        s_base = compute_coefficients(base, n=64)
        assert s_spiked.a0 == s_base.a0
        assert np.array_equal(s_spiked.a, s_base.a)
        assert np.array_equal(s_spiked.b, s_base.b)

    def test_combed_grid_matches_the_base_function(self, spiked_entry):
        res = comb_from_coefficients(
            compute_coefficients(spiked_entry.evaluator, n=64), n_grid=64)
        err = np.max(np.abs(res.grid.values - np.cos(grid_nodes(64))))
        assert err < 1e-9
        assert res.non_convergent is False

    def test_jumpy_function_converges_away_from_its_jumps(self):
        ent = make("square_wave")
        res = comb_from_coefficients(
            compute_coefficients(ent.evaluator, n=1024), n_grid=256)
        th = res.grid.thetas()
        far = (np.abs(th) >= 0.1) & (np.abs(np.abs(th) - math.pi) >= 0.1)
        err = np.max(np.abs(res.grid.values[far] - np.sign(th[far])))
        assert err < 8e-3
        assert res.non_convergent is True


class TestCombByDisk:
    def test_point_mass_combs_to_zero_off_its_point(self):
        seq = make("delta", theta0=0.0).coefficients(32768)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = comb_by_disk(seq, n_grid=64)
        th = grid.thetas()
        assert list(th[~grid.defined]) == [0.0]
        assert np.max(np.abs(grid.values[grid.defined])) < 1e-6
        assert grid.note == "radial boundary values at n=32768"

    def test_smooth_series_is_recovered_to_high_accuracy(self):
        grid = comb_by_disk(make("cosine", k=1).coefficients(64), n_grid=64)
        assert bool(grid.defined.all())
        assert np.max(np.abs(grid.values - np.cos(grid.thetas()))) < 1e-8
