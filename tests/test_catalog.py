"""The built-in reference functions: formulas, evaluators, regeneration."""

import math

import numpy as np
import pytest

from circlecomb._quad import integrate
from circlecomb.catalog import (
    COMBED,
    RAGGED,
    exact_filtered,
    make,
    names,
)
from circlecomb.errors import (
    BadParams,
    DomainError,
    NonIntegrableInput,
    NotAvailable,
    UnknownName,
)
from circlecomb.realfilter import kernel_filter_eval
from circlecomb.spectrum import angular_derivative, compute_coefficients

from conftest import oracle_coefficients


ALL_NAMES = {"constant", "cosine", "delta", "delta_derivative", "step",
             "square_wave", "triangle_wave", "sawtooth", "spiked",
             "conjugate_delta"}


class TestRegistry:
    def test_names_lists_every_entry_sorted(self):
        assert set(names()) == ALL_NAMES
        assert list(names()) == sorted(names())

    def test_unknown_name_is_rejected(self):
        with pytest.raises(UnknownName, match="no catalog entry"):
            make("gaussian")

    def test_leftover_parameters_are_rejected(self):
        with pytest.raises(BadParams, match="unknown parameters"):
            make("cosine", k=2, phase=0.3)

    def test_non_finite_parameters_are_rejected(self):
        with pytest.raises(BadParams):
            make("delta", theta0=math.nan)
        with pytest.raises(BadParams):
            make("constant", c=math.inf)
        with pytest.raises(BadParams, match="parameter k must be finite"):
            make("cosine", k=10 ** 400)

    def test_parameter_range_checks(self):
        with pytest.raises(BadParams):
            make("cosine", k=0)
        with pytest.raises(BadParams):
            make("delta_derivative", order=0)
        with pytest.raises(BadParams):
            make("delta_derivative", order=9)
        with pytest.raises(BadParams, match="seam"):
            make("step", theta0=-math.pi)
        with pytest.raises(BadParams, match="l_plus - l_minus"):
            make("step", l_minus=1e308, l_plus=-1e308)

    def test_truncation_order_is_validated(self):
        with pytest.raises(DomainError):
            make("cosine", k=1).coefficients(0)


class TestCoefficientFormulas:
    """Closed-form coefficients against brute-force projections."""

    def check(self, entry, n=24, breakpoints=(), tol=1e-8):
        seq = entry.coefficients(n)
        a0, a, b = oracle_coefficients(
            lambda th: np.asarray(entry.evaluator(th), dtype=float),
            n, breakpoints=breakpoints)
        assert abs(seq.a0 - a0) < tol
        assert np.max(np.abs(seq.a - a)) < tol
        assert np.max(np.abs(seq.b - b)) < tol

    def test_constant(self):
        self.check(make("constant", c=3.25))

    def test_cosine(self):
        self.check(make("cosine", k=5))

    def test_step(self):
        # The brute-force trapezoid samples the midpoint convention at
        # the jump endpoints, which biases it by ~h/(2 pi); keep the
        # tolerance above that.
        self.check(make("step", theta0=0.5, l_minus=-1.0, l_plus=2.0),
                   breakpoints=(0.5,), tol=1e-5)

    def test_square_wave(self):
        self.check(make("square_wave"), breakpoints=(0.0,), tol=1e-6)

    def test_triangle_wave(self):
        self.check(make("triangle_wave"), breakpoints=(0.0,))

    def test_sawtooth(self):
        self.check(make("sawtooth"), tol=1e-6)

    def test_point_mass_formula_is_exact(self):
        theta0 = 0.8
        seq = make("delta", theta0=theta0).coefficients(6)
        k = np.arange(1, 7, dtype=float)
        assert seq.a0 == 1.0 / (2.0 * math.pi)
        assert np.array_equal(seq.a, np.cos(k * theta0) / math.pi)
        assert np.array_equal(seq.b, np.sin(k * theta0) / math.pi)

    def test_point_mass_derivative_composes_bitwise(self):
        base = make("delta", theta0=0.8).coefficients(16)
        for order in (1, 3, 8):
            seq = make("delta_derivative", theta0=0.8,
                       order=order).coefficients(16)
            ref = angular_derivative(base, order)
            assert seq.a0 == ref.a0
            assert np.array_equal(seq.a, ref.a)
            assert np.array_equal(seq.b, ref.b)

    def test_conjugate_point_mass_swaps_the_formula(self):
        theta0 = -1.1
        seq = make("conjugate_delta", theta0=theta0).coefficients(5)
        k = np.arange(1, 6, dtype=float)
        assert seq.a0 == 0.0
        assert np.array_equal(seq.a, -np.sin(k * theta0) / math.pi)
        assert np.array_equal(seq.b, np.cos(k * theta0) / math.pi)


class TestEvaluators:
    def test_step_takes_midpoint_values_at_both_jumps(self):
        ev = make("step", theta0=0.5, l_minus=-1.0, l_plus=3.0).evaluator
        assert float(ev(0.5)) == 1.0
        assert float(ev(-math.pi)) == 1.0
        assert float(ev(0.4)) == -1.0
        assert float(ev(0.6)) == 3.0

    def test_square_wave_is_odd_and_zero_at_its_jumps(self):
        ev = make("square_wave").evaluator
        assert float(ev(0.0)) == 0.0
        assert float(ev(-math.pi)) == 0.0
        assert float(ev(1.0)) == 1.0
        assert float(ev(-1.0)) == -1.0

    def test_triangle_wave_values(self):
        ev = make("triangle_wave").evaluator
        assert float(ev(0.0)) == 1.0
        assert float(ev(math.pi / 2)) == 0.0
        assert float(ev(-math.pi)) == -1.0

    def test_sawtooth_is_the_angle_with_a_seam_midpoint(self):
        ev = make("sawtooth").evaluator
        assert float(ev(0.7)) == 0.7
        assert float(ev(-math.pi)) == 0.0

    def test_point_masses_have_no_pointwise_evaluator(self):
        assert make("delta").evaluator is None
        assert make("delta_derivative", order=2).evaluator is None

    def test_conjugate_point_mass_blows_up_non_integrably(self):
        ent = make("conjugate_delta", theta0=0.7)
        assert math.isnan(float(ent.evaluator(0.7)))
        near = float(ent.evaluator(0.7 + 1e-3))
        assert near == pytest.approx(1.0 / (2.0 * math.pi * math.tan(5e-4)),
                                     rel=1e-10)
        sing = ent.evaluator.singular_points
        assert len(sing) == 1 and sing[0].integrable is False
        with pytest.raises(NonIntegrableInput):
            compute_coefficients(ent.evaluator, n=4)


class TestExactFiltered:
    CASES = [
        ("constant", {"c": 2.5}),
        ("cosine", {"k": 3}),
        ("step", {"theta0": 0.5, "l_minus": -1.0, "l_plus": 2.0}),
        ("square_wave", {}),
        ("triangle_wave", {}),
    ]

    @pytest.mark.parametrize("name,params", CASES,
                             ids=[c[0] for c in CASES])
    def test_closed_form_matches_quadrature(self, name, params, rng):
        ent = make(name, **params)
        for _ in range(8):
            theta = float(rng.uniform(-math.pi, math.pi))
            eps = float(rng.uniform(0.05, 0.6))
            closed = float(exact_filtered(ent, eps)(theta))
            assert closed == pytest.approx(
                kernel_filter_eval(ent.evaluator, theta, eps), abs=1e-9)

    def test_point_mass_filters_to_a_unit_pulse(self):
        ent = make("delta", theta0=0.7)
        for eps in (0.3, 1.0):
            pulse = exact_filtered(ent, eps)
            height = 1.0 / (2.0 * eps)
            assert float(pulse(0.7)) == height
            assert float(pulse(0.7 + eps)) == 0.5 * height
            assert float(pulse(0.7 - eps)) == 0.5 * height
            assert float(pulse(0.7 + eps + 0.2)) == 0.0
            total, _ = integrate(pulse.rule, -math.pi, math.pi,
                                 pins=pulse.pin_points())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_full_circle_pulse_edges_merge(self):
        pulse = exact_filtered(make("delta", theta0=0.7), math.pi)
        assert float(pulse(0.7 + math.pi)) == 1.0 / (2.0 * math.pi)

    def test_window_width_is_validated(self):
        ent = make("cosine", k=1)
        for eps in (0.0, -0.1, math.pi + 0.01):
            with pytest.raises(DomainError):
                exact_filtered(ent, eps)

    def test_entries_without_closed_forms_say_so(self):
        for name in ("sawtooth", "delta_derivative", "conjugate_delta"):
            with pytest.raises(NotAvailable):
                exact_filtered(make(name), 0.1)

    def test_overlapping_ramps_are_refused(self):
        with pytest.raises(NotAvailable, match="stay apart"):
            exact_filtered(make("step", theta0=0.5), 1.4)
        with pytest.raises(NotAvailable):
            exact_filtered(make("triangle_wave"), math.pi / 2)


class TestSpiked:
    def test_spike_replaces_one_value(self):
        ent = make("spiked", base="cosine", base_params={"k": 1},
                   point=0.5, value=9.0)
        assert float(ent.evaluator(0.5)) == 9.0
        assert float(ent.evaluator(0.6)) == pytest.approx(math.cos(0.6))
        assert ent.classification == RAGGED
        assert 0.5 in ent.evaluator.quadrature_pins

    def test_spiked_coefficients_delegate_to_the_base(self):
        ent = make("spiked", base="square_wave", point=0.5, value=9.0)
        base = make("square_wave")
        s, r = ent.coefficients(32), base.coefficients(32)
        assert s.a0 == r.a0
        assert np.array_equal(s.a, r.a)
        assert np.array_equal(s.b, r.b)

    def test_defaults_spike_the_square_wave(self):
        ent = make("spiked")
        assert ent.params["base"] == "square_wave"
        assert float(ent.evaluator(0.5)) == 0.0

    def test_base_must_be_a_pointwise_function(self):
        with pytest.raises(BadParams, match="no pointwise"):
            make("spiked", base="delta")

    def test_spiking_a_spike_is_refused(self):
        with pytest.raises(BadParams):
            make("spiked", base="spiked")

    def test_invisible_spike_is_refused(self):
        with pytest.raises(BadParams, match="nothing would change"):
            make("spiked", base="cosine", base_params={"k": 1},
                 point=0.0, value=1.0)

    def test_base_params_must_be_a_mapping(self):
        with pytest.raises(BadParams):
            make("spiked", base="cosine", base_params=[1])


class TestRegeneration:
    def test_coefficients_carry_their_generator_tag(self):
        ent = make("step", theta0=0.5, l_minus=-1.0, l_plus=2.0)
        seq = ent.coefficients(12)
        assert seq.generator == {"name": "step", "params": ent.params}

    @pytest.mark.parametrize("name,params", [
        ("cosine", {"k": 4}),
        ("delta", {"theta0": -0.3}),
        ("spiked", {"base": "cosine", "base_params": {"k": 2},
                    "point": 0.25, "value": 7.0}),
    ])
    def test_regenerate_is_bit_identical(self, name, params):
        seq = make(name, **params).coefficients(20)
        tag = seq.generator
        again = make(tag["name"], **tag["params"]).coefficients(20)
        assert again.a0 == seq.a0
        assert np.array_equal(again.a, seq.a)
        assert np.array_equal(again.b, seq.b)
