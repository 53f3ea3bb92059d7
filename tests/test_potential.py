import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhcrystal import potential as potential_module
from anhcrystal.potential import (BoundReport, auxiliary_potential,
                                  derivative_bound_check,
                                  finite_difference_derivative,
                                  gaussian_representation_check,
                                  gibbs_factor_derivatives, nth_derivative,
                                  nth_derivative_hermite, potential)


class TestPotential:
    def test_value_at_origin(self):
        assert potential((0.0, 0.0), b=0.7, delta=2.0) == 0.7

    def test_rescaling_relation(self):
        # m^(1/2) V(alpha x) equals the rescaled potential at x
        m, b, delta = 0.25, 2.0, 1.0
        alpha = m ** -0.25
        b_m, delta_m = b * math.sqrt(m), delta / math.sqrt(m)
        for x in (0.0, 0.7, -1.3):
            lhs = math.sqrt(m) * potential(alpha * x, b, delta)
            assert lhs == pytest.approx(potential(x, b_m, delta_m), rel=1e-12)

    def test_vanishes_at_sharp_width(self):
        assert potential(1.0, b=1.0, delta=1e6) < 1e-200


class TestGaussianRepresentation:
    def test_at_origin(self):
        lhs, rhs, diff = gaussian_representation_check((0.0,), b=0.9, delta=1.3)
        assert rhs == pytest.approx(0.9)
        assert diff < 1e-10

    def test_one_dimensional_value(self):
        lhs, rhs, diff = gaussian_representation_check((1.0,), b=1.0, delta=1.0)
        assert rhs == pytest.approx(math.exp(-0.5))
        assert diff < 1e-8

    def test_two_dimensional_value(self):
        lhs, rhs, diff = gaussian_representation_check((1.0, 1.0), b=1.0, delta=2.0)
        assert rhs == pytest.approx(math.exp(-2.0))
        assert diff < 1e-8

    @given(q=st.floats(-2.5, 2.5), b=st.floats(0.1, 3.0), delta=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_quadrature_matches(self, q, b, delta):
        _, _, diff = gaussian_representation_check((q,), b=b, delta=delta)
        assert diff < 1e-8


class TestDerivativeRecursion:
    def test_base_case(self):
        x = np.array([0.0, 0.5, -1.0])
        expected = -0.8 * np.exp(-0.5 * 1.5 * x ** 2)
        assert np.allclose(nth_derivative(x, 0, 0.8, 1.5), expected)

    def test_first_derivative(self):
        x = np.linspace(-2, 2, 9)
        expected = 0.8 * 1.5 * x * np.exp(-0.5 * 1.5 * x ** 2)
        assert np.allclose(nth_derivative(x, 1, 0.8, 1.5), expected, atol=1e-14)

    def test_second_derivative_at_origin(self):
        assert nth_derivative(np.array([0.0]), 2, 0.8, 1.5)[0] == pytest.approx(
            0.8 * 1.5)

    def test_matches_finite_differences(self):
        b_m, delta_m = 0.7, 1.3
        x = np.linspace(-3, 3, 61)
        for n in range(1, 6):
            analytic = nth_derivative(x, n, b_m, delta_m)
            # h balances truncation against roundoff amplification ~ eps/h^n
            fd = finite_difference_derivative(
                lambda y: nth_derivative(y, 0, b_m, delta_m), x, n, h=0.05)
            scale = np.max(np.abs(analytic))
            assert np.max(np.abs(analytic - fd)) / scale < 1e-5

    def test_matches_hermite_closed_form(self):
        x = np.linspace(-3, 3, 31)
        for n in range(11):
            rec = nth_derivative(x, n, 0.6, 2.0)
            herm = nth_derivative_hermite(x, n, 0.6, 2.0)
            assert np.allclose(rec, herm, rtol=1e-10, atol=1e-12)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            nth_derivative(0.0, 31, 1.0, 1.0)


class TestBounds:
    def test_zeroth_order_trivial(self):
        # |X| = b e^{-d x^2/2} <= b e^{-d x^2/4}
        x = np.linspace(-4, 4, 101)
        lhs = np.abs(nth_derivative(x, 0, 0.5, 2.0))
        rhs = 0.5 * np.exp(-0.5 * x ** 2)
        assert np.all(lhs <= rhs + 1e-15)

    def test_reference_case(self):
        grid = np.arange(-5.0, 5.0, 0.01)
        report = derivative_bound_check(10, grid, b_m=0.5, delta_m=2.0)
        assert report.ok, report.first_violation

    def test_first_derivative_vanishes_at_origin(self):
        assert nth_derivative(np.array([0.0]), 1, 0.5, 2.0)[0] == 0.0

    @given(b_m=st.floats(0.02, 0.98), delta_m=st.floats(0.1, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_random_parameters(self, b_m, delta_m):
        grid = np.arange(-5.0, 5.0, 0.05)
        report = derivative_bound_check(8, grid, b_m, delta_m)
        assert report.ok, report.first_violation

    def test_report_type(self):
        report = derivative_bound_check(4, np.linspace(-2, 2, 11), 0.3, 1.0)
        assert isinstance(report, BoundReport)
        assert report.max_ratio <= 1.0

    def test_oversized_prototype_derivative_fails_first_at_order_zero(self, monkeypatch):
        # at n = 0 the prototype bound is tight at x = 0, so 1 % more breaks it
        monkeypatch.setattr(potential_module, "nth_derivative",
                            lambda *args, _f=nth_derivative: 1.01 * _f(*args))
        report = derivative_bound_check(10, np.arange(-5.0, 5.0, 0.01), b_m=0.5, delta_m=2.0)
        assert not report.ok and report.first_violation[:2] == ("prototype", 0), report
        name, n, x, lhs, rhs = report.first_violation
        assert lhs > rhs and abs(x) < 0.5 and report.max_ratio == pytest.approx(1.01)

    def test_oversized_gibbs_factor_derivatives_fail_their_bound(self, monkeypatch):
        monkeypatch.setattr(potential_module, "gibbs_factor_derivatives",
                            lambda *args, _f=gibbs_factor_derivatives: 10.0 * _f(*args))
        report = derivative_bound_check(10, np.arange(-5.0, 5.0, 0.01), b_m=0.5, delta_m=2.0)
        assert not report.ok and report.first_violation[:2] == ("gibbs-factor", 1), report
        assert report.first_violation[3] > report.first_violation[4]


class TestGibbsFactorDerivatives:
    def test_matches_finite_differences(self):
        b_m, delta_m = 0.6, 1.4
        x = np.linspace(-2.5, 2.5, 41)
        ana = gibbs_factor_derivatives(x, 4, b_m, delta_m)

        def gibbs(y):
            return np.exp(-b_m * np.exp(-0.5 * delta_m * y ** 2))

        for n in range(1, 5):
            fd = finite_difference_derivative(gibbs, x, n, h=0.02)
            scale = max(np.max(np.abs(ana[n])), 1e-3)
            assert np.max(np.abs(ana[n] - fd)) / scale < 1e-5


class TestAuxiliaryPotential:
    def test_zero_partner(self):
        assert auxiliary_potential(1.2, 0.0, b_m=0.7, delta_m=2.0) == pytest.approx(
            2 * 0.7 * math.exp(-0.5 * 1.2 ** 2 * 2.0 / 2))

    def test_partner_sign_symmetry(self):
        for x, y in ((0.5, 1.0), (1.5, -0.3), (0.0, 2.0)):
            assert auxiliary_potential(x, y, 0.5, 1.5) == pytest.approx(
                auxiliary_potential(x, -y, 0.5, 1.5), rel=1e-15)

    def test_reference_value(self):
        assert auxiliary_potential(1.0, 1.0, b_m=1.0, delta_m=1.0) == pytest.approx(
            math.exp(-1.0) + 1.0)

    def test_vector_displacements(self):
        val = auxiliary_potential((1.0, 0.0), (0.0, 1.0), b_m=1.0, delta_m=2.0)
        assert val == pytest.approx(2 * math.exp(-1.0))
