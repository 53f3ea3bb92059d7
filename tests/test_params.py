import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhcrystal.params import (ModelParams, beta_threshold, epsilon_of_m,
                               field_threshold, mass_threshold, rescale,
                               unrescale)


def make_params(**kw):
    base = dict(m=1.0, a=1.0, b=0.5, delta=1.0, J=0.25, beta=2.0, dims=(4,))
    base.update(kw)
    return ModelParams(**base)


class TestRescale:
    def test_unit_mass_is_identity(self):
        r = rescale(make_params(m=1.0, b=0.5, delta=1.0, beta=2.0))
        assert r.b_m == 0.5
        assert r.delta_m == 1.0
        assert r.beta_hat == 2.0
        assert r.alpha == 1.0

    def test_quarter_mass(self):
        r = rescale(make_params(m=0.25, b=2.0, delta=1.0, beta=3.0))
        assert r.b_m == pytest.approx(1.0, rel=1e-15)
        assert r.delta_m == pytest.approx(2.0, rel=1e-15)
        assert r.beta_hat == pytest.approx(6.0, rel=1e-15)
        assert r.alpha == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @given(m=st.floats(0.01, 10.0), b=st.floats(0.0, 5.0), delta=st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_mass_cancels_in_product(self, m, b, delta):
        r = rescale(make_params(m=m, b=b, delta=delta))
        assert r.b_m * r.delta_m == pytest.approx(b * delta, rel=1e-12, abs=1e-12)

    @given(m=st.floats(0.01, 10.0), beta=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_beta_hat_relation(self, m, beta):
        r = rescale(make_params(m=m, beta=beta))
        assert r.beta_hat * math.sqrt(m) == pytest.approx(beta, rel=1e-12)

    def test_roundtrip(self):
        p = make_params(m=0.37, b=1.2, delta=0.8, beta=1.7, h=(0.3,))
        back = unrescale(rescale(p))
        assert back["m"] == pytest.approx(p.m, rel=1e-13)
        assert back["b"] == pytest.approx(p.b, rel=1e-13)
        assert back["delta"] == pytest.approx(p.delta, rel=1e-13)
        assert back["beta"] == pytest.approx(p.beta, rel=1e-13)
        assert back["h"][0] == pytest.approx(p.h[0], rel=1e-13)

    def test_infinite_beta_marker(self):
        r = rescale(make_params(beta=math.inf))
        assert math.isinf(r.beta_hat)
        assert math.isinf(unrescale(r)["beta"])

    def test_rescaled_constant_is_half_trace(self):
        p = make_params(m=0.5, d=2, h=(0.0, 0.0), nu=1, dims=(4,))
        r = rescale(p)
        ks = 2.0 * math.pi * np.arange(-1, 3) / 4  # the dual window of a 4-site ring
        trace = sum(math.sqrt(p.a + 4.0 * p.J * math.sin(k / 2.0) ** 2) for k in ks)
        assert r.C_m == pytest.approx(0.5 * p.d * trace, rel=1e-12)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            make_params(m=0.0)
        with pytest.raises(ValueError):
            make_params(m=-1.0)


class TestValidation:
    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_params(dims=(3,))

    def test_field_length_must_match_d(self):
        with pytest.raises(ValueError):
            make_params(h=(0.1, 0.2), d=1)

    def test_negative_anharmonicity_rejected(self):
        with pytest.raises(ValueError):
            make_params(b=-0.1)


class TestThresholds:
    def test_unit_base(self):
        # 64 b sqrt(a) C_G e^c = 1  ->  m* = 1
        assert mass_threshold(1.0 / 64.0, 1.0, 1.0, 0.0, 4) == pytest.approx(1.0)

    def test_d8_value(self):
        assert mass_threshold(1.0, 1.0, 1.0, 0.0, 8) == pytest.approx(1.0 / 64.0)
        assert mass_threshold(1.0, 1.0, 1.0, 0.0, 8) == pytest.approx(0.015625)

    def test_d4_value(self):
        assert mass_threshold(1.0, 1.0, 1.0, 0.0, 4) == pytest.approx(64.0 ** -2)

    def test_epsilon_at_zero_mass(self):
        assert epsilon_of_m(1.0, 1.0, 1.0, 0.0, 4) == 0.0

    def test_epsilon_at_threshold(self):
        for c in (-0.5, 0.0, 1.0):
            m_star = mass_threshold(0.7, 1.3, 2.0, c, 3)
            eps = epsilon_of_m(0.7, 1.3, 2.0, m_star, 3)
            assert eps * math.exp(c) == pytest.approx(1.0, rel=1e-12)

    def test_epsilon_unit_example(self):
        assert epsilon_of_m(1.0, 1.0, 1.0, 1.0, 8) == pytest.approx(64.0)

    def test_epsilon_increasing(self):
        values = [epsilon_of_m(1.0, 1.0, 1.0, m, 4) for m in (0.1, 0.2, 0.5, 1.0)]
        assert values == sorted(values)

    def test_field_threshold_zero_field(self):
        assert field_threshold(0.5, 0.0, 1.0, 1.0) == 0.5

    def test_field_threshold_unit_scale(self):
        # |h| C_G e^(c+1) = 1 keeps the threshold unchanged
        h = math.exp(-2.0)
        assert field_threshold(0.5, h, 1.0, 1.0) == pytest.approx(0.5)

    def test_field_threshold_scale_two(self):
        h = 2.0 * math.exp(-2.0)
        assert field_threshold(0.5, h, 1.0, 1.0) == pytest.approx(0.5 / 16.0)

    def test_beta_threshold_unit(self):
        assert beta_threshold(1.0 / 64.0, 1.0, 1.0, 0.0, 4) == pytest.approx(1.0)

    def test_beta_threshold_d2(self):
        assert beta_threshold(1.0, 1.0, 1.0, 0.0, 2) == pytest.approx(1.0 / 64.0)

    @given(b=st.floats(0.05, 5.0), a=st.floats(0.05, 5.0), cg=st.floats(0.05, 5.0),
           c=st.floats(-1.0, 2.0), d=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_beta_is_fourth_root_of_mass_threshold(self, b, a, cg, c, d):
        assert beta_threshold(b, a, cg, c, d) == pytest.approx(
            mass_threshold(b, a, cg, c, d) ** 0.25, rel=1e-12)

    @given(b=st.floats(0.05, 5.0), a=st.floats(0.05, 5.0), cg=st.floats(0.05, 5.0),
           c=st.floats(-1.0, 2.0), d=st.integers(1, 8), frac=st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_epsilon_below_thresh_iff_light(self, b, a, cg, c, d, frac):
        m_star = mass_threshold(b, a, cg, c, d)
        target = math.exp(-c)
        assert epsilon_of_m(b, a, cg, frac * m_star, d) < target
        assert epsilon_of_m(b, a, cg, m_star / frac, d) > target

    @given(h=st.floats(0.0, 10.0), cg=st.floats(0.05, 5.0), c=st.floats(-1.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_field_threshold_never_exceeds_base(self, h, cg, c):
        m_star = 0.37
        mh = field_threshold(m_star, h, cg, c)
        assert mh <= m_star * (1.0 + 1e-15)
        if h * cg * math.exp(c + 1.0) <= 1.0:
            assert mh == m_star

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mass_threshold(0.0, 1.0, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            beta_threshold(1.0, -1.0, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            epsilon_of_m(1.0, 1.0, 1.0, -0.1, 4)
