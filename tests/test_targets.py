import math

import numpy as np
import pytest

from pdrwm import (
    ParameterError,
    RectangleDensity,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
)


def pt(*vals):
    return np.array(vals, dtype=float)


class TestExponential:
    def test_values(self):
        t = make_exponential_tail(2.0)
        assert t.log_density(pt(0.0)) == 0.0
        assert t.log_density(pt(3.0)) == -6.0
        assert t.log_density(pt(-3.0)) == -6.0

    def test_tail_class(self):
        t = make_exponential_tail(0.7)
        assert t.tail_class.kind == "log_concave"
        assert t.tail_class.rate == 0.7

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            make_exponential_tail(0.0)
        with pytest.raises(ParameterError):
            make_exponential_tail(-1.0)


class TestSubexponential:
    def test_values(self):
        t = make_subexponential_tail(1.0, 0.5)
        assert t.log_density(pt(4.0)) == -2.0
        assert t.log_density(pt(-9.0)) == -3.0

    def test_exponent_domain(self):
        for beta in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ParameterError):
                make_subexponential_tail(1.0, beta)


class TestPolynomial:
    def test_values(self):
        t = make_polynomial_tail(3.0)
        assert t.log_density(pt(0.0)) == 0.0
        assert t.log_density(pt(1.0)) == pytest.approx(-3.0 * math.log(2.0))
        # symmetric
        assert t.log_density(pt(-5.0)) == t.log_density(pt(5.0))

    def test_power_domain(self):
        make_polynomial_tail(1.0)  # boundary is allowed
        with pytest.raises(ParameterError):
            make_polynomial_tail(0.5)


def test_gaussian_values():
    t = make_gaussian()
    assert t.log_density(pt(0.0)) == 0.0
    assert t.log_density(pt(2.0)) == -2.0
    t2 = make_gaussian(sigma=3.0)
    assert t2.log_density(pt(3.0)) == pytest.approx(-0.5)


def test_ridge_values():
    t = make_ridge_2d()
    assert t.dim == 2
    assert t.log_density(pt(0.0, 0.0)) == 0.0
    assert t.log_density(pt(1.0, 2.0)) == -9.0
    # deep along an axis is much denser than deep off-axis
    assert t.log_density(pt(4.0, 0.0)) > t.log_density(pt(4.0, 4.0))


class TestRectangle:
    def test_support(self):
        t = make_rectangle()
        assert not t.support_test(pt(0.0, 0.5))
        assert t.support_test(pt(0.0, 1.0))
        assert t.support_test(pt(1.0, 1.5))  # level 1 half-width is 1
        assert not t.support_test(pt(1.2, 1.5))
        assert t.support_test(pt(1.0 / 3.0, 2.5))
        assert not t.support_test(pt(0.34, 2.5))

    def test_log_density_is_level_weighted(self):
        t = make_rectangle()
        assert t.log_density(pt(0.0, 1.5)) == pytest.approx(-math.log(3.0))
        assert t.log_density(pt(0.0, 4.25)) == pytest.approx(-4.0 * math.log(3.0))
        assert t.log_density(pt(0.0, 0.2)) == -math.inf
        assert t.log_density(pt(2.0, 2.5)) == -math.inf

    def test_level_helpers(self):
        assert RectangleDensity.level(pt(0.0, 3.7)) == 3
        assert RectangleDensity.half_width(1) == 1.0
        assert RectangleDensity.half_width(2) == pytest.approx(1.0 / 3.0)

    def test_total_mass_matches_series(self):
        # sum_k density * area = sum_k 3^-k * 2*3^(1-k), a geometric series
        partial = sum(3.0 ** (-k) * 2.0 * 3.0 ** (1 - k) for k in range(1, 60))
        assert partial == pytest.approx(0.75, abs=1e-15)
        assert make_rectangle().total_mass == 0.75
