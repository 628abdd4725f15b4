import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdrwm import (
    ParameterError,
    RectangleDensity,
    TargetDensity,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
)
from pdrwm.targets import TARGET_FACTORIES


def pt(*vals):
    return np.array(vals, dtype=float)


class TestExponential:
    def test_values(self):
        t = make_exponential_tail(2.0)
        assert t.log_density(pt(0.0)) == 0.0
        assert t.log_density(pt(3.0)) == -6.0
        assert t.log_density(pt(-3.0)) == -6.0

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


#: each overflow-prone family's formula in its coordinates: both forms
#: must give its bits wherever it does not overflow
OLD_FORMULAS = (
    (make_gaussian(0.5), lambda u: -0.5 * u * u / 0.25),
    (make_ridge_2d(), lambda u, v: -u * u - v * v - u * u * v * v),
)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


class TestOverflow:
    """Where the Gaussian and ridge formulas overflow, both forms give
    ``-inf`` without a warning; everywhere else, the formula's bits."""

    def test_overflow_points_are_minus_inf(self):
        for t, points in (
            (make_gaussian(0.5), [(1e200,), (-1e200,), (math.inf,), (-math.inf,), (1.7e308,)]),
            (make_ridge_2d(), [(1e200, 0.0), (-1e200, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                               (0.0, math.inf), (0.0, -math.inf), (1e-200, math.inf),
                               (1e200, 1e200)]),
        ):
            xs = np.array(points)
            assert [t.log_density(x) for x in xs] == [-math.inf] * len(xs)
            assert t.log_density_batch(xs).tolist() == [-math.inf] * len(xs)

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=20))
    def test_finite_values_keep_the_formula_bits(self, points):
        for t, old in OLD_FORMULAS:
            xs = np.array(points, dtype=float)[:, : t.dim]
            # the points at which the old formula does not overflow
            xs = xs[[math.isfinite(old(*map(float, x))) for x in xs]]
            for x in xs:
                assert _bits(t.log_density(x)) == _bits(old(*map(float, x)))
            # the suite's error::RuntimeWarning filter would raise here had
            # the old batch formula overflowed on these points
            assert _bits(t.log_density_batch(xs)) == _bits(old(*xs.T))


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
        # level 3 carries density weight 3**-3
        assert math.exp(t.log_density(pt(0.0, 3.5))) == pytest.approx(1.0 / 27.0)

    def test_level_helpers(self):
        assert RectangleDensity.level(pt(0.0, 3.7)) == 3
        # level 4 spans heights [4, 5)
        assert RectangleDensity.level(pt(0.0, 4.0)) == 4
        assert RectangleDensity.level(pt(0.0, np.nextafter(5.0, 0.0))) == 4
        assert RectangleDensity.level(pt(0.0, 5.0)) == 5
        assert RectangleDensity.half_width(1) == 1.0
        assert RectangleDensity.half_width(2) == pytest.approx(1.0 / 3.0)
        assert RectangleDensity.half_width(3) == pytest.approx(1.0 / 9.0)

    def test_width_thresholds(self):
        hw = RectangleDensity.half_width
        assert RectangleDensity.subnormal_level == 646
        assert hw(645) >= sys.float_info.min > hw(646)
        assert RectangleDensity.zero_level == 680
        assert hw(679) > 0.0 == hw(680) == hw(10_000)

    def test_array_form_is_the_scalar_form(self):
        ks = np.arange(-5, 720)
        expect = [RectangleDensity.half_width(min(max(int(k), 1), 680)) for k in ks]
        for levels in (ks, ks.astype(float)):
            got = RectangleDensity.half_widths(levels)
            assert got.tolist() == expect
        assert RectangleDensity.half_widths(np.array([np.inf, -np.inf])).tolist() == [
            0.0, 1.0
        ]

    def test_total_mass_matches_series(self):
        # sum_k density * area = sum_k 3^-k * 2*3^(1-k), a geometric series
        partial = sum(3.0 ** (-k) * 2.0 * 3.0 ** (1 - k) for k in range(1, 60))
        assert partial == pytest.approx(0.75, abs=1e-15)
        assert make_rectangle().total_mass == 0.75

    def test_total_mass_is_not_a_field(self):
        t = make_rectangle()
        assert "total_mass" not in {f.name for f in dataclasses.fields(t)}
        with pytest.raises(TypeError):
            RectangleDensity(*dataclasses.astuple(t), total_mass=1.0)
        relabelled = dataclasses.replace(t, label="wrapped")
        assert relabelled.total_mass == 0.75
        assert relabelled.log_density(pt(0.0, 2.5)) == t.log_density(pt(0.0, 2.5))


def _staircase_edges(levels) -> np.ndarray:
    """Points on each level's side boundary, one ulp inside it and one ulp
    outside it, at both sides and at the level's floor and mid-height."""
    rows = []
    for k in levels:
        w = RectangleDensity.half_width(k)
        for y1 in (w, np.nextafter(w, 0.0), np.nextafter(w, np.inf)):
            for y2 in (float(k), k + 0.5):
                rows += [(y1, y2), (-y1, y2)]
    return np.array(rows)


def _assert_batch_is_per_point(ys):
    t = make_rectangle()
    batch = t.log_density_batch(ys)
    assert (batch > -np.inf).tolist() == [t.support_test(y) for y in ys]
    per_point = np.array([t.log_density(y) for y in ys])
    assert batch.tobytes() == per_point.tobytes()


class TestStaircaseParity:
    """The batch log-density reads the per-point rule bit for bit."""

    def test_level_boundaries(self):
        ys = _staircase_edges(range(1, 701))
        _assert_batch_is_per_point(ys)
        # the boundary itself is in the support, one ulp past it is not
        t = make_rectangle()
        on = t.log_density_batch(ys) > -np.inf
        assert on.reshape(700, 3, 2, 2)[:, :2].all()
        assert not on.reshape(700, 3, 2, 2)[:, 2].any()

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-3.5, 3.5), st.floats(allow_nan=True)),
                st.one_of(
                    st.floats(-2.0, 30.0),
                    st.floats(640.0, 720.0),
                    st.floats(),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_drawn_points(self, points):
        _assert_batch_is_per_point(np.array(points, dtype=float))

    def test_non_finite_heights(self):
        # no level at +-inf or NaN: off the support in both forms
        ys = np.array([(y1, y2) for y1 in (0.0, 0.5, -3.0)
                       for y2 in (math.inf, -math.inf, math.nan)])
        _assert_batch_is_per_point(ys)
        t = make_rectangle()
        assert (t.log_density_batch(ys) == -np.inf).all()
        assert not any(t.support_test(y) for y in ys)


#: arguments that build each named family; a new family must be listed
FACTORY_ARGS = {
    "exponential": (1.5,),
    "subexponential": (1.0, 0.5),
    "polynomial": (2.0,),
    "gaussian": (0.5,),
    "ridge": (),
    "rectangle": (),
}
SPECIAL = (0.0, 1.0, 1e200, -1e200, math.inf, -math.inf, math.nan)


def _assert_one_support_rule(t, ys):
    """Per-point ``support_test``, per-point ``log_density > -inf`` and the
    batch ``> -inf`` name the same points."""
    per_point = [t.log_density(y) > -math.inf for y in ys]
    assert [t.support_test(y) for y in ys] == per_point
    assert (t.log_density_batch(ys) > -np.inf).tolist() == per_point


class TestOneSupportRule:
    """Every family's support is its log-density ``> -inf``, NaN off it."""

    def test_special_coordinates(self):
        assert set(FACTORY_ARGS) == set(TARGET_FACTORIES)
        for name, args in FACTORY_ARGS.items():
            t = TARGET_FACTORIES[name](*args)
            _assert_one_support_rule(t, np.array([*itertools.product(SPECIAL, repeat=t.dim)]))

    @given(
        st.lists(
            st.tuples(*[st.one_of(st.floats(-30.0, 30.0), st.sampled_from(SPECIAL),
                                  st.floats())] * 2),
            min_size=1,
            max_size=20,
        )
    )
    def test_drawn_points(self, points):
        # a one-dimensional family reads the first coordinate of each pair
        points = np.array(points, dtype=float)
        for name, args in FACTORY_ARGS.items():
            t = TARGET_FACTORIES[name](*args)
            _assert_one_support_rule(t, points[:, : t.dim])

    def test_huge_and_nan_points_are_off_the_support(self):
        g = make_gaussian()
        assert g.log_density(pt(1e200)) == -math.inf
        assert not g.support_test(pt(1e200))
        assert not g.support_test(pt(math.nan))
        assert g.support_test(pt(1e100))
        assert not make_ridge_2d().support_test(pt(1e200, 0.0))

    def test_support_test_is_derived(self):
        t = TargetDensity(1, lambda x: 0.0 if x[0] < 1.0 else -math.inf, "step",
                          lambda xs: np.where(xs[:, 0] < 1.0, 0.0, -np.inf))
        assert t.support_test(pt(0.5)) and not t.support_test(pt(2.0))
        relabelled = dataclasses.replace(t, label="wrapped")
        assert relabelled.support_test(pt(0.5)) and not relabelled.support_test(pt(2.0))
