import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdrwm import (
    EvaluationError,
    NumericError,
    ParameterError,
    TargetDensity,
    constant_field,
    gaussian_proposal,
    make_exponential_tail,
    make_gaussian,
    make_rectangle,
    make_ridge_2d,
    one_plus_square_field,
    power_field,
    ridge_conditional_field,
    tempered_langevin_field,
)
from test_proposals import log_q, sample

def pt(*vals):
    return np.array(vals, dtype=float)


class TestConstant:
    def test_scalar_shorthand(self):
        f = constant_field(2.5)
        assert f.dim == 1
        assert f.inv_metric(pt(7.0)) == 2.5
        np.testing.assert_array_equal(f.inv_metric_batch(pt(7.0, -1.0)[:, None]), 2.5)

    def test_matrix(self):
        sigma = [[2.0, 0.3], [0.3, 1.0]]
        f = constant_field(sigma)
        np.testing.assert_allclose(f.inv_metric(pt(0.0, 0.0)), sigma)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ParameterError):
            constant_field([[1.0, 0.5], [0.2, 1.0]])  # asymmetric
        with pytest.raises(ParameterError):
            constant_field([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ParameterError):
            constant_field(0.0)


class TestPower:
    def test_values(self):
        f = power_field(1.5)
        assert f.inv_metric(pt(3.0)) == pytest.approx(4.0**1.5)
        assert f.inv_metric(pt(-3.0)) == pytest.approx(4.0**1.5)

    @pytest.mark.parametrize("x", [(3.0, 4.0), (3.0, 4.0, 12.0), (3, 4)])
    def test_tuple_and_array_give_the_same_bytes(self, x):
        f = power_field(1.5, dim=len(x))
        from_tuple = f.inv_metric(x)
        assert from_tuple.tobytes() == f.inv_metric(np.array(x, dtype=float)).tobytes()
        assert from_tuple[0, 0] == pytest.approx((1.0 + math.hypot(*x)) ** 1.5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParameterError):
            power_field(-0.5)

    def test_multidim_uses_norm(self):
        f = power_field(2.0, dim=2)
        m = f.inv_metric(pt(3.0, 4.0))
        np.testing.assert_allclose(m, 36.0 * np.eye(2))

    @given(
        b=st.sampled_from([0.0, 0.5, 1.5, 2.0, 4.0]),
        x=st.lists(
            st.one_of(
                st.floats(-1e3, 1e3),
                st.floats(-1e300, 1e300),
                st.sampled_from([2e154, -3e200, 5e-324, -1e-310, 0.0, -0.0]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_value_has_the_bits_of_the_norm_form(self, b, x):
        # a subnormal square underflows to 0, and both forms must do so
        # alike; past |x| = 1e154, where the square overflows to inf, both
        # take |x| from np.hypot instead
        xv = np.array(x)
        f = power_field(b, dim=len(x))
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(xv)
            if norm == math.inf:
                norm = np.hypot.reduce(np.abs(xv))
            # a numpy scalar, whose power gives inf past the float range
            # where a Python float's raises OverflowError
            scale = (1.0 + norm) ** b
            if len(x) == 1:
                assert np.float64(f.inv_metric(xv)).tobytes() == scale.tobytes()
            else:
                expected = np.diag(np.full(len(x), scale))
                assert f.inv_metric(xv).tobytes() == expected.tobytes()
            scales = (1.0 + np.array([norm])) ** b
            batch = f.inv_metric_batch(xv[None, :])
        if np.isfinite(scales[0]):
            # finite values keep the bits of the scaled identity
            rows = scales if len(x) == 1 else scales[:, None, None] * np.eye(len(x))
            assert batch.tobytes() == rows.tobytes()


# 0, +-1e-160 (square underflows), +-1e160 (square overflows), and more
FLOAT_POINTS = [
    0.0, -0.0, 1e-160, -1e-160, 1e160, -1e160, 5e-324, -1e-310,
    1.0, -2.5, 37.25, 1e77, -3e153, math.inf, -math.inf, math.nan,
]


def _outcome(fn, v):
    """What ``fn(v)`` gives: its float's bytes, or the exception type."""
    try:
        return np.float64(fn(v)).tobytes()
    except ArithmeticError as exc:
        return type(exc)


class TestFloatVariance:
    """A 1-D field's value is its variance as a Python float.  It reads
    the point as ``float(x[0])``, so a tuple of floats and an array give
    the same bits."""

    @pytest.mark.parametrize(
        "field",
        [
            constant_field(2.5),
            power_field(0.0),
            power_field(0.5),
            power_field(1.5),
            power_field(2.0),
            power_field(4.0),
            one_plus_square_field(),
        ],
        ids=lambda f: f.label,
    )
    @pytest.mark.parametrize("v", FLOAT_POINTS)
    def test_stated_form_has_the_bits_of_inv_metric(self, field, v):
        assert _outcome(lambda u: field.inv_metric((u,)), v) == _outcome(
            lambda u: field.inv_metric(np.array([u])), v
        )

    @given(b=st.floats(0.0, 4.0), v=st.floats(allow_nan=False))
    def test_power_field_at_any_exponent(self, b, v):
        f = power_field(b)
        assert _outcome(lambda u: f.inv_metric((u,)), v) == _outcome(
            lambda u: f.inv_metric(np.array([u])), v
        )

    def test_default_reads_inv_metric(self):
        # a replaced inv_metric is the field's value, for the kernel too
        replaced = dataclasses.replace(power_field(1.5), inv_metric=lambda x: 4.0)
        assert replaced.inv_metric((3.0,)) == 4.0
        assert gaussian_proposal(replaced, 1.0).at((3.0,))[0] == 2.0

    def test_only_one_dimension_has_a_float_form(self):
        for field in (constant_field(2.5), power_field(1.5), one_plus_square_field()):
            assert type(field.inv_metric((3.0,))) is float
            assert field.inv_metric_batch(pt(3.0, 4.0)[:, None]).shape == (2,)
        two = power_field(1.5, dim=2)
        assert two.inv_metric(pt(3.0, 4.0)).shape == (2, 2)
        assert two.inv_metric_batch(np.zeros((3, 2))).shape == (3, 2, 2)


class TestPerPointOverflow:
    """Where the value passes the float range, the per-point forms give
    ``inf`` as the batch form does, neither with a numpy warning, and the
    kernel names the point."""

    @pytest.mark.parametrize(
        "field, v",
        [(one_plus_square_field(), 1e160), (power_field(4.0), 1e80)],
        ids=["one_plus_square", "power4"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_inf_as_in_the_batch_form(self, field, v, sign):
        v *= sign
        assert field.inv_metric((v,)) == math.inf
        assert field.inv_metric(pt(v)) == math.inf
        assert field.inv_metric_batch(pt(v)[None, :])[0] == math.inf
        kern = gaussian_proposal(field, 1.0)
        message = re.escape(f"field value inf at [{v!r}] is not usable")
        with pytest.raises(NumericError, match=message):
            kern.at((v,))
        with pytest.raises(NumericError, match=message):
            kern.log_q_batch(pt(0.0), pt(v)[None, :])


class TestPowerFieldOverflowInDimensionTwo:
    """Past the float range the scale is ``inf`` on the diagonal and the
    off-diagonal stays 0, with no inf * 0 NaN and no numpy warning in
    either form."""

    def test_diagonal_inf_off_diagonal_zero(self):
        f = power_field(4.0, dim=2)
        x = np.array([1e80, 0.0])
        expected = np.array([[math.inf, 0.0], [0.0, math.inf]])
        np.testing.assert_array_equal(f.inv_metric(x), expected)
        batch = f.inv_metric_batch(np.array([x, [3.0, 4.0]]))
        np.testing.assert_array_equal(batch[0], expected)
        np.testing.assert_array_equal(batch[1], 6.0**4 * np.eye(2))

    def test_kernel_names_the_point(self):
        kern = gaussian_proposal(power_field(4.0, dim=2), 1.0)
        x = np.array([1e80, 0.0])
        with pytest.raises(NumericError, match=r"covariance at .* is not finite"):
            sample(kern, x, np.random.default_rng(0))


class TestNormPastTheSquare:
    """Where |x|^2 overflows but |x| does not, the power field takes |x|
    from abs or np.hypot in every form, silently; where the square is
    finite it keeps the bits of sqrt(x . x)."""

    @pytest.mark.parametrize("v", [1e155, -1e200, 1e300])
    def test_one_dimension(self, v):
        f = power_field(1.0)
        assert f.inv_metric((v,)) == f.inv_metric(pt(v)) == 1.0 + abs(v)
        assert f.inv_metric_batch(np.array([[v], [3.0]])).tolist() == [1.0 + abs(v), 4.0]

    @pytest.mark.parametrize("x", [(1e155, 0.0), (-1e200, 1e200), (1e300, -3e299)])
    def test_two_dimensions(self, x):
        f = power_field(1.0, dim=2)
        got = f.inv_metric(x)
        r = got[0, 0]
        assert r == pytest.approx(1.0 + math.hypot(*x), rel=1e-15)
        np.testing.assert_array_equal(got, np.diag([r, r]))
        np.testing.assert_array_equal(f.inv_metric(pt(*x)), got)
        batch = f.inv_metric_batch(np.array([x, [3.0, 4.0]]))
        np.testing.assert_array_equal(batch, [got, 6.0 * np.eye(2)])


class TestRidgeConditionalOverflow:
    """Where the other coordinate's square passes the float range, both
    forms give that entry 0.0, the batch form with no overflow warning,
    and the kernel names the point in every form."""

    @pytest.mark.parametrize(
        "x, expected",
        [
            ((0.0, 1e200), [[0.0, 0.0], [0.0, 0.5]]),
            ((-1e200, 0.0), [[0.5, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_zero_entry_in_both_forms(self, x, expected):
        f = ridge_conditional_field()
        x = pt(*x)
        np.testing.assert_array_equal(f.inv_metric(x), expected)
        batch = f.inv_metric_batch(np.array([x, [1.0, 2.0]]))
        np.testing.assert_array_equal(batch[0], expected)

    def test_kernel_names_the_point(self):
        kern = gaussian_proposal(ridge_conditional_field(), 1.0)
        x, rng = pt(0.0, 1e200), np.random.default_rng(0)
        message = re.escape(f"covariance at {x} failed to factor")
        for call in (
            lambda: log_q(kern, x, x),
            lambda: sample(kern, x, rng),
            lambda: kern.sample_batch(x, 3, rng),
            lambda: kern.log_q_batch(np.zeros((3, 2)), x),
            lambda: kern.log_q_batch(pt(0.0, 0.0), np.array([[0.0, 1.0], x])),
        ):
            with pytest.raises(NumericError, match=message):
                call()


class TestTemperedLangevin:
    def test_reciprocal_of_density(self):
        t = make_exponential_tail(1.0)
        f = tempered_langevin_field(t)
        assert f.inv_metric(pt(3.0)) == pytest.approx(math.exp(3.0))

    def test_cap(self):
        t = make_exponential_tail(1.0)
        f = tempered_langevin_field(t, c_max=100.0)
        assert f.inv_metric(pt(10.0)) == 100.0

    def test_off_support_raises(self):
        f = tempered_langevin_field(make_rectangle())
        assert f.inv_metric(pt(0.0, 1.0))[0, 0] == pytest.approx(3.0)
        with pytest.raises(EvaluationError):
            f.inv_metric(pt(0.0, 0.5))

    @pytest.mark.parametrize(
        "target, x",
        [
            (make_exponential_tail(1.0), (math.nan,)),
            # a 2-D target whose log-density is NaN at a NaN coordinate
            (
                TargetDensity(
                    2,
                    lambda x: -abs(float(x[0])) - abs(float(x[1])),
                    "laplace_2d",
                    lambda xs: -np.abs(xs[:, 0]) - np.abs(xs[:, 1]),
                ),
                (1.0, math.nan),
            ),
        ],
        ids=["1d", "2d"],
    )
    def test_nan_log_density_is_off_support(self, target, x):
        # the one support rule: a point is on it iff log pi > -inf
        assert math.isnan(target.log_density(x))
        f = tempered_langevin_field(target)
        message = re.escape(f"off support at {np.array(x)}")
        with pytest.raises(EvaluationError, match=message):
            f.inv_metric(x)
        with pytest.raises(EvaluationError, match=message):
            f.inv_metric(np.array(x))
        with pytest.raises(EvaluationError, match=message):
            f.inv_metric_batch(np.array([np.ones(len(x)), x]))


def _bytes_or_error(fn, *args):
    """``fn(*args)`` as float64 bytes, or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(*args), dtype=float).tobytes()
    except (ArithmeticError, EvaluationError) as exc:
        return type(exc)


def _square(v: float) -> float:
    """``v ** 2`` on a Python float, inf where that raises."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _written_one_plus_square():
    return lambda x: 1.0 + _square(float(x[0])), lambda xs: 1.0 + xs[:, 0] ** 2


def _written_ridge():
    def conditional(other):
        return 1.0 / (2.0 * (1.0 + _square(other)))

    def per_point(x):
        return np.array(
            [[conditional(float(x[1])), 0.0], [0.0, conditional(float(x[0]))]]
        )

    def batch(xs):
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = 1.0 / (2.0 * (1.0 + np.float_power(xs[:, 1], 2)))
        out[:, 1, 1] = 1.0 / (2.0 * (1.0 + np.float_power(xs[:, 0], 2)))
        return out

    return per_point, batch


def _written_tempered(target, c_max=1e12):
    log_cap, eye = math.log(c_max), np.eye(target.dim)

    def per_point(x):
        lp = target.log_density(x)
        if lp == -math.inf:
            raise EvaluationError("off support")
        s = c_max if -lp >= log_cap else math.exp(-lp)
        return s if target.dim == 1 else s * eye

    def batch(xs):
        lp = target.log_density_batch(xs)
        if (lp == -np.inf).any():
            raise EvaluationError("off support")
        s = np.where(-lp >= log_cap, c_max, np.exp(np.minimum(-lp, log_cap)))
        return s if target.dim == 1 else s[:, None, None] * eye

    return per_point, batch


RANDOM_ROWS = np.random.default_rng(29).standard_normal((20_000, 2)) * 3.0
LINE = np.array(FLOAT_POINTS)[:, None]
PLANE = np.array([(u, v) for u in FLOAT_POINTS for v in FLOAT_POINTS])
# a NaN log-density is off the support, where the written-out tempered
# field gave NaN and the field raises (TestTemperedLangevin)
LINE_NOT_NAN = LINE[~np.isnan(LINE[:, 0])]
# random points on the staircase support, levels 1 to 5
_rng = np.random.default_rng(30)
_heights = 1.0 + 5.0 * _rng.random(20_000)
STAIRS = np.column_stack(
    [_rng.uniform(-1.0, 1.0, 20_000) * 3.0 ** (1.0 - np.floor(_heights)), _heights]
)


class TestFieldBits:
    """Each form of each built-in field keeps the bits of a test-local copy
    of its written-out expression, at ``FLOAT_POINTS`` (alone and in pairs)
    and at random rows; where the copy raises, the field raises the same
    error type."""

    CASES = {
        "one_plus_square": (
            one_plus_square_field, _written_one_plus_square, LINE, RANDOM_ROWS[:, :1]
        ),
        "ridge_conditional": (ridge_conditional_field, _written_ridge, PLANE, RANDOM_ROWS),
        "tempered_exp_tail": (
            lambda: tempered_langevin_field(make_exponential_tail(1.0)),
            lambda: _written_tempered(make_exponential_tail(1.0)),
            LINE_NOT_NAN,
            RANDOM_ROWS[:, :1] * 10.0,
        ),
        "tempered_gaussian_cap": (
            lambda: tempered_langevin_field(make_gaussian(2.0), c_max=50.0),
            lambda: _written_tempered(make_gaussian(2.0), 50.0),
            LINE_NOT_NAN,
            RANDOM_ROWS[:, :1],
        ),
        "tempered_ridge": (
            lambda: tempered_langevin_field(make_ridge_2d(), c_max=1e6),
            lambda: _written_tempered(make_ridge_2d(), 1e6),
            PLANE,
            RANDOM_ROWS,
        ),
        "tempered_rectangle": (
            lambda: tempered_langevin_field(make_rectangle()),
            lambda: _written_tempered(make_rectangle()),
            PLANE,
            STAIRS,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_point(self, case):
        make, written, points, random_rows = self.CASES[case]
        field, (per_point, _) = make(), written()
        # 6000 rows hold a few of the 8 in 10 000 where pow and x * x differ
        for x in np.vstack([points, random_rows[:6000]]):
            expected = _bytes_or_error(per_point, x)
            assert _bytes_or_error(field.inv_metric, x) == expected, x
            assert _bytes_or_error(field.inv_metric, tuple(x.tolist())) == expected, x

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch(self, case):
        make, written, points, random_rows = self.CASES[case]
        field, (_, batch) = make(), written()
        for row in points[:, None, :]:
            assert _bytes_or_error(field.inv_metric_batch, row) == _bytes_or_error(
                batch, row
            ), row
        expected = _bytes_or_error(batch, random_rows)
        assert isinstance(expected, bytes)
        assert _bytes_or_error(field.inv_metric_batch, random_rows) == expected
