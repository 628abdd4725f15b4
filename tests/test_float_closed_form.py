"""The 1-D closed-form acceptance on Python floats, bound once per start
point, against the array arithmetic it replaces.

``_closed_form_at(target, field, h, x)`` returns ``accept(y)``; the drift
quadrature's integrand, ``tail_acceptance_profile`` and ``figure1`` call
it per point.  Each property here compares a float route with a
test-local copy of the array computation: the same IEEE operations in
the same order must give the same bits, and a refused point the same
error text.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from pdrwm import (
    CovarianceField,
    NumericError,
    abs_pow,
    constant_field,
    drift_ratio_quadrature,
    exp_abs,
    gaussian_proposal,
    log_accept_ratio_closed_form,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_subexponential_tail,
    one_plus_square_field,
    power_field,
)
from pdrwm.chain import _closed_form_at


def bits(v) -> bytes:
    return np.float64(v).tobytes()


def pt(*vals):
    return np.array(vals, dtype=float)


def array_closed_form(target, field, h, x, y):
    """The 1-D closed form on length-1 arrays, without the kernel's
    checks: what ``log_accept_ratio_closed_form`` computed per call."""
    lp_x = target.log_density(x)
    lp_y = target.log_density(y)
    if lp_y == -math.inf:
        return -math.inf
    u = x - y
    s_x = field.inv_metric(x)
    s_y = field.inv_metric(y)
    d = float(u[0])
    half_logdet = 0.5 * (math.log(s_x) - math.log(s_y))
    quad_form = 0.5 * d * d * (1.0 / s_y - 1.0 / s_x) / h
    return min(0.0, lp_y - lp_x + half_logdet - quad_form)


def array_norm(x) -> float:
    # the dot product overflows with a RuntimeWarning where x * x is inf;
    # there |x| is the overflow-free np.hypot reduction, and a NaN stays
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(x))
    return r if r != math.inf else float(np.hypot.reduce(np.abs(x)))


#: log V through ``np.linalg.norm`` on arrays, as the Lyapunov functions
#: computed it per point, and ``np.hypot`` where the square overflows
ARRAY_LOG_V = {
    "exp_abs": lambda s: lambda x: s * array_norm(x),
    "abs_pow": lambda s: lambda x: (
        max(0.0, s * math.log(r)) if (r := array_norm(x)) > 0 else 0.0 if r == 0 else math.nan
    ),
}
LYAPUNOV = {"exp_abs": exp_abs, "abs_pow": abs_pow}


def array_quadrature(target, field, h, log_v, x):
    """``drift_ratio_quadrature`` with its integrand on length-1 arrays
    through :func:`array_closed_form` and ``log_v``."""
    xv = np.array([float(x)])
    std = gaussian_proposal(field, h).at((float(x),))[0]
    log_norm = -math.log(std) - 0.5 * math.log(2.0 * math.pi)
    log_vx = log_v(xv)

    def integrand(y):
        yv = np.array([y])
        la = array_closed_form(target, field, h, xv, yv)
        u = (y - float(x)) / std
        lq = log_norm - 0.5 * u * u
        dv = log_v(yv) - log_vx
        return math.exp(la + lq + dv) - math.exp(la + lq)

    total = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in ((x - 12.0 * std, x), (x, x + 12.0 * std)):
            val, abserr = quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-10)
            total += val
            err += abserr
    return 1.0 + total, err


tails = st.one_of(
    st.floats(0.1, 3.0).map(make_exponential_tail),
    st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 0.9)).map(
        lambda p: make_subexponential_tail(*p)
    ),
    st.floats(1.5, 6.0).map(make_polynomial_tail),
    st.floats(0.5, 5.0).map(make_gaussian),
)
fields = st.one_of(
    st.floats(0.1, 10.0).map(constant_field),
    st.floats(0.0, 4.0).map(power_field),
    st.just(one_plus_square_field()),
)
step_sizes = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


class TestAcceptAtPoint:
    @given(
        tails, fields, step_sizes,
        st.floats(-1e3, 1e3), st.floats(-1e4, 1e4),
    )
    def test_equals_the_array_closed_form(self, target, field, h, x, y):
        accept = _closed_form_at(target, field, h, pt(x))
        expected = bits(array_closed_form(target, field, h, pt(x), pt(y)))
        assert bits(accept(y)) == expected
        assert bits(log_accept_ratio_closed_form(target, field, h, pt(x), pt(y))) == expected

    @given(st.floats(-1e3, 1e3), st.floats(1.4e154, 1e300), st.booleans())
    def test_infinite_field_value_at_y_is_refused_alike(self, x, y, negative):
        y = -y if negative else y
        self._assert_refused_alike(one_plus_square_field(), 1.0, x, y)

    @given(
        st.floats(-0.9, 0.9), st.floats(1.5, 1e6), st.floats(1e-3, 0.49),
        st.sampled_from([5e-324, 0.0, -1.0, math.inf, math.nan]),
    )
    def test_unusable_variance_at_y_is_refused_alike(self, x, y, h, bad):
        # usable near the origin; past |x| = 1 the value is `bad`, where
        # h * 5e-324 underflows for h below 1/2
        field = CovarianceField(
            1, lambda p: 1.0 if abs(float(p[0])) < 1.0 else bad, "bad_past_one",
            lambda ps: np.where(np.abs(ps[:, 0]) < 1.0, 1.0, bad),
        )
        self._assert_refused_alike(field, h, x, y)

    @staticmethod
    def _assert_refused_alike(field, h, x, y):
        target = make_exponential_tail(1.0)
        with pytest.raises(NumericError) as kernel:
            gaussian_proposal(field, h).at((y,))
        with pytest.raises(NumericError) as floats:
            _closed_form_at(target, field, h, pt(x))(y)
        with pytest.raises(NumericError) as arrays:
            log_accept_ratio_closed_form(target, field, h, pt(x), pt(y))
        assert str(floats.value) == str(arrays.value) == str(kernel.value)


class TestDriftQuadratureOnFloats:
    @given(
        tails, fields, step_sizes, st.floats(0.0, 1e3),
        st.sampled_from(sorted(LYAPUNOV)), st.floats(0.1, 2.0),
    )
    # a ratio past the float range, where the array integrand overflows
    @example(make_exponential_tail(0.1), power_field(4.0), 1.0, 30.0, "exp_abs", 0.5)
    def test_equals_the_array_integrand(self, target, field, h, x, kind, s):
        try:
            expected = array_quadrature(target, field, h, ARRAY_LOG_V[kind](s), x)
        except OverflowError:
            with pytest.raises(NumericError, match="exceeds the float range"):
                drift_ratio_quadrature(target, field, h, LYAPUNOV[kind](s), x)
            return
        got = drift_ratio_quadrature(target, field, h, LYAPUNOV[kind](s), x)
        assert [bits(v) for v in got] == [bits(v) for v in expected]

    def test_ratio_past_the_float_range_names_x_and_v(self):
        # E[V(X_1)]/V(x) with V = exp(|x| / 2) under a variance of 31^4
        with pytest.raises(NumericError) as exc:
            drift_ratio_quadrature(
                make_exponential_tail(0.1), power_field(4.0), 1.0, exp_abs(0.5), 30.0
            )
        assert str(exc.value) == (
            "E[V(X_1)]/V(x) of exp_abs(s=0.5) at x=30.0 exceeds the float range"
        )


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


class TestLyapunovPerPoint:
    @given(finite_or_not, st.sampled_from(sorted(LYAPUNOV)), st.floats(0.1, 3.0))
    def test_tuple_and_array_give_the_array_norms_bits(self, v, kind, s):
        # and without the array norm's overflow warning
        log_v = LYAPUNOV[kind](s).log_evaluate
        expected = bits(ARRAY_LOG_V[kind](s)(pt(v)))
        assert bits(log_v((v,))) == expected
        assert bits(log_v(pt(v))) == expected

    @given(finite_or_not, finite_or_not, st.sampled_from(sorted(LYAPUNOV)), st.floats(0.1, 3.0))
    def test_two_dim_values_unchanged(self, u, v, kind, s):
        log_v = LYAPUNOV[kind](s).log_evaluate
        expected = bits(ARRAY_LOG_V[kind](s)(pt(u, v)))
        with np.errstate(over="ignore"):
            assert bits(log_v(pt(u, v))) == expected
            assert bits(log_v((u, v))) == expected
