"""The batch forms of targets, fields, kernels and Lyapunov functions
against their per-point forms, and the batch acceptance route against
the per-point generic and closed-form routes.

The two forms share their formulas but not their arithmetic: numpy's
vectorised ``power``/``exp``/``log`` may round differently from the C
library in the last bit, so row-by-row agreement is checked to 1e-13
relative, not for equality.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdrwm import (
    EvaluationError,
    ParameterError,
    PastSampleSet,
    SupportError,
    abs_pow,
    circle_proposal,
    constant_field,
    ellipse_proposal,
    exp_abs,
    gaussian_proposal,
    kernel_adaptive_field,
    log_accept_ratio,
    log_accept_ratio_batch,
    log_accept_ratio_closed_form,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
    mixture_field,
    one_plus_square_field,
    power_field,
    rectangle_v,
    regional_field,
    ridge_conditional_field,
    tempered_langevin_field,
    weighted_empirical_field,
)

ROW_RTOL = 1e-13


def pt(*vals):
    return np.array(vals, dtype=float)


def assert_rows(batch, per_point):
    """``batch`` equals the stacked per-point values, ``-inf`` included."""
    np.testing.assert_allclose(
        np.asarray(batch), np.array(per_point), rtol=ROW_RTOL, atol=ROW_RTOL
    )


def check_target(t, xs):
    assert_rows(t.log_density_batch(xs), [t.log_density(x) for x in xs])
    assert np.array_equal(
        t.log_density_batch(xs) > -np.inf, [t.support_test(x) for x in xs]
    )


def check_field(f, xs):
    out = f.inv_metric_batch(xs)
    assert out.shape == (len(xs), f.dim, f.dim)
    assert_rows(out, [f.inv_metric(x) for x in xs])


def check_kernel(k, x, ys):
    """Both broadcasting directions of ``log_q_batch``."""
    assert_rows(k.log_q_batch(ys, x), [k.log_q(y, x) for y in ys])
    assert_rows(k.log_q_batch(x, ys), [k.log_q(x, y) for y in ys])


def check_lyapunov(v, xs):
    assert_rows(v.log_evaluate_batch(xs), [v.log_evaluate(x) for x in xs])


one_dim_targets = st.one_of(
    st.builds(make_exponential_tail, st.floats(0.1, 5.0)),
    st.builds(make_subexponential_tail, st.floats(0.1, 5.0), st.floats(0.05, 0.95)),
    st.builds(make_polynomial_tail, st.floats(1.0, 10.0)),
    st.builds(make_gaussian, st.floats(0.5, 10.0)),
)


class TestOneDimensionalProperties:
    @given(
        target=one_dim_targets,
        b=st.floats(0.0, 4.0),
        log10_h=st.floats(-2.0, 2.0),
        x=st.floats(-50.0, 50.0),
        offsets=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=16),
    )
    def test_batch_acceptance_matches_both_routes(self, target, b, log10_h, x, offsets):
        # proposals within six local standard deviations of x, where the
        # kernel puts its mass; both routes then carry terms of moderate size
        h = 10.0**log10_h
        fld = power_field(b)
        kernel = gaussian_proposal(fld, h)
        xv = pt(x)
        std = math.sqrt(h * (1.0 + abs(x)) ** b)
        ys = (x + std * np.array(offsets))[:, None]

        batch = log_accept_ratio_batch(target, kernel, xv, ys)
        assert batch.shape == (len(ys),)
        for y, la in zip(ys, batch):
            generic = log_accept_ratio(target, kernel, xv, y)
            closed = log_accept_ratio_closed_form(target, fld, h, xv, y)
            assert la == pytest.approx(generic, abs=1e-10, rel=1e-10)
            assert la == pytest.approx(closed, abs=1e-10, rel=1e-10)

        # every batch callable the route used, row by row
        rows = np.vstack([xv, ys])
        check_target(target, rows)
        check_field(fld, rows)
        check_kernel(kernel, xv, ys)
        for v in (exp_abs(0.5), abs_pow(0.25)):
            check_lyapunov(v, rows)


class TestBuiltinBatchForms:
    """Every built-in batch callable the property test does not reach."""

    rng = np.random.default_rng(2024)
    plane = 4.0 * rng.standard_normal((40, 2))
    line = 30.0 * rng.standard_normal((40, 1))
    # staircase points: levels 1..5, on and off the support
    stairs = np.column_stack((rng.uniform(-3.5, 3.5, 60), rng.uniform(0.0, 6.0, 60)))

    def test_targets(self):
        check_target(make_ridge_2d(), self.plane)
        rect = make_rectangle()
        check_target(rect, self.stairs)
        on = rect.log_density_batch(self.stairs) > -np.inf
        assert 0 < on.sum() < len(self.stairs)

    def test_closed_form_fields(self):
        check_field(constant_field(np.array([[2.0, 0.3], [0.3, 1.0]])), self.plane)
        check_field(constant_field(1.5), self.line)
        check_field(power_field(2.5, dim=2), self.plane)
        check_field(one_plus_square_field(), self.line)
        check_field(ridge_conditional_field(), self.plane)
        check_field(tempered_langevin_field(make_gaussian(3.0)), self.line)
        check_field(tempered_langevin_field(make_ridge_2d(), c_max=1e6), self.plane)

    def test_row_by_row_fields(self):
        samples = PastSampleSet(self.rng.standard_normal((6, 2)))
        check_field(kernel_adaptive_field(samples, 0.7, 1.3, 0.9), self.plane)
        check_field(
            weighted_empirical_field(samples, lambda x, z: 1.0 / 6.0, ridge=0.1),
            self.plane,
        )
        check_field(
            mixture_field(
                lambda x: np.array([1.0, 0.0]) if x[0] < 0 else np.array([0.5, 0.5]),
                [np.eye(2), 2.0 * np.eye(2)],
            ),
            self.plane,
        )
        check_field(
            regional_field(
                [(lambda x: x[0] < 0.0, np.eye(2)), (lambda x: x[0] >= 0.0, 3.0 * np.eye(2))]
            ),
            self.plane,
        )

    def test_off_support_field_value_raises(self):
        f = tempered_langevin_field(make_rectangle())
        with pytest.raises(EvaluationError, match="off support"):
            f.inv_metric_batch(np.array([[0.0, 1.5], [0.0, 0.5]]))

    def test_kernels(self):
        ridge = gaussian_proposal(ridge_conditional_field(), 0.8)
        check_kernel(ridge, pt(1.0, -0.5), self.plane)
        check_kernel(gaussian_proposal(constant_field(2.0), 3.0), pt(4.0), self.line)
        for k in (circle_proposal(), ellipse_proposal()):
            for x in (pt(0.05, 3.5), pt(0.5, 1.9), pt(-1.0, 1.2)):
                ys = k.sample_batch(x, 50, self.rng)
                check_kernel(k, x, np.vstack([ys, self.stairs]))
                assert np.isneginf(k.log_q_batch(self.stairs, x)).any()

    def test_lyapunov_functions(self):
        check_lyapunov(rectangle_v(), self.stairs)
        for v in (exp_abs(0.3), abs_pow(0.5)):
            check_lyapunov(v, self.plane)
            check_lyapunov(v, np.vstack([self.line, [[0.0], [0.5], [1.0]]]))


class TestBatchAcceptanceRules:
    """The per-point rules of :func:`log_accept_ratio`, over a batch."""

    def test_off_support_rows_are_never_accepted(self):
        t, k = make_rectangle(), circle_proposal()
        x = pt(0.0, 1.5)
        ys = np.array([[0.0, 0.7], [0.0, 1.9], [2.0, 1.5]])
        out = log_accept_ratio_batch(t, k, x, ys)
        assert out[0] == -math.inf and out[2] == -math.inf
        assert out[1] == log_accept_ratio(t, k, x, ys[1])

    def test_no_row_on_support(self):
        t, k = make_rectangle(), circle_proposal()
        out = log_accept_ratio_batch(t, k, pt(0.0, 1.5), np.array([[0.0, 0.7]]))
        assert out.tolist() == [-math.inf]

    def test_current_point_must_be_in_support(self):
        t, k = make_rectangle(), circle_proposal()
        with pytest.raises(SupportError):
            log_accept_ratio_batch(t, k, pt(0.0, 0.5), np.array([[0.0, 1.5]]))

    def test_unreachable_forward_move_is_callers_error(self):
        t, k = make_rectangle(), circle_proposal()
        ys = np.array([[0.0, 1.9], [0.0, 4.5]])
        with pytest.raises(ParameterError, match="not proposable"):
            log_accept_ratio_batch(t, k, pt(0.0, 1.5), ys)

    def test_unreachable_reverse_move_is_rejected(self):
        t, k = make_rectangle(), ellipse_proposal()
        x, y = pt(0.5, 1.9), pt(-0.3, 2.1)
        assert k.log_q(x, y) == -math.inf
        assert log_accept_ratio_batch(t, k, x, y[None, :]).tolist() == [-math.inf]
