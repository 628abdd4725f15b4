"""The batch forms of targets, fields, kernels and Lyapunov functions
against their per-point forms, and the batch acceptance route against
the per-point generic and closed-form routes.

The two forms share their formulas but not their arithmetic: numpy's
vectorised ``power``/``exp``/``log`` may round differently from the C
library in the last bit, so row-by-row agreement is checked to 1e-13
relative, not for equality.  The exception is the Gaussian above 1-D
with a diagonal covariance, whose batch draws and acceptances are the
per-point ones bit for bit (``TestGaussianBatchBits``).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdrwm import (
    CovarianceField,
    EvaluationError,
    ParameterError,
    SupportError,
    abs_pow,
    circle_proposal,
    constant_field,
    ellipse_proposal,
    exp_abs,
    gaussian_proposal,
    log_accept_ratio,
    log_accept_ratio_batch,
    log_accept_ratio_closed_form,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
    one_plus_square_field,
    power_field,
    rectangle_v,
    ridge_conditional_field,
    tempered_langevin_field,
)
from test_proposals import log_q

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
    assert out.shape == ((len(xs),) if f.dim == 1 else (len(xs), f.dim, f.dim))
    assert_rows(out, [f.inv_metric(x) for x in xs])


def check_kernel(k, x, ys):
    """Both broadcasting directions of ``log_q_batch``."""
    assert_rows(k.log_q_batch(ys, x), [log_q(k, y, x) for y in ys])
    assert_rows(k.log_q_batch(x, ys), [log_q(k, x, y) for y in ys])


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
        # a field built by hand whose batch form stacks its per-point
        # values; its off-diagonal entries move with the point, which no
        # built-in field's do, so the kernel's batch route is checked too
        def inv_metric(x):
            rho = 0.5 * math.tanh(x[0] - x[1])
            return np.array([[1.0 + x[1] ** 2, rho], [rho, 1.0 + x[0] ** 2]])

        field = CovarianceField(
            2, inv_metric, "tilted", lambda xs: np.stack([inv_metric(x) for x in xs])
        )
        check_field(field, self.plane)
        check_kernel(gaussian_proposal(field, 0.8), pt(1.0, -0.5), self.plane)

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
        assert log_q(k, x, y) == -math.inf
        assert log_accept_ratio_batch(t, k, x, y[None, :]).tolist() == [-math.inf]


# --- the Gaussian's batch routes against its per-point routes, to the bit

variances = st.floats(0.05, 4.0)
one_dim_fields = st.one_of(
    st.builds(power_field, st.floats(0.0, 4.0)),
    st.just(one_plus_square_field()),
    st.builds(constant_field, variances),
)
diagonal_fields = st.one_of(
    st.just(ridge_conditional_field()),
    st.builds(lambda a, b: constant_field(np.diag([a, b])), variances, variances),
)


@st.composite
def correlated_fields(draw):
    """A constant 2-D field with a nonzero off-diagonal entry."""
    a, b = draw(variances), draw(variances)
    rho = draw(st.floats(-0.9, 0.9).filter(lambda r: abs(r) > 0.01))
    c = rho * math.sqrt(a * b)
    return constant_field(np.array([[a, c], [c, b]]))


log10_steps = st.floats(-2.0, 1.0)
plane_points = st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
seeds = st.integers(0, 2**32 - 1)


def per_point_acceptances(target, kernel, x, ys):
    return np.array([log_accept_ratio(target, kernel, x, y) for y in ys])


class TestGaussianBatchBits:
    """Where the batch routes repeat the per-point ones bit for bit, and
    where they agree only to rounding."""

    @given(
        field=st.one_of(one_dim_fields, diagonal_fields, correlated_fields(),
                        st.builds(power_field, st.floats(0.0, 3.0), st.just(2))),
        log10_h=log10_steps,
        x=plane_points,
        n=st.integers(1, 60),
        seed=seeds,
    )
    def test_sample_batch_is_n_samples(self, field, log10_h, x, n, seed):
        kernel = gaussian_proposal(field, 10.0**log10_h)
        x = x[: field.dim]
        ys = kernel.sample_batch(pt(*x), n, np.random.default_rng(seed))
        rng, at_x = np.random.default_rng(seed), kernel.at(x)
        assert np.array_equal(ys, [kernel.sample(x, at_x, rng) for _ in range(n)])

    def test_ridge_field_batch_is_per_point_to_the_bit(self):
        # numpy's ** 2 is x * x, which differs from the per-point form's
        # libm pow in about 8 in 10 000 values
        xs = np.random.default_rng(7).standard_normal((20_000, 2)) * 3.0
        f = ridge_conditional_field()
        assert np.array_equal(f.inv_metric_batch(xs), [f.inv_metric(x) for x in xs])

    @given(field=diagonal_fields, log10_h=log10_steps, x=plane_points, seed=seeds)
    def test_diagonal_acceptance_is_bit_exact(self, field, log10_h, x, seed):
        ridge, kernel, x = make_ridge_2d(), gaussian_proposal(field, 10.0**log10_h), pt(*x)
        ys = kernel.sample_batch(x, 200, np.random.default_rng(seed))
        batch = log_accept_ratio_batch(ridge, kernel, x, ys)
        assert np.array_equal(batch, per_point_acceptances(ridge, kernel, x, ys))

    @given(field=correlated_fields(), log10_h=log10_steps, x=plane_points, seed=seeds)
    def test_correlated_acceptance_agrees_to_rounding(self, field, log10_h, x, seed):
        ridge, kernel, x = make_ridge_2d(), gaussian_proposal(field, 10.0**log10_h), pt(*x)
        ys = kernel.sample_batch(x, 200, np.random.default_rng(seed))
        batch = log_accept_ratio_batch(ridge, kernel, x, ys)
        np.testing.assert_allclose(
            batch, per_point_acceptances(ridge, kernel, x, ys), rtol=1e-12, atol=1e-12
        )
