import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import multivariate_normal, norm, truncnorm

from pdrwm import (
    BOUNDED,
    CovarianceField,
    NumericError,
    ParameterError,
    ProposalKernel,
    RectangleDensity,
    TruncatedGaussianSpec,
    circle_proposal,
    constant_field,
    ellipse_proposal,
    gaussian_proposal,
    gaussian_tail_bound,
    make_exponential_tail,
    make_rectangle,
    make_ridge_2d,
    power_field,
    ridge_conditional_field,
    run_chain,
    truncated_mean,
    truncated_mgf,
)

# Frozen by direct quadrature of the Gaussian density (independent of the
# closed forms under test).
HALF_LINE_MEAN = 0.7978845608028653  # N(0,1) on [0, inf)
HALF_LINE_MGF_1 = 2.77428595767001  # same, E[e^X]
ASYM_MEAN = 1.113573692300876  # N(1.5, 2.3^2) on [-1, 3]
ASYM_MGF_07 = 2.861558840828359
ASYM_MGF_M04 = 0.7048570108436283
FAR_HALF_MEAN = 10.098093233962516  # N(0,1) on [10, inf)
FAR_SLICE_MEAN = 8.121188992979796  # N(0,1) on [8, 9]


def pt(*vals):
    return np.array(vals, dtype=float)


class TestGaussianKernel1D:
    def test_log_q_matches_norm_logpdf(self):
        f = power_field(1.0)
        k = gaussian_proposal(f, h=0.7)
        x = pt(3.0)
        std = math.sqrt(0.7 * 4.0)  # (1+|3|)^1 = 4
        for y in (2.0, 3.0, 5.5):
            assert k.log_q(pt(y), x) == pytest.approx(
                norm.logpdf(y, loc=3.0, scale=std), abs=1e-12
            )

    def test_sampling_moments(self):
        f = power_field(1.0)
        k = gaussian_proposal(f, h=0.7)
        rng = np.random.default_rng(11)
        ys = k.sample_batch(pt(3.0), 40_000, rng)[:, 0]
        std = math.sqrt(0.7 * 4.0)
        assert ys.mean() == pytest.approx(3.0, abs=4 * std / 200.0)
        assert ys.std() == pytest.approx(std, rel=0.02)

    def test_asymmetry_across_positions(self):
        # the density of x->y and y->x differ because the scale moves
        f = power_field(2.0)
        k = gaussian_proposal(f, h=1.0)
        assert k.log_q(pt(10.0), pt(0.0)) != k.log_q(pt(0.0), pt(10.0))

    def test_bad_step_size(self):
        with pytest.raises(ParameterError):
            gaussian_proposal(power_field(1.0), h=0.0)


class TestGaussianKernelMultiDim:
    def test_log_q_matches_mvn_logpdf(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        k = gaussian_proposal(constant_field(sigma), h=0.5)
        x = pt(1.0, -2.0)
        y = pt(0.3, -1.1)
        expected = multivariate_normal.logpdf(y, mean=x, cov=0.5 * sigma)
        assert k.log_q(y, x) == pytest.approx(expected, abs=1e-12)

    def test_batch_covariance(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        k = gaussian_proposal(constant_field(sigma), h=0.5)
        rng = np.random.default_rng(3)
        ys = k.sample_batch(pt(0.0, 0.0), 60_000, rng)
        np.testing.assert_allclose(np.cov(ys.T), 0.5 * sigma, atol=0.02)

    def test_non_spd_field_value_raises(self):
        value = np.array([[1.0, 2.0], [2.0, 1.0]])
        bad = CovarianceField(
            2,
            lambda x: value,
            BOUNDED,
            "bad",
            lambda xs: np.broadcast_to(value, (len(xs), 2, 2)),
        )
        k = gaussian_proposal(bad, h=1.0)
        with pytest.raises(NumericError):
            k.sample(pt(0.0, 0.0), np.random.default_rng(0))
        with pytest.raises(NumericError, match="failed to factor"):
            k.log_q_batch(np.zeros((3, 2)), pt(0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_value_raises(self, bad):
        # finite below x1 = 1, non-finite from there on
        def value(x):
            return np.array([[1.0, 0.0], [0.0, 1.0 if x[0] < 1.0 else bad]])

        field = CovarianceField(
            2, value, BOUNDED, "bad", lambda xs: np.stack([value(x) for x in xs])
        )
        k = gaussian_proposal(field, h=1.0)
        x, far = pt(0.0, 0.0), pt(2.5, 0.0)
        with pytest.raises(NumericError, match=r"\[2\.5 0\. *\] is not finite"):
            k.sample(far, np.random.default_rng(0))
        with pytest.raises(NumericError, match=r"\[2\.5 0\. *\] is not finite"):
            k.log_q(x, far)
        with pytest.raises(NumericError, match=r"\[2\.5 0\. *\] is not finite"):
            k.log_q_batch(x, np.array([[0.5, 0.0], [2.5, 0.0], [3.0, 0.0]]))
        # the finite side still evaluates
        assert np.isfinite(k.log_q(far, x))
        assert np.isfinite(k.log_q_batch(np.zeros((2, 2)), x)).all()


def uncached_gaussian_proposal(field, h):
    """The Gaussian kernel as it reads with no memo and no float form: a
    fresh ``inv_metric`` value, standard deviation or scipy Cholesky
    factor at every call.  It has no ``std``, so ``run_chain`` steps it
    on the generic route."""
    dim = field.dim

    if dim == 1:

        def std(x):
            return math.sqrt(h * float(field.inv_metric(x)[0, 0]))

        def sample(x, rng):
            return x + std(x) * rng.standard_normal(1)

        def log_q(y, x):
            s = std(x)
            u = (float(y[0]) - float(x[0])) / s
            return -0.5 * math.log(2.0 * math.pi) - math.log(s) - 0.5 * u * u

    else:

        def chol(x):
            return cholesky(h * field.inv_metric(x), lower=True)

        def sample(x, rng):
            return x + chol(x) @ rng.standard_normal(dim)

        def log_q(y, x):
            low = chol(x)
            v = solve_triangular(low, y - x, lower=True)
            logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
            return -0.5 * (dim * math.log(2.0 * math.pi) + logdet + float(v @ v))

    return ProposalKernel(dim, sample, log_q, "uncached", None, None)


def counting(field):
    """``field`` and the per-point form the kernel reads, which counts its
    calls in ``.calls``: the float ``variance`` in one dimension,
    ``inv_metric`` in more."""
    name = "variance" if field.dim == 1 else "inv_metric"
    form = getattr(field, name)

    def counted(x):
        counted.calls += 1
        return form(x)

    counted.calls = 0
    return dataclasses.replace(field, **{name: counted}), counted


# entries of B and c in the field S(x) = B(x) B(x)^T + c I, where
# B(x) = [[b00 + x1, b01], [b10, b11 + x2]]: SPD and, in general, not diagonal
entries = st.floats(-2.0, 2.0, allow_nan=False)


def spd_field(b00, b01, b10, b11, c):
    def inv_metric(x):
        b = np.array([[b00 + x[0], b01], [b10, b11 + x[1]]])
        return b @ b.T + c * np.eye(2)

    return CovarianceField(
        2, inv_metric, BOUNDED, "spd", lambda xs: np.stack([inv_metric(x) for x in xs])
    )


class TestScaleMemo:
    """In two dimensions the kernel remembers each point's Cholesky
    factor; in one it reads the float standard deviation afresh.  None of
    this may show in what it returns."""

    @given(
        st.tuples(entries, entries, entries, entries),
        st.floats(0.01, 1.0),
        st.floats(0.01, 10.0),
        st.lists(st.tuples(entries, entries), min_size=3, max_size=3, unique=True),
        st.integers(0, 2**32 - 1),
    )
    def test_memo_equals_fresh_evaluation(self, bs, c, h, points, seed):
        field = spd_field(*bs, c)
        k = gaussian_proposal(field, h)
        fresh = uncached_gaussian_proposal(field, h)
        x, y, z = (pt(*p) for p in points)
        # revisits a point after one and after two others have been used
        order = (x, y, x, z, y, x, x, z, z, y, y, x, z, x)
        rng, rng_fresh = np.random.default_rng(seed), np.random.default_rng(seed)
        for a, b in zip(order, order[1:]):
            assert k.log_q(b, a) == fresh.log_q(b, a)
            assert k.log_q(a, b) == fresh.log_q(a, b)
            np.testing.assert_array_equal(k.sample(a, rng), fresh.sample(a, rng_fresh))

    @pytest.mark.parametrize(
        "target, field, h, x0",
        [
            (make_exponential_tail(1.0), power_field(1.5), 1.0, [0.0]),
            (make_exponential_tail(1.0), power_field(0.5), 30.0, [-2.0]),
            (make_ridge_2d(), ridge_conditional_field(), 1.0, [4.0, 0.0]),
            (make_ridge_2d(), constant_field(0.25 * np.eye(2)), 1.0, [4.0, 0.0]),
        ],
    )
    def test_chain_matches_uncached_kernel_with_one_field_call_per_point(
        self, target, field, h, x0
    ):
        n_steps = 300
        field, form = counting(field)
        k = gaussian_proposal(field, h)
        traj = run_chain(target, k, x0, n_steps, seed=11)
        # one call per point: the start and each proposal on the support
        assert 0 < form.calls <= n_steps + 1
        ref = run_chain(target, uncached_gaussian_proposal(field, h), x0, n_steps, seed=11)
        np.testing.assert_array_equal(traj.states, ref.states)
        np.testing.assert_array_equal(traj.accepted, ref.accepted)
        np.testing.assert_array_equal(traj.alpha, ref.alpha)

    def test_points_that_compare_equal_are_kept_apart(self):
        # -0.0 == 0.0, but the 2-D memo keys on the bytes of the point and
        # the 1-D float standard deviation sees the sign of its float
        for dim in (1, 2):

            def inv_metric(x, dim=dim):
                return np.eye(dim) * (2.0 if math.copysign(1.0, x[0]) < 0 else 1.0)

            field = CovarianceField(dim, inv_metric, BOUNDED, "sign", None)
            k = gaussian_proposal(field, 1.0)
            y, zero, neg_zero = np.ones(dim), np.zeros(dim), np.zeros(dim)
            neg_zero[0] = -0.0
            assert k.log_q(y, zero) != k.log_q(y, neg_zero)
            assert k.log_q(y, zero) == k.log_q(y, np.zeros(dim, dtype=int))
            assert k.log_q(y, neg_zero) == k.log_q(y, neg_zero.copy())

    def test_sample_log_q_and_sample_batch_share_one_evaluation(self):
        field, form = counting(ridge_conditional_field())
        k = gaussian_proposal(field, 0.5)
        x = np.full(2, 0.5)
        rng = np.random.default_rng(0)
        k.sample(x, rng)
        k.log_q(x + 0.1, x)
        k.sample_batch(x, 5, rng)
        assert form.calls == 1

    def test_one_dimension_reads_the_float_variance_at_each_call(self):
        field, form = counting(power_field(1.5))
        k = gaussian_proposal(field, 0.5)
        x = pt(0.5)
        rng = np.random.default_rng(0)
        k.sample(x, rng)
        k.log_q(x + 0.1, x)
        k.sample_batch(x, 5, rng)
        assert form.calls == 3
        assert k.std(0.5) == math.sqrt(0.5 * 1.5**1.5)

    @given(
        st.floats(0.0, 4.0),
        st.floats(0.01, 10.0),
        st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_float_std_equals_fresh_evaluation(self, b, h, points, seed):
        field = power_field(b)
        k = gaussian_proposal(field, h)
        fresh = uncached_gaussian_proposal(field, h)
        x, y, z = (pt(p) for p in points)
        rng, rng_fresh = np.random.default_rng(seed), np.random.default_rng(seed)
        for a, c in ((x, y), (y, z), (z, x), (x, x)):
            assert k.log_q(c, a) == fresh.log_q(c, a)
            np.testing.assert_array_equal(k.sample(a, rng), fresh.sample(a, rng_fresh))


class TestCircle:
    def test_samples_inside_unit_disc(self):
        k = circle_proposal()
        rng = np.random.default_rng(5)
        x = pt(2.0, 7.0)
        ys = k.sample_batch(x, 20_000, rng)
        r2 = ((ys - x) ** 2).sum(axis=1)
        assert r2.max() <= 1.0
        # uniform on the disc means r^2 is uniform on [0,1]
        assert r2.mean() == pytest.approx(0.5, abs=0.01)

    def test_log_q(self):
        k = circle_proposal()
        x = pt(0.0, 0.0)
        assert k.log_q(pt(0.5, 0.5), x) == pytest.approx(-math.log(math.pi))
        assert k.log_q(pt(1.5, 0.0), x) == -math.inf


class TestEllipse:
    def test_semi_width_tracks_level(self):
        # the semi-width is the half-width of the start's staircase level
        k = ellipse_proposal()
        for x2, w in ((1.5, 1.0), (2.5, 1.0 / 3.0), (3.0, 1.0 / 9.0)):
            x = pt(0.0, x2)
            assert RectangleDensity.half_width(RectangleDensity.level(x)) == (
                pytest.approx(w)
            )
            assert k.log_q(x, x) == pytest.approx(-math.log(math.pi * w))
            assert k.log_q(pt(0.99 * w, x2), x) > -math.inf
            assert k.log_q(pt(1.01 * w, x2), x) == -math.inf

    def test_unit_disc_at_and_below_level_one(self):
        # every level <= 1 takes level 1's width, so the density stays
        # finite far below the support
        k = ellipse_proposal()
        for x2 in (1.5, 0.5, -3.0, -1000.0):
            x = pt(0.0, x2)
            y = pt(0.6, x2 - 0.6)
            assert k.log_q(y, x) == -math.log(math.pi)
            assert k.log_q_batch(y, np.array([x, x])) == pytest.approx(
                [-math.log(math.pi)] * 2, rel=1e-15
            )
            assert k.log_q(pt(0.8, x2 - 0.8), x) == -math.inf
        xs = np.array([[0.0, -1000.0], [0.0, 2.5]])
        assert k.log_q_batch(pt(0.2, -1000.2), xs)[0] == pytest.approx(-math.log(math.pi))

    def test_log_q_inside_and_outside(self):
        k = ellipse_proposal()
        x = pt(0.0, 2.5)  # level 2, semi-width 1/3
        w = 1.0 / 3.0
        assert k.log_q(pt(0.2, 2.6), x) == pytest.approx(-math.log(math.pi * w))
        # horizontally past the semi-width
        assert k.log_q(pt(0.4, 2.5), x) == -math.inf
        # vertically past the semi-height
        assert k.log_q(pt(0.0, 3.6), x) == -math.inf

    def test_samples_respect_shape(self):
        k = ellipse_proposal()
        x = pt(0.0, 2.5)
        rng = np.random.default_rng(9)
        ys = k.sample_batch(x, 20_000, rng)
        u = (ys[:, 0] - x[0]) / (1.0 / 3.0)
        v = ys[:, 1] - x[1]
        assert (u * u + v * v).max() <= 1.0

    def test_density_ratio_is_area_ratio(self):
        # from level 2 to level 3 the ellipse shrinks threefold, so the
        # reverse density is three times the forward one
        k = ellipse_proposal()
        x = pt(0.0, 2.9)
        y = pt(0.0, 3.05)
        assert k.log_q(y, x) - k.log_q(x, y) == pytest.approx(-math.log(3.0))

    def test_underflowing_semi_width_raises_named_error(self):
        # 3**(1 - 700) is 0.0 in floating point; from height 646 up the
        # semi-width is below the smallest normal float
        k = ellipse_proposal()
        x = pt(0.0, 700.5)
        with pytest.raises(NumericError, match="700.5"):
            k.log_q(x, x)
        with pytest.raises(NumericError, match="646.0"):
            k.log_q_batch(x, np.array([[0.0, 2.5], [0.0, 646.0]]))
        with pytest.raises(NumericError, match="700.5"):
            run_chain(make_rectangle(), k, (0.0, 700.5), 10, seed=0)
        # one level lower the width is still a normal float
        y = pt(0.0, 645.5)
        assert k.log_q(y, y) == k.log_q_batch(y, y)[0] == -math.log(math.pi * 3.0**-644)


class TestTruncatedGaussian:
    def test_untruncated_reduces_to_plain_gaussian(self):
        spec = TruncatedGaussianSpec(mu=1.2, sigma=0.8)
        assert truncated_mean(spec) == pytest.approx(1.2, abs=1e-14)
        t = 0.9
        assert truncated_mgf(spec, t) == pytest.approx(
            math.exp(1.2 * t + 0.5 * (0.8 * t) ** 2), rel=1e-13
        )

    def test_half_line_frozen_values(self):
        spec = TruncatedGaussianSpec(mu=0.0, sigma=1.0, a=0.0)
        assert truncated_mean(spec) == pytest.approx(HALF_LINE_MEAN, abs=1e-12)
        assert truncated_mgf(spec, 1.0) == pytest.approx(HALF_LINE_MGF_1, rel=1e-12)

    def test_asymmetric_interval_frozen_values(self):
        spec = TruncatedGaussianSpec(mu=1.5, sigma=2.3, a=-1.0, b=3.0)
        assert truncated_mean(spec) == pytest.approx(ASYM_MEAN, abs=1e-12)
        assert truncated_mgf(spec, 0.7) == pytest.approx(ASYM_MGF_07, rel=1e-12)
        assert truncated_mgf(spec, -0.4) == pytest.approx(ASYM_MGF_M04, rel=1e-12)

    def test_far_tail_stability(self):
        spec = TruncatedGaussianSpec(mu=0.0, sigma=1.0, a=10.0)
        assert truncated_mean(spec) == pytest.approx(FAR_HALF_MEAN, rel=1e-12)
        slice_spec = TruncatedGaussianSpec(mu=0.0, sigma=1.0, a=8.0, b=9.0)
        assert truncated_mean(slice_spec) == pytest.approx(FAR_SLICE_MEAN, rel=1e-12)

    def test_against_scipy_sampling(self):
        # independent implementation path: scipy's truncnorm sampler
        mu, sigma, a, b = -0.5, 1.7, 0.2, 4.0
        spec = TruncatedGaussianSpec(mu=mu, sigma=sigma, a=a, b=b)
        alpha, beta = (a - mu) / sigma, (b - mu) / sigma
        xs = truncnorm.rvs(
            alpha, beta, loc=mu, scale=sigma, size=200_000,
            random_state=np.random.default_rng(42),
        )
        se = xs.std() / math.sqrt(len(xs))
        assert abs(truncated_mean(spec) - xs.mean()) < 4 * se
        t = 0.3
        vals = np.exp(t * xs)
        se_mgf = vals.std() / math.sqrt(len(vals))
        assert abs(truncated_mgf(spec, t) - vals.mean()) < 4 * se_mgf

    def test_parameter_domains(self):
        with pytest.raises(ParameterError):
            TruncatedGaussianSpec(mu=0.0, sigma=0.0)
        with pytest.raises(ParameterError):
            TruncatedGaussianSpec(mu=0.0, sigma=1.0, a=2.0, b=1.0)
        with pytest.raises(ParameterError):
            # mass of [40, 41] underflows even the log domain
            TruncatedGaussianSpec(mu=0.0, sigma=1.0, a=40.0, b=41.0)


class TestTailBound:
    def test_dominates_true_tail(self):
        for x in (0.5, 1.0, 2.0, 5.0, 8.0):
            assert gaussian_tail_bound(x) > norm.sf(x)

    def test_asymptotically_tight(self):
        x = 8.0
        assert gaussian_tail_bound(x) / norm.sf(x) == pytest.approx(1.0, abs=0.02)

    def test_domain(self):
        with pytest.raises(ParameterError):
            gaussian_tail_bound(0.0)
        with pytest.raises(ParameterError):
            gaussian_tail_bound(-2.0)
