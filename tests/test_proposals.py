import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm, truncnorm

from pdrwm import (
    NumericError,
    ParameterError,
    TruncatedGaussianSpec,
    circle_proposal,
    constant_field,
    ellipse_proposal,
    ellipse_semi_width,
    gaussian_proposal,
    gaussian_tail_bound,
    make_rectangle,
    power_field,
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
        from pdrwm import CovarianceField, BOUNDED

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
        assert ellipse_semi_width(1.5) == 1.0
        assert ellipse_semi_width(2.5) == pytest.approx(1.0 / 3.0)
        assert ellipse_semi_width(3.0) == pytest.approx(1.0 / 9.0)

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
