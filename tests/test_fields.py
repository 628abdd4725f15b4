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
    PartitionError,
    BOUNDED,
    CovarianceField,
    PastSampleSet,
    constant_field,
    gaussian_proposal,
    kernel_adaptive_field,
    load_sample_set,
    make_exponential_tail,
    make_polynomial_tail,
    make_rectangle,
    mixture_field,
    one_plus_square_field,
    power_field,
    regional_field,
    tempered_langevin_field,
    weighted_empirical_field,
)

# Frozen reference: 1 + 8/e, worked out by hand for the two-sample
# one-dimensional configuration below.
KERNEL_ADAPTIVE_PINNED = 3.9430355293715387


def pt(*vals):
    return np.array(vals, dtype=float)


class TestConstant:
    def test_scalar_shorthand(self):
        f = constant_field(2.5)
        assert f.dim == 1
        np.testing.assert_allclose(f.inv_metric(pt(7.0)), [[2.5]])
        assert f.growth_class.kind == "bounded"

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
        assert f.inv_metric(pt(3.0))[0, 0] == pytest.approx(4.0**1.5)
        assert f.inv_metric(pt(-3.0))[0, 0] == pytest.approx(4.0**1.5)

    def test_growth_classification(self):
        from pdrwm import GrowthClass

        assert power_field(0.0).growth_class.kind == "bounded"
        assert power_field(1.5).growth_class == GrowthClass("subquadratic", 1.5)
        assert power_field(2.0).growth_class.kind == "quadratic"
        assert power_field(3.0).growth_class == GrowthClass("superquadratic", 3.0)

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
        # past |x| = 1e154 the square overflows to inf, and a subnormal
        # square underflows to 0; both forms must do so alike
        xv = np.array(x)
        f = power_field(b, dim=len(x))
        with np.errstate(over="ignore"):
            # a numpy scalar, whose power gives inf past the float range
            # where a Python float's raises OverflowError
            scale = (1.0 + np.linalg.norm(xv)) ** b
            expected = np.diag(np.full(len(x), scale))
            assert f.inv_metric(xv).tobytes() == expected.tobytes()
            scales = (1.0 + np.linalg.norm(xv[None, :], axis=1)) ** b
            batch = f.inv_metric_batch(xv[None, :])
        if np.isfinite(scales[0]):
            # finite values keep the bits of the scaled identity
            assert batch.tobytes() == (scales[:, None, None] * np.eye(len(x))).tobytes()


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
    """A 1-D field's float variance is ``inv_metric``'s value, bit for bit."""

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
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _outcome(lambda u: field.inv_metric(np.array([u]))[0, 0], v)
        assert _outcome(field.variance, v) == expected

    @given(b=st.floats(0.0, 4.0), v=st.floats(allow_nan=False))
    def test_power_field_at_any_exponent(self, b, v):
        f = power_field(b)
        with np.errstate(over="ignore"):
            expected = _outcome(lambda u: f.inv_metric(np.array([u]))[0, 0], v)
        assert _outcome(f.variance, v) == expected

    def test_default_reads_inv_metric(self):
        f = CovarianceField(1, lambda x: np.array([[1.0 + x[0] ** 4]]), BOUNDED, "user", None)
        for v in FLOAT_POINTS[:-3]:
            with np.errstate(over="ignore"):
                assert _outcome(f.variance, v) == _outcome(
                    lambda u: f.inv_metric(np.array([u]))[0, 0], v
                )
        # replacing the field keeps a stated form, and fills in a dropped one
        traced = dataclasses.replace(power_field(1.5), inv_metric=lambda x: np.eye(1))
        assert traced.variance(3.0) == 4.0**1.5
        refilled = dataclasses.replace(traced, variance=None)
        assert refilled.variance(3.0) == 1.0

    def test_only_one_dimension_has_a_float_form(self):
        assert power_field(1.5, dim=2).variance is None
        with pytest.raises(ParameterError):
            dataclasses.replace(power_field(1.5, dim=2), variance=lambda v: 1.0)


class TestPerPointOverflow:
    """Where the value passes the float range, the per-point forms give
    ``inf`` as the batch form does, and the kernel names the point."""

    @pytest.mark.parametrize(
        "field, v",
        [(one_plus_square_field(), 1e160), (power_field(4.0), 1e80)],
        ids=["one_plus_square", "power4"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_inf_as_in_the_batch_form(self, field, v, sign):
        v *= sign
        assert field.variance(v) == math.inf
        assert field.inv_metric(pt(v))[0, 0] == math.inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            batch = field.inv_metric_batch(pt(v)[None, :])
        assert batch[0, 0, 0] == math.inf
        kern = gaussian_proposal(field, 1.0)
        with pytest.raises(NumericError, match=re.escape(f"inf at [{v!r}]")):
            kern.std(v)


class TestPowerFieldOverflowInDimensionTwo:
    """Past the float range the scale is ``inf`` on the diagonal and the
    off-diagonal stays 0, with no inf * 0 NaN in either form."""

    def test_diagonal_inf_off_diagonal_zero(self):
        f = power_field(4.0, dim=2)
        x = np.array([1e80, 0.0])
        expected = np.array([[math.inf, 0.0], [0.0, math.inf]])
        np.testing.assert_array_equal(f.inv_metric(x), expected)
        with pytest.warns(RuntimeWarning, match="overflow"):
            batch = f.inv_metric_batch(np.array([x, [3.0, 4.0]]))
        np.testing.assert_array_equal(batch[0], expected)
        np.testing.assert_array_equal(batch[1], 6.0**4 * np.eye(2))

    def test_kernel_names_the_point(self):
        kern = gaussian_proposal(power_field(4.0, dim=2), 1.0)
        x = np.array([1e80, 0.0])
        with pytest.raises(NumericError, match=r"covariance at .* is not finite"):
            kern.sample(x, np.random.default_rng(0))


def _growth(field):
    return field.growth_class


class TestTemperedLangevin:
    def test_reciprocal_of_density(self):
        t = make_exponential_tail(1.0)
        f = tempered_langevin_field(t)
        assert f.inv_metric(pt(3.0))[0, 0] == pytest.approx(math.exp(3.0))

    def test_cap(self):
        t = make_exponential_tail(1.0)
        f = tempered_langevin_field(t, c_max=100.0)
        assert f.inv_metric(pt(10.0))[0, 0] == 100.0

    def test_off_support_raises(self):
        f = tempered_langevin_field(make_rectangle())
        assert f.inv_metric(pt(0.0, 1.0))[0, 0] == pytest.approx(3.0)
        with pytest.raises(EvaluationError):
            f.inv_metric(pt(0.0, 0.5))

    def test_growth_follows_target_tail(self):
        assert _growth(
            tempered_langevin_field(make_exponential_tail(1.0))
        ).gamma == math.inf
        g15 = _growth(tempered_langevin_field(make_polynomial_tail(1.5)))
        assert (g15.kind, g15.gamma) == ("subquadratic", 1.5)
        g3 = _growth(tempered_langevin_field(make_polynomial_tail(3.0)))
        assert (g3.kind, g3.gamma) == ("superquadratic", 3.0)


class TestRegional:
    def test_two_halves(self):
        f = regional_field(
            [
                (lambda x: x[0] < 0.0, [[1.0]]),
                (lambda x: x[0] >= 0.0, [[4.0]]),
            ]
        )
        assert f.inv_metric(pt(-2.0))[0, 0] == 1.0
        assert f.inv_metric(pt(2.0))[0, 0] == 4.0
        assert f.growth_class.kind == "bounded"

    def test_overlap_caught_at_construction(self):
        with pytest.raises(PartitionError):
            regional_field(
                [
                    (lambda x: x[0] < 1.0, [[1.0]]),
                    (lambda x: x[0] > -1.0, [[2.0]]),
                ]
            )

    def test_gap_caught_at_evaluation(self):
        # the probe points miss measure-zero gaps, the query does not
        f = regional_field(
            [
                (lambda x: x[0] < 0.0, [[1.0]]),
                (lambda x: x[0] > 0.0, [[2.0]]),
            ]
        )
        with pytest.raises(PartitionError):
            f.inv_metric(pt(0.0))

    def test_unchecked_mode_last_match_wins(self):
        f = regional_field(
            [
                (lambda x: x[0] < 1.0, [[1.0]]),
                (lambda x: x[0] > -1.0, [[2.0]]),
            ],
            check_partition=False,
        )
        assert f.inv_metric(pt(0.0))[0, 0] == 2.0
        assert f.inv_metric(pt(-5.0))[0, 0] == 1.0
        # a point matching nothing is an error even unchecked
        g = regional_field(
            [(lambda x: x[0] < 0.0, [[1.0]])], check_partition=False
        )
        with pytest.raises(PartitionError):
            g.inv_metric(pt(3.0))


class TestMixture:
    def test_blend(self):
        def w(x):
            p = 1.0 / (1.0 + math.exp(-x[0]))
            return np.array([1.0 - p, p])

        f = mixture_field(w, [[[1.0]], [[9.0]]])
        assert f.inv_metric(pt(0.0))[0, 0] == pytest.approx(5.0)
        assert f.inv_metric(pt(50.0))[0, 0] == pytest.approx(9.0)

    def test_off_simplex_rejected(self):
        f = mixture_field(lambda x: np.array([0.5, 0.6]), [[[1.0]], [[2.0]]])
        with pytest.raises(EvaluationError):
            f.inv_metric(pt(0.0))
        g = mixture_field(lambda x: np.array([1.5, -0.5]), [[[1.0]], [[2.0]]])
        with pytest.raises(EvaluationError):
            g.inv_metric(pt(0.0))


class TestKernelAdaptive:
    def test_pinned_two_sample_value(self):
        samples = PastSampleSet([[-1.0], [1.0]])
        f = kernel_adaptive_field(samples, gamma=1.0, nu=1.0, sigma_k=1.0)
        val = f.inv_metric(pt(0.0))
        assert val.shape == (1, 1)
        assert val[0, 0] == pytest.approx(KERNEL_ADAPTIVE_PINNED, abs=1e-12)

    def test_settles_to_gamma_far_away(self):
        samples = PastSampleSet([[-1.0], [1.0]])
        f = kernel_adaptive_field(samples, gamma=2.0, nu=3.0, sigma_k=1.0)
        assert f.inv_metric(pt(100.0))[0, 0] == pytest.approx(4.0)
        assert f.growth_class.kind == "bounded"

    def test_always_spd(self):
        rng = np.random.default_rng(7)
        samples = PastSampleSet(rng.standard_normal((6, 3)))
        f = kernel_adaptive_field(samples, gamma=0.5, nu=2.0, sigma_k=0.8)
        for _ in range(25):
            x = 3.0 * rng.standard_normal(3)
            m = f.inv_metric(x)
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.eigvalsh(m).min() > 0.0

    def test_parameter_domains(self):
        samples = PastSampleSet([[-1.0], [1.0]])
        with pytest.raises(ParameterError):
            kernel_adaptive_field(samples, gamma=0.0, nu=1.0, sigma_k=1.0)
        with pytest.raises(ParameterError):
            kernel_adaptive_field(samples, gamma=1.0, nu=-1.0, sigma_k=1.0)
        with pytest.raises(ParameterError):
            kernel_adaptive_field(samples, gamma=1.0, nu=1.0, sigma_k=0.0)


class TestWeightedEmpirical:
    def test_pinned_two_sample_identity(self):
        samples = PastSampleSet([[1.0, 0.0], [0.0, 1.0]])
        f = weighted_empirical_field(samples, lambda x, z: 0.5)
        np.testing.assert_allclose(
            f.inv_metric(pt(0.0, 0.0)), 0.5 * np.eye(2), atol=1e-15
        )

    def test_pinned_single_point_with_ridge(self):
        # one effective sample at z=2, realized as two copies sharing the
        # weight: the scatter is (2-0)^2 = 4, plus the ridge
        samples = PastSampleSet([[2.0], [2.0]])
        f = weighted_empirical_field(samples, lambda x, z: 0.5, ridge=0.01)
        assert f.inv_metric(pt(0.0))[0, 0] == pytest.approx(4.01, abs=1e-14)

    def test_unnormalized_weights_rejected(self):
        samples = PastSampleSet([[0.0], [1.0]])
        f = weighted_empirical_field(samples, lambda x, z: 0.7)
        with pytest.raises(EvaluationError):
            f.inv_metric(pt(0.0))

    def test_quadratic_growth_tag(self):
        samples = PastSampleSet([[0.0], [1.0]])
        f = weighted_empirical_field(samples, lambda x, z: 0.5)
        assert f.growth_class.kind == "quadratic"

    def test_negative_ridge_rejected(self):
        samples = PastSampleSet([[0.0], [1.0]])
        with pytest.raises(ParameterError):
            weighted_empirical_field(samples, lambda x, z: 0.5, ridge=-0.1)


class TestPastSampleSet:
    def test_shape_normalization(self):
        s = PastSampleSet([1.0, 2.0, 3.0])
        assert s.points.shape == (3, 1)
        assert s.n == 3 and s.dim == 1

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            PastSampleSet([[1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            PastSampleSet([[1.0], [math.nan]])

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("# past samples\n1.0,2.0\n3.0,4.0\n-1.0,0.5\n")
        s = load_sample_set(path)
        assert s.n == 3 and s.dim == 2
        np.testing.assert_allclose(s.points[2], [-1.0, 0.5])

    def test_immutable(self):
        s = PastSampleSet([[1.0], [2.0]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 9.0
