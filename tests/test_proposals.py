import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, get_lapack_funcs, solve_triangular
from scipy.stats import multivariate_normal, norm, truncnorm

from pdrwm import (
    CovarianceField,
    NumericError,
    ParameterError,
    RectangleDensity,
    TruncatedGaussianSpec,
    circle_proposal,
    constant_field,
    ellipse_proposal,
    gaussian_proposal,
    gaussian_tail_bound,
    log_accept_ratio,
    make_exponential_tail,
    make_rectangle,
    make_ridge_2d,
    power_field,
    ridge_conditional_field,
    run_chain,
    truncated_mean,
    truncated_mgf,
)
from pdrwm.proposals import _cholesky, _fma, _solve_lower

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


def floats(x):
    """A point as a tuple of Python floats, as a kernel's per-point
    callables take it."""
    return tuple(np.asarray(x, dtype=float).tolist())


def log_q(kernel, y, x):
    """``kernel``'s log proposal density at ``y`` from ``x``, with
    ``at(x)`` computed afresh."""
    x = floats(x)
    return kernel.log_q(floats(y), x, kernel.at(x))


def sample(kernel, x, rng):
    """One proposal of ``kernel`` from ``x`` as an array, with ``at(x)``
    computed afresh."""
    x = floats(x)
    return np.array(kernel.sample(x, kernel.at(x), rng))


class TestGaussianKernel1D:
    def test_log_q_matches_norm_logpdf(self):
        f = power_field(1.0)
        k = gaussian_proposal(f, h=0.7)
        x = pt(3.0)
        std = math.sqrt(0.7 * 4.0)  # (1+|3|)^1 = 4
        for y in (2.0, 3.0, 5.5):
            assert log_q(k, pt(y), x) == pytest.approx(
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
        assert log_q(k, pt(10.0), pt(0.0)) != log_q(k, pt(0.0), pt(10.0))

    def test_bad_step_size(self):
        with pytest.raises(ParameterError):
            gaussian_proposal(power_field(1.0), h=0.0)

    def test_variance_underflow_raises_naming_the_point(self):
        # the field value is positive, but 0.1 * 5e-324 is 0.0
        k = gaussian_proposal(constant_field(5e-324), h=0.1)
        x, rng = pt(0.5), np.random.default_rng(0)
        for call in (
            lambda: sample(k, x, rng),
            lambda: log_q(k, pt(1.0), x),
            lambda: k.sample_batch(x, 3, rng),
            lambda: k.log_q_batch(np.ones((3, 1)), x),
            lambda: k.log_q_batch(x, np.array([[0.5], [1.0]])),
        ):
            with pytest.raises(NumericError, match=r"4.94066e-324 at \[0\.5\] underflows"):
                call()

    def test_variance_overflow_raises_naming_the_point(self):
        # the field value is finite, but 1e10 * 1e300 is inf
        k = gaussian_proposal(constant_field(1e300), h=1e10)
        x, rng = pt(0.5), np.random.default_rng(0)
        for call in (
            lambda: k.at((0.5,)),
            lambda: sample(k, x, rng),
            lambda: log_q(k, pt(1.0), x),
            lambda: k.sample_batch(x, 3, rng),
            lambda: k.log_q_batch(np.ones((3, 1)), x),
            lambda: k.log_q_batch(x, np.array([[0.5], [1.0]])),
        ):
            with pytest.raises(NumericError, match=r"1e\+10 \* 1e\+300 at \[0\.5\] overflows"):
                call()

    def test_batch_raises_at_the_first_unusable_row(self):
        # the rows overflow, underflow and pass in turn: the batch names
        # the first failing row, whichever way it fails
        field = CovarianceField(
            1, lambda x: 1e300 if x[0] < 0 else 1e-320 if x[0] < 1 else 1.0,
            "three_way",
            lambda xs: np.where(xs[:, 0] < 0, 1e300, np.where(xs[:, 0] < 1, 1e-320, 1.0)),
        )
        k = gaussian_proposal(field, h=1e-10)
        with pytest.raises(NumericError, match=r"at \[0\.5\] underflows"):
            k.log_q_batch(pt(2.0), np.array([[2.0], [0.5], [-1.0]]))
        k = gaussian_proposal(field, h=1e10)
        with pytest.raises(NumericError, match=r"at \[-1\.0\] overflows"):
            k.log_q_batch(pt(2.0), np.array([[2.0], [-1.0], [0.5]]))


class TestGaussianKernelMultiDim:
    def test_log_q_matches_mvn_logpdf(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        k = gaussian_proposal(constant_field(sigma), h=0.5)
        x = pt(1.0, -2.0)
        y = pt(0.3, -1.1)
        expected = multivariate_normal.logpdf(y, mean=x, cov=0.5 * sigma)
        assert log_q(k, y, x) == pytest.approx(expected, abs=1e-12)
        # above 2-D the factor and the solve run the same loops
        sigma = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.7]])
        k = gaussian_proposal(constant_field(sigma), h=0.5)
        x, y = pt(1.0, -2.0, 0.5), pt(0.3, -1.1, 1.4)
        expected = multivariate_normal.logpdf(y, mean=x, cov=0.5 * sigma)
        assert log_q(k, y, x) == pytest.approx(expected, abs=1e-12)

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
            "bad",
            lambda xs: np.broadcast_to(value, (len(xs), 2, 2)),
        )
        k = gaussian_proposal(bad, h=1.0)
        with pytest.raises(NumericError):
            sample(k, pt(0.0, 0.0), np.random.default_rng(0))
        with pytest.raises(NumericError, match="failed to factor"):
            k.log_q_batch(np.zeros((3, 2)), pt(0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_value_raises(self, bad):
        # finite below x1 = 1, non-finite from there on
        def value(x):
            return np.array([[1.0, 0.0], [0.0, 1.0 if x[0] < 1.0 else bad]])

        field = CovarianceField(
            2, value, "bad", lambda xs: np.stack([value(x) for x in xs])
        )
        k = gaussian_proposal(field, h=1.0)
        x, far = pt(0.0, 0.0), pt(2.5, 0.0)
        with pytest.raises(NumericError, match=r"\[2\.5 0\. *\] is not finite"):
            sample(k, far, np.random.default_rng(0))
        with pytest.raises(NumericError, match=r"\[2\.5 0\. *\] is not finite"):
            log_q(k, x, far)
        with pytest.raises(NumericError, match=r"\[2\.5 0\. *\] is not finite"):
            k.log_q_batch(x, np.array([[0.5, 0.0], [2.5, 0.0], [3.0, 0.0]]))
        # the finite side still evaluates
        assert np.isfinite(log_q(k, far, x))
        assert np.isfinite(k.log_q_batch(np.zeros((2, 2)), x)).all()


# LAPACK as scipy calls it, with no check on the inputs
_TRTRS = get_lapack_funcs(("trtrs",), (np.empty((2, 2)),))[0]


def lapack_fma(a, b, c):
    """``fma(a, b, c)`` as LAPACK's ``trtrs`` computes it: the second
    entry of ``[[1, 0], [-a, 1]]^{-1} [b, c]`` is ``c - (-a) b``, fused."""
    low = np.array([[1.0, 0.0], [-a, 1.0]], order="F")
    return float(_TRTRS(low, np.array([b, c]), lower=True)[0][1])


def bits(values):
    return np.array(values, dtype=float).tobytes()


# magnitudes from 1e-150 to 1e150, either sign
magnitudes = st.builds(
    lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-150, 149)
)
signed = st.builds(lambda v, s: -v if s else v, magnitudes, st.booleans())
rhs = st.one_of(signed, st.sampled_from([0.0, -0.0]))


class TestLapackBits:
    """The 2-D kernel's factor and solve on Python floats against
    ``scipy.linalg.cholesky(lower=True)`` and ``solve_triangular(lower=True)``,
    which call LAPACK ``potrf`` and ``trtrs``: byte for byte."""

    @settings(max_examples=400)
    @given(
        magnitudes, magnitudes, st.floats(-1.0, 1.0), st.booleans(),
        st.tuples(rhs, rhs),
    )
    def test_factor_and_solve_are_lapacks(self, a11, a22, rho, diagonal, b):
        a21 = math.copysign(0.0, rho) if diagonal else rho * math.sqrt(a11) * math.sqrt(a22)
        cov = np.array([[a11, a21], [a21, a22]])
        try:
            low = cholesky(cov, lower=True)
        except np.linalg.LinAlgError:
            with pytest.raises(NumericError, match="failed to factor"):
                _cholesky(cov, cov[0])
            return
        rows = _cholesky(cov, cov[0])
        assert bits(rows) == bits(low)
        assert bits(_solve_lower(rows, b)) == bits(solve_triangular(low, np.array(b), lower=True))

    @settings(max_examples=200)
    @given(signed, signed, rhs)
    def test_fma_is_lapacks(self, a, b, c):
        assert bits(_fma(a, b, c)) == bits(lapack_fma(a, b, c))
        if hasattr(math, "fma"):  # Python 3.13 and later
            assert bits(_fma(a, b, c)) == bits(math.fma(a, b, c))

    @pytest.mark.parametrize(
        "a, b, c, expected",
        [
            # past the largest float: the exact sum rounds to +-inf
            (1e300, 1e10, 1.0, math.inf),
            (-1e300, 1e10, 1.0, -math.inf),
            # within half an ulp of the largest float it rounds down to it,
            # and at half an ulp the tie goes to the even 2**1024, inf
            (np.finfo(float).max, 1.0, 2.0**969, np.finfo(float).max),
            (np.finfo(float).max, 1.0, 2.0**970, math.inf),
            # subnormal results, in units of 2**-1074: 1.5 and 4.5 units
            # round to the even 2 and 4, 0.5 units to 0, and a difference
            # of normals lands on 1 unit exactly
            (1.5 * 2.0**-537, 2.0**-537, 0.0, 2.0**-1073),
            (1.5, 3.0 * 2.0**-1074, 0.0, 2.0**-1072),
            (2.0**-537, 2.0**-538, 0.0, 0.0),
            (1.0 + 2.0**-52, 2.0**-1022, -(2.0**-1022), 2.0**-1074),
            # the sum cancels the square's rounding
            (1.0 + 2.0**-30, 1.0 + 2.0**-30, -(1.0 + 2.0**-29), 2.0**-60),
            # an exact zero keeps IEEE's sign
            (1.0, 1.0, -1.0, 0.0),
            (-0.5, 0.0, -0.0, -0.0),
            (0.5, -0.0, -0.0, -0.0),
            (0.5, 0.0, -0.0, 0.0),
        ],
    )
    def test_fma_rounds_the_exact_sum(self, a, b, c, expected):
        assert bits(_fma(a, b, c)) == bits(expected)
        assert bits(lapack_fma(a, b, c)) == bits(expected)
        if math.isfinite(expected):
            # the nearest float to the exact sum
            exact = Fraction(a) * Fraction(b) + Fraction(c)
            error = abs(Fraction(expected) - exact)
            for side in (math.nextafter(expected, -math.inf), math.nextafter(expected, math.inf)):
                if math.isfinite(side):
                    assert error <= abs(Fraction(side) - exact)

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("other", [0.0, -0.0, 1.5, 1e300])
    def test_fma_at_non_finite_inputs_is_lapacks(self, special, where, other):
        # at other = 1e300 the finite product overflows, where fma keeps
        # an infinite c
        args = [other, -1e10, 3.0]
        args[where] = special
        got, lapack = _fma(*args), lapack_fma(*args)
        assert (math.isnan(got) and math.isnan(lapack)) or bits(got) == bits(lapack)


def uncached_gaussian_proposal(field, h):
    """The Gaussian kernel as it reads with nothing carried: ``at`` keeps
    only the point, and ``sample`` and ``log_q`` take a fresh
    ``inv_metric`` value, standard deviation or scipy Cholesky factor at
    every call.  A plain object with the per-point callables of a
    ``ProposalKernel``, ``dim`` and ``label``."""
    dim = field.dim

    def at(x):
        return np.array(x, dtype=float)

    if dim == 1:

        def std(x):
            return math.sqrt(h * field.inv_metric(x))

        def sample(x, xa, rng):
            return tuple(xa + std(xa) * rng.standard_normal(1))

        def log_q(y, x, xa):
            s = std(xa)
            u = (float(y[0]) - float(x[0])) / s
            return -0.5 * math.log(2.0 * math.pi) - math.log(s) - 0.5 * u * u

    else:

        def chol(x):
            return cholesky(h * field.inv_metric(x), lower=True)

        def sample(x, xa, rng):
            return tuple(xa + chol(xa) @ rng.standard_normal(dim))

        def log_q(y, x, xa):
            low = chol(xa)
            v = solve_triangular(low, np.array(y) - xa, lower=True)
            logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
            return -0.5 * (dim * math.log(2.0 * math.pi) + logdet + float(v @ v))

    return SimpleNamespace(dim=dim, at=at, sample=sample, log_q=log_q, label="uncached")


def reference_log_accept(target, kernel, x, y):
    """The Metropolis-Hastings log acceptance of ``x -> y`` written out on
    arrays, apart from the package's acceptance code: the target at both
    ends; off the support, ``-inf``; a forward density of ``-inf`` is a
    ``ParameterError``; a reverse density of ``-inf`` rejects; and
    ``np.minimum`` keeps a NaN ratio."""
    lp_x, lp_y = target.log_density(x), target.log_density(y)
    if lp_y == -math.inf:
        return -math.inf
    lq_yx = log_q(kernel, y, x)
    if lq_yx == -math.inf:
        raise ParameterError(f"move {x} -> {y} is not proposable by {kernel.label}")
    lq_xy = log_q(kernel, x, y)
    if lq_xy == -math.inf:
        return -math.inf
    return float(np.minimum(0.0, lp_y + lq_xy - lp_x - lq_yx))


def reference_chain(target, kernel, x0, n_steps, seed):
    """The transition written out on arrays with the kernel's per-point
    callables and :func:`reference_log_accept`: a draw, a uniform in
    (0, 1], then the acceptance."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float)
    states, accepted, alpha = [x], [], []
    for _ in range(n_steps):
        y = sample(kernel, x, rng)
        u = 1.0 - rng.random()
        la = reference_log_accept(target, kernel, x, y)
        accepted.append(math.log(u) < la)
        alpha.append(math.exp(la))
        x = y if accepted[-1] else x
        states.append(x)
    return np.array(states), np.array(accepted), np.array(alpha)


def counting(field):
    """``field`` with an ``inv_metric`` that counts its calls in
    ``.calls``, and that counting form."""
    form = field.inv_metric

    def counted(x):
        counted.calls += 1
        return form(x)

    counted.calls = 0
    return dataclasses.replace(field, inv_metric=counted), counted


# entries of B and c in the field S(x) = B(x) B(x)^T + c I, where
# B(x) = [[b00 + x1, b01], [b10, b11 + x2]]: SPD and, in general, not diagonal
entries = st.floats(-2.0, 2.0, allow_nan=False)


def spd_field(b00, b01, b10, b11, c):
    def inv_metric(x):
        b = np.array([[b00 + x[0], b01], [b10, b11 + x[1]]])
        return b @ b.T + c * np.eye(2)

    return CovarianceField(
        2, inv_metric, "spd", lambda xs: np.stack([inv_metric(x) for x in xs])
    )


class TestScaleMemo:
    """A chain carries each point's scale (the float standard deviation in
    one dimension, the Cholesky factor in more) with its state;
    :func:`log_q` and :func:`sample` here compute it afresh at each call.
    None of this may show in what the kernel returns."""

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
            assert log_q(k, b, a) == log_q(fresh, b, a)
            assert log_q(k, a, b) == log_q(fresh, a, b)
            np.testing.assert_array_equal(sample(k, a, rng), sample(fresh, a, rng_fresh))

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
        states, accepted, alpha = reference_chain(
            target, uncached_gaussian_proposal(field, h), x0, n_steps, seed=11
        )
        np.testing.assert_array_equal(traj.states, states)
        np.testing.assert_array_equal(traj.accepted, accepted)
        np.testing.assert_array_equal(traj.alpha, alpha)

    def test_points_that_compare_equal_are_kept_apart(self):
        # -0.0 == 0.0, but the scale is computed at the point given, so
        # it sees the sign of its float
        for dim in (1, 2):

            def inv_metric(x, dim=dim):
                value = 2.0 if math.copysign(1.0, float(x[0])) < 0 else 1.0
                return value if dim == 1 else np.eye(dim) * value

            field = CovarianceField(dim, inv_metric, "sign", None)
            k = gaussian_proposal(field, 1.0)
            y, zero, neg_zero = np.ones(dim), np.zeros(dim), np.zeros(dim)
            neg_zero[0] = -0.0
            assert log_q(k, y, zero) != log_q(k, y, neg_zero)
            assert log_q(k, y, zero) == log_q(k, y, np.zeros(dim, dtype=int))
            assert log_q(k, y, neg_zero) == log_q(k, y, neg_zero.copy())

    def test_one_dimension_reads_the_float_variance_at_each_call(self):
        field, form = counting(power_field(1.5))
        k = gaussian_proposal(field, 0.5)
        x = pt(0.5)
        rng = np.random.default_rng(0)
        sample(k, x, rng)
        log_q(k, x + 0.1, x)
        k.sample_batch(x, 5, rng)
        assert form.calls == 3
        assert k.at((0.5,))[0] == math.sqrt(0.5 * 1.5**1.5)

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
            assert log_q(k, c, a) == log_q(fresh, c, a)
            np.testing.assert_array_equal(sample(k, a, rng), sample(fresh, a, rng_fresh))


def array_disc_sample(x, w, rng):
    """One uniform-ellipse draw as the array arithmetic wrote it: unit-disc
    offsets for ``n = 1`` in numpy, the first scaled by ``w``, added to ``x``."""
    r = np.sqrt(rng.random(1))
    theta = 2.0 * math.pi * rng.random(1)
    out = np.empty((2, 1))
    np.multiply(r, np.cos(theta), out=out[0])
    np.multiply(r, np.sin(theta), out=out[1])
    off = out.T[0]
    off[0] *= w
    return x + off


class TestUniformSampleBits:
    """The disc and ellipse draw on Python floats; each draw keeps the
    bits of the array arithmetic, and the stream stays in step."""

    @given(
        st.sampled_from(["disc", "ellipse"]),
        st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 14.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_per_point_sample_keeps_the_array_bits(self, name, x, seed):
        x = pt(*x)
        if name == "disc":
            k, w = circle_proposal(), 1.0
        else:
            k = ellipse_proposal()
            w = RectangleDensity.half_width(max(1, math.floor(x[1])))
        rng, rng_array = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            y = sample(k, x, rng)
            assert y.dtype == np.float64 and y.shape == (2,)
            assert y.tobytes() == array_disc_sample(x, w, rng_array).tobytes()


#: rows 0, 17 and 39 of ``sample_batch(x, 40, default_rng(7))``, recorded
#: before the disc's draws shared one offsets formula with the chain's
#: uniform block
BATCH_ROWS = {
    "disc": ((0.3, 1.2), [
        ("0x1.b3b684707fa63p-3", "0x1.fc5d71e62d901p+0"),
        ("-0x1.633674ebf2a3dp-2", "0x1.cfccbbadf5140p+0"),
        ("0x1.1478b527d2a46p-1", "0x1.82e07cd517e16p+0"),
    ]),
    "ellipse": ((0.01, 4.2), [
        ("0x1.bb95301e2c564p-8", "0x1.3f175c798b640p+2"),
        ("-0x1.c966d8b38474bp-7", "0x1.33f32eeb7d450p+2"),
        ("0x1.35772ae60018ep-6", "0x1.20b81f3545f86p+2"),
    ]),
}
UNIFORM_KERNELS = {"disc": circle_proposal, "ellipse": ellipse_proposal}


class TestUniformBlock:
    """The disc and the ellipse hand a chain a block form: two uniforms
    per proposal, mapped to offsets in one numpy pass."""

    @pytest.mark.parametrize("name", sorted(BATCH_ROWS))
    def test_sample_batch_keeps_its_recorded_rows(self, name):
        x, rows = BATCH_ROWS[name]
        ys = UNIFORM_KERNELS[name]().sample_batch(pt(*x), 40, np.random.default_rng(7))
        got = [tuple(float(v).hex() for v in ys[i]) for i in (0, 17, 39)]
        assert got == rows

    @pytest.mark.parametrize("name", sorted(UNIFORM_KERNELS))
    @given(
        st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 14.0)),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_block_places_the_draws_of_sample(self, name, x, m, seed):
        # the offsets of m rows at once, each placed with move, are m
        # calls of sample on the same uniforms
        k = UNIFORM_KERNELS[name]()
        assert k.block.k == 2
        x = floats(x)
        at_x = k.at(x)
        us = np.random.default_rng(seed).random((m, 2))
        offsets = k.block.offsets(us)
        assert offsets.shape == (m, 2)
        rng = np.random.default_rng(seed)
        for offset in offsets.tolist():
            assert k.block.move(x, at_x, offset) == k.sample(x, at_x, rng)


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
        assert log_q(k, pt(0.5, 0.5), x) == pytest.approx(-math.log(math.pi))
        assert log_q(k, pt(1.5, 0.0), x) == -math.inf


class TestEllipse:
    def test_semi_width_tracks_level(self):
        # the semi-width is the half-width of the start's staircase level
        k = ellipse_proposal()
        for x2, w in ((1.5, 1.0), (2.5, 1.0 / 3.0), (3.0, 1.0 / 9.0)):
            x = pt(0.0, x2)
            assert RectangleDensity.half_width(RectangleDensity.level(x)) == (
                pytest.approx(w)
            )
            assert log_q(k, x, x) == pytest.approx(-math.log(math.pi * w))
            assert log_q(k, pt(0.99 * w, x2), x) > -math.inf
            assert log_q(k, pt(1.01 * w, x2), x) == -math.inf

    def test_unit_disc_at_and_below_level_one(self):
        # every level <= 1 takes level 1's width, so the density stays
        # finite far below the support
        k = ellipse_proposal()
        for x2 in (1.5, 0.5, -3.0, -1000.0):
            x = pt(0.0, x2)
            y = pt(0.6, x2 - 0.6)
            assert log_q(k, y, x) == -math.log(math.pi)
            assert k.log_q_batch(y, np.array([x, x])) == pytest.approx(
                [-math.log(math.pi)] * 2, rel=1e-15
            )
            assert log_q(k, pt(0.8, x2 - 0.8), x) == -math.inf
        xs = np.array([[0.0, -1000.0], [0.0, 2.5]])
        assert k.log_q_batch(pt(0.2, -1000.2), xs)[0] == pytest.approx(-math.log(math.pi))

    def test_log_q_inside_and_outside(self):
        k = ellipse_proposal()
        x = pt(0.0, 2.5)  # level 2, semi-width 1/3
        w = 1.0 / 3.0
        assert log_q(k, pt(0.2, 2.6), x) == pytest.approx(-math.log(math.pi * w))
        # horizontally past the semi-width
        assert log_q(k, pt(0.4, 2.5), x) == -math.inf
        # vertically past the semi-height
        assert log_q(k, pt(0.0, 3.6), x) == -math.inf

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
        assert log_q(k, y, x) - log_q(k, x, y) == pytest.approx(-math.log(3.0))

    def test_underflowing_semi_width_raises_named_error(self):
        # 3**(1 - 700) is 0.0 in floating point; from height 646 up the
        # semi-width is below the smallest normal float
        k = ellipse_proposal()
        x = pt(0.0, 700.5)
        with pytest.raises(NumericError, match="700.5"):
            log_q(k, x, x)
        with pytest.raises(NumericError, match="646.0"):
            k.log_q_batch(x, np.array([[0.0, 2.5], [0.0, 646.0]]))
        with pytest.raises(NumericError, match="700.5"):
            run_chain(make_rectangle(), k, (0.0, 700.5), 10, seed=0)
        # one level lower the width is still a normal float
        y = pt(0.0, 645.5)
        assert log_q(k, y, y) == k.log_q_batch(y, y)[0] == -math.log(math.pi * 3.0**-644)


class TestDiscIsTheUnitEllipse:
    """The disc is the ellipse kernel at unit width: from a start at or
    below level 1, where the staircase ellipse's width is 1, the two give
    the same bits in every form, and the disc's batch density is the one
    it summed as ``(d * d).sum(axis=1)``."""

    @given(
        # every start and end point stays below level 2
        st.tuples(st.floats(-5.0, 5.0), st.floats(-50.0, -0.001)),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 1.999)),
        st.integers(0, 2**32 - 1),
    )
    def test_same_bits_in_every_form(self, x, offset, seed):
        disc, ellipse = circle_proposal(), ellipse_proposal()
        x = floats(x)
        y = (x[0] + offset[0], x[1] + offset[1])
        assert disc.at(x) == ellipse.at(x) == (1.0, -math.log(math.pi))
        assert log_q(disc, y, x) == log_q(ellipse, y, x)
        draws = [sample(k, x, np.random.default_rng(seed)) for k in (disc, ellipse)]
        assert draws[0].tobytes() == draws[1].tobytes()
        xa, ys = pt(*x), pt(*x) + np.array([offset, (0.3, 0.4), (0.9, 0.5)])
        rows = [k.sample_batch(xa, 7, np.random.default_rng(seed)) for k in (disc, ellipse)]
        assert rows[0].tobytes() == rows[1].tobytes()
        for a, b in ((ys, xa), (xa, ys)):
            d = np.atleast_2d(a) - np.atleast_2d(b)
            unit = np.where((d * d).sum(axis=1) <= 1.0, -math.log(math.pi), -np.inf)
            assert disc.log_q_batch(a, b).tobytes() == unit.tobytes()
            assert ellipse.log_q_batch(a, b).tobytes() == unit.tobytes()


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
