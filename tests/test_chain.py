import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdrwm import (
    BOUNDED,
    CovarianceField,
    NumericError,
    ParameterError,
    PastSampleSet,
    SupportError,
    circle_proposal,
    constant_field,
    estimate_expectation,
    gaussian_proposal,
    kernel_adaptive_field,
    log_accept_ratio,
    log_accept_ratio_closed_form,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
    mh_step,
    mixture_field,
    one_plus_square_field,
    power_field,
    regional_field,
    ridge_conditional_field,
    run_chain,
    tempered_langevin_field,
    weighted_empirical_field,
)


def pt(*vals):
    return np.array(vals, dtype=float)


class TestAcceptanceRoutes:
    """The generic (two proposal densities) and closed-form (determinant
    plus quadratic forms) acceptance computations must agree to float
    accuracy everywhere both are finite."""

    @pytest.mark.parametrize("b", [0.0, 1.5, 3.0])
    @pytest.mark.parametrize("h", [0.1, 2.38**2])
    def test_one_dimensional_agreement(self, b, h):
        f = power_field(b)
        k = gaussian_proposal(f, h)
        targets = [
            make_exponential_tail(1.0),
            make_polynomial_tail(3.0),
            make_gaussian(),
        ]
        xs = [-20.0, -2.0, 0.5, 7.0, 45.0]
        ys = [-21.0, 0.0, 1.0, 8.5, 44.0]
        for t in targets:
            for xv in xs:
                for yv in ys:
                    x, y = pt(xv), pt(yv)
                    a = log_accept_ratio(t, k, x, y)
                    c = log_accept_ratio_closed_form(t, f, h, x, y)
                    # 1e-12 absolute at order one, relative on the huge
                    # log-ratios where floats cannot do better
                    assert a == pytest.approx(c, abs=1e-12, rel=1e-12)

    def test_two_dimensional_agreement(self):
        rng = np.random.default_rng(17)
        samples = PastSampleSet(rng.standard_normal((5, 2)))
        f = kernel_adaptive_field(samples, gamma=0.7, nu=1.3, sigma_k=0.9)
        h = 0.8
        k = gaussian_proposal(f, h)
        t = make_ridge_2d()
        for _ in range(40):
            x = 2.0 * rng.standard_normal(2)
            y = x + rng.standard_normal(2)
            a = log_accept_ratio(t, k, x, y)
            c = log_accept_ratio_closed_form(t, f, h, x, y)
            assert a == pytest.approx(c, abs=1e-11)

    def test_symmetric_case_reduces_to_density_ratio(self):
        t = make_exponential_tail(1.0)
        f = constant_field(1.0)
        k = gaussian_proposal(f, 1.0)
        x, y = pt(2.0), pt(3.5)
        assert log_accept_ratio(t, k, x, y) == pytest.approx(-1.5, abs=1e-13)
        assert log_accept_ratio(t, k, y, x) == 0.0

    def test_off_support_proposal_never_accepted(self):
        t = make_rectangle()
        k = circle_proposal()
        assert log_accept_ratio(t, k, pt(0.0, 1.5), pt(0.0, 0.7)) == -math.inf

    def test_current_point_must_be_in_support(self):
        t = make_rectangle()
        k = circle_proposal()
        with pytest.raises(SupportError):
            log_accept_ratio(t, k, pt(0.0, 0.5), pt(0.0, 1.5))

    def test_unreachable_reverse_move_is_callers_error(self):
        t = make_rectangle()
        k = circle_proposal()
        with pytest.raises(ParameterError):
            log_accept_ratio(t, k, pt(0.0, 1.5), pt(0.0, 4.5))


class TestStep:
    def test_deterministic_under_seed(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 2.0)
        r1 = mh_step(t, k, pt(0.3), np.random.default_rng(123))
        r2 = mh_step(t, k, pt(0.3), np.random.default_rng(123))
        np.testing.assert_array_equal(r1[0], r2[0])
        assert r1[1] == r2[1] and r1[2] == r2[2]

    def test_certain_moves_always_taken(self):
        # with a symmetric kernel any downhill-to-uphill move has alpha 1;
        # none of them may come back refused
        t = make_exponential_tail(1.0)
        k = gaussian_proposal(constant_field(1.0), 1.0)
        traj = run_chain(t, k, [5.0], 4000, seed=2)
        certain = traj.alpha >= 1.0 - 1e-12
        assert certain.any()
        assert traj.accepted[certain].all()

    def test_rejection_keeps_state(self):
        t = make_rectangle()
        k = circle_proposal()
        rng = np.random.default_rng(0)
        x = pt(0.0, 1.0)
        for _ in range(50):
            nxt, acc, _ = mh_step(t, k, x, rng)
            if not acc:
                np.testing.assert_array_equal(nxt, x)
            x = nxt


class TestRunChain:
    def test_bit_reproducible(self):
        t = make_polynomial_tail(3.0)
        k = gaussian_proposal(power_field(1.0), 1.3)
        a = run_chain(t, k, [0.0], 500, seed=77)
        b = run_chain(t, k, [0.0], 500, seed=77)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.accepted, b.accepted)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.digest == b.digest

    def test_shapes_and_rate(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 2.38**2)
        traj = run_chain(t, k, [0.0], 1000, seed=5)
        assert traj.states.shape == (1001, 1)
        assert traj.accepted.shape == (1000,)
        assert 0.0 < traj.acceptance_rate < 1.0

    def test_gaussian_moments_recovered(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 2.38**2)
        traj = run_chain(t, k, [0.0], 30_000, seed=8)
        est, se = estimate_expectation(traj, lambda s: s[0], burn_in=1000)
        assert abs(est) < 4 * se
        est2, se2 = estimate_expectation(traj, lambda s: s[0] ** 2, burn_in=1000)
        assert abs(est2 - 1.0) < 4 * se2

    def test_stays_in_support(self):
        t = make_rectangle()
        k = circle_proposal()
        traj = run_chain(t, k, [0.0, 1.5], 3000, seed=3)
        for s in traj.states:
            assert t.support_test(s)

    def test_domain_errors(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        with pytest.raises(ParameterError):
            run_chain(t, k, [0.0], 0, seed=1)
        with pytest.raises(ParameterError):
            run_chain(t, k, [0.0, 0.0], 10, seed=1)
        with pytest.raises(SupportError):
            run_chain(make_rectangle(), circle_proposal(), [0.0, 0.2], 10, seed=1)
        with pytest.raises(ParameterError):
            run_chain(make_rectangle(), k, [0.0, 1.5], 10, seed=1)  # dim clash

    def test_csv_round(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        traj = run_chain(t, k, [0.25], 20, seed=9)
        text = traj.to_csv()
        lines = text.splitlines()
        assert lines[0] == f"# config={traj.digest} seed=9"
        assert lines[1] == "step,x0,accepted,alpha"
        assert len(lines) == 2 + 21  # header rows plus start plus 20 steps
        # a re-run gives the identical text
        assert run_chain(t, k, [0.25], 20, seed=9).to_csv() == text


ONE_DIM_TARGETS = {
    "exponential": lambda: make_exponential_tail(1.0),
    "subexponential": lambda: make_subexponential_tail(1.0, 0.5),
    "polynomial": lambda: make_polynomial_tail(3.0),
    "gaussian": make_gaussian,
}
RIDGE_FIELDS = {
    "spherical": lambda: constant_field(0.25 * np.eye(2)),
    "conditional": ridge_conditional_field,
}


def assert_same_chain(a, b):
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_array_equal(a.alpha, b.alpha)


def assert_reruns_identical(target, make_kernel, x0, other_x0, seed):
    """A rerun on the same kernel, after a chain from elsewhere has used
    it, and a run on a freshly built kernel all repeat the first run."""
    n_steps = 200
    kernel = make_kernel()
    first = run_chain(target, kernel, x0, n_steps, seed)
    run_chain(target, kernel, other_x0, n_steps, seed + 1)
    assert_same_chain(first, run_chain(target, kernel, x0, n_steps, seed))
    assert_same_chain(first, run_chain(target, make_kernel(), x0, n_steps, seed))


class TestRerunProperty:
    @given(
        st.sampled_from(sorted(ONE_DIM_TARGETS)),
        st.floats(0.0, 4.0),
        st.floats(0.01, 100.0),
        st.floats(-20.0, 20.0),
        st.integers(0, 2**32 - 2),
    )
    def test_one_dimensional(self, name, b, h, x0, seed):
        assert_reruns_identical(
            ONE_DIM_TARGETS[name](),
            lambda: gaussian_proposal(power_field(b), h),
            [x0], [x0 + 1.0], seed,
        )

    @given(
        st.sampled_from(sorted(RIDGE_FIELDS)),
        st.floats(0.01, 10.0),
        st.tuples(st.floats(-8.0, 8.0), st.floats(-0.5, 0.5)),
        st.integers(0, 2**32 - 2),
    )
    def test_ridge(self, name, h, x0, seed):
        assert_reruns_identical(
            make_ridge_2d(),
            lambda: gaussian_proposal(RIDGE_FIELDS[name](), h),
            list(x0), [x0[1], x0[0]], seed,
        )


def reference_chain(target, kernel, x0, n_steps, seed):
    """The transition written out with the public per-point pieces: a
    support test of the proposal, then :func:`log_accept_ratio`, which
    evaluates the target at both ends of the move."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float)
    states, accepted, alpha = [x], [], []
    for _ in range(n_steps):
        y = kernel.sample(x, rng)
        u = 1.0 - rng.random()
        la = log_accept_ratio(target, kernel, x, y) if target.support_test(y) else -math.inf
        accepted.append(math.log(u) < la)
        alpha.append(math.exp(la))
        x = y if accepted[-1] else x
        states.append(x)
    return np.array(states), np.array(accepted), np.array(alpha)


_PAST = PastSampleSet(np.array([-1.5, 0.25, 2.0]))


def _user_field(inv_metric):
    """A 1-D field built from ``inv_metric`` alone, with no float form."""
    return CovarianceField(1, inv_metric, BOUNDED, "user", None)


def _tanh_weights(x):
    w = math.tanh(x[0] ** 2)
    return np.array([1.0 - w, w])


#: every 1-D field factory, each given the chain's target
ONE_DIM_FIELDS = {
    "constant": lambda t: constant_field(2.5),
    "power_0": lambda t: power_field(0.0),
    "power_1.5": lambda t: power_field(1.5),
    "power_4": lambda t: power_field(4.0),
    "one_plus_square": lambda t: one_plus_square_field(),
    "tempered_langevin": lambda t: tempered_langevin_field(t, c_max=1e4),
    "regional": lambda t: regional_field([(lambda x: x[0] < 0.5, 0.5),
                                          (lambda x: x[0] >= 0.5, 3.0)]),
    "mixture": lambda t: mixture_field(_tanh_weights, [0.5, 4.0]),
    "kernel_adaptive": lambda t: kernel_adaptive_field(_PAST, 0.8, 1.5, 1.0),
    "weighted_empirical": lambda t: weighted_empirical_field(
        _PAST, lambda x, z: 1.0 / 3.0, ridge=0.1
    ),
    "user": lambda t: _user_field(lambda x: np.array([[0.5 + abs(x[0]) ** 0.5]])),
}


def assert_same_bytes(traj, ref):
    states, accepted, alpha = ref
    assert traj.states.shape == states.shape and traj.states.dtype == np.float64
    assert traj.states.tobytes() == states.tobytes()
    assert traj.accepted.tobytes() == accepted.tobytes()
    assert traj.alpha.tobytes() == alpha.tobytes()


class TestFloatLoop:
    """``run_chain`` steps a 1-D Gaussian kernel on Python floats.  The
    generic per-point route, on a kernel that reads the field through
    ``inv_metric``, must give the same chain byte for byte."""

    @pytest.mark.parametrize("field_name", sorted(ONE_DIM_FIELDS))
    @given(
        target_name=st.sampled_from(sorted(ONE_DIM_TARGETS)),
        h=st.floats(0.01, 50.0),
        x0=st.floats(-20.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_chain(self, field_name, target_name, h, x0, seed):
        target = ONE_DIM_TARGETS[target_name]()
        field = ONE_DIM_FIELDS[field_name](target)
        kernel = gaussian_proposal(field, h)
        assert kernel.std is not None
        by_inv_metric = gaussian_proposal(dataclasses.replace(field, variance=None), h)
        traj = run_chain(target, kernel, [x0], 150, seed)
        assert_same_bytes(traj, reference_chain(target, by_inv_metric, pt(x0), 150, seed))

    @given(st.floats(0.0, 4.0), st.floats(0.01, 50.0), st.integers(0, 2**32 - 1))
    def test_power_field_at_any_exponent(self, b, h, seed):
        target = make_exponential_tail(1.0)
        field = power_field(b)
        traj = run_chain(target, gaussian_proposal(field, h), [3.0], 150, seed)
        ref = reference_chain(
            target,
            gaussian_proposal(dataclasses.replace(field, variance=None), h),
            pt(3.0), 150, seed,
        )
        assert_same_bytes(traj, ref)

    @given(st.integers(0, 2**32 - 1))
    def test_field_turning_non_positive_raises_the_same_error(self, seed):
        # positive on (-2, 2) only: a chain from 0 proposes past it soon
        field = _user_field(lambda x: np.array([[1.0 - x[0] ** 2 / 4.0]]))
        target = make_exponential_tail(1.0)
        kernel = gaussian_proposal(field, 4.0)
        with pytest.raises(NumericError, match="is not usable") as floats:
            run_chain(target, kernel, [0.0], 400, seed)
        with pytest.raises(NumericError) as generic:
            reference_chain(target, kernel, pt(0.0), 400, seed)
        assert str(floats.value) == str(generic.value)

    @given(st.integers(0, 2**32 - 1))
    def test_nan_log_density_refuses_the_move_as_the_generic_route(self, seed):
        # np.minimum keeps a NaN acceptance: refused, with alpha NaN
        base = make_exponential_tail(1.0)
        target = dataclasses.replace(
            base, log_density=lambda x: math.nan if x[0] > 1.0 else base.log_density(x)
        )
        kernel = gaussian_proposal(power_field(1.0), 2.0)
        traj = run_chain(target, kernel, [0.0], 150, seed)
        assert np.isnan(traj.alpha).any()
        assert_same_bytes(traj, reference_chain(target, kernel, pt(0.0), 150, seed))

    def test_only_gaussian_one_dimensional_kernels_step_on_floats(self):
        assert gaussian_proposal(ridge_conditional_field(), 1.0).std is None
        assert circle_proposal().std is None


CARRIED_CASES = {
    "exponential": (lambda: make_exponential_tail(1.0),
                    lambda: gaussian_proposal(power_field(1.5), 2.0), [3.0]),
    "ridge": (make_ridge_2d,
              lambda: gaussian_proposal(ridge_conditional_field(), 1.0), [2.0, 0.1]),
    "staircase": (make_rectangle, circle_proposal, [0.0, 1.5]),
}


class TestCarriedLogDensity:
    """``run_chain`` carries the current state's log-density from the step
    that accepted it: one target evaluation per step, the same chain."""

    @pytest.mark.parametrize("case", sorted(CARRIED_CASES))
    def test_one_evaluation_per_step(self, case):
        make_target, make_kernel, x0 = CARRIED_CASES[case]
        target = make_target()
        calls = {"log_density": 0, "support_test": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        counting = dataclasses.replace(
            target,
            log_density=counted("log_density", target.log_density),
            support_test=counted("support_test", target.support_test),
        )
        n_steps = 400
        traj = run_chain(counting, make_kernel(), x0, n_steps, seed=5)
        assert calls["log_density"] <= n_steps + 1
        assert calls["support_test"] <= 1
        states, accepted, alpha = reference_chain(target, make_kernel(), x0, n_steps, 5)
        assert 0 < accepted.sum() < n_steps
        np.testing.assert_array_equal(traj.states, states)
        np.testing.assert_array_equal(traj.accepted, accepted)
        np.testing.assert_array_equal(traj.alpha, alpha)

    def test_step_refuses_point_off_support(self):
        with pytest.raises(SupportError):
            mh_step(make_rectangle(), circle_proposal(), pt(0.0, 0.5),
                    np.random.default_rng(0))


class TestEstimateExpectation:
    def test_constant_function_has_zero_se(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        traj = run_chain(t, k, [0.0], 400, seed=1)
        est, se = estimate_expectation(traj, lambda s: 3.0)
        assert est == 3.0 and se == 0.0

    def test_burn_in_domain(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        traj = run_chain(t, k, [0.0], 50, seed=1)
        with pytest.raises(ParameterError):
            estimate_expectation(traj, lambda s: s[0], burn_in=51)
        with pytest.raises(ParameterError):
            estimate_expectation(traj, lambda s: s[0], burn_in=-1)
