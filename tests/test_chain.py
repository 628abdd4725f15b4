import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdrwm import (
    CovarianceField,
    build_discretized,
    NumericError,
    ParameterError,
    RectangleDensity,
    SupportError,
    circle_proposal,
    constant_field,
    drift_ratio_quadrature,
    ellipse_proposal,
    esjd_scan,
    estimate_expectation,
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
    mh_step,
    one_plus_square_field,
    power_field,
    rejection_probability,
    ridge_conditional_field,
    run_chain,
    tail_acceptance_profile,
    tempered_langevin_field,
    tune_step_size,
)
from pdrwm.chain import _CHUNK
# the uncached Gaussian kernel factors with scipy at every call: the
# array arithmetic the float step must reproduce
from test_proposals import (
    counting,
    entries,
    reference_chain,
    sample,
    spd_field,
    uncached_gaussian_proposal,
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
        # off-diagonal entries that move with the point, |rho| <= 0.5, so
        # S(x) stays SPD
        def inv_metric(x):
            rho = 0.5 * math.tanh(x[0] - x[1])
            return np.array([[1.0 + x[1] ** 2, rho], [rho, 1.0 + x[0] ** 2]])

        f = CovarianceField(2, inv_metric, "tilted", None)
        rng = np.random.default_rng(17)
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


def redrawn_proposals(kernel, traj):
    """Each step's proposal of ``traj``, redrawn from its seed: a chain
    draws one proposal and then one uniform per step."""
    rng = np.random.default_rng(traj.seed)
    ys = []
    for x in traj.states[:-1]:
        ys.append(sample(kernel, x, rng))
        rng.random()
    return ys


def assert_alphas_match_closed_form(field, h, x0, seed):
    """Every alpha a ridge chain records is the closed-form acceptance of
    its move, to 1e-11 in log (relative where the log-ratio is large)."""
    target, kernel = make_ridge_2d(), gaussian_proposal(field, h)
    traj = run_chain(target, kernel, x0, 100, seed)
    ys = redrawn_proposals(kernel, traj)
    for i, (x, y, a) in enumerate(zip(traj.states[:-1], ys, traj.alpha)):
        if traj.accepted[i]:
            np.testing.assert_array_equal(y, traj.states[i + 1])
        c = log_accept_ratio_closed_form(target, field, h, x, y)
        if a > 0.0:
            assert math.log(a) == pytest.approx(c, abs=1e-11, rel=1e-11)
        else:
            assert math.exp(c) == 0.0


class TestChainAlphasMatchClosedForm:
    """The chain's acceptance (two proposal densities on its float points)
    against the closed form (determinants and quadratic forms of the
    field), on every step of ridge chains."""

    @given(
        st.tuples(entries, entries, entries, entries),
        st.floats(0.01, 1.0),
        st.floats(0.05, 4.0),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_non_diagonal_field(self, bs, c, h, x0, seed):
        assert_alphas_match_closed_form(spd_field(*bs, c), h, x0, seed)

    @given(
        st.floats(0.05, 4.0),
        st.tuples(st.floats(-8.0, 8.0), st.floats(-0.5, 0.5)),
        st.integers(0, 2**32 - 1),
    )
    def test_conditional_field(self, h, x0, seed):
        assert_alphas_match_closed_form(ridge_conditional_field(), h, x0, seed)


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

    def test_state_of_the_wrong_length_names_its_step(self):
        # the third proposal repeats the state with one coordinate more;
        # its density and move are the current point's, so it is accepted
        kernel = gaussian_proposal(constant_field(1.0), 1.0)
        calls = []

        def longer(x, at_x, rng):
            calls.append(1)
            y = kernel.sample(x, at_x, rng)
            return (*x, 0.0) if len(calls) == 3 else y

        replaced = dataclasses.replace(kernel, sample=longer)
        with pytest.raises(ParameterError, match="step 3 moved to a state of 2 coordinates"):
            run_chain(make_gaussian(), replaced, [0.0], 10, seed=1)

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


def mh_step_chain(target, kernel, x0, n_steps, seed):
    """``n_steps`` calls of :func:`mh_step` on one seeded stream, each from
    the point the last one returned."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float)
    states, accepted, alpha = [x], [], []
    for _ in range(n_steps):
        x, acc, a = mh_step(target, kernel, x, rng)
        states.append(x)
        accepted.append(acc)
        alpha.append(a)
    return np.array(states), np.array(accepted), np.array(alpha)


def _user_field(inv_metric):
    """A 1-D field built from ``inv_metric`` alone, with no batch form."""
    return CovarianceField(1, inv_metric, "user", None)


#: every 1-D field factory, each given the chain's target
ONE_DIM_FIELDS = {
    "constant": lambda t: constant_field(2.5),
    "power_0": lambda t: power_field(0.0),
    "power_1.5": lambda t: power_field(1.5),
    "power_4": lambda t: power_field(4.0),
    "one_plus_square": lambda t: one_plus_square_field(),
    "tempered_langevin": lambda t: tempered_langevin_field(t, c_max=1e4),
    "user": lambda t: _user_field(lambda x: 0.5 + abs(float(x[0])) ** 0.5),
}


def assert_same_bytes(traj, ref):
    states, accepted, alpha = ref
    assert traj.states.shape == states.shape and traj.states.dtype == np.float64
    assert traj.states.tobytes() == states.tobytes()
    assert traj.accepted.tobytes() == accepted.tobytes()
    assert traj.alpha.tobytes() == alpha.tobytes()


class TestFloatLoop:
    """``run_chain`` steps every package kernel on Python floats.  The
    generic per-point route (for the Gaussian, on a kernel that reads the
    field's value on arrays at every call, and factors it with scipy above
    one dimension) must give the same chain byte for byte, and so must
    ``n`` calls of ``mh_step`` on one stream."""

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
        fresh = uncached_gaussian_proposal(field, h)
        traj = run_chain(target, kernel, [x0], 150, seed)
        assert_same_bytes(traj, reference_chain(target, fresh, pt(x0), 150, seed))
        assert_same_bytes(traj, mh_step_chain(target, kernel, pt(x0), 150, seed))

    @given(st.floats(0.0, 4.0), st.floats(0.01, 50.0), st.integers(0, 2**32 - 1))
    def test_power_field_at_any_exponent(self, b, h, seed):
        target = make_exponential_tail(1.0)
        field = power_field(b)
        traj = run_chain(target, gaussian_proposal(field, h), [3.0], 150, seed)
        ref = reference_chain(
            target, uncached_gaussian_proposal(field, h), pt(3.0), 150, seed
        )
        assert_same_bytes(traj, ref)

    @given(st.integers(0, 2**32 - 1))
    def test_field_turning_non_positive_raises_the_same_error(self, seed):
        # positive on (-2, 2) only: a chain from 0 proposes past it soon
        field = _user_field(lambda x: 1.0 - float(x[0]) ** 2 / 4.0)
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

    @pytest.mark.parametrize("make_kernel", [circle_proposal, ellipse_proposal])
    @given(
        level=st.integers(1, 12),
        across=st.floats(-1.0, 1.0),
        up=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_staircase_matches_reference_chain(
        self, make_kernel, level, across, up, seed
    ):
        x0 = pt(across * RectangleDensity.half_width(level), level + up)
        traj = run_chain(make_rectangle(), make_kernel(), x0, 300, seed)
        ref = reference_chain(make_rectangle(), make_kernel(), x0, 300, seed)
        assert_same_bytes(traj, ref)
        steps = mh_step_chain(make_rectangle(), make_kernel(), x0, 300, seed)
        assert_same_bytes(traj, steps)

    @given(
        st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_disc_on_the_ridge_matches_reference_chain(self, x0, seed):
        traj = run_chain(make_ridge_2d(), circle_proposal(), x0, 300, seed)
        ref = reference_chain(make_ridge_2d(), circle_proposal(), pt(*x0), 300, seed)
        assert_same_bytes(traj, ref)

    @given(st.floats(645.0, 647.0), st.integers(0, 2**32 - 1))
    def test_ellipse_underflow_raises_the_same_error(self, height, seed):
        # from level 646 up the semi-width underflows: a start there raises
        # at once, and about half the chains from level 645 raise when a
        # proposal lands on the support there
        x0 = pt(0.0, height)
        outcomes = []
        for run in (run_chain, reference_chain):
            try:
                run(make_rectangle(), ellipse_proposal(), x0, 200, seed)
            except NumericError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]
        if height >= RectangleDensity.subnormal_level:
            assert outcomes[0] == (
                f"ellipse semi-width 3**(1 - floor(x2)) underflows at height {height!r}"
            )

    @pytest.mark.parametrize("x0", [(4.0, 0.0), (0.0, 4.0), (2.0, 0.1)])
    @pytest.mark.parametrize("field_name", sorted(RIDGE_FIELDS))
    @given(h=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_ridge_matches_reference_chain(self, field_name, x0, h, seed):
        field = RIDGE_FIELDS[field_name]()
        kernel = gaussian_proposal(field, h)
        traj = run_chain(make_ridge_2d(), kernel, x0, 200, seed)
        ref = reference_chain(
            make_ridge_2d(), uncached_gaussian_proposal(field, h), pt(*x0), 200, seed
        )
        assert_same_bytes(traj, ref)
        steps = mh_step_chain(make_ridge_2d(), kernel, pt(*x0), 200, seed)
        assert_same_bytes(traj, steps)

    @given(
        st.tuples(entries, entries, entries, entries),
        st.floats(0.01, 1.0),
        st.floats(0.05, 4.0),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_non_diagonal_field_matches_reference_chain(self, bs, c, h, x0, seed):
        field = spd_field(*bs, c)
        kernel = gaussian_proposal(field, h)
        assume(kernel.at(x0)[1][1, 0] != 0.0)  # the factor is not diagonal
        traj = run_chain(make_ridge_2d(), kernel, x0, 200, seed)
        ref = reference_chain(
            make_ridge_2d(), uncached_gaussian_proposal(field, h), pt(*x0), 200, seed
        )
        assert_same_bytes(traj, ref)

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "is not finite"), (math.inf, "is not finite"), (-1.0, "failed to factor")],
    )
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unusable_covariance_raises_the_same_error(self, bad, message, seed):
        # usable for |x1| < 1 only: a chain from the origin proposes past it soon
        def value(x):
            return np.array([[1.0, 0.0], [0.0, 1.0 if abs(x[0]) < 1.0 else bad]])

        field = CovarianceField(
            2, value, "bad", lambda xs: np.stack([value(x) for x in xs])
        )
        kernel = gaussian_proposal(field, 4.0)
        with pytest.raises(NumericError, match=message) as floats:
            run_chain(make_ridge_2d(), kernel, [0.0, 0.0], 400, seed)
        with pytest.raises(NumericError) as per_point:
            reference_chain(make_ridge_2d(), kernel, pt(0.0, 0.0), 400, seed)
        assert str(floats.value) == str(per_point.value)

    def test_variance_underflow_raises_naming_the_point(self):
        # 0.1 * 5e-324 is 0.0, whose square root no Gaussian proposes with
        kernel = gaussian_proposal(constant_field(5e-324), 0.1)
        with pytest.raises(NumericError, match=r"at \[0\.5\] underflows"):
            run_chain(make_gaussian(), kernel, [0.5], 10, seed=0)

    def test_variance_overflow_raises_naming_the_point(self):
        # 1e10 * 1e300 is inf, whose square root no Gaussian proposes with
        kernel = gaussian_proposal(constant_field(1e300), 1e10)
        with pytest.raises(NumericError, match=r"at \[0\.5\] overflows"):
            run_chain(make_gaussian(), kernel, [0.5], 10, seed=0)


#: every route that reads a 1-D field, called on (target, field, kernel)
FIELD_ROUTES = {
    "run_chain": lambda t, f, k: run_chain(t, k, [0.5], 100, seed=0),
    "mh_step": lambda t, f, k: mh_step(t, k, pt(0.5), np.random.default_rng(0)),
    "log_accept_ratio": lambda t, f, k: log_accept_ratio(t, k, pt(0.5), pt(1.5)),
    "log_accept_ratio_closed_form": (
        lambda t, f, k: log_accept_ratio_closed_form(t, f, 1.0, pt(0.5), pt(1.5))
    ),
    "sample_batch": (
        lambda t, f, k: k.sample_batch(pt(0.5), 10, np.random.default_rng(0))
    ),
    "drift_ratio_quadrature": (
        lambda t, f, k: drift_ratio_quadrature(t, f, 1.0, exp_abs(0.5), 0.5)
    ),
}


#: chain lengths around the block route's chunk boundaries
CHUNK_STEPS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


class TestBlockRoute:
    """The disc and the ellipse step through their uniform block: a chain
    draws a chunk of steps' uniforms at once, and must give the bits of
    the per-step reference, which draws each proposal with ``sample`` and
    then one uniform, at any length across the chunk boundaries."""

    @pytest.mark.parametrize("n_steps", CHUNK_STEPS)
    @pytest.mark.parametrize("make_kernel", [circle_proposal, ellipse_proposal])
    @settings(max_examples=2)
    @given(level=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_chain(self, make_kernel, n_steps, level, seed):
        x0 = pt(0.0, level + 0.5)
        target = make_rectangle()
        traj = run_chain(target, make_kernel(), x0, n_steps, seed)
        ref = reference_chain(target, make_kernel(), x0, n_steps, seed)
        assert_same_bytes(traj, ref)
        assert_same_bytes(traj, mh_step_chain(target, make_kernel(), x0, n_steps, seed))

    @pytest.mark.parametrize("make_kernel", [circle_proposal, ellipse_proposal])
    def test_a_replaced_sample_is_drawn_per_step(self, make_kernel):
        # a kernel whose sample was replaced, with its block or without,
        # takes the per-step route of the same loop: the same chain, and
        # the replacement called once a step
        kernel = make_kernel()
        calls = []

        def counted(x, at_x, rng):
            calls.append(1)
            return kernel.sample(x, at_x, rng)

        x0, n_steps = pt(0.0, 4.5), _CHUNK + 3
        traj = run_chain(make_rectangle(), kernel, x0, n_steps, seed=8)
        assert 0 < traj.accepted.sum() < n_steps
        for block in (kernel.block, None):
            calls.clear()
            replaced = dataclasses.replace(kernel, sample=counted, block=block)
            assert_same_chain(run_chain(make_rectangle(), replaced, x0, n_steps, seed=8), traj)
            assert len(calls) == n_steps

    def test_a_step_draws_three_uniforms(self):
        # mh_step leaves the stream where the per-step route leaves it
        rng = np.random.default_rng(4)
        x = pt(0.0, 2.5)
        for _ in range(5):
            x = mh_step(make_rectangle(), ellipse_proposal(), x, rng)[0]
        assert rng.random() == np.random.default_rng(4).random(16)[-1]


class TestReplacedField:
    """A 1-D field built with ``dataclasses.replace(field, inv_metric=...)``
    is read through the replacement on every route: the field keeps no
    second per-point form that would bypass it."""

    @pytest.mark.parametrize("route", sorted(FIELD_ROUTES))
    def test_route_calls_the_replaced_inv_metric(self, route):
        field, form = counting(power_field(1.5))
        kernel = gaussian_proposal(field, 1.0)
        FIELD_ROUTES[route](make_exponential_tail(1.0), field, kernel)
        assert form.calls > 0


def _everywhere_field(dim, value):
    """A field whose value is ``value`` at every point, in both forms."""
    return CovarianceField(
        dim, lambda x: value, "everywhere",
        lambda xs: np.broadcast_to(value, (len(xs), *np.shape(value))),
    )


#: every route that reads a 1-D field, called on (target, field, h, kernel),
#: with the point whose field value it reads first
ONE_DIM_RULE_ROUTES = {
    "run_chain": (lambda t, f, h, k: run_chain(t, k, [0.5], 100, seed=0), 0.5),
    "mh_step": (lambda t, f, h, k: mh_step(t, k, pt(0.5), np.random.default_rng(0)), 0.5),
    "log_accept_ratio": (lambda t, f, h, k: log_accept_ratio(t, k, pt(0.5), pt(1.5)), 0.5),
    "log_accept_ratio_batch": (
        lambda t, f, h, k: log_accept_ratio_batch(t, k, pt(0.5), np.array([[1.5], [-1.0]])),
        0.5,
    ),
    "log_accept_ratio_closed_form": (
        lambda t, f, h, k: log_accept_ratio_closed_form(t, f, h, pt(0.5), pt(1.5)), 0.5
    ),
    "sample_batch": (
        lambda t, f, h, k: k.sample_batch(pt(0.5), 10, np.random.default_rng(0)), 0.5
    ),
    "log_q_batch": (lambda t, f, h, k: k.log_q_batch(np.ones((3, 1)), pt(0.5)), 0.5),
    "drift_ratio_quadrature": (
        lambda t, f, h, k: drift_ratio_quadrature(t, f, h, exp_abs(0.5), 0.5), 0.5
    ),
    "build_discretized": (lambda t, f, h, k: build_discretized(t, f, h, 5.0, 51), -5.0),
    "tail_acceptance_profile": (
        lambda t, f, h, k: tail_acceptance_profile(t, f, h, 20.0, [1.0]), 20.0
    ),
}

#: every route that reads a 2-D field, called on (target, field, h, kernel),
#: each reading it first at (0.5, 0)
TWO_DIM_RULE_ROUTES = {
    "run_chain": lambda t, f, h, k: run_chain(t, k, [0.5, 0.0], 10, seed=0),
    "mh_step": lambda t, f, h, k: mh_step(t, k, pt(0.5, 0.0), np.random.default_rng(0)),
    "log_accept_ratio": lambda t, f, h, k: log_accept_ratio(t, k, pt(0.5, 0.0), pt(1.0, 0.5)),
    "log_accept_ratio_batch": lambda t, f, h, k: log_accept_ratio_batch(
        t, k, pt(0.5, 0.0), np.array([[1.0, 0.5], [0.0, 0.0]])
    ),
    "log_accept_ratio_closed_form": lambda t, f, h, k: log_accept_ratio_closed_form(
        t, f, h, pt(0.5, 0.0), pt(1.0, 0.5)
    ),
    "sample_batch": lambda t, f, h, k: k.sample_batch(
        pt(0.5, 0.0), 10, np.random.default_rng(0)
    ),
    "log_q_batch": lambda t, f, h, k: k.log_q_batch(np.ones((3, 2)), pt(0.5, 0.0)),
}


class TestOneExistenceRule:
    """Every route that reads a step size or a field value refuses what
    the Gaussian kernel refuses, with the kernel's own error text."""

    @pytest.mark.parametrize(
        "value, h",
        [(math.inf, 1.0), (math.nan, 1.0), (5e-324, 0.5), (1e300, 1e10)],
        ids=["inf", "nan", "underflow", "overflow"],
    )
    @pytest.mark.parametrize("route", sorted(ONE_DIM_RULE_ROUTES))
    def test_one_dim_field_value(self, route, value, h):
        call, v = ONE_DIM_RULE_ROUTES[route]
        field = _everywhere_field(1, value)
        kernel = gaussian_proposal(field, h)
        with pytest.raises(NumericError) as at_v:
            kernel.at((v,))
        with pytest.raises(NumericError) as routed:
            call(make_exponential_tail(1.0), field, h, kernel)
        assert str(routed.value) == str(at_v.value)

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "is not finite"), (math.inf, "is not finite"),
         (-1.0, "failed to factor")],
        ids=["nan", "inf", "indefinite"],
    )
    @pytest.mark.parametrize("route", sorted(TWO_DIM_RULE_ROUTES))
    def test_two_dim_covariance(self, route, bad, message):
        field = _everywhere_field(2, np.array([[1.0, 0.0], [0.0, bad]]))
        kernel = gaussian_proposal(field, 1.0)
        with pytest.raises(NumericError, match=message) as at_x:
            kernel.at((0.5, 0.0))
        with pytest.raises(NumericError) as routed:
            TWO_DIM_RULE_ROUTES[route](make_ridge_2d(), field, 1.0, kernel)
        assert str(routed.value) == str(at_x.value)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize(
        "route",
        [
            lambda f, h: log_accept_ratio_closed_form(
                make_gaussian(), f, h, pt(0.5), pt(1.5)
            ),
            lambda f, h: build_discretized(make_gaussian(), f, h, 5.0, 51),
            lambda f, h: tune_step_size(make_gaussian(), f, h, 0.44, 0),
            lambda f, h: esjd_scan(make_gaussian(), [0.0, 1.0], [1.0, h]),
        ],
        ids=["closed_form", "build_discretized", "tune_step_size", "esjd_scan"],
    )
    def test_step_size(self, route, h):
        with pytest.raises(ParameterError) as kernel:
            gaussian_proposal(UNIT, h)
        with pytest.raises(ParameterError) as routed:
            route(UNIT, h)
        assert str(routed.value) == str(kernel.value)

    def test_closed_form_refuses_an_infinite_field_value(self):
        # 1 + x^2 is inf at 1e160, where the generic route raises; a
        # number here would read as an acceptance probability
        field = one_plus_square_field()
        with pytest.raises(NumericError, match=r"inf at \[1e\+160\] is not usable"):
            log_accept_ratio_closed_form(
                make_exponential_tail(1.0), field, 1.0, pt(1e160), pt(5e159)
            )


CARRIED_CASES = {
    "exponential": (lambda: make_exponential_tail(1.0),
                    lambda: gaussian_proposal(power_field(1.5), 2.0), [3.0]),
    "ridge": (make_ridge_2d,
              lambda: gaussian_proposal(ridge_conditional_field(), 1.0), [2.0, 0.1]),
    "staircase": (make_rectangle, circle_proposal, [0.0, 1.5]),
    "staircase_ellipse": (make_rectangle, ellipse_proposal, [0.0, 3.5]),
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


GAUSS, UNIT = make_gaussian(), constant_field(1.0)
GAUSS_KERNEL = gaussian_proposal(UNIT, 1.0)

#: every routine that takes a current point ``x``, with end point ``y``
ENTRY_POINTS = {
    "run_chain": lambda x, y, t=GAUSS: run_chain(t, GAUSS_KERNEL, x, 10, seed=0),
    "mh_step": lambda x, y, t=GAUSS: mh_step(t, GAUSS_KERNEL, x, np.random.default_rng(0)),
    "log_accept_ratio": lambda x, y, t=GAUSS: log_accept_ratio(t, GAUSS_KERNEL, x, y),
    "closed_form": lambda x, y, t=GAUSS: log_accept_ratio_closed_form(t, UNIT, 1.0, x, y),
    "batch": lambda x, y, t=GAUSS: log_accept_ratio_batch(t, GAUSS_KERNEL, x, y[None, :]),
    "rejection_probability": lambda x, y, t=GAUSS: rejection_probability(
        t, GAUSS_KERNEL, x, n=1000, seed=0
    ),
}


class TestEntryCheck:
    """Every entry point judges its current point by the target's
    log-density: wrong shape is a ``ParameterError``, a value that is not
    ``> -inf`` (``-inf`` or NaN) a ``SupportError``.  A kernel or field
    of another dimension than the target's is a ``ParameterError``."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 1e200])
    def test_point_off_the_support(self, entry, v):
        with pytest.raises(SupportError, match="outside the target support"):
            ENTRY_POINTS[entry](pt(v), pt(0.5))

    @pytest.mark.parametrize(
        "entry", ["mh_step", "log_accept_ratio", "closed_form", "batch"]
    )
    def test_current_point_of_wrong_length(self, entry):
        with pytest.raises(ParameterError, match=r"current point has shape \(2,\)"):
            ENTRY_POINTS[entry](pt(0.5, 0.0), pt(0.5))

    @pytest.mark.parametrize("entry", ["log_accept_ratio", "closed_form", "batch"])
    def test_end_point_of_wrong_length(self, entry):
        with pytest.raises(ParameterError, match=r"has shape \(2,\), target dim is 1"):
            ENTRY_POINTS[entry](pt(0.5), pt(0.7, 0.0))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_kernel_or_field_of_another_dimension(self, entry):
        # the 1-D kernel and field on the 2-D ridge, between two support points
        with pytest.raises(
            ParameterError, match=r"^target dim 2 != (kernel|field) dim 1$"
        ):
            ENTRY_POINTS[entry](np.zeros(2), np.ones(2), make_ridge_2d())

    def test_rows_must_be_points(self):
        with pytest.raises(ParameterError, match="each proposal row has shape"):
            log_accept_ratio_batch(GAUSS, GAUSS_KERNEL, pt(0.5), pt(0.7, 0.1))


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
