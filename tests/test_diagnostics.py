import math

import numpy as np
import pytest
from scipy.special import ndtr

from pdrwm import (
    DriftResult,
    NumericError,
    ParameterError,
    ProbeEstimate,
    abs_pow,
    acceptance_set_mass,
    circle_proposal,
    constant_field,
    drift_ratio,
    drift_ratio_quadrature,
    ellipse_proposal,
    esjd_scan,
    exp_abs,
    gaussian_proposal,
    log_accept_ratio,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    one_plus_square_field,
    power_field,
    rectangle_v,
    rejection_probability,
    ridge_conditional_field,
    tail_acceptance_profile,
    tune_step_size,
)
from pdrwm.diagnostics import V_RATIO_CAP


def pt(*vals):
    return np.array(vals, dtype=float)


def analytic_exp_drift(s: float) -> float:
    """E[V(X_1)]/V(x) for target exp(-|x|), constant unit field, h=1,
    V = exp(s|x|), far from the origin.

    With Z the standard normal jump: alpha = e^{-Z} for Z > 0 and 1
    otherwise, so the ratio is
        E[e^{(s-1)Z}; Z>0] + E[e^{sZ}; Z<0] + E[1 - e^{-Z}; Z>0]
    and each piece is a Gaussian tail moment e^{t^2/2} Phi(sgn t).
    """

    def half_moment(t):  # E[e^{tZ}; Z > 0]
        return math.exp(0.5 * t * t) * ndtr(t)

    def neg_half_moment(t):  # E[e^{tZ}; Z < 0]
        return math.exp(0.5 * t * t) * ndtr(-t)

    return (
        half_moment(s - 1.0) + neg_half_moment(s) + 0.5 - half_moment(-1.0)
    )


class TestLyapunovCatalogue:
    def test_exp_abs(self):
        v = exp_abs(0.5)
        assert v.log_evaluate(pt(3.0)) == pytest.approx(1.5)
        assert v.evaluate(pt(0.0)) == 1.0
        assert v.evaluate(pt(1e6)) == math.inf  # saturates instead of raising

    def test_abs_pow(self):
        v = abs_pow(0.25)
        assert v.evaluate(pt(0.5)) == 1.0  # floored at one inside the ball
        assert v.log_evaluate(pt(16.0)) == pytest.approx(0.25 * math.log(16.0))

    def test_rectangle_v(self):
        v = rectangle_v()
        assert v.evaluate(pt(2.0, 5.0)) == pytest.approx(7.0)
        assert v.evaluate(pt(0.3, 1.0)) == pytest.approx(2.0)

    def test_parameter_domains(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                exp_abs(bad)
            with pytest.raises(ParameterError):
                abs_pow(bad)


class TestDriftRatio:
    def test_matches_analytic_value(self):
        t = make_exponential_tail(1.0)
        k = gaussian_proposal(constant_field(1.0), 1.0)
        v = exp_abs(0.5)
        res = drift_ratio(t, k, v, pt(30.0), n=200_000, seed=4)
        expected = analytic_exp_drift(0.5)
        assert res.truncated_mass == 0.0
        assert abs(res.estimate - expected) < 4 * res.se
        assert res.se < 0.01

    def test_matches_quadrature_route(self):
        # same quantity through deterministic quadrature, different code path
        t = make_exponential_tail(1.0)
        f = power_field(1.5)
        k = gaussian_proposal(f, 1.0)
        v = exp_abs(0.5)
        mc = drift_ratio(t, k, v, pt(30.0), n=200_000, seed=11)
        qd = drift_ratio_quadrature(t, f, 1.0, v, 30.0)
        assert qd.abserr < 1e-8
        assert abs(mc.estimate - qd.estimate) < 4 * mc.se

    def test_polynomial_case_against_quadrature(self):
        t = make_polynomial_tail(3.0)
        f = power_field(2.0)
        k = gaussian_proposal(f, 1.0)
        v = abs_pow(0.5)
        mc = drift_ratio(t, k, v, pt(50.0), n=100_000, seed=13)
        qd = drift_ratio_quadrature(t, f, 1.0, v, 50.0)
        assert abs(mc.estimate - qd.estimate) < 4 * mc.se

    def test_quadrature_refuses_an_unusable_scale(self):
        t = make_exponential_tail(1.0)
        f = power_field(4.0)
        v = exp_abs(0.5)
        # past the float range the field is inf at x: the kernel's error,
        # not a silent ratio of 1
        with pytest.raises(NumericError, match=r"at \[1e\+80\] is not usable"):
            drift_ratio_quadrature(t, f, 1.0, v, 1e80)
        for h in (0.0, -1.0):
            with pytest.raises(ParameterError, match="step size"):
                drift_ratio_quadrature(t, f, h, v, 30.0)
        with pytest.raises(ParameterError, match="one-dimensional"):
            drift_ratio_quadrature(t, power_field(1.0, dim=2), 1.0, v, 30.0)

    def test_contraction_in_the_classic_case(self):
        t = make_exponential_tail(1.0)
        k = gaussian_proposal(constant_field(1.0), 1.0)
        res = drift_ratio(t, k, exp_abs(0.5), pt(20.0), n=50_000, seed=1)
        assert res.estimate + 4 * res.se < 1.0

    def test_seed_determinism(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        a = drift_ratio(t, k, exp_abs(0.1), pt(2.0), n=5000, seed=3)
        b = drift_ratio(t, k, exp_abs(0.1), pt(2.0), n=5000, seed=3)
        assert a == b

    def test_domains(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        with pytest.raises(ParameterError):
            drift_ratio(t, k, exp_abs(0.1), pt(0.0), n=10, seed=0)


class TestRejectionProbability:
    def test_against_quadrature(self):
        # r(x) = 1 - integral of alpha(x,y) q(y|x) dy, done directly here
        from scipy.integrate import quad

        t = make_gaussian()
        h = 4.0
        k = gaussian_proposal(constant_field(1.0), h)
        x = 1.5
        std = math.sqrt(h)

        def integrand(y):
            a = min(1.0, math.exp(t.log_density(pt(y)) - t.log_density(pt(x))))
            q = math.exp(-0.5 * ((y - x) / std) ** 2) / (std * math.sqrt(2 * math.pi))
            return a * q

        acc, _ = quad(integrand, x - 12 * std, x + 12 * std, limit=200)
        est = rejection_probability(t, k, pt(x), n=200_000, seed=6)
        assert abs(est.estimate - (1.0 - acc)) < 4 * est.se

    def test_heavy_tail_rejection_grows(self):
        # reciprocal-density covariance on an exponential target: far out,
        # nearly every proposal lands where the density ratio kills it
        t = make_exponential_tail(1.0)
        from pdrwm import tempered_langevin_field

        f = tempered_langevin_field(t)
        k = gaussian_proposal(f, 1.0)
        r20 = rejection_probability(t, k, pt(20.0), n=20_000, seed=2)
        r40 = rejection_probability(t, k, pt(40.0), n=20_000, seed=2)
        assert r40.estimate > r20.estimate > 0.9


class TestAcceptanceSetMass:
    def test_gaussian_closed_form(self):
        # target N(0,1), start at the mode, constant unit field: alpha(0,y)
        # = e^{-y^2/2} so {alpha >= eps} = {|y| <= sqrt(-2 log eps)} and the
        # proposal mass is 2 Phi(radius/sqrt(h)) - 1
        t = make_gaussian()
        h = 2.0
        k = gaussian_proposal(constant_field(1.0), h)
        eps = 0.3
        radius = math.sqrt(-2.0 * math.log(eps))
        expected = 2.0 * ndtr(radius / math.sqrt(h)) - 1.0
        est = acceptance_set_mass(t, k, pt(0.0), eps, n=200_000, seed=21)
        assert abs(est.estimate - expected) < 4 * est.se

    def test_monotone_in_eps(self):
        t = make_exponential_tail(1.0)
        k = gaussian_proposal(power_field(1.0), 1.0)
        masses = [
            acceptance_set_mass(t, k, pt(10.0), e, n=20_000, seed=5).estimate
            for e in (0.1, 0.3, 0.6, 0.9)
        ]
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    def test_eps_domain(self):
        t = make_gaussian()
        k = gaussian_proposal(constant_field(1.0), 1.0)
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                acceptance_set_mass(t, k, pt(0.0), eps, n=2000, seed=0)


def _loop_alphas(target, kernel, x, ys):
    """Reference: the acceptance of each proposal, one draw at a time."""
    out = np.empty(len(ys))
    for i, y in enumerate(ys):
        if target.support_test(y):
            out[i] = math.exp(log_accept_ratio(target, kernel, x, y))
        else:
            out[i] = 0.0
    return out


def _loop_probes(target, kernel, lyapunov, x, n, seed, eps):
    """Reference implementation of the three probes as per-draw loops over
    the same proposals the probes draw: (drift, rejection, mass)."""
    x = np.asarray(x, dtype=float).ravel()
    ys = kernel.sample_batch(x, n, np.random.default_rng(seed))
    log_vx = lyapunov.log_evaluate(x)
    log_cap = math.log(V_RATIO_CAP)
    summands = np.empty(n)
    clipped = 0
    for i, y in enumerate(ys):
        if not target.support_test(y):
            summands[i] = 1.0
            continue
        la = log_accept_ratio(target, kernel, x, y)
        dv = lyapunov.log_evaluate(y) - log_vx
        if dv > log_cap:
            clipped += 1
            dv = log_cap
        a = math.exp(la)
        summands[i] = (1.0 - a) + math.exp(la + dv)
    drift = DriftResult(
        float(summands.mean()), float(summands.std(ddof=1) / math.sqrt(n)), clipped / n
    )
    alphas = _loop_alphas(target, kernel, x, ys)
    rejection = ProbeEstimate(
        1.0 - float(alphas.mean()), float(alphas.std(ddof=1) / math.sqrt(n))
    )
    hits = (alphas >= eps).astype(float)
    mass = ProbeEstimate(float(hits.mean()), float(hits.std(ddof=1) / math.sqrt(n)))
    return drift, rejection, mass


#: (target, kernel, Lyapunov function, probe point)
_PROBE_CASES = {
    "exp_power1.5": (
        make_exponential_tail(1.0), gaussian_proposal(power_field(1.5), 1.0),
        exp_abs(0.5), (20.0,),
    ),
    # V ratios far past the cap: exercises the clipped-mass count
    "exp_power4_clipped": (
        make_exponential_tail(1.0), gaussian_proposal(power_field(4.0), 1.0),
        exp_abs(0.5), (40.0,),
    ),
    "poly_square_h0.01": (
        make_polynomial_tail(2.0), gaussian_proposal(one_plus_square_field(), 0.01),
        abs_pow(0.25), (100.0,),
    ),
    "poly_square_h100": (
        make_polynomial_tail(2.0), gaussian_proposal(one_plus_square_field(), 100.0),
        abs_pow(0.25), (100.0,),
    ),
    "ridge_2d": (
        make_ridge_2d(), gaussian_proposal(ridge_conditional_field(), 1.0),
        exp_abs(0.5), (4.0, 0.0),
    ),
    # most disc proposals leave the narrow level: the -inf branch
    "rectangle_circle": (
        make_rectangle(), circle_proposal(), rectangle_v(), (0.05, 3.5),
    ),
    "rectangle_circle_level1": (
        make_rectangle(), circle_proposal(), rectangle_v(), (0.5, 1.5),
    ),
    # reverse ellipses from level 2 miss the start: lq_xy = -inf
    "rectangle_ellipse": (
        make_rectangle(), ellipse_proposal(), rectangle_v(), (0.5, 1.9),
    ),
}


class TestProbesMatchPerDrawLoop:
    """The batch probes against the per-draw loop they replaced, on the
    same proposals: every estimate, standard error and clipped mass to
    1e-12."""

    @pytest.mark.parametrize("case", sorted(_PROBE_CASES))
    def test_three_probes(self, case):
        target, kernel, lyapunov, x = _PROBE_CASES[case]
        n, seed, eps = 4000, 7, 0.1
        drift, rejection, mass = _loop_probes(target, kernel, lyapunov, x, n, seed, eps)
        got = (
            drift_ratio(target, kernel, lyapunov, x, n=n, seed=seed),
            rejection_probability(target, kernel, x, n=n, seed=seed),
            acceptance_set_mass(target, kernel, x, eps, n=n, seed=seed),
        )
        for result, ref in zip(got, (drift, rejection, mass)):
            assert type(result) is type(ref)
            for v, r in zip(result, ref):
                assert v == pytest.approx(r, rel=1e-12, abs=1e-12)
        assert got[0].truncated_mass == drift.truncated_mass

    def test_cases_reach_their_branches(self):
        n, seed = 4000, 7
        t, k, v, x = _PROBE_CASES["exp_power4_clipped"]
        assert drift_ratio(t, k, v, x, n=n, seed=seed).truncated_mass > 0.0
        t, k, _, x = _PROBE_CASES["rectangle_circle"]
        ys = k.sample_batch(pt(*x), n, np.random.default_rng(seed))
        assert not all(t.support_test(y) for y in ys)
        t, k, _, x = _PROBE_CASES["rectangle_ellipse"]
        x = pt(*x)
        ys = k.sample_batch(x, n, np.random.default_rng(seed))
        assert any(t.support_test(y) and k.log_q(x, y) == -math.inf for y in ys)


class TestProbeInputChecks:
    """A probe point of the wrong length, or a kernel of another dimension
    than the target, is refused instead of silently broadcast."""

    def _probes(self, t, k, x):
        return (
            lambda: drift_ratio(t, k, exp_abs(0.5), x, n=1000, seed=0),
            lambda: rejection_probability(t, k, x, n=1000, seed=0),
            lambda: acceptance_set_mass(t, k, x, 0.1, n=1000, seed=0),
        )

    @pytest.mark.parametrize("probe", [0, 1, 2])
    def test_point_of_wrong_length(self, probe):
        t = make_exponential_tail(1.0)
        k = gaussian_proposal(power_field(4.0), 1.0)
        with pytest.raises(ParameterError, match="probe point has shape"):
            self._probes(t, k, (10.0, 99.0))[probe]()

    @pytest.mark.parametrize("probe", [0, 1, 2])
    def test_kernel_of_other_dimension(self, probe):
        t = make_exponential_tail(1.0)
        k = gaussian_proposal(power_field(1.5, dim=2), 1.0)
        with pytest.raises(ParameterError, match="kernel dim"):
            self._probes(t, k, (20.0,))[probe]()


class TestTailProfile:
    def test_exponential_constant_field_values(self):
        # alpha(x, x+c) = min(1, e^{-c}) exactly, in the far tail
        t = make_exponential_tail(1.0)
        f = constant_field(1.0)
        rows = tail_acceptance_profile(t, f, 1.0, 25.0, [-1.0, 0.5, 2.0])
        assert rows[0].alpha == pytest.approx(1.0)
        assert rows[1].alpha == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert rows[2].alpha == pytest.approx(math.exp(-2.0), abs=1e-12)
        # offsets are in local std units; here the std is 1
        assert rows[2].y == pytest.approx(27.0)

    def test_offsets_scale_with_field(self):
        t = make_exponential_tail(1.0)
        f = power_field(2.0)
        rows = tail_acceptance_profile(t, f, 1.0, 30.0, [1.0])
        assert rows[0].y == pytest.approx(30.0 + 31.0)  # std = (1+30)

    def test_unusable_scale_refused(self):
        t = make_exponential_tail(1.0)
        f = power_field(4.0)
        with pytest.raises(NumericError, match=r"at \[1e\+80\] is not usable"):
            tail_acceptance_profile(t, f, 1.0, 1e80, [1.0])
        for h in (0.0, -1.0):
            with pytest.raises(ParameterError, match="step size"):
                tail_acceptance_profile(t, f, h, 30.0, [1.0])

    def test_near_mode_refused(self):
        t = make_exponential_tail(1.0)
        with pytest.raises(ParameterError):
            tail_acceptance_profile(t, constant_field(1.0), 1.0, 3.0, [1.0])


class TestEsjdScan:
    def test_tuned_scan_hits_acceptance_window(self):
        t = make_gaussian()
        pts = esjd_scan(t, [0.0, 1.0], h=1.0, n_steps=20_000, seed=14)
        for p in pts:
            assert abs(p.acceptance_rate - 0.44) < 0.05
            assert p.esjd > 0 and p.se > 0

    def test_deterministic(self):
        t = make_gaussian()
        a = esjd_scan(t, [0.5], h=1.0, n_steps=5000, seed=3)
        b = esjd_scan(t, [0.5], h=1.0, n_steps=5000, seed=3)
        assert a == b


def test_tune_step_size_converges():
    t = make_gaussian()
    f = constant_field(1.0)
    h = tune_step_size(t, f, 1.0, 0.44, seed=10)
    k = gaussian_proposal(f, h)
    from pdrwm import run_chain

    rate = run_chain(t, k, [0.0], 20_000, seed=99).acceptance_rate
    assert abs(rate - 0.44) < 0.04

