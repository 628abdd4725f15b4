import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from pdrwm import (
    OTHER,
    DiscretizationError,
    DiscretizedChain,
    NumericError,
    ParameterError,
    TargetDensity,
    build_discretized,
    classify_gap_trend,
    constant_field,
    gap_growth_scan,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_subexponential_tail,
    one_plus_square_field,
    power_field,
    spectral_gap,
    stationary_jump_quadrature,
    tuned_jump_quadrature,
    tv_decay_curve,
)
import pdrwm.oracle
from pdrwm.oracle import SPACING_FRACTION, _grid_values


@pytest.fixture(scope="module")
def small_chain():
    t = make_exponential_tail(1.0)
    f = power_field(1.0)
    return build_discretized(t, f, h=1.0, half_width=15.0, n=301)


class TestConstruction:
    def test_rows_are_stochastic(self, small_chain):
        assert small_chain.row_sum_residual() < 1e-12

    def test_pi_hat_is_stationary(self, small_chain):
        # detailed balance makes the grid target exactly stationary
        assert small_chain.stationarity_residual() < 1e-12

    def test_reversible(self, small_chain):
        assert small_chain.reversibility_residual() < 1e-14

    def test_symmetrized_is_symmetric(self, small_chain):
        s = small_chain.symmetrized
        assert float(np.abs(s - s.T).max()) < 1e-14

    def test_transition_entries_in_range(self, small_chain):
        p = small_chain.transition
        assert p.min() >= 0.0
        assert p.max() <= 1.0

    def test_coarse_grid_refused_with_numbers(self):
        t = make_exponential_tail(1.0)
        f = constant_field(1.0)
        with pytest.raises(DiscretizationError) as err:
            build_discretized(t, f, h=1.0, half_width=15.0, n=50)
        msg = str(err.value)
        assert "0.2" in msg  # max accepted spacing for unit std
        assert "spacing" in msg

    def test_domain_checks(self):
        t = make_exponential_tail(1.0)
        f = constant_field(1.0)
        with pytest.raises(ParameterError):
            build_discretized(t, f, 1.0, half_width=-1.0, n=100)
        with pytest.raises(ParameterError):
            build_discretized(t, f, 1.0, half_width=5.0, n=20)
        from pdrwm import make_rectangle, circle_proposal  # noqa: F401
        with pytest.raises(ParameterError):
            build_discretized(make_rectangle(), f, 1.0, half_width=5.0, n=100)


class TestSpectralGap:
    def test_against_raw_eigenvalues(self, small_chain):
        # independent route: eigenvalues of the unsymmetrized transition
        res = spectral_gap(small_chain)
        raw = np.linalg.eigvals(small_chain.transition)
        mods = np.sort(np.abs(raw))[::-1]
        assert mods[0] == pytest.approx(1.0, abs=1e-10)
        assert res.lambda2 == pytest.approx(mods[1], abs=1e-8)
        assert res.gap == pytest.approx(1.0 - mods[1], abs=1e-8)

    @pytest.mark.parametrize("n", [2401, 2400])
    def test_block_split_matches_full_eigh(self, n):
        # odd and even n fold the centre differently; both must give the
        # spectrum of the whole symmetrized matrix
        t = make_gaussian()
        f = constant_field(1.0)
        chain = build_discretized(t, f, h=1.0, half_width=12.0, n=n)
        assert chain.mirrored is True
        res = spectral_gap(chain)
        dense = scipy.linalg.eigh(chain.symmetrized, eigvals_only=True)
        lam2 = max(abs(dense[0]), abs(dense[-2]))
        assert abs(res.lambda2 - lam2) <= 1e-12
        assert abs(res.gap - (1.0 - lam2)) <= 1e-12

    def test_asymmetric_target_solved_whole(self):
        # log pi(x) = -|x| - 0.3x has no x -> -x symmetry, so the chain is
        # built row by row and its spectrum solved as one block
        def logp(x):
            v = float(x[0])
            return -abs(v) - 0.3 * v

        t = TargetDensity(
            1,
            logp,
            OTHER,
            lambda x: True,
            "skewed_laplace",
            lambda xs: np.array([logp(x) for x in xs]),
        )
        chain = build_discretized(t, power_field(1.0), h=1.0, half_width=10.0, n=301)
        assert chain.mirrored is False
        assert chain.reversibility_residual() < 1e-14
        res = spectral_gap(chain)
        mods = np.sort(np.abs(np.linalg.eigvals(chain.transition)))[::-1]
        assert mods[0] == pytest.approx(1.0, abs=1e-10)
        assert res.lambda2 == pytest.approx(mods[1], abs=1e-10)

    def test_negative_odd_eigenvalue_sets_lambda2(self):
        # a hand-built mirrored chain whose spectrum is 1, 0.8 (even) and
        # -0.7, -0.9 (odd): lambda_2 is the odd block's lowest eigenvalue
        p = np.array([
            [0.05, 0.10, 0.00, 0.85],
            [0.10, 0.05, 0.85, 0.00],
            [0.00, 0.85, 0.05, 0.10],
            [0.85, 0.00, 0.10, 0.05],
        ])
        grid = np.array([-1.5, -0.5, 0.5, 1.5])
        chain = DiscretizedChain(grid, 1.0, p, np.full(4, 0.25), "hand", True)
        res = spectral_gap(chain)
        assert res.lambda2 == pytest.approx(0.9, abs=1e-14)
        assert res.gap == pytest.approx(0.1, abs=1e-14)
        assert res.path == ("dense: block too small",) * 2

    def test_negative_lambda2_fails_bottom_certificate(self):
        # a mirrored chain that mostly jumps to the other half: its odd
        # sign vector carries eigenvalue -0.583, below minus the top
        # 0.536 of the rest.  The two end states keep half of their
        # jumps across as holding, so their Gershgorin discs clear -0.536
        # while the other rows' do not; the odd block's Cholesky
        # certificate of B + lambda_2 I then fails, and the dense solver
        # finds lambda_2
        n = 100
        side = np.arange(n) < n // 2
        across = np.where(side[:, None] != side[None, :], 2.0 / n, 0.0)
        walk = np.zeros((n, n))
        i = np.arange(n - 1)
        walk[i, i + 1] = walk[i + 1, i] = 0.5
        walk[0, 0] = walk[-1, -1] = 0.5
        p = 0.8 * across + 0.15 * walk + 0.05 * np.eye(n)
        for end in (0, n - 1):
            hold = 0.4 * across[end]
            hold[[0, n - 1]] = 0.0
            p[end] -= hold
            p[:, end] -= hold
            p[end, end] += hold.sum()
            p[np.diag_indices(n)] += hold
        assert np.array_equal(p, p.T) and np.array_equal(p, p[::-1, ::-1])
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-15
        chain = DiscretizedChain(
            np.linspace(-1.0, 1.0, n), 2.0 / (n - 1), p, np.full(n, 1.0 / n),
            "hand(across)", True,
        )
        res = spectral_gap(chain)
        dense = scipy.linalg.eigh(chain.symmetrized, eigvals_only=True)
        assert -dense[0] > dense[-2] + 0.04
        assert res.path == ("extremal", "dense: bottom certificate failed")
        assert abs(res.lambda2 + dense[0]) <= 1e-12

    def test_whole_matrix_reaches_odd_eigenvalue(self):
        # a mirrored chain solved whole: lambda_2 = 0.80900 lies in the
        # odd block, and a mirror-symmetric Lanczos start vector (all
        # ones) never sees it and returns the even block's top 0.80869;
        # only the top certificate's dense fallback would then save it
        h = math.exp(0.5)
        half_width = 0.5 * SPACING_FRACTION * math.sqrt(h) * 106
        chain = build_discretized(
            make_exponential_tail(2.0), power_field(0.0), h, half_width, 107
        )
        assert chain.mirrored is True
        split = spectral_gap(chain)
        whole = spectral_gap(dataclasses.replace(chain, mirrored=False))
        even, odd = pdrwm.oracle._symmetric_blocks(chain)
        odd_top = scipy.linalg.eigh(odd, eigvals_only=True)[-1]
        dense = scipy.linalg.eigh(chain.symmetrized, eigvals_only=True)
        lam2 = max(-dense[0], dense[-2])
        assert odd_top == pytest.approx(lam2, abs=1e-12)
        assert whole.path == ("extremal",)
        assert split.path == ("extremal", "extremal")
        assert abs(whole.lambda2 - lam2) <= 1e-12
        assert abs(split.lambda2 - lam2) <= 1e-12

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_broken_chain_raises_naming_it(self, small_chain, mirrored):
        # rows scaled by 1.01 put the stationary Rayleigh quotient at 1.01
        broken = dataclasses.replace(
            small_chain, transition=small_chain.transition * 1.01, mirrored=mirrored
        )
        with pytest.raises(NumericError) as err:
            spectral_gap(broken)
        assert small_chain.label in str(err.value)

    def test_unconverged_lanczos_falls_back_to_dense(self, small_chain, monkeypatch):
        expected = spectral_gap(small_chain)

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(pdrwm.oracle, "eigsh", no_convergence)
        res = spectral_gap(small_chain)
        assert res.path[0] == "dense: no convergence"
        assert abs(res.lambda2 - expected.lambda2) <= 1e-12

    def test_path_of_a_built_chain(self, small_chain):
        assert spectral_gap(small_chain).path == ("extremal", "extremal")
        whole = dataclasses.replace(small_chain, mirrored=False)
        assert spectral_gap(whole).path == ("extremal",)

    def test_rerun_is_bit_identical(self):
        # nothing in the build or the solve is random: two builds of the
        # same problem, and repeated solves, agree to the last bit
        t = make_gaussian()
        f = constant_field(1.0)
        a = build_discretized(t, f, h=1.0, half_width=12.0, n=2401)
        b = build_discretized(t, f, h=1.0, half_width=12.0, n=2401)
        assert np.array_equal(a.transition, b.transition)
        gaps = [spectral_gap(c).gap for c in (a, b, a)]
        assert gaps[0] == gaps[1] == gaps[2]

    def test_gap_in_unit_interval(self, small_chain):
        res = spectral_gap(small_chain)
        assert 0.0 < res.gap < 1.0


_SYMMETRIC_TARGETS = st.one_of(
    st.builds(make_gaussian, st.floats(0.5, 3.0)),
    st.builds(make_exponential_tail, st.floats(0.2, 3.0)),
    st.builds(make_subexponential_tail, st.floats(0.2, 2.0), st.floats(0.1, 0.9)),
    st.builds(make_polynomial_tail, st.floats(1.0, 5.0)),
)


class TestMirroredChainProperties:
    @given(
        target=_SYMMETRIC_TARGETS,
        b=st.floats(0.0, 4.0),
        log_h=st.floats(math.log(0.01), math.log(10.0)),
        n=st.integers(50, 401),
        width=st.floats(0.05, 1.0),
    )
    def test_symmetric_problem_splits_exactly(self, target, b, log_h, n, width):
        # power fields have variance >= 1, so this half-width keeps the
        # spacing within the limit for every n and h drawn
        h = math.exp(log_h)
        half_width = width * 0.5 * SPACING_FRACTION * math.sqrt(h) * (n - 1)
        chain = build_discretized(target, power_field(b), h, half_width, n)
        assert chain.mirrored is True
        p = chain.transition
        assert np.array_equal(p, p[::-1, ::-1])
        assert np.array_equal(chain.grid, -chain.grid[::-1])
        assert chain.row_sum_residual() <= 1e-12
        assert chain.stationarity_residual() <= 1e-12
        assert chain.reversibility_residual() <= 1e-12
        split = spectral_gap(chain)
        whole = spectral_gap(dataclasses.replace(chain, mirrored=False))
        assert abs(split.gap - whole.gap) <= 1e-10
        assert abs(split.lambda2 - whole.lambda2) <= 1e-10
        dense = scipy.linalg.eigh(chain.symmetrized, eigvals_only=True)
        lam2 = max(-dense[0], dense[-2])
        assert abs(split.lambda2 - lam2) <= 1e-12
        assert abs(whole.lambda2 - lam2) <= 1e-12


class TestGridValues:
    @pytest.mark.parametrize("target", [
        make_exponential_tail(1.0),
        make_subexponential_tail(1.0, 0.5),
        make_polynomial_tail(2.0),
        make_gaussian(),
    ])
    @pytest.mark.parametrize("field", [
        constant_field(1.0), power_field(1.5), power_field(4.0), one_plus_square_field(),
    ])
    def test_batch_matches_per_point(self, target, field):
        # the batch forms round like the per-point ones to a bit or two
        grid = np.linspace(-320.0, 320.0, 3201)
        lp, g = _grid_values(target, field, grid)
        lp_ref = np.array([target.log_density(np.array([v])) for v in grid])
        g_ref = np.array([field.inv_metric(np.array([v]))[0, 0] for v in grid])
        np.testing.assert_allclose(lp, lp_ref, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(g, g_ref, rtol=1e-15, atol=0.0)
        lp[0] = g[0] = 0.0  # writable copies: the builder mirrors them


class TestTvDecay:
    def test_starts_at_point_mass_distance(self, small_chain):
        start = 10
        d = tv_decay_curve(small_chain, start, 5)
        assert d[0] == pytest.approx(1.0 - small_chain.pi_hat[start], abs=1e-14)

    def test_monotone_nonincreasing(self, small_chain):
        d = tv_decay_curve(small_chain, 0, 60)
        assert all(b <= a + 1e-12 for a, b in zip(d, d[1:]))

    def test_asymptotic_rate_matches_gap(self, small_chain):
        # eventually d_n shrinks by a factor |lambda_2| per step; start
        # off-center so the slowest mode is actually excited
        res = spectral_gap(small_chain)
        d = tv_decay_curve(small_chain, 20, 90)
        rate = (d[90] / d[60]) ** (1.0 / 30.0)
        assert rate == pytest.approx(res.lambda2, abs=0.02)

    def test_domains(self, small_chain):
        with pytest.raises(ParameterError):
            tv_decay_curve(small_chain, -1, 10)
        with pytest.raises(ParameterError):
            tv_decay_curve(small_chain, 0, 0)


class TestClassification:
    def test_bands(self):
        assert classify_gap_trend(0.10, 0.06) == "geometric"
        assert classify_gap_trend(0.10, 0.019) == "not_geometric"
        assert classify_gap_trend(0.10, 0.03) == "inconclusive"

    def test_boundaries_are_inconclusive(self):
        # exact threshold ratios fall in the undecided band
        assert classify_gap_trend(1.0, 0.5) == "inconclusive"
        assert classify_gap_trend(1.0, 0.2) == "inconclusive"

    def test_zero_gap_rejected(self):
        with pytest.raises(NumericError):
            classify_gap_trend(0.0, 0.01)


class TestGapGrowthScan:
    def test_geometric_case_stabilizes(self):
        # plain random walk on exponential tails is geometric; its gap
        # settles as the window grows
        t = make_exponential_tail(1.0)
        f = constant_field(1.0)
        rows = gap_growth_scan(t, f, 1.0, [10.0, 20.0, 30.0], points_per_unit=6)
        assert [r.n for r in rows] == [121, 241, 361]
        assert rows[-1].gap > 0.5 * rows[0].gap
        for r in rows:
            assert r.construction_residual < 1e-10

    def test_nongeometric_case_collapses(self):
        # heavy polynomial tails with a constant proposal lose the gap as
        # the window widens
        t = make_polynomial_tail(3.0)
        f = constant_field(1.0)
        rows = gap_growth_scan(t, f, 1.0, [10.0, 40.0], points_per_unit=6)
        assert rows[1].gap < 0.2 * rows[0].gap

    def test_window_validation(self):
        t = make_exponential_tail(1.0)
        f = constant_field(1.0)
        with pytest.raises(ParameterError):
            gap_growth_scan(t, f, 1.0, [10.0], points_per_unit=5)
        with pytest.raises(ParameterError):
            gap_growth_scan(t, f, 1.0, [10.0, 5.0], points_per_unit=5)


class TestJumpQuadrature:
    @pytest.mark.parametrize("h", [0.5, 2.0, 5.0])
    def test_acceptance_matches_closed_form(self, h):
        # random walk N(x, h) on the unit Gaussian accepts at stationarity
        # with probability (2/pi) arctan(2/sqrt(h))
        t = make_gaussian(1.0)
        r = stationary_jump_quadrature(t, constant_field(1.0), h, 8.0, 801)
        exact = 2.0 / math.pi * math.atan(2.0 / math.sqrt(h))
        assert abs(r.acceptance - exact) <= r.acceptance_err < 1e-4

    def test_esjd_matches_iid_monte_carlo(self):
        t = make_gaussian(1.0)
        h, b = 2.0, 1.0
        r = stationary_jump_quadrature(t, power_field(b), h, 8.0, 801)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(400_000)
        sx = h * (1.0 + np.abs(x)) ** b
        y = x + np.sqrt(sx) * rng.standard_normal(x.size)
        sy = h * (1.0 + np.abs(y)) ** b
        # closed-form log acceptance: target, determinant, quadratic terms
        la = (
            0.5 * (x * x - y * y)
            + 0.5 * np.log(sx / sy)
            + 0.5 * (x - y) ** 2 * (1.0 / sx - 1.0 / sy)
        )
        jump = np.exp(np.minimum(0.0, la)) * (y - x) ** 2
        se = jump.std(ddof=1) / math.sqrt(jump.size)
        assert abs(jump.mean() - r.esjd) < 4.0 * se

    def test_tuned_step_size_hits_rate(self):
        t = make_gaussian(1.0)
        f = power_field(1.0)
        tuned = tuned_jump_quadrature(t, f, 0.44, 8.0, 801)
        again = stationary_jump_quadrature(t, f, tuned.step_size, 8.0, 801)
        assert again.acceptance == pytest.approx(0.44, abs=1e-9)
        assert again.esjd == pytest.approx(tuned.esjd, rel=1e-12)
        assert 0.0 < tuned.esjd_err < 1e-4

    @pytest.mark.parametrize(
        "b, expected",
        [
            (1.2, (2.691284534848495, 0.44, 8.145858682973017e-06,
                   0.7706173039238681, 6.029531904649943e-06)),
            (1.6, (2.0791943869565643, 0.44, 9.364106918596793e-06,
                   0.7639170562339035, 4.257013909048091e-06)),
        ],
    )
    def test_tuned_curve_values(self, b, expected):
        # the esjd_scan window at exponents either side of the optimum,
        # held to 1e-12 where the tests above hold the rule to 1e-4
        got = tuned_jump_quadrature(make_gaussian(), power_field(b), 0.44, 8.0, 1601)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=0.0, abs=1e-12)

    def test_domain_checks(self):
        t = make_gaussian(1.0)
        f = constant_field(1.0)
        with pytest.raises(ParameterError):
            stationary_jump_quadrature(t, f, 1.0, 8.0, 800)
        with pytest.raises(ParameterError):
            stationary_jump_quadrature(t, f, 1.0, 8.0, 99)
        with pytest.raises(ParameterError):
            stationary_jump_quadrature(t, f, 0.0, 8.0, 801)
        with pytest.raises(ParameterError):
            tuned_jump_quadrature(t, f, 1.0, 8.0, 801)
        with pytest.raises(DiscretizationError):
            stationary_jump_quadrature(t, f, 1e-4, 8.0, 801)
