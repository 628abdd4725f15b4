import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from pdrwm import (
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
from pdrwm import _compiled
from pdrwm.chain import log_accept_terms
from pdrwm.oracle import SPACING_FRACTION, _grid_values


#: a mirrored 4-state chain with spectrum 1, 0.8 (even block) and -0.7,
#: -0.9 (odd block)
FOUR_STATES = np.array([
    [0.05, 0.10, 0.00, 0.85],
    [0.10, 0.05, 0.85, 0.00],
    [0.00, 0.85, 0.05, 0.10],
    [0.85, 0.00, 0.10, 0.05],
])


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
        p = FOUR_STATES
        grid = np.array([-1.5, -0.5, 0.5, 1.5])
        chain = DiscretizedChain(grid, 1.0, p[2:], np.full(4, 0.25), "hand", True)
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
            np.linspace(-1.0, 1.0, n), 2.0 / (n - 1), p[n // 2:], np.full(n, 1.0 / n),
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
        whole = spectral_gap(
            dataclasses.replace(chain, rows=chain.transition, mirrored=False)
        )
        # the block former writes the lower triangle only
        odd = np.tril(pdrwm.oracle._symmetric_block(chain, 1))
        odd_top = scipy.linalg.eigh(odd, eigvals_only=True, lower=True)[-1]
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
        rows = small_chain.rows if mirrored else small_chain.transition
        broken = dataclasses.replace(small_chain, rows=rows * 1.01, mirrored=mirrored)
        with pytest.raises(NumericError) as err:
            spectral_gap(broken)
        assert small_chain.label in str(err.value)

    def test_unconverged_lanczos_falls_back_to_dense(self, small_chain, monkeypatch):
        expected = spectral_gap(small_chain)

        def no_convergence(*args, **kwargs):
            raise _compiled.ArpackNoConvergence("no convergence")

        # spectral_gap reaches ARPACK through pdrwm._compiled
        monkeypatch.setattr(_compiled, "largest_eigenvalue", no_convergence)
        res = spectral_gap(small_chain)
        assert res.path[0] == "dense: no convergence"
        assert abs(res.lambda2 - expected.lambda2) <= 1e-12

    def test_path_of_a_built_chain(self, small_chain):
        assert spectral_gap(small_chain).path == ("extremal", "extremal")
        whole = dataclasses.replace(
            small_chain, rows=small_chain.transition, mirrored=False
        )
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
        whole = spectral_gap(
            dataclasses.replace(chain, rows=chain.transition, mirrored=False)
        )
        assert abs(split.gap - whole.gap) <= 1e-10
        assert abs(split.lambda2 - whole.lambda2) <= 1e-10
        dense = scipy.linalg.eigh(chain.symmetrized, eigvals_only=True)
        lam2 = max(-dense[0], dense[-2])
        assert abs(split.lambda2 - lam2) <= 1e-12
        assert abs(whole.lambda2 - lam2) <= 1e-12


def _counting_factors(monkeypatch):
    """Count the Cholesky factorisations the solver runs."""
    calls = []
    factors = pdrwm.oracle._factors

    def counted(*args):
        calls.append(args[2:])
        return factors(*args)

    monkeypatch.setattr(pdrwm.oracle, "_factors", counted)
    return calls


def _proofs(monkeypatch):
    """Record the verdicts of the odd block's Rayleigh-quotient proof."""
    verdicts = []
    top_exceeds = pdrwm.oracle._top_exceeds

    def recorded(*args):
        verdicts.append(top_exceeds(*args))
        return verdicts[-1]

    monkeypatch.setattr(pdrwm.oracle, "_top_exceeds", recorded)
    return verdicts


class TestOddBlockProof:
    #: Table 1's subexponential target under the (1+|x|)^1.5 field at
    #: L = 40: lambda_2 lies in the odd block
    ODD = (make_subexponential_tail(1.0, 0.5), power_field(1.5), 1.0, 40.0, 401)
    #: the exponential target under the same field at L = 20: lambda_2
    #: lies in the even block
    EVEN = (make_exponential_tail(1.0), power_field(1.5), 1.0, 20.0, 201)

    def test_odd_lambda2_skips_the_try(self, monkeypatch):
        chain = build_discretized(*self.ODD)
        calls = _counting_factors(monkeypatch)
        verdicts = _proofs(monkeypatch)
        res = spectral_gap(chain)
        # even: Lanczos, top certificate; odd: Lanczos, top certificate.
        # The bottoms hold by the Gershgorin discs
        assert verdicts == [True]
        assert len(calls) == 4
        skipped = list(calls)
        monkeypatch.setattr(pdrwm.oracle, "_top_exceeds", lambda *args: False)
        calls.clear()
        tried = spectral_gap(chain)
        # the fifth is the odd block's try, at the even block's top
        # certificate's shift; the other four are the same factorisations
        assert len(calls) == 5
        assert calls[2] == calls[1]
        assert calls[:2] + calls[3:] == skipped
        assert (res.lambda2.hex(), res.path) == (tried.lambda2.hex(), tried.path)
        odd = np.tril(pdrwm.oracle._symmetric_block(chain, 1))
        odd_top = scipy.linalg.eigh(odd, eigvals_only=True, lower=True)[-1]
        assert odd_top == pytest.approx(res.lambda2, abs=1e-12)

    def test_even_lambda2_still_tries(self, monkeypatch):
        chain = build_discretized(*self.EVEN)
        calls = _counting_factors(monkeypatch)
        verdicts = _proofs(monkeypatch)
        res = spectral_gap(chain)
        # even: Lanczos, top certificate; odd: the try, which succeeds
        assert verdicts == [False]
        assert len(calls) == 3
        monkeypatch.setattr(pdrwm.oracle, "_top_exceeds", lambda *args: False)
        calls.clear()
        tried = spectral_gap(chain)
        assert len(calls) == 3
        assert (res.lambda2.hex(), res.path) == (tried.lambda2.hex(), tried.path)

    def test_top_vector_is_the_even_top_eigenvector(self):
        chain = build_discretized(*self.ODD)
        block = pdrwm.oracle._symmetric_block(chain, 0)
        pdrwm.oracle._deflate_stationary(chain, block)
        d = block.diagonal().copy()
        top = pdrwm.oracle._lanczos_top(block, d)
        factor = pdrwm.oracle._factors(block, d, -1.0, top + pdrwm.oracle._TOP_SLACK)
        v = pdrwm.oracle._top_vector(factor)
        # the factorisations overwrote the diagonal, which d keeps
        vals, vecs = scipy.linalg.eigh(np.tril(block, -1) + np.diag(d), lower=True)
        assert vals[-1] == pytest.approx(top, abs=1e-12)
        assert abs(vecs[:, -1] @ v) / np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_unmirrored_chain_carries_no_vector(self, monkeypatch):
        chain = build_discretized(*self.ODD)
        whole = dataclasses.replace(chain, rows=chain.transition, mirrored=False)

        def refused(factor):
            raise AssertionError("no block follows the whole matrix")

        monkeypatch.setattr(pdrwm.oracle, "_top_vector", refused)
        assert spectral_gap(whole).path == ("extremal",)

    @given(
        target=_SYMMETRIC_TARGETS,
        b=st.floats(0.0, 4.0),
        log_h=st.floats(math.log(0.01), math.log(10.0)),
        n=st.integers(50, 800),
        width=st.floats(0.05, 1.0),
    )
    def test_proof_moves_no_bit(self, target, b, log_h, n, width):
        # with the proof or without it (every odd block tries), lambda_2
        # and the paths agree to the bit
        h = math.exp(log_h)
        half_width = width * 0.5 * SPACING_FRACTION * math.sqrt(h) * (n - 1)
        chain = build_discretized(target, power_field(b), h, half_width, n)
        res = spectral_gap(chain)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pdrwm.oracle, "_top_exceeds", lambda *args: False)
            tried = spectral_gap(chain)
        assert (res.lambda2.hex(), res.path) == (tried.lambda2.hex(), tried.path)


def _skewed_log_density(x):
    v = float(x[0])
    return -abs(v) - 0.3 * v


#: log pi(x) = -|x| - 0.3x: no x -> -x symmetry, so its chain stores all
#: of P
_SKEWED = TargetDensity(
    1, _skewed_log_density, "skewed_laplace",
    lambda xs: np.array([_skewed_log_density(x) for x in xs]),
)


def _log_move_rows_with_temporaries(grid, lp, log_norm, inv_two_hg, i0, i1, out, lq):
    """The row former as it was before it wrote into a scratch row block:
    the formula on whole arrays, a temporary for each pass."""
    d2 = (grid[i0:i1, None] - grid[None, :]) ** 2
    lq = log_norm[i0:i1, None] - d2 * inv_two_hg[i0:i1, None]
    lq_rev = log_norm[None, :] - d2 * inv_two_hg[None, :]
    log_accept_terms(lp[i0:i1, None], lp[None, :], lq, lq_rev, out=out)
    out += lq


def _full_build(target, field, h, half_width, n):
    """The whole transition matrix of a mirrored problem, built as the
    oracle built it while it stored all of P: rows n//2..n-1 computed,
    then copied, reversed, into rows 0..n//2-1."""
    grid = np.linspace(-half_width, half_width, n)
    step = float(grid[1] - grid[0])
    lp, g = _grid_values(target, field, grid)
    s = n // 2
    grid[:s] = -grid[n - s:][::-1]
    lp[:s] = lp[n - s:][::-1]
    g[:s] = g[n - s:][::-1]
    if n % 2:
        grid[s] = 0.0
    log_norm = -0.5 * math.log(2.0 * math.pi * h) - 0.5 * np.log(g)
    inv_two_hg = 1.0 / (2.0 * h * g)
    d2 = (grid[s:, None] - grid[None, :]) ** 2
    lq = log_norm[s:, None] - d2 * inv_two_hg[s:, None]
    lq_rev = log_norm[None, :] - d2 * inv_two_hg[None, :]
    la = np.minimum(0.0, lp[None, :] + lq_rev - lp[s:, None] - lq)
    p = np.empty((n, n))
    p[s:] = np.exp(lq + la + math.log(step))
    idx = np.arange(s, n)
    p[idx, idx] = 0.0
    p[idx, idx] = np.clip(1.0 - p[s:].sum(axis=1), 0.0, None)
    p[:s] = p[n - s:][::-1, ::-1]
    return p


class TestStoredRows:
    @given(
        target=_SYMMETRIC_TARGETS,
        b=st.floats(0.0, 4.0),
        log_h=st.floats(math.log(0.01), math.log(10.0)),
        n=st.integers(50, 401),
        width=st.floats(0.05, 1.0),
    )
    def test_transition_is_the_full_build(self, target, b, log_h, n, width):
        h = math.exp(log_h)
        half_width = width * 0.5 * SPACING_FRACTION * math.sqrt(h) * (n - 1)
        chain = build_discretized(target, power_field(b), h, half_width, n)
        assert chain.mirrored is True
        assert chain.rows.shape == (n - n // 2, n)
        full = _full_build(target, power_field(b), h, half_width, n)
        assert np.array_equal(chain.transition, full)
        sym = full * full.T
        assert np.array_equal(chain.symmetrized, np.sqrt(sym, out=sym))

    def test_hand_built_unmirrored_chain_solves(self):
        # the 4-state chain stored whole, as one block
        p = FOUR_STATES
        grid = np.array([-1.5, -0.5, 0.5, 1.5])
        chain = DiscretizedChain(grid, 1.0, p, np.full(4, 0.25), "hand", False)
        assert chain.first == 0
        assert np.array_equal(chain.transition, p)
        assert chain.row_sum_residual() < 1e-15
        assert chain.stationarity_residual() < 1e-15
        assert chain.reversibility_residual() == 0.0
        res = spectral_gap(chain)
        assert res.lambda2 == pytest.approx(0.9, abs=1e-14)
        assert res.path == ("dense: block too small",)

    def test_residuals_of_a_skewed_mirror_are_seen(self, small_chain):
        # a mirrored chain whose stored rows lose detailed balance and
        # stationarity: the residuals read from the rows must show it
        rows = small_chain.rows.copy()
        rows[5, 7] += 1e-6
        broken = dataclasses.replace(small_chain, rows=rows)
        assert broken.row_sum_residual() == pytest.approx(1e-6, rel=1e-6)
        assert broken.stationarity_residual() > 1e-9
        assert broken.reversibility_residual() > 1e-9
        p = broken.transition
        assert broken.reversibility_residual() == pytest.approx(float(
            np.abs(broken.pi_hat[:, None] * p - (broken.pi_hat[:, None] * p).T).max()
        ), rel=1e-12)
        assert broken.stationarity_residual() == pytest.approx(
            float(np.abs(broken.pi_hat @ p - broken.pi_hat).max()), rel=1e-9
        )

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_mismatched_rows_raise(self, small_chain, mirrored):
        n = small_chain.n
        rows = small_chain.transition if mirrored else small_chain.rows
        with pytest.raises(ParameterError) as err:
            dataclasses.replace(small_chain, rows=rows, mirrored=mirrored)
        want = (n - n // 2, n) if mirrored else (n, n)
        assert str(want) in str(err.value) and str(rows.shape) in str(err.value)

    def test_build_holds_half_the_matrix(self):
        args = (make_gaussian(), constant_field(1.0), 1.0, 12.0, 2401)
        build_discretized(*args[:3], 5.0, 101)  # lazy imports outside the trace
        tracemalloc.start()
        try:
            chain = build_discretized(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain.mirrored is True
        assert peak < 0.6 * chain.n ** 2 * 8
        # beyond the stored rows, one scratch row block and vectors of
        # length n; a temporary per elementwise pass would put several
        # row blocks on top
        row_block = pdrwm.oracle._BLOCK_ENTRIES * 8
        assert peak - chain.rows.nbytes <= 2 * row_block + 16 * chain.n * 8

    @given(
        target=st.one_of(_SYMMETRIC_TARGETS, st.just(_SKEWED)),
        field=st.one_of(
            st.builds(power_field, st.floats(0.0, 4.0)),
            st.just(one_plus_square_field()),
        ),
        log_h=st.floats(math.log(0.01), math.log(10.0)),
        n=st.integers(50, 1200),
        width=st.floats(0.05, 1.0),
    )
    def test_rows_are_those_of_the_temporaries(self, target, field, log_h, n, width):
        # the scratch-buffer row former gives every entry the bits of the
        # same formula on whole arrays, one temporary per pass, for
        # mirrored and unmirrored chains and any number of row blocks
        h = math.exp(log_h)
        half_width = width * 0.5 * SPACING_FRACTION * math.sqrt(h) * (n - 1)
        chain = build_discretized(target, field, h, half_width, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pdrwm.oracle, "_log_move_rows", _log_move_rows_with_temporaries)
            reference = build_discretized(target, field, h, half_width, n)
        assert chain.mirrored is (target is not _SKEWED)
        assert chain.rows.tobytes() == reference.rows.tobytes()

    def test_residuals_assemble_no_matrix(self):
        chain = build_discretized(make_gaussian(), constant_field(1.0), 1.0, 12.0, 2401)
        tracemalloc.start()
        try:
            worst = max(chain.row_sum_residual(), chain.stationarity_residual(),
                        chain.reversibility_residual())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert worst < 1e-12
        assert peak < 0.05 * chain.n ** 2 * 8

    @pytest.mark.parametrize("start", [0, 10, 150])
    def test_tv_decay_is_the_loop_over_the_matrix(self, small_chain, start):
        p, pi = small_chain.transition, small_chain.pi_hat
        dist = np.zeros(small_chain.n)
        dist[start] = 1.0
        expected = [0.5 * float(np.abs(dist - pi).sum())]
        for _ in range(40):
            dist = dist @ p
            expected.append(0.5 * float(np.abs(dist - pi).sum()))
        assert np.array_equal(tv_decay_curve(small_chain, start, 40), expected)

def _full_blocks(chain):
    """The even and odd blocks formed in full from the whole rows of the
    symmetrized matrix, as the solver formed them before it kept only
    the lower triangle."""
    full, n = chain.symmetrized, chain.n
    s = n // 2
    m = n - s
    upper, reflected = full[s:, s:], full[s:, m - 1::-1]
    even = upper + reflected
    odd = (upper - reflected)[m - s:, m - s:]
    if n % 2:
        even[0] *= math.sqrt(0.5)
        even[:, 0] *= math.sqrt(0.5)
    return [even, odd]


#: lambda_2 and the paths of three chains, recorded before the solver
#: formed its blocks one at a time, with one BLAS thread, and of a fourth
#: whose lambda_2 lies in the odd block, recorded before the odd block's
#: try could be skipped; then the leading hex digits of the sha256 of
#: each chain's stored rows
PINNED_SOLVES = """
import dataclasses, hashlib
from pdrwm import (build_discretized, make_exponential_tail, make_subexponential_tail,
                   power_field, spectral_gap)
digests = []
for n, whole in ((1201, False), (1200, False), (1201, True)):
    chain = build_discretized(make_exponential_tail(1.0), power_field(1.0), 1.0, 15.0, n)
    if whole:
        chain = dataclasses.replace(chain, rows=chain.transition, mirrored=False)
    res = spectral_gap(chain)
    print(n, whole, res.lambda2.hex(), *res.path)
    digests.append(f"{n} {whole} rows {hashlib.sha256(chain.rows.tobytes()).hexdigest()[:16]}")
chain = build_discretized(make_subexponential_tail(1.0, 0.5), power_field(1.5), 1.0, 160.0, 1601)
res = spectral_gap(chain)
print("subexponential 1601", res.lambda2.hex(), *res.path)
digests.append(f"subexponential 1601 rows {hashlib.sha256(chain.rows.tobytes()).hexdigest()[:16]}")
print(*digests, sep="\\n")
"""
PINNED_LINES = [
    "1201 False 0x1.98f11ba8ea3dap-1 extremal extremal",
    "1200 False 0x1.98f0c57819dafp-1 extremal extremal",
    "1201 True 0x1.98f11ba8ea3d9p-1 extremal",
    "subexponential 1601 0x1.e8b7a5d62de7bp-1 extremal extremal",
]
PINNED_ROWS = [
    "1201 False rows 1e8914250d054436",
    "1200 False rows 36f68200aeab17ab",
    "1201 True rows 7aa8f56bb5bf4c65",
    "subexponential 1601 rows f892a2eb0dde50eb",
]


class TestOneBlockSolve:
    @pytest.mark.parametrize("n", [1201, 1200])
    def test_each_block_is_symmetric_to_the_bit(self, n):
        # the lower triangle carries the block: formed in full, it is
        # symmetric to the bit, and the factorisations see that full
        # matrix while the lower triangle survives them
        chain = build_discretized(
            make_exponential_tail(1.0), power_field(1.0), 1.0, 15.0, n
        )
        for k, full in enumerate(_full_blocks(chain)):
            assert np.array_equal(full, full.T)
            block = pdrwm.oracle._symmetric_block(chain, k)
            assert np.array_equal(np.tril(block), np.tril(full))
            d = block.diagonal().copy()
            shifted = full * -1.0
            shifted[np.diag_indices(len(full))] += 0.5
            factored = pdrwm.oracle._mirrored(block, d, -1.0, 0.5)
            # potrf reads the lower triangle of the Fortran view
            assert factored.flags.f_contiguous
            assert np.array_equal(np.tril(factored), np.tril(shifted))
            assert np.array_equal(np.tril(block, -1), np.tril(full, -1))

    def test_solve_holds_one_block(self):
        # the stored rows aside, the solve allocates one block of
        # about n/2 squared and small row-block temporaries
        chain = build_discretized(make_gaussian(), constant_field(1.0), 1.0, 12.0, 2401)
        block_bytes = (chain.n - chain.n // 2) ** 2 * 8
        # a first solve loads scipy's compiled extensions, outside the trace
        spectral_gap(build_discretized(make_gaussian(), constant_field(1.0), 1.0, 5.0, 101))
        tracemalloc.start()
        try:
            res = spectral_gap(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.path == ("extremal", "extremal")
        assert peak < 1.25 * block_bytes

    def test_pinned_lambda2_and_path(self):
        # BLAS threads change the last bits, so the solves run in a fresh
        # process with one thread, as the benchmark harness runs them
        src = str(Path(pdrwm.oracle.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", PINNED_SOLVES],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == PINNED_LINES + PINNED_ROWS


# item 12 of ROADMAP.md: two chains whose lambda_2 moved in its last bit
# with the BLAS thread count before the solve pinned it to one thread
THREAD_SOLVES = """
from pdrwm import build_discretized, make_exponential_tail, power_field, spectral_gap
tail = make_exponential_tail(1.0)
for field, half_width, n in ((power_field(1.0), 15.0, 301), (power_field(1.5), 80.0, 801)):
    print(spectral_gap(build_discretized(tail, field, 1.0, half_width, n)).lambda2.hex())
"""


@pytest.mark.skipif(_compiled._openblas_threads("scipy") is None,
                    reason="no thread setter of scipy's bundled OpenBLAS was found")
def test_lambda2_does_not_depend_on_blas_threads():
    src = str(Path(pdrwm.oracle.__file__).resolve().parents[1])
    lines = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", THREAD_SOLVES],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines.append(proc.stdout.splitlines())
    # the one-thread values the item records
    assert lines[0] == ["0x1.98f4bdc534b38p-1", "0x1.7ca146360c227p-1"]
    assert lines[1] == lines[0]


def test_blas_thread_count_is_restored():
    found = [pair for pair in map(_compiled._openblas_threads, ("scipy", "numpy")) if pair]
    if not found:
        pytest.skip("no thread setter of a bundled OpenBLAS was found")
    before = [get() for _, get in found]
    try:
        for set_, _ in found:
            set_(2)
        outside = [get() for _, get in found]
        for fails in (False, True):
            with contextlib.suppress(NumericError):
                with _compiled.one_blas_thread("scipy", "numpy"):
                    assert [get() for _, get in found] == [1] * len(found)
                    if fails:
                        raise NumericError("inside the block")
            assert [get() for _, get in found] == outside
    finally:
        for (set_, _), count in zip(found, before):
            set_(count)


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
        g_ref = np.array([field.inv_metric(np.array([v])) for v in grid])
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

    def test_unreachable_rate_names_the_step_size_its_grid_resolved(self):
        # acceptance 0.999 needs a step size below the grid's reach; the
        # message names the last step size the outward search resolved,
        # the acceptance there, and the probe that left the grid's reach
        messages = []
        for b in (0.0, 1.0):
            with pytest.raises(DiscretizationError) as err:
                tuned_jump_quadrature(make_gaussian(), power_field(b), 0.999, 8.0, 1601)
            message = str(err.value)
            assert isinstance(err.value.__cause__, DiscretizationError)
            assert message.startswith(f"{err.value.__cause__}; ")
            h, acceptance, probe = re.search(
                r"cannot reach acceptance 0\.999: it resolved step size (\S+), of "
                r"acceptance (\S+), but not the next probe, (\S+)$", message
            ).groups()
            # the search runs on the (1601 + 1) // 2-node chain first
            at_h = stationary_jump_quadrature(make_gaussian(), power_field(b), float(h), 8.0, 801)
            assert at_h.acceptance == pytest.approx(float(acceptance), rel=1e-5)
            assert at_h.acceptance < 0.999
            with pytest.raises(DiscretizationError):
                build_discretized(make_gaussian(), power_field(b), float(probe), 8.0, 801)
            messages.append(message)
        assert messages[0] != messages[1]

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
