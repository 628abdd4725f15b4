"""Discretized-chain spectral oracle.

Ergodicity claims about the continuous sampler are checked against a
finite surrogate: restrict the state to a uniform grid on [-L, L], build
the Metropolis transition matrix with proposal mass outside the window
folded into the rejection diagonal, and read convergence off the
spectrum.  For a reversible chain the spectral gap 1 - |lambda_2| is the
geometric convergence rate, so watching the gap as the window L grows
separates genuinely geometric chains (gap stabilizes) from ones whose
convergence collapses in the tails (gap falls toward zero).

The chain is reversible by construction, so similarity by sqrt(pi)
symmetrizes the transition matrix exactly.  By detailed balance that
similarity transform equals sqrt(P_ij P_ji) entrywise, which needs no
density ratio and so cannot overflow; only the transition matrix is
stored, and the symmetric matrix is formed from it when the spectrum is
wanted.  When target, field and grid are symmetric under x -> -x, so is
the chain: half of its rows are mirror images of the other half, and the
symmetric matrix splits into an even and an odd block of about n/2 that
are solved separately.

The gap needs only the extremes of the spectrum.  The known eigenvector
sqrt(pi) of eigenvalue 1 is projected out, shift-invert Lanczos finds
the top of what is left, and Cholesky factorisations (or, at the bottom,
Gershgorin discs) certify that no eigenvalue lies beyond lambda_2 at
either end.  A block that cannot be certified that way is diagonalized
by the dense symmetric eigensolver, and the result records which path
each block took.

The module also holds the deterministic routes the Monte Carlo probes
are checked against: adaptive quadrature for the one-step drift ratio,
and the stationary acceptance rate and expected squared jump as moments
of the grid chain, with the difference from the chain on half the
nodes as their error estimate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .chain import log_accept_ratio_closed_form, log_accept_terms
from .diagnostics import LyapunovFunction
from .errors import DiscretizationError, NumericError, ParameterError
from .fields import CovarianceField
from .proposals import gaussian_proposal
from .targets import TargetDensity

__all__ = [
    "DiscretizedChain",
    "build_discretized",
    "SpectralResult",
    "spectral_gap",
    "tv_decay_curve",
    "classify_gap_trend",
    "GapScanPoint",
    "gap_growth_scan",
    "QuadDriftResult",
    "drift_ratio_quadrature",
    "JumpQuadResult",
    "stationary_jump_quadrature",
    "tuned_jump_quadrature",
]

#: grid spacing must be at most this fraction of the finest proposal std
SPACING_FRACTION = 0.2

#: entries per row block of the n x n passes: each temporary is 2 MB,
#: small enough that a block's several elementwise passes stay in cache
_BLOCK_ENTRIES = 1 << 18

#: relative tolerance of the x -> -x symmetry test
_MIRROR_RTOL = 1e-12

#: shift-invert Lanczos inverts (1 + _SHIFT_GAP) I - B, just above the
#: spectrum's bound of 1
_SHIFT_GAP = 1e-3

#: slack of the certificate that no eigenvalue exceeds lambda_2
_TOP_SLACK = 1e-12

#: Lanczos basis size; a block no larger than it is solved dense
_LANCZOS_BASIS = 20


def _row_blocks(n: int, start: int = 0):
    """(i0, i1) ranges over rows start..n-1 of an n x n matrix, about
    ``_BLOCK_ENTRIES`` entries each."""
    block = max(1, _BLOCK_ENTRIES // n)
    for i0 in range(start, n, block):
        yield i0, min(i0 + block, n)


@dataclass
class DiscretizedChain:
    """Grid restriction of the position-dependent random walk Metropolis.

    ``transition`` is row-stochastic and the only n x n matrix stored;
    ``pi_hat`` is the grid-renormalized target.  ``mirrored`` records
    that the problem is symmetric under x -> -x, so that
    ``transition[i, j] == transition[n-1-i, n-1-j]`` exactly.
    """

    grid: np.ndarray
    step: float
    transition: np.ndarray
    pi_hat: np.ndarray
    label: str
    mirrored: bool

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def symmetrized(self) -> np.ndarray:
        """The similarity transform D^{1/2} P D^{-1/2}, D = diag(pi_hat),
        formed on demand as sqrt(P_ij P_ji), which detailed balance makes
        the same matrix."""
        sym = self.transition * self.transition.T
        return np.sqrt(sym, out=sym)

    def row_sum_residual(self) -> float:
        return float(np.abs(self.transition.sum(axis=1) - 1.0).max())

    def stationarity_residual(self) -> float:
        return float(np.abs(self.pi_hat @ self.transition - self.pi_hat).max())

    def reversibility_residual(self) -> float:
        """Largest |pi_i P_ij - pi_j P_ji|, taken one row block at a time."""
        p, pi = self.transition, self.pi_hat
        worst = 0.0
        for i0, i1 in _row_blocks(self.n):
            flow = pi[i0:i1, None] * p[i0:i1]
            flow -= (pi[:, None] * p[:, i0:i1]).T
            worst = max(worst, float(np.abs(flow, out=flow).max()))
        return worst


def _grid_values(
    target: TargetDensity, cov_field: CovarianceField, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Target log-density and field variance at every grid point, each
    from one call of the batch form."""
    points = grid[:, None]
    # copies: the builder rewrites them in place, and a batch form may
    # return a read-only view
    lp = np.array(target.log_density_batch(points), dtype=float)
    if not np.all(np.isfinite(lp)):
        raise ParameterError(
            "target log-density must be finite across the window"
        )
    g = np.array(cov_field.inv_metric_batch(points)[:, 0, 0], dtype=float)
    if not np.all(g > 0):
        raise NumericError("field must be positive across the window")
    return lp, g


def _check_spacing(step: float, h: float, g: np.ndarray) -> None:
    finest = float(np.sqrt(h * g).min())
    max_step = SPACING_FRACTION * finest
    # grids built by linspace land on the limit up to rounding; only a
    # genuinely coarser spacing is an error
    if step > max_step * (1.0 + 1e-9):
        raise DiscretizationError(
            f"grid spacing {step:g} too coarse: finest proposal std is "
            f"{finest:g}, so spacing must be at most {max_step:g}"
        )


def _log_move_rows(
    grid: np.ndarray, lp: np.ndarray, g: np.ndarray, h: float, i0: int, i1: int
) -> np.ndarray:
    """Log of q(x_j | x_i) alpha(x_i, x_j) for rows i0:i1."""
    # log q(x_j | x_i) = log_norm[i] - (x_i - x_j)^2 / (2 h g[i])
    log_norm = -0.5 * math.log(2.0 * math.pi * h) - 0.5 * np.log(g)
    inv_two_hg = 1.0 / (2.0 * h * g)
    d2 = (grid[i0:i1, None] - grid[None, :]) ** 2
    lq = log_norm[i0:i1, None] - d2 * inv_two_hg[i0:i1, None]
    lq_rev = log_norm[None, :] - d2 * inv_two_hg[None, :]
    la = log_accept_terms(lp[i0:i1, None], lp[None, :], lq, lq_rev)
    return lq + la


def build_discretized(
    target: TargetDensity,
    cov_field: CovarianceField,
    h: float,
    half_width: float,
    n: int,
) -> DiscretizedChain:
    """Build the grid chain on ``n`` points spanning [-half_width, half_width].

    Off-diagonal entries are ``q(x_j | x_i) * alpha(x_i, x_j) * step``;
    everything else (rejection plus proposal mass outside the window)
    lands on the diagonal, which is exactly a Metropolis chain that
    treats the window boundary as certain rejection.  Spacing coarser
    than a fifth of the finest proposal standard deviation on the grid
    is refused: the Riemann sums degrade silently past that.

    One-dimensional targets with full support only.
    """
    if target.dim != 1 or cov_field.dim != 1:
        raise ParameterError("the oracle discretizes one-dimensional problems")
    if n < 50:
        raise ParameterError(f"need at least 50 grid points, got {n}")
    if not half_width > 0:
        raise ParameterError(f"half_width must be positive, got {half_width}")
    if not h > 0:
        raise ParameterError(f"step size must be positive, got {h}")

    grid = np.linspace(-half_width, half_width, n)
    step = float(grid[1] - grid[0])
    lp, g = _grid_values(target, cov_field, grid)
    _check_spacing(step, h, g)

    # a mirrored chain has P[i, j] == P[n-1-i, n-1-j]: compute the rows
    # from n//2 up and reflect them into the lower ones
    mirrored = _reflects(grid, -1.0) and _reflects(lp, 1.0) and _reflects(g, 1.0)
    s = n // 2 if mirrored else 0
    if mirrored:
        # linspace rounds its two halves differently: symmetric within
        # rounding is made exact, so that the reflected rows are this
        # chain's own rows
        grid[:s] = -grid[n - s:][::-1]
        lp[:s] = lp[n - s:][::-1]
        g[:s] = g[n - s:][::-1]
        if n % 2:
            grid[s] = 0.0
    log_step = math.log(step)
    transition = np.empty((n, n))
    for i0, i1 in _row_blocks(n, start=s):
        log_move = _log_move_rows(grid, lp, g, h, i0, i1)
        log_move += log_step
        np.exp(log_move, out=transition[i0:i1])

    idx = np.arange(s, n)
    transition[idx, idx] = 0.0
    stay = 1.0 - transition[s:].sum(axis=1)
    if float(stay.min()) < -1e-10:
        raise DiscretizationError(
            f"off-diagonal mass overshoots a row by {-float(stay.min()):g}; "
            "refine the grid"
        )
    np.clip(stay, 0.0, None, out=stay)
    transition[idx, idx] = stay
    if mirrored:
        transition[:s] = transition[n - s:][::-1, ::-1]

    w = np.exp(lp - lp.max())
    pi_hat = w / w.sum()

    label = f"grid(L={half_width:g},n={n},h={h:g},{cov_field.label},{target.label})"
    return DiscretizedChain(grid, step, transition, pi_hat, label, mirrored)


def _reflects(values: np.ndarray, parity: float) -> bool:
    """Whether grid values satisfy v(-x) = parity * v(x) to within
    rounding."""
    gap = np.abs(values[::-1] - parity * values).max()
    return bool(gap <= _MIRROR_RTOL * np.abs(values).max())


class SpectralResult(NamedTuple):
    """Gap and |lambda_2| of a grid chain, with the solver ``path`` of
    each symmetric block: ``"extremal"``, or ``"dense: <reason>"`` where
    the block went through the dense eigensolver."""

    gap: float
    lambda2: float
    path: tuple[str, ...] = ()


def _symmetric_blocks(chain: DiscretizedChain) -> list[np.ndarray]:
    """The symmetrized matrix S = sqrt(P o P^T), whole, or for a mirrored
    chain split into its even and odd blocks.

    S commutes with the reversal i -> n-1-i of a mirrored chain, so in the
    basis (e_i +- e_{n-1-i}) / sqrt(2) it splits in two.  Over the rows
    i >= n//2, the even block is S[i, j] + S[i, n-1-j] and the odd block
    S[i, j] - S[i, n-1-j], for columns j >= n//2.  For odd n the centre
    basis vector is e_c alone: the even block's centre row and column
    carry 1/sqrt(2) of that sum, and the odd block drops them.  Both
    blocks are written one row block at a time, with no n x n/2
    temporary.
    """
    if not chain.mirrored:
        return [chain.symmetrized]
    p, n = chain.transition, chain.n
    s = n // 2
    m = n - s  # rows s..n-1: the centre row (odd n) and the upper half
    odd_from = m - s  # 1 for odd n, whose odd block has no centre
    even = np.empty((m, m))
    odd = np.empty((s, s))
    for i0, i1 in _row_blocks(n, start=s):
        rows = p[i0:i1] * p[:, i0:i1].T
        np.sqrt(rows, out=rows)
        upper, reflected = rows[:, s:], rows[:, m - 1::-1]
        k0, k1 = i0 - s, i1 - s
        np.add(upper, reflected, out=even[k0:k1])
        lo = max(k0, odd_from) - k0
        np.subtract(upper[lo:, odd_from:], reflected[lo:, odd_from:],
                    out=odd[k0 + lo - odd_from:k1 - odd_from])
    if odd_from:
        even[0] *= math.sqrt(0.5)
        even[:, 0] *= math.sqrt(0.5)
    return [even, odd]


def _deflate_stationary(chain: DiscretizedChain, block: np.ndarray) -> None:
    """Check that the unit vector u = sqrt(pi_hat) carries eigenvalue 1 of
    the first block and subtract u u^T from it in place, which moves that
    eigenvalue to 0.  For a mirrored chain u is folded into the even
    block: its upper half times sqrt(2), the odd-n centre once."""
    u = np.sqrt(chain.pi_hat)
    if chain.mirrored:
        s = chain.n // 2
        u = u[s:] * math.sqrt(2.0)
        if chain.n % 2:
            u[0] = math.sqrt(chain.pi_hat[s])
    lead = float(u @ (block @ u))
    if abs(lead - 1.0) > 1e-6:
        raise NumericError(
            f"stationary Rayleigh quotient {lead!r} is not 1; chain "
            f"{chain.label} is not a proper Metropolis restriction"
        )
    for i0, i1 in _row_blocks(len(u)):
        block[i0:i1] -= u[i0:i1, None] * u[None, :]


def _factors(work: np.ndarray, block: np.ndarray, sign: float, shift: float):
    """Cholesky factor of ``sign * block + shift * I``, or None if that
    matrix is not positive definite.  The matrix is written into the
    front of the flat buffer ``work`` in Fortran order and factored in
    place; the block is symmetric, so its transpose view holds the same
    values in that order."""
    m = len(block)
    a = work[: m * m].reshape((m, m), order="F")
    np.multiply(block.T, sign, out=a)
    a.ravel(order="K")[:: m + 1] += shift
    potrf = scipy.linalg.get_lapack_funcs("potrf", (a,))
    factor, info = potrf(a, lower=1, overwrite_a=1, clean=0)
    if info < 0:
        raise NumericError(f"LAPACK potrf rejected argument {-info}")
    return factor if info == 0 else None


def _lanczos_top(work: np.ndarray, block: np.ndarray) -> float | None:
    """Largest eigenvalue of ``block`` by Lanczos on the inverse of
    ``(1 + _SHIFT_GAP) I - block``, or None if that matrix is not
    positive definite: then the block has an eigenvalue past the bound
    of 1 that every stochastic matrix keeps.

    One Cholesky factorisation serves every Lanczos step as a pair of
    triangular solves.  The start vector is fixed, so the result is
    deterministic, and it is not mirror-symmetric, so that a mirrored
    chain solved whole still reaches its odd eigenvectors.  Lanczos stops
    after about ``len(block)`` solves, past which the dense solver is
    cheaper, and then raises :class:`ArpackNoConvergence`.
    """
    m = len(block)
    shift = 1.0 + _SHIFT_GAP
    factor = _factors(work, block, -1.0, shift)
    if factor is None:
        return None
    potrs = scipy.linalg.get_lapack_funcs("potrs", (factor,))

    def solve(x: np.ndarray) -> np.ndarray:
        return potrs(factor, x, lower=1)[0]

    inverse = LinearOperator((m, m), matvec=solve, dtype=float)
    mu = eigsh(
        inverse, k=1, which="LA", v0=np.linspace(1.0, 2.0, m),
        ncv=_LANCZOS_BASIS, maxiter=max(1, m // _LANCZOS_BASIS),
        return_eigenvectors=False,
    )[0]
    return shift - 1.0 / float(mu)


def spectral_gap(chain: DiscretizedChain) -> SpectralResult:
    """Spectral gap 1 - |lambda_2| of the grid chain.

    The symmetrized matrix is split into the even and odd blocks of a
    mirrored chain (each about n/2), or kept whole otherwise.  The gap
    needs only the extremes of each block's spectrum, so no block is
    diagonalized in full:

    1. The first block (the even one, or the whole matrix) holds
       eigenvalue 1, with eigenvector sqrt(pi_hat).  Its Rayleigh
       quotient must be 1 to six decimals, or the chain construction
       itself is broken (:class:`NumericError`).  Its projector is then
       subtracted in place, which moves that eigenvalue to 0.
    2. The first block's top eigenvalue comes from shift-invert Lanczos
       (:func:`_lanczos_top`).  Every other block first tries one
       Cholesky factorisation of ``(lambda_2 + delta) I - B``, delta =
       1e-12; only if that fails does it run Lanczos too and raise
       lambda_2.
    3. Each block is then certified.  Top: a Cholesky factorisation of
       ``(lambda_2 + delta) I - B`` succeeds, so no eigenvalue lies above
       lambda_2 + delta, which a Lanczos start vector blind to the top
       eigenvector would break (the tried blocks already hold this).
       Bottom: every eigenvalue lies above -lambda_2, by the Gershgorin
       discs of P (whose spectrum the blocks share), or else by a
       Cholesky factorisation of ``B + lambda_2 I``.

    A block whose certificate fails, whose Lanczos does not converge, or
    that is no larger than the Lanczos basis goes through the dense
    symmetric eigensolver instead; ``path`` records which blocks did and
    why.  Certificates hold for every larger lambda_2, so a dense block
    that raises lambda_2 leaves earlier ones valid.  A block with an
    eigenvalue past 1 + 1e-3 raises :class:`NumericError`.  Nothing is
    random: reruns give bit-identical results.  Besides the blocks, one
    matrix of the first block's size is held, in Fortran order, and
    every factorisation runs in place in it.
    """
    blocks = _symmetric_blocks(chain)
    _deflate_stationary(chain, blocks[0])
    work = np.empty(blocks[0].size)
    # left end of P's Gershgorin discs: a lower bound on every eigenvalue;
    # the first block's deflated eigenvalue 0 has to clear -lambda_2 too
    p = chain.transition
    floor = float((2.0 * np.diagonal(p) - p.sum(axis=1)).min())
    lambda2 = 0.0
    path: list[str | None] = [None] * len(blocks)
    certify_top = set()

    def dense(k: int, reason: str) -> None:
        nonlocal lambda2
        vals = scipy.linalg.eigh(blocks[k], eigvals_only=True, overwrite_a=True)
        lambda2 = max(lambda2, float(vals[-1]), -float(vals[0]))
        path[k] = f"dense: {reason}"

    for k, block in enumerate(blocks):
        if len(block) <= _LANCZOS_BASIS:
            dense(k, "block too small")
            continue
        if k and _factors(work, block, -1.0, lambda2 + _TOP_SLACK) is not None:
            continue
        try:
            top = _lanczos_top(work, block)
        except ArpackNoConvergence:
            dense(k, "no convergence")
            continue
        if top is None:
            raise NumericError(
                f"an eigenvalue exceeds {1.0 + _SHIFT_GAP}; chain "
                f"{chain.label} is not a proper Metropolis restriction"
            )
        lambda2 = max(lambda2, top)
        certify_top.add(k)
    for k, block in enumerate(blocks):
        if path[k] is not None:
            continue
        if k in certify_top and _factors(
            work, block, -1.0, lambda2 + _TOP_SLACK
        ) is None:
            dense(k, "top certificate failed")
        elif min(floor, 0.0) > -lambda2 or _factors(work, block, 1.0, lambda2) is not None:
            path[k] = "extremal"
        else:
            dense(k, "bottom certificate failed")
    gap = min(1.0, max(0.0, 1.0 - lambda2))
    return SpectralResult(gap, lambda2, tuple(path))


def tv_decay_curve(
    chain: DiscretizedChain, start_index: int, n_steps: int
) -> np.ndarray:
    """Total variation distance to pi_hat after 0..n_steps transitions
    from the point mass at ``grid[start_index]``."""
    n = chain.n
    if not 0 <= start_index < n:
        raise ParameterError(f"start_index must lie in [0, {n - 1}]")
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    dist = np.zeros(n)
    dist[start_index] = 1.0
    out = np.empty(n_steps + 1)
    out[0] = 0.5 * float(np.abs(dist - chain.pi_hat).sum())
    for k in range(1, n_steps + 1):
        dist = dist @ chain.transition
        out[k] = 0.5 * float(np.abs(dist - chain.pi_hat).sum())
    return out


def classify_gap_trend(gap_small: float, gap_large: float) -> str:
    """Label the gap trend between a small and a large window.

    Ratios above 0.5 read as a stabilized gap ("geometric"); below 0.2 as
    collapse ("not_geometric"); the band between is "inconclusive" and is
    treated as a failure by the acceptance checks rather than rounded in
    either direction.
    """
    if not gap_small > 0:
        raise NumericError(f"small-window gap must be positive, got {gap_small}")
    ratio = gap_large / gap_small
    if ratio > 0.5:
        return "geometric"
    if ratio < 0.2:
        return "not_geometric"
    return "inconclusive"


class GapScanPoint(NamedTuple):
    half_width: float
    n: int
    gap: float
    lambda2: float
    construction_residual: float


def gap_growth_scan(
    target: TargetDensity,
    cov_field: CovarianceField,
    h: float,
    half_widths: Sequence[float],
    points_per_unit: int = 10,
) -> list[GapScanPoint]:
    """Spectral gap across an increasing family of windows.

    ``points_per_unit`` fixes the grid density so every window sees the
    same resolution; each row reports the gap together with the largest
    stationarity violation of the constructed chain, which should sit at
    float-rounding level whenever the row deserves trust.
    """
    hw = [float(v) for v in half_widths]
    if len(hw) < 2 or any(b <= a for a, b in zip(hw, hw[1:])):
        raise ParameterError("half_widths must be strictly increasing, length >= 2")
    if points_per_unit < 1:
        raise ParameterError("points_per_unit must be >= 1")
    out = []
    for half_width in hw:
        n = int(round(2.0 * half_width * points_per_unit)) + 1
        chain = build_discretized(target, cov_field, h, half_width, n)
        res = spectral_gap(chain)
        out.append(
            GapScanPoint(
                half_width, n, res.gap, res.lambda2, chain.stationarity_residual()
            )
        )
    return out


class QuadDriftResult(NamedTuple):
    estimate: float
    abserr: float


def drift_ratio_quadrature(
    target: TargetDensity,
    cov_field: CovarianceField,
    h: float,
    lyapunov: LyapunovFunction,
    x: float,
) -> QuadDriftResult:
    """Adaptive-quadrature route to E[V(X_1)] / V(x), one dimension.

    Integrates alpha(x, y) q(y | x) (V(y)/V(x) - 1) over twelve proposal
    standard deviations around ``x`` and adds 1; the integrand is
    composed inside a single exponential per term, so the huge V ratios
    the Monte Carlo probe has to clip never appear here.  Independent of
    the sampling code path on purpose: only the closed-form acceptance
    and the kernel's standard deviation are shared, so ``h <= 0`` and a
    field value at ``x`` that is not finite and positive raise as the
    kernel does.
    """
    if target.dim != 1 or cov_field.dim != 1:
        raise ParameterError("the drift quadrature is one-dimensional")
    xv = np.array([float(x)])
    std = gaussian_proposal(cov_field, h).std(float(x))
    log_norm = -math.log(std) - 0.5 * math.log(2.0 * math.pi)
    log_vx = lyapunov.log_evaluate(xv)

    def integrand(y: float) -> float:
        yv = np.array([y])
        la = log_accept_ratio_closed_form(target, cov_field, h, xv, yv)
        if la == -math.inf:
            return 0.0
        u = (y - float(x)) / std
        lq = log_norm - 0.5 * u * u
        dv = lyapunov.log_evaluate(yv) - log_vx
        return math.exp(la + lq + dv) - math.exp(la + lq)

    total = 0.0
    err = 0.0
    # wide ranges (large h) trip the slow-convergence warning; the
    # returned abserr already tells the caller how good the value is
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in ((x - 12.0 * std, x), (x, x + 12.0 * std)):
            val, abserr = quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-10)
            total += val
            err += abserr
    return QuadDriftResult(1.0 + total, err)


class JumpQuadResult(NamedTuple):
    step_size: float
    acceptance: float
    acceptance_err: float
    esjd: float
    esjd_err: float


def _jump_moments(
    target: TargetDensity, cov_field: CovarianceField, half_width: float,
    n: int, h: float,
) -> tuple[float, float]:
    """Stationary acceptance rate and squared jump of the grid chain on
    ``n`` nodes.  Its diagonal holds the stay mass, so each node's own
    term q(x_i | x_i) step, always accepted, is added back."""
    chain = build_discretized(target, cov_field, h, half_width, n)
    p, pi, x = chain.transition, chain.pi_hat, chain.grid
    g = cov_field.inv_metric_batch(x[:, None])[:, 0, 0]
    own = chain.step / np.sqrt(2.0 * math.pi * h * g)
    acc = float(pi @ (1.0 - np.diagonal(p) + own))
    # sum_j P_ij (x_i - x_j)^2, expanded into two products with P
    x2 = x * x
    jump = float(pi @ (p @ x2 - 2.0 * x * (p @ x) + x2))
    return acc, jump


def _check_nodes(n: int) -> None:
    if n < 101 or n % 2 == 0:
        raise ParameterError(f"need an odd node count >= 101, got {n}")


def _solve_step_size(
    moments: Callable[[int, float], tuple[float, float]], n: int, rate: float,
    h0: float, first_move: float,
) -> float:
    """Step size at which ``moments(n, h)`` puts the stationary
    acceptance at exactly ``rate``, searched outward from ``h0`` in log
    steps that start at ``first_move`` and double."""

    # brentq re-evaluates the bracket ends the search already has
    @functools.lru_cache(maxsize=None)
    def excess(log_h: float) -> float:
        return moments(n, math.exp(log_h))[0] - rate

    # acceptance falls as h grows: walk toward the root until the sign
    # flips
    a = math.log(h0)
    above = excess(a) > 0.0
    move = first_move if above else -first_move
    for _ in range(40):
        b = a + move
        if (excess(b) > 0.0) != above:
            lo, hi = sorted((a, b))
            return math.exp(brentq(excess, lo, hi, xtol=1e-10))
        a, move = b, 2.0 * move
    raise NumericError(f"no step size brackets acceptance {rate}")


def stationary_jump_quadrature(
    target: TargetDensity,
    cov_field: CovarianceField,
    h: float,
    half_width: float,
    n: int = 2001,
) -> JumpQuadResult:
    """Stationary acceptance rate and expected squared jump, one dimension.

    Both are moments of :func:`build_discretized`'s grid chain under
    pi_hat, the deterministic counterpart of a long chain's acceptance
    rate and mean squared jump.  They integrate pi(x) q(y | x)
    alpha(x, y), and the same times (y - x)^2, over
    [-half_width, half_width]^2 with pi normalized on the window and
    full weight at every node.  The trapezoid rule would halve the two
    end nodes' weights; a window that holds the target (mass outside it
    is not counted in the error estimates) has about e^-32 of its mass
    there.  The error estimates are the differences from the chain on
    ``(n + 1) // 2`` nodes.  The integrand has kinks where alpha reaches
    one, so the rule converges like the squared spacing and that
    difference overstates the error.  ``n`` must be odd and >= 101.
    """
    _check_nodes(n)
    moments = functools.partial(_jump_moments, target, cov_field, half_width)
    acc, jump = moments(n, h)
    acc_c, jump_c = moments((n + 1) // 2, h)
    return JumpQuadResult(float(h), acc, abs(acc - acc_c), jump, abs(jump - jump_c))


def tuned_jump_quadrature(
    target: TargetDensity,
    cov_field: CovarianceField,
    rate: float,
    half_width: float,
    n: int = 2001,
) -> JumpQuadResult:
    """Expected squared jump at the step size with stationary acceptance
    exactly ``rate``.

    The step size is solved separately on the ``n``-node and the
    ``(n + 1) // 2``-node chain, so ``esjd_err`` carries both the rule's
    error and its effect through the solved step size;
    ``acceptance_err`` is how far the halved rule puts the acceptance at
    the reported step size.
    """
    if not 0.0 < rate < 1.0:
        raise ParameterError(f"target rate must lie in (0,1), got {rate}")
    _check_nodes(n)
    moments = functools.partial(_jump_moments, target, cov_field, half_width)
    m = (n + 1) // 2
    h_c = _solve_step_size(moments, m, rate, 1.0, 0.1)
    h = _solve_step_size(moments, n, rate, h_c, 1e-3)
    res = stationary_jump_quadrature(target, cov_field, h, half_width, n)
    return res._replace(esjd_err=abs(res.esjd - moments(m, h_c)[1]))
