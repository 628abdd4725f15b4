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
density ratio and so cannot overflow; only transition rows are stored,
and the symmetric matrix is formed from them when the spectrum is
wanted.  When target, field and grid are symmetric under x -> -x, so is
the chain: P[i, j] = P[n-1-i, n-1-j], so only the rows from n//2 up are
computed and stored, and every reader reaches a lower row through that
mirror.  The symmetric matrix then splits into an even and an odd block
of about n/2 that are solved separately.  The blocks are formed one at a
time, each as its lower triangle only, and a block is dropped before the
next is formed: besides the stored rows, the solve holds one block.

The gap needs only the extremes of the spectrum.  The known eigenvector
sqrt(pi) of eigenvalue 1 is projected out, shift-invert Lanczos finds
the top of what is left, and Cholesky factorisations (or, at the bottom,
Gershgorin discs) certify that no eigenvalue lies beyond lambda_2 at
either end.  Each factorisation runs in the block's own strict upper
triangle.  The odd block first tries to certify its top at the even
block's lambda_2 with one factorisation, unless the even block's top
eigenvector, carried over to the odd block, has a Rayleigh quotient
there that already proves the try would fail.  A block that cannot be
certified that way is diagonalized by the dense symmetric eigensolver,
and the result records which path each block took.

The module also holds the deterministic routes the Monte Carlo probes
are checked against: adaptive quadrature for the one-step drift ratio,
and the stationary acceptance rate and expected squared jump as moments
of the grid chain, with the difference from the chain on half the
nodes as their error estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# the spectral solve reaches LAPACK, BLAS and ARPACK, the drift quadrature
# QUADPACK and the step-size solve Brent's method through ._compiled,
# which loads scipy's compiled extensions on first use and imports none of
# scipy.linalg, scipy.sparse, scipy.integrate or scipy.optimize, so that
# `import pdrwm` loads only numpy and PyYAML
# (tests/test_exports.py::TestStartUp)

from . import _compiled
from .chain import _closed_form_at
from .diagnostics import LyapunovFunction, _check_rate
from .errors import DiscretizationError, NumericError, ParameterError
from .fields import CovarianceField
from .proposals import _stds, _step_size, gaussian_proposal
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

#: entries per row block of the n x n passes: the build's one scratch row
#: block and each temporary of the block former is 0.5 MB, small enough
#: that a block's several elementwise passes stay in cache and small
#: beside the one block held
_BLOCK_ENTRIES = 1 << 16

#: relative tolerance of the x -> -x symmetry test
_MIRROR_RTOL = 1e-12

#: shift-invert Lanczos inverts (1 + _SHIFT_GAP) I - B, just above the
#: spectrum's bound of 1
_SHIFT_GAP = 1e-3

#: slack of the certificate that no eigenvalue exceeds lambda_2
_TOP_SLACK = 1e-12

#: rounding margin of a Rayleigh quotient in a block: a quotient past
#: lambda_2 + _TOP_SLACK by more than this proves that the block has an
#: eigenvalue past lambda_2 + _TOP_SLACK, far beyond the quotient's own
#: rounding error of about m * 1e-16
_RAYLEIGH_MARGIN = 1e-9

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

    ``rows`` holds rows ``first..n-1`` of the row-stochastic transition
    matrix P and is the only large array stored; ``pi_hat`` is the
    grid-renormalized target.  ``mirrored`` records that the problem is
    symmetric under x -> -x, so that ``P[i, j] == P[n-1-i, n-1-j]``
    exactly: then ``first = n // 2`` and the lower rows are read through
    that mirror.  Otherwise ``first = 0`` and ``rows`` is all of P.
    """

    grid: np.ndarray
    step: float
    rows: np.ndarray
    pi_hat: np.ndarray
    label: str
    mirrored: bool

    def __post_init__(self) -> None:
        want = (self.n - self.first, self.n)
        if np.shape(self.rows) != want:
            kind = "mirrored" if self.mirrored else "unmirrored"
            raise ParameterError(
                f"a {kind} chain on {self.n} nodes stores rows of shape "
                f"{want}, got {np.shape(self.rows)}"
            )

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def first(self) -> int:
        """Index of the first row of P that ``rows`` holds."""
        return self.n // 2 if self.mirrored else 0

    @property
    def transition(self) -> np.ndarray:
        """The whole n x n matrix P: the stored rows and, for a mirrored
        chain, their reversed copy.  Allocated anew on every access."""
        n, f = self.n, self.first
        p = np.empty((n, n))
        p[f:] = self.rows
        p[:f] = p[n - f:][::-1, ::-1]
        return p

    @property
    def symmetrized(self) -> np.ndarray:
        """The similarity transform D^{1/2} P D^{-1/2}, D = diag(pi_hat),
        formed on demand as sqrt(P_ij P_ji), which detailed balance makes
        the same matrix.  Allocated anew on every access."""
        n, f = self.n, self.first
        sym = np.empty((n, n))
        for i0, i1 in _row_blocks(n, start=f):
            rows = _times_transpose(self, i0, i1, 0, n, sym[i0:i1])
            np.sqrt(rows, out=rows)
        sym[:f] = sym[n - f:][::-1, ::-1]
        return sym

    def row_sum_residual(self) -> float:
        return float(np.abs(self.rows.sum(axis=1) - 1.0).max())

    def stationarity_residual(self) -> float:
        """Largest |(pi P)_j - pi_j|.  A mirrored chain's lower rows i
        contribute pi_i P[n-1-i, n-1-j], a reversed product with the
        stored rows."""
        pi, rows, f = self.pi_hat, self.rows, self.first
        flow = pi[f:] @ rows
        if f:
            flow += (pi[f - 1::-1] @ rows[self.n % 2:])[::-1]
        return float(np.abs(flow - pi).max())

    def reversibility_residual(self) -> float:
        """Largest |pi_i P_ij - pi_j P_ji|, taken one row block of the
        stored rows at a time.  For a mirrored chain the pair (i, j) has
        the value of (n-1-i, n-1-j), so the stored rows cover every
        pair."""
        pi, f = self.pi_hat, self.first
        worst = 0.0
        for i0, i1 in _row_blocks(self.n, start=f):
            flow = pi[i0:i1, None] * self.rows[i0 - f:i1 - f]
            for c0, c1, slab in _column_slabs(self, i0, i1, 0, self.n):
                flow[:, c0:c1] -= (pi[c0:c1, None] * slab).T
            worst = max(worst, float(np.abs(flow, out=flow).max()))
        return worst


def _column_slabs(chain: DiscretizedChain, i0: int, i1: int, c0: int, c1: int):
    """P[c0:c1, i0:i1], for stored rows ``i0 >= first``, as (start, stop,
    view) pieces over the stored rows: rows c below ``first`` are read
    through the mirror P[c, i] = P[n-1-c, n-1-i], as a reversed view."""
    rows, n, f = chain.rows, chain.n, chain.first
    split = min(max(c0, f), c1)
    if c0 < split:
        yield c0, split, rows[n - f - split:n - f - c0, n - i1:n - i0][::-1, ::-1]
    if split < c1:
        yield split, c1, rows[split - f:c1 - f, i0:i1]


def _times_transpose(
    chain: DiscretizedChain, i0: int, i1: int, c0: int, c1: int, out: np.ndarray
) -> np.ndarray:
    """P[i0:i1, c0:c1] * P[c0:c1, i0:i1].T into ``out``, for stored rows
    ``i0 >= first``."""
    mine = chain.rows[i0 - chain.first:i1 - chain.first]
    for a, b, slab in _column_slabs(chain, i0, i1, c0, c1):
        np.multiply(mine[:, a:b], slab.T, out=out[:, a - c0:b - c0])
    return out


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
    g = np.array(cov_field.inv_metric_batch(points), dtype=float)
    return lp, g


def _check_spacing(step: float, std: np.ndarray) -> None:
    finest = float(std.min())
    max_step = SPACING_FRACTION * finest
    # grids built by linspace land on the limit up to rounding; only a
    # genuinely coarser spacing is an error
    if step > max_step * (1.0 + 1e-9):
        raise DiscretizationError(
            f"grid spacing {step:g} too coarse: finest proposal std is "
            f"{finest:g}, so spacing must be at most {max_step:g}"
        )


def _log_move_rows(
    grid: np.ndarray, lp: np.ndarray, log_norm: np.ndarray,
    inv_two_hg: np.ndarray, i0: int, i1: int, out: np.ndarray, lq: np.ndarray,
) -> None:
    """Log of q(x_j | x_i) alpha(x_i, x_j) for rows i0:i1, written into
    ``out``, where log q(x_j | x_i) = log_norm[i] - (x_i - x_j)^2
    inv_two_hg[i].  ``lq``, of ``out``'s shape, is scratch.

    The operations and their order are those of
    ``lq + log_accept_terms(lp_x, lp_y, lq, lq_rev)`` on whole arrays, so
    each entry gets the same bits, but every pass writes into ``out`` or
    ``lq``: no row-block temporary is allocated."""
    col = (slice(i0, i1), None)
    d2 = np.subtract(grid[col], grid[None, :], out=lq)
    np.square(d2, out=d2)
    # lq_rev = log_norm_j - d2 inv_two_hg_j, then lp_j + lq_rev - lp_i
    np.multiply(d2, inv_two_hg[None, :], out=out)
    np.subtract(log_norm[None, :], out, out=out)
    np.add(lp[None, :], out, out=out)
    np.subtract(out, lp[col], out=out)
    # lq = log_norm_i - d2 inv_two_hg_i, over d2
    np.multiply(d2, inv_two_hg[col], out=lq)
    np.subtract(log_norm[col], lq, out=lq)
    np.subtract(out, lq, out=out)
    # log_accept_terms' min(0, .), in its argument order
    np.minimum(0.0, out, out=out)
    out += lq


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

    One-dimensional targets with full support only.  A step size or
    field value the kernel refuses raises its error, naming the first
    such node.
    """
    if target.dim != 1 or cov_field.dim != 1:
        raise ParameterError("the oracle discretizes one-dimensional problems")
    if n < 50:
        raise ParameterError(f"need at least 50 grid points, got {n}")
    if not half_width > 0:
        raise ParameterError(f"half_width must be positive, got {half_width}")
    _step_size(h)

    grid = np.linspace(-half_width, half_width, n)
    step = float(grid[1] - grid[0])
    lp, g = _grid_values(target, cov_field, grid)
    _check_spacing(step, _stds(h, g, grid[:, None]))

    # a mirrored chain has P[i, j] == P[n-1-i, n-1-j]: only the rows from
    # n//2 up are computed and stored
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
    log_norm = -0.5 * math.log(2.0 * math.pi * h) - 0.5 * np.log(g)
    inv_two_hg = 1.0 / (2.0 * h * g)
    rows = np.empty((n - s, n))
    # one row block of scratch serves every block of rows
    scratch = np.empty_like(rows[:max(1, _BLOCK_ENTRIES // n)])
    for i0, i1 in _row_blocks(n, start=s):
        block = rows[i0 - s:i1 - s]
        _log_move_rows(grid, lp, log_norm, inv_two_hg, i0, i1, block, scratch[:i1 - i0])
        block += log_step
        np.exp(block, out=block)

    # P[i, i] for the stored rows i = s..n-1
    diagonal = rows.reshape(-1)[s::n + 1]
    diagonal[:] = 0.0
    stay = 1.0 - rows.sum(axis=1)
    if float(stay.min()) < -1e-10:
        raise DiscretizationError(
            f"off-diagonal mass overshoots a row by {-float(stay.min()):g}; "
            "refine the grid"
        )
    np.clip(stay, 0.0, None, out=diagonal)

    w = np.exp(lp - lp.max())
    pi_hat = w / w.sum()

    label = f"grid(L={half_width:g},n={n},h={h:g},{cov_field.label},{target.label})"
    return DiscretizedChain(grid, step, rows, pi_hat, label, mirrored)


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


def _symmetric_block(chain: DiscretizedChain, k: int) -> np.ndarray:
    """Block ``k`` of the symmetrized matrix S = sqrt(P o P^T): the whole
    matrix, or for a mirrored chain its even (k = 0) or odd (k = 1)
    block.  Only the lower triangle and the diagonal are formed; the
    strict upper triangle is left unset, as scratch space for
    :func:`_mirrored`.

    S commutes with the reversal i -> n-1-i of a mirrored chain, so in the
    basis (e_i +- e_{n-1-i}) / sqrt(2) it splits in two.  With o = n//2
    for the even block and o = n - n//2 for the odd one, entry (k, l) is
    S[o+k, o+l] +- S[o+k, n-1-o-l].  For odd n the centre basis vector is
    e_c alone: the even block's centre row and column carry 1/sqrt(2) of
    that sum, and the odd block drops them.  Rows are written one row
    block at a time, from the one stretch of S's columns they read; the
    stretch below the stored rows is read through the mirror
    (:func:`_column_slabs`).

    Formed in full, each block would be symmetric to the bit: P's lower
    rows are exact mirror images of its upper ones, and each entry of S
    is a product of the same two factors in either order.  So the lower
    triangle alone carries the block.
    """
    n = chain.n
    if not chain.mirrored:
        block = np.empty((n, n))
        for i0, i1 in _row_blocks(n):
            rows = _times_transpose(chain, i0, i1, 0, i1, block[i0:i1, :i1])
            np.sqrt(rows, out=rows)
        return block
    o = n // 2 if k == 0 else n - n // 2
    m = n - o
    block = np.empty((m, m))
    combine = np.add if k == 0 else np.subtract
    for i0, i1 in _row_blocks(n, start=o):
        k0, k1 = i0 - o, i1 - o
        # rows k0:k1 up to column k1 read S[i, o:o+k1] and, reversed,
        # S[i, m-k1:m]
        c0 = m - k1
        rows = np.empty((i1 - i0, o + k1 - c0))
        _times_transpose(chain, i0, i1, c0, o + k1, rows)
        np.sqrt(rows, out=rows)
        combine(rows[:, o - c0:o - c0 + k1], rows[:, k1 - 1::-1], out=block[k0:k1, :k1])
    if k == 0 and n % 2:
        block[:, 0] *= math.sqrt(0.5)
        block[0, 0] *= math.sqrt(0.5)
    return block


def _quadratic_form(block: np.ndarray, v: np.ndarray) -> float:
    """v^T B v for the block B whose lower triangle ``block`` holds."""
    # the Fortran view's upper triangle is the block's lower one
    return float(v @ _compiled.symv(block.T, v, lower=0))


def _deflate_stationary(chain: DiscretizedChain, block: np.ndarray) -> None:
    """Check that the unit vector u = sqrt(pi_hat) carries eigenvalue 1 of
    the first block and subtract u u^T from its lower triangle in place,
    which moves that eigenvalue to 0.  For a mirrored chain u is folded
    into the even block: its upper half times sqrt(2), the odd-n centre
    once."""
    u = np.sqrt(chain.pi_hat)
    if chain.mirrored:
        s = chain.n // 2
        u = u[s:] * math.sqrt(2.0)
        if chain.n % 2:
            u[0] = math.sqrt(chain.pi_hat[s])
    lead = _quadratic_form(block, u)
    if abs(lead - 1.0) > 1e-6:
        raise NumericError(
            f"stationary Rayleigh quotient {lead!r} is not 1; chain "
            f"{chain.label} is not a proper Metropolis restriction"
        )
    for i0, i1 in _row_blocks(len(u)):
        block[i0:i1, :i1] -= u[i0:i1, None] * u[None, :i1]


def _mirrored(block: np.ndarray, d: np.ndarray, sign: float, shift: float) -> np.ndarray:
    """``sign * B + shift * I`` written into the strict upper triangle and
    the diagonal of ``block``, from B's lower triangle and its saved
    diagonal ``d``, and returned as the Fortran view ``block.T``, whose
    lower triangle that is.  B's lower triangle is left as it was."""
    m = len(block)
    # square tiles of _BLOCK_ENTRIES entries: a transposed copy of a whole
    # row block reads too many rows of the block to stay in cache
    tile = min(m, math.isqrt(_BLOCK_ENTRIES))
    upper = np.triu(np.ones((tile, tile), dtype=bool), 1)
    for i0 in range(0, m, tile):
        i1 = min(i0 + tile, m)
        square = block[i0:i1, i0:i1]
        np.copyto(square, square.T * sign, where=upper[: i1 - i0, : i1 - i0])
        for j0 in range(i1, m, tile):
            j1 = min(j0 + tile, m)
            np.multiply(block[j0:j1, i0:i1].T, sign, out=block[i0:i1, j0:j1])
    diagonal = block.reshape(-1)[:: m + 1]
    np.multiply(d, sign, out=diagonal)
    diagonal += shift
    return block.T


def _factors(block: np.ndarray, d: np.ndarray, sign: float, shift: float):
    """Cholesky factor of ``sign * B + shift * I``, where ``block`` holds
    B's lower triangle and ``d`` its diagonal, or None if that matrix is
    not positive definite.  The matrix is written into the block's strict
    upper triangle and diagonal (:func:`_mirrored`) and factored there in
    place, so B's lower triangle survives and the factor is the lower
    triangle of the Fortran view ``block.T``."""
    factor, info = _compiled.potrf(_mirrored(block, d, sign, shift), lower=1)
    if info < 0:
        raise NumericError(f"LAPACK potrf rejected argument {-info}")
    return factor if info == 0 else None


def _lanczos_top(block: np.ndarray, d: np.ndarray) -> float | None:
    """Largest eigenvalue of the block B (lower triangle ``block``,
    diagonal ``d``) by Lanczos on the inverse of ``(1 + _SHIFT_GAP) I -
    B``, or None if that matrix is not positive definite: then the block
    has an eigenvalue past the bound of 1 that every stochastic matrix
    keeps.

    One Cholesky factorisation serves every Lanczos step as a pair of
    triangular solves.  The start vector is fixed, so the result is
    deterministic, and it is not mirror-symmetric, so that a mirrored
    chain solved whole still reaches its odd eigenvectors.  Lanczos stops
    after about ``len(block)`` solves and then raises
    :class:`pdrwm._compiled.ArpackNoConvergence`.  That cap lies well
    past the point where the dense solver is cheaper: dense ``eigh`` of a
    block costs about 120 solves at 800 rows, 230 at 1600 and 400 at 4000
    (CPU time, one BLAS thread, a 2-CPU Xeon box).  It stays, because a
    lower cap would send the solves that need more steps to the dense
    solver, whose lambda_2 differs in its last bits.
    """
    m = len(block)
    shift = 1.0 + _SHIFT_GAP
    factor = _factors(block, d, -1.0, shift)
    if factor is None:
        return None

    def solve(x: np.ndarray) -> np.ndarray:
        return _compiled.potrs(factor, x, lower=1)

    mu = _compiled.largest_eigenvalue(
        solve, np.linspace(1.0, 2.0, m), ncv=_LANCZOS_BASIS,
        maxiter=max(1, m // _LANCZOS_BASIS),
    )
    return shift - 1.0 / mu


def _top_vector(factor: np.ndarray) -> np.ndarray:
    """The top eigenvector of B, unnormalised, from the Cholesky
    ``factor`` of ``(lambda_2 + delta) I - B`` that certified B's top at
    its own top eigenvalue lambda_2: that matrix has eigenvalue delta =
    1e-12 along the top eigenvector and at least B's spectral gap along
    the rest, so one solve on a fixed vector returns the top eigenvector
    to within about delta over that gap."""
    return _compiled.potrs(factor, np.linspace(1.0, 2.0, len(factor)), lower=1)


def _top_exceeds(block: np.ndarray, v: np.ndarray, bound: float) -> bool:
    """Whether the Rayleigh quotient in the block B (lower triangle
    ``block``) of the positive part of ``v``, or of its negative part,
    exceeds ``bound`` by more than ``_RAYLEIGH_MARGIN``.  No Rayleigh
    quotient exceeds B's top eigenvalue, so then ``bound * I - B`` is not
    positive definite, and its Cholesky factorisation would fail."""
    for part in (np.maximum(v, 0.0), np.minimum(v, 0.0)):
        norm2 = float(part @ part)
        if norm2 > 0.0 and _quadratic_form(block, part) > (bound + _RAYLEIGH_MARGIN) * norm2:
            return True
    return False


def _solve_block(
    chain: DiscretizedChain, k: int, lambda2: float, floor: float,
    probe: np.ndarray | None,
) -> tuple[float, str, np.ndarray | None]:
    """Form block ``k`` of the symmetrized chain, raise ``lambda2`` to its
    largest |eigenvalue| other than the stationary 1, and return it with
    the block's path.  Steps 1-3 of :func:`spectral_gap`; the block is
    dropped on return.

    ``probe`` is a vector in the block's coordinates whose Rayleigh
    quotients may prove that the try of step 2 fails, or None.  The
    even block of a mirrored chain certified by Lanczos returns its top
    eigenvector in the odd block's coordinates as the odd block's probe:
    an even mode of (e_i + e_{n-1-i}) / sqrt(2) maps to the odd mode
    (e_i - e_{n-1-i}) / sqrt(2) of the same index, and the odd-n centre,
    which the odd block lacks, is dropped.  Every other return gives
    None."""
    block = _symmetric_block(chain, k)
    if k == 0:
        _deflate_stationary(chain, block)
    d = block.diagonal().copy()

    def dense(reason: str) -> tuple[float, str, None]:
        vals = _compiled.eigvalsh(_mirrored(block, d, 1.0, 0.0))
        return max(lambda2, float(vals[-1]), -float(vals[0])), f"dense: {reason}", None

    if len(block) <= _LANCZOS_BASIS:
        return dense("block too small")
    bound = lambda2 + _TOP_SLACK
    top_vector = None
    if (
        k == 0
        or (probe is not None and _top_exceeds(block, probe, bound))
        or _factors(block, d, -1.0, bound) is None
    ):
        try:
            top = _lanczos_top(block, d)
        except _compiled.ArpackNoConvergence:
            return dense("no convergence")
        if top is None:
            raise NumericError(
                f"an eigenvalue exceeds {1.0 + _SHIFT_GAP}; chain "
                f"{chain.label} is not a proper Metropolis restriction"
            )
        lambda2 = max(lambda2, top)
        factor = _factors(block, d, -1.0, lambda2 + _TOP_SLACK)
        if factor is None:
            return dense("top certificate failed")
        if k == 0 and chain.mirrored:
            # the even block's lambda_2 is its own top; the bottom
            # certificate is about to overwrite the factor
            top_vector = _top_vector(factor)[chain.n % 2:]
    if min(floor, 0.0) > -lambda2 or _factors(block, d, 1.0, lambda2) is not None:
        return lambda2, "extremal", top_vector
    return dense("bottom certificate failed")


@_compiled.one_blas_thread("scipy", "numpy")
def spectral_gap(chain: DiscretizedChain) -> SpectralResult:
    """Spectral gap 1 - |lambda_2| of the grid chain.

    The symmetrized matrix is split into the even and odd blocks of a
    mirrored chain (each about n/2), or kept whole otherwise.  The gap
    needs only the extremes of each block's spectrum, so no block is
    diagonalized in full.  The blocks are solved in turn, each formed
    only when its turn comes (:func:`_symmetric_block`):

    1. The first block (the even one, or the whole matrix) holds
       eigenvalue 1, with eigenvector sqrt(pi_hat).  Its Rayleigh
       quotient must be 1 to six decimals, or the chain construction
       itself is broken (:class:`NumericError`).  Its projector is then
       subtracted in place, which moves that eigenvalue to 0.
    2. The first block's top eigenvalue comes from shift-invert Lanczos
       (:func:`_lanczos_top`).  The odd block first tries one Cholesky
       factorisation of ``(lambda_2 + delta) I - B``, delta = 1e-12, at
       the lambda_2 of the first block; only if that fails does it run
       Lanczos too and raise lambda_2.  The try is skipped where it is
       proven to fail.  The even block's top certificate (step 3)
       factors a matrix with eigenvalue delta along the even block's
       top eigenvector, so one solve with that factor returns the
       eigenvector (:func:`_top_vector`).  Carried over to the odd
       block's indices, its positive part and its negative part each
       have a Rayleigh quotient there (:func:`_top_exceeds`), and no
       Rayleigh quotient exceeds the top eigenvalue.  If either
       quotient exceeds lambda_2 + delta by more than a rounding margin
       of 1e-9, the odd block's top does too, so the try would fail, and
       the odd block goes straight to Lanczos.  Lanczos and the
       certificates then run as after a failed try, so the skip changes
       neither lambda_2 nor ``path``, only which factorisations run.
    3. The block is then certified at the lambda_2 reached so far.  Top:
       a Cholesky factorisation of ``(lambda_2 + delta) I - B`` succeeds,
       so no eigenvalue lies above lambda_2 + delta, which a Lanczos
       start vector blind to the top eigenvector would break (a tried
       block already holds this).  Bottom: every eigenvalue lies above
       -lambda_2, by the Gershgorin discs of P (whose spectrum the blocks
       share), or else by a Cholesky factorisation of ``B + lambda_2 I``.

    A block whose certificate fails, whose Lanczos does not converge, or
    that is no larger than the Lanczos basis goes through the dense
    symmetric eigensolver instead; ``path`` records which blocks did and
    why.  Certificates hold for every larger lambda_2, so a later block
    that raises lambda_2 leaves earlier ones valid.  A block with an
    eigenvalue past 1 + 1e-3 raises :class:`NumericError`.  Nothing is
    random (ARPACK's rare request for a random start vector is met from a
    generator seeded with 0), and the solve runs with the OpenBLAS bundled
    in the scipy and numpy wheels at one thread
    (:func:`pdrwm._compiled.one_blas_thread`), so reruns give
    bit-identical results at any thread count the caller sets; with a BLAS
    whose thread setter is not found, only reruns at one thread count do.
    Where the caller gave BLAS more threads, the pin costs wall time (18%
    on ``table1_grid`` at two threads) and saves CPU time.  Besides the
    stored rows, one block is held at a time: its lower triangle keeps B, and
    every factorisation and the dense solver run in place in its strict
    upper triangle and diagonal, with B's diagonal saved as a vector.
    """
    # left end of P's Gershgorin discs: a lower bound on every eigenvalue;
    # the first block's deflated eigenvalue 0 has to clear -lambda_2 too.
    # The stored rows hold every row's entries
    rows = chain.rows
    floor = float((2.0 * np.diagonal(rows, offset=chain.first) - rows.sum(axis=1)).min())
    lambda2, probe = 0.0, None
    path = []
    for k in range(2 if chain.mirrored else 1):
        lambda2, how, probe = _solve_block(chain, k, lambda2, floor, probe)
        path.append(how)
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
    p = chain.transition
    out = np.empty(n_steps + 1)
    out[0] = 0.5 * float(np.abs(dist - chain.pi_hat).sum())
    for k in range(1, n_steps + 1):
        dist = dist @ p
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
    the Monte Carlo probe has to clip never appear here.  A ratio past
    the float range raises ``NumericError``.  Independent of the sampling
    code path on purpose: only the closed-form acceptance and the
    kernel's standard deviation are shared, so a step size or field
    value the kernel refuses raises its error.  The integrand runs on
    Python floats, through the closed form bound once at ``x``.
    """
    if target.dim != 1 or cov_field.dim != 1:
        raise ParameterError("the drift quadrature is one-dimensional")
    xv = np.array([float(x)])
    std = gaussian_proposal(cov_field, h).at((float(x),))[0]
    accept = _closed_form_at(target, cov_field, h, xv)
    log_norm = -math.log(std) - 0.5 * math.log(2.0 * math.pi)
    log_evaluate = lyapunov.log_evaluate
    log_vx = log_evaluate(xv)
    x0, exp = float(x), math.exp

    def integrand(y: float) -> float:
        la = accept(y)
        u = (y - x0) / std
        lq = log_norm - 0.5 * u * u
        dv = log_evaluate((y,)) - log_vx
        try:
            return exp(la + lq + dv) - exp(la + lq)
        except OverflowError:
            raise NumericError(
                f"E[V(X_1)]/V(x) of {lyapunov.label} at x={x0!r} exceeds the float range"
            ) from None

    total = 0.0
    err = 0.0
    # wide ranges (large h) end QUADPACK short of its tolerance, which
    # _compiled.quad does not report; the returned abserr tells the
    # caller how good the value is
    for lo, hi in ((x - 12.0 * std, x), (x, x + 12.0 * std)):
        val, abserr = _compiled.quad(integrand, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-10)
        total += val
        err += abserr
    return QuadDriftResult(1.0 + total, err)


class JumpQuadResult(NamedTuple):
    step_size: float
    acceptance: float
    acceptance_err: float
    esjd: float
    esjd_err: float


@_compiled.one_blas_thread("numpy")
def _jump_moments(
    target: TargetDensity, cov_field: CovarianceField, half_width: float,
    n: int, h: float,
) -> tuple[float, float]:
    """Stationary acceptance rate and squared jump of the grid chain on
    ``n`` nodes.  Its diagonal holds the stay mass, so each node's own
    term q(x_i | x_i) step, always accepted, is added back.  The products
    with P run at one BLAS thread, so their bits do not depend on the
    caller's thread count."""
    chain = build_discretized(target, cov_field, h, half_width, n)
    p, pi, x = chain.transition, chain.pi_hat, chain.grid
    g = cov_field.inv_metric_batch(x[:, None])
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
    steps that start at ``first_move`` and double.

    A probe whose proposal the grid cannot resolve raises
    :class:`DiscretizationError` naming that probe's step size and the
    last step size the grid resolved, with its acceptance, so the
    message says how far the rate lies beyond the grid."""
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
        try:
            flipped = (excess(b) > 0.0) != above
        except DiscretizationError as err:
            raise DiscretizationError(
                f"{err}; this grid cannot reach acceptance {rate:g}: it resolved "
                f"step size {math.exp(a):g}, of acceptance {excess(a) + rate:g}, "
                f"but not the next probe, {math.exp(b):g}"
            ) from err
        if flipped:
            lo, hi = sorted((a, b))
            return math.exp(_compiled.brentq(excess, lo, hi, xtol=1e-10))
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
    _check_rate(rate)
    _check_nodes(n)
    moments = functools.partial(_jump_moments, target, cov_field, half_width)
    m = (n + 1) // 2
    h_c = _solve_step_size(moments, m, rate, 1.0, 0.1)
    h = _solve_step_size(moments, n, rate, h_c, 1e-3)
    res = stationary_jump_quadrature(target, cov_field, h, half_width, n)
    return res._replace(esjd_err=abs(res.esjd - moments(m, h_c)[1]))
