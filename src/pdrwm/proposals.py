"""Proposal kernels and truncated-Gaussian helpers.

The central kernel is the position-dependent Gaussian random walk built
from a covariance field: from ``x`` it proposes ``y ~ N(x, h * S(x))``.
Two uniform kernels over moving planar shapes (a level-dependent ellipse,
and the unit disc, the same kernel at unit width) support the
narrowing-rectangle analysis, where acceptance probabilities reduce to
area ratios.  The ellipse's width is the staircase level's half-width
from :class:`~pdrwm.targets.RectangleDensity`, in its per-point and batch
forms alike; it is subnormal from level 646 up (and 0.0 from level 680),
where the ellipse raises ``NumericError``.

Three rules here decide where the Gaussian kernel exists: ``_step_size``,
``_field_value`` (1-D) and ``_cholesky`` (a covariance above 1-D).  Every
route that reads a step size or a field value raises through them; a
per-step or batch path tests a cheap mask and calls a rule where it fails.
``_cholesky`` is also the factor itself: a covariance must be finite and
factor under LAPACK's ``potf2`` operations, done on Python floats, which
in 2-D are ``l11 = sqrt(a11)``, ``l21 = a21 * (1 / l11)`` and
``l22 = sqrt(a22 - l21 * l21)`` with a positive argument to each root.
With ``_solve_lower``, its ``trtrs`` counterpart, it gives the kernel
LAPACK's bits without scipy.

Argument order convention: ``log_q(y, x, at(x))`` is the log density at
``y`` of the proposal launched from ``x``, where ``at(x)`` is what that
proposal depends on.  ``log_q_batch(ys, xs)`` is the same density over
rows: one start point against an ``(m, dim)`` array of end points, or an
``(m, dim)`` array of start points against one end point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# scipy.special is imported inside the truncated-Gaussian mass, so that
# `import pdrwm` loads only numpy (tests/test_exports.py)

from .errors import NumericError, ParameterError
from .fields import CovarianceField
from .targets import RectangleDensity

__all__ = [
    "ProposalKernel",
    "UniformBlock",
    "gaussian_proposal",
    "circle_proposal",
    "ellipse_proposal",
    "TruncatedGaussianSpec",
    "truncated_mean",
    "truncated_mgf",
    "gaussian_tail_bound",
]

_LOG_2PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UniformBlock:
    """A kernel's proposals drawn from plain uniform doubles, many steps
    at a time.

    A kernel that consumes a fixed number ``k`` of uniform doubles per
    proposal can hand a chain this form: the chain draws the uniforms of
    a chunk of steps in one call, the kernel turns them into offsets in
    one numpy pass, and ``move`` places each proposal on Python floats.
    ``move(x, at(x), offsets(u)[0])`` is ``sample(x, at(x), rng)`` bit for
    bit when ``u`` holds the ``k`` uniforms ``sample`` would draw.  A
    chain takes the block only while the kernel's ``sample`` is the one
    the block names, so a replaced ``sample`` is drawn step by step.

    Attributes
    ----------
    k : int
        Uniform doubles per proposal.
    offsets : callable
        ``offsets(us)`` maps an ``(m, k)`` array of uniforms in [0, 1),
        row ``i`` holding proposal ``i``'s in stream order, to an
        ``(m, dim)`` array of offsets.  It may write them over ``us``.
    move : callable
        ``move(x, at(x), offset)`` is the proposal from ``x`` at
        ``offset``, a sequence of ``dim`` Python floats, as a tuple.
    sample : callable
        The kernel's ``sample`` that the block reproduces.
    """

    k: int
    offsets: Callable[[np.ndarray], np.ndarray]
    move: Callable[[Sequence[float], tuple, Sequence[float]], tuple]
    sample: Callable[[Sequence[float], tuple, np.random.Generator], tuple]


@dataclass(frozen=True)
class ProposalKernel:
    """A Markov proposal mechanism with evaluable density.

    The per-point callables take a point as a sequence of ``dim`` Python
    floats (a tuple or a list) and carry ``at(x)``, what the proposal from
    ``x`` depends on, so that a chain computes it once per point and
    carries it with the state.  :func:`~pdrwm.chain.run_chain`,
    :func:`~pdrwm.chain.mh_step` and :func:`~pdrwm.chain.log_accept_ratio`
    all move through them: a chain reads ``at`` and ``log_q``, and draws
    its proposals through ``block`` while the block reproduces ``sample``
    (the unit disc and the staircase ellipse), else through ``sample``
    (the Gaussian, and a kernel whose ``sample`` was replaced).  So a
    kernel built with ``dataclasses.replace`` reaches every chain.

    Attributes
    ----------
    dim : int
        State dimension.
    at : callable
        ``at(x)`` is what the proposal from ``x`` depends on (its scale).
        It raises :class:`NumericError` where the kernel cannot propose
        from ``x``.
    sample : callable
        ``sample(x, at(x), rng)`` draws one proposal from ``x`` as a tuple.
    log_q : callable
        ``log_q(y, x, at(x))`` is the log proposal density at ``y`` given
        start ``x``; ``-inf`` where the proposal cannot reach.
    label : str
        Identifier used in config digests.
    sample_batch : callable
        ``sample_batch(x, n, rng)`` draws ``n`` proposals from the array
        start ``x`` as an ``(n, dim)`` array, following the distribution
        of ``n`` calls of ``sample``.  The Gaussian's draws are those
        calls' draws, bit for bit and in order; the ellipse's are not
        draw for draw, as it consumes the stream in another order.
    log_q_batch : callable
        ``log_q_batch(ys, xs)`` is ``log_q`` over rows as an ``(m,)``
        array: ``ys`` of shape ``(m, dim)`` against one start ``xs`` of
        shape ``(dim,)``, or one end point ``ys`` against ``m`` starts
        ``xs``.  Agrees with ``log_q`` row by row to float rounding
        (see :func:`~pdrwm.chain.log_accept_ratio_batch` for where the
        Gaussian's rows are bit for bit).
    block : UniformBlock or None
        The kernel's proposals from blocks of uniforms, or None.  A chain
        whose kernel's ``sample`` is ``block.sample`` draws the same
        stream as ``sample`` and one uniform per step would, and never
        calls ``sample``.  The Gaussian has none: numpy's ziggurat takes
        a data-dependent number of 64-bit words per normal, so no block
        of normals reproduces the stream of normals interleaved with
        acceptance uniforms.
    """

    dim: int
    at: Callable[[Sequence[float]], tuple]
    sample: Callable[[Sequence[float], tuple, np.random.Generator], tuple]
    log_q: Callable[[Sequence[float], Sequence[float], tuple], float]
    label: str
    sample_batch: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]
    log_q_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    block: UniformBlock | None = None


def _step_size(h: float) -> float:
    """The step-size rule: ``h`` as a float, if ``0 < h < inf``."""
    if not 0 < h < math.inf:
        raise ParameterError(f"step size must be positive and finite, got {h}")
    return float(h)


def _field_value(h: float, g: float, x: Sequence[float]) -> None:
    """The 1-D rule: the field value ``g`` at the point ``x`` must be
    finite and positive, and ``h * g`` must neither underflow to 0 nor
    overflow to inf."""
    if not 0.0 < g < math.inf:
        raise NumericError(f"field value {g:g} at [{float(x[0])!r}] is not usable")
    variance = h * g
    if not 0.0 < variance < math.inf:
        fails = "underflows" if variance == 0.0 else "overflows"
        raise NumericError(
            f"proposal variance {h:g} * {g:g} at [{float(x[0])!r}] {fails}"
        )


def _stds(h: float, g: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The standard deviations ``sqrt(h * g)`` at the ``(m, 1)`` points
    ``xs``, if every row passes the 1-D rule; else it raises at the first
    row that fails."""
    usable = np.where((g > 0.0) & (g < math.inf), g, 0.0)
    # h * g overflows in some row iff it does at the largest g; a Python
    # float product overflows to inf without numpy's warning
    if h * float(usable.max(initial=0.0)) < math.inf:
        s = np.sqrt(np.multiply(h, usable, out=usable), out=usable)
        if s.all():
            return s
    for gi, x in zip(g.tolist(), xs):
        _field_value(h, gi, x)  # raises at the first row that fails
    raise AssertionError("a row fails the 1-D rule")


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as IEEE 754's fused multiply-add.

    Finite inputs are summed exactly as integer ratios, whose quotient
    CPython rounds to the nearest float, ties to even and subnormals
    included; a sum past the float range is ``±inf``.  Three cases take
    a float expression with fma's value instead: a zero or non-finite
    ``a`` or ``b`` (then ``a * b`` is exact or not finite), a non-finite
    ``c`` beside a finite product (``c``), and an exact sum of zero,
    whose sign IEEE takes from ``a * b + c``, the product then being
    exact."""
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    nc, dc = c.as_integer_ratio()
    # the denominators are powers of two, so the larger is a multiple of
    # the smaller
    d = da * db
    if d >= dc:
        n = na * nb + nc * (d // dc)
    else:
        n, d = na * nb * (dc // d) + nc, dc
    if n == 0:
        return a * b + c
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _cholesky(cov: np.ndarray, x: np.ndarray) -> list[list[float]]:
    """The covariance rule: the rows of the lower factor of ``cov`` at the
    point ``x`` as Python floats, zeros above the diagonal, if ``cov`` is
    finite and factors.

    LAPACK's unblocked ``potf2`` on the lower triangle:
    ``l_ij = (a_ij - sum_k l_ik l_jk) * (1 / l_jj)`` below the diagonal
    and ``l_jj = sqrt(a_jj - sum_k l_jk^2)`` on it, whose argument must
    be positive.  In 2-D that is ``l11 = sqrt(a11)``,
    ``l21 = a21 * (1 / l11)`` and ``l22 = sqrt(a22 - l21 * l21)``."""
    if not all(map(math.isfinite, cov.ravel().tolist())):
        raise NumericError(f"covariance at {x} is not finite")
    a = cov.tolist()
    low: list[list[float]] = []
    for j, row in enumerate(a):
        lj: list[float] = []
        for li in low:
            t = row[len(lj)]
            for ljk, lik in zip(lj, li):
                t -= ljk * lik
            lj.append(t * (1.0 / li[len(lj)]))
        t = row[j]
        for ljk in lj:
            t -= ljk * ljk
        if not t > 0.0:
            raise NumericError(f"covariance at {x} failed to factor")
        lj.append(math.sqrt(t))
        low.append(lj + [0.0] * (len(a) - 1 - j))
    return low


def _solve_lower(low: list[list[float]], b: Sequence[float]) -> list[float]:
    """``L^{-1} b`` for the factor rows ``low`` of :func:`_cholesky`, by
    forward substitution as LAPACK's ``trtrs``: ``v_i`` is ``b_i`` less
    each ``l_ik v_k`` in turn, one fused multiply-add each, divided by
    ``l_ii``.  In 2-D, ``v1 = b1 / l11`` and
    ``v2 = fma(-l21, v1, b2) / l22``."""
    v: list[float] = []
    for li, t in zip(low, b):
        for lik, vk in zip(li, v):
            t = _fma(-lik, vk, t)
        v.append(t / li[len(v)])
    return v


def gaussian_proposal(field: CovarianceField, h: float) -> ProposalKernel:
    """Random walk with position-dependent covariance ``h * S(x)``.

    ``kernel.at(x)`` is what the proposal from ``x`` needs.  In one
    dimension that is ``(s, log s)`` with the standard deviation
    ``s = sqrt(h * g)``, where ``g = field.inv_metric(x)`` is the field's
    float variance at ``x``; read the scale at a float ``v`` as
    ``kernel.at((v,))[0]``.  In higher dimensions it is the point as an
    array, its lower Cholesky factor as a Fortran-ordered array, its
    log-determinant, and the factor's rows as Python floats.
    ``_cholesky`` factors and ``log_q`` solves with ``_solve_lower``,
    both on Python floats with LAPACK's own operations; ``sample`` draws
    ``x + low @ z`` and ``log_q`` sums ``v @ v`` with numpy's BLAS calls,
    whose products may fuse (``v @ v`` and ``v0*v0 + v1*v1`` differed on
    16% of 3000 ridge proposals).  In 2-D, and for every diagonal
    covariance, the factor and the solve are LAPACK ``potrf``'s and
    ``trtrs``'s bit for bit: against scipy 1.17's OpenBLAS on x86-64
    Linux (numpy 2.4, Python 3.11) no bit differed in 2*10^5 random SPD
    2x2 matrices with entries from 1e-150 to 1e150, a quarter of them
    diagonal, nor in their solves.  ``trtrs`` fuses the solve's
    multiply-add, which ``_fma`` computes exactly.  Above 2-D no shipped
    field exists, and the sums are this module's own, in index order.
    No route of the kernel imports scipy.  A chain carries ``at(x)``
    with its state, so it evaluates the field once per point;
    ``sample_batch`` computes it afresh at each call.  ``log_q_batch``
    runs ``_cholesky``'s and ``_solve_lower``'s formulas on numpy
    columns, one array per matrix entry over all its rows, and sums each
    ``v @ v`` with BLAS ``ddot``, as ``log_q`` does.  Its one difference
    from ``log_q`` is the solve's multiply-add, which it rounds unfused.
    For a diagonal covariance that product is zero, so every row is
    ``log_q``'s bit for bit; with an off-diagonal entry the rows agree
    to rounding.
    A step size, field value or covariance that the module's rules
    refuse raises their error, naming the point.
    """
    h = _step_size(h)
    dim = field.dim
    inv_metric = field.inv_metric
    inv_metric_batch = field.inv_metric_batch
    label = f"gaussian(h={h:g},{field.label})"

    if dim == 1:
        sqrt, log, inf = math.sqrt, math.log, math.inf

        def at(x):
            g = inv_metric(x)
            s = sqrt(h * g) if 0.0 < g < inf else 0.0
            if not 0.0 < s < inf:
                _field_value(h, g, x)  # raises
            return s, log(s)

        def sample(x, at_x, rng):
            return (x[0] + at_x[0] * rng.standard_normal(),)

        def log_q(y, x, at_x):
            u = (y[0] - x[0]) / at_x[0]
            return -0.5 * _LOG_2PI - at_x[1] - 0.5 * u * u

        def sample_batch(x, n, rng):
            return x[None, :] + at((float(x[0]),))[0] * rng.standard_normal((n, 1))

        def log_q_batch(ys, xs):
            ys, xs = np.atleast_2d(ys), np.atleast_2d(xs)
            s = _stds(h, inv_metric_batch(xs), xs)
            u = (ys[:, 0] - xs[:, 0]) / s
            return -0.5 * _LOG_2PI - np.log(s) - 0.5 * u * u

        return ProposalKernel(1, at, sample, log_q, label, sample_batch, log_q_batch)

    def at(x):
        xa = np.array(x, dtype=float)
        rows = _cholesky(h * inv_metric(xa), xa)
        low = np.array(rows, order="F")
        return xa, low, 2.0 * float(np.log(low.diagonal()).sum()), rows

    def sample(x, at_x, rng):
        return tuple((at_x[0] + at_x[1] @ rng.standard_normal(dim)).tolist())

    def log_q(y, x, at_x):
        v = np.array(_solve_lower(at_x[3], [yi - xi for yi, xi in zip(y, x)]))
        return -0.5 * (dim * _LOG_2PI + at_x[2] + float(v @ v))

    def sample_batch(x, n, rng):
        return x[None, :] + rng.standard_normal((n, dim)) @ at(x)[1].T

    def refuse(cov, xs):
        for c, x in zip(cov, xs):
            _cholesky(c, x)  # raises at the first row that fails
        raise AssertionError("a row fails the covariance rule")

    def log_q_batch(ys, xs):
        ys, xs = np.atleast_2d(ys), np.atleast_2d(xs)
        cov = h * inv_metric_batch(xs)
        if not np.isfinite(cov).all():
            refuse(cov, xs)
        b = ys - xs
        # _cholesky and _solve_lower on columns, one per matrix entry:
        # diag[:, j] is l_jj, off[j][i] is l_ji and v[:, i] is v_i.  Past
        # the float range they overflow silently, as on Python floats
        diag = np.empty((len(cov), dim))
        v = np.empty(b.shape)
        off: list[list[np.ndarray]] = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(dim):
                lj = []
                for i, li in enumerate(off):
                    t = cov[:, j, i]
                    for ljk, lik in zip(lj, li):
                        t = t - ljk * lik
                    lj.append(t * (1.0 / diag[:, i]))
                t = cov[:, j, j]
                for ljk in lj:
                    t = t - ljk * ljk
                if not (t > 0.0).all():
                    refuse(cov, xs)
                np.sqrt(t, out=diag[:, j])
                off.append(lj)
                # trtrs's multiply-add, rounded unfused
                t = b[:, j]
                for ljk, vk in zip(lj, v.T):
                    t = t - ljk * vk
                np.divide(t, diag[:, j], out=v[:, j])
        logdet = 2.0 * np.log(diag, out=diag).sum(axis=1)
        # matmul's vector-vector case is BLAS ddot, the sum log_q's v @ v takes
        vv = np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]
        return -0.5 * (dim * _LOG_2PI + logdet + vv)

    return ProposalKernel(dim, at, sample, log_q, label, sample_batch, log_q_batch)


def _disc_offsets(us: np.ndarray) -> np.ndarray:
    """Uniform points on the unit disc from the ``(m, 2)`` uniforms
    ``us``: radius ``sqrt(us[:, 0])``, angle ``2 pi us[:, 1]``.  Written
    over ``us`` and returned, so that the offsets take no memory beyond
    the uniforms and two columns.  The angle is a contiguous copy."""
    r = np.sqrt(us[:, 0], out=us[:, 0])
    theta = _TWO_PI * us[:, 1]
    np.multiply(r, np.sin(theta), out=us[:, 1])
    np.multiply(r, np.cos(theta, out=theta), out=r)
    return us


def _uniform_ellipse(width: Callable, widths: Callable, label: str) -> ProposalKernel:
    """Uniform proposal on the axis-aligned ellipse with semi-axes
    ``(w, 1)`` about the start, ``w = width(x)`` (``widths(xs)`` over
    rows), and ``at(x) = (w, -log(pi w))``.

    Every draw goes through :func:`_disc_offsets`: ``sample`` on the
    two uniforms of one row, the block on a chain's rows (radius, angle,
    then the acceptance uniform, step after step), ``sample_batch`` on
    ``n`` radius uniforms followed by ``n`` angle uniforms.  numpy's
    ``cos`` and ``sin`` gave a scalar call's bits on a contiguous angle
    array of every length tried (1 to 4096, numpy 2.4 on x86-64 with
    AVX-512), so a chain's proposals do not depend on how many steps
    share a block; the tests hold a chain to the per-step route across
    the block boundaries.  At ``w = 1`` every product and quotient by
    ``w`` is exact.
    """
    inf = math.inf

    def at(x):
        w = width(x)
        return w, -math.log(math.pi * w)

    def move(x, at_x, offset):
        return x[0] + offset[0] * at_x[0], x[1] + offset[1]

    def sample(x, at_x, rng):
        return move(x, at_x, _disc_offsets(rng.random((1, 2)))[0].tolist())

    def log_q(y, x, at_x):
        w, log_density = at_x
        du = (y[0] - x[0]) / w
        dv = y[1] - x[1]
        return log_density if du * du + dv * dv <= 1.0 else -inf

    def sample_batch(x, n, rng):
        ys = _disc_offsets(rng.random((2, n)).T)
        ys[:, 0] *= width(x)
        ys += x  # the sums x + offset, in place
        return ys

    def log_q_batch(ys, xs):
        ys, xs = np.atleast_2d(ys), np.atleast_2d(xs)
        w = widths(xs)
        du = (ys[:, 0] - xs[:, 0]) / w
        dv = ys[:, 1] - xs[:, 1]
        return np.where(du * du + dv * dv <= 1.0, -np.log(math.pi * w), -np.inf)

    block = UniformBlock(2, _disc_offsets, move, sample)
    return ProposalKernel(
        2, at, sample, log_q, label, sample_batch, log_q_batch, block
    )


def circle_proposal() -> ProposalKernel:
    """Uniform proposal on the unit disc centered at the current point:
    the ellipse of :func:`ellipse_proposal` with ``w = 1`` everywhere."""
    return _uniform_ellipse(lambda x: 1.0, lambda xs: 1.0, "uniform_disc")


def _ellipse_width(x: Sequence[float]) -> float:
    """The staircase ellipse's semi-width at the start ``x``: the
    half-width of level ``floor(x2)``, or 1 at and below level 1."""
    k = math.floor(float(x[1]))
    if k >= RectangleDensity.subnormal_level:
        raise NumericError(
            "ellipse semi-width 3**(1 - floor(x2)) underflows at height "
            f"{float(x[1])!r}"
        )
    return RectangleDensity.half_width(k if k > 1 else 1)


def ellipse_proposal() -> ProposalKernel:
    """Uniform proposal on an axis-aligned ellipse that narrows with height.

    Semi-axes are ``(w, 1)`` with ``w`` the half-width of the staircase
    level ``floor(x2)`` of the start, or 1 at and below level 1, so the
    shape is the unit disc there.  Because ``w`` depends on the start,
    the density ratio between forward and reverse moves is the area
    ratio of the two ellipses.  From height 646 up, ``w`` falls below
    the smallest normal float, and sampling from or evaluating the
    density at such a start raises ``NumericError``.
    """
    half_widths = RectangleDensity.half_widths

    def widths(xs):
        _ellipse_width(xs[np.argmax(xs[:, 1])])  # the narrowest must not underflow
        return half_widths(np.floor(xs[:, 1]))

    return _uniform_ellipse(_ellipse_width, widths, "uniform_ellipse")


# --- truncated Gaussian helpers -------------------------------------------


def _log_gauss_mass(alpha: float, beta: float) -> float:
    """log(Phi(beta) - Phi(alpha)) without cancellation, alpha < beta."""
    if beta < 0.0:
        return _log_gauss_mass(-beta, -alpha)
    from scipy.special import log_ndtr, ndtr

    if alpha > 0.0:
        # both standardized limits positive: work with upper tails
        la = log_ndtr(-alpha)
        lb = log_ndtr(-beta)  # -inf when beta is inf
        diff = -math.expm1(lb - la) if lb > -math.inf else 1.0
        if diff <= 0.0:
            raise NumericError(
                f"interval [{alpha:g}, {beta:g}] has no representable mass"
            )
        return la + math.log(diff)
    # limits straddle zero: the mass is order one, direct difference is fine
    mass = float(ndtr(beta) - ndtr(alpha))
    if mass <= 0.0:
        raise NumericError(
            f"interval [{alpha:g}, {beta:g}] has no representable mass"
        )
    return math.log(mass)


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """A Gaussian N(mu, sigma^2) conditioned to the interval [a, b].

    Infinite endpoints recover one-sided or no truncation.  Intervals so
    far into a tail that their mass underflows the log-domain computation
    are rejected at construction.
    """

    mu: float
    sigma: float
    a: float = -math.inf
    b: float = math.inf

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not self.a < self.b:
            raise ParameterError(
                f"need a < b, got a={self.a:g}, b={self.b:g}"
            )
        if self.log_mass < -690.0:
            raise ParameterError(
                f"interval [{self.a:g}, {self.b:g}] mass underflows"
            )

    @property
    def alpha(self) -> float:
        return (self.a - self.mu) / self.sigma

    @property
    def beta(self) -> float:
        return (self.b - self.mu) / self.sigma

    @property
    def log_mass(self) -> float:
        """Log of the Gaussian mass of the truncation interval."""
        return _log_gauss_mass(self.alpha, self.beta)


def _log_phi(t: float) -> float:
    if math.isinf(t):
        return -math.inf
    return -0.5 * (t * t + _LOG_2PI)


def truncated_mean(spec: TruncatedGaussianSpec) -> float:
    """Mean of the truncated Gaussian, computed in the log domain.

    mu + sigma * (phi(alpha) - phi(beta)) / Z with the ratio assembled
    from logs so one-sided far truncations stay accurate.
    """
    log_z = spec.log_mass
    la, lb = _log_phi(spec.alpha), _log_phi(spec.beta)
    term_a = math.exp(la - log_z) if la > -math.inf else 0.0
    term_b = math.exp(lb - log_z) if lb > -math.inf else 0.0
    return spec.mu + spec.sigma * (term_a - term_b)


def truncated_mgf(spec: TruncatedGaussianSpec, t: float) -> float:
    """Moment generating function E[e^{tX}] of the truncated Gaussian.

    Exponential tilting shifts the standardized limits by ``sigma * t``:
    the result is exp(mu t + sigma^2 t^2 / 2) times the ratio of tilted
    to untilted interval masses.
    """
    t = float(t)
    shift = spec.sigma * t
    log_tilted = _log_gauss_mass(spec.alpha - shift, spec.beta - shift)
    log_val = spec.mu * t + 0.5 * shift * shift + log_tilted - spec.log_mass
    return math.exp(log_val)


def gaussian_tail_bound(x: float) -> float:
    """Upper bound exp(-x^2/2) / (x sqrt(2 pi)) on the standard normal
    upper tail, valid and tight for large positive ``x``."""
    if not x > 0:
        raise ParameterError(f"tail bound needs x > 0, got {x}")
    return math.exp(-0.5 * x * x) / (x * math.sqrt(2.0 * math.pi))
