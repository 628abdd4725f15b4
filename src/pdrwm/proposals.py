"""Proposal kernels and truncated-Gaussian helpers.

The central kernel is the position-dependent Gaussian random walk built
from a covariance field: from ``x`` it proposes ``y ~ N(x, h * S(x))``.
Two uniform kernels over moving planar shapes (a unit disc and a
level-dependent ellipse) support the narrowing-rectangle analysis, where
acceptance probabilities reduce to area ratios.  The ellipse's width is
the staircase level's half-width from :class:`~pdrwm.targets.RectangleDensity`,
in its per-point and batch forms alike; it is subnormal from level 646
up (and 0.0 from level 680), where the ellipse raises ``NumericError``.

Argument order convention: ``log_q(y, x)`` is the log density at ``y`` of
the proposal launched from ``x``.  ``log_q_batch(ys, xs)`` is the same
density over rows: one start point against an ``(m, dim)`` array of end
points, or an ``(m, dim)`` array of start points against one end point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import log_ndtr

from .errors import NumericError, ParameterError
from .fields import CovarianceField
from .targets import RectangleDensity

__all__ = [
    "ProposalKernel",
    "gaussian_proposal",
    "circle_proposal",
    "ellipse_proposal",
    "TruncatedGaussianSpec",
    "truncated_mean",
    "truncated_mgf",
    "gaussian_tail_bound",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ProposalKernel:
    """A Markov proposal mechanism with evaluable density.

    Attributes
    ----------
    dim : int
        State dimension.
    sample : callable
        ``sample(x, rng)`` draws one proposal from ``x``.
    log_q : callable
        ``log_q(y, x)`` is the log proposal density at ``y`` given start
        ``x``; ``-inf`` where the proposal cannot reach.
    label : str
        Identifier used in config digests.
    sample_batch : callable
        ``sample_batch(x, n, rng)`` draws ``n`` proposals from the same
        start as an ``(n, dim)`` array.  The draws follow the same
        distribution as ``n`` calls of ``sample``, but not draw for draw:
        the stream is consumed in a different order.
    log_q_batch : callable
        ``log_q_batch(ys, xs)`` is ``log_q`` over rows as an ``(m,)``
        array: ``ys`` of shape ``(m, dim)`` against one start ``xs`` of
        shape ``(dim,)``, or one end point ``ys`` against ``m`` starts
        ``xs``.  Agrees with ``log_q`` row by row to float rounding.
    std : callable or None
        Set only on a one-dimensional Gaussian kernel: ``std(v)`` is the
        proposal standard deviation at the float point ``v``, the one
        ``sample`` and ``log_q`` use.  :func:`~pdrwm.chain.run_chain`
        steps such a kernel on Python floats.
    """

    dim: int
    sample: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    log_q: Callable[[np.ndarray, np.ndarray], float]
    label: str
    sample_batch: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]
    log_q_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    std: Callable[[float], float] | None = None


def _last_two(compute: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``compute`` remembered at the two most recently used points.

    On a chain these are the current state and the latest proposal, so
    each point's value is computed once.  The key is the point's float64
    bytes: ``-0.0`` and ``0.0`` stay apart, and a point given as ints
    shares its entry with the same point given as floats.
    """
    slots = ((None, None), (None, None))  # (key, value), most recent first

    def lookup(x: np.ndarray):
        nonlocal slots
        key = np.asarray(x, dtype=np.float64).tobytes()
        newest, older = slots
        if key == newest[0]:
            return newest[1]
        if key == older[0]:
            slots = (older, newest)
            return older[1]
        entry = (key, compute(x))
        slots = (entry, newest)
        return entry[1]

    return lookup


def gaussian_proposal(field: CovarianceField, h: float) -> ProposalKernel:
    """Random walk with position-dependent covariance ``h * S(x)``.

    In one dimension the kernel exposes its standard deviation at a
    float point, ``std(v) = sqrt(h * field.variance(v))``, which
    ``sample``, ``log_q`` and ``sample_batch`` read afresh at each call;
    :func:`~pdrwm.chain.run_chain` steps on it directly, evaluating the
    field once per proposal.  In higher dimensions the lower Cholesky
    factor and log-determinant of a point are computed once and
    remembered for the two most recently used points (on a chain, the
    current state and the latest proposal), with LAPACK ``potrf`` and
    ``trtrs`` called directly with the arguments
    ``scipy.linalg.cholesky`` and ``solve_triangular`` pass; ``sample``,
    ``log_q`` and ``sample_batch`` read that one memo.  ``log_q_batch``
    factors all its start points in one stacked call.  A field value
    that is not finite, not positive or fails to factor raises
    :class:`NumericError` naming the point.
    """
    if not h > 0:
        raise ParameterError(f"step size must be positive, got {h}")
    h = float(h)
    dim = field.dim
    inv_metric = field.inv_metric
    inv_metric_batch = field.inv_metric_batch
    std = None

    if dim == 1:
        variance = field.variance

        def std(v: float) -> float:
            g = variance(v)
            if not g > 0 or not math.isfinite(g):
                raise NumericError(f"field value {g:g} at [{v!r}] is not usable")
            return math.sqrt(h * g)

        def sample(x, rng):
            return x + std(float(x[0])) * rng.standard_normal(1)

        def log_q(y, x):
            x0 = float(x[0])
            s = std(x0)
            u = (float(y[0]) - x0) / s
            return -0.5 * _LOG_2PI - math.log(s) - 0.5 * u * u

        def sample_batch(x, n, rng):
            return x[None, :] + std(float(x[0])) * rng.standard_normal((n, 1))

        def log_q_batch(ys, xs):
            ys, xs = np.atleast_2d(ys), np.atleast_2d(xs)
            g = inv_metric_batch(xs)[:, 0, 0]
            bad = ~((g > 0) & np.isfinite(g))
            if bad.any():
                i = int(np.argmax(bad))
                raise NumericError(f"field value {g[i]:g} at {xs[i]} is not usable")
            s = np.sqrt(h * g)
            u = (ys[:, 0] - xs[:, 0]) / s
            return -0.5 * _LOG_2PI - np.log(s) - 0.5 * u * u

    else:
        potrf, trtrs = get_lapack_funcs(("potrf", "trtrs"), (np.empty((dim, dim)),))

        def _factor(x: np.ndarray) -> tuple[np.ndarray, float]:
            cov = h * inv_metric(x)
            if not np.isfinite(cov).all():
                raise NumericError(f"covariance at {x} is not finite")
            low, info = potrf(cov, lower=True, overwrite_a=False, clean=True)
            if info != 0:
                raise NumericError(f"covariance at {x} failed to factor")
            low.setflags(write=False)
            return low, 2.0 * float(np.sum(np.log(np.diag(low))))

        factor = _last_two(_factor)

        def sample(x, rng):
            return x + factor(x)[0] @ rng.standard_normal(dim)

        def log_q(y, x):
            low, logdet = factor(x)
            # potrf returns a Fortran-ordered factor, which trtrs solves as is
            v, _ = trtrs(low, y - x, lower=True)
            return -0.5 * (dim * _LOG_2PI + logdet + float(v @ v))

        def sample_batch(x, n, rng):
            return x[None, :] + rng.standard_normal((n, dim)) @ factor(x)[0].T

        def log_q_batch(ys, xs):
            ys, xs = np.atleast_2d(ys), np.atleast_2d(xs)
            cov = h * inv_metric_batch(xs)
            bad = ~np.isfinite(cov).all(axis=(1, 2))
            if bad.any():
                raise NumericError(f"covariance at {xs[np.argmax(bad)]} is not finite")
            try:
                low = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                for x in xs:
                    _factor(x)  # names the first point whose value fails
                raise
            v = np.linalg.solve(low, (ys - xs)[..., None])[..., 0]
            logdet = 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
            return -0.5 * (dim * _LOG_2PI + logdet + (v * v).sum(axis=1))

    return ProposalKernel(
        dim,
        sample,
        log_q,
        f"gaussian(h={h:g},{field.label})",
        sample_batch,
        log_q_batch,
        std,
    )


def _disc_offsets(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit disc, shape (n, 2), each coordinate
    contiguous (cheaper to write than two stacked columns)."""
    r = np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    out = np.empty((2, n))
    np.multiply(r, np.cos(theta), out=out[0])
    np.multiply(r, np.sin(theta), out=out[1])
    return out.T


def circle_proposal() -> ProposalKernel:
    """Uniform proposal on the unit disc centered at the current point."""
    log_density = -math.log(math.pi)

    def sample(x, rng):
        return x + _disc_offsets(1, rng)[0]

    def log_q(y, x):
        d = y - x
        return log_density if float(d @ d) <= 1.0 else -math.inf

    def sample_batch(x, n, rng):
        ys = _disc_offsets(n, rng)
        ys += x  # the sums x + offset, in place
        return ys

    def log_q_batch(ys, xs):
        d = np.atleast_2d(ys) - np.atleast_2d(xs)
        return np.where((d * d).sum(axis=1) <= 1.0, log_density, -np.inf)

    return ProposalKernel(
        2, sample, log_q, "uniform_disc", sample_batch, log_q_batch
    )


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
    half_width, half_widths = RectangleDensity.half_width, RectangleDensity.half_widths
    subnormal_level = RectangleDensity.subnormal_level

    def _w(x: np.ndarray) -> float:
        k = math.floor(float(x[1]))
        if k >= subnormal_level:
            raise NumericError(
                "ellipse semi-width 3**(1 - floor(x2)) underflows at height "
                f"{float(x[1])!r}"
            )
        return half_width(k if k > 1 else 1)

    def sample(x, rng):
        off = _disc_offsets(1, rng)[0]
        off[0] *= _w(x)
        return x + off

    def log_q(y, x):
        w = _w(x)
        du = (float(y[0]) - float(x[0])) / w
        dv = float(y[1]) - float(x[1])
        if du * du + dv * dv <= 1.0:
            return -math.log(math.pi * w)
        return -math.inf

    def sample_batch(x, n, rng):
        ys = _disc_offsets(n, rng)
        ys[:, 0] *= _w(x)
        ys += x  # the sums x + offset, in place
        return ys

    def log_q_batch(ys, xs):
        ys, xs = np.atleast_2d(ys), np.atleast_2d(xs)
        _w(xs[np.argmax(xs[:, 1])])  # the narrowest start must not underflow
        w = half_widths(np.floor(xs[:, 1]))
        du = (ys[:, 0] - xs[:, 0]) / w
        dv = ys[:, 1] - xs[:, 1]
        return np.where(du * du + dv * dv <= 1.0, -np.log(math.pi * w), -np.inf)

    return ProposalKernel(
        2, sample, log_q, "uniform_ellipse", sample_batch, log_q_batch
    )


# --- truncated Gaussian helpers -------------------------------------------


def _log_gauss_mass(alpha: float, beta: float) -> float:
    """log(Phi(beta) - Phi(alpha)) without cancellation, alpha < beta."""
    if beta < 0.0:
        return _log_gauss_mass(-beta, -alpha)
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
    from scipy.special import ndtr

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
