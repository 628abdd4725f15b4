"""Position-dependent proposal covariance fields.

A :class:`CovarianceField` maps a point ``x`` to the proposal covariance
shape ``S(x)`` (a symmetric positive definite matrix); the random-walk
kernel proposes ``y ~ N(x, h * S(x))``.

In one dimension ``S(x)`` is one number, and a field returns it as a
Python float, the variance at ``x``; it reads the point as
``float(x[0])``, as targets do, so a tuple and an array give the same
bits.  In higher dimensions a field returns a dense ``(dim, dim)``
array.  Every field also has a batch form that maps an ``(m, dim)``
array of points to their values, an ``(m,)`` array in one dimension and
an ``(m, dim, dim)`` stack above, computed in whole-array numpy.  A
field built by hand may instead stack its per-point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ParameterError
from .targets import TargetDensity

__all__ = [
    "CovarianceField",
    "constant_field",
    "power_field",
    "one_plus_square_field",
    "ridge_conditional_field",
    "tempered_langevin_field",
]


@dataclass(frozen=True)
class CovarianceField:
    """A map from position to proposal covariance shape.

    Attributes
    ----------
    dim : int
        Dimension of the state space.
    inv_metric : callable
        Maps a length-``dim`` point to the SPD covariance shape used by
        the proposal at that point: the variance as a Python float in
        one dimension, a ``(dim, dim)`` array above.
    label : str
        Short identifier used in config digests.
    inv_metric_batch : callable
        Maps an ``(m, dim)`` array of points to their covariance shapes,
        an ``(m,)`` array in one dimension and an ``(m, dim, dim)`` stack
        above; agrees with ``inv_metric`` row by row to float rounding.
    """

    dim: int
    inv_metric: Callable[[np.ndarray], float | np.ndarray]
    label: str
    inv_metric_batch: Callable[[np.ndarray], np.ndarray]


def _as_spd(sigma, what: str) -> np.ndarray:
    """Validate and return a dense SPD matrix; scalars mean 1-D."""
    m = np.atleast_2d(np.asarray(sigma, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ParameterError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ParameterError(f"{what} contains non-finite entries")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ParameterError(f"{what} must be symmetric")
    eig_min = float(np.linalg.eigvalsh(m).min())
    if eig_min <= 0.0:
        raise ParameterError(
            f"{what} must be positive definite (min eigenvalue {eig_min:g})"
        )
    return m


def constant_field(sigma) -> CovarianceField:
    """Position-independent covariance; plain random walk Metropolis.

    ``sigma`` may be a positive scalar (one dimension) or an SPD matrix.
    """
    m = _as_spd(sigma, "covariance")
    dim = m.shape[0]
    if dim == 1:
        c = m.item()
        return CovarianceField(
            1, lambda _: c, "constant(dim=1)", lambda xs: np.full(len(xs), c)
        )
    m = m.copy()
    m.setflags(write=False)

    def inv_metric(_: np.ndarray) -> np.ndarray:
        return m

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(m, (len(xs), dim, dim))

    return CovarianceField(dim, inv_metric, f"constant(dim={dim})", inv_metric_batch)


def _norm(x) -> float:
    """|x| of a point given as a tuple or an array: ``sqrt(x . x)``, the
    bits ``np.linalg.norm`` gives, wherever that is finite.  A length-1
    point is read as a Python float, ``sqrt(v * v)``, without the array.
    Where the square overflows on a finite point, |v| in 1-D and the
    overflow-free ``np.hypot`` reduction above."""
    if len(x) == 1:
        v = float(x[0])
        r = math.sqrt(v * v)
        return r if r < math.inf else abs(v)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        r = math.sqrt(x.dot(x))
    return r if r < math.inf else float(np.hypot.reduce(np.abs(x)))


def _norms(xs: np.ndarray) -> np.ndarray:
    """|x| of each row of an ``(m, dim)`` array, with :func:`_norm`'s
    rule: ``np.linalg.norm`` wherever it is finite, ``np.hypot`` where
    the squares overflow."""
    with np.errstate(over="ignore"):
        r = np.linalg.norm(xs, axis=1)
    big = r == math.inf
    if big.any():
        r[big] = np.hypot.reduce(np.abs(xs[big]), axis=1)
    return r


def power_field(b: float, dim: int = 1) -> CovarianceField:
    """Covariance growing as ``(1 + |x|)^b`` times the identity.

    ``b`` must be nonnegative: a covariance that shrinks in the tails
    never helps the tail acceptance analysis and is rejected outright.
    ``b = 0`` is the constant field, ``b = 2`` the quadratic boundary
    case, larger ``b`` superquadratic.
    """
    if not b >= 0.0:
        raise ParameterError(f"growth exponent must be >= 0, got {b}")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    b = float(b)
    label = f"power(b={b:g},dim={dim})"

    def scale(r: float) -> float:
        try:
            return (1.0 + r) ** b
        except OverflowError:  # past the float range, where numpy gives inf
            return math.inf

    if dim == 1:

        def inv_metric(x) -> float:
            v = float(x[0])
            # sqrt(v * v), not abs(v): the bits of the batch form's norm;
            # abs(v) only where the square overflows (_norm, inlined)
            r = math.sqrt(v * v)
            return scale(r if r < math.inf else abs(v))

        def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
            return (1.0 + _norms(xs)) ** b

        return CovarianceField(1, inv_metric, label, inv_metric_batch)

    diagonal = np.arange(dim)

    # the scale is written onto the diagonal, not multiplied into an
    # identity: past the float range inf * 0 would put NaN off it
    def inv_metric(x) -> np.ndarray:
        out = np.zeros((dim, dim))
        out.flat[:: dim + 1] = scale(_norm(x))
        return out

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((len(xs), dim, dim))
        out[:, diagonal, diagonal] = ((1.0 + _norms(xs)) ** b)[:, None]
        return out

    return CovarianceField(dim, inv_metric, label, inv_metric_batch)


def one_plus_square_field() -> CovarianceField:
    """One-dimensional field with inverse metric 1 + x^2.

    The canonical quadratic-growth proposal variance: unit sized at the
    origin, scaling like x^2 in the tails.
    """

    def inv_metric(x) -> float:
        v = float(x[0])
        try:
            return 1.0 + v**2
        except OverflowError:  # past the float range, where numpy gives inf
            return math.inf

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        return 1.0 + xs[:, 0] ** 2

    return CovarianceField(1, inv_metric, "one_plus_square", inv_metric_batch)


def ridge_conditional_field() -> CovarianceField:
    """Two-dimensional field matched to the ridge target's conditionals.

    Under exp(-x1^2 - x2^2 - x1^2 x2^2) each coordinate given the other
    is a centred Gaussian with variance 1 / (2 (1 + other^2)); the field
    simply proposes with those conditional variances on the diagonal.
    Where the other coordinate's square overflows, both forms give that
    entry 0.0, a covariance no Gaussian kernel factors.
    """

    def conditional(other: float) -> float:
        try:
            return 1.0 / (2.0 * (1.0 + other**2))
        except OverflowError:  # float ** raises where numpy's square is inf
            return 0.0

    def inv_metric(x: np.ndarray) -> np.ndarray:
        return np.array(
            [
                [conditional(float(x[1])), 0.0],
                [0.0, conditional(float(x[0]))],
            ]
        )

    # float_power calls libm pow, as float ** does; numpy's ** 2 is x * x,
    # which differs from pow in the last bit for about 8 in 10 000 values
    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((len(xs), 2, 2))
        with np.errstate(over="ignore"):  # an inf square gives the entry 0.0
            out[:, 0, 0] = 1.0 / (2.0 * (1.0 + np.float_power(xs[:, 1], 2)))
            out[:, 1, 1] = 1.0 / (2.0 * (1.0 + np.float_power(xs[:, 0], 2)))
        return out

    return CovarianceField(2, inv_metric, "ridge_conditional", inv_metric_batch)


def tempered_langevin_field(
    target: TargetDensity, c_max: float = 1e12
) -> CovarianceField:
    """Reciprocal-density covariance: ``min(1/pi(x), c_max) * I``.

    Large steps where the target is thin, small steps where it is dense.
    The cap keeps the proposal finite far out in the tails.  Evaluating
    off the target's support has no meaningful scale and raises.
    """
    if not c_max > 0:
        raise ParameterError(f"cap must be positive, got {c_max}")
    c_max = float(c_max)
    log_cap = math.log(c_max)
    label = f"tempered_langevin({target.label},cap={c_max:g})"

    def scale(x) -> float:
        lp = target.log_density(x)
        if lp == -math.inf:
            x = np.asarray(x, dtype=float)  # a tuple prints as an array would
            raise EvaluationError(
                f"reciprocal-density field undefined off support at {x}"
            )
        return c_max if -lp >= log_cap else math.exp(-lp)

    def scale_batch(xs: np.ndarray) -> np.ndarray:
        lp = target.log_density_batch(xs)
        off = lp == -np.inf
        if off.any():
            x = xs[np.argmax(off)]
            raise EvaluationError(
                f"reciprocal-density field undefined off support at {x}"
            )
        return np.where(-lp >= log_cap, c_max, np.exp(np.minimum(-lp, log_cap)))

    if target.dim == 1:
        return CovarianceField(1, scale, label, scale_batch)
    eye = np.eye(target.dim)
    eye.setflags(write=False)
    return CovarianceField(
        target.dim,
        lambda x: scale(x) * eye,
        label,
        lambda xs: scale_batch(xs)[:, None, None] * eye,
    )
