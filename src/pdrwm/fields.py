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

Each built-in field writes its formula once (:func:`pdrwm.targets._forms`):
per point on Python floats with the C library's ``pow``, ``exp`` and
``log``, in batch on numpy columns with numpy's.  Where float ``**``
raises ``OverflowError`` the per-point value is numpy's, and neither
form warns.  Above one dimension it is written onto the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ParameterError
from .targets import TargetDensity, _coordinate, _forms

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
    bits ``np.linalg.norm`` gives, wherever that is not inf (``sqrt(v * v)``
    on a Python float in 1-D); where the square overflows on a finite
    point, |v| in 1-D and the overflow-free ``np.hypot`` reduction above."""
    if len(x) == 1:
        v = float(x[0])
        r = math.sqrt(v * v)
        return r if r < math.inf else abs(v)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        r = math.sqrt(x.dot(x))
    return r if r != math.inf else float(np.hypot.reduce(np.abs(x)))


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


def _diagonal(dim: int, label: str, formula, *reads) -> CovarianceField:
    """The field with ``formula`` (:func:`_forms`) on its covariance's
    diagonal, at what one ``(read, read_batch)`` pair takes from the point
    for every entry (in 1-D, the variance) or one pair per entry.  Values
    are written onto the diagonal, not multiplied into an identity: past
    the float range inf * 0 would put NaN off it."""
    forms = [_forms(formula, *read) for read in reads]
    if dim == 1:
        [(variance, variance_batch)] = forms
        return CovarianceField(1, variance, label, variance_batch)
    entries = np.arange(dim)

    def inv_metric(x) -> np.ndarray:
        out = np.zeros((dim, dim))
        out.flat[:: dim + 1] = [value(x) for value, _ in forms]  # repeated if one
        return out

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((len(xs), dim, dim))
        out[:, entries, entries] = np.column_stack([values(xs) for _, values in forms])
        return out

    return CovarianceField(dim, inv_metric, label, inv_metric_batch)


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
    # |x| is the coordinate's |v| in 1-D, where 1 + |v| has the bits of
    # 1 + sqrt(v * v), and the norm above
    read = _coordinate(0) if dim == 1 else (_norm, _norms)
    label = f"power(b={b:g},dim={dim})"
    return _diagonal(dim, label, lambda xp, r: (1.0 + abs(r)) ** b, read)


def one_plus_square_field() -> CovarianceField:
    """One-dimensional field with inverse metric 1 + x^2.

    The canonical quadratic-growth proposal variance: unit sized at the
    origin, scaling like x^2 in the tails.  The square is libm ``pow`` per
    point and ``x * x`` in batch, which differ in the last bit for about 8
    in 10 000 values; shipped CSVs and chain digests rest on each, so both
    stay.
    """
    return _diagonal(1, "one_plus_square", lambda xp, v: 1.0 + v**2, _coordinate(0))


def ridge_conditional_field() -> CovarianceField:
    """Two-dimensional field matched to the ridge target's conditionals.

    Under exp(-x1^2 - x2^2 - x1^2 x2^2) each coordinate given the other
    is a centred Gaussian with variance 1 / (2 (1 + other^2)); the field
    simply proposes with those conditional variances on the diagonal.
    Where the other coordinate's square overflows, both forms give that
    entry 0.0, a covariance no Gaussian kernel factors.
    """

    # float_power calls libm pow on columns, as float ** does per point
    def conditional(xp, other):
        return 1.0 / (2.0 * (1.0 + xp.float_power(other, 2)))

    return _diagonal(2, "ridge_conditional", conditional, _coordinate(1), _coordinate(0))


def tempered_langevin_field(
    target: TargetDensity, c_max: float = 1e12
) -> CovarianceField:
    """Reciprocal-density covariance: ``min(1/pi(x), c_max) * I``.

    Large steps where the target is thin, small steps where it is dense.
    The cap keeps the proposal finite far out in the tails, and there it
    turns the sampler into a plain random walk: on the exponential tail
    ``exp(-|x|)`` the default cap holds past ``|x| = log 1e12``, about
    27.6, where every proposal is ``N(x, 1e12 h)``.  Off the target's
    support (log-density not ``> -inf``, so NaN too) the field has no
    meaningful scale, and both forms raise ``EvaluationError``.
    """
    if not c_max > 0:
        raise ParameterError(f"cap must be positive, got {c_max}")
    c_max = float(c_max)
    log_cap = math.log(c_max)

    def off_support(x) -> EvaluationError:
        x = np.asarray(x, dtype=float)  # a tuple prints as an array would
        return EvaluationError(f"reciprocal-density field undefined off support at {x}")

    def log_density(x) -> float:
        lp = target.log_density(x)
        if not lp > -math.inf:
            raise off_support(x)
        return lp

    def log_density_batch(xs: np.ndarray) -> np.ndarray:
        lp = target.log_density_batch(xs)
        off = ~(lp > -np.inf)
        if off.any():
            raise off_support(xs[np.argmax(off)])
        return lp

    def scale(xp, lp):
        return xp.where(-lp >= log_cap, c_max, xp.exp(xp.minimum(-lp, log_cap)))

    label = f"tempered_langevin({target.label},cap={c_max:g})"
    return _diagonal(target.dim, label, scale, (log_density, log_density_batch))
