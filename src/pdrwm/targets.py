"""Unnormalized target densities.

Every factory here returns an immutable :class:`TargetDensity` carrying a
log-density, which is also the one support rule: a point is on the
support iff its log-density is ``> -inf``, so NaN is off it.  Densities
are unnormalized throughout; all Metropolis quantities depend only on ratios.

A point is a sequence of ``dim`` floats that the per-point form indexes,
a 1-D numpy array or, in :func:`~pdrwm.chain.run_chain`'s float loop, a
tuple of Python floats; batches of points are ``(m, dim)`` arrays, one
point per row.  Each formula is written once, as ``formula(xp, ...)``
(:func:`_forms`), as are the fields' and the Lyapunov functions': the
per-point form passes Python floats and ``_FLOATS``, the batch form
columns and ``numpy``.  The two forms therefore agree to the last bit or
two, not exactly: numpy's vectorised ``power``, ``exp``, ``log`` and
``log1p`` may round differently from the C library on a few percent of
inputs, and the chains keep the per-point arithmetic they always had.
The staircase's two forms agree exactly: :class:`RectangleDensity` alone
defines its level rule, which every other module reads, and its array
form looks up the scalar form's floats.  Its half-width is subnormal from
level 646 and exactly 0.0 from level 680.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, ClassVar

import numpy as np

from .errors import ParameterError, SupportError

__all__ = [
    "TargetDensity",
    "RectangleDensity",
    "make_exponential_tail",
    "make_subexponential_tail",
    "make_polynomial_tail",
    "make_gaussian",
    "make_ridge_2d",
    "make_rectangle",
]


@dataclass(frozen=True)
class TargetDensity:
    """An unnormalized target distribution.

    Attributes
    ----------
    dim : int
        Dimension of the state space.
    log_density : callable
        Maps a length-``dim`` point to a float, ``-inf`` off support; the
        point is on the support iff the value is ``> -inf`` (NaN is not).
        The point is a numpy array or a tuple of Python floats, so the
        form reads coordinates by index (``float(x[k])``), not by array
        arithmetic.
    label : str
        Short human-readable identifier, used in config digests.
    log_density_batch : callable
        Maps an ``(m, dim)`` array of points to the ``(m,)`` array of
        their log-densities, ``-inf`` off support, so ``> -inf`` is the
        batch support test.  Agrees with ``log_density`` row by row to
        float rounding.
    support_test : callable
        ``log_density(x) > -inf``, its default.  ``dataclasses.replace``
        carries it over: a replaced ``log_density`` must agree with it.
    """

    dim: int
    log_density: Callable[[np.ndarray], float]
    label: str
    log_density_batch: Callable[[np.ndarray], np.ndarray]
    support_test: Callable[[np.ndarray], bool] | None = None

    def __post_init__(self):
        if self.support_test is None:
            log_density = self.log_density
            object.__setattr__(self, "support_test", lambda x: log_density(x) > -math.inf)


def _check_shape(target: TargetDensity, shape: tuple, what: str) -> None:
    """``ParameterError`` unless a point's ``shape`` is ``(target.dim,)``."""
    if shape != (target.dim,):
        raise ParameterError(f"{what} has shape {shape}, target dim is {target.dim}")


def _log_density_on_support(target: TargetDensity, x, what: str = "current point") -> float:
    """``log_density(x)``, evaluated once, after every current point's entry
    check: shape ``(dim,)`` (``ParameterError``), value ``> -inf`` (``SupportError``)."""
    _check_shape(target, np.shape(x), what)
    lp = target.log_density(x)
    if not lp > -math.inf:
        raise SupportError(f"{what} {x} is outside the target support")
    return lp


@dataclass(frozen=True)
class RectangleDensity(TargetDensity):
    """Piecewise-constant staircase density on narrowing rectangles.

    Support is ``{y : y2 >= 1, |y1| <= 3**(1 - floor(y2))}``.  Level ``k``
    occupies ``k <= y2 < k+1`` with unnormalized density ``3**(-k)``, so
    each level is a third the width and a third the height (in density) of
    the one below.  Total unnormalized mass is ``sum_k 3**(-k) * 2*3**(1-k)
    = 3/4``.
    """

    #: closed form of the geometric series of level masses
    total_mass: ClassVar[float] = 0.75
    #: first level whose half-width is below the smallest normal float
    subnormal_level: ClassVar[int] = 646
    #: first level whose half-width is exactly 0.0, as at every level above
    zero_level: ClassVar[int] = 680

    @staticmethod
    def level(y: np.ndarray) -> int:
        """Level index of a support point (floor of the height)."""
        return int(math.floor(y[1]))

    @staticmethod
    def half_width(k: int) -> float:
        """Horizontal half-extent of level ``k >= 1``."""
        return 3.0 ** (1 - k)

    #: ``half_width`` at levels ``1..zero_level``
    _table: ClassVar[np.ndarray] = np.array([*map(half_width, range(1, zero_level + 1))])

    @classmethod
    def half_widths(cls, ks: np.ndarray) -> np.ndarray:
        """:meth:`half_width`'s floats (not numpy ``power``'s) at an array
        of levels, not NaN, each clipped to ``1..zero_level``."""
        return cls._table[np.clip(ks, 1, cls.zero_level).astype(np.intp) - 1]


#: A formula's operations on Python floats, the C library's; the batch
#: form passes numpy, whose ufuncs and ``**`` (``x * x`` at exponent 2)
#: are the only places where the two forms' arithmetic differs.  Python's
#: ``max`` and ``min`` keep their first argument where the other is NaN;
#: ``maximum`` is NaN where either argument is, numpy's rule, and equals
#: ``max`` elsewhere at less cost than a ``max`` call.
_FLOATS = SimpleNamespace(
    exp=math.exp, log=math.log, log1p=math.log1p, float_power=operator.pow,
    fmax=max, maximum=lambda a, b: b if b > a or b != b else a, minimum=min,
    where=lambda c, a, b: a if c else b,
)


def _over_columns(formula, *columns) -> np.ndarray:
    """``formula`` over whole columns with numpy's operations, as silent as
    over Python floats: an overflow gives ``±inf`` and ``inf * 0`` gives
    NaN without numpy's ``RuntimeWarning``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return formula(np, *columns)


def _coordinate(k: int) -> tuple[Callable, Callable]:
    """The reads of coordinate ``k``: ``x[k]`` of a point, ``xs[:, k]`` of rows."""
    return operator.itemgetter(k), operator.itemgetter((slice(None), k))


def _forms(formula, read, read_batch) -> tuple[Callable, Callable]:
    """The per-point and batch forms of ``formula(xp, v)`` at the value
    ``read`` takes from a point and the column ``read_batch`` takes from
    rows.  Where float ``**`` raises ``OverflowError`` (numpy's power gives
    inf), the per-point value is the formula's at a numpy float instead."""

    def per_point(x) -> float:
        v = float(read(x))
        try:
            return formula(_FLOATS, v)
        except OverflowError:
            return float(_over_columns(formula, np.float64(v)))

    return per_point, lambda xs: _over_columns(formula, read_batch(xs))


def _one_dim(formula, label: str) -> TargetDensity:
    """Full-support 1-D target from one formula in the coordinate."""
    log_density, log_density_batch = _forms(formula, *_coordinate(0))
    return TargetDensity(1, log_density, label, log_density_batch)


def make_exponential_tail(a: float) -> TargetDensity:
    """Density with log pi(x) = -a|x| on the line.

    Log-concave in the tails with rate ``a``; the reference case for the
    drift analysis under sub-quadratic variance growth.
    """
    if not a > 0:
        raise ParameterError(f"decay rate must be positive, got {a}")
    a = float(a)
    return _one_dim(lambda xp, v: -a * abs(v), f"exp_tail(a={a:g})")


def make_subexponential_tail(a: float, beta: float) -> TargetDensity:
    """Density with log pi(x) = -a|x|^beta, beta in (0,1).

    Tails heavier than any exponential but lighter than polynomial.
    """
    if not a > 0:
        raise ParameterError(f"decay rate must be positive, got {a}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"tail exponent must lie in (0,1), got {beta}")
    a, beta = float(a), float(beta)
    return _one_dim(lambda xp, v: -a * abs(v) ** beta, f"subexp_tail(a={a:g},beta={beta:g})")


def make_polynomial_tail(p: float) -> TargetDensity:
    """Density with log pi(x) = -p*log(1+|x|).

    Smooth at the origin and exactly |x|^{-p} in the tails; a piecewise
    splice point is avoided on purpose.  Requires p >= 1.
    """
    if not p >= 1:
        raise ParameterError(f"tail power must be >= 1, got {p}")
    p = float(p)
    return _one_dim(lambda xp, v: -p * xp.log1p(abs(v)), f"poly_tail(p={p:g})")


def make_gaussian(sigma: float = 1.0) -> TargetDensity:
    """Unnormalized Gaussian, log pi(x) = -x^2 / (2 sigma^2).

    Used by the step-size scans and as the textbook case for the
    reciprocal-density covariance field.
    """
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    s2 = float(sigma) ** 2
    return _one_dim(lambda xp, v: -0.5 * v * v / s2, f"gaussian(sigma={sigma:g})")


def make_ridge_2d() -> TargetDensity:
    """Two-dimensional ridge: log pi(x,y) = -x^2 - y^2 - x^2 y^2.

    Mass concentrates along the coordinate axes in two narrowing arms,
    so a sensible proposal covariance varies strongly with position.
    The formula gives NaN only at a NaN coordinate or as ``inf * 0``,
    where one square is infinite and the other zero; the log-density
    there is ``-inf``, and both forms return that.
    """

    def formula(xp, u, v):  # fmax(-inf, NaN) is -inf on both sides
        return xp.fmax(-math.inf, -u * u - v * v - u * u * v * v)

    return TargetDensity(
        2,
        lambda x: formula(_FLOATS, float(x[0]), float(x[1])),
        "ridge_2d",
        lambda xs: _over_columns(formula, xs[:, 0], xs[:, 1]),
    )


_LOG3 = math.log(3.0)
_INF = math.inf


def make_rectangle() -> RectangleDensity:
    """Staircase density on narrowing stacked rectangles.

    See :class:`RectangleDensity` for the geometry. log-density inside
    level ``k`` is ``-k*log(3)``; ``-inf`` outside the support.
    """

    half_width, half_widths = RectangleDensity.half_width, RectangleDensity.half_widths

    def logp(y: np.ndarray) -> float:
        y2 = float(y[1])
        # a height of +inf has no level: off the support, as in the batch form
        if 1.0 <= y2 < _INF:
            k = math.floor(y2)
            if abs(float(y[0])) <= half_width(k):
                return -k * _LOG3
        return -math.inf

    def logp_batch(ys: np.ndarray) -> np.ndarray:
        y1, y2 = ys[:, 0], ys[:, 1]
        k = np.floor(y2)
        inside = y2 >= 1.0
        inside &= np.abs(y1) <= half_widths(np.where(inside, k, 1.0))
        return np.where(inside, -k, -np.inf) * _LOG3

    return RectangleDensity(2, logp, "rectangle_staircase", logp_batch)


#: density families by name; experiment configs bind their target specs
#: to these factories' signatures
TARGET_FACTORIES = {
    "exponential": make_exponential_tail,
    "subexponential": make_subexponential_tail,
    "polynomial": make_polynomial_tail,
    "gaussian": make_gaussian,
    "ridge": make_ridge_2d,
    "rectangle": make_rectangle,
}
