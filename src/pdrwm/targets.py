"""Unnormalized target densities with tail metadata.

Every factory here returns an immutable :class:`TargetDensity` carrying a
log-density, a support test, and a :class:`TailClass` tag that the
diagnostics and oracle modules key their expectations on.  Densities are
unnormalized throughout; all Metropolis quantities depend only on ratios.

Points are 1-D numpy arrays of length ``dim``; batches of points are
``(m, dim)`` arrays, one point per row.  Each formula is written once
over coordinates: the per-point form hands it Python floats, the batch
form whole columns.  The two forms therefore agree to the last bit or
two, not exactly: numpy's vectorised ``exp``/``log1p`` may round
differently from the C library on a few percent of inputs, and the
chains keep the per-point arithmetic they always had.  The staircase's
two forms agree exactly: :class:`RectangleDensity` alone defines its
level rule, which every other module reads, and its array form looks up
the scalar form's floats.  Its half-width is subnormal from level 646
and exactly 0.0 from level 680.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import ParameterError

__all__ = [
    "TailClass",
    "log_concave",
    "subexponential",
    "polynomial",
    "COMPACT",
    "OTHER",
    "TargetDensity",
    "RectangleDensity",
    "make_exponential_tail",
    "make_subexponential_tail",
    "make_polynomial_tail",
    "make_gaussian",
    "make_ridge_2d",
    "make_rectangle",
    "TARGET_FACTORIES",
]


@dataclass(frozen=True)
class TailClass:
    """Tail-behaviour tag for a one-dimensional density.

    ``kind`` is one of ``"log_concave"`` (ratio bound e^{-a(y-x)} in the
    tails, parameter ``rate``), ``"subexponential"`` (ratio bound
    e^{-a(y^beta - x^beta)}, parameters ``rate`` and ``exponent``),
    ``"polynomial"`` (decay |x|^{-p}, parameter ``power``), ``"compact"``,
    or ``"other"``.
    """

    kind: str
    rate: float | None = None
    exponent: float | None = None
    power: float | None = None


def log_concave(a: float) -> TailClass:
    return TailClass("log_concave", rate=float(a))


def subexponential(a: float, beta: float) -> TailClass:
    return TailClass("subexponential", rate=float(a), exponent=float(beta))


def polynomial(p: float) -> TailClass:
    return TailClass("polynomial", power=float(p))


COMPACT = TailClass("compact")
OTHER = TailClass("other")


@dataclass(frozen=True)
class TargetDensity:
    """An unnormalized target distribution.

    Attributes
    ----------
    dim : int
        Dimension of the state space.
    log_density : callable
        Maps a length-``dim`` point to a float, ``-inf`` off support.
    tail_class : TailClass
        Metadata describing the tail regime.
    support_test : callable
        Maps a point to ``True`` iff the density is positive there.
    label : str
        Short human-readable identifier, used in config digests.
    log_density_batch : callable
        Maps an ``(m, dim)`` array of points to the ``(m,)`` array of
        their log-densities, ``-inf`` off support, so ``> -inf`` is the
        batch support test.  Agrees with ``log_density`` row by row to
        float rounding.
    """

    dim: int
    log_density: Callable[[np.ndarray], float]
    tail_class: TailClass
    support_test: Callable[[np.ndarray], bool]
    label: str
    log_density_batch: Callable[[np.ndarray], np.ndarray]


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


def _always(_: np.ndarray) -> bool:
    return True


def _log1p(v):
    """``log1p`` of a Python float (C library) or of an array (numpy)."""
    return math.log1p(v) if isinstance(v, float) else np.log1p(v)


def _one_dim(formula, tail_class: TailClass, label: str) -> TargetDensity:
    """Full-support 1-D target from one formula in the coordinate: the
    per-point form passes it ``float(x[0])``, the batch form ``xs[:, 0]``."""
    return TargetDensity(
        1,
        lambda x: formula(float(x[0])),
        tail_class,
        _always,
        label,
        lambda xs: formula(xs[:, 0]),
    )


def make_exponential_tail(a: float) -> TargetDensity:
    """Density with log pi(x) = -a|x| on the line.

    Log-concave in the tails with rate ``a``; the reference case for the
    drift analysis under sub-quadratic variance growth.
    """
    if not a > 0:
        raise ParameterError(f"decay rate must be positive, got {a}")
    a = float(a)
    return _one_dim(lambda v: -a * abs(v), log_concave(a), f"exp_tail(a={a:g})")


def make_subexponential_tail(a: float, beta: float) -> TargetDensity:
    """Density with log pi(x) = -a|x|^beta, beta in (0,1).

    Tails heavier than any exponential but lighter than polynomial.
    """
    if not a > 0:
        raise ParameterError(f"decay rate must be positive, got {a}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"tail exponent must lie in (0,1), got {beta}")
    a, beta = float(a), float(beta)
    return _one_dim(
        lambda v: -a * abs(v) ** beta,
        subexponential(a, beta),
        f"subexp_tail(a={a:g},beta={beta:g})",
    )


def make_polynomial_tail(p: float) -> TargetDensity:
    """Density with log pi(x) = -p*log(1+|x|).

    Smooth at the origin and exactly |x|^{-p} in the tails; a piecewise
    splice point is avoided on purpose.  Requires p >= 1.
    """
    if not p >= 1:
        raise ParameterError(f"tail power must be >= 1, got {p}")
    p = float(p)
    return _one_dim(lambda v: -p * _log1p(abs(v)), polynomial(p), f"poly_tail(p={p:g})")


def make_gaussian(sigma: float = 1.0) -> TargetDensity:
    """Unnormalized Gaussian, log pi(x) = -x^2 / (2 sigma^2).

    Used by the step-size scans and as the textbook case for the
    reciprocal-density covariance field.
    """
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    s2 = float(sigma) ** 2
    return _one_dim(lambda v: -0.5 * v * v / s2, OTHER, f"gaussian(sigma={sigma:g})")


def make_ridge_2d() -> TargetDensity:
    """Two-dimensional ridge: log pi(x,y) = -x^2 - y^2 - x^2 y^2.

    Mass concentrates along the coordinate axes in two narrowing arms,
    so a sensible proposal covariance varies strongly with position.
    """

    def formula(u, v):
        return -u * u - v * v - u * u * v * v

    return TargetDensity(
        2,
        lambda x: formula(float(x[0]), float(x[1])),
        OTHER,
        _always,
        "ridge_2d",
        lambda xs: formula(xs[:, 0], xs[:, 1]),
    )


_LOG3 = math.log(3.0)
_INF = math.inf


def make_rectangle() -> RectangleDensity:
    """Staircase density on narrowing stacked rectangles.

    See :class:`RectangleDensity` for the geometry. log-density inside
    level ``k`` is ``-k*log(3)``; ``-inf`` outside the support.
    """

    half_width, half_widths = RectangleDensity.half_width, RectangleDensity.half_widths

    # a height of +inf has no level: off the support, as in the batch form
    def in_support(y: np.ndarray) -> bool:
        y2 = float(y[1])
        return 1.0 <= y2 < _INF and abs(float(y[0])) <= half_width(math.floor(y2))

    def logp(y: np.ndarray) -> float:
        y2 = float(y[1])
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

    return RectangleDensity(
        2, logp, OTHER, in_support, "rectangle_staircase", logp_batch
    )


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
