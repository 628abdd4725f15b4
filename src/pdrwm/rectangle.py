"""Exact planar geometry for the narrowing-rectangle target.

The staircase target lives on stacked rectangles that shrink by a factor
of three per level.  With uniform shape proposals (a unit disc, or the
level-adapted ellipse) every acceptance probability is a density ratio
times an area, so rejection probabilities and hemisphere overlaps have
exact values by one-dimensional quadrature over chord lengths.  This
module computes those values to quadrature accuracy; it is the
ground-truth side against which the Monte Carlo probes are reconciled.

All areas integrate the horizontal chord of the shape clipped to the
rectangle widths, with explicit breakpoints where the clipping switches
on or off so the adaptive quadrature never straddles a kink.  The
widths come from :class:`~pdrwm.targets.RectangleDensity`.  They are
subnormal from level 646, where the hemisphere comparison raises
``NumericError`` as the ellipse proposal does, and 0.0 from level 680,
where a strip holds no area.

The chord integrand is the hot loop of this module: the default
hemisphere sweep evaluates it about a hundred thousand times.  It is
written with plain comparisons and constants bound at definition, but
performs the same IEEE operations in the same order as the textbook
``max(0, min(c1 + s, w) - max(c1 - s, -w))`` form, so every area is
bit-identical to that form's.  The chord is also mirror-exact in the
horizontal centre, which lets :func:`hemisphere_sweep` solve each
mirrored pair of sweep points once.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import NumericError, ParameterError, SupportError
from .targets import RectangleDensity, make_rectangle

__all__ = [
    "chord_overlap_integral",
    "overlap_area",
    "exact_rejection_disc",
    "disc_rejection_lower_bound",
    "disc_rejection_area_bound",
    "HemisphereOverlap",
    "hemisphere_overlap_check",
    "crosses_level_boundary",
    "HemisphereSweepRow",
    "hemisphere_sweep",
]

#: quadrature must certify at least this absolute accuracy per area
_AREA_TOL = 1e-8


_half_width = RectangleDensity.half_width


def chord_overlap_integral(
    c1: float,
    c2: float,
    semi_width: float,
    semi_height: float,
    window_half_width: float,
    y_lo: float,
    y_hi: float,
) -> float:
    """Area of an axis-aligned ellipse slice clipped to a vertical strip.

    The ellipse is centered at ``(c1, c2)`` with the given semi-axes; the
    area integrates its horizontal chord over ``[y_lo, y_hi]`` after
    clipping to ``|x| <= window_half_width``.  Raises if the quadrature
    cannot certify eight decimals.  Every argument must be finite except
    the window half-width, which may be ``inf`` (no clipping).  A window
    of half-width zero (a staircase level from 680 up) holds no area.

    The integrand computes ``u = (y - c2) / semi_height``, then
    ``s = semi_width * sqrt(max(0, 1 - u*u))``, then clips ``c1 + s`` and
    ``c1 - s`` to the window and takes their nonnegative difference.  Its
    comparisons pick the same operand as builtin ``max``/``min`` would,
    so each value, and hence each quadrature result, has the same bits as
    that plain form.  Negating ``c1`` negates both clipped endpoints
    exactly and swaps them, so the chord, the breakpoints and the area at
    ``-c1`` equal those at ``c1`` bit for bit.
    """
    if math.isnan(window_half_width) or not all(
        map(math.isfinite, (c1, c2, semi_width, semi_height, y_lo, y_hi))
    ):
        raise ParameterError(
            "ellipse centre, semi-axes and level bounds must be finite and "
            "the window half-width not NaN"
        )
    if semi_width <= 0 or semi_height <= 0:
        raise ParameterError("semi-axes must be positive")
    if window_half_width < 0:
        raise ParameterError("window half-width must not be negative")
    lo = max(y_lo, c2 - semi_height)
    hi = min(y_hi, c2 + semi_height)
    if hi <= lo or window_half_width == 0:
        return 0.0

    w = window_half_width

    def chord(y, c1=c1, c2=c2, a=semi_width, b=semi_height, w=w, nw=-w,
              sqrt=math.sqrt):
        u = (y - c2) / b
        t = 1.0 - u * u
        s = a * sqrt(t) if t > 0.0 else 0.0
        right = c1 + s
        if w < right:
            right = w
        left = c1 - s
        if nw > left:
            left = nw
        d = right - left
        return d if d > 0.0 else 0.0

    # clipping switches where the chord endpoints cross the strip edges
    points = []
    for t in (w - c1, w + c1):
        if 0.0 < t < semi_width:
            r = semi_height * math.sqrt(1.0 - (t / semi_width) ** 2)
            for y in (c2 - r, c2 + r):
                if lo < y < hi:
                    points.append(y)

    val, abserr = quad(
        chord, lo, hi, points=sorted(points), limit=200, epsabs=1e-12, epsrel=1e-10
    )
    if abserr > _AREA_TOL:
        raise NumericError(
            f"chord quadrature only reached abserr {abserr:g} on [{lo:g}, {hi:g}]"
        )
    return float(val)


def overlap_area(
    center: Sequence[float],
    level: int,
    semi_width: float = 1.0,
    semi_height: float = 1.0,
) -> float:
    """Area of the ellipse (default: unit disc) at ``center`` inside the
    level-``level`` rectangle ``[-w, w] x [level, level + 1)`` of the
    staircase support, ``w`` its half-width."""
    if level < 1:
        raise ParameterError(f"levels start at 1, got {level}")
    c1, c2 = float(center[0]), float(center[1])
    return chord_overlap_integral(
        c1, c2, semi_width, semi_height, _half_width(level), float(level),
        float(level + 1),
    )


def _planar_point(x: Sequence[float]) -> np.ndarray:
    """``x`` as a finite length-2 float vector, or a ParameterError."""
    xv = np.asarray(x, dtype=float).ravel()
    if xv.shape != (2,):
        raise ParameterError(f"expected a planar point, got shape {xv.shape}")
    if not (math.isfinite(xv[0]) and math.isfinite(xv[1])):
        raise ParameterError(f"planar point must be finite, got {xv}")
    return xv


def _levels_touching(c2: float, semi_height: float = 1.0) -> range:
    lo = max(1, math.floor(c2 - semi_height))
    hi = math.floor(c2 + semi_height)
    return range(lo, hi + 1)


def exact_rejection_disc(x: Sequence[float]) -> float:
    """Exact rejection probability of the unit-disc proposal at ``x``.

    A proposal into level ``m`` from a point in level ``k`` is accepted
    with probability ``min(1, 3**(k-m))`` (the density ratio), so the
    accepted mass is a weighted sum of per-level overlap areas over pi.
    ``x`` must lie in the staircase support.
    """
    xv = _planar_point(x)
    if not _RECT.support_test(xv):
        raise SupportError(f"{xv} is outside the staircase support")
    k = RectangleDensity.level(xv)
    accepted = 0.0
    for m in _levels_touching(float(xv[1])):
        area = overlap_area(xv, m)
        if area > 0.0:
            accepted += min(1.0, 3.0 ** (k - m)) * area
    r = 1.0 - accepted / math.pi
    return min(1.0, max(0.0, r))


_RECT = make_rectangle()


def disc_rejection_lower_bound(p: int) -> float:
    """Published rejection constant at the level-p center.

        1 - (3**(2-p) + 3**(1-p)) / pi

    On this staircase it is *not* a lower bound.  It counts the
    half-widths of the two levels the unit disc at ``(0, p)`` can reach,
    one width unit per level, but the disc covers almost all of both
    full-width strips, whose area is twice that.  The exact rejection
    from :func:`exact_rejection_disc` sits below this constant at every
    ``p`` (``1 - exact`` tends to twice ``1 - constant``) and dominates
    :func:`disc_rejection_area_bound`, the provable version.  The
    constant is kept as a reported comparison value.
    """
    if p < 3:
        raise ParameterError(f"the bound is stated for levels p >= 3, got {p}")
    return 1.0 - (_half_width(p - 1) + _half_width(p)) / math.pi


def disc_rejection_area_bound(p: int) -> float:
    """Provable bound: accepted mass at ``(0, p)`` is at most the full
    area ``2 * 3**(2-p) + 2 * 3**(1-p)`` of the two reachable levels,
    so rejection is at least one minus that over pi."""
    if p < 3:
        raise ParameterError(f"the bound is stated for levels p >= 3, got {p}")
    return 1.0 - 2.0 * (_half_width(p - 1) + _half_width(p)) / math.pi


class HemisphereOverlap(NamedTuple):
    lower: float
    upper: float
    passes: bool


def crosses_level_boundary(x: Sequence[float]) -> bool:
    """Whether the level-adapted ellipse at ``x`` pokes into the next
    level's rectangle with positive area.

    With ``frac`` the height of ``x`` above its level floor and ``w`` the
    level half-width, the ellipse reaches the boundary plane iff
    ``frac > 0``, and its chord there must overlap the narrower upper
    rectangle: ``|x1| < w * sqrt(1 - (1-frac)^2) + w/3``.  Points passing
    this test are exactly the ones where the lower hemisphere overlap is
    strictly larger than the upper one.  A height below level 1 is off
    the staircase and raises :class:`SupportError`.
    """
    xv = _planar_point(x)
    k = math.floor(xv[1])
    if k < 1:
        raise SupportError(f"{xv} is below the staircase, whose levels start at 1")
    frac = float(xv[1]) - k
    if frac <= 0.0:
        return False
    w = _half_width(k)
    reach = w * math.sqrt(1.0 - (1.0 - frac) ** 2)
    return abs(float(xv[0])) < reach + w / 3.0


def hemisphere_overlap_check(x: Sequence[float]) -> HemisphereOverlap:
    """Support overlap of the two hemispheres of the ellipse proposal.

    For ``x`` in level ``k >= 2`` the proposal ellipse has semi-axes
    ``(3**(1-k), 1)``.  The move-down hemisphere only ever meets levels
    ``k`` and the wider ``k-1``, while the move-up hemisphere is clipped
    by the narrower level ``k+1``; ``lower >= upper`` therefore always,
    and strictly when the ellipse actually crosses into level ``k+1``
    (see :func:`crosses_level_boundary`).  ``passes`` records the strict
    comparison.  From level 646 up the semi-width is subnormal and this
    raises ``NumericError``, as the ellipse proposal does.
    """
    xv = _planar_point(x)
    if not _RECT.support_test(xv):
        raise SupportError(f"{xv} is outside the staircase support")
    k = RectangleDensity.level(xv)
    if k < 2:
        raise ParameterError(
            "hemisphere comparison needs a level k >= 2 start (the level-1 "
            "rectangle has nothing wider below it)"
        )
    c1, c2 = float(xv[0]), float(xv[1])
    if k >= RectangleDensity.subnormal_level:
        raise NumericError(
            f"ellipse semi-width 3**(1 - floor(x2)) underflows at height {c2!r}"
        )
    w = _half_width(k)

    def hemisphere(y_lo: float, y_hi: float) -> float:
        total = 0.0
        for m in _levels_touching(c2):
            seg_lo = max(y_lo, float(m))
            seg_hi = min(y_hi, float(m + 1))
            if seg_hi > seg_lo:
                total += chord_overlap_integral(
                    c1, c2, w, 1.0, _half_width(m), seg_lo, seg_hi
                )
        return total

    lower = hemisphere(c2 - 1.0, c2)
    upper = hemisphere(c2, c2 + 1.0)
    return HemisphereOverlap(lower, upper, lower > upper)


class HemisphereSweepRow(NamedTuple):
    k: int
    x1: float
    x2: float
    lower_overlap: float
    upper_overlap: float
    passes: bool


def hemisphere_sweep(
    levels: Sequence[int] = tuple(range(2, 13)),
    height_fracs: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8),
    x1_fracs: Sequence[float] = (-0.8, -0.4, 0.0, 0.4, 0.8),
) -> list[HemisphereSweepRow]:
    """Hemisphere comparison on a grid of boundary-crossing starts.

    The default grid takes eleven levels, five heights within each level
    and five horizontal positions as fractions of the level half-width,
    275 points in all, every one of which crosses its upper level
    boundary, so ``passes`` is expected to hold at each row.

    The overlaps at ``(-x1, x2)`` equal those at ``(x1, x2)`` bit for bit
    (see :func:`chord_overlap_integral`), so each point is solved once
    per ``|x1|`` and its mirror image reuses the result; on the default
    grid that is 165 solves for 275 rows.  The reuse lasts one call:
    nothing is remembered between sweeps.  Rows, their order and their
    ``x1`` values are those of the plain point-by-point sweep.
    """
    rows = []
    solved: dict[tuple[float, float], HemisphereOverlap] = {}
    for k in levels:
        w = _half_width(k)
        for frac in height_fracs:
            if not 0.0 < frac < 1.0:
                raise ParameterError(f"height fractions must lie in (0,1), got {frac}")
            for xf in x1_fracs:
                if not -1.0 < xf < 1.0:
                    raise ParameterError(
                        f"x1 fractions must lie in (-1,1), got {xf}"
                    )
                x = (xf * w, k + frac)
                if not crosses_level_boundary(x):
                    raise ParameterError(
                        f"sweep point {x} does not cross its level boundary; "
                        "widen the height fractions"
                    )
                key = (abs(x[0]), x[1])
                res = solved.get(key)
                if res is None:
                    res = solved[key] = hemisphere_overlap_check(x)
                rows.append(
                    HemisphereSweepRow(
                        int(k), x[0], x[1], res.lower, res.upper, res.passes
                    )
                )
    return rows
