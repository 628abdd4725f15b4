"""Position-dependent proposal covariance fields.

A :class:`CovarianceField` maps a point ``x`` to the proposal covariance
shape ``S(x)`` (a symmetric positive definite matrix); the random-walk
kernel proposes ``y ~ N(x, h * S(x))``.  Each field carries a
:class:`GrowthClass` describing how ``S`` scales in the tails, which is
what the ergodicity diagnostics condition on.

Fields return dense ``(dim, dim)`` arrays even in one dimension; callers
that want the scalar fast path read ``value[0, 0]``.  Every field also
has a batch form that maps an ``(m, dim)`` array of points to the
``(m, dim, dim)`` stack of their values.  The closed-form fields compute
it in whole-array numpy; the fields built on per-point callbacks or on a
sample set (regional, mixture, kernel-adaptive, weighted-empirical)
stack their per-point values row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, ParameterError, PartitionError
from .targets import TargetDensity

__all__ = [
    "GrowthClass",
    "BOUNDED",
    "QUADRATIC",
    "subquadratic",
    "superquadratic",
    "CovarianceField",
    "PastSampleSet",
    "load_sample_set",
    "constant_field",
    "power_field",
    "one_plus_square_field",
    "ridge_conditional_field",
    "tempered_langevin_field",
    "regional_field",
    "mixture_field",
    "kernel_adaptive_field",
    "weighted_empirical_field",
]


@dataclass(frozen=True)
class GrowthClass:
    """Tail growth regime of a covariance field.

    ``kind`` is one of ``"bounded"``, ``"subquadratic"``, ``"quadratic"``,
    ``"superquadratic"``.  ``gamma`` is the polynomial growth exponent:
    the field scale behaves like ``(1+|x|)^gamma`` for large ``|x|``.
    ``gamma`` is ``inf`` for faster-than-polynomial growth.
    """

    kind: str
    gamma: float


BOUNDED = GrowthClass("bounded", 0.0)
QUADRATIC = GrowthClass("quadratic", 2.0)


def subquadratic(gamma: float) -> GrowthClass:
    if not 0.0 < gamma < 2.0:
        raise ParameterError(f"subquadratic exponent must lie in (0,2), got {gamma}")
    return GrowthClass("subquadratic", float(gamma))


def superquadratic(gamma: float) -> GrowthClass:
    if not gamma > 2.0:
        raise ParameterError(f"superquadratic exponent must exceed 2, got {gamma}")
    return GrowthClass("superquadratic", float(gamma))


@dataclass(frozen=True)
class CovarianceField:
    """A map from position to proposal covariance shape.

    Attributes
    ----------
    dim : int
        Dimension of the state space.
    inv_metric : callable
        Maps a length-``dim`` point to the ``(dim, dim)`` SPD covariance
        shape used by the proposal at that point.
    growth_class : GrowthClass
        Tail scaling tag.
    label : str
        Short identifier used in config digests.
    inv_metric_batch : callable
        Maps an ``(m, dim)`` array of points to the ``(m, dim, dim)``
        stack of their covariance shapes; agrees with ``inv_metric`` row
        by row to float rounding.
    """

    dim: int
    inv_metric: Callable[[np.ndarray], np.ndarray]
    growth_class: GrowthClass
    label: str
    inv_metric_batch: Callable[[np.ndarray], np.ndarray]


def _rowwise(inv_metric: Callable[[np.ndarray], np.ndarray]):
    """Batch form of a field whose value comes from per-point work: the
    stack of its values at each row."""

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        return np.stack([inv_metric(x) for x in xs])

    return inv_metric_batch


class PastSampleSet:
    """A frozen batch of past sample points, shape ``(n, dim)``, n >= 2.

    Adaptive fields take the batch as given and never mutate it; stability
    of the resulting field under new data is the caller's concern.
    """

    def __init__(self, points: np.ndarray):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ParameterError(f"sample set must be 2-d, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ParameterError(
                f"sample set needs at least 2 points, got {pts.shape[0]}"
            )
        if not np.all(np.isfinite(pts)):
            raise ParameterError("sample set contains non-finite entries")
        pts.setflags(write=False)
        self._points = pts

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def dim(self) -> int:
        return self._points.shape[1]


def load_sample_set(path: str | Path) -> PastSampleSet:
    """Read a sample set from a comma-separated file, one point per row."""
    pts = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return PastSampleSet(pts)


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
    m = m.copy()
    m.setflags(write=False)
    dim = m.shape[0]

    def inv_metric(_: np.ndarray) -> np.ndarray:
        return m

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(m, (len(xs), dim, dim))

    return CovarianceField(
        dim, inv_metric, BOUNDED, f"constant(dim={dim})", inv_metric_batch
    )


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
    eye = np.eye(dim)
    eye.setflags(write=False)

    if b == 0.0:
        growth = BOUNDED
    elif b < 2.0:
        growth = subquadratic(b)
    elif b == 2.0:
        growth = QUADRATIC
    else:
        growth = superquadratic(b)

    def scale(r):
        return (1.0 + r) ** b

    def inv_metric(x: np.ndarray) -> np.ndarray:
        # np.linalg.norm of a float vector is sqrt(x.dot(x)); calling
        # that directly gives the same bits without the wrapper's cost
        return scale(math.sqrt(x.dot(x))) * eye

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        return scale(np.linalg.norm(xs, axis=1))[:, None, None] * eye

    return CovarianceField(
        dim, inv_metric, growth, f"power(b={b:g},dim={dim})", inv_metric_batch
    )


def one_plus_square_field() -> CovarianceField:
    """One-dimensional field with inverse metric 1 + x^2.

    The canonical quadratic-growth proposal variance: unit sized at the
    origin, scaling like x^2 in the tails.
    """

    def inv_metric(x: np.ndarray) -> np.ndarray:
        return np.array([[1.0 + float(x[0]) ** 2]])

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        return (1.0 + xs[:, 0] ** 2)[:, None, None]

    return CovarianceField(1, inv_metric, QUADRATIC, "one_plus_square", inv_metric_batch)


def ridge_conditional_field() -> CovarianceField:
    """Two-dimensional field matched to the ridge target's conditionals.

    Under exp(-x1^2 - x2^2 - x1^2 x2^2) each coordinate given the other
    is a centred Gaussian with variance 1 / (2 (1 + other^2)); the field
    simply proposes with those conditional variances on the diagonal.
    """

    def inv_metric(x: np.ndarray) -> np.ndarray:
        return np.diag(
            [
                1.0 / (2.0 * (1.0 + float(x[1]) ** 2)),
                1.0 / (2.0 * (1.0 + float(x[0]) ** 2)),
            ]
        )

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = 1.0 / (2.0 * (1.0 + xs[:, 1] ** 2))
        out[:, 1, 1] = 1.0 / (2.0 * (1.0 + xs[:, 0] ** 2))
        return out

    return CovarianceField(2, inv_metric, BOUNDED, "ridge_conditional", inv_metric_batch)


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
    eye = np.eye(target.dim)
    eye.setflags(write=False)

    tc = target.tail_class
    if tc.kind == "polynomial":
        p = tc.power
        if p < 2.0:
            growth = subquadratic(p) if p > 0 else BOUNDED
        elif p == 2.0:
            growth = QUADRATIC
        else:
            growth = superquadratic(p)
    elif tc.kind == "compact":
        growth = BOUNDED
    else:
        # exponential-or-faster decay: the reciprocal outgrows every power
        growth = GrowthClass("superquadratic", math.inf)

    def inv_metric(x: np.ndarray) -> np.ndarray:
        lp = target.log_density(x)
        if lp == -math.inf:
            raise EvaluationError(
                f"reciprocal-density field undefined off support at {x}"
            )
        scale = c_max if -lp >= log_cap else math.exp(-lp)
        return scale * eye

    def inv_metric_batch(xs: np.ndarray) -> np.ndarray:
        lp = target.log_density_batch(xs)
        off = lp == -np.inf
        if off.any():
            x = xs[np.argmax(off)]
            raise EvaluationError(
                f"reciprocal-density field undefined off support at {x}"
            )
        scale = np.where(-lp >= log_cap, c_max, np.exp(np.minimum(-lp, log_cap)))
        return scale[:, None, None] * eye

    return CovarianceField(
        target.dim,
        inv_metric,
        growth,
        f"tempered_langevin({target.label},cap={c_max:g})",
        inv_metric_batch,
    )


def regional_field(
    regions: Sequence[tuple[Callable[[np.ndarray], bool], np.ndarray]],
    check_partition: bool = True,
) -> CovarianceField:
    """Piecewise-constant covariance over a partition of the space.

    ``regions`` is a sequence of ``(membership_test, sigma)`` pairs.  The
    tests must partition the space: at construction a probabilistic check
    evaluates them on 256 spread-out points and rejects the field if any
    point matches zero or several regions.  Evaluation re-checks the point
    actually queried.  With ``check_partition=False`` overlaps are
    tolerated and the last matching region wins; a point matching nothing
    is always an error.
    """
    if len(regions) < 1:
        raise ParameterError("need at least one region")
    mats = [_as_spd(s, f"region {i} covariance") for i, (_, s) in enumerate(regions)]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ParameterError(
                f"region {i} covariance has dim {m.shape[0]}, expected {dim}"
            )
    tests = [t for t, _ in regions]
    frozen = []
    for m in mats:
        c = m.copy()
        c.setflags(write=False)
        frozen.append(c)

    def matches(x: np.ndarray) -> list[int]:
        return [i for i, t in enumerate(tests) if t(x)]

    if check_partition:
        probe_rng = np.random.default_rng(0)
        probes = 3.0 * probe_rng.standard_normal((256, dim))
        for row in probes:
            hit = matches(row)
            if len(hit) != 1:
                raise PartitionError(
                    f"partition check failed at {row}: {len(hit)} regions match"
                )

    def inv_metric(x: np.ndarray) -> np.ndarray:
        hit = matches(x)
        if not hit:
            raise PartitionError(f"no region contains {x}")
        if len(hit) > 1 and check_partition:
            raise PartitionError(f"{len(hit)} regions contain {x}")
        return frozen[hit[-1]]

    return CovarianceField(
        dim,
        inv_metric,
        BOUNDED,
        f"regional(n={len(regions)},dim={dim})",
        _rowwise(inv_metric),
    )


def mixture_field(
    weight_fn: Callable[[np.ndarray], np.ndarray],
    sigmas: Sequence[np.ndarray],
) -> CovarianceField:
    """Smooth convex blend of fixed covariances with position weights.

    ``weight_fn(x)`` must return a point on the probability simplex over
    the components (within 1e-10); anything else raises at evaluation.
    A convex combination of SPD matrices is SPD, so no further check runs
    per call.
    """
    if len(sigmas) < 1:
        raise ParameterError("need at least one component")
    mats = [_as_spd(s, f"component {i}") for i, s in enumerate(sigmas)]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ParameterError(
                f"component {i} has dim {m.shape[0]}, expected {dim}"
            )
    stack = np.stack(mats)
    stack.setflags(write=False)
    k = len(mats)

    def inv_metric(x: np.ndarray) -> np.ndarray:
        w = np.asarray(weight_fn(x), dtype=float)
        if w.shape != (k,):
            raise EvaluationError(
                f"weight function returned shape {w.shape}, expected ({k},)"
            )
        if w.min() < -1e-10 or abs(float(w.sum()) - 1.0) > 1e-10:
            raise EvaluationError(
                f"weights at {x} are off the simplex: sum={w.sum():.3e}, "
                f"min={w.min():.3e}"
            )
        return np.tensordot(np.clip(w, 0.0, None), stack, axes=1)

    return CovarianceField(
        dim, inv_metric, BOUNDED, f"mixture(k={k},dim={dim})", _rowwise(inv_metric)
    )


def kernel_adaptive_field(
    samples: PastSampleSet, gamma: float, nu: float, sigma_k: float
) -> CovarianceField:
    """Covariance adapted to past samples through a Gaussian kernel.

    With kernel ``k(z, x) = exp(-|z-x|^2 / (2 sigma_k^2))`` the field is

        gamma^2 I + nu^2 M_x H M_x^T,

    where column ``i`` of ``M_x`` is ``2 k(z_i, x)(z_i - x) / sigma_k^2``
    (the kernel gradient at sample ``z_i``) and ``H = I - (1/n) 1 1^T``
    centers the columns.  Far from all samples the gradients vanish and
    the field settles to ``gamma^2 I``, hence bounded growth.
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not nu >= 0:
        raise ParameterError(f"nu must be nonnegative, got {nu}")
    if not sigma_k > 0:
        raise ParameterError(f"kernel width must be positive, got {sigma_k}")
    z = samples.points
    n, dim = z.shape
    g2 = float(gamma) ** 2
    nu2 = float(nu) ** 2
    sk2 = float(sigma_k) ** 2
    eye = np.eye(dim)
    centering = np.eye(n) - np.full((n, n), 1.0 / n)

    def inv_metric(x: np.ndarray) -> np.ndarray:
        diff = z - x[None, :]  # (n, dim)
        kv = np.exp(-0.5 * np.einsum("ij,ij->i", diff, diff) / sk2)
        m = (2.0 / sk2) * (diff * kv[:, None]).T  # (dim, n)
        return g2 * eye + nu2 * (m @ centering @ m.T)

    return CovarianceField(
        dim,
        inv_metric,
        BOUNDED,
        f"kernel_adaptive(n={n},gamma={gamma:g},nu={nu:g},sigma_k={sigma_k:g})",
        _rowwise(inv_metric),
    )


def weighted_empirical_field(
    samples: PastSampleSet,
    weight_fn: Callable[[np.ndarray, np.ndarray], float],
    ridge: float = 0.0,
) -> CovarianceField:
    """Weighted scatter of past samples about the current point.

        sum_i w_i(x) (z_i - x)(z_i - x)^T + ridge * I

    ``weight_fn(x, z_i)`` gives the weight of sample ``i``; the weights
    must be nonnegative and sum to one at every query (checked to 1e-8).
    The scatter grows quadratically as the chain leaves the sample cloud.
    With ``ridge = 0`` the result can be singular (for example fewer
    samples than dimensions); callers needing strict definiteness pass a
    positive ridge.
    """
    if not ridge >= 0:
        raise ParameterError(f"ridge must be nonnegative, got {ridge}")
    z = samples.points
    n, dim = z.shape
    ridge = float(ridge)
    eye = np.eye(dim)

    def inv_metric(x: np.ndarray) -> np.ndarray:
        w = np.array([weight_fn(x, z[i]) for i in range(n)], dtype=float)
        if w.min() < -1e-12:
            raise EvaluationError(f"negative weight {w.min():g} at {x}")
        if abs(float(w.sum()) - 1.0) > 1e-8:
            raise EvaluationError(
                f"weights at {x} must sum to 1, got {w.sum():.10g}"
            )
        diff = z - x[None, :]
        return (diff.T * w) @ diff + ridge * eye

    return CovarianceField(
        dim,
        inv_metric,
        QUADRATIC,
        f"weighted_empirical(n={n},ridge={ridge:g})",
        _rowwise(inv_metric),
    )
