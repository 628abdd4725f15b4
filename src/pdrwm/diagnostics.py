"""Monte Carlo diagnostics for geometric ergodicity.

Drift of a Lyapunov function, tail rejection probabilities, the mass of
the good acceptance set, deterministic tail acceptance profiles, and
expected squared jumping distance scans.  Everything here is a frozen
function of its seed: probes at different positions reuse the same seed
so curves over position are common-random-number smooth.

The probes estimate one-step integrals under the proposal, not ergodic
averages, so their standard errors are iid Monte Carlo errors.  Each
probe draws its n proposals in one ``sample_batch`` call and evaluates
them ``_ROW_CHUNK`` rows at a time through the batch callables of the
target, kernel and Lyapunov function
(:func:`pdrwm.chain.log_accept_ratio_batch`), into one array of n values
that the mean and standard error reduce whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .chain import (
    _check_dim,
    _closed_form_at,
    _iid_mean_se,
    batch_means_se,
    log_accept_ratio_batch,
    run_chain,
)
from .errors import NumericError, ParameterError
from .fields import CovarianceField, _norm, _norms, power_field
from .proposals import ProposalKernel, _step_size, gaussian_proposal
from .targets import _FLOATS, TargetDensity, _forms, _over_columns
from .targets import _log_density_on_support

__all__ = [
    "LyapunovFunction",
    "exp_abs",
    "abs_pow",
    "rectangle_v",
    "DriftResult",
    "ProbeEstimate",
    "drift_ratio",
    "rejection_probability",
    "acceptance_set_mass",
    "ProfilePoint",
    "tail_acceptance_profile",
    "EsjdPoint",
    "esjd_scan",
    "tune_step_size",
]

#: cap on the one-sample Lyapunov ratio V(y)/V(x) inside the drift probe
V_RATIO_CAP = 1e15
_LOG_CAP = math.log(V_RATIO_CAP)

#: rows a batch Monte Carlo pass evaluates at once: each elementwise
#: temporary is then 64 KB, which stays in a 2 MB L2 cache and below
#: glibc's mmap threshold
_ROW_CHUNK = 8192

#: steps of each probe chain in :func:`tune_step_size`
_TUNE_PROBE_STEPS = 4000
#: bisection steps of :func:`tune_step_size` once a bracket is found
_TUNE_MAX_ITER = 16


@dataclass(frozen=True)
class LyapunovFunction:
    """A drift function V >= 1 with a log-domain evaluator.

    ``log_evaluate`` is the primary interface; ``evaluate`` exponentiates
    and returns ``inf`` past the float range, which is why every consumer
    in this package works with the logs.  The per-point forms take a
    length-``dim`` point as a tuple of Python floats or as an array, with
    the same bits.  ``log_evaluate_batch`` maps an ``(m, dim)`` array of
    points to the ``(m,)`` array of log V, equal to ``log_evaluate`` row
    by row to float rounding.
    """

    label: str
    log_evaluate: Callable[[np.ndarray], float]
    log_evaluate_batch: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x: np.ndarray) -> float:
        try:
            return math.exp(self.log_evaluate(x))
        except OverflowError:
            return math.inf


def exp_abs(s: float) -> LyapunovFunction:
    """V(x) = exp(s |x|).  The workhorse for exponential-tail targets;
    pick ``s`` below the target's decay rate."""
    if not s > 0:
        raise ParameterError(f"scale must be positive, got {s}")
    s = float(s)
    log_v = _forms(lambda xp, r: s * r, _norm, _norms)
    return LyapunovFunction(f"exp_abs(s={s:g})", *log_v)


def abs_pow(s: float) -> LyapunovFunction:
    """V(x) = max(1, |x|^s) for polynomial-tail targets."""
    if not s > 0:
        raise ParameterError(f"power must be positive, got {s}")
    s = float(s)

    # r <= 1 gives V = 1, and the floor keeps log(0) out
    def log_v(xp, r):
        return xp.maximum(0.0, s * xp.log(xp.maximum(r, 1.0)))

    return LyapunovFunction(f"abs_pow(s={s:g})", *_forms(log_v, _norm, _norms))


def rectangle_v() -> LyapunovFunction:
    """V(y) = |y2| + max(1, |y1|), tailored to the staircase target:
    it grows with height, which is the direction the chain must drift
    back down."""

    def log_v(xp, y1, y2):
        return xp.log(abs(y2) + xp.maximum(1.0, abs(y1)))

    return LyapunovFunction(
        "rectangle_v",
        lambda y: log_v(_FLOATS, float(y[0]), float(y[1])),
        lambda ys: _over_columns(log_v, ys[:, 0], ys[:, 1]),
    )


class DriftResult(NamedTuple):
    estimate: float
    se: float
    truncated_mass: float


class ProbeEstimate(NamedTuple):
    estimate: float
    se: float


_MIN_DRAWS = 1000  # the fewest proposals a Monte Carlo probe draws


def _row_chunks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_ROW_CHUNK`` rows covering ``range(n)``.

    Every row gets the bits it would get in one whole-array pass: the
    batch callables work row by row, so only the array lengths change.
    """
    step = _ROW_CHUNK
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _probe_setup(
    target: TargetDensity, kernel: ProposalKernel, x, n: int
) -> np.ndarray:
    """The probe point as a length-``dim`` array, after the checks every
    probe shares: enough proposals, target and kernel of one dimension,
    and a point of that dimension on the target support."""
    if n < _MIN_DRAWS:
        raise ParameterError(f"need n >= {_MIN_DRAWS} proposals, got {n}")
    x = np.asarray(x, dtype=float).ravel()
    _check_dim(target, kernel.dim)
    _log_density_on_support(target, x, "probe point")
    return x


def _alphas(
    target: TargetDensity, kernel: ProposalKernel, x: np.ndarray, n: int, seed: int
) -> np.ndarray:
    """Acceptance probabilities of ``n`` proposals from ``x``, zero off support.

    The ``n`` proposals are drawn in one call, so the random stream is
    that of one draw, and evaluated chunk by chunk (:func:`_row_chunks`).
    """
    ys = kernel.sample_batch(x, n, np.random.default_rng(seed))
    alphas = np.empty(n)
    for rows in _row_chunks(n):
        np.exp(log_accept_ratio_batch(target, kernel, x, ys[rows]), out=alphas[rows])
    return alphas


def drift_ratio(
    target: TargetDensity,
    kernel: ProposalKernel,
    lyapunov: LyapunovFunction,
    x,
    n: int = 100_000,
    seed: int = 0,
) -> DriftResult:
    """Monte Carlo estimate of E[V(X_1)] / V(x) for the chain started at x.

    Each proposal contributes ``alpha * V(y)/V(x) + (1 - alpha)``,
    assembled as ``exp(log alpha + log V(y) - log V(x))`` so huge ratios
    never pass through the linear domain.  Ratios above ``V_RATIO_CAP``
    are clipped and the clipped fraction reported as ``truncated_mass``;
    a nonzero value means the estimate is a lower bound, which for a
    drift *failure* diagnosis (ratio >= 1) is the conservative side.

    Values below 1 indicate contraction of V at x; a curve of these over
    growing |x| bounded away from 1 is the numerical fingerprint of a
    geometric drift condition.

    The ``n`` proposals are drawn in one call and evaluated chunk by
    chunk (:func:`_row_chunks`) into one array of summands, whose mean
    and standard error are taken whole: the bits of one whole-array pass.
    """
    x = _probe_setup(target, kernel, x, n)
    log_vx = lyapunov.log_evaluate(x)
    if not math.isfinite(log_vx):
        raise ParameterError(f"V must be finite at the probe point, got {log_vx}")
    ys = kernel.sample_batch(x, n, np.random.default_rng(seed))
    summands = np.empty(n)
    clipped = 0
    for rows in _row_chunks(n):
        y = ys[rows]
        la = log_accept_ratio_batch(target, kernel, x, y)
        dv = lyapunov.log_evaluate_batch(y) - log_vx
        over = dv > _LOG_CAP
        # clipping counts on the support only; off it alpha = 0 leaves V in place
        clipped += int(np.count_nonzero(target.log_density_batch(y[over]) > -np.inf))
        summands[rows] = (1.0 - np.exp(la)) + np.exp(la + np.minimum(dv, _LOG_CAP))

    return DriftResult(*_iid_mean_se(summands), clipped / n)


def rejection_probability(
    target: TargetDensity,
    kernel: ProposalKernel,
    x,
    n: int = 100_000,
    seed: int = 0,
) -> ProbeEstimate:
    """Monte Carlo estimate of r(x) = 1 - E[alpha(x, Y)], Y ~ proposal.

    r(x) -> 1 along a sequence of x's rules out geometric ergodicity;
    sup r(x) < 1 is one of the two legs certifying it.
    """
    x = _probe_setup(target, kernel, x, n)
    mean, se = _iid_mean_se(_alphas(target, kernel, x, n, seed))
    return ProbeEstimate(1.0 - mean, se)


def acceptance_set_mass(
    target: TargetDensity,
    kernel: ProposalKernel,
    x,
    eps: float,
    n: int = 100_000,
    seed: int = 0,
) -> ProbeEstimate:
    """Proposal mass of the set where acceptance is at least ``eps``.

    Estimates Q(x, A_eps) with A_eps = {y : alpha(x, y) >= eps}.  A mass
    bounded away from zero uniformly in x (for some fixed eps) is the
    complementary leg to the rejection probe: the chain always keeps a
    non-vanishing chance of a genuine move.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0,1), got {eps}")
    x = _probe_setup(target, kernel, x, n)
    alphas = _alphas(target, kernel, x, n, seed)
    return ProbeEstimate(*_iid_mean_se((alphas >= eps).astype(float)))


class ProfilePoint(NamedTuple):
    offset: float
    y: float
    alpha: float


def tail_acceptance_profile(
    target: TargetDensity,
    cov_field: CovarianceField,
    h: float,
    x: float,
    offsets: Sequence[float],
    x0: float = 20.0,
) -> list[ProfilePoint]:
    """Deterministic acceptance profile at fixed multiples of the local scale.

    For each offset ``c`` the probe evaluates alpha(x, x + c * s(x)) with
    ``s(x) = sqrt(h * S(x))`` the local proposal standard deviation.  One
    dimension only, and only in the tail (|x| >= x0): near the mode the
    profile says nothing about ergodicity and is refused rather than
    silently returned.  A step size or field value the kernel refuses
    raises its error.
    """
    if target.dim != 1 or cov_field.dim != 1:
        raise ParameterError("profile is defined for one-dimensional problems")
    if abs(x) < x0:
        raise ParameterError(
            f"profile probes the tail; need |x| >= {x0:g}, got {x:g}"
        )
    s = gaussian_proposal(cov_field, h).at((float(x),))[0]
    accept = _closed_form_at(target, cov_field, h, np.array([float(x)]))
    out = []
    for c in offsets:
        y = float(x) + float(c) * s
        out.append(ProfilePoint(float(c), y, math.exp(accept(y))))
    return out


class EsjdPoint(NamedTuple):
    b: float
    step_size: float
    esjd: float
    se: float
    acceptance_rate: float


def _check_rate(rate: float) -> None:
    """The target-rate rule: an acceptance rate strictly inside (0, 1)."""
    if not 0.0 < rate < 1.0:
        raise ParameterError(f"target rate must lie in (0,1), got {rate}")


def tune_step_size(
    target: TargetDensity,
    cov_field: CovarianceField,
    h0: float,
    target_rate: float,
    seed: int,
) -> float:
    """Bisect on log h until short probe chains accept near ``target_rate``.

    Every probe reuses the same seed, so the acceptance-versus-h map is a
    fixed noisy decreasing function and plain bisection converges.  Fails
    loudly if no bracket exists within twenty decades.  An ``h0`` the
    kernel refuses raises its error before any probe chain runs.
    """
    _check_rate(target_rate)
    lo = hi = _step_size(h0)

    x0 = np.zeros(target.dim)

    def acc(h: float) -> float:
        kern = gaussian_proposal(cov_field, h)
        return run_chain(target, kern, x0, _TUNE_PROBE_STEPS, seed).acceptance_rate

    a0 = acc(h0)
    if a0 > target_rate:
        for _ in range(20):
            hi *= 10.0
            if acc(hi) < target_rate:
                break
        else:
            raise NumericError("no step size large enough to reach the target rate")
    else:
        for _ in range(20):
            lo /= 10.0
            if acc(lo) > target_rate:
                break
        else:
            raise NumericError("no step size small enough to reach the target rate")

    for _ in range(_TUNE_MAX_ITER):
        mid = math.sqrt(lo * hi)
        a = acc(mid)
        if abs(a - target_rate) <= 0.01:
            return mid
        if a > target_rate:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _check_scan_steps(n_steps: int) -> None:
    """The chain length :func:`esjd_scan` needs for its standard errors."""
    if n_steps < 100:
        raise ParameterError(f"need n_steps >= 100, got {n_steps}")


def esjd_scan(
    target: TargetDensity,
    b_values: Sequence[float],
    step_sizes: Sequence[float],
    n_steps: int = 100_000,
    seed: int = 0,
) -> list[EsjdPoint]:
    """Expected squared jumping distance across power-field exponents.

    For each exponent ``b`` the scan builds the ``(1+|x|)^b`` field, runs
    one long chain from the origin at the matching entry of
    ``step_sizes``, and reports mean squared jumps with a batch-means
    standard error, and the acceptance rate.  One dimension only.  Every
    kernel is built before the first chain runs, so a step size the
    kernel refuses raises its error at once.

    Chains for different ``b`` use seeds derived from ``seed`` by fixed
    arithmetic, so the scan is one deterministic artifact.
    """
    if target.dim != 1:
        raise ParameterError("the scan is defined for one-dimensional targets")
    if len(step_sizes) != len(b_values):
        raise ParameterError(f"got {len(step_sizes)} step sizes for {len(b_values)} exponents")
    _check_scan_steps(n_steps)
    kernels = [
        gaussian_proposal(power_field(float(b)), h) for b, h in zip(b_values, step_sizes)
    ]
    out = []
    for i, (b, h, kern) in enumerate(zip(b_values, step_sizes, kernels)):
        traj = run_chain(target, kern, np.zeros(1), n_steps, seed + 7919 * i + 2)
        jumps_sq = np.diff(traj.states[:, 0]) ** 2
        out.append(
            EsjdPoint(
                float(b),
                float(h),
                float(jumps_sq.mean()),
                batch_means_se(jumps_sq),
                traj.acceptance_rate,
            )
        )
    return out
