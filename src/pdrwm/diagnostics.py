"""Monte Carlo diagnostics for geometric ergodicity.

Drift of a Lyapunov function, tail rejection probabilities, the mass of
the good acceptance set, deterministic tail acceptance profiles, and
expected squared jumping distance scans.  Everything here is a frozen
function of its seed: probes at different positions reuse the same seed
so curves over position are common-random-number smooth.

The probes estimate one-step integrals under the proposal, not ergodic
averages, so their standard errors are iid Monte Carlo errors.  Each
probe draws its n proposals in one ``sample_batch`` call and evaluates
them in one pass through the batch callables of the target, kernel and
Lyapunov function (:func:`pdrwm.chain.log_accept_ratio_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chain import (
    batch_means_se,
    log_accept_ratio_batch,
    log_accept_ratio_closed_form,
    run_chain,
)
from .errors import NumericError, ParameterError
from .fields import CovarianceField, power_field
from .proposals import ProposalKernel, gaussian_proposal
from .targets import TargetDensity

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

#: steps of each probe chain in :func:`tune_step_size`
_TUNE_PROBE_STEPS = 4000
#: bisection steps of :func:`tune_step_size` once a bracket is found
_TUNE_MAX_ITER = 16


@dataclass(frozen=True)
class LyapunovFunction:
    """A drift function V >= 1 with a log-domain evaluator.

    ``log_evaluate`` is the primary interface; ``evaluate`` exponentiates
    and returns ``inf`` past the float range, which is why every consumer
    in this package works with the logs.  ``log_evaluate_batch`` maps an
    ``(m, dim)`` array of points to the ``(m,)`` array of log V, equal to
    ``log_evaluate`` row by row to float rounding.
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
    return LyapunovFunction(
        f"exp_abs(s={s:g})",
        lambda x: s * float(np.linalg.norm(x)),
        lambda xs: s * np.linalg.norm(xs, axis=1),
    )


def abs_pow(s: float) -> LyapunovFunction:
    """V(x) = max(1, |x|^s) for polynomial-tail targets."""
    if not s > 0:
        raise ParameterError(f"power must be positive, got {s}")
    s = float(s)

    def logv(x: np.ndarray) -> float:
        r = float(np.linalg.norm(x))
        return max(0.0, s * math.log(r)) if r > 0 else 0.0

    def logv_batch(xs: np.ndarray) -> np.ndarray:
        # r <= 1 gives V = 1; the floor keeps log(0) out of the pass
        r = np.maximum(np.linalg.norm(xs, axis=1), 1.0)
        return np.maximum(0.0, s * np.log(r))

    return LyapunovFunction(f"abs_pow(s={s:g})", logv, logv_batch)


def rectangle_v() -> LyapunovFunction:
    """V(y) = |y2| + max(1, |y1|), tailored to the staircase target:
    it grows with height, which is the direction the chain must drift
    back down."""

    def logv(y: np.ndarray) -> float:
        return math.log(abs(float(y[1])) + max(1.0, abs(float(y[0]))))

    def logv_batch(ys: np.ndarray) -> np.ndarray:
        return np.log(np.abs(ys[:, 1]) + np.maximum(1.0, np.abs(ys[:, 0])))

    return LyapunovFunction("rectangle_v", logv, logv_batch)


class DriftResult(NamedTuple):
    estimate: float
    se: float
    truncated_mass: float


class ProbeEstimate(NamedTuple):
    estimate: float
    se: float


def _probe_setup(
    target: TargetDensity, kernel: ProposalKernel, x, n: int
) -> np.ndarray:
    """The probe point as a length-``dim`` array, after the checks every
    probe shares: enough proposals, and point, target and kernel of one
    dimension."""
    if n < 1000:
        raise ParameterError(f"need n >= 1000 proposals, got {n}")
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (target.dim,):
        raise ParameterError(
            f"probe point has shape {x.shape}, target dim is {target.dim}"
        )
    if target.dim != kernel.dim:
        raise ParameterError(
            f"target dim {target.dim} != kernel dim {kernel.dim}"
        )
    return x


def _alphas(
    target: TargetDensity, kernel: ProposalKernel, x: np.ndarray, n: int, seed: int
) -> np.ndarray:
    """Acceptance probabilities of ``n`` proposals from ``x``, zero off support."""
    ys = kernel.sample_batch(x, n, np.random.default_rng(seed))
    return np.exp(log_accept_ratio_batch(target, kernel, x, ys))


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
    """
    x = _probe_setup(target, kernel, x, n)
    log_vx = lyapunov.log_evaluate(x)
    if not math.isfinite(log_vx):
        raise ParameterError(f"V must be finite at the probe point, got {log_vx}")
    ys = kernel.sample_batch(x, n, np.random.default_rng(seed))
    la = log_accept_ratio_batch(target, kernel, x, ys)
    dv = lyapunov.log_evaluate_batch(ys) - log_vx
    over = dv > _LOG_CAP
    # clipping counts on the support only; off it alpha = 0 leaves V in place
    clipped = int(np.count_nonzero(target.log_density_batch(ys[over]) > -np.inf))
    summands = (1.0 - np.exp(la)) + np.exp(la + np.minimum(dv, _LOG_CAP))

    estimate = float(summands.mean())
    se = float(summands.std(ddof=1) / math.sqrt(n))
    return DriftResult(estimate, se, clipped / n)


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
    alphas = _alphas(target, kernel, x, n, seed)
    return ProbeEstimate(
        1.0 - float(alphas.mean()), float(alphas.std(ddof=1) / math.sqrt(n))
    )


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
    hits = (alphas >= eps).astype(float)
    return ProbeEstimate(
        float(hits.mean()), float(hits.std(ddof=1) / math.sqrt(n))
    )


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
    silently returned.  ``h <= 0`` and a field value at ``x`` that is not
    finite and positive raise as the kernel does.
    """
    if target.dim != 1 or cov_field.dim != 1:
        raise ParameterError("profile is defined for one-dimensional problems")
    if abs(x) < x0:
        raise ParameterError(
            f"profile probes the tail; need |x| >= {x0:g}, got {x:g}"
        )
    xv = np.array([float(x)])
    s = gaussian_proposal(cov_field, h).std(float(x))
    out = []
    for c in offsets:
        y = float(x) + float(c) * s
        yv = np.array([y])
        if target.support_test(yv):
            a = math.exp(log_accept_ratio_closed_form(target, cov_field, h, xv, yv))
        else:
            a = 0.0
        out.append(ProfilePoint(float(c), y, a))
    return out


class EsjdPoint(NamedTuple):
    b: float
    step_size: float
    esjd: float
    se: float
    acceptance_rate: float


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
    loudly if no bracket exists within twenty decades.
    """
    if not 0.0 < target_rate < 1.0:
        raise ParameterError(f"target rate must lie in (0,1), got {target_rate}")
    if not h0 > 0:
        raise ParameterError(f"initial step size must be positive, got {h0}")

    x0 = np.zeros(target.dim)

    def acc(h: float) -> float:
        kern = gaussian_proposal(cov_field, h)
        return run_chain(target, kern, x0, _TUNE_PROBE_STEPS, seed).acceptance_rate

    lo = hi = float(h0)
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


def esjd_scan(
    target: TargetDensity,
    b_values: Sequence[float],
    h: float,
    n_steps: int = 100_000,
    seed: int = 0,
    tune_acceptance: float = 0.44,
) -> list[EsjdPoint]:
    """Expected squared jumping distance across power-field exponents.

    For each exponent ``b`` the scan builds the ``(1+|x|)^b`` field,
    tunes the step size from ``h`` to the given acceptance rate, runs one
    long chain from the origin, and reports mean squared jumps with a
    batch-means standard error.  One dimension only.

    Chains for different ``b`` use seeds derived from ``seed`` by fixed
    arithmetic, so the scan is one deterministic artifact.
    """
    if target.dim != 1:
        raise ParameterError("the scan is defined for one-dimensional targets")
    if n_steps < 100:
        raise ParameterError(f"need n_steps >= 100, got {n_steps}")
    out = []
    for i, b in enumerate(b_values):
        fld = power_field(float(b))
        seed_tune = seed + 7919 * i + 1
        seed_run = seed + 7919 * i + 2
        h_b = tune_step_size(target, fld, h, tune_acceptance, seed_tune)
        traj = run_chain(
            target, gaussian_proposal(fld, h_b), np.zeros(1), n_steps, seed_run
        )
        jumps_sq = np.diff(traj.states[:, 0]) ** 2
        out.append(
            EsjdPoint(
                float(b),
                h_b,
                float(jumps_sq.mean()),
                batch_means_se(jumps_sq),
                traj.acceptance_rate,
            )
        )
    return out

