"""Metropolis-Hastings core: acceptance ratios, single steps, full runs.

Acceptance is always assembled in the log domain.  The proposal density
may be asymmetric (its covariance depends on the start point), so the
ratio carries both directions:

    log alpha = min(0, log pi(y) - log pi(x) + log q(x|y) - log q(y|x)).

For the Gaussian kernel built from a covariance field this simplifies to
a closed form in the field's determinant and quadratic forms, provided
here as an independent route the tests reconcile against the generic one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericError, ParameterError, SupportError
from .fields import CovarianceField
from .proposals import _LOG_2PI, ProposalKernel
from .targets import TargetDensity

__all__ = [
    "log_accept_terms",
    "log_accept_ratio",
    "log_accept_ratio_batch",
    "log_accept_ratio_closed_form",
    "mh_step",
    "run_chain",
    "ChainTrajectory",
    "estimate_expectation",
    "batch_means_se",
    "config_digest",
]


def log_accept_terms(lp_x, lp_y, lq_yx, lq_xy):
    """Combine the four log terms of the Metropolis-Hastings ratio.

    Vectorizes over numpy arrays; scalar floats pass straight through.
    Callers must screen out ``lq_yx = -inf`` (an unreachable proposal)
    before calling, since the subtraction would produce NaN.
    """
    return np.minimum(0.0, lp_y + lq_xy - lp_x - lq_yx)


def log_accept_ratio(
    target: TargetDensity, kernel: ProposalKernel, x: np.ndarray, y: np.ndarray
) -> float:
    """Log acceptance probability of the move ``x -> y``.

    ``x`` must be in the target support.  A proposal outside the support,
    or one the reverse kernel cannot produce, is accepted with probability
    zero.  Asking about a ``y`` the forward kernel itself cannot reach is
    a caller error.
    """
    if not target.support_test(x):
        raise SupportError(f"current point {x} is outside the target support")
    lp_y = target.log_density(y)
    if lp_y == -math.inf:
        return -math.inf
    return _log_accept(kernel, x, y, target.log_density(x), lp_y)


def _log_accept(
    kernel: ProposalKernel, x: np.ndarray, y: np.ndarray, lp_x: float, lp_y: float
) -> float:
    """:func:`log_accept_ratio` once both log-densities are known and
    ``lp_y`` is finite."""
    lq_yx = kernel.log_q(y, x)
    if lq_yx == -math.inf:
        raise ParameterError(f"move {x} -> {y} is not proposable by {kernel.label}")
    lq_xy = kernel.log_q(x, y)
    if lq_xy == -math.inf:
        return -math.inf
    return float(log_accept_terms(lp_x, lp_y, lq_yx, lq_xy))


def log_accept_ratio_batch(
    target: TargetDensity, kernel: ProposalKernel, x: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """:func:`log_accept_ratio` of the moves ``x -> ys[i]``, as an array.

    One pass over the ``(m, dim)`` rows through the batch callables, with
    the per-point rules: ``-inf`` off the support, ``-inf`` where the
    reverse kernel cannot reach ``x``, and :class:`ParameterError` if
    the forward kernel cannot reach an on-support row.  Agrees with the
    per-point route to float rounding.
    """
    if not target.support_test(x):
        raise SupportError(f"current point {x} is outside the target support")
    lp_y = target.log_density_batch(ys)
    out = np.full(len(ys), -np.inf)
    on = lp_y > -np.inf
    if not on.any():
        return out
    ys_on = ys[on]
    lq_yx = kernel.log_q_batch(ys_on, x)
    unreachable = lq_yx == -np.inf
    if unreachable.any():
        y = ys_on[np.argmax(unreachable)]
        raise ParameterError(f"move {x} -> {y} is not proposable by {kernel.label}")
    # where lq_xy is -inf the finite other terms carry it through to -inf
    lq_xy = kernel.log_q_batch(x, ys_on)
    out[on] = log_accept_terms(target.log_density(x), lp_y[on], lq_yx, lq_xy)
    return out


def log_accept_ratio_closed_form(
    target: TargetDensity,
    field: CovarianceField,
    h: float,
    x: np.ndarray,
    y: np.ndarray,
) -> float:
    """Acceptance for the Gaussian field kernel without proposal densities.

    Writing G = S^{-1} for the field inverse, the two proposal densities
    collapse to

        min(0, log pi(y) - log pi(x)
               + (log det G(y) - log det G(x)) / 2
               - (x-y)^T (G(y) - G(x)) (x-y) / (2h)).

    Must agree with the generic route to float accuracy; the tests hold
    the two within 1e-12 on mixed-scale inputs.
    """
    if not h > 0:
        raise ParameterError(f"step size must be positive, got {h}")
    if not target.support_test(x):
        raise SupportError(f"current point {x} is outside the target support")
    lp_y = target.log_density(y)
    if lp_y == -math.inf:
        return -math.inf
    lp_x = target.log_density(x)
    u = x - y

    if field.dim == 1:
        s_x = field.variance(float(x[0]))
        s_y = field.variance(float(y[0]))
        if not (s_x > 0 and s_y > 0):
            raise NumericError(f"field must be positive at {x} and {y}")
        d = float(u[0])
        # log det G = -log S and u^T G u = u^2 / S in one dimension
        half_logdet = 0.5 * (math.log(s_x) - math.log(s_y))
        quad = 0.5 * d * d * (1.0 / s_y - 1.0 / s_x) / h
    else:
        try:
            c_x = cho_factor(field.inv_metric(x), lower=True)
            c_y = cho_factor(field.inv_metric(y), lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"field failed to factor at {x} or {y}") from exc
        logdet_sx = 2.0 * float(np.sum(np.log(np.diag(c_x[0]))))
        logdet_sy = 2.0 * float(np.sum(np.log(np.diag(c_y[0]))))
        half_logdet = 0.5 * (logdet_sx - logdet_sy)
        quad = 0.5 * (float(u @ cho_solve(c_y, u)) - float(u @ cho_solve(c_x, u))) / h

    return min(0.0, lp_y - lp_x + half_logdet - quad)


def mh_step(
    target: TargetDensity,
    kernel: ProposalKernel,
    x: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool, float]:
    """One Metropolis-Hastings transition from ``x``.

    Returns ``(next_point, accepted, alpha)``.  Exactly one proposal and
    one uniform are drawn per call whatever the outcome, so trajectories
    are reproducible functions of the seed.  The uniform is taken in
    (0, 1] so a certain acceptance (alpha = 1) can never be refused.
    ``x`` must be in the target support.
    """
    if not target.support_test(x):
        raise SupportError(f"current point {x} is outside the target support")
    nxt, _, accepted, alpha = _transition(target, kernel, x, target.log_density(x), rng)
    return nxt, accepted, alpha


def _transition(
    target: TargetDensity,
    kernel: ProposalKernel,
    x: np.ndarray,
    lp_x: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, bool, float]:
    """:func:`mh_step` from a support point ``x`` whose log-density
    ``lp_x`` the caller carries; also returns the next point's
    log-density.  A proposal's log-density is its support test: ``-inf``
    off the support."""
    y = kernel.sample(x, rng)
    u = 1.0 - rng.random()
    lp_y = target.log_density(y)
    if lp_y == -math.inf:
        return x, lp_x, False, 0.0
    la = _log_accept(kernel, x, y, lp_x, lp_y)
    if math.log(u) < la:
        return y, lp_y, True, math.exp(la)
    return x, lp_x, False, math.exp(la)


def config_digest(target: TargetDensity, kernel: ProposalKernel) -> str:
    """Short stable digest of a target/kernel pairing for file headers."""
    key = f"{target.label}|{kernel.label}".encode()
    return hashlib.sha256(key).hexdigest()[:12]


@dataclass
class ChainTrajectory:
    """A realized chain: states, per-step acceptance flags and alphas.

    ``states`` has shape ``(n_steps + 1, dim)`` and includes the start.
    ``accepted`` and ``alpha`` have length ``n_steps``.
    """

    states: np.ndarray
    accepted: np.ndarray
    alpha: np.ndarray
    seed: int
    digest: str

    @property
    def n_steps(self) -> int:
        return len(self.accepted)

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())

    def to_csv(self) -> str:
        """The trajectory as CSV text under a reproducibility comment line.

        Columns: step, one coordinate column per dimension, accepted
        (0/1), alpha.
        """
        dim = self.states.shape[1]
        cols = ["step"] + [f"x{i}" for i in range(dim)] + ["accepted", "alpha"]
        lines = [
            f"# config={self.digest} seed={self.seed}",
            ",".join(cols),
            "0," + ",".join(repr(v) for v in self.states[0]) + ",,",
        ]
        for i in range(self.n_steps):
            row = (
                [str(i + 1)]
                + [repr(v) for v in self.states[i + 1]]
                + [str(int(self.accepted[i])), repr(float(self.alpha[i]))]
            )
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def run_chain(
    target: TargetDensity,
    kernel: ProposalKernel,
    x0,
    n_steps: int,
    seed: int,
) -> ChainTrajectory:
    """Run ``n_steps`` transitions from ``x0`` with a fresh seeded stream.

    The start must lie in the target support.  Rerunning with the same
    arguments reproduces the trajectory bit for bit.  The log-density of
    the current state is carried from the step that accepted it, so a
    chain evaluates the target ``n_steps + 1`` times.

    A kernel that exposes a one-dimensional standard deviation
    (``kernel.std``, as the 1-D Gaussian kernel does) is stepped on
    Python floats, evaluating its field once per proposal on the
    support.  That loop performs the arithmetic of :func:`mh_step` in
    the same order and draws from the stream in the same order (one
    normal, then one uniform per step), so it gives the same states,
    flags and alphas to the bit.  Every other kernel takes
    :func:`mh_step`'s route.
    """
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (target.dim,):
        raise ParameterError(
            f"start point has shape {x0.shape}, target dim is {target.dim}"
        )
    if target.dim != kernel.dim:
        raise ParameterError(
            f"target dim {target.dim} != kernel dim {kernel.dim}"
        )
    if not target.support_test(x0):
        raise SupportError(f"start point {x0} is outside the target support")

    rng = np.random.default_rng(seed)
    if kernel.std is not None:
        states, accepted, alpha = _float_chain(target, kernel, x0, n_steps, rng)
    else:
        states = np.empty((n_steps + 1, target.dim))
        accepted = np.empty(n_steps, dtype=bool)
        alpha = np.empty(n_steps)
        states[0] = x0
        x, lp_x = x0, target.log_density(x0)
        for i in range(n_steps):
            x, lp_x, acc, a = _transition(target, kernel, x, lp_x, rng)
            states[i + 1] = x
            accepted[i] = acc
            alpha[i] = a
    return ChainTrajectory(
        states, accepted, alpha, int(seed), config_digest(target, kernel)
    )


def _float_chain(
    target: TargetDensity,
    kernel: ProposalKernel,
    x0: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`run_chain`'s transitions for a one-dimensional Gaussian
    kernel, on Python floats and its standard deviation ``kernel.std``.

    Per step, as in :func:`_transition` and :func:`_log_accept`: draw
    ``y = x + s_x z``, then ``u``; evaluate the target at ``y`` and, on
    the support, ``s_y``; the two proposal log-densities are the
    kernel's ``log_q``.  ``s_x`` and ``log(s_x)`` are carried with the
    state.  ``la`` is ``min(0, ...)`` keeping NaN, as ``np.minimum``
    does, and ``-inf`` off the support, where ``exp(la)`` is 0.
    """
    log_density, std = target.log_density, kernel.std
    normal, uniform = rng.standard_normal, rng.random
    log, exp, inf = math.log, math.exp, math.inf
    c = -0.5 * _LOG_2PI
    x = float(x0[0])
    lp_x = log_density(x0)
    s_x = std(x)
    log_s_x = log(s_x)
    xs, flags, alphas = [x], [], []
    for _ in range(n_steps):
        y = x + s_x * normal()
        u = 1.0 - uniform()
        lp_y = log_density(np.array([y]))
        la = -inf  # off the support
        if lp_y != -inf:
            d = (y - x) / s_x
            lq_yx = c - log_s_x - 0.5 * d * d
            if lq_yx == -inf:
                raise ParameterError(
                    f"move {np.array([x])} -> {np.array([y])} is not proposable "
                    f"by {kernel.label}"
                )
            s_y = std(y)
            log_s_y = log(s_y)
            d = (x - y) / s_y
            lq_xy = c - log_s_y - 0.5 * d * d
            if lq_xy != -inf:
                la = lp_y + lq_xy - lp_x - lq_yx
                if la > 0.0:
                    la = 0.0
        accepted = log(u) < la
        if accepted:
            x, lp_x, s_x, log_s_x = y, lp_y, s_y, log_s_y
        xs.append(x)
        flags.append(accepted)
        alphas.append(exp(la))
    return np.array(xs)[:, None], np.array(flags, dtype=bool), np.array(alphas)


def estimate_expectation(
    traj: ChainTrajectory, f, burn_in: int = 0
) -> tuple[float, float]:
    """Ergodic average of ``f`` over the post-burn-in states.

    Returns ``(estimate, standard_error)``.  The standard error comes
    from the batch-means method with about sqrt(n) batches, which is
    honest under the serial correlation a Metropolis chain carries.  Too
    few retained states for two batches yield a zero standard error.
    """
    n_total = len(traj.states)
    if not 0 <= burn_in < n_total:
        raise ParameterError(
            f"burn_in must lie in [0, {n_total - 1}], got {burn_in}"
        )
    values = np.array([f(s) for s in traj.states[burn_in:]], dtype=float)
    return float(values.mean()), batch_means_se(values)


def batch_means_se(values: np.ndarray) -> float:
    """Batch-means standard error of the mean of a serially correlated
    series: about sqrt(n) equal batches, trailing values dropped, and
    zero when there are too few values for two batches."""
    n = len(values)
    n_batches = int(math.isqrt(n))
    if n_batches < 2:
        return 0.0
    batch = n // n_batches
    means = values[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))
