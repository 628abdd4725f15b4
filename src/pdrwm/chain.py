"""Metropolis-Hastings core: acceptance ratios, single steps, full runs.

Acceptance is always assembled in the log domain.  The proposal density
may be asymmetric (its covariance depends on the start point), so the
ratio carries both directions:

    log alpha = min(0, log pi(y) - log pi(x) + log q(x|y) - log q(y|x)).

For the Gaussian kernel built from a covariance field this simplifies to
a closed form in the field's determinant and quadratic forms, provided
here as an independent route the tests reconcile against the generic one.
The target's log-density alone decides the support: a current point or
start whose value is not ``> -inf`` raises, a proposal at ``-inf`` is rejected.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fields import CovarianceField
from .proposals import ProposalKernel, _cholesky, _field_value, _step_size
from .targets import TargetDensity, _check_shape, _log_density_on_support

__all__ = [
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

#: steps whose uniforms :func:`_float_chain` draws in one call, for a
#: kernel with a uniform block
_CHUNK = 1 << 12


def log_accept_terms(lp_x, lp_y, lq_yx, lq_xy, out=None):
    """Combine the four log terms of the Metropolis-Hastings ratio.

    Vectorizes over numpy arrays, writing into ``out`` if given.
    Callers must screen out ``lq_yx = -inf`` (an unreachable proposal)
    before calling, since the subtraction would produce NaN.
    """
    return np.minimum(0.0, lp_y + lq_xy - lp_x - lq_yx, out=out)


def _check_dim(target: TargetDensity, dim: int, what: str = "kernel") -> None:
    """``ParameterError`` unless the kernel's (or field's) ``dim`` is the
    target's."""
    if target.dim != dim:
        raise ParameterError(f"target dim {target.dim} != {what} dim {dim}")


def log_accept_ratio(
    target: TargetDensity, kernel: ProposalKernel, x: np.ndarray, y: np.ndarray
) -> float:
    """Log acceptance probability of the move ``x -> y``.

    ``x`` must be in the target support, and the kernel must be able to
    propose from it.  A proposal outside the support, or one the reverse
    kernel cannot produce, is accepted with probability zero.  Asking
    about a ``y`` the forward kernel itself cannot reach is a caller
    error.  This is the chain's own rule, :func:`_float_acceptance`, on
    the points' Python floats.
    """
    _check_dim(target, kernel.dim)
    lp_x = _log_density_on_support(target, x)
    _check_shape(target, np.shape(y), "proposal")
    x = tuple(np.asarray(x, dtype=float).tolist())
    y = tuple(np.asarray(y, dtype=float).tolist())
    return float(_float_acceptance(target, kernel)(x, kernel.at(x), lp_x, y)[0])


def log_accept_ratio_batch(
    target: TargetDensity, kernel: ProposalKernel, x: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """:func:`log_accept_ratio` of the moves ``x -> ys[i]``, as an array.

    One pass over the ``(m, dim)`` rows through the batch callables, with
    the per-point rules: ``-inf`` off the support, ``-inf`` where the
    reverse kernel cannot reach ``x``, and :class:`ParameterError`
    naming the first on-support row the forward kernel cannot reach.
    When every row is on the support, the kernel sees ``ys`` itself and
    no masked copy is made; either way a row's value does not depend on
    the other rows, so callers may pass a large batch in row chunks
    (the probes of :mod:`pdrwm.diagnostics` do).

    For a Gaussian kernel above 1-D with a diagonal covariance, and a
    field and target whose batch forms give their per-point bits (every
    built-in one does), each row is the per-point route's value bit for
    bit.  Elsewhere the two agree to float rounding: in 1-D numpy's
    vectorised ``log`` and ``power`` differ from libm's in the last bit
    (16 of 4000 rows from ``power_field(1.5)`` on the exponential tail),
    and with an off-diagonal covariance the batch rounds the solve's
    multiply-add unfused, where the per-point route fuses it as
    ``trtrs`` does.
    """
    _check_dim(target, kernel.dim)
    lp_x = _log_density_on_support(target, x)
    _check_shape(target, np.shape(ys)[1:], "each proposal row")
    lp_y = target.log_density_batch(ys)
    on = lp_y > -np.inf
    n_on = int(np.count_nonzero(on))
    if n_on == 0:
        return np.full(len(ys), -np.inf)
    full = n_on == len(ys)
    ys_on = ys if full else ys[on]
    lq_yx = kernel.log_q_batch(ys_on, x)
    unreachable = lq_yx == -np.inf
    if unreachable.any():
        y = ys_on[np.argmax(unreachable)]
        raise ParameterError(f"move {x} -> {y} is not proposable by {kernel.label}")
    # where lq_xy is -inf the finite other terms carry it through to -inf
    lq_xy = kernel.log_q_batch(x, ys_on)
    if full:
        return log_accept_terms(lp_x, lp_y, lq_yx, lq_xy)
    out = np.full(len(ys), -np.inf)
    out[on] = log_accept_terms(lp_x, lp_y[on], lq_yx, lq_xy)
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
    the two within 1e-12 on mixed-scale inputs.  The arithmetic is this
    route's own, but the kernel's rules refuse a step size, or a field
    value at ``x`` or an on-support ``y``.  Above 1-D each field value
    is factored by the kernel's covariance rule (LAPACK ``potrf``'s bits
    in 2-D), and ``u^T S^{-1} u`` is ``|L^{-1} u|^2`` with ``L^{-1} u``
    from numpy's ``linalg.solve``, so no scipy is imported.  In one
    dimension this is :func:`_closed_form_at`'s ``accept`` at
    ``float(y[0])``.
    """
    if field.dim == 1:
        accept = _closed_form_at(target, field, h, x)
        _check_shape(target, np.shape(y), "proposal")
        return accept(float(y[0]))

    _step_size(h)
    _check_dim(target, field.dim, "field")
    lp_x = _log_density_on_support(target, x)
    _check_shape(target, np.shape(y), "proposal")
    lp_y = target.log_density(y)
    if lp_y == -math.inf:
        return -math.inf
    u = x - y

    def forms(z):
        """log det S(z) and u^T S(z)^{-1} u, through S(z)'s factor L:
        the quadratic form is |L^{-1} u|^2, solved by numpy's LU."""
        low = np.array(_cholesky(field.inv_metric(z), z))
        v = np.linalg.solve(low, u)
        return 2.0 * float(np.log(low.diagonal()).sum()), float(v @ v)

    (logdet_sx, quad_x), (logdet_sy, quad_y) = forms(x), forms(y)
    half_logdet = 0.5 * (logdet_sx - logdet_sy)
    quad = 0.5 * (quad_y - quad_x) / h
    return min(0.0, lp_y - lp_x + half_logdet - quad)


def _closed_form_at(target: TargetDensity, field: CovarianceField, h: float, x):
    """The 1-D closed-form acceptance of the moves from ``x``, on Python
    floats: ``accept(y)`` is :func:`log_accept_ratio_closed_form` at
    ``x`` and ``(y,)``, bit for bit.

    The entry checks run once, here: the step size, the field's
    dimension, ``x``'s shape and support, and the field value at ``x``.
    ``accept`` evaluates the target at ``y`` (``-inf`` off the support)
    and, on it, the field value, which the 1-D rule checks; ``log s(x)``
    and ``1 / s(x)`` are computed once, with the bits of computing them
    per call.
    """
    h = _step_size(h)
    _check_dim(target, field.dim, "field")
    lp_x = _log_density_on_support(target, x)
    s_x = field.inv_metric(x)
    _field_value(h, s_x, x)
    log_density, inv_metric = target.log_density, field.inv_metric
    log, inf = math.log, math.inf
    x0 = float(x[0])
    log_sx, inv_sx = log(s_x), 1.0 / s_x

    def accept(y: float) -> float:
        yt = (y,)
        lp_y = log_density(yt)
        if lp_y == -inf:
            return -inf
        s_y = inv_metric(yt)
        if not 0.0 < h * s_y < inf:  # h > 0, so this is the 1-D rule
            _field_value(h, s_y, yt)  # raises
        d = x0 - y
        # log det G = -log S and u^T G u = u^2 / S in one dimension
        half_logdet = 0.5 * (log_sx - log(s_y))
        quad = 0.5 * d * d * (1.0 / s_y - inv_sx) / h
        return min(0.0, lp_y - lp_x + half_logdet - quad)

    return accept


def mh_step(
    target: TargetDensity,
    kernel: ProposalKernel,
    x: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool, float]:
    """One Metropolis-Hastings transition from ``x``.

    Returns ``(next_point, accepted, alpha)`` with the next point as an
    array.  Exactly one proposal and one uniform are drawn per call
    whatever the outcome, so trajectories are reproducible functions of
    the seed.  The uniform is taken in (0, 1] so a certain acceptance
    (alpha = 1) can never be refused.  ``x`` must be in the target
    support.  This is one step of :func:`run_chain`'s loop: ``n`` calls
    on one stream give the states, flags and alphas of ``run_chain`` on
    that stream, to the bit.
    """
    _check_dim(target, kernel.dim)
    lp_x = _log_density_on_support(target, x)
    x = np.asarray(x, dtype=float)
    states, accepted, alpha = _float_chain(target, kernel, x, lp_x, 1, rng)
    return states[1], bool(accepted[0]), float(alpha[0])


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
            "0," + ",".join(map(repr, self.states[0])) + ",,",
        ]
        # column by column: numpy's scalar repr for the coordinates
        columns = [map(str, range(1, self.n_steps + 1))]
        columns += [map(repr, self.states[1:, k]) for k in range(dim)]
        columns.append(map(str, map(int, self.accepted.tolist())))
        columns.append(map(float.__repr__, self.alpha.tolist()))
        lines.extend(map(",".join, zip(*columns)))
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

    :func:`_float_chain` steps the kernel's per-point callables on
    tuples of Python floats, handing the target those tuples;
    :func:`mh_step` is one step of the same loop.  It reads ``kernel.at``
    and ``kernel.log_q`` of every kernel, and draws proposals through
    ``kernel.block`` while the block reproduces ``kernel.sample`` (the
    disc and the ellipse: their uniforms drawn ``_CHUNK`` steps at a
    time), else through ``kernel.sample`` (the Gaussian, whose ziggurat
    normals no block can reproduce, and any kernel whose ``sample`` was
    replaced), with the same bits.  The Gaussian in two or more
    dimensions factors and solves on Python floats with LAPACK's
    operations, and keeps numpy's BLAS calls for ``low @ z`` and
    ``v @ v``.  A step costs about 3 µs for the 1-D
    Gaussian, 1.4-2.2 µs for the disc and the ellipse (3.1-4.1 µs drawn
    per step), and 15-19 µs for the Gaussian on the ridge (best of 15
    runs on a 2-vCPU VM whose host runs at two speeds).
    """
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    x0 = np.asarray(x0, dtype=float).ravel()
    _check_dim(target, kernel.dim)
    lp_x = _log_density_on_support(target, x0, "start point")

    rng = np.random.default_rng(seed)
    states, accepted, alpha = _float_chain(target, kernel, x0, lp_x, n_steps, rng)
    return ChainTrajectory(
        states, accepted, alpha, int(seed), config_digest(target, kernel)
    )


def _float_acceptance(target: TargetDensity, kernel: ProposalKernel):
    """The move ``x -> y`` on Python floats through the kernel's per-point
    callables: ``accept(x, at_x, lp_x, y)`` is ``(la, lp_y, at_y)``.

    Evaluate the target at ``y`` and, on the support, the two proposal
    log-densities, forward first; a forward density of ``-inf`` raises
    :class:`ParameterError`.  ``at_y`` is computed only for a proposal on
    the support (it is ``None`` off it).  ``la`` is ``min(0, ...)``
    keeping NaN, as ``np.minimum`` does, and ``-inf`` off the support or
    where the reverse move cannot reach.
    """
    log_density = target.log_density
    at, log_q = kernel.at, kernel.log_q
    inf = math.inf

    def accept(x, at_x, lp_x, y):
        lp_y = log_density(y)
        if lp_y == -inf:
            return -inf, lp_y, None
        lq_yx = log_q(y, x, at_x)
        if lq_yx == -inf:
            raise ParameterError(
                f"move {np.array(x)} -> {np.array(y)} is not proposable "
                f"by {kernel.label}"
            )
        at_y = at(y)
        lq_xy = log_q(x, y, at_y)
        if lq_xy == -inf:
            return -inf, lp_y, at_y
        la = lp_y + lq_xy - lp_x - lq_yx
        return (0.0 if la > 0.0 else la), lp_y, at_y

    return accept


def _block_draws(block, rng: np.random.Generator, n_steps: int):
    """``(offset, u)`` for each of ``n_steps`` steps of a kernel with the
    uniform block ``block``, as Python floats: the ``block.k`` uniforms
    of a proposal, then its acceptance uniform ``u`` in (0, 1], the
    stream order of ``sample`` followed by one uniform.  Drawn
    ``_CHUNK`` steps at a time."""
    k = block.k
    for start in range(0, n_steps, _CHUNK):
        us = rng.random((min(_CHUNK, n_steps - start), k + 1))
        accept_us = (1.0 - us[:, k]).tolist()
        yield from zip(block.offsets(us[:, :k]).tolist(), accept_us)


def _float_chain(
    target: TargetDensity,
    kernel: ProposalKernel,
    x0: np.ndarray,
    lp_x: float,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`run_chain`'s transitions on tuples of Python floats, through
    the kernel's per-point callables.

    Per step: draw ``y``, then ``u``, then :func:`_float_acceptance`.  A
    kernel whose uniform block reproduces its ``sample`` places ``y`` with
    ``block.move`` at an offset from :func:`_block_draws`, which drew
    ``u`` with it; any other kernel, one whose ``sample`` was replaced
    too, draws ``y`` with ``sample`` and the loop draws ``u`` after it.
    Both consume the stream in the same order.  What the proposal from a
    point depends on, ``at(x)`` (the Gaussian's scale or factor, the
    ellipse's width), is computed once per proposal on the support and
    carried with the state.  Off the support ``la`` is ``-inf``, where
    ``exp(la)`` is 0.
    """
    at, block = kernel.at, kernel.block
    if block is None or block.sample is not kernel.sample:
        place, draws = kernel.sample, itertools.repeat((rng, None), n_steps)
    else:
        place, draws = block.move, _block_draws(block, rng, n_steps)
    accept = _float_acceptance(target, kernel)
    uniform, log, exp = rng.random, math.log, math.exp
    x = tuple(x0.tolist())
    at_x = at(x)
    xs, flags, alphas = [x], [], []
    for arg, u in draws:
        y = place(x, at_x, arg)  # arg is the offset, or the stream for sample
        if u is None:
            u = 1.0 - uniform()
        la, lp_y, at_y = accept(x, at_x, lp_x, y)
        accepted = log(u) < la
        if accepted:
            x, lp_x, at_x = y, lp_y, at_y
        xs.append(x)
        flags.append(accepted)
        alphas.append(exp(la))
    # fromiter with a count would drop a longer state's extra items
    dim = len(xs[0])
    if set(map(len, xs)) != {dim}:
        step = next(i for i, s in enumerate(xs) if len(s) != dim)
        raise ParameterError(
            f"step {step} moved to a state of {len(xs[step])} coordinates, "
            f"from a start of {dim}"
        )
    states = np.fromiter(itertools.chain.from_iterable(xs), float, count=len(xs) * dim)
    return states.reshape(len(xs), dim), np.array(flags, dtype=bool), np.array(alphas)


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


def _iid_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of iid draws and its standard error, sd / sqrt(n)."""
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


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
