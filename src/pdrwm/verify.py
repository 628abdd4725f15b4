"""Acceptance gate: ten numbered verification checks.

Each check pins its own targets, fields, tolerances, and sample sizes,
runs deterministically from a seed, and reports one PASS/FAIL line
whose detail string carries the measured numbers and the margin the
check passes or fails by.  Checks 3, 4, 5, 7 and 8 run a scenario
body (``lemma7_sweep``, ``lemma4_probe``, ``lemma2_drift``,
``oracle_scan``, ``esjd_scan``) at pinned sample sizes and pass iff
every check of that body passes, so each of those claims is computed
in one place.  The README's verification notes explain the checks
whose assertions need a word on the method behind them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.stats import norm, truncnorm

from .chain import log_accept_ratio, log_accept_ratio_closed_form
from .diagnostics import abs_pow, drift_ratio
from .errors import ConfigError
from .experiments import SCENARIOS
from .fields import constant_field, one_plus_square_field, power_field
from .oracle import (
    build_discretized,
    drift_ratio_quadrature,
    spectral_gap,
    tv_decay_curve,
)
from .proposals import (
    TruncatedGaussianSpec,
    gaussian_proposal,
    gaussian_tail_bound,
    truncated_mean,
    truncated_mgf,
)
from .rectangle import (
    disc_rejection_area_bound,
    disc_rejection_lower_bound,
    exact_rejection_disc,
)
from .targets import (
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_subexponential_tail,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _random_target(rng: np.random.Generator):
    k = int(rng.integers(4))
    if k == 0:
        return make_exponential_tail(rng.uniform(0.5, 2.0))
    if k == 1:
        return make_subexponential_tail(rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.8))
    if k == 2:
        return make_polynomial_tail(rng.uniform(1.5, 4.0))
    return make_gaussian(rng.uniform(0.5, 2.0))


def _random_field(rng: np.random.Generator):
    k = int(rng.integers(3))
    if k == 0:
        return constant_field(rng.uniform(0.3, 3.0))
    if k == 1:
        return power_field(rng.uniform(0.0, 3.0))
    return one_plus_square_field()


def criterion_1(seed: int = 0) -> CriterionResult:
    """Generic acceptance ratio agrees with the closed form to 1e-10.

    1000 randomized (target, field, x, y, h) cases, proposals drawn up to
    a couple of proposal standard deviations out.  A constant field must
    reduce the closed form to the plain density ratio bit for bit.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        target = _random_target(rng)
        fld = _random_field(rng)
        h = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        x = np.array([rng.uniform(-20.0, 20.0)])
        kern = gaussian_proposal(fld, h)
        y = x + 2.0 * kern.std(float(x[0])) * rng.standard_normal(1)
        generic = log_accept_ratio(target, kern, x, y)
        closed = log_accept_ratio_closed_form(target, fld, h, x, y)
        worst = max(worst, abs(generic - closed))

    exact_ok = True
    for _ in range(100):
        target = _random_target(rng)
        fld = constant_field(rng.uniform(0.3, 3.0))
        h = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        x = np.array([rng.uniform(-20.0, 20.0)])
        y = np.array([rng.uniform(-20.0, 20.0)])
        closed = log_accept_ratio_closed_form(target, fld, h, x, y)
        plain = min(0.0, target.log_density(y) - target.log_density(x))
        exact_ok &= closed == plain

    passed = worst <= 1e-10 and exact_ok
    return CriterionResult(
        1, "closed_form_acceptance", passed,
        f"max |generic - closed| = {worst:.3e} over 1000 cases; "
        f"constant-field reduction exact: {exact_ok}",
        time.perf_counter() - t0,
    )


def criterion_2(seed: int = 0) -> CriterionResult:
    """Exact staircase disc rejection against the provable area bound.

    Asks for exact >= 1 - 2 (3^(2-p) + 3^(1-p)) / pi at p = 3..8, the
    bound that counts the full area of the two levels the unit disc at
    (0, p) can reach, with the 1e-12 allowance of the ``lemma6_exact``
    scenario.  Wherever that bound itself exceeds 0.99 the exact value
    must too.  The published constant 1 - (3^(2-p) + 3^(1-p)) / pi is
    reported alongside: it counts half of each level's area, so on this
    geometry it is not a lower bound (see
    :func:`~pdrwm.rectangle.disc_rejection_lower_bound`).
    """
    t0 = time.perf_counter()
    rows = []
    for p in range(3, 9):
        rows.append((
            p,
            exact_rejection_disc((0.0, float(p))),
            disc_rejection_area_bound(p),
            disc_rejection_lower_bound(p),
        ))
    dominates = all(e >= a - 1e-12 for _, e, a, _ in rows)
    high = [(p, e) for p, e, a, _ in rows if a > 0.99]
    high_ok = all(e > 0.99 for _, e in high)
    passed = dominates and high_ok
    margin = min(e - a for _, e, a, _ in rows)
    detail = (
        f"min(exact - area bound) = {margin:.3e}; exact > 0.99 where the bound is: "
        f"{high_ok} (p = {', '.join(str(p) for p, _ in high)}); "
        + "; ".join(
            f"p={p}: exact {e:.7f}, area bound {a:.7f}, published {c:.7f}"
            for p, e, a, c in rows
        )
    )
    return CriterionResult(
        2, "staircase_disc_rejection_bound", passed, detail, time.perf_counter() - t0
    )


def _run_scenario_checks(
    index: int, name: str, scenario: str, seed: int, **params
) -> CriterionResult:
    """Criterion ``index`` as the checks of scenario body ``scenario``
    run at ``params``: it passes iff every check passes."""
    t0 = time.perf_counter()
    _, checks = SCENARIOS[scenario](seed, "", **params)
    return CriterionResult(
        index, name, all(c.passed for c in checks),
        "; ".join(f"{c.name}: {c.detail}" for c in checks),
        time.perf_counter() - t0,
    )


def criterion_3(seed: int = 0) -> CriterionResult:
    """Hemisphere overlaps hold at every probe and the chain descends.

    The full sweep over levels 2..12 must pass at every boundary-crossing
    probe point, and a long ellipse-proposal chain started on level 10
    must reach level 1 with a small mean Lyapunov value over its second
    half: the ``lemma7_sweep`` scenario with a 1e5-step chain.
    """
    return _run_scenario_checks(
        3, "hemisphere_overlap_and_descent", "lemma7_sweep", seed, n_steps=100_000
    )


def criterion_4(seed: int = 0) -> CriterionResult:
    """Acceptance-set mass vanishes along the tail for a fast field.

    exp(-|x|) target, (1+|x|)^4 field, h=1, eps=0.1: the mass of
    {alpha >= eps} must fall strictly over x in {10,20,40,80} under
    common random numbers and be below 0.05 at the far point: the
    ``lemma4_probe`` scenario at 1e5 draws per point.
    """
    return _run_scenario_checks(
        4, "far_tail_acceptance_mass", "lemma4_probe", seed, n=100_000
    )


def criterion_5(seed: int = 0) -> CriterionResult:
    """Drift contraction in the light-tail / sub-linear-field regime.

    exp(-|x|) target, (1+|x|)^1.5 field, h=1, V = exp(|x|/2): estimate
    plus three standard errors stays below one at x in {20,40,80}, and an
    independent quadrature route agrees within 2 percent: the
    ``lemma2_drift`` scenario at 1e5 draws per point.
    """
    return _run_scenario_checks(
        5, "light_tail_drift_contraction", "lemma2_drift", seed, n=100_000
    )


def criterion_6(seed: int = 0) -> CriterionResult:
    """Heavy-tail drift at a small and a large step size.

    1/(1+|x|)^2 target, 1 + x^2 field, V = |x|^0.25, x in {50,100,200}.
    At h = 0.01 the estimate plus three standard errors must sit below
    one.  At h = 100 the Monte Carlo estimate must lie within 2 percent
    of the quadrature route, and its estimate plus three standard errors
    below one too.  Far out, this field makes the chain scale-invariant
    in log|x|, and reversibility puts the drift ratio of |x|^s below one
    for 0 < s < p - 1 (here p - 1 = 1), at one for s = p - 1 and above
    one beyond, at every step size.  A one-step drift of |x|^s therefore
    cannot show a large-step pathology; the check asserts what the
    method does at h = 100.

    Unlike checks 3, 4, 5, 7 and 8 this one does not run its scenario
    body, ``lemma3_drift``: its large-step probes draw from seeds
    ``seed + 17 + i`` where the scenario's draw from ``seed + i``, and
    merging the two would re-seed one of them.
    """
    t0 = time.perf_counter()
    target = make_polynomial_tail(2.0)
    fld = one_plus_square_field()
    V = abs_pow(0.25)
    xs = (50.0, 100.0, 200.0)

    kern_small = gaussian_proposal(fld, 0.01)
    uppers = []
    for i, x in enumerate(xs):
        r = drift_ratio(target, kern_small, V, x, n=100_000, seed=seed + i)
        uppers.append(r.estimate + 3.0 * r.se)
    small_ok = all(u < 1.0 for u in uppers)

    kern_large = gaussian_proposal(fld, 100.0)
    uppers_large = []
    rels = []
    for i, x in enumerate(xs):
        r = drift_ratio(target, kern_large, V, x, n=100_000, seed=seed + 17 + i)
        q = drift_ratio_quadrature(target, fld, 100.0, V, x)
        uppers_large.append(r.estimate + 3.0 * r.se)
        rels.append(abs(r.estimate - q.estimate) / q.estimate)
    large_ok = all(u < 1.0 for u in uppers_large) and all(r <= 0.02 for r in rels)

    passed = small_ok and large_ok
    return CriterionResult(
        6, "heavy_tail_drift_step_size", passed,
        "h=0.01 upper bounds " + ", ".join(f"{u:.5f}" for u in uppers)
        + f"; h=100 worst upper bound {max(uppers_large):.5f}"
        + f", worst quadrature rel gap {max(rels):.4f}; upper bounds "
        + ", ".join(f"{u:.5f}" for u in uppers_large),
        time.perf_counter() - t0,
    )


def criterion_7(seed: int = 0) -> CriterionResult:
    """Windowed spectral-gap verdicts on four classification cells.

    Each cell runs at its own window pair: the three cells that are
    also Table 1 cells take theirs from the ``table1_grid`` scenario,
    and the bounded-field cell uses 20/80.  A super-quadratic field's
    gap decays like one over the window size, so only a span wider than
    5x can push its ratio below the 0.2 threshold; that cell runs at
    10/160.  Every verdict must match the expected one: the checks of
    the ``oracle_scan`` scenario.
    """
    return _run_scenario_checks(7, "gap_trend_classification", "oracle_scan", seed)


def criterion_8(seed: int = 0) -> CriterionResult:
    """Jump-distance optimum over field exponents on the unit Gaussian.

    Exponent grid 0..3.2 by 0.4, acceptance 0.44: the argmax of the
    tuned quadrature curve lies in [1.2, 2.0], ahead of the runner-up by
    more than their summed error; each tuned chain accepts within
    0.44 +/- 0.05 and lies within four standard errors of the quadrature
    at its own step size.  The curve's top is flat to about 0.001, below
    a chain's standard error (about 0.008), so the chains alone cannot
    locate the argmax: the ``esjd_scan`` scenario with 1e5-step chains.
    """
    return _run_scenario_checks(
        8, "esjd_optimum_location", "esjd_scan", seed, n_steps=100_000
    )


def criterion_9(seed: int = 0) -> CriterionResult:
    """Truncated-Gaussian moments against simulation, and the tail bound.

    20 randomized truncation specs (two-sided, left-open, right-open in
    rotation): closed-form mean and mgf must sit within four standard
    errors of 1e6-draw Monte Carlo; the closed-form Mills-ratio tail
    bound must strictly dominate the high-accuracy complementary CDF on
    x in [0.1, 10].
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_mean = 0.0
    worst_mgf = 0.0
    n = 1_000_000
    for i in range(20):
        mu = float(rng.uniform(-2.0, 2.0))
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        lo = mu + sigma * float(rng.uniform(-3.0, 0.5))
        hi = lo + sigma * float(np.exp(rng.uniform(np.log(0.5), np.log(3.0))))
        kind = i % 3
        a = -np.inf if kind == 1 else lo
        b = np.inf if kind == 2 else hi
        spec = TruncatedGaussianSpec(mu, sigma, a, b)
        t = float(rng.uniform(-0.5, 0.5)) / sigma

        draws = truncnorm.rvs(
            spec.alpha, spec.beta, loc=mu, scale=sigma, size=n,
            random_state=np.random.default_rng(seed + 100 + i),
        )
        se_mean = draws.std(ddof=1) / np.sqrt(n)
        worst_mean = max(worst_mean, abs(truncated_mean(spec) - draws.mean()) / se_mean)
        g = np.exp(t * draws)
        se_mgf = g.std(ddof=1) / np.sqrt(n)
        worst_mgf = max(worst_mgf, abs(truncated_mgf(spec, t) - g.mean()) / se_mgf)

    xs = np.linspace(0.1, 10.0, 250)
    dominates = all(gaussian_tail_bound(float(x)) > norm.sf(x) for x in xs)

    passed = worst_mean <= 4.0 and worst_mgf <= 4.0 and dominates
    return CriterionResult(
        9, "truncated_moments_and_tail_bound", passed,
        f"worst z: mean {worst_mean:.2f}, mgf {worst_mgf:.2f}; "
        f"tail bound dominates on [0.1, 10]: {dominates}",
        time.perf_counter() - t0,
    )


def criterion_10(seed: int = 0) -> CriterionResult:
    """Internal consistency of the discretized-chain oracle.

    Three pinned chains: stationarity (L1 residual of pi P - pi below
    1e-6), reversibility (detailed-balance residual below 1e-10
    entrywise), and agreement between the spectral gap and the fitted
    total-variation decay rate within 10 percent wherever the gap
    exceeds 0.01.
    """
    t0 = time.perf_counter()
    cases = (
        (make_exponential_tail(1.0), power_field(1.0), 1.0, 15.0, 151),
        (make_gaussian(1.0), constant_field(1.0), 0.5, 10.0, 201),
        (make_polynomial_tail(3.0), constant_field(1.0), 1.0, 12.0, 121),
    )
    stat_res = []
    rev_res = []
    rate_rel = []
    for target, fld, h, L, n in cases:
        ch = build_discretized(target, fld, h, L, n)
        stat_res.append(float(np.abs(ch.pi_hat @ ch.transition - ch.pi_hat).sum()))
        rev_res.append(ch.reversibility_residual())
        res = spectral_gap(ch)
        if res.gap > 0.01:
            d = tv_decay_curve(ch, n // 5, 100)
            fitted = (d[100] / d[60]) ** (1.0 / 40.0)
            rate_rel.append(abs(fitted - (1.0 - res.gap)) / (1.0 - res.gap))
    passed = (
        all(s < 1e-6 for s in stat_res)
        and all(r < 1e-10 for r in rev_res)
        and all(r <= 0.10 for r in rate_rel)
    )
    return CriterionResult(
        10, "discretized_chain_consistency", passed,
        "L1 stationarity " + ", ".join(f"{s:.1e}" for s in stat_res)
        + "; reversibility " + ", ".join(f"{r:.1e}" for r in rev_res)
        + "; gap-vs-TV rel " + ", ".join(f"{r:.4f}" for r in rate_rel),
        time.perf_counter() - t0,
    )


CRITERIA: tuple[tuple[int, Callable[[int], CriterionResult]], ...] = (
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
    (9, criterion_9),
    (10, criterion_10),
)


def verify_all(seed: int = 0, indices: Iterable[int] | None = None) -> list[CriterionResult]:
    """Run the numbered checks, printing one PASS/FAIL line each.

    ``indices`` restricts the run; the returned results carry the full
    detail strings.  Deterministic for a fixed seed.  A negative seed or
    an index no check has raises ``ConfigError`` before any check runs.
    """
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}", key="seed")
    known = [idx for idx, _ in CRITERIA]
    wanted = set(known if indices is None else indices)
    unknown = sorted(wanted - set(known))
    if unknown:
        raise ConfigError(
            f"no criterion {', '.join(map(str, unknown))}; "
            f"choose from {', '.join(map(str, known))}",
            key="only",
        )
    results = []
    for idx, fn in CRITERIA:
        if idx not in wanted:
            continue
        r = fn(seed)
        mark = "PASS" if r.passed else "FAIL"
        print(f"criterion {idx:02d} {mark} {r.name} ({r.elapsed:.1f}s): {r.detail}")
        results.append(r)
    return results
