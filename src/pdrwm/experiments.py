"""Named, reproducible experiment scenarios.

Each scenario builds its inputs from a small declarative config,
computes one or more CSV artifacts, and evaluates a list of named checks
whose outcomes make up the scenario's pass/fail summary.  A scenario
body is a pure computation: it takes ``(seed, digest)`` and its params
and returns ``({file name: CSV text}, checks)``, a deterministic
function of (params, seed).  Only :func:`run_scenario` touches the
disk, so re-running with an identical config reproduces every output
file byte for byte, and the acceptance checks in ``verify`` can run a
body without writing anything.

A scenario body's keyword-only parameters declare the keys its
``params`` take, with types and defaults; target and field specs bind
to the factory they name.  ``bind_params`` checks a mapping against a
signature and names the offending key.

Output files start with a comment line carrying the config digest and
the seed, so an artifact can always be traced back to the settings that
produced it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import typing
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from types import UnionType
from typing import Callable, Sequence

import numpy as np
import yaml

from .chain import estimate_expectation, log_accept_ratio_batch, run_chain
from .chain import _closed_form_at, _iid_mean_se
from .diagnostics import (
    _MIN_DRAWS,
    _check_rate,
    _check_scan_steps,
    abs_pow,
    acceptance_set_mass,
    drift_ratio,
    esjd_scan,
    exp_abs,
    rectangle_v,
)
from .errors import ConfigError, DiscretizationError, NumericError, ParameterError
from .errors import PDRWMError, SupportError
from .fields import (
    CovarianceField,
    constant_field,
    one_plus_square_field,
    power_field,
    ridge_conditional_field,
    tempered_langevin_field,
)
from .oracle import classify_gap_trend, drift_ratio_quadrature, gap_growth_scan
from .oracle import tuned_jump_quadrature
from .proposals import _step_size, circle_proposal, ellipse_proposal, gaussian_proposal
from .rectangle import (
    disc_rejection_area_bound,
    disc_rejection_lower_bound,
    exact_rejection_disc,
    hemisphere_sweep,
)
from .targets import (
    TARGET_FACTORIES,
    RectangleDensity,
    TargetDensity,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
    _log_density_on_support,
)

OUTPUT_DIR_ENV = "PDRWM_OUTPUT_DIR"


@dataclass(frozen=True)
class ScenarioCheck:
    name: str
    passed: bool
    detail: str


#: what a scenario body returns: CSV text by file name, and its checks
ScenarioOutput = tuple[dict[str, str], tuple[ScenarioCheck, ...]]


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    digest: str
    seed: int
    files: tuple[str, ...]
    checks: tuple[ScenarioCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    output_dir: str | None = None
    params: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}", key="scenario")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}", key="seed"
            )


def scenario_digest(scenario: str, seed: int, params: dict) -> str:
    """Twelve hex chars identifying (scenario, seed, params)."""
    blob = json.dumps(
        {"scenario": scenario, "seed": seed, "params": params},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


#: ``_fmt`` of the built-in types, looked up by exact type; numpy
#: scalars and everything else go through ``_fmt``
_FMT_BY_TYPE = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: lambda v: "true" if v else "false",
}


def _csv(digest: str, seed: int, header: Sequence[str], rows) -> str:
    """CSV text under a ``# config=<digest> seed=<seed>`` comment line."""
    lines = [f"# config={digest} seed={seed}", ",".join(header)]
    fmt = _FMT_BY_TYPE.get
    for row in rows:
        lines.append(",".join([fmt(type(v), _fmt)(v) for v in row]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config plumbing

def _config_parameters(fn: Callable) -> dict[str, inspect.Parameter]:
    """The parameters of ``fn`` that a config mapping may name: all but
    the positional-only ones, which the caller supplies."""
    params = inspect.signature(fn, eval_str=True).parameters.values()
    return {p.name: p for p in params if p.kind != p.POSITIONAL_ONLY}


def _coerce(value, hint, key: str):
    """``value`` as the annotation ``hint`` reads, or ``ConfigError``.

    An int passes for a float and is converted with ``float()``; a bool
    or a string never passes for a number.  ``tuple[T, ...]`` takes a
    nonempty YAML list: no scenario has anything to compute over none.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is UnionType:
        for alt in args:
            try:
                return _coerce(value, alt, key)
            except ConfigError:
                pass
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            if not value:
                raise ConfigError(f"{key} must not be empty", key=key)
            return tuple(_coerce(v, args[0], f"{key}[{i}]") for i, v in enumerate(value))
    elif hint is float or hint is int:
        if isinstance(value, (int, hint)) and not isinstance(value, bool):
            return hint(value)
    elif isinstance(value, hint):
        return value
    raise ConfigError(
        f"{key} must be {inspect.formatannotation(hint)}, got {value!r}"
        + _number_spelling(value, hint), key=key,
    )


def _number_spelling(value, hint) -> str:
    """``"; write 1.0e+300"`` where ``value`` is a string that Python reads
    as a number ``hint`` takes, else ``""``.  PyYAML reads YAML 1.1, where
    a float needs a dot and a signed exponent: it leaves ``1.0e300`` and
    ``1e-3`` as strings.  The spelling is the one PyYAML writes."""
    if not isinstance(value, str):
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    alts = typing.get_args(hint) if typing.get_origin(hint) is UnionType else (hint,)
    if float in alts:
        return "; write " + yaml.safe_dump(number).split("\n", 1)[0]
    if int in alts and number.is_integer():
        return f"; write {int(number)}"
    return ""


def bind_params(fn: Callable, mapping: dict, prefix: str = "") -> dict:
    """Keyword arguments for ``fn`` from a config mapping.

    Raises ``ConfigError`` naming the key, with ``prefix`` in front (as
    in ``target.a``), for a key ``fn`` does not take, a required key the
    mapping lacks, or a value that does not fit the annotation.
    """
    params = _config_parameters(fn)
    for key in mapping:
        if key not in params:
            raise ConfigError(
                f"unknown key {prefix}{key}; takes {', '.join(params) or 'none'}",
                key=f"{prefix}{key}",
            )
    for name, p in params.items():
        if p.default is p.empty and name not in mapping:
            raise ConfigError(f"missing key {prefix}{name}", key=f"{prefix}{name}")
    return {
        k: _coerce(v, params[k].annotation, f"{prefix}{k}") for k, v in mapping.items()
    }


def _build_from_spec(spec, what: str, factories: dict[str, Callable]):
    """Call the factory a ``{name: ..., key: value}`` spec names with the
    rest of the spec bound to its signature."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be a mapping with a 'name'", key=what)
    name = spec["name"]
    if not isinstance(name, str) or name not in factories:
        raise ConfigError(
            f"unknown {what} {name!r}; choose from {sorted(factories)}",
            key=f"{what}.name",
        )
    factory = factories[name]
    kwargs = bind_params(
        factory, {k: v for k, v in spec.items() if k != "name"}, prefix=f"{what}."
    )
    try:
        return factory(**kwargs)
    except ConfigError:
        raise  # the factory named the key itself
    except PDRWMError as exc:
        raise ConfigError(str(exc), key=what) from exc


def build_target(spec: dict) -> TargetDensity:
    """The target a config spec such as ``{name: exponential, a: 1.0}`` names."""
    return _build_from_spec(spec, "target", TARGET_FACTORIES)


def _constant_field(sigma2: float = 1.0, dim: int = 1) -> CovarianceField:
    """Config adapter: ``sigma2`` times the ``dim``-dimensional identity."""
    if dim < 1:
        raise ConfigError(f"field.dim must be >= 1, got {dim}", key="field.dim")
    return constant_field(np.eye(dim) * sigma2 if dim > 1 else sigma2)


def build_field(spec: dict, target: TargetDensity | None = None) -> CovarianceField:
    """The field a config spec such as ``{name: power, b: 1.5}`` names;
    ``tempered_langevin`` is built from ``target``."""

    def tempered_langevin(c_max: float = 1e12) -> CovarianceField:
        if target is None:
            raise ParameterError("tempered_langevin field needs a target")
        return tempered_langevin_field(target, c_max)

    factories = {
        "constant": _constant_field,
        "power": power_field,
        "one_plus_square": one_plus_square_field,
        "tempered_langevin": tempered_langevin,
        "ridge_conditional": ridge_conditional_field,
    }
    return _build_from_spec(spec, "field", factories)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a single-document YAML scenario config."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}", key="path")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}", key="path") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}", key="path") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping", key="path")

    if raw.get("params") is None:  # an empty ``params:`` block reads as None
        raw["params"] = {}
    return ExperimentConfig(**bind_params(ExperimentConfig, raw))


def resolve_output_dir(config: ExperimentConfig) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env) / config.scenario
    if config.output_dir:
        return Path(config.output_dir)
    return Path("artifacts") / config.scenario


# ---------------------------------------------------------------------------
# scenario bodies

def _check_points(key: str, points, target: TargetDensity, kernels) -> None:
    """``ConfigError`` naming ``key[i]`` at the first of ``points`` (each a
    tuple of floats) that is off the target's support or where one of
    ``kernels`` cannot propose from it; run before a scenario's work."""
    for i, x in enumerate(points):
        try:
            _log_density_on_support(target, np.array(x), "point")
            for kern in kernels:
                kern.at(x)
        except (SupportError, NumericError) as exc:
            raise ConfigError(str(exc), key=f"{key}[{i}]") from exc


def _check_rule(rule: Callable, value: float, key: str) -> None:
    """``ConfigError`` naming ``key`` where ``rule`` refuses ``value``."""
    try:
        rule(value)
    except ParameterError as exc:
        raise ConfigError(str(exc), key=key) from exc


def _scenario_figure1(
    seed, digest, /, *, x_points: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0),
    n_proposals: int = 2000, b: float = 4.0, h: float = 1.0, a: float = 1.0,
) -> ScenarioOutput:
    """Per-proposal acceptance under a fast-growing field, by start point.

    Exponential target, proposal variance growing like ``(1+|x|)^b``,
    by default with ``b = 4``.  From far out in the tail almost every
    proposal either overshoots the bulk of the density or lands so far
    off that the reverse-move correction kills it.  So the fraction of
    proposals accepted with probability above one half falls as the
    start point moves out (check ``above_half_fraction_decreasing``),
    although each proposal is an ordinary Gaussian draw.  The CSV lists
    every proposal with its acceptance probability.  ``lemma4_probe``
    measures the same collapse as the proposal mass of the acceptance
    set.
    """
    if n_proposals < 100:
        raise ConfigError("n_proposals must be at least 100", key="n_proposals")
    _check_rule(_step_size, h, "h")

    target = make_exponential_tail(a)
    fld = power_field(b)
    kern = gaussian_proposal(fld, h)
    _check_points("x_points", [(x,) for x in x_points], target, [kern])
    rng = np.random.default_rng(seed)
    rows = []
    fractions = []
    for x in x_points:
        xv = np.array([x])
        ys = kern.sample_batch(xv, n_proposals, rng)[:, 0]
        accept = _closed_form_at(target, fld, h, xv)
        above = 0
        for y in ys.tolist():
            alpha = float(np.exp(accept(y)))
            flag = alpha > 0.5
            above += flag
            rows.append((x, y, alpha, flag))
        fractions.append(above / n_proposals)

    decreasing = all(fractions[i + 1] < fractions[i] for i in range(len(fractions) - 1))
    checks = (
        ScenarioCheck(
            "above_half_fraction_decreasing",
            decreasing,
            "fractions " + ", ".join(f"{f:.4f}" for f in fractions),
        ),
    )
    files = {
        "figure1_proposals.csv":
            _csv(digest, seed, ("x", "y", "alpha", "above_half"), rows),
    }
    return files, checks


#: proposals per batch in ``figure2_data``, so that its memory stays
#: bounded at any ``n_proposals``
_FIGURE2_CHUNK = 2**15


def _scenario_figure2(
    seed, digest, /, *, arm_positions: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0),
    n_proposals: int = 3000, h: float = 1.0, sigma2: float = 0.25,
) -> ScenarioOutput:
    """Ridge-target acceptance along the arm, fixed vs position-matched field.

    The density ``exp(-x^2 - y^2 - x^2 y^2)`` concentrates along two
    narrowing arms.  A fixed spherical proposal, ``sigma2`` times the
    identity, suits the centre but keeps rejecting out on the arm.  The
    conditional field proposes along each axis with the conditional
    variance ``1/(2(1 + other^2))`` and keeps accepting all the way out.
    Every arm point reuses the same draws.  The checks: the spherical
    mean acceptance at the far point is below half of that at the first
    (``spherical_acceptance_collapses``); the conditional one is at least
    0.35 there (``conditional_acceptance_holds``) and over 1.5 times the
    spherical one (``conditional_beats_spherical_far``).  No chain runs
    here: the acceptance and jump of a ridge chain started on the arm
    are not asserted by any check (see the README's verification notes).
    """
    if n_proposals < 100:
        raise ConfigError("n_proposals must be at least 100", key="n_proposals")
    _check_rule(_step_size, h, "h")

    ridge = make_ridge_2d()
    fields = {
        "spherical": constant_field(np.eye(2) * sigma2),
        "conditional": ridge_conditional_field(),
    }
    kernels = {name: gaussian_proposal(fld, h) for name, fld in fields.items()}
    points = [(float(x1), 0.0) for x1 in arm_positions]
    _check_points("arm_positions", points, ridge, kernels.values())
    means: dict[str, list[float]] = {k: [] for k in fields}
    rows = []
    for x1, x in zip(arm_positions, map(np.array, points)):
        row = [x1]
        for name, kern in kernels.items():
            rng = np.random.default_rng(seed)  # common draws across arm points
            acc = 0.0
            # chunk by chunk, each summed in order from the running total:
            # the bits of a per-proposal loop of acc += alpha
            for start in range(0, n_proposals, _FIGURE2_CHUNK):
                ys = kern.sample_batch(x, min(_FIGURE2_CHUNK, n_proposals - start), rng)
                alpha = np.exp(log_accept_ratio_batch(ridge, kern, x, ys))
                alpha[0] += acc
                acc = float(np.add.accumulate(alpha)[-1])
            means[name].append(acc / n_proposals)
            row.append(acc / n_proposals)
        rows.append(tuple(row))

    sph, cond = means["spherical"], means["conditional"]
    checks = (
        ScenarioCheck(
            "spherical_acceptance_collapses",
            sph[-1] < 0.5 * sph[0],
            f"far/near = {sph[-1]:.4f}/{sph[0]:.4f}",
        ),
        ScenarioCheck(
            "conditional_acceptance_holds",
            cond[-1] >= 0.35,
            f"far arm mean alpha = {cond[-1]:.4f}",
        ),
        ScenarioCheck(
            "conditional_beats_spherical_far",
            cond[-1] > 1.5 * sph[-1],
            f"{cond[-1]:.4f} vs {sph[-1]:.4f}",
        ),
    )
    files = {
        "figure2_arm_acceptance.csv": _csv(
            digest, seed, ("x1", "mean_alpha_spherical", "mean_alpha_conditional"), rows
        ),
    }
    return files, checks


def _sweep_csv(digest: str, seed: int, sweep) -> str:
    """CSV text of a ``hemisphere_sweep``, one row per probe point."""
    return _csv(
        digest, seed, ("k", "x1", "x2", "lower_overlap", "upper_overlap", "passes"),
        [(r.k, r.x1, r.x2, r.lower_overlap, r.upper_overlap, r.passes) for r in sweep],
    )


def _check_levels(levels: tuple[int, ...], key: str) -> None:
    """``ConfigError`` naming ``key`` unless each level lies in [2, subnormal_level)."""
    top = RectangleDensity.subnormal_level
    if not 2 <= min(levels) <= max(levels) < top:
        raise ConfigError(f"{key} must lie in [2, {top}), got {list(levels)}", key=key)


def _scenario_figure3(
    seed, digest, /, *, max_level: int = 12,
    probe_levels: tuple[int, ...] = (2, 3, 4, 5, 6), height_frac: float = 0.5,
) -> ScenarioOutput:
    """Staircase geometry of the rectangle target, plus hemisphere overlaps.

    One row per level up to ``max_level``: its half-width ``3^(1-k)``,
    its mass ``6 * 9^-k`` and the cumulative share of the total mass
    3/4.  The checks: each half-width is a third of the one below
    (``half_width_ratio_one_third``); the level masses sum to the
    geometric series (``level_masses_sum``); and on the axis, at
    ``height_frac`` of each probe level, the move-down half of the
    ellipse proposal meets more support than the move-up half
    (``hemisphere_overlaps_pass``).
    """
    if max_level < 2:
        raise ConfigError("max_level must be at least 2", key="max_level")
    _check_levels(probe_levels, "probe_levels")

    sweep = hemisphere_sweep(
        levels=probe_levels, height_fracs=(height_frac,), x1_fracs=(0.0,)
    )
    rows = []
    cum = 0.0
    for k in range(1, max_level + 1):
        w = RectangleDensity.half_width(k)
        # density 3^-k over a 2*3^(1-k) wide, unit tall slab
        mass = 6.0 * 9.0 ** (-k)
        cum += mass
        rows.append((k, w, mass, cum / RectangleDensity.total_mass))

    widths = [row[1] for row in rows]
    ratio_ok = all(
        abs(widths[i + 1] / widths[i] - 1.0 / 3.0) < 1e-12 for i in range(len(widths) - 1)
    )
    total = sum(row[2] for row in rows)
    expected_total = RectangleDensity.total_mass * (1.0 - 9.0 ** (-max_level))
    checks = (
        ScenarioCheck("half_width_ratio_one_third", ratio_ok, f"{len(widths)} levels"),
        ScenarioCheck(
            "level_masses_sum",
            abs(total - expected_total) < 1e-12,
            f"sum {total!r} vs {expected_total!r}",
        ),
        ScenarioCheck(
            "hemisphere_overlaps_pass", all(r.passes for r in sweep), f"{len(sweep)} probes"
        ),
    )
    files = {
        "figure3_levels.csv": _csv(
            digest, seed, ("level", "half_width", "mass", "cum_mass_fraction"), rows
        ),
        "figure3_hemispheres.csv": _sweep_csv(digest, seed, sweep),
    }
    return files, checks


def _gap_cells(cells, key_header, file_name, seed, digest) -> ScenarioOutput:
    """One CSV row and one check per classification cell.

    A cell is ``(*key, target factory, field factory, h, windows, grid
    density, expected verdict)`` with one key column per ``key_header``
    name.  Its verdict classifies the gap at the last window against the
    gap at the first.
    """
    rows = []
    checks = []
    for *key, mk_target, mk_field, h, windows, ppu, expected in cells:
        pts = gap_growth_scan(
            mk_target(), mk_field(), h, list(windows), points_per_unit=ppu
        )
        g_s, g_l = pts[0].gap, pts[-1].gap
        verdict = classify_gap_trend(g_s, g_l)
        rows.append((*key, h, windows[0], windows[-1], g_s, g_l, g_l / g_s,
                     verdict, expected, verdict == expected))
        checks.append(
            ScenarioCheck(
                "cell_" + "_".join(key), verdict == expected,
                f"windows {windows[0]:g}/{windows[-1]:g}: ratio {g_l / g_s:.4f} -> "
                f"{verdict} (expected {expected})",
            )
        )
    header = (*key_header, "h", "window_small", "window_large", "gap_small",
              "gap_large", "ratio", "verdict", "expected", "cell_pass")
    return {file_name: _csv(digest, seed, header, rows)}, tuple(checks)


# (target factory, field factory, h, windows, grid density, expected verdict)
_TABLE1_CELLS: tuple[tuple[str, str, Callable, Callable, float, tuple, int, str], ...] = (
    ("polynomial", "subquadratic", lambda: make_polynomial_tail(2.0),
     lambda: power_field(1.5), 1.0, (10.0, 320.0), 5, "not_geometric"),
    ("subexponential", "subquadratic", lambda: make_subexponential_tail(1.0, 0.5),
     lambda: power_field(1.5), 1.0, (40.0, 160.0), 5, "geometric"),
    ("log_concave", "subquadratic", lambda: make_exponential_tail(1.0),
     lambda: power_field(1.5), 1.0, (20.0, 80.0), 5, "geometric"),
    ("polynomial", "quadratic", lambda: make_polynomial_tail(2.0),
     lambda: one_plus_square_field(), 0.01, (20.0, 80.0), 50, "geometric"),
    ("subexponential", "quadratic", lambda: make_subexponential_tail(1.0, 0.5),
     lambda: one_plus_square_field(), 0.01, (20.0, 80.0), 50, "geometric"),
    ("log_concave", "quadratic", lambda: make_exponential_tail(1.0),
     lambda: one_plus_square_field(), 0.01, (20.0, 80.0), 50, "geometric"),
    ("polynomial", "superquadratic", lambda: make_polynomial_tail(2.0),
     lambda: power_field(4.0), 1.0, (10.0, 160.0), 5, "not_geometric"),
    ("subexponential", "superquadratic", lambda: make_subexponential_tail(1.0, 0.5),
     lambda: power_field(4.0), 1.0, (10.0, 160.0), 5, "not_geometric"),
    ("log_concave", "superquadratic", lambda: make_exponential_tail(1.0),
     lambda: power_field(4.0), 1.0, (10.0, 160.0), 5, "not_geometric"),
)


def _scenario_table1(seed, digest, /) -> ScenarioOutput:
    """Tail-by-growth classification grid from windowed spectral gaps.

    Three tail classes crossed with three variance growth classes; each
    cell gets a gap trend verdict that is compared against the expected
    classification.  Window spans are sized per cell: slow heavy-tail
    collapse needs a wide span, heavy-tailed targets need a large first
    window before the gap means anything.  ``oracle_scan`` explains how a
    gap trend reads.  The quadratic cells run at ``h = 0.01``; whether a
    larger step size loses geometric ergodicity is not tested.
    """
    return _gap_cells(_TABLE1_CELLS, ("tail", "growth"), "table1_grid.csv", seed, digest)


def _drift_rows(target, fld, h, V, xs, n, seed) -> list[tuple]:
    """``(x, estimate, se, estimate + 3 se, quadrature, relative gap)``
    of the drift ratio of ``V`` at each probe point ``xs[i]``, its Monte
    Carlo draws from seed ``seed + i``."""
    kern = gaussian_proposal(fld, h)
    rows = []
    for i, x in enumerate(xs):
        r = drift_ratio(target, kern, V, x, n=n, seed=seed + i)
        q = drift_ratio_quadrature(target, fld, h, V, x)
        rows.append((x, r.estimate, r.se, r.estimate + 3.0 * r.se, q.estimate,
                     abs(r.estimate - q.estimate) / q.estimate))
    return rows


def _heavy_tail_drift(
    seed_small, seed_large, *, p, s, xs, h_small, h_large, n
) -> tuple[list[tuple], tuple[ScenarioCheck, ...]]:
    """``(h, *drift row)`` at ``h_small`` then ``h_large``, and the three
    checks of ``lemma3_drift``.

    The target is the ``(1+|x|)^-p`` tail, the field ``1 + x^2`` and
    ``V = |x|^s``; the probes at each step size draw from their own seed.
    Upper bounds print to five decimals: the small-step contraction
    margin is under 1e-3.
    """
    target = make_polynomial_tail(p)
    fld = one_plus_square_field()
    V = abs_pow(s)
    kernels = [gaussian_proposal(fld, h) for h in (h_small, h_large)]
    _check_points("xs", [(x,) for x in xs], target, kernels)
    small = [(h_small, *r) for r in _drift_rows(target, fld, h_small, V, xs, n, seed_small)]
    large = [(h_large, *r) for r in _drift_rows(target, fld, h_large, V, xs, n, seed_large)]
    checks = (
        ScenarioCheck(
            "small_h_contractive", all(r[4] < 1.0 for r in small),
            "upper bounds " + ", ".join(f"{r[4]:.5f}" for r in small),
        ),
        ScenarioCheck(
            "large_h_contractive", all(r[4] < 1.0 for r in large),
            "upper bounds " + ", ".join(f"{r[4]:.5f}" for r in large),
        ),
        ScenarioCheck(
            "large_h_quadrature_within_2pct", all(r[6] <= 0.02 for r in large),
            "rel gaps " + ", ".join(f"{r[6]:.4f}" for r in large),
        ),
    )
    return small + large, checks


def _scenario_lemma2(
    seed, digest, /, *, a: float = 1.0, b: float = 1.5, h: float = 1.0,
    s: float = 0.5, xs: tuple[float, ...] = (20.0, 40.0, 80.0), n: int = 20_000,
) -> ScenarioOutput:
    """Drift-ratio probe in the light-tail regime with a sub-linear field.

    ``V(x) = exp(s|x|)`` against the ``exp(-a|x|)`` target with
    ``(1+|x|)^b`` proposal variance, by default ``s = 1/2``, ``a = 1``
    and ``b = 1.5``.  At every probe point the one-step expected ``V``
    shrinks: the ratio's estimate plus three standard errors is below
    one (``contractive_at_all_probes``).  Contraction far out in the
    tail, not just slow escape, is what a geometric drift condition asks
    for.  The Monte Carlo probe and the adaptive quadrature route agree
    within 2 percent (``quadrature_within_2pct``), which is the point of
    keeping two routes.
    """
    _check_rule(_step_size, h, "h")
    target, fld = make_exponential_tail(a), power_field(b)
    _check_points("xs", [(x,) for x in xs], target, [gaussian_proposal(fld, h)])
    rows = _drift_rows(target, fld, h, exp_abs(s), xs, n, seed)
    checks = (
        ScenarioCheck(
            "contractive_at_all_probes", all(row[3] < 1.0 for row in rows),
            "upper bounds " + ", ".join(f"{row[3]:.4f}" for row in rows),
        ),
        ScenarioCheck(
            "quadrature_within_2pct", all(row[5] <= 0.02 for row in rows),
            "rel gaps " + ", ".join(f"{row[5]:.4f}" for row in rows),
        ),
    )
    header = ("x", "estimate", "se", "upper_3se", "quadrature", "rel_gap")
    return {"lemma2_drift.csv": _csv(digest, seed, header, rows)}, checks


def _scenario_lemma3(
    seed, digest, /, *, p: float = 2.0, s: float = 0.25,
    xs: tuple[float, ...] = (50.0, 100.0, 200.0), h_small: float = 0.01,
    h_large: float = 100.0,
    # the small-step contraction margin is under 1e-3, so the probe
    # needs the full sample size for est + 3 se to resolve it
    n: int = 100_000,
) -> ScenarioOutput:
    """Drift-ratio probe for a heavy-tail target with a quadratic field.

    Runs the same probe grid at a small and a large step size, each
    point cross-checked by the quadrature route.  The small step size
    must contract everywhere.  At the large step size the probe must
    agree with quadrature within 2 percent and contract too: far out
    the chain is scale-invariant in log|x|, so the drift ratio of |x|^s
    is below one at every step size for 0 < s < p - 1.  See the README's
    verification notes.
    """
    _check_rule(_step_size, h_small, "h_small")
    _check_rule(_step_size, h_large, "h_large")
    rows, checks = _heavy_tail_drift(
        seed, seed, p=p, s=s, xs=xs, h_small=h_small, h_large=h_large, n=n
    )
    header = ("h", "x", "estimate", "se", "upper_3se", "quadrature", "rel_gap")
    return {"lemma3_drift.csv": _csv(digest, seed, header, rows)}, checks


def _scenario_lemma4(
    seed, digest, /, *, a: float = 1.0, b: float = 4.0, h: float = 1.0,
    eps: float = 0.1, xs: tuple[float, ...] = (10.0, 20.0, 40.0, 80.0), n: int = 20_000,
) -> ScenarioOutput:
    """Acceptance-set mass decay under a super-quadratic field.

    The proposal mass of ``{y : alpha(x, y) >= eps}`` at each probe
    point, for the exponential target and ``(1+|x|)^b`` proposal
    variance, by default with ``b = 4``: the ``figure1`` collapse as one
    number per point.  Every point uses the same seed, so the masses
    compare on common draws.  They fall strictly along the tail
    (``mass_strictly_decreasing``) and are below 0.05 at the farthest
    point (``mass_small_at_far_point``): the chain keeps less and less
    chance of a genuine move.
    """
    _check_rule(_step_size, h, "h")
    target = make_exponential_tail(a)
    kern = gaussian_proposal(power_field(b), h)
    _check_points("xs", [(x,) for x in xs], target, [kern])
    rows = []
    # same seed at every x: common random numbers make the comparison exact
    for x in xs:
        est = acceptance_set_mass(target, kern, x, eps=eps, n=n, seed=seed)
        rows.append((x, est.estimate, est.se))
    masses = [r[1] for r in rows]
    checks = (
        ScenarioCheck(
            "mass_strictly_decreasing",
            all(masses[i + 1] < masses[i] for i in range(len(masses) - 1)),
            "masses " + ", ".join(f"{m:.5f}" for m in masses),
        ),
        ScenarioCheck(
            "mass_small_at_far_point", masses[-1] < 0.05, f"{masses[-1]:.5f} at x={xs[-1]:g}"
        ),
    )
    return {"lemma4_probe.csv": _csv(digest, seed, ("x", "mass", "se"), rows)}, checks


def _disc_bounds(p: int) -> tuple[float, float, float]:
    """Unit-disc rejection at ``(0, p)`` on the staircase: the exact
    value, the published constant and the provable full-area bound."""
    return (
        exact_rejection_disc((0.0, float(p))),
        disc_rejection_lower_bound(p),
        disc_rejection_area_bound(p),
    )


def _scenario_lemma6(
    seed, digest, /, *, p_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8),
    mc_draws: int = 100_000,
) -> ScenarioOutput:
    """Exact unit-disc rejection on the rectangle target versus its bounds.

    The exact overlap computation is cross-checked by Monte Carlo and
    against the provable full-area bound.  The pinned closed-form bound
    is also reported: the exact values fall short of it at every p (and
    below 0.99 at p = 6), consistent with that constant counting one
    half-width per level where the axis-centred disc sees the full
    width.  The corresponding checks document the shortfall
    deliberately; see the README's verification notes.  From
    p = 13 on, at the default ``mc_draws``, every draw can miss the
    support: the Monte Carlo estimate is then 1 with standard error 0,
    its z is infinite unless the exact value is 1 too, and
    ``exact_matches_monte_carlo`` fails naming that p.
    """
    if min(p_values) < 3:
        raise ConfigError("p_values must be >= 3", key="p_values")
    if mc_draws < _MIN_DRAWS:
        raise ConfigError(f"mc_draws must be >= {_MIN_DRAWS}", key="mc_draws")

    disc = circle_proposal()
    rng = np.random.default_rng(seed)
    rows = []
    mc_ok = True
    meets_pinned = True
    for p in p_values:
        exact, pinned, area = _disc_bounds(p)
        # uniform draws on the unit disc at (0, p); alpha is the level
        # weight ratio clipped at one
        y1, y2 = disc.sample_batch(np.array([0.0, float(p)]), mc_draws, rng).T
        # per-level acceptances in Python float arithmetic, indexed by
        # level; the half-widths are the support test's own floats
        levels = np.floor(y2).astype(int)
        half = RectangleDensity.half_widths(levels)
        low = int(levels.min())
        ks = range(low, int(levels.max()) + 1)
        accept = np.array([min(1.0, 3.0 ** (p - k)) for k in ks])
        rej = 1.0 - accept[levels - low]
        rej[(y2 < 1.0) | (np.abs(y1) > half)] = 1.0  # off the support
        mc_est, mc_se = _iid_mean_se(rej)
        gap = abs(exact - mc_est)
        # a probe so high that every draw misses the support has mc_se = 0
        z = gap / mc_se if mc_se > 0 else (math.inf if gap else 0.0)
        rows.append((p, exact, pinned, area, exact >= pinned, mc_est, mc_se, z))
        mc_ok &= z <= 4.0
        meets_pinned &= exact >= pinned
    p6 = next((r[1] for r in rows if r[0] == 6), None)
    checks = (
        ScenarioCheck(
            "exact_matches_monte_carlo", mc_ok,
            "z " + ", ".join(f"p={r[0]}: {r[7]:.2f}" for r in rows),
        ),
        ScenarioCheck(
            "exact_dominates_area_bound",
            all(r[1] >= r[3] - 1e-12 for r in rows),
            "full-area bound is provable",
        ),
        ScenarioCheck(
            "meets_pinned_bound_all_p", meets_pinned,
            "exact " + ", ".join(f"p={r[0]}: {r[1]:.6f} vs {r[2]:.6f}" for r in rows[:2])
            + ", ...",
        ),
        ScenarioCheck(
            "exceeds_099_by_p6",
            p6 is not None and p6 > 0.99,
            f"exact at p=6 is {p6:.6f}" if p6 is not None else "p=6 not probed",
        ),
    )
    header = ("p", "exact", "pinned_bound", "area_bound", "meets_pinned",
              "mc_estimate", "mc_se", "mc_z")
    return {"lemma6_exact.csv": _csv(digest, seed, header, rows)}, checks


def _scenario_lemma7(
    seed, digest, /, *, levels: tuple[int, ...] = tuple(range(2, 13)),
    n_steps: int = 20_000, start_level: float = 10.0,
) -> ScenarioOutput:
    """Hemisphere sweep plus a long ellipse-proposal chain down the staircase.

    The staircase target stacks rectangles that shrink by a factor of
    three per level.  A proposal drawn uniformly from an ellipse whose
    horizontal semi-axis matches the local level width can always reach
    the level below.  The exact hemisphere-overlap geometry shows the
    move-down half of the ellipse meets more support than the move-up
    half at every swept point (``sweep_all_pass``).  Started at
    ``start_level``, the chain falls to level 1
    (``chain_reaches_first_level``; the CSV gives the step of the first
    visit) and then mixes there: the mean of ``rectangle_v`` over the
    last half is below 4 (``mean_v_small``).  How the chain's time splits
    across the levels, against the target's level masses ``8 * 9^-k``,
    is not asserted by any check.
    """
    if n_steps < 1000:
        raise ConfigError("n_steps must be at least 1000", key="n_steps")
    _check_levels(levels, "levels")
    x0 = (0.0, start_level + 0.5)
    try:
        traj = run_chain(make_rectangle(), ellipse_proposal(), x0, n_steps, seed)
    except (SupportError, NumericError) as exc:
        # off the staircase, or where the ellipse's width rule refuses it
        raise ConfigError(str(exc), key="start_level") from exc

    sweep = hemisphere_sweep(levels=levels)
    levels_visited = np.floor(traj.states[:, 1]).astype(int)
    hits = np.nonzero(levels_visited == 1)[0]
    V = rectangle_v()
    mean_v, _ = estimate_expectation(traj, V.evaluate, burn_in=traj.n_steps // 2)

    checks = (
        ScenarioCheck(
            "sweep_all_pass", all(r.passes for r in sweep), f"{len(sweep)} probe points"
        ),
        ScenarioCheck(
            "chain_reaches_first_level", hits.size > 0,
            f"first hit at step {int(hits[0])}" if hits.size else "never reached",
        ),
        ScenarioCheck("mean_v_small", mean_v < 4.0, f"mean V = {mean_v:.3f}"),
    )
    files = {
        "lemma7_sweep.csv": _sweep_csv(digest, seed, sweep),
        "lemma7_chain.csv": _csv(
            digest, seed,
            ("n_steps", "start_level", "min_level", "first_level1_step",
             "mean_v_last_half", "acceptance_rate"),
            [(n_steps, start_level, int(levels_visited.min()),
              int(hits[0]) if hits.size else -1, mean_v, traj.acceptance_rate)],
        ),
    }
    return files, checks


#: quadrature window (half-width, nodes) for the unit-Gaussian jump curve
_ESJD_WINDOW = (8.0, 1601)


def _scenario_esjd(
    seed, digest, /, *,
    b_values: tuple[float, ...] = tuple(round(0.4 * i, 1) for i in range(9)),
    n_steps: int = 20_000, tune_acceptance: float = 0.44,
) -> ScenarioOutput:
    """Jump-distance scan over field exponents at a fixed acceptance rate.

    Unit Gaussian target, ``(1+|x|)^b`` fields.  The quadrature solves
    each exponent's step size of stationary acceptance exactly
    ``tune_acceptance`` and the squared jump there (the tuned curve,
    ``quad_esjd`` and ``quad_esjd_err``); one chain per exponent then
    runs at that step size, and its ``z`` is its distance to the tuned
    curve in standard errors.  The curve's argmax must lie in [1.2, 2.0],
    ahead of the runner-up by more than their summed error estimates.
    The curve needs no chain, so it is solved first, at every exponent,
    before any chain runs: a rate whose step size the quadrature grid
    resolves at no exponent fails under ``tune_acceptance``, and one it
    resolves at some exponents under ``b_values``, naming the others.
    """
    if len(b_values) < 2:
        raise ConfigError("b_values needs at least two exponents", key="b_values")
    _check_scan_steps(n_steps)
    _check_rule(_check_rate, tune_acceptance, "tune_acceptance")

    target = make_gaussian(1.0)

    curve, failures = [], []
    for b in b_values:
        try:
            curve.append(
                tuned_jump_quadrature(target, power_field(float(b)), tune_acceptance, *_ESJD_WINDOW)
            )
        except DiscretizationError as exc:
            failures.append(f"b = {float(b):g}: {exc}")
    if len(failures) == len(b_values):
        raise ConfigError(
            f"no exponent has a step size of acceptance {tune_acceptance:g} "
            "that the quadrature grid resolves; " + "; ".join(failures),
            key="tune_acceptance",
        )
    if failures:
        raise ConfigError("; ".join(failures), key="b_values")
    points = esjd_scan(
        target, b_values, [c.step_size for c in curve], n_steps=n_steps, seed=seed
    )
    zs = [abs(p.esjd - c.esjd) / p.se for p, c in zip(points, curve)]
    rows = [(*p, c.esjd, c.esjd_err, z) for p, c, z in zip(points, curve, zs)]
    runner_up, top = sorted(range(len(curve)), key=lambda i: curve[i].esjd)[-2:]
    margin = curve[top].esjd - curve[runner_up].esjd
    err = curve[top].esjd_err + curve[runner_up].esjd_err
    checks = (
        ScenarioCheck(
            "acceptance_in_window",
            all(abs(p.acceptance_rate - tune_acceptance) <= 0.05 for p in points),
            "rates " + ", ".join(f"{p.acceptance_rate:.3f}" for p in points),
        ),
        ScenarioCheck(
            "chains_match_quadrature", max(zs) <= 4.0,
            f"worst z = {max(zs):.2f}; z " + ", ".join(f"{z:.2f}" for z in zs),
        ),
        ScenarioCheck(
            "quadrature_argmax_located", 1.2 <= points[top].b <= 2.0 and margin > err,
            f"argmax b = {points[top].b:g} (esjd {curve[top].esjd:.5f}), margin "
            f"{margin:.2e} over b = {points[runner_up].b:g} vs error {err:.1e}; curve "
            + ", ".join(f"{p.b:g}:{c.esjd:.5f}" for p, c in zip(points, curve)),
        ),
    )
    header = ("b", "step_size", "esjd", "se", "acceptance_rate", "quad_esjd",
              "quad_esjd_err", "z")
    return {"esjd_scan.csv": _csv(digest, seed, header, rows)}, checks


def _table1_cell(tail: str, growth: str) -> tuple:
    """The (target, field, h, windows, grid density, expected verdict)
    part of one ``_TABLE1_CELLS`` row."""
    return next(row[2:] for row in _TABLE1_CELLS if row[:2] == (tail, growth))


# the four classification probes used by the acceptance gate, each with
# its own window pair; the cells that are also Table 1 cells share that
# table's row, so the two tables cannot disagree
ORACLE_CELLS: tuple[tuple[str, Callable, Callable, float, tuple, int, str], ...] = (
    ("log_concave_subquadratic", *_table1_cell("log_concave", "subquadratic")),
    ("polynomial_bounded", lambda: make_polynomial_tail(2.0),
     lambda: constant_field(1.0), 1.0, (20.0, 80.0), 5, "not_geometric"),
    ("polynomial_quadratic_small_h", *_table1_cell("polynomial", "quadratic")),
    ("log_concave_superquadratic", *_table1_cell("log_concave", "superquadratic")),
)


def _scenario_oracle(seed, digest, /) -> ScenarioOutput:
    """Windowed spectral-gap verdicts on four classification cells.

    Restrict the sampler to a uniform grid on ``[-L, L]`` and its
    geometric convergence rate becomes an eigenvalue: the spectral gap
    of the grid chain.  Growing ``L`` then separates the regimes.  A
    geometric chain's gap levels off, so the gap at the large window
    stays above half that at the small one.  Under a super-quadratic
    field the far tail almost never moves, and the gap decays like an
    escape rate, one over the window size: the spectrum measures an
    escape rate from the tail, not a mixing rate.  ``classify_gap_trend``
    reads the ratio.

    Each cell runs at its own window pair (see ``ORACLE_CELLS``): the
    super-quadratic cell needs a span wider than 5x for the gap ratio to
    fall below the 0.2 threshold, and runs at Table 1's 10/160.  The
    quadratic cell runs at Table 1's ``h = 0.01``.  The bounded field is
    a cell only on the polynomial tail; its gap levelling off on the
    exponential tail is not asserted by any check (see the README's
    verification notes).
    """
    return _gap_cells(ORACLE_CELLS, ("cell",), "oracle_scan.csv", seed, digest)


def _scenario_custom(
    seed, digest, /, *, target: dict, field: dict, x0: float | tuple[float, ...],
    n_steps: int, h: float = 1.0,
) -> ScenarioOutput:
    """One chain with a user-specified target, field, and step size.

    ``target`` and ``field`` are specs such as ``{name: exponential,
    a: 1.0}``, bound to the factory they name.  The chain starts at
    ``x0`` and runs ``n_steps`` Gaussian-proposal steps of step size
    ``h``; the CSV holds the trajectory, and the one check reports the
    acceptance rate.
    """
    if n_steps < 1:
        raise ConfigError(
            f"n_steps must be a positive integer, got {n_steps!r}", key="n_steps"
        )

    density = build_target(target)
    fld = build_field(field, density)
    if fld.dim != density.dim:
        raise ConfigError(
            f"field dim {fld.dim} != target dim {density.dim}", key="field"
        )
    _check_rule(_step_size, h, "h")
    kern = gaussian_proposal(fld, h)
    try:
        traj = run_chain(density, kern, x0, n_steps, seed)
    except (ParameterError, SupportError) as exc:
        # the start point has the wrong dimension or is off the support
        raise ConfigError(str(exc), key="x0") from exc
    checks = (
        ScenarioCheck(
            "chain_completed", True,
            f"{n_steps} steps, acceptance rate {traj.acceptance_rate:.4f}",
        ),
    )
    return {"custom_trajectory.csv": traj.to_csv()}, checks


SCENARIOS: dict[str, Callable[..., ScenarioOutput]] = {
    "figure1": _scenario_figure1,
    "figure2_data": _scenario_figure2,
    "figure3_data": _scenario_figure3,
    "table1_grid": _scenario_table1,
    "lemma2_drift": _scenario_lemma2,
    "lemma3_drift": _scenario_lemma3,
    "lemma4_probe": _scenario_lemma4,
    "lemma6_exact": _scenario_lemma6,
    "lemma7_sweep": _scenario_lemma7,
    "esjd_scan": _scenario_esjd,
    "oracle_scan": _scenario_oracle,
    "custom": _scenario_custom,
}


def list_scenarios() -> list[tuple[str, str]]:
    """(name, description) for every registered scenario: the body's
    docstring, a one-line summary and then what the scenario shows."""
    return [(name, inspect.cleandoc(fn.__doc__ or "")) for name, fn in SCENARIOS.items()]


def scenario_parameters(name: str) -> list[str]:
    """``key: type = default`` for each parameter scenario ``name`` takes,
    read from the scenario body's signature."""
    return [
        f"{p.name}: {inspect.formatannotation(p.annotation)}"
        + ("" if p.default is p.empty else f" = {p.default!r}")
        for p in _config_parameters(SCENARIOS[name]).values()
    ]


def run_scenario(config: ExperimentConfig) -> ScenarioResult:
    """Bind the params to the scenario body's signature, run it, and
    write the files it returns.

    Config problems surface as ``ConfigError``.  This is the only place
    a scenario touches the disk: the output directory is created after
    the body has returned, so a rejected config leaves no files behind.
    """
    body = SCENARIOS[config.scenario]
    kwargs = bind_params(body, config.params)
    # the digest hashes the params as written, not the bound values
    digest = scenario_digest(config.scenario, config.seed, config.params)
    files, checks = body(config.seed, digest, **kwargs)
    out = resolve_output_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = out / name
        path.write_text(text)
        paths.append(str(path))
    return ScenarioResult(config.scenario, digest, config.seed, tuple(paths), checks)
