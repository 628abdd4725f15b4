"""Random walk Metropolis with position-dependent proposal covariance.

The sampler proposes ``y ~ N(x, h * S(x))`` where the covariance field
``S`` may vary with position, and accepts with the usual ratio carrying
both proposal directions.  Around the sampler sit diagnostics that make
geometric-ergodicity questions empirical: Lyapunov drift probes, tail
rejection estimates, a discretized spectral oracle, and exact planar
geometry for a staircase-shaped counterexample target.
"""

from .chain import (
    ChainTrajectory,
    batch_means_se,
    config_digest,
    estimate_expectation,
    log_accept_ratio,
    log_accept_ratio_batch,
    log_accept_ratio_closed_form,
    mh_step,
    run_chain,
)
from .diagnostics import (
    DriftResult,
    EsjdPoint,
    LyapunovFunction,
    ProbeEstimate,
    ProfilePoint,
    abs_pow,
    acceptance_set_mass,
    drift_ratio,
    esjd_scan,
    exp_abs,
    rectangle_v,
    rejection_probability,
    tail_acceptance_profile,
    tune_step_size,
)
from .errors import (
    ConfigError,
    DiscretizationError,
    EvaluationError,
    NumericError,
    ParameterError,
    PDRWMError,
    SupportError,
)
from .experiments import (
    ExperimentConfig,
    ScenarioCheck,
    ScenarioResult,
    list_scenarios,
    load_config,
    run_scenario,
    scenario_digest,
)
from .fields import (
    CovarianceField,
    constant_field,
    one_plus_square_field,
    power_field,
    ridge_conditional_field,
    tempered_langevin_field,
)
from .oracle import (
    DiscretizedChain,
    GapScanPoint,
    JumpQuadResult,
    QuadDriftResult,
    SpectralResult,
    build_discretized,
    classify_gap_trend,
    drift_ratio_quadrature,
    gap_growth_scan,
    spectral_gap,
    stationary_jump_quadrature,
    tuned_jump_quadrature,
    tv_decay_curve,
)
from .proposals import (
    ProposalKernel,
    TruncatedGaussianSpec,
    UniformBlock,
    circle_proposal,
    ellipse_proposal,
    gaussian_proposal,
    gaussian_tail_bound,
    truncated_mean,
    truncated_mgf,
)
from .rectangle import (
    HemisphereOverlap,
    HemisphereSweepRow,
    chord_overlap_integral,
    crosses_level_boundary,
    disc_rejection_area_bound,
    disc_rejection_lower_bound,
    exact_rejection_disc,
    hemisphere_overlap_check,
    hemisphere_sweep,
    overlap_area,
)
from .targets import (
    RectangleDensity,
    TargetDensity,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_rectangle,
    make_ridge_2d,
    make_subexponential_tail,
)
from .verify import CriterionResult, verify_all

__version__ = "0.1.0"
