"""Computational laboratory for Brownian motion in a heavy-tailed Poissonian
potential: annealed partition functions, tilted environments, confinement and
occupation statistics, spectral and Lifshitz-tail estimates.
"""

from .model import (
    ConstantsBundle,
    ModelParams,
    constants,
    h_t,
    nu_coordinate_variance,
    quadratic_profile,
    scale_r,
    spectral_gap,
    vhat_radial,
)
from .points import (
    Box,
    DiscreteMeasure,
    PointConfig,
    sample_homogeneous,
    sample_tilted,
    stream,
    tilt_acceptance,
    tilt_log_weight,
)
from .potential import (
    MinimizerResult,
    PotentialView,
    evaluate_V,
    far_field_bound,
    field_deviation,
    find_local_min,
)
from .laplace import (
    QuadratureSpec,
    exact_log_laplace,
    exact_mgf_V0,
    predicted_tilted_mean,
    tilted_mean_V,
    tilted_variance_V,
    two_point_bound_check,
    variance_limit_quadrature,
)
from .spectral import (
    EigenResult,
    Grid,
    IdsCurve,
    ids_estimate,
    make_grid,
    smallest_eigs,
)
from .semigroup import (
    FKStepper,
    batched_evolve,
    default_schedule,
    groundstate_transform_check,
    time_marginal,
)
from .experiments import (
    ARTIFACT_VERSION,
    SCENARIOS,
    PowerLawFit,
    RunRecord,
    config_hash,
    field_abs_quantile,
    fit_power_law,
    run_confinement,
    run_constants,
    run_ids,
    run_laplace,
    run_lemma5,
    run_local_min_stats,
    run_localization,
    run_mgf,
    run_occupation,
    run_ou_limit,
    run_spectrum,
    run_tilted,
)
from .plots import render_svg

__version__ = "0.1.0"
