"""Cheap-talk equilibria for multi-dimensional quadratic signaling games.

A biased encoder observes an n-dimensional source and talks (for free) to a
decoder that estimates the source.  This package computes candidate Nash
equilibria of that game, verifies them against the necessary and sufficient
conditions, classifies when an informative linear equilibrium exists, and
evaluates the gaussian rate-distortion bounds of the induced coding
problem.
"""

from .classify import (
    ClassificationVerdict,
    classify_correlated_gaussian,
    classify_linear_existence,
    correlated_gaussian_condition,
)
from .equilibrium import (
    ActionSet,
    EquilibriumCertificate,
    FixedPointResult,
    LinearEquilibriumReport,
    QuantizerPolicy,
    RevealQuantizePolicy,
    ScalarQuantizer,
    SolverConfig,
    best_response_step,
    construct_reveal_plus_quantize,
    expected_distortions,
    solve_fixed_point,
    solve_scalar_biased,
    verify_equilibrium,
    verify_linear_equilibrium,
)
from .errors import (
    BinDeathError,
    CheapTalkError,
    DimensionMismatchError,
    InfeasibleBinCountError,
    InfeasibleDistortionError,
)
from .geometry import (
    Hyperplane,
    assign_action,
    decoder_cost,
    encoder_cost,
    g_slack_transformed,
    geo_slack,
    h_value,
    indifference_hyperplane,
    lambda_bar,
)
from .ratedist import (
    AsymptoticRow,
    RDTuple,
    achievable_tuple,
    asymptotic_experiment,
    game_rate_bound,
    lloyd_max_quantizer,
    team_rate_distortion,
)
from .sources import (
    EstimateWithError,
    SourceModel,
    conditional_mean_curve,
    conditional_support,
    correlated_gaussian_2d,
    iid_exponential,
    iid_gaussian,
    iid_laplace,
    iid_uniform,
    symmetry_deviation,
    tabulated_density,
    tabulated_from_csv,
)
from .transforms import (
    LinearTransform,
    bias_aligning_transform,
    helmert_transform,
    pair_transform_2d,
)

__version__ = "0.1.0"
