"""boolsp: exact self-predictability analysis of Boolean functions.

A function f on {-1,+1}^n is rho-self-predicting (SP) when the sign of the
noise operator T_rho f agrees with f everywhere (ties counting as agreement).
This package computes the exact set of such rho in [0,1], the related
stability/sensitivity quantities, and the classification flags built on them
— all in integer/rational arithmetic.
"""

from .config import DEFAULT_CAP_N, VERSION, dense_cap, thread_count
from .constructs import (
    PRNG_NAME,
    CompositionPlan,
    character_compose,
    negate_inputs,
    product_compose,
    random_function,
)
from .errors import (
    BoolspError,
    CapacityError,
    InvalidArgument,
    PreconditionError,
    TieError,
)
from .experiments import (
    BadPointReport,
    GraphScan,
    OrbitReport,
    SpFraction,
    ThresholdConstants,
    bad_point_detect,
    finite_n_bound,
    graph_scan,
    predictor_orbit,
    shell_bias,
    sp_fraction,
    threshold_constants,
)
from .functions import (
    BooleanFunction,
    LtfSpec,
    PropertyRecord,
    PtfSpec,
    construct_ltf,
    construct_named,
    construct_ptf,
    dominating_boundary_points,
    friendly_neighborhood,
    index_of_point,
    point_of_index,
    properties,
)
from .noise import (
    ClosenessReport,
    PredictionGain,
    StabilityReport,
    TernaryFunction,
    closeness_to_sp,
    noise_operator,
    optimal_predictor,
    prediction_gain,
    stability_report,
)
from .sp import (
    ChowGapBound,
    Endpoint,
    LtfApproximation,
    LtfRatioCheck,
    NecessaryChecks,
    SpClassification,
    SpDecision,
    SpInterval,
    SpRegion,
    SufficientThresholds,
    chow_gap_bound,
    classify,
    is_sp,
    is_sp_at,
    ltf_approximation,
    ltf_ratio_check,
    necessary_checks,
    sp_polynomial,
    sp_region,
    sufficient_thresholds,
)
from .spectrum import (
    ScaledSpectrum,
    SpectralSummary,
    chow_distance,
    function_from_scaled,
    influences,
    level_values,
    spectral_summary,
    wht,
)

__version__ = VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
