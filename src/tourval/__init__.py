"""Fuzzy experiential valuation of tourist attractions.

Subjective multi-scale ratings enter as triangular fuzzy numbers, are
rescaled endpoint-wise onto a common target range, combined into a weighted
fuzzy value per attraction, then defuzzified for ranking, tier filtering,
and geospatial hotspot / walking-tour analysis.
"""

from .ahp import (
    CR_LIMIT,
    RANDOM_INDEX,
    WeightCheck,
    WeightReport,
    derive_weights,
    validate_pairwise,
    validate_weights,
)
from .errors import (
    ConfigError,
    InputError,
    NumericError,
    OutOfRangeError,
    TourvalError,
)
from .fuzzy import TriangularFuzzyNumber, defuzzify
from .pipeline import RunConfig, load_config, run_pipeline, run_tour, run_valuation
from .rescale import SourceRange, TargetRange
from .spatial import (
    EARTH_RADIUS_KM,
    DensityGrid,
    GeoPoint,
    HotSpot,
    ScoredPoint,
    Tour,
    detect_hotspots,
    estimate_duration,
    haversine_km,
    kde_heatmap,
    merge_hotspots,
    plan_tour,
)
from .valuation import FactorCatalogue, FactorDefinition, classify

__version__ = "0.1.0"

__all__ = [
    "TriangularFuzzyNumber",
    "defuzzify",
    "SourceRange",
    "TargetRange",
    "FactorDefinition",
    "FactorCatalogue",
    "classify",
    "WeightReport",
    "WeightCheck",
    "validate_pairwise",
    "derive_weights",
    "validate_weights",
    "RANDOM_INDEX",
    "CR_LIMIT",
    "GeoPoint",
    "ScoredPoint",
    "DensityGrid",
    "HotSpot",
    "Tour",
    "EARTH_RADIUS_KM",
    "haversine_km",
    "kde_heatmap",
    "detect_hotspots",
    "merge_hotspots",
    "plan_tour",
    "estimate_duration",
    "RunConfig",
    "load_config",
    "run_pipeline",
    "run_valuation",
    "run_tour",
    "TourvalError",
    "InputError",
    "OutOfRangeError",
    "ConfigError",
    "NumericError",
    "__version__",
]
