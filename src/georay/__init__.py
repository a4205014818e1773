"""Weak geodesic rays for the homogeneous real Monge-Ampère equation.

Convex-model numerics: discrete Legendre-Fenchel transforms, Alexandrov
Monge-Ampère measures, test curves and their maximal envelopes, geodesic
rays, and filtration-driven (Bergman / log-sum-exp) ray constructions.
"""

from .errors import DomainError, GeorayError, ParseError, ResourceError
from .grids import (
    Box,
    ConvexGridFunction,
    Grid,
    GridFunction,
    NEG_INF,
    is_convex,
    lower_convex_envelope,
    make_grid,
    pointwise_max,
    pointwise_shift,
)
from .legendre import (
    SlopeRegion,
    biconjugate,
    default_dual_grid,
    legendre,
    subgradient_range,
    superlevel_of_concave,
)
from .monge_ampere import (
    DiscreteMeasure,
    EnergyReport,
    cocycle_residual,
    energy_dual,
    energy_quadrature,
    ma_measure,
    total_mass_identity_check,
)
from .curves import (
    ConcaveTransform,
    CurveDiagnostics,
    TestCurve,
    concave_transform,
    contact_set,
    envelope_from_u,
    idempotence_check,
    maximal_envelope,
    validate,
)
from .rays import (
    LinearityReport,
    Ray,
    compare_rays,
    energy_linearity,
    inverse_transform,
    ray_dual,
    ray_from_curve,
)
from .filtration import (
    BergmanInstance,
    ConcaveTransformG,
    WeightedLatticeData,
    bergman_metric,
    concave_transform_g,
    equivalence_check,
    extremal_metric,
    limit_curve,
    log_sum_exp_sandwich_gap,
    moment_check,
    multiplicative_closure,
    phong_sturm_ray,
    weight_histogram,
)
from .checks import SUITES, run_suite

__version__ = "0.1.0"
