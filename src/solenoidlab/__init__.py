"""Finite models of glued (mapping-torus) spaces and their metric geometry."""

from __future__ import annotations

__version__ = "0.1.0"

from .connectedness import (
    ComponentPartition,
    DenseOrbitReport,
    dense_orbit_check,
    invariant_components,
)
from .dynamics import (
    BilipschitzEstimate,
    IsometryReport,
    SelfMap,
    adapted_metric,
    estimate_bilipschitz_constant,
    iterate,
    self_map_from_function,
    verify_isometry,
)
from .errors import (
    InvalidInputError,
    InvariantError,
    OutOfRegimeError,
    UnsupportedMapError,
    UnsupportedModeError,
)
from .mapping_torus import (
    ChainMetricTable,
    TorusPoint,
    TorusSpace,
    canonicalize,
    circle_distance,
    dist_to_integers,
    distances_to_integers,
    fiber,
    flow,
    flow_law_failures,
    make_torus_space,
    product_distance_matrix,
    product_distance_pairs,
    product_metric,
    project_to_circle,
    quotient_distance_matrix,
    quotient_distance_pairs,
    quotient_metric,
    representative_distance,
    representative_distance_matrix,
    representative_distance_pairs,
    torus_points_close,
)
from .measures import (
    CylinderSet,
    RegularityBand,
    WeightVector,
    ahlfors_check,
    base_ball_measure,
    cylinder_measure,
    doubling_check,
    shift_invariance_check,
)
from .metric_core import (
    DEFAULT_TOLERANCE,
    AxiomViolation,
    DimensionFit,
    FiniteMetricSpace,
    MetricReport,
    PowerLevels,
    box_counting_dimension,
    covering_number,
    metric_space_from_matrix,
    snowflake,
    truncate,
    verify_metric_axioms,
    verify_ultrametric,
)
from .models import (
    MAX_DENSE_POINTS,
    MODEL_KINDS,
    BuiltModel,
    ModelSpec,
    build_full_shift,
    build_model,
    build_padic_cycle,
    build_snowflake_interval,
    build_two_fixed_points,
    point_label,
)
from .shift_space import (
    Alphabet,
    PeriodicSequence,
    depth_levels,
    enumerate_periodic_points,
    pairwise_depth_matrix,
)
