"""Random-projection separability: when projected convex bodies stay disjoint.

The package decides disjointness of ellipsoids exactly (``separation``),
bounds the Gaussian widths that govern how many projection rows suffice
(``widths``, ``escape``), reproduces the phase-transition experiments
(``experiments``), and compares projections against PCA on inertia toys
and a classification pipeline (``pca``, ``classify``).
"""

__version__ = "0.1.0"

from .bodies import (
    Ball,
    CircularCone,
    Ellipsoid,
    GaussianProjection,
    difference_cone,
    project_body,
)
from .escape import (
    MultiClassPlan,
    plan_multiclass,
    required_dim_gordon,
    required_dim_two_balls,
)
from .experiments import (
    PhaseGrid,
    TransitionEstimate,
    estimate_transition,
    run_cone_phase,
    run_ellipsoid_phase,
    sample_wishart_shape,
    save_phase_grid,
)
from .separation import (
    SeparationVerdict,
    decide_disjoint,
)
from .widths import (
    WidthBound,
    circular_width_sq,
    mc_expected_map_norm,
    mc_width_circular,
    mc_width_pseudoprojection,
    width_bound_ellipsoids,
)

__all__ = [
    "Ball",
    "CircularCone",
    "Ellipsoid",
    "GaussianProjection",
    "difference_cone",
    "project_body",
    "MultiClassPlan",
    "plan_multiclass",
    "required_dim_gordon",
    "required_dim_two_balls",
    "PhaseGrid",
    "TransitionEstimate",
    "estimate_transition",
    "run_cone_phase",
    "run_ellipsoid_phase",
    "sample_wishart_shape",
    "save_phase_grid",
    "SeparationVerdict",
    "decide_disjoint",
    "WidthBound",
    "circular_width_sq",
    "mc_expected_map_norm",
    "mc_width_circular",
    "mc_width_pseudoprojection",
    "width_bound_ellipsoids",
    "__version__",
]
