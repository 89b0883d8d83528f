"""Full-connectivity probability of dense wireless networks in convex right prisms.

Closed-form boundary-aware analytics (per-corner/edge/face/bulk terms of a
first-order high-density expansion) cross-checked against a Monte Carlo
random-geometric-graph simulator, for SISO / SIMO / MISO / MIMO / unit-disk
link models.
"""

__version__ = "0.1.0"

from .connmass import (
    MassResult,
    error_order_fit,
    mass_quadrature,
    mass_scaling_leading,
    step_error,
)
from .errors import CapabilityError, ConvergenceError, DomainError, InvalidPrismError
from .geometry import (
    BoundaryFeature,
    RightPrism,
    cube_prism,
    enumerate_features,
    house_prism,
    load_prism,
    preset_prism,
    sample_uniform,
)
from .linkmodels import (
    ConnectionModel,
    Mimo,
    PathLossParams,
    SimoMiso,
    Siso,
    UnitDisk,
    mimo_gamma_form,
    pair_connectedness,
    pair_connectedness_many,
    pair_connectedness_mimo_det,
)
from .mc_sim import (
    McConfig,
    McEstimate,
    connection_field,
    connectivity_check,
    edge_resampling_estimate,
    exact_connectivity_probability,
    run_trials,
    wilson_interval,
)
from .pfc_analytic import (
    FeatureContribution,
    PfcBreakdown,
    assemble,
)

__all__ = [
    "BoundaryFeature",
    "CapabilityError",
    "ConnectionModel",
    "ConvergenceError",
    "DomainError",
    "FeatureContribution",
    "InvalidPrismError",
    "MassResult",
    "McConfig",
    "McEstimate",
    "Mimo",
    "PathLossParams",
    "PfcBreakdown",
    "RightPrism",
    "SimoMiso",
    "Siso",
    "UnitDisk",
    "assemble",
    "connection_field",
    "connectivity_check",
    "cube_prism",
    "edge_resampling_estimate",
    "enumerate_features",
    "error_order_fit",
    "exact_connectivity_probability",
    "house_prism",
    "load_prism",
    "mass_quadrature",
    "mass_scaling_leading",
    "mimo_gamma_form",
    "pair_connectedness",
    "pair_connectedness_many",
    "pair_connectedness_mimo_det",
    "preset_prism",
    "run_trials",
    "sample_uniform",
    "step_error",
    "wilson_interval",
]
