"""Covert-link performance toolkit for a fluid reconfigurable surface.

Closed-form outage, covertness-outage, and success probabilities for a
transmitter communicating through a planar surface of selectable
reflecting ports while a warden runs a power-threshold detector, plus a
deterministic Monte Carlo channel simulator (correlated fading, fluid
port selection, fixed-grid baseline) to validate them.
"""

from .analytics import (
    GammaFit,
    ScenarioConfig,
    compound_probability,
    cop,
    dbm_to_watt,
    error_probability_xi,
    fa_probability,
    gamma_moment_match,
    md_probability,
    optimal_threshold,
    outage_probability,
    path_loss,
    success_probability,
)
from .channel import Mode
from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    FriscovError,
)
from .montecarlo import (
    EstimateWithCI,
    MCConfig,
    estimate_cop,
    estimate_op,
    estimate_success,
    ks_distance,
    simulate_group,
)
from .specfun import bessel_j0
from .surface import (
    SurfaceGeometry,
    correlation_matrix,
    default_fixed_preset,
    surface_factor,
)

__version__ = "0.1.0"

__all__ = [
    "GammaFit", "ScenarioConfig", "compound_probability", "cop", "dbm_to_watt",
    "error_probability_xi", "fa_probability", "gamma_moment_match", "md_probability",
    "optimal_threshold", "outage_probability", "path_loss", "success_probability",
    "Mode",
    "ConfigError", "DegenerateFitError", "DomainError",
    "FriscovError",
    "EstimateWithCI", "MCConfig", "estimate_cop", "estimate_op",
    "estimate_success", "ks_distance", "simulate_group",
    "bessel_j0",
    "SurfaceGeometry", "correlation_matrix", "default_fixed_preset", "surface_factor",
]
