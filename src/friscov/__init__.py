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
    cop,
    dbm_to_watt,
    error_probability_xi,
    fa_probability,
    gamma_cdf,
    gamma_moment_match,
    md_probability,
    optimal_threshold,
    outage_probability,
    path_loss,
    success_probability,
    watt_to_dbm,
)
from .channel import Mode
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateFitError,
    DomainError,
    FriscovError,
    NotPSDError,
)
from .montecarlo import (
    EstimateWithCI,
    MCConfig,
    estimate_cop,
    estimate_op,
    estimate_success,
    ks_distance,
    simulate_gains,
    simulate_group,
)
from .specfun import bessel_j0, ln_gamma, reg_lower_incomplete_gamma
from .surface import (
    PortSelection,
    SurfaceGeometry,
    correlation_matrix,
    default_fixed_preset,
    inter_element_distance,
    psd_sqrt,
    reduce,
)

__version__ = "0.1.0"

__all__ = [
    "GammaFit", "ScenarioConfig", "cop", "dbm_to_watt", "error_probability_xi",
    "fa_probability", "gamma_cdf", "gamma_moment_match", "md_probability",
    "optimal_threshold", "outage_probability", "path_loss", "success_probability",
    "watt_to_dbm",
    "Mode",
    "ConfigError", "ConvergenceError", "DegenerateFitError", "DomainError",
    "FriscovError", "NotPSDError",
    "EstimateWithCI", "MCConfig", "estimate_cop", "estimate_op",
    "estimate_success", "ks_distance", "simulate_gains", "simulate_group",
    "bessel_j0", "ln_gamma", "reg_lower_incomplete_gamma",
    "PortSelection", "SurfaceGeometry", "correlation_matrix", "default_fixed_preset",
    "inter_element_distance", "psd_sqrt", "reduce",
]
