"""Covert-link performance toolkit for a fluid reconfigurable surface.

Closed-form outage, covertness-outage, and success probabilities for a
transmitter communicating through a planar surface of selectable
reflecting ports while a warden runs a power-threshold detector, plus a
deterministic Monte Carlo channel simulator (correlated fading, fluid
port selection, fixed-grid baseline) to validate them.

Each export loads on first use, with the module that defines it, so
importing the package, or its numpy-free modules (:mod:`friscov.config`,
:mod:`friscov.errors`, :mod:`friscov.cli`), loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each export and the module that defines it.
_EXPORTS = {
    "GammaFit": "analytics", "ScenarioConfig": "config", "compound_probability": "analytics", "cop": "analytics",
    "dbm_to_watt": "config", "error_probability_xi": "analytics", "fa_probability": "analytics",
    "gamma_moment_match": "analytics", "md_probability": "analytics", "optimal_threshold": "analytics",
    "outage_probability": "analytics", "path_loss": "config", "success_probability": "analytics",
    "Mode": "config",
    "ConfigError": "errors", "DegenerateFitError": "errors", "DomainError": "errors", "FriscovError": "errors",
    "EstimateWithCI": "montecarlo", "MCConfig": "config", "estimate_cop": "montecarlo", "estimate_op": "montecarlo",
    "estimate_success": "montecarlo", "ks_distance": "montecarlo", "simulate_group": "montecarlo",
    "bessel_j0": "specfun",
    "SurfaceGeometry": "config", "correlation_matrix": "surface", "default_fixed_preset": "surface",
    "surface_factor": "surface",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
