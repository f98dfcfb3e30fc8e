"""Closed-form link metrics for the covert communication scenario.

The warden runs a received-power threshold test at level ``zeta``; with
an unbounded observation window the observed power is exactly the noise
floor under silence and noise plus the attenuated cascaded gain under
transmission.  This module provides:

* the Gamma moment match of the active-port correlation matrix
  (:func:`gamma_moment_match`) and its CDF (:func:`gamma_cdf`),
* missed-detection / false-alarm probabilities, the covertness outage
  probability (probability the warden decides correctly), and the
  worst-case detector threshold,
* the decoding outage probability at the legitimate receiver and the
  resulting success probability (decode correctly while the warden
  errs).

All powers are in watts internally; :func:`dbm_to_watt` /
:func:`watt_to_dbm` convert at the interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, DomainError
from .specfun import reg_lower_incomplete_gamma


def dbm_to_watt(dbm: float) -> float:
    """``dbm`` in watts; a :class:`DomainError` names a value whose watts overflow a float."""
    dbm = float(dbm)
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"{dbm!r} dBm overflows a float in watts") from None


def watt_to_dbm(watt: float) -> float:
    if watt <= 0:
        raise DomainError(f"power must be positive to express in dBm, got {watt!r}")
    return 10.0 * math.log10(watt) + 30.0


@dataclass(frozen=True)
class ScenarioConfig:
    """All link and system parameters of one scenario.

    Attributes:
        d_af: transmitter-to-surface distance, meters.
        d_fb: surface-to-receiver distance, meters.
        d_fw: surface-to-warden distance, meters.
        alpha: path-loss exponent.
        rho0: reference path gain at 1 m.
        r_b: target rate at the receiver, bits/s/Hz.
        sigma2_b: receiver noise power, watts.
        sigma2_w: warden noise power, watts.
        p0: prior probability of the silence hypothesis.
        p1: prior probability of the transmission hypothesis.
        mu_offset: detector threshold offset above the noise floor, watts.
        p_a: transmit power, watts.
    """

    d_af: float = 50.0
    d_fb: float = 100.0
    d_fw: float = 100.0
    alpha: float = 2.1
    rho0: float = 1.0
    r_b: float = 0.1
    sigma2_b: float = 1e-12
    sigma2_w: float = 1e-12
    p0: float = 0.5
    p1: float = 0.5
    mu_offset: float = 1e-12
    p_a: float = 1e-3

    def __post_init__(self):
        positive = ("d_af", "d_fb", "d_fw", "alpha", "rho0", "sigma2_b",
                    "sigma2_w", "mu_offset", "p_a")
        for name in positive:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")
        if not (isinstance(self.r_b, (int, float)) and math.isfinite(self.r_b) and self.r_b >= 0):
            raise DomainError(f"r_b must be a non-negative finite real, got {self.r_b!r}")
        for name in ("p0", "p1"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise DomainError(f"priors must satisfy p0 + p1 = 1, got {self.p0} + {self.p1}")

    @property
    def loss_af(self) -> float:
        """Large-scale path loss of the transmitter-to-surface link."""
        return path_loss(self.d_af, self.alpha, self.rho0)

    @property
    def loss_fb(self) -> float:
        """Large-scale path loss of the surface-to-receiver link."""
        return path_loss(self.d_fb, self.alpha, self.rho0)

    @property
    def loss_fw(self) -> float:
        """Large-scale path loss of the surface-to-warden link."""
        return path_loss(self.d_fw, self.alpha, self.rho0)


@dataclass(frozen=True)
class GammaFit:
    """Moment-matched Gamma(shape=kappa, scale=theta) for a cascaded gain."""

    kappa: float
    theta: float

    def __post_init__(self):
        for name in ("kappa", "theta"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")

    @property
    def mean(self) -> float:
        return self.kappa * self.theta


def gamma_moment_match(corr_active: np.ndarray) -> GammaFit:
    """Gamma fit of the cascaded gain from the active-port correlation matrix.

    With T2 = tr(C^2) and T4 = tr(C^4) of the symmetric active-port
    correlation matrix C, the fit is shape kappa = T2^2 / T4 and scale
    theta = T4 / T2 (so kappa * theta == T2 exactly).  T4 is computed as
    the squared Frobenius norm of C^2 without forming C^4.

    Raises:
        DegenerateFitError: if the matrix is all zero.
        DomainError: non-square or asymmetric input.
    """
    corr_active = np.asarray(corr_active, dtype=float)
    if corr_active.ndim != 2 or corr_active.shape[0] != corr_active.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {corr_active.shape}")
    if corr_active.shape[0] < 1:
        raise DomainError("matrix dimension must be >= 1")
    scale = np.max(np.abs(corr_active))
    if not np.all(np.abs(corr_active - corr_active.T) <= 1e-12 * max(scale, 1.0)):
        raise DomainError("matrix must be symmetric")
    squared = corr_active @ corr_active
    trace2 = float(np.trace(squared))
    trace4 = float(np.sum(squared * squared))
    if trace2 <= 0.0 or trace4 <= 0.0:
        raise DegenerateFitError("zero matrix has no Gamma moment match")
    return GammaFit(kappa=trace2 * trace2 / trace4, theta=trace4 / trace2)


def gamma_cdf(fit: GammaFit, g: float) -> float:
    """CDF of the fitted gain distribution at ``g`` >= 0."""
    if not (isinstance(g, (int, float)) and math.isfinite(g)):
        raise DomainError(f"g must be a finite real, got {g!r}")
    if g < 0:
        raise DomainError(f"g must be >= 0, got {g!r}")
    return reg_lower_incomplete_gamma(fit.kappa, g / fit.theta)


def path_loss(d: float, alpha: float, rho0: float) -> float:
    """Distance-power law ``rho0 * d**(-alpha)`` for d > 0."""
    if not (isinstance(d, (int, float)) and math.isfinite(d) and d > 0):
        raise DomainError(f"distance must be a positive finite real, got {d!r}")
    return rho0 * d ** (-alpha)


def md_probability(fit: GammaFit, cfg: ScenarioConfig, zeta: float) -> float:
    """Missed-detection probability at detector threshold ``zeta``.

    The warden misses iff the observed power p_a * L_af * L_fw * gain +
    sigma2_w stays below zeta.  For zeta <= sigma2_w that event is
    impossible and the result is exactly 0; otherwise it is the gain CDF
    at the normalized threshold (zeta - sigma2_w) / (p_a * L_af * L_fw).
    """
    if not (isinstance(zeta, (int, float)) and math.isfinite(zeta) and zeta >= 0):
        raise DomainError(f"zeta must be a non-negative finite real, got {zeta!r}")
    if zeta <= cfg.sigma2_w:
        return 0.0
    eta = (zeta - cfg.sigma2_w) / (cfg.p_a * cfg.loss_af * cfg.loss_fw)
    return gamma_cdf(fit, eta)


def fa_probability(cfg: ScenarioConfig, zeta: float) -> float:
    """False-alarm probability at detector threshold ``zeta``.

    Under silence the observed power is exactly sigma2_w, so the warden
    raises a false alarm iff zeta <= sigma2_w: the result is 1 or 0.
    """
    return 1.0 if zeta <= cfg.sigma2_w else 0.0


def optimal_threshold(cfg: ScenarioConfig) -> float:
    """Worst-case (smallest feasible) detector threshold sigma2_w + mu."""
    if cfg.mu_offset <= 0:
        raise DomainError(f"mu_offset must be > 0, got {cfg.mu_offset!r}")
    return cfg.sigma2_w + cfg.mu_offset


def cop(cfg: ScenarioConfig, p_fa: float, p_md: float) -> float:
    """Covertness outage probability: the warden decides correctly.

    Unconditionally over the two hypotheses this is
    ``p0 * (1 - p_fa) + p1 * (1 - p_md)``.  With the deterministic
    false alarm of :func:`fa_probability` at a threshold ``zeta`` it
    collapses to p1 for zeta <= sigma2_w and to p0 + p1 * (1 - p_md)
    otherwise.
    """
    for name, value in (("p_fa", p_fa), ("p_md", p_md)):
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return cfg.p0 * (1.0 - p_fa) + cfg.p1 * (1.0 - p_md)


def outage_probability(fit: GammaFit, cfg: ScenarioConfig) -> float:
    """Probability the receiver's instantaneous capacity falls below r_b.

    Outage occurs when log2(1 + snr) <= r_b with snr = p_a * L_af * L_fb
    * gain / sigma2_b, i.e. when the gain falls below the normalized
    rate threshold (2**r_b - 1) * sigma2_b / (p_a * L_af * L_fb);
    evaluates the gain CDF there.  Exactly 0 when r_b == 0.
    """
    rate_threshold = (2.0 ** cfg.r_b - 1.0) * cfg.sigma2_b / (cfg.p_a * cfg.loss_af * cfg.loss_fb)
    return gamma_cdf(fit, rate_threshold)


def error_probability_xi(cfg: ScenarioConfig, p_fa: float, p_md: float) -> float:
    """Unconditional warden error probability p0 * p_fa + p1 * p_md."""
    for name, value in (("p_fa", p_fa), ("p_md", p_md)):
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return cfg.p0 * p_fa + cfg.p1 * p_md


def success_probability(cfg: ScenarioConfig, p_out: float, xi: float) -> float:
    """Probability of decoding success and warden error, (1 - p_out) * xi."""
    for name, value in (("p_out", p_out), ("xi", xi)):
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return (1.0 - p_out) * xi
