"""Closed-form link metrics for the covert communication scenario.

The warden runs a received-power threshold test at level ``zeta``; with
an unbounded observation window the observed power is exactly the noise
floor under silence and noise plus the attenuated cascaded gain under
transmission.  Given the transmitter-side fading ``a`` of the fixed
preset, the receiver's and the warden's gains are i.i.d. ``Q * Exp(1)``
with ``Q = a^H C a``.  This module provides:

* the Gamma moment match of ``Q`` (:func:`gamma_moment_match`) and the
  one evaluation of the resulting compound (K-distributed) gain law,
  :func:`compound_probability`,
* missed-detection / false-alarm probabilities, the covertness outage
  probability (probability the warden decides correctly), and the
  worst-case detector threshold,
* the decoding outage probability at the legitimate receiver and the
  success probability (decode correctly while the warden errs), the
  exact joint of the two gains.

All powers are in watts internally; :func:`dbm_to_watt` converts the
configured dBm values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, dbm_to_watt, outage_level, path_loss  # noqa: F401  (also importable from here)
from .errors import DegenerateFitError, DomainError


@dataclass(frozen=True)
class GammaFit:
    """Moment-matched Gamma(shape=kappa, scale=theta) of ``Q = a^H C a``, not of the gain.

    The gain is ``Q * Exp(1)`` (:func:`compound_probability`); its mean is also ``kappa * theta``.
    """

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
    """Gamma fit of ``Q = a^H C a`` for ``a ~ CN(0, C)``, from the active-port correlation matrix C.

    ``Q`` is the gain's conditional scale (see :class:`GammaFit`).  With
    T2 = tr(C^2) = E[Q] and T4 = tr(C^4) = Var[Q] of the symmetric
    active-port correlation matrix C, the fit is shape kappa = T2^2 / T4
    and scale theta = T4 / T2 (so kappa * theta == T2 exactly).  T4 is
    computed as the squared Frobenius norm of C^2 without forming C^4.

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


def _levels(name: str, value) -> np.ndarray:
    try:
        levels = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be real, got {value!r}") from exc
    bad = ~(levels >= 0.0)
    if bad.any():
        raise DomainError(f"{name} must be >= 0, got {float(levels[bad].flat[0])!r}")
    return levels


# Trapezoid step in t = ln(Q / theta), and levels per pass: each pass
# reuses one (chunk, nodes) buffer.
_STEP = 0.1
_CHUNK = 1024


def compound_probability(fit: GammaFit, above=0.0, below=math.inf) -> float | np.ndarray:
    """``P(Q*E1 > above, Q*E2 <= below)`` for ``Q ~ Gamma(kappa, theta)``, ``E1, E2`` i.i.d. ``Exp(1)``.

    One level alone gives the CDF (``below``) or the survival (``above``)
    of the gain ``Q*E``; both give the joint of two gains that share
    ``Q``.  Elementwise: the levels broadcast and may be infinite, and a
    scalar pair gives a float.

    It is ``E_Q[exp(-above/Q) * (-expm1(-below/Q))]``, a mean of positive
    terms, so the lower tail keeps the relative accuracy that forms via
    the Bessel function ``K_kappa`` lose to cancellation.  Trapezoid rule
    in ``t = ln(Q/theta)`` with step 0.1 and weights ``0.1 * exp(kappa*t -
    e**t - lgamma(kappa))``, on nodes from ``min(ln y_min, 0) - 40/kappa -
    1``, ``y_min`` the smallest positive ``below/theta``, to ``ln(kappa +
    60) + 1.5``.  Relative error is about 1e-13 or less for kappa in
    [1, 11] and levels from 1e-10 to 20 times the mean.  The nodes follow
    the call's smallest level, so an array agrees with elementwise calls
    to about 1e-13, not bit for bit.

    Raises:
        DomainError: if an element of ``above`` or ``below`` is negative or NaN.
    """
    kappa = fit.kappa
    # Overflow is benign throughout: an infinite level/Q gives the limits 0 and 1.
    with np.errstate(over="ignore"):
        z, y = np.broadcast_arrays(_levels("above", above) / fit.theta, _levels("below", below) / fit.theta)
        positive = y[(y > 0.0) & (y < math.inf)]
        low = min(math.log(positive.min()), 0.0) if positive.size else 0.0
        # The floor keeps 1/Q finite; it binds only below y_min = e**(40/kappa - 699).
        t = np.arange(max(low - 40.0 / kappa - 1.0, -700.0), math.log(kappa + 60.0) + 1.5, _STEP)
        neg_weights = -_STEP * np.exp(kappa * t - np.exp(t) - math.lgamma(kappa))
        neg_rates = -np.exp(-t)
        shape = y.shape
        z, y = z.ravel(), y.ravel()
        out = np.empty(y.size)
        joint = bool(z.any())
        buf = np.empty((min(_CHUNK, y.size), t.size))
        spare = np.empty_like(buf) if joint else None
        for start in range(0, y.size, _CHUNK):
            stop = min(start + _CHUNK, y.size)
            part = buf[: stop - start]
            np.multiply.outer(y[start:stop], neg_rates, out=part)
            np.expm1(part, out=part)
            if joint:
                survive = spare[: stop - start]
                np.multiply.outer(z[start:stop], neg_rates, out=survive)
                np.exp(survive, out=survive)
                part *= survive
            np.matmul(part, neg_weights, out=out[start:stop])
    np.minimum(out, 1.0, out=out)
    return float(out[0]) if not shape else out.reshape(shape)


def missed_level(cfg: ScenarioConfig, zeta: float) -> float:
    """The warden's gain below which it misses at threshold ``zeta``; 0 for zeta <= sigma2_w."""
    if not (isinstance(zeta, (int, float)) and math.isfinite(zeta) and zeta >= 0):
        raise DomainError(f"zeta must be a non-negative finite real, got {zeta!r}")
    return max(zeta - cfg.sigma2_w, 0.0) / (cfg.p_a * cfg.loss_af * cfg.loss_fw)


def md_probability(fit: GammaFit, cfg: ScenarioConfig, zeta: float) -> float:
    """Missed-detection probability at detector threshold ``zeta``.

    The warden misses iff the observed power p_a * L_af * L_fw * gain +
    sigma2_w stays below zeta.  For zeta <= sigma2_w that event is
    impossible and the result is exactly 0; otherwise it is the gain CDF
    at the normalized threshold (zeta - sigma2_w) / (p_a * L_af * L_fw).
    """
    return compound_probability(fit, below=missed_level(cfg, zeta))


def fa_probability(cfg: ScenarioConfig, zeta: float) -> float:
    """False-alarm probability at detector threshold ``zeta``.

    Under silence the observed power is exactly sigma2_w, so the warden
    raises a false alarm iff zeta <= sigma2_w: the result is 1 or 0.
    """
    return 1.0 if zeta <= cfg.sigma2_w else 0.0


def optimal_threshold(cfg: ScenarioConfig) -> float:
    """Worst-case (smallest feasible) detector threshold sigma2_w + mu."""
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
    return compound_probability(fit, below=outage_level(cfg))


def error_probability_xi(cfg: ScenarioConfig, p_fa: float, p_md: float) -> float:
    """Unconditional warden error probability p0 * p_fa + p1 * p_md."""
    for name, value in (("p_fa", p_fa), ("p_md", p_md)):
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return cfg.p0 * p_fa + cfg.p1 * p_md


def success_probability(fit: GammaFit, cfg: ScenarioConfig, zeta: float) -> float:
    """Probability of decoding success while the warden errs, at detector threshold ``zeta``.

    ``p1 * P(g_b > x_b, g_w <= eta) + p0 * p_fa * P(g_b > x_b)``, with
    ``x_b`` the outage threshold of :func:`outage_probability` and ``eta``
    the missed-detection threshold of :func:`md_probability`.  Given the
    transmitter-side fading, the two gains are i.i.d. ``Q * Exp(1)``, so
    the first term is their exact joint (:func:`compound_probability`),
    not a product of the marginals.
    """
    x_b = outage_level(cfg)
    decoded_missed = compound_probability(fit, above=x_b, below=missed_level(cfg, zeta))
    p_fa = fa_probability(cfg, zeta)
    return cfg.p1 * decoded_missed + cfg.p0 * p_fa * compound_probability(fit, above=x_b)
