"""Channel physics of the cascaded fading link, batched over trials.

Arrays hold one column per trial: fading vectors are ``(ports, trials)``
and gains ``(trials,)``.  A block is three correlated fading vectors
per trial (:func:`correlated_fading`), an active-port selection, and
the cascaded power gains toward the receiver and the warden
(:func:`cascade`).

Two phase modes are first-class:

* ``STATIC``  -- identity phases; the cascade toward node u is
  ``|sum_i conj(u_i) a_i|**2`` over the selected ports.  This is the
  mode whose gain statistics the closed-form Gamma fit targets (see
  ``analytics``).
* ``COHERENT`` -- per-port phases cancel the argument of each selected
  product term toward the receiver, giving ``(sum_i |u_i| |a_i|)**2``.
  The warden always experiences the receiver-serving selection and
  phases, never its own optimum.

Selection modes: ``BEST_PRODUCT`` activates the ports with the largest
per-port magnitude products toward the receiver (exact top-k -- under
per-port coherent phasing the cascade magnitude is the sum of selected
products, so top-k is globally optimal), read off the port ranking of
:func:`best_product_order`; ``FIXED`` uses a preset; ``RIS_FULL``
activates every port of a fixed-grid baseline surface
(:func:`ris_grid_geometry`).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError
from .surface import SurfaceGeometry


class PhaseMode(enum.Enum):
    STATIC = "static"
    COHERENT = "coherent"


class SelectionMode(enum.Enum):
    BEST_PRODUCT = "best_product"
    FIXED = "fixed"
    RIS_FULL = "ris_full"


def correlated_fading(
    sqrt_corr: np.ndarray, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fading vectors ``(a, b, c)`` of one block, each ``(ports, trials)``.

    Fixed draw layout: standard normals indexed [link, re/im, port,
    trial], links ordered transmitter, receiver, warden side.  Each link
    is ``sqrt_corr @ h`` with ``h`` i.i.d. circularly-symmetric complex
    normal of unit variance, so its covariance is ``sqrt_corr @
    sqrt_corr^H``.  The same generator state gives bit-identical vectors.
    """
    if sqrt_corr.ndim != 2 or sqrt_corr.shape[0] != sqrt_corr.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {sqrt_corr.shape}")
    z = rng.standard_normal((3, 2, sqrt_corr.shape[0], trials))
    scale = 1.0 / math.sqrt(2.0)
    a, b, c = [sqrt_corr @ ((z[k, 0] + 1j * z[k, 1]) * scale) for k in range(3)]
    return a, b, c


def best_product_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ports of each trial ranked by ``|a_i| * |b_i|``, largest first.

    Stable, so ties go to the lower index and the first ``m_o`` rows are
    the ``m_o`` best ports of every trial, for every ``m_o`` at once.
    """
    return np.argsort(-(np.abs(a) * np.abs(b)), axis=0, kind="stable")


def cascade(
    phase_mode: PhaseMode, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gains ``(g_b, g_w)`` over the selected rows ``a``, ``b``, ``c`` of each trial.

    STATIC sums ``conj(u_i) a_i`` as is.  COHERENT applies the phases
    ``-arg(conj(b_i) a_i)`` that align every receiver term -- so ``g_b``
    is never smaller than under STATIC -- and the warden sees the same
    phases.
    """
    if not a.shape == b.shape == c.shape:
        raise DomainError(f"selected vectors must share a shape, got {a.shape}, {b.shape}, {c.shape}")
    terms_b = np.conj(b) * a
    terms_w = np.conj(c) * a
    if phase_mode is PhaseMode.COHERENT:
        g_b = np.abs(terms_b).sum(axis=0) ** 2
        g_w = np.abs(np.sum(np.exp(-1j * np.angle(terms_b)) * terms_w, axis=0)) ** 2
    elif phase_mode is PhaseMode.STATIC:
        g_b = np.abs(terms_b.sum(axis=0)) ** 2
        g_w = np.abs(terms_w.sum(axis=0)) ** 2
    else:
        raise DomainError(f"unknown phase mode {phase_mode!r}")
    return g_b, g_w


def ris_grid_geometry(geom: SurfaceGeometry, m_hat: int) -> SurfaceGeometry:
    """Fixed-grid baseline surface over the same physical aperture.

    ``m_hat`` elements are placed on a uniform grid with the same
    aspect handling as the reference surface: m_hat must factor as
    gx * gz with gx / gz matching the port-count aspect of the
    reference grid (a perfect square for a square grid).
    """
    if m_hat < 1:
        raise DomainError(f"m_hat must be >= 1, got {m_hat}")
    aspect = geom.m_x / geom.m_z
    best = None
    for gx in range(1, m_hat + 1):
        if m_hat % gx:
            continue
        gz = m_hat // gx
        penalty = abs(math.log(gx / gz) - math.log(aspect))
        if best is None or penalty < best[0]:
            best = (penalty, gx, gz)
    _, gx, gz = best
    return SurfaceGeometry(m_x=gx, m_z=gz, w_x=geom.w_x, w_z=geom.w_z, wavelength=geom.wavelength)
