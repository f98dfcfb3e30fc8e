"""Planar-surface geometry and spatial correlation.

The reconfigurable surface is a uniform m_x-by-m_z grid of candidate
reflecting ports spanning an aperture of w_x-by-w_z wavelengths.  Ports
are indexed row-major: port ``i`` sits at column ``i % m_x`` and row
``i // m_x``, with physical spacings ``d_x = w_x * wavelength / m_x``
and ``d_z = w_z * wavelength / m_z``.

Under rich isotropic scattering the fading correlation between two
ports separated by distance d is ``J0(2 pi d / wavelength)`` (the
classic Clarke/Jakes model), which defines the dense symmetric
correlation matrix built by :func:`correlation_matrix`.  Its low-rank
pivoted-Cholesky factor (:func:`psd_sqrt`) feeds the correlated channel
sampler, and :func:`default_fixed_preset` picks the active ports of the
fixed surfaces as an index array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPSDError
from .specfun import bessel_j0

# An eigenvalue of a correlation matrix below -PSD_CLAMP_REL * max_eig
# marks genuinely indefinite input; one above it is rounding noise, left
# in the residual that the pivoted Cholesky factor of psd_sqrt drops.
PSD_CLAMP_REL = 1e-8

# The widest aperture, in wavelengths along each axis: the correlation then
# evaluates J0 below 2 pi sqrt(2) * 1e4 (about 8.9e4), inside its range.
MAX_APERTURE_WAVELENGTHS = 1e4


@dataclass(frozen=True)
class SurfaceGeometry:
    """Uniform planar port grid.

    Attributes:
        m_x: ports per row (> 0).
        m_z: ports per column (> 0).
        w_x: aperture width in wavelengths (> 0, at most ``MAX_APERTURE_WAVELENGTHS``).
        w_z: aperture height in wavelengths (> 0, at most ``MAX_APERTURE_WAVELENGTHS``).
        wavelength: carrier wavelength in meters (> 0).
    """

    m_x: int
    m_z: int
    w_x: float
    w_z: float
    wavelength: float

    def __post_init__(self):
        if not (isinstance(self.m_x, int) and isinstance(self.m_z, int)):
            raise DomainError("m_x and m_z must be integers")
        if self.m_x < 1 or self.m_z < 1:
            raise DomainError(f"grid dimensions must be >= 1, got {self.m_x}x{self.m_z}")
        for name in ("w_x", "w_z", "wavelength"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")
            if name != "wavelength" and value > MAX_APERTURE_WAVELENGTHS:
                raise DomainError(f"{name} must be at most {MAX_APERTURE_WAVELENGTHS:g} wavelengths, got {value!r}")

    @property
    def num_elements(self) -> int:
        return self.m_x * self.m_z

    @property
    def d_x(self) -> float:
        """Physical inter-port spacing along a row, meters."""
        return self.w_x * self.wavelength / self.m_x

    @property
    def d_z(self) -> float:
        """Physical inter-port spacing along a column, meters."""
        return self.w_z * self.wavelength / self.m_z


def correlation_matrix(geom: SurfaceGeometry) -> np.ndarray:
    """Dense spatial correlation matrix of the port grid.

    Entry (i, j) equals ``J0(2 pi d_ij / wavelength)`` with ``d_ij`` the
    inter-port distance.  Exactly symmetric with unit diagonal by
    construction: entries are looked up from a table of the J0 values
    at the grid's distinct (row-offset, column-offset) pairs, evaluated
    in one call.  The offset distances come from ``math.hypot``
    (``np.hypot`` rounds some of them differently).
    """
    m_x, m_z = geom.m_x, geom.m_z
    scale = 2.0 * math.pi / geom.wavelength
    distance = np.array(
        [[math.hypot(geom.d_x * dc, geom.d_z * dr) for dc in range(m_x)] for dr in range(m_z)]
    )
    table = bessel_j0(scale * distance)
    idx = np.arange(geom.num_elements)
    rows = idx // m_x
    cols = idx % m_x
    drow = np.abs(rows[:, None] - rows[None, :])
    dcol = np.abs(cols[:, None] - cols[None, :])
    return table[drow, dcol]


def psd_sqrt(corr: np.ndarray) -> np.ndarray:
    """Real factor ``L`` of shape ``(ports, rank)`` with ``L @ L.T == corr``.

    Built by pivoted Cholesky on ``s = max|corr|``: each step pivots on the
    lowest-index port whose residual diagonal lies within ``1e-10 * s`` of
    the largest, and pivoting stops once every residual diagonal is at
    most ``5e-10 * s``.  So the first pivot of a unit-diagonal matrix is
    port 0, and column ``k`` holds zeros on the rows of the first ``k``
    pivots.  Both margins sit far above the rounding of J0: near-ties of a
    symmetric grid go to the lower index, and the rank and pivot order
    (the layout of the normals each trial reads) hold under perturbations
    of 1e-13, 30 times J0's error, on every surface tested.  A PSD
    residual is bounded entrywise by its diagonal, so ``L @ L.T`` matches
    ``corr`` within ``5e-10 * s`` in every entry, and ``rank`` counts the
    spatial degrees of freedom the surface resolves: 33 of the 144 ports
    of the 12x12 reference surface.  The factor depends on no eigenvector
    basis (the correlation of a square grid has exactly degenerate
    eigenpairs), so the same input always gives the same bits.

    Raises:
        NotPSDError: empty, non-finite, asymmetric or indefinite input
            (an eigenvalue below ``-PSD_CLAMP_REL * max_eig``).
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise NotPSDError(f"expected a square matrix, got shape {corr.shape}")
    ports = corr.shape[0]
    if ports == 0:
        raise NotPSDError("matrix is empty")
    if not np.all(np.isfinite(corr)):
        raise NotPSDError("matrix has a non-finite entry")
    scale = np.max(np.abs(corr))
    if not np.all(np.abs(corr - corr.T) <= 1e-12 * max(scale, 1.0)):
        raise NotPSDError("matrix is not symmetric")
    eigvals = np.linalg.eigvalsh(corr)
    max_eig = float(eigvals[-1])
    if max_eig < 0.0:
        raise NotPSDError(f"matrix is negative definite (max eigenvalue {max_eig})")
    if float(eigvals[0]) < -PSD_CLAMP_REL * max(max_eig, 1e-300):
        raise NotPSDError(
            f"eigenvalue {eigvals[0]} below clamping tolerance "
            f"{-PSD_CLAMP_REL * max_eig}; input is not PSD"
        )
    factor = np.zeros((ports, ports))
    residual = np.diag(corr).copy()
    rest = np.ones(ports, dtype=bool)
    rank = 0
    while rank < ports:
        live = np.where(rest, residual, -np.inf)
        top = live.max()
        if top <= 5e-10 * scale:
            break
        pivot = int(np.argmax(live >= top - 1e-10 * scale))
        rest[pivot] = False
        root = math.sqrt(residual[pivot])
        factor[pivot, rank] = root
        column = corr[rest, pivot] - factor[rest, :rank] @ factor[pivot, :rank]
        factor[rest, rank] = column / root
        residual[rest] -= factor[rest, rank] ** 2
        rank += 1
    return factor[:, :rank].copy()


def default_fixed_preset(geom: SurfaceGeometry, m_o: int) -> np.ndarray:
    """Deterministic preset of ``m_o`` active ports, spread uniformly.

    Returns a 1-D ``np.intp`` array of exactly ``m_o`` strictly
    increasing port indices in ``[0, num_elements)``.  When ``m_o`` is a
    perfect square s*s with s dividing both grid dimensions, the preset
    is the corner-anchored s-by-s sublattice with stride ``m_x//s`` /
    ``m_z//s`` -- the same physical positions a standalone s-by-s grid
    over the same aperture would occupy.  Otherwise falls back to
    ``m_o`` evenly spaced row-major indices: their spacing is at least
    one port, so rounding keeps them distinct.
    """
    total = geom.num_elements
    if not 1 <= m_o <= total:
        raise DomainError(f"m_o={m_o} out of range [1, {total}]")
    side = math.isqrt(m_o)
    if side * side == m_o and geom.m_x % side == 0 and geom.m_z % side == 0:
        steps = np.arange(side, dtype=np.intp)
        rows = steps * (geom.m_z // side) * geom.m_x
        cols = steps * (geom.m_x // side)
        return (rows[:, None] + cols[None, :]).ravel()
    return np.round(np.linspace(0, total - 1, m_o)).astype(np.intp)
