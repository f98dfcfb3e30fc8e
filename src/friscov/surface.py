"""Planar-surface geometry and spatial correlation.

The reconfigurable surface is a uniform m_x-by-m_z grid of candidate
reflecting ports spanning an aperture of w_x-by-w_z wavelengths.  Ports
are indexed row-major: port ``i`` sits at column ``i % m_x`` and row
``i // m_x``, with physical spacings ``d_x = w_x * wavelength / m_x``
and ``d_z = w_z * wavelength / m_z``.

Under rich isotropic scattering the fading correlation between two
ports separated by distance d is ``J0(2 pi d / wavelength)`` (the
classic Clarke/Jakes model), which defines the dense symmetric
correlation matrix built by :func:`correlation_matrix`.  Its positive
semidefinite square root feeds the correlated channel sampler, and
:func:`reduce` extracts the principal submatrix for an active-port
subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPSDError
from .specfun import bessel_j0

# Eigenvalues of a correlation matrix below -PSD_CLAMP_REL * max_eig are
# treated as genuinely indefinite input rather than rounding noise.
PSD_CLAMP_REL = 1e-8


@dataclass(frozen=True)
class SurfaceGeometry:
    """Uniform planar port grid.

    Attributes:
        m_x: ports per row (> 0).
        m_z: ports per column (> 0).
        w_x: aperture width in wavelengths (> 0).
        w_z: aperture height in wavelengths (> 0).
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


@dataclass(frozen=True)
class PortSelection:
    """A strictly increasing set of active-port indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise DomainError("a port selection cannot be empty")
        for k in self.indices:
            if not isinstance(k, int) or k < 0:
                raise DomainError(f"port indices must be non-negative integers, got {k!r}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise DomainError(f"port indices must be strictly increasing, got {self.indices}")

    @property
    def size(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)


def _check_index(geom: SurfaceGeometry, name: str, i: int) -> int:
    if not isinstance(i, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {i!r}")
    if not 0 <= i < geom.num_elements:
        raise DomainError(f"{name}={i} out of range [0, {geom.num_elements})")
    return int(i)


def inter_element_distance(geom: SurfaceGeometry, i: int, j: int) -> float:
    """Euclidean distance in meters between ports ``i`` and ``j``.

    Row-major convention: column index is ``i % m_x`` and row index is
    ``i // m_x``.  Symmetric in (i, j); zero iff i == j.
    """
    i = _check_index(geom, "i", i)
    j = _check_index(geom, "j", j)
    dcol = (i % geom.m_x) - (j % geom.m_x)
    drow = (i // geom.m_x) - (j // geom.m_x)
    return math.hypot(geom.d_x * dcol, geom.d_z * drow)


def correlation_matrix(geom: SurfaceGeometry) -> np.ndarray:
    """Dense spatial correlation matrix of the port grid.

    Entry (i, j) equals ``J0(2 pi d_ij / wavelength)`` with ``d_ij`` the
    inter-port distance.  Exactly symmetric with unit diagonal by
    construction: entries are looked up from a table of the J0 values
    at the grid's distinct (row-offset, column-offset) pairs.
    """
    m_x, m_z = geom.m_x, geom.m_z
    scale = 2.0 * math.pi / geom.wavelength
    table = np.empty((m_z, m_x))
    for dr in range(m_z):
        for dc in range(m_x):
            d = math.hypot(geom.d_x * dc, geom.d_z * dr)
            table[dr, dc] = bessel_j0(scale * d)
    idx = np.arange(geom.num_elements)
    rows = idx // m_x
    cols = idx % m_x
    drow = np.abs(rows[:, None] - rows[None, :])
    dcol = np.abs(cols[:, None] - cols[None, :])
    return table[drow, dcol]


def psd_sqrt(corr: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_CLAMP_REL * max_eig, 0) are clamped to zero
    (floating-point noise on a theoretically PSD matrix); anything more
    negative raises.  The result R satisfies R @ R == clamped input to
    Frobenius error <= 1e-10 * dim.

    Raises:
        NotPSDError: asymmetric input or an eigenvalue below tolerance.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise NotPSDError(f"expected a square matrix, got shape {corr.shape}")
    scale = np.max(np.abs(corr)) if corr.size else 0.0
    if not np.all(np.abs(corr - corr.T) <= 1e-12 * max(scale, 1.0)):
        raise NotPSDError("matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh(corr)
    max_eig = float(eigvals[-1])
    if max_eig < 0.0:
        raise NotPSDError(f"matrix is negative definite (max eigenvalue {max_eig})")
    if float(eigvals[0]) < -PSD_CLAMP_REL * max(max_eig, 1e-300):
        raise NotPSDError(
            f"eigenvalue {eigvals[0]} below clamping tolerance "
            f"{-PSD_CLAMP_REL * max_eig}; input is not PSD"
        )
    clamped = np.clip(eigvals, 0.0, None)
    root = (eigvecs * np.sqrt(clamped)) @ eigvecs.T
    return 0.5 * (root + root.T)


def reduce(corr: np.ndarray, selection: PortSelection) -> np.ndarray:
    """Principal submatrix of ``corr`` at the selected port indices.

    Algebraically identical to conjugating by the 0/1 selection matrix,
    without materializing it.  Preserves symmetry and the unit diagonal.
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {corr.shape}")
    dim = corr.shape[0]
    if selection.indices[-1] >= dim:
        raise DomainError(
            f"selection index {selection.indices[-1]} out of range for dim {dim}"
        )
    idx = selection.as_array()
    return corr[np.ix_(idx, idx)]


def default_fixed_preset(geom: SurfaceGeometry, m_o: int) -> PortSelection:
    """Deterministic preset of ``m_o`` active ports, spread uniformly.

    When ``m_o`` is a perfect square s*s with s dividing both grid
    dimensions, the preset is the corner-anchored s-by-s sublattice
    with stride ``m_x//s`` / ``m_z//s`` -- the same physical positions a
    standalone s-by-s grid over the same aperture would occupy.
    Otherwise falls back to ``m_o`` evenly spaced row-major indices.
    """
    total = geom.num_elements
    if not 1 <= m_o <= total:
        raise DomainError(f"m_o={m_o} out of range [1, {total}]")
    side = math.isqrt(m_o)
    if side * side == m_o and geom.m_x % side == 0 and geom.m_z % side == 0:
        stride_x = geom.m_x // side
        stride_z = geom.m_z // side
        indices = tuple(
            r * stride_z * geom.m_x + c * stride_x
            for r in range(side)
            for c in range(side)
        )
        return PortSelection(indices)
    flat = np.unique(np.round(np.linspace(0, total - 1, m_o)).astype(int))
    return PortSelection(tuple(int(k) for k in flat))
