"""Planar-surface geometry and spatial correlation.

The reconfigurable surface is a uniform m_x-by-m_z grid of candidate
reflecting ports spanning an aperture of w_x-by-w_z wavelengths.  Ports
are indexed row-major: port ``i`` sits at column ``i % m_x`` and row
``i // m_x``, with spacings ``d_x = w_x / m_x`` and ``d_z = w_z / m_z``
in wavelengths.

Under rich isotropic scattering the fading correlation between two
ports ``d`` wavelengths apart is ``J0(2 pi d)`` (the classic
Clarke/Jakes model), so one table of J0 at the grid's row and column
offsets holds every correlation.  The carrier wavelength itself enters
nowhere: the aperture is given in wavelengths.  The sampler's
pivoted-Cholesky factor of the surface (:func:`surface_factor`) and the
correlation over a preset of :func:`default_fixed_preset`
(:func:`correlation_matrix`) are read off it.
"""

from __future__ import annotations

import math

import numpy as np

from .config import MAX_APERTURE_WAVELENGTHS, SurfaceGeometry  # noqa: F401  (also importable from here)
from .errors import DomainError, is_integer
from .specfun import bessel_j0

def _offset_table(geom: SurfaceGeometry) -> np.ndarray:
    """``(m_z, m_x)`` table of J0 at the grid's (row, column) offsets (``np.hypot`` rounds some distances otherwise)."""
    distance = [[math.hypot(geom.d_x * dc, geom.d_z * dr) for dc in range(geom.m_x)] for dr in range(geom.m_z)]
    return bessel_j0(2.0 * math.pi * np.array(distance))


def correlation_matrix(geom: SurfaceGeometry, ports: np.ndarray) -> np.ndarray:
    """``J0(2 pi d)`` of each pair of ``ports`` ``d`` wavelengths apart, from the offset table."""
    index = np.asarray(ports)
    if index.ndim != 1 or index.dtype.kind not in "iu" or not np.all((index >= 0) & (index < geom.num_elements)):
        raise DomainError(f"ports must be a 1-D array of port indices in [0, {geom.num_elements})")
    rows, cols = np.divmod(index, geom.m_x)
    table = _offset_table(geom)
    return table[np.abs(rows[:, None] - rows[None, :]), np.abs(cols[:, None] - cols[None, :])]


def surface_factor(geom: SurfaceGeometry) -> np.ndarray:
    """Pivoted Cholesky factor ``L``, ``(ports, rank)``, of the whole surface's correlation, read off the J0 table.

    On ``s``, the largest ``|J0|`` of the table, each step pivots on the
    lowest-index port whose residual diagonal lies within ``1e-10 * s`` of
    the largest, and pivoting stops once every residual is at most
    ``5e-10 * s``.  So port 0 pivots first, and column ``k`` is zero on the
    rows of the first ``k`` pivots.  Both margins sit far above J0's
    rounding: the rank and pivot order (the layout of the normals each
    trial reads) hold under noise of 1e-13, 30 times J0's error, on every
    surface tested.  J0 of a planar distance is PSD (an isotropic field's
    covariance), so no check runs, and ``L @ L.T`` matches each entry
    within ``5e-10 * s``; ``rank`` counts the resolved degrees of freedom,
    33 of 144 on the 12x12 reference surface.  No eigenvector basis enters
    (a square grid's eigenpairs are exactly degenerate), so a surface
    always gives the same bits.  No ``(ports, ports)`` array is built;
    columns grow by doubling, which moves no bit.
    """
    table = _offset_table(geom)
    scale = np.max(np.abs(table))
    ports = geom.num_elements
    rows, cols = np.divmod(np.arange(ports), geom.m_x)
    factor = np.zeros((ports, min(ports, 64)))
    residual = np.full(ports, table[0, 0])
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
        if rank == factor.shape[1]:
            factor = np.hstack([factor, np.zeros_like(factor)])
        factor[pivot, rank] = root
        column = table[np.abs(rows[rest] - rows[pivot]), np.abs(cols[rest] - cols[pivot])]
        factor[rest, rank] = (column - factor[rest, :rank] @ factor[pivot, :rank]) / root
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
    if not (is_integer(m_o) and 1 <= m_o <= total):
        raise DomainError(f"m_o={m_o} out of range [1, {total}]")
    side = math.isqrt(m_o)
    if side * side == m_o and geom.m_x % side == 0 and geom.m_z % side == 0:
        steps = np.arange(side, dtype=np.intp)
        rows = steps * (geom.m_z // side) * geom.m_x
        cols = steps * (geom.m_x // side)
        return (rows[:, None] + cols[None, :]).ravel()
    return np.round(np.linspace(0, total - 1, m_o)).astype(np.intp)
