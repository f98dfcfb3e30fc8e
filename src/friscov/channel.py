"""Channel physics of the cascaded fading link, batched over trials.

Arrays hold one column per trial: fading vectors are ``(ports, trials)``
and gains ``(trials,)``.  A block is three correlated fading vectors
per trial (:func:`block_normals`: ``rank`` normals per link and trial,
correlated by the surface's ``(ports, rank)`` factor one column tile at
a time by :func:`correlated_tile`), an active-port selection, and the
cascaded power gains toward the receiver and the warden
(:func:`cascade`).

The paper compares three surfaces, one :class:`Mode` each:

* ``FRIS``  -- the fluid surface: the ``m_o`` ports with the largest
  per-port magnitude products toward the receiver, equal products going
  to the lower index, read off the port ranking of
  :func:`best_product_order`, with coherent phases.  Under per-port
  coherent phasing the cascade magnitude is the sum of the selected
  products, so this top-k is globally optimal.
* ``FIXED`` -- the surface's default preset of ``m_o`` ports with
  identity phases; this is the gain whose law the closed form
  describes (see ``analytics``).
* ``RIS``   -- a fixed-position RIS: the default preset with coherent
  phases, run on the RIS grid (:func:`ris_grid_geometry`) or, where the
  preset sits at that grid's positions, on the fluid surface itself.

Identity phases give the cascade toward node u as ``|sum_i conj(u_i)
a_i|**2`` over the selected ports.  Coherent phases cancel the argument
of each selected product term ``t_i = conj(b_i) a_i`` toward the
receiver: the phase is ``conj(t_i) / |t_i|``, and 1 for a zero term (as
``exp(-1j * angle(0))``), giving ``(sum_i |b_i| |a_i|)**2``.  The warden
always experiences the receiver-serving selection and phases, never its
own optimum.

The sums run down the selected rows one row at a time, so the gains over
the first ``k`` rows are read off the same running sum for every ``k``
(the prefix ``lengths`` of :func:`cascade`): one ranking and one cascade
of the top ``max(m_o)`` rows serve every fluid ``m_o`` of a block.  A
config's gains are thus the same whatever other ``m_o`` share its block.
The ranking is numpy's default (unstable) sort; the lower-index rule for
equal products is enforced by ranking again, with the stable sort, only
the trials whose top ``max(m_o) + 1`` products hold an exact tie --
which continuous draws practically never do.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence

import numpy as np

from .errors import DomainError
from .surface import SurfaceGeometry


class Mode(enum.Enum):
    """A compared surface; the value is its CSV column prefix."""

    FRIS = "fris"
    FIXED = "fixed"
    RIS = "ris"


def block_normals(rng: np.random.Generator, rank: int, trials: int) -> np.ndarray:
    """The standard normals of one block, ``(3, rank, 2 * trials)``, scaled by ``1 / sqrt(2)``.

    Fixed draw layout: one ``standard_normal`` call indexed [link, rank,
    trial, re/im], links ordered transmitter, receiver, warden side.
    Read in pairs along the last axis, each ``(link, rank, trial)`` is a
    circularly-symmetric complex normal of unit variance.  The same
    generator state gives bit-identical normals.
    """
    z = rng.standard_normal((3, rank, 2 * trials))
    z *= 1.0 / math.sqrt(2.0)
    return z


def correlated_tile(factor: np.ndarray, z: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Fading vectors ``a, b, c`` of trials ``start:stop`` of a block, stacked as ``(3, ports, stop - start)``.

    ``factor`` is a real ``(ports, rank)`` factor of the port correlation
    (:func:`~friscov.surface.psd_sqrt`) and ``z`` the block's normals
    (:func:`block_normals`).  Each link is ``factor @ h``, so its
    covariance is ``factor @ factor.T``.  ``factor`` is real and a
    complex array views as its interleaved real and imaginary parts, so
    one real product of ``factor`` and a strided view of ``z``'s columns,
    written by ``out=`` straight into the complex tile, correlates all
    three links without copying the normals.
    """
    if factor.ndim != 2 or factor.shape[1] > factor.shape[0] or np.iscomplexobj(factor):
        raise DomainError(
            f"expected a real (ports, rank) factor with rank <= ports, got {factor.dtype} of shape {factor.shape}"
        )
    ports, rank = factor.shape
    if z.shape[:2] != (3, rank) or not 0 <= start < stop <= z.shape[2] // 2:
        raise DomainError(f"trials {start}:{stop} do not fit normals of shape {z.shape} for rank {rank}")
    tile = np.empty((3, ports, stop - start), dtype=complex)
    np.matmul(factor, z[:, :, 2 * start : 2 * stop], out=tile.view(float))
    return tile


def best_product_order(a: np.ndarray, b: np.ndarray, count: int | None = None) -> np.ndarray:
    """The ``count`` best ports of each trial by ``|a_i| * |b_i|``, largest first.

    Equal products go to the lower index, so the first ``m_o`` rows are
    the ``m_o`` best ports of every trial for every ``m_o <= count``.
    Rows come back C-contiguous, ``(count, trials)``; ``count`` defaults
    to every port.  The default sort of the keys ``-|a_i| * |b_i|``
    orders equal keys arbitrarily.  Where a trial's ``count + 1`` smallest
    keys are all distinct, its first ``count`` keys lie strictly below
    every other key and their order is the only one; a trial whose head
    holds an equal adjacent pair (``-0.0 == 0.0`` counts) is ranked again
    with the stable sort.  Both sorts run along the contiguous axis of
    the transposed key.
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise DomainError(f"expected two (ports, trials) arrays of one shape, got {a.shape} and {b.shape}")
    ports = a.shape[0]
    if count is None:
        count = ports
    if not (isinstance(count, (int, np.integer)) and 1 <= count <= ports):
        raise DomainError(f"count must lie in [1, {ports}], got {count!r}")
    key = np.negative(np.abs(a) * np.abs(b)).T.copy()
    order = np.argsort(key, axis=1)
    head = np.take_along_axis(key, order[:, : count + 1], axis=1)
    tied = np.any(head[:, 1:] == head[:, :-1], axis=1)
    if tied.any():
        order[tied] = np.argsort(key[tied], axis=1, kind="stable")
    return order[:, :count].T.copy()


def cascade(
    coherent: bool, a: np.ndarray, b: np.ndarray, c: np.ndarray, lengths: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gains ``(g_b, g_w)`` over the leading rows of ``a``, ``b``, ``c`` of each trial.

    Row ``i`` of each result holds the gains over the first
    ``lengths[i]`` rows, all read off one running sum down the rows;
    without ``lengths`` the results are the gains over every row, shape
    ``(trials,)``.  Identity phases sum ``conj(u_i) a_i`` as is.
    ``coherent`` applies the phases ``conj(t_i) / |t_i|`` of the receiver
    terms ``t_i = conj(b_i) a_i``, which align every receiver term -- so
    ``g_b`` is never smaller than with identity phases -- and the warden
    sees the same phases.  A zero term keeps phase 1, as
    ``exp(-1j * angle(0))`` does.  A term's phase does not depend on the
    other rows, so the gains over ``k`` rows are the same whatever
    follows them.
    """
    if not a.shape == b.shape == c.shape:
        raise DomainError(f"selected vectors must share a shape, got {a.shape}, {b.shape}, {c.shape}")
    if lengths is None:
        rows = -1
    else:
        rows = np.asarray(lengths, dtype=int) - 1
        if rows.ndim != 1 or not np.all((0 <= rows) & (rows < a.shape[0])):
            raise DomainError(f"prefix lengths must lie in [1, {a.shape[0]}], got {lengths!r}")
    # Complex products are ufunc calls, never ``*``: numpy may run ``*`` in
    # place on a large temporary with its operands swapped, and a product
    # of swapped complex operands can differ in the last bit.
    terms_b = np.multiply(np.conj(b), a)
    if coherent:
        terms_b, phases = _polar(terms_b)
        terms_w = np.multiply(phases, np.multiply(np.conj(c), a))
        del phases
    else:
        terms_w = np.multiply(np.conj(c), a)
    if lengths is None:
        sums_b, sums_w = _total(terms_b), _total(terms_w)
    else:
        sums_b, sums_w = _running_sums(terms_b)[rows], _running_sums(terms_w)[rows]
    return np.abs(sums_b) ** 2, np.abs(sums_w) ** 2


def _polar(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|t|`` and the coherent phase ``conj(t) / |t|`` of each term.

    A zero term gets phase 1, as ``exp(-1j * angle(0))`` does.
    """
    magnitude = np.abs(terms)
    zero = magnitude == 0
    phases = np.conj(terms)
    np.divide(phases, np.where(zero, 1.0, magnitude), out=phases)
    phases[zero] = 1.0
    return magnitude, phases


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """``np.cumsum(terms, axis=0)``, one row at a time.

    Same sums in the same order, but each step adds two contiguous rows,
    where ``cumsum`` walks every column with a stride of a whole row.
    """
    sums = np.empty_like(terms)
    sums[0] = terms[0]
    for k in range(1, terms.shape[0]):
        np.add(sums[k - 1], terms[k], out=sums[k])
    return sums


def _total(terms: np.ndarray) -> np.ndarray:
    """``_running_sums(terms)[-1]`` in one call.

    numpy reduces a C-ordered array down its rows by adding row after
    row, the running sum's order.  Along a single column it would sum
    pairwise instead, so one trial keeps the running sum.
    """
    if terms.shape[1] == 1:
        return _running_sums(terms)[-1]
    return np.add.reduce(np.ascontiguousarray(terms), axis=0)


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

