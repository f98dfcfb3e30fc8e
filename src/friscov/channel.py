"""Channel physics of the cascaded fading link, batched over trials.

Arrays hold one column per trial: fading vectors are ``(ports, trials)``
and gains ``(trials,)``.  A tile is three correlated fading vectors per
trial (:func:`tile_normals`: one draw of ``rank`` normals per link and
trial, rank-major, correlated by the surface's ``(ports, rank)`` factor
by :func:`correlated_tile`, each into the caller's buffer if it passes
one), an active-port selection, and the cascaded power gains toward the
receiver and the warden (:func:`cascade`).  A surface of rank ``r``
reads the first ``r`` rank rows of a tile's normals, so surfaces of any
ranks can share one draw.

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

A cascade forms its terms once for every phasing it returns, so
selections that read one set of rows share them: identity phases sum
the terms as they are, then coherent phases turn the receiver terms into
their magnitudes and phases in place.  The sums run down the selected
rows, so the gains over the first ``k`` rows are read off one running
sum for every ``k`` (the prefix ``lengths`` of :func:`cascade`): one
ranking and one cascade of a tile's top ``max(m_o)`` rows serve every
fluid ``m_o`` of its surface, whatever else the run selects.

The ranking is one value sort per trial of 64-bit keys that pack a
product and its port: the inverted bits of a non-negative double order
it from the largest down, and its lowest bits are overwritten by the
port index.  Numpy sorts such keys with a vectorised value sort, several
times faster than its ``argsort``.  The keys of a trial are distinct,
and where the high bits of its ``max(m_o) + 1`` leading keys are
distinct too, its leading products are strictly ordered and the head of
the sort is the only ranking; the few other trials (near ties, which
include every exact tie, and a NaN or infinite product) are ranked again
by the stable ``argsort`` that enforces the lower-index rule.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .config import Mode, SurfaceGeometry
from .errors import DomainError


def tile_normals(rng: np.random.Generator, rank: int, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normals of one tile, ``(rank, 3, 2 * width)``, scaled by ``1 / sqrt(2)``.

    One ``standard_normal`` draw of ``rng``, written in place into ``out``
    (a new array by default) and indexed [rank, link, trial, re/im], links
    ordered transmitter, receiver, warden side: the same bits as a draw of
    that shape.  Read in pairs along the last axis, each ``(rank, link,
    trial)`` is a circularly-symmetric complex normal of unit variance.
    The rank axis leads, so the normals of a lower rank ``r`` are the first
    ``r`` rows of any higher rank's: ``tile_normals(rng, r, n)`` equals
    ``tile_normals(rng, R, n)[:r]`` for ``r <= R`` from the same state.
    """
    if out is None:
        out = np.empty((rank, 3, 2 * width))
    elif out.shape != (rank, 3, 2 * width):
        raise DomainError(f"expected an out array of shape ({rank}, 3, {2 * width}), got {out.shape}")
    rng.standard_normal(out=out)
    out *= 1.0 / math.sqrt(2.0)
    return out


def correlated_tile(factor: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fading vectors ``a, b, c`` of one tile, stacked as ``(3, ports, width)``.

    ``factor`` is a real ``(ports, rank)`` factor of the port correlation
    (:func:`~friscov.surface.surface_factor`) and ``z`` one tile's
    ``(rank, 3, 2 * width)`` normals of that rank (:func:`tile_normals`,
    or their first ``rank`` rows of a higher rank).  The vectors are
    written into ``out``, a C-contiguous complex ``(3, ports, width)``
    array, or into a new one by default.  Each link is ``factor @ h``, so
    its covariance is ``factor @ factor.T``.  ``factor`` is real and a
    complex array views as its interleaved real and imaginary parts, so
    one real product of ``factor`` and a strided view of ``z``, written by
    ``out=`` straight into the complex tile, correlates all three links
    without copying the normals.  The view's strides hold the tile's width, not its rank, so a
    prefix of a higher rank's normals is read as its own draw would be.
    """
    if factor.ndim != 2 or factor.shape[1] > factor.shape[0] or np.iscomplexobj(factor):
        raise DomainError(
            f"expected a real (ports, rank) factor with rank <= ports, got {factor.dtype} of shape {factor.shape}"
        )
    ports, rank = factor.shape
    if z.ndim != 3 or z.shape[:2] != (rank, 3) or z.shape[2] % 2:
        raise DomainError(f"expected a tile of normals of shape ({rank}, 3, 2 * width), got {z.shape}")
    shape = (3, ports, z.shape[2] // 2)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise DomainError(f"expected a C-contiguous complex out array of shape {shape}, got {out.dtype} {out.shape}")
    np.matmul(factor, z.swapaxes(0, 1), out=out.view(float))
    return out


# The sort key of a +inf product, before its port goes in: the inverted bits of +inf.
_INF_KEY = ~np.float64(math.inf).view(np.uint64)


def best_product_order(a: np.ndarray, b: np.ndarray, count: int | None = None) -> np.ndarray:
    """The ``count`` best ports of each trial by ``|a_i| * |b_i|``, largest first.

    Equal products go to the lower index, so the first ``m_o`` rows are
    the ``m_o`` best ports of every trial for every ``m_o <= count``:
    the rows of the stable ``argsort`` of ``-|a| * |b|``.  Rows come back
    C-contiguous, ``(count, trials)``; ``count`` defaults to every port.

    Each trial sorts one row of 64-bit keys.  A key is the inverted bit
    pattern of a product, whose order over non-negative doubles is the
    reverse of the products', with its low ``s`` bits replaced by the
    port index (``s`` bits hold every port).  The keys of a trial are
    distinct, so their ascending order is one order.  Where the high
    ``64 - s`` bits of its ``count + 1`` leading keys are distinct, its
    ``count`` leading products are strictly ordered and strictly above
    every other product, so the head of the sort is the stable ranking.
    A trial with equal high bits in its head (a near tie: every exact tie,
    and every run of zeros, is one) or with a NaN or infinite product
    (whose keys lead the sort) is ranked by the stable ``argsort``.
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise DomainError(f"expected two (ports, trials) arrays of one shape, got {a.shape} and {b.shape}")
    ports, trials = a.shape
    if count is None:
        count = ports
    if not (isinstance(count, (int, np.integer)) and 1 <= count <= ports):
        raise DomainError(f"count must lie in [1, {ports}], got {count!r}")
    product = np.abs(a)
    np.multiply(product, np.abs(b), out=product)
    shift = max(1, (ports - 1).bit_length())
    low = np.uint64((1 << shift) - 1)
    # ~(bits | low) | port, written as (bits | low) ^ ~port, transposed to (trials, ports).
    keys = np.empty((trials, ports), dtype=np.uint64)
    np.bitwise_or(product.view(np.uint64).T, low, out=keys)
    np.bitwise_xor(keys, np.invert(np.arange(ports, dtype=np.uint64)), out=keys)
    keys.sort(axis=1)
    head = keys[:, : count + 1] >> np.uint64(shift)
    # A NaN or infinite product has a key no larger than that of +inf, and leads its trial.
    rerank = np.any(head[:, 1:] == head[:, :-1], axis=1) | (head[:, 0] <= _INF_KEY >> np.uint64(shift))
    del head
    order = np.empty((count, trials), dtype=np.intp)
    np.bitwise_and(keys[:, :count].T, low, out=order, casting="unsafe")
    del keys
    if rerank.any():
        stable = np.argsort(np.negative(product.T[rerank]), axis=1, kind="stable")
        order[:, rerank] = stable[:, :count].T
    return order


def cascade(
    coherent: Sequence[bool], a: np.ndarray, b: np.ndarray, c: np.ndarray, lengths: Sequence[int] | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gains ``(g_b, g_w)`` over the leading rows of ``a``, ``b``, ``c`` of each trial, one pair per phasing.

    ``coherent`` holds one flag per result: identity phases where it is
    false, coherent phases where it is true.  Row ``i`` of each result
    holds the gains over the first ``lengths[i]`` rows, all read off one
    running sum down the rows; without ``lengths`` the results are the
    gains over every row, shape ``(trials,)``.  Identity phases sum
    ``conj(u_i) a_i`` as is.  Coherent phases ``conj(t_i) / |t_i|`` of the
    receiver terms ``t_i = conj(b_i) a_i`` align every receiver term -- so
    ``g_b`` is never smaller than with identity phases -- and the warden
    sees the same phases.  A zero term keeps phase 1, as
    ``exp(-1j * angle(0))`` does.  A term's phase does not depend on the
    other rows, so the gains over ``k`` rows are the same whatever
    follows them.

    The terms are formed once for every flag; the identity sums read
    them first, then the coherent phases rewrite them in place.  Equal
    flags share one result.
    """
    if not a.shape == b.shape == c.shape:
        raise DomainError(f"selected vectors must share a shape, got {a.shape}, {b.shape}, {c.shape}")
    if lengths is None:
        rows = None
    else:
        rows = np.asarray(lengths, dtype=int) - 1
        if rows.ndim != 1 or not np.all((0 <= rows) & (rows < a.shape[0])):
            raise DomainError(f"prefix lengths must lie in [1, {a.shape[0]}], got {lengths!r}")
    # Complex products are ufunc calls, never ``*``, and never in place:
    # numpy may run ``*`` in place on a large temporary with its operands
    # swapped, and a product of swapped operands, or a one-element product
    # in place (which skips the fused multiply-add), can differ in the last bit.
    terms_b = np.multiply(np.conj(b), a)
    terms_w = np.multiply(np.conj(c), a)
    gains = {}
    if not all(coherent):
        gains[False] = _prefix_gains(terms_b, rows), _prefix_gains(terms_w, rows)
    if any(coherent):
        magnitude = _polar(terms_b)
        terms_w = np.multiply(terms_b, terms_w)
        gains[True] = _prefix_gains(magnitude, rows), _prefix_gains(terms_w, rows)
    return [gains[bool(flag)] for flag in coherent]


def _polar(terms: np.ndarray) -> np.ndarray:
    """``|t|`` of each term; ``terms`` is overwritten by the coherent phases ``conj(t) / |t|``.

    The phase is ``conj(t) * (1 / |t|)``, one complex-by-real multiply.
    numpy divides by ``m + 0j`` by Smith's rule as ``(x + y * 0) * (1 /
    m)``, so both give the same bits but for the sign of a zero part of a
    term on an axis, which no gain reads.  The multiply may run in place:
    against a zero imaginary part, a fused multiply-add rounds as the
    plain product does.  A zero term gets phase 1, as
    ``exp(-1j * angle(0))`` does.
    """
    magnitude = np.abs(terms)
    zero = magnitude == 0
    scale = np.where(zero, 1.0, magnitude)
    np.divide(1.0, scale, out=scale)
    np.conjugate(terms, out=terms)
    np.multiply(terms, scale, out=terms)
    terms[zero] = 1.0
    return magnitude


def _prefix_gains(terms: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``|sum|**2`` of ``terms`` over their first ``rows + 1`` rows, or over every row when ``rows`` is ``None``.

    A prefix that is every row sums with :func:`_total`; only a shorter
    prefix walks the running sum.
    """
    if rows is None:
        sums = _total(terms)
    elif np.all(rows == terms.shape[0] - 1):
        sums = np.broadcast_to(_total(terms), (rows.size, terms.shape[1]))
    else:
        sums = _running_sums(terms)[rows]
    return np.abs(sums) ** 2


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
    return SurfaceGeometry(m_x=gx, m_z=gz, w_x=geom.w_x, w_z=geom.w_z)

