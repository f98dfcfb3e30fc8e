"""Special functions used by the correlation model.

``bessel_j0`` -- the zero-order Bessel function of the first kind, the
kernel of the isotropic-scattering spatial correlation model.  It is
pure and deterministic, and takes a scalar or an array argument in
double precision: a float for a scalar (or 0-d) argument, else an
array of the argument's shape.  One quadrature evaluates it, and the
test suite checks it against an independent high-precision oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# The node count, and with it the cost, grows with |x|.
J0_MAX_ARG = 1e5

# Products of arguments and nodes evaluated at once: 8 MB of doubles.
_CHUNK_PRODUCTS = 1 << 20


def bessel_j0(x: float | np.ndarray) -> float | np.ndarray:
    """Zero-order Bessel function of the first kind, elementwise; even in ``x``.

    The midpoint rule on ``J0(x) = (1/pi) * int_0^pi cos(x cos t) dt`` with
    ``max(140, ceil(0.6|x|) + 40)`` nodes.  The integrand is smooth and
    periodic in ``t``, so the error falls geometrically with the node
    count: it is about 3e-15 for |x| <= 200 and 6e-14 up to
    ``J0_MAX_ARG``.  The count depends only on the element, and elements
    that share it are evaluated together, in chunks of at most 2**20
    products, so a call holds about 8 MB whatever its size.  Each element
    sums its own row of nodes, so an array gives bit for bit the values
    of elementwise calls.

    Raises:
        DomainError: if an element of ``x`` is not a real with
            ``|x| <= J0_MAX_ARG`` (NaN and infinities included).
    """
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"x must be real, got {x!r}") from exc
    flat = np.abs(x).ravel()
    bad = ~(flat <= J0_MAX_ARG)
    if bad.any():
        raise DomainError(f"x must be finite with |x| <= {J0_MAX_ARG:g}, got {float(x.flat[np.argmax(bad)])!r}")
    nodes = np.maximum(140, np.ceil(0.6 * flat).astype(int) + 40)
    out = np.empty_like(flat)
    for count in set(nodes.tolist()):
        group = np.flatnonzero(nodes == count)
        cosines = np.cos((np.arange(count) + 0.5) * (math.pi / count))
        # Each row sums on its own, so chunks of rows bound the memory, not the values.
        step = max(1, _CHUNK_PRODUCTS // count)
        for rows in (group[k : k + step] for k in range(0, group.size, step)):
            integrand = np.multiply.outer(flat[rows], cosines)
            np.cos(integrand, out=integrand)
            out[rows] = integrand.sum(axis=1) / count
            del integrand  # before the next chunk's
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
