"""Independent oracles for the package's special functions, surface factor and KS distance.

The special-function oracles are coded in mpmath, in arbitrary
precision, from a defining expansion or a closed form that shares
nothing with the double-precision implementation under test.
:func:`psd_sqrt` is not mpmath: it is a dense double-precision pivoted
Cholesky, the reference that ``friscov.surface_factor`` must equal bit
for bit on a surface's whole correlation matrix.  It reads each pivot
column from the matrix, not from the J0 table, and shares no code with
the package.  :func:`ks_distance_dense` is the whole-sample KS distance
that ``friscov.ks_distance`` must equal while evaluating the law at only
some of the points.
"""

import math

import mpmath as mp
import numpy as np

from friscov import compound_probability


def oracle_bessel_j0(x: float) -> float:
    """Ascending power series sum_k (-x^2/4)^k / (k!)^2 in high precision.

    The alternating series cancels up to ~e^|x|, so the working
    precision grows with |x|; terms are summed until they drop below
    the target tail.
    """
    x = abs(float(x))
    dps = 30 + int(0.5 * x)  # ~0.44*x digits lost to cancellation
    with mp.workdps(dps):
        q = mp.mpf(x) ** 2 / 4
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 0
        tail = mp.mpf(10) ** (-dps)
        while abs(term) > tail or k < x:
            k += 1
            term *= -q / (k * k)
            total += term
        return float(total)


def oracle_compound_survival(kappa: float, theta: float, x: float) -> mp.mpf:
    """``P(Q*E > x)`` for ``Q ~ Gamma(kappa, theta)``, ``E ~ Exp(1)``, at 60 digits.

    The K-law closed form ``E[exp(-x/Q)] = (2/Gamma(kappa)) * y**(kappa/2)
    * K_kappa(2*sqrt(y))`` with ``y = x/theta``, by mpmath's Bessel ``K``;
    the result stays an ``mpf`` so that a CDF or joint formed from it as
    a difference keeps its digits.
    """
    with mp.workdps(60):
        y = mp.mpf(x) / mp.mpf(theta)
        if y == 0:
            return mp.mpf(1)
        kappa = mp.mpf(kappa)
        return 2 / mp.gamma(kappa) * y ** (kappa / 2) * mp.besselk(kappa, 2 * mp.sqrt(y))


def oracle_compound_probability(kappa: float, theta: float, above: float = 0.0, below: float = math.inf) -> float:
    """``P(Q*E1 > above, Q*E2 <= below)``, ``E1, E2`` i.i.d. ``Exp(1)``: a difference of two survivals.

    ``E[exp(-above/Q) * (1 - exp(-below/Q))] = S(above) - S(above + below)``,
    taken at 60 digits, where the cancellation of a small CDF costs
    nothing that a double would see.
    """
    with mp.workdps(60):
        rest = 0 if math.isinf(below) else oracle_compound_survival(kappa, theta, mp.mpf(above) + mp.mpf(below))
        return float(oracle_compound_survival(kappa, theta, above) - rest)


def oracle_first_j0_zero() -> float:
    """First positive zero of J0, by bisection on the series oracle."""
    lo, hi = 2.0, 3.0
    assert oracle_bessel_j0(lo) > 0 > oracle_bessel_j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# An entry of corr - L @ L.T above PSD_CLAMP_REL * max|corr| marks input that
# is not PSD: the residual of PSD input is bounded entrywise by its diagonal,
# which psd_sqrt's pivoted Cholesky factor L leaves at most 5e-10 * max|corr|.
PSD_CLAMP_REL = 1e-8


class NotPSDError(ValueError):
    """A matrix handed to :func:`psd_sqrt` is not positive semidefinite, beyond tolerance."""


def psd_sqrt(corr) -> np.ndarray:
    """Real factor ``L`` of shape ``(ports, rank)`` with ``L @ L.T == corr``, by ``surface_factor``'s rules.

    Pivoted Cholesky on ``s = max|corr|``: each step pivots on the
    lowest-index port whose residual diagonal lies within ``1e-10 * s`` of
    the largest, and pivoting stops once every residual diagonal is at
    most ``5e-10 * s``.  Each pivot column is read from ``corr`` itself.

    Raises:
        NotPSDError: empty, non-finite, asymmetric or indefinite input
            (an entry of ``corr - L @ L.T`` above ``PSD_CLAMP_REL * s``).
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise NotPSDError(f"expected a square matrix, got shape {corr.shape}")
    if corr.shape[0] == 0:
        raise NotPSDError("matrix is empty")
    if not np.all(np.isfinite(corr)):
        raise NotPSDError("matrix has a non-finite entry")
    scale = np.max(np.abs(corr))
    if not np.all(np.abs(corr - corr.T) <= 1e-12 * max(scale, 1.0)):
        raise NotPSDError("matrix is not symmetric")
    ports = corr.shape[0]
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
        factor[rest, rank] = (corr[rest, pivot] - factor[rest, :rank] @ factor[pivot, :rank]) / root
        residual[rest] -= factor[rest, rank] ** 2
        rank += 1
    factor = factor[:, :rank].copy()
    misfit = float(np.max(np.abs(corr - factor @ factor.T)))
    if misfit > PSD_CLAMP_REL * scale:
        raise NotPSDError(f"factor misses an entry by {misfit:g} > {PSD_CLAMP_REL * scale:g}; input is not PSD")
    return factor


def ks_distance_dense(samples, fit) -> float:
    """KS distance of a non-empty, non-negative ``samples`` to ``fit``'s compound law, from every point.

    The law's CDF on the whole sorted sample in one call, and the larger
    of ``(i+1)/n - F(x_i)`` and ``F(x_i) - i/n`` over every ``i``.
    """
    data = np.sort(np.asarray(samples, dtype=float).ravel())
    n = data.size
    fitted = compound_probability(fit, below=data)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - fitted), np.max(fitted - lower)))
