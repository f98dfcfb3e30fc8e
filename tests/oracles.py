"""Independent high-precision oracles for the special functions.

Each is coded in mpmath, in arbitrary precision, from a defining
expansion or a closed form that shares nothing with the
double-precision implementation under test.
"""

import math

import mpmath as mp


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
