"""The model's configuration types, on the standard library alone.

A scenario (:class:`ScenarioConfig`), a surface (:class:`SurfaceGeometry`),
a Monte Carlo run (:class:`MCConfig`), the compared surfaces (:class:`Mode`)
and the CSV column schema.  Each type checks its own domain as it is built,
so a configuration is checked without loading numpy; the numeric modules
import these types back under their old names.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, is_integer


class Mode(enum.Enum):
    """A compared surface; the value is its CSV column prefix."""

    FRIS = "fris"
    FIXED = "fixed"
    RIS = "ris"


def dbm_to_watt(dbm: float) -> float:
    """``dbm`` in watts; a :class:`DomainError` names a value whose watts overflow a float."""
    dbm = float(dbm)
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"{dbm!r} dBm overflows a float in watts") from None


def path_loss(d: float, alpha: float, rho0: float) -> float:
    """Distance-power law ``rho0 * d**(-alpha)`` for d > 0."""
    if not (isinstance(d, (int, float)) and math.isfinite(d) and d > 0):
        raise DomainError(f"distance must be a positive finite real, got {d!r}")
    try:
        return rho0 * d ** (-alpha)
    except OverflowError:
        raise DomainError(f"path loss rho0 * d**(-alpha) overflows a float at d = {d!r}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """All link and system parameters of one scenario.

    The warden's two hypotheses are exhaustive, so their priors sum to
    one: only ``p0`` is set, and :attr:`p1` is ``1 - p0``.

    Attributes:
        d_af: transmitter-to-surface distance, meters.
        d_fb: surface-to-receiver distance, meters.
        d_fw: surface-to-warden distance, meters.
        alpha: path-loss exponent.
        rho0: reference path gain at 1 m.
        r_b: target rate at the receiver, bits/s/Hz.
        sigma2_b: receiver noise power, watts.
        sigma2_w: warden noise power, watts.
        p0: prior probability of the silence hypothesis, in [0, 1].
        mu_offset: detector threshold offset above the noise floor, watts.
        p_a: transmit power, watts.
        m_o: active ports per draw (see :func:`~friscov.montecarlo.simulate_group`).
        m_hat: elements of the RIS baseline's grid; 0 follows ``m_o``.
    """

    d_af: float = 50.0
    d_fb: float = 100.0
    d_fw: float = 100.0
    alpha: float = 2.1
    rho0: float = 1.0
    r_b: float = 0.1
    sigma2_b: float = 1e-12
    sigma2_w: float = 1e-12
    p0: float = 0.5
    mu_offset: float = 1e-12
    p_a: float = 1e-3
    m_o: int = 36
    m_hat: int = 0

    def __post_init__(self):
        positive = ("d_af", "d_fb", "d_fw", "alpha", "rho0", "sigma2_b",
                    "sigma2_w", "mu_offset", "p_a")
        for name in positive:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")
        if not (isinstance(self.r_b, (int, float)) and math.isfinite(self.r_b) and self.r_b >= 0):
            raise DomainError(f"r_b must be a non-negative finite real, got {self.r_b!r}")
        if not (isinstance(self.p0, (int, float)) and 0.0 <= self.p0 <= 1.0):
            raise DomainError(f"p0 must lie in [0, 1], got {self.p0!r}")
        if not (is_integer(self.m_o) and self.m_o >= 1):
            raise DomainError(f"m_o must be a positive integer, got {self.m_o!r}")
        if not (is_integer(self.m_hat) and self.m_hat >= 0):
            raise DomainError(f"m_hat must be a non-negative integer, got {self.m_hat!r}")
        for link in ("af", "fb", "fw"):
            try:
                getattr(self, f"loss_{link}")
            except DomainError as exc:
                raise DomainError(f"L_{link}: {exc}") from None
        budget_b = self.p_a * self.loss_af * self.loss_fb
        budget_w = self.p_a * self.loss_af * self.loss_fw
        for name, budget in (("p_a * L_af * L_fb", budget_b), ("p_a * L_af * L_fw", budget_w)):
            if not (math.isfinite(budget) and budget > 0):
                raise DomainError(f"link budget {name} = {budget!r} must be positive and finite")
        # The closed form evaluates the gain CDF at these two thresholds.
        try:
            outage = outage_level(self)
        except OverflowError:
            outage = math.inf
        for name, gain in (("outage threshold (2**r_b - 1) * sigma2_b / (p_a * L_af * L_fb)", outage),
                           ("detection threshold mu_offset / (p_a * L_af * L_fw)", self.mu_offset / budget_w)):
            if not math.isfinite(gain):
                raise DomainError(f"the {name} overflows a float")

    @property
    def p1(self) -> float:
        """Prior probability of the transmission hypothesis, ``1 - p0``."""
        return 1.0 - self.p0

    @property
    def loss_af(self) -> float:
        """Large-scale path loss of the transmitter-to-surface link."""
        return path_loss(self.d_af, self.alpha, self.rho0)

    @property
    def loss_fb(self) -> float:
        """Large-scale path loss of the surface-to-receiver link."""
        return path_loss(self.d_fb, self.alpha, self.rho0)

    @property
    def loss_fw(self) -> float:
        """Large-scale path loss of the surface-to-warden link."""
        return path_loss(self.d_fw, self.alpha, self.rho0)


def outage_level(cfg: ScenarioConfig) -> float:
    """The receiver's gain below which it is in outage: (2**r_b - 1) * sigma2_b / (p_a * L_af * L_fb)."""
    return (2.0 ** cfg.r_b - 1.0) * cfg.sigma2_b / (cfg.p_a * cfg.loss_af * cfg.loss_fb)


# The widest aperture, in wavelengths along each axis: the correlation then
# evaluates J0 below 2 pi sqrt(2) * 1e4 (about 8.9e4), inside its range.
MAX_APERTURE_WAVELENGTHS = 1e4


@dataclass(frozen=True)
class SurfaceGeometry:
    """Uniform planar port grid over an aperture measured in wavelengths.

    Attributes:
        m_x: ports per row (> 0).
        m_z: ports per column (> 0).
        w_x: aperture width in wavelengths (> 0, at most ``MAX_APERTURE_WAVELENGTHS``).
        w_z: aperture height in wavelengths (> 0, at most ``MAX_APERTURE_WAVELENGTHS``).
    """

    m_x: int
    m_z: int
    w_x: float
    w_z: float

    def __post_init__(self):
        if not (is_integer(self.m_x) and is_integer(self.m_z)):
            raise DomainError("m_x and m_z must be integers")
        if self.m_x < 1 or self.m_z < 1:
            raise DomainError(f"grid dimensions must be >= 1, got {self.m_x}x{self.m_z}")
        for name in ("w_x", "w_z"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")
            if value > MAX_APERTURE_WAVELENGTHS:
                raise DomainError(f"{name} must be at most {MAX_APERTURE_WAVELENGTHS:g} wavelengths, got {value!r}")

    @property
    def num_elements(self) -> int:
        return self.m_x * self.m_z

    @property
    def d_x(self) -> float:
        """Inter-port spacing along a row, wavelengths."""
        return self.w_x / self.m_x

    @property
    def d_z(self) -> float:
        """Inter-port spacing along a column, wavelengths."""
        return self.w_z / self.m_z


# Each worker thread holds one tile's working set while it runs (6.4 MB on
# the reference surface at m_o = 36: the tile's normals, its fading vectors
# and their ranking and cascade) and its block's gains, 16 B per trial and
# selection, which a finished block holds until the caller takes it; at most
# 2 x workers blocks are in flight, and a pool starts up to this many threads.
# A pool's blocks draw and correlate their tiles inline; a serial run with a
# CPU to spare has a helper thread per block that does (see simulate_group).
# The worker count changes no gain: each tile has its own substream.
MAX_WORKERS = 64


@dataclass(frozen=True)
class MCConfig:
    """One Monte Carlo run: its trial count, master seed and worker count (at most ``MAX_WORKERS``).

    What the run simulates is passed beside it, as the ``(surface, mode,
    m_o)`` selections of :func:`~friscov.montecarlo.simulate_group`.
    """

    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if not (is_integer(self.trials) and self.trials >= 1):
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not (is_integer(self.master_seed) and 0 <= self.master_seed < 2**64):
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not (is_integer(self.workers) and self.workers >= 1):
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")
        if self.workers > MAX_WORKERS:
            raise DomainError(f"a run uses at most {MAX_WORKERS} workers, got {self.workers}")


CSV_COLUMNS: tuple[str, ...] = (
    "swept_value",
    "zeta",
    "analytic_pfa",
    "analytic_pmd",
    "analytic_op",
    "analytic_cop",
    "analytic_xi",
    "analytic_psuc",
) + tuple(
    f"{mode.value}_{metric}{suffix}"
    for mode in Mode
    for metric in ("op", "cop", "psuc")
    for suffix in ("", "_lo", "_hi")
)
