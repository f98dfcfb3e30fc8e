"""Trial orchestration and statistical estimation.

The channel physics lives in :mod:`friscov.channel`; this module runs
its blocks for groups of configs and turns the gains into estimates.

Trials are generated in fixed-size blocks of ``BLOCK_TRIALS`` draws.
Block ``k`` uses an independent substream whose 64-bit seed is
``mix64(master_seed, k)`` (a splitmix64-style finalizer, documented at
:func:`mix64`), drawn in the fixed layout of
:func:`~friscov.channel.correlated_fading`: one normal per link, trial
and column of the surface's correlation factor, whose column count is
the correlation's numerical rank (:func:`~friscov.surface.psd_sqrt`).  A
trial's randomness therefore depends only on the master seed and its
trial index -- never on the worker pool -- and results are reduced in
block order, so identical ``(master_seed, trials, configs)`` produce
bit-identical estimates regardless of worker count.  Blocks are
dispatched to a thread pool; the heavy lifting is BLAS matrix
multiplication, which releases the GIL.

Configs that share ``(master_seed, trials)`` and a surface form a
group (:func:`simulate_group`): each block is drawn and correlated once
for the whole group, and each config takes the ports and phases of its
:class:`~friscov.channel.Mode` from it.  A config's gains are the same
whatever else is in its group.  Nothing is cached: the caller keeps the
returned :class:`GainSample` and passes it to the estimators.

Estimates of outage, covertness outage, and success probability carry
Wilson 95% confidence intervals (valid near 0/1, where outage
probabilities live).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import ScenarioConfig, GammaFit, gamma_cdf
from .channel import Mode, best_product_order, cascade, correlated_fading
from .errors import DomainError
from .surface import SurfaceGeometry, correlation_matrix, default_fixed_preset, psd_sqrt

# Trials per substream block. Part of the reproducibility contract:
# changing it changes which substream a trial belongs to.
BLOCK_TRIALS = 4096

# Two-sided 95% normal quantile used by the Wilson interval.
_WILSON_Z = 1.959963984540054


def mix64(master_seed: int, index: int) -> int:
    """Derive the 64-bit substream seed for block ``index``.

    splitmix64 finalizer applied to ``master_seed + (index + 1) *
    0x9E3779B97F4A7C15`` (all arithmetic mod 2**64).
    """
    mask = (1 << 64) - 1
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run configuration.

    ``m_o`` is the number of active ports per draw: the best ``m_o`` of
    each draw for ``Mode.FRIS``, the surface's default preset of ``m_o``
    ports (:func:`~friscov.surface.default_fixed_preset`) otherwise.
    """

    trials: int
    master_seed: int
    mode: Mode
    workers: int = 1
    m_o: int = 36

    def __post_init__(self):
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")
        if not (isinstance(self.m_o, int) and self.m_o >= 1):
            raise DomainError(f"m_o must be a positive integer, got {self.m_o!r}")
        if not isinstance(self.mode, Mode):
            raise DomainError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class EstimateWithCI:
    """A probability estimate with its Wilson 95% confidence interval."""

    value: float
    ci_low: float
    ci_high: float
    trials: int

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.value <= self.ci_high <= 1.0):
            raise DomainError(
                f"interval must satisfy 0 <= ci_low <= value <= ci_high <= 1, "
                f"got ({self.ci_low}, {self.value}, {self.ci_high})"
            )


@dataclass(frozen=True)
class GainSample:
    """Per-trial cascaded gains toward the receiver and the warden."""

    g_b: np.ndarray
    g_w: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.g_b.size)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DomainError(f"invalid counts: {successes} successes out of {trials} trials")
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # At the degenerate counts the bound is exactly 0 or 1; the formula
    # leaves ~1e-18 of rounding residue there.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _block_gains(
    factor: np.ndarray,
    members: list[tuple[np.ndarray | slice | None, list[tuple[int, MCConfig]]]],
    master_seed: int,
    block_index: int,
    block_trials: int,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(mix64(master_seed, block_index))
    abc = correlated_fading(factor, rng, block_trials)
    gains = {}
    for rows, readers in members:
        if rows is None:
            # One ranking and one running sum serve every fluid m_o of the group.
            lengths = [mc.m_o for _, mc in readers]
            top = best_product_order(abc[0], abc[1], max(lengths))
            # Flat indices gather the three links in one pass.
            selected = np.take(abc.reshape(3, -1), top * block_trials + np.arange(block_trials), axis=1)
            del top
            g_b, g_w = cascade(True, *selected, lengths)
            for (j, _), gb, gw in zip(readers, g_b, g_w):
                gains[j] = gb, gw
        else:
            # One gather per preset, shared by its readers and dropped before the next.
            selected = abc[:, rows]
            for j, mc in readers:
                gains[j] = cascade(mc.mode is not Mode.FIXED, *selected)
        del selected
    return gains


def _group_members(
    mcs: list[MCConfig], geom: SurfaceGeometry
) -> list[tuple[np.ndarray | slice | None, list[tuple[int, MCConfig]]]]:
    """The port rows the group reads, each with the configs that read them and their positions.

    ``None`` stands for the best ports of each draw, read by every fluid
    config; each preset appears once, however many configs read it.
    """
    total = geom.num_elements
    readers: dict[int | None, list[tuple[int, MCConfig]]] = {}
    for j, mc in enumerate(mcs):
        if mc.m_o > total:
            raise DomainError(f"m_o={mc.m_o} exceeds the surface's {total} ports")
        readers.setdefault(None if mc.mode is Mode.FRIS else mc.m_o, []).append((j, mc))
    members = []
    for m_o, shared in readers.items():
        if m_o is None:
            rows = None
        elif m_o == total:
            rows = slice(None)  # the default preset of every port: a view, not a copy
        else:
            rows = default_fixed_preset(geom, m_o)
        members.append((rows, shared))
    return members


def simulate_group(mcs: Sequence[MCConfig], geom: SurfaceGeometry) -> list[GainSample]:
    """Per-trial cascaded gains for a group of configurations, one per config.

    The configs must share ``master_seed`` and ``trials``; they run on
    ``geom``.  Each block is drawn once and correlated over every port
    once.  The fluid configs share one ranking of the top ``max(m_o)``
    ports and one cascade of those rows, each reading its own prefix
    length; each preset's rows are gathered once for every config that
    reads them.  So the group costs one RNG pass, one correlating product
    and one ranking per block, and a config's gains do not depend on the
    other configs in its group.  Nor do they depend on the worker count
    (the largest ``workers`` in the group is used).
    """
    mcs = list(mcs)
    if not mcs:
        return []
    first = mcs[0]
    for mc in mcs[1:]:
        if (mc.master_seed, mc.trials) != (first.master_seed, first.trials):
            raise DomainError("a group's configs must share master_seed and trials")
    members = _group_members(mcs, geom)
    factor = psd_sqrt(correlation_matrix(geom))

    trials = first.trials
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    outputs = [(np.empty(trials), np.empty(trials)) for _ in mcs]

    def run(block_index: int) -> None:
        start = block_index * BLOCK_TRIALS
        count = min(BLOCK_TRIALS, trials - start)
        block = _block_gains(factor, members, first.master_seed, block_index, count)
        for j, (g_b, g_w) in block.items():
            out_b, out_w = outputs[j]
            out_b[start : start + count] = g_b
            out_w[start : start + count] = g_w

    workers = max(mc.workers for mc in mcs)
    # Serial on purpose: a one-thread pool raised validate's peak RSS from 85.8 to 88.5 MB.
    if workers == 1 or n_blocks == 1:
        for k in range(n_blocks):
            run(k)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(n_blocks)))

    samples = []
    for g_b, g_w in outputs:
        g_b.flags.writeable = False
        g_w.flags.writeable = False
        samples.append(GainSample(g_b=g_b, g_w=g_w))
    return samples


def _affine_estimate(offset: float, scale: float, successes: int, trials: int) -> EstimateWithCI:
    lo, hi = wilson_interval(successes, trials)
    value = offset + scale * (successes / trials)
    return EstimateWithCI(
        value=value,
        ci_low=min(offset + scale * lo, value),
        ci_high=max(offset + scale * hi, value),
        trials=trials,
    )


def _outage_flags(gains: GainSample, cfg: ScenarioConfig) -> np.ndarray:
    snr = (cfg.p_a * cfg.loss_af * cfg.loss_fb / cfg.sigma2_b) * gains.g_b
    return np.log2(1.0 + snr) < cfg.r_b


def _detection_flags(gains: GainSample, cfg: ScenarioConfig, zeta: float) -> np.ndarray:
    observed = cfg.p_a * cfg.loss_af * cfg.loss_fw * gains.g_w + cfg.sigma2_w
    return observed >= zeta


def estimate_op(gains: GainSample, cfg: ScenarioConfig) -> EstimateWithCI:
    """Empirical outage probability: capacity below the target rate."""
    outage = int(np.count_nonzero(_outage_flags(gains, cfg)))
    return _affine_estimate(0.0, 1.0, outage, gains.trials)


def estimate_cop(gains: GainSample, cfg: ScenarioConfig, zeta: float) -> EstimateWithCI:
    """Empirical covertness outage probability at threshold ``zeta``.

    Scores correct warden decisions: under silence the observed power is
    exactly the noise floor, so that term is the deterministic indicator
    ``zeta > sigma2_w``; under transmission the per-draw detection
    events are averaged.
    """
    detected = int(np.count_nonzero(_detection_flags(gains, cfg, zeta)))
    h0_correct = 1.0 if zeta > cfg.sigma2_w else 0.0
    return _affine_estimate(cfg.p0 * h0_correct, cfg.p1, detected, gains.trials)


def estimate_success(gains: GainSample, cfg: ScenarioConfig, zeta: float) -> EstimateWithCI:
    """Empirical success probability at threshold ``zeta``.

    Per-draw joint score: (no outage) * (p0 * false-alarm + p1 *
    missed-detection), with both gains taken from the same draw -- no
    independence between the decode and detection events is assumed.
    """
    no_outage = ~_outage_flags(gains, cfg)
    false_alarm = cfg.sigma2_w >= zeta
    if false_alarm:
        # Detection is then certain under transmission (observed power
        # >= sigma2_w >= zeta), so only the false-alarm term survives.
        joint = int(np.count_nonzero(no_outage))
        return _affine_estimate(0.0, cfg.p0, joint, gains.trials)
    missed = ~_detection_flags(gains, cfg, zeta)
    joint = int(np.count_nonzero(no_outage & missed))
    return _affine_estimate(0.0, cfg.p1, joint, gains.trials)


def ks_distance(samples, fit: GammaFit) -> float:
    """Kolmogorov-Smirnov distance between a sample and a Gamma fit.

    Supremum of |empirical CDF - fitted CDF| over the sample points,
    evaluated from both one-sided limits at each point; the fitted CDF
    is evaluated on the whole sorted sample in one call.
    """
    data = np.asarray(samples, dtype=float).ravel()
    if data.size == 0:
        raise DomainError("KS distance requires a non-empty sample")
    data = np.sort(data)
    n = data.size
    fitted = gamma_cdf(fit, data)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - fitted), np.max(fitted - lower)))
