"""Trial orchestration and statistical estimation.

The channel physics lives in :mod:`friscov.channel`; this module runs
its blocks for groups of configs and turns the gains into estimates.

Trials are generated in fixed-size blocks of ``BLOCK_TRIALS`` draws,
the last block holding the remainder.  Block ``k`` uses an independent
substream whose 64-bit seed is ``mix64(master_seed, k)`` (a
splitmix64-style finalizer, documented at :func:`mix64`), drawn in the
fixed layout of :func:`~friscov.channel.block_normals`: one normal per
link, trial and column of the surface's correlation factor, whose column
count is the correlation's numerical rank
(:func:`~friscov.surface.psd_sqrt`).  A block's draws therefore depend on
the master seed, the block index and the block's size -- never on the
worker pool.  The layout's strides hold the block's size, so runs at one
seed share every full block but not the gains of a partial last block:
the first 4096 trials of 4500 and of 9000 trials are the same, trial
4096 is not.  Each block writes its own slice of the results, so
identical ``(master_seed, trials, configs)`` produce bit-identical
estimates regardless of worker count, at one BLAS thread count: the
gains of a partial block can move in their last bits between one and
two OpenBLAS threads.  Blocks are dispatched to a
thread pool; the heavy lifting is BLAS matrix multiplication, which
releases the GIL.

After its draw, a block is correlated, ranked, gathered and cascaded in
tiles of ``TILE_TRIALS`` trials, so the working set follows the tile,
not the block.  Tile edges fall at multiples of ``TILE_TRIALS`` from the
block's start and the last tile absorbs the remainder, so a block of
fewer than ``2 * TILE_TRIALS`` trials is one tile.  The tile size is not
part of the reproducibility contract.  On the reference 12x12 surface
the gains are bit for bit those of one tile per block; on a small
surface the last trial of a block can move by an ulp (see
:func:`_block_gains`).

A group is one run (:class:`MCConfig`) on one surface and a list of
``(mode, m_o)`` selections (:func:`simulate_group`): each block is drawn
and correlated once for the whole group, and each selection takes the
ports and phases of its :class:`~friscov.channel.Mode` from it.  A
selection's gains are the same whatever else is in its group.  Nothing
is cached: the caller keeps the returned :class:`GainSample` and passes
it to the estimators.

Estimates of outage, covertness outage, and success probability carry
Wilson 95% confidence intervals (valid near 0/1, where outage
probabilities live).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analytics import GammaFit, ScenarioConfig, compound_probability, fa_probability, missed_level, outage_level
from .channel import Mode, best_product_order, block_normals, cascade, correlated_tile
from .errors import DomainError
from .surface import SurfaceGeometry, correlation_matrix, default_fixed_preset, psd_sqrt

# Trials per substream block. Part of the reproducibility contract:
# changing it changes which substream a trial belongs to.
BLOCK_TRIALS = 4096

# Trials per tile of a block's kernel; bounds its working set.  Not part of
# the reproducibility contract (see the module docstring).
TILE_TRIALS = 512

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
    """One Monte Carlo run: its trial count, master seed and worker count.

    What the run simulates is passed beside it, as the ``(mode, m_o)``
    selections of :func:`simulate_group`.
    """

    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")


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
    members: list[tuple[np.ndarray | slice | None, list[tuple[int, Mode, int]]]],
    master_seed: int,
    block_index: int,
    count: int,
    outputs: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Write the gains of the ``count`` trials of block ``block_index`` into ``outputs``.

    The block's normals are drawn at once; the rest runs one tile at a
    time.  The last tile absorbs the remainder because OpenBLAS computes
    the last columns of a product with kernels chosen by its width: a
    short tail tile moved the last bits of gains on the reference surface.
    The block's own last columns still move on some small surfaces.
    """
    start = block_index * BLOCK_TRIALS
    rng = np.random.default_rng(mix64(master_seed, block_index))
    z = block_normals(rng, factor.shape[1], count)
    edges = [k * TILE_TRIALS for k in range(max(1, count // TILE_TRIALS))] + [count]
    for lo, hi in zip(edges, edges[1:]):
        abc = correlated_tile(factor, z, lo, hi)
        n, span = hi - lo, slice(start + lo, start + hi)
        for rows, readers in members:
            if rows is None:
                # One ranking and one running sum serve every fluid m_o of the group.
                lengths = [m_o for *_, m_o in readers]
                top = best_product_order(abc[0], abc[1], max(lengths))
                # Flat indices gather the three links in one pass.
                top *= n
                top += np.arange(n)
                selected = np.take(abc.reshape(3, -1), top, axis=1)
                del top
                gains = zip(*cascade([True], *selected, lengths)[0])
            else:
                # One gather and one set of terms per preset, shared by its readers
                # and dropped before the next.
                selected = abc[:, rows]
                gains = cascade([mode is not Mode.FIXED for _, mode, _ in readers], *selected)
            for (j, *_), (g_b, g_w) in zip(readers, gains):
                outputs[j][0][span] = g_b
                outputs[j][1][span] = g_w
            del selected, gains
        del abc


def _group_members(
    selections: list[tuple[Mode, int]], geom: SurfaceGeometry
) -> list[tuple[np.ndarray | slice | None, list[tuple[int, Mode, int]]]]:
    """The port rows the group reads, each with the ``(position, mode, m_o)`` of the selections that read them.

    ``None`` stands for the best ports of each draw, read by every fluid
    selection; each preset appears once, however many selections read it.
    """
    total = geom.num_elements
    readers: dict[int | None, list[tuple[int, Mode, int]]] = {}
    for j, (mode, m_o) in enumerate(selections):
        if not isinstance(mode, Mode):
            raise DomainError(f"unknown mode {mode!r}")
        if not (isinstance(m_o, int) and 1 <= m_o <= total):
            raise DomainError(f"m_o must be an integer in [1, {total}] (the surface's ports), got {m_o!r}")
        readers.setdefault(None if mode is Mode.FRIS else m_o, []).append((j, mode, m_o))
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


def simulate_group(mc: MCConfig, geom: SurfaceGeometry, selections: Sequence[tuple[Mode, int]]) -> list[GainSample]:
    """Per-trial cascaded gains of run ``mc`` on ``geom``, one per ``(mode, m_o)`` selection.

    ``m_o`` is the number of active ports per draw: the best ``m_o`` of
    each draw for ``Mode.FRIS``, the surface's default preset of ``m_o``
    ports (:func:`~friscov.surface.default_fixed_preset`) otherwise; each
    ``mode`` must be a :class:`~friscov.channel.Mode` and each ``m_o`` an
    ``int`` in ``[1, geom.num_elements]``.  Each block is drawn once, and
    each of its tiles is correlated over every port once.  The fluid
    selections share one ranking of a tile's top ``max(m_o)`` ports and
    one cascade of those rows, each reading its own prefix length; each
    preset's rows are gathered, and their cascade terms formed, once per
    tile for every selection that reads them (``FIXED`` sums the terms,
    then ``RIS`` phases them in place).  So the group costs one RNG pass
    per block and one correlating product and one ranking per tile, and a
    selection's gains depend neither on the other selections in its group
    nor on ``mc.workers``.  The gains of a block depend on the master
    seed, the block index and the block's size, so runs at one seed agree
    on every full block (see the module docstring).
    """
    selections = list(selections)
    if not selections:
        return []
    members = _group_members(selections, geom)
    factor = psd_sqrt(correlation_matrix(geom))

    n_blocks = (mc.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    outputs = [(np.empty(mc.trials), np.empty(mc.trials)) for _ in selections]

    def run(block_index: int) -> None:
        count = min(BLOCK_TRIALS, mc.trials - block_index * BLOCK_TRIALS)
        _block_gains(factor, members, mc.master_seed, block_index, count, outputs)

    # Serial on purpose: a one-thread pool raised validate's peak RSS from 85.8 to 88.5 MB.
    if mc.workers == 1 or n_blocks == 1:
        for k in range(n_blocks):
            run(k)
    else:
        # Imported here: the pool pulls in ``logging``, some 10 ms of every process that never uses it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=mc.workers) as pool:
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


def estimate_op(gains: GainSample, cfg: ScenarioConfig) -> EstimateWithCI:
    """Empirical outage probability: the receiver's gain below :func:`~friscov.analytics.outage_level`."""
    outage = int(np.count_nonzero(gains.g_b < outage_level(cfg)))
    return _affine_estimate(0.0, 1.0, outage, gains.trials)


def estimate_cop(gains: GainSample, cfg: ScenarioConfig, zeta: float) -> EstimateWithCI:
    """Empirical covertness outage probability at threshold ``zeta``.

    Scores correct warden decisions: under silence the false alarm is
    the deterministic :func:`~friscov.analytics.fa_probability`; under
    transmission the per-draw detections, the warden's gain at or above
    :func:`~friscov.analytics.missed_level`, are averaged.
    """
    detected = int(np.count_nonzero(gains.g_w >= missed_level(cfg, zeta)))
    return _affine_estimate(cfg.p0 * (1.0 - fa_probability(cfg, zeta)), cfg.p1, detected, gains.trials)


def estimate_success(gains: GainSample, cfg: ScenarioConfig, zeta: float) -> EstimateWithCI:
    """Empirical success probability at threshold ``zeta``.

    Per-draw joint score: (no outage) * (p0 * false-alarm + p1 *
    missed-detection), with both gains taken from the same draw -- no
    independence between the decode and detection events is assumed.
    Outage and missed detection are the gains below
    :func:`~friscov.analytics.outage_level` and
    :func:`~friscov.analytics.missed_level`; the false alarm is
    :func:`~friscov.analytics.fa_probability`.
    """
    decoded = gains.g_b >= outage_level(cfg)
    p_fa = fa_probability(cfg, zeta)
    if p_fa:
        # The false alarm is 0 or 1; at 1 the missed level is 0, so the warden
        # misses no transmission and only the false-alarm term survives.
        return _affine_estimate(0.0, cfg.p0 * p_fa, int(np.count_nonzero(decoded)), gains.trials)
    joint = int(np.count_nonzero(decoded & (gains.g_w < missed_level(cfg, zeta))))
    return _affine_estimate(0.0, cfg.p1, joint, gains.trials)


def ks_distance(samples, fit: GammaFit) -> float:
    """Kolmogorov-Smirnov distance between a gain sample and the compound law ``Q * Exp(1)`` of ``fit``.

    Supremum of |empirical CDF - law's CDF| over the sample points,
    evaluated from both one-sided limits at each point; the CDF
    (:func:`~friscov.analytics.compound_probability`) is evaluated on the
    whole sorted sample in one call.
    """
    data = np.asarray(samples, dtype=float).ravel()
    if data.size == 0:
        raise DomainError("KS distance requires a non-empty sample")
    data = np.sort(data)
    n = data.size
    fitted = compound_probability(fit, below=data)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(upper - fitted), np.max(fitted - lower)))
