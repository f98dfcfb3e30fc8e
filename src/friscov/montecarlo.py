"""Trial orchestration and statistical estimation.

The channel physics lives in :mod:`friscov.channel`; this module runs
its blocks for a run's selections and turns the gains into estimates.

Trials are drawn in tiles of ``TILE_TRIALS``.  Tile ``k``, trials
``k * TILE_TRIALS`` to ``(k + 1) * TILE_TRIALS - 1``, has its own
generator, seeded ``mix64(master_seed, k)`` (a splitmix64-style
finalizer, documented at :func:`mix64`), and is drawn once for the whole
run in the fixed layout of :func:`~friscov.channel.tile_normals`: one
standard normal per rank, link, trial and real or imaginary part,
indexed ``[rank, link, trial, re/im]``, where the rank ``R`` is the
largest numerical rank of the run's surface factors
(:func:`~friscov.surface.surface_factor`).  A surface of rank ``r``
correlates its ``(ports, r)`` factor against the first ``r`` rank rows,
which are the normals that a draw of rank ``r`` alone would give.  Every
tile is drawn at its full width and runs in panels of its trials, halves
of it or the whole tile (see below): each panel that holds a trial of
the run is correlated, ranked and cascaded at its full width, a partial
last one too, which keeps its first trials.  This is the
reproducibility contract: a trial's gains depend on the master seed,
``TILE_TRIALS``, the trial's index, its surface and its selection, and
on nothing else -- not on the trial count, the run's other surfaces and
selections or their order, the panels, ``BLOCK_TRIALS``, the worker
count or the number of BLAS threads.  A run of ``n`` trials is the first ``n`` trials of every
longer run at its seed, so its estimates are those of that prefix.

The contract holds on one machine, under one BLAS kernel and one numpy
SIMD level: there the bits are the same across panels, workers and BLAS
threads.  Each fading entry is one sum over the factor's rank, taken in
an order that OpenBLAS's kernel fixes, not the number of columns or
threads that share the product; ranking and cascading work trial by
trial, rounded as numpy's SIMD loops round.  Another kernel (say
``OPENBLAS_CORETYPE=Haswell`` where SkylakeX is native) or SIMD level
may move the last bits of the fading vectors, and with them a gain or
a ranking: its estimates agree within sampling error, its bytes need
not.

Tiles are scheduled in blocks of ``BLOCK_TRIALS`` trials, a multiple of
``TILE_TRIALS``, the last block holding the remainder.  A block holds
one array, freed with it: one tile's normals and a ring of panel-sized
fading buffers (slots), each sized for the run's largest surface.  It
runs one tile at a time: the tile is drawn into the normals, and each
of its panels is correlated for every surface, in the order of their
first selections, into a slot, then ranked and cascaded.

Every run, serial or pooled, holds numpy's bundled OpenBLAS at one
thread per product, from its first block until it is exhausted, closed
or raises, and then restores the count it found, whatever the
environment set (``OPENBLAS_NUM_THREADS`` included).  Runs that
interleave in one thread or overlap across threads share the pin: the
first to start saves the count and the last to end restores it.  Where
a serial run has a CPU to spare, a helper thread draws each tile and
correlates each (half-tile panel, surface) into a ring of two slots, and
the block's thread only ranks, cascades and writes the gains of each
filled slot, then hands it back.  Otherwise, and on a BLAS that cannot
be pinned, the block's thread does all of it with one slot, in panels
of the whole tile: halves would only add calls.
The draw and the product release the GIL, and no panel's bits depend on
the thread that computed them or on its width, so both ways give the
same bits.  So the working set follows the tile, not the block; what
follows the block is its outputs, 16 B per trial and selection of the
run, which reach the caller in block order.  Blocks are dispatched to a
thread pool; the heavy lifting is BLAS matrix multiplication, which
releases the GIL too.

Surfaces that share a run share their normals, rank row for rank row:
common random numbers (Asmussen & Glynn, *Stochastic Simulation*, 2007,
ch. V).  Each cell's marginal law is that of an independent draw, and
the differences between surfaces, such as the fluid surface against an
RIS grid of its own, are positively correlated, so they are estimated
with less noise than from independent draws.

A run is one :class:`MCConfig` and one flat list of ``(surface, mode,
m_o)`` selections (:func:`simulate_group`), on any surfaces and in any
order: each tile is drawn once for the run and each panel correlated
once per distinct surface, and each selection takes the ports and phases
of its :class:`~friscov.channel.Mode` from its surface's fading vectors.
Nothing is cached: once the block's last panel has run, its gains go to
the caller, which keeps what it reads of them, typically the event
counts of :func:`count_events` that the estimators read, and drops them
before it takes the next block.

Estimates of outage, covertness outage, and success probability carry
Wilson 95% confidence intervals (valid near 0/1, where outage
probabilities live).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import threading
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import GammaFit, ScenarioConfig, compound_probability, fa_probability, missed_level, outage_level
from .channel import best_product_order, cascade, correlated_tile, tile_normals
from .config import MAX_WORKERS, MCConfig, Mode, SurfaceGeometry  # noqa: F401  (also importable from here)
from .errors import DomainError, is_integer
from .surface import default_fixed_preset, surface_factor

# Trials per substream tile, which also bounds the kernel's working set.
# Part of the reproducibility contract: changing it changes every gain.
# Beside a helper thread, a tile runs in two panels of half of it.
TILE_TRIALS = 512

# Trials per block: the unit of the caller's fold and of the worker pool, a
# multiple of TILE_TRIALS.  Not part of the reproducibility contract.  A
# block holds one tile's normals, one tile of fading vectors (two half-tile
# slots beside a helper thread that draws and correlates, one whole-tile
# slot where its own thread does), a panel's temporaries and its outputs,
# 16 B per trial and selection of the run.
BLOCK_TRIALS = 4096

# Levels compared at once by count_events: 64 boolean rows of 4096 trials.
_LEVEL_ROWS = 64

# Two-sided 95% normal quantile used by the Wilson interval.
_WILSON_Z = 1.959963984540054


def mix64(master_seed: int, index: int) -> int:
    """Derive the 64-bit substream seed for tile ``index``.

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


def _panel_gains(abc: np.ndarray, members: list, outputs: list, lo: int, n: int) -> None:
    """Write one panel's gains on one surface into trials ``lo`` to ``lo + n - 1`` of ``outputs``.

    ``abc`` is the panel's fading vectors (:func:`~friscov.channel.correlated_tile`)
    at its full width, ``members`` is the surface's port rows and readers
    from :func:`_surfaces` and ``outputs`` holds one block-length ``(g_b,
    g_w)`` per selection of the run.  A partial last panel keeps its first
    ``n`` trials, so no gain depends on how many trials follow it.
    """
    width = abc.shape[-1]
    for rows, readers in members:
        if rows is None:
            # One ranking and one running sum serve every fluid m_o of the surface.
            lengths = [m_o for *_, m_o in readers]
            top = best_product_order(abc[0], abc[1], max(lengths))
            # Flat indices gather the three links in one pass.
            top *= width
            top += np.arange(width)
            selected = np.take(abc.reshape(3, -1), top, axis=1)
            del top
            gains = zip(*cascade([True], *selected, lengths)[0])
        else:
            # One gather and one set of terms per preset, shared by its readers
            # and dropped before the next.
            selected = abc[:, rows]
            gains = cascade([mode is not Mode.FIXED for _, mode, _ in readers], *selected)
        for (j, *_), (g_b, g_w) in zip(readers, gains):
            outputs[j][0][lo : lo + n] = g_b[:n]
            outputs[j][1][lo : lo + n] = g_w[:n]
        del selected, gains


def _surfaces(selections: Sequence[tuple[SurfaceGeometry, Mode, int]]) -> list[tuple[list, np.ndarray]]:
    """Each surface's port rows, each with the ``(position, mode, m_o)`` that read them, and its factor.

    ``None`` stands for the best ports of each draw, read by every fluid
    selection of the surface; each preset appears once, however many read
    it.  Surfaces and rows keep the order of their first selection.
    """
    readers: dict[SurfaceGeometry, dict[int | None, list[tuple[int, Mode, int]]]] = {}
    for j, selection in enumerate(selections):
        try:
            geom, mode, m_o = selection
        except (TypeError, ValueError):
            geom = None
        if not isinstance(geom, SurfaceGeometry):
            raise DomainError(f"selection {j} is {selection!r}; expected a (surface, mode, m_o) triple")
        if not isinstance(mode, Mode):
            raise DomainError(f"unknown mode {mode!r}")
        if not (is_integer(m_o) and 1 <= m_o <= geom.num_elements):
            raise DomainError(f"m_o must be an integer in [1, {geom.num_elements}] (the surface's ports), got {m_o!r}")
        readers.setdefault(geom, {}).setdefault(None if mode is Mode.FRIS else m_o, []).append((j, mode, m_o))
    surfaces = []
    for geom, members in readers.items():
        named = {None: None, geom.num_elements: slice(None)}  # every port's preset: a view, not a copy
        rows = [(named[k] if k in named else default_fixed_preset(geom, k), shared) for k, shared in members.items()]
        surfaces.append((rows, surface_factor(geom)))
    return surfaces


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _openblas(name: str):
    """Function ``name`` (say ``get_num_threads``) of numpy's bundled OpenBLAS, or None where it has none."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


# Runs open in this process, and the OpenBLAS thread count the first of them
# found; the last to end restores it.  Module state, as the count it guards
# is the whole process's.
_pin_lock = threading.Lock()
_pinned_runs = 0
_found_threads = 0


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Inside the ``with``, numpy's bundled OpenBLAS runs each product on one thread; yields whether it does.

    Runs may nest, interleave or overlap across threads: the first to
    enter saves the count OpenBLAS had, and the last to leave restores it.
    On another BLAS, or one without the setter, nothing changes and the
    ``with`` gets False.  The gains do not depend on the count.
    """
    global _pinned_runs, _found_threads
    setter = _openblas("set_num_threads")
    if setter is None:
        yield False
        return
    # ctypes passes a Python int as a C int and reads a C int back by default.
    with _pin_lock:
        if not _pinned_runs:
            _found_threads = _openblas("get_num_threads")()
            setter(1)
        _pinned_runs += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pinned_runs -= 1
            if not _pinned_runs:
                setter(_found_threads)


def simulate_group(mc: MCConfig, selections: Iterable[tuple[SurfaceGeometry, Mode, int]]) -> Iterator[tuple[int, list]]:
    """Yield each block of run ``mc`` as ``(start, gains)``, in block order.

    Lazy: nothing runs until the iterator is advanced, and no selections
    yield no blocks.  ``selections`` is a flat sequence of ``(surface,
    mode, m_o)``; ``start`` is the block's first trial and ``gains[j]``
    the ``(g_b, g_w)`` per-trial cascaded gains of entry ``j`` over the
    block: 16 B per trial and entry, held until the caller drops them.  A
    repeated entry gets equal, separate arrays.  ``m_o`` is the number of
    active ports per draw: the best ``m_o`` of each draw for
    ``Mode.FRIS``, the surface's default preset of ``m_o`` ports
    (:func:`~friscov.surface.default_fixed_preset`) otherwise.  Each
    entry must be such a triple, its surface a
    :class:`~friscov.config.SurfaceGeometry`, its ``mode`` a
    :class:`~friscov.config.Mode` and its ``m_o`` an ``int``, not a
    ``bool``, in ``[1, surface.num_elements]``: a
    :class:`~friscov.errors.DomainError` names the first entry that is not.

    A block runs tile by tile, and each tile panel by panel.  Each tile is
    drawn once for the whole run, in the largest rank of the run's
    surfaces, into one normals buffer held for the block, and each
    surface reads the first rows of its rank
    (:func:`~friscov.channel.tile_normals`).  Each panel is correlated
    over every port once per surface, from a column view of the normals
    (:func:`~friscov.channel.correlated_tile`), into a slot sized for the
    largest surface; the block's normals and slots are one array.  From
    its first block until it is exhausted, closed or raises, the run holds
    numpy's bundled OpenBLAS at one thread, even where
    ``OPENBLAS_NUM_THREADS`` asks for more, and then restores the count it
    found; runs that interleave or overlap in one process restore it when
    the last of them ends.  On the serial path (one worker or one block),
    with that pin in effect and a CPU to spare, a helper thread does the
    draws and the products of half-tile panels into a ring of two slots, a
    slot ahead of the block's thread, which ranks, cascades and writes each
    slot's gains and then hands the slot back.  The block's thread stops
    and joins the helper before the block returns, even when the kernel
    raises; the helper's own exception is raised on the block's thread.
    Otherwise, and in a pool, the block's thread draws, correlates and
    runs each tile in turn as one panel, in one slot.  The fluid selections of a surface
    share one ranking of a panel's top ``max(m_o)`` ports and one cascade
    of those rows, each reading its own prefix length; each preset's rows
    are gathered, and their cascade terms formed, once per panel for every
    selection that reads them (``FIXED`` sums the terms, then ``RIS``
    phases them in place).  So the run costs one RNG pass per tile and one
    correlating product and one ranking per panel and surface, and the
    gains keep the contract of the module docstring.  With workers, at
    most two blocks per worker are in flight, a finished one holding its
    gains until the caller takes it, and closing the iterator waits for
    them.  Raises :class:`~friscov.errors.DomainError` unless every block
    starts on a tile's edge (``BLOCK_TRIALS`` a multiple of
    ``TILE_TRIALS``).
    """
    selections = list(selections)
    surfaces = _surfaces(selections)
    if not surfaces:
        return
    tile, block = TILE_TRIALS, BLOCK_TRIALS
    if block % tile:
        raise DomainError(f"BLOCK_TRIALS = {block} is not a multiple of TILE_TRIALS = {tile}")
    rank = max(factor.shape[1] for _, factor in surfaces)
    ports = max(factor.shape[0] for _, factor in surfaces)
    n_blocks = -(-mc.trials // block)

    serial = mc.workers == 1 or n_blocks == 1
    with _one_blas_thread() as pinned:
        # A helper thread only on the serial path, with BLAS on one thread and
        # a CPU to spare: one that shared a core with the block's thread or a
        # BLAS thread made the default sweep slower, not faster.
        ahead = serial and pinned and _cpus() > 1
        # Trials per panel, the unit of correlation and of the kernel: half a
        # tile beside a helper, so that it correlates one while the block's
        # thread ranks the other; a whole tile inline, where halves made a plain
        # CLI run's validate 5% slower.
        panel = -(-tile // 2) if ahead else tile

        def correlate(start: int, count: int, z: np.ndarray, slots: Iterator[np.ndarray]) -> Iterator[tuple]:
            """Block ``start``'s panels, surface by surface, as ``(lo, surface index, fading vectors)``.

            Draws each tile into ``z`` and correlates each (panel, surface) into
            the next buffer of ``slots``, stopping early if ``slots`` runs out.
            """
            for lo in range(0, count, tile):
                tile_normals(np.random.default_rng(mix64(mc.master_seed, (start + lo) // tile)), rank, tile, out=z)
                for p0 in range(0, min(tile, count - lo), panel):
                    width = min(panel, tile - p0)
                    for s, (_, factor) in enumerate(surfaces):
                        slot = next(slots, None)
                        if slot is None:
                            return
                        abc = slot[: 3 * factor.shape[0] * width].reshape(3, -1, width)
                        correlated_tile(factor, z[: factor.shape[1], :, 2 * p0 : 2 * (p0 + width)], out=abc)
                        yield lo + p0, s, abc

        def correlate_ahead(panels: Iterator[tuple], ready) -> None:
            try:
                for item in panels:
                    ready.put(item)
            except BaseException as exc:
                ready.put(exc)  # a Thread drops its target's exception: the block's thread raises it
            else:
                ready.put(None)

        def run(block_index: int) -> tuple[int, list]:
            start = block_index * block
            count = min(block, mc.trials - start)
            outputs = [(np.empty(count), np.empty(count)) for _ in selections]
            # One tile's normals and a ring of panel-sized fading buffers, sized
            # for the largest surface: one array, reused by every tile and surface
            # of the block and freed with it.  Its free raises glibc's mmap
            # threshold above the kernel's temporaries, so they reuse the heap.
            ring = 2 if ahead else 1
            buffer = np.empty(rank * 3 * tile + ring * 3 * ports * panel, dtype=complex)
            z = buffer[: rank * 3 * tile].view(float).reshape(rank, 3, 2 * tile)
            slots = buffer[rank * 3 * tile :].reshape(ring, -1)

            def kernel(lo: int, s: int, abc: np.ndarray) -> None:
                _panel_gains(abc, surfaces[s][0], outputs, lo, min(abc.shape[-1], count - lo))

            if not ahead:
                for item in correlate(start, count, z, itertools.repeat(slots[0])):
                    kernel(*item)
                return start, outputs
            # Imported here: only a run with a helper needs it.
            from queue import SimpleQueue

            # The helper takes a token before it correlates item i into slot i % 2:
            # one per slot at the start, then one per item the block's thread has
            # run, so a slot is rewritten only once its gains are out.  None, put
            # when the block ends or fails, stops it.
            free, ready = SimpleQueue(), SimpleQueue()
            for _ in range(ring):
                free.put(True)
            claims = (slots[i % ring] for i, _ in enumerate(iter(free.get, None)))
            helper = threading.Thread(target=correlate_ahead, args=(correlate(start, count, z, claims), ready))
            helper.start()
            try:
                for item in iter(ready.get, None):
                    if isinstance(item, BaseException):
                        raise item
                    kernel(*item)
                    free.put(True)
            finally:
                free.put(None)
                helper.join()
            return start, outputs

        # Serial on purpose: a one-thread pool raised validate's peak RSS from 85.8 to 88.5 MB.
        if serial:
            yield from map(run, range(n_blocks))
            return
        # Imported here: the pool pulls in ``logging``, some 10 ms of every process that never uses it.
        from concurrent.futures import ThreadPoolExecutor

        # A bounded window of submitted blocks, a finished one holding its gains:
        # submitting them all at once holds memory in proportion to the trials.
        # A block leaves the window as it is yielded, so no future keeps its gains.
        window: deque = deque()
        with ThreadPoolExecutor(max_workers=mc.workers) as pool:
            for k in range(n_blocks):
                if len(window) == 2 * mc.workers:
                    yield window.popleft().result()
                window.append(pool.submit(run, k))
            while window:
                yield window.popleft().result()


def event_levels(points: Iterable[tuple[ScenarioConfig, float]]) -> np.ndarray:
    """Each ``(cfg, zeta)``'s :func:`~friscov.analytics.outage_level` and :func:`~friscov.analytics.missed_level`."""
    return np.array([(outage_level(cfg), missed_level(cfg, zeta)) for cfg, zeta in points]).reshape(-1, 2)


def count_events(g_b: np.ndarray, g_w: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Outages, detections and draws decoded while missed, at each row ``(x_b, eta)`` of ``levels``.

    Returns ``(len(levels), 3)`` counts of ``g_b < x_b``, ``g_w >= eta``
    and neither (the gains are finite), comparing ``_LEVEL_ROWS`` levels at
    a time.  ``levels`` comes from :func:`event_levels`.
    """
    counts = np.empty((len(levels), 3), dtype=np.int64)
    for lo in range(0, len(levels), _LEVEL_ROWS):
        x_b, eta = levels[lo : lo + _LEVEL_ROWS, :, None].swapaxes(0, 1)
        outage, detected = g_b < x_b, g_w >= eta
        for k, event in enumerate((outage, detected, ~(outage | detected))):
            counts[lo : lo + len(x_b), k] = np.count_nonzero(event, axis=1)
    return counts


def _affine_estimate(offset: float, scale: float, successes: int, trials: int) -> EstimateWithCI:
    lo, hi = wilson_interval(successes, trials)
    value = offset + scale * (successes / trials)
    return EstimateWithCI(
        value=value,
        ci_low=min(offset + scale * lo, value),
        ci_high=max(offset + scale * hi, value),
        trials=trials,
    )


def estimate_op(counts: Sequence[int], trials: int) -> EstimateWithCI:
    """Empirical outage probability from the :func:`count_events` ``counts`` of ``trials`` draws."""
    return _affine_estimate(0.0, 1.0, int(counts[0]), trials)


def estimate_cop(counts: Sequence[int], trials: int, cfg: ScenarioConfig, zeta: float) -> EstimateWithCI:
    """Empirical covertness outage probability at threshold ``zeta``, from :func:`count_events` ``counts``.

    Scores correct warden decisions: under silence the false alarm is
    the deterministic :func:`~friscov.analytics.fa_probability`; under
    transmission the per-draw detections are averaged.
    """
    return _affine_estimate(cfg.p0 * (1.0 - fa_probability(cfg, zeta)), cfg.p1, int(counts[1]), trials)


def estimate_success(counts: Sequence[int], trials: int, cfg: ScenarioConfig, zeta: float) -> EstimateWithCI:
    """Empirical success probability at threshold ``zeta``, from :func:`count_events` ``counts``.

    Per-draw joint score: (no outage) * (p0 * false-alarm + p1 *
    missed-detection), with both gains taken from the same draw -- no
    independence between the decode and detection events is assumed.
    """
    p_fa = fa_probability(cfg, zeta)
    if p_fa:
        # The false alarm is 0 or 1; at 1 the missed level is 0, so the warden
        # misses no transmission and only the false-alarm term survives.
        return _affine_estimate(0.0, cfg.p0 * p_fa, trials - int(counts[0]), trials)
    return _affine_estimate(0.0, cfg.p1, int(counts[2]), trials)


def _ks_stride(n: int) -> int:
    """The gap between :func:`ks_distance`'s first evaluations on ``n`` points, about ``sqrt(n) / 10``.

    The supremum is of order ``1/sqrt(n)`` and a gap's bound is loose by
    about twice the gap over ``n``, so a gap growing as ``sqrt(n)`` opens a
    steady share of the gaps.  A tenth of ``sqrt(n)`` (7, 20 and 31 points)
    came near the fewest levels evaluated on ``validate``'s samples at 5k,
    40k and 100k trials.  Below 200 points every point is evaluated at once.
    """
    return max(1, math.isqrt(n) // 10)


def ks_distance(samples, fit: GammaFit) -> float:
    """Kolmogorov-Smirnov distance between a gain sample and the compound law ``Q * Exp(1)`` of ``fit``.

    The supremum of |empirical CDF - law's CDF| over the sample points,
    from both one-sided limits at each: ``max((i+1)/n - F(x_i), F(x_i) -
    i/n)`` over the sorted sample ``x_0 <= ... <= x_{n-1}``, ``F`` being
    :func:`~friscov.analytics.compound_probability`'s CDF.

    ``F`` is evaluated only where the supremum can lie.  Both CDFs are
    monotone, so a point ``x_i`` strictly between two evaluated points
    ``x_l`` and ``x_h`` deviates by at most ``h/n - F(x_l)`` above the law
    and ``F(x_h) - (l+1)/n`` below it.  A first call evaluates every
    ``k``-th point and the last (``k`` of :func:`_ks_stride`, about
    ``sqrt(n) / 10``); a second evaluates every point of each gap whose
    bound exceeds the largest deviation found.  No skipped point can
    deviate by more, so the result is the maximum over all ``n`` points,
    to the rounding of ``F``: the rounded quotients and differences keep
    the order of their operands, and the computed ``F``, a sum of
    positive terms each monotone in the level, keeps the order of the
    points.  The calls take at most ``n + 2`` levels, within ``n + n/k +
    2``: ``n`` when the sample tracks the law within ``1/n`` everywhere
    and every gap opens, and two for the node rule below.  On
    ``validate``'s samples they take 15-23% of ``n`` at 5k trials, 5-10%
    at 40k and 4-6% at 100k.

    ``compound_probability``'s quadrature nodes follow a call's smallest
    positive finite level, so each call includes the sample's own and
    evaluates ``F`` on the nodes of a whole-sample call.  The result
    agrees with that whole-sample evaluation to 1e-13, not bit for bit:
    OpenBLAS's GEMV rounds a call's last few levels (those past its last
    group of four rows, under the SkylakeX kernel) otherwise than the
    same level among more rows.  On ``validate``'s samples the supremum
    lies away from those rows and the two are bit-equal.

    Raises:
        DomainError: if the sample is empty, or holds a negative or NaN
            point.  ``+inf`` is a valid point: the law's CDF there is 1.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise DomainError("KS distance requires a non-empty sample")
    data = np.sort(samples)
    n = data.size
    # A sort puts a negative point first and a NaN last.
    if not (data[0] >= 0.0 and not math.isnan(data[-1])):
        bad = samples[~(samples >= 0.0)]
        raise DomainError(f"KS sample must be non-negative and not NaN, got {float(bad[0])!r}")
    # The smallest positive finite point, which sets compound_probability's nodes.
    first = int(np.searchsorted(data, 0.0, side="right"))
    node = data[first] if first < n and data[first] < math.inf else None

    def deviations(index: np.ndarray) -> tuple[np.ndarray, float]:
        # The law's CDF at the sorted points ``index`` and their largest deviation.
        levels = data[index]
        if node is None or node in levels:
            fitted = compound_probability(fit, below=levels)
        else:
            fitted = compound_probability(fit, below=np.concatenate(([node], levels)))[1:]
        return fitted, max(np.max((index + 1) / n - fitted), np.max(fitted - index / n))

    stride = _ks_stride(n)
    bracket = np.append(np.arange(0, n - 1, stride), n - 1)
    fitted, best = deviations(bracket)
    low, high = bracket[:-1], bracket[1:]
    bound = np.maximum(high / n - fitted[:-1], fitted[1:] - (low + 1) / n)
    starts = low[(bound > best) & (high - low > 1)]
    if starts.size:
        inner = (starts[:, None] + np.arange(1, stride)).ravel()
        best = max(best, deviations(inner[inner < n - 1])[1])
    return float(best)
