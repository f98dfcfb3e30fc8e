"""The CLI's numeric driver: a sweep's rows and ``validate``'s gates.

:mod:`friscov.cli` imports this module only for a subcommand that
simulates, so its front end checks a configuration without loading numpy.
Nothing here imports :mod:`friscov.cli`: under ``python -m friscov.cli``
that module runs as ``__main__``, and importing it would run it again.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import analytics, montecarlo
from .analytics import GammaFit
from .channel import ris_grid_geometry
from .config import CSV_COLUMNS, MCConfig, Mode, ScenarioConfig, SurfaceGeometry
from .montecarlo import (count_events, estimate_cop, estimate_op, estimate_success, event_levels, ks_distance,
                         simulate_group)
from .surface import correlation_matrix, default_fixed_preset

if TYPE_CHECKING:
    from .cli import SweepSpec

# The KS gate of validate compares the first this many gains of each preset
# with the closed form's law.  ks_distance evaluates the law at 4-6% of them
# at this size (5-10% at 40k): about 3 ms a preset, against 40 ms for all.
KS_TRIALS = 100_000


@dataclass
class SweepResult:
    """Sweep output: one row per sweep point, fixed column schema."""

    variable: str
    rows: list[dict[str, float | None]]


def _mode_config(mode: Mode, geom: SurfaceGeometry, cfg: ScenarioConfig) -> tuple[SurfaceGeometry, Mode, int]:
    """The ``(surface, mode, m_o)`` selection of one compared surface in scenario ``cfg``.

    The fluid and fixed surfaces select ``cfg.m_o`` ports of ``geom``.  The
    RIS baseline is a grid of ``cfg.m_hat`` elements (0: ``cfg.m_o``) over
    the same aperture (:func:`ris_grid_geometry`).  When the default preset
    of that many ports, which ``Mode.RIS`` reads, sits exactly at the grid's
    positions, the baseline runs on ``geom`` and shares the fluid surface's
    fading vectors (a paired comparison); otherwise it runs on the grid,
    whose default preset is every element, and shares only the normals of
    each block (common random numbers, see :mod:`friscov.montecarlo`).
    """
    m_o = cfg.m_o
    if mode is Mode.RIS:
        m_o = cfg.m_hat or m_o
        grid = ris_grid_geometry(geom, m_o)
        ports = default_fixed_preset(geom, m_o)
        elements = np.arange(m_o)
        # Positions as exact fractions of the aperture, by column and by row.
        cols = (ports % geom.m_x) * grid.m_x, (elements % grid.m_x) * geom.m_x
        rows = (ports // geom.m_x) * grid.m_z, (elements // grid.m_x) * geom.m_z
        if not (np.array_equal(*cols) and np.array_equal(*rows)):
            geom = grid
    return geom, mode, m_o


def _gamma_fit(geom: SurfaceGeometry, m_o: int) -> GammaFit:
    """The closed form's gain model at ``m_o`` active ports: the Gamma fit of the fixed preset's ``Q``."""
    return analytics.gamma_moment_match(correlation_matrix(geom, default_fixed_preset(geom, m_o)))


def _sweep_points(scenario: ScenarioConfig, geom: SurfaceGeometry, spec: SweepSpec, modes: tuple[Mode, ...]) -> list:
    """Each sweep point's ``(value, scenario, detector threshold, {mode: selection})``."""
    points = []
    for value in spec.values():
        cfg = spec.scenario_at(scenario, value, geom.num_elements)
        points.append((value, cfg, analytics.optimal_threshold(cfg),
                       {mode: _mode_config(mode, geom, cfg) for mode in modes}))
    return points


def _simulate(mc: MCConfig, points, progress: bool = False, tap=None) -> list[dict]:
    """Event counts of run ``mc``: ``counts[i][selection]`` for each ``(surface, mode, m_o)`` of point ``i``.

    One :func:`simulate_group` call runs every distinct selection, so each
    block is drawn once for all of them.  This thread takes each block's
    :func:`count_events` at the levels of the points that read a selection
    and adds them to its integer totals, in block order.  ``tap =
    (selections, fold)`` adds ``selections``, on any surfaces, to the run
    and hands each block to ``fold(start, gains)`` too, ``gains`` mapping
    each selection of the run to its ``(g_b, g_w)``.  Each block's gains
    are dropped before the next block runs, and the run is closed however
    this returns, so a ``fold`` that raises leaves no worker running.  With
    ``progress``, a ``[k/n blocks]`` line with the elapsed time and an ETA
    goes to stderr at most once a second, and after the last block.
    """
    readers: dict[tuple, list[int]] = {selection: [] for selection in (tap[0] if tap is not None else ())}
    for i, (*_, configs) in enumerate(points):
        for selection in configs.values():
            readers.setdefault(selection, []).append(i)
    levels = {selection: event_levels(points[i][1:3] for i in where) for selection, where in readers.items()}
    totals = {selection: np.zeros((len(where), 3), dtype=np.int64) for selection, where in readers.items()}

    def count(start, gains):
        for selection, (g_b, g_w) in zip(readers, gains):
            totals[selection] += count_events(g_b, g_w, levels[selection])
        if tap is not None:
            tap[1](start, dict(zip(readers, gains)))

    n_blocks, done = -(-mc.trials // montecarlo.BLOCK_TRIALS), 0
    began = shown = time.monotonic()
    with contextlib.closing(simulate_group(mc, list(readers))) as blocks:
        for start, gains in blocks:
            count(start, gains)
            del gains  # the loop would rebind it only after the next block has run
            done += 1
            now = time.monotonic()
            if progress and (done == n_blocks or now - shown >= 1.0):
                shown, elapsed = now, now - began
                print(f"[{done}/{n_blocks} blocks] {elapsed:.1f} s elapsed, "
                      f"ETA {elapsed * (n_blocks - done) / done:.1f} s", file=sys.stderr)
    # Each selection's rows of totals follow its points in order.
    cells = {selection: iter(total.tolist()) for selection, total in totals.items()}
    return [{selection: next(cells[selection]) for selection in configs.values()} for *_, configs in points]


def _sweep_rows(points, counts, trials: int, geom: SurfaceGeometry) -> list[dict[str, float | None]]:
    """One CSV row per point of :func:`_sweep_points`, from the counts of :func:`_simulate` over ``trials``."""
    fits = {m_o: _gamma_fit(geom, m_o) for m_o in dict.fromkeys(cfg.m_o for _, cfg, *_ in points)}
    rows: list[dict[str, float | None]] = []
    for (value, cfg, zeta, configs), cells in zip(points, counts):
        fit = fits[cfg.m_o]
        p_fa = analytics.fa_probability(cfg, zeta)
        p_md = analytics.md_probability(fit, cfg, zeta)
        row: dict[str, float | None] = {name: None for name in CSV_COLUMNS}
        row.update(swept_value=value, zeta=zeta, analytic_pfa=p_fa, analytic_pmd=p_md,
                   analytic_op=analytics.outage_probability(fit, cfg), analytic_cop=analytics.cop(cfg, p_fa, p_md),
                   analytic_xi=analytics.error_probability_xi(cfg, p_fa, p_md),
                   analytic_psuc=analytics.success_probability(fit, cfg, zeta))
        for mode, key in configs.items():
            cell = cells[key]
            for metric, est in (("op", estimate_op(cell, trials)), ("cop", estimate_cop(cell, trials, cfg, zeta)),
                                ("psuc", estimate_success(cell, trials, cfg, zeta))):
                name = f"{mode.value}_{metric}"
                row[name], row[f"{name}_lo"], row[f"{name}_hi"] = est.value, est.ci_low, est.ci_high
        rows.append(row)
    return rows


def run_sweep(
    scenario: ScenarioConfig,
    geom: SurfaceGeometry,
    mc: MCConfig,
    spec: SweepSpec,
    modes: tuple[Mode, ...] = tuple(Mode),
    progress: bool = False,
) -> SweepResult:
    """Evaluate closed forms and enabled empirical modes at each sweep point.

    Deterministic given the master seed.  Every ``(surface, mode, m_o)``
    selection the sweep needs, over all points and modes, runs in one run
    ``mc``, so each block is drawn once for all of them (see
    :func:`montecarlo.simulate_group`).  The swept link parameters only
    move the levels that each block's gains are counted against as the
    block arrives, so no gain outlives its block.
    """
    points = _sweep_points(scenario, geom, spec, modes)
    counts = _simulate(mc, points, progress)
    return SweepResult(spec.variable, _sweep_rows(points, counts, mc.trials, geom))


def run_validate(scenario: ScenarioConfig, geom: SurfaceGeometry, mc: MCConfig, spec: SweepSpec) -> list[tuple]:
    """Closed-form versus Monte Carlo oracle comparisons, one ``(label, measured, tolerance, passed)`` gate each.

    The gap gates read the closed-form and ``fixed`` cells of the sweep's
    rows, at each swept value.  The gates' own selections join the sweep's
    ``FIXED`` selections in one run, so each block is drawn once and leaves
    what the gates read: its counts, each preset's gain sum and first
    ``KS_TRIALS`` gains, and the draws where the ranking dominates.
    """
    points = _sweep_points(scenario, geom, spec, (Mode.FIXED,))
    fixed = [(geom, Mode.FIXED, m_o) for m_o in (16, 36) if m_o <= geom.num_elements]
    best, lattice = (geom, Mode.FRIS, scenario.m_o), (geom, Mode.RIS, scenario.m_o)
    sums, sample, dominated = [0.0] * len(fixed), np.empty((len(fixed), min(KS_TRIALS, mc.trials))), 0

    def fold(start, gains):
        # Each preset's gain sum and the block's share of the KS gate's sample,
        # and the draws where the ranking dominates, added in block order.
        nonlocal dominated
        for j, key in enumerate(fixed):
            sums[j] += float(np.sum(gains[key][0]))
            head = gains[key][0][: max(0, KS_TRIALS - start)]
            sample[j, start : start + head.size] = head
        dominated += _dominating_draws(gains[best][0], gains[lattice][0], scenario.m_o)

    counts = _simulate(mc, points, tap=([*fixed, best, lattice], fold))

    gates = []
    for j, (*_, m_o) in enumerate(fixed):
        fit = _gamma_fit(geom, m_o)
        rel = abs(sums[j] / mc.trials - fit.mean) / fit.mean
        gates.append((f"mean gain vs Gamma-fit mean (m_o={m_o})", rel, 0.02, rel <= 0.02))
        ks = ks_distance(sample[j], fit)
        gates.append((f"KS distance to compound Gamma-exponential law (m_o={m_o})", ks, 0.05, ks <= 0.05))

    rows = _sweep_rows(points, counts, mc.trials, geom)
    for metric, event in (("op", "outage"), ("cop", "covertness outage"), ("psuc", "success")):
        gap = max(abs(row[f"analytic_{metric}"] - row[f"fixed_{metric}"]) for row in rows)
        gates.append((f"max |analytic - empirical| {event} over sweep", gap, 0.02, gap <= 0.02))

    dominance = dominated / mc.trials
    gates.append(("per-draw best-product dominance over fixed sublattice", dominance, 1.0, dominance >= 1.0))
    return gates


def _dominating_draws(best: np.ndarray, lattice: np.ndarray, m_o: int) -> int:
    """The draws whose best-port gain ``best`` is at least the lattice's, up to the rounding of their sums.

    Each gain is the square of a sum of ``m_o`` non-negative terms, and at
    ``m_o`` equal to the ports both sum the same terms in different orders.
    A sum of ``n`` such terms lies within ``(n - 1) u / (1 - (n - 1) u)`` of
    its exact value (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, sec. 4.2), ``u`` being half the machine epsilon, so
    its square lies within about ``(2 n - 1) u``, and two gains whose exact
    values are equal differ by less than ``2 m_o`` epsilons, relatively.
    """
    slack = 2 * m_o * np.finfo(float).eps
    return int(np.count_nonzero(best >= (1.0 - slack) * lattice))
