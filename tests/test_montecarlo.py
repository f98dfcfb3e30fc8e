import contextlib
import dataclasses
import itertools
import json
import math
import sys
import textwrap
import threading
import time
import tracemalloc
from itertools import starmap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friscov import (
    DomainError,
    GammaFit,
    MCConfig,
    Mode,
    ScenarioConfig,
    SurfaceGeometry,
    compound_probability,
    cop,
    dbm_to_watt,
    default_fixed_preset,
    estimate_cop,
    estimate_op,
    estimate_success,
    fa_probability,
    gamma_moment_match,
    ks_distance,
    md_probability,
    optimal_threshold,
    outage_probability,
    simulate_group,
    success_probability,
    surface_factor,
)
from friscov import montecarlo, runs
from friscov.analytics import missed_level, outage_level
from friscov.channel import best_product_order, cascade, correlated_tile, ris_grid_geometry, tile_normals
from friscov.montecarlo import (BLOCK_TRIALS, MAX_WORKERS, TILE_TRIALS, count_events, event_levels, mix64,
                                 wilson_interval)
from fresh import fresh_python
from gains import Gains, run_gains, whole_gains
from oracles import ks_distance_dense


def fixed_static(geom, trials=20_000, seed=1, m_o=36, workers=1) -> Gains:
    """The gains of the default preset of ``m_o`` ports on ``geom``."""
    return whole_gains(MCConfig(trials=trials, master_seed=seed, workers=workers), geom, [(Mode.FIXED, m_o)])[0]


def counted(gains: Gains, cfg: ScenarioConfig, zeta: float = 0.0) -> tuple[list[int], int]:
    """The event counts of ``gains`` at the levels of ``cfg`` and threshold ``zeta``, and their trials."""
    return count_events(*gains, event_levels([(cfg, zeta)]))[0].tolist(), gains.g_b.size


@pytest.fixture(scope="module")
def gains_5k(ref_geom) -> Gains:
    return fixed_static(ref_geom, trials=5_000)


@pytest.fixture(scope="module")
def gains_20k(ref_geom) -> Gains:
    return fixed_static(ref_geom, trials=20_000)


@pytest.fixture(scope="module")
def gains_200k(ref_geom) -> Gains:
    return fixed_static(ref_geom, trials=200_000)


@pytest.fixture(scope="module")
def fit36(ref_geom, ref_corr) -> GammaFit:
    ports = default_fixed_preset(ref_geom, 36)
    return gamma_moment_match(ref_corr[np.ix_(ports, ports)])


class TestSubstreams:
    def test_mix64_is_deterministic_and_spreads(self):
        assert mix64(1, 0) == mix64(1, 0)
        seeds = {mix64(12345, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_gains_independent_of_worker_count(self, ref_geom):
        one = fixed_static(ref_geom, trials=30_000, seed=7, workers=1)
        four = fixed_static(ref_geom, trials=30_000, seed=7, workers=4)
        assert np.array_equal(one.g_b, four.g_b)
        assert np.array_equal(one.g_w, four.g_w)

    def test_gains_change_with_seed(self, ref_geom):
        a = fixed_static(ref_geom, trials=5_000, seed=1)
        b = fixed_static(ref_geom, trials=5_000, seed=2)
        assert not np.array_equal(a.g_b, b.g_b)

    def test_a_run_is_a_prefix_of_every_longer_run(self, ref_geom):
        # Each tile draws from its own substream at its full width and runs
        # in panels (halves beside a helper thread, else the whole tile), each
        # at its full width, a partial last one too, so a run of n trials is
        # the first n trials of a longer run, on every surface and mode.
        selections = [(geom, mode, m_o) for geom, m_o in
                      ((ref_geom, 36), (ris_grid_geometry(ref_geom, 27), 9), (ris_grid_geometry(ref_geom, 97), 97))
                      for mode in Mode]
        long = run_gains(MCConfig(trials=9_000, master_seed=1), selections)
        for trials in (1, 511, 513, 4_097, 5_001):
            short = run_gains(MCConfig(trials=trials, master_seed=1), selections)
            for (geom, *selection), gains, full in zip(selections, short, long):
                assert np.array_equal(gains.g_b, full.g_b[:trials]), (trials, geom.m_x, selection)
                assert np.array_equal(gains.g_w, full.g_w[:trials]), (trials, geom.m_x, selection)

    def test_gains_do_not_depend_on_the_blas_threads(self):
        # A fresh interpreter per thread count: OpenBLAS reads it once, when
        # numpy loads.  A run would pin one thread, so the setter is taken
        # away and the run correlates inline on the count it found.  5001
        # trials end in a partial tile.
        script = (
            "import hashlib\n"
            "from friscov import MCConfig, Mode, SurfaceGeometry, montecarlo, simulate_group\n"
            "from friscov.channel import ris_grid_geometry\n"
            "openblas = montecarlo._openblas\n"
            "montecarlo._openblas = lambda name: None if name == 'set_num_threads' else openblas(name)\n"
            "geom = SurfaceGeometry(12, 12, 2.0, 2.0)\n"
            "selections = [(g, mode, 9) for g in (geom, ris_grid_geometry(geom, 27)) for mode in Mode]\n"
            "digest = hashlib.sha256()\n"
            "for start, block in simulate_group(MCConfig(trials=5_001, master_seed=3), selections):\n"
            "    for g_b, g_w in block:\n"
            "        digest.update(g_b.tobytes() + g_w.tobytes())\n"
            "threads = openblas('get_num_threads')\n"
            "print(digest.hexdigest(), threads() if threads else 0)\n"
        )
        runs = {}
        for threads in ("1", "2"):
            run = fresh_python("-c", script, OPENBLAS_NUM_THREADS=threads)
            assert run.returncode == 0, run.stderr
            runs[threads] = run.stdout.split()
        assert runs["1"][0] == runs["2"][0]
        if montecarlo._openblas("get_num_threads") and montecarlo._cpus() > 1:
            assert (runs["1"][1], runs["2"][1]) == ("1", "2")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_block_is_yielded_once_in_block_order(self, ref_geom, workers):
        mc = MCConfig(trials=3 * BLOCK_TRIALS + 7, master_seed=1, workers=workers)
        selections = [(ref_geom, Mode.FIXED, 36), (ref_geom, Mode.FRIS, 4), (ref_geom, Mode.RIS, 16)]
        blocks = starmap(lambda start, gains: (start, [g_b.size for g_b, g_w in gains]), simulate_group(mc, selections))
        assert list(blocks) == [(k * BLOCK_TRIALS, [n, n, n]) for k, n in enumerate([BLOCK_TRIALS] * 3 + [7])]


class TestMCConfigValidation:
    # The run's own fields, then a selection's: a Mode, and an int m_o in
    # [1, ports].
    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(master_seed=-1), dict(master_seed=2**64),
        dict(workers=0), dict(m_o=0), dict(mode="fixed"), dict(m_o=36.0),
    ])
    def test_rejects(self, ref_geom, kwargs):
        fields = {**dict(trials=10, master_seed=1, workers=1, mode=Mode.FIXED, m_o=36), **kwargs}
        with pytest.raises(DomainError):
            mc = MCConfig(trials=fields["trials"], master_seed=fields["master_seed"], workers=fields["workers"])
            whole_gains(mc, ref_geom, [(fields["mode"], fields["m_o"])])

    def test_m_o_exceeding_ports(self, ref_geom):
        with pytest.raises(DomainError):
            fixed_static(ref_geom, trials=10, m_o=145)

    @pytest.mark.parametrize("field, message", [
        ("trials", "trials must be a positive integer"),
        ("master_seed", "master_seed must be a 64-bit unsigned integer"),
        ("workers", "workers must be a positive integer"),
    ])
    def test_rejects_bool(self, field, message):
        # bool is an int, so True would otherwise pass as 1.
        with pytest.raises(DomainError, match=f"{message}, got True"):
            MCConfig(**{**dict(trials=10, master_seed=1, workers=1), field: True})

    def test_workers_beyond_bound_rejected(self):
        # A pool starts up to ``workers`` threads, so a library caller is held
        # to the bound the CLI sets; only constructed, never run.
        assert MCConfig(trials=1, master_seed=1, workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(DomainError, match=f"at most {MAX_WORKERS} workers"):
            MCConfig(trials=1, master_seed=1, workers=MAX_WORKERS + 1)


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in [(0, 50), (1, 50), (25, 50), (50, 50), (999, 1000)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 200)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(200, 200)
        assert hi == 1.0 and lo < 1.0

    def test_invalid(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 4)


class TestEstimators:
    def test_op_zero_rate_is_exactly_zero(self, gains_5k):
        cfg = dataclasses.replace(ScenarioConfig(), r_b=0.0)
        est = estimate_op(*counted(gains_5k, cfg))
        assert est.value == 0.0

    def test_op_saturates_at_high_power(self, gains_5k):
        cfg = dataclasses.replace(ScenarioConfig(), p_a=1e3)
        est = estimate_op(*counted(gains_5k, cfg))
        assert est.value == 0.0

    def test_op_matches_analytic_at_reference_point(self, ref_geom, ref_corr, gains_200k):
        # both sides effectively saturate at 0 dBm transmit power
        cfg = ScenarioConfig()
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
        est = estimate_op(*counted(gains_200k, cfg))
        assert abs(est.value - outage_probability(fit, cfg)) <= 0.02

    def test_cop_below_noise_floor_is_exactly_p1(self, gains_5k):
        cfg = ScenarioConfig()
        est = estimate_cop(*counted(gains_5k, cfg, cfg.sigma2_w), cfg, cfg.sigma2_w)
        assert est.value == cfg.p1

    def test_cop_at_huge_threshold_is_exactly_p0(self, gains_5k):
        cfg = ScenarioConfig()
        est = estimate_cop(*counted(gains_5k, cfg, 1.0), cfg, 1.0)
        assert est.value == cfg.p0

    def test_cop_matches_analytic_at_reference_point(self, ref_geom, ref_corr, gains_200k):
        from friscov import cop, fa_probability, md_probability

        cfg = dataclasses.replace(ScenarioConfig(), mu_offset=ScenarioConfig().sigma2_w)
        zeta = optimal_threshold(cfg)
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
        analytic = cop(cfg, fa_probability(cfg, zeta), md_probability(fit, cfg, zeta))
        est = estimate_cop(*counted(gains_200k, cfg, zeta), cfg, zeta)
        assert abs(est.value - analytic) <= 0.02

    def test_success_degenerate_corner(self, gains_5k):
        # zero rate and a threshold at the noise floor: the only error
        # the warden can make is the certain false alarm
        cfg = dataclasses.replace(ScenarioConfig(), r_b=0.0)
        est = estimate_success(*counted(gains_5k, cfg, cfg.sigma2_w), cfg, cfg.sigma2_w)
        assert est.value == cfg.p0

    def test_counts_against_the_closed_forms_levels(self):
        # A gain just below a level is the event (outage, missed detection);
        # a gain at the level is not.
        cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(-45.0))
        zeta = optimal_threshold(cfg)
        x_b, eta = outage_level(cfg), missed_level(cfg, zeta)
        gains = Gains(g_b=np.array([np.nextafter(x_b, 0.0), x_b, x_b, 2.0 * x_b]),
                      g_w=np.array([eta, np.nextafter(eta, 0.0), 2.0 * eta, 0.5 * eta]))
        assert counted(gains, cfg, zeta) == ([1, 2, 2], 4)
        assert estimate_op(*counted(gains, cfg, zeta)).value == 0.25
        assert estimate_cop(*counted(gains, cfg, zeta), cfg, zeta).value == cfg.p0 + cfg.p1 * 0.5
        assert estimate_success(*counted(gains, cfg, zeta), cfg, zeta).value == cfg.p1 * 0.5

    def test_success_vanishes_at_power_extremes(self, gains_5k):
        low = dataclasses.replace(ScenarioConfig(), p_a=1e-15)
        high = dataclasses.replace(ScenarioConfig(), p_a=1e3)
        for cfg in (low, high):
            zeta = optimal_threshold(cfg)
            assert estimate_success(*counted(gains_5k, cfg, zeta), cfg, zeta).value <= 1e-3

    def test_ci_brackets_and_range(self, ref_geom):
        gains = fixed_static(ref_geom, trials=2_000)
        for dbm in (-50.0, -40.0, -30.0):
            cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(dbm))
            zeta = optimal_threshold(cfg)
            cell = counted(gains, cfg, zeta)
            for est in (estimate_op(*cell), estimate_cop(*cell, cfg, zeta), estimate_success(*cell, cfg, zeta)):
                assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0
                assert est.trials == 2_000

    def test_estimates_reproducible_across_worker_counts(self, ref_geom):
        cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(-45.0))
        zeta = optimal_threshold(cfg)
        values = []
        for workers in (1, 3):
            gains = fixed_static(ref_geom, trials=30_000, seed=99, workers=workers)
            cell = counted(gains, cfg, zeta)
            values.append((estimate_op(*cell).value,
                           estimate_cop(*cell, cfg, zeta).value,
                           estimate_success(*cell, cfg, zeta).value))
        assert values[0] == values[1]


# The points of the default power grid (-60 to -10 dBm, 25 points) where
# the closed-form outage, covertness outage and success all lie in
# (0.05, 0.95), so that neither side sits at a saturated corner.
UNSATURATED_DBM = np.linspace(-60.0, -10.0, 25)[7:15].tolist()


class TestClosedFormAgreement:
    """The closed form against the fixed preset it describes, at the validate gates' 0.02."""

    @pytest.mark.parametrize("metric", ["op", "cop", "psuc"])
    @pytest.mark.parametrize("dbm", UNSATURATED_DBM, ids=lambda dbm: f"{dbm:.2f}dBm")
    def test_matches_fixed_preset_monte_carlo(self, gains_20k, fit36, dbm, metric):
        cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(dbm))
        zeta = optimal_threshold(cfg)
        cell = counted(gains_20k, cfg, zeta)
        if metric == "op":
            analytic, empirical = outage_probability(fit36, cfg), estimate_op(*cell)
        elif metric == "cop":
            p_md = md_probability(fit36, cfg, zeta)
            analytic, empirical = cop(cfg, fa_probability(cfg, zeta), p_md), estimate_cop(*cell, cfg, zeta)
        else:
            analytic, empirical = success_probability(fit36, cfg, zeta), estimate_success(*cell, cfg, zeta)
        assert 0.05 < analytic < 0.95
        assert abs(analytic - empirical.value) <= 0.02


def group_selections(m_os=(1, 2, 16, 144)) -> list[tuple[Mode, int]]:
    """Every mode at each ``m_o``; at 144 the presets are the full grid."""
    return [(mode, m_o) for m_o in m_os for mode in Mode]


class TestGroups:
    def test_gains_do_not_depend_on_the_group(self, ref_geom):
        # 4097 trials: one full block and a one-trial block.  Selections on
        # the 12x12 surface and on a 7-element RIS grid, interleaved, with
        # one given twice: each entry has the gains of a run of its own, and
        # the repeated one two equal arrays that share no memory.
        selections = group_selections()
        alone = [whole_gains(MCConfig(trials=4_097, master_seed=5), ref_geom, [pick])[0] for pick in selections]
        preset = [j for j, (mode, _) in enumerate(selections) if mode is not Mode.FRIS]
        grid = ris_grid_geometry(ref_geom, 7)
        interleaved = [(ref_geom, Mode.FRIS, 16), (grid, Mode.RIS, 7), (ref_geom, Mode.FIXED, 144),
                       (grid, Mode.FRIS, 3), (ref_geom, Mode.FRIS, 16), (grid, Mode.FIXED, 2), (ref_geom, Mode.RIS, 1)]
        own = {pick: run_gains(MCConfig(trials=4_097, master_seed=5), [pick])[0] for pick in interleaved}
        for workers in (1, 2):
            mc = MCConfig(trials=4_097, master_seed=5, workers=workers)
            for picks in (range(len(selections)), preset, preset[::-1]):
                group = [selections[j] for j in picks]
                for j, gains in zip(picks, whole_gains(mc, ref_geom, group)):
                    assert np.array_equal(gains.g_b, alone[j].g_b), selections[j]
                    assert np.array_equal(gains.g_w, alone[j].g_w), selections[j]
            for entries in (interleaved, interleaved[::-1]):
                run = run_gains(mc, entries)
                assert len(run) == len(entries)
                for pick, gains in zip(entries, run):
                    assert np.array_equal(gains.g_b, own[pick].g_b), (workers, pick)
                    assert np.array_equal(gains.g_w, own[pick].g_w), (workers, pick)
            for _, gains in simulate_group(mc, interleaved):
                for first, again in zip(gains[0], gains[4]):
                    assert np.array_equal(first, again) and not np.shares_memory(first, again)

    def test_gains_do_not_depend_on_the_run(self, ref_geom):
        # Surfaces of rank 33 (12x12), 24 (3x9) and 12 (1x97) share one draw
        # per block, each reading the first rows of its rank, so each gives
        # the gains of a run of its own.  4097 trials: one full block and a
        # one-trial block.
        grids = {m_hat: ris_grid_geometry(ref_geom, m_hat) for m_hat in (27, 97)}
        assert [(grid.m_x, grid.m_z) for grid in grids.values()] == [(3, 9), (1, 97)]
        surfaces = [[(ref_geom, *pick) for pick in group_selections((16, 144))]] + [
            [(grid, Mode.RIS, m_hat), (grid, Mode.FRIS, 5)] for m_hat, grid in grids.items()]
        assert [surface_factor(selections[0][0]).shape[1] for selections in surfaces] == [33, 24, 12]
        alone = [run_gains(MCConfig(trials=4_097, master_seed=5), selections) for selections in surfaces]
        for workers in (1, 2):
            mc = MCConfig(trials=4_097, master_seed=5, workers=workers)
            for order in ([0, 1, 2], [2, 1, 0], [1, 2]):
                together = run_gains(mc, [selection for g in order for selection in surfaces[g]])
                owns = [(g, selection, own) for g in order for selection, own in zip(surfaces[g], alone[g])]
                assert len(together) == len(owns)
                for gains, (g, (_, *selection), own) in zip(together, owns):
                    assert np.array_equal(gains.g_b, own.g_b), (workers, order, g, selection)
                    assert np.array_equal(gains.g_w, own.g_w), (workers, order, g, selection)

    def test_prefix_sums_match_a_cascade_per_m_o(self, ref_geom):
        # Every fluid m_o of the group is read off one ranking and one running
        # sum; each must equal a cascade over its own top rows of the tile.
        trials = 4_097  # eight full tiles and a one-trial tile
        group = [(Mode.FRIS, m_o) for m_o in range(1, 145)]
        samples = whole_gains(MCConfig(trials=trials, master_seed=5), ref_geom, group)
        root = surface_factor(ref_geom)
        for tile, start in enumerate(range(0, trials, TILE_TRIALS)):
            count = min(TILE_TRIALS, trials - start)
            z = tile_normals(np.random.default_rng(mix64(5, tile)), root.shape[1], TILE_TRIALS)
            a, b, c = correlated_tile(root, z)
            ranked = [np.take_along_axis(v, best_product_order(a, b), axis=0) for v in (a, b, c)]
            for (_, m_o), gains in zip(group, samples):
                g_b, g_w = cascade([True], *(v[:m_o] for v in ranked))[0]
                assert np.array_equal(gains.g_b[start : start + count], g_b[:count]), (m_o, tile)
                assert np.array_equal(gains.g_w[start : start + count], g_w[:count]), (m_o, tile)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [512, 1_024, 8_192])
    @pytest.mark.parametrize("trials", [513, 9_001])
    def test_gains_do_not_depend_on_the_block_size(self, ref_geom, monkeypatch, trials, block, workers):
        # The block is the unit of the caller's fold and of the pool, not of the
        # draws: a run gives the same gains in blocks of any multiple of the
        # tile, at any worker count.  Both runs end in a partial tile.
        selections = [(geom, *pick) for geom, m_os in ((ref_geom, (1, 2, 16, 36, 144)),
                                                       (ris_grid_geometry(ref_geom, 27), (9, 27)))
                      for pick in group_selections(m_os)]
        default = run_gains(MCConfig(trials=trials, master_seed=5), selections)
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
        blocked = run_gains(MCConfig(trials=trials, master_seed=5, workers=workers), selections)
        assert len(blocked) == len(default) == len(selections)
        for (geom, *selection), gains, own in zip(selections, blocked, default):
            assert np.array_equal(gains.g_b, own.g_b), (geom.m_x, selection)
            assert np.array_equal(gains.g_w, own.g_w), (geom.m_x, selection)

    def test_blocks_start_on_tile_edges(self, ref_geom, monkeypatch):
        # A block that starts inside a tile would draw that tile's substream again.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 100)
        with pytest.raises(DomainError, match="multiple of TILE_TRIALS"):
            fixed_static(ref_geom, trials=1_000)

    def test_block_memory_is_bounded(self, ref_geom):
        # The unit is a block's normals at full rank over the 144 ports.  The
        # kernel draws one 512-trial tile of rank-33 normals at a time (0.03x)
        # into a buffer held for the block, correlates it (0.13x) tile by
        # tile, or half-tile panel by panel beside a helper thread, then
        # ranks, gathers and cascades each, so its peak follows the tile:
        # about 0.23x for the three compared surfaces at m_o = 36 and 0.43x
        # at m_o = 144, where the fluid surface gathers every row of a tile
        # (panels: 0.23x and 0.30x).  The sweep-ports group reads 12 presets
        # (0.49x; panels: 0.36x); it stays there only if each gather is
        # dropped before the next.  Five blocks stay under the bound of one.
        trials = BLOCK_TRIALS
        sweep_m_os = [4, 16, 27, 39, 51, 62, 74, 86, 97, 109, 121, 132, 144]
        groups = [
            (trials, group_selections((36,)), 0.3),
            (5 * trials, group_selections((36,)), 0.3),
            (trials, group_selections((144,)), 0.5),
            (trials, [(mode, m_o) for m_o in sweep_m_os for mode in (Mode.FRIS, Mode.FIXED)], 0.6),
        ]
        normals = 3 * 2 * ref_geom.num_elements * trials * 8
        for run_trials, group, bound in groups:
            tracemalloc.start()
            try:
                blocks = simulate_group(MCConfig(trials=run_trials, master_seed=1), [(ref_geom, *s) for s in group])
                yielded = sum(starmap(lambda start, gains: len(gains), blocks))
                ratio = tracemalloc.get_traced_memory()[1] / normals
            finally:
                tracemalloc.stop()
            assert yielded == run_trials // BLOCK_TRIALS * len(group)
            assert ratio <= bound, (len(group), run_trials, group[-1], ratio)

    @staticmethod
    def _peak(geom, group, trials: int, workers: int = 1) -> int:
        tracemalloc.start()
        try:
            run = simulate_group(MCConfig(trials=trials, master_seed=1, workers=workers), [(geom, *s) for s in group])
            yielded = sum(starmap(lambda start, gains: len(gains), run))
            assert yielded == -(-trials // montecarlo.BLOCK_TRIALS) * len(group)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_follow_the_block(self, ref_geom, monkeypatch):
        # A block draws and runs one tile at a time, so a 16-tile block peaks
        # where a one-tile block does, plus its longer outputs: 16 B per trial
        # and selection, here 360 KiB.  The slack covers small Python objects.
        # Both are pinned to run inline; what a helper thread adds is
        # TestDrawAhead's.
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        group = group_selections((36,))
        trials = 8_192
        peaks = {}
        for block in (512, trials):
            monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
            peaks[block] = self._peak(ref_geom, group, trials)
        outputs = 16 * (trials - 512) * len(group)
        assert peaks[trials] <= peaks[512] + outputs + 65_536, peaks

    def test_each_worker_adds_at_most_one_tile_working_set(self, ref_geom, monkeypatch):
        # Each worker holds one tile's normals and fading vectors, the tile's
        # temporaries and its block's outputs, so three workers more add at
        # most three one-tile working sets (the peak of a one-tile run) and
        # three blocks of outputs.  The slack covers the pool's threads and
        # futures, once the pool is imported.  Finished blocks also wait for
        # the caller with their outputs, up to four more here (0.8 MB); the
        # workers' tile peaks do not all coincide, so they fit the bound.
        # A pool's blocks run inline; the serial runs are pinned to run inline
        # too, so the difference is the workers'.  What a helper thread adds
        # to a serial run is TestDrawAhead's.
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        group = group_selections((36,))
        self._peak(ref_geom, group, 2 * BLOCK_TRIALS, workers=2)  # the pool's first import
        working_set = self._peak(ref_geom, group, TILE_TRIALS) + 16 * BLOCK_TRIALS * len(group)
        one, four = (self._peak(ref_geom, group, 8 * BLOCK_TRIALS, workers) for workers in (1, 4))
        assert four - one <= 3 * working_set + 524_288, (one, four, working_set)

    def test_counted_memory_is_flat_in_trials(self, ref_geom):
        # Each block is counted at 25 power levels as it arrives and dropped,
        # so 16 blocks peak where 2 do: only their counts accumulate.  In a
        # run of three surfaces, a block's tiles run through every surface
        # before its gains are counted, so the three surfaces' outputs (16 B
        # per trial and selection) coexist for one block, not for the run.
        cfgs = [dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(dbm)) for dbm in np.linspace(-60, -10, 25)]
        levels = event_levels((cfg, optimal_threshold(cfg)) for cfg in cfgs)
        fluid = [(ref_geom, *pick) for pick in group_selections((36,))]
        grids = [(ris_grid_geometry(ref_geom, m_hat), Mode.RIS, m_hat) for m_hat in (27, 97)]

        def peak(selections, blocks: int) -> int:
            tracemalloc.start()
            try:
                run = simulate_group(MCConfig(trials=blocks * BLOCK_TRIALS, master_seed=1), selections)
                cells = starmap(lambda start, gains: [count_events(*pair, levels) for pair in gains], run)
                assert sum(map(len, cells)) == blocks * len(selections)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for selections in (fluid, fluid + grids):
            two, sixteen = peak(selections, 2), peak(selections, 16)
            assert sixteen <= 1.02 * two, (len(selections), two, sixteen)

    def test_pool_memory_is_flat_in_blocks(self, monkeypatch):
        # Two workers keep at most four blocks in flight and the caller takes
        # each block as it comes, so the run keeps nothing per block.  The
        # peak moves by a few KB with how the workers' temporaries overlap;
        # an 8-byte slot per block would add 24 KB, and a pending future per
        # block (about 1.6 KB each) far more.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 8)
        monkeypatch.setattr(montecarlo, "TILE_TRIALS", 8)
        geom = SurfaceGeometry(2, 2, 1.0, 1.0)

        def peak(blocks: int) -> int:
            tracemalloc.start()
            try:
                run = simulate_group(MCConfig(trials=8 * blocks, master_seed=1, workers=2), [(geom, Mode.FIXED, 4)])
                assert sum(starmap(lambda start, gains: len(gains), run)) == blocks
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # the pool's first import
        few, many = peak(200), peak(3_200)
        assert many - few <= 12_288, (few, many)

    @pytest.mark.parametrize("end", ["close", "raise"])
    def test_pool_ends_with_the_iterator(self, monkeypatch, end):
        # Two workers, one tile a block: the first block comes back with four
        # submitted.  Closing the iterator then waits for the three in flight
        # and draws no more tiles; an exception in the third block's kernel
        # reaches the caller once the three after it are done.  Either way the
        # pool's threads end, and every tile is drawn in a worker.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 8)
        monkeypatch.setattr(montecarlo, "TILE_TRIALS", 8)
        geom = SurfaceGeometry(2, 2, 1.0, 1.0)
        threads = threading.active_count()
        tiles = {mix64(1, k): k for k in range(100)}
        drawn = []

        def drawing(rng, *args, **kwargs):
            k = tiles[rng.bit_generator.seed_seq.entropy]
            drawn.append((k, threading.current_thread() is threading.main_thread()))
            if end == "raise" and k == 2:
                raise RuntimeError("kernel failed")
            return tile_normals(rng, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "tile_normals", drawing)
        blocks = simulate_group(MCConfig(trials=8 * 100, master_seed=1, workers=2), [(geom, Mode.FIXED, 4)])
        if end == "close":
            assert next(blocks)[0] == 0
            blocks.close()
        else:
            with pytest.raises(RuntimeError, match="kernel failed"):
                for _ in blocks:
                    pass
        assert threading.active_count() == threads
        assert sorted(drawn) == [(k, False) for k in range(4 if end == "close" else 6)]

    def test_empty_group(self, ref_geom):
        assert list(simulate_group(MCConfig(trials=10, master_seed=1), [])) == []

    def test_m_o_exceeding_ports_rejected_in_group(self, ref_geom):
        with pytest.raises(DomainError):
            whole_gains(MCConfig(trials=10, master_seed=1), ref_geom, [(Mode.FIXED, 36), (Mode.FIXED, 145)])

    def test_bool_m_o_rejected(self):
        # bool is an int, so True would otherwise select a one-port preset.
        geom = SurfaceGeometry(4, 4, 2.0, 2.0)
        with pytest.raises(DomainError, match=r"m_o must be an integer in \[1, 16\] \(the surface's ports\), got True"):
            run_gains(MCConfig(trials=8, master_seed=1), [(geom, Mode.FIXED, True)])

    @pytest.mark.parametrize("entry", [(SurfaceGeometry(4, 4, 2.0, 2.0), [(Mode.FIXED, 16)]), Mode.FIXED,
                                       (Mode.FIXED, SurfaceGeometry(4, 4, 2.0, 2.0), 16)],
                             ids=["nested", "bare-mode", "out-of-order"])
    def test_an_entry_that_is_no_selection_is_named(self, entry):
        # As the nested per-surface form of earlier versions: each entry is one flat triple.
        geom = SurfaceGeometry(4, 4, 2.0, 2.0)
        with pytest.raises(DomainError, match=r"^selection 1 is .+; expected a \(surface, mode, m_o\) triple"):
            next(simulate_group(MCConfig(trials=8, master_seed=1), [(geom, Mode.FRIS, 4), entry]))


@pytest.fixture
def draw_ahead(monkeypatch):
    """Force the helper thread on or off, whatever CPUs the machine has."""
    return lambda on: monkeypatch.setattr(montecarlo, "_cpus", lambda: 1_000 if on else 1)


class TestDrawAhead:
    @staticmethod
    def _watch(monkeypatch, seed: int, tiles: int) -> tuple[list, list, set]:
        """Record each tile's draw as ``(k, thread)``, each correlation's thread and the threads that run the kernel."""
        index = {mix64(seed, k): k for k in range(tiles)}
        drawn, correlated, kernels = [], [], set()

        def drawing(rng, *args, **kwargs):
            drawn.append((index[rng.bit_generator.seed_seq.entropy], threading.current_thread()))
            return tile_normals(rng, *args, **kwargs)

        def correlating(*args, **kwargs):
            correlated.append(threading.current_thread())
            return correlated_tile(*args, **kwargs)

        def kernel(*args):
            kernels.add(threading.current_thread())
            return panel_gains(*args)

        panel_gains = montecarlo._panel_gains
        monkeypatch.setattr(montecarlo, "tile_normals", drawing)
        monkeypatch.setattr(montecarlo, "correlated_tile", correlating)
        monkeypatch.setattr(montecarlo, "_panel_gains", kernel)
        return drawn, correlated, kernels

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 255, 257, 511, 513, 4_097, 9_000])
    def test_draw_ahead_changes_no_bit(self, ref_geom, monkeypatch, draw_ahead, trials, workers):
        # Only a serial run (one worker or one block) starts a helper; it then
        # draws every tile and correlates every half-tile panel of each
        # block, and the block's thread does neither.  255 trials fill part
        # of the first panel, 257 reach into the second, and a panel that
        # holds no trial of the run is not correlated.  Without a helper a
        # panel is the whole tile.  The 1x97 RIS grid (rank 12) reads a
        # prefix of the rank-33 draw.
        selections = [(ref_geom, mode, 36) for mode in Mode] + [(ris_grid_geometry(ref_geom, 97), Mode.RIS, 97)]
        surfaces = len({geom for geom, *_ in selections})
        mc = MCConfig(trials=trials, master_seed=3, workers=workers)
        tiles = -(-trials // TILE_TRIALS)
        serial = workers == 1 or trials <= BLOCK_TRIALS
        runs = {}
        for on in (True, False):
            draw_ahead(on)
            with monkeypatch.context() as patch:
                drawn, correlated, kernels = self._watch(patch, 3, tiles)
                runs[on] = run_gains(mc, selections)
            helper = on and serial
            assert sorted(k for k, _ in drawn) == list(range(tiles))
            assert len(correlated) == (-(-trials // (TILE_TRIALS // 2)) if helper else tiles) * surfaces
            for thread in [thread for _, thread in drawn] + correlated:
                assert (thread in kernels) is not helper, on
        assert len(runs[True]) == len(runs[False]) == len(selections)
        for gains, own in zip(runs[True], runs[False]):
            assert np.array_equal(gains.g_b, own.g_b)
            assert np.array_equal(gains.g_w, own.g_w)

    @pytest.mark.parametrize("setter, cpus, workers, trials, ahead", [
        pytest.param(True, 2, 1, 2 * BLOCK_TRIALS, True, id="serial-spare-cpu"),
        pytest.param(False, 2, 1, 2 * BLOCK_TRIALS, False, id="blas-on-every-cpu"),
        pytest.param(True, 1, 1, 2 * BLOCK_TRIALS, False, id="one-cpu"),
        pytest.param(True, 8, 2, 2 * BLOCK_TRIALS, False, id="pool"),
        pytest.param(True, 8, 2, BLOCK_TRIALS, True, id="one-block-at-two-workers"),
    ])
    def test_who_draws_ahead(self, ref_geom, monkeypatch, setter, cpus, workers, trials, ahead):
        # Only a serial run starts a helper, and only with a CPU to spare and
        # BLAS pinned to one thread.  A BLAS without the setter keeps its own
        # count, one thread per CPU by default.  A stand-in for OpenBLAS
        # makes the test independent of the BLAS numpy bundles.
        monkeypatch.setattr(montecarlo, "_openblas", lambda name: (lambda *args: 1) if setter else None)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
        drawn, correlated, kernels = self._watch(monkeypatch, 1, trials // TILE_TRIALS)
        run_gains(MCConfig(trials=trials, master_seed=1, workers=workers), [(ref_geom, Mode.FIXED, 36)])
        assert any(thread not in kernels for _, thread in drawn) is ahead
        assert any(thread not in kernels for thread in correlated) is ahead

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_draw_reaches_the_caller(self, ref_geom, monkeypatch, draw_ahead, workers):
        # Block 1's third tile, drawn by the helper at one worker and inline by
        # the pool at two: its exception reaches the caller, and no thread
        # outlives the run (the conftest checks).
        draw_ahead(True)
        error = RuntimeError("draw failed")
        index = {mix64(1, k): k for k in range(24)}

        def drawing(rng, *args, **kwargs):
            if index[rng.bit_generator.seed_seq.entropy] == BLOCK_TRIALS // TILE_TRIALS + 2:
                raise error
            return tile_normals(rng, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "tile_normals", drawing)
        mc = MCConfig(trials=3 * BLOCK_TRIALS, master_seed=1, workers=workers)
        with pytest.raises(RuntimeError) as raised:
            list(simulate_group(mc, [(ref_geom, Mode.FIXED, 36)]))
        assert raised.value is error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_correlation_reaches_the_caller(self, ref_geom, monkeypatch, draw_ahead, workers):
        # The fifth panel's correlation and every one after it fail, on the
        # helper at one worker and in the pool at two: the exception reaches
        # the caller, and no thread outlives the run (the conftest checks).
        draw_ahead(True)
        error = RuntimeError("correlation failed")
        calls = itertools.count()

        def correlating(*args, **kwargs):
            if next(calls) >= 4:
                raise error
            return correlated_tile(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "correlated_tile", correlating)
        mc = MCConfig(trials=3 * BLOCK_TRIALS, master_seed=1, workers=workers)
        with pytest.raises(RuntimeError) as raised:
            list(simulate_group(mc, [(ref_geom, Mode.FIXED, 36)]))
        assert raised.value is error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_kernel_waits_for_the_helper(self, ref_geom, monkeypatch, draw_ahead, workers):
        # The helper correlates tile 0's two panels into the ring and draws
        # tile 1 while the kernel runs the first panel.  The kernel fails
        # during that draw: every draw that began has ended when the exception
        # reaches the caller, no later tile is drawn, and no helper outlives
        # the run (the conftest checks).  One block runs serially, so it has a
        # helper at two workers too.
        draw_ahead(True)
        per_block = BLOCK_TRIALS // TILE_TRIALS
        index = {mix64(1, k): k for k in range(per_block)}
        ahead, began, ended = threading.Event(), [], []

        def drawing(rng, *args, **kwargs):
            k = index[rng.bit_generator.seed_seq.entropy]
            began.append(k)
            if k:
                ahead.set()
                time.sleep(0.05)
            out = tile_normals(rng, *args, **kwargs)
            ended.append(k)
            return out

        def kernel(*args):
            assert ahead.wait(timeout=10)
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(montecarlo, "tile_normals", drawing)
        monkeypatch.setattr(montecarlo, "_panel_gains", kernel)
        mc = MCConfig(trials=BLOCK_TRIALS, master_seed=1, workers=workers)
        with pytest.raises(RuntimeError, match="kernel failed"):
            list(simulate_group(mc, [(ref_geom, Mode.FIXED, 36)]))
        assert sorted(ended) == sorted(began) == [0, 1]

    def test_no_slot_is_rewritten_before_its_gains_are_out(self, ref_geom, monkeypatch, draw_ahead):
        # A kernel that yields the interpreter before it reads its slot, with
        # threads switched every microsecond: the helper, which correlates
        # far faster, must still wait for each slot it reuses, so the gains
        # are those of a run without it.
        selections = [(ref_geom, Mode.FIXED, 36), (ref_geom, Mode.FRIS, 16),
                      (ris_grid_geometry(ref_geom, 97), Mode.RIS, 97)]
        mc = MCConfig(trials=3_000, master_seed=5)
        draw_ahead(False)
        inline = run_gains(mc, selections)
        draw_ahead(True)
        panel_gains = montecarlo._panel_gains

        def slow(*args):
            time.sleep(0.0005)
            return panel_gains(*args)

        monkeypatch.setattr(montecarlo, "_panel_gains", slow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = run_gains(mc, selections)
        finally:
            sys.setswitchinterval(interval)
        assert len(shared) == len(inline) == len(selections)
        for gains, alone in zip(shared, inline):
            assert np.array_equal(gains.g_b, alone.g_b)
            assert np.array_equal(gains.g_w, alone.g_w)

    @pytest.mark.parametrize("end", ["close", "interrupt"])
    def test_an_ended_run_leaves_no_helper(self, ref_geom, monkeypatch, draw_ahead, end):
        # A serial run of three blocks, each with its own helper.  Closed once
        # the first block is out, it starts no second helper; interrupted in
        # the kernel of block 1's third panel (a KeyboardInterrupt, as a
        # signal raises it), it joins block 1's helper before the interrupt
        # reaches the caller.  Either way every thread the run started has
        # ended, and no tile past the helper's ring is drawn.
        draw_ahead(True)
        threads = threading.active_count()
        per_block = BLOCK_TRIALS // TILE_TRIALS
        drawn, correlated, kernels = self._watch(monkeypatch, 1, 3 * per_block)
        panels = itertools.count()
        panel_gains = montecarlo._panel_gains

        def interrupted(*args):
            if end == "interrupt" and next(panels) == 2 * per_block + 2:
                raise KeyboardInterrupt
            return panel_gains(*args)

        monkeypatch.setattr(montecarlo, "_panel_gains", interrupted)
        blocks = simulate_group(MCConfig(trials=3 * BLOCK_TRIALS, master_seed=1), [(ref_geom, Mode.FIXED, 36)])
        if end == "close":
            assert next(blocks)[0] == 0
            blocks.close()
            assert sorted(k for k, _ in drawn) == list(range(per_block))
        else:
            with pytest.raises(KeyboardInterrupt):
                list(blocks)
            assert per_block + 1 <= max(k for k, _ in drawn) <= per_block + 2
        assert threading.active_count() == threads

    def test_the_helper_adds_no_buffer(self, ref_geom, monkeypatch, draw_ahead):
        # A 16-tile block holds one tile of normals and one tile of fading
        # vectors either way: with a helper, a ring of two half-tile slots;
        # inline, one whole-tile slot.  So the helper adds less than one slot
        # (3 links x 144 ports x half a tile of complex entries, 1.7 MiB):
        # only its thread and queues, and the panels' temporaries are halves.
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 16 * TILE_TRIALS)
        group = group_selections((36,))
        peaks = {}
        for on in (True, False):
            draw_ahead(on)
            peaks[on] = TestGroups._peak(ref_geom, group, 16 * TILE_TRIALS)
        assert peaks[True] <= peaks[False] + 65_536, peaks


# A fresh interpreter whose OpenBLAS runs on two threads, unless the
# environment sets the count: ``threads()`` reads the count, every kernel call
# adds it to ``read``, every draw adds its thread to ``drawn``, a kernel raises
# once ``fail`` holds an entry, and ``run(workers)`` is a run of three blocks.
_PIN_PRELUDE = """
import json, os, threading
from friscov import MCConfig, Mode, SurfaceGeometry, montecarlo, simulate_group
from friscov.channel import tile_normals

threads = montecarlo._openblas("get_num_threads")
if "OPENBLAS_NUM_THREADS" not in os.environ:
    montecarlo._openblas("set_num_threads")(2)
before = threads()
read, drawn, fail = [], set(), []
kernel = montecarlo._panel_gains


def reading(*args):
    read.append(threads())
    if fail:
        raise RuntimeError("kernel failed")
    return kernel(*args)


def drawing(*args, **kwargs):
    drawn.add(threading.current_thread())
    return tile_normals(*args, **kwargs)


montecarlo._panel_gains, montecarlo.tile_normals = reading, drawing
geom = SurfaceGeometry(4, 4, 2.0, 2.0)


def run(workers=1):
    mc = MCConfig(trials=3 * montecarlo.BLOCK_TRIALS, master_seed=1, workers=workers)
    return simulate_group(mc, [(geom, Mode.FIXED, 16)])
"""


class TestBlasPin:
    @staticmethod
    def _fresh(script: str, **variables: str):
        """The JSON that ``script`` prints last, run after ``_PIN_PRELUDE`` in a fresh interpreter."""
        if montecarlo._openblas("set_num_threads") is None:
            pytest.skip("numpy's wheel bundles no OpenBLAS here")
        run = fresh_python("-c", _PIN_PRELUDE + textwrap.dedent(script), **variables)
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout.splitlines()[-1])

    @pytest.mark.parametrize("variable", [None, "OPENBLAS_NUM_THREADS"])
    def test_a_run_holds_one_thread_and_restores_the_count(self, variable):
        # Serial or pooled, a library run holds one BLAS thread, where the
        # environment asks for two too, and gives back the count it found once
        # it is exhausted, closed at its first block or its kernel raises.  A
        # serial run takes the helper wherever it has a CPU to spare.
        before, cpus, helper, ends = self._fresh("""
            ends = {}
            for workers in (1, 2):
                read.clear()
                drawn.clear()
                list(run(workers))
                ends[f"exhausted at {workers} workers"] = sorted(set(read)), threads()
                if workers == 1:
                    helper = drawn != {threading.main_thread()}
            read.clear()
            blocks = run()
            next(blocks)
            blocks.close()
            ends["closed at the first block"] = sorted(set(read)), threads()
            read.clear()
            fail.append(True)
            try:
                list(run())
            except RuntimeError:
                ends["raised"] = sorted(set(read)), threads()
            print(json.dumps([before, montecarlo._cpus(), helper, ends]))
        """, **({variable: "2"} if variable else {}))
        assert before == 2 or variable
        assert ends == dict.fromkeys(["exhausted at 1 workers", "exhausted at 2 workers", "closed at the first block",
                                      "raised"], [[1], before])
        assert helper is (cpus > 1)

    def test_without_the_setter_a_run_draws_inline(self):
        # A BLAS that cannot be pinned keeps its count, and the block's thread
        # draws every tile, spare CPUs or not.
        out = self._fresh("""
            openblas = montecarlo._openblas
            montecarlo._openblas = lambda name: None if name == "set_num_threads" else openblas(name)
            montecarlo._cpus = lambda: 1_000
            list(run())
            print(json.dumps([before, sorted(set(read)), drawn == {threading.main_thread()}]))
        """)
        assert out == [2, [2], True]

    @pytest.mark.parametrize("first", [0, 1], ids=["first-ends-first", "second-ends-first"])
    def test_interleaved_runs_restore_the_count(self, first):
        # Two runs advanced in turn on one thread hold one BLAS thread while
        # either is open, and the count comes back once both have ended.
        out = self._fresh(f"""
            pair = [run(), run()]
            for _ in range(2):
                for blocks in pair:
                    next(blocks)
            list(pair[{first}])
            one_open = threads()
            pair[{1 - first}].close()
            print(json.dumps([before, sorted(set(read)), one_open, threads()]))
        """)
        assert out == [2, [1], 1, 2]

    def test_overlapping_runs_on_two_threads_restore_the_count(self):
        # The first thread's run ends while the second's is open: the second
        # still reads one BLAS thread, and its end gives the count back.
        out = self._fresh("""
            both_open, first_ended, seen = threading.Barrier(2, timeout=60), threading.Event(), []

            def first():
                blocks = run()
                next(blocks)
                both_open.wait()
                blocks.close()
                first_ended.set()

            def second():
                blocks = run()
                next(blocks)
                both_open.wait()
                first_ended.wait(60)
                seen.append(threads())
                list(blocks)

            pair = [threading.Thread(target=target) for target in (first, second)]
            for thread in pair:
                thread.start()
            for thread in pair:
                thread.join(60)
            print(json.dumps([before, sorted(set(read)), seen, any(t.is_alive() for t in pair), threads()]))
        """)
        assert out == [2, [1], [1], False, 2]

    def test_many_threads_share_the_pin(self):
        # Four threads, more than the cores, each start and end eight short
        # runs with the interpreter switching threads every microsecond: a
        # lost update of the count of open runs would let a kernel read two
        # threads or leave the count at one.
        out = self._fresh("""
            import sys
            sys.setswitchinterval(1e-6)

            def runs():
                for _ in range(8):
                    list(simulate_group(MCConfig(trials=64, master_seed=1), [(geom, Mode.FIXED, 16)]))

            pool = [threading.Thread(target=runs) for _ in range(4)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
            print(json.dumps([before, sorted(set(read)), len(read), any(t.is_alive() for t in pool), threads()]))
        """)
        assert out == [2, [1], 32, False, 2]


class TestKsDistance:
    def test_single_sample_at_median(self):
        fit = GammaFit(kappa=2.0, theta=1.0)
        lo, hi = 0.0, 20.0
        for _ in range(80):  # bisect the median of the compound law
            mid = 0.5 * (lo + hi)
            if compound_probability(fit, below=mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert ks_distance([0.5 * (lo + hi)], fit) == pytest.approx(0.5, abs=1e-9)

    def test_all_zero_samples(self):
        assert ks_distance(np.zeros(100), GammaFit(3.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_true_gamma_sample_is_close(self):
        # A sample of the law itself: Gamma(kappa, theta) times Exp(1).
        rng = np.random.default_rng(123)
        kappa, theta = 3.7, 2.1
        sample = rng.gamma(shape=kappa, scale=theta, size=100_000) * rng.exponential(size=100_000)
        # KS critical value at the 1% level is ~1.63/sqrt(n) ~ 0.0052
        assert ks_distance(sample, GammaFit(kappa, theta)) <= 0.01

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_distance([], GammaFit(1.0, 1.0))

    @pytest.mark.parametrize("sample, bad", [([1.0, math.nan], "nan"), ([2.0, -0.5, math.nan], "-0.5")],
                             ids=["nan", "negative"])
    def test_bad_point_named(self, sample, bad):
        # The KS sample and its first bad point, not compound_probability's
        # ``below``.
        with pytest.raises(DomainError, match=f"^KS sample must be non-negative and not NaN, got {bad}$"):
            ks_distance(sample, GammaFit(2.0, 1.0))

    def test_infinite_point_is_valid(self):
        # The law's CDF at +inf is 1, to the quadrature's accuracy, so a lone
        # +inf point deviates by 1.
        fit = GammaFit(2.0, 1.0)
        assert ks_distance([math.inf], fit) == pytest.approx(1.0, abs=1e-12)
        assert ks_distance([0.5, math.inf, 2.0], fit) == ks_distance_dense([0.5, math.inf, 2.0], fit)


def validate_samples(geom, trials: int, seed: int) -> list[tuple[np.ndarray, GammaFit]]:
    """``validate``'s KS samples and fits on ``geom``: the gains of its FIXED presets of 16 and 36 ports."""
    gains = whole_gains(MCConfig(trials=trials, master_seed=seed), geom, [(Mode.FIXED, 16), (Mode.FIXED, 36)])
    return [(g.g_b, runs._gamma_fit(geom, m_o)) for g, m_o in zip(gains, (16, 36))]


@contextlib.contextmanager
def counted_levels():
    """Count the levels that ``ks_distance`` passes to ``compound_probability``, in ``levels[0]``."""
    levels = [0]

    def counting(fit, above=0.0, below=math.inf):
        levels[0] += np.size(below)
        return compound_probability(fit, above, below)

    with mock.patch.object(montecarlo, "compound_probability", counting):
        yield levels


@st.composite
def ks_cases(draw):
    """A stride, a fit and a sample of one of the shapes whose supremum lies in a different place."""
    stride = draw(st.integers(1, 40))
    n = max(1, draw(st.sampled_from([1, 2, stride - 1, stride, stride + 1, 7 * stride + 2]) | st.integers(1, 600)))
    fit = GammaFit(draw(st.floats(1.0, 11.0)), draw(st.floats(0.1, 10.0)))
    kind = draw(st.sampled_from(["law", "scaled", "zeros", "mixed zeros", "ties", "inf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sample = rng.gamma(fit.kappa, fit.theta, size=n) * rng.exponential(size=n)
    if kind == "scaled":  # D near 1
        sample *= draw(st.sampled_from([1e-4, 1e4]))
    elif kind == "zeros":
        sample[:] = 0.0
    elif kind == "mixed zeros":
        sample[rng.random(sample.size) < 0.3] = 0.0
    elif kind == "ties":
        sample = np.round(sample, 1)
    elif kind == "inf":
        sample[rng.random(sample.size) < 0.2] = math.inf
    return stride, fit, sample


class TestKsAgreement:
    # ks_distance evaluates the law only where the supremum can lie; the
    # whole-sample evaluation (tests/oracles.py) is its reference.

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("trials", [5_000, 40_000])
    def test_bit_equal_to_dense_on_validate_samples(self, ref_geom, trials, seed):
        for sample, fit in validate_samples(ref_geom, trials, seed):
            assert ks_distance(sample, fit) == ks_distance_dense(sample, fit)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_evaluates_a_fifth_of_validate_samples(self, ref_geom, seed):
        # The saving itself: 6-8% of the levels at 40k trials, seeds 1-3.
        for sample, fit in validate_samples(ref_geom, 40_000, seed):
            with counted_levels() as levels:
                ks_distance(sample, fit)
            assert levels[0] <= 0.2 * sample.size, levels[0]

    def test_runs_of_ties_at_every_stride(self):
        # A run of equal points deviates most below the law at its first
        # point, which meets the gap's bound when it follows a bracket point:
        # a bound short by one point in 1/n misses it.
        fit, rng = GammaFit(2.0, 1.0), np.random.default_rng(0)
        for stride in range(1, 9):
            for n in range(1, 4 * stride + 3):
                for _ in range(4):
                    sample = rng.choice(rng.gamma(2.0, 1.0, 3) * rng.exponential(size=3), n)
                    with mock.patch.object(montecarlo, "_ks_stride", lambda size: stride):
                        distance = ks_distance(sample, fit)
                    assert distance == pytest.approx(ks_distance_dense(sample, fit), abs=1e-13), (stride, sample)

    @settings(max_examples=150, deadline=None)
    @given(ks_cases())
    def test_agrees_with_dense(self, case):
        stride, fit, sample = case
        with mock.patch.object(montecarlo, "_ks_stride", lambda n: stride), counted_levels() as levels:
            distance = ks_distance(sample, fit)
        assert distance == pytest.approx(ks_distance_dense(sample, fit), abs=1e-13)
        assert levels[0] <= sample.size + sample.size / stride + 2
