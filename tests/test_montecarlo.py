import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from friscov import (
    DomainError,
    GammaFit,
    MCConfig,
    Mode,
    ScenarioConfig,
    compound_probability,
    cop,
    correlation_matrix,
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
    psd_sqrt,
    simulate_group,
    success_probability,
)
from friscov import montecarlo
from friscov.analytics import missed_level, outage_level
from friscov.channel import best_product_order, block_normals, cascade, correlated_tile
from friscov.montecarlo import BLOCK_TRIALS, GainSample, mix64, wilson_interval


def fixed_static(geom, trials=20_000, seed=1, m_o=36, workers=1) -> GainSample:
    """The gains of the default preset of ``m_o`` ports on ``geom``."""
    return simulate_group(MCConfig(trials=trials, master_seed=seed, workers=workers), geom, [(Mode.FIXED, m_o)])[0]


@pytest.fixture(scope="module")
def gains_5k(ref_geom) -> GainSample:
    return fixed_static(ref_geom, trials=5_000)


@pytest.fixture(scope="module")
def gains_20k(ref_geom) -> GainSample:
    return fixed_static(ref_geom, trials=20_000)


@pytest.fixture(scope="module")
def gains_200k(ref_geom) -> GainSample:
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

    def test_full_blocks_do_not_depend_on_the_trial_count(self, ref_geom):
        # A block's draws depend on its size, so runs at one seed share their
        # full blocks but not the gains of a partial one.
        short = fixed_static(ref_geom, trials=4_500)
        long = fixed_static(ref_geom, trials=9_000)
        assert np.array_equal(short.g_b[:BLOCK_TRIALS], long.g_b[:BLOCK_TRIALS])
        assert np.array_equal(short.g_w[:BLOCK_TRIALS], long.g_w[:BLOCK_TRIALS])
        assert short.g_b[BLOCK_TRIALS] != long.g_b[BLOCK_TRIALS]

    def test_results_are_read_only(self, ref_geom):
        gains = fixed_static(ref_geom, trials=5_000)
        with pytest.raises(ValueError):
            gains.g_b[0] = 0.0


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
            simulate_group(mc, ref_geom, [(fields["mode"], fields["m_o"])])

    def test_m_o_exceeding_ports(self, ref_geom):
        with pytest.raises(DomainError):
            fixed_static(ref_geom, trials=10, m_o=145)


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
        est = estimate_op(gains_5k, cfg)
        assert est.value == 0.0

    def test_op_saturates_at_high_power(self, gains_5k):
        cfg = dataclasses.replace(ScenarioConfig(), p_a=1e3)
        est = estimate_op(gains_5k, cfg)
        assert est.value == 0.0

    def test_op_matches_analytic_at_reference_point(self, ref_geom, ref_corr, gains_200k):
        # both sides effectively saturate at 0 dBm transmit power
        cfg = ScenarioConfig()
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
        est = estimate_op(gains_200k, cfg)
        assert abs(est.value - outage_probability(fit, cfg)) <= 0.02

    def test_cop_below_noise_floor_is_exactly_p1(self, gains_5k):
        cfg = ScenarioConfig()
        est = estimate_cop(gains_5k, cfg, cfg.sigma2_w)
        assert est.value == cfg.p1

    def test_cop_at_huge_threshold_is_exactly_p0(self, gains_5k):
        cfg = ScenarioConfig()
        est = estimate_cop(gains_5k, cfg, 1.0)
        assert est.value == cfg.p0

    def test_cop_matches_analytic_at_reference_point(self, ref_geom, ref_corr, gains_200k):
        from friscov import cop, fa_probability, md_probability

        cfg = dataclasses.replace(ScenarioConfig(), mu_offset=ScenarioConfig().sigma2_w)
        zeta = optimal_threshold(cfg)
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
        analytic = cop(cfg, fa_probability(cfg, zeta), md_probability(fit, cfg, zeta))
        est = estimate_cop(gains_200k, cfg, zeta)
        assert abs(est.value - analytic) <= 0.02

    def test_success_degenerate_corner(self, gains_5k):
        # zero rate and a threshold at the noise floor: the only error
        # the warden can make is the certain false alarm
        cfg = dataclasses.replace(ScenarioConfig(), r_b=0.0)
        est = estimate_success(gains_5k, cfg, cfg.sigma2_w)
        assert est.value == cfg.p0

    def test_counts_against_the_closed_forms_levels(self):
        # A gain just below a level is the event (outage, missed detection);
        # a gain at the level is not.
        cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(-45.0))
        zeta = optimal_threshold(cfg)
        x_b, eta = outage_level(cfg), missed_level(cfg, zeta)
        gains = GainSample(g_b=np.array([np.nextafter(x_b, 0.0), x_b, x_b, 2.0 * x_b]),
                           g_w=np.array([eta, np.nextafter(eta, 0.0), 2.0 * eta, 0.5 * eta]))
        assert estimate_op(gains, cfg).value == 0.25
        assert estimate_cop(gains, cfg, zeta).value == cfg.p0 + cfg.p1 * 0.5
        assert estimate_success(gains, cfg, zeta).value == cfg.p1 * 0.5

    def test_success_vanishes_at_power_extremes(self, gains_5k):
        low = dataclasses.replace(ScenarioConfig(), p_a=1e-15)
        high = dataclasses.replace(ScenarioConfig(), p_a=1e3)
        for cfg in (low, high):
            zeta = optimal_threshold(cfg)
            assert estimate_success(gains_5k, cfg, zeta).value <= 1e-3

    def test_ci_brackets_and_range(self, ref_geom):
        gains = fixed_static(ref_geom, trials=2_000)
        for dbm in (-50.0, -40.0, -30.0):
            cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(dbm))
            zeta = optimal_threshold(cfg)
            for est in (estimate_op(gains, cfg),
                        estimate_cop(gains, cfg, zeta),
                        estimate_success(gains, cfg, zeta)):
                assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0
                assert est.trials == 2_000

    def test_estimates_reproducible_across_worker_counts(self, ref_geom):
        cfg = dataclasses.replace(ScenarioConfig(), p_a=dbm_to_watt(-45.0))
        zeta = optimal_threshold(cfg)
        values = []
        for workers in (1, 3):
            gains = fixed_static(ref_geom, trials=30_000, seed=99, workers=workers)
            values.append((estimate_op(gains, cfg).value,
                           estimate_cop(gains, cfg, zeta).value,
                           estimate_success(gains, cfg, zeta).value))
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
        if metric == "op":
            analytic, empirical = outage_probability(fit36, cfg), estimate_op(gains_20k, cfg)
        elif metric == "cop":
            p_md = md_probability(fit36, cfg, zeta)
            analytic, empirical = cop(cfg, fa_probability(cfg, zeta), p_md), estimate_cop(gains_20k, cfg, zeta)
        else:
            analytic, empirical = success_probability(fit36, cfg, zeta), estimate_success(gains_20k, cfg, zeta)
        assert 0.05 < analytic < 0.95
        assert abs(analytic - empirical.value) <= 0.02


def group_selections(m_os=(1, 2, 16, 144)) -> list[tuple[Mode, int]]:
    """Every mode at each ``m_o``; at 144 the presets are the full grid."""
    return [(mode, m_o) for m_o in m_os for mode in Mode]


class TestGroups:
    def test_gains_do_not_depend_on_the_group(self, ref_geom):
        # 4097 trials: one full block and a one-trial block, whose products
        # take numpy's matrix-vector path.
        selections = group_selections()
        alone = [simulate_group(MCConfig(trials=4_097, master_seed=5), ref_geom, [pick])[0] for pick in selections]
        preset = [j for j, (mode, _) in enumerate(selections) if mode is not Mode.FRIS]
        for workers in (1, 2):
            mc = MCConfig(trials=4_097, master_seed=5, workers=workers)
            for picks in (range(len(selections)), preset, preset[::-1]):
                group = [selections[j] for j in picks]
                for j, gains in zip(picks, simulate_group(mc, ref_geom, group)):
                    assert np.array_equal(gains.g_b, alone[j].g_b), selections[j]
                    assert np.array_equal(gains.g_w, alone[j].g_w), selections[j]

    def test_prefix_sums_match_a_cascade_per_m_o(self, ref_geom):
        # Every fluid m_o of the group is read off one ranking and one running
        # sum; each must equal a cascade over its own top rows of the block.
        trials = 4_097  # a full block and a one-trial block
        group = [(Mode.FRIS, m_o) for m_o in range(1, 145)]
        samples = simulate_group(MCConfig(trials=trials, master_seed=5), ref_geom, group)
        root = psd_sqrt(correlation_matrix(ref_geom))
        for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
            count = min(BLOCK_TRIALS, trials - start)
            z = block_normals(np.random.default_rng(mix64(5, block)), root.shape[1], count)
            a, b, c = correlated_tile(root, z, 0, count)
            ranked = [np.take_along_axis(v, best_product_order(a, b), axis=0) for v in (a, b, c)]
            for (_, m_o), gains in zip(group, samples):
                g_b, g_w = cascade([True], *(v[:m_o] for v in ranked))[0]
                assert np.array_equal(gains.g_b[start : start + count], g_b), (m_o, block)
                assert np.array_equal(gains.g_w[start : start + count], g_w), (m_o, block)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 511, 512, 513, 1_025, 4_097, 5_001])
    def test_gains_do_not_depend_on_the_tiling(self, ref_geom, monkeypatch, trials, workers):
        # Tile edges at multiples of TILE_TRIALS, the last tile absorbing the
        # remainder, give the gains of one tile per block bit for bit.
        mc = MCConfig(trials=trials, master_seed=5, workers=workers)
        selections = group_selections((1, 2, 16, 36, 144))
        tiled = simulate_group(mc, ref_geom, selections)
        monkeypatch.setattr(montecarlo, "TILE_TRIALS", BLOCK_TRIALS)
        for selection, gains, whole in zip(selections, tiled, simulate_group(mc, ref_geom, selections)):
            assert np.array_equal(gains.g_b, whole.g_b), selection
            assert np.array_equal(gains.g_w, whole.g_w), selection

    def test_block_memory_is_bounded(self, ref_geom):
        # The kernel draws a block's rank-33 normals (0.23 times the normals
        # of a full-rank draw over the 144 ports) and correlates, ranks,
        # gathers and cascades them one 512-trial tile at a time, so its
        # peak follows the tile: about 0.5x for the three compared surfaces
        # at m_o = 36 and 0.6x at m_o = 144, where the fluid surface gathers
        # every row of a tile.  The sweep-ports group reads 12 presets; it
        # stays there only if each gather is dropped before the next.  Five
        # blocks stay under the bound of one.
        trials = BLOCK_TRIALS
        sweep_m_os = [4, 16, 27, 39, 51, 62, 74, 86, 97, 109, 121, 132, 144]
        groups = [
            (trials, group_selections((36,)), 0.75),
            (5 * trials, group_selections((36,)), 0.75),
            (trials, group_selections((144,)), 1.0),
            (trials, [(mode, m_o) for m_o in sweep_m_os for mode in (Mode.FRIS, Mode.FIXED)], 1.0),
        ]
        normals = 3 * 2 * ref_geom.num_elements * trials * 8
        for run_trials, group, bound in groups:
            tracemalloc.start()
            try:
                samples = simulate_group(MCConfig(trials=run_trials, master_seed=1), ref_geom, group)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(g.g_b.nbytes + g.g_w.nbytes for g in samples)
            ratio = (peak - outputs) / normals
            assert ratio <= bound, (len(group), run_trials, group[-1], ratio)

    def test_empty_group(self, ref_geom):
        assert simulate_group(MCConfig(trials=10, master_seed=1), ref_geom, []) == []

    def test_m_o_exceeding_ports_rejected_in_group(self, ref_geom):
        with pytest.raises(DomainError):
            simulate_group(MCConfig(trials=10, master_seed=1), ref_geom, [(Mode.FIXED, 36), (Mode.FIXED, 145)])


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
