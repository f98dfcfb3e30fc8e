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
    correlation_matrix,
    dbm_to_watt,
    default_fixed_preset,
    estimate_cop,
    estimate_op,
    estimate_success,
    gamma_moment_match,
    ks_distance,
    optimal_threshold,
    outage_probability,
    psd_sqrt,
    reg_lower_incomplete_gamma,
    simulate_group,
)
from friscov.channel import best_product_order, cascade, correlated_fading
from friscov.montecarlo import BLOCK_TRIALS, GainSample, mix64, wilson_interval


def fixed_static(trials=20_000, seed=1, m_o=36, workers=1) -> MCConfig:
    return MCConfig(trials=trials, master_seed=seed, mode=Mode.FIXED, m_o=m_o, workers=workers)


@pytest.fixture(scope="module")
def gains_5k(ref_geom) -> GainSample:
    return simulate_group([fixed_static(trials=5_000)], ref_geom)[0]


@pytest.fixture(scope="module")
def gains_200k(ref_geom) -> GainSample:
    return simulate_group([fixed_static(trials=200_000)], ref_geom)[0]


class TestSubstreams:
    def test_mix64_is_deterministic_and_spreads(self):
        assert mix64(1, 0) == mix64(1, 0)
        seeds = {mix64(12345, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_gains_independent_of_worker_count(self, ref_geom):
        one = simulate_group([fixed_static(trials=30_000, seed=7, workers=1)], ref_geom)[0]
        four = simulate_group([fixed_static(trials=30_000, seed=7, workers=4)], ref_geom)[0]
        assert np.array_equal(one.g_b, four.g_b)
        assert np.array_equal(one.g_w, four.g_w)

    def test_gains_change_with_seed(self, ref_geom):
        a = simulate_group([fixed_static(trials=5_000, seed=1)], ref_geom)[0]
        b = simulate_group([fixed_static(trials=5_000, seed=2)], ref_geom)[0]
        assert not np.array_equal(a.g_b, b.g_b)

    def test_results_are_read_only(self, ref_geom):
        gains = simulate_group([fixed_static(trials=5_000)], ref_geom)[0]
        with pytest.raises(ValueError):
            gains.g_b[0] = 0.0


class TestMCConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(trials=0), dict(master_seed=-1), dict(master_seed=2**64),
        dict(workers=0), dict(m_o=0), dict(mode="fixed"),
    ])
    def test_rejects(self, kwargs):
        base = dict(trials=10, master_seed=1, mode=Mode.FIXED)
        base.update(kwargs)
        with pytest.raises(DomainError):
            MCConfig(**base)

    def test_m_o_exceeding_ports(self, ref_geom):
        with pytest.raises(DomainError):
            simulate_group([fixed_static(trials=10, m_o=145)], ref_geom)


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

    def test_success_vanishes_at_power_extremes(self, gains_5k):
        low = dataclasses.replace(ScenarioConfig(), p_a=1e-15)
        high = dataclasses.replace(ScenarioConfig(), p_a=1e3)
        for cfg in (low, high):
            zeta = optimal_threshold(cfg)
            assert estimate_success(gains_5k, cfg, zeta).value <= 1e-3

    def test_ci_brackets_and_range(self, ref_geom):
        gains = simulate_group([fixed_static(trials=2_000)], ref_geom)[0]
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
            gains = simulate_group([fixed_static(trials=30_000, seed=99, workers=workers)], ref_geom)[0]
            values.append((estimate_op(gains, cfg).value,
                           estimate_cop(gains, cfg, zeta).value,
                           estimate_success(gains, cfg, zeta).value))
        assert values[0] == values[1]


def group_configs(trials, m_os=(1, 2, 16, 144)) -> list[MCConfig]:
    """Every mode at each ``m_o``; at 144 the presets are the full grid."""
    return [MCConfig(trials=trials, master_seed=5, mode=mode, m_o=m_o) for m_o in m_os for mode in Mode]


class TestGroups:
    def test_gains_do_not_depend_on_the_group(self, ref_geom):
        # 4097 trials: one full block and a one-trial block, whose products
        # take numpy's matrix-vector path.
        configs = group_configs(trials=4_097)
        alone = [simulate_group([mc], ref_geom)[0] for mc in configs]
        preset = [j for j, mc in enumerate(configs) if mc.mode is not Mode.FRIS]
        for workers in (1, 2):
            members = [dataclasses.replace(mc, workers=workers) for mc in configs]
            for picks in (range(len(configs)), preset, preset[::-1]):
                group = [members[j] for j in picks]
                for j, gains in zip(picks, simulate_group(group, ref_geom)):
                    assert np.array_equal(gains.g_b, alone[j].g_b), configs[j]
                    assert np.array_equal(gains.g_w, alone[j].g_w), configs[j]

    def test_prefix_sums_match_a_cascade_per_m_o(self, ref_geom):
        # Every fluid m_o of the group is read off one ranking and one running
        # sum; each must equal a cascade over its own top rows of the block.
        trials = 4_097  # a full block and a one-trial block
        group = [MCConfig(trials=trials, master_seed=5, mode=Mode.FRIS, m_o=m_o) for m_o in range(1, 145)]
        samples = simulate_group(group, ref_geom)
        root = psd_sqrt(correlation_matrix(ref_geom))
        for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
            count = min(BLOCK_TRIALS, trials - start)
            a, b, c = correlated_fading(root, np.random.default_rng(mix64(5, block)), count)
            ranked = [np.take_along_axis(v, best_product_order(a, b), axis=0) for v in (a, b, c)]
            for mc, gains in zip(group, samples):
                g_b, g_w = cascade(True, *(v[: mc.m_o] for v in ranked))
                assert np.array_equal(gains.g_b[start : start + count], g_b), (mc.m_o, block)
                assert np.array_equal(gains.g_w[start : start + count], g_w), (mc.m_o, block)

    def test_block_memory_is_bounded(self, ref_geom):
        # One block of the three compared surfaces at m_o = 36 peaks at about
        # 1.6 times the normals of a full-rank draw over its 144 ports: the
        # complex block (1x), plus the gathered top rows and their cascade
        # terms.  The rank-39 normals (0.27x) are freed by then.  At m_o = 144
        # the fluid surface gathers every row (about 3.2x).  The sweep-ports
        # group reads 12 presets; it stays there only if each gather is
        # dropped before the next.
        trials = BLOCK_TRIALS
        sweep_m_os = [4, 16, 27, 39, 51, 62, 74, 86, 97, 109, 121, 132, 144]
        groups = [
            ([MCConfig(trials=trials, master_seed=1, mode=mode, m_o=36) for mode in Mode], 1.75),
            ([MCConfig(trials=trials, master_seed=1, mode=mode, m_o=144) for mode in Mode], 3.4),
            ([MCConfig(trials=trials, master_seed=1, mode=mode, m_o=m_o)
              for m_o in sweep_m_os for mode in (Mode.FRIS, Mode.FIXED)], 3.4),
        ]
        normals = 3 * 2 * ref_geom.num_elements * trials * 8
        for group, bound in groups:
            tracemalloc.start()
            try:
                samples = simulate_group(group, ref_geom)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(g.g_b.nbytes + g.g_w.nbytes for g in samples)
            assert peak - outputs <= bound * normals, (len(group), group[-1].m_o, (peak - outputs) / normals)

    def test_empty_group(self, ref_geom):
        assert simulate_group([], ref_geom) == []

    @pytest.mark.parametrize("field, value", [("master_seed", 2), ("trials", 3_001)])
    def test_members_must_share_seed_and_trials(self, ref_geom, field, value):
        base = fixed_static(trials=3_000)
        with pytest.raises(DomainError):
            simulate_group([base, dataclasses.replace(base, **{field: value})], ref_geom)

    def test_m_o_exceeding_ports_rejected_in_group(self, ref_geom):
        with pytest.raises(DomainError):
            simulate_group([fixed_static(trials=10), fixed_static(trials=10, m_o=145)], ref_geom)


class TestKsDistance:
    def test_single_sample_at_median(self):
        fit = GammaFit(kappa=2.0, theta=1.0)
        lo, hi = 0.0, 20.0
        for _ in range(80):  # bisect the median of the fit
            mid = 0.5 * (lo + hi)
            if reg_lower_incomplete_gamma(2.0, mid / 1.0) < 0.5:
                lo = mid
            else:
                hi = mid
        assert ks_distance([0.5 * (lo + hi)], fit) == pytest.approx(0.5, abs=1e-9)

    def test_all_zero_samples(self):
        assert ks_distance(np.zeros(100), GammaFit(3.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_true_gamma_sample_is_close(self):
        rng = np.random.default_rng(123)
        kappa, theta = 3.7, 2.1
        sample = rng.gamma(shape=kappa, scale=theta, size=100_000)
        # KS critical value at the 1% level is ~1.63/sqrt(n) ~ 0.0052
        assert ks_distance(sample, GammaFit(kappa, theta)) <= 0.01

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_distance([], GammaFit(1.0, 1.0))
