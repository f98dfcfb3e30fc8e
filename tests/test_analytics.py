import dataclasses
import math

import numpy as np
import pytest

from friscov import (
    DegenerateFitError,
    DomainError,
    GammaFit,
    ScenarioConfig,
    cop,
    dbm_to_watt,
    default_fixed_preset,
    error_probability_xi,
    fa_probability,
    gamma_cdf,
    gamma_moment_match,
    md_probability,
    optimal_threshold,
    outage_probability,
    path_loss,
    reduce,
    success_probability,
    watt_to_dbm,
)


def scenario(**overrides) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


class TestUnits:
    def test_minus_ninety_dbm(self):
        assert dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-12)

    def test_round_trip(self):
        assert watt_to_dbm(dbm_to_watt(-37.5)) == pytest.approx(-37.5, abs=1e-12)


class TestScenarioConfig:
    def test_prior_sum_enforced(self):
        with pytest.raises(DomainError):
            scenario(p0=0.6, p1=0.5)

    @pytest.mark.parametrize("field,value", [
        ("d_af", 0.0), ("sigma2_w", -1e-12), ("mu_offset", 0.0), ("p_a", 0.0), ("r_b", -0.1),
    ])
    def test_positivity(self, field, value):
        with pytest.raises(DomainError):
            scenario(**{field: value})


class TestGammaMomentMatch:
    def test_identity(self):
        fit = gamma_moment_match(np.eye(36))
        assert fit.kappa == 36.0
        assert fit.theta == 1.0

    def test_two_by_two(self):
        fit = gamma_moment_match(np.array([[1.0, 0.5], [0.5, 1.0]]))
        # eigenvalues 1.5 and 0.5: tr C^2 = 2.5, tr C^4 = 5.125
        assert fit.kappa == pytest.approx(6.25 / 5.125, rel=1e-12)
        assert fit.theta == pytest.approx(2.05, rel=1e-12)

    def test_scaling_moves_only_theta(self, ref_corr, ref_geom):
        active = reduce(ref_corr, default_fixed_preset(ref_geom, 16))
        fit = gamma_moment_match(active)
        scaled = gamma_moment_match(3.0 * active)
        assert scaled.kappa == pytest.approx(fit.kappa, rel=1e-12)
        assert scaled.theta == pytest.approx(9.0 * fit.theta, rel=1e-12)

    def test_consistency_mean_equals_trace(self, ref_corr, ref_geom):
        rng = np.random.default_rng(11)
        mats = [reduce(ref_corr, default_fixed_preset(ref_geom, m)) for m in (4, 16, 36, 144)]
        for dim in (3, 8):
            factor = rng.standard_normal((dim, dim))
            mats.append(factor @ factor.T)
        for mat in mats:
            fit = gamma_moment_match(mat)
            squared = mat @ mat
            assert fit.kappa * fit.theta == pytest.approx(np.trace(squared), rel=1e-12)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateFitError):
            gamma_moment_match(np.zeros((4, 4)))


class TestGammaCdf:
    def test_at_zero(self):
        assert gamma_cdf(GammaFit(3.7, 2.2), 0.0) == 0.0

    def test_exponential(self):
        fit = GammaFit(kappa=1.0, theta=2.0)
        assert gamma_cdf(fit, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_integer_shape(self):
        assert gamma_cdf(GammaFit(2.0, 1.0), 2.0) == pytest.approx(0.5939941502901619, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gamma_cdf(GammaFit(1.0, 1.0), -0.5)

    def test_monotone(self):
        fit = GammaFit(4.2, 0.7)
        values = [gamma_cdf(fit, g) for g in np.linspace(0.0, 30.0, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 2.1, 0.37) == 0.37

    def test_square_law(self):
        assert path_loss(100.0, 2.0, 1.0) == pytest.approx(1e-4, rel=1e-15)

    def test_reference_scenario_exponent(self):
        # 50**-2.1, high-precision value
        assert path_loss(50.0, 2.1, 1.0) == pytest.approx(2.704973351224966e-4, rel=1e-12)

    def test_non_positive_distance(self):
        with pytest.raises(DomainError):
            path_loss(0.0, 2.0, 1.0)


class TestDetectionProbabilities:
    def test_md_zero_at_noise_floor(self):
        cfg = scenario()
        assert md_probability(GammaFit(2.0, 1.0), cfg, cfg.sigma2_w) == 0.0

    def test_md_exponential_case(self):
        # unit path losses and power, unit-exponential gain
        cfg = scenario(d_af=1.0, d_fw=1.0, p_a=1.0)
        fit = GammaFit(kappa=1.0, theta=1.0)
        zeta = cfg.sigma2_w + math.log(2.0)
        assert md_probability(fit, cfg, zeta) == pytest.approx(0.5, abs=1e-9)

    def test_md_vanishes_at_high_power(self):
        cfg = scenario(p_a=1e12)
        fit = GammaFit(2.0, 1.0)
        assert md_probability(fit, cfg, 2.0 * cfg.sigma2_w) <= 1e-12

    def test_md_negative_zeta_rejected(self):
        with pytest.raises(DomainError):
            md_probability(GammaFit(2.0, 1.0), scenario(), -1.0)

    def test_fa_corners(self):
        cfg = scenario()
        assert fa_probability(cfg, cfg.sigma2_w) == 1.0
        assert fa_probability(cfg, cfg.sigma2_w + cfg.mu_offset) == 0.0
        assert fa_probability(cfg, 0.0) == 1.0

    def test_optimal_threshold(self):
        cfg = scenario(sigma2_w=1e-12, mu_offset=1e-13)
        assert optimal_threshold(cfg) == pytest.approx(1.1e-12, rel=1e-12)

    def test_threshold_at_reference_noise(self):
        cfg = scenario(sigma2_w=dbm_to_watt(-90.0), mu_offset=dbm_to_watt(-90.0))
        assert optimal_threshold(cfg) == pytest.approx(2e-12, rel=1e-12)


class TestCop:
    def test_below_noise_floor_is_p1_exactly(self):
        cfg = scenario(p0=0.3, p1=0.7)
        zeta = cfg.sigma2_w
        assert cop(cfg, fa_probability(cfg, zeta), 0.0) == cfg.p1

    def test_never_detected_gives_p0(self):
        cfg = scenario()
        assert cop(cfg, 0.0, 1.0) == cfg.p0

    def test_direct_evaluation(self):
        cfg = scenario()
        assert cop(cfg, 0.0, 0.5) == pytest.approx(0.75, rel=1e-15)

    def test_out_of_range_rejected(self):
        cfg = scenario()
        with pytest.raises(DomainError):
            cop(cfg, 1.5, 0.0)

    @pytest.mark.parametrize("p0, p1", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.1)])
    def test_collapse_under_deterministic_false_alarm(self, p0, p1):
        # With p_fa = fa_probability(cfg, zeta), cop is p1 at or below the
        # noise floor (where the warden never misses) and p0 + p1 * (1 - p_md)
        # above it.
        cfg = scenario(p0=p0, p1=p1)
        for zeta in (0.5 * cfg.sigma2_w, cfg.sigma2_w):
            assert math.isclose(cop(cfg, fa_probability(cfg, zeta), 0.0), cfg.p1,
                                rel_tol=1e-12, abs_tol=1e-15)
        zeta = optimal_threshold(cfg)
        for p_md in np.linspace(0.0, 1.0, 11):
            assert math.isclose(cop(cfg, fa_probability(cfg, zeta), float(p_md)),
                                cfg.p0 + cfg.p1 * (1.0 - p_md), rel_tol=1e-12, abs_tol=1e-15)


class TestOutage:
    def test_zero_rate_is_exactly_zero(self, ref_corr, ref_geom):
        fit = gamma_moment_match(reduce(ref_corr, default_fixed_preset(ref_geom, 36)))
        assert outage_probability(fit, scenario(r_b=0.0)) == 0.0

    def test_vanishes_at_high_power(self, ref_corr, ref_geom):
        fit = gamma_moment_match(reduce(ref_corr, default_fixed_preset(ref_geom, 36)))
        assert outage_probability(fit, scenario(p_a=1e6)) <= 1e-15

    def test_monotone_in_power_and_rate(self, ref_corr, ref_geom):
        fit = gamma_moment_match(reduce(ref_corr, default_fixed_preset(ref_geom, 36)))
        powers = [dbm_to_watt(v) for v in np.linspace(-60.0, -10.0, 25)]
        curve = [outage_probability(fit, scenario(p_a=p)) for p in powers]
        assert all(b <= a for a, b in zip(curve, curve[1:]))
        rates = [outage_probability(fit, scenario(r_b=r)) for r in np.linspace(0.0, 2.0, 15)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestErrorAndSuccess:
    def test_xi_at_worst_case_threshold(self):
        cfg = scenario()
        zeta = optimal_threshold(cfg)
        p_fa = fa_probability(cfg, zeta)
        assert p_fa == 0.0
        assert error_probability_xi(cfg, p_fa, 0.37) == pytest.approx(cfg.p1 * 0.37, rel=1e-15)

    def test_xi_corners(self):
        cfg = scenario()
        assert error_probability_xi(cfg, 0.0, 0.0) == 0.0
        assert error_probability_xi(cfg, 0.0, 0.8) == pytest.approx(0.4, rel=1e-15)

    def test_success_examples(self):
        cfg = scenario()
        assert success_probability(cfg, 1.0, 0.5) == 0.0
        assert success_probability(cfg, 0.3, 0.0) == 0.0
        assert success_probability(cfg, 0.1, 0.4) == pytest.approx(0.36, rel=1e-15)

    def test_success_validation(self):
        with pytest.raises(DomainError):
            success_probability(scenario(), 1.2, 0.5)


@pytest.fixture(scope="module")
def fit36(ref_corr, ref_geom):
    return gamma_moment_match(reduce(ref_corr, default_fixed_preset(ref_geom, 36)))


class TestCurveShapes:
    """Shape properties of the closed forms over the default power sweep."""

    def test_md_monotone_in_power_and_threshold(self, fit36):
        zeta = optimal_threshold(scenario())
        md_by_power = [
            md_probability(fit36, scenario(p_a=dbm_to_watt(v)), zeta)
            for v in np.linspace(-60.0, -10.0, 25)
        ]
        assert all(b <= a for a, b in zip(md_by_power, md_by_power[1:]))
        cfg = scenario(p_a=dbm_to_watt(-35.0))
        md_by_zeta = [
            md_probability(fit36, cfg, cfg.sigma2_w * s)
            for s in np.linspace(1.0, 10.0, 30)
        ]
        assert all(b >= a for a, b in zip(md_by_zeta, md_by_zeta[1:]))

    def test_cop_non_decreasing_in_power(self, fit36):
        values = []
        for v in np.linspace(-60.0, -10.0, 25):
            cfg = scenario(p_a=dbm_to_watt(v))
            zeta = optimal_threshold(cfg)
            values.append(cop(cfg, fa_probability(cfg, zeta), md_probability(fit36, cfg, zeta)))
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_success_curve_unimodal(self, fit36):
        curve = []
        for v in np.linspace(-60.0, -10.0, 25):
            cfg = scenario(p_a=dbm_to_watt(v))
            zeta = optimal_threshold(cfg)
            xi = error_probability_xi(cfg, fa_probability(cfg, zeta), md_probability(fit36, cfg, zeta))
            curve.append(success_probability(cfg, outage_probability(fit36, cfg), xi))
        peak = max(curve)
        assert peak > curve[0] and peak > curve[-1]
        assert 0 < curve.index(peak) < len(curve) - 1

    def test_all_probabilities_in_unit_interval(self, fit36):
        for v in np.linspace(-80.0, 10.0, 40):
            cfg = scenario(p_a=dbm_to_watt(v))
            zeta = optimal_threshold(cfg)
            p_fa = fa_probability(cfg, zeta)
            p_md = md_probability(fit36, cfg, zeta)
            p_out = outage_probability(fit36, cfg)
            xi = error_probability_xi(cfg, p_fa, p_md)
            for p in (p_fa, p_md, p_out, xi,
                      cop(cfg, p_fa, p_md),
                      success_probability(cfg, p_out, xi)):
                assert 0.0 <= p <= 1.0
