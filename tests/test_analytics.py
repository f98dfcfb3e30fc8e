import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friscov import (
    DegenerateFitError,
    DomainError,
    GammaFit,
    ScenarioConfig,
    compound_probability,
    cop,
    dbm_to_watt,
    default_fixed_preset,
    error_probability_xi,
    fa_probability,
    gamma_moment_match,
    md_probability,
    optimal_threshold,
    outage_probability,
    path_loss,
    success_probability,
)

from oracles import oracle_compound_probability


def scenario(**overrides) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


class TestUnits:
    def test_minus_ninety_dbm(self):
        assert dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-12)


class TestScenarioConfig:
    def test_prior_sum_enforced(self):
        # p1 is no field but the rest of p0, so no pair of priors can break the sum.
        with pytest.raises(TypeError):
            ScenarioConfig(p0=0.6, p1=0.5)
        with pytest.raises(TypeError):
            scenario(p1=0.5)

    def test_priors_that_sum_to_one_are_accepted(self):
        # A prior mass above 1 would give probabilities above 1.
        for k in range(1001):
            cfg = scenario(p0=k / 1000)
            assert cfg.p1 == 1.0 - cfg.p0 and 0.0 <= cfg.p1 <= 1.0 and cfg.p0 + cfg.p1 <= 1.0, k

    @pytest.mark.parametrize("p0", [-0.1, 1.0000000000001, math.nan])
    def test_prior_out_of_range_rejected(self, p0):
        with pytest.raises(DomainError, match="p0"):
            scenario(p0=p0)

    # The closed form divides by both link budgets and evaluates the gain
    # CDF at both thresholds.
    @pytest.mark.parametrize("overrides, message", [
        (dict(d_af=1e-300), "L_af"),
        (dict(d_fw=1e300), r"p_a \* L_af \* L_fw"),
        (dict(alpha=400.0), r"p_a \* L_af \* L_fb"),
        (dict(rho0=1e-320), r"p_a \* L_af \* L_fb"),
        (dict(r_b=5000.0), "outage threshold"),
        (dict(p_a=1e-313), "detection threshold"),
    ], ids=["d_af-overflow", "d_fw-underflow", "alpha-underflow", "rho0-underflow", "r_b-overflow", "p_a-detection-overflow"])
    def test_link_budget_must_be_positive_and_finite(self, overrides, message):
        with pytest.raises(DomainError, match=message):
            scenario(**overrides)

    @pytest.mark.parametrize("field,value", [
        ("d_af", 0.0), ("sigma2_w", -1e-12), ("mu_offset", 0.0), ("p_a", 0.0), ("r_b", -0.1),
        ("m_o", 0), ("m_hat", -1), ("m_o", 36.0),
    ])
    def test_positivity(self, field, value):
        with pytest.raises(DomainError):
            scenario(**{field: value})

    @pytest.mark.parametrize("field, message", [
        ("m_o", "m_o must be a positive integer"), ("m_hat", "m_hat must be a non-negative integer"),
    ])
    def test_bool_port_counts_rejected(self, field, message):
        # bool is an int, so True would otherwise pass as one port.
        with pytest.raises(DomainError, match=f"^{message}, got True$"):
            scenario(**{field: True})


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
        ports = default_fixed_preset(ref_geom, 16)
        active = ref_corr[np.ix_(ports, ports)]
        fit = gamma_moment_match(active)
        scaled = gamma_moment_match(3.0 * active)
        assert scaled.kappa == pytest.approx(fit.kappa, rel=1e-12)
        assert scaled.theta == pytest.approx(9.0 * fit.theta, rel=1e-12)

    def test_consistency_mean_equals_trace(self, ref_corr, ref_geom):
        rng = np.random.default_rng(11)
        presets = [default_fixed_preset(ref_geom, m) for m in (4, 16, 36, 144)]
        mats = [ref_corr[np.ix_(ports, ports)] for ports in presets]
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


ORACLE_KAPPAS = [1.0, 1.5, 2.7, 6.18, 10.75, 11.0]
ORACLE_THETA = 1.3


def oracle_levels(kappa: float) -> np.ndarray:
    """Levels from 1e-10 to 20 times the mean of the gain."""
    return np.geomspace(1e-10, 20.0 * kappa * ORACLE_THETA, 16)


# A fit as the closed form builds one (kappa >= 1), and levels in the
# documented range: 0, 1e-10 to 20 times the mean, or infinite.
fits = st.builds(GammaFit, st.floats(1.0, 11.0), st.floats(1e-3, 1e3))
relative_levels = st.one_of(st.just(0.0), st.just(math.inf), st.floats(1e-10, 20.0))


def level(fit: GammaFit, relative: float) -> float:
    return relative * fit.mean


class TestCompoundProbability:
    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
    def test_cdf_against_k_law_oracle(self, kappa):
        xs = oracle_levels(kappa)
        values = compound_probability(GammaFit(kappa, ORACLE_THETA), below=xs)
        for x, value in zip(xs, values):
            assert value == pytest.approx(oracle_compound_probability(kappa, ORACLE_THETA, below=x), rel=1e-12)

    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
    def test_survival_against_k_law_oracle(self, kappa):
        xs = oracle_levels(kappa)
        values = compound_probability(GammaFit(kappa, ORACLE_THETA), above=xs)
        for x, value in zip(xs, values):
            assert value == pytest.approx(oracle_compound_probability(kappa, ORACLE_THETA, above=x), rel=1e-12)

    @pytest.mark.parametrize("kappa", ORACLE_KAPPAS)
    def test_joint_against_k_law_oracle(self, kappa):
        # Each level above pairs with every level below across the range.
        above = oracle_levels(kappa)
        below = above[::-1]
        values = compound_probability(GammaFit(kappa, ORACLE_THETA), above=above, below=below)
        for a, b, value in zip(above, below, values):
            expected = oracle_compound_probability(kappa, ORACLE_THETA, above=a, below=b)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_limits_are_exact(self):
        fit = GammaFit(2.7, 0.4)
        assert compound_probability(fit, below=0.0) == 0.0
        assert compound_probability(fit, above=math.inf) == 0.0
        assert compound_probability(fit, above=1.0, below=0.0) == 0.0

    @given(fits, relative_levels, relative_levels)
    @settings(max_examples=200, deadline=None)
    def test_values_lie_in_unit_interval(self, fit, above, below):
        value = compound_probability(fit, above=level(fit, above), below=level(fit, below))
        assert 0.0 <= value <= 1.0

    # Within one call, where every element shares the nodes.
    @given(fits, relative_levels, relative_levels, relative_levels)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_level(self, fit, x1, x2, other):
        levels = np.array(sorted((level(fit, x1), level(fit, x2))))
        fixed = level(fit, other)
        cdf = compound_probability(fit, above=fixed, below=levels)
        survival = compound_probability(fit, above=levels, below=fixed)
        assert cdf[0] <= cdf[1]
        assert survival[0] >= survival[1]

    @given(fits, relative_levels)
    @settings(max_examples=200, deadline=None)
    def test_cdf_and_survival_sum_to_one(self, fit, x):
        x = level(fit, x)
        assert abs(compound_probability(fit, above=x) + compound_probability(fit, below=x) - 1.0) <= 1e-13

    # The nodes follow the smallest level of a call, so an array's values
    # equal elementwise calls to rounding, not bit for bit.
    POINTS = [0.0, 1e-10, 1e-3, 0.7, 3.6, 40.0]

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    @pytest.mark.parametrize("argument", ["above", "below", "both"])
    def test_array_keeps_shape_and_matches_elementwise_calls(self, shape, argument):
        fit = GammaFit(4.2, 0.7)
        x = np.array(self.POINTS[: math.prod(shape)]).reshape(shape)
        other = 1.1 if argument == "both" else None

        def call(value):
            if argument == "above":
                return compound_probability(fit, above=value)
            if argument == "below":
                return compound_probability(fit, below=value)
            return compound_probability(fit, above=other, below=value)

        values = call(x)
        assert np.shape(values) == shape
        expected = [call(float(v)) for v in x.flat]
        assert np.asarray(values).ravel().tolist() == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_levels_broadcast(self):
        fit = GammaFit(4.2, 0.7)
        above = np.array([[0.1], [2.0]])
        below = np.array([0.5, 1.0, 30.0])
        values = compound_probability(fit, above=above, below=below)
        assert values.shape == (2, 3)
        for (i, j), value in np.ndenumerate(values):
            assert value == pytest.approx(compound_probability(fit, above=above[i, 0], below=below[j]), rel=1e-13)

    def test_scalar_returns_float(self):
        fit = GammaFit(4.2, 0.7)
        assert type(compound_probability(fit)) is float
        for x in self.POINTS + [2, math.inf]:
            assert type(compound_probability(fit, below=x)) is float
            assert type(compound_probability(fit, above=np.float64(x))) is float
            assert type(compound_probability(fit, above=x, below=np.float64(x))) is float

    @pytest.mark.parametrize("bad", [math.nan, -0.5, -math.inf])
    @pytest.mark.parametrize("argument", ["above", "below"])
    def test_one_bad_element_rejects_the_array(self, bad, argument):
        x = np.array(self.POINTS).reshape(2, 3)
        x[1, 1] = bad
        with pytest.raises(DomainError, match=argument):
            compound_probability(GammaFit(4.2, 0.7), **{argument: x})


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
        # unit path losses and power, unit-exponential Q: the gain's CDF is
        # 1 - 2 sqrt(x) K_1(2 sqrt(x))
        cfg = scenario(d_af=1.0, d_fw=1.0, p_a=1.0)
        fit = GammaFit(kappa=1.0, theta=1.0)
        zeta = cfg.sigma2_w + math.log(2.0)
        expected = oracle_compound_probability(1.0, 1.0, below=math.log(2.0))
        assert md_probability(fit, cfg, zeta) == pytest.approx(expected, abs=1e-9)

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
        cfg = scenario(p0=0.3)
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
        cfg = scenario(p0=p0)
        assert cfg.p1 == pytest.approx(p1, rel=1e-15)
        for zeta in (0.5 * cfg.sigma2_w, cfg.sigma2_w):
            assert math.isclose(cop(cfg, fa_probability(cfg, zeta), 0.0), cfg.p1,
                                rel_tol=1e-12, abs_tol=1e-15)
        zeta = optimal_threshold(cfg)
        for p_md in np.linspace(0.0, 1.0, 11):
            assert math.isclose(cop(cfg, fa_probability(cfg, zeta), float(p_md)),
                                cfg.p0 + cfg.p1 * (1.0 - p_md), rel_tol=1e-12, abs_tol=1e-15)


class TestOutage:
    def test_zero_rate_is_exactly_zero(self, ref_corr, ref_geom):
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
        assert outage_probability(fit, scenario(r_b=0.0)) == 0.0

    def test_vanishes_at_high_power(self, ref_corr, ref_geom):
        # The exponential factor of the gain gives decay order 1: for a small
        # threshold x the outage is x * E[1/Q] = x / (theta * (kappa - 1)).
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
        for p_a in (1e2, 1e6):
            cfg = scenario(p_a=p_a)
            x = (2.0 ** cfg.r_b - 1.0) * cfg.sigma2_b / (cfg.p_a * cfg.loss_af * cfg.loss_fb)
            expected = x / (fit.theta * (fit.kappa - 1.0))
            assert outage_probability(fit, cfg) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_power_and_rate(self, ref_corr, ref_geom):
        ports = default_fixed_preset(ref_geom, 36)
        fit = gamma_moment_match(ref_corr[np.ix_(ports, ports)])
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

    def test_success_examples(self, fit36):
        # A threshold at the noise floor: a certain false alarm, so success is
        # decoding under silence.  A threshold far above every gain: a certain
        # miss, so success is decoding under transmission.  Zero rate: never
        # in outage, so success is the missed detection.
        cfg = scenario(p_a=dbm_to_watt(-45.0), p0=0.3)
        no_outage = 1.0 - outage_probability(fit36, cfg)
        assert success_probability(fit36, cfg, cfg.sigma2_w) == pytest.approx(cfg.p0 * no_outage, rel=1e-13)
        assert success_probability(fit36, cfg, 1.0) == pytest.approx(cfg.p1 * no_outage, rel=1e-13)
        zero_rate = dataclasses.replace(cfg, r_b=0.0)
        zeta = optimal_threshold(cfg)
        assert success_probability(fit36, zero_rate, zeta) == pytest.approx(
            cfg.p1 * md_probability(fit36, zero_rate, zeta), rel=1e-13)

    @pytest.mark.parametrize("zeta", [-1e-12, math.nan, math.inf])
    def test_success_validation(self, zeta):
        with pytest.raises(DomainError):
            success_probability(GammaFit(2.0, 1.0), scenario(), zeta)

    @pytest.mark.parametrize("dbm", [-47.5, -43.3, -39.2])
    def test_success_is_the_joint_of_the_two_gains(self, fit36, dbm):
        # Given Q the gains are independent, so the success term is the
        # compound joint; it lies below the product of the marginals, since
        # a large Q helps the receiver and the warden alike.
        cfg = scenario(p_a=dbm_to_watt(dbm))
        zeta = optimal_threshold(cfg)
        x_b = (2.0 ** cfg.r_b - 1.0) * cfg.sigma2_b / (cfg.p_a * cfg.loss_af * cfg.loss_fb)
        eta = (zeta - cfg.sigma2_w) / (cfg.p_a * cfg.loss_af * cfg.loss_fw)
        expected = cfg.p1 * oracle_compound_probability(fit36.kappa, fit36.theta, above=x_b, below=eta)
        psuc = success_probability(fit36, cfg, zeta)
        assert psuc == pytest.approx(expected, rel=1e-12)
        product = (1.0 - outage_probability(fit36, cfg)) * cfg.p1 * md_probability(fit36, cfg, zeta)
        assert psuc < product


@pytest.fixture(scope="module")
def fit36(ref_corr, ref_geom):
    ports = default_fixed_preset(ref_geom, 36)
    return gamma_moment_match(ref_corr[np.ix_(ports, ports)])


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
            curve.append(success_probability(fit36, cfg, zeta))
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
                      success_probability(fit36, cfg, zeta)):
                assert 0.0 <= p <= 1.0
