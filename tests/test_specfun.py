import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friscov import ConvergenceError, DomainError, bessel_j0, reg_lower_incomplete_gamma, specfun

from oracles import oracle_bessel_j0, oracle_first_j0_zero, oracle_reg_lower_gamma

finite_args = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)


class TestBesselJ0:
    def test_at_zero_is_exactly_one(self):
        assert bessel_j0(0.0) == 1.0

    def test_at_one(self):
        # oracle series value, frozen
        assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, abs=1e-9)

    def test_first_zero_located_by_series_bisection(self):
        zero = oracle_first_j0_zero()
        assert zero == pytest.approx(2.404825557695773, abs=1e-10)
        assert abs(bessel_j0(zero)) <= 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            bessel_j0(bad)

    @given(finite_args)
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_even(self, x):
        value = bessel_j0(x)
        assert abs(value) <= 1.0
        assert bessel_j0(-x) == value

    def test_series_asymptotic_switch_is_seamless(self):
        # the two evaluation branches meet at the cutoff
        for x in (11.999999, 12.0, 12.000001, 12.5):
            assert bessel_j0(x) == pytest.approx(oracle_bessel_j0(x), abs=1e-10)

    def test_against_series_oracle_on_random_points(self):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(0.0, 200.0, size=300):
            assert bessel_j0(float(x)) == pytest.approx(oracle_bessel_j0(float(x)), abs=1e-10)


class TestRegLowerIncompleteGamma:
    @pytest.mark.parametrize("shape", [0.1, 0.5, 1.0, 2.0, 17.3, 100.0])
    def test_zero_argument(self, shape):
        assert reg_lower_incomplete_gamma(shape, 0.0) == 0.0

    def test_exponential_median(self):
        # P(1, x) = 1 - exp(-x), so P(1, ln 2) = 1/2
        assert reg_lower_incomplete_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_integer_shape_closed_form(self):
        # P(2, 2) = 1 - 3 e^-2
        assert reg_lower_incomplete_gamma(2.0, 2.0) == pytest.approx(0.5939941502901619, abs=1e-12)

    @pytest.mark.parametrize("shape,x", [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.inf)])
    def test_domain(self, shape, x):
        with pytest.raises(DomainError):
            reg_lower_incomplete_gamma(shape, x)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=0.0, max_value=300.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_and_monotonicity(self, shape, x1, x2):
        lo, hi = sorted((x1, x2))
        p_lo = reg_lower_incomplete_gamma(shape, lo)
        p_hi = reg_lower_incomplete_gamma(shape, hi)
        assert 0.0 <= p_lo <= p_hi <= 1.0

    @pytest.mark.parametrize("shape", [0.5, 1.0, 9.0, 100.0])
    def test_saturates_far_in_the_tail(self, shape):
        x = shape + 40.0 * math.sqrt(shape)
        assert reg_lower_incomplete_gamma(shape, x) >= 1.0 - 1e-9

    def test_saturates_for_small_shape(self):
        # for shape < ~1/3 the tail at shape + 40 sqrt(shape) is still
        # heavier than 1e-9 (true residual ~3e-8 at shape 0.1); push
        # further out instead of weakening the bound
        assert reg_lower_incomplete_gamma(0.1, 0.1 + 40.0 * math.sqrt(0.1) + 40.0) >= 1.0 - 1e-9

    def test_against_series_oracle_on_random_points(self):
        rng = np.random.default_rng(3)
        shapes = 10.0 ** rng.uniform(-1, 2, size=300)
        xs = rng.uniform(0.0, 300.0, size=300)
        for shape, x in zip(shapes, xs):
            expected = oracle_reg_lower_gamma(float(shape), float(x))
            assert reg_lower_incomplete_gamma(float(shape), float(x)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("x", [0.5, 30.0], ids=["series", "continued-fraction"])
    def test_iteration_cap_raises(self, monkeypatch, x):
        monkeypatch.setattr(specfun, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            reg_lower_incomplete_gamma(2.5, np.array([0.0, x]))

    def test_lower_tail_relative_accuracy(self):
        # Outage lives near 0 and the log plot reaches 1e-6, where an
        # absolute bound passes trivially.  Below the smallest normal
        # double a relative bound means nothing, so those points are
        # skipped.
        rng = np.random.default_rng(13)
        shapes = np.concatenate([[0.1, 100.0], 10.0 ** rng.uniform(-1, 2, size=48)])
        checked = 0
        for shape in shapes:
            xs = shape * 10.0 ** rng.uniform(-6, math.log10(0.5), size=10)
            for x, value in zip(xs, reg_lower_incomplete_gamma(float(shape), xs)):
                expected = oracle_reg_lower_gamma(float(shape), float(x))
                if expected < sys.float_info.min:
                    continue
                checked += 1
                assert value == pytest.approx(expected, rel=1e-11)
        assert checked >= 450


# Each function of one array argument: points on every branch, and the
# elements it rejects.
ARRAY_CASES = {
    # power series up to 12, Hankel expansion beyond; even in x
    "bessel_j0": (
        bessel_j0,
        [0.0, -1.5, 11.999999, 12.0, 12.5, -40.0, 150.0, 199.9],
        [math.nan, math.inf, -math.inf],
    ),
    # zero, series below shape + 1 = 3.5, continued fraction from there
    "reg_lower_incomplete_gamma": (
        functools.partial(reg_lower_incomplete_gamma, 2.5),
        [0.0, 1e-6, 0.5, 3.4999, 3.5, 4.5, 30.0, 250.0],
        [math.nan, math.inf, -math.inf, -0.5],
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
class TestArrayContract:
    @pytest.mark.parametrize("shape", [(), (8,), (2, 4)])
    def test_keeps_shape_and_matches_elementwise_calls(self, name, shape):
        fn, points, _ = ARRAY_CASES[name]
        x = np.asarray(points[: math.prod(shape)]).reshape(shape)
        values = fn(x)
        assert np.shape(values) == shape
        assert np.asarray(values).ravel().tolist() == [fn(float(v)) for v in x.flat]

    def test_scalar_input_returns_float(self, name):
        fn, points, _ = ARRAY_CASES[name]
        for x in points:
            assert type(fn(x)) is float
            assert type(fn(np.float64(x))) is float

    def test_one_bad_element_rejects_the_array(self, name):
        fn, points, rejected = ARRAY_CASES[name]
        for bad in rejected:
            x = np.array(points).reshape(2, 4)
            x[1, 2] = bad
            with pytest.raises(DomainError):
                fn(x)
