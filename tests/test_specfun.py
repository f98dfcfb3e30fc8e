import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friscov import DomainError, bessel_j0

from oracles import oracle_bessel_j0, oracle_first_j0_zero

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

    def test_beyond_range_rejected(self):
        with pytest.raises(DomainError):
            bessel_j0(1.5e5)

    def test_against_series_oracle_on_random_points(self):
        rng = np.random.default_rng(2024)
        for x in [11.999999, 12.0, 12.000001, 12.5, *rng.uniform(0.0, 200.0, size=300)]:
            assert bessel_j0(float(x)) == pytest.approx(oracle_bessel_j0(float(x)), abs=1e-14)

    def test_against_mpmath_up_to_the_range_limit(self):
        rng = np.random.default_rng(2025)
        for x in [1e3, 1e5, *rng.uniform(1e3, 1e5, size=40)]:
            assert bessel_j0(float(x)) == pytest.approx(float(mp.besselj(0, float(x))), abs=1e-12)


# Each function of one array argument: points on every branch, and the
# elements it rejects.
ARRAY_CASES = {
    # 140 nodes up to |x| = 500/3, ceil(0.6|x|) + 40 beyond; even in x
    "bessel_j0": (
        bessel_j0,
        [0.0, -1.5, 12.5, -40.0, 150.0, 199.9, 1e3, -5e4],
        [math.nan, math.inf, -math.inf, 1.5e5],
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
