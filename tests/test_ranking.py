import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dgadiag.core import GasSample
from dgadiag.features import build_features
from dgadiag.io import generate_synthetic
from dgadiag.ranking import (
    CANONICAL_RANK_ORDER,
    anova_pvalue,
    rank_params,
    skewness,
    validate_rank_order,
)


class TestSkewness:
    def test_symmetric(self):
        assert skewness([1, 2, 3]) == 0

    def test_constant(self):
        assert skewness([5, 5, 5, 5]) == 0

    def test_bernoulli_quarter(self):
        # closed form for a Bernoulli(p) sample: (1 - 2p) / sqrt(p (1 - p))
        p = 0.25
        expected = (1 - 2 * p) / math.sqrt(p * (1 - p))
        assert skewness([0, 0, 0, 1]) == pytest.approx(expected, abs=1e-12)
        assert skewness([0, 0, 0, 1]) == pytest.approx(1.1547, abs=1e-4)

    def test_two_values_are_not_skewed(self):
        # computed from moments, these read about 1e-15 by roundoff
        assert skewness([0.1, 0.7]) == 0.0
        assert skewness([3.3e-3, 1e9]) == 0.0

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            skewness([1.0])

    @pytest.mark.parametrize("xs, shift", [
        ([1.5e308, 1.5e308, -1e308], -1000),  # the mean of these overflowed
        ([1.7e308, -1.7e308, 1e308, 0.0], -600),
        ([5e-324, 1e-323, 0.0], 1000),  # subnormal: scaled up, exactly
    ])
    def test_extreme_values_give_the_bits_of_a_scaled_copy(self, xs, shift):
        # runs under -W error: no overflow warning either
        got = skewness(xs)
        assert math.isfinite(got)
        assert float.hex(skewness(np.ldexp(np.array(xs), shift))) == float.hex(got)

    def test_values_near_the_float_range(self):
        assert skewness([1.5, 1.5, -1.0]) == pytest.approx(-0.7071067811865475, abs=1e-15)
        assert skewness([1.5e308, 1.5e308, -1e308]) == pytest.approx(-0.7071067811865475, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="^skewness requires finite values$"):
            skewness([1.0, bad, 2.0])

    # dyadic values keep a*x + b exact in floating point, so the property is
    # tested without manufacturing catastrophic cancellation
    dyadic = st.integers(min_value=-(2**24), max_value=2**24).map(lambda n: n / 64.0)

    @given(
        st.lists(dyadic, min_size=2, max_size=60),
        st.sampled_from([0.25, 2.0, 8.0]),
        st.sampled_from([-12.5, 0.0, 1000.25]),
    )
    # a large offset and a small spread: the rounded mean used to be off by
    # 2e-9 of the skewness here
    @example(xs=[262140.09375, 262140.0, 262140.078125], a=0.25, b=1000.25)
    def test_affine_invariance(self, xs, a, b):
        base = skewness(xs)
        shifted = skewness([a * x + b for x in xs])
        assert shifted == pytest.approx(base, abs=1e-9)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
    def test_negation_flips_sign(self, xs):
        assert skewness([-x for x in xs]) == pytest.approx(-skewness(xs), abs=1e-9)


class TestRankParams:
    def test_identical_samples_tie_break(self):
        samples = [GasSample(1, 2, 3, 4, 5)] * 4
        assert rank_params(samples) == tuple(range(1, 38))

    def test_two_samples_keep_parameter_order(self):
        samples = generate_synthetic(11)[:2]
        assert rank_params(samples) == tuple(range(1, 38))

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="^ranking needs at least two samples, got 0$"):
            rank_params([])

    def test_symmetric_before_right_skewed(self):
        # h2 symmetric over the dataset, c2h2 right-skewed; both ranked by
        # the same skewness oracle used directly
        samples = [
            GasSample(h2, 1, 1, 1, c2h2)
            for h2, c2h2 in [(10, 1), (20, 1), (30, 1), (20, 1), (20, 50)]
        ]
        order = rank_params(samples)
        h2_vals = [s.h2 for s in samples]
        c2h2_vals = [s.c2h2 for s in samples]
        assert skewness(h2_vals) < skewness(c2h2_vals)
        # param 14 is raw h2, param 18 is raw c2h2
        assert order.index(14) < order.index(18)

    def test_deterministic(self):
        samples = [
            GasSample(*np.random.default_rng(i).uniform(1, 100, 5)) for i in range(12)
        ]
        assert rank_params(samples) == rank_params(samples)

    def test_is_permutation(self):
        samples = [
            GasSample(*np.random.default_rng(i).uniform(1, 100, 5)) for i in range(8)
        ]
        assert sorted(rank_params(samples)) == list(range(1, 38))


class TestCanonicalOrder:
    def test_first_element(self):
        assert CANONICAL_RANK_ORDER[0] == 28

    def test_24th_element(self):
        assert CANONICAL_RANK_ORDER[23] == 6

    def test_full_sequence(self):
        assert isinstance(CANONICAL_RANK_ORDER, tuple)
        assert len(CANONICAL_RANK_ORDER) == 37
        assert sorted(CANONICAL_RANK_ORDER) == list(range(1, 38))

    def test_validate_rank_order(self):
        assert validate_rank_order(range(1, 38)) == tuple(range(1, 38))
        with pytest.raises(ValueError):
            validate_rank_order([1] * 37)
        with pytest.raises(ValueError):
            validate_rank_order(range(0, 37))

    def test_validate_rank_order_types(self):
        got = validate_rank_order(np.arange(1, 38))  # numpy integers are fine
        assert got == tuple(range(1, 38)) and all(type(v) is int for v in got)
        for bad in (1.9, 1.0, "1", True, np.float64(1.0), np.bool_(True)):
            with pytest.raises(ValueError, match="must be an integer"):
                validate_rank_order([bad, *range(2, 38)])

    def test_build_features_rejects_a_float_rank(self):
        samples = generate_synthetic(11, counts=(2,) * 6)
        with pytest.raises(ValueError, match="must be an integer, got 1.9"):
            build_features(samples, [1.9, *range(2, 38)], 24)


class TestAnova:
    def test_identical_distributions(self):
        res = anova_pvalue([[1, 2], [1, 2]])
        assert res.f_statistic == 0
        assert res.p_value == 1

    def test_zero_within_group_variance(self):
        res = anova_pvalue([[0, 0], [1, 1]])
        assert math.isinf(res.f_statistic)
        assert res.p_value == 0

    def test_hand_example(self):
        res = anova_pvalue([[1, 2, 3], [2, 3, 4]])
        assert res.f_statistic == pytest.approx(1.5, abs=1e-12)
        assert res.p_value == pytest.approx(0.2879, abs=1e-4)
        assert res.df_between == 1
        assert res.df_within == 4

    def test_degrees_of_freedom(self):
        res = anova_pvalue([[1, 2], [3, 4], [5, 6, 7]])
        assert res.df_between == 2
        assert res.df_within == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            anova_pvalue([[1, 2]])
        with pytest.raises(ValueError):
            anova_pvalue([[1, 2], []])
        with pytest.raises(ValueError):
            anova_pvalue([[1], [2]])

    @pytest.mark.parametrize("groups", [
        [[1.0, math.nan], [2.0, 3.0]],  # used to reach betainc with a NaN
        [[1.0, 2.0], [math.inf, 3.0]],
        [[-math.inf, 2.0], [1.0, 3.0]],
    ])
    def test_non_finite_values(self, groups):
        with pytest.raises(ValueError, match="^anova requires finite values$"):
            anova_pvalue(groups)

    @pytest.mark.parametrize("groups, shift", [
        ([[1e308, -1e308, 5e307], [1.5e308, 1e307]], -1000),  # sums and squares overflowed
        ([[1.7e308, 1.7e308], [-1.7e308, -1.6e308, -1.7e308]], -600),
        ([[1e-310, 2e-310], [3e-310, 5e-310, 4e-310]], 1000),  # subnormal: scaled up, exactly
    ])
    def test_extreme_values_give_the_bits_of_a_scaled_copy(self, groups, shift):
        # runs under -W error: no overflow warning either
        got = anova_pvalue(groups)
        assert math.isfinite(got.f_statistic) and 0.0 <= got.p_value <= 1.0
        scaled = anova_pvalue([np.ldexp(np.array(g), shift) for g in groups])
        assert [float.hex(v) for v in (scaled.f_statistic, scaled.p_value)] == [
            float.hex(v) for v in (got.f_statistic, got.p_value)]


class TestAnovaAgainstScipy:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_f_oneway(self, seed):
        from scipy import stats

        rng = np.random.default_rng(seed)
        groups = [
            rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(3, 12)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        ours = anova_pvalue([g.tolist() for g in groups])
        ref = stats.f_oneway(*groups)
        assert ours.f_statistic == pytest.approx(float(ref.statistic), rel=1e-10)
        assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)
