import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgadiag.itd import find_extrema, itd_single_stage

signals = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=120),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


class TestFindExtrema:
    def test_single_peak(self):
        assert find_extrema([0, 1, 0]) == [1, 2, 3]

    def test_monotone(self):
        assert find_extrema([0, 1, 2, 3]) == [1, 4]

    def test_plateau_collapses_to_first_index(self):
        # enumerate the rule on the 4-point signal: diffs +1, 0, -1; the
        # plateau starts at index 2 and the flanking signs differ
        assert find_extrema([0, 1, 1, 0]) == [1, 2, 4]

    def test_plateau_without_sign_change(self):
        assert find_extrema([0, 1, 1, 2]) == [1, 4]

    def test_plateau_touching_endpoint(self):
        assert find_extrema([1, 1, 0]) == [1, 3]
        assert find_extrema([0, 1, 1]) == [1, 3]

    def test_too_short(self):
        with pytest.raises(ValueError):
            find_extrema([1.0])

    @given(signals)
    def test_strictly_increasing_within_bounds(self, x):
        knots = find_extrema(x)
        assert knots[0] == 1
        assert knots[-1] == len(x)
        assert all(a < b for a, b in zip(knots, knots[1:]))


class TestSingleStage:
    def test_constant_input(self):
        res = itd_single_stage([7, 7, 7, 7])
        assert np.array_equal(res.prc, np.zeros(4))
        assert np.array_equal(res.baseline, np.full(4, 7.0))

    def test_monotone_input(self):
        res = itd_single_stage([1, 2, 5, 9])
        assert np.array_equal(res.prc, np.zeros(4))

    def test_hand_example(self):
        res = itd_single_stage([0, 1, 0, 1, 0], alpha=0.5)
        assert np.allclose(res.baseline, [0, 0.5, 0.5, 0.5, 0], atol=1e-15)
        assert np.allclose(res.prc, [0, 0.5, -0.5, 0.5, 0], atol=1e-15)
        assert res.extrema == [1, 2, 3, 4, 5]

    def test_reconstruction_is_exact_by_construction(self):
        x = np.random.default_rng(1).normal(size=37)
        res = itd_single_stage(x)
        assert np.max(np.abs((x - res.baseline) - res.prc)) == 0.0

    def test_1000_seeded_reconstructions(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=int(rng.integers(2, 201)))
            res = itd_single_stage(x)
            assert np.max(np.abs((x - res.baseline) - res.prc)) == 0.0

    def test_endpoints_pinned(self):
        x = np.random.default_rng(2).normal(size=40)
        res = itd_single_stage(x)
        assert res.prc[0] == 0.0
        assert res.prc[-1] == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            itd_single_stage([1.0])
        with pytest.raises(ValueError):
            itd_single_stage([1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            itd_single_stage([1.0, 2.0, 1.0], alpha=1.0)

# dyadic grid values: scaling by powers of two and adding dyadic shifts is
# then exact in binary floating point, so the knot layout cannot drift
dyadic_signals = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=120),
    elements=st.integers(min_value=-(2**20), max_value=2**20).map(
        lambda n: n / 64.0
    ),
)


class TestSingleStageProperties:
    @settings(max_examples=60)
    @given(dyadic_signals, st.sampled_from([0.5, 2.0, 4.0]))
    def test_amplitude_linearity(self, x, c):
        base = itd_single_stage(x).baseline
        scaled = itd_single_stage(c * x).baseline
        assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-300)

    @settings(max_examples=60)
    @given(dyadic_signals, st.sampled_from([-2.5, 5.25, 100.0]))
    def test_shift_equivariance(self, x, b):
        base = itd_single_stage(x)
        shifted = itd_single_stage(x + b)
        scale = max(1.0, float(np.max(np.abs(x))), abs(b))
        assert np.allclose(shifted.baseline, base.baseline + b, rtol=0, atol=1e-12 * scale)
        assert np.allclose(shifted.prc, base.prc, rtol=0, atol=1e-12 * scale)
