import warnings

import numpy as np
import pytest

from dgadiag.core import FaultLabel, GasSample, param_matrix
from dgadiag.features import FeatureMatrix, build_features, optimal_k_search
from dgadiag.gbt import GbtConfig
from dgadiag.itd import itd_rows
from dgadiag.ranking import CANONICAL_RANK_ORDER

ROW1 = GasSample(292, 346, 32, 313, 196, label=FaultLabel.D2, id="r1")

CANONICAL_FIRST_24 = (
    28, 24, 1, 27, 31, 37, 26, 35, 36, 3, 32, 2,
    34, 4, 5, 33, 21, 14, 19, 20, 13, 10, 23, 6,
)


def test_canonical_k24_prefix_drives_the_rows():
    order = CANONICAL_RANK_ORDER
    assert order[:24] == CANONICAL_FIRST_24
    fm = build_features([ROW1], order, 24)
    # oracle: compose the stages by hand for this sample
    pv = param_matrix([ROW1])[0]
    signal = np.array([pv[num - 1] for num in CANONICAL_FIRST_24])
    _, _, expected = itd_rows(signal[None, :])
    assert np.array_equal(fm.x[0], expected[0])


def test_constant_prefix_gives_zero_row():
    # equal gases make every ratio parameter against one aggregate equal;
    # pick an order whose prefix holds parameters with identical values
    sample = GasSample(1, 1, 1, 1, 1, id="c")
    order = CANONICAL_RANK_ORDER
    fm = build_features([sample], order, 24)
    pv = param_matrix([sample])[0]
    signal = np.array([pv[n - 1] for n in order[:24]])
    if np.all(signal == signal[0]):
        assert np.all(fm.x[0] == 0.0)
    # regardless, a genuinely constant signal must map to a zero row
    flat = [GasSample(0, 0, 0, 0, 0, id="z")]
    with pytest.warns(UserWarning):
        fm_zero = build_features(flat, tuple(range(1, 38)), 10)
    assert np.all(fm_zero.x[0] == 0.0)


def test_row1_k18():
    order = CANONICAL_RANK_ORDER
    fm = build_features([ROW1], order, 18)
    pv = param_matrix([ROW1])[0]
    signal = np.array([pv[num - 1] for num in order[:18]])
    assert np.array_equal(fm.x[0], itd_rows(signal[None, :])[2][0])
    assert fm.x.shape == (1, 18)
    assert fm.labels == [FaultLabel.D2]


def test_metadata_recorded():
    order = CANONICAL_RANK_ORDER
    fm = build_features([ROW1], order, 20)
    assert isinstance(fm, FeatureMatrix)
    assert fm.x.shape == (1, 20)
    assert np.all(np.isfinite(fm.x))


def test_k_out_of_usual_range_warns():
    with pytest.warns(UserWarning, match="outside"):
        build_features([ROW1], CANONICAL_RANK_ORDER, 5)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_features([], CANONICAL_RANK_ORDER, 24)
    with pytest.raises(ValueError):
        build_features([ROW1], [1] * 37, 24)
    with pytest.raises(ValueError):
        build_features([ROW1], CANONICAL_RANK_ORDER, 38)


def test_determinism():
    samples = [
        GasSample(*np.random.default_rng(i).uniform(1, 500, 5), label=FaultLabel.PD)
        for i in range(6)
    ]
    order = CANONICAL_RANK_ORDER
    a = build_features(samples, order, 24)
    b = build_features(samples, order, 24)
    assert np.array_equal(a.x, b.x)


def _two_class_noisy(n_per_class: int, seed: int) -> list[GasSample]:
    # labels correlate with the overall gas magnitude, with class overlap so
    # the accuracy curve is not saturated
    rng = np.random.default_rng(seed)
    samples = []
    for j in range(n_per_class):
        low = rng.uniform(1, 60, 5)
        samples.append(GasSample(*low, label=FaultLabel.PD, id=f"a{j}"))
        high = rng.uniform(20, 400, 5)
        samples.append(GasSample(*high, label=FaultLabel.D1, id=f"b{j}"))
    return samples


SMALL_CONFIG = GbtConfig(rounds=15, max_depth=3)


class TestOptimalKSearch:
    def test_single_candidate(self):
        samples = _two_class_noisy(15, seed=0)
        result = optimal_k_search(
            samples, CANONICAL_RANK_ORDER, k_min=20, k_max=20,
            split_seed=1, config=SMALL_CONFIG,
        )
        assert result.best_k == 20
        assert list(result.accuracy_curve) == [20]

    def test_best_k_is_argmax_of_curve(self):
        samples = _two_class_noisy(25, seed=2)
        result = optimal_k_search(
            samples, CANONICAL_RANK_ORDER, k_min=18, k_max=26,
            split_seed=3, config=SMALL_CONFIG,
        )
        curve = result.accuracy_curve
        assert len(curve) == 9
        assert all(0.0 <= v <= 1.0 for v in curve.values())
        best_acc = max(curve.values())
        assert result.best_k == min(k for k, v in curve.items() if v == best_acc)
        assert 18 <= result.best_k <= 26

    def test_deterministic(self):
        samples = _two_class_noisy(15, seed=4)
        kwargs = dict(k_min=18, k_max=21, split_seed=5, config=SMALL_CONFIG)
        r1 = optimal_k_search(samples, CANONICAL_RANK_ORDER, **kwargs)
        r2 = optimal_k_search(samples, CANONICAL_RANK_ORDER, **kwargs)
        assert r1.accuracy_curve == r2.accuracy_curve
        assert r1.best_k == r2.best_k

    def test_unlabeled_rejected(self):
        samples = _two_class_noisy(10, seed=6)
        samples.append(GasSample(1, 1, 1, 1, 1, id="u"))
        with pytest.raises(ValueError, match="label"):
            optimal_k_search(samples, CANONICAL_RANK_ORDER, config=SMALL_CONFIG)

    def test_bad_range(self):
        samples = _two_class_noisy(10, seed=7)
        with pytest.raises(ValueError, match="k_min"):
            optimal_k_search(
                samples, CANONICAL_RANK_ORDER, k_min=25, k_max=20,
                config=SMALL_CONFIG,
            )

    @pytest.mark.parametrize("k_max, train_frac, message", [
        (20, 0.05, "degenerate labels"),  # a one-row training split
        (40, 0.85, "k must be in 2..37, got 40"),
    ])
    def test_failed_search_warns_of_nothing(self, k_max, train_frac, message):
        # k = 10..17 were warned of before the search failed on its first
        # training or on k = 38
        samples = _two_class_noisy(10, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                optimal_k_search(samples, CANONICAL_RANK_ORDER, k_min=10, k_max=k_max,
                                 train_frac=train_frac, config=SMALL_CONFIG)

    def test_unusual_k_warned_after_the_search(self):
        samples = _two_class_noisy(10, seed=9)
        with pytest.warns(UserWarning) as record:
            result = optimal_k_search(samples, CANONICAL_RANK_ORDER, k_min=16, k_max=19,
                                      config=SMALL_CONFIG)
        assert list(result.accuracy_curve) == [16, 17, 18, 19]
        assert [str(w.message) for w in record] == [
            "k=16 outside the usual 18..37 range", "k=17 outside the usual 18..37 range"
        ]
        assert all(w.filename == __file__ for w in record)

    def test_too_few_samples_for_split(self):
        samples = _two_class_noisy(1, seed=8)[:1]
        with pytest.raises(ValueError):
            optimal_k_search(samples, CANONICAL_RANK_ORDER, config=SMALL_CONFIG)
