import sys
import warnings

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag.core import (
    EPS_PPM, GAS_NAMES, MAX_PPM, MIN_PPM, FaultLabel, GasSample, param_matrix,
)
from dgadiag.evaluation import kfold_cv
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
    assert fm.x.shape == fm.signals.shape == fm.baseline.shape == (1, 20)
    assert np.all(np.isfinite(fm.x))
    assert np.array_equal(fm.x, fm.signals - fm.baseline)


def test_k_out_of_usual_range_warns():
    with pytest.warns(UserWarning, match="outside"):
        build_features([ROW1], CANONICAL_RANK_ORDER, 5)


@pytest.mark.parametrize("build", [build_features])
def test_unusual_k_warning_names_the_calling_line(build):
    for samples in ([ROW1], [ROW1, ROW1]):  # the one-reading and the batch path
        with pytest.warns(UserWarning, match="k=5 outside") as record:
            line = sys._getframe().f_lineno + 1
            build(samples, CANONICAL_RANK_ORDER, 5)
        assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


def test_failed_build_warns_of_nothing():
    # the rank order is refused at this unusual k: the error is raised and
    # the k is not warned of
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^rank order must be a permutation"):
            build_features([ROW1], CANONICAL_RANK_ORDER[1:] + (1,), 8)
    assert caught == []


PD_ROW = GasSample(10, 20, 3, 4, 5, label=FaultLabel.PD, id="p1")


@pytest.mark.parametrize("samples, message", [
    ([ROW1] * 4 + [GasSample(292, 346, 32, 313, 196)],
     "label None is not a FaultLabel: samples must be labeled"),
    ([ROW1] * 4 + [PD_ROW], "stratification impossible: class PD has 1 samples, fewer than 2 folds"),
], ids=["an unlabeled row", "a class of fewer rows than folds"])
def test_failed_cv_warns_of_nothing(samples, message):
    # the folds are refused after the rows are built at this unusual k: the
    # error is raised and the k is not warned of
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kfold_cv(samples, CANONICAL_RANK_ORDER, 10, 2)
    assert caught == []


def test_cv_warns_of_an_unusual_k_once_at_the_calling_line():
    with pytest.warns(UserWarning, match="k=10 outside") as record:
        line = sys._getframe().f_lineno + 1
        kfold_cv([ROW1, ROW1, PD_ROW, PD_ROW], CANONICAL_RANK_ORDER, 10, 2, config=SMALL_CONFIG)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


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


@st.composite
def _readings(draw):
    """n readings across the 256-row ITD blocks: log-uniform gases with some
    zeros and some all-equal readings, so the prefixes mix plateaus with
    strict extrema.  At least two, so that the batch takes the numpy path."""
    n = draw(st.sampled_from([2, 255, 256, 257, 513]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gases = np.exp(rng.uniform(np.log(0.1), np.log(5e4), size=(n, 5)))
    gases[rng.random((n, 5)) < 0.1] = 0.0
    gases[rng.random(n) < 0.1] = 10.0
    return [GasSample(*g, id=f"s{i}") for i, g in enumerate(gases.tolist())]


@settings(max_examples=20, deadline=None)
@given(samples=_readings(), order=st.permutations(range(1, 38)), k=st.integers(2, 37))
def test_one_reading_alone_is_its_row_of_the_batch(samples, order, k):
    # a reading diagnosed on its own must get exactly the bytes of its row
    # in a batch, wherever the row falls in the batch's row blocks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k may lie outside 18..37
        batch = build_features(samples, order, k).x
        for i, sample in enumerate(samples):
            assert build_features([sample], order, k).x.tobytes() == batch[i].tobytes()


# calls refused before any row is built, and their messages; the rank order
# is checked before k
REFUSED_CALLS = {
    "float entry": ((5.0,) + CANONICAL_RANK_ORDER[1:], 24, "rank order entry must be an integer, got 5.0"),
    "repeated entry": (CANONICAL_RANK_ORDER[:-1] + (28,), 24, "rank order must be a permutation of 1..37"),
    "k = 1": (CANONICAL_RANK_ORDER, 1, "k must be in 2..37, got 1"),
    "k = 38": (CANONICAL_RANK_ORDER, 38, "k must be in 2..37, got 38"),
    "k = 24.0": (CANONICAL_RANK_ORDER, 24.0, "k must be an integer, got 24.0"),
    "float entry and k = 38": ((5.0,) + CANONICAL_RANK_ORDER[1:], 38, "rank order entry must be an integer, got 5.0"),
}


@pytest.mark.parametrize("order,k,message", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
@pytest.mark.parametrize("samples", [[ROW1], [ROW1, ROW1]], ids=["one reading", "two readings"])
def test_one_reading_is_refused_as_a_batch_is(samples, order, k, message):
    # one reading takes its own path; it must be refused with the batch's
    # message, and warn of no k
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_features(samples, order, k)
    assert caught == []


# a gas's extremes: zero, the floor and the ceiling, and their neighbours
EDGE_PPM = [0.0, -0.0, MIN_PPM, float(np.nextafter(MIN_PPM, 1)), EPS_PPM, 1.0,
            float(np.nextafter(MAX_PPM, 0)), MAX_PPM]
edge_gas = st.one_of(
    st.sampled_from(EDGE_PPM),
    st.floats(-9, 6).map(lambda e: min(max(10.0**e, MIN_PPM), MAX_PPM)),  # log-uniform
)


@settings(max_examples=300, deadline=None)
@given(
    gases=st.lists(st.tuples(*[edge_gas] * 5), min_size=1, max_size=8),
    order=st.permutations(range(1, 38)),
    k=st.integers(2, 37),
)
def test_features_of_any_accepted_gases_are_finite(gases, order, k):
    # the gas floor bounds every ITD slope, so no gas GasSample accepts can
    # overflow or divide by zero in the features, in any rank order at any k
    samples = [GasSample(*g) for g in gases]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("ignore", UserWarning)  # k may lie outside 18..37
        fm = build_features(samples, order, k)
    assert np.isfinite(fm.x).all() and np.isfinite(fm.baseline).all()
    below = float(np.nextafter(MIN_PPM, 0))
    for i, name in enumerate(GAS_NAMES):
        with pytest.raises(ValueError, match=f"^gas {name} must be 0 or in 1e-09"):
            GasSample(*gases[0][:i], below, *gases[0][i + 1:])


# the one-reading path's edges: EDGE_PPM, the clamp EPS_PPM and its
# neighbours, all drawn from a few values so that gases and parameters repeat
ONE_ROW_PPM = EDGE_PPM + [float(np.nextafter(EPS_PPM, 0)), float(np.nextafter(EPS_PPM, 1))]


@st.composite
def _edge_batches(draw):
    """2..6 samples on the gas edges, some with five equal gases."""
    gas = st.sampled_from(ONE_ROW_PPM + draw(st.lists(edge_gas, min_size=1, max_size=3)))
    rows = draw(st.lists(
        st.tuples(*[gas] * 5) | gas.map(lambda g: (g,) * 5), min_size=2, max_size=6
    ))
    return [GasSample(*g) for g in rows]


@settings(max_examples=300, deadline=None)
@given(samples=_edge_batches(), order=st.permutations(range(1, 38)), k=st.integers(2, 37))
def test_one_reading_path_gives_the_bits_of_the_batch_path(samples, order, k):
    # build_features takes Python floats for one sample and numpy for two or
    # more; every array of a sample's FeatureMatrix must be its batch row
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k may lie outside 18..37
        batch = build_features(samples, order, k)
        for i, sample in enumerate(samples):
            one = build_features([sample], order, k)
            for name in ("x", "signals", "baseline"):
                got, want = getattr(one, name), getattr(batch, name)[i : i + 1]
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (name, sample)


CANONICAL = list(CANONICAL_RANK_ORDER)
ACCEPTED_ORDERS = {
    "tuple": CANONICAL_RANK_ORDER,
    "list": CANONICAL,
    "numpy int64 array": np.array(CANONICAL),
    "numpy int32 entries": [np.int32(v) for v in CANONICAL],
    "mixed int entries": [np.uint8(v) if i % 2 else v for i, v in enumerate(CANONICAL)],
}
NOT_INTEGERS = [True, np.True_, 28.0, np.float64(28.0), "28", None]
NOT_PERMUTATIONS = {
    "repeated": [1] * 37,
    "zero-based": list(range(37)),
    "36 entries": CANONICAL[:-1],
    "38 entries": CANONICAL + [38],
    "a duplicate": CANONICAL[:-1] + CANONICAL[:1],
}


@pytest.mark.parametrize("order", ACCEPTED_ORDERS.values(), ids=ACCEPTED_ORDERS.keys())
def test_rank_orders_of_python_and_numpy_integers_are_accepted(order):
    want = build_features([ROW1], CANONICAL_RANK_ORDER, 24)
    got = build_features([ROW1], order, 24)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.signals.tobytes() == want.signals.tobytes()


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", [0, 36])
@pytest.mark.parametrize("build", [build_features])
def test_rank_order_entries_must_be_integers(build, where, bad):
    # numpy integers before the entry do not let it through; a later bad
    # entry is not the one named
    order = [np.int64(v) for v in CANONICAL]
    order[where] = bad
    order.append(1.5)
    message = f"rank order entry must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build([ROW1], order, 24)


@pytest.mark.parametrize("order", NOT_PERMUTATIONS.values(), ids=NOT_PERMUTATIONS.keys())
@pytest.mark.parametrize("build", [build_features])
def test_rank_order_must_be_a_permutation(build, order):
    for entries in (order, [np.int16(v) for v in order]):
        with pytest.raises(ValueError, match=r"^rank order must be a permutation of 1\.\.37$"):
            build([ROW1], entries, 24)


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
        with pytest.raises(ValueError, match=r"^k_min must be an integer, got 24\.0$"):
            optimal_k_search(samples, CANONICAL_RANK_ORDER, k_min=24.0, config=SMALL_CONFIG)

    def test_rank_order_is_checked_before_k(self):
        with pytest.raises(ValueError, match=r"^rank order must be a permutation of 1\.\.37$"):
            optimal_k_search([ROW1, ROW1], [1] * 37, k_min=40, k_max=41)

    @pytest.mark.parametrize("k_max, train_frac, message", [
        (20, 0.05, "degenerate labels"),  # a one-row training split
        (40, 0.85, "k must be in 2..37, got 40"),
        (24.0, 0.85, "k_max must be an integer, got 24.0"),
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
