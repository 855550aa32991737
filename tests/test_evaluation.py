import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag.core import CLASS_ORDER, GasSample, _class_indices, _integer, _rng
from dgadiag.evaluation import (
    ConfusionMatrix,
    confusion,
    kfold_cv,
    metrics,
    smote,
    stratified_folds,
    train_test_split,
)
from dgadiag.features import build_features
from dgadiag.gbt import GbtConfig, train
from dgadiag.io import SYNTH_GAS_RANGES, ModelBundle, generate_synthetic
from dgadiag.ranking import CANONICAL_RANK_ORDER, rank_params
from dgadiag.reference import (
    REFERENCE_ACCURACY_PCT,
    REFERENCE_F1,
    REFERENCE_HOLDOUT_CONFUSION,
    REFERENCE_SENSITIVITY_PCT,
)

PD, D1, D2, T1, T2, T3 = CLASS_ORDER


class TestConfusion:
    def test_single_pair(self):
        cm = confusion([PD], [PD])
        assert cm.counts[0, 0] == 1
        assert cm.counts.sum() == 1

    def test_reference_row_sums(self):
        cm = ConfusionMatrix(counts=REFERENCE_HOLDOUT_CONFUSION)
        assert cm.counts.sum(axis=1).tolist() == [4, 7, 15, 6, 3, 8]

    def test_swapped_arguments_transpose(self):
        actual = [PD, D1, D1, T3]
        predicted = [D1, D1, T3, PD]
        assert np.array_equal(
            confusion(actual, predicted).counts,
            confusion(predicted, actual).counts.T,
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([PD], [PD, D1])

    @pytest.mark.parametrize("actual, predicted, bad", [
        ([None], [PD], "None"), ([PD, D1], [T3, "T3"], "'T3'"),
    ])
    def test_label_outside_class_order_is_named(self, actual, predicted, bad):
        # an unlabeled sample's None raised a bare KeyError
        with pytest.raises(ValueError, match=f"^label {bad} is not a FaultLabel: samples must be labeled$"):
            confusion(actual, predicted)

    def test_reconstruction_from_label_pairs(self):
        pairs = []
        for i, row in enumerate(REFERENCE_HOLDOUT_CONFUSION):
            for j, count in enumerate(row):
                pairs += [(CLASS_ORDER[i], CLASS_ORDER[j])] * int(count)
        cm = confusion([a for a, _ in pairs], [p for _, p in pairs])
        assert np.array_equal(cm.counts, REFERENCE_HOLDOUT_CONFUSION)


class TestMetrics:
    def test_reference_matrix_metrics(self):
        report = metrics(ConfusionMatrix(counts=REFERENCE_HOLDOUT_CONFUSION))
        for got, want in zip(report.sensitivity * 100, REFERENCE_SENSITIVITY_PCT):
            assert got == pytest.approx(want, abs=5e-3)
        for got, want in zip(report.f1, REFERENCE_F1):
            assert got == pytest.approx(want, abs=5e-5)
        assert report.accuracy * 100 == pytest.approx(REFERENCE_ACCURACY_PCT, abs=5e-3)

    def test_reference_matrix_kappa(self):
        # direct formula evaluation: p_o = 41/43, p_e = 403/1849
        report = metrics(ConfusionMatrix(counts=REFERENCE_HOLDOUT_CONFUSION))
        p_o = 41 / 43
        p_e = 403 / 1849
        assert report.kappa == pytest.approx((p_o - p_e) / (1 - p_e), abs=1e-12)
        assert report.kappa == pytest.approx(0.9405, abs=1e-4)

    def test_identity_matrix(self):
        report = metrics(ConfusionMatrix(counts=np.eye(6, dtype=np.int64)))
        assert np.all(report.sensitivity == 1)
        assert np.all(report.f1 == 1)
        assert report.accuracy == 1
        assert report.kappa == 1
        assert report.macro_f1 == 1

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(counts=np.zeros((6, 6), dtype=np.int64)))

    def test_single_class_total_agreement(self):
        counts = np.zeros((6, 6), dtype=np.int64)
        counts[2, 2] = 9  # p_e == 1 convention
        assert metrics(ConfusionMatrix(counts=counts)).kappa == 1.0

    @settings(max_examples=200)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=30), min_size=36, max_size=36
        ).filter(lambda c: sum(c) > 0)
    )
    def test_kappa_at_most_accuracy(self, cells):
        counts = np.array(cells, dtype=np.int64).reshape(6, 6)
        report = metrics(ConfusionMatrix(counts=counts))
        assert report.kappa <= report.accuracy + 1e-12
        assert -1.0 - 1e-12 <= report.kappa <= 1.0 + 1e-12
        assert 0.0 <= report.accuracy <= 1.0


class TestTrainTestSplit:
    def test_sizes_376(self):
        train, test = train_test_split(376, 0.85, seed=0)
        # round(319.6) rounds up; the originally reported 333/43 split was a
        # realized experiment, not this contract
        assert (len(train), len(test)) == (320, 56)

    def test_two_items(self):
        train, test = train_test_split(2, 0.5, seed=0)
        assert len(train) == len(test) == 1

    def test_deterministic(self):
        a_train, a_test = train_test_split(50, 0.8, seed=9)
        b_train, b_test = train_test_split(50, 0.8, seed=9)
        assert a_train.tolist() == b_train.tolist()
        assert a_test.tolist() == b_test.tolist()

    def test_disjoint_covering(self):
        train, test = train_test_split(101, 0.7, seed=3)
        assert sorted(train.tolist() + test.tolist()) == list(range(101))

    def test_errors(self):
        with pytest.raises(ValueError):
            train_test_split(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            train_test_split(3, 0.99, seed=0)
        with pytest.raises(ValueError):
            train_test_split(2, 1.5, seed=0)


class TestSmote:
    def test_balanced_input_is_noop(self):
        x = np.arange(12, dtype=float).reshape(6, 2)
        y = [PD] * 3 + [D1] * 3
        x2, y2 = smote(x, y, seed=0)
        assert np.array_equal(x2, x) and not np.shares_memory(x2, x)
        assert y2 == y

    def test_two_point_minority_on_segment(self):
        x = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [10, 10], [12, 12]], dtype=float)
        y = [PD] * 4 + [D1] * 2
        x2, y2 = smote(x, y, seed=5)  # two rows: each is the other's only neighbor
        assert len(y2) == 8
        assert y2[6:] == [D1, D1]
        a, b = x[4], x[5]
        for row in x2[6:]:
            u = (row - a) / (b - a)
            assert u[0] == pytest.approx(u[1], abs=1e-12)
            assert -1e-12 <= u[0] <= 1 + 1e-12

    def test_reference_class_counts_balance(self):
        rng = np.random.default_rng(0)
        counts = (42, 67, 113, 80, 21, 53)
        x = rng.normal(size=(sum(counts), 3))
        y = [lbl for lbl, c in zip(CLASS_ORDER, counts) for _ in range(c)]
        x2, y2 = smote(x, y, seed=1)
        assert len(y2) == 6 * 113 == 678
        for lbl in CLASS_ORDER:
            assert sum(1 for v in y2 if v == lbl) == 113

    def test_originals_preserved_as_prefix(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = [PD] * 20 + [D1] * 10
        x2, y2 = smote(x, y, seed=3)
        assert np.array_equal(x2[:30], x)
        assert y2[:30] == y

    def test_synthetic_rows_are_convex_combinations(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(24, 5))
        y = [PD] * 16 + [T2] * 8
        x2, y2 = smote(x, y, seed=7)
        minority = x[16:]
        for row in x2[24:]:
            # residual distance from the nearest segment between two
            # same-class originals
            best = np.inf
            for i in range(8):
                for j in range(8):
                    if i == j:
                        continue
                    seg = minority[j] - minority[i]
                    u = np.dot(row - minority[i], seg) / np.dot(seg, seg)
                    if -1e-9 <= u <= 1 + 1e-9:
                        best = min(best, np.linalg.norm(row - (minority[i] + u * seg)))
            assert best < 1e-9

    @pytest.mark.parametrize("x", [np.zeros((3, 2)), np.zeros(4), np.zeros((4, 2, 1))])
    def test_features_must_be_one_row_per_label(self, x):
        with pytest.raises(ValueError, match="^features must be 2-D with one row per label$"):
            smote(x, [PD, PD, D1, D1], seed=0)

    def test_singleton_class_error(self):
        x = np.zeros((3, 2))
        y = [PD, PD, D1]
        with pytest.raises(ValueError, match="^cannot interpolate: class D1 has a single sample$"):
            smote(x, y, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 3))
        y = [PD] * 14 + [D1] * 6
        x1, y1 = smote(x, y, seed=11)
        x2, y2 = smote(x, y, seed=11)
        assert np.array_equal(x1, x2)
        assert y1 == y2


class TestStratifiedFolds:
    def test_partition_properties(self):
        labels = [CLASS_ORDER[i % 6] for i in range(47)]
        folds = stratified_folds(labels, 5, seed=0)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(47))
        for lbl in CLASS_ORDER:
            per_fold = [sum(1 for i in fold if labels[i] == lbl) for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_error_names_class(self):
        labels = [PD] * 10 + [T2] * 2
        with pytest.raises(ValueError, match="T2"):
            stratified_folds(labels, 5, seed=0)
        with pytest.raises(ValueError, match=r"^folds must be an integer, got 3\.0$"):
            stratified_folds(labels, 3.0, seed=0)

    def test_deterministic(self):
        labels = [CLASS_ORDER[i % 6] for i in range(60)]
        a = stratified_folds(labels, 4, seed=2)
        b = stratified_folds(labels, 4, seed=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_empty_label_list_is_refused_by_name(self):
        for folds in (3, 10**23):
            with pytest.raises(ValueError, match=r"^empty label list$"):
                stratified_folds([], folds, seed=0)

    def test_fold_count_no_class_fills_is_refused_before_anything_is_sized(self):
        message = f"stratification impossible: class PD has 7 samples, fewer than {10**23} folds"
        with pytest.raises(ValueError, match=f"^{message}$"):
            stratified_folds([PD] * 7 + [T3] * 9, 10**23, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 40), min_size=6, max_size=6).filter(any),
        order_seed=st.integers(0, 2**32 - 1),
        folds=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_list_based_reference(self, counts, order_seed, folds, seed):
        # absent classes (count 0), classes smaller than `folds` and classes
        # that fill every fold, interleaved in a drawn order
        labels = [label for label, n in zip(CLASS_ORDER, counts) for _ in range(n)]
        labels = [labels[i] for i in np.random.default_rng(order_seed).permutation(len(labels))]
        try:
            want = _reference_folds(labels, folds, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                stratified_folds(labels, folds, seed)
            return
        got = stratified_folds(labels, folds, seed)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _reference_folds(labels, folds, seed):
    """The list-based fold assignment that `stratified_folds` replaced: each
    class's rows, in a seeded order, appended round robin to per-fold
    lists, each fold then sorted."""
    folds = _integer("folds", folds)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    y = _class_indices(labels)
    rng = _rng(seed)
    assignments = [[] for _ in range(folds)]
    for c, label in enumerate(CLASS_ORDER):
        idx = np.flatnonzero(y == c)
        if idx.size == 0:
            continue
        if idx.size < folds:
            raise ValueError(
                f"stratification impossible: class {label.value} has "
                f"{idx.size} samples, fewer than {folds} folds"
            )
        idx = idx[rng.permutation(idx.size)]
        for j, i in enumerate(idx):
            assignments[j % folds].append(int(i))
    return [np.array(sorted(fold), dtype=np.intp) for fold in assignments]


def _archetype_samples(per_class: int, seed: int) -> list[GasSample]:
    """Tightly clustered gas blobs, one archetype per class."""
    rng = np.random.default_rng(seed)
    samples = []
    for label in CLASS_ORDER:
        mid = {
            g: float(np.sqrt(lo * hi)) for g, (lo, hi) in SYNTH_GAS_RANGES[label].items()
        }
        for j in range(per_class):
            gases = {g: v * (1 + rng.uniform(-0.01, 0.01)) for g, v in mid.items()}
            samples.append(GasSample(**gases, label=label, id=f"{label.value}{j}"))
    return samples


class TestKfoldCv:
    # per-point hessians start at 5/36, so a 24-row training fold has no
    # split that parts one 4-row class from the rest under MIN_CHILD_WEIGHT,
    # but it splits off groups of classes: about 15% of the trees split
    TINY_CONFIG = GbtConfig(rounds=40, max_depth=3)

    def test_leave_one_per_class_out_perfect(self):
        samples = _archetype_samples(per_class=5, seed=3)
        result = kfold_cv(samples, rank_params(samples), 20, folds=5, seed=2,
                          config=self.TINY_CONFIG)
        assert result.pooled.accuracy == 1.0
        assert len(result.fold_reports) == 5

    def test_deterministic(self):
        samples = _archetype_samples(per_class=5, seed=3)
        order = rank_params(samples)
        r1 = kfold_cv(samples, order, 20, folds=5, seed=9, use_smote=True, config=self.TINY_CONFIG)
        r2 = kfold_cv(samples, order, 20, folds=5, seed=9, use_smote=True, config=self.TINY_CONFIG)
        assert np.array_equal(r1.pooled.matrix.counts, r2.pooled.matrix.counts)
        for a, b in zip(r1.fold_reports, r2.fold_reports):
            assert np.array_equal(a.matrix.counts, b.matrix.counts)

    def test_pooled_counts_are_fold_sums(self):
        samples = _archetype_samples(per_class=5, seed=4)
        result = kfold_cv(samples, rank_params(samples), 18, folds=5, seed=1,
                          config=self.TINY_CONFIG)
        summed = sum(r.matrix.counts for r in result.fold_reports)
        assert np.array_equal(result.pooled.matrix.counts, summed)
        assert result.pooled.matrix.counts.sum() == 30

    def test_unlabeled_samples_rejected(self):
        samples = _archetype_samples(per_class=5, seed=5)
        samples[0] = GasSample(*samples[0].gases(), label=None, id="x")
        with pytest.raises(ValueError, match="label"):
            kfold_cv(samples, rank_params(samples), 18, folds=5, config=self.TINY_CONFIG)

    @pytest.mark.parametrize("k, folds, message", [
        (24.0, 5, "k must be an integer, got 24.0"),
        (18, 3.0, "folds must be an integer, got 3.0"),
    ])
    def test_non_integer_arguments_are_refused_by_name(self, k, folds, message):
        samples = _archetype_samples(per_class=5, seed=5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kfold_cv(samples, rank_params(samples), k, folds=folds, config=self.TINY_CONFIG)

    def test_stratification_error_propagates(self):
        samples = _archetype_samples(per_class=3, seed=6)
        with pytest.raises(ValueError, match="stratification impossible"):
            kfold_cv(samples, rank_params(samples), 18, folds=5, config=self.TINY_CONFIG)


def test_array_holding_records_compare_and_hash_by_identity():
    # generated `==` compared their arrays and raised ValueError, and the
    # generated hash raised TypeError; each record now is only equal to itself
    samples = generate_synthetic(3, counts=(4,) * 6)
    cv = kfold_cv(samples, CANONICAL_RANK_ORDER, 18, 2, config=GbtConfig(rounds=2, max_depth=2))
    fm = build_features(samples, CANONICAL_RANK_ORDER, 18)
    model = train(fm.x, fm.labels, GbtConfig(rounds=2, max_depth=2))
    bundle = ModelBundle(model, CANONICAL_RANK_ORDER, 18)
    records = [model, bundle, fm, cv.pooled.matrix, cv.pooled, cv]
    assert [type(r).__name__ for r in records] == [
        "GbtModel", "ModelBundle", "FeatureMatrix", "ConfusionMatrix", "EvalReport", "CvResult"]
    for record in records:
        twin = copy.copy(record)
        assert record == record and not record != record
        assert record != twin and not record == twin
        assert len({record, twin, record}) == 2
