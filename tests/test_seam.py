"""The shared feature builder and fit-and-score function.

The digests were recorded before k-search, holdout and CV were folded onto
`fit_and_score` and one ranked-prefix builder; they pin the outputs of all
three paths to the bytes the separate per-path code produced.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag.cli import main
from dgadiag.core import MIN_PPM, FaultLabel, GasSample, param_matrix
from dgadiag.evaluation import confusion, fit_and_score, kfold_cv, train_test_split
from dgadiag.features import build_features, optimal_k_search
from dgadiag.gbt import GbtConfig, predict_many, train
from dgadiag.io import generate_synthetic, write_dataset
from dgadiag.itd import itd_rows
from dgadiag.ranking import CANONICAL_RANK_ORDER, rank_params

# small enough to run fast, weak enough that the curve is not all 1.0
SMALL = GbtConfig(rounds=5, max_depth=1, learning_rate=0.05)
SMALL_ARGS = ["--rounds", "5", "--max-depth", "1", "--learning-rate", "0.05"]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def synth11():
    samples = generate_synthetic(11)
    return samples, rank_params(samples)


@pytest.mark.seed11
class TestGoldenDigests:
    def test_k_search_curve(self, synth11):
        samples, order = synth11
        result = optimal_k_search(
            samples, order, k_min=18, k_max=25, split_seed=5, config=SMALL
        )
        assert result.best_k == 21
        assert sha(repr(result.accuracy_curve)) == (
            "597268c44516c00791be4d45c3e264c19ea862dc851752274d1d362ad48037ee"
        )

    def test_kfold_cv_smote_counts(self, synth11):
        samples, order = synth11
        cv = kfold_cv(samples, order, 24, folds=5, seed=5, use_smote=True, config=SMALL)
        counts = [r.matrix.counts.tolist() for r in cv.fold_reports]
        counts.append(cv.pooled.matrix.counts.tolist())
        assert sha(repr(counts)) == (
            "0d847d0c008b8cd3a07c88c977ad08ec9b3fd72030a15949439a0045d4d27547"
        )

    def test_evaluate_holdout_json(self, synth11, tmp_path, capsys):
        samples, _ = synth11
        data, model, doc = (str(tmp_path / n) for n in ("d.csv", "m.json", "h.json"))
        write_dataset(data, samples)
        assert main(["train", "--data", data, "--k", "24", "--model", model] + SMALL_ARGS) == 0
        assert main(["evaluate", "--data", data, "--model", model,
                     "--holdout", "0.15", "--seed", "5", "--json", doc]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(open(doc, "rb").read()).hexdigest()
        assert digest == "47eb10225cfe107db5c7777effb337262665f5e5fedc2a6ad4fdd192de9b3853"


class TestFitAndScore:
    def test_matches_train_then_predict(self, synth11):
        samples, order = synth11
        fm = build_features(samples, order, 24)
        train_idx, test_idx = train_test_split(len(samples), 0.85, 3)
        cm = fit_and_score(fm, train_idx, test_idx, SMALL)
        model = train(fm.x[train_idx], [fm.labels[i] for i in train_idx], SMALL)
        expected = confusion([fm.labels[i] for i in test_idx], predict_many(model, fm.x[test_idx]))
        assert cm.counts.tolist() == expected.counts.tolist()

    def test_smote_seed_changes_training_only(self, synth11):
        samples, order = synth11
        fm = build_features(samples, order, 24)
        train_idx, test_idx = train_test_split(len(samples), 0.85, 3)
        plain = fit_and_score(fm, train_idx, test_idx, SMALL)
        oversampled = fit_and_score(fm, train_idx, test_idx, SMALL, smote_seed=8)
        # the held-out rows are the same either way
        assert plain.counts.sum(axis=1).tolist() == oversampled.counts.sum(axis=1).tolist()


class TestRankedPrefix:
    def test_columns_follow_the_rank_order(self):
        sample = GasSample(292, 346, 32, 313, 196, id="r1")
        order = CANONICAL_RANK_ORDER
        signals = build_features([sample], order, 24).signals
        pv = param_matrix([sample])[0]
        assert signals.shape == (1, 24)
        assert signals[0].tolist() == [pv[num - 1] for num in order[:24]]


gas = st.just(0.0) | st.floats(min_value=MIN_PPM, max_value=1e5)
sample_lists = st.lists(
    st.tuples(gas, gas, gas, gas, gas).map(lambda g: GasSample(*g, label=FaultLabel.PD)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    samples=sample_lists,
    order=st.permutations(range(1, 38)),
    k=st.integers(min_value=2, max_value=37),
    pick=st.lists(st.integers(min_value=0, max_value=7), max_size=8),
)
def test_rows_do_not_depend_on_the_other_samples(samples, order, k, pick):
    # the seam builds features over all samples once and then indexes rows;
    # that is only sound if a row is the same whatever else is built with it.
    # k may lie outside 18..37, so its UserWarning is ignored; a RuntimeWarning
    # fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        # reference: the parameters of each sample alone, read number by number
        reference = []
        for s in samples:
            pv = param_matrix([s])[0]
            signal = np.array([pv[num - 1] for num in order[:k]])
            reference.append(signal - itd_rows(signal[None, :])[0])
        whole = build_features(samples, order, k).x
        sub = [i % len(samples) for i in pick] or [0]
        part = build_features([samples[i] for i in sub], order, k).x
        single = [build_features([s], order, k).x[0] for s in samples]
    assert part.tobytes() == whole[sub].tobytes()
    for row, whole_row, ref in zip(single, whole, reference):
        assert row.tobytes() == whole_row.tobytes()
        assert whole_row.tobytes() == ref.tobytes()
