"""Evaluation utilities: confusion matrices, derived metrics, splits, SMOTE,
and stratified cross-validation with per-fold retraining.

Class imbalance is the norm in DGA datasets, so beyond plain accuracy the
report carries per-class sensitivity/precision/F1, macro-F1 and Cohen's
kappa; cross-validation can oversample the training folds with SMOTE.
Seeds, labels, integers and reals are checked by `core`'s one owner of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (CLASS_ORDER, N_CLASSES, FaultLabel, GasSample, _class_indices, _integer,
                   _real, _rng)
from .features import FeatureMatrix, _build, _checked_prefix, _warn_unusual_k
from .gbt import GbtConfig, _feature_matrix, predict_many, train

_SMOTE_NEIGHBORS = 5  # nearest same-class neighbors a synthetic row can head for


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """6x6 counts; rows are actual classes, columns predictions, both in
    canonical class order."""

    counts: np.ndarray


@dataclass(frozen=True, eq=False)
class EvalReport:
    matrix: ConfusionMatrix
    sensitivity: np.ndarray  # per class, recall on the actual rows
    precision: np.ndarray
    f1: np.ndarray
    accuracy: float
    macro_f1: float
    kappa: float


def confusion(
    actual: Sequence[FaultLabel], predicted: Sequence[FaultLabel]
) -> ConfusionMatrix:
    """Count (actual, predicted) pairs; raises ValueError on a label not a FaultLabel."""
    if len(actual) != len(predicted):
        raise ValueError("actual/predicted length mismatch")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(counts, (_class_indices(actual), _class_indices(predicted)), 1)
    return ConfusionMatrix(counts=counts)


def metrics(matrix: ConfusionMatrix) -> EvalReport:
    """Derive all report metrics from a confusion matrix.

    Empty rows/columns contribute 0 sensitivity/precision; macro-F1 averages
    only over classes actually present (nonzero row).  kappa is defined as 1
    when chance agreement is total.
    """
    counts = matrix.counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    tp = np.diag(counts)

    sensitivity = np.divide(tp, row, out=np.zeros_like(tp), where=row > 0)
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    denom = sensitivity + precision
    f1 = np.divide(
        2.0 * sensitivity * precision, denom, out=np.zeros_like(denom), where=denom > 0
    )

    accuracy = float(tp.sum() / total)
    macro_f1 = float(f1[row > 0].mean())  # total > 0, so some class is present

    p_e = float((row * col).sum() / (total * total))
    kappa = 1.0 if p_e == 1.0 else (accuracy - p_e) / (1.0 - p_e)

    return EvalReport(
        matrix=matrix,
        sensitivity=sensitivity,
        precision=precision,
        f1=f1,
        accuracy=accuracy,
        macro_f1=macro_f1,
        kappa=kappa,
    )


def train_test_split(
    n: int, train_frac: float = 0.85, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle of the indices 0..n-1 into train and test
    index arrays; the train size is round(n * train_frac), half up."""
    train_frac = _real("train_frac", train_frac)
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    n = _integer("n", n)
    if n > np.iinfo(np.intp).max:  # its digits are not printed: there may be thousands
        raise ValueError(f"n must be at most {np.iinfo(np.intp).max}, numpy's largest index")
    n_train = int(np.floor(n * train_frac + 0.5))
    if not 0 < n_train < n:  # both sides non-empty, so n >= 2
        raise ValueError(f"degenerate split sizes ({n_train}, {n - n_train}) for n={n}")
    perm = _rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def smote(
    features: np.ndarray, labels: Sequence[FaultLabel], seed: int = 0
) -> tuple[np.ndarray, list[FaultLabel]]:
    """Oversample every class up to the majority count by interpolation.

    Each synthetic row is x + u * (x_nn - x) for a seeded-random base row x
    of the class, one of its five nearest same-class neighbors x_nn (Chawla
    et al. 2002; any other row of a class of fewer than six), and
    u ~ Uniform(0, 1).  The input rows are returned unmodified as a prefix;
    synthetic rows follow, grouped by class in order of first appearance.
    Features of a kind `train` refuses are refused the same way.
    """
    features = _feature_matrix(features)
    if features.ndim != 2 or features.shape[0] != len(labels):
        raise ValueError("features must be 2-D with one row per label")

    labels = list(labels)
    y = _class_indices(labels)
    if y.size == 0:
        raise ValueError("empty label list")
    target = int(np.bincount(y).max())

    rng = _rng(seed)
    new_rows: list[np.ndarray] = []
    new_labels: list = []
    for c in dict.fromkeys(y.tolist()):  # classes in order of first appearance
        rows, lbl = np.flatnonzero(y == c), CLASS_ORDER[c]
        deficit = target - len(rows)
        if deficit == 0:
            continue
        if len(rows) < 2:
            raise ValueError(f"cannot interpolate: class {lbl.value} has a single sample")
        pts = features[rows]
        # pairwise distances within the class, self excluded
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nn_order = np.argsort(dist, axis=1, kind="stable")
        k = min(_SMOTE_NEIGHBORS, len(rows) - 1)
        for _ in range(deficit):
            base = int(rng.integers(len(rows)))
            neighbor = int(nn_order[base, int(rng.integers(k))])
            u = rng.uniform()
            new_rows.append(pts[base] + u * (pts[neighbor] - pts[base]))
            new_labels.append(lbl)

    return np.vstack([features, *new_rows]), labels + new_labels


def stratified_folds(
    labels: Sequence[FaultLabel], folds: int, seed: int
) -> list[np.ndarray]:
    """Seeded stratified fold assignment; per-class counts differ by <= 1.
    Nothing is sized by `folds` before every class is known to fill it."""
    folds = _integer("folds", folds)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    y = _class_indices(labels)
    if y.size == 0:
        raise ValueError("empty label list")
    rng = _rng(seed)
    fold_of = np.empty(y.size, dtype=np.intp)
    for c, label in enumerate(CLASS_ORDER):
        idx = np.flatnonzero(y == c)
        if idx.size == 0:
            continue
        if idx.size < folds:
            raise ValueError(
                f"stratification impossible: class {label.value} has "
                f"{idx.size} samples, fewer than {folds} folds"
            )
        fold_of[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


@dataclass(frozen=True, eq=False)
class CvResult:
    fold_reports: list[EvalReport]
    pooled: EvalReport  # metrics of the summed out-of-fold confusion matrix


def fit_and_score(
    fm: FeatureMatrix,
    train_idx: Sequence[int],
    test_idx: Sequence[int],
    config: GbtConfig,
    smote_seed: int | None = None,
) -> ConfusionMatrix:
    """Train on the rows `train_idx` of `fm` and count predictions on `test_idx`.

    With a `smote_seed`, the training rows are oversampled by SMOTE first;
    the test rows never are.
    """
    x_train = fm.x[train_idx]
    y_train = [fm.labels[i] for i in train_idx]
    if smote_seed is not None:
        x_train, y_train = smote(x_train, y_train, seed=smote_seed)
    model = train(x_train, y_train, config=config)
    actual = [fm.labels[i] for i in test_idx]
    return confusion(actual, predict_many(model, fm.x[test_idx]))


def kfold_cv(
    dataset: Sequence[GasSample],
    rank_order: Sequence[int],
    k: int,
    folds: int = 5,
    seed: int = 0,
    use_smote: bool = False,
    config: GbtConfig = GbtConfig(),
) -> CvResult:
    """Stratified k-fold cross-validation of the full feature+classifier
    pipeline at rank order `rank_order` and feature count `k`.

    Features are built once, as `build_features` builds them, and the
    classifier is retrained per fold.  With `use_smote`, oversampling is
    applied to the training folds only, never the held-out fold.  Per-fold
    RNG streams are derived from (seed, fold index), so fold results do not
    depend on execution order.  An unusual k is warned of as the last step.
    """
    samples = list(dataset)
    fm, = _build(samples, _checked_prefix(rank_order, k), [k])

    fold_reports: list[EvalReport] = []
    pooled_counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for fold_no, test_idx in enumerate(stratified_folds(fm.labels, folds, seed)):
        train_idx = np.setdiff1d(np.arange(len(samples)), test_idx)
        fold_seed = int(np.random.SeedSequence([seed, fold_no]).generate_state(1)[0])
        cm = fit_and_score(
            fm, train_idx, test_idx, config, fold_seed if use_smote else None
        )
        fold_reports.append(metrics(cm))
        pooled_counts += cm.counts

    pooled = metrics(ConfusionMatrix(counts=pooled_counts))
    _warn_unusual_k(k)
    return CvResult(fold_reports=fold_reports, pooled=pooled)
