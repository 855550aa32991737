"""Multiclass gradient-boosted regression trees with second-order splits.

One regression tree per class per boosting round, fit to the softmax
objective's gradient/hessian statistics (g = p - y, h = p(1 - p)).  Split
search is exact greedy over sorted unique feature values with the
regularized gain

    gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma

and leaf weights -eta * G / (H + lambda).  A split is kept only when its
gain is strictly positive and both children carry at least min_child_weight
of hessian mass.  Thresholds are midpoints between adjacent distinct sorted
values; ties in gain resolve to the lowest feature index, then the lowest
threshold, so training is fully deterministic.  The seed argument is
recorded for provenance but unused: with no row/column subsampling there is
nothing stochastic to drive.

`train` sorts each feature column once per call (a stable sort, so equal
values keep row order).  Split search at a node filters that presort down
to the node's rows instead of sorting them again, so ties between equal
values still resolve by row index.

Each tree is a `Tree` of five preorder node arrays (feature, threshold,
left, right, value).  The same arrays are what training builds, what
prediction walks, and what `dgadiag.io` writes to the model file.
Prediction walks one tree at a time over all rows and adds the trees in
round, then class order, so logits are bit-identical to the values
training accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import CLASS_ORDER, FaultLabel

BASE_SCORE = 0.5  # initial logit for every class


@dataclass(frozen=True)
class GbtConfig:
    rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    n_classes: int = len(CLASS_ORDER)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ValueError("regularizers must be >= 0")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")


class Tree(NamedTuple):
    """One regression tree as node arrays in preorder; node 0 is the root.

    A row at internal node i moves to `left[i]` when its `feature[i]` value
    is below `threshold[i]` and to `right[i]` otherwise; both children sit
    after i.  Leaves carry feature, left and right -1 and their weight in
    `value`, which is 0.0 at internal nodes.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    value: np.ndarray  # float64


@dataclass
class GbtModel:
    trees: list[list[Tree]]  # [round][class]
    config: GbtConfig
    n_features: int
    class_order: tuple[FaultLabel, ...] = CLASS_ORDER
    base_score: float = BASE_SCORE
    seed: int = 0


def _as_class_indices(y: Sequence, n_classes: int) -> np.ndarray:
    if len(y) == 0:
        raise ValueError("empty label sequence")
    if isinstance(y[0], FaultLabel):
        idx = np.array([CLASS_ORDER.index(lbl) for lbl in y], dtype=np.intp)
    else:
        idx = np.asarray(y, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= n_classes:
        raise ValueError("class index out of range")
    return idx


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _build_tree(
    x: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: GbtConfig, presort: np.ndarray
) -> tuple[Tree, np.ndarray]:
    """Grow one tree; also return the leaf value each row of `x` lands in.

    `presort[j]` lists the row ids in ascending order of feature j, ties by
    row id: `np.argsort(x.T, axis=1, kind="stable")`.
    """
    eta = cfg.learning_rate
    lam = cfg.reg_lambda
    n, n_feat = x.shape
    cols = np.arange(n_feat)
    in_node = np.zeros(n, dtype=bool)
    nodes: list[tuple] = []  # (feature, threshold, left, right, value) in preorder
    row_value = np.empty(n, dtype=np.float64)

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(nodes)
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        weight = -eta * g_sum / (h_sum + lam)
        nodes.append((-1, 0.0, -1, -1, weight))  # a leaf unless a split is kept
        row_value[idx] = weight
        if (
            depth >= cfg.max_depth
            or idx.size < 2
            or h_sum < 2.0 * cfg.min_child_weight
        ):
            return node

        # Node rows in ascending value order per feature, ties by row id:
        # `idx` is ascending, so filtering the stable presort gives what a
        # stable argsort of x[idx] would.
        if idx.size == n:
            rows = presort.T
        else:
            in_node[idx] = True
            rows = presort[in_node[presort]].reshape(n_feat, idx.size).T
            in_node[idx] = False
        xs = x[rows, cols]
        gs = g[rows]
        hs = h[rows]
        gl = np.cumsum(gs, axis=0)[:-1]
        hl = np.cumsum(hs, axis=0)[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        gain = (
            0.5
            * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_sum * g_sum / (h_sum + lam))
            - cfg.gamma
        )
        valid = (
            (xs[1:] > xs[:-1])
            & (hl >= cfg.min_child_weight)
            & (hr >= cfg.min_child_weight)
        )
        gain = np.where(valid, gain, -np.inf)

        # Feature-major flat argmax: ties resolve to the lowest feature
        # index, then the lowest threshold.
        gain_fm = np.ascontiguousarray(gain.T)
        flat_best = int(np.argmax(gain_fm))
        feat, pos = divmod(flat_best, gain.shape[0])
        if not gain_fm.flat[flat_best] > 0.0:
            return node

        lo, hi = xs[pos, feat], xs[pos + 1, feat]
        threshold = 0.5 * lo + 0.5 * hi
        if threshold <= lo:  # adjacent floats: keep "< threshold" == "<= lo"
            threshold = hi
        mask = x[idx, feat] < threshold
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        nodes[node] = (feat, float(threshold), left, right, 0.0)
        return node

    grow(np.arange(n, dtype=np.intp), 0)
    return Tree(*map(np.array, zip(*nodes))), row_value


def _leaf_values(tree: Tree, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The leaf value each row of `x` reaches, one level of all rows per step;
    `rows` is `np.arange(len(x))`."""
    if tree.feature[0] < 0:  # a single leaf
        return tree.value[0]
    node = np.zeros(rows.size, dtype=np.intp)
    feat = tree.feature[node]
    while (internal := feat >= 0).any():
        go_left = x[rows, feat] < tree.threshold[node]
        child = np.where(go_left, tree.left[node], tree.right[node])
        node = np.where(internal, child, node)
        feat = tree.feature[node]
    return tree.value[node]


def train(
    x: np.ndarray,
    y: Sequence,
    config: GbtConfig = GbtConfig(),
    seed: int = 0,
) -> GbtModel:
    """Fit the boosted ensemble to labeled feature rows.

    `y` may be FaultLabel values or integer class indices.  Raises on empty
    input, non-finite features, or fewer than two distinct labels.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("feature matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    y_idx = _as_class_indices(y, config.n_classes)
    if len(y_idx) != x.shape[0]:
        raise ValueError("feature/label length mismatch")
    if np.unique(y_idx).size < 2:
        raise ValueError("degenerate labels: need at least two classes")

    n, _ = x.shape
    presort = np.argsort(x.T, axis=1, kind="stable")
    n_classes = config.n_classes
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y_idx] = 1.0

    logits = np.full((n, n_classes), BASE_SCORE, dtype=np.float64)
    rounds: list[list[Tree]] = []
    for _ in range(config.rounds):
        p = _softmax(logits)
        grad = p - onehot
        hess = p * (1.0 - p)
        round_trees: list[Tree] = []
        for c in range(n_classes):
            tree, row_value = _build_tree(x, grad[:, c], hess[:, c], config, presort)
            logits[:, c] += row_value
            round_trees.append(tree)
        rounds.append(round_trees)

    return GbtModel(
        trees=rounds,
        config=config,
        n_features=x.shape[1],
        seed=seed,
    )


def predict_logits(
    model: GbtModel, x: np.ndarray, upto_round: int | None = None
) -> np.ndarray:
    """Accumulated per-class logits for each row; optionally truncate rounds.

    Raises on a row of the wrong length or with a non-finite value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features per row, got {x.shape[1]}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    n_classes = model.config.n_classes
    logits = np.full((x.shape[0], n_classes), model.base_score, dtype=np.float64)
    rows = np.arange(x.shape[0])
    rounds = model.trees if upto_round is None else model.trees[:upto_round]
    for round_trees in rounds:
        for c, tree in enumerate(round_trees):
            logits[:, c] += _leaf_values(tree, x, rows)
    return logits


def predict_proba_many(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Class-probability rows (softmax of accumulated logits)."""
    return _softmax(predict_logits(model, x))


def predict_proba(model: GbtModel, row: Sequence[float]) -> np.ndarray:
    """Probability vector over the six classes for a single feature row."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError("expected a single 1-D feature row")
    return predict_proba_many(model, row[None, :])[0]


def predict_many(model: GbtModel, x: np.ndarray) -> list[FaultLabel]:
    probs = predict_proba_many(model, x)
    return [model.class_order[int(i)] for i in np.argmax(probs, axis=1)]


def predict(model: GbtModel, row: Sequence[float]) -> FaultLabel:
    """Argmax class for one row; ties resolve to the earliest class in order."""
    probs = predict_proba(model, row)
    return model.class_order[int(np.argmax(probs))]


def multiclass_log_loss(model: GbtModel, x: np.ndarray, y: Sequence) -> float:
    """Mean negative log-likelihood of the true classes under the model."""
    y_idx = _as_class_indices(y, model.config.n_classes)
    probs = predict_proba_many(model, np.asarray(x, dtype=np.float64))
    picked = probs[np.arange(len(y_idx)), y_idx]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))
