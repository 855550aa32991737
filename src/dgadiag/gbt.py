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
left, right, value).  The same arrays are what training builds and what
`dgadiag.io` writes to the model file.

For prediction a model also holds one flat forest, built once when the
model is made: the trees of every round that has a split, concatenated
with absolute child indices, plus each round's single-leaf values.  A
block of rows walks all of those trees at once, one tree level of every
(row, tree) pair per numpy step, dropping the pairs that reach a leaf.
Rounds whose trees are all single leaves need no walk.  The leaf values
are then added to the logits round by round, in class order within a
round, so every logit gets the same floating-point additions in the same
order as the values training accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import CLASS_ORDER, N_CLASSES, FaultLabel

BASE_SCORE = 0.5  # initial logit for every class
_BLOCK_ROWS = 256  # bounds the (rows x walked trees) pair arrays of one walk


@dataclass(frozen=True)
class GbtConfig:
    rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ValueError("regularizers must be >= 0")


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


class _Forest(NamedTuple):
    """The trees of every round with a split as one set of node arrays.

    Node ids are absolute.  Leaves keep feature -1 and are their own
    children.  A round with no split adds `const[r]`; a round with a split
    adds the leaves its trees reach, found by walking the `N_CLASSES` trees
    from `N_CLASSES * slot[r]` on in `roots`.
    """

    feature: np.ndarray  # intp, -1 at leaves
    threshold: np.ndarray  # float64
    child: np.ndarray  # intp, [2 * i] left and [2 * i + 1] right child of node i
    value: np.ndarray  # float64
    roots: np.ndarray  # intp, root node of each walked tree, [slot][class]
    const: np.ndarray  # (rounds, N_CLASSES, 1) root values
    slot: tuple[int, ...]  # per round: its index among rounds with a split, or -1


def _flatten(trees: list[list[Tree]]) -> _Forest:
    const = np.array(
        [[tree.value[0] for tree in round_trees] for round_trees in trees],
        dtype=np.float64,
    ).reshape(-1, N_CLASSES, 1)
    slot: list[int] = []
    walked: list[Tree] = []
    for round_trees in trees:
        if any(tree.feature[0] >= 0 for tree in round_trees):
            slot.append(len(walked) // N_CLASSES)
            walked += round_trees
        else:
            slot.append(-1)
    sizes = np.array([tree.feature.size for tree in walked], dtype=np.intp)
    roots = np.cumsum(sizes) - sizes
    offset = np.repeat(roots, sizes)

    def column(name: str, dtype) -> np.ndarray:
        return np.concatenate([np.empty(0, dtype)] + [getattr(t, name) for t in walked])

    feature = column("feature", np.intp)
    internal = feature >= 0
    node = np.arange(feature.size)
    child = np.empty(2 * feature.size, dtype=np.intp)
    child[0::2] = np.where(internal, column("left", np.intp) + offset, node)
    child[1::2] = np.where(internal, column("right", np.intp) + offset, node)
    return _Forest(
        feature=feature,
        threshold=column("threshold", np.float64),
        child=child,
        value=column("value", np.float64),
        roots=roots,
        const=const,
        slot=tuple(slot),
    )


@dataclass(frozen=True)
class GbtModel:
    """A trained ensemble.  Prediction reads the flat forest built from
    `trees` when the model is made, so the trees must not change after."""

    trees: list[list[Tree]]  # [round][class], classes in CLASS_ORDER
    config: GbtConfig
    n_features: int
    base_score: float = BASE_SCORE
    seed: int = 0
    _forest: _Forest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_forest", _flatten(self.trees))


def _as_class_indices(y: Sequence) -> np.ndarray:
    if len(y) == 0:
        raise ValueError("empty label sequence")
    if isinstance(y[0], FaultLabel):
        idx = np.array([CLASS_ORDER.index(lbl) for lbl in y], dtype=np.intp)
    else:
        idx = np.asarray(y, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= N_CLASSES:
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
    y_idx = _as_class_indices(y)
    if len(y_idx) != x.shape[0]:
        raise ValueError("feature/label length mismatch")
    if np.unique(y_idx).size < 2:
        raise ValueError("degenerate labels: need at least two classes")

    n, _ = x.shape
    presort = np.argsort(x.T, axis=1, kind="stable")
    onehot = np.zeros((n, N_CLASSES), dtype=np.float64)
    onehot[np.arange(n), y_idx] = 1.0

    logits = np.full((n, N_CLASSES), BASE_SCORE, dtype=np.float64)
    rounds: list[list[Tree]] = []
    for _ in range(config.rounds):
        p = _softmax(logits)
        grad = p - onehot
        hess = p * (1.0 - p)
        round_trees: list[Tree] = []
        for c in range(N_CLASSES):
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


def _walk(forest: _Forest, x: np.ndarray) -> np.ndarray:
    """The leaf value each row of `x` reaches in each walked tree of
    `forest`, as a (rounds with a split, N_CLASSES, n) array."""
    n, k = x.shape
    n_trees = forest.roots.size
    out = np.empty((n_trees, n), dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        block = np.ascontiguousarray(x[lo : lo + rows]).ravel()
        # pair p is (row p // n_trees, tree p % n_trees); `at` its x offset
        node = np.tile(forest.roots, rows)
        at = np.repeat(np.arange(rows) * k, n_trees)
        live = np.flatnonzero(forest.feature[node] >= 0)
        while live.size:
            here = node[live]
            # not below the threshold: the right child, as in `Tree`
            right = block[at[live] + forest.feature[here]] >= forest.threshold[here]
            here = forest.child[2 * here + right]
            node[live] = here
            live = live[forest.feature[here] >= 0]
        out[:, lo : lo + rows] = forest.value[node].reshape(rows, n_trees).T
    return out.reshape(n_trees // N_CLASSES, N_CLASSES, n)


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
    forest = model._forest
    leaves = _walk(forest, x)
    # classes x rows, so each round adds to contiguous rows
    logits = np.full((N_CLASSES, x.shape[0]), model.base_score, dtype=np.float64)
    for slot, const in zip(forest.slot[:upto_round], forest.const[:upto_round]):
        logits += const if slot < 0 else leaves[slot]
    return logits.T.copy()


def predict_proba_many(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Class-probability rows (softmax of accumulated logits)."""
    return _softmax(predict_logits(model, x))


def predict_many(model: GbtModel, x: np.ndarray) -> list[FaultLabel]:
    """Argmax class of each row; ties resolve to the earliest class in
    CLASS_ORDER."""
    probs = predict_proba_many(model, x)
    return [CLASS_ORDER[int(i)] for i in np.argmax(probs, axis=1)]
