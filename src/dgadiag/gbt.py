"""Multiclass gradient-boosted regression trees with second-order splits.

One regression tree per class per boosting round, fit to the softmax
objective's gradient/hessian statistics (g = p - y, h = p(1 - p)).  Every
training row carries one FaultLabel, and class c is CLASS_ORDER[c].  Split
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

`train` leaves out the feature columns that are constant over its rows
(PRC positions 1 and k always are): they have no split anywhere, and a
node records the original index of the column it splits on.  It sorts
each other column once per call (a stable sort, so equal values keep row
order) and gathers the sorted values, both feature-major.  A split
partitions its node's sorted rows and values into the two children's with
one mask, so every node searches its own rows in value order without
sorting them again, and ties between equal values still resolve by row
index.

A tree packs each row's g and h into one complex number (g the real part,
h the imaginary), so one `cumsum` of a node's sorted rows gives the left
sums GL and HL; numpy adds the two lanes separately, in row order, so they
equal two float `cumsum`s bit for bit, and the right sums are the node's
minus them.  The gain and its validity mask are computed on contiguous
copies of GL and HL, in place, with the gain's operations in the order of
the formula above, so equal gains stay equal and tie as stated.
reg_lambda > 0 keeps every denominator positive, so no gain is NaN.  The
search runs in `_best_split`, whose temporaries are freed before the
node's children are grown.

A round works on class-major (classes, n) arrays of logits,
probabilities, gradients and hessians, allocated once per call, and
computes the six root leaf weights as one vector.  A class whose root
carries less than twice min_child_weight of hessian mass cannot split; it
gets its one-leaf tree without growing it, which is most trees after the
first rounds, and a round where every root is a leaf is one in-place add.

A model is five flat node arrays (feature, threshold, left, right, value)
holding every tree, [round][class], each in preorder, plus each tree's node
count.  Training appends to them, `dgadiag.io` writes them as five lists,
and `GbtModel.trees` gives `Tree` views (numpy slices) of them.

For prediction a model also derives, once, absolute child ids, the roots
of the trees of every round that has a split, and each round's root
values.  A block of rows walks all of those trees at once, one tree level
of every (row, tree) pair per numpy step, dropping the pairs that reach a
leaf.  Rounds whose trees are all single leaves need no walk.  For each
block of 64 rows the base score, the single-leaf values and the walked
leaf values are stacked as one (1 + rounds, rows, classes) array and added
along the round axis in one numpy reduction, which adds them in round
order; every logit gets the same floating-point additions in the same
order as the values training accumulated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import CLASS_ORDER, N_CLASSES, FaultLabel

BASE_SCORE = 0.5  # initial logit for every class
_BLOCK_ROWS = 256  # bounds the (rows x walked trees) pair arrays of one walk
_SUM_ROWS = 64  # bounds the (rounds x classes x rows) terms summed at once


@dataclass(frozen=True)
class GbtConfig:
    rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            integer = name in ("rounds", "max_depth")
            kind = numbers.Integral if integer else numbers.Real
            try:  # math.isfinite raises OverflowError on an int too large for a float
                ok = isinstance(value, kind) and (integer or math.isfinite(value))
            except OverflowError:
                ok = False
            if isinstance(value, bool) or not ok:
                must = "an integer" if integer else "a finite number"
                raise ValueError(f"{name} must be {must}, got {value!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not self.reg_lambda > 0:  # keeps H + lambda > 0 at every node
            raise ValueError("reg_lambda must be > 0")
        if self.gamma < 0 or self.min_child_weight < 0:
            raise ValueError("gamma and min_child_weight must be >= 0")


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
    """What the walk needs beyond a model's node arrays.

    The logits of a row are the sum of the `terms` rows in order: the base
    score, then one row per round.  A round with no split adds its root
    values; the row of the i-th round with a split, `split[i]`, is replaced
    by the leaves its trees reach, found by walking the `N_CLASSES` trees
    from `N_CLASSES * i` on in `roots`.
    """

    child: np.ndarray  # intp, [2 * i] left and [2 * i + 1] right child of node i
    roots: np.ndarray  # intp, root node of each walked tree, [split round][class]
    terms: np.ndarray  # (1 + rounds, N_CLASSES, 1) base score, then root values
    split: np.ndarray  # intp, the `terms` row of each round with a split, ascending


@dataclass(frozen=True)
class GbtModel:
    """A trained ensemble: five read-only node arrays holding every tree,
    [round][class] with classes in CLASS_ORDER, each in preorder with child
    ids counted from its root as in `Tree`, and each tree's node count."""

    config: GbtConfig
    n_features: int
    feature: np.ndarray  # int64, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64, -1 at leaves
    right: np.ndarray  # int64, -1 at leaves
    value: np.ndarray  # float64, 0.0 at internal nodes
    sizes: np.ndarray  # intp, node count of each tree, [round][class]
    base_score: float = BASE_SCORE
    seed: int = 0
    _forest: _Forest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in (*Tree._fields, "sizes"):
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "_forest", _flatten(self))

    @property
    def trees(self) -> list[list[Tree]]:
        """[round][class] `Tree` views of the node arrays."""
        ends = np.cumsum(self.sizes).tolist()
        nodes = [getattr(self, name) for name in Tree._fields]
        trees = [Tree(*(a[b - n : b] for a in nodes)) for n, b in zip(self.sizes.tolist(), ends)]
        return [trees[r : r + N_CLASSES] for r in range(0, len(trees), N_CLASSES)]


def _flatten(model: GbtModel) -> _Forest:
    sizes = model.sizes
    starts = np.cumsum(sizes) - sizes
    terms = np.concatenate([np.full(N_CLASSES, model.base_score), model.value[starts]])
    split = (sizes > 1).reshape(-1, N_CLASSES).any(axis=1)  # more than one node: a split
    offset = np.repeat(starts, sizes)
    internal = model.feature >= 0
    node = np.arange(model.feature.size)
    child = np.empty(2 * node.size, dtype=np.intp)
    child[0::2] = np.where(internal, model.left + offset, node)
    child[1::2] = np.where(internal, model.right + offset, node)
    return _Forest(
        child=child,
        roots=starts.reshape(-1, N_CLASSES)[split].ravel(),
        terms=terms.reshape(-1, N_CLASSES, 1),
        split=np.flatnonzero(split) + 1,
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    p = logits - logits.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _best_split(
    gh: np.ndarray,
    g_sum: float,
    h_sum: float,
    rows: np.ndarray,
    xs: np.ndarray,
    cfg: GbtConfig,
) -> tuple[float, int, int]:
    """The best split of a node as (gain, feature, position): the split
    falls between `xs[feature, position]` and the next value.  `rows` and
    `xs` are the node's (features, m) sorted row ids and values, and `gh`
    holds each row's g as real part and h as imaginary part."""
    lam = cfg.reg_lambda
    mcw = cfg.min_child_weight
    # One prefix sum adds g and h lane by lane in row order, as two float
    # cumsums would; the right child's sums are the node's minus the left's.
    left = gh[rows[:, :-1]].cumsum(axis=1)
    gl = left.real.copy()  # contiguous: strided views cost the saving back
    hl = left.imag.copy()
    del left
    gr = g_sum - gl
    hr = h_sum - hl
    invalid = (hl < mcw) | (hr < mcw) | (xs[:, 1:] <= xs[:, :-1])
    # gain = 1/2 [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)] - gamma,
    # operation for operation, in place
    gain = np.multiply(gl, gl, out=gl)
    gain /= np.add(hl, lam, out=hl)
    gr *= gr
    gr /= np.add(hr, lam, out=hr)
    gain += gr
    gain -= g_sum * g_sum / (h_sum + lam)
    gain *= 0.5
    gain -= cfg.gamma
    gain[invalid] = -np.inf
    # Flat argmax over (feature, position): ties resolve to the lowest
    # feature index, then the lowest threshold.
    feat, pos = divmod(int(gain.argmax()), gain.shape[1])
    return float(gain[feat, pos]), feat, pos


def _build_tree(
    xt: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cfg: GbtConfig,
    presort: np.ndarray,
    xs: np.ndarray,
    nodes: list[tuple],
    columns: Sequence[int] | None = None,
) -> np.ndarray:
    """Grow one tree, appending its nodes to `nodes` as (feature,
    threshold, left, right, value) in preorder, with child ids counted from
    its root; return the leaf value each row lands in.

    `xt` is the (k, n) feature-major matrix, `presort[j]` lists the row ids
    in ascending order of `xt[j]`, ties by row id
    (`np.argsort(xt, axis=1, kind="stable")`), and `xs` holds those values,
    `np.take_along_axis(xt, presort, axis=1)`.  A node that splits on row j
    of them records feature `columns[j]` (j when `columns` is None).
    """
    eta = cfg.learning_rate
    lam = cfg.reg_lambda
    n_feat, n = xt.shape
    if columns is None:
        columns = range(n_feat)
    root = len(nodes)
    row_value = np.empty(n, dtype=np.float64)
    gh = np.empty(n, dtype=np.complex128)
    gh.real = g
    gh.imag = h

    def grow(
        idx: np.ndarray,
        rows: np.ndarray,
        xs: np.ndarray,
        keep: np.ndarray | None,
        depth: int,
    ) -> int:
        """`idx` holds the node's row ids ascending; `rows`/`xs` the
        parent's sorted rows and values, of which `keep` marks the node's
        (None at the root, whose arrays are already its own)."""
        node = len(nodes) - root
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

        # The node's rows in ascending value order per feature, ties by row
        # id: the parent's order with the other child's rows taken out.
        if keep is not None:
            take = np.flatnonzero(keep)
            rows = rows.ravel()[take].reshape(n_feat, idx.size)
            xs = xs.ravel()[take].reshape(n_feat, idx.size)
        gain, feat, pos = _best_split(gh, g_sum, h_sum, rows, xs, cfg)
        if not gain > 0.0:
            return node

        lo, hi = xs[feat, pos], xs[feat, pos + 1]
        threshold = 0.5 * lo + 0.5 * hi
        if threshold <= lo:  # adjacent floats: keep "< threshold" == "<= lo"
            threshold = hi
        goes_left = xt[feat] < threshold
        in_left = goes_left[rows]
        mask = goes_left[idx]
        left = grow(idx[mask], rows, xs, in_left, depth + 1)
        right = grow(idx[~mask], rows, xs, ~in_left, depth + 1)
        nodes[root + node] = (columns[feat], float(threshold), left, right, 0.0)
        return node

    grow(np.arange(n, dtype=np.intp), presort, xs, None, 0)
    del grow  # grow refers to itself: break the cycle so its arrays go now, not at the next GC
    return row_value


def train(
    x: np.ndarray,
    y: Sequence[FaultLabel],
    config: GbtConfig = GbtConfig(),
    seed: int = 0,
) -> GbtModel:
    """Fit the boosted ensemble to feature rows and their FaultLabel labels.

    Raises ValueError on empty input, non-finite features, a label that is
    not a FaultLabel (such as None for an unlabeled sample), fewer than
    two distinct labels, or a seed that is not an integer.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("feature matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    if not all(isinstance(label, FaultLabel) for label in y):
        raise ValueError("training requires labeled samples")
    if len(y) != x.shape[0]:
        raise ValueError("feature/label length mismatch")
    y_idx = np.array([CLASS_ORDER.index(label) for label in y], dtype=np.intp)
    if np.unique(y_idx).size < 2:
        raise ValueError("degenerate labels: need at least two classes")

    n, _ = x.shape
    # A column constant over the rows has no split anywhere: search the others
    # (with none left, every root is a leaf).
    columns = np.flatnonzero(x.min(axis=0) < x.max(axis=0)).tolist()
    xt = np.ascontiguousarray(x.T[columns])
    presort = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, presort, axis=1)
    onehot = np.zeros((N_CLASSES, n), dtype=np.float64)
    onehot[y_idx, np.arange(n)] = 1.0
    eta = config.learning_rate
    lam = config.reg_lambda
    min_root_h = 2.0 * config.min_child_weight if columns else np.inf

    # Class-major (classes, n) buffers: one contiguous row per class, so a
    # root sum reduces in the same order as the grower's `g[idx].sum()` and
    # the two agree bit for bit.  A sum over the six classes of a column adds
    # them in class order, as `_softmax` does along a row.
    logits = np.full((N_CLASSES, n), BASE_SCORE, dtype=np.float64)
    p, grad, hess = (np.empty_like(logits) for _ in range(3))
    column = np.empty(n, dtype=np.float64)
    nodes: list[tuple] = []  # (feature, threshold, left, right, value)
    sizes: list[int] = []
    for _ in range(config.rounds):
        np.subtract(logits, np.max(logits, axis=0, out=column), out=p)
        np.exp(p, out=p)
        p /= np.sum(p, axis=0, out=column)
        np.subtract(p, onehot, out=grad)
        np.subtract(1.0, p, out=hess)
        hess *= p
        h_sums = hess.sum(axis=1)
        weights = -eta * grad.sum(axis=1) / (h_sums + lam)
        leaf = h_sums < min_root_h  # these roots cannot split: one leaf each
        np.add(logits, weights[:, None], out=logits, where=leaf[:, None])
        for c, (weight, is_leaf) in enumerate(zip(weights.tolist(), leaf.tolist())):
            start = len(nodes)
            if is_leaf:
                nodes.append((-1, 0.0, -1, -1, weight))
            else:
                logits[c] += _build_tree(
                    xt, grad[c], hess[c], config, presort, xs, nodes, columns
                )
            sizes.append(len(nodes) - start)

    return GbtModel(
        config,
        x.shape[1],
        *map(np.array, zip(*nodes)),  # int64 and float64 columns
        sizes=np.array(sizes, dtype=np.intp),
        seed=int(seed),
    )


def _walk(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """The leaf value each row of the C-contiguous `x` reaches in each walked
    tree of `model`, as an (n, walked trees) array."""
    forest = model._forest
    n, k = x.shape
    n_trees = forest.roots.size
    out = np.empty((n, n_trees), dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        block = x[lo : lo + rows].ravel()
        # pair p is (row p // n_trees, tree p % n_trees); `at` its x offset
        node = np.empty((rows, n_trees), dtype=np.intp)
        node[...] = forest.roots
        node = node.ravel()
        at = np.arange(0, rows * k, k).repeat(n_trees)
        live = (model.feature[node] >= 0).nonzero()[0]
        while live.size:
            here = node[live]
            # not below the threshold: the right child, as in `Tree`
            right = block[at[live] + model.feature[here]] >= model.threshold[here]
            here = forest.child[2 * here + right]
            node[live] = here
            live = live[model.feature[here] >= 0]
        out[lo : lo + rows] = model.value[node].reshape(rows, n_trees)
    return out


def predict_logits(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Accumulated per-class logits for each row.

    Raises on a row of the wrong length or with a non-finite value.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features per row, got {x.shape[1]}"
        )
    if not np.isfinite(x).all():
        raise ValueError("feature values must be finite")
    forest = model._forest
    n = x.shape[0]
    # [split round][row][class], the layout of `block` below
    leaves = _walk(model, x).reshape(n, -1, N_CLASSES).transpose(1, 0, 2)
    # rows x classes; the reduction over the terms axis adds each round in
    # order, as `logits += term` round by round would
    logits = np.empty((n, N_CLASSES), dtype=np.float64)
    block = np.empty((forest.terms.shape[0], min(n, _SUM_ROWS), N_CLASSES), dtype=np.float64)
    block[...] = forest.terms.reshape(-1, 1, N_CLASSES)  # rounds without a split stay as filled
    for lo in range(0, n, _SUM_ROWS):
        rows = min(_SUM_ROWS, n - lo)
        part = block[:, :rows]
        part[forest.split] = leaves[:, lo : lo + rows]
        np.add.reduce(part, axis=0, out=logits[lo : lo + rows])
    return logits


def predict_proba_many(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Class-probability rows (softmax of accumulated logits)."""
    return _softmax(predict_logits(model, x))


def predict_many(model: GbtModel, x: np.ndarray) -> list[FaultLabel]:
    """Argmax class of each row; ties resolve to the earliest class in
    CLASS_ORDER."""
    probs = predict_proba_many(model, x)
    return [CLASS_ORDER[i] for i in probs.argmax(axis=1).tolist()]
