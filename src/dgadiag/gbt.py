"""Multiclass gradient-boosted regression trees with second-order splits.

One regression tree per class per boosting round, fit to the softmax
objective's gradient/hessian statistics (g = p - y, h = p(1 - p)).  Every
training row carries one FaultLabel, and class c is CLASS_ORDER[c].  Split
search is exact greedy over sorted unique feature values with the
regularized gain

    gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ]

and leaf weights -eta * G / (H + lambda), lambda = REG_LAMBDA.  A split is
kept only when its gain is strictly positive and both children carry at
least mcw = MIN_CHILD_WEIGHT of hessian mass.  Both constants are
XGBoost's defaults (1 and 1, with no minimum split loss), as in the paper's
classifier.  Thresholds are midpoints between adjacent distinct sorted
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
REG_LAMBDA > 0 keeps every denominator positive, so no gain is NaN.  The
search runs in `_best_split`, whose temporaries are freed before the
node's children are grown.

Below the root, `_cannot_gain` first tries to show that no split of a
node can gain; such a node is the leaf the search would have made, so
trees are unchanged.  It tries only where every h > 0 and all g have one
sign (the node's rows on one side of the class): in the seed-11 research
loop, 1985 of the 2204 searches that found no split and none of the 2524
that found one.  With [r1, r2] the range of g/h and G and H the node's
sums, every valid split's left sums (GL, HL) lie in the convex polygon P

    mcw <= HL <= H - mcw,  r1 HL <= GL <= r2 HL,
    r1 (H - HL) <= G - GL <= r2 (H - HL).

The unscaled gain GL^2/(HL+lambda) + (G-GL)^2/(H-HL+lambda) - G^2/(H+lambda)
is jointly convex (each term a square over a positive linear term), so its
maximum over P is at a vertex.  (GL, HL) -> (G - GL, H - HL) maps P onto
itself and keeps the gain, so it is enough to take GL on both edges of P
at HL = mcw and at the lower edge's kink (r2 H - G)/(r2 - r1), if in
range.  The node is a leaf when half the largest of these four gains is
below -tau.

The margin.  With eps = 2^-53, m rows and S = max(|r1|, |r2|) H >= sum |g|:
widening [r1, r2] by 4 ulps covers each ratio's rounding (and keeps
r2 > r1), and widening HL's range by delta = 1e-9 (1+m)(1+H) covers the
m eps H rounding of the sums the search compares with mcw, so every valid
split's exact sums lie in P.  The search's cumsums and node sums are within
m eps S of the exact GL, G and m eps H of HL, H, which moves its point and
P's edges by at most 3 m eps S in GL and m eps H in HL.  The gain's slope
is at most 2S/lambda in GL and S^2/lambda^2 in HL, and each of its terms
is at most S^2/lambda, so with both evaluations' roundings the search's
gain exceeds the bound by at most about 16 m eps (1 + S^2/lambda)
(1 + H/lambda).  tau = 1e-9 (1+m)(1 + S^2/lambda)(1 + H/lambda) is over
10^5 times that, and over 100 trainings prunes as many nodes as tau = 0.
(A lambda well below 1 would make tau swamp the gain deficit of barren
nodes; lambda = 1 keeps it at 1e-9 (1+m)(1 + S^2)(1 + H).)

A round works on class-major (classes, n) arrays of logits,
probabilities (`_softmax` along the class axis, the module's one softmax),
gradients and hessians, allocated once per call, and computes the six
root leaf weights as one vector.  A class whose root carries less than
twice MIN_CHILD_WEIGHT of hessian mass cannot split; it gets its one-leaf
tree without growing it, which is most trees after the first rounds, and
a round where every root is a leaf is one in-place add.

A model is three flat node arrays (feature, right, value) holding every
tree, [round][class], each in preorder, plus each tree's node count.
Preorder puts a node's left child right after it, so no array stores it,
and `value` holds a split's threshold at an internal node and the weight
at a leaf, as XGBoost's `split_conditions` does.  Training appends to
them, `dgadiag.io` writes them as three lists, and `GbtModel.trees` gives
`Tree` views (numpy slices) of them.  However it was built, a model checks
them when it is: signed integer ids, `config.rounds` rounds of non-empty
trees, arrays of one length, finite values, features below its feature
count, right children past the left child within the tree, and leaves that
cannot add up to a non-finite logit, so that no walk can index out of
range or loop.

For prediction a model also derives, once, absolute child ids, the roots
of the trees of every round that has a split, and each round's root
values.  Prediction is one loop over blocks of 128 rows.  A block walks
all of those trees at once, one tree level of every (row, tree) pair per
numpy step, dropping the pairs that reach a leaf; rounds whose trees are
all single leaves need no walk.  Then the base score, the single-leaf
values and the walked leaf values are stacked as one (1 + rounds, rows,
classes) array and added along the round axis in one numpy reduction,
which adds them in round order; every logit gets the same floating-point
additions in the same order as the values training accumulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import CLASS_ORDER, N_CLASSES, FaultLabel, _class_indices, _integer, _real, _seed

BASE_SCORE = 0.5  # initial logit for every class
REG_LAMBDA = 1.0  # lambda: L2 penalty on leaf weights, > 0 so no gain is NaN
MIN_CHILD_WEIGHT = 1.0  # mcw: hessian mass each child of a split must carry
_BLOCK_ROWS = 128  # rows walked and summed at once: measured faster than 64 or 256


@dataclass(frozen=True)
class GbtConfig:
    rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6

    def __post_init__(self) -> None:
        for name, value in list(vars(self).items()):
            integer = name != "learning_rate"
            # a numpy scalar passes: store the Python number, which JSON writes
            value = _integer(name, value) if integer else _real(name, value)
            if not (value >= 1 if integer else 0.0 < value <= 1.0):  # NaN fails too
                raise ValueError(f"{name} must be {'>= 1' if integer else 'in (0, 1]'}")
            object.__setattr__(self, name, value)


class Tree(NamedTuple):
    """One regression tree as node arrays in preorder; node 0 is the root.

    A row at internal node i moves to its left child i + 1 when its
    `feature[i]` value is below the threshold `value[i]` and to `right[i]`
    otherwise, which sits after the left child's subtree.  Leaves carry
    feature and right -1 and their weight in `value`.
    """

    feature: np.ndarray  # int64
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
    """A trained ensemble: three read-only node arrays holding every tree,
    [round][class] with classes in CLASS_ORDER, each in preorder with child
    ids counted from its root as in `Tree`, and each tree's node count.
    Raises ValueError on arrays that fail the module docstring's checks, or
    on a seed that `core._seed` refuses (any other is kept as an int)."""

    config: GbtConfig
    n_features: int
    feature: np.ndarray  # int64, -1 at leaves
    right: np.ndarray  # int64, -1 at leaves
    value: np.ndarray  # float64, the threshold at internal nodes, the weight at leaves
    sizes: np.ndarray  # intp, node count of each tree, [round][class]
    seed: int = 0
    _forest: _Forest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _seed(self.seed))
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
    """The walk's tables for `model`, whose node arrays it checks first."""
    sizes, feature, right, value = model.sizes, model.feature, model.right, model.value
    if not sizes.dtype.kind == feature.dtype.kind == right.dtype.kind == "i":
        raise ValueError("feature, right and sizes must be signed integer arrays")
    trees, rounds = sizes.size, model.config.rounds
    if trees != rounds * N_CLASSES:
        raise ValueError(f"the model has {trees} trees, not {rounds} rounds of {N_CLASSES}")
    if sizes.min() < 1:
        raise ValueError("empty tree")
    # summed in Python ints: an int64 sum of huge counts could wrap round to the length
    if not feature.size == right.size == value.size == sum(sizes.tolist()):
        raise ValueError("feature, right and value must each have sum(sizes) entries")
    if not np.isfinite(value).all():
        raise ValueError("non-finite threshold or leaf value")
    starts = np.cumsum(sizes) - sizes
    internal = feature != -1
    # a logit is the base score plus one leaf per tree of its class, so this
    # bounds every logit
    leaves = np.where(internal, 0.0, np.abs(value))
    if not math.isfinite(BASE_SCORE + sum(np.maximum.reduceat(leaves, starts).tolist())):
        raise ValueError("leaf values can add up to a non-finite logit")
    if np.any((feature[internal] < 0) | (feature[internal] >= model.n_features)):
        raise ValueError(f"feature index out of range 0..{model.n_features - 1}")
    offset = np.repeat(starts, sizes)
    node = np.arange(feature.size)
    # ids count from the tree's root and the left child is node + 1, so this
    # keeps both children past their parent and inside the tree
    low, high = (node - offset + 1)[internal], np.repeat(sizes, sizes)[internal]
    if np.any((right[internal] <= low) | (right[internal] >= high)):
        raise ValueError("child index must point past its parent within the tree")
    child = np.empty(2 * node.size, dtype=np.intp)
    child[0::2] = np.where(internal, node + 1, node)
    child[1::2] = np.where(internal, right + offset, node)
    terms = np.concatenate([np.full(N_CLASSES, BASE_SCORE), value[starts]])
    split = (sizes > 1).reshape(-1, N_CLASSES).any(axis=1)  # more than one node: a split
    return _Forest(
        child=child,
        roots=starts.reshape(-1, N_CLASSES)[split].ravel(),
        terms=terms.reshape(-1, N_CLASSES, 1),
        split=np.flatnonzero(split) + 1,
    )


def _softmax(logits: np.ndarray, axis: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """The softmax of `logits` along `axis`, written to `out` if given."""
    p = np.subtract(logits, logits.max(axis=axis, keepdims=True), out=out)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def _cannot_gain(g: np.ndarray, h: np.ndarray, g_sum: float, h_sum: float) -> bool:
    """True when no split of the node whose rows have gradients `g`,
    hessians `h` and sums `g_sum`, `h_sum` can have a positive gain, by the
    bound in the module docstring; False when the node must be searched."""
    if g.min() < 0.0 < g.max() or not h.min() > 0.0:
        return False
    ratio = g / h
    lo, hi = float(ratio.min()), float(ratio.max())
    lo -= 4 * math.ulp(lo)  # covers the rounding of each ratio, and keeps hi > lo
    hi += 4 * math.ulp(hi)
    scale = max(abs(lo), abs(hi)) * h_sum  # bounds the sum of |g|
    if not math.isfinite(scale):
        return False
    lam = REG_LAMBDA
    m1 = 1.0 + g.size
    delta = 1e-9 * m1 * (1.0 + h_sum)
    tau = 1e-9 * m1 * (1.0 + scale * scale / lam) * (1.0 + h_sum / lam)
    # P's vertices on its lower-HL half: at the lowest HL and at the kink of
    # its lower edge, if that is in range, GL on both edges.  The other half
    # mirrors them with the same gains.
    hl_min = max(MIN_CHILD_WEIGHT - delta, 0.0)
    hl_max = min(h_sum - MIN_CHILD_WEIGHT + delta, h_sum)
    kink = (hi * h_sum - g_sum) / (hi - lo)
    best = -math.inf
    for hl in (hl_min, kink):
        if not hl_min <= hl <= hl_max:
            continue
        hr = h_sum - hl
        for gl in (max(lo * hl, g_sum - hi * hr), min(hi * hl, g_sum - lo * hr)):
            gr = g_sum - gl
            best = max(best, gl * gl / (hl + lam) + gr * gr / (hr + lam))
    return 0.5 * (best - g_sum * g_sum / (h_sum + lam)) < -tau


def _best_split(
    gh: np.ndarray,
    g_sum: float,
    h_sum: float,
    rows: np.ndarray,
    xs: np.ndarray,
) -> tuple[float, int, int]:
    """The best split of a node as (gain, feature, position): the split
    falls between `xs[feature, position]` and the next value.  `rows` and
    `xs` are the node's (features, m) sorted row ids and values, and `gh`
    holds each row's g as real part and h as imaginary part."""
    lam = REG_LAMBDA
    # One prefix sum adds g and h lane by lane in row order, as two float
    # cumsums would; the right child's sums are the node's minus the left's.
    # (Gathering with all of `rows` and dropping the last column after is
    # about 3x faster than gathering with the strided `rows[:, :-1]`.)
    left = gh[rows].cumsum(axis=1)[:, :-1]
    gl = left.real.copy()  # contiguous: strided views cost the saving back
    hl = left.imag.copy()
    del left
    gr = g_sum - gl
    hr = h_sum - hl
    invalid = (hl < MIN_CHILD_WEIGHT) | (hr < MIN_CHILD_WEIGHT) | (xs[:, 1:] <= xs[:, :-1])
    # gain = 1/2 [GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)],
    # operation for operation, in place
    gain = np.multiply(gl, gl, out=gl)
    gain /= np.add(hl, lam, out=hl)
    gr *= gr
    gr /= np.add(hr, lam, out=hr)
    gain += gr
    gain -= g_sum * g_sum / (h_sum + lam)
    gain *= 0.5
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
    columns: Sequence[int],
) -> np.ndarray:
    """Grow one tree, appending its nodes to `nodes` as (feature, right,
    value) in preorder, with child ids counted from its root; return the
    leaf value each row lands in.

    `xt` is the (k, n) feature-major matrix, `presort[j]` lists the row ids
    in ascending order of `xt[j]`, ties by row id
    (`np.argsort(xt, axis=1, kind="stable")`), and `xs` holds those values,
    `np.take_along_axis(xt, presort, axis=1)`.  A node that splits on row j
    of them records feature `columns[j]`.
    """
    eta = cfg.learning_rate
    n_feat, n = xt.shape
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
        g_node, h_node = g[idx], h[idx]
        g_sum = float(g_node.sum())
        h_sum = float(h_node.sum())
        weight = -eta * g_sum / (h_sum + REG_LAMBDA)
        nodes.append((-1, -1, weight))  # a leaf unless a split is kept
        row_value[idx] = weight
        if (
            depth >= cfg.max_depth
            or idx.size < 2
            or h_sum < 2.0 * MIN_CHILD_WEIGHT
        ):
            return node

        if keep is not None:  # not the root, which nearly always splits
            if _cannot_gain(g_node, h_node, g_sum, h_sum):
                return node
            # The node's rows in ascending value order per feature, ties by
            # row id: the parent's order with the other child's rows taken out.
            take = np.flatnonzero(keep)
            rows = rows.ravel()[take].reshape(n_feat, idx.size)
            xs = xs.ravel()[take].reshape(n_feat, idx.size)
        del g_node, h_node  # the children need none of this node's arrays
        gain, feat, pos = _best_split(gh, g_sum, h_sum, rows, xs)
        if not gain > 0.0:
            return node

        lo, hi = xs[feat, pos], xs[feat, pos + 1]
        threshold = 0.5 * lo + 0.5 * hi
        if threshold <= lo:  # adjacent floats: keep "< threshold" == "<= lo"
            threshold = hi
        goes_left = xt[feat] < threshold
        in_left = goes_left[rows]
        mask = goes_left[idx]
        grow(idx[mask], rows, xs, in_left, depth + 1)  # node + 1, the left child
        right = grow(idx[~mask], rows, xs, ~in_left, depth + 1)
        nodes[root + node] = (columns[feat], right, float(threshold))
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
    two distinct labels, or a seed that is not a non-negative integer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("feature matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    y_idx = _class_indices(y)
    if len(y) != x.shape[0]:
        raise ValueError("feature/label length mismatch")
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
    min_root_h = 2.0 * MIN_CHILD_WEIGHT if columns else np.inf

    # Class-major (classes, n) buffers: one contiguous row per class, so a
    # root sum reduces in the same order as the grower's `g[idx].sum()` and
    # the two agree bit for bit.  `_softmax` along axis 0 adds the six classes
    # of a column in class order, as it does along a row of `predict_proba_many`.
    logits = np.full((N_CLASSES, n), BASE_SCORE, dtype=np.float64)
    p, grad, hess = (np.empty_like(logits) for _ in range(3))
    nodes: list[tuple] = []  # (feature, right, value)
    sizes: list[int] = []
    for _ in range(config.rounds):
        _softmax(logits, axis=0, out=p)
        np.subtract(p, onehot, out=grad)
        np.subtract(1.0, p, out=hess)
        hess *= p
        h_sums = hess.sum(axis=1)
        weights = -eta * grad.sum(axis=1) / (h_sums + REG_LAMBDA)
        leaf = h_sums < min_root_h  # these roots cannot split: one leaf each
        np.add(logits, weights[:, None], out=logits, where=leaf[:, None])
        for c, (weight, is_leaf) in enumerate(zip(weights.tolist(), leaf.tolist())):
            start = len(nodes)
            if is_leaf:
                nodes.append((-1, -1, weight))
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
        seed=seed,
    )


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
    n, k = x.shape
    n_trees = forest.roots.size
    logits = np.empty((n, N_CLASSES), dtype=np.float64)
    # [term][row][class]; the rows of rounds without a split stay as filled
    stack = np.empty((forest.terms.shape[0], min(n, _BLOCK_ROWS), N_CLASSES), dtype=np.float64)
    stack[...] = forest.terms.reshape(-1, 1, N_CLASSES)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        block = x[lo : lo + rows].ravel()
        # pair p is (row p // n_trees, walked tree p % n_trees); `at` its x offset
        node = np.empty((rows, n_trees), dtype=np.intp)
        node[...] = forest.roots
        node = node.ravel()
        at = np.arange(0, rows * k, k).repeat(n_trees)
        live = (model.feature[node] >= 0).nonzero()[0]
        while live.size:
            here = node[live]
            # not below the threshold: the right child, as in `Tree`
            right = block[at[live] + model.feature[here]] >= model.value[here]
            here = forest.child[2 * here + right]
            node[live] = here
            live = live[model.feature[here] >= 0]
        leaves = model.value[node].reshape(rows, forest.split.size, N_CLASSES)
        part = stack[:, :rows]
        part[forest.split] = leaves.transpose(1, 0, 2)
        # the reduction over the term axis adds each round in order, as
        # `logits += term` round by round would
        np.add.reduce(part, axis=0, out=logits[lo : lo + rows])
    return logits


def predict_proba_many(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Class-probability rows (softmax of accumulated logits)."""
    return _softmax(predict_logits(model, x))


def predict_many(model: GbtModel, x: np.ndarray) -> list[FaultLabel]:
    """Argmax class of each row's logits; ties resolve to the earliest
    class in CLASS_ORDER.  The logits, not their softmax: two logits one ulp
    apart can round to equal probabilities."""
    logits = predict_logits(model, x)
    return [CLASS_ORDER[i] for i in logits.argmax(axis=1).tolist()]
