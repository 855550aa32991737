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
recorded but drives nothing: with no row/column subsampling there is
nothing stochastic to drive, so the CLI's `train` takes no seed.

`train` leaves out the feature columns that are constant over its rows
(PRC positions 1 and k always are): they have no split anywhere, and a
node records the original index of the column it splits on.  It sorts
each other column once per call (a stable sort, so equal values keep row
order) and gathers the sorted values, both feature-major.  A tree grows
in one loop over a stack of the nodes still to grow, a split's left child
first, so nodes come out in preorder, and a leaf adds its weight to its
rows' logits where it is decided.  A split hands each child the parent's
sorted rows and values with one mask of the child's own, so every node
searches its own rows in value order without sorting them again, and ties
between equal values still resolve by row index.

A tree packs each row's g and h into one complex number (g the real part,
h the imaginary), so one `cumsum` of a node's sorted rows gives the left
sums GL and HL; numpy adds the two lanes separately, in row order, so they
equal two float `cumsum`s bit for bit, and the right sums are the node's
minus them.  The gain and its validity mask are computed on contiguous
copies of GL and HL, in place, with the gain's operations in the order of
the formula above, so equal gains stay equal and tie as stated.
REG_LAMBDA > 0 keeps every denominator positive, so no gain is NaN.  The
search runs in `_best_split`, whose temporaries are freed when it returns.

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

A model is its trees' preorders and nothing else: two flat node arrays,
feature (-1 at a leaf) and value (a split's threshold, a leaf's weight,
as XGBoost's `split_conditions`), every tree [round][class].  Every split
has two children and preorder puts the left one right after it, so the
leaf marks fix the rest.  Counting +1 per split and -1 per leaf, a tree's
nodes add up to -1 and no proper prefix of them to less than 0: tree t
ends where the running count first reaches -(t+1).  `NODE_ARRAYS` names
and types the arrays.  However it was built, a model keeps its own
read-only copies of them and checks them (flat arrays of one length,
finite values, exactly `config.rounds` rounds of whole trees, features
below its feature count, leaves that cannot add up to a non-finite
logit), so no walk can index out of range, and derives the walk's tables
(`_Forest`) once.  One pass back over the trees that split (every split
lies in one) parses them without recursion, and gives each split's right
child, each tree's depth and the one-row walk's table.

Prediction walks all trees at once, the flat-forest idea of
QuickScorer/Treelite (Lucchese et al., SIGIR 2015): blocks of 128 rows,
one tree level of every (row, tree) pair per numpy step, each tree's
leaves written at its flat `slot` of the terms, then one numpy reduction
that adds the rounds in order, so every logit gets the floating-point
additions training made.  A single row would spend most of that walk in
numpy's per-call cost, so it checks its values with `math.isfinite` and
goes down the trees that split in Python floats instead, with the same
`>=` test.  It reads them from the walk table that `_flatten` builds
once per model: each such tree as nested (feature, value, left, right)
tuples, a leaf as its float.  One `put` writes its leaves at their
`slot`s of a copy of the terms, which the same reduction adds over a
(terms, 1, classes) view, so its logits have the batch path's bits.
(The builtin `sum` would not: from Python 3.12 on it compensates float
sums.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import CLASS_ORDER, N_CLASSES, FaultLabel, _class_indices, _integer, _real, _seed, _shown

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


# each node array: the numpy dtype kinds it takes, those in words, the dtype a model keeps
NODE_ARRAYS = {"feature": ("i", "a signed integer", np.int64), "value": ("iuf", "a real", np.float64)}
_BOOLS = {bool, np.bool_}  # numpy would read one in a node list as a number


class Tree(NamedTuple):
    """One regression tree as node arrays in preorder; node 0 is the root.

    A row at internal node i moves to its left child i + 1 when its
    `feature[i]` value is below the threshold `value[i]`, and otherwise to
    its right child, the node after the left child's subtree.  Leaves carry
    feature -1 and their weight in `value`.
    """

    feature: np.ndarray
    value: np.ndarray


class _Forest(NamedTuple):
    """What the walk needs beyond a model's node arrays.

    The logits of a row are the sum of the `terms` rows in order: the base
    score, then each round's root values.  The walk replaces the root value
    of each tree that splits, at its `slot` of the flat `terms`, by the leaf
    the row reaches.  Those trees are walked deepest first (ties in round,
    then class order) from `roots`, and `deeper[l]` of them are deeper than
    l, so level l walks only a prefix of the (row, tree) pairs and no step
    filters out those at a leaf: a leaf is both its own children, so a step
    stays on it whatever its feature -1 reads.  A single row walks the same
    trees, in the same order, through `walk`.
    """

    starts: np.ndarray  # intp, first node of each tree, [round][class]
    child: np.ndarray  # intp, [2 * i] left and [2 * i + 1] right child of node i
    roots: np.ndarray  # intp, root node of each walked tree, deepest first
    deeper: np.ndarray  # intp, [l] how many walked trees are deeper than l
    slot: np.ndarray  # intp, (1 + round) * N_CLASSES + class: the flat `terms` index
    terms: np.ndarray  # (1 + rounds, N_CLASSES) base score, then root values
    walk: list[tuple]  # each walked tree as nested (feature, value, left, right)


@dataclass(frozen=True, eq=False)
class GbtModel:
    """A trained ensemble: two node arrays holding every tree, [round][class]
    with classes in CLASS_ORDER, each in preorder as in `Tree`.  Keeps a
    read-only copy of each array (or list or tuple) in its `NODE_ARRAYS`
    dtype; raises ValueError on one of a kind that table refuses (a list or
    tuple holding a bool or `np.bool_` too) or that fails the module
    docstring's checks, on an `n_features` below 1 or that `core._integer`
    refuses, or on a seed that `core._seed` refuses (both are kept as
    ints).  Compares and hashes by identity."""

    config: GbtConfig
    n_features: int
    feature: np.ndarray  # -1 at leaves
    value: np.ndarray  # the threshold at internal nodes, the weight at leaves
    seed: int = 0
    _forest: _Forest = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _seed(self.seed))
        n_features = _integer("n_features", self.n_features)
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {_shown(n_features)}")
        object.__setattr__(self, "n_features", n_features)
        for name, (kinds, kind_words, dtype) in NODE_ARRAYS.items():
            given = getattr(self, name)
            bools = isinstance(given, (list, tuple)) and not _BOOLS.isdisjoint({*map(type, given)})
            given = np.asarray(given)  # an empty list reads as float: no kind to check
            if bools or given.size and given.dtype.kind not in kinds:
                raise ValueError(f"{name} must be {kind_words} array")
            own = given.astype(dtype)  # a copy, whatever the caller later does to theirs
            own.setflags(write=False)
            object.__setattr__(self, name, own)
        object.__setattr__(self, "_forest", _flatten(self))

    @property
    def trees(self) -> list[list[Tree]]:
        """[round][class] `Tree` views of the node arrays."""
        bounds = [*self._forest.starts.tolist(), self.feature.size]
        trees = [Tree(self.feature[a:b], self.value[a:b]) for a, b in zip(bounds, bounds[1:])]
        return [trees[r : r + N_CLASSES] for r in range(0, len(trees), N_CLASSES)]


def _flatten(model: GbtModel) -> _Forest:
    """The walk's tables for `model`, whose node arrays it checks first."""
    feature, value, rounds = model.feature, model.value, model.config.rounds
    if not feature.ndim == value.ndim == 1 or feature.size != value.size:
        raise ValueError("feature and value must be flat arrays with one entry per node")
    if not np.isfinite(value).all():
        raise ValueError("non-finite threshold or leaf value")
    n = feature.size
    internal = feature != -1
    # tree t ends where the count first reaches -(t+1), below 0 and every count before it
    count = np.cumsum(np.where(internal, 1, -1))
    ends = np.flatnonzero(count < np.minimum.accumulate(np.concatenate([[0], count[:-1]])))
    whole = ends[-1] + 1 if ends.size else 0  # the nodes of whole trees
    cut = ", then part of one" if whole < n else ""
    if ends.size != rounds * N_CLASSES or cut:
        raise ValueError(f"the model has {ends.size} trees{cut}, not {rounds} rounds of {N_CLASSES}")
    starts = np.concatenate([[0], ends[:-1] + 1])
    # a logit is the base score plus one leaf per tree of its class, so this
    # bounds every logit
    leaves = np.where(internal, 0.0, np.abs(value))
    if not math.isfinite(BASE_SCORE + sum(np.maximum.reduceat(leaves, starts).tolist())):
        raise ValueError("leaf values can add up to a non-finite logit")
    if np.any((feature[internal] < 0) | (feature[internal] >= model.n_features)):
        raise ValueError(f"feature index out of range 0..{model.n_features - 1}")
    # One parse of the trees that split (every split lies in one), back
    # from their last node: a leaf pushes (its float, its node, depth 0); a
    # split pops its left subtree (built last), then its right one, whose
    # node is its right child, and pushes ((feature, value, left, right),
    # its node, 1 + the larger depth); trees and right children end reversed.
    nodes = np.flatnonzero(np.repeat(internal[starts], ends - starts + 1))[::-1]
    stack, rights = [], []
    for i, f, v in zip(nodes.tolist(), feature[nodes].tolist(), value[nodes].tolist()):
        if f < 0:
            stack.append((v, i, 0))
            continue
        left, _, left_depth = stack.pop()
        right, right_node, right_depth = stack.pop()
        rights.append(right_node)
        depth = left_depth if left_depth > right_depth else right_depth  # `max` costs a call
        stack.append(((f, v, left, right), i, depth + 1))
    stack.reverse()
    child = np.arange(n).repeat(2)  # a leaf is its own child
    child[::2][internal] += 1
    child[1::2][internal] = rights[::-1]
    depths = np.array([depth for _, _, depth in stack], dtype=np.intp)
    order = np.argsort(-depths, kind="stable")
    walked = np.flatnonzero(internal[starts])[order]
    return _Forest(
        starts=starts,
        child=child,
        roots=starts[walked],
        deeper=(walked.size - np.cumsum(np.bincount(depths)))[:-1],
        slot=walked + N_CLASSES,
        terms=np.concatenate([[BASE_SCORE] * N_CLASSES, value[starts]]).reshape(-1, N_CLASSES),
        walk=[stack[t][0] for t in order.tolist()],
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
    logits: np.ndarray,
) -> None:
    """Grow one tree, appending each node to `nodes` as (feature, value)
    once its split is decided, in preorder, and adding each leaf's weight
    to `logits` at the rows that land in it.

    `xt` is the (k, n) feature-major matrix, `presort[j]` lists the row ids
    in ascending order of `xt[j]`, ties by row id
    (`np.argsort(xt, axis=1, kind="stable")`), and `xs` holds those values,
    `np.take_along_axis(xt, presort, axis=1)`.  A node that splits on row j
    of them records feature `columns[j]`.  A node is a leaf unless it passes
    the stop rules (depth, size, hessian mass), `_cannot_gain` does not rule
    it out below the root, and `_best_split` finds a positive gain.
    """
    eta = cfg.learning_rate
    n_feat, n = xt.shape
    gh = np.empty(n, dtype=np.complex128)
    gh.real = g
    gh.imag = h
    # The nodes still to grow, the next one last: its row ids ascending, its
    # parent's sorted rows and values, the `keep` mask of those that are the
    # node's own (None at the root, whose arrays are already its own) and
    # its depth.  A split pushes its right child, then its left, so the left
    # child is grown next and nodes are appended in preorder.
    stack = [(np.arange(n, dtype=np.intp), presort, xs, None, 0)]
    while stack:
        idx, rows, xs, keep, depth = stack.pop()
        g_node, h_node = g[idx], h[idx]
        g_sum = float(g_node.sum())
        h_sum = float(h_node.sum())
        gain = 0.0  # a leaf unless the search finds a split that gains
        if not (depth >= cfg.max_depth or idx.size < 2 or h_sum < 2.0 * MIN_CHILD_WEIGHT
                # not tried at the root, which nearly always splits
                or keep is not None and _cannot_gain(g_node, h_node, g_sum, h_sum)):
            if keep is not None:
                # The node's rows in ascending value order per feature, ties by
                # row id: the parent's order with the other child's rows taken out.
                take = np.flatnonzero(keep)
                rows = rows.ravel()[take].reshape(n_feat, idx.size)
                xs = xs.ravel()[take].reshape(n_feat, idx.size)
            gain, feat, pos = _best_split(gh, g_sum, h_sum, rows, xs)
        if not gain > 0.0:
            weight = -eta * g_sum / (h_sum + REG_LAMBDA)
            nodes.append((-1, weight))
            logits[idx] += weight
            continue
        lo, hi = xs[feat, pos], xs[feat, pos + 1]
        threshold = 0.5 * lo + 0.5 * hi
        if threshold <= lo:  # adjacent floats: keep "< threshold" == "<= lo"
            threshold = hi
        nodes.append((columns[feat], float(threshold)))
        goes_left = xt[feat] < threshold
        in_left = goes_left[rows]
        mask = goes_left[idx]
        stack.append((idx[~mask], rows, xs, ~in_left, depth + 1))
        stack.append((idx[mask], rows, xs, in_left, depth + 1))


def _feature_matrix(x) -> np.ndarray:
    """`x` as a contiguous float64 array, once its dtype is of a kind
    `NODE_ARRAYS` takes for `value` (a complex, string, object or bool array
    is refused, not converted)."""
    given = np.asarray(x)
    if given.dtype.kind not in NODE_ARRAYS["value"][0]:
        raise ValueError(f"feature values must be real numbers, got {given.dtype} values")
    return np.ascontiguousarray(given, dtype=np.float64)


def train(
    x: np.ndarray,
    y: Sequence[FaultLabel],
    config: GbtConfig = GbtConfig(),
    seed: int = 0,
) -> GbtModel:
    """Fit the boosted ensemble to feature rows and their FaultLabel labels.

    Raises ValueError on empty input, features that `_feature_matrix`
    refuses or that are not finite, a label that is not a FaultLabel (such
    as None for an unlabeled sample), fewer than two distinct labels, or a
    seed `core._seed` refuses, all before training.
    """
    seed = _seed(seed)
    x = _feature_matrix(x)
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
    nodes: list[tuple] = []  # (feature, value)
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
            if is_leaf:
                nodes.append((-1, weight))
            else:
                _build_tree(xt, grad[c], hess[c], config, presort, xs, nodes, columns, logits[c])

    # as arrays, which skip the model's scan of a list for bools
    return GbtModel(config, x.shape[1], *map(np.array, zip(*nodes)), seed=seed)


def predict_logits(model: GbtModel, x: np.ndarray) -> np.ndarray:
    """Accumulated per-class logits for each row.

    Raises on values that `_feature_matrix` refuses, or on a row of the
    wrong length or with a non-finite value.
    """
    x = _feature_matrix(x)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features per row, got {x.shape[1]}"
        )
    forest = model._forest
    n, k = x.shape
    if n == 1:  # the module docstring's one-row walk, in Python floats
        row, leaves = x.ravel().tolist(), []
        if not all(map(math.isfinite, row)):
            raise ValueError("feature values must be finite")
        for tree in forest.walk:
            while tree.__class__ is tuple:
                feature, value, left, right = tree
                # not below the threshold: the right child, as below
                tree = right if row[feature] >= value else left
            leaves.append(tree)
        terms = forest.terms.copy()
        terms.put(forest.slot, leaves)
        return np.add.reduce(terms[:, None], axis=0)
    if not np.isfinite(x).all():
        raise ValueError("feature values must be finite")
    n_trees = forest.roots.size
    deeper = forest.deeper.tolist()
    logits = np.empty((n, N_CLASSES), dtype=np.float64)
    # [term * N_CLASSES + class][row]; the slots of trees without a split stay as filled
    stack = forest.terms.reshape(-1, 1).repeat(min(n, _BLOCK_ROWS), axis=1)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        block = x[lo : lo + rows].ravel()
        # pair p is (walked tree p // rows, row p % rows), deepest tree
        # first, so the pairs still walking at a level are a prefix; `at`
        # is the pair's row offset in `block`
        node = forest.roots.repeat(rows)
        at = np.empty((n_trees, rows), dtype=np.intp)
        at[...] = np.arange(0, rows * k, k)
        at = at.ravel()
        for walking in deeper:
            here = node[: walking * rows]
            index = model.feature[here]  # -1 at a leaf: a value inside the block
            index += at[: here.size]
            # not below the threshold: the right child, as in `Tree`
            right = block[index] >= model.value[here]
            index = here * 2
            index += right
            forest.child.take(index, out=here, mode="clip")  # ids are in range: no check
        stack[forest.slot, :rows] = model.value[node].reshape(n_trees, rows)
        # the reduction over the term axis adds each round in order, as
        # `logits += term` round by round would
        terms = stack[:, :rows].reshape(-1, N_CLASSES, rows)
        np.add.reduce(terms, axis=0, out=logits[lo : lo + rows].T)
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
