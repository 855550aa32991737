import dataclasses
import gc
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadiag import gbt
from dgadiag.core import CLASS_ORDER, FaultLabel
from dgadiag.features import build_features, optimal_k_search
from dgadiag.gbt import (
    GbtConfig,
    GbtModel,
    Tree,
    predict_logits,
    predict_many,
    predict_proba_many,
    train,
    _Forest,
    _best_split,
    _build_tree,
    _cannot_gain,
    _flatten,
    _softmax,
)
from dgadiag.io import ModelBundle, generate_synthetic, load_model, save_model
from dgadiag.ranking import CANONICAL_RANK_ORDER, rank_params


def _labels(idx):
    """The FaultLabel of each class index."""
    return [CLASS_ORDER[int(i)] for i in idx]


def test_config_defaults():
    cfg = GbtConfig()
    assert cfg.rounds == 100
    assert cfg.learning_rate == 0.3
    assert cfg.max_depth == 6
    # the class count is CLASS_ORDER's, and the regularisers (XGBoost's
    # defaults) and the base score are constants, not settings
    assert [f.name for f in dataclasses.fields(cfg)] == ["rounds", "learning_rate", "max_depth"]
    assert (gbt.REG_LAMBDA, gbt.MIN_CHILD_WEIGHT, gbt.BASE_SCORE) == (1.0, 1.0, 0.5)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        GbtConfig(rounds=0)
    with pytest.raises(ValueError):
        GbtConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbtConfig(max_depth=0)
    bad = [
        ("rounds", 5.0), ("rounds", True), ("rounds", "5"), ("rounds", None),
        ("max_depth", 2.5), ("max_depth", False), ("max_depth", np.float64(3)),
        ("learning_rate", float("nan")), ("learning_rate", True), ("learning_rate", "0.3"),
        ("learning_rate", float("inf")), ("learning_rate", 10**400),
        ("learning_rate", np.bool_(True)), ("learning_rate", None),
    ]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            GbtConfig(**{name: value})
    # integers and finite reals of other types still pass, stored as the
    # Python numbers they equal, so a model trained with them saves and loads
    cfg = GbtConfig(rounds=np.int64(3), max_depth=np.int32(2), learning_rate=np.float32(0.3))
    assert [type(v) for v in vars(cfg).values()] == [int, float, int]
    assert cfg == GbtConfig(rounds=3, max_depth=2, learning_rate=float(np.float32(0.3)))
    assert type(GbtConfig(learning_rate=1).learning_rate) is float
    model = train(np.eye(6), list(CLASS_ORDER), cfg)
    path = tmp_path / "model.json"
    save_model(path, ModelBundle(model=model, rank_order=CANONICAL_RANK_ORDER, k=6))
    loaded = load_model(path).model
    assert loaded.config == cfg
    assert predict_logits(loaded, np.eye(6)).tobytes() == predict_logits(model, np.eye(6)).tobytes()


def _one_hot_points(copies):
    """Six points with feature j = class indicator, each `copies` times.
    Per-row hessians are 5/36 at the uniform start, so a child of a split
    needs eight rows to carry MIN_CHILD_WEIGHT."""
    return np.repeat(np.eye(6), copies, axis=0), [c for c in CLASS_ORDER for _ in range(copies)]


def test_training_leaves_no_reference_cycles():
    # the arrays a tree is grown with go when it is done, not at the cyclic
    # garbage collector's next run
    x, y = _one_hot_points(16)
    config = GbtConfig(rounds=3)
    model = train(x, y, config, seed=0)  # first-call set-up (numpy's lazy imports) makes cycles
    assert np.all(model.feature[model._forest.starts] >= 0)  # every root split
    gc.collect()
    gc.disable()
    try:
        train(x, y, config, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_hot_separable_points():
    x, y = _one_hot_points(16)
    model = train(x, y, GbtConfig(), seed=0)
    assert predict_many(model, np.eye(6)) == list(CLASS_ORDER)


def test_two_class_1d_split_in_gap():
    rng = np.random.default_rng(5)
    neg = -rng.uniform(0.5, 3.0, 50)
    pos = rng.uniform(0.5, 3.0, 50)
    x = np.concatenate([neg, pos])[:, None]
    y = [FaultLabel.PD] * 50 + [FaultLabel.D1] * 50
    model = train(x, y, GbtConfig(), seed=0)

    tree = model.trees[0][0]  # first round, first class
    assert tree.feature[0] == 0  # the root splits
    assert neg.max() < tree.value[0] < pos.min()  # the root's threshold

    holdout = np.array([[-0.01], [-2.9], [0.01], [2.9]])
    expected = [FaultLabel.PD, FaultLabel.PD, FaultLabel.D1, FaultLabel.D1]
    assert predict_many(model, holdout) == expected


def test_constant_features_predict_majority():
    x = np.zeros((10, 3))
    y = [FaultLabel.T2] * 6 + [FaultLabel.D1] * 4
    model = train(x, y, GbtConfig(rounds=30), seed=0)
    assert predict_many(model, x[:1]) == [FaultLabel.T2]


def test_constant_features_tied_counts_break_to_pd():
    x = np.zeros((8, 2))
    y = [FaultLabel.T3] * 4 + [FaultLabel.PD] * 4
    model = train(x, y, GbtConfig(rounds=30), seed=0)
    assert predict_many(model, x[:1]) == [FaultLabel.PD]


def test_untrained_model_uniform_probabilities():
    model = _base_score_model(4)
    probs = predict_proba_many(model, np.zeros((1, 4)))
    assert np.allclose(probs, np.full((1, 6), 1 / 6), atol=1e-15)
    assert predict_many(model, np.zeros((1, 4))) == [FaultLabel.PD]  # tie -> first class


def test_probabilities_sum_to_one_and_positive():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 5))
    y = [CLASS_ORDER[i % 6] for i in range(40)]
    model = train(x, y, GbtConfig(rounds=15), seed=0)
    probs = predict_proba_many(model, x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_argmax_example():
    proba = np.array([0, 0, 0.9, 0.1, 0, 0])
    assert CLASS_ORDER[int(np.argmax(proba))] == FaultLabel.D2


def test_label_is_the_argmax_of_the_logits_at_a_one_ulp_gap():
    # one round of single-leaf trees: PD's logit is a, D1's the next float
    # above it, the rest the base score.  Their softmax can round PD's and
    # D1's probabilities equal (it does with numpy 2.4's exp on x86-64), so
    # a label taken from it could be PD.
    a = 0.8217701239287258
    logits = [a, math.nextafter(a, math.inf)] + [gbt.BASE_SCORE] * 4
    round_trees = [
        Tree(np.array([-1]), np.array([v - gbt.BASE_SCORE]))
        for v in logits
    ]
    model = _model_of([round_trees], GbtConfig(rounds=1), 1)
    x = np.zeros((1, 1))
    assert predict_logits(model, x).tolist() == [logits]  # v - 0.5 is exact here
    assert predict_many(model, x) == [FaultLabel.D1]


def test_row_length_mismatch():
    model = _base_score_model(4)
    with pytest.raises(ValueError, match="4 features"):
        predict_proba_many(model, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="2-D"):
        predict_proba_many(model, np.zeros(4))


def test_degenerate_labels():
    x = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match="degenerate labels"):
        train(x, [FaultLabel.PD] * 10, GbtConfig(), seed=0)


def test_empty_matrix():
    with pytest.raises(ValueError):
        train(np.zeros((0, 3)), [], GbtConfig(), seed=0)


@pytest.mark.parametrize("y", [[0, 1, 2, 3], np.array([0, 1, 2, 3]), [FaultLabel.PD, None] * 2,
                               ["PD", "D1", "D2", "T1"]])
def test_labels_must_be_fault_labels(y):
    # class indices, unlabeled samples and label strings are refused alike
    x = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(ValueError, match="is not a FaultLabel: samples must be labeled"):
        train(x, y)


def test_label_count_must_match_the_rows():
    x = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ValueError, match="^feature/label length mismatch$"):
        train(x, [FaultLabel.PD, FaultLabel.D1] * 2)


def test_non_finite_features():
    x = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        train(x, [FaultLabel.PD, FaultLabel.D1], GbtConfig(), seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(bad):
    model = _base_score_model(6)
    rows = np.zeros((3, 6))
    rows[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        predict_logits(model, rows)


# kind -> a float matrix of small integers as an array of that kind
_OTHER_KINDS = {
    "complex": lambda x: x + 0j,  # np.asarray(..., float64) dropped the imaginary part
    "numeric strings": lambda x: x.astype(str).astype(object),  # which it parsed
    "text": lambda x: x.astype(str),
    "bool": lambda x: x > 0,
    "huge integers": lambda x: [[10**400] * x.shape[1]] * len(x),  # raised OverflowError
}


@pytest.mark.parametrize("n", [1, 3])  # the one-row walk and the batch walk
@pytest.mark.parametrize("kind", _OTHER_KINDS)
def test_feature_values_must_be_integers_or_reals(kind, n):
    x = np.arange(2.0 * n * 4).reshape(2 * n, 4) % 3
    bad = _OTHER_KINDS[kind](x)
    message = f"feature values must be real numbers, got {np.asarray(bad).dtype} values"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train(bad, _labels(np.arange(2 * n) % 2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        predict_logits(_base_score_model(4), _OTHER_KINDS[kind](x[:n]))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64, np.float16, np.float32])
def test_integer_and_real_features_of_any_width_read_as_float64(dtype, n):
    x = np.random.default_rng(7).integers(0, 5, size=(12, 3))
    y = _labels(np.arange(12) % 3)
    model = train(x.astype(dtype), y, GbtConfig(rounds=3))
    want = train(x.astype(np.float64), y, GbtConfig(rounds=3))
    assert model.feature.tobytes() == want.feature.tobytes()
    assert model.value.tobytes() == want.value.tobytes()
    got = predict_logits(want, x[:n].astype(dtype))
    assert got.tobytes() == predict_logits(want, x[:n].astype(np.float64)).tobytes()


@pytest.mark.parametrize("row", [
    [0.0, 1.0, np.nan],
    [0.0, np.inf, 1.0],
    [-np.inf, 0.0, 1.0],
    [0.0, 1.0],
    [0.0, np.nan],  # refused for its width first, as in a batch
], ids=["non-finite", "inf", "-inf", "short", "short and nan"])
def test_one_row_is_refused_as_in_a_batch(row):
    model = _base_score_model(3)
    with pytest.raises(ValueError) as one:
        predict_logits(model, [row])
    with pytest.raises(ValueError) as batch:
        predict_logits(model, [row, row])
    assert str(one.value) == str(batch.value)


def test_training_log_loss_non_increasing():
    # an r-round model is the first r rounds of any longer run, since no
    # round depends on a later one; r = 0 is the base score, every class 1/6
    rng = np.random.default_rng(11)
    x = rng.normal(size=(90, 6))
    y = [CLASS_ORDER[i % 6] for i in range(90)]
    y_idx = [CLASS_ORDER.index(label) for label in y]
    losses = [math.log(len(CLASS_ORDER))]
    for r in range(1, 21):
        p = _softmax(predict_logits(train(x, y, GbtConfig(rounds=r)), x))
        losses.append(float(-np.mean(np.log(p[np.arange(len(y)), y_idx]))))
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-9


def test_deterministic_training():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(60, 5))
    y = [CLASS_ORDER[i % 6] for i in range(60)]
    m1 = train(x, y, GbtConfig(rounds=10), seed=4)
    m2 = train(x, y, GbtConfig(rounds=10), seed=4)
    assert np.array_equal(predict_logits(m1, x), predict_logits(m2, x))


@pytest.mark.parametrize("seed", [np.int64(5), np.uint8(7), 2**70])
def test_integer_seeds_are_stored_as_int_and_round_trip(seed, tmp_path):
    x = np.eye(6)
    model = train(x, list(CLASS_ORDER), GbtConfig(rounds=2), seed=seed)
    assert type(model.seed) is int and model.seed == seed
    path = tmp_path / "model.json"
    save_model(path, ModelBundle(model=model, rank_order=CANONICAL_RANK_ORDER, k=6))
    assert load_model(path).model.seed == seed


@pytest.mark.parametrize("seed", [True, np.bool_(False), 1.5, np.float64(5.0), "5", None])
def test_non_integer_seeds_are_refused_by_name(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        train(np.eye(6), list(CLASS_ORDER), GbtConfig(rounds=2), seed=seed)


@pytest.mark.parametrize("seed", [-1, True])
def test_train_refuses_a_bad_seed_before_it_trains(seed, monkeypatch):
    def grow(*args):  # the model refused a negative seed once every round had run
        raise AssertionError("a tree was grown")

    monkeypatch.setattr(gbt, "_build_tree", grow)
    x = np.random.default_rng(0).normal(size=(60, 4))
    y = [CLASS_ORDER[i % 6] for i in range(60)]
    with pytest.raises(ValueError, match="^seed must be a"):
        train(x, y, GbtConfig(rounds=3), seed=seed)


def test_per_feature_scale_invariance():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(80, 4))
    y = [CLASS_ORDER[i % 6] for i in range(80)]
    x_test = rng.normal(size=(30, 4))

    scaled = x.copy()
    scaled[:, 2] *= 10.0
    scaled_test = x_test.copy()
    scaled_test[:, 2] *= 10.0

    m_base = train(x, y, GbtConfig(rounds=12), seed=0)
    m_scaled = train(scaled, y, GbtConfig(rounds=12), seed=0)
    assert predict_many(m_base, x_test) == predict_many(m_scaled, scaled_test)


def test_tree_depth_bounded():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(200, 4))
    y = [CLASS_ORDER[int(i)] for i in rng.integers(0, 6, 200)]
    cfg = GbtConfig(rounds=3, max_depth=3)
    model = train(x, y, cfg, seed=0)

    for round_trees in model.trees:
        for tree in round_trees:
            assert np.isfinite(tree.value).all()
            assert np.all(tree.feature < x.shape[1])
            assert _depth(tree) <= cfg.max_depth


def _brute_force_best_split(x, g, h):
    """Plain-loop enumeration of every admissible (feature, midpoint) split."""
    lam, mcw = gbt.REG_LAMBDA, gbt.MIN_CHILD_WEIGHT
    n, d = x.shape
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    best = None
    for j in range(d):
        vals = sorted(set(x[:, j].tolist()))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            mask = x[:, j] < thr
            GL, HL = g[mask].sum(), h[mask].sum()
            GR, HR = G - GL, H - HL
            if HL < mcw or HR < mcw:
                continue
            gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent)
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, j, thr, mask)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_root_split_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(25, 4))
    g = rng.normal(size=25)
    h = rng.uniform(0.05, 1.0, size=25) / 0.3  # about 6 of 25 rows carry MIN_CHILD_WEIGHT
    cfg = GbtConfig(rounds=1, max_depth=1)

    tree, row_value = _grow_presorted(x, g, h, cfg)
    oracle = _brute_force_best_split(x, g, h)
    if oracle is None:
        assert tree.feature.tolist() == [-1]
        assert np.array_equal(row_value, np.full(25, tree.value[0]))
        return
    _, feat, thr, mask = oracle
    assert tree.feature.tolist() == [feat, -1, -1]
    assert tree.value[0] == pytest.approx(thr, rel=1e-12)
    left, right = 1, 2
    eta, lam = cfg.learning_rate, gbt.REG_LAMBDA
    assert tree.value[left] == pytest.approx(
        -eta * g[mask].sum() / (h[mask].sum() + lam), rel=1e-12
    )
    assert tree.value[right] == pytest.approx(
        -eta * g[~mask].sum() / (h[~mask].sum() + lam), rel=1e-12
    )
    assert np.array_equal(row_value, np.where(mask, tree.value[left], tree.value[right]))


def _grow_presorted(x, g, h, cfg, logits=None):
    """`_build_tree` on `x` with the feature-major presort `train` makes,
    behind the nodes of another tree; returns the grown `Tree` and the
    logits buffer the leaves added to.  That is -0.0 unless `logits` is
    given: -0.0 + w is w bit for bit, -0.0 too, so it returns each row's
    leaf value."""
    xt = np.ascontiguousarray(x.T)
    presort = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, presort, axis=1)
    nodes = [(-1, 0.25)]
    if logits is None:
        logits = np.full(x.shape[0], -0.0)
    _build_tree(xt, g, h, cfg, presort, xs, nodes, range(x.shape[1]), logits)
    return Tree(*map(np.array, zip(*nodes[1:]))), logits


def _oracle_build_tree(x, g, h, cfg):
    """Reference: `_build_tree` with a stable argsort of the node's rows at
    every node, which writes a placeholder leaf and patches in a split once
    its right child is known; returns the `Tree`, each node's right child
    (-1 at a leaf) and the per-row leaf values."""
    eta = cfg.learning_rate
    lam, mcw = gbt.REG_LAMBDA, gbt.MIN_CHILD_WEIGHT
    nodes = []
    row_value = np.empty(x.shape[0], dtype=np.float64)

    def grow(idx, depth):
        node = len(nodes)
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        weight = -eta * g_sum / (h_sum + lam)
        nodes.append((-1, -1, weight))
        row_value[idx] = weight
        if depth >= cfg.max_depth or idx.size < 2 or h_sum < 2.0 * mcw:
            return node
        xs_node = x[idx]
        order = np.argsort(xs_node, axis=0, kind="stable")
        xs = np.take_along_axis(xs_node, order, axis=0)
        gs = g[idx][order]
        hs = h[idx][order]
        gl = np.cumsum(gs, axis=0)[:-1]
        hl = np.cumsum(hs, axis=0)[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        gain = 0.5 * (
            gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_sum * g_sum / (h_sum + lam)
        )
        valid = (xs[1:] > xs[:-1]) & (hl >= mcw) & (hr >= mcw)
        gain = np.where(valid, gain, -np.inf)
        gain_fm = np.ascontiguousarray(gain.T)
        flat_best = int(np.argmax(gain_fm))
        feat, pos = divmod(flat_best, gain.shape[0])
        if not gain_fm.flat[flat_best] > 0.0:
            return node
        lo, hi = xs[pos, feat], xs[pos + 1, feat]
        threshold = 0.5 * lo + 0.5 * hi
        if threshold <= lo:
            threshold = hi
        mask = x[idx, feat] < threshold
        assert grow(idx[mask], depth + 1) == node + 1
        right = grow(idx[~mask], depth + 1)
        nodes[node] = (feat, right, float(threshold))
        return node

    grow(np.arange(x.shape[0], dtype=np.intp), 0)
    feature, right, value = map(np.array, zip(*nodes))
    return Tree(feature, value), right, row_value


def test_presorted_split_search_matches_per_node_argsort():
    # h_scale sets how many rows carry MIN_CHILD_WEIGHT: at 100 every row
    # does, so every split is admissible
    split, depths = [], []

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 6),
        max_depth=st.integers(1, 12),
        h_scale=st.sampled_from([1.0, 3.0, 20.0, 100.0]),
        levels=st.sampled_from([None, 1, 2, 3, 5]),
        constant=st.sampled_from([None, 0, -1]),
    )
    def check(seed, n, d, max_depth, h_scale, levels, constant):
        rng = np.random.default_rng(seed)
        if levels is None:
            x = rng.normal(size=(n, d))
        else:  # tie-heavy integer grid, with -0.0 beside 0.0
            x = rng.integers(0, levels, size=(n, d)).astype(np.float64)
            x[rng.random(size=(n, d)) < 0.2] = -0.0
        if constant is not None:  # one column with a single value
            x[:, constant] = x[0, constant]
        g = rng.normal(size=n)
        h = rng.uniform(0.01, 1.0, size=n) * h_scale
        if levels is not None:  # repeated gradients tie gains across thresholds
            g = np.round(g)
        cfg = GbtConfig(max_depth=max_depth)
        tree, row_value = _grow_presorted(x, g, h, cfg)
        oracle_tree, oracle_right, oracle_value = _oracle_build_tree(x, g, h, cfg)
        for got, want in zip(tree, oracle_tree, strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert _right(tree).tolist() == oracle_right.tolist()
        assert row_value.tobytes() == oracle_value.tobytes()
        split.append(tree.feature[0] >= 0)
        depths.append(_depth(tree))

    check()
    assert np.mean(split) >= 0.2, np.mean(split)  # 0.33-0.48 in four runs
    assert max(depths) >= 5, max(depths)  # the deepest tree: 6-12 in 30 runs


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_twelve_deep_spine_matches_per_node_argsort(side):
    """|g| doubles along the one column, so each split takes the row of
    largest |g| off the node's upper end and the rest split again: a spine
    of 12 splits whose other child is a leaf.  On the left, every right
    child waits on the grower's stack until the spine ends; with the column
    negated the spine grows on the right."""
    n = 40
    x = np.arange(n, dtype=np.float64)[:, None] * (1.0 if side == "left" else -1.0)
    g = 2.0 ** np.arange(n) * np.where(np.arange(n) % 2, 1.0, -1.0)
    h = np.full(n, 5.0)
    cfg = GbtConfig(max_depth=12)
    tree, row_value = _grow_presorted(x, g, h, cfg)
    oracle_tree, oracle_right, oracle_value = _oracle_build_tree(x, g, h, cfg)
    assert [a.tobytes() for a in tree] == [a.tobytes() for a in oracle_tree]
    assert _right(tree).tolist() == oracle_right.tolist()
    assert row_value.tobytes() == oracle_value.tobytes()
    assert _depth(tree) == 12 and tree.feature.size == 25


def test_the_grower_adds_each_rows_leaf_to_the_logits_it_is_given():
    # the buffer is one class's row of a (classes, n) array, as in `train`;
    # its other rows and the grower's inputs stay as they were
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 4),
        max_depth=st.integers(1, 8),
        c=st.integers(0, len(CLASS_ORDER) - 1),
    )
    def check(seed, n, d, max_depth, c):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        g = rng.normal(size=n)
        h = rng.uniform(0.01, 1.0, size=n) * 20.0
        logits = rng.normal(size=(len(CLASS_ORDER), n)) * 10.0 ** rng.integers(-300, 300, size=n)
        logits[:, rng.random(size=n) < 0.2] = rng.choice([0.0, -0.0])
        expected = [a.copy() for a in (x, g, h, logits)]
        cfg = GbtConfig(max_depth=max_depth)
        _grow_presorted(x, g, h, cfg, logits[c])
        expected[3][c] += _oracle_build_tree(x, g, h, cfg)[2]
        for got, want in zip((x, g, h, logits), expected, strict=True):
            assert got.tobytes() == want.tobytes()

    check()


def _assert_train_matches_oracle(x, y, cfg):
    """Every tree of `train` equals the oracle's, grown on the gradients of
    the oracle's own training loop, and the model's derived child links are
    the oracle grower's."""
    n = x.shape[0]
    model = train(x, y, cfg)
    assert len(model.trees) == cfg.rounds
    onehot = np.zeros((n, len(CLASS_ORDER)))
    onehot[np.arange(n), [CLASS_ORDER.index(label) for label in y]] = 1.0
    logits = np.full((n, len(CLASS_ORDER)), 0.5)
    starts = iter(model._forest.starts.tolist())
    for round_trees in model.trees:
        p = _softmax(logits)
        grad, hess = p - onehot, p * (1.0 - p)
        for c, tree in enumerate(round_trees):
            oracle, right, row_value = _oracle_build_tree(x, grad[:, c], hess[:, c], cfg)
            assert [a.dtype for a in tree] == [a.dtype for a in oracle]
            assert [a.tobytes() for a in tree] == [a.tobytes() for a in oracle]
            start, split = next(starts), np.flatnonzero(tree.feature >= 0)
            child = model._forest.child.reshape(-1, 2)[start + split] - start
            assert child.tolist() == [[i + 1, right[i]] for i in split.tolist()]
            logits[:, c] += row_value
    return model


def test_train_matches_per_node_argsort():
    # n runs past numpy's 128-element pairwise-summation block; small or
    # well-fit nodes stop on their hessian mass, which is where `train`
    # makes a root a leaf without growing it
    split = []

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(2, 240), st.integers(240, 700)),
        d=st.integers(1, 5),
        rounds=st.integers(1, 6),
        max_depth=st.integers(1, 5),
        levels=st.sampled_from([None, 2, 3]),
        constant=st.sampled_from([None, 0, -1]),
    )
    def check(seed, n, d, rounds, max_depth, levels, constant):
        rng = np.random.default_rng(seed)
        if levels is None:
            x = rng.normal(size=(n, d))
        else:  # tie-heavy integer grid, with -0.0 beside 0.0
            x = rng.integers(0, levels, size=(n, d)).astype(np.float64)
            x[rng.random(size=(n, d)) < 0.2] = -0.0
        if constant is not None:  # a column `train` leaves out of the search
            x[:, constant] = x[0, constant]
        y = rng.integers(0, 3, size=n)
        y[:2] = [0, 1]
        cfg = GbtConfig(rounds=rounds, max_depth=max_depth)
        model = _assert_train_matches_oracle(x, _labels(y), cfg)
        split.append(_split_share(model))

    check()
    assert np.mean(split) >= 0.1, np.mean(split)  # 0.18-0.23 in four runs


def test_train_matches_per_node_argsort_on_synthetic():
    """The default config on the seed-11 survey features: most trees after
    the first rounds are single leaves that never reach the grower."""
    samples = generate_synthetic(11)
    fm = build_features(samples, rank_params(samples), 24)
    model = _assert_train_matches_oracle(fm.x, fm.labels, GbtConfig(rounds=20))
    leaves = [tree.feature.size == 1 for r in model.trees for tree in r]
    assert all(leaves[-len(CLASS_ORDER) :]) and not all(leaves)


@pytest.mark.parametrize("k", [18, 37])
def test_default_train_matches_per_node_argsort_on_synthetic(k):
    """The whole default config (100 rounds) on the seed-11 survey features,
    whose PRC positions 1 and k are constant."""
    samples = generate_synthetic(11)
    fm = build_features(samples, rank_params(samples), k)
    assert np.all(fm.x[:, [0, -1]] == 0.0)
    model = _assert_train_matches_oracle(fm.x, fm.labels, GbtConfig())
    used = model.feature[model.feature >= 0]
    assert used.size and 0 not in used and k - 1 not in used


def _constant_columns(kind, x):
    """`x` with the columns of `kind` made constant."""
    x = x.copy()
    if kind == "pinned-ends":  # the PRC shape: positions 1 and k are 0
        x[:, [0, -1]] = 0.0
    elif kind == "all":
        x[...] = 1.5
    else:  # "signed-zeros": a column of -0.0 and 0.0 only, which never splits
        x[:, 1] = 0.0
        x[::3, 1] = -0.0
    return x


@pytest.mark.parametrize("kind", ["pinned-ends", "all", "signed-zeros"])
@pytest.mark.parametrize("seed", range(4))
def test_train_with_constant_columns_matches_per_node_argsort(kind, seed):
    rng = np.random.default_rng(seed)
    x = _constant_columns(kind, rng.normal(size=(300, 5)))
    y = rng.integers(0, 4, size=300)
    y[:2] = [0, 1]
    cfg = GbtConfig(rounds=4, max_depth=4)
    model = _assert_train_matches_oracle(x, _labels(y), cfg)
    used = set(model.feature[model.feature >= 0].tolist())
    searched = {"pinned-ends": {1, 2, 3}, "all": set(), "signed-zeros": {0, 2, 3, 4}}[kind]
    assert used <= searched and (used or kind == "all")


@pytest.mark.parametrize("seed", range(12))
def test_narrow_hessian_window_matches_per_node_argsort(seed):
    """Tiny hessians except on a few rows: only the positions from a
    feature's second heavy row to just before its second-from-last hold
    MIN_CHILD_WEIGHT on both sides."""
    rng = np.random.default_rng(seed)
    n = 40
    x = rng.normal(size=(n, 1 + seed % 3))
    g = rng.normal(size=n)
    h = np.full(n, 1e-3)
    h[rng.choice(n, size=4 + seed % 3, replace=False)] = 0.9
    cfg = GbtConfig(max_depth=3)
    tree, row_value = _grow_presorted(x, g, h, cfg)
    oracle_tree, _, oracle_value = _oracle_build_tree(x, g, h, cfg)
    assert [a.tobytes() for a in tree] == [a.tobytes() for a in oracle_tree]
    assert row_value.tobytes() == oracle_value.tobytes()


@pytest.mark.parametrize("edge", ["first", "last"])
def test_split_at_the_edge_of_the_hessian_window(edge):
    # heavy rows 0, 1, 10 and 11 of 16: a split after sorted position j
    # (rows 0..j left) holds MIN_CHILD_WEIGHT 1.0 on both sides only for
    # 1 <= j <= 9, and the gradients put the best split at one end of that
    x = np.arange(16, dtype=np.float64)[:, None]
    h = np.full(16, 1e-3)
    h[[0, 1, 10, 11]] = 0.9
    cut = 2 if edge == "first" else 10
    g = np.where(np.arange(16) < cut, -1.0, 1.0)
    cfg = GbtConfig(max_depth=1)
    tree, _ = _grow_presorted(x, g, h, cfg)
    oracle_tree, _, _ = _oracle_build_tree(x, g, h, cfg)
    assert [a.tobytes() for a in tree] == [a.tobytes() for a in oracle_tree]
    assert tree.feature[0] == 0 and tree.value[0] == cut - 0.5


def test_a_split_between_adjacent_floats_is_at_the_upper_one():
    # the midpoint of 1.0 and the next float rounds to 1.0, and "< 1.0"
    # would send no row left: the threshold is the upper value
    upper = np.nextafter(1.0, 2.0)
    x = np.repeat([1.0, upper], 20)[:, None]
    y = [FaultLabel.PD] * 20 + [FaultLabel.D1] * 20
    model = train(x, y, GbtConfig(rounds=3))
    assert model.feature[0] == 0 and model.value[0] == upper
    assert predict_many(model, x) == y


def _search_node(x, g, h):
    """`_cannot_gain` and `_best_split`'s gain on one node holding every row
    of `x`, with the sums and presort `_build_tree` would give it."""
    xt = np.ascontiguousarray(x.T)
    rows = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, rows, axis=1)
    gh = np.empty(g.size, dtype=np.complex128)
    gh.real, gh.imag = g, h
    g_sum, h_sum = float(g.sum()), float(h.sum())
    gain = _best_split(gh, g_sum, h_sum, rows, xs)[0]
    return _cannot_gain(g, h, g_sum, h_sum), gain


def test_a_node_the_no_gain_test_prunes_has_no_gaining_split():
    # One-sign gradients whose g/h ratios spread over [1, spread] (or take
    # just its two ends), near where a split starts to gain: the test's bound
    # is tight when a split separates the ratios, as column 0 does in
    # "ratio".  Scaling g and h by s scales the gain of a split as
    # REG_LAMBDA / s and MIN_CHILD_WEIGHT / s would, so h_scale stands in
    # for other values of those two.
    outcomes = []

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 160),
        d=st.integers(1, 3),
        spread=st.sampled_from([1.0, 1.01, 1.1, 3.0, 10.0]),
        two_ratios=st.booleans(),
        sign=st.sampled_from([1.0, -1.0]),
        h_scale=st.sampled_from([0.05, 0.25, 1.0, 4.0, 20.0, 100.0]),
        layout=st.sampled_from(["ties", "ratio"]),
    )
    def check(seed, n, d, spread, two_ratios, sign, h_scale, layout):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.05, 1.0, size=n) * h_scale
        u = rng.integers(0, 2, size=n) if two_ratios else rng.random(size=n)
        ratio = sign * rng.uniform(0.05, 3.0) * spread**u
        g = ratio * h
        x = rng.integers(0, 3, size=(n, d)).astype(np.float64)  # tie-heavy
        x[rng.random(size=(n, d)) < 0.2] = -0.0
        if layout == "ratio":
            x[:, 0] = np.abs(ratio)
        cannot, gain = _search_node(x, g, h)
        if cannot:
            assert not gain > 0.0
        outcomes.append((cannot, gain > 0.0))

    check()
    pruned, gains = np.mean(outcomes, axis=0)
    # both outcomes are common: nodes are pruned (0.63-0.74 in four runs),
    # and nodes are searched that have a split that gains (0.13-0.22)
    assert pruned >= 0.4 and gains >= 0.05, (pruned, gains)


@pytest.mark.filterwarnings("error")
def test_the_no_gain_test_searches_a_node_whose_bound_overflows():
    # g/h reaches -1e308, and the bound on sum |g|, that times H = 2.0, is inf
    g, h = np.array([-0.5, -0.5]), np.array([5e-309, 2.0])
    assert _cannot_gain(g, h, float(g.sum()), float(h.sum())) is False


@pytest.mark.parametrize("ratio", [-2.0, 1.0, 0.5, 1 / 3, -7.0])
def test_a_node_of_one_ratio_is_never_searched(ratio, monkeypatch):
    """Rows sharing one g/h ratio r have GL = r HL on every split, and
    r^2 [HL^2/(HL+lambda) + HR^2/(HR+lambda) - H^2/(H+lambda)] < 0 for
    HL, HR >= MIN_CHILD_WEIGHT > 0: both children of the root are leaves
    without a search.  (g = r h is exact for r = -2, 1 and 0.5, so each
    child's ratios are all equal; 1/3 and -7 leave them an ulp apart.)"""
    rng = np.random.default_rng(3)
    n = 40
    x = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
    x[:, 0] = np.arange(n) >= n // 2
    h = rng.uniform(0.1, 0.25, size=n)
    g = np.where(x[:, 0] == 0, ratio, -ratio) * h
    cfg = GbtConfig()
    for half in (slice(None, n // 2), slice(n // 2, None)):
        assert h[half].sum() >= 2.0 * gbt.MIN_CHILD_WEIGHT  # the child gets to the test
        cannot, gain = _search_node(x[half], g[half], h[half])
        assert cannot and gain < 0.0
    searched = []
    search = gbt._best_split
    monkeypatch.setattr(gbt, "_best_split", lambda *a: searched.append(a[3].shape) or search(*a))
    tree, _ = _grow_presorted(x, g, h, cfg)
    oracle_tree, _, _ = _oracle_build_tree(x, g, h, cfg)
    assert [a.tobytes() for a in tree] == [a.tobytes() for a in oracle_tree]
    assert tree.feature.tolist() == [0, -1, -1]
    assert searched == [(3, n)]  # the root only


@pytest.mark.parametrize("group", ["heavy", "light"])
def test_a_split_just_above_gamma_is_not_pruned(group):
    """A split is kept when its gain is above XGBoost's minimum split loss
    gamma, which is 0 here.  Rows in index order with g/h ratio 1, then the
    rest with ratio r > 1.  With both groups heavier than MIN_CHILD_WEIGHT
    the best split parts them, which puts its left sums on the kink of the
    polygon the no-gain test bounds over; with a "light" second group (1-3
    rows, under MIN_CHILD_WEIGHT) it takes the group and just enough other
    rows, near the vertex at HL = H - MIN_CHILD_WEIGHT.  The best gain is
    below 0 at r = 1 and grows with r, so bisecting r to the ulp finds nodes
    whose best gain is a few ulps above 0: the test must not prune them, and
    only the margin tau covers the search's rounding there."""
    cases = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4 if group == "heavy" else 20, 400))
        cut = rng.integers(1, n) if group == "heavy" else n - rng.integers(1, 4)
        h = rng.uniform(0.01, 0.25, size=n) * (20.0 if group == "heavy" else 1.0)
        second = np.arange(n) >= cut
        g_one = rng.uniform(0.1, 3.0) * h  # the gradients at ratio 1
        x = np.arange(n, dtype=np.float64)[:, None]

        def node(r):
            return _search_node(x, np.where(second, r, 1.0) * g_one, h)

        lo, hi = 1.0, 50.0  # the best gain is not above 0 at lo
        if not node(hi)[1] > 0.0:
            continue
        while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
            lo, hi = (lo, mid) if node(mid)[1] > 0.0 else (mid, hi)
        parent = g_one.sum() ** 2 / (h.sum() + gbt.REG_LAMBDA)  # G^2 / (H + lambda) at r = 1
        for r in hi + np.arange(8) * math.ulp(hi):  # the crossing and 7 ulps above it
            cannot, gain = node(r)
            if gain > 0.0:
                assert gain < 8 * 2.0**-52 * parent and not cannot, (seed, r)
                cases += 1
    assert cases >= 600


@pytest.mark.seed11
def test_default_train_skips_the_nodes_that_cannot_gain(monkeypatch):
    """The default config on the seed-11 survey features at k = 24: of the
    191 nodes the search used to visit, 78 are pruned without one."""
    samples = generate_synthetic(11)
    fm = build_features(samples, rank_params(samples), 24)
    calls = []
    search = gbt._best_split
    monkeypatch.setattr(gbt, "_best_split", lambda *a: calls.append(1) or search(*a))
    train(fm.x, fm.labels)
    assert len(calls) == 113


@pytest.mark.seed11
def test_work_counts_of_the_seed_11_k_search(monkeypatch):
    """Exact work of one `optimal_k_search` with the library defaults on the
    seed-11 survey: unlike a timing, no host noise moves these counts, and
    a change that claims less work moves them."""
    samples = generate_synthetic(11)
    counts = {"searches": 0, "elements": 0, "bounds": 0}
    search, bound = gbt._best_split, gbt._cannot_gain

    def counted_search(gh, g_sum, h_sum, rows, xs):
        counts["searches"] += 1
        counts["elements"] += rows.size  # (feature, row) pairs scanned
        return search(gh, g_sum, h_sum, rows, xs)

    def counted_bound(*args):
        counts["bounds"] += 1
        return bound(*args)

    monkeypatch.setattr(gbt, "_best_split", counted_search)
    monkeypatch.setattr(gbt, "_cannot_gain", counted_bound)
    result = optimal_k_search(samples, rank_params(samples))
    assert counts == {"searches": 2047, "elements": 12_361_656, "bounds": 2230}
    assert result.best_k == 30


@pytest.mark.seed11
def test_work_counts_of_predicting_the_seed_11_rows():
    """Exact work of predicting the 376 training rows with the seed-11 model
    of `train --k 24`, counted by a walk on the test side."""
    samples = generate_synthetic(11)
    fm = build_features(samples, rank_params(samples), 24)
    model = train(fm.x, fm.labels)
    # the trees of the rounds with a split, by depth: 21 of them are leaves
    in_split_rounds = [t for r in model.trees if any(t.feature[0] >= 0 for t in r) for t in r]
    assert len(in_split_rounds) == 84
    assert np.bincount([_depth(tree) for tree in in_split_rounds]).tolist() == [21, 30, 31, 1, 1]
    steps = 0  # internal nodes passed on the way to the leaves
    rights = [_right(tree) for tree in in_split_rounds]
    for row in fm.x.tolist():
        for tree, right in zip(in_split_rounds, rights):
            i = 0
            while tree.feature[i] >= 0:
                steps += 1
                i = i + 1 if row[tree.feature[i]] < tree.value[i] else right[i]
    assert steps == 28_859
    # the walk starts the 63 trees that split and steps the pairs of the
    # trees still deeper than each level, a step on a leaf included
    forest = model._forest
    assert forest.roots.size == 63 and forest.deeper.tolist() == [63, 33, 2, 1]
    assert len(fm.x) * sum(forest.deeper.tolist()) == 376 * 99 == 37_224


def _oracle_logits(model, x):
    """Plain per-row walk over the tree arrays, adding leaf values in
    round, then class order."""
    out = []
    trees = [(c, t, _right(t)) for round_trees in model.trees for c, t in enumerate(round_trees)]
    for row in x.tolist():
        logits = [gbt.BASE_SCORE] * len(CLASS_ORDER)
        for c, tree, right in trees:
            i = 0
            while tree.feature[i] >= 0:
                below = row[tree.feature[i]] < tree.value[i]
                i = i + 1 if below else right[i]
            logits[c] += float(tree.value[i])
        out.append(logits)
    return out


def test_predict_logits_matches_per_row_walk():
    split = []

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 120),
        d=st.integers(1, 5),
        rounds=st.integers(1, 6),
        max_depth=st.integers(1, 4),
        discrete=st.booleans(),
    )
    def check(seed, n, d, rounds, max_depth, discrete):
        rng = np.random.default_rng(seed)
        if discrete:  # ties between rows and thresholds on the training grid
            x = rng.integers(0, 4, size=(n + 10, d)).astype(np.float64)
        else:
            x = rng.normal(size=(n + 10, d))
        y = [CLASS_ORDER[i % 3] for i in range(n)]
        model = train(x[:n], y, GbtConfig(rounds=rounds, max_depth=max_depth), seed=seed)
        got = predict_logits(model, x)
        assert repr(got.tolist()) == repr(_oracle_logits(model, x))
        split.append(_split_share(model))

    check()
    assert np.mean(split) >= 0.25, np.mean(split)  # 0.41-0.48 in four runs


# n straddles the 128-row blocks that are walked and summed.  Trained on a
# few separable rows, about a third of the models have a single-leaf round
# before a round with a split; random models put single-leaf rounds anywhere.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 127, 128, 129, 257, 700]),
    d=st.integers(1, 4),
    rounds=st.integers(1, 20),
    source=st.sampled_from(["trained", "random"]),
)
def test_predict_logits_sums_rounds_in_order(seed, n, d, rounds, source):
    rng = np.random.default_rng(seed)
    if source == "trained":
        m = int(rng.integers(8, 30))
        y = rng.integers(0, 3, size=m)
        y[:2] = [0, 1]
        x = rng.normal(size=(m, d))
        x[:, 0] += 3.0 * y
        model = train(x, _labels(y), GbtConfig(rounds=rounds, max_depth=3))
        rows = rng.normal(scale=3.0, size=(n, d))
    else:
        model = _random_model(rng, d, rounds, 3)
        rows = _sample_rows(rng, "grid", n, d)
    got = predict_logits(model, rows)
    assert repr(got.tolist()) == repr(_oracle_logits(model, rows))


def _leaf_values(tree, x, rows):
    """The leaf value each row of `x` reaches, one level of all rows per step;
    `rows` is `np.arange(len(x))`.  The per-tree walk prediction used before
    the flat forest."""
    if tree.feature[0] < 0:  # a single leaf
        return tree.value[0]
    node = np.zeros(rows.size, dtype=np.intp)
    feat = tree.feature[node]
    right = _right(tree)
    while (internal := feat >= 0).any():
        go_left = x[rows, feat] < tree.value[node]
        child = np.where(go_left, node + 1, right[node])
        node = np.where(internal, child, node)
        feat = tree.feature[node]
    return tree.value[node]


def _per_tree_logits(model, x):
    """Reference: one tree at a time over all rows, in round, then class
    order."""
    logits = np.full((x.shape[0], len(CLASS_ORDER)), gbt.BASE_SCORE)
    rows = np.arange(x.shape[0])
    for round_trees in model.trees:
        for c, tree in enumerate(round_trees):
            logits[:, c] += _leaf_values(tree, x, rows)
    return logits


def _model_of(trees, config, n_features):
    """A `GbtModel` of the [round][class] `trees`, their node arrays
    concatenated."""
    flat = [tree for round_trees in trees for tree in round_trees]
    arrays = [np.concatenate([getattr(t, name) for t in flat]) for name in gbt.NODE_ARRAYS]
    return GbtModel(config, n_features, *arrays)


def _base_score_model(n_features):
    """One round of weight-0 leaves, the least model: every logit is the
    base score."""
    leaf = Tree(np.array([-1]), np.array([0.0]))
    return _model_of([[leaf] * len(CLASS_ORDER)], GbtConfig(rounds=1), n_features)


def _sample_rows(rng, kind, n, d):
    if kind == "normal":
        return rng.normal(size=(n, d))
    if kind == "grid":  # values on the thresholds' grid, with -0.0
        x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        x[rng.random(size=(n, d)) < 0.2] = -0.0
        return x
    return np.zeros((n, d))  # "constant": training grows single leaves only


def _grown_tree(rng, d, max_depth, spine=False):
    """A tree of random shape up to `max_depth`, thresholds on the grid of
    `_sample_rows`, leaf values spread over five decades so that adding them
    in another order changes the sum, and each node's right child (-1 at a
    leaf), recorded as the tree grows.  With `spine`, the path of left
    children splits all the way down, so the tree is `max_depth` deep."""
    nodes, right = [], []

    def grow(depth, spine):
        node = len(nodes)
        right.append(-1)
        if depth < max_depth and (spine or rng.random() < 0.6):
            feature = int(rng.integers(0, d))
            threshold = float(rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0]))
            nodes.append((feature, threshold))
            grow(depth + 1, spine)  # the left child, node + 1
            right[node] = len(nodes)
            grow(depth + 1, False)
        else:
            nodes.append((-1, float(rng.normal() * 10.0 ** rng.integers(-2, 3))))

    grow(0, spine)
    feature, value = zip(*nodes)
    return Tree(np.array(feature, dtype=np.int64), np.array(value, dtype=np.float64)), right


def _random_tree(rng, d, max_depth, spine=False):
    return _grown_tree(rng, d, max_depth, spine)[0]


def _random_model(rng, d, rounds, max_depth):
    """Rounds of single leaves only, in any order among rounds with splits."""
    trees = []
    for _ in range(rounds):
        depth = 0 if rng.random() < 0.4 else max_depth
        trees.append([_random_tree(rng, d, depth) for _ in CLASS_ORDER])
    return _model_of(trees, GbtConfig(rounds=rounds, max_depth=max_depth), d)


def _one_deep_model(rng, d, rounds, max_depth):
    """Trees of depth 0 or 1 but one, anywhere, that is `max_depth` deep: the
    walk's levels below 1 walk that tree alone."""
    trees = [[_random_tree(rng, d, 1) for _ in CLASS_ORDER] for _ in range(rounds)]
    r, c = int(rng.integers(rounds)), int(rng.integers(len(CLASS_ORDER)))
    trees[r][c] = _random_tree(rng, d, max_depth, spine=True)
    return _model_of(trees, GbtConfig(rounds=rounds, max_depth=max_depth), d)


_MODEL_SOURCES = {"random": _random_model, "one deep": _one_deep_model}


def test_flat_forest_matches_per_tree_walk(tmp_path_factory):
    # n straddles the row block of the flat-forest walk (128 rows); d starts
    # at 2, the least k a model file may hold
    split = []

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 127, 128, 129, 257, 700]),
        d=st.integers(2, 6),
        rounds=st.integers(1, 6),
        max_depth=st.integers(1, 9),
        source=st.sampled_from(["trained", *_MODEL_SOURCES]),
        kind=st.sampled_from(["normal", "grid", "constant"]),
    )
    def check(seed, n, d, rounds, max_depth, source, kind):
        rng = np.random.default_rng(seed)
        if source == "trained":
            y = rng.integers(0, len(CLASS_ORDER), size=160)
            y[:2] = [0, 1]
            cfg = GbtConfig(rounds=rounds, max_depth=max_depth)
            built = train(_sample_rows(rng, kind, 160, d), _labels(y), cfg, seed=seed)
            if kind != "constant":
                split.append(_split_share(built))
        else:
            built = _MODEL_SOURCES[source](rng, d, rounds, max_depth)
        path = tmp_path_factory.mktemp("forest") / "model.json"
        save_model(path, ModelBundle(built, CANONICAL_RANK_ORDER, d))
        model = load_model(path).model
        if source == "trained" and kind == "constant":
            assert all(tree.feature.tolist() == [-1] for r in model.trees for tree in r)
        if source == "one deep":
            assert model._forest.deeper.tolist()[1:] == [1] * (max_depth - 1)

        x = _sample_rows(rng, kind, n, d)
        got = predict_logits(model, x)
        assert got.flags.c_contiguous
        assert got.tobytes() == _per_tree_logits(model, x).tobytes()
        assert got.tobytes() == predict_logits(built, x).tobytes()
        if n <= 257:
            assert repr(got.tolist()) == repr(_oracle_logits(model, x))

    check()
    assert np.mean(split) >= 0.8, np.mean(split)  # 1.0 in four runs


def _no_split_model(rng, d, rounds, max_depth):
    """Single leaves of random values only: no tree is walked."""
    trees = [[_random_tree(rng, d, 0) for _ in CLASS_ORDER] for _ in range(rounds)]
    return _model_of(trees, GbtConfig(rounds=rounds, max_depth=max_depth), d)


def _threshold_rows(rng, model, n):
    """Rows whose values are the model's thresholds, 0.0 or -0.0, so that
    many land exactly on the threshold they are tested against."""
    grid = np.concatenate([model.value[model.feature >= 0], [0.0, -0.0]])
    return rng.choice(grid, size=(n, model.n_features))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    d=st.integers(1, 6),
    rounds=st.integers(1, 8),
    max_depth=st.integers(1, 9),
    source=st.sampled_from(["trained", "no split", *_MODEL_SOURCES]),
    kind=st.sampled_from(["normal", "grid", "constant", "thresholds"]),
)
def test_one_row_prediction_has_the_batch_bits(seed, n, d, rounds, max_depth, source, kind):
    # a row alone takes the Python walk, the same row among n >= 2 the
    # flat-forest walk; both must give every bit of the row's logits
    rng = np.random.default_rng(seed)
    if source == "trained":
        y = rng.integers(0, len(CLASS_ORDER), size=80)
        y[:2] = [0, 1]
        cfg = GbtConfig(rounds=rounds, max_depth=max_depth)
        model = train(_sample_rows(rng, "grid" if kind == "thresholds" else kind, 80, d), _labels(y), cfg)
    else:
        sources = {**_MODEL_SOURCES, "no split": _no_split_model}
        model = sources[source](rng, d, rounds, max_depth)
    if source == "no split":
        assert model._forest.roots.size == 0
    x = _threshold_rows(rng, model, n) if kind == "thresholds" else _sample_rows(rng, kind, n, d)
    logits, proba, labels = (f(model, x) for f in (predict_logits, predict_proba_many, predict_many))
    for i in range(n):
        one = x[i : i + 1]
        got = predict_logits(model, one)
        assert got.flags.c_contiguous and got.shape == (1, len(CLASS_ORDER))
        assert got.tobytes() == logits[i : i + 1].tobytes()
        assert predict_proba_many(model, one).tobytes() == proba[i : i + 1].tobytes()
        assert predict_many(model, one) == labels[i : i + 1]


def test_the_seed_11_rows_one_at_a_time_get_the_batch_bits():
    samples = generate_synthetic(11)
    fm = build_features(samples, rank_params(samples), 24)
    model = train(fm.x, fm.labels)  # the model of `train --k 24`
    logits, proba, labels = (f(model, fm.x) for f in (predict_logits, predict_proba_many, predict_many))
    one = [x[None] for x in fm.x]
    assert b"".join(predict_logits(model, x).tobytes() for x in one) == logits.tobytes()
    assert b"".join(predict_proba_many(model, x).tobytes() for x in one) == proba.tobytes()
    assert [predict_many(model, x)[0] for x in one] == labels


def test_a_5000_deep_tree_is_walked_without_recursion(tmp_path):
    # one round whose class-0 tree is a chain of 5000 splits, each one's
    # right child a leaf and its left child the next split, thresholds
    # falling, so a row's first value sets how deep it goes; deeper than
    # the recursion limit, so a recursive table build or walk would fail
    depth, d = 5000, 3
    rng = np.random.default_rng(5000)
    feature = np.array([0] * depth + [-1] * (depth + 1))
    thresholds = np.arange(depth, 0, -1, dtype=np.float64)
    leaves = rng.normal(size=depth + 1) * 10.0 ** rng.integers(-2, 3, size=depth + 1)
    chain = Tree(feature, np.concatenate([thresholds, leaves]))
    trees = [[chain] + [Tree(np.array([-1]), np.array([rng.normal()]))] * (len(CLASS_ORDER) - 1)]
    built = _model_of(trees, GbtConfig(rounds=1, max_depth=depth), d)
    path = tmp_path / "model.json"
    save_model(path, ModelBundle(built, CANONICAL_RANK_ORDER, d))
    loaded = load_model(path).model
    x = rng.normal(size=(40, d))
    # every depth band, values on the thresholds and one ulp below them
    x[:, 0] = rng.choice(np.concatenate([[0.0, -0.0, 0.5, depth + 1.0], thresholds]), size=40)
    x[::3, 0] = np.nextafter(x[::3, 0], -np.inf)
    for model in (built, loaded):
        assert model._forest.deeper.size == depth and model._forest.roots.size == 1
        logits = predict_logits(model, x)
        for i in range(x.shape[0]):
            assert predict_logits(model, x[i : i + 1]).tobytes() == logits[i : i + 1].tobytes()


def _right(tree):
    """Each node's right child in one preorder `Tree` (-1 at a leaf), by a
    recursive-descent parse: a split's left subtree starts right after it,
    and its right child right after that subtree."""
    right = np.full(tree.feature.size, -1)

    def parse(i):  # the node after the subtree at i
        if tree.feature[i] < 0:
            return i + 1
        right[i] = parse(i + 1)
        return parse(right[i])

    assert parse(0) == tree.feature.size  # one whole tree
    return right


def _depth(tree, i=0, right=None):
    """The depth of the subtree of `tree` at node i, read recursively."""
    if tree.feature[i] < 0:
        return 0
    right = _right(tree) if right is None else right
    return 1 + max(_depth(tree, i + 1, right), _depth(tree, right[i], right))


def _split_share(model):
    """The share of `model`'s trees whose root splits."""
    return np.mean([tree.feature[0] >= 0 for round_trees in model.trees for tree in round_trees])


def _nested(tree, i, right):
    """The subtree of `tree` at node i as the one-row walk reads it: a leaf
    as its float, a split as (feature, value, left, right), read recursively."""
    if tree.feature[i] < 0:
        return float(tree.value[i])
    children = _nested(tree, i + 1, right), _nested(tree, right[i], right)
    return int(tree.feature[i]), float(tree.value[i]), *children


def _preorder(walked):
    """The features (-1 at a leaf) and values of a nested walk tree in
    preorder, read with a stack."""
    features, values, stack = [], [], [walked]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            features.append(node[0])
            values.append(node[1])
            stack += [node[3], node[2]]
        else:
            features.append(-1)
            values.append(node)
    return features, values


def _flatten_per_tree(model):
    """Reference: the walk's tables read node by node from the `trees`
    views, each root value as a numpy scalar, and the trees that split
    sorted by depth, deepest first, ties in round, then class order."""
    starts, child, walked, start = [], [], [], 0
    terms = [[gbt.BASE_SCORE] * len(CLASS_ORDER)]
    for r, round_trees in enumerate(model.trees):
        terms.append([tree.value[0] for tree in round_trees])
        for c, tree in enumerate(round_trees):
            starts.append(start)
            right = _right(tree)
            if depth := _depth(tree, 0, right):
                walked.append((depth, start, (r + 1) * len(CLASS_ORDER) + c, _nested(tree, 0, right)))
            for i in range(tree.feature.size):
                if tree.feature[i] >= 0:
                    child += [start + i + 1, start + right[i]]
                else:  # a leaf is its own child
                    child += [start + i, start + i]
            start += tree.feature.size
    walked.sort(key=lambda tree: -tree[0])  # a stable sort
    depths = [tree[0] for tree in walked]
    deeper = [sum(depth > level for depth in depths) for level in range(max(depths, default=0))]
    index = [np.array(a, dtype=np.intp) for a in (starts, child, deeper)]
    roots, slot = (np.array([t[i] for t in walked], dtype=np.intp) for i in (1, 2))
    return _Forest(
        starts=index[0],
        child=index[1],
        roots=roots,
        deeper=index[2],
        slot=slot,
        terms=np.array(terms, dtype=np.float64),
        walk=[t[3] for t in walked],
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    rounds=st.integers(1, 8),
    max_depth=st.integers(1, 9),
    source=st.sampled_from(["trained", *_MODEL_SOURCES]),
    kind=st.sampled_from(["normal", "grid", "constant"]),
)
def test_flatten_matches_per_tree_construction(
    seed, d, rounds, max_depth, source, kind
):
    rng = np.random.default_rng(seed)
    if source == "trained":
        y = rng.integers(0, len(CLASS_ORDER), size=80)
        y[:2] = [0, 1]
        cfg = GbtConfig(rounds=rounds, max_depth=max_depth)
        model = train(_sample_rows(rng, kind, 80, d), _labels(y), cfg)
    else:
        model = _MODEL_SOURCES[source](rng, d, rounds, max_depth)
    got = _flatten(model)
    want = _flatten_per_tree(model)
    assert got.roots.size == np.count_nonzero(model.feature[got.starts] >= 0)  # the trees that split
    for a, b in zip(got[:-1], want[:-1], strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.walk == want.walk
    # Python ints and floats, -0.0 kept: each walked tree read back in
    # preorder is its slice of the node arrays, bit for bit
    for walked, root in zip(got.walk, got.roots.tolist(), strict=True):
        features, values = _preorder(walked)
        assert {type(f) for f in features} == {int} and {type(v) for v in values} == {float}
        assert features == model.feature[root : root + len(features)].tolist()
        assert np.array(values).tobytes() == model.value[root : root + len(values)].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 20),
    max_depth=st.integers(0, 9),
)
def test_tree_starts_and_child_links_are_derived_from_the_leaf_marks(seed, n_trees, max_depth):
    # the links `_flatten` derives from `feature` alone are those the
    # random grower recorded; the node list is the preorders one after another
    rng = np.random.default_rng(seed)
    grown = [
        _grown_tree(rng, 3, int(rng.integers(0, max_depth + 1)), spine=rng.random() < 0.3)
        for _ in range(n_trees)
    ]
    trees = [tree for tree, _ in grown]
    starts = np.cumsum([0] + [tree.feature.size for tree in trees])[:-1]
    child = [
        [start + i + 1, start + r] if r >= 0 else [start + i] * 2
        for start, (_, right) in zip(starts.tolist(), grown)
        for i, r in enumerate(right)
    ]
    feature, value = (np.concatenate(column) for column in zip(*trees))
    for tree, right in grown:
        assert _right(tree).tolist() == right
    # as `n_trees` rounds of one tree each: only the count per round is fixed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbt, "N_CLASSES", 1)
        model = GbtModel(GbtConfig(rounds=n_trees), 3, feature, value)
        assert model._forest.starts.tolist() == starts.tolist()
        assert model._forest.child.reshape(-1, 2).tolist() == child
        # one node short or one leaf more: no longer n_trees whole trees
        cases = [
            (feature[:-1], n_trees - 1, trees[-1].feature.size > 1),  # part of the last tree left
            (np.append(feature, -1), n_trees + 1, False),
        ]
        for nodes, whole, part in cases:
            message = f"the model has {whole} trees{', then part of one' if part else ''}"
            with pytest.raises(ValueError, match=f"^{message}, not {n_trees} rounds of 1$"):
                GbtModel(GbtConfig(rounds=n_trees), 3, nodes, np.zeros(nodes.size))


def test_trees_are_views_of_the_node_arrays():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 4))
    y = [CLASS_ORDER[i % 6] for i in range(60)]
    cfg = GbtConfig(rounds=12, max_depth=3)
    model = train(x, y, cfg)
    # no per-tree arrays: the model's arrays are the two node arrays and the
    # walk's six derived tables, beside the one-row walk's nested trees
    assert tuple(gbt.NODE_ARRAYS) == Tree._fields == ("feature", "value")
    assert [f.name for f in dataclasses.fields(GbtModel) if f.init] == [
        "config", "n_features", "feature", "value", "seed"]
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2 and all(isinstance(v, np.ndarray) for v in model._forest[:-1])
    assert _Forest._fields == (
        "starts", "child", "roots", "deeper", "slot", "terms", "walk")
    # only the trees that split are walked
    forest = model._forest
    assert len(forest.walk) == forest.roots.size == np.count_nonzero(model.feature[forest.starts] >= 0)
    assert not any(isinstance(v, list) for v in vars(model).values())
    assert model._forest.starts.size == cfg.rounds * len(CLASS_ORDER)
    trees = model.trees
    assert [len(r) for r in trees] == [len(CLASS_ORDER)] * cfg.rounds
    for name, (_, _, dtype) in gbt.NODE_ARRAYS.items():
        flat = getattr(model, name)
        assert flat.dtype == dtype and not flat.flags.writeable
        parts = [getattr(tree, name) for r in trees for tree in r]
        assert all(np.shares_memory(part, flat) for part in parts if part.size)
        assert np.concatenate(parts).tobytes() == flat.tobytes()
    with pytest.raises(ValueError):
        model.value[0] = 1.0


@pytest.mark.parametrize("n", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("base_score", [None, 0, 1, 3])  # None: BASE_SCORE as it is
def test_zero_tree_model_predicts_base_score(n, base_score, monkeypatch):
    # the walk takes its first term from gbt.BASE_SCORE, whatever that is;
    # a model holds at least one round, here of weight-0 leaves
    if base_score is not None:
        monkeypatch.setattr(gbt, "BASE_SCORE", float(base_score))
    model = _base_score_model(3)
    x = np.random.default_rng(n).normal(size=(n, 3))
    got = predict_logits(model, x)
    assert got.tobytes() == np.full((n, len(CLASS_ORDER)), gbt.BASE_SCORE).tobytes()
    assert got.tobytes() == _per_tree_logits(model, x).tobytes()


@pytest.mark.seed11
def test_golden_logits_digest():
    samples = generate_synthetic(11)
    fm = build_features(samples, rank_params(samples), 24)
    model = train(fm.x, fm.labels, seed=11)
    text = repr(predict_logits(model, fm.x).tolist())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ef58380ab75cf867261e0fbe4ea79362123f1aa866a7d0cba69877a3532ae3d8"
    )
