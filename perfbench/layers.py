"""Per-layer metrics derived from the spans of one traced pass.

Layers are the modules of the dgadiag package that sit on a timed path.
`special` and `reference` are off every timed path and are not traced.
"""

from __future__ import annotations

import os

from spans import self_times

LAYERS = ("io", "core", "ranking", "itd", "features", "gbt", "evaluation", "conventional", "cli")
RULES = ("conventional.duval", "conventional.duval_coords", "conventional.rogers", "conventional.iec_ratio")
RULE_ENTRY_POINTS = ("conventional.duval", "conventional.rogers", "conventional.iec_ratio")

# name -> (unit, better); the order is the report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "gbt.train.calls": ("count", "lower"),
    "gbt.train.s": ("s", "lower"),
    "gbt.train.trees": ("count", "lower"),
    "gbt.train.nodes": ("count", "lower"),
    "gbt.train.split_tree_ratio": ("ratio", "higher"),
    "gbt.predict_many.calls": ("count", "lower"),
    "gbt.predict_many.rows": ("count", "lower"),
    "gbt.predict_many.s": ("s", "lower"),
    "features.build_features.calls": ("count", "lower"),
    "features.build_features.rows": ("count", "lower"),
    "features.build_features.self_s": ("s", "lower"),
    "itd.itd_single_stage.calls": ("count", "lower"),
    "itd.itd_single_stage.self_s": ("s", "lower"),
    "itd.find_extrema.self_s": ("s", "lower"),
    "core.param_vector.calls": ("count", "lower"),
    "core.param_vector.self_s": ("s", "lower"),
    "io.load_dataset.s": ("s", "lower"),
    "io.load_dataset.rows": ("count", "lower"),
    "io.save_model.s": ("s", "lower"),
    "io.save_model.bytes": ("bytes", "lower"),
    "io.load_model.s": ("s", "lower"),
    "ranking.rank_params.s": ("s", "lower"),
    "evaluation.kfold_cv.s": ("s", "lower"),
    "evaluation.smote.s": ("s", "lower"),
    "evaluation.smote.rows_added": ("count", "lower"),
    "evaluation.train_test_split.s": ("s", "lower"),
    "conventional.rules.calls": ("count", "lower"),
    "conventional.rules.self_s": ("s", "lower"),
    "conventional.rules.failed": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS if layer != "cli"},
    "error_rate": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
}

# Values that are counts of work: they must repeat exactly for the same input.
EXACT = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes")
) + ("gbt.train.split_tree_ratio",)


def _tree_stats(tree) -> tuple[int, bool]:
    """(node count, has a split) of one tree.

    Handles a tree of linked nodes (`left`/`right` attributes, None at a
    leaf) and a flat tree whose `feature` array marks leaves with a negative
    index, so the count survives a change of the in-memory tree format.
    """
    feature = getattr(tree, "feature", None)
    if hasattr(feature, "__len__"):
        return len(feature), any(f >= 0 for f in feature)
    nodes, stack = 0, [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.left is not None:
            stack += [node.left, node.right]
    return nodes, nodes > 1


def _count_train(args, kwargs, model) -> dict:
    trees = nodes = split_trees = 0
    for round_trees in model.trees:
        for tree in round_trees:
            n, split = _tree_stats(tree)
            trees += 1
            nodes += n
            split_trees += split
    return {"trees": trees, "nodes": nodes, "split_trees": split_trees}


COUNTERS = {
    "gbt.train": _count_train,
    "gbt.predict_many": lambda args, kwargs, result: {"rows": len(result)},
    "features.build_features": lambda args, kwargs, result: {"rows": int(result.x.shape[0])},
    "io.load_dataset": lambda args, kwargs, result: {"rows": len(result)},
    "io.save_model": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
    "evaluation.smote": lambda args, kwargs, result: {"rows_added": len(result[1]) - len(args[1])},
}


def pass_metrics(spans: list[list], first: int, last: int, wall_ns: int) -> dict[str, float]:
    """Per-layer totals for the spans of one traced pass, spans[first:last]."""
    own = self_times(spans, first, last)
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    failed: dict[str, int] = {}
    counts: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    covered = 0
    for i in range(first, last):
        name, t0, t1, parent, fail, extra = spans[i]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + t1 - t0
        self_ns[name] = self_ns.get(name, 0) + own[i - first]
        failed[name] = failed.get(name, 0) + fail
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[i - first]
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if parent < first:
            covered += t1 - t0

    def s(ns: int) -> float:
        return ns / 1e9

    trees = counts.get("gbt.train.trees", 0)
    m = {
        "gbt.train.calls": calls.get("gbt.train", 0),
        "gbt.train.s": s(total_ns.get("gbt.train", 0)),
        "gbt.train.trees": trees,
        "gbt.train.nodes": counts.get("gbt.train.nodes", 0),
        "gbt.train.split_tree_ratio": counts.get("gbt.train.split_trees", 0) / trees if trees else 0.0,
        "gbt.predict_many.calls": calls.get("gbt.predict_many", 0),
        "gbt.predict_many.rows": counts.get("gbt.predict_many.rows", 0),
        "gbt.predict_many.s": s(total_ns.get("gbt.predict_many", 0)),
        "features.build_features.calls": calls.get("features.build_features", 0),
        "features.build_features.rows": counts.get("features.build_features.rows", 0),
        "features.build_features.self_s": s(self_ns.get("features.build_features", 0)),
        "itd.itd_single_stage.calls": calls.get("itd.itd_single_stage", 0),
        "itd.itd_single_stage.self_s": s(self_ns.get("itd.itd_single_stage", 0)),
        "itd.find_extrema.self_s": s(self_ns.get("itd.find_extrema", 0)),
        "core.param_vector.calls": calls.get("core.param_vector", 0),
        "core.param_vector.self_s": s(self_ns.get("core.param_vector", 0)),
        "io.load_dataset.s": s(total_ns.get("io.load_dataset", 0)),
        "io.load_dataset.rows": counts.get("io.load_dataset.rows", 0),
        "io.save_model.s": s(total_ns.get("io.save_model", 0)),
        "io.save_model.bytes": counts.get("io.save_model.bytes", 0),
        "io.load_model.s": s(total_ns.get("io.load_model", 0)),
        "ranking.rank_params.s": s(total_ns.get("ranking.rank_params", 0)),
        "evaluation.kfold_cv.s": s(total_ns.get("evaluation.kfold_cv", 0)),
        "evaluation.smote.s": s(total_ns.get("evaluation.smote", 0)),
        "evaluation.smote.rows_added": counts.get("evaluation.smote.rows_added", 0),
        "evaluation.train_test_split.s": s(total_ns.get("evaluation.train_test_split", 0)),
        "conventional.rules.calls": sum(calls.get(n, 0) for n in RULE_ENTRY_POINTS),
        "conventional.rules.self_s": s(sum(self_ns.get(n, 0) for n in RULES)),
        "conventional.rules.failed": sum(failed.get(n, 0) for n in RULE_ENTRY_POINTS),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = s(layer_self.get(layer, 0))
    m["trace.uncovered_share"] = 1.0 - covered / wall_ns
    return m
