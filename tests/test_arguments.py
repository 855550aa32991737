"""The package's argument rules, each written once in `dgadiag.core`.

Every public entry point that takes an integer, an RNG seed or class labels
refuses a bad one with a ValueError naming it, and a numpy integer gives
the bits of the same int.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgadiag
from dgadiag.evaluation import confusion, kfold_cv, smote, stratified_folds, train_test_split
from dgadiag.features import build_features, optimal_k_search
from dgadiag.gbt import GbtConfig, train
from dgadiag.io import ModelBundle, generate_synthetic
from dgadiag.ranking import CANONICAL_RANK_ORDER

SAMPLES = generate_synthetic(5, counts=(4,) * 6)  # four of each class, in class order
X = build_features(SAMPLES, CANONICAL_RANK_ORDER, 18).x
Y = [s.label for s in SAMPLES]
CONFIG = GbtConfig(rounds=2, max_depth=2)
MODEL = train(X, Y, CONFIG)

# id -> (call taking the value, the name its refusal gives, a good value,
# whether it seeds an RNG and so must also be non-negative)
INTEGERS = {
    "generate_synthetic seed": (lambda v: generate_synthetic(v, (2,) * 6), "seed", 3, True),
    "generate_synthetic counts": (
        lambda v: generate_synthetic(0, (2, 2, v, 2, 2, 2)), "D2 count", 2, False),
    "train_test_split n": (lambda v: train_test_split(v, 0.5, 0), "n", 10, False),
    "train_test_split seed": (lambda v: train_test_split(10, 0.5, v), "seed", 3, True),
    "smote seed": (lambda v: smote(X[:6], Y[:6], seed=v), "seed", 3, True),  # 4 PD, 2 D1
    "stratified_folds folds": (lambda v: stratified_folds(Y, v, 0), "folds", 2, False),
    "stratified_folds seed": (lambda v: stratified_folds(Y, 2, v), "seed", 3, True),
    "kfold_cv k": (
        lambda v: kfold_cv(SAMPLES, CANONICAL_RANK_ORDER, v, 2, config=CONFIG), "k", 18, False),
    "kfold_cv folds": (
        lambda v: kfold_cv(SAMPLES, CANONICAL_RANK_ORDER, 18, v, config=CONFIG), "folds", 2, False),
    "kfold_cv seed": (  # the SMOTE seed of each fold is derived from it
        lambda v: kfold_cv(SAMPLES, CANONICAL_RANK_ORDER, 18, 2, v, True, CONFIG), "seed", 3, True),
    "optimal_k_search k_min": (
        lambda v: optimal_k_search(SAMPLES, CANONICAL_RANK_ORDER, v, 19, config=CONFIG),
        "k_min", 18, False),
    "optimal_k_search k_max": (
        lambda v: optimal_k_search(SAMPLES, CANONICAL_RANK_ORDER, 18, v, config=CONFIG),
        "k_max", 19, False),
    "optimal_k_search split_seed": (
        lambda v: optimal_k_search(SAMPLES, CANONICAL_RANK_ORDER, 18, 19, v, config=CONFIG),
        "seed", 3, True),
    "build_features k": (lambda v: build_features(SAMPLES, CANONICAL_RANK_ORDER, v), "k", 18, False),
    "train seed": (lambda v: train(X, Y, CONFIG, seed=v), "seed", 3, False),
    "GbtConfig rounds": (lambda v: GbtConfig(rounds=v), "rounds", 2, False),
    "GbtConfig max_depth": (lambda v: GbtConfig(max_depth=v), "max_depth", 2, False),
    "GbtModel seed": (lambda v: dataclasses.replace(MODEL, seed=v), "seed", 3, False),
    "ModelBundle k": (lambda v: ModelBundle(MODEL, CANONICAL_RANK_ORDER, v), "k", 18, False),
    "ModelBundle rank_order": (
        lambda v: ModelBundle(MODEL, (v, *CANONICAL_RANK_ORDER[1:]), 18),
        "rank order entry", CANONICAL_RANK_ORDER[0], False),
}

# id -> call taking a list of labels of the first rows of SAMPLES
LABELS = {
    "train y": lambda y: train(X[: len(y)], y, CONFIG),
    "confusion actual": lambda y: confusion(y, Y[: len(y)]),
    "confusion predicted": lambda y: confusion(Y[: len(y)], y),
    "smote labels": lambda y: smote(X[: len(y)], y),
    "stratified_folds labels": lambda y: stratified_folds(y, 2, 0),
}


def _refusals():
    for row, (call, name, _, seeds) in INTEGERS.items():
        for bad in (2.5, True, None, "3", -1) if seeds else (2.5, True, None, "3"):
            must = "a non-negative integer" if bad == -1 else "an integer"
            yield pytest.param(call, bad, f"{name} must be {must}, got {bad!r}", id=f"{row}={bad!r}")
    for row, call in LABELS.items():
        for bad in (None, "PD", 0):  # an unlabeled sample, a label's text, a class index
            labels = Y[:8]  # four PD, four D1
            labels[5] = bad
            message = f"label {bad!r} is not a FaultLabel: samples must be labeled"
            yield pytest.param(call, labels, message, id=f"{row} holding {bad!r}")


@pytest.mark.parametrize("call, bad, message", _refusals())
def test_a_bad_argument_is_refused_by_name(call, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def _bits(value):
    """`value` as nested tuples of type names, numbers and bytes: two values
    map to equal tuples when they are equal bit for bit and type for type."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__, *(_bits(getattr(value, f.name)) for f in fields))
    if isinstance(value, dict):
        return ("dict", *((_bits(k), _bits(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(_bits, value))
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    return (type(value).__name__, value)


@pytest.mark.parametrize("call, good", [(row[0], row[2]) for row in INTEGERS.values()],
                         ids=INTEGERS.keys())
def test_a_numpy_integer_gives_the_bits_of_the_int(call, good):
    assert _bits(call(np.int64(good))) == _bits(call(good))


@pytest.mark.parametrize("call", [row[0] for row in INTEGERS.values() if row[3]],
                         ids=[name for name, row in INTEGERS.items() if row[3]])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), numpy_type=st.sampled_from([np.int64, np.uint64]))
def test_any_seed_as_a_numpy_integer_gives_the_bits_of_the_int(call, seed, numpy_type):
    assert _bits(call(numpy_type(seed))) == _bits(call(seed))


def test_only_core_writes_the_integer_and_seed_rules():
    # a second copy of either rule is how the copies came to disagree
    sources = Path(dgadiag.__file__).parent.glob("*.py")
    writers = {
        (path.name, rule)
        for path in sources
        for rule in ("numbers.Integral", "default_rng(")
        if rule in path.read_text(encoding="utf-8")
    }
    assert writers == {("core.py", "numbers.Integral"), ("core.py", "default_rng(")}
