"""The package's argument rules, each written once in `dgadiag.core`.

Every public entry point that takes an integer, a real number, an RNG seed
or class labels refuses a bad one with a ValueError naming it, and a numpy
integer or float gives the bits of the same int or float.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgadiag
from dgadiag.cli import main
from dgadiag.core import GasSample
from dgadiag.evaluation import confusion, kfold_cv, smote, stratified_folds, train_test_split
from dgadiag.features import build_features, optimal_k_search
from dgadiag.gbt import GbtConfig, train
from dgadiag.io import ModelBundle, generate_synthetic, load_model, save_model, write_dataset
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
    "train seed": (lambda v: train(X, Y, CONFIG, seed=v), "seed", 3, True),
    "GbtConfig rounds": (lambda v: GbtConfig(rounds=v), "rounds", 2, False),
    "GbtConfig max_depth": (lambda v: GbtConfig(max_depth=v), "max_depth", 2, False),
    "GbtModel seed": (lambda v: dataclasses.replace(MODEL, seed=v), "seed", 3, True),
    "GbtModel n_features": (
        lambda v: dataclasses.replace(MODEL, n_features=v), "n_features", 18, False),
    "ModelBundle k": (lambda v: ModelBundle(MODEL, CANONICAL_RANK_ORDER, v), "k", 18, False),
    "ModelBundle rank_order": (
        lambda v: ModelBundle(MODEL, (v, *CANONICAL_RANK_ORDER[1:]), 18),
        "rank order entry", CANONICAL_RANK_ORDER[0], False),
}

# id -> (call taking the value, the name its refusal gives, a good value)
REALS = {
    "train_test_split train_frac": (lambda v: train_test_split(10, v, 0), "train_frac", 0.5),
    "optimal_k_search train_frac": (
        lambda v: optimal_k_search(SAMPLES, CANONICAL_RANK_ORDER, 18, 19, train_frac=v,
                                   config=CONFIG),
        "train_frac", 0.75),
    "GbtConfig learning_rate": (lambda v: GbtConfig(learning_rate=v), "learning_rate", 0.3),
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
    for text, bad in {"2**63": 2**63, "10**400": 10**400}.items():  # past numpy's largest index
        message = f"n must be at most {np.iinfo(np.intp).max}, numpy's largest index"
        yield pytest.param(INTEGERS["train_test_split n"][0], bad, message,
                           id=f"train_test_split n={text}")
    for bad in (0, -3):  # a row of no features once divided by zero in the walk
        yield pytest.param(INTEGERS["GbtModel n_features"][0], bad,
                           f"n_features must be >= 1, got {bad}", id=f"GbtModel n_features={bad}")
    for row, (call, name, _) in REALS.items():
        for bad in ("0.5", None, True):
            yield pytest.param(call, bad, f"{name} must be a number, got {bad!r}", id=f"{row}={bad!r}")
        message = f"{name} must be a number, got an integer too large for a float"
        yield pytest.param(call, 10**400, message, id=f"{row}=10**400")
    for row, call in LABELS.items():
        for bad in (None, "PD", 0):  # an unlabeled sample, a label's text, a class index
            labels = Y[:8]  # four PD, four D1
            labels[5] = bad
            message = f"label {bad!r} is not a FaultLabel: samples must be labeled"
            yield pytest.param(call, labels, message, id=f"{row} holding {bad!r}")
    for bad in ("PD", 0):  # a sample is built with a FaultLabel or None
        yield pytest.param(lambda v: GasSample(1, 2, 3, 4, 5, label=v), bad,
                           f"label {bad!r} is not a FaultLabel or None", id=f"GasSample label={bad!r}")
    for bad in ("5", None, True):  # a gas is a real number, as `_real` takes it
        yield pytest.param(lambda v: GasSample(1.0, 2.0, v, 4.0, 5.0), bad,
                           f"gas c2h6 must be a number, got {bad!r}", id=f"GasSample c2h6={bad!r}")
    for bad in (5, None, b"a", 2.5):  # `write_dataset` raised TypeError on a non-string id
        yield pytest.param(lambda v: GasSample(1.0, 1.0, 1.0, 1.0, 1.0, id=v), bad,
                           f"id must be a string, got {bad!r}", id=f"GasSample id={bad!r}")


@pytest.mark.parametrize("call, bad, message", _refusals())
def test_a_bad_argument_is_refused_by_name(call, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


HUGE = 10**5000  # past the digits Python converts an int to text with
TOO_LONG = f"number of over {sys.get_int_max_str_digits()} digits"


def _huge_refusals():
    for row, (call, name, _, seeds) in INTEGERS.items():
        if seeds:
            message = f"{name} must be a non-negative integer, got a negative {TOO_LONG}"
            yield pytest.param(call, -HUGE, message, id=f"{row}=-10**5000")
    yield pytest.param(INTEGERS["generate_synthetic counts"][0], -HUGE,
                       f"D2 count must be >= 0, got a negative {TOO_LONG}", id="counts=-10**5000")
    yield pytest.param(INTEGERS["GbtModel n_features"][0], -HUGE,
                       f"n_features must be >= 1, got a negative {TOO_LONG}",
                       id="GbtModel n_features=-10**5000")
    for row in ("kfold_cv k", "build_features k"):
        yield pytest.param(INTEGERS[row][0], HUGE, f"k must be in 2..37, got a {TOO_LONG}",
                           id=f"{row}=10**5000")
    yield pytest.param(lambda v: GasSample(v, 0, 0, 0, 0), HUGE,  # refused by `_real`
                       "gas h2 must be a number, got an integer too large for a float",
                       id="GasSample h2=10**5000")
    yield pytest.param(lambda v: GasSample(1, 2, 3, 4, 5, label=v), -HUGE,
                       f"label a negative {TOO_LONG} is not a FaultLabel or None",
                       id="GasSample label=-10**5000")
    yield pytest.param(LABELS["train y"], [*Y[:7], HUGE],
                       f"label a {TOO_LONG} is not a FaultLabel: samples must be labeled",
                       id="train y holding 10**5000")
    yield pytest.param(lambda v: GasSample(1.0, 1.0, 1.0, 1.0, 1.0, id=v), HUGE,
                       f"id must be a string, got a {TOO_LONG}", id="GasSample id=10**5000")


@pytest.mark.parametrize("call, bad, message", _huge_refusals())
def test_a_huge_integer_is_refused_without_its_digits(call, bad, message):
    # `repr` of such an int raises Python's own digit-limit ValueError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_a_string_subclass_is_an_id(tmp_path):
    sample = GasSample(1.0, 1.0, 1.0, 1.0, 1.0, id=np.str_("a"))
    write_dataset(tmp_path / "one.csv", [sample])
    assert (tmp_path / "one.csv").read_text().splitlines()[1] == "a,1.0,1.0,1.0,1.0,1.0,"


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


@pytest.mark.parametrize("call, good", [(row[0], row[2]) for row in REALS.values()],
                         ids=REALS.keys())
def test_a_numpy_float_gives_the_bits_of_the_float(call, good):
    assert _bits(call(np.float64(good))) == _bits(call(good))


def test_load_model_refuses_a_negative_seed(tmp_path):
    # only the library could write one, and `GbtModel` now refuses it
    path = tmp_path / "model.json"
    save_model(path, ModelBundle(MODEL, CANONICAL_RANK_ORDER, 18))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "seed": -1}))
    message = f"{path}: seed must be a non-negative integer, got -1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(path)


@pytest.mark.parametrize("call", [row[0] for row in INTEGERS.values() if row[3]],
                         ids=[name for name, row in INTEGERS.items() if row[3]])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), numpy_type=st.sampled_from([np.int64, np.uint64]))
def test_any_seed_as_a_numpy_integer_gives_the_bits_of_the_int(call, seed, numpy_type):
    assert _bits(call(numpy_type(seed))) == _bits(call(seed))


def test_only_core_writes_the_integer_and_seed_rules():
    # a second copy of a rule is how the copies came to disagree; the real
    # number rule is held to the same
    sources = Path(dgadiag.__file__).parent.glob("*.py")
    rules = ("numbers.Integral", "numbers.Real", "default_rng(")
    writers = {
        (path.name, rule)
        for path in sources
        for rule in rules
        if rule in path.read_text(encoding="utf-8")
    }
    assert writers == {("core.py", rule) for rule in rules}


UNLABELED = "label None is not a FaultLabel: samples must be labeled"
POSITIONS = {"first": 0, "middle": len(SAMPLES) // 2, "last": len(SAMPLES) - 1}


def _unlabeled_at(row: int) -> list:
    """SAMPLES with row `row` unlabeled."""
    samples = list(SAMPLES)
    samples[row] = dataclasses.replace(samples[row], label=None)
    return samples


@pytest.mark.parametrize("row", POSITIONS.values(), ids=POSITIONS.keys())
def test_kfold_cv_refuses_an_unlabeled_row(row):
    with pytest.raises(ValueError, match=f"^{UNLABELED}$"):
        kfold_cv(_unlabeled_at(row), CANONICAL_RANK_ORDER, 18, 2, config=CONFIG)


@pytest.mark.parametrize("side", ["train", "test"])
@pytest.mark.parametrize("position", POSITIONS)
def test_optimal_k_search_refuses_an_unlabeled_row(side, position):
    # training meets a row of the train split, scoring one of the test split
    split = dict(zip(["train", "test"], train_test_split(len(SAMPLES), 0.75, 0)))[side]
    row = sorted(split.tolist())[{"first": 0, "middle": len(split) // 2, "last": -1}[position]]
    with pytest.raises(ValueError, match=f"^{UNLABELED}$"):
        optimal_k_search(_unlabeled_at(row), CANONICAL_RANK_ORDER, 18, 19, train_frac=0.75,
                         config=CONFIG)


@pytest.mark.parametrize("mode", [[], ["--holdout", "0.25"], ["--cv", "2"]],
                         ids=["apply", "holdout", "cv"])
@pytest.mark.parametrize("row", POSITIONS.values(), ids=POSITIONS.keys())
def test_cli_evaluate_refuses_an_unlabeled_row(capsys, tmp_path, mode, row):
    data, model, report = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "report.json"
    write_dataset(data, _unlabeled_at(row))
    save_model(model, ModelBundle(MODEL, CANONICAL_RANK_ORDER, 18))
    capsys.readouterr()
    argv = ["evaluate", "--data", str(data), "--model", str(model), "--json", str(report), *mode]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {UNLABELED}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "model.json"]
