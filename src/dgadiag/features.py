"""Per-sample rotation-component feature vectors and the feature-count search.

A sample's feature row is built by laying out its parameter values in rank
order (lowest skewness first), truncating to the first k, and taking the
proper rotation component of that k-point sequence as the features.  ITD
works on each row alone, so the rows of a sample do not depend on which
other samples are built with it.  `_build` is the one builder, behind
`build_features`, `optimal_k_search` and `evaluation.kfold_cv`; it checks
and warns of nothing.  It builds several samples with numpy
(`core.param_matrix`, `itd.itd_rows`) and one, such as the CLI's one
reading, in Python floats (`core._param_row`, `itd._itd_list`): both
evaluate the one parameter listing of `core._params`, and the two ITDs do
the same operations in the same order, so a sample's row has the same bits
either way, without numpy's per-call cost on a 24-value row.  Either ITD
gives the baselines, and the features, the ranked prefixes minus their
baselines, are taken in one place; `decompose` prints all three.  Each
public call checks the rank order, then k, once, and warns of an unusual k
as its last step, so a call that raises has warned of nothing.  The search
sweeps k over a range, taking every candidate's rows from one evaluation of
the 37 parameters, training and scoring the classifier on one fixed holdout
split per candidate, and keeps the smallest k attaining the best accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import N_PARAMS, FaultLabel, GasSample, _integer, _param_row, _shown, param_matrix
from .gbt import GbtConfig
from .itd import _itd_list, itd_rows
from .ranking import validate_rank_order

K_DEFAULT_MIN = 18
K_DEFAULT_MAX = 37


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    x: np.ndarray  # (n, k) rotation-component coefficients, signals - baseline
    labels: list[FaultLabel | None]
    signals: np.ndarray  # (n, k) ranked parameter prefixes that were decomposed
    baseline: np.ndarray  # (n, k) their ITD baselines


@dataclass(frozen=True)
class KSearchResult:
    accuracy_curve: dict[int, float]
    best_k: int


def _check_k(k: int) -> int:
    """`k` as an `int`, once it is an integer of any type but bool in 2..37."""
    k = _integer("k", k)
    if not 2 <= k <= N_PARAMS:
        raise ValueError(f"k must be in 2..{N_PARAMS}, got {_shown(k)}")
    return k


def _warn_unusual_k(k: int) -> None:
    """Warn of a k outside the usual range, at the line that called the
    function calling this one."""
    if not K_DEFAULT_MIN <= k <= K_DEFAULT_MAX:
        warnings.warn(
            f"k={k} outside the usual {K_DEFAULT_MIN}..{K_DEFAULT_MAX} range",
            stacklevel=3,
        )


def _checked_prefix(rank_order: Sequence[int], k: int) -> tuple[int, ...]:
    """The parameter numbers of the first k ranks, once `rank_order`, then
    `k`, have been checked; `param_matrix` refuses an empty sample list."""
    order = validate_rank_order(rank_order)
    return order[: _check_k(k)]


def _build(
    samples: Sequence[GasSample], order: Sequence[int], ks: Sequence[int]
) -> Iterator[FeatureMatrix]:
    """The features of `samples` on the parameters numbered `order[:k]`, for
    each k of `ks` in turn, all from one evaluation of the 37 parameters; one
    reading is built in Python floats, to the bits of its batch row."""
    one = len(samples) == 1  # one reading: a numpy call costs more than its row
    if one:
        params = _param_row(samples[0])
        ranked = [params[num - 1] for num in order[: max(ks)]]
    else:  # only the ranked columns are kept: a live (n, 37) matrix slows the ITD
        ranked = param_matrix(samples)[:, np.array(order[: max(ks)]) - 1]
    labels = [s.label for s in samples]
    for k in ks:
        if one:
            signal = ranked[:k]
            signals, baseline = np.array([signal]), np.array([_itd_list(signal)])
        else:
            signals = ranked[:, :k]
            baseline = itd_rows(signals)
        yield FeatureMatrix(x=signals - baseline, labels=labels, signals=signals, baseline=baseline)


def build_features(
    samples: Sequence[GasSample], rank_order: Sequence[int], k: int
) -> FeatureMatrix:
    """Rotation-component feature rows for `samples` at feature count `k`;
    a k outside the usual range is warned of once the rows are built."""
    fm, = _build(samples, _checked_prefix(rank_order, k), [k])
    _warn_unusual_k(k)
    return fm


def optimal_k_search(
    samples: Sequence[GasSample],
    rank_order: Sequence[int],
    k_min: int = K_DEFAULT_MIN,
    k_max: int = K_DEFAULT_MAX,
    split_seed: int = 0,
    train_frac: float = 0.85,
    config: GbtConfig = GbtConfig(),
) -> KSearchResult:
    """Sweep the feature count and score each candidate on one fixed split.

    The same seeded train/test split of the samples is reused for every k so
    the curve isolates the effect of the feature count.  Ties for the best
    accuracy resolve to the smallest k.  After the rank order, `k_min` and
    `k_max` must be integers, then in order, then in 2..37; an unlabeled
    sample is refused by training or scoring.  Each k's rows are
    `build_features`'s; each unusual k is warned of as the last step.
    """
    from .evaluation import fit_and_score, metrics, train_test_split

    samples, order = list(samples), validate_rank_order(rank_order)
    k_min, k_max = _integer("k_min", k_min), _integer("k_max", k_max)
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    k_min, k_max = _check_k(k_min), _check_k(k_max)

    train_idx, test_idx = train_test_split(len(samples), train_frac, split_seed)
    curve: dict[int, float] = {}
    ks = range(k_min, k_max + 1)
    for k, fm in zip(ks, _build(samples, order, ks)):
        curve[k] = metrics(fit_and_score(fm, train_idx, test_idx, config)).accuracy
    for k in curve:
        _warn_unusual_k(k)

    best_k = min(curve, key=lambda k: (-curve[k], k))
    return KSearchResult(accuracy_curve=curve, best_k=best_k)
