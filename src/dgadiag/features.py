"""Per-sample rotation-component feature vectors and the feature-count search.

A sample's feature row is built by laying out its parameter values in rank
order (lowest skewness first), truncating to the first k, and taking the
proper rotation component of that k-point sequence as the features.  ITD
works on each row alone, so the rows of a sample do not depend on which
other samples are built with it.  `build_features` is the one builder: its
`FeatureMatrix` holds the ranked prefixes and their ITD baselines beside
the features, which is what the `decompose` command prints.  It checks
its input once, then builds several samples with numpy
(`core.param_matrix`, `itd.itd_rows`) and a single one, such as the CLI's
one reading, in Python floats (`core._param_row`, `itd._itd_list`): both
evaluate the one parameter listing of `core._params`, and the two ITDs do
the same operations in the same order, so a sample's row has the same
bits either way, without numpy's per-call cost on a 24-value row.  The
search sweeps k over a range, training and scoring the classifier on one
fixed holdout split per candidate, and keeps the smallest k attaining the
best accuracy; it takes the full 37-column prefix once and decomposes the
first k columns of it for each k, as `build_features` would.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import N_PARAMS, FaultLabel, GasSample, _integer, _param_row, param_matrix
from .gbt import GbtConfig
from .itd import _itd_list, itd_rows
from .ranking import validate_rank_order

K_DEFAULT_MIN = 18
K_DEFAULT_MAX = 37


@dataclass(frozen=True)
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
        raise ValueError(f"k must be in 2..{N_PARAMS}, got {k}")
    return k


def _warn_unusual_k(k: int) -> None:
    """Warn of a k outside the usual range, at the line that called the
    function calling this one."""
    if not K_DEFAULT_MIN <= k <= K_DEFAULT_MAX:
        warnings.warn(
            f"k={k} outside the usual {K_DEFAULT_MIN}..{K_DEFAULT_MAX} range",
            stacklevel=3,
        )


def _checked_prefix(
    samples: Sequence[GasSample], rank_order: Sequence[int], k: int
) -> tuple[int, ...]:
    """The parameter numbers of the first k ranks, once `samples`,
    `rank_order` and `k` have been checked in that order."""
    if not samples:
        raise ValueError("empty sample list")
    order = validate_rank_order(rank_order)
    return order[: _check_k(k)]


def _ranked_prefix(samples: Sequence[GasSample], prefix: Sequence[int]) -> np.ndarray:
    """The (n, k) signals: each sample's parameters numbered `prefix`, in order."""
    return param_matrix(samples)[:, np.array(prefix) - 1]


def _decompose(samples: Sequence[GasSample], signals: np.ndarray) -> FeatureMatrix:
    """The features of `signals`, the ranked prefixes of `samples`."""
    _, baseline, prc = itd_rows(signals)
    return FeatureMatrix(
        x=prc, labels=[s.label for s in samples], signals=signals, baseline=baseline
    )


def _one_sample(sample: GasSample, prefix: Sequence[int]) -> FeatureMatrix:
    """The features of one sample, built in Python floats: the bits of its
    row in a batch."""
    params = _param_row(sample)
    signal = [params[num - 1] for num in prefix]
    signals = np.array([signal])
    baseline = np.array([_itd_list(signal)])
    return FeatureMatrix(
        x=signals - baseline, labels=[sample.label], signals=signals, baseline=baseline
    )


def build_features(
    samples: Sequence[GasSample], rank_order: Sequence[int], k: int
) -> FeatureMatrix:
    """Rotation-component feature rows for `samples` at feature count `k`;
    a k outside the usual range is warned of once the rows are built."""
    prefix = _checked_prefix(samples, rank_order, k)
    if len(samples) == 1:  # one reading: a numpy call costs more than its row
        fm = _one_sample(samples[0], prefix)
    else:
        fm = _decompose(samples, _ranked_prefix(samples, prefix))
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
    accuracy resolve to the smallest k.  `k_min` and `k_max` must be
    integers, then in order, then in 2..37.  A k outside the usual range is
    warned of once the search has succeeded.
    """
    from .evaluation import fit_and_score, metrics, train_test_split

    samples = list(samples)
    if any(s.label is None for s in samples):
        raise ValueError("feature-count search requires labeled samples")
    k_min, k_max = _integer("k_min", k_min), _integer("k_max", k_max)
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    k_min, k_max = _check_k(k_min), _check_k(k_max)

    train_idx, test_idx = train_test_split(len(samples), train_frac, split_seed)
    order = _checked_prefix(samples, rank_order, N_PARAMS)
    ranked = _ranked_prefix(samples, order)  # every k's prefix
    curve: dict[int, float] = {}
    for k in range(k_min, k_max + 1):
        fm = _decompose(samples, ranked[:, :k])
        curve[k] = metrics(fit_and_score(fm, train_idx, test_idx, config)).accuracy
    for k in curve:
        _warn_unusual_k(k)

    best_k = min(curve, key=lambda k: (-curve[k], k))
    return KSearchResult(accuracy_curve=curve, best_k=best_k)
