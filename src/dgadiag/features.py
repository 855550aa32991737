"""Per-sample rotation-component feature vectors and the feature-count search.

A sample's feature row is built by laying out its parameter values in rank
order (lowest skewness first), truncating to the first k, and taking the
proper rotation component of that k-point sequence as the features.  ITD
works on each row alone, so the rows of a sample do not depend on which
other samples are built with it.  The search sweeps k over a range,
training and scoring the classifier on one fixed holdout split per
candidate, and keeps the smallest k attaining the best accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import N_PARAMS, FaultLabel, GasSample, param_matrix
from .gbt import GbtConfig
from .itd import itd_rows
from .ranking import validate_rank_order

K_DEFAULT_MIN = 18
K_DEFAULT_MAX = 37


@dataclass(frozen=True)
class FeatureMatrix:
    x: np.ndarray  # (n, k) rotation-component coefficients
    labels: list[FaultLabel | None]


@dataclass(frozen=True)
class KSearchResult:
    accuracy_curve: dict[int, float]
    best_k: int


def _check_k(k: int) -> None:
    if not 2 <= k <= N_PARAMS:
        raise ValueError(f"k must be in 2..{N_PARAMS}, got {k}")


def _warn_unusual_k(k: int, stacklevel: int) -> None:
    """Warn, at the caller `stacklevel` frames up, of a k outside the usual
    range."""
    if not K_DEFAULT_MIN <= k <= K_DEFAULT_MAX:
        warnings.warn(
            f"k={k} outside the usual {K_DEFAULT_MIN}..{K_DEFAULT_MAX} range",
            stacklevel=stacklevel,
        )


def ranked_prefix(
    samples: Sequence[GasSample], rank_order: Sequence[int], k: int
) -> np.ndarray:
    """The (n, k) signals: each sample's parameters in rank order, first k."""
    if not samples:
        raise ValueError("empty sample list")
    order = validate_rank_order(rank_order)
    _check_k(k)
    _warn_unusual_k(k, stacklevel=4)  # the caller of build_features
    return param_matrix(samples)[:, np.array(order[:k]) - 1]


def checked_itd_rows(
    samples: Sequence[GasSample], signals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`itd_rows` of `signals`, the ranked prefixes of `samples`.

    Raises ValueError naming the first sample whose rotation component is
    not finite: near-subnormal gas values can overflow an ITD slope.
    """
    with np.errstate(all="ignore"):  # the finiteness check below reports it
        knot, baseline, prc = itd_rows(signals)
    if not np.isfinite(prc).all():
        i = int(np.argmin(np.isfinite(prc).all(axis=1)))  # the first bad row
        raise ValueError(
            f"reading {samples[i].id or i + 1}: rotation-component features "
            "are not finite (near-zero gas values overflow an ITD slope)"
        )
    return knot, baseline, prc


def _feature_matrix(samples: Sequence[GasSample], signals: np.ndarray) -> FeatureMatrix:
    _, _, prc = checked_itd_rows(samples, signals)
    return FeatureMatrix(x=prc, labels=[s.label for s in samples])


def build_features(
    samples: Sequence[GasSample], rank_order: Sequence[int], k: int
) -> FeatureMatrix:
    """Rotation-component feature rows for `samples` at feature count `k`.

    Raises ValueError naming the first sample whose features are not finite
    (see `checked_itd_rows`).
    """
    return _feature_matrix(samples, ranked_prefix(samples, rank_order, k))


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
    accuracy resolve to the smallest k.  A k outside the usual range is
    warned of once the search has succeeded.
    """
    from .evaluation import fit_and_score, train_test_split

    samples = list(samples)
    if any(s.label is None for s in samples):
        raise ValueError("feature-count search requires labeled samples")
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    _check_k(k_min)
    _check_k(k_max)

    train_idx, test_idx = train_test_split(len(samples), train_frac, split_seed)
    ranked = ranked_prefix(samples, rank_order, N_PARAMS)  # every k's prefix
    curve: dict[int, float] = {}
    for k in range(k_min, k_max + 1):
        fm = _feature_matrix(samples, ranked[:, :k])
        cm = fit_and_score(fm, train_idx, test_idx, config, seed=split_seed)
        curve[k] = cm.trace / cm.total
    for k in curve:
        _warn_unusual_k(k, stacklevel=3)

    best_k = min(curve, key=lambda k: (-curve[k], k))
    return KSearchResult(accuracy_curve=curve, best_k=best_k)
