"""Reference benchmark figures recorded for the original 376-transformer
dataset.

That dataset is not redistributable, so none of these numbers can be
recomputed here; they are documentation constants for comparing reruns on
comparable data, not test oracles.  The bundled six-sample file
(data/tableIV.csv) and the synthetic generator stand in for the dataset in
all executable checks.
"""

from __future__ import annotations

import numpy as np

from .core import CLASS_ORDER
from .io import DEFAULT_SYNTH_COUNTS

# Class distribution of the original dataset, canonical class order
# (PD, D1, D2, T1, T2, T3): the synthetic generator's default counts.
REFERENCE_CLASS_COUNTS: tuple[int, ...] = DEFAULT_SYNTH_COUNTS
REFERENCE_DATASET_SIZE = 376

# Realized train/test sizes reported for the original holdout experiment.
# Note these equal an 88.6:11.4 split even though the protocol is stated as
# 85:15; both are recorded, neither is enforced.
REFERENCE_SPLIT_SIZES = (333, 43)

# Holdout confusion matrix on the 43 test samples (rows actual, columns
# predicted, canonical class order).
REFERENCE_HOLDOUT_CONFUSION = np.array(
    [
        [4, 0, 0, 0, 0, 0],
        [0, 7, 0, 0, 0, 0],
        [0, 1, 14, 0, 0, 0],
        [0, 0, 0, 6, 0, 0],
        [0, 0, 1, 0, 2, 0],
        [0, 0, 0, 0, 0, 8],
    ],
    dtype=np.int64,
)

# Metrics printed for that matrix.
REFERENCE_SENSITIVITY_PCT = (100.0, 100.0, 93.33, 100.0, 66.67, 100.0)
REFERENCE_F1 = (1.0, 0.9333, 0.9333, 1.0, 0.8, 1.0)
REFERENCE_ACCURACY_PCT = 95.35

# Feature count selected by the search on the original dataset.
REFERENCE_BEST_K = 24

# Mean one-way ANOVA p-value of the 24 selected features on that dataset.
REFERENCE_MEAN_ANOVA_P = 0.0879

# Five-fold cross-validation (with SMOTE) headline figures.
REFERENCE_CV_KAPPA = 0.91
REFERENCE_CV_MACRO_F1 = 0.92

# Per-class accuracy (%) of each method on the original holdout, canonical
# class order, plus the average.
REFERENCE_METHOD_ACCURACY_PCT = {
    "duval": (25.0, 42.86, 73.33, 66.67, 33.33, 87.50, 62.79),
    "rogers": (0.0, 0.0, 66.67, 100.0, 33.33, 25.0, 44.19),
    "iec": (0.0, 28.57, 53.33, 66.67, 33.33, 62.50, 46.51),
    "boosted_prc": (100.0, 100.0, 93.33, 100.0, 66.67, 100.0, 95.35),
}

CLASS_NAMES = tuple(label.value for label in CLASS_ORDER)
