"""Transformer fault diagnosis from dissolved-gas measurements.

Pipeline: 37 ratio parameters per sample -> skewness ranking -> rotation
component of the ranked prefix as features -> boosted-trees classifier,
with the Duval/Rogers/IEC rule methods and an imbalance-aware evaluation
harness alongside.
"""

from .conventional import duval, iec_ratio, rogers
from .core import (
    CLASS_ORDER,
    EPS_PPM,
    DiagnosisOutcome,
    FaultLabel,
    GasSample,
    param_matrix,
)
from .evaluation import (
    ConfusionMatrix,
    confusion,
    kfold_cv,
    metrics,
    smote,
    train_test_split,
)
from .features import FeatureMatrix, build_features, optimal_k_search
from .gbt import GbtConfig, GbtModel, predict_many, predict_proba_many, train
from .io import (
    ModelBundle,
    generate_synthetic,
    load_dataset,
    load_model,
    load_table_iv,
    save_model,
    write_dataset,
)
from .ranking import CANONICAL_RANK_ORDER, anova_pvalue, rank_params, skewness

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_RANK_ORDER",
    "CLASS_ORDER",
    "ConfusionMatrix",
    "DiagnosisOutcome",
    "EPS_PPM",
    "FaultLabel",
    "FeatureMatrix",
    "GasSample",
    "GbtConfig",
    "GbtModel",
    "ModelBundle",
    "anova_pvalue",
    "build_features",
    "confusion",
    "duval",
    "generate_synthetic",
    "iec_ratio",
    "kfold_cv",
    "load_dataset",
    "load_model",
    "load_table_iv",
    "metrics",
    "optimal_k_search",
    "param_matrix",
    "predict_many",
    "predict_proba_many",
    "rank_params",
    "rogers",
    "save_model",
    "skewness",
    "smote",
    "train",
    "train_test_split",
    "write_dataset",
]
