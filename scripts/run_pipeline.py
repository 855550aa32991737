#!/usr/bin/env python3
"""Run the full diagnosis experiment on a dataset (synthetic by default).

Steps: rank parameters by skewness, sweep the feature count on a fixed
holdout split, train at the best count, then report holdout and
cross-validated performance.  Everything is seeded, so reruns reproduce the
same numbers.

Usage:
    python scripts/run_pipeline.py --seed 11 --out-dir runs/demo
    python scripts/run_pipeline.py --data my.csv --kmin 18 --kmax 37
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from dgadiag import (
    GbtConfig,
    ModelBundle,
    build_features,
    generate_synthetic,
    kfold_cv,
    load_dataset,
    optimal_k_search,
    rank_params,
    save_model,
    train,
    write_dataset,
)
from dgadiag.features import K_DEFAULT_MAX, K_DEFAULT_MIN


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", help="dataset CSV; omit to generate synthetic data")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--kmin", type=int, default=K_DEFAULT_MIN)
    parser.add_argument("--kmax", type=int, default=K_DEFAULT_MAX)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=GbtConfig.rounds)
    parser.add_argument("--out-dir", default="runs/pipeline")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = GbtConfig(rounds=args.rounds)

    if args.data:
        samples = load_dataset(args.data)
        print(f"loaded {len(samples)} samples from {args.data}")
    else:
        samples = generate_synthetic(args.seed)
        path = out_dir / "synthetic.csv"
        write_dataset(path, samples)
        print(f"generated {len(samples)} synthetic samples -> {path}")

    t0 = time.time()
    order = rank_params(samples)
    print(f"rank order (first 10): {order[:10]}")

    search = optimal_k_search(
        samples, order, k_min=args.kmin, k_max=args.kmax,
        split_seed=args.seed, config=config,
    )
    curve_path = out_dir / "accuracy_curve.tsv"
    with open(curve_path, "w") as fh:
        fh.write("k\taccuracy\n")
        for k, acc in sorted(search.accuracy_curve.items()):
            fh.write(f"{k}\t{acc!r}\n")
    print(f"feature-count sweep -> {curve_path}; best_k = {search.best_k}")

    fm = build_features(samples, order, search.best_k)
    model = train(fm.x, fm.labels, config=config, seed=args.seed)
    model_path = out_dir / "model.json"
    save_model(model_path, ModelBundle(model=model, rank_order=order, k=search.best_k))
    print(f"trained on all {len(samples)} samples -> {model_path}")

    cv = kfold_cv(
        samples, folds=args.folds, seed=args.seed, use_smote=True,
        k=search.best_k, config=config, rank_order=order,
    )
    print(f"{args.folds}-fold CV with oversampling:")
    for i, rep in enumerate(cv.fold_reports, start=1):
        print(f"  fold {i}: accuracy={rep.accuracy:.4f} kappa={rep.kappa:.4f}")
    print(
        f"pooled: accuracy={cv.pooled.accuracy:.4f} "
        f"kappa={cv.pooled.kappa:.4f} macro_f1={cv.pooled.macro_f1:.4f}"
    )
    print(f"total time: {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
