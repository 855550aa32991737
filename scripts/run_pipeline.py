#!/usr/bin/env python3
"""Run the full diagnosis experiment on a dataset (synthetic by default).

Runs the `dgadiag` subcommands `synth` (only without --data), `searchk`,
`train --k <searchk's best_k>` and `evaluate --cv FOLDS --smote`, which write
synthetic.csv, accuracy_curve.tsv and model.json into --out-dir and print the
CV reports.  --seed seeds `synth`, `searchk` and `evaluate`; `train` draws
nothing at random and takes no seed.  The first step that fails ends the run
with the CLI's exit code: 1 for invalid input, 2 for an I/O error.

Usage: python scripts/run_pipeline.py --seed 11 --out-dir runs/demo
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from dgadiag.cli import main as dgadiag
from dgadiag.features import K_DEFAULT_MAX, K_DEFAULT_MIN
from dgadiag.gbt import GbtConfig


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

    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    data, model = f"--data={args.data or out / 'synthetic.csv'}", f"--model={out / 'model.json'}"
    seed, rounds = f"--seed={args.seed}", f"--rounds={args.rounds}"
    if not args.data and (code := dgadiag(["synth", seed, f"--out={out / 'synthetic.csv'}"])):
        return code
    with contextlib.redirect_stdout(io.StringIO()) as searchk_out:
        code = dgadiag(["searchk", data, f"--kmin={args.kmin}", f"--kmax={args.kmax}", seed,
                        rounds, f"--out={out / 'accuracy_curve.tsv'}"])
    sys.stdout.write(searchk_out.getvalue())
    if code:
        return code
    best_k = searchk_out.getvalue().split("best_k\t")[1].split()[0]  # searchk's one stdout line
    for step in (["train", data, f"--k={best_k}", rounds, model],
                 ["evaluate", data, model, f"--cv={args.folds}", "--smote", seed]):
        if code := dgadiag(step):
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
