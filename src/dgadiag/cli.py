"""Command-line surface for the diagnosis pipeline.

Exit codes: 0 success, 1 validation error (bad data or option value,
malformed files), 2 I/O error or an option argparse rejects as malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .conventional import duval, iec_ratio, rogers
from .core import CLASS_ORDER, GasSample, param_matrix
from .evaluation import confusion, fit_and_score, kfold_cv, metrics, train_test_split
from .features import K_DEFAULT_MAX, K_DEFAULT_MIN, build_features, optimal_k_search
from .gbt import GbtConfig, predict_many, train
from .io import (
    DEFAULT_SYNTH_COUNTS,
    ModelBundle,
    atomic_write_text,
    generate_synthetic,
    load_dataset,
    load_model,
    save_model,
    write_dataset,
)
from .ranking import CANONICAL_RANK_ORDER, rank_params, skewness


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _check_tsv_ids(samples) -> None:
    """Refuse an id that TSV output cannot carry: a tab in it would shift its
    row's columns, and a line break would split the row."""
    for s in samples:
        if "\t" in s.id or "\n" in s.id or "\r" in s.id:
            raise ValueError(
                f"id {s.id!r} holds a tab or line break, which TSV output cannot carry"
            )


def _rank_order_for(args, samples):
    return CANONICAL_RANK_ORDER if args.canonical else rank_params(samples)


def _gbt_config(args) -> GbtConfig:
    return GbtConfig(
        rounds=args.rounds,
        learning_rate=args.learning_rate,
        max_depth=args.max_depth,
    )


def _add_gbt_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rounds", type=int, default=GbtConfig.rounds)
    parser.add_argument(
        "--learning-rate", type=float, default=GbtConfig.learning_rate
    )
    parser.add_argument("--max-depth", type=int, default=GbtConfig.max_depth)


def cmd_rank(args) -> int:
    if args.canonical:
        lines = ["position\tparam"]
        lines += [f"{pos}\t{num}" for pos, num in enumerate(CANONICAL_RANK_ORDER, start=1)]
    else:
        samples = load_dataset(args.data)
        order = rank_params(samples)
        matrix = param_matrix(samples)
        lines = ["position\tparam\tskewness"]
        for pos, num in enumerate(order, start=1):
            lines.append(f"{pos}\t{num}\t{skewness(matrix[:, num - 1])!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_features(args) -> int:
    samples = load_dataset(args.data)
    _check_tsv_ids(samples)
    order = _rank_order_for(args, samples)
    fm = build_features(samples, order, args.k)
    header = ["id", "label"] + [f"h{j}" for j in range(1, args.k + 1)]
    lines = ["\t".join(header)]
    for s, row in zip(samples, fm.x):
        label = s.label.value if s.label is not None else ""
        values = "\t".join(repr(float(v)) for v in row)
        lines.append(f"{s.id}\t{label}\t{values}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_searchk(args) -> int:
    samples = load_dataset(args.data)
    order = _rank_order_for(args, samples)
    result = optimal_k_search(
        samples,
        order,
        k_min=args.kmin,
        k_max=args.kmax,
        split_seed=args.seed,
        train_frac=args.train_frac,
        config=_gbt_config(args),
    )
    lines = ["k\taccuracy"]
    lines += [f"{k}\t{acc!r}" for k, acc in sorted(result.accuracy_curve.items())]
    _emit("\n".join(lines) + "\n", args.out)
    sys.stdout.write(f"best_k\t{result.best_k}\n")
    return 0


def cmd_train(args) -> int:
    config = _gbt_config(args)
    samples = load_dataset(args.data)
    order = _rank_order_for(args, samples)
    fm = build_features(samples, order, args.k)
    model = train(fm.x, fm.labels, config=config, seed=args.seed)
    save_model(args.model, ModelBundle(model=model, rank_order=order, k=args.k))
    sys.stdout.write(f"trained\t{args.model}\tk={args.k}\tn={len(samples)}\n")
    return 0


def _report_lines(report, title: str) -> list[str]:
    names = [label.value for label in CLASS_ORDER]
    lines = [title, "confusion (rows actual, cols predicted):"]
    lines.append("\t" + "\t".join(names))
    for i, name in enumerate(names):
        lines.append(name + "\t" + "\t".join(str(int(v)) for v in report.matrix.counts[i]))
    lines.append("class\tsensitivity\tprecision\tf1")
    for i, name in enumerate(names):
        lines.append(
            f"{name}\t{report.sensitivity[i]:.4f}\t{report.precision[i]:.4f}"
            f"\t{report.f1[i]:.4f}"
        )
    lines.append(f"accuracy\t{report.accuracy:.4f}")
    lines.append(f"macro_f1\t{report.macro_f1:.4f}")
    lines.append(f"kappa\t{report.kappa:.4f}")
    return lines


def _report_json(report) -> dict:
    return {
        "confusion": report.matrix.counts.tolist(),
        "class_order": [label.value for label in CLASS_ORDER],
        "sensitivity": report.sensitivity.tolist(),
        "precision": report.precision.tolist(),
        "f1": report.f1.tolist(),
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "kappa": report.kappa,
    }


def cmd_evaluate(args) -> int:
    if args.smote and args.cv is None:
        raise ValueError("--smote requires --cv")
    if args.seed is not None and args.cv is None and args.holdout is None:
        raise ValueError("--seed requires --holdout or --cv")
    if args.holdout is not None and not 0.0 < 1.0 - args.holdout < 1.0:
        raise ValueError(f"--holdout must be in (0, 1), got {args.holdout}")
    seed = args.seed or 0
    samples = load_dataset(args.data)
    if any(s.label is None for s in samples):
        raise ValueError("evaluation requires labeled samples")
    bundle = load_model(args.model)
    doc: dict
    if args.cv is not None:
        result = kfold_cv(
            samples,
            bundle.rank_order,
            bundle.k,
            folds=args.cv,
            seed=seed,
            use_smote=args.smote,
            config=bundle.model.config,
        )
        lines: list[str] = []
        for i, rep in enumerate(result.fold_reports, start=1):
            lines.append(f"fold {i}: accuracy={rep.accuracy:.4f} kappa={rep.kappa:.4f}")
        lines += _report_lines(result.pooled, "pooled out-of-fold report:")
        doc = {
            "mode": "cv",
            "folds": args.cv,
            "smote": args.smote,
            "fold_reports": [_report_json(r) for r in result.fold_reports],
            "pooled": _report_json(result.pooled),
        }
    elif args.holdout is not None:
        fm = build_features(samples, bundle.rank_order, bundle.k)
        split = train_test_split(len(samples), 1.0 - args.holdout, seed)
        report = metrics(fit_and_score(fm, *split, bundle.model.config))
        lines = _report_lines(
            report, f"holdout report (test fraction {args.holdout}):"
        )
        doc = {"mode": "holdout", "test_fraction": args.holdout, "report": _report_json(report)}
    else:
        fm = build_features(samples, bundle.rank_order, bundle.k)
        report = metrics(confusion(fm.labels, predict_many(bundle.model, fm.x)))
        lines = _report_lines(report, "report (model applied to the full file):")
        doc = {"mode": "apply", "report": _report_json(report)}
    sys.stdout.write("\n".join(lines) + "\n")
    if args.json:
        atomic_write_text(args.json, json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_diagnose(args) -> int:
    gases = (args.h2, args.ch4, args.c2h6, args.c2h4, args.c2h2)
    if args.data and any(v is not None for v in gases):
        raise ValueError("give --data or the five gases, not both")
    if not args.data and any(v is None for v in gases):
        raise ValueError("provide --data or all five of --h2 --ch4 --c2h6 --c2h4 --c2h2")
    bundle = load_model(args.model)
    samples = load_dataset(args.data) if args.data else [GasSample(*gases, id="cli")]
    _check_tsv_ids(samples)
    fm = build_features(samples, bundle.rank_order, bundle.k)
    predicted = predict_many(bundle.model, fm.x)
    if args.compare:
        lines = [
            "id\th2\tch4\tc2h6\tc2h4\tc2h2\tactual\tduval\trogers\tiec\tpredicted"
        ]
        for s, pred in zip(samples, predicted):
            actual = s.label.value if s.label is not None else ""
            gases_txt = "\t".join(repr(float(g)) for g in s.gases())
            lines.append(
                f"{s.id}\t{gases_txt}\t{actual}\t{duval(s).value}"
                f"\t{rogers(s).value}\t{iec_ratio(s).value}\t{pred.value}"
            )
    else:
        lines = ["id\tpredicted"]
        lines += [f"{s.id}\t{p.value}" for s, p in zip(samples, predicted)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_conventional(args) -> int:
    samples = load_dataset(args.data)
    _check_tsv_ids(samples)
    methods = {"duval": duval, "rogers": rogers, "iec": iec_ratio}
    chosen = list(methods) if args.method == "all" else [args.method]
    lines = ["\t".join(["id", "actual"] + chosen)]
    for s in samples:
        actual = s.label.value if s.label is not None else ""
        outcomes = "\t".join(methods[m](s).value for m in chosen)
        lines.append(f"{s.id}\t{actual}\t{outcomes}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_decompose(args) -> int:
    samples = load_dataset(args.data)
    _check_tsv_ids(samples)
    order = _rank_order_for(args, samples)
    fm = build_features(samples, order, args.k)
    lines = ["id\tposition\tparam\tvalue\tbaseline\tprc"]
    for s, signal, baseline_row, prc_row in zip(samples, fm.signals, fm.baseline, fm.x):
        columns = zip(order, signal, baseline_row, prc_row)
        for pos, (num, value, baseline, prc) in enumerate(columns, start=1):
            lines.append(
                f"{s.id}\t{pos}\t{num}\t{float(value)!r}"
                f"\t{float(baseline)!r}\t{float(prc)!r}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    counts = DEFAULT_SYNTH_COUNTS
    if args.counts:
        try:
            counts = tuple(int(c) for c in args.counts.split(","))
        except ValueError:
            raise ValueError(f"bad --counts value {args.counts!r}") from None
    samples = generate_synthetic(args.seed, counts)
    write_dataset(args.out, samples)
    sys.stdout.write(f"wrote\t{args.out}\tn={len(samples)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgadiag", description="Transformer fault diagnosis from dissolved gases"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank the 37 parameters by skewness")
    p.add_argument("--data")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("features", help="emit rotation-component feature rows")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("searchk", help="sweep the feature count")
    p.add_argument("--data", required=True)
    p.add_argument("--kmin", type=int, default=K_DEFAULT_MIN)
    p.add_argument("--kmax", type=int, default=K_DEFAULT_MAX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.85)
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out", required=True)
    _add_gbt_args(p)
    p.set_defaults(func=cmd_searchk)

    p = sub.add_parser("train", help="train and save a model")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", required=True)
    p.add_argument("--canonical", action="store_true")
    _add_gbt_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--holdout", type=float)
    group.add_argument("--cv", type=int)
    p.add_argument("--smote", action="store_true")
    p.add_argument("--seed", type=int)  # for --holdout and --cv; 0 when not given
    p.add_argument("--json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="predict fault classes")
    p.add_argument("--data")
    for gas in ("h2", "ch4", "c2h6", "c2h4", "c2h2"):
        p.add_argument(f"--{gas}", type=float)
    p.add_argument("--model", required=True)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("conventional", help="run the rule-based methods")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--method", choices=["duval", "rogers", "iec", "all"], default="all"
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_conventional)

    p = sub.add_parser("decompose", help="emit baseline and rotation component")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--counts", help="six comma-separated per-class counts")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rank" and not args.canonical and not args.data:
        parser.error("rank requires --data unless --canonical is given")
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:  # one check for every subcommand with a --seed
            raise ValueError(f"--seed must be a non-negative integer, got {seed}")
        with warnings.catch_warnings(record=True) as deferred:
            code = args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    # a command warns (of a k outside the usual range) only once it has succeeded
    for w in deferred:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
