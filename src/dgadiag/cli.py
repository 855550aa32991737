"""Command-line surface for the diagnosis pipeline.

Every command that reads `--data` reads it through `_load`, which refuses a
file with no rows, and every table goes out through `_emit`, which refuses a
field that TSV cannot carry before it writes anything.

Exit codes: 0 success, 1 validation error (bad data or option value,
malformed files), 2 I/O error or an option argparse rejects as malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields

from .conventional import duval, iec_ratio, rogers
from .core import CLASS_ORDER, GAS_NAMES, GasSample
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
from .ranking import CANONICAL_RANK_ORDER, _ranked_skews, rank_params

_RULES = {"duval": duval, "rogers": rogers, "iec": iec_ratio}  # by name, in column order


def _load(path) -> list[GasSample]:
    samples = load_dataset(path)
    if not samples:
        raise ValueError("empty dataset")
    return samples


def _emit(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    """Write a TSV table to `out_path`, or to stdout when it is None."""
    text = "".join("\t".join(row) + "\n" for row in [header, *rows])
    # each line has one separator per column, so a tab or line break inside a
    # field (it would shift or split its row) adds one; only an id can hold it
    if "\r" in text or text.count("\t") + text.count("\n") != (len(rows) + 1) * len(header):
        bad = next(f for row in rows for f in row if "\t" in f or "\n" in f or "\r" in f)
        raise ValueError(f"id {bad!r} holds a tab or line break, which TSV output cannot carry")
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _rank_order_for(args, samples):
    return CANONICAL_RANK_ORDER if args.canonical else rank_params(samples)


def _gbt_config(args) -> GbtConfig:
    return GbtConfig(**{f.name: getattr(args, f.name) for f in fields(GbtConfig)})


def _add_gbt_args(parser: argparse.ArgumentParser) -> None:
    """One option per `GbtConfig` field, `--max-depth` for `max_depth`."""
    for f in fields(GbtConfig):
        option = "--" + f.name.replace("_", "-")
        parser.add_argument(option, type=type(f.default), default=f.default)


def cmd_rank(args) -> int:
    if args.canonical:
        header = ["position", "param"]
        rows = [[str(pos), str(num)] for pos, num in enumerate(CANONICAL_RANK_ORDER, start=1)]
    else:
        ranked = _ranked_skews(_load(args.data))
        header = ["position", "param", "skewness"]
        rows = [[str(pos), str(num), repr(skew)] for pos, (skew, num) in enumerate(ranked, start=1)]
    _emit(args.out, header, rows)
    return 0


def cmd_features(args) -> int:
    samples = _load(args.data)
    order = _rank_order_for(args, samples)
    fm = build_features(samples, order, args.k)
    header = ["id", "label"] + [f"h{j}" for j in range(1, args.k + 1)]
    rows = [
        [s.id, s.label.value if s.label is not None else "", *(repr(float(v)) for v in row)]
        for s, row in zip(samples, fm.x)
    ]
    _emit(args.out, header, rows)
    return 0


def cmd_searchk(args) -> int:
    samples = _load(args.data)
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
    rows = [[str(k), repr(acc)] for k, acc in sorted(result.accuracy_curve.items())]
    _emit(args.out, ["k", "accuracy"], rows)
    sys.stdout.write(f"best_k\t{result.best_k}\n")
    return 0


def cmd_train(args) -> int:
    config = _gbt_config(args)
    samples = _load(args.data)
    order = _rank_order_for(args, samples)
    fm = build_features(samples, order, args.k)
    model = train(fm.x, fm.labels, config=config)
    save_model(args.model, ModelBundle(model=model, rank_order=order, k=args.k))
    sys.stdout.write(f"trained\t{args.model}\tk={args.k}\tn={len(samples)}\n")
    return 0


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


def _report_lines(doc: dict, title: str) -> list[str]:
    """The text form of a `_report_json` document."""
    names = doc["class_order"]
    lines = [title, "confusion (rows actual, cols predicted):", "\t" + "\t".join(names)]
    lines += [name + "\t" + "\t".join(map(str, row)) for name, row in zip(names, doc["confusion"])]
    lines.append("class\tsensitivity\tprecision\tf1")
    lines += [
        f"{name}\t{s:.4f}\t{p:.4f}\t{f:.4f}"
        for name, s, p, f in zip(names, doc["sensitivity"], doc["precision"], doc["f1"])
    ]
    lines += [f"{key}\t{doc[key]:.4f}" for key in ("accuracy", "macro_f1", "kappa")]
    return lines


def cmd_evaluate(args) -> int:
    if args.smote and args.cv is None:
        raise ValueError("--smote requires --cv")
    if args.seed is not None and args.cv is None and args.holdout is None:
        raise ValueError("--seed requires --holdout or --cv")
    if args.holdout is not None and not 0.0 < args.holdout < 1.0:
        raise ValueError(f"--holdout must be in (0, 1), got {args.holdout}")
    seed = args.seed or 0
    samples = _load(args.data)
    bundle = load_model(args.model)
    if args.cv is not None:
        result = kfold_cv(samples, bundle.rank_order, bundle.k, folds=args.cv, seed=seed,
                          use_smote=args.smote, config=bundle.model.config)
        doc = {
            "mode": "cv",
            "folds": args.cv,
            "smote": args.smote,
            "fold_reports": [_report_json(r) for r in result.fold_reports],
            "pooled": _report_json(result.pooled),
        }
        lines = [
            f"fold {i}: accuracy={r['accuracy']:.4f} kappa={r['kappa']:.4f}"
            for i, r in enumerate(doc["fold_reports"], start=1)
        ]
        lines += _report_lines(doc["pooled"], "pooled out-of-fold report:")
    else:
        fm = build_features(samples, bundle.rank_order, bundle.k)
        if args.holdout is not None:
            # 1 - h rounds to 1 for h <= 2**-54; 1 - 2**-53 leaves no test row either
            split = train_test_split(len(samples), 1.0 - max(args.holdout, 2**-53), seed)
            matrix = fit_and_score(fm, *split, bundle.model.config)
            doc = {"mode": "holdout", "test_fraction": args.holdout}
            title = f"holdout report (test fraction {args.holdout}):"
        else:
            matrix = confusion(fm.labels, predict_many(bundle.model, fm.x))
            doc = {"mode": "apply"}
            title = "report (model applied to the full file):"
        doc["report"] = _report_json(metrics(matrix))
        lines = _report_lines(doc["report"], title)
    if args.json:  # before the text: a failed write leaves stdout empty
        atomic_write_text(args.json, json.dumps(doc, indent=1) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_diagnose(args) -> int:
    gases = [getattr(args, gas) for gas in GAS_NAMES]
    if args.data and any(v is not None for v in gases):
        raise ValueError("give --data or the five gases, not both")
    if not args.data and any(v is None for v in gases):
        raise ValueError("provide --data or all five of " + " ".join(f"--{g}" for g in GAS_NAMES))
    bundle = load_model(args.model)
    samples = _load(args.data) if args.data else [GasSample(*gases, id="cli")]
    fm = build_features(samples, bundle.rank_order, bundle.k)
    predicted = predict_many(bundle.model, fm.x)
    if args.compare:
        header = ["id", *GAS_NAMES, "actual", *_RULES, "predicted"]
        rows = [
            [s.id, *(repr(float(g)) for g in s.gases()),
             s.label.value if s.label is not None else "",
             *(rule(s).value for rule in _RULES.values()), pred.value]
            for s, pred in zip(samples, predicted)
        ]
    else:
        header = ["id", "predicted"]
        rows = [[s.id, p.value] for s, p in zip(samples, predicted)]
    _emit(args.out, header, rows)
    return 0


def cmd_conventional(args) -> int:
    samples = _load(args.data)
    chosen = list(_RULES) if args.method == "all" else [args.method]
    rows = [
        [s.id, s.label.value if s.label is not None else "",
         *(_RULES[m](s).value for m in chosen)]
        for s in samples
    ]
    _emit(args.out, ["id", "actual", *chosen], rows)
    return 0


def cmd_decompose(args) -> int:
    samples = _load(args.data)
    order = _rank_order_for(args, samples)
    fm = build_features(samples, order, args.k)
    rows = [
        [s.id, str(pos), str(num), repr(float(value)), repr(float(base)), repr(float(prc))]
        for s, *columns in zip(samples, fm.signals, fm.baseline, fm.x)
        for pos, (num, value, base, prc) in enumerate(zip(order, *columns), start=1)
    ]
    _emit(args.out, ["id", "position", "param", "value", "baseline", "prc"], rows)
    return 0


def cmd_synth(args) -> int:
    counts = DEFAULT_SYNTH_COUNTS
    if args.counts is not None:
        try:
            counts = tuple(int(c) for c in args.counts.split(","))
        except ValueError:
            raise ValueError(f"bad --counts value {args.counts!r}") from None
    samples = generate_synthetic(args.seed, counts)
    if not samples:  # every data command would refuse the file
        raise ValueError(f"--counts {args.counts} draws no samples")
    write_dataset(args.out, samples)
    sys.stdout.write(f"wrote\t{args.out}\tn={len(samples)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgadiag", description="Transformer fault diagnosis from dissolved gases"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank the 37 parameters by skewness")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data")
    source.add_argument("--canonical", action="store_true")
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
    for gas in GAS_NAMES:
        p.add_argument(f"--{gas}", type=float)
    p.add_argument("--model", required=True)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("conventional", help="run the rule-based methods")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=[*_RULES, "all"], default="all")
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
    try:
        with warnings.catch_warnings(record=True) as deferred:
            warnings.simplefilter("always")  # record each one; the user's filters act below
            code = args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's names the size it could not allocate
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    # a command warns (of a k outside the usual range) only once it has succeeded
    for w in deferred:
        try:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        except Warning as exc:  # a filter made it an error, but the command is done
            sys.stderr.write(f"warning: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
