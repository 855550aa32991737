"""The three benchmark workloads: model-dev, fleet-screen and field-single.

A workload has a set-up (timed, repeated), a pass (the timed unit of work),
and a `finish` step that turns a pass's outputs into digests and checks them
outside the timed region.  Every call into dgadiag goes through a module
attribute (`gbt.train`, not a name imported here), so the tracer's wrappers
see it.

Digests are sha256 of a text form of an output that does not depend on the
model file format: a curve TSV, labels, rule outcomes, `repr` of logits.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dgadiag import conventional, core, evaluation, features, gbt, io, ranking

K_MIN, K_MAX = 18, 37
FOLDS = 5
MODEL_K = 24  # feature count of the pre-trained model in fleet-screen and field-single
PROBE_ROWS = 32  # rows of the fixed logits probe set

MODEL_DEV_DATASETS = 3  # untraced passes cycle over this many seeded datasets
FLEET_SCALE = 64  # rows per class = 64 x default class counts
FLEET_FILES = 16  # the 24,064 fleet readings arrive as 16 files of 1504 rows
NON_DETECT_PROBE = 64  # non-detect readings of the fleet-screen fault probe
FIELD_SCALE = 3  # 3 x 376 = 1128 distinct field-single readings
FIELD_SESSIONS = 12  # taken in 12 sessions of 94 readings


def derive(seed: int, *path: int) -> int:
    """An independent 32-bit seed for the input named by `path`."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def med(values) -> float:
    return float(np.median(values))


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    outputs: object  # what the pass produced; `finish` turns it into digests
    parts: dict[str, float] = field(default_factory=dict)  # named stage times, s
    latencies_s: list[float] = field(default_factory=list)  # one per operation
    cold_s: list[float] = field(default_factory=list)  # cold CLI processes
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    speed: float = 1.0  # factor that scaled the times above to the reference speed


def draw_readings(seed: int, counts) -> list[core.GasSample]:
    """Unlabeled readings drawn from the per-class synthetic gas ranges, shuffled."""
    rng = np.random.default_rng(seed)
    blocks = []
    for label, count in zip(core.CLASS_ORDER, counts):
        ranges = io.SYNTH_GAS_RANGES[label]
        logs = [rng.uniform(np.log(lo), np.log(hi), count) for lo, hi in ranges.values()]
        blocks.append(np.exp(np.column_stack(logs)))
    gases = np.vstack(blocks)
    gases = gases[rng.permutation(len(gases))]
    return [core.GasSample(*g, id=f"r{i:06d}") for i, g in enumerate(gases.tolist(), start=1)]


def non_detect_readings(seed: int, n: int) -> list[core.GasSample]:
    """Non-detect readings: CH4 = C2H4 = C2H2 = 0, as field surveys record
    gases below the detection limit, with H2 and C2H6 still present."""
    rng = np.random.default_rng(seed)
    h2c2h6 = np.exp(rng.uniform(np.log([5.0, 1.0]), np.log([500.0, 60.0]), (n, 2)))
    return [core.GasSample(h2, 0.0, c2h6, 0.0, 0.0, id=f"nd{i:06d}")
            for i, (h2, c2h6) in enumerate(h2c2h6.tolist(), start=1)]


def pretrained_model(seed: int, path: Path) -> io.ModelBundle:
    """Train on generate_synthetic(seed) at MODEL_K, save it, and load it back."""
    samples = io.generate_synthetic(seed)
    order = ranking.rank_params(samples)
    fm = features.build_features(samples, order, MODEL_K)
    model = gbt.train(fm.x, fm.labels, seed=seed)
    io.save_model(path, io.ModelBundle(model=model, rank_order=order, k=MODEL_K))
    return io.load_model(path)


def rule_methods():
    """Looked up at call time, so that a pass under the tracer gets the wrappers."""
    return conventional.duval, conventional.rogers, conventional.iec_ratio


def rule_outcomes(sample: core.GasSample, rules) -> tuple[list, int]:
    """Outcome of each rule method; a ValueError is a failed operation, not an abort."""
    out, failed = [], 0
    for rule in rules:
        try:
            out.append(rule(sample).value)
        except ValueError:
            out.append(None)
            failed += 1
    return out, failed


def rules_text(samples, outcomes) -> str:
    return "\n".join(f"{s.id}\t{d}\t{r}\t{i}" for s, (d, r, i) in zip(samples, outcomes))


def labels_text(ids, labels) -> str:
    return "\n".join(f"{i}\t{p.value}" for i, p in zip(ids, labels))


def logits_repr(model, x) -> str:
    return repr(gbt.predict_logits(model, x[:PROBE_ROWS]).tolist())


class ModelDev:
    """The research loop of scripts/run_pipeline.py on n = 376 synthetic samples."""

    name = "model-dev"
    inputs = MODEL_DEV_DATASETS  # untraced pass j runs on dataset j % inputs
    golden_passes = 1
    op = "one run of the research loop"
    kernel = "split"

    def __init__(self, work: Path, root: Path):
        self.work = work

    def setup(self, seed: int):
        datasets = []
        for j in range(MODEL_DEV_DATASETS):
            data_seed = derive(seed, 0, j)
            samples = io.generate_synthetic(data_seed)
            io.write_dataset(self.work / f"model-dev-{j}.csv", samples)
            datasets.append((data_seed, samples))
        return datasets

    def sizes(self, datasets) -> dict:
        return {"samples_per_dataset": len(datasets[0][1]), "datasets": len(datasets),
                "dataset_seeds": [s for s, _ in datasets]}

    def run_pass(self, datasets, j: int) -> PassResult:
        seed, samples = datasets[j % len(datasets)]
        clock = time.perf_counter
        t0 = clock()
        order = ranking.rank_params(samples)
        t1 = clock()
        search = features.optimal_k_search(samples, order, K_MIN, K_MAX, split_seed=seed)
        t2 = clock()
        fm = features.build_features(samples, order, search.best_k)
        model = gbt.train(fm.x, fm.labels, seed=seed)
        bundle = io.ModelBundle(model=model, rank_order=order, k=search.best_k)
        io.save_model(self.work / "model-dev-model.json", bundle)
        t3 = clock()
        cv = evaluation.kfold_cv(
            samples, folds=FOLDS, seed=seed, use_smote=True, k=search.best_k, rank_order=order
        )
        t4 = clock()
        return PassResult(
            wall_s=t4 - t0,
            attempted=6,  # rank, search, features, train, save, cv
            failed=0,
            outputs=(samples, search, model, fm.x, cv),
            parts={"rank_s": t1 - t0, "searchk_s": t2 - t1, "train_save_s": t3 - t2, "cv_s": t4 - t3},
            latencies_s=[t4 - t0],
        )

    def finish(self, state, j: int, result: PassResult) -> None:
        samples, search, model, x, cv = result.outputs
        curve = search.accuracy_curve
        curve_tsv = "k\taccuracy\n" + "".join(f"{k}\t{a!r}\n" for k, a in sorted(curve.items()))
        counts = cv.pooled.matrix.counts
        result.digests = {
            "curve_tsv": sha(curve_tsv),
            "best_k": str(search.best_k),
            "logits": sha(logits_repr(model, x)),
            "cv_pooled": sha(repr(counts.tolist())),
        }
        if sorted(curve) != list(range(K_MIN, K_MAX + 1)):
            result.errors.append(f"curve covers k={sorted(curve)}")
        if search.best_k != min(curve, key=lambda k: (-curve[k], k)):
            result.errors.append(f"best_k {search.best_k} is not the smallest k of best accuracy")
        actual = [sum(s.label == c for s in samples) for c in core.CLASS_ORDER]
        if counts.sum(axis=1).tolist() != actual:
            result.errors.append(f"CV row sums {counts.sum(axis=1).tolist()} != class counts {actual}")
        result.outputs = None

    def report(self, state, results) -> list[tuple[str, float, str, str]]:
        n = len(results)
        return [
            ("pipeline_s", med([r.wall_s for r in results]), "s", f"median of {n} passes"),
            ("searchk_s", med([r.parts["searchk_s"] for r in results]), "s",
             f"k={K_MIN}..{K_MAX}, median of {n}"),
            ("cv_s", med([r.parts["cv_s"] for r in results]), "s", f"{FOLDS} folds + SMOTE, median of {n}"),
        ]


class FleetScreen:
    """Batch diagnosis of a fleet's unlabeled readings by a model trained in set-up.

    The 24,064 readings come as FLEET_FILES survey files of 1504 rows; a pass
    screens one file, and passes cycle over the files.  A 0.3 s operation,
    repeated, gives a median that the host's bursts of load barely move,
    where one 5 s screen of a single file could not be measured steadily.
    """

    name = "fleet-screen"
    inputs = FLEET_FILES  # pass j screens file j % inputs
    golden_passes = FLEET_FILES
    op = "screening one file of 1504 readings"
    kernel = "rows"

    def __init__(self, work: Path, root: Path):
        self.work = work

    def setup(self, seed: int):
        counts = [c * FLEET_SCALE for c in io.DEFAULT_SYNTH_COUNTS]
        readings = draw_readings(derive(seed, 1), counts)
        per_file = len(readings) // FLEET_FILES
        paths = []
        for f in range(FLEET_FILES):
            path = self.work / f"fleet-screen-{f:02d}.csv"
            io.write_dataset(path, readings[f * per_file:(f + 1) * per_file])
            paths.append(path)
        bundle = pretrained_model(seed, self.work / "fleet-screen-model.json")
        probe = non_detect_readings(derive(seed, 3), NON_DETECT_PROBE)
        return paths, bundle, len(readings), probe

    def sizes(self, state) -> dict:
        return {"rows": state[2], "files": len(state[0]), "rows_per_file": state[2] // len(state[0]),
                "fault_probe_rows": len(state[3])}

    def run_pass(self, state, j: int) -> PassResult:
        paths, bundle = state[:2]
        rules = rule_methods()
        clock = time.perf_counter
        t0 = clock()
        samples = io.load_dataset(paths[j % len(paths)])
        t1 = clock()
        fm = features.build_features(samples, bundle.rank_order, bundle.k)
        t2 = clock()
        labels = gbt.predict_many(bundle.model, fm.x)
        t3 = clock()
        outcomes, failed = [], 0
        for s in samples:
            out, bad = rule_outcomes(s, rules)
            outcomes.append(out)
            failed += bad
        t4 = clock()
        return PassResult(
            wall_s=t4 - t0,
            attempted=3 + 3 * len(samples),  # load, features, predict, 3 rules per row
            failed=failed,
            outputs=(samples, fm.x, labels, outcomes),
            parts={"ingest_s": t1 - t0, "features_s": t2 - t1, "predict_s": t3 - t2, "rules_s": t4 - t3},
            latencies_s=[t4 - t0],
        )

    def finish(self, state, j: int, result: PassResult) -> None:
        samples, x, labels, outcomes = result.outputs
        result.digests = {
            "labels": sha(labels_text((s.id for s in samples), labels)),
            "rules": sha(rules_text(samples, outcomes)),
            "logits": sha(logits_repr(state[1].model, x)),
        }
        bad = [s.id for s, out in zip(samples, outcomes) if None in out]
        if bad:
            result.errors.append(f"a rule method failed on {len(bad)} rows, first {bad[0]}")
        # On the first sweep, every 241st row through the single-row path
        # must get its batch label.
        bundle = state[1]
        for i in range(0, len(samples) if j < self.inputs else 0, 241):
            one = features.build_features([samples[i]], bundle.rank_order, bundle.k)
            if gbt.predict_many(bundle.model, one.x)[0] != labels[i]:
                result.errors.append(f"row {samples[i].id}: single-row label differs from batch")
        result.outputs = None

    def report(self, state, results) -> list[tuple[str, float, str, str]]:
        rows, probe, n = state[2], state[3], len(results)
        attempted = sum(r.attempted for r in results)
        probe_failed = sum(rule_outcomes(s, rule_methods())[1] for s in probe)
        stage = [(name, med([r.parts[name] for r in results]), "s", f"median of {n}")
                 for name in ("ingest_s", "features_s", "predict_s", "rules_s")]
        return [
            ("screen_rows_per_s", rows / len(state[0]) / med([r.wall_s for r in results]), "1/s",
             f"{rows} rows in {len(state[0])} files, median of {n} file screens"),
            *stage,
            ("error_rate", sum(r.failed for r in results) / attempted, "ratio", f"of {attempted} operations"),
            ("fault_probe_failed", probe_failed, "count",
             f"of {3 * len(probe)} rule calls on {len(probe)} non-detect readings raise ValueError "
             "(ROADMAP item 5); not workload operations"),
        ]


class FieldSingle:
    """One client diagnosing single readings one after another (a closed loop).

    The 1128 distinct readings are taken in FIELD_SESSIONS sessions (site
    visits) of 94; a session loads the model once, then diagnoses its
    readings one at a time, and is followed by one cold
    `python -m dgadiag diagnose ... --compare` process.  Short passes let the
    calibration around each pass follow the host's speed.
    """

    name = "field-single"
    inputs = FIELD_SESSIONS  # pass j is session j % inputs
    golden_passes = 4
    op = "diagnosing one reading"
    kernel = "walk"

    def __init__(self, work: Path, root: Path):
        self.work = work
        self.root = root

    def setup(self, seed: int):
        model_path = self.work / "field-single-model.json"
        pretrained_model(seed, model_path)
        counts = [c * FIELD_SCALE for c in io.DEFAULT_SYNTH_COUNTS]
        return model_path, draw_readings(derive(seed, 2), counts)

    def sizes(self, state) -> dict:
        return {"readings": len(state[1]), "sessions": FIELD_SESSIONS,
                "readings_per_session": len(state[1]) // FIELD_SESSIONS, "cli_processes_per_session": 1}

    def session(self, state, j: int):
        readings = state[1]
        per = len(readings) // FIELD_SESSIONS
        return readings[(j % FIELD_SESSIONS) * per:(j % FIELD_SESSIONS + 1) * per]

    def run_pass(self, state, j: int) -> PassResult:
        model_path = state[0]
        readings = self.session(state, j)
        rules = rule_methods()
        clock = time.perf_counter
        latencies, results, failed = [], [], 0
        t0 = clock()
        bundle = io.load_model(model_path)
        for r in readings:
            a = clock()
            fm = features.build_features([r], bundle.rank_order, bundle.k)
            label = gbt.predict_many(bundle.model, fm.x)[0]
            out, bad = rule_outcomes(r, rules)
            latencies.append(clock() - a)
            failed += bad
            results.append((label.value, *out))
        t1 = clock()
        return PassResult(
            wall_s=t1 - t0,
            attempted=1 + 5 * len(readings),  # load, then features, predict, 3 rules each
            failed=failed,
            outputs=(readings, results),
            latencies_s=latencies,
        )

    def finish(self, state, j: int, result: PassResult) -> None:
        model_path = state[0]
        readings, results = result.outputs
        ids = [r.id for r in readings]
        result.digests = {
            "labels": sha("\n".join(f"{i}\t{res[0]}" for i, res in zip(ids, results))),
            "rules": sha("\n".join(f"{i}\t{d}\t{ro}\t{e}" for i, (_, d, ro, e) in zip(ids, results))),
        }
        # The per-reading labels must equal one batch prediction of the session.
        bundle = io.load_model(model_path)
        batch = gbt.predict_many(bundle.model, features.build_features(readings, bundle.rank_order, bundle.k).x)
        if [p.value for p in batch] != [res[0] for res in results]:
            result.errors.append("single-reading labels differ from the batch labels")
        # One cold CLI diagnosis of a reading of this session; it must agree with the API.
        i = (j // FIELD_SESSIONS) % len(readings)
        cmd = [sys.executable, "-m", "dgadiag", "diagnose"]
        for gas, value in zip(core.GAS_NAMES, readings[i].gases()):
            cmd += [f"--{gas}", repr(value)]
        cmd += ["--model", str(model_path), "--compare"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True, timeout=60)
        result.cold_s.append(time.perf_counter() - t0)
        # columns: id h2 ch4 c2h6 c2h4 c2h2 actual duval rogers iec predicted
        cols = proc.stdout.rstrip("\n").split("\n")[-1].split("\t")
        got = (cols[10], cols[7], cols[8], cols[9]) if len(cols) == 11 else None
        if proc.returncode != 0 or got != results[i]:
            result.errors.append(
                f"CLI diagnose of {readings[i].id}: exit {proc.returncode}, got {got}, API {results[i]}"
            )
        result.attempted += 1
        result.outputs = None

    def report(self, state, results) -> list[tuple[str, float, str, str]]:
        lat = [x for r in results for x in r.latencies_s]
        cold = [x for r in results for x in r.cold_s]
        n = len(lat)
        beyond = n - int(np.ceil(0.99 * n))
        return [
            ("reading_p50_ms", 1e3 * float(np.percentile(lat, 50)), "ms", f"{n} readings"),
            ("reading_p99_ms", 1e3 * float(np.percentile(lat, 99)), "ms", f"{n} readings, {beyond} beyond p99"),
            ("session_s", med([r.wall_s for r in results]), "s",
             f"load_model + {len(state[1]) // FIELD_SESSIONS} readings, median of {len(results)}"),
            ("cli_cold_p50_s", med(cold), "s", f"{len(cold)} cold processes"),
        ]


WORKLOADS = {"model-dev": ModelDev, "fleet-screen": FleetScreen, "field-single": FieldSingle}


def cli_import_s(root: Path, repeats: int = 3) -> float:
    """Median wall time of a process that only imports dgadiag.cli."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dgadiag.cli"], cwd=root, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return med(times)
