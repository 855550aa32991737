#!/usr/bin/env python3
"""dgadiag benchmark: three workloads against the public API and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload model-dev --seed 1 --seconds 30 --trace 0

The program is imported from ./src.  A run first runs the workload on the
golden seed, whose digests must equal perfbench/expected.json (this also
warms the process up), then sets up its inputs from --seed (timed
SETUP_REPEATS times), then repeats passes for --seconds.  Every time it
reports is scaled to a reference host speed by calibrate.py.  With --trace 0 the last stdout line reports the end-to-end
metrics; with --trace 1 it reports per-layer metrics from spans recorded
around every public dgadiag function, with each traced pass paired with an
untraced pass on the same input to measure the tracing overhead.  The lines
before it are a readable table (the workload's own metrics by name, with
units and sample counts) and the run's provenance as JSON.

`--write-expected` recomputes perfbench/expected.json from the golden seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"

WORKLOAD_NAMES = ("model-dev", "fleet-screen", "field-single")
GOLDEN_SEED = 11
SETUP_REPEATS = 7
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_expected:
        p.error("--workload is required")
    return args


def import_program():
    """Import dgadiag from this checkout's src/, and nowhere else."""
    if not (SRC / "dgadiag" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dgadiag sources at {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import dgadiag

    if Path(dgadiag.__file__).resolve().parent != (SRC / "dgadiag").resolve():
        raise SystemExit(f"perfbench: imported dgadiag from {dgadiag.__file__}, not {SRC}")
    import dgadiag.cli  # noqa: F401  (a traced layer)


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def repeat_for(seconds: float, step) -> None:
    """Call step(0), step(1), ... while the next call is expected to end in time; at least once."""
    start = time.perf_counter()
    j = 0
    while True:
        step(j)
        j += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / j > seconds:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(workload: str, seed: int, sizes: dict, extra: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "golden_seed": GOLDEN_SEED,
        "input": sizes,
        **extra,
    }


def source_digest() -> str:
    """sha256 over the paths and bytes of every file under src/dgadiag, for runs outside git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "dgadiag").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def golden_pass(W, name: str, work: Path):
    """Digests and errors of the workload's golden passes; they also warm the process up."""
    wl = W.WORKLOADS[name](work, ROOT)
    state = wl.setup(GOLDEN_SEED)
    results = []
    for j in range(wl.golden_passes):
        results.append(wl.run_pass(state, j))
        wl.finish(state, j, results[-1])
    if len(results) == 1:
        return results[0].digests, results[0].errors
    digests = {key: W.sha("\n".join(r.digests[key] for r in results)) for key in results[0].digests}
    return digests, [e for r in results for e in r.errors]


def write_expected(W, work: Path) -> int:
    doc = {}
    for name in WORKLOAD_NAMES:
        digests, errors = golden_pass(W, name, work)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        doc[name] = digests
    EXPECTED.write_text(json.dumps({"seed": GOLDEN_SEED, "digests": doc}, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def check_golden(golden, name: str) -> list[str]:
    digests, errors = golden
    expected = json.loads(EXPECTED.read_text())
    if expected["seed"] != GOLDEN_SEED:
        return [f"{EXPECTED.name} is for seed {expected['seed']}, not {GOLDEN_SEED}"]
    want = expected["digests"][name]
    return [
        f"golden {name} {key}: got {digests.get(key)}, expected {value}"
        for key, value in want.items()
        if digests.get(key) != value
    ] + errors


def normalize(result, factor: float) -> None:
    """Scale a pass's times to the reference speed."""
    result.speed = factor
    result.wall_s *= factor
    result.parts = {k: v * factor for k, v in result.parts.items()}
    result.latencies_s = [x * factor for x in result.latencies_s]
    result.cold_s = [x * factor for x in result.cold_s]


def run(args, work: Path) -> int:
    import calibrate
    import layers
    import workloads as W
    from spans import Tracer

    errors = check_golden(golden_pass(W, args.workload, work), args.workload)

    wl = W.WORKLOADS[args.workload](work, ROOT)
    ref_s = calibrate.REF_S[wl.kernel]

    # Set-up is mostly per-row interpreter work (drawing, writing and parsing
    # rows) in every workload, so the `rows` kernel calibrates it.
    blocks = [calibrate.block("rows")]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        raw = time.perf_counter() - t0
        blocks.append(calibrate.block("rows", raw))
        setup_s.append(raw * calibrate.REF_S["rows"] / median(blocks[-2] + blocks[-1]))

    passes, traced = [], []
    tracer = Tracer([sys.modules[f"dgadiag.{m}"] for m in layers.LAYERS], layers.COUNTERS)
    blocks = [calibrate.block(wl.kernel)]

    def calibrated(result):
        """Scale the pass's times by the kernel blocks just before and after it."""
        blocks.append(calibrate.block(wl.kernel, result.wall_s))
        normalize(result, ref_s / median(blocks[-2] + blocks[-1]))
        return result

    def untraced_step(j):
        result = wl.run_pass(state, j)
        wl.finish(state, j, result)
        passes.append(calibrated(result))

    def traced_step(j):
        # Same input for every pass, so traced and untraced passes compare
        # and the traced counts must repeat exactly.
        result = wl.run_pass(state, 0)
        wl.finish(state, j, result)
        passes.append(calibrated(result))
        first = len(tracer.spans)
        tracer.install()
        try:
            result = wl.run_pass(state, 0)
        finally:
            tracer.uninstall()
        last = len(tracer.spans)
        wl.finish(state, j, result)
        metrics = layers.pass_metrics(tracer.spans, first, last, int(result.wall_s * 1e9))
        calibrated(result)
        for name, (unit, _) in layers.PER_LAYER.items():
            if unit == "s" and name in metrics:
                metrics[name] *= result.speed
        traced.append((result, metrics))
        if result.digests != passes[-1].digests:
            errors.append("traced pass outputs differ from the untraced pass on the same input")

    repeat_for(args.seconds, traced_step if args.trace else untraced_step)

    for j, r in enumerate(passes):
        errors += r.errors
        if r.digests != passes[j % wl.inputs].digests:
            errors.append(f"pass {j} outputs differ from pass {j % wl.inputs} on the same input")
    for r, _ in traced:
        errors += r.errors
    attempted = sum(r.attempted for r in passes) + sum(r.attempted for r, _ in traced)
    failed = sum(r.failed for r in passes) + sum(r.failed for r, _ in traced)
    kernel_s = median([t for b in blocks for t in b])
    extra = {
        "seconds": args.seconds,
        "kernel": wl.kernel,
        "kernel_median_s": kernel_s,
        "setup_s": setup_s,
        "pass_s": [r.wall_s for r in passes],
        "pass_speed": [r.speed for r in passes],
        "traced_pass_s": [r.wall_s for r, _ in traced],
    }

    print(f"# dgadiag benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# times are at reference speed: calibration kernel '{wl.kernel}' at {ref_s * 1e3:g} ms; "
          f"in this run its median was {kernel_s * 1e3:.4f} ms")
    if args.trace:
        per_pass = [m for _, m in traced]
        metrics = {name: sum(m[name] for m in per_pass) / len(per_pass) for name in per_pass[0]}
        for name in layers.EXACT:
            if len({m[name] for m in per_pass}) > 1:
                errors.append(f"{name} differs between traced passes of the same input")
        metrics["trace.overhead_ratio"] = (
            median([r.wall_s for r, _ in traced]) / median([r.wall_s for r in passes]) - 1.0
        )
        metrics["error_rate"] = failed / attempted
        metrics["cli.import_s"] = (
            W.cli_import_s(ROOT) * ref_s / kernel_s if args.workload == "field-single" else 0.0
        )
        out = {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in layers.PER_LAYER.items()}
        extra["gbt.train.nodes"] = metrics["gbt.train.nodes"]
        extra["gbt.train.split_tree_ratio"] = metrics["gbt.train.split_tree_ratio"]
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.tsv")
        table = [(name, v["value"], v["unit"], f"per pass, {len(traced)} traced") for name, v in out.items()]
    else:
        ops = [x for r in passes for x in r.latencies_s]
        values = {
            "setup_s": median(setup_s),
            "op_p50_ms": 1e3 * median(ops),
            "peak_rss_mb": peak_rss_mb(),
        }
        out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        table = [
            ("setup_s", values["setup_s"], "s", f"median of {SETUP_REPEATS} set-ups"),
            ("op_p50_ms", values["op_p50_ms"], "ms", f"median of {len(ops)} operations: {wl.op}"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", "whole run"),
            *wl.report(state, passes),
        ]
    for name, value, unit, note in table:
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    for e in errors:
        print(f"perfbench: INCORRECT: {e}", file=sys.stderr)

    prov = provenance(args.workload, args.seed, wl.sizes(state), extra)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": out}
    WORK.joinpath(f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads as W

    # Inputs and models go to a directory of this process's own, so that
    # runs sharing a checkout cannot overwrite each other's files.
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_expected:
            return write_expected(W, work)
        return run(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
