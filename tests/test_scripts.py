"""Tests of the experiment scripts and of a bare CLI import, run as separate
processes; the pipeline script is checked against the library calls its
subcommands stand for."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgadiag
from dgadiag import (
    GbtConfig,
    ModelBundle,
    build_features,
    generate_synthetic,
    kfold_cv,
    optimal_k_search,
    rank_params,
    save_model,
    train,
    write_dataset,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_python(*argv, cwd):
    # the child imports the same dgadiag as this test, installed or not
    src = os.path.dirname(os.path.dirname(dgadiag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )


def run_script(name, *argv, cwd):
    return run_python(str(SCRIPTS / name), *argv, cwd=cwd)


def test_run_pipeline(tmp_path):
    # the script's CLI steps reproduce the library sequence it replaced
    proc = run_script(
        "run_pipeline.py", "--rounds", "3", "--kmin", "18", "--kmax", "19",
        "--folds", "2", "--out-dir", "run", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    config = GbtConfig(rounds=3)
    samples = generate_synthetic(11)
    write_dataset(tmp_path / "synthetic.csv", samples)
    order = rank_params(samples)
    search = optimal_k_search(samples, order, k_min=18, k_max=19, split_seed=11, config=config)
    fm = build_features(samples, order, search.best_k)
    model = train(fm.x, fm.labels, config=config, seed=11)
    save_model(tmp_path / "model.json", ModelBundle(model=model, rank_order=order, k=search.best_k))
    cv = kfold_cv(samples, order, search.best_k, folds=2, seed=11, use_smote=True, config=config)

    out_dir = tmp_path / "run"
    for name in ("synthetic.csv", "model.json"):
        assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
    header, *rows = (out_dir / "accuracy_curve.tsv").read_text().splitlines()
    assert header == "k\taccuracy"
    assert rows == [f"{k}\t{acc!r}" for k, acc in sorted(search.accuracy_curve.items())]
    stdout = proc.stdout.splitlines()
    assert f"best_k\t{search.best_k}" in stdout
    for name in ("accuracy", "kappa", "macro_f1"):
        assert f"{name}\t{getattr(cv.pooled, name):.4f}" in stdout


@pytest.mark.parametrize("argv, code, message", [
    (["--data", "bad.csv"], 1, "error: bad.csv:2: gas ch4 is not a number: 'x'\n"),
    (["--kmin", "40"], 1, "error: k_min 40 exceeds k_max 37\n"),
    (["--seed", "-1"], 1, "error: --seed must be a non-negative integer, got -1\n"),
    (["--out-dir", "bad.csv"], 2, "i/o error: "),  # the rest is the OS's wording
], ids=["bad-gas", "kmin-above-kmax", "negative-seed", "out-dir-is-a-file"])
def test_run_pipeline_fails_with_one_error_line(tmp_path, argv, code, message):
    (tmp_path / "bad.csv").write_text("id,h2,ch4,c2h6,c2h4,c2h2,label\n1,1,x,1,1,1,D1\n")
    proc = run_script("run_pipeline.py", "--rounds", "3", "--out-dir", "run", *argv, cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr.startswith(message) and len(proc.stderr.splitlines()) == 1, proc.stderr


def test_reproduce_reference(tmp_path):
    proc = run_script("reproduce_reference.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "accuracy\t95.35\t(recorded 95.35)" in proc.stdout.splitlines()


def test_cli_needs_only_numpy(tmp_path):
    # the test-only dependencies must not leak into the runtime import graph
    proc = run_python("-c", "import sys, dgadiag.cli; print(*sys.modules)", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "numpy" in loaded
    assert not loaded & {"scipy", "hypothesis", "pytest"}
