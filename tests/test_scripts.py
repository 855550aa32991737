"""Smoke tests of the experiment scripts and of a bare CLI import, run as
separate processes."""

import os
import subprocess
import sys
from pathlib import Path

import dgadiag
from dgadiag.io import load_model

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
    proc = run_script(
        "run_pipeline.py", "--rounds", "3", "--kmin", "18", "--kmax", "19",
        "--folds", "2", "--out-dir", "tmp", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out_dir = tmp_path / "tmp"
    curve = (out_dir / "accuracy_curve.tsv").read_text().splitlines()
    assert len(curve) == 3
    assert curve[0] == "k\taccuracy"
    bundle = load_model(out_dir / "model.json")
    assert bundle.model.config.rounds == 3
    assert bundle.k in (18, 19)


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
