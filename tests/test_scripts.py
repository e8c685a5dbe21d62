"""The example scripts run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_incomparability_demo_runs():
    res = _run_script("scripts/incomparability_demo.py")
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr


def test_zonotope_gallery_runs(tmp_path):
    res = _run_script("scripts/zonotope_gallery.py", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "extremal.csv", "flat.csv", "skew_14_34.csv", "skew_18_12.csv",
        "three_outcome.csv"]


def test_replay_runs():
    res = _run_script("scripts/replay.py")
    assert res.returncode == 0 and "Traceback" not in res.stderr, res.stderr
