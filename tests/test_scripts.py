"""The example script runs end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_run_two_moons(tmp_path):
    trace = tmp_path / "trace.csv"
    proc = run_script("run_two_moons.py", "--n", 60, "--K", 5, "--T", 5, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("n=60 ")
    assert len(lines) == 7 and all("error" in ln for ln in lines[1:])
    assert len(trace.read_text().splitlines()) == 6  # t = 0 .. T
