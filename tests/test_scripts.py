"""The example scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--classes", 4, "--separation", 3], "--classes applies to --dataset blobs only"),
        (["--dataset", "blobs", "--noise", 0.5], "--noise applies to --dataset two-moons only"),
    ],
)
def test_benchmark_variants_rejects_the_other_datasets_flags(tmp_path, extra, message):
    out = tmp_path / "report"
    proc = run_script("benchmark_variants.py", "--n", 60, "--seeds", 0, "--out", out, *extra)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not list(tmp_path.iterdir())


def test_benchmark_variants(tmp_path):
    out = tmp_path / "report"
    proc = run_script(
        "benchmark_variants.py", "--n", 60, "--methods", "I,GRF", "--seeds", 0, "--out", out
    )
    assert proc.returncode == 0, proc.stderr
    kv = (tmp_path / "report.kv").read_text().splitlines()
    assert "seeds=0" in kv
    assert [ln.split()[0] for ln in kv if ln.startswith("method=")] == ["method=I", "method=GRF"]
    table = (tmp_path / "report.txt").read_text()
    assert table.startswith("dataset: two-moons\n")
    assert "mean_seconds" not in table
