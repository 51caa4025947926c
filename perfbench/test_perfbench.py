"""Tests of the benchmark itself: smoke runs, the output checks, the spec.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from anisodiff.diffusion import DiffusionConfig, init_labels, run_diffusion  # noqa: E402
from anisodiff.diffusivity import variant_weights  # noqa: E402
from anisodiff.graph import build_knn_graph, pairwise_distances  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 3
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["diffusion.steps"]["value"] > 0


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "lm_blobs1500", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_knn_check_catches_a_wrong_list():
    X, _ = workloads.two_moons(80, 0.1, workloads._rng(0))
    graph = build_knn_graph(pairwise_distances(X), 5)
    rows = checks.sample(20, len(X), 0)
    assert checks.knn_problems(X, graph.neighborhoods, rows) == []
    wrong = graph.neighborhoods.copy()
    wrong[rows[3], [1, 2]] = wrong[rows[3], [2, 1]]
    assert checks.knn_problems(X, wrong, rows)


def test_knn_check_breaks_ties_by_index():
    # integer grid: every point has several neighbors at equal distance
    X = np.array([(a, b) for a in range(6) for b in range(6)], dtype=float)
    graph = build_knn_graph(pairwise_distances(X), 4)
    rows = np.arange(len(X))
    assert checks.knn_problems(X, graph.neighborhoods, rows) == []
    wrong = graph.neighborhoods.copy()
    wrong[14] = wrong[14][::-1]  # interior point: 4 neighbors at distance 1
    assert checks.knn_problems(X, wrong, rows)


@pytest.fixture
def lm_case():
    rng = workloads._rng(1)
    X, y = workloads.blobs(90, 3, 4.0, 3, rng)
    graph = build_knn_graph(pairwise_distances(X), 5)
    f = rng.random((90, 3))
    edges = checks.sample(40, graph.weights.nnz, 1)
    return graph, f, edges


def test_local_match_check_accepts_the_package_field(lm_case):
    graph, f, edges = lm_case
    wD = variant_weights(graph, f, 0.3, "local_match").wD
    assert checks.local_match_problems(graph, f, 0.3, wD, edges) == []


def test_local_match_check_catches_a_wrong_field(lm_case):
    graph, f, edges = lm_case
    plain = variant_weights(graph, f, 0.3, "plain").wD
    assert checks.local_match_problems(graph, f, 0.3, plain, edges)

    wD = variant_weights(graph, f, 0.3, "local_match").wD.copy()
    mirror = checks.mirror_positions(graph.weights.indptr, graph.weights.indices)
    p = edges[5]
    wD[[p, mirror[p]]] *= 1 + 1e-9  # still symmetric and positive
    assert checks.local_match_problems(graph, f, 0.3, wD, edges)

    wD[mirror[p]] *= 1 + 1e-9  # now asymmetric as well
    assert checks.local_match_problems(graph, f, 0.3, wD, np.array([], dtype=np.int64))


def test_energy_check_follows_the_field_the_loop_used(lm_case):
    graph, _, _ = lm_case
    state = init_labels([(0, 0), (40, 1), (80, 2), (7, 0)], graph.n, 3)
    config = DiffusionConfig(K=5, T=1, sigma_f=0.3, delta=0.5, warm_start_steps=0,
                             variant="local_match", mode="nonlinear")
    out = run_diffusion(config, graph, state)
    assert checks.local_match_energy_problems(graph, state.f, 0.3, out.energies[0]) == []

    # a loop that builds its first field another way
    smooth = run_diffusion(replace(config, variant="smooth"), graph, state)
    assert checks.local_match_energy_problems(graph, state.f, 0.3, smooth.energies[0])
    assert checks.local_match_energy_problems(graph, state.f, 0.3, out.energies[0] * (1 + 1e-9))
