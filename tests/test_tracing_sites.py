"""The benchmark's span tracer still finds every package site it wraps.

``perfbench/tracing.py`` wraps package attributes by name and silently skips
a missing one, so a rename in ``src/`` would zero the per-layer metrics
without failing the benchmark.  This test fails instead.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPECTED_SPANS = {
    "data.load",
    "data.distance_matrix",
    "graph.build",
    "graph.knn",
    "graph.sigma_x",
    "graph.weights",
    "graph.upper",
    "graph.knn_positions",
    "graph.match_structure",
    "laplacian.build",
    "laplacian.apply",
    "diffusivity.sqnorms",
    "diffusivity.smooth",
    "diffusivity.plain",
    "diffusivity.local_match",
    "diffusion.run",
    "baselines.grf",
    "diffusion.init",
    "diffusion.snapshots",
    "diffusion.step",
    "diffusion.warm_start",
    "diffusivity.variant",
    "evaluation.benchmark",
    "graph.mutual_structure",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_record_every_layer_span(tmp_path):
    from anisodiff import data, diffusion, evaluation, graph

    tracer = _load_tracing().Tracer()
    moons = data.two_moons(40, 0.15, seed=2)
    fpath, lpath = tmp_path / "features.txt", tmp_path / "labels.txt"
    data.write_features(moons.features, fpath)
    data.write_labels(moons.labels, lpath)
    tracer.install()
    try:
        # read after install, so the file readers are traced too
        X = data.read_features(fpath)
        y, _ = data.read_labels(lpath, len(X))
        ds = data.Dataset("traced", y, features=X)
        # graphs built after install, so their lazy structures are traced
        g = graph.build_knn_graph(ds.distance_matrix, 4)
        state = diffusion.init_labels([(0, 0), (39, 1)], 40, 2)
        config = diffusion.DiffusionConfig(
            K=4, T=3, sigma_f=0.2, warm_start_steps=2, variant="smooth", mode="nonlinear"
        )
        result = diffusion.run_diffusion(config, g, state)
        for variant in ("plain", "local_match"):
            diffusion.run_diffusion(replace(config, variant=variant), g, state)
        grid = evaluation.GridSpec(
            K_values=(4,), T_values=(1, 2), sigma_f_values=(0.5,), variant="smooth"
        )
        evaluation.grid_search(grid, ds, data.split_labels(ds, 4, 0))
        evaluation.benchmark(ds, ["GRF"], [0], grid, train_labels=4)
    finally:
        tracer.uninstall()
    assert np.isfinite(result.f).all()
    names = {span[0] for span in tracer.spans}
    assert EXPECTED_SPANS <= names, sorted(EXPECTED_SPANS - names)
    assert "evaluation.grid_search.A_S" in names
