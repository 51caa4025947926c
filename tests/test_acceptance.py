"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The two-moons comparison (criteria 6 and 7) shares a single
10-seed benchmark run through a module fixture.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

import anisodiff as ad
from anisodiff.diffusivity import variant_weights
from anisodiff.graph import Graph

from oracles import (
    dense_anisotropic_apply,
    dense_isotropic_apply,
    gaussian_diffusivity_bruteforce,
    harmonic_bruteforce,
    local_match_weights_bruteforce,
    smooth_weights_bruteforce,
)


VARIANTS = ("plain", "smooth", "local_match")


def _report(num, desc, ok):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _connected_graphs(n, K_choices, count, start_seed=0):
    """Deterministically scan seeds for `count` connected kNN graphs."""
    graphs = []
    seed = start_seed
    while len(graphs) < count:
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        K = K_choices[len(graphs) % len(K_choices)]
        g = ad.build_knn_graph(ad.pairwise_distances(X), K)
        if g.num_components == 1:
            graphs.append((g, rng))
        seed += 1
        assert seed < start_seed + 400, "could not collect connected graphs"
    return graphs


@pytest.fixture(scope="module")
def null_space_graphs():
    return _connected_graphs(200, (5, 10), 20)


def test_criterion_1_null_space(null_space_graphs):
    t0 = time.perf_counter()
    worst = 0.0
    for g, rng in null_space_graphs:
        ones = np.ones((g.n, 1))
        worst = max(worst, float(np.abs(ad.LaplacianOperator(g)(ones)).max()))
        f0 = rng.normal(size=(g.n, 3))
        for variant in VARIANTS:
            wd = variant_weights(g, f0, 0.3, variant)
            worst = max(
                worst, float(np.abs(ad.LaplacianOperator(g, wd)(ones)).max())
            )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"|L 1|_inf and |L^D 1|_inf = {worst:.2e} < 1e-12 on 20 connected "
        f"graphs (n=200, K in {{5,10}}), {elapsed:.1f}s < 10s",
        worst < 1e-12 and elapsed < 10.0,
    )


def test_criterion_2_pd_condition(null_space_graphs):
    fields_ok = True
    worst_form = np.inf
    for g, rng in null_space_graphs[:20]:
        f0 = rng.normal(size=(g.n, 2))
        wds = [variant_weights(g, f0, 0.4, v) for v in VARIANTS]
        for wd in wds:
            fields_ok &= bool((wd.wD > 0).all())
            fields_ok &= bool(np.array_equal(wd.wD[g.mirror], wd.wD))
        for k in range(100):
            f = rng.normal(size=(g.n, 2))
            wd = wds[k % len(wds)]
            Lf = ad.LaplacianOperator(g, wd)(f)
            form = float(np.sum(g.degrees[:, None] * f * Lf))
            worst_form = min(worst_form, form)
    _report(
        2,
        f"w^D strictly positive and exactly symmetric; degree-weighted form "
        f">= {worst_form:.2e} > -1e-10 over 100 random f per graph",
        fields_ok and worst_form >= -1e-10,
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_sparse = 0.0
    worst_grf = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 51))
        K = int(rng.integers(2, min(n - 1, 6) + 1))
        c = int(rng.integers(1, 4))
        X = rng.normal(size=(n, 2))
        g = ad.build_knn_graph(ad.pairwise_distances(X), K)
        W = g.weights.toarray()
        f = rng.normal(size=(n, c))
        sigma_f = float(rng.uniform(0.2, 1.0))

        out = ad.LaplacianOperator(g)(f)
        worst_sparse = max(
            worst_sparse,
            float(np.abs(out - dense_isotropic_apply(W, g.degrees, f)).max()),
        )

        q = ad.gaussian_diffusivity(g, f, sigma_f)
        Q = gaussian_diffusivity_bruteforce(W, f, sigma_f)

        wd_s = ad.smooth_weights(g, q)
        dense_s = np.zeros((n, n))
        dense_s[g.rows, g.weights.indices] = wd_s.wD
        worst_sparse = max(
            worst_sparse,
            float(np.abs(dense_s - smooth_weights_bruteforce(W, Q, g.neighborhoods)).max()),
        )

        wd_lm = ad.local_match_weights(g, q, f, sigma_f)
        dense_lm = np.zeros((n, n))
        dense_lm[g.rows, g.weights.indices] = wd_lm.wD
        worst_sparse = max(
            worst_sparse,
            float(
                np.abs(
                    dense_lm
                    - local_match_weights_bruteforce(W, Q, g.neighborhoods, f, sigma_f)
                ).max()
            ),
        )

        out = ad.LaplacianOperator(g, wd_s)(f)
        WD = np.zeros((n, n))
        WD[g.rows, g.weights.indices] = wd_s.wD
        worst_sparse = max(
            worst_sparse,
            float(np.abs(out - dense_anisotropic_apply(WD, g.degrees, f)).max()),
        )

        if g.num_components == 1:
            k = int(rng.integers(2, 6))
            labeled = rng.choice(n, k, replace=False)
            state = ad.init_labels(
                [(int(i), int(rng.integers(0, 2))) for i in labeled], n, 2
            )
            sol = ad.grf_harmonic(g, state)
            ref = harmonic_bruteforce(W, state.f, state.labeled_mask)
            worst_grf = max(worst_grf, float(np.abs(sol.f - ref).max()))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        f"sparse ops vs dense oracles: {worst_sparse:.2e} < 1e-12, "
        f"harmonic {worst_grf:.2e} < 1e-8, {elapsed:.1f}s < 30s",
        worst_sparse < 1e-12 and worst_grf < 1e-8 and elapsed < 30.0,
    )


def test_criterion_4_energy_descent():
    rng = np.random.default_rng(321)
    worst_rise = -np.inf
    for trial in range(10):
        n = int(rng.integers(25, 60))
        K = int(rng.integers(3, 7))
        X = rng.normal(size=(n, 2))
        g = ad.build_knn_graph(ad.pairwise_distances(X), K)
        f = rng.normal(size=(n, 2))
        wd = variant_weights(g, f, 0.5, VARIANTS[trial % 3])
        prev = ad.regularizer_energy(g, wd, f)
        for _ in range(100):
            f = ad.LaplacianOperator(g, wd).step(f, 0.4)
            e = ad.regularizer_energy(g, wd, f)
            worst_rise = max(worst_rise, e - prev)
            prev = e
    _report(
        4,
        f"frozen w^D, delta=0.4: max per-step energy rise {worst_rise:.2e} "
        f"<= 1e-10 across 100 steps x 10 trials",
        worst_rise <= 1e-10,
    )


def test_criterion_5_convergence_to_constant():
    ds = ad.two_moons(300, 0.1, seed=1)
    g = ad.build_knn_graph(ds.distance_matrix, 20)
    assert g.num_components == 1
    rng = np.random.default_rng(0)
    f = rng.normal(size=(300, 2))
    spread0 = f.max(axis=0) - f.min(axis=0)
    f = ad.warm_start(g, f, 10_000, 1.0)
    ratio = float(((f.max(axis=0) - f.min(axis=0)) / spread0).max())
    _report(
        5,
        f"10,000 isotropic steps at delta=1 on connected two-moons (n=300): "
        f"spread ratio {ratio:.2e} < 1e-6",
        ratio < 1e-6,
    )


@pytest.fixture(scope="module")
def moons_benchmark():
    ds = ad.two_moons(600, 0.1, seed=0)
    t0 = time.perf_counter()
    report = ad.benchmark(
        ds,
        ["I", "A_lin", "A_nlin", "A_S", "A_LM"],
        list(range(10)),
        ad.GridSpec(),
        train_labels=4,  # 2 train + 2 validation labels per class
    )
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_6_semi_supervised_improvement(moons_benchmark):
    report, elapsed = moons_benchmark
    rows = {r.method: r for r in report.rows}
    nlin = rows["A_nlin"].mean_error
    iso = rows["I"].mean_error
    best_ctx = min(rows["A_S"].mean_error, rows["A_LM"].mean_error)
    ok = nlin <= iso and best_ctx <= nlin + 1.0 and elapsed < 300.0
    _report(
        6,
        f"two-moons 10 seeds: A_nlin {nlin:.2f} <= I {iso:.2f}; "
        f"best context {best_ctx:.2f} <= A_nlin + 1.0; {elapsed:.0f}s < 300s",
        ok,
    )


def test_criterion_7_linear_vs_nonlinear(moons_benchmark):
    report, _ = moons_benchmark
    rows = {r.method: r for r in report.rows}
    wins = sum(
        1
        for a, b in zip(rows["A_nlin"].errors, rows["A_lin"].errors)
        if a <= b
    )
    _report(
        7,
        f"A_nlin error <= A_lin error on {wins} of 10 seeds (need >= 7)",
        wins >= 7,
    )


def test_criterion_8_throughput():
    ds = ad.gaussian_blobs(1500, 10, 8.0, 10, seed=0)
    g = ad.build_knn_graph(ds.distance_matrix, 10)
    split = ad.split_labels(ds, 100, seed=0)
    state = ad.init_labels(
        zip(split.train, ds.labels[split.train]), ds.n, ds.c
    )
    base = dict(
        K=10, sigma_f=0.5, delta=0.5, warm_start_steps=0,
        variant="local_match", mode="nonlinear",
    )
    # warm-up run: builds the cached graph structures, including the
    # local-match cross-pair map, outside the timed call
    ad.run_diffusion(ad.DiffusionConfig(T=2, **base), g, state)
    t0 = time.perf_counter()
    ad.run_diffusion(ad.DiffusionConfig(T=100, **base), g, state)
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"100 local-match iterations (n=1500, K=10, c=10) in {elapsed:.2f}s < 2.0s",
        elapsed < 2.0,
    )


def test_criterion_9_grf_sanity():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    g = Graph(sp.csr_array(W))
    state = ad.init_labels([(0, 0), (2, 1)], 3, 2)
    sol = ad.grf_harmonic(g, state)
    mid_ok = abs(sol.f[1, 0] - 0.5) <= 1e-12 and abs(sol.f[1, 1] - 0.5) <= 1e-12

    rng = np.random.default_rng(77)
    principle_ok = True
    built = 0
    while built < 20:
        n = int(rng.integers(15, 60))
        X = rng.normal(size=(n, 2))
        g = ad.build_knn_graph(ad.pairwise_distances(X), int(rng.integers(3, 7)))
        if g.num_components != 1:
            continue
        built += 1
        k = int(rng.integers(2, 6))
        labeled = rng.choice(n, k, replace=False)
        state = ad.init_labels(
            [(int(i), int(rng.integers(0, 2))) for i in labeled], n, 2
        )
        sol = ad.grf_harmonic(g, state)
        unl = ~state.labeled_mask
        for col in range(2):
            lab = state.f[state.labeled_mask, col]
            principle_ok &= bool(sol.f[unl, col].min() >= lab.min() - 1e-8)
            principle_ok &= bool(sol.f[unl, col].max() <= lab.max() + 1e-8)
    _report(
        9,
        "path-graph harmonic midpoint exactly 0.5; maximum principle on 20 "
        "random instances",
        mid_ok and principle_ok,
    )


def test_criterion_10_determinism(tmp_path):
    from anisodiff.cli import main

    data_dir = tmp_path / "data"
    code = main(
        ["synth", "--kind", "two-moons", "--n", "120", "--noise", "0.1",
         "--seed", "4", "--out", str(data_dir)]
    )
    assert code == 0
    args = [
        "benchmark",
        "--features", str(data_dir / "features.txt"),
        "--labels", str(data_dir / "labels.txt"),
        "--methods", "I,A_S,GRF",
        "--seeds", "0,1",
        "--train-labels", "4",
        "--grid-K", "5,10",
        "--grid-T", "10,50",
        "--grid-sigma-f", "0.1,0.5",
    ]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    same = (
        (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        and (tmp_path / "r1.kv").read_bytes() == (tmp_path / "r2.kv").read_bytes()
    )
    _report(10, "repeated benchmark command emits byte-identical reports", same)
