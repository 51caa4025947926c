import contextlib
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from anisodiff.diffusion import (
    MODES,
    DiffusionConfig,
    LabelState,
    _trajectory,
    decode_labels,
    init_labels,
    run_diffusion,
    warm_start,
    write_energy_trace,
)
from anisodiff.diffusivity import VARIANTS, variant_weights
from anisodiff.errors import DivergenceError, InputError, ParameterError
from anisodiff.graph import Graph
from anisodiff.laplacian import LaplacianOperator, regularizer_energy

from oracles import (
    dense_anisotropic_apply,
    dense_isotropic_apply,
    random_knn_graph,
    trajectory_rebuild,
)

ROOT = Path(__file__).resolve().parent.parent


def two_node_graph():
    W = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return Graph(W)


class TestInitLabels:
    def test_single_label(self):
        state = init_labels([(0, 1)], 3, 2)
        assert state.f.tolist() == [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        assert state.labeled_mask.tolist() == [True, False, False]

    def test_no_labels(self):
        state = init_labels([], 4, 3)
        assert not state.f.any()
        assert not state.labeled_mask.any()

    def test_all_labeled_rows_one_hot(self):
        state = init_labels([(i, i % 3) for i in range(6)], 6, 3)
        assert state.labeled_mask.all()
        assert np.array_equal(state.f.sum(axis=1), np.ones(6))

    def test_duplicate_index_rejected(self):
        with pytest.raises(InputError):
            init_labels([(1, 0), (1, 1)], 3, 2)

    @pytest.mark.parametrize("n, c", [(0, 2), (3, 0)])
    def test_empty_shape_rejected(self, n, c):
        with pytest.raises(ParameterError, match=f"need n >= 1 and c >= 1, got n={n}, c={c}"):
            init_labels([], n, c)

    def test_class_out_of_range(self):
        with pytest.raises(InputError):
            init_labels([(0, 2)], 3, 2)

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            init_labels([(3, 0)], 3, 2)

    def test_fractional_index_or_class_rejected(self):
        # int() would have labeled node 1 for the index 1.5
        for pair in ((1.5, 0), (1, 0.0), (np.float64(1.0), 1)):
            with pytest.raises(InputError, match="integer"):
                init_labels([pair], 3, 2)
        state = init_labels([(np.int64(1), np.int32(1))], 3, 2)
        assert state.f[1].tolist() == [0.0, 1.0]


class TestEulerStep:
    def test_constant_fixed_point(self):
        rng = np.random.default_rng(40)
        _, g = random_knn_graph(rng, 20, 3)
        f = np.full((20, 2), 0.5)
        out = LaplacianOperator(g).step(f, 1.0)
        assert np.abs(out - f).max() < 1e-12

    def test_two_node_hand_value(self):
        g = two_node_graph()
        f = np.array([[1.0], [0.0]])
        out = LaplacianOperator(g).step(f, 1.0)
        assert out[:, 0].tolist() == [0.0, 1.0]

    def test_matches_dense_step_oracle(self):
        rng = np.random.default_rng(41)
        _, g = random_knn_graph(rng, 50, 5)
        f = rng.normal(size=(50, 2))
        wd = variant_weights(g, f, 0.4, "plain")
        out = LaplacianOperator(g, wd).step(f, 0.7)
        WD = np.zeros((50, 50))
        WD[g.rows, g.weights.indices] = wd.wD
        oracle = f - 0.7 * dense_anisotropic_apply(WD, g.degrees, f)
        assert np.abs(out - oracle).max() < 1e-12

    def test_divergence_error_names_delta(self):
        g = two_node_graph()
        f = np.array([[1.0], [0.0]])
        with pytest.raises(DivergenceError, match="1000"):
            for _ in range(400):
                f = LaplacianOperator(g).step(f, 1000.0)

    def test_one_dimensional_f_is_one_column(self):
        rng = np.random.default_rng(46)
        _, g = random_knn_graph(rng, 30, 4)
        f = rng.normal(size=30)
        wd = variant_weights(g, f, 0.3, "smooth")
        for weights in (None, wd):
            flat = LaplacianOperator(g, weights).step(f, 0.5)
            column = LaplacianOperator(g, weights).step(f[:, None], 0.5)
            assert flat.shape == (30, 1)
            assert np.array_equal(flat, column)

    def test_mass_conservation(self):
        rng = np.random.default_rng(42)
        _, g = random_knn_graph(rng, 60, 5)
        f = rng.normal(size=(60, 3))
        wd = variant_weights(g, f, 0.3, "smooth")
        out = LaplacianOperator(g, wd).step(f, 1.0)
        before = g.degrees @ f
        after = g.degrees @ out
        assert np.abs(after - before).max() < 1e-10


class TestWarmStart:
    def test_zero_steps_unchanged(self):
        rng = np.random.default_rng(43)
        _, g = random_knn_graph(rng, 15, 3)
        f0 = rng.normal(size=(15, 2))
        assert np.array_equal(warm_start(g, f0, 0, 1.0), f0)

    def test_constant_unchanged(self):
        rng = np.random.default_rng(44)
        _, g = random_knn_graph(rng, 15, 3)
        f0 = np.full((15, 2), 2.0)
        assert np.abs(warm_start(g, f0, 30, 1.0) - f0).max() < 1e-10

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("delta", [0.0, -0.5, np.inf])
    def test_rejects_nonpositive_delta(self, steps, delta):
        g = two_node_graph()
        with pytest.raises(ParameterError, match="delta must be positive and finite"):
            warm_start(g, np.zeros((2, 1)), steps, delta)

    @pytest.mark.parametrize("steps", [2.5, -1])
    def test_rejects_bad_steps(self, steps):
        with pytest.raises(ParameterError, match="steps must be an integer"):
            warm_start(two_node_graph(), np.zeros((2, 1)), steps, 1.0)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_one_dimensional_f_is_one_column(self, steps):
        rng = np.random.default_rng(47)
        _, g = random_knn_graph(rng, 30, 4)
        f = rng.normal(size=30)
        flat = warm_start(g, f, steps, 1.0)
        column = warm_start(g, f[:, None], steps, 1.0)
        assert flat.shape == (30, 1)
        assert np.array_equal(flat, column)

    def test_twenty_steps_match_dense_oracle(self):
        rng = np.random.default_rng(45)
        _, g = random_knn_graph(rng, 40, 4)
        f = rng.normal(size=(40, 2))
        out = warm_start(g, f, 20, 1.0)
        W = g.weights.toarray()
        ref = f.copy()
        for _ in range(20):
            ref = ref - dense_isotropic_apply(W, g.degrees, ref)
        assert np.abs(out - ref).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from(["isotropic", "plain"]),
    st.booleans(),
)
def test_one_step_keeps_its_input_range_isotropic_and_plain(seed, delta, variant, frozen):
    # q <= 1 gives delta * rowsum_D(i) / d_i <= delta <= 1, so every entry of
    # the step is a convex combination of its input's entries in that channel
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 50))
    K = int(rng.integers(1, min(n - 1, 8) + 1))
    _, g = random_knn_graph(rng, n, K)
    f = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(n, int(rng.integers(1, 4))))
    # a linear run steps with a field frozen at another f
    field_f = rng.normal(size=f.shape) if frozen else f
    wd = variant_weights(g, field_f, float(rng.uniform(0.05, 2.0)), variant)
    out = LaplacianOperator(g, wd).step(f, delta)
    slack = 1e-12 * np.abs(f).max()
    assert (out >= f.min(axis=0) - slack).all() and (out <= f.max(axis=0) + slack).all()


def _warm_started_excursion(dataset, K, configs):
    """How far f leaves its warm-started [min, max], per channel, in 200 steps.

    The input is ``dataset`` ("two-moons" n=600, or blobs n=600, c=4,
    separation 3, d=2) with the l=8 training split of seed 0.
    """
    from anisodiff.data import gaussian_blobs, split_labels, two_moons
    from anisodiff.graph import build_knn_graph

    ds = two_moons(600, 0.1, 0) if dataset == "two-moons" else gaussian_blobs(600, 4, 3.0, 2, 0)
    train = split_labels(ds, 8, 0).train
    state = init_labels(zip(train, ds.labels[train]), ds.n, ds.c)
    g = build_knn_graph(ds.distance_matrix, K)
    excursion = {}
    for key, cfg in configs.items():
        # a step that diverged would raise
        trajectory = _trajectory(DiffusionConfig(K=K, T=200, **cfg), g, state, energies=False)
        snaps = [f for _, f, _ in trajectory]
        lo, hi = snaps[0].min(axis=0), snaps[0].max(axis=0)
        excursion[key] = max(max((lo - f).max(), (f - hi).max()) for f in snaps)
    return excursion


@pytest.mark.parametrize("K", [5, 10, 20])
@pytest.mark.parametrize("dataset", ["two-moons", "blobs"])
def test_smooth_keeps_the_warm_started_range(dataset, K):
    configs = {
        (mode, delta, sigma_f): dict(variant="smooth", mode=mode, delta=delta, sigma_f=sigma_f)
        for mode in MODES
        for delta in (0.5, 1.0)
        for sigma_f in (0.05, 0.1, 0.5, 1.0)
    }
    excursion = _warm_started_excursion(dataset, K, configs)
    assert max(excursion.values()) <= 1e-12, excursion


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP open item 1: the unguarded local-match step breaks the maximum "
    "principle (its margin is 2K/(K+1) > 1); f grows to about 4e75, finite",
)
def test_local_match_keeps_the_warm_started_range():
    excursion = _warm_started_excursion(
        "blobs", 10, {"lm": dict(variant="local_match", mode="linear", delta=1.0, sigma_f=1.0)}
    )
    assert excursion["lm"] <= 1e-12, excursion


class TestRunDiffusion:
    def test_state_must_be_n_by_c(self):
        rng = np.random.default_rng(46)
        _, g = random_knn_graph(rng, 20, 3)
        state = LabelState(np.zeros((20, 3)), np.zeros(20, dtype=bool), 2)
        with pytest.raises(ParameterError, match=r"shape \(20, 3\) does not match graph n=20, c=2"):
            run_diffusion(DiffusionConfig(K=3, T=1), g, state)

    def test_t0_warm0_returns_f0(self):
        rng = np.random.default_rng(46)
        _, g = random_knn_graph(rng, 20, 3)
        state = init_labels([(0, 0), (10, 1)], 20, 2)
        cfg = DiffusionConfig(K=3, T=0, warm_start_steps=0, variant="isotropic")
        res = run_diffusion(cfg, g, state)
        assert np.array_equal(res.f, state.f)
        assert res.energies.shape == (1,)

    def test_huge_sigma_f_restores_isotropic_trajectory(self):
        rng = np.random.default_rng(47)
        _, g = random_knn_graph(rng, 30, 4)
        state = init_labels([(0, 0), (15, 1)], 30, 2)
        aniso = DiffusionConfig(
            K=4, T=25, sigma_f=1e12, variant="plain", mode="nonlinear"
        )
        iso = DiffusionConfig(K=4, T=25, variant="isotropic")
        fa = run_diffusion(aniso, g, state).f
        fi = run_diffusion(iso, g, state).f
        assert np.abs(fa - fi).max() < 1e-9

    def test_isotropic_ignores_mode(self):
        rng = np.random.default_rng(49)
        _, g = random_knn_graph(rng, 30, 4)
        state = init_labels([(0, 0), (15, 1)], 30, 2)
        lin, non = (
            run_diffusion(DiffusionConfig(K=4, T=15, variant="isotropic", mode=m), g, state)
            for m in ("linear", "nonlinear")
        )
        assert np.array_equal(lin.f, non.f)
        assert np.array_equal(lin.energies, non.energies)

    def test_linear_and_nonlinear_agree_at_t1(self):
        rng = np.random.default_rng(48)
        _, g = random_knn_graph(rng, 30, 4)
        state = init_labels([(0, 0), (15, 1)], 30, 2)
        for variant in ("plain", "smooth", "local_match"):
            lin = DiffusionConfig(K=4, T=1, sigma_f=0.2, variant=variant, mode="linear")
            non = DiffusionConfig(
                K=4, T=1, sigma_f=0.2, variant=variant, mode="nonlinear"
            )
            fl = run_diffusion(lin, g, state).f
            fn = run_diffusion(non, g, state).f
            assert np.array_equal(fl, fn)

    def test_linear_freezes_weights_nonlinear_recomputes(self):
        rng = np.random.default_rng(49)
        _, g = random_knn_graph(rng, 30, 4)
        state = init_labels([(0, 0), (15, 1)], 30, 2)
        lin = DiffusionConfig(K=4, T=30, sigma_f=0.1, variant="plain", mode="linear")
        non = DiffusionConfig(K=4, T=30, sigma_f=0.1, variant="plain", mode="nonlinear")
        fl = run_diffusion(lin, g, state).f
        fn = run_diffusion(non, g, state).f
        assert np.abs(fl - fn).max() > 1e-12  # the modes genuinely differ

    def test_energy_descent_frozen_weights(self):
        rng = np.random.default_rng(50)
        for trial in range(5):
            _, g = random_knn_graph(rng, 30, 4)
            f = rng.normal(size=(30, 2))
            wd = variant_weights(g, f, 0.5, "plain")
            energies = [regularizer_energy(g, wd, f)]
            for _ in range(100):
                f = LaplacianOperator(g, wd).step(f, 0.4)
                energies.append(regularizer_energy(g, wd, f))
            diffs = np.diff(energies)
            assert (diffs <= 1e-10).all()

    def test_determinism(self):
        rng = np.random.default_rng(51)
        _, g = random_knn_graph(rng, 40, 5)
        state = init_labels([(0, 0), (20, 1), (35, 1)], 40, 2)
        cfg = DiffusionConfig(K=5, T=40, sigma_f=0.15, variant="local_match")
        f1 = run_diffusion(cfg, g, state).f
        f2 = run_diffusion(cfg, g, state).f
        assert np.array_equal(f1, f2)

    def test_clamped_rows_stay_one_hot(self):
        rng = np.random.default_rng(52)
        _, g = random_knn_graph(rng, 30, 4)
        state = init_labels([(0, 0), (15, 1)], 30, 2)
        cfg = DiffusionConfig(
            K=4, T=20, sigma_f=0.2, variant="plain", clamp_labels=True
        )
        res = run_diffusion(cfg, g, state)
        assert np.array_equal(res.f[0], [1.0, 0.0])
        assert np.array_equal(res.f[15], [0.0, 1.0])

    def test_unclamped_rows_change(self):
        rng = np.random.default_rng(53)
        _, g = random_knn_graph(rng, 30, 4)
        state = init_labels([(0, 0), (15, 1)], 30, 2)
        cfg = DiffusionConfig(K=4, T=20, sigma_f=0.2, variant="plain")
        res = run_diffusion(cfg, g, state)
        assert not np.array_equal(res.f[0], [1.0, 0.0])

    def test_all_unlabeled_warns_and_decodes_zero(self):
        rng = np.random.default_rng(54)
        _, g = random_knn_graph(rng, 10, 2)
        state = init_labels([], 10, 2)
        cfg = DiffusionConfig(K=2, T=5, variant="isotropic")
        with pytest.warns(UserWarning, match="no labeled nodes"):
            res = run_diffusion(cfg, g, state)
        assert decode_labels(res.f).tolist() == [0] * 10

    def test_all_unlabeled_warning_holds_for_a_nonzero_state(self):
        rng = np.random.default_rng(56)
        _, g = random_knn_graph(rng, 10, 2)
        f0 = rng.normal(size=(10, 2))
        state = LabelState(f0, np.zeros(10, dtype=bool), 2)
        cfg = DiffusionConfig(K=2, T=3, variant="isotropic")
        with pytest.warns(UserWarning, match="no labeled nodes") as record:
            run_diffusion(cfg, g, state)
        message = str(record[0].message)
        assert "zero" not in message and "class 0" not in message

    def test_energy_trace_layout(self, tmp_path):
        rng = np.random.default_rng(55)
        _, g = random_knn_graph(rng, 20, 3)
        state = init_labels([(0, 0), (10, 1)], 20, 2)
        cfg = DiffusionConfig(K=3, T=7, sigma_f=0.3, variant="plain")
        res = run_diffusion(cfg, g, state)
        assert res.energies.shape == (8,)
        assert (res.energies >= 0).all()
        path = tmp_path / "trace.csv"
        write_energy_trace(res.energies, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("0,")
        t, e = lines[3].split(",")
        assert int(t) == 3
        assert float(e) == res.energies[3]

    def test_config_K_must_match_a_knn_graph(self):
        # the K a run records must be the K of the graph it ran on
        from anisodiff.data import two_moons
        from anisodiff.graph import build_knn_graph

        g = build_knn_graph(two_moons(60, 0.1, seed=0).distance_matrix, 5)
        state = init_labels([(0, 0), (59, 1)], 60, 2)
        cfg = DiffusionConfig(K=3, T=5)
        with pytest.raises(ParameterError, match="K=3 does not match the graph's K=5"):
            run_diffusion(cfg, g, state)
        with pytest.raises(ParameterError, match="K=3 does not match the graph's K=5"):
            next(_trajectory(cfg, g, state, energies=False))
        # a graph without kNN lists carries no K, so any config K runs on it
        edges = Graph(g.weights)
        expected = run_diffusion(replace(cfg, K=5), g, state).f
        assert np.array_equal(run_diffusion(cfg, edges, state).f, expected)


class TestTrajectory:
    def test_prefix_property_matches_independent_runs(self):
        rng = np.random.default_rng(56)
        _, g = random_knn_graph(rng, 25, 3)
        state = init_labels([(0, 0), (12, 1)], 25, 2)
        base = dict(K=3, sigma_f=0.2, variant="smooth", mode="nonlinear")
        trajectory = _trajectory(DiffusionConfig(T=20, **base), g, state, energies=False)
        snaps = {t: f for t, f, _ in trajectory}
        for T in (5, 10, 20):
            ref = run_diffusion(DiffusionConfig(T=T, **base), g, state).f
            assert np.array_equal(snaps[T], ref)


class TestFusedLoopMatchesRebuild:
    """One operator per trajectory and energies only where read change no bit."""

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_run_and_trajectory_match_rebuilding_loop(self, variant, mode, clamp):
        rng = np.random.default_rng(58)
        _, g = random_knn_graph(rng, 40, 5)
        state = init_labels([(0, 0), (9, 1), (21, 2), (33, 1)], 40, 3)
        config = DiffusionConfig(
            K=5, T=12, sigma_f=0.3, warm_start_steps=3, variant=variant,
            mode=mode, clamp_labels=clamp,
        )
        f_ref, energies_ref = trajectory_rebuild(config, g, state)
        res = run_diffusion(config, g, state)
        assert np.array_equal(res.f, f_ref)
        assert np.array_equal(res.energies, energies_ref)
        for T, f, energy in _trajectory(config, g, state, energies=False):
            assert energy is None
            ref = run_diffusion(replace(config, T=T), g, state).f
            assert np.array_equal(f, ref)


class TestOneEnergySum:
    """The trace and regularizer_energy take one sum, whatever the BLAS threads."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_is_the_regularizer_energy_bitwise(self, variant):
        rng = np.random.default_rng(60)
        _, g = random_knn_graph(rng, 40, 5)
        state = init_labels([(0, 0), (9, 1), (21, 2), (33, 1)], 40, 3)
        config = DiffusionConfig(
            K=5, T=8, sigma_f=0.3, warm_start_steps=3, variant=variant, mode="linear"
        )
        energies = run_diffusion(config, g, state).energies
        snaps = [f for _, f, _ in _trajectory(config, g, state, energies=False)]
        # linear mode freezes the field of the warm-started f
        weights = variant_weights(g, snaps[0], config.sigma_f, variant)
        for t in range(config.T + 1):
            assert energies[t] == regularizer_energy(g, weights, snaps[t])

    def test_run_is_byte_identical_for_one_and_two_blas_threads(self):
        # 23,790 edges, long enough that OpenBLAS splits a dot over two threads
        script = (
            "import hashlib\n"
            "from anisodiff.data import split_labels, two_moons\n"
            "from anisodiff.diffusion import DiffusionConfig, init_labels, run_diffusion\n"
            "from anisodiff.graph import build_knn_graph\n"
            "ds = two_moons(4000, 0.1, 0)\n"
            "g = build_knn_graph(ds.distance_matrix, 10)\n"
            "train = split_labels(ds, 4, 0).train\n"
            "state = init_labels(zip(train, ds.labels[train]), ds.n, ds.c)\n"
            "res = run_diffusion(DiffusionConfig(K=10, T=3, variant='smooth'), g, state)\n"
            "print(len(g.upper), res.energies.tobytes().hex(),"
            " hashlib.sha256(res.f.tobytes()).hexdigest())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].startswith("23790 ")
        assert outputs[0] == outputs[1]


class TestSharedGraphIsNeverWritten:
    def test_runs_leave_weights_and_degrees_unchanged(self):
        from anisodiff.data import split_labels, two_moons
        from anisodiff.evaluation import GridSpec, grid_search
        from anisodiff.graph import build_knn_graph

        ds = two_moons(60, 0.15, seed=3)
        g = build_knn_graph(ds.distance_matrix, 5)
        data, degrees = g.weights.data.copy(), g.degrees.copy()
        state = init_labels([(0, 0), (59, 1)], 60, 2)
        for variant in ("plain", "smooth"):
            cfg = DiffusionConfig(K=5, T=5, sigma_f=0.2, variant=variant, mode="nonlinear")
            run_diffusion(cfg, g, state)
        warm_start(g, state.f, 3, 1.0)
        wd = variant_weights(g, state.f + 0.1, 0.2, "plain")
        LaplacianOperator(g, wd).step(state.f, 1.0)
        LaplacianOperator(g).step(state.f, 1.0)
        grid = GridSpec(K_values=(5,), T_values=(2, 4), sigma_f_values=(0.1, 1.0))
        grid_search(grid, ds, split_labels(ds, 4, 0), graph_cache={5: g})
        assert np.array_equal(g.weights.data, data)
        assert np.array_equal(g.degrees, degrees)

    def test_interleaved_operators_match_fresh_ones(self):
        rng = np.random.default_rng(59)
        _, g = random_knn_graph(rng, 30, 4)
        f = rng.normal(size=(30, 2))
        fields = [variant_weights(g, rng.normal(size=(30, 2)), 0.3, v) for v in VARIANTS]
        # two operators on one graph, each swapping fields between applies
        a, b = LaplacianOperator(g, fields[2]), LaplacianOperator(g)
        for k in range(8):
            wa, wb = fields[k % 4], fields[(k + 1) % 4]
            a.set_weights(wa)
            got_a = a(f)
            b.set_weights(wb)
            got_b = b.step(f, 0.5)
            assert np.array_equal(a(f), got_a)
            assert np.array_equal(got_a, LaplacianOperator(g, wa)(f))
            assert np.array_equal(got_b, LaplacianOperator(g, wb).step(f, 0.5))

    def test_concurrent_smooth_runs_match_sequential_ones(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from anisodiff.data import two_moons
        from anisodiff.graph import build_knn_graph

        ds = two_moons(300, 0.1, seed=5)
        state = init_labels([(0, ds.labels[0]), (299, ds.labels[299])], 300, 2)
        configs = [
            DiffusionConfig(K=10, T=40, sigma_f=s, variant="smooth", mode="nonlinear")
            for s in (0.05, 0.2, 0.5, 2.0)
        ]
        g = build_knn_graph(ds.distance_matrix, 10)
        expected = [run_diffusion(cfg, g, state) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(4):
                # a fresh graph, so its cached structures are built concurrently too
                shared = build_knn_graph(ds.distance_matrix, 10)
                with ThreadPoolExecutor(max_workers=len(configs)) as pool:
                    futures = [
                        pool.submit(run_diffusion, cfg, shared, state) for cfg in configs
                    ]
                    got = [fut.result(timeout=60) for fut in futures]
                for res, ref in zip(got, expected):
                    assert np.array_equal(res.f, ref.f)
                    assert np.array_equal(res.energies, ref.energies)
        finally:
            sys.setswitchinterval(interval)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from(["isotropic", "plain"]),
    st.sampled_from(MODES),
    st.booleans(),
)
def test_maximum_principle_isotropic_and_plain(seed, delta, variant, mode, clamp):
    # q <= 1 gives rowsum_D(i) <= d_i, so at delta <= 1 each step is a convex
    # combination of the previous values
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 50))
    K = int(rng.integers(1, min(n - 1, 8) + 1))
    _, g = random_knn_graph(rng, n, K)
    c = int(rng.integers(1, 4))
    f0 = rng.normal(size=(n, c))
    mask = rng.random(n) < 0.3
    config = DiffusionConfig(
        K=K, T=int(rng.integers(1, 30)), sigma_f=float(rng.uniform(0.05, 2.0)),
        delta=delta, warm_start_steps=int(rng.integers(0, 4)), variant=variant,
        mode=mode, clamp_labels=clamp,
    )
    lo, hi = f0.min(axis=0) - 1e-12, f0.max(axis=0) + 1e-12
    # an empty mask gives the intended warning; any other warning is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = pytest.warns(UserWarning, match="no labeled nodes")
        with contextlib.nullcontext() if mask.any() else expected:
            trajectory = _trajectory(config, g, LabelState(f0, mask, c), energies=False)
            snaps = [f for _, f, _ in trajectory]
    assert len(snaps) == config.T + 1
    for f in snaps:
        assert (f >= lo).all() and (f <= hi).all()


class TestDecodeLabels:
    def test_argmax(self):
        assert decode_labels(np.array([[0.2, 0.8]])).tolist() == [1]

    def test_tie_breaks_low_index(self):
        assert decode_labels(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_all_zero_row(self):
        assert decode_labels(np.zeros((2, 3))).tolist() == [0, 0]

    @pytest.mark.parametrize("f", [np.zeros(5), np.zeros((5, 0))], ids=["1-D", "no-classes"])
    def test_not_n_by_c_rejected(self, f):
        with pytest.raises(ParameterError, match="f must be \\(n, c\\) with c >= 1"):
            decode_labels(f)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=0),
            dict(T=-1),
            dict(sigma_f=0.0),
            dict(sigma_f=1e-200),  # its square underflows to 0
            dict(delta=-0.5),
            dict(delta=np.inf),
            dict(delta=np.nan),
            dict(warm_start_steps=-1),
            # a fractional count would be truncated, or fail only inside the loop
            dict(K=2.5),
            dict(T=np.float64(3.0)),
            dict(warm_start_steps=2.5),
            dict(variant="bogus"),
            dict(mode="bogus"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            DiffusionConfig(**kwargs)

    def test_numpy_integers_pass(self):
        config = DiffusionConfig(K=np.int64(3), T=np.int32(5), warm_start_steps=np.int64(0))
        assert (config.K, config.T, config.warm_start_steps) == (3, 5, 0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_constant_preserved_by_every_variant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 30))
    K = int(rng.integers(2, min(n - 1, 5) + 1))
    _, g = random_knn_graph(rng, n, K)
    f = np.full((n, 2), float(rng.normal()))
    for variant in ("plain", "smooth", "local_match"):
        wd = variant_weights(g, f, 0.5, variant)
        out = LaplacianOperator(g, wd).step(f, 1.0)
        assert np.abs(out - f).max() < 1e-12


def test_isotropic_convergence_to_constant():
    rng = np.random.default_rng(57)
    from anisodiff.data import two_moons
    from anisodiff.graph import build_knn_graph

    ds = two_moons(120, 0.12, seed=5)
    g = build_knn_graph(ds.distance_matrix, 12)
    assert g.num_components == 1
    f = rng.normal(size=(120, 2))
    spread0 = f.max(axis=0) - f.min(axis=0)
    f = warm_start(g, f, 10_000, 1.0)
    spread = f.max(axis=0) - f.min(axis=0)
    assert (spread < 1e-6 * spread0).all()
