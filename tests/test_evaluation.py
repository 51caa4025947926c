import numpy as np
import pytest

from anisodiff.data import gaussian_blobs, split_labels, two_moons
from anisodiff.diffusion import DiffusionConfig, decode_labels, init_labels, run_diffusion
from anisodiff.errors import DivergenceError, InputError, ParameterError
from anisodiff.evaluation import (
    GridSpec,
    benchmark,
    error_rate,
    grid_search,
    parse_report_kv,
    report_kv,
    report_table,
)
from anisodiff.graph import build_knn_graph

from oracles import benchmark_rerun_errors


class TestErrorRate:
    def test_perfect(self):
        assert error_rate([0, 1, 1], [0, 1, 1], [0, 1, 2]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 0, 0], [0, 1, 1], [0, 1, 2]) == 100.0

    def test_three_of_twelve(self):
        pred = [0] * 12
        truth = [0] * 9 + [1] * 3
        assert error_rate(pred, truth, list(range(12))) == 25.0

    def test_empty_indices_rejected(self):
        with pytest.raises(InputError):
            error_rate([0], [0], [])

    def test_subset_scoring(self):
        pred = [0, 1, 0, 1]
        truth = [0, 0, 0, 0]
        assert error_rate(pred, truth, [0, 2]) == 0.0
        assert error_rate(pred, truth, [1, 3]) == 100.0


def exhaustive_oracle(grid, dataset, split):
    """Independent full enumeration: one fresh run per cell."""
    y = dataset.labels
    state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
    cells = []
    sigmas = grid.sigma_f_values[:1] if grid.variant == "isotropic" else grid.sigma_f_values
    for K in grid.K_values:
        graph = build_knn_graph(dataset.distance_matrix, int(K))
        for sigma_f in sigmas:
            for T in grid.T_values:
                config = DiffusionConfig(
                    K=int(K),
                    T=int(T),
                    sigma_f=float(sigma_f),
                    variant=grid.variant,
                    mode=grid.mode,
                )
                res = run_diffusion(config, graph, state)
                err = error_rate(decode_labels(res.f), y, split.validation)
                cells.append((err, int(T), int(K), float(sigma_f)))
    return min(cells)


class TestGridSearch:
    def test_single_cell_returned(self):
        ds = gaussian_blobs(60, 2, 8.0, 2, seed=0)
        split = split_labels(ds, 4, seed=0)
        grid = GridSpec(K_values=(5,), T_values=(10,), sigma_f_values=(0.2,))
        config, err, _ = grid_search(grid, ds, split)
        assert (config.K, config.T, config.sigma_f) == (5, 10, 0.2)
        assert 0.0 <= err <= 100.0

    def test_tie_prefers_smaller_t_then_k_then_sigma(self):
        # well-separated blobs: every cell scores 0, tie rules decide
        ds = gaussian_blobs(60, 2, 20.0, 2, seed=1)
        split = split_labels(ds, 4, seed=1)
        grid = GridSpec(K_values=(7, 3), T_values=(50, 10), sigma_f_values=(0.5, 0.1))
        config, err, _ = grid_search(grid, ds, split)
        assert err == 0.0
        assert (config.T, config.K, config.sigma_f) == (10, 3, 0.1)

    def test_matches_exhaustive_oracle_2x2(self):
        ds = two_moons(80, 0.1, seed=2)
        split = split_labels(ds, 6, seed=2)
        for variant, mode in (("plain", "nonlinear"), ("smooth", "nonlinear"), ("isotropic", "linear")):
            grid = GridSpec(
                K_values=(4, 8),
                T_values=(5, 20),
                sigma_f_values=(0.1,),
                variant=variant,
                mode=mode,
            )
            config, err, _ = grid_search(grid, ds, split)
            oracle = exhaustive_oracle(grid, ds, split)
            assert (err, config.T, config.K, config.sigma_f) == oracle

    def test_matches_exhaustive_oracle_eight_cells(self):
        ds = two_moons(60, 0.12, seed=9)
        split = split_labels(ds, 4, seed=9)
        grid = GridSpec(
            K_values=(3, 6),
            T_values=(5, 15),
            sigma_f_values=(0.05, 0.4),
            variant="local_match",
            mode="nonlinear",
        )
        config, err, _ = grid_search(grid, ds, split)
        oracle = exhaustive_oracle(grid, ds, split)
        assert (err, config.T, config.K, config.sigma_f) == oracle

    def test_isotropic_collapses_sigma_column(self):
        ds = gaussian_blobs(40, 2, 10.0, 2, seed=3)
        split = split_labels(ds, 4, seed=3)
        grid = GridSpec(
            K_values=(3,),
            T_values=(5,),
            sigma_f_values=(0.7, 0.1),
            variant="isotropic",
        )
        config, _, _ = grid_search(grid, ds, split)
        assert config.sigma_f == 0.7  # first value; sigma_f is inert here

    def test_divergent_cells_score_100_without_abort(self):
        ds = gaussian_blobs(40, 2, 10.0, 2, seed=4)
        split = split_labels(ds, 4, seed=4)
        # isotropic steps at a huge delta amplify until overflow, so every
        # cell diverges before its T is reached and scores 100
        grid = GridSpec(
            K_values=(3,), T_values=(400,), sigma_f_values=(0.2,), variant="isotropic"
        )
        config, err, _ = grid_search(grid, ds, split, delta=1000.0)
        assert err == 100.0
        assert config.T == 400


class TestGridSpecValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            GridSpec(K_values=())

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            GridSpec(sigma_f_values=(0.0,))

    def test_fractional_K_or_T_rejected(self):
        # int() in the search would have run K=5, T=10 without a word
        for kwargs in ({"K_values": (5.7,)}, {"T_values": (10, 10.9)}):
            with pytest.raises(ParameterError, match="Integral"):
                GridSpec(**kwargs)
        grid = GridSpec(K_values=(np.int64(5),), T_values=(np.int32(10),))
        assert grid.K_values == (5,)


class TestBenchmark:
    @pytest.fixture(scope="class")
    def small_report(self):
        ds = two_moons(80, 0.1, seed=5)
        grid = GridSpec(K_values=(5,), T_values=(10, 30), sigma_f_values=(0.1, 0.3))
        return benchmark(ds, ["I", "A_nlin", "GRF"], [0, 1], grid, train_labels=4)

    def test_row_structure(self, small_report):
        assert [r.method for r in small_report.rows] == ["I", "A_nlin", "GRF"]
        for row in small_report.rows:
            assert len(row.errors) == 2
            assert all(0.0 <= e <= 100.0 for e in row.errors)
            assert row.mean_error == pytest.approx(np.mean(row.errors))
            assert row.mean_seconds is not None

    def test_deterministic_given_seeds(self):
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=6)
        grid = GridSpec(K_values=(4,), T_values=(10,), sigma_f_values=(0.2,))
        a = benchmark(ds, ["I", "GRF"], [3, 4], grid, train_labels=4)
        b = benchmark(ds, ["I", "GRF"], [3, 4], grid, train_labels=4)
        assert report_kv(a) == report_kv(b)

    def test_unknown_method_rejected(self):
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=7)
        with pytest.raises(ParameterError, match="FLAP"):
            benchmark(ds, ["FLAP"], [0], GridSpec(), train_labels=4)

    def test_empty_seed_list_rejected(self):
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=7)
        with pytest.raises(ParameterError, match="at least one seed"):
            benchmark(ds, ["I", "GRF"], [], GridSpec(), train_labels=4)

    def test_kv_round_trip_lossless(self, small_report):
        text = report_kv(small_report, include_timing=True)
        parsed = parse_report_kv(text)
        assert parsed.dataset == small_report.dataset
        assert parsed.seeds == small_report.seeds
        assert parsed.train_labels == small_report.train_labels
        for a, b in zip(parsed.rows, small_report.rows):
            assert a.method == b.method
            assert a.errors == b.errors
            assert a.selected == b.selected
            assert a.mean_error == b.mean_error
            assert a.sd_error == b.sd_error
            assert a.mean_seconds == b.mean_seconds

    def test_kv_excludes_timing_by_default(self, small_report):
        text = report_kv(small_report)
        assert "mean_seconds" not in text
        parsed = parse_report_kv(text)
        assert parsed.rows[0].mean_seconds is None

    def test_table_renders(self, small_report):
        text = report_table(small_report)
        assert "method" in text and "I" in text.split()


class TestBenchmarkMatchesRerun:
    """The test error read off the search equals a fresh run of the selection."""

    ALL_METHODS = ["I", "A_lin", "A_nlin", "A_S", "A_LM", "GRF"]

    # noisy inputs, so the selected cells differ across methods and seeds
    # (K, T and sigma_f all vary) and the errors are nonzero
    @pytest.mark.parametrize(
        "dataset, train_labels",
        [(two_moons(80, 0.2, seed=12), 4), (gaussian_blobs(60, 3, 2.0, 2, seed=14), 6)],
        ids=["two_moons80", "blobs60"],
    )
    def test_errors_equal_rerun_oracle(self, dataset, train_labels):
        grid = GridSpec(K_values=(4, 8), T_values=(5, 20), sigma_f_values=(0.1, 0.5))
        report = benchmark(
            dataset, self.ALL_METHODS, [0, 1, 2], grid, train_labels=train_labels
        )
        oracle = benchmark_rerun_errors(dataset, report)
        assert [r.method for r in report.rows] == self.ALL_METHODS
        for row in report.rows:
            assert row.errors == oracle[row.method], row.method

    def test_diverged_selection(self):
        # the divergence grid of TestGridSearch: every cell overflows
        ds = gaussian_blobs(40, 2, 10.0, 2, seed=4)
        grid = GridSpec(
            K_values=(3,), T_values=(400,), sigma_f_values=(0.2,), variant="isotropic"
        )
        _, err, labels = grid_search(grid, ds, split_labels(ds, 4, seed=4), delta=1000.0)
        assert err == 100.0 and labels is None
        with pytest.raises(DivergenceError, match="diverged at delta=1000"):
            benchmark(ds, ["I"], [4], grid, train_labels=4, delta=1000.0)
