import contextlib
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from anisodiff import evaluation
from anisodiff.baselines import grf_harmonic
from anisodiff.data import gaussian_blobs, split_labels, two_moons
from anisodiff.diffusion import DiffusionConfig, decode_labels, init_labels, run_diffusion
from anisodiff.errors import DivergenceError, InputError, ParameterError
from anisodiff.evaluation import (
    GridSpec,
    benchmark,
    error_rate,
    grid_search,
    report_kv,
    report_table,
)
from anisodiff.graph import Graph, build_knn_graph

from oracles import BENCHMARK_METHODS, benchmark_rerun_errors, grid_search_exhaustive


@contextlib.contextmanager
def processes(n):
    """Run ``benchmark`` in n processes: it takes one per usable CPU."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "usable_cpus", lambda: n)
        yield


class TestErrorRate:
    def test_perfect(self):
        assert error_rate([0, 1, 1], [0, 1, 1], [0, 1, 2]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 0, 0], [0, 1, 1], [0, 1, 2]) == 100.0

    def test_three_of_twelve(self):
        pred = [0] * 12
        truth = [0] * 9 + [1] * 3
        assert error_rate(pred, truth, list(range(12))) == 25.0

    def test_prediction_shape_must_match_truth(self):
        with pytest.raises(InputError, match=r"prediction shape \(3,\) != truth shape \(4,\)"):
            error_rate([0, 1, 0], [0, 1, 0, 1], [0])

    def test_empty_indices_rejected(self):
        with pytest.raises(InputError):
            error_rate([0], [0], [])

    def test_subset_scoring(self):
        pred = [0, 1, 0, 1]
        truth = [0, 0, 0, 0]
        assert error_rate(pred, truth, [0, 2]) == 0.0
        assert error_rate(pred, truth, [1, 3]) == 100.0
        assert error_rate(pred, truth, np.array([1, 2], dtype=np.int32)) == 50.0

    @pytest.mark.parametrize("idx", [[-1], [1.9], [0, 4], [True, False]])
    def test_indices_must_be_integers_in_range(self, idx):
        # as numpy indices, -1 would score the last node and 1.9 node 1
        with pytest.raises(InputError, match="evaluation indices"):
            error_rate([0, 1, 0, 1], [0, 0, 0, 0], idx)


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


class TestPrunedSearch:
    """Skipping the cells that cannot win selects what the full grid selects."""

    # every cell of these blobs scores 0 unless its run goes wrong
    SEPARATED = gaussian_blobs(60, 2, 20.0, 2, seed=1)

    @staticmethod
    def assert_full_grid(grid, ds, split, **kwargs):
        config, err, labels = grid_search(grid, ds, split, **kwargs)
        full_config, full_err, full_labels = grid_search_exhaustive(grid, ds, split, **kwargs)
        assert (config, err) == (full_config, full_err)
        assert labels is not None and np.array_equal(labels, full_labels)

    @staticmethod
    def count_calls(monkeypatch):
        """[K, sigma_f, last t reached] of every trajectory, and every K built."""
        columns, builds = [], []
        trajectory, build = evaluation.diffusion._trajectory, evaluation.build_knn_graph

        def counted_trajectory(config, graph, state, **kwargs):
            column = [config.K, config.sigma_f, None]
            columns.append(column)
            for item in trajectory(config, graph, state, **kwargs):
                column[2] = item[0]
                yield item

        def counted_build(dist, K):
            builds.append(K)
            return build(dist, K)

        monkeypatch.setattr(evaluation.diffusion, "_trajectory", counted_trajectory)
        monkeypatch.setattr(evaluation, "build_knn_graph", counted_build)
        # the calls are counted in this process, so nothing may run in a child
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)
        return columns, builds

    @pytest.mark.parametrize("variant, mode", BENCHMARK_METHODS.values(), ids=BENCHMARK_METHODS)
    @pytest.mark.parametrize(
        "dataset", [SEPARATED, two_moons(80, 0.2, seed=12)], ids=["separated", "noisy"]
    )
    def test_unsorted_grids(self, dataset, variant, mode):
        grid = GridSpec(
            K_values=(6, 3),
            T_values=(20, 5),
            sigma_f_values=(1.0, 0.05, 0.2),
            variant=variant,
            mode=mode,
        )
        self.assert_full_grid(grid, dataset, split_labels(dataset, 4, seed=1))

    # the diverging runs overflow on their way to inf
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_later_columns_that_diverge(self, monkeypatch):
        # at delta=1000 the smooth columns at K=3 diverge between T=20 and
        # T=400 (100 there) and stop, and sigma_f=0.2 scores 0 at T=20,
        # after which every column stops at T=5
        grid = GridSpec(
            K_values=(6, 3),
            T_values=(400, 5, 20),
            sigma_f_values=(5.0, 0.2, 0.01, 1.0, 0.05),
            variant="smooth",
            mode="nonlinear",
        )
        split = split_labels(self.SEPARATED, 4, seed=1)
        self.assert_full_grid(grid, self.SEPARATED, split, delta=1000.0, warm_start_steps=0)
        columns, _ = self.count_calls(monkeypatch)
        grid_search(grid, self.SEPARATED, split, delta=1000.0, warm_start_steps=0)
        diverged, rest = columns[:2], columns[2:]
        assert [column[:2] for column in diverged] == [[3, 0.01], [3, 0.05]]
        assert all(20 < last < 400 for *_, last in diverged)
        assert rest == [[3, 0.2, 20], [3, 1.0, 5], [3, 5.0, 5]] + [
            [6, sigma_f, 5] for sigma_f in (0.01, 0.05, 0.2, 1.0, 5.0)
        ]

    # the diverging run overflows on its way to inf
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_column_stops_where_it_diverges(self, monkeypatch):
        # isotropic steps at delta=1000 overflow before T=400, so T=400 and
        # T=500 score 100 from a single run that goes no further
        ds = gaussian_blobs(40, 2, 10.0, 2, seed=4)
        split = split_labels(ds, 4, seed=4)
        grid = GridSpec(K_values=(3,), T_values=(500, 400), variant="isotropic")
        expected = grid_search_exhaustive(grid, ds, split, delta=1000.0, warm_start_steps=0)
        columns, _ = self.count_calls(monkeypatch)
        config, err, labels = grid_search(grid, ds, split, delta=1000.0, warm_start_steps=0)
        assert (config, err, labels) == expected == (replace(config, T=400), 100.0, None)
        [[K, sigma_f, last]] = columns
        assert (K, sigma_f) == (3, 0.05) and last < 400

    def test_a_dominated_K_builds_no_graph(self, monkeypatch):
        # the grid of test_tie_prefers_smaller_t_then_k_then_sigma: its first
        # cell, K=3, sigma_f=0.1 at T=10, scores 0 and comes before all others
        columns, builds = self.count_calls(monkeypatch)
        grid = GridSpec(K_values=(7, 3), T_values=(50, 10), sigma_f_values=(0.5, 0.1))
        config, err, _ = grid_search(grid, self.SEPARATED, split_labels(self.SEPARATED, 4, seed=1))
        assert (err, config.T, config.K, config.sigma_f) == (0.0, 10, 3, 0.1)
        assert builds == [3] and columns == [[3, 0.1, 10]]

    @pytest.mark.parametrize(
        "dataset, train_labels, seed, columns, last",
        [
            # each search's first column, K=5 and sigma_f=0.05, scores 0 at
            # T=10, so it comes before every other cell: one column per
            # method, stopped at T=10
            (two_moons(600, 0.1, seed=1), 4, 1, 3, 10),
            # no cell scores 0, so every column of the 3 searches runs to T=200
            (gaussian_blobs(600, 4, 3.0, 2, 0), 8, 0, 45, 200),
        ],
        ids=["moons600", "blobs600"],
    )
    def test_benchmark_columns(self, monkeypatch, dataset, train_labels, seed, columns, last):
        counted, _ = self.count_calls(monkeypatch)
        benchmark(dataset, ["A_lin", "A_nlin", "A_S"], [seed], GridSpec(), train_labels=train_labels)
        assert len(counted) == columns
        # a search visits K, then sigma_f, in ascending order
        per_method = columns // 3
        for search in (counted[i : i + per_method] for i in range(0, columns, per_method)):
            assert search == sorted(search)
        first = [column[:2] for column in counted[::per_method]]
        assert first == [[5, 0.05]] * 3 and all(t == last for *_, t in counted)


class TestGridSpecValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            GridSpec(K_values=())

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            GridSpec(sigma_f_values=(0.0,))

    def test_sigma_f_with_zero_square_rejected(self):
        # 1e-200 is positive, but its square underflows to 0
        with pytest.raises(ParameterError, match="sigma_f must be positive with a nonzero square"):
            GridSpec(sigma_f_values=(0.1, 1e-200))

    def test_infinite_sigma_f_rejected(self):
        with pytest.raises(ParameterError, match="and finite, got inf"):
            GridSpec(sigma_f_values=(0.1, np.inf))

    def test_fractional_K_or_T_rejected(self):
        # int() in the search would have run K=5, T=10 without a word
        for kwargs in ({"K_values": (5.7,)}, {"T_values": (10, 10.9)}):
            with pytest.raises(ParameterError, match="Integral"):
                GridSpec(**kwargs)
        grid = GridSpec(K_values=(np.int64(5),), T_values=(np.int32(10),))
        assert grid.K_values == (5,)

    def test_repeated_values_kept_once_in_order(self):
        grid = GridSpec(K_values=[10, 5, 10], T_values=(50, 10, 50), sigma_f_values=[0.2, 0.2])
        assert (grid.K_values, grid.T_values, grid.sigma_f_values) == ((10, 5), (50, 10), (0.2,))
        assert hash(grid) == hash(GridSpec(K_values=(10, 5), T_values=(50, 10), sigma_f_values=(0.2,)))

    def test_repeated_values_run_once(self, monkeypatch):
        from anisodiff import evaluation

        calls = dict.fromkeys(["_trajectory", "grf_harmonic"], 0)
        for owner, name in ((evaluation.diffusion, "_trajectory"), (evaluation, "grf_harmonic")):
            def counted(*args, _name=name, _call=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        # the calls are counted in this process, so nothing may run in a child
        monkeypatch.setattr(evaluation, "usable_cpus", lambda: 1)
        ds = two_moons(80, 0.1, seed=0)
        repeated = benchmark(ds, ["A_S", "GRF"], [0], GridSpec((5, 5, 5), (5, 10, 5), (0.1, 0.1)))
        assert calls == {"_trajectory": 1, "grf_harmonic": 1}
        single = benchmark(ds, ["A_S", "GRF"], [0], GridSpec((5,), (5, 10), (0.1,)))
        assert report_kv(repeated) == report_kv(single)


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
            assert row.mean_seconds > 0

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

    @pytest.mark.parametrize(
        "seeds, train_labels, name",
        [([1.5], 4, "seed"), ([0, -1], 4, "seed"), ([0], 4.7, "train_labels"),
         ([0], 0, "train_labels")],
    )
    def test_seeds_and_train_labels_must_be_integers(self, seeds, train_labels, name):
        # int() would run seed 1.5 as seed 1 and draw 4 labels for 4.7
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=7)
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            benchmark(ds, ["GRF"], seeds, GridSpec(), train_labels=train_labels)

    def test_numpy_integer_seeds_and_train_labels(self):
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=6)
        grid = GridSpec(K_values=(4,))
        a = benchmark(ds, ["GRF"], [np.int64(3)], grid, train_labels=np.int32(4))
        b = benchmark(ds, ["GRF"], [3], grid, train_labels=4)
        assert report_kv(a) == report_kv(b)

    def test_empty_method_list_rejected(self):
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=7)
        with pytest.raises(ParameterError, match="at least one method"):
            benchmark(ds, [], [0], GridSpec(), train_labels=4)

    def test_empty_seed_list_rejected(self):
        ds = gaussian_blobs(50, 2, 6.0, 2, seed=7)
        with pytest.raises(ParameterError, match="at least one seed"):
            benchmark(ds, ["I", "GRF"], [], GridSpec(), train_labels=4)

    def test_kv_excludes_timing(self, small_report):
        assert "mean_seconds" not in report_kv(small_report)

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


class TestGrfSearch:
    """A GRF search solves on every graph and keeps the least (validation error, K)."""

    @pytest.fixture(scope="class")
    def inputs(self):
        ds = two_moons(20, 0.1, seed=0)
        g = build_knn_graph(ds.distance_matrix, 3)
        # the same graph with one test node cut off: a component without labels
        keep = np.ones(ds.n)
        keep[split_labels(ds, 2, seed=0).test[0]] = 0.0
        cut = sp.diags_array(keep) @ g.weights @ sp.diags_array(keep)
        cut.eliminate_zeros()
        with pytest.warns(UserWarning, match="isolated"):
            return ds, g, Graph(sp.csr_array(cut))

    @staticmethod
    def search(ds, graphs):
        config = DiffusionConfig()
        return evaluation._run_slice(
            ds, GridSpec(), graphs, 2, config.delta, config.warm_start_steps, "GRF", 0
        )

    @staticmethod
    def errors(ds, g):
        """(validation error, test error) of the harmonic solution on g."""
        split = split_labels(ds, 2, seed=0)
        state = init_labels(zip(split.train, ds.labels[split.train]), ds.n, ds.c)
        labels = decode_labels(grf_harmonic(g, state))
        return tuple(error_rate(labels, ds.labels, idx) for idx in (split.validation, split.test))

    def test_ties_on_validation_error_go_to_the_smaller_K(self, inputs):
        ds, g, _ = inputs
        selected, test, seconds = self.search(ds, {7: g, 3: g})
        assert (selected, test) == ("K:3", self.errors(ds, g)[1]) and seconds > 0

    def test_unlabeled_component_scores_100(self, inputs):
        ds, g, cut = inputs
        assert self.search(ds, {7: cut})[:2] == ("K:7", 100.0)
        # so the cut graph loses at the smaller K to a solvable one
        assert self.search(ds, {3: cut, 7: g})[:2] == ("K:7", self.errors(ds, g)[1])


def test_split_follows_the_methods_not_the_grid(monkeypatch):
    sweep = ["I", "A_lin", "A_nlin", "A_S", "GRF"]
    tasks = [(m, 0) for m in sweep]
    # A_S's price outweighs the other four searches' together
    split = evaluation._shares(tasks, 2)
    assert [[tasks[i][0] for i in share] for share in split] == [
        ["A_S"], ["A_nlin", "A_lin", "I", "GRF"]
    ]
    # benchmark deals the same shares on the default grid and a wide one
    dealt = []
    real = evaluation._shares

    def recorded(*args):
        dealt.append(real(*args))
        return dealt[-1]

    monkeypatch.setattr(evaluation, "_shares", recorded)
    monkeypatch.setattr(evaluation, "_run_slice", lambda *args: ("K:5", 0.0, 1.0))
    ds = two_moons(40, 0.1, seed=1)
    wide = GridSpec(T_values=(5, 500), sigma_f_values=(0.1, 0.2, 0.4))
    with processes(2):
        for grid in (GridSpec(), wide):
            benchmark(ds, sweep, [0], grid, train_labels=4)
    assert dealt == [split, split]
    assert not multiprocessing.active_children()


class TestParallelBenchmark:
    """Any process count gives the serial report, and no child outlives a call."""

    ALL_METHODS = ["I", "A_lin", "A_nlin", "A_S", "A_LM", "GRF"]
    GRID = GridSpec(K_values=(4, 8), T_values=(5, 20), sigma_f_values=(0.1, 0.5))

    @pytest.fixture(scope="class")
    def noisy(self):
        # noisy, so the selected cells differ across methods and seeds
        return two_moons(80, 0.2, seed=12)

    @pytest.fixture(scope="class")
    def reports(self, noisy):
        reports = {}
        for n in (1, 2, 3):
            with processes(n):
                reports[n] = benchmark(noisy, self.ALL_METHODS, [0, 1], self.GRID, train_labels=4)
        return reports

    def test_reports_byte_identical_for_any_process_count(self, reports):
        for w in (2, 3):
            assert report_kv(reports[w]) == report_kv(reports[1])
            assert report_table(reports[w]) == report_table(reports[1])
        assert all(r.mean_seconds > 0 for r in reports[2].rows)
        assert not multiprocessing.active_children()

    def test_selection_is_the_full_grid_search(self, noisy, reports):
        # each (method, seed)'s pruned search picks the cell that one unpruned
        # search over every K picks
        y = noisy.labels
        graphs = {K: build_knn_graph(noisy.distance_matrix, K) for K in self.GRID.K_values}
        cells = set()
        for row in reports[2].rows:
            for seed, cell in zip(reports[2].seeds, row.selected):
                split = split_labels(noisy, 4, seed)
                if row.method == "GRF":
                    state = init_labels(zip(split.train, y[split.train]), noisy.n, noisy.c)
                    _, K = min(
                        (error_rate(decode_labels(grf_harmonic(g, state)), y, split.validation), K)
                        for K, g in graphs.items()
                    )
                    assert cell == f"K:{K}"
                else:
                    variant, mode = BENCHMARK_METHODS[row.method]
                    grid = replace(self.GRID, variant=variant, mode=mode)
                    config, _, _ = grid_search_exhaustive(grid, noisy, split, graph_cache=graphs)
                    assert cell == f"K:{config.K};T:{config.T};sigma_f:{config.sigma_f:.17g}"
                cells.add(cell)
        assert len({cell.split(";")[0] for cell in cells}) == 2  # both K values win somewhere

    def test_more_cpus_than_slices(self):
        ds = two_moons(40, 0.1, seed=1)
        grid = GridSpec(K_values=(4,), T_values=(5,), sigma_f_values=(0.2,))
        with processes(1):
            serial = benchmark(ds, ["I", "GRF"], [0], grid, train_labels=4)
        with processes(8):
            wide = benchmark(ds, ["I", "GRF"], [0], grid, train_labels=4)
        assert report_kv(wide) == report_kv(serial)
        assert not multiprocessing.active_children()

    def test_repeated_methods_and_seeds(self):
        # the results are keyed by slice; a repeat must still give its own row and error
        ds = two_moons(40, 0.2, seed=1)
        grid = GridSpec(K_values=(3, 5), T_values=(5, 20), sigma_f_values=(0.2, 0.5))
        reports = {}
        for n in (1, 2):
            with processes(n):
                reports[n] = benchmark(ds, ["I", "A_S", "I"], [0, 1, 0], grid, train_labels=4)
        assert report_kv(reports[2]) == report_kv(reports[1])
        assert report_table(reports[2]) == report_table(reports[1])
        once = benchmark(ds, ["I", "A_S"], [0, 1], grid, train_labels=4)
        rows = reports[1].rows
        assert [r.method for r in rows] == ["I", "A_S", "I"]
        for row, single in zip(rows, [*once.rows, once.rows[0]]):
            assert row.errors == (*single.errors, single.errors[0])
            assert row.selected == (*single.selected, single.selected[0])
        assert not multiprocessing.active_children()

    def test_calling_process_runs_the_costliest_slice(self, monkeypatch):
        # a child's calls are recorded in the child's memory, not here
        calls = []
        real = evaluation.grid_search

        def recorded(grid, *args, **kwargs):
            calls.append((grid.variant, grid.K_values))
            return real(grid, *args, **kwargs)

        monkeypatch.setattr(evaluation, "grid_search", recorded)
        ds = two_moons(40, 0.1, seed=1)
        grid = GridSpec(K_values=(3, 5), T_values=(5,), sigma_f_values=(0.2, 0.5))
        with processes(2):
            benchmark(ds, ["I", "A_S"], [0], grid, train_labels=4)
        assert calls == [("smooth", (3, 5))]

    @pytest.mark.parametrize("error", [DivergenceError, ParameterError])
    def test_child_error_keeps_its_type_and_no_child_remains(self, monkeypatch, error):
        parent = os.getpid()
        real = evaluation.grid_search

        def failing_in_child(*args, **kwargs):
            if os.getpid() != parent:
                raise error("raised in a child")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "grid_search", failing_in_child)
        ds = two_moons(40, 0.1, seed=1)
        grid = GridSpec(K_values=(3, 4, 5), T_values=(5,), sigma_f_values=(0.2,))
        # two searches of one cost: the second goes to a child
        with processes(2), pytest.raises(error, match="raised in a child"):
            benchmark(ds, ["A_nlin"], [0, 1], grid, train_labels=4)
        assert not multiprocessing.active_children()

    def test_diverged_selection_raises_after_the_children_end(self):
        ds = gaussian_blobs(40, 2, 10.0, 2, seed=4)
        grid = GridSpec(K_values=(3, 4), T_values=(400,), sigma_f_values=(0.2,))
        # every cell diverges at either seed, and the second seed's search runs in a child
        with processes(2), pytest.raises(DivergenceError, match="diverged at delta=1000"):
            benchmark(ds, ["I"], [4, 5], grid, train_labels=4, delta=1000.0)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(delta=-1.0), "delta must be positive"),
            (dict(warm_start_steps=-5), "warm_start_steps must be"),
        ],
    )
    def test_arguments_checked_for_any_method_list(self, kwargs, match):
        ds = two_moons(40, 0.1, seed=1)
        with pytest.raises(ParameterError, match=match):
            benchmark(ds, ["GRF"], [0], GridSpec(K_values=(4,)), train_labels=4, **kwargs)

    def test_daemonic_process_runs_serially(self):
        # a daemonic process may not have children, so it runs every slice itself
        serial = report_kv(_small_benchmark())
        with processes(2), multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_small_benchmark_kv) == serial
        assert not multiprocessing.active_children()


def _small_benchmark():
    ds = two_moons(40, 0.1, seed=1)
    grid = GridSpec(K_values=(3, 4), T_values=(5,), sigma_f_values=(0.2,))
    return benchmark(ds, ["I", "A_nlin"], [0], grid, train_labels=4)


def _small_benchmark_kv():
    assert multiprocessing.current_process().daemon
    return report_kv(_small_benchmark())
