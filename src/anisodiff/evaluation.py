"""Error rates, validation-set model selection, and the comparison harness.

Hyper-parameters are selected per the validation protocol: train labels
drive the diffusion, the validation labels pick (K, T, sigma_f) by minimum
error, and the held-out test error is reported.  sigma_x is never searched;
it is recomputed from the kNN distances for each K.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import grf_harmonic
from .data import Dataset, SplitSpec, _check_label_count, split_labels
from . import diffusion
from .diffusion import DiffusionConfig, _check_integer, decode_labels, init_labels
from .diffusivity import _check_sigma_f
from .errors import DivergenceError, InputError, ParameterError, UnlabeledComponentError
from .graph import _check_K, build_knn_graph, usable_cpus

# method -> (variant, mode, price).  _shares deals the (method, seed)
# searches by these fixed prices, the default grid's columns x steps over 20.
# A pruned search's work follows its split seed, not the grid: ms per
# _run_slice on two_moons(600, 0.1, seed=0), default grid, train_labels=4,
# in one process after a warm-up, median of 3:
#   seed 0:   I 10.9, A_lin 44.4, A_nlin 98.6, A_S 258.4, GRF 7.7 (seed 4: A_S 138.4,
#             the rest within 25%)
#   seed 1-3: I 1.0-1.2, A_lin 1.1-1.2, A_nlin 1.6-1.7, A_S 2.4-3.5, GRF 7.0-7.5
#   criterion 6, sum of 10 seeds: I 35, A_lin 123, A_nlin 290, A_S 552, A_LM 1,203
_METHODS = {
    "I": ("isotropic", "linear", 11),
    "A_lin": ("plain", "linear", 55),
    "A_nlin": ("plain", "nonlinear", 165),
    "A_S": ("smooth", "nonlinear", 440),
    "A_LM": ("local_match", "nonlinear", 1650),
    "GRF": (None, None, 4),
}

METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class GridSpec:
    """One search: the hyper-parameter grid, and the variant, mode, step size
    and warm start that every cell of it shares."""

    K_values: tuple = (5, 10, 20)
    T_values: tuple = (10, 50, 100, 200)
    sigma_f_values: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    variant: str = DiffusionConfig.variant
    mode: str = DiffusionConfig.mode
    delta: float = DiffusionConfig.delta
    warm_start_steps: int = DiffusionConfig.warm_start_steps

    def __post_init__(self):
        # int() would silently truncate a fractional K or T
        for name, values, kind in (
            ("K_values", self.K_values, numbers.Integral),
            ("T_values", self.T_values, numbers.Integral),
            ("sigma_f_values", self.sigma_f_values, numbers.Real),
        ):
            if len(values) == 0:
                raise ParameterError(f"{name} must be nonempty")
            if not all(isinstance(v, kind) for v in values):
                raise ParameterError(f"{name} entries must be {kind.__name__} numbers")
            if any(v <= 0 for v in values):
                raise ParameterError(f"{name} entries must be positive")
            # a repeated value would rerun the same cells
            object.__setattr__(self, name, tuple(dict.fromkeys(values)))
        for sigma_f in self.sigma_f_values:
            _check_sigma_f(sigma_f)
        DiffusionConfig(
            delta=self.delta, warm_start_steps=self.warm_start_steps,
            variant=self.variant, mode=self.mode,
        )


def error_rate(predicted, truth, eval_indices) -> float:
    """Percentage of mismatches over the evaluation indices."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise InputError(
            f"prediction shape {predicted.shape} != truth shape {truth.shape}"
        )
    idx = np.asarray(eval_indices)
    if idx.size == 0:
        raise InputError("evaluation index set is empty")
    # a cast would truncate a fractional index; a negative one counts from the end
    n = len(truth)
    if not np.issubdtype(idx.dtype, np.integer) or idx.min() < 0 or idx.max() >= n:
        raise InputError(f"evaluation indices must be integers in [0, {n})")
    return 100.0 * float(np.count_nonzero(predicted[idx] != truth[idx])) / idx.size


def grid_search(
    grid: GridSpec,
    dataset: Dataset,
    split: SplitSpec,
    *,
    graph_cache: dict | None = None,
):
    """Best cell by validation error; returns (config, validation_error, labels).

    Every (K, T, sigma_f) cell trains on the train labels and scores on the
    validation labels.  Cells whose run diverges score 100.  Ties break by
    smaller T, then smaller K, then smaller sigma_f.  A (K, sigma_f) column
    scores each T as its one trajectory reaches it, which is exactly
    equivalent to independent runs because a shorter run is a prefix of a
    longer one.  ``labels`` is the decoded prediction of the selected cell,
    or None when that cell diverged.

    No error is below 0, so a column stops at its first T that cannot win,
    one whose key (0, T, K, sigma_f) does not come before the best key so
    far: no later T can win either.  A divergence stops it too, as every
    later T scores 100 and sorts after this one.  A K with no T that could
    win builds no graph.  K and sigma_f are visited in ascending order, so a
    cell scoring 0 skips the most.  The selection is that of the full grid.
    """
    y = dataset.labels
    best = None  # (cell key, config, labels)
    T_values = sorted(map(int, grid.T_values))
    # the isotropic variant ignores sigma_f; evaluate a single column, at
    # the first given value, which its selection reports
    sigmas = grid.sigma_f_values[:1] if grid.variant == "isotropic" else sorted(grid.sigma_f_values)
    sigmas = list(map(float, sigmas))
    state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
    graphs = {} if graph_cache is None else graph_cache
    # every K up front: a search that never reaches a K builds no graph for it
    for K in sorted(_check_K(v, dataset.n) for v in grid.K_values):
        for sigma_f in sigmas:
            trajectory = None
            for T in T_values:
                if best is not None and (0.0, T, K, sigma_f) >= best[0]:
                    break  # neither this T nor a later one can win
                if trajectory is None:
                    if K not in graphs:
                        graphs[K] = build_knn_graph(dataset.distance_matrix, K)
                    config = DiffusionConfig(
                        K=K, T=T_values[-1], sigma_f=sigma_f, delta=grid.delta, mode=grid.mode,
                        warm_start_steps=grid.warm_start_steps, variant=grid.variant,
                    )
                    # the module attribute, so a wrapper set on it sees the search
                    trajectory = diffusion._trajectory(config, graphs[K], state, energies=False)
                try:
                    for t, f, _ in trajectory:
                        if t == T:
                            break
                    labels = decode_labels(f)
                    err = error_rate(labels, y, split.validation)
                except DivergenceError:
                    labels, err = None, 100.0
                key = (err, T, K, sigma_f)
                if best is None or key < best[0]:
                    best = (key, replace(config, T=T), labels)
                if labels is None:
                    break  # diverged: every later T scores 100
    (err, *_), config, labels = best
    return config, err, labels


@dataclass
class MethodResult:
    """Per-method benchmark row: errors per seed plus selection details."""

    method: str
    errors: tuple
    selected: tuple
    mean_error: float
    sd_error: float
    mean_seconds: float


@dataclass
class BenchmarkReport:
    dataset: str
    seeds: tuple
    train_labels: int
    rows: tuple


def _run_slice(dataset, grid, graphs, train_labels, method, seed):
    """The search of (method, seed) over every K: (selected, test error, seconds).

    A diffusion method makes one :func:`grid_search`; GRF solves on each
    graph and takes the least (validation error, K).  The test error is
    None when the selected cell diverged.
    """
    t0 = time.perf_counter()
    y = dataset.labels
    split = split_labels(dataset, train_labels, seed)
    if method == "GRF":
        state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
        scores = []
        for K in sorted(graphs):
            # a component without labels makes the cell unsolvable; it scores
            # 100 rather than aborting the sweep
            try:
                labels = decode_labels(grf_harmonic(graphs[K], state))
                err = error_rate(labels, y, split.validation)
                test = error_rate(labels, y, split.test)
            except UnlabeledComponentError:
                err = test = 100.0
            scores.append((err, K, test))
        _, K, test = min(scores)
        selected = f"K:{K}"
    else:
        variant, mode, _ = _METHODS[method]
        config, _, labels = grid_search(
            replace(grid, variant=variant, mode=mode), dataset, split, graph_cache=graphs
        )
        selected = f"K:{config.K};T:{config.T};sigma_f:{config.sigma_f:.17g}"
        test = None if labels is None else error_rate(labels, y, split.test)
    return selected, test, time.perf_counter() - t0


# a forked child's slice function, put here by the pool's initializer in the
# child only: the fork shares the graphs copy-on-write, never pickled, and
# threads of the calling process that run benchmarks of their own never see it
_forked = {}


def _run_forked(share) -> dict:
    return {task: _forked["run"](*task) for task in share}


def _shares(tasks, processes: int) -> list:
    """Task indices per process: costliest first, each to the least-loaded.

    A (method, seed) task costs its method's price in ``_METHODS``.  Ties go
    to the lower process, so process 0 takes the costliest task.  The shares
    depend on the methods and the process count alone, never on the grid or
    on timing.
    """
    prices = [_METHODS[method][2] for method, _ in tasks]
    loads = [0] * processes
    shares = [[] for _ in range(processes)]
    for i in sorted(range(len(tasks)), key=lambda i: -prices[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += prices[i]
    return shares


def _run_slices(run, tasks) -> dict:
    """``{task: run(*task)}`` for every (method, seed) task, in :func:`_shares`.

    One process per usable CPU, up to one per task: the calling process runs
    share 0 and forks a child per further share, and every child is joined
    before this returns or raises.  Without the fork start method, or in a
    daemonic process, which may not have children, the one share is the
    calling process's own.
    """
    # imported here, so the package's import does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    processes = min(usable_cpus(), len(tasks))
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        processes = 1
    own, *others = ([tasks[i] for i in share] for share in _shares(tasks, processes))
    pool = contextlib.nullcontext()
    if others:
        pool = ProcessPoolExecutor(
            len(others),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_forked.update,
            initargs=({"run": run},),
        )
    with pool:
        futures = [pool.submit(_run_forked, share) for share in others]
        results = {task: run(*task) for task in own}
        for future in futures:
            results.update(future.result())
    return results


def benchmark(
    dataset: Dataset,
    methods,
    seeds,
    grid: GridSpec = GridSpec(),
    *,
    train_labels: int | None = None,
) -> BenchmarkReport:
    """Grid-select on validation and report mean/sd test error per method.

    ``train_labels`` is the size of the train label set (validation matches
    it); the default draws two labels per class.  The test error is read
    from the selected cell's own prediction, the one the search scored on
    validation, so nothing is rerun.  A selected diffusion cell that
    diverged raises :class:`DivergenceError`.  Each diffusion method searches
    ``grid`` with its own variant and mode, at the grid's delta and warm start.

    Each (method, seed) is one search over the whole grid, one
    :func:`grid_search` for a diffusion method, which skips the cells that
    cannot win across every K, and one solve per K for GRF.  The searches
    are spread over one process per usable CPU (:func:`usable_cpus`), the
    calling one included, on the fork start method, costliest first in every
    process; the report is the same for any number of processes.  The graphs
    are built beforehand and never timed; each process builds a graph's
    cached structures the first time one of its searches reads them.
    ``mean_seconds`` is the mean over seeds of a search's wall time, timed in
    the process that ran it, so it includes the structures the search is the
    first to read; timing lives outside the deterministic report fields.
    """
    methods = list(methods)
    if not methods:
        raise ParameterError("methods must name at least one method")
    for m in methods:
        if m not in METHODS:
            raise ParameterError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
    seeds = list(seeds)
    if not seeds:
        raise ParameterError("seeds must name at least one seed")
    for s in seeds:
        _check_integer("seed", s, 0)
    l = 2 * dataset.c if train_labels is None else train_labels
    _check_integer("train_labels", l, 1)
    _check_label_count(dataset, l)
    graphs = {K: build_knn_graph(dataset.distance_matrix, K) for K in map(int, grid.K_values)}
    run = functools.partial(_run_slice, dataset, grid, graphs, l)
    # a repeated method or seed reads the one run of its search
    tasks = list(dict.fromkeys(itertools.product(methods, seeds)))
    results = _run_slices(run, tasks)
    rows = []
    for method in methods:
        selected, errors, seconds = zip(*(results[method, seed] for seed in seeds))
        if None in errors:
            raise DivergenceError(f"diffusion diverged at delta={grid.delta}")
        mean = float(np.mean(errors))
        sd = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
        rows.append(
            MethodResult(
                method=method,
                errors=errors,
                selected=selected,
                mean_error=mean,
                sd_error=sd,
                mean_seconds=float(np.mean(seconds)),
            )
        )
    return BenchmarkReport(dataset.name, tuple(map(int, seeds)), int(l), tuple(rows))


# ---------------------------------------------------------------------------
# report serialization


def report_table(report: BenchmarkReport) -> str:
    """Human-readable aligned table; like :func:`report_kv`, it leaves timing out."""
    header = ["method", "mean_error%", "sd_error"]
    lines = [
        f"dataset: {report.dataset}",
        f"seeds: {','.join(str(s) for s in report.seeds)}",
        f"train_labels: {report.train_labels}",
        "",
    ]
    rows = [[r.method, f"{r.mean_error:.2f}", f"{r.sd_error:.2f}"] for r in report.rows]
    widths = [
        max([len(h)] + [len(r[k]) for r in rows]) for k, h in enumerate(header)
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def report_kv(report: BenchmarkReport) -> str:
    """Machine-readable key-value text, one row per method.

    Timing is left out, so repeated runs emit identical bytes.
    """
    lines = [
        "format=anisodiff-benchmark-v1",
        f"dataset={report.dataset}",
        f"seeds={','.join(str(s) for s in report.seeds)}",
        f"train_labels={report.train_labels}",
    ]
    for r in report.rows:
        parts = [
            f"method={r.method}",
            "errors=" + ",".join(f"{e:.17g}" for e in r.errors),
            "selected=" + "|".join(r.selected),
            f"mean_error={r.mean_error:.17g}",
            f"sd_error={r.sd_error:.17g}",
        ]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
