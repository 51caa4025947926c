"""Error rates, validation-set model selection, and the comparison harness.

Hyper-parameters are selected per the validation protocol: train labels
drive the diffusion, the validation labels pick (K, T, sigma_f) by minimum
error, and the held-out test error is reported.  sigma_x is never searched;
it is recomputed from the kNN distances for each K.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baselines import grf_harmonic
from .data import Dataset, SplitSpec, split_labels
from .diffusion import (
    DiffusionConfig,
    decode_labels,
    init_labels,
    run_diffusion,
    snapshots_at,
)
from .errors import InputError, ParameterError, UnlabeledComponentError
from .graph import build_knn_graph

_METHOD_SETTINGS = {
    "I": ("isotropic", "linear"),
    "A_lin": ("plain", "linear"),
    "A_nlin": ("plain", "nonlinear"),
    "A_S": ("smooth", "nonlinear"),
    "A_LM": ("local_match", "nonlinear"),
}

METHODS = tuple(_METHOD_SETTINGS) + ("GRF",)

DEFAULT_K_VALUES = (5, 10, 20)
DEFAULT_T_VALUES = (10, 50, 100, 200)
DEFAULT_SIGMA_F_VALUES = (0.05, 0.1, 0.2, 0.5, 1.0)


@dataclass(frozen=True)
class GridSpec:
    """Hyper-parameter grid for one diffusion variant."""

    K_values: tuple = DEFAULT_K_VALUES
    T_values: tuple = DEFAULT_T_VALUES
    sigma_f_values: tuple = DEFAULT_SIGMA_F_VALUES
    variant: str = "plain"
    mode: str = "nonlinear"

    def __post_init__(self):
        for name, values in (
            ("K_values", self.K_values),
            ("T_values", self.T_values),
            ("sigma_f_values", self.sigma_f_values),
        ):
            if len(values) == 0:
                raise ParameterError(f"{name} must be nonempty")
            if any(v <= 0 for v in values):
                raise ParameterError(f"{name} entries must be positive")


def error_rate(predicted, truth, eval_indices) -> float:
    """Percentage of mismatches over the evaluation indices."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise InputError(
            f"prediction shape {predicted.shape} != truth shape {truth.shape}"
        )
    idx = np.asarray(eval_indices, dtype=np.int64)
    if idx.size == 0:
        raise InputError("evaluation index set is empty")
    return 100.0 * float(np.count_nonzero(predicted[idx] != truth[idx])) / idx.size


def _graph_for(dataset: Dataset, K: int, cache: dict | None):
    if cache is not None and K in cache:
        return cache[K]
    graph = build_knn_graph(dataset.distance_matrix, K)
    if cache is not None:
        cache[K] = graph
    return graph


def grid_search(
    grid: GridSpec,
    dataset: Dataset,
    split: SplitSpec,
    *,
    delta: float = 1.0,
    warm_start_steps: int = 20,
    clamp_labels: bool = False,
    graph_cache: dict | None = None,
):
    """Best config by validation error; returns (config, validation_error).

    Every (K, T, sigma_f) cell trains on the train labels and scores on the
    validation labels.  Cells whose run diverges score 100.  Ties break by
    smaller T, then smaller K, then smaller sigma_f.  All T values of one
    (K, sigma_f) column are read off a single trajectory, which is exactly
    equivalent to independent runs because a shorter run is a prefix of a
    longer one.
    """
    y = dataset.labels
    results = []
    T_values = sorted(set(int(t) for t in grid.T_values))
    # the isotropic variant ignores sigma_f; evaluate a single column
    sigmas = grid.sigma_f_values[:1] if grid.variant == "isotropic" else grid.sigma_f_values
    state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
    for K in grid.K_values:
        graph = _graph_for(dataset, int(K), graph_cache)
        for sigma_f in sigmas:
            config = DiffusionConfig(
                K=int(K),
                T=max(T_values),
                sigma_f=float(sigma_f),
                delta=delta,
                warm_start_steps=warm_start_steps,
                variant=grid.variant,
                mode=grid.mode,
                clamp_labels=clamp_labels,
            )
            snaps = snapshots_at(config, graph, state, T_values)
            for T in T_values:
                if T in snaps:
                    pred = decode_labels(snaps[T])
                    err = error_rate(pred, y, split.validation)
                else:  # diverged before reaching T
                    err = 100.0
                results.append((err, T, int(K), float(sigma_f)))
    err, T, K, sigma_f = min(results)
    best = DiffusionConfig(
        K=K,
        T=T,
        sigma_f=sigma_f,
        delta=delta,
        warm_start_steps=warm_start_steps,
        variant=grid.variant,
        mode=grid.mode,
        clamp_labels=clamp_labels,
    )
    return best, err


@dataclass
class MethodResult:
    """Per-method benchmark row: errors per seed plus selection details."""

    method: str
    errors: tuple
    selected: tuple
    mean_error: float
    sd_error: float
    mean_seconds: float | None = None


@dataclass
class BenchmarkReport:
    dataset: str
    seeds: tuple
    train_labels: int
    rows: tuple


def _describe_config(config: DiffusionConfig) -> str:
    return f"K:{config.K};T:{config.T};sigma_f:{config.sigma_f:.17g}"


def _describe_grf(K: int) -> str:
    return f"K:{K}"


def benchmark(
    dataset: Dataset,
    methods,
    seeds,
    grid: GridSpec = GridSpec(),
    *,
    train_labels: int | None = None,
    delta: float = 1.0,
    warm_start_steps: int = 20,
) -> BenchmarkReport:
    """Grid-select on validation and report mean/sd test error per method.

    ``train_labels`` is the size of the train label set (validation matches
    it); the default draws two labels per class.  Wall-clock timing covers
    the final diffusion loop (or harmonic solve) only, never graph
    construction, and lives outside the deterministic report fields.
    """
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise ParameterError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
    seeds = [int(s) for s in seeds]
    l = 2 * dataset.c if train_labels is None else int(train_labels)
    y = dataset.labels
    cache: dict = {}
    rows = []
    for method in methods:
        errors, selected, seconds = [], [], []
        for seed in seeds:
            split = split_labels(dataset, l, seed)
            state = init_labels(
                zip(split.train, y[split.train]), dataset.n, dataset.c
            )
            if method == "GRF":
                # a component without labels makes a K-cell unsolvable; it
                # scores 100 rather than aborting the sweep
                best_K, best_err = None, None
                for K in grid.K_values:
                    graph = _graph_for(dataset, int(K), cache)
                    try:
                        sol = grf_harmonic(graph, state)
                        err = error_rate(decode_labels(sol.f), y, split.validation)
                    except UnlabeledComponentError:
                        err = 100.0
                    if best_err is None or (err, K) < (best_err, best_K):
                        best_K, best_err = int(K), err
                graph = _graph_for(dataset, best_K, cache)
                t0 = time.perf_counter()
                try:
                    sol = grf_harmonic(graph, state)
                    test_err = error_rate(decode_labels(sol.f), y, split.test)
                except UnlabeledComponentError:
                    test_err = 100.0
                seconds.append(time.perf_counter() - t0)
                errors.append(test_err)
                selected.append(_describe_grf(best_K))
            else:
                variant, mode = _METHOD_SETTINGS[method]
                method_grid = GridSpec(
                    K_values=grid.K_values,
                    T_values=grid.T_values,
                    sigma_f_values=grid.sigma_f_values,
                    variant=variant,
                    mode=mode,
                )
                config, _ = grid_search(
                    method_grid,
                    dataset,
                    split,
                    delta=delta,
                    warm_start_steps=warm_start_steps,
                    graph_cache=cache,
                )
                graph = _graph_for(dataset, config.K, cache)
                t0 = time.perf_counter()
                result = run_diffusion(config, graph, state)
                seconds.append(time.perf_counter() - t0)
                errors.append(error_rate(decode_labels(result.f), y, split.test))
                selected.append(_describe_config(config))
        errors = tuple(errors)
        mean = float(np.mean(errors))
        sd = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
        rows.append(
            MethodResult(
                method=method,
                errors=errors,
                selected=tuple(selected),
                mean_error=mean,
                sd_error=sd,
                mean_seconds=float(np.mean(seconds)),
            )
        )
    return BenchmarkReport(dataset.name, tuple(seeds), l, tuple(rows))


# ---------------------------------------------------------------------------
# report serialization


def report_table(report: BenchmarkReport, include_timing: bool = False) -> str:
    """Human-readable aligned table."""
    header = ["method", "mean_error%", "sd_error"]
    if include_timing:
        header.append("mean_seconds")
    lines = [
        f"dataset: {report.dataset}",
        f"seeds: {','.join(str(s) for s in report.seeds)}",
        f"train_labels: {report.train_labels}",
        "",
    ]
    rows = []
    for r in report.rows:
        row = [r.method, f"{r.mean_error:.2f}", f"{r.sd_error:.2f}"]
        if include_timing:
            row.append(f"{r.mean_seconds:.3f}")
        rows.append(row)
    widths = [
        max([len(h)] + [len(r[k]) for r in rows]) for k, h in enumerate(header)
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def report_kv(report: BenchmarkReport, include_timing: bool = False) -> str:
    """Machine-readable key-value text, one row per method.

    Timing is excluded by default so repeated runs emit identical bytes.
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
        if include_timing:
            parts.append(f"mean_seconds={r.mean_seconds:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_report_kv(text: str) -> BenchmarkReport:
    """Inverse of :func:`report_kv`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "format=anisodiff-benchmark-v1":
        raise InputError("not a benchmark key-value report")
    meta = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("method="):
            fields = {}
            for part in line.split(" "):
                key, value = part.split("=", 1)
                fields[key] = value
            errors = tuple(float(v) for v in fields["errors"].split(","))
            rows.append(
                MethodResult(
                    method=fields["method"],
                    errors=errors,
                    selected=tuple(fields["selected"].split("|")),
                    mean_error=float(fields["mean_error"]),
                    sd_error=float(fields["sd_error"]),
                    mean_seconds=(
                        float(fields["mean_seconds"])
                        if "mean_seconds" in fields
                        else None
                    ),
                )
            )
        else:
            key, value = line.split("=", 1)
            meta[key] = value
    return BenchmarkReport(
        dataset=meta["dataset"],
        seeds=tuple(int(s) for s in meta["seeds"].split(",")),
        train_labels=int(meta["train_labels"]),
        rows=tuple(rows),
    )
