"""Error rates, validation-set model selection, and the comparison harness.

Hyper-parameters are selected per the validation protocol: train labels
drive the diffusion, the validation labels pick (K, T, sigma_f) by minimum
error, and the held-out test error is reported.  sigma_x is never searched;
it is recomputed from the kNN distances for each K.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import grf_harmonic
from .data import Dataset, SplitSpec, split_labels
from .diffusion import (
    DiffusionConfig, _check_integer, decode_labels, init_labels, snapshots_at
)
from .errors import DivergenceError, InputError, ParameterError, UnlabeledComponentError
from .graph import build_knn_graph

_METHOD_SETTINGS = {
    "I": ("isotropic", "linear"),
    "A_lin": ("plain", "linear"),
    "A_nlin": ("plain", "nonlinear"),
    "A_S": ("smooth", "nonlinear"),
    "A_LM": ("local_match", "nonlinear"),
}

METHODS = tuple(_METHOD_SETTINGS) + ("GRF",)


@dataclass(frozen=True)
class GridSpec:
    """Hyper-parameter grid for one diffusion variant."""

    K_values: tuple = (5, 10, 20)
    T_values: tuple = (10, 50, 100, 200)
    sigma_f_values: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    variant: str = DiffusionConfig.variant
    mode: str = DiffusionConfig.mode

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
    delta: float = DiffusionConfig.delta,
    warm_start_steps: int = DiffusionConfig.warm_start_steps,
    graph_cache: dict | None = None,
):
    """Best cell by validation error; returns (config, validation_error, labels).

    Every (K, T, sigma_f) cell trains on the train labels and scores on the
    validation labels.  Cells whose run diverges score 100.  Ties break by
    smaller T, then smaller K, then smaller sigma_f.  All T values of one
    (K, sigma_f) column are read off a single trajectory, which is exactly
    equivalent to independent runs because a shorter run is a prefix of a
    longer one.  ``labels`` is the decoded prediction of the selected cell,
    or None when that cell diverged.
    """
    y = dataset.labels
    best = None  # (cell key, config, labels)
    T_values = sorted(map(int, grid.T_values))
    # the isotropic variant ignores sigma_f; evaluate a single column
    sigmas = grid.sigma_f_values[:1] if grid.variant == "isotropic" else grid.sigma_f_values
    state = init_labels(zip(split.train, y[split.train]), dataset.n, dataset.c)
    graphs = {} if graph_cache is None else graph_cache
    for K in map(int, grid.K_values):
        if K not in graphs:
            graphs[K] = build_knn_graph(dataset.distance_matrix, K)
        graph = graphs[K]
        for sigma_f in sigmas:
            config = DiffusionConfig(
                K=K,
                T=max(T_values),
                sigma_f=float(sigma_f),
                delta=delta,
                warm_start_steps=warm_start_steps,
                variant=grid.variant,
                mode=grid.mode,
            )
            snaps = snapshots_at(config, graph, state, T_values)
            for T in T_values:
                if T in snaps:
                    labels = decode_labels(snaps[T])
                    err = error_rate(labels, y, split.validation)
                else:  # diverged before reaching T
                    labels, err = None, 100.0
                key = (err, T, K, float(sigma_f))
                if best is None or key < best[0]:
                    best = (key, replace(config, T=T), labels)
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
    mean_seconds: float | None = None


@dataclass
class BenchmarkReport:
    dataset: str
    seeds: tuple
    train_labels: int
    rows: tuple


def benchmark(
    dataset: Dataset,
    methods,
    seeds,
    grid: GridSpec = GridSpec(),
    *,
    train_labels: int | None = None,
    delta: float = DiffusionConfig.delta,
    warm_start_steps: int = DiffusionConfig.warm_start_steps,
) -> BenchmarkReport:
    """Grid-select on validation and report mean/sd test error per method.

    ``train_labels`` is the size of the train label set (validation matches
    it); the default draws two labels per class.  The test error is read
    from the selected cell's own prediction, the one the search scored on
    validation, so nothing is rerun.  A selected diffusion cell that
    diverged raises :class:`DivergenceError`.  ``mean_seconds`` is the wall
    time of one seed's model selection (every cell of the grid, or every K
    for GRF); the graphs are built beforehand and never timed.  Timing lives
    outside the deterministic report fields.
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
    y = dataset.labels
    graphs = {
        K: build_knn_graph(dataset.distance_matrix, K) for K in set(map(int, grid.K_values))
    }
    rows = []
    for method in methods:
        errors, selected, seconds = [], [], []
        for seed in seeds:
            split = split_labels(dataset, l, seed)
            t0 = time.perf_counter()
            if method == "GRF":
                state = init_labels(
                    zip(split.train, y[split.train]), dataset.n, dataset.c
                )
                # a component without labels makes a K-cell unsolvable; it
                # scores 100 rather than aborting the sweep
                scores = []
                for K in grid.K_values:
                    try:
                        labels = decode_labels(grf_harmonic(graphs[int(K)], state).f)
                        err = error_rate(labels, y, split.validation)
                    except UnlabeledComponentError:
                        labels, err = None, 100.0
                    scores.append((err, int(K), labels))
                _, K, labels = min(scores, key=lambda s: s[:2])
                selected.append(f"K:{K}")
            else:
                variant, mode = _METHOD_SETTINGS[method]
                config, _, labels = grid_search(
                    replace(grid, variant=variant, mode=mode),
                    dataset,
                    split,
                    delta=delta,
                    warm_start_steps=warm_start_steps,
                    graph_cache=graphs,
                )
                if labels is None:
                    raise DivergenceError(f"diffusion diverged at delta={delta}")
                selected.append(
                    f"K:{config.K};T:{config.T};sigma_f:{config.sigma_f:.17g}"
                )
            seconds.append(time.perf_counter() - t0)
            errors.append(100.0 if labels is None else error_rate(labels, y, split.test))
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
    return BenchmarkReport(dataset.name, tuple(map(int, seeds)), int(l), tuple(rows))


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
