"""The benchmark's workloads: inputs from a seed, set-up, the timed call, checks.

Inputs are generated here, from the benchmark's seed, with the benchmark's
own generators, so the program under test receives only the generated
points and labels.  Every call into the program goes through a module
attribute looked up at call time (``graph_mod.build_knn_graph(...)``), so
the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np
from scipy import sparse

import anisodiff.cli as cli_mod
import anisodiff.data as data_mod
import anisodiff.diffusion as diffusion_mod
import anisodiff.diffusivity as diffusivity_mod
import anisodiff.graph as graph_mod

import checks

CHECK_SAMPLE = 200  # rows or edges recomputed by the independent checks


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def two_moons(n: int, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    X = np.vstack([
        np.column_stack([np.cos(t), np.sin(t)]),
        np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]),
    ])
    return X + rng.normal(0.0, noise, X.shape), np.repeat([0, 1], half)


def blobs(n: int, c: int, separation: float, d: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """c unit-variance clusters centred at separation * e_k (c <= d)."""
    y = np.sort(np.arange(n) % c)
    centers = separation * np.eye(c, d)
    return centers[y] + rng.normal(size=(n, d)), y


def pick_train(y: np.ndarray, count: int, rng) -> np.ndarray:
    """Stratified draw: floor(count/c) or ceil(count/c) labels per class."""
    classes = np.unique(y)
    per = [count // len(classes) + (k < count % len(classes)) for k in range(len(classes))]
    return np.sort(np.concatenate([
        rng.permutation(np.flatnonzero(y == cls))[:m] for cls, m in zip(classes, per)
    ]))


def label_state(y, train, c):
    return diffusion_mod.init_labels(zip(train.tolist(), y[train].tolist()), len(y), c)


def accuracy_pct(f, y, train) -> float:
    """Share of non-training rows whose argmax class is right, in percent."""
    test = np.setdiff1d(np.arange(len(y)), train)
    return 100.0 * float(np.mean(np.argmax(f, axis=1)[test] == y[test]))


def structure_counts(graphs, uses, channels: int) -> dict:
    """Work counts of the graph structures a workload reads, computed from
    the CSR pattern and kNN lists alone.

    ``graph.mutual_entries`` sums |N(i) & N(j)| over stored entries (i, j);
    ``graph.match_pairs`` counts distinct (k, j) with k in N(i) for a stored
    (i, j); each pair costs K cross evaluations (k, l), l in N(j), and
    ``lm_cross_distinct`` counts the distinct (k, l) among those.  The
    local-match megabytes are the f rows the kernel gathers for them,
    match_pairs * K * channels float64 values.
    """
    out = {"graph.nnz": 0, "graph.mutual_entries": 0, "graph.match_pairs": 0,
           "diffusivity.lm_cross_evals": 0, "diffusivity.lm_cross_distinct": 0}
    mb = 0.0
    for g in graphs:
        W = g.weights
        n = g.n
        nbrs = np.asarray(g.neighborhoods, dtype=np.int64)
        K = nbrs.shape[1]
        rows = checks.csr_rows(W.indptr)
        out["graph.nnz"] += int(W.nnz)
        if "mutual" in uses:
            member = sparse.csr_array(
                (np.ones(nbrs.size), (np.repeat(np.arange(n), K), nbrs.ravel())), shape=(n, n)
            )
            common = (member @ member.T).tocsr()
            out["graph.mutual_entries"] += int(common[rows, W.indices].sum())
        if "match" in uses:
            pairs = np.unique(nbrs[rows] * n + W.indices[:, None])
            pair_k, pair_j = pairs // n, pairs % n
            cross = pair_k[:, None] * n + nbrs[pair_j]
            out["graph.match_pairs"] += len(pairs)
            out["diffusivity.lm_cross_evals"] += int(cross.size)
            out["diffusivity.lm_cross_distinct"] += len(np.unique(cross))
            mb += len(pairs) * K * channels * 8 / 1e6
    evals, distinct = out["diffusivity.lm_cross_evals"], out["diffusivity.lm_cross_distinct"]
    out["diffusivity.lm_cross_redundancy"] = evals / distinct if distinct else 0.0
    out["diffusivity.local_match_mb"] = mb
    return out


class Workload:
    """One workload; subclasses fill in the inputs and the four hooks."""

    name = ""
    setup_reps = 11
    uses: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.graphs: list = []
        self._reference = None

    def setup(self) -> None:
        """Turn the generated inputs into ready graphs in ``self.graphs``
        (timed as setup_s); the caller empties ``self.graphs`` first."""
        raise NotImplementedError

    def solve(self):
        """The workload's timed call."""
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        """Bytes that must repeat exactly from one iteration to the next."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Per-iteration output check; the first output becomes the reference."""
        fp = self.fingerprint(out)
        if self._reference is None:
            self._reference = fp
        elif fp != self._reference:
            return ["output differs from the first iteration's"]
        return []

    def check_once(self, out) -> list[str]:
        """Costlier checks, run on the warm-up output only."""
        X = self.X
        rows = checks.sample(CHECK_SAMPLE, len(X), self.seed)
        return [p for g in self.graphs for p in checks.knn_problems(X, g.neighborhoods, rows)]

    def accuracy(self, out) -> float:
        raise NotImplementedError

    def structure(self) -> dict:
        counts = structure_counts(self.graphs, self.uses, int(self.y.max()) + 1)
        counts["data.distance_matrix_mb"] = len(self.X) ** 2 * 8 / 1e6
        return counts

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class _Propagation(Workload):
    """A single diffusion run on one ready kNN graph of generated features."""

    def _finish_init(self, X, y, train, config):
        self.X, self.y, self.train, self.config = X, y, train, config
        self.state = label_state(y, train, int(y.max()) + 1)

    def setup(self):
        ds = data_mod.Dataset(self.name, self.y, features=self.X)
        graph = graph_mod.build_knn_graph(ds.distance_matrix, self.config.K)
        graph.upper
        if "mutual" in self.uses:
            graph.mutual_structure
        if "match" in self.uses:
            graph.match_structure
        self.graphs = [graph]

    def solve(self):
        return diffusion_mod.run_diffusion(self.config, self.graphs[0], self.state)

    def fingerprint(self, out) -> bytes:
        return np.ascontiguousarray(out.f).tobytes()

    def check(self, out):
        if not np.isfinite(out.f).all():
            return ["final f has non-finite entries"]
        return super().check(out)

    def accuracy(self, out):
        return accuracy_pct(out.f, self.y, self.train)


class LocalMatchBlobs(_Propagation):
    name = "lm_blobs1500"
    uses = ("match",)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        n, c, d, K, labels, T = (120, 4, 4, 5, 12, 5) if smoke else (1500, 10, 10, 10, 100, 100)
        rng = _rng(seed)
        X, y = blobs(n, c, 8.0, d, rng)
        config = diffusion_mod.DiffusionConfig(
            K=K, T=T, sigma_f=0.1, delta=0.5, warm_start_steps=0,
            variant="local_match", mode="nonlinear",
        )
        self._finish_init(X, y, pick_train(y, labels, rng), config)

    def check_once(self, out):
        """kNN rows; the energy of f^0 the run reports, which the loop computes
        from the first field it really used, against the per-edge reference;
        and the last (f^T) local-match field recomputed on sampled entries."""
        problems = super().check_once(out)
        graph = self.graphs[0]
        problems += [
            f"first field: {p}"
            for p in checks.local_match_energy_problems(
                graph, self.state.f, self.config.sigma_f, out.energies[0]
            )
        ]
        edges = checks.sample(CHECK_SAMPLE, graph.weights.nnz, self.seed + 1)
        field = diffusivity_mod.variant_weights(graph, out.f, self.config.sigma_f, "local_match")
        problems += [
            f"last field: {p}"
            for p in checks.local_match_problems(graph, out.f, self.config.sigma_f, field.wD, edges)
        ]
        return problems


class PropagateMoons(_Propagation):
    name = "propagate_moons4000"
    setup_reps = 3
    uses = ("mutual",)
    # test accuracy is averaged over this many label draws (the timed one and
    # untimed reruns), since one 4-label draw swings it by tens of points
    accuracy_draws = 8

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        n, K, T = (200, 5, 10) if smoke else (4000, 10, 100)
        rng = _rng(seed)
        X, y = two_moons(n, 0.1, rng)
        config = diffusion_mod.DiffusionConfig(
            K=K, T=T, sigma_f=0.1, variant="smooth", mode="nonlinear"
        )
        self.draws = [pick_train(y, 4, rng) for _ in range(self.accuracy_draws)]
        self._finish_init(X, y, self.draws[0], config)

    def accuracy(self, out):
        scores = [accuracy_pct(out.f, self.y, self.train)]
        for train in self.draws[1:]:
            state = label_state(self.y, train, self.state.c)
            result = diffusion_mod.run_diffusion(self.config, self.graphs[0], state)
            scores.append(accuracy_pct(result.f, self.y, train))
        return float(np.mean(scores))


class SweepMoons(Workload):
    name = "sweep_moons600"
    setup_reps = 15  # cheap (~0.3 s), and spread over the whole window
    uses = ("mutual",)
    methods = ("I", "A_lin", "A_nlin", "A_S", "GRF")

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, workdir)
        n = 60 if smoke else 600
        self.K_values = (3, 5) if smoke else (5, 10, 20)
        self.X, self.y = two_moons(n, 0.1, _rng(seed))
        workdir.mkdir(parents=True, exist_ok=True)
        self.features_path = workdir / "features.txt"
        self.labels_path = workdir / "labels.txt"
        with open(self.features_path, "w") as fh:
            for row in self.X:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        with open(self.labels_path, "w") as fh:
            for i, cls in enumerate(self.y):
                fh.write(f"{i} {cls}\n")
        self.prefix = workdir / "report"
        grid = (
            ["--grid-K", "3,5", "--grid-T", "5,10", "--grid-sigma-f", "0.1,1"] if smoke else []
        )
        self.argv = [
            "benchmark",
            "--features", str(self.features_path),
            "--labels", str(self.labels_path),
            "--methods", ",".join(self.methods),
            "--seeds", str(seed),
            "--train-labels", "4",
            "--out", str(self.prefix),
            *grid,
        ]

    def setup(self):
        X = data_mod.read_features(self.features_path)
        y, _ = data_mod.read_labels(self.labels_path, X.shape[0])
        ds = data_mod.Dataset("sweep", y, features=X)
        graphs = []
        for K in self.K_values:
            graph = graph_mod.build_knn_graph(ds.distance_matrix, K)
            graph.upper
            graph.mutual_structure
            graphs.append(graph)
        self.graphs = graphs

    def solve(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_mod.main(self.argv)

    def _reports(self):
        return (Path(f"{self.prefix}.kv").read_bytes(), Path(f"{self.prefix}.txt").read_bytes())

    def fingerprint(self, out) -> bytes:
        kv, txt = self._reports()
        return kv + b"\0" + txt

    def _mean_errors(self) -> dict:
        rows = {}
        for line in self._reports()[0].decode().splitlines():
            if line.startswith("method="):
                fields = dict(part.split("=", 1) for part in line.split(" "))
                rows[fields["method"]] = float(fields["mean_error"])
        return rows

    def check(self, out):
        if out != 0:
            return [f"CLI exited with code {out}"]
        rows = self._mean_errors()
        if tuple(rows) != self.methods:
            return [f"report rows {tuple(rows)} != methods {self.methods}"]
        bad = [m for m, e in rows.items() if not 0.0 <= e <= 100.0]
        if bad:
            return [f"error outside [0, 100] for {bad}"]
        return super().check(out)

    def accuracy(self, out):
        return 100.0 - float(np.mean(list(self._mean_errors().values())))


WORKLOADS = {w.name: w for w in (LocalMatchBlobs, SweepMoons, PropagateMoons)}
