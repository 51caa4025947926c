"""Golden CLI output corpus: the files a refactor must leave byte-identical.

:func:`generate` runs a fixed list of CLI commands into one directory and
keeps every deterministic output file, plus the stdout of the commands whose
stdout is deterministic (``benchmark`` prints timings, so its stdout is not
kept).  ``tests/test_golden.py`` regenerates the corpus into a temporary
directory and compares it byte for byte with ``tests/golden/``.

Regenerate (only when an output is meant to change, and say why):

    PYTHONPATH=src python tests/golden_corpus.py tests/golden
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from anisodiff.cli import main
from anisodiff.data import read_features, read_label_pairs, write_features, write_labels
from anisodiff.graph import pairwise_distances

VARIANTS = ("iso", "plain", "smooth", "match")
MODES = ("linear", "nonlinear")
BUILD_GRAPH_K = (1, 5, 10)


def _run(argv, log=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"exit {code}: {' '.join(str(a) for a in argv)}")
    if log is not None:
        log.append("$ " + " ".join(Path(a).name if "/" in str(a) else str(a) for a in argv))
        log.append(buf.getvalue().rstrip("\n"))


def _synth(work: Path, out: Path, name: str, n: int, seed: int, *kind) -> Path:
    data = work / name
    kind = kind or ("--kind", "two-moons", "--noise", "0.1")
    _run(["synth", *kind, "--n", n, "--seed", seed, "--out", data])
    for part in ("features", "labels"):
        (out / f"{name}_{part}.txt").write_bytes((data / f"{part}.txt").read_bytes())
    return data


def _train_labels(data: Path, path: Path, per_class: int) -> Path:
    """The first ``per_class`` points of every class as the labeled subset."""
    _, cls = read_label_pairs(data / "labels.txt")
    first = np.concatenate([np.nonzero(cls == c)[0][:per_class] for c in np.unique(cls)])
    write_labels(cls, path, indices=first)
    return path


def generate(out_dir) -> None:
    """Write the whole corpus into ``out_dir`` (created if missing)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log: list[str] = []
    blobs_log: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        # criterion-10 data and report, then every method on the same data
        small = _synth(work, out, "moons120", 120, 4)
        bench = ["benchmark", "--features", small / "features.txt",
                 "--labels", small / "labels.txt", "--train-labels", 4,
                 "--grid-K", "5,10", "--grid-T", "10,50", "--grid-sigma-f", "0.1,0.5"]
        _run(bench + ["--methods", "I,A_S,GRF", "--seeds", "0,1",
                      "--out", out / "criterion10"])
        _run(bench + ["--methods", "I,A_lin,A_nlin,A_S,A_LM,GRF", "--seeds", "0,1,2",
                      "--out", out / "all_methods"])

        for K in BUILD_GRAPH_K:
            _run(["build-graph", "--features", small / "features.txt", "--K", K,
                  "--out", out / f"graph_features_K{K}.txt"], log)
        dist = work / "distances.txt"
        write_features(pairwise_distances(read_features(small / "features.txt")), dist)
        _run(["build-graph", "--distances", dist, "--K", 5,
              "--out", out / "graph_distances_K5.txt"], log)

        # propagation runs: two labels per class, each variant and mode
        moons = _synth(work, out, "moons200", 200, 7)
        train = _train_labels(moons, work / "train.txt", 2)
        inputs = ["--features", moons / "features.txt", "--labels", train,
                  "--truth", moons / "labels.txt"]
        common = inputs + ["--K", 10, "--T", 40, "--sigma-f", "0.5"]
        for variant in VARIANTS:
            for mode in MODES:
                stem = out / f"propagate_{variant}_{mode}"
                _run(["propagate", *common, "--variant", variant, "--mode", mode,
                      "--trace", f"{stem}_trace.csv", "--out", f"{stem}_pred.txt"], log)
        stem = out / "propagate_smooth_nonlinear_clamped"
        _run(["propagate", *common, "--variant", "smooth", "--clamp-labels",
              "--trace", f"{stem}_trace.csv", "--out", f"{stem}_pred.txt"], log)
        for K in (5, 10):
            _run(["grf", *inputs, "--K", K, "--out", out / f"grf_K{K}_pred.txt"], log)

        # multi-class (c = 4) nonlinear runs of the per-edge variants, with
        # their own stdout file so the two-class files above stay as written
        blobs = _synth(work, out, "blobs300", 300, 3, "--kind", "blobs",
                       "--classes", 4, "--separation", 3.0)
        train = _train_labels(blobs, work / "blobs_train.txt", 2)
        common = ["--features", blobs / "features.txt", "--labels", train,
                  "--truth", blobs / "labels.txt", "--K", 10, "--T", 40,
                  "--sigma-f", "0.5", "--mode", "nonlinear"]
        for variant in ("plain", "smooth"):
            stem = out / f"blobs_propagate_{variant}_nonlinear"
            _run(["propagate", *common, "--variant", variant,
                  "--trace", f"{stem}_trace.csv", "--out", f"{stem}_pred.txt"], blobs_log)
    (out / "stdout.txt").write_text("\n".join(log) + "\n")
    (out / "blobs_stdout.txt").write_text("\n".join(blobs_log) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_corpus.py OUT_DIR")
    generate(sys.argv[1])
