"""Command-line interface: synth, build-graph, propagate, grf, benchmark.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All numeric file
output uses 17-significant-digit decimals, so repeated runs with the same
flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as datamod
from . import evaluation
from .baselines import grf_harmonic
from .diffusion import (
    MODES,
    DiffusionConfig,
    decode_labels,
    init_labels,
    run_diffusion,
    write_energy_trace,
)
from .errors import AnisodiffError, InputError, ParameterError
from .graph import (
    auto_sigma_x,
    build_knn_graph,
    gaussian_weights,
    knn_neighborhoods,
)

VARIANT_FLAGS = {
    "iso": "isotropic",
    "plain": "plain",
    "smooth": "smooth",
    "match": "local_match",
}

# synth's per-kind flags: the --kind each applies to, and its default there
SYNTH_FLAGS = {"noise": ("two-moons", 0.1), "classes": ("blobs", 3),
               "dim": ("blobs", 2), "separation": ("blobs", 6.0)}

_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_bool(raw: str) -> bool:
    if raw.lower() not in _CONFIG_BOOLS:
        raise ValueError(f"expected one of {'/'.join(_CONFIG_BOOLS)}, got {raw!r}")
    return _CONFIG_BOOLS[raw.lower()]


# --config keys and the parser of each value
CONFIG_KEYS = {
    "K": int,
    "sigma_f": float,
    "delta": float,
    "T": int,
    "warm_start": int,
    "variant": str,
    "mode": str,
    "clamp_labels": _config_bool,
}


def _add_data_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--features", help="feature file, one point per row")
    src.add_argument("--distances", help="dense matrix or 'i j dist' triplets")


def _add_config_flags(p):
    c = DiffusionConfig
    variant = {v: k for k, v in VARIANT_FLAGS.items()}[c.variant]
    p.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default=variant)
    p.add_argument("--mode", choices=MODES, default=c.mode)
    p.add_argument("--K", type=int, default=c.K)
    p.add_argument("--sigma-f", type=float, default=c.sigma_f)
    p.add_argument("--delta", type=float, default=c.delta)
    p.add_argument("--T", type=int, default=c.T)
    p.add_argument("--warm-start", type=int, default=c.warm_start_steps)
    p.add_argument("--clamp-labels", action="store_true")
    p.add_argument("--config", help="key=value file; explicit flags win")


def build_parser(config=None) -> argparse.ArgumentParser:
    """The CLI parser; typed ``config`` values become propagate's defaults."""
    parser = argparse.ArgumentParser(
        prog="anisodiff",
        description="Anisotropic diffusion on kNN graphs for label propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=["two-moons", "blobs"], required=True)
    p.add_argument("--n", type=int, required=True)
    for name, (kind, default) in SYNTH_FLAGS.items():  # off args unless given
        p.add_argument(f"--{name}", type=type(default), default=argparse.SUPPRESS,
                       help=f"{kind} only (default {default})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="build the kNN graph and export edges")
    _add_data_flags(p)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--sigma-x", dest="sigma_x", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("propagate", help="diffuse labels and write predictions")
    _add_data_flags(p)
    p.add_argument("--labels", required=True, help="'index class' lines, labeled subset")
    p.add_argument("--truth", help="full ground-truth labels for scoring")
    _add_config_flags(p)
    p.add_argument("--trace", help="write the energy trace CSV here")
    p.add_argument("--out", required=True, help="predictions file")
    p.set_defaults(func=cmd_propagate, **(config or {}))

    p = sub.add_parser("grf", help="harmonic-function baseline predictions")
    _add_data_flags(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--truth")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grf)

    p = sub.add_parser("benchmark", help="compare methods with grid selection")
    _add_data_flags(p)
    p.add_argument("--labels", required=True, help="full ground-truth labels")
    p.add_argument("--methods", required=True, help="comma list, e.g. I,A_S,GRF")
    p.add_argument("--seeds", default="0", help="comma list of split seeds")
    p.add_argument("--train-labels", dest="train_labels", type=int, default=None)
    grid = evaluation.GridSpec
    p.add_argument("--grid-K", default=",".join(map(str, grid.K_values)))
    p.add_argument("--grid-T", default=",".join(map(str, grid.T_values)))
    p.add_argument("--grid-sigma-f", default=",".join(map(str, grid.sigma_f_values)))
    p.add_argument("--delta", type=float, default=DiffusionConfig.delta)
    p.add_argument("--warm-start", type=int, default=DiffusionConfig.warm_start_steps)
    p.add_argument("--out", required=True, help="report prefix (.txt and .kv)")
    p.set_defaults(func=cmd_benchmark)

    return parser


def _require_file(parser, path, what):
    if path is not None and not os.path.exists(path):
        parser.error(f"{what} file not found: {path}")


def _read_config(parser, path) -> dict:
    """Typed entries of a key=value config file; bad ones are usage errors."""
    _require_file(parser, path, "config")
    try:
        entries = datamod.read_manifest(path)
    except InputError as exc:
        parser.error(str(exc))
    config = {}
    for key, raw in entries.items():
        if key not in CONFIG_KEYS:
            parser.error(
                f"unknown config key {key!r}; valid: {', '.join(CONFIG_KEYS)}"
            )
        try:
            value = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            parser.error(f"config key {key!r}: {exc}")
        if key == "variant" and value not in VARIANT_FLAGS:
            parser.error(f"config variant must be one of {sorted(VARIANT_FLAGS)}")
        config[key] = value
    return config


def _report_mapping(mapping):
    if mapping and any(orig != new for orig, new in mapping.items()):
        pairs = ", ".join(f"{o}->{v}" for o, v in sorted(mapping.items()))
        print(f"label classes remapped to a contiguous range: {pairs}")


def _load_distances(parser, args):
    """The n x n distance matrix from --features or --distances."""
    if args.features:
        _require_file(parser, args.features, "features")
        return datamod.pairwise_distances(datamod.read_features(args.features))
    _require_file(parser, args.distances, "distances")
    return datamod.read_distances(args.distances)


def cmd_synth(parser, args) -> int:
    for name, (kind, default) in SYNTH_FLAGS.items():
        if kind != args.kind and name in vars(args):
            parser.error(f"--{name} applies to --kind {kind} only")
        vars(args).setdefault(name, default)
    if args.kind == "two-moons":
        ds = datamod.two_moons(args.n, args.noise, args.seed)
    else:
        ds = datamod.gaussian_blobs(args.n, args.classes, args.separation, args.dim, args.seed)
    os.makedirs(args.out, exist_ok=True)
    datamod.write_features(ds.features, os.path.join(args.out, "features.txt"))
    datamod.write_labels(ds.labels, os.path.join(args.out, "labels.txt"))
    datamod.write_manifest(
        {"name": ds.name, "n": ds.n, "c": ds.c, "format": "features"},
        os.path.join(args.out, "manifest.txt"),
    )
    print(f"wrote {ds.n} points, {ds.c} classes to {args.out}")
    return 0


def cmd_build_graph(parser, args) -> int:
    D = _load_distances(parser, args)
    nbrs = knn_neighborhoods(D, args.K)
    sigma_x = args.sigma_x if args.sigma_x is not None else auto_sigma_x(D, nbrs)
    graph = gaussian_weights(D, sigma_x, nbrs)
    datamod.write_graph_triplets(graph, args.out)
    print(f"n={graph.n} edges={len(graph.upper)} sigma_x={sigma_x:.17g}")
    return 0


def _labeled_inputs(parser, args):
    """(D, labeled indices, label state, ground truth or None, class ids) of a run.

    With ``--truth`` the labeled subset's classes are remapped as the
    truth's are; ``class_ids[k]`` is the file's id of remapped class k.
    """
    D = _load_distances(parser, args)
    n = D.shape[0]
    _require_file(parser, args.labels, "labels")
    _require_file(parser, args.truth, "truth")
    idx, cls = datamod.read_label_pairs(args.labels)
    truth = None
    class_ids = np.arange(cls.max() + 1)
    if args.truth:
        truth, mapping = datamod.read_labels(args.truth, n)
        _report_mapping(mapping)
        class_ids = np.array(list(mapping))
        unknown = cls[~np.isin(cls, class_ids)]
        if unknown.size:
            raise InputError(f"{args.labels}: class {unknown[0]} is not a class of {args.truth}")
        cls = np.searchsorted(class_ids, cls)
    return D, idx, init_labels(zip(idx, cls), n, len(class_ids)), truth, class_ids


def _write_predictions(args, f, idx, truth, class_ids):
    pred = decode_labels(f)
    datamod.write_labels(class_ids[pred], args.out)
    if truth is not None:
        eval_idx = np.setdiff1d(np.arange(len(pred)), idx)
        err = evaluation.error_rate(pred, truth, eval_idx)
        print(f"test_error={err:.17g}")
    else:
        print(f"predictions={args.out}")


def _config_from_args(parser, args):
    return DiffusionConfig(
        K=args.K,
        T=args.T,
        sigma_f=args.sigma_f,
        delta=args.delta,
        warm_start_steps=args.warm_start,
        variant=VARIANT_FLAGS[args.variant],
        mode=args.mode,
        clamp_labels=args.clamp_labels,
    )


def cmd_propagate(parser, args) -> int:
    D, idx, state, truth, class_ids = _labeled_inputs(parser, args)
    config = _config_from_args(parser, args)
    result = run_diffusion(config, build_knn_graph(D, config.K), state)
    if args.trace:
        write_energy_trace(result.energies, args.trace)
    _write_predictions(args, result.f, idx, truth, class_ids)
    return 0


def cmd_grf(parser, args) -> int:
    D, idx, state, truth, class_ids = _labeled_inputs(parser, args)
    f = grf_harmonic(build_knn_graph(D, args.K), state)
    _write_predictions(args, f, idx, truth, class_ids)
    return 0


def cmd_benchmark(parser, args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        grid = evaluation.GridSpec(
            K_values=tuple(int(v) for v in args.grid_K.split(",")),
            T_values=tuple(int(v) for v in args.grid_T.split(",")),
            sigma_f_values=tuple(float(v) for v in args.grid_sigma_f.split(",")),
        )
    except ValueError as exc:
        parser.error(str(exc))
    D = _load_distances(parser, args)
    _require_file(parser, args.labels, "labels")
    labels, mapping = datamod.read_labels(args.labels, D.shape[0])
    _report_mapping(mapping)
    ds = datamod.Dataset("cli-dataset", labels, distances=D)
    report = evaluation.benchmark(
        ds,
        methods,
        seeds,
        grid,
        train_labels=args.train_labels,
        delta=args.delta,
        warm_start_steps=args.warm_start,
    )
    out_txt = args.out + ".txt"
    out_kv = args.out + ".kv"
    with open(out_txt, "w") as fh:
        fh.write(evaluation.report_table(report))
    with open(out_kv, "w") as fh:
        fh.write(evaluation.report_kv(report))
    # timing is informational only; keeping it off the files makes them
    # byte-identical across repeated runs
    for row in report.rows:
        print(
            f"method={row.method} mean_error={row.mean_error:.2f} "
            f"sd_error={row.sd_error:.2f} mean_seconds={row.mean_seconds:.3f}"
        )
    print(f"report={out_txt} kv={out_kv}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        # parsing again over the config values as defaults lets every flag
        # that argparse accepts, abbreviations included, win over the file
        parser = build_parser(_read_config(parser, args.config))
        args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ParameterError as exc:
        # the library raises it for an argument outside its range
        parser.error(str(exc))
    except (AnisodiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
