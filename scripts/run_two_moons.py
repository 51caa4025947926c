#!/usr/bin/env python3
"""Two-moons demo: propagate a handful of labels with each method.

Generates the dataset, draws a stratified split, runs isotropic diffusion,
the three anisotropic variants, and the harmonic baseline, and prints test
errors side by side.
"""

import argparse
import time

import numpy as np

import anisodiff as ad


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=600)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--labels-per-class", type=int, default=2)
    ap.add_argument("--K", type=int, default=10)
    ap.add_argument("--T", type=int, default=50)
    ap.add_argument("--sigma-f", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", help="write the smooth variant's energy trace here")
    args = ap.parse_args()

    ds = ad.two_moons(args.n, args.noise, args.seed)
    split = ad.split_labels(ds, 2 * args.labels_per_class, args.seed)
    graph = ad.build_knn_graph(ds.distance_matrix, args.K)
    state = ad.init_labels(
        zip(split.train, ds.labels[split.train]), ds.n, ds.c
    )
    eval_idx = np.concatenate([split.validation, split.test])

    print(f"n={ds.n} noise={args.noise} K={args.K} T={args.T} "
          f"sigma_f={args.sigma_f} train={len(split.train)}")
    runs = [
        ("isotropic", dict(variant="isotropic", mode="linear")),
        ("plain linear", dict(variant="plain", mode="linear")),
        ("plain nonlinear", dict(variant="plain", mode="nonlinear")),
        ("smooth", dict(variant="smooth", mode="nonlinear")),
        ("local match", dict(variant="local_match", mode="nonlinear")),
    ]
    for name, kw in runs:
        config = ad.DiffusionConfig(K=args.K, T=args.T, sigma_f=args.sigma_f, **kw)
        t0 = time.perf_counter()
        result = ad.run_diffusion(config, graph, state)
        dt = time.perf_counter() - t0
        err = ad.error_rate(ad.decode_labels(result.f), ds.labels, eval_idx)
        print(f"{name:16s} error {err:6.2f}%   ({dt:.2f}s)")
        if args.trace and name == "smooth":
            from anisodiff.diffusion import write_energy_trace

            write_energy_trace(result.energies, args.trace)

    f = ad.grf_harmonic(graph, state)
    err = ad.error_rate(ad.decode_labels(f), ds.labels, eval_idx)
    print(f"{'harmonic (GRF)':16s} error {err:6.2f}%")


if __name__ == "__main__":
    main()
