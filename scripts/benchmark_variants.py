#!/usr/bin/env python3
"""Grid-selected comparison of all methods on a synthetic dataset.

Reproduces the full validation protocol: per seed, hyper-parameters are
picked on a validation label set the same size as the training set, and the
held-out test error is averaged over seeds.
"""

import argparse
import sys

import anisodiff as ad
from anisodiff.cli import SYNTH_FLAGS
from anisodiff.evaluation import report_kv, report_table


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", choices=["two-moons", "blobs"], default="two-moons")
    ap.add_argument("--n", type=int, default=600)
    # each dataset's own flags; the other dataset's are usage errors
    kind_flags = ("noise", "classes", "separation")
    for name in kind_flags:
        kind, default = SYNTH_FLAGS[name]
        ap.add_argument(f"--{name}", type=type(default), default=argparse.SUPPRESS,
                        help=f"{kind} only (default {default})")
    ap.add_argument("--methods", default="I,A_lin,A_nlin,A_S,A_LM,GRF")
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--train-labels", type=int, default=4)
    ap.add_argument("--out", help="report prefix; writes .txt and .kv")
    args = ap.parse_args()
    for name in kind_flags:
        kind, default = SYNTH_FLAGS[name]
        if kind != args.dataset and name in vars(args):
            ap.error(f"--{name} applies to --dataset {kind} only")
        vars(args).setdefault(name, default)

    if args.dataset == "two-moons":
        ds = ad.two_moons(args.n, args.noise, 0)
    else:
        ds = ad.gaussian_blobs(args.n, args.classes, args.separation, 2, 0)
    methods = [m.strip() for m in args.methods.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    report = ad.benchmark(
        ds, methods, seeds, ad.GridSpec(), train_labels=args.train_labels
    )
    sys.stdout.write(report_table(report, include_timing=True))
    if args.out:
        with open(args.out + ".txt", "w") as fh:
            fh.write(report_table(report))
        with open(args.out + ".kv", "w") as fh:
            fh.write(report_kv(report))
        print(f"wrote {args.out}.txt and {args.out}.kv")


if __name__ == "__main__":
    main()
