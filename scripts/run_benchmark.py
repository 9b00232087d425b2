#!/usr/bin/env python3
"""Desk-scale comparison of co-training methods on the synthetic blob task.

Trains each requested method over several seeds and prints one row per
(method, seed): the final per-net average and ensemble accuracies, the
ensemble-minus-average margin, and for two-net methods the feature-map
similarity of the trained pair. A summary row per method follows with the
seed means and the mean, minimum and maximum margin. The defaults reproduce
the 6-class / 1200-train / 600-test setup used by the acceptance suite.
"""

import argparse
import os
import sys
import time

import numpy as np

from peerkd.analysis import feature_similarity
from peerkd.data import build_config
from peerkd.trainer import restore_run, run_experiment


def run_one(method, seed, args):
    out_dir = os.path.join(args.out_root, f"{method}_seed{seed}")
    overrides = {
        "method": method,
        "archs": args.archs if method != "vanilla" else args.archs.split(",")[0],
        "num_classes": str(args.num_classes),
        "per_class_train": str(args.per_class_train),
        "per_class_test": str(args.per_class_test),
        "image_size": str(args.image_size),
        "noise_std": str(args.noise_std),
        "epochs": str(args.epochs),
        "seed": str(seed),
        "out_dir": out_dir,
    }
    config = build_config({}, overrides)
    t0 = time.time()
    rows = run_experiment(config)
    elapsed = time.time() - t0

    tests = [r for r in rows if r["split"] == "test"]
    last_epoch = max(r["epoch"] for r in tests)
    final = [r for r in tests if r["epoch"] == last_epoch]
    accs = [r["top1"] for r in final]
    ens = final[-1]["ens_top1"]

    cosine = None
    if config.num_nets >= 2:
        plan, test_ds = restore_run(config, os.path.join(out_dir, "checkpoint_final.afdk"))
        rep = feature_similarity(plan.nets[0], plan.nets[1], test_ds)
        cosine = rep.cosine
    return accs, ens, cosine, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--methods", default="vanilla,dml,l1_kd,afd")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--archs", default="tiny-a,tiny-a")
    parser.add_argument("--num-classes", type=int, default=6)
    parser.add_argument("--per-class-train", type=int, default=200)
    parser.add_argument("--per-class-test", type=int, default=100)
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--noise-std", type=float, default=0.35)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--out-root", default="runs/bench")
    args = parser.parse_args(argv)

    methods = [m.strip() for m in args.methods.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]

    print(f"{'method':12s} {'seed':>4s} {'net avg':>8s} {'ensemble':>9s} {'margin':>8s} "
          f"{'cosine':>8s} {'time':>7s}")
    summary = []
    for method in methods:
        avgs, enss, cosines, times = [], [], [], []
        for seed in seeds:
            accs, ens, cosine, elapsed = run_one(method, seed, args)
            avgs.append(float(np.mean(accs)))
            enss.append(ens)
            times.append(elapsed)
            if cosine is not None:
                cosines.append(cosine)
            cos_txt = f"{cosine:8.4f}" if cosine is not None else "       -"
            print(f"{method:12s} {seed:4d} {avgs[-1]:8.4f} {ens:9.4f} {ens - avgs[-1]:+8.4f} "
                  f"{cos_txt} {elapsed:6.1f}s", flush=True)
        summary.append((method, avgs, enss, cosines, times))

    print(f"\n{'method':12s} {'net avg':>8s} {'ensemble':>9s} {'margin':>8s} {'min':>8s} "
          f"{'max':>8s} {'cosine':>8s} {'time':>7s}")
    for method, avgs, enss, cosines, times in summary:
        margins = np.subtract(enss, avgs)
        cos_txt = f"{np.mean(cosines):8.4f}" if cosines else "       -"
        print(f"{method:12s} {np.mean(avgs):8.4f} {np.mean(enss):9.4f} {margins.mean():+8.4f} "
              f"{margins.min():+8.4f} {margins.max():+8.4f} {cos_txt} {sum(times):6.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
