#!/usr/bin/env python3
"""Train a fixed tiny set of runs, so two source trees can be compared byte for byte.

Each run goes through ``peerkd.cli.main(["train", ...])`` into its own
directory under ``--out`` and leaves a ``metrics.csv`` and ``.afdk``
checkpoints there. The set covers every training path: vanilla, dml,
kd_ensemble with K=3, l1 and afd on a tiny-a/tiny-b pair, l1_kd, and afd
with K=3. Every run uses 3 classes, 3 epochs, batch 32, 64 training and
16 test images per class, 16x16 images and milestone 1 for both learning
rates. A change that is meant to leave training unchanged must give
identical files:

    PYTHONPATH=<tree A>/src python3 scripts/check_identity.py --out /tmp/ident-a
    PYTHONPATH=<tree B>/src python3 scripts/check_identity.py --out /tmp/ident-b
    diff -r /tmp/ident-a /tmp/ident-b && echo IDENTICAL

The package is imported from ``PYTHONPATH``, so one copy of this script
checks any two trees.
"""

import argparse
import os
import sys

import peerkd
from peerkd.cli import main

COMMON = ["--num-classes", "3", "--epochs", "3", "--batch-size", "32",
          "--per-class-train", "64", "--per-class-test", "16", "--image-size", "16",
          "--seed", "0", "--milestones-logit", "1", "--milestones-adv", "1"]

RUNS = {
    "vanilla": ["--method", "vanilla", "--archs", "tiny-a,tiny-a"],
    "dml": ["--method", "dml", "--archs", "tiny-a,tiny-a"],
    "kd_ensemble_k3": ["--method", "kd_ensemble", "--archs", "tiny-a", "--k", "3"],
    "l1_mixed": ["--method", "l1", "--archs", "tiny-a,tiny-b"],
    "l1_kd": ["--method", "l1_kd", "--archs", "tiny-a,tiny-a"],
    "afd_mixed": ["--method", "afd", "--archs", "tiny-a,tiny-b"],
    "afd_k3": ["--method", "afd", "--archs", "tiny-a", "--k", "3"],
}


def run_all(out_root):
    print(f"peerkd from {os.path.dirname(peerkd.__file__)}")
    for name, flags in RUNS.items():
        code = main(["train", *flags, *COMMON, "--out-dir", os.path.join(out_root, name)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory that receives one subdirectory per run")
    sys.exit(run_all(parser.parse_args().out))
