#!/usr/bin/env python3
"""Train a fixed tiny set of runs, so two source trees can be compared byte for byte.

Each run goes through ``peerkd.cli.main(["train", ...])`` into its own
directory under ``--out`` and leaves a ``metrics.csv`` and ``.afdk``
checkpoints there. The set covers every method and training path:
vanilla, vanilla with K=1 (no edges, a one-net ensemble), dml, dml with
K=3 (a ring: nets 1, 2 pass twice), kd_ensemble with K=3, l1 and afd on a
tiny-a/tiny-b pair, l1_kd, afd with K=3, l1_kd_offline (the frozen-teacher
path, with net 0 of the vanilla run's final checkpoint as teacher), afd
with ``--adversarial off`` (the logit-only ablation), afd on a tiny-a pair
that reads IDX files (``--data-source idx``), and three resumed runs,
``afd_mixed_resumed``, ``afd_k3_resumed`` and ``dml_resumed``: the
``afd_mixed``, ``afd_k3`` and ``dml`` flags again, resumed with ``--resume``
from that run's ``checkpoint_ep1.afdk`` into a directory of their own, so
the restored parameters, buffers and SGD and Adam state, of two edges and
of three, are under the diff too. Every
run uses 3 classes, 3 epochs, batch 32, 64 training and 16 test images per
class, 16x16 images and milestone 1 for both learning rates, except
``afd_mixed_uneven``: the ``afd_mixed`` flags at batch 100 on 67 training
images per class, so each epoch takes batches of 100, 100 and 1. That puts
several of the conv backward's input-gradient slices, a short last slice
and the one-image column view under the diff. A run's own flags come after
the common ones, so they win. The IDX files
are written first by ``peerkd synth-data`` into ``idx_data``, with seed 0
for the training split and seed 1 for the test split. Only flags that
every compared tree accepts are used.

After training, each run's ``checkpoint_final.afdk`` is restored and the
raw float32 bytes of every net's eval-mode logits on the standardized test
split are written, net after net, to ``eval_logits.bin``, and each net's
logits for test image 0 alone to ``eval_logits_1.bin``. That covers the
eval-mode kernels (batch norm on running statistics, pooling) to the last
bit; a last-bit change there almost never moves a top-1 fraction in
``metrics.csv``. A one-image batch takes other BLAS paths than a whole
split (its logits differ in the last bits from the same image's inside the
split), and it is the graph-free path that the plan's feature-map probe
runs. The ``afd_mixed``, ``afd_k3`` and ``afd_idx`` runs
also write, from that checkpoint and through ``peerkd.cli.main``, the stdout
of ``peerkd eval`` (``eval.txt``) and of ``peerkd analyze``
(``analyze.csv``), and one ``peerkd gradcam`` heatmap, ``gradcam.pgm``, of
net 1 on test sample 0, so the CLI's restore path and the Grad-CAM backward
are part of the comparison.

The OpenBLAS core that ran (``blas_core.py``) is printed and written to
``blas_core.txt`` in ``--out``: trained bytes are the same only under the
same core, so ``diff -r`` of two directories written under different cores
fails on that file. The number of usable CPUs does not matter: the peers'
forward passes run concurrently on any number of them (``taskset -c 0``
included), with the same bytes.

A change that is meant to leave training and evaluation unchanged must give
identical files:

    PYTHONPATH=<tree A>/src python3 scripts/check_identity.py --out /tmp/ident-a
    PYTHONPATH=<tree B>/src python3 scripts/check_identity.py --out /tmp/ident-b
    diff -r /tmp/ident-a /tmp/ident-b && echo IDENTICAL

The package is imported from ``PYTHONPATH``, so one copy of this script
checks any two trees.

A change that re-rounds on purpose (a kernel that sums in another order)
cannot give identical files against its parent. Split the check: make a
commit that holds only the intended re-rounding, and diff the full change
against that commit, which must print IDENTICAL. Everything else in the
change then provably keeps the bits, and the re-rounding alone is left to
the test suite and to ``scripts/run_benchmark.py``:

    mkdir /tmp/reround && git archive <re-rounding commit> | tar -x -C /tmp/reround
    PYTHONPATH=/tmp/reround/src python3 scripts/check_identity.py --out /tmp/ident-r
    PYTHONPATH=<change>/src python3 scripts/check_identity.py --out /tmp/ident-c
    diff -r /tmp/ident-r /tmp/ident-c && echo IDENTICAL
"""

import argparse
import contextlib
import os
import sys

import peerkd
from blas_core import blas_core
from peerkd.blocks import eval_mode
from peerkd.cli import main
from peerkd.data import build_config
from peerkd.tensor import Tensor, no_grad
from peerkd.trainer import restore_run

COMMON = ["--num-classes", "3", "--epochs", "3", "--batch-size", "32",
          "--per-class-train", "64", "--per-class-test", "16", "--image-size", "16",
          "--seed", "0", "--milestones-logit", "1", "--milestones-adv", "1"]

RUNS = {
    "vanilla": ["--method", "vanilla", "--archs", "tiny-a,tiny-a"],
    "vanilla_single": ["--method", "vanilla", "--archs", "tiny-a"],
    "dml": ["--method", "dml", "--archs", "tiny-a,tiny-a"],
    "dml_k3": ["--method", "dml", "--archs", "tiny-a", "--k", "3"],
    "kd_ensemble_k3": ["--method", "kd_ensemble", "--archs", "tiny-a", "--k", "3"],
    "l1_mixed": ["--method", "l1", "--archs", "tiny-a,tiny-b"],
    "l1_kd": ["--method", "l1_kd", "--archs", "tiny-a,tiny-a"],
    "afd_mixed": ["--method", "afd", "--archs", "tiny-a,tiny-b"],
    "afd_mixed_uneven": ["--method", "afd", "--archs", "tiny-a,tiny-b",
                         "--batch-size", "100", "--per-class-train", "67"],
    "afd_k3": ["--method", "afd", "--archs", "tiny-a", "--k", "3"],
    # {out} is the --out directory; the vanilla run above has written the teacher
    "l1_kd_offline": ["--method", "l1_kd_offline", "--archs", "tiny-a,tiny-a",
                      "--teacher-checkpoint", "{out}/vanilla/checkpoint_final.afdk"],
    "afd_logit_only": ["--method", "afd", "--archs", "tiny-a,tiny-a", "--adversarial", "off"],
    # the files written by write_idx_data
    "afd_idx": ["--method", "afd", "--archs", "tiny-a,tiny-a", "--data-source", "idx",
                "--train-images", "{out}/idx_data/train-images.idx",
                "--train-labels", "{out}/idx_data/train-labels.idx",
                "--test-images", "{out}/idx_data/test-images.idx",
                "--test-labels", "{out}/idx_data/test-labels.idx"],
}

# resumed run -> the run of RUNS whose flags it repeats and whose epoch-1 checkpoint it resumes
RESUMED_RUNS = {"afd_mixed_resumed": "afd_mixed", "afd_k3_resumed": "afd_k3",
                "dml_resumed": "dml"}

GRADCAM_RUNS = ("afd_mixed", "afd_k3", "afd_idx")

# split -> (images per class, seed) for the IDX files
IDX_SPLITS = {"train": ("64", "0"), "test": ("16", "1")}


def write_idx_data(out_root):
    """Write each split of ``IDX_SPLITS`` with ``peerkd synth-data``."""
    idx_dir = os.path.join(out_root, "idx_data")
    os.makedirs(idx_dir, exist_ok=True)
    for split, (per_class, seed) in IDX_SPLITS.items():
        code = main(["synth-data", "--num-classes", "3", "--per-class", per_class,
                     "--image-size", "16", "--seed", seed,
                     "--images", os.path.join(idx_dir, f"{split}-images.idx"),
                     "--labels", os.path.join(idx_dir, f"{split}-labels.idx")])
        if code != 0:
            return code
    return 0


def run_config(flags):
    """The RunConfig of ``flags``, a list of ``--name value`` pairs."""
    pairs = zip(flags[::2], flags[1::2])
    return build_config(overrides={flag[2:].replace("-", "_"): value for flag, value in pairs})


def write_eval_logits(flags, run_dir):
    """Restore the run's final checkpoint and write its test-split logits,
    and each net's logits for test image 0 alone."""
    plan, test = restore_run(run_config(flags),
                             os.path.join(run_dir, "checkpoint_final.afdk"))
    with eval_mode(*plan.nets), no_grad():
        for name, images in (("eval_logits.bin", test.images),
                             ("eval_logits_1.bin", test.images[:1])):
            with open(os.path.join(run_dir, name), "wb") as f:
                for net in plan.nets:
                    _, logits = net.forward(Tensor(images))
                    f.write(logits.data.tobytes())


def write_restored_outputs(flags, run_dir):
    """Run ``peerkd eval``, ``analyze`` and ``gradcam`` on the run's final
    checkpoint; the first two write their stdout to a file of the run."""
    restored = [*flags, "--checkpoint", os.path.join(run_dir, "checkpoint_final.afdk")]
    for command, out_name in (("eval", "eval.txt"), ("analyze", "analyze.csv")):
        with open(os.path.join(run_dir, out_name), "w") as f, contextlib.redirect_stdout(f):
            code = main([command, *restored])
        if code != 0:
            return code
    return main(["gradcam", *restored, "--net", "1", "--index", "0",
                 "--out", os.path.join(run_dir, "gradcam.pgm")])


def run_all(out_root):
    print(f"peerkd from {os.path.dirname(peerkd.__file__)}")
    core = blas_core()
    print(f"OpenBLAS core {core}")
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "blas_core.txt"), "w") as f:
        f.write(core + "\n")
    code = write_idx_data(out_root)
    if code != 0:
        return code
    runs = [(name, flags, []) for name, flags in RUNS.items()]
    runs += [(name, RUNS[source],
              ["--resume", os.path.join(out_root, source, "checkpoint_ep1.afdk")])
             for name, source in RESUMED_RUNS.items()]
    for name, flags, resume in runs:
        flags = [flag.format(out=out_root) for flag in flags]
        run_dir = os.path.join(out_root, name)
        code = main(["train", *COMMON, *flags, *resume, "--out-dir", run_dir])
        if code != 0:
            return code
        write_eval_logits([*COMMON, *flags], run_dir)
        if name in GRADCAM_RUNS:
            code = write_restored_outputs([*COMMON, *flags], run_dir)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory that receives one subdirectory per run")
    sys.exit(run_all(parser.parse_args().out))
