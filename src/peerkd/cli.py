"""Command-line entry points.

Subcommands: ``train``, ``eval``, ``analyze``, ``gradcam``, ``synth-data``.
Every RunConfig field is exposed as a ``--flag``; flags override values read
from ``--config`` (a flat ``key = value`` file, ``#`` comments).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import export_pgm, feature_similarity, grad_cam
from .data import RunConfig, build_config, parse_config_file, save_idx, synth_blobs
from .errors import PeerKDError, UsageError
from .trainer import evaluate, restore_run, run_experiment

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def _add_config_flags(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    for name in _CONFIG_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=f"cfg_{name}",
                            metavar="V", help=f"override config field {name}")


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for name in _CONFIG_FIELDS:
        value = getattr(args, f"cfg_{name}")
        if value is not None:
            overrides[name] = value
    return build_config(file_values, overrides)


def _cmd_train(args):
    config = _config_from_args(args)
    rows = run_experiment(config, resume_from=args.resume)
    tests = [r for r in rows if r["split"] == "test"]
    if tests:
        last_epoch = tests[-1]["epoch"]
        final = [r for r in tests if r["epoch"] == last_epoch]
        for r in final:
            print(f"net{r['net_id']} top1 {r['top1']:.4f}")
        print(f"ensemble top1 {final[-1]['ens_top1']:.4f}")
    print(f"metrics written to {config.out_dir}/metrics.csv")
    return 0


def _cmd_eval(args):
    config = _config_from_args(args)
    plan, test_ds = restore_run(config, args.checkpoint)
    per_net, ens = evaluate(plan.nets, test_ds, config.batch_size)
    for k, acc in enumerate(per_net):
        print(f"net{k} top1 {acc:.4f}")
    print(f"ensemble top1 {ens:.4f}")
    return 0


def _cmd_analyze(args):
    config = _config_from_args(args)
    plan, test_ds = restore_run(config, args.checkpoint)
    print("method,pair,l1,l2,cosine,n")
    for i in range(len(plan.nets)):
        for j in range(i + 1, len(plan.nets)):
            rep = feature_similarity(plan.nets[i], plan.nets[j], test_ds, config.batch_size)
            print(f"{config.method},{i}-{j},{rep.l1:.6f},{rep.l2:.6f},"
                  f"{rep.cosine:.6f},{rep.count}")
    return 0


def _cmd_gradcam(args):
    plan, test_ds = restore_run(_config_from_args(args), args.checkpoint)
    for flag, value, count in (("--net", args.net, len(plan.nets)),
                               ("--index", args.index, test_ds.n)):
        if not 0 <= value < count:
            raise UsageError(f"{flag} {value} out of range [0, {count})")
    heatmap, target = grad_cam(plan.nets[args.net], test_ds.images[args.index],
                               args.target_class)
    export_pgm(heatmap, args.out)
    print(f"wrote {args.out} (net {args.net}, sample {args.index}, class {target})")
    return 0


def _cmd_synth_data(args):
    ds = synth_blobs(args.num_classes, args.per_class, args.image_size,
                     args.noise_std, args.seed)
    save_idx(ds, args.images, args.labels)
    print(f"wrote {ds.n} images to {args.images}, labels to {args.labels}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerkd",
        description="Online mutual distillation between co-trained classifiers "
                    "(logit mimicry plus adversarial feature matching).",
        epilog="Arch specs: named presets (tiny-a, tiny-b) or block strings of "
               "'-'-separated tokens conv:C:K:S | bn | relu | pool:N, e.g. "
               "conv:16:3:1-bn-relu-pool:2-conv:32:3:1-bn-relu-pool:2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training experiment")
    _add_config_flags(p)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("analyze", help="feature-map similarity between network pairs")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("gradcam", help="export a class-activation heatmap as PGM")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", type=int, default=0, help="test-set sample index")
    p.add_argument("--net", type=int, default=0, help="which network to inspect")
    p.add_argument("--target-class", type=int, default=None,
                   help="class to explain (default: the predicted class)")
    p.add_argument("--out", required=True, help="output .pgm path")
    p.set_defaults(fn=_cmd_gradcam)

    p = sub.add_parser("synth-data", help="generate a synthetic blob dataset as IDX files")
    p.add_argument("--num-classes", type=int, default=RunConfig.num_classes)
    p.add_argument("--per-class", type=int, default=RunConfig.per_class_train)
    p.add_argument("--image-size", type=int, default=RunConfig.image_size)
    p.add_argument("--noise-std", type=float, default=RunConfig.noise_std)
    p.add_argument("--seed", type=int, default=RunConfig.data_seed)
    p.add_argument("--images", required=True, help="output IDX image file")
    p.add_argument("--labels", required=True, help="output IDX label file")
    p.set_defaults(fn=_cmd_synth_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PeerKDError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
