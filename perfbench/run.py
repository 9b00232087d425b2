#!/usr/bin/env python3
"""Benchmark of peerkd's co-training loop.

Runs each workload in a fresh interpreter (``worker.py``) with the BLAS and
OpenMP thread counts pinned to 1, prints every metric by name and unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py                         # all workloads, end to end
    python3 perfbench/run.py --workload dml_b128 --seed 3 --seconds 10 --trace 1

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload untraced for half of ``--seconds``, then again with tracing
wrappers for the same number of steps; it reports the per-layer metrics and
checks that both runs computed bit-identical step losses.

Run from the repository root or anywhere else: the package is loaded from
``src/`` next to this directory. Scratch files go to ``.perfbench/`` there.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from worker import PINNED_ENV, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170  # per workload, all of its workers included


class WorkerError(RuntimeError):
    pass


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(deadline, workload, seed, *options):
    """Run one worker to completion and return its parsed result."""
    env = dict(os.environ, **{name: "1" for name in PINNED_ENV})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", WORKDIR, *options]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(deadline, workload, seed, seconds, trace):
    """One workload's metrics, attempted/failed counts and details."""
    if not trace:
        res = run_worker(deadline, workload, seed, "--seconds", str(seconds))
        return res["metrics"], res["attempted"], res["failures"], res
    ref = run_worker(deadline, workload, seed, "--seconds", str(seconds / 2))
    traced = run_worker(deadline, workload, seed, "--max-steps", str(ref["steps"]),
                        "--trace", "1")
    failures = ref["failures"] + traced["failures"]
    if traced["losses"] != ref["losses"]:
        failures.append("traced step losses differ from the untraced run's")
    metrics = dict(traced["metrics"])
    metrics["trace.train_samples_per_s_ratio"] = {
        "value": traced["train_samples_per_s"] / ref["train_samples_per_s"], "unit": "ratio"}
    traced["detail"]["untraced_train_samples_per_s"] = ref["train_samples_per_s"]
    traced["detail"]["traced_train_samples_per_s"] = traced["train_samples_per_s"]
    return metrics, ref["attempted"] + traced["attempted"] + 1, failures, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least wall time of training, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "peerkd", "__init__.py")):
        print(f"error: no peerkd package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    commit = git_commit()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            metrics, attempted, failures, res = bench(time.monotonic() + DEADLINE_S, workload,
                                                      args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"== {workload}  seed={args.seed}  trace={args.trace}  steps={res['steps']}")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
        for failure in failures:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
        print(json.dumps({"workload": workload, "detail": res["detail"],
                          "env": dict(res["env"], git_commit=commit),
                          "trace_file": res.get("trace_file")}))
        combined["attempted"] += attempted
        combined["failed"] += len(failures)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
