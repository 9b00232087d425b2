"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this script in a fresh interpreter per workload with the
BLAS and OpenMP thread counts pinned to 1. Run alone, it refuses to start
unless the same pins are set, because numpy fixes its thread pool at import:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \\
        python3 perfbench/worker.py --workload dml_b128 --seed 0 --seconds 5 --workdir .perfbench

The workload definitions live here, not in ``workload.py``, so that ``run.py``
can read them without importing numpy.
"""

import argparse
import json
import os
import sys

PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each workload stresses a different layer; see README.md for why each was chosen.
# test_top1/ens_top1 are the mean of evaluations at the fixed ``quality_steps``, so
# the quality guard does not depend on how many steps fit in the timed window.
# Single evaluations swing by several points from step to step at these
# learning rates; the mean of several narrows the spread across seeds.
WORKLOADS = {
    "afd_mixed_b128": {"config": {"method": "afd", "archs": ["tiny-a", "tiny-b"],
                                  "batch_size": 128},
                       "quality_steps": (23,)},
    "afd_ring3_b16": {"config": {"method": "afd", "archs": ["tiny-a"], "k": 3,
                                 "batch_size": 16},
                      "quality_steps": (90, 120, 150, 180, 210)},
    "dml_b128": {"config": {"method": "dml", "archs": ["tiny-a", "tiny-a"],
                            "batch_size": 128},
                 "quality_steps": (60,)},
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="least wall time of training")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="train exactly this many steps instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True,
                        help="directory for the checkpoint and the trace file")
    args = parser.parse_args(argv)

    unpinned = {k: os.environ.get(k) for k in PINNED_ENV if os.environ.get(k) != "1"}
    if unpinned:
        print(f"refusing to run: BLAS threads not pinned to 1: {unpinned}", file=sys.stderr)
        return 3

    import workload  # imports numpy, so only after the pin check

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    result = workload.run(args.workload, args.seed, args.seconds, args.max_steps, tracer,
                          args.workdir)
    if tracer is not None:
        path = os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {key: result[key] for key in ("workload", "seed", "steps", "env")})
        result["trace_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
