"""Exact-count self-test of the traced run.

Runs the traced worker twice per workload for a few steps and checks that the
per-step counts repeat exactly and match the counts later changes cite:

    python3 -m pytest perfbench/test_counts.py
"""

import os
import subprocess
import sys
import time

import pytest

import run

# counts per training step that later changes cite
EXPECTED = {
    "afd_mixed_b128": {"tensor.backward_calls": 6, "blocks.disc_forward_calls": 6,
                       "tensor.conv2d.calls": 20},
    "afd_ring3_b16": {"tensor.backward_calls": 9, "blocks.disc_forward_calls": 9,
                      "tensor.conv2d.calls": 27},
    "dml_b128": {"tensor.backward_calls": 2, "blocks.disc_forward_calls": 0,
                 "tensor.conv2d.calls": 9},
}
REPEATABLE = ("tensor.graph_nodes", "tensor.conv2d.fwd_gflop", "optim.grad_use_ratio")


def traced_run(workload):
    result = run.run_worker(time.monotonic() + 300, workload, 0, "--max-steps", "3",
                            "--trace", "1")
    assert result["failures"] == []
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_counts_are_exact_and_repeat(workload):
    first, second = traced_run(workload), traced_run(workload)
    for name, expected in EXPECTED[workload].items():
        assert first[name] == second[name] == expected, name
    for name in REPEATABLE:
        assert first[name] == second[name], name
    assert first["tensor.graph_nodes"] > 0 and first["tensor.conv2d.fwd_gflop"] > 0
    assert 0 < first["optim.grad_use_ratio"] <= 1


def test_worker_refuses_unpinned_blas():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "worker.py"), "--workload", "dml_b128",
         "--seed", "0", "--workdir", run.WORKDIR],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
