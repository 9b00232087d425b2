"""The benchmark's workloads, driven through peerkd's public functions.

Import this module only after the BLAS thread count is pinned (see
``worker.py``): numpy reads the pin once, at import.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import traceback

import numpy as np

from peerkd import checkpoint, data, trainer
from peerkd.data import RunConfig
from worker import PINNED_ENV, WORKLOADS

WARMUP_STEPS = 2
TAIL_BEYOND = 10  # the tail percentile is the highest with this many steps above it
# timed steps at least: the tail percentile is then p67 or higher
MIN_TIMED_STEPS = 3 * TAIL_BEYOND
# Set-up, evaluation and checkpoint round trips are timed after training, this
# many times each; the first set-up is the one that builds the trained plan.
SETUPS = 21
EVALS = 6
ROUNDTRIPS = 30

# Host speed on a shared machine moves by 1.3-1.8x in phases of seconds to
# minutes (most likely another tenant on the same physical core), in CPU
# time as in wall time, so no statistic inside one run removes it. Every
# timing is therefore reported in reference seconds: its wall time times
# CAL_REF_S over the mean of two runs of a fixed calibration kernel, one
# just before the timed call and one just after. The kernel does what a
# step is made of, numpy ufuncs, reductions, reshapes and einsums on small
# arrays, and it slows down with the host as the steps do; a BLAS matmul or
# a pure-Python loop slowed down less and under-corrected. CAL_REF_S is
# about the kernel's wall time on the reference host in a fast phase, so
# reference times read close to wall times there. Wall times are kept in
# the details line.
CAL_REF_S = 0.002
_cal_rng = np.random.default_rng(0)
_CAL_X = _cal_rng.standard_normal((16, 8, 8, 8), dtype=np.float32)
_CAL_Y = _cal_rng.standard_normal((16, 8, 8, 8), dtype=np.float32)
_CAL_W = _cal_rng.standard_normal((8, 8), dtype=np.float32)


def calibrate() -> float:
    """Wall time of the fixed calibration kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(60):
        t = _CAL_X * _CAL_Y + _CAL_X
        t = np.maximum(t, 0.1 * t)
        t.sum(axis=(0, 2, 3))
        t.transpose(0, 2, 3, 1).reshape(-1, 8)
    for _ in range(20):
        np.einsum("nchw,oc->nohw", _CAL_X, _CAL_W)
    np.einsum("bcs,bds->cd", _CAL_X.reshape(16, 8, 64), _CAL_Y.reshape(16, 8, 64))
    return time.perf_counter() - t0


class Clock:
    """Times calls in wall seconds and in reference seconds (see ``CAL_REF_S``)."""

    def __init__(self):
        self.calibrations = []

    def time(self, fn, *args):
        """Return ``fn(*args)``, its wall time and its reference time."""
        before = calibrate()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        after = calibrate()
        self.calibrations += (before, after)
        return out, wall, wall * 2 * CAL_REF_S / (before + after)


def make_config(workload: str, seed: int) -> RunConfig:
    return RunConfig(seed=seed, data_seed=seed, **WORKLOADS[workload]["config"]).validate()


def setup(cfg: RunConfig):
    """Synthesize and standardize both splits, then build the plan."""
    train = data.synth_blobs(cfg.num_classes, cfg.per_class_train, cfg.image_size,
                             cfg.noise_std, cfg.data_seed, "train")
    test = data.synth_blobs(cfg.num_classes, cfg.per_class_test, cfg.image_size,
                            cfg.noise_std, cfg.data_seed + 1, "test")
    mean, std = data.channel_stats(train)
    train = data.standardize(train, mean, std)
    test = data.standardize(test, mean, std)
    return train, test, mean, std, trainer.build_plan(cfg)


def batch_stream(train, cfg):
    epoch = 0
    while True:
        yield from data.batches(train, cfg.batch_size, cfg.seed, epoch)
        epoch += 1


def plan_state(plan, mean, std):
    """Every parameter, buffer and optimizer array of ``plan``, as raw bytes."""
    return {name: (arr.dtype.str, arr.shape, arr.tobytes())
            for name, arr in trainer.plan_state_entries(plan, 0, mean, std).items()}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas_id = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas_id,
            "blas_threads": {k: os.environ.get(k) for k in PINNED_ENV},
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


TIMING_UNITS = {"setup_s": "s", "train_samples_per_s": "samples/s", "step_ms_p50": "ms",
                "step_ms_tail": "ms", "eval_samples_per_s": "samples/s",
                "checkpoint_roundtrip_ms": "ms"}


def run(workload, seed, seconds, max_steps=None, tracer=None, workdir="."):
    """Set up, train, evaluate and round-trip a checkpoint; return metrics and checks.

    Training stops after ``max_steps`` steps when given, else once
    ``seconds`` of wall time have passed, ``MIN_TIMED_STEPS`` steps are timed
    and the workload's last quality step has run. Set-ups, evaluations and
    checkpoint round trips are timed after training. Without a ``tracer``
    the end-to-end metrics are reported, with one the per-layer metrics.
    """
    cfg = make_config(workload, seed)
    quality_steps = WORKLOADS[workload]["quality_steps"]
    min_steps = max(WARMUP_STEPS + MIN_TIMED_STEPS, *quality_steps)
    attempted, failures = 0, []
    clock = Clock()
    times = {"setup": [], "eval": [], "roundtrip": [], "step": []}  # (wall, reference) pairs

    def phase(label):
        if tracer is not None:
            tracer.step = label

    def attempt(what, fn, *args):
        """``(True, fn(*args))``, or ``(False, None)`` if it raised; counted either way."""
        nonlocal attempted
        attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # a failed operation is counted, and the run goes on
            failures.append(f"{what}: {traceback.format_exc(limit=-1).strip()}")
            return False, None

    def timed(kind, what, fn, *args):
        (ok, out), wall, ref = clock.time(attempt, what, fn, *args)
        times[kind].append((wall, ref))
        return ok, out

    phase("setup")
    ok, built = timed("setup", "set-up", setup, cfg)
    if not ok:  # without the first set-up there is nothing to train
        raise RuntimeError(failures[-1])
    train, test, mean, std, plan = built
    if tracer is not None:
        tracer.track_params(plan)

    stream = batch_stream(train, cfg)
    step_samples, losses = [], []
    quality = []  # (mean per-net top-1, ensemble top-1) at each quality step
    step = 0
    start = time.perf_counter()
    while True:
        phase(step)
        x, y = next(stream) if tracer is None else tracer.span("data.batch", next, stream)
        ok, records = timed("step", f"step {step}", trainer.train_step, plan, x, y)
        step_samples.append(len(y))
        losses.append([[r.net_id, r.loss_ce, r.loss_kl, r.loss_g, r.loss_d]
                       for r in records or []])
        step += 1
        if step in quality_steps:
            phase("quality")
            ok, out = attempt(f"evaluate at step {step}", trainer.evaluate, plan.nets,
                              test, cfg.batch_size)
            if ok:
                quality.append((float(np.mean(out[0])), out[1]))
        if step == max_steps if max_steps else (
                step >= min_steps and time.perf_counter() - start >= seconds):
            break

    # 0 when an evaluation failed; that failure is counted already
    test_top1, ens_top1 = (np.mean(quality, axis=0).tolist()
                           if len(quality) == len(quality_steps) else (0.0, 0.0))
    if step >= quality_steps[-1]:
        attempted += 1
        if test_top1 <= 1.0 / cfg.num_classes:
            failures.append(f"test_top1 {test_top1} at or below chance")

    phase("setup")
    for _ in range(SETUPS - 1):
        timed("setup", "set-up", setup, cfg)
    phase("eval")
    trained_eval = None
    for _ in range(EVALS):
        ok, out = timed("eval", "evaluate", trainer.evaluate, plan.nets, test, cfg.batch_size)
        trained_eval = out if ok else trained_eval
    phase("checkpoint")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{workload}-seed{seed}-pid{os.getpid()}.afdk")

    def roundtrip(fresh):
        trainer.save_plan_checkpoint(plan, path, step, mean, std)
        trainer.restore_plan(fresh, checkpoint.load_entries(path))

    reference = plan_state(plan, mean, std)
    for i in range(ROUNDTRIPS):
        fresh = trainer.build_plan(cfg)
        ok, _ = timed("roundtrip", "checkpoint round trip", roundtrip, fresh)
        if ok and plan_state(fresh, mean, std) != reference:
            failures.append("checkpoint round trip did not restore bit-identical state")
        elif ok and i == 0:
            ok, restored_eval = attempt("evaluate the restored plan", trainer.evaluate,
                                        fresh.nets, test, cfg.batch_size)
            if ok and restored_eval != trained_eval:
                failures.append("restored plan evaluates differently from the trained one")
    checkpoint_bytes = os.path.getsize(path) if os.path.exists(path) else 0
    if os.path.exists(path):
        os.remove(path)

    timed_steps = range(WARMUP_STEPS, step)
    samples = sum(step_samples[WARMUP_STEPS:])
    times["step"] = times["step"][WARMUP_STEPS:]
    n = len(times["step"])
    tail = n - TAIL_BEYOND - 1
    median = statistics.median

    def timings(k):
        """The end-to-end timings from wall (k=0) or reference (k=1) seconds."""
        col = {kind: [pair[k] for pair in pairs] for kind, pairs in times.items()}
        return {"setup_s": median(col["setup"]),
                "train_samples_per_s": samples / sum(col["step"]),
                "step_ms_p50": 1000 * median(col["step"]),
                "step_ms_tail": 1000 * sorted(col["step"])[tail],
                "eval_samples_per_s": test.n / median(col["eval"]),
                "checkpoint_roundtrip_ms": 1000 * median(col["roundtrip"])}

    detail = {"timed_steps": n, "warmup_steps": WARMUP_STEPS, "setup_repeats": SETUPS,
              "eval_repeats": EVALS, "roundtrip_repeats": ROUNDTRIPS,
              "calibration_ms": {"reference": 1000 * CAL_REF_S,
                                 "median": 1000 * median(clock.calibrations),
                                 "min": 1000 * min(clock.calibrations),
                                 "max": 1000 * max(clock.calibrations)}}
    if tracer is not None:
        metrics = layer_metrics(tracer, timed_steps, checkpoint_bytes)
    else:
        detail.update(step_ms_tail_percentile=round(100.0 * (tail + 1) / n, 2),
                      steps_beyond_tail=TAIL_BEYOND, quality_steps=quality_steps,
                      wall=timings(0))
        metrics = {name: _metric(value, TIMING_UNITS[name])
                   for name, value in timings(1).items()}
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["test_top1"] = _metric(test_top1, "fraction")
        metrics["ens_top1"] = _metric(ens_top1, "fraction")
    return {"workload": workload, "seed": seed, "steps": step, "attempted": attempted,
            "failed": len(failures), "failures": failures, "losses": losses,
            "train_samples_per_s": samples / sum(ref for _, ref in times["step"]),
            "metrics": metrics, "detail": detail, "env": environment()}


TENSOR_OPS = ("conv2d", "batch_norm", "leaky_relu", "avg_pool2d", "global_avg_pool",
              "linear", "sigmoid", "row_log_softmax")


def layer_metrics(tracer, measured, checkpoint_bytes):
    """Per-layer metrics from the trace: per training step unless the name says otherwise."""
    totals = tracer.totals(measured)
    n = len(measured)

    def ms(name, phase="step", per=n):
        return _metric(1000 * totals[(name, phase)][0] / per, "ms")

    def seconds(*names):
        return _metric(sum(totals[(name, "setup")][0] for name in names) / SETUPS, "s")

    def calls(name):
        return _metric(totals[(name, "step")][2] / n, "count")

    def counted(name):
        return sum(tracer.counters[(name, s)] for s in measured) / n

    out = {
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.backward_calls": calls("tensor.backward"),
        "tensor.topo_order_ms": ms("tensor.topo_order"),
        "tensor.graph_nodes": _metric(counted("tensor.graph_nodes"), "count"),
        "tensor.conv2d.fwd_gflop": _metric(counted("tensor.conv2d.flop") / 1e9, "GFLOP"),
        "tensor.conv2d.fwd_nograd_ms": ms("tensor.conv2d", "eval", EVALS),
    }
    for op in TENSOR_OPS:
        out[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
    out.update({
        "blocks.net_forward_ms": ms("blocks.net_forward"),
        "blocks.net_forward_calls": calls("blocks.net_forward"),
        "blocks.disc_forward_ms": ms("blocks.disc_forward"),
        "blocks.disc_forward_calls": calls("blocks.disc_forward"),
        "blocks.transfer_forward_ms": ms("blocks.transfer_forward"),
        "losses.cross_entropy_ms": ms("losses.cross_entropy"),
        "losses.kl_mimicry_ms": ms("losses.kl_mimicry"),
        "losses.lsgan_d_loss_ms": ms("losses.lsgan_d_loss"),
        "losses.lsgan_g_loss_ms": ms("losses.lsgan_g_loss"),
        "optim.sgd_step_ms": ms("optim.sgd_step"),
        "optim.sgd_step_calls": calls("optim.sgd_step"),
        "optim.adam_step_ms": ms("optim.adam_step"),
        "optim.adam_step_calls": calls("optim.adam_step"),
        "optim.grad_use_ratio": _metric(counted("optim.grads_used")
                                        / counted("optim.grads_written"), "ratio"),
        "trainer.step_ms": ms("trainer.train_step"),
        "trainer.step_self_ms": _metric(1000 * totals[("trainer.train_step", "step")][1] / n,
                                        "ms"),
        "trainer.forward_all_ms": ms("trainer.forward_all"),
        "trainer.phase_a_ms": ms("trainer.phase_a"),
        "trainer.phase_b_ms": ms("trainer.phase_b"),
        "trainer.baseline_step_ms": ms("trainer.baseline_step"),
        "trainer.evaluate_ms": ms("trainer.evaluate", "eval", EVALS),
        "trainer.build_plan_s": seconds("trainer.build_plan"),
        "trainer.nonfinite_errors": _metric(
            tracer.errors["trainer.train_step:NonFiniteError"], "count"),
        "data.batch_ms": ms("data.batch"),
        "data.synth_s": seconds("data.synth"),
        "data.standardize_s": seconds("data.channel_stats", "data.standardize"),
        "checkpoint.save_ms": ms("checkpoint.save", "checkpoint", ROUNDTRIPS),
        "checkpoint.load_ms": ms("checkpoint.load", "checkpoint", ROUNDTRIPS),
        "checkpoint.restore_ms": ms("checkpoint.restore", "checkpoint", ROUNDTRIPS),
        "checkpoint.bytes": _metric(checkpoint_bytes, "bytes"),
        "checkpoint.format_errors": _metric(
            sum(count for key, count in tracer.errors.items()
                if key.startswith("checkpoint.")), "count"),
    })
    return out
