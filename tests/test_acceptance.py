"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria 6 and 7 share one set of trained runs (6-class synthetic blobs,
1200 train / 600 test, noise 0.35, a tiny-a pair, 20 epochs, 3 seeds), so
the whole suite stays within a desk-scale CPU budget.
"""

import os
import time

import numpy as np
import pytest

from helpers import count_forwards, fd_gradcheck
from peerkd import data, losses, trainer
from peerkd.analysis import feature_similarity
from peerkd.checkpoint import load_entries
from peerkd.data import build_config
from peerkd.optim import lr_at
from peerkd.tensor import Tensor
from peerkd.trainer import (afd_adversarial_phase, afd_logit_phase, build_plan,
                            forward_all, restore_plan, restore_run, run_experiment)
from test_gradients import GRAD_CASES, case_rng

SEEDS = (0, 1, 2)


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


# -- criterion 1: gradient suite ---------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.time()
    worst = 0.0
    for name, make in GRAD_CASES:
        rng = case_rng(name)
        for _ in range(10):
            worst = max(worst, fd_gradcheck(*make(rng), tol=1e-4, h=1e-5))
    elapsed = time.time() - t0
    report(1, elapsed < 60.0,
           f"({len(GRAD_CASES)} ops/losses x 10 instances, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s)")


# -- criterion 2: loss identities ---------------------------------------------

def test_criterion_2_loss_identities():
    checks = []
    for c in (2, 6, 10):
        ce = losses.cross_entropy(np.arange(3) % c,
                                  Tensor(np.zeros((3, c), dtype=np.float32)))
        checks.append(abs(ce.item() - np.log(c)) <= 1e-6)
    z = Tensor(np.random.default_rng(0).standard_normal((4, 6)).astype(np.float32))
    checks.append(abs(losses.kl_mimicry(z, z, 3.0).item()) <= 1e-8)
    ones = Tensor(np.ones(5, dtype=np.float32))
    zeros = Tensor(np.zeros(5, dtype=np.float32))
    halves = Tensor(np.full(5, 0.5, dtype=np.float32))
    checks.append(losses.lsgan_d_loss(ones, zeros).item() == 0.0)
    checks.append(abs(losses.lsgan_d_loss(halves, halves).item() - 0.5) <= 1e-8)
    checks.append(losses.lsgan_g_loss(ones).item() == 0.0)
    report(2, all(checks), "(CE=lnC, KL(z,z)=0, LSGAN fixed points)")


# -- criterion 3: topology -----------------------------------------------------

def _plan_cfg(method="afd", archs="tiny-a,tiny-a", **kw):
    base = dict(method=method, archs=archs, num_classes="6", epochs="1",
                batch_size="32", per_class_train="8", per_class_test="8",
                image_size="16", seed="0")
    base.update({k: str(v) for k, v in kw.items()})
    return build_config(base)


def test_criterion_3_topology():
    plan3 = build_plan(_plan_cfg(archs="tiny-a", k=3))
    one_based = {(s + 1, d + 1) for s, d in plan3.edges}
    ok3 = one_based == {(1, 2), (2, 3), (3, 1)} and len(plan3.discriminators) == 3
    plan2 = build_plan(_plan_cfg())
    ok2 = len(plan2.discriminators) == 2 and set(plan2.edges) == {(0, 1), (1, 0)}
    report(3, ok3 and ok2, "(K=3 cycle {1-2,2-3,3-1} with 3 D; K=2 with 2 D)")


# -- criterion 4: learning-rate schedule ---------------------------------------

def test_criterion_4_schedule():
    logit = [lr_at(e, 0.1, [150, 225], 0.1) for e in (0, 149, 150, 224, 225, 299)]
    adv = [lr_at(e, 2e-5, [75, 150], 0.1) for e in (0, 74, 75, 149, 150, 299)]
    ok = (np.allclose(logit, [0.1, 0.1, 0.01, 0.01, 0.001, 0.001], rtol=1e-12)
          and np.allclose(adv, [2e-5, 2e-5, 2e-6, 2e-6, 2e-7, 2e-7], rtol=1e-12))
    report(4, ok, "(0.1 -> 0.01@150 -> 0.001@225; 2e-5 -> 2e-6@75 -> 2e-7@150)")


# -- criterion 5: phase isolation / forward counts -----------------------------

def _batch(cfg, n=32):
    ds = data.synth_blobs(cfg.num_classes, max(1, n // cfg.num_classes + 1),
                          cfg.image_size, cfg.noise_std, 0)
    mean, std = data.channel_stats(ds)
    ds = data.standardize(ds, mean, std)
    return ds.images[:n], ds.labels[:n]


def test_criterion_5_phase_isolation_and_forward_counts():
    cfg = _plan_cfg()
    plan = build_plan(cfg)
    x, y = _batch(cfg)
    disc_before = {e: {k: p.data.copy() for k, p in d.params().items()}
                   for e, d in plan.discriminators.items()}
    with count_forwards() as calls:
        feats, logits = forward_all(plan, x)
    records = afd_logit_phase(plan, y, feats, logits)
    heads_after_a = [{k: p.data.copy() for k, p in net.head.params().items()}
                     for net in plan.nets]
    disc_after_a = {e: {k: p.data.copy() for k, p in d.params().items()}
                    for e, d in plan.discriminators.items()}
    afd_adversarial_phase(plan, feats, records)
    heads_ok = all(
        all(np.array_equal(net.head.params()[k].data, heads_after_a[i][k])
            for k in heads_after_a[i])
        for i, net in enumerate(plan.nets))
    disc_phase_a_ok = all(
        all(np.array_equal(disc_after_a[e][k], disc_before[e][k]) for k in disc_before[e])
        for e in disc_before)
    disc_phase_b_ok = any(
        not np.array_equal(plan.discriminators[e].params()[k].data, disc_after_a[e][k])
        for e in disc_after_a for k in disc_after_a[e])
    afd_counts = [calls[net] for net in plan.nets] == [1, 1]
    plan3 = build_plan(_plan_cfg(archs="tiny-a", k=3))
    with count_forwards() as calls:
        trainer.train_step(plan3, x, y)
    afd_counts = afd_counts and [calls[n] for n in plan3.nets] == [1, 1, 1]

    dml_plan = build_plan(_plan_cfg(method="dml"))
    with count_forwards() as calls:
        trainer.train_step(dml_plan, x, y)
    dml_counts = sum(calls[net] for net in dml_plan.nets) == 3

    report(5, heads_ok and disc_phase_a_ok and disc_phase_b_ok and afd_counts and dml_counts,
           "(heads bitwise-stable across phase B; D moves only in phase B; "
           "AFD K forwards, DML 3 forwards)")


# -- criteria 6 and 7: directional benefit and similarity collapse -------------

def _bench_cfg(method, seed, out_dir):
    archs = "tiny-a" if method == "vanilla" else "tiny-a,tiny-a"
    return build_config({}, {
        "method": method, "archs": archs, "num_classes": "6",
        "per_class_train": "200", "per_class_test": "100",
        "image_size": "16", "noise_std": "0.35", "epochs": "20",
        "seed": str(seed), "out_dir": out_dir,
    })


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    """{(method, seed): (final per-net accs, ensemble, pair cosine)}."""
    root = tmp_path_factory.mktemp("bench")
    results = {}
    for method in ("vanilla", "l1_kd", "afd"):
        for seed in SEEDS:
            out_dir = str(root / f"{method}_{seed}")
            cfg = _bench_cfg(method, seed, out_dir)
            rows = run_experiment(cfg)
            tests = [r for r in rows if r["split"] == "test"]
            last = max(r["epoch"] for r in tests)
            final = [r for r in tests if r["epoch"] == last]
            accs = [r["top1"] for r in final]
            ens = final[-1]["ens_top1"]
            cosine = None
            if cfg.num_nets == 2:
                plan, test_ds = restore_run(cfg, os.path.join(out_dir, "checkpoint_final.afdk"))
                cosine = feature_similarity(plan.nets[0], plan.nets[1], test_ds).cosine
            results[(method, seed)] = (accs, ens, cosine)
    return results


def test_criterion_6_directional_distillation_benefit(trained_runs):
    vanilla = np.mean([np.mean(trained_runs[("vanilla", s)][0]) for s in SEEDS])
    afd_avg = np.mean([np.mean(trained_runs[("afd", s)][0]) for s in SEEDS])
    afd_ens = np.mean([trained_runs[("afd", s)][1] for s in SEEDS])
    ok = afd_avg >= vanilla and afd_ens >= afd_avg
    report(6, ok, f"(vanilla {vanilla:.4f} <= afd avg {afd_avg:.4f} "
                  f"<= afd ens {afd_ens:.4f}, 3-seed means)")


def test_criterion_7_similarity_collapse(trained_runs):
    l1kd_cos = np.mean([trained_runs[("l1_kd", s)][2] for s in SEEDS])
    afd_cos = np.mean([trained_runs[("afd", s)][2] for s in SEEDS])
    ok = l1kd_cos > 0.9 and afd_cos < l1kd_cos - 0.1
    report(7, ok, f"(cosine l1_kd {l1kd_cos:.4f} > 0.9; afd {afd_cos:.4f} "
                  f"< l1_kd - 0.1, 3-seed means)")


# -- criterion 8: determinism and resume ----------------------------------------

def test_criterion_8_determinism_and_resume(tmp_path):
    kw = dict(epochs="4", per_class_train="24", per_class_test="12",
              batch_size="32", milestones_logit="2", milestones_adv="2")
    cfg_a = _plan_cfg(out_dir=str(tmp_path / "a"), **kw)
    cfg_b = _plan_cfg(out_dir=str(tmp_path / "b"), **kw)
    rows_a = run_experiment(cfg_a)
    run_experiment(cfg_b)
    identical = ((tmp_path / "a" / "metrics.csv").read_bytes()
                 == (tmp_path / "b" / "metrics.csv").read_bytes())

    cfg_r = _plan_cfg(out_dir=str(tmp_path / "r"), **kw)
    rows_r = run_experiment(cfg_r, resume_from=str(tmp_path / "a" / "checkpoint_ep2.afdk"))
    tail = [r for r in rows_a if r["epoch"] >= 3]
    resume_ok = len(tail) == len(rows_r)
    worst = 0.0
    for ra, rb in zip(tail, rows_r):
        for key in ("loss_ce", "loss_kl", "loss_g", "loss_d", "top1", "ens_top1"):
            va, vb = ra[key], rb[key]
            if va is None or vb is None:
                resume_ok = resume_ok and va == vb
            else:
                worst = max(worst, abs(va - vb))
    resume_ok = resume_ok and worst <= 1e-6
    report(8, identical and resume_ok,
           f"(identical CSV bytes; resume metric gap {worst:.2e} <= 1e-6)")


# -- criterion 9: file formats ---------------------------------------------------

def test_criterion_9_formats(tmp_path):
    import struct

    from peerkd.errors import FormatError

    def idx_pair(image_magic=0x00000803, label_count=None, truncate=0):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (4, 6, 6), dtype=np.uint8)
        labels = rng.integers(0, 3, 4, dtype=np.uint8)
        img = tmp_path / f"i{image_magic}_{label_count}_{truncate}.idx"
        lbl = tmp_path / f"l{image_magic}_{label_count}_{truncate}.idx"
        body = struct.pack(">IIII", image_magic, 4, 6, 6) + images.tobytes()
        if truncate:
            body = body[:-truncate]
        img.write_bytes(body)
        lbl.write_bytes(struct.pack(">II", 0x00000801,
                                    4 if label_count is None else label_count)
                        + labels.tobytes())
        return str(img), str(lbl)

    rejects = 0
    for kwargs in ({"image_magic": 0x12345678}, {"truncate": 9}, {"label_count": 99}):
        try:
            data.load_idx(*idx_pair(**kwargs))
        except FormatError:
            rejects += 1

    cfg = _plan_cfg(out_dir=str(tmp_path / "fmt"), epochs="1")
    run_experiment(cfg)
    plan = build_plan(cfg)
    entries = load_entries(tmp_path / "fmt" / "checkpoint_final.afdk")
    restore_plan(plan, entries)
    round_trip = all(
        plan.nets[i].params()[name].data.tobytes() == entries[f"net{i}/{name}"].tobytes()
        for i in range(2) for name in plan.nets[i].params())

    from peerkd.analysis import export_pgm
    pgm = tmp_path / "q.pgm"
    export_pgm(np.asarray([[0.0, 1.0], [0.5, 0.25]]), pgm)
    payload = pgm.read_bytes().split(b"\n", 3)[3]
    pgm_ok = list(payload) == [0, 255, 128, 64]

    report(9, rejects == 3 and round_trip and pgm_ok,
           "(3 malformed IDX rejected; checkpoint bit-exact; PGM bytes 0,255,128,64)")
