"""Topology, the two-phase step, baselines, evaluation, and experiments."""

import contextlib
import multiprocessing
import re
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import BAD_COUNTERS, MALFORMED_STATE, count_forwards
from peerkd import blocks, data, trainer
from peerkd import losses as L
from peerkd.checkpoint import load_entries
from peerkd.data import RunConfig, build_config
from peerkd.errors import ConfigError, FormatError
from peerkd.tensor import Tensor, no_grad
from peerkd.trainer import (afd_adversarial_phase, afd_logit_phase, baseline_train_step,
                            build_plan, evaluate, forward_all, run_experiment, train_step)


def tiny_cfg(**kw):
    base = dict(method="afd", archs="tiny-a,tiny-a", num_classes="3", epochs="2",
                batch_size="32", per_class_train="16", per_class_test="8",
                image_size="16", noise_std="0.35", seed="0",
                milestones_logit="1", milestones_adv="1")
    base.update({k: str(v) for k, v in kw.items()})
    return build_config(base)


def make_batch(cfg, n=16, seed=0):
    ds = data.synth_blobs(cfg.num_classes, max(1, n // cfg.num_classes + 1),
                          cfg.image_size, cfg.noise_std, seed)
    mean, std = data.channel_stats(ds)
    ds = data.standardize(ds, mean, std)
    return ds.images[:n], ds.labels[:n]


def snapshot(params):
    return {name: p.data.copy() for name, p in params.items()}


def same(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestBuildPlan:
    def test_cycle_of_three(self):
        plan = build_plan(tiny_cfg(archs="tiny-a", k=3))
        assert plan.edges == [(0, 1), (1, 2), (2, 0)]
        assert len(plan.discriminators) == 3

    def test_two_nets_mutual(self):
        plan = build_plan(tiny_cfg())
        assert set(plan.edges) == {(0, 1), (1, 0)}
        assert len(plan.discriminators) == 2
        assert all(not tr.params() for tr in plan.transfer_layers.values())

    def test_mixed_widths_get_transfer_layers(self):
        plan = build_plan(tiny_cfg(archs="tiny-a,tiny-b"))
        assert len(plan.transfer_layers) == 2
        assert all(tr.params() for tr in plan.transfer_layers.values())
        # edge (0, 1): own net1 (64ch) adapted to peer net0 width (32ch)
        e01 = plan.edges.index((0, 1))
        out = plan.transfer_layers[e01].forward(
            Tensor(np.zeros((1, 64, 4, 4), dtype=np.float32)))
        assert out.shape == (1, 32, 4, 4)

    def test_cycle_for_larger_k(self):
        for k in (3, 4, 6):
            plan = build_plan(tiny_cfg(archs="tiny-a", k=k))
            assert plan.edges == [(i, (i + 1) % k) for i in range(k)]
            assert len(plan.discriminators) == k
            assert k < 2 * (k * (k - 1) // 2)  # fewer scorers than all-pairs

    def test_peer_methods_need_two_nets(self):
        for method in ("afd", "dml", "kd_ensemble"):
            with pytest.raises(ConfigError):
                build_plan(tiny_cfg(method=method, archs="tiny-a"))

    def test_vanilla_single_net(self):
        plan = build_plan(tiny_cfg(method="vanilla", archs="tiny-a"))
        assert plan.edges == []
        assert plan.adv_opt is None


class TestAfdStep:
    def test_identical_nets_zero_kl_on_first_step(self):
        cfg = tiny_cfg()
        plan = build_plan(cfg)
        for (_, p0), (_, p1) in zip(sorted(plan.nets[0].params().items()),
                                    sorted(plan.nets[1].params().items())):
            p1.data = p0.data.copy()
        x, y = make_batch(cfg)
        feats, logits = forward_all(plan, x)
        records = afd_logit_phase(plan, y, feats, logits)
        assert all(abs(r.loss_kl) <= 1e-8 for r in records)

    def test_step_changes_parameters(self):
        cfg = tiny_cfg()
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        before = snapshot(plan.nets[0].params())
        records = train_step(plan, x, y)
        assert records[0].loss_ce > 0
        assert not same(before, snapshot(plan.nets[0].params()))

    def test_phase_isolation(self):
        cfg = tiny_cfg()
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        disc_before = snapshot(plan.discriminators[0].params())
        feats, logits = forward_all(plan, x)
        records = afd_logit_phase(plan, y, feats, logits)
        # phase A: discriminators and the adversarial Adam are untouched
        assert same(disc_before, snapshot(plan.discriminators[0].params()))
        assert all(t == 0 for t in plan.adv_opt.t.values())
        heads = {k: snapshot(net.head.params()) for k, net in enumerate(plan.nets)}
        exts = {k: snapshot(net.extractor_params()) for k, net in enumerate(plan.nets)}
        afd_adversarial_phase(plan, feats, records)
        # phase B: heads bitwise unchanged, extractors and discriminators moved
        for k, net in enumerate(plan.nets):
            assert same(heads[k], snapshot(net.head.params()))
            assert not same(exts[k], snapshot(net.extractor_params()))
        assert not same(disc_before, snapshot(plan.discriminators[0].params()))

    @pytest.mark.parametrize("skipped", ["disc_step", "sgd_step"])
    def test_fooling_gradient_is_taken_before_every_update(self, skipped):
        """Phase B's generator gradients are the same bytes when D's Adam step
        or phase A's SGD step does nothing: the fooling backward sees the
        discriminator and the extractor as the forward pass recorded them."""
        cfg = tiny_cfg(archs="tiny-a,tiny-b")
        x, y = make_batch(cfg)
        grads = []
        for skip in (False, True):
            plan = build_plan(cfg)
            if skip and skipped == "disc_step":
                disc = {n for names in plan.disc_param_names.values() for n in names}
                step = plan.adv_opt.step
                plan.adv_opt.step = lambda names: step([n for n in names if n not in disc])
            elif skip:
                plan.logit_opt.step = lambda: None
            feats, logits = forward_all(plan, x)
            records = afd_logit_phase(plan, y, feats, logits)
            afd_adversarial_phase(plan, feats, records)
            grads.append({name: plan.adv_opt.params[name].grad.tobytes()
                          for names in plan.gen_param_names.values() for name in names})
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("archs,k", [("tiny-a,tiny-b", 2), ("tiny-a", 3)])
    def test_each_adam_step_uses_the_only_gradient_written(self, archs, k):
        """Phase B's discriminator and fooling backwards write disjoint
        parameters: every ``.grad`` left after the step is the one its Adam
        step used, so no later backward of the phase added to it."""
        cfg = tiny_cfg(archs=archs, k=k)
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        used = {}
        step = plan.adv_opt.step

        def recording_step(names):
            used.update({n: plan.adv_opt.params[n].grad for n in names})
            step(names)

        plan.adv_opt.step = recording_step
        train_step(plan, x, y)
        assert used.keys() == plan.adv_opt.params.keys()
        for name, p in plan.adv_opt.params.items():
            assert p.grad is used[name] is not None

    @pytest.mark.parametrize("archs,k", [("tiny-a,tiny-b", 2), ("tiny-a", 3)])
    def test_step_writes_grads_on_parameters_only(self, monkeypatch, archs, k):
        """Features, transfer outputs, discriminator scores and losses keep
        ``.grad is None`` through a whole step; only optimizer parameters get one."""
        cfg = tiny_cfg(archs=archs, k=k)
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        made = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        train_step(plan, x, y)
        recorded = [t for t in made if t._vjp is not None]
        ops = {t._op for t in recorded}
        assert {"conv2d", "sigmoid", "mean", "softened_kl"} <= ops
        assert all(t.grad is None for t in made)
        for opt in (plan.logit_opt, plan.adv_opt):
            assert any(p.grad is not None for p in opt.params.values())

    def test_one_forward_per_net_per_batch(self):
        cfg = tiny_cfg()
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        with count_forwards() as calls:
            train_step(plan, x, y)
        assert [calls[net] for net in plan.nets] == [1, 1]

    def test_records_carry_all_losses(self):
        cfg = tiny_cfg()
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        records = train_step(plan, x, y)
        for r in records:
            assert r.loss_ce is not None and r.loss_kl is not None
            assert r.loss_g is not None and r.loss_d is not None
            for v in (r.loss_ce, r.loss_kl, r.loss_g, r.loss_d):
                assert np.isfinite(v)


class TestBaselines:
    def test_logit_only_afd_takes_the_baseline_step(self):
        """afd with ``adversarial`` off builds no Adam, and
        ``baseline_train_step`` takes the same step on it as ``train_step``."""
        cfg = tiny_cfg(adversarial="off")
        x, y = make_batch(cfg)
        plans = [build_plan(cfg), build_plan(cfg)]
        assert all(plan.adv_opt is None and not plan.discriminators for plan in plans)
        assert baseline_train_step(plans[0], x, y) == train_step(plans[1], x, y)
        assert _state_bytes(plans[0]) == _state_bytes(plans[1])

    def test_baseline_step_refuses_a_phase_b_plan(self):
        cfg = tiny_cfg()
        plan = build_plan(cfg)
        before = _state_bytes(plan)
        with pytest.raises(ConfigError, match="phase B"):
            baseline_train_step(plan, *make_batch(cfg))
        assert _state_bytes(plan) == before

    def test_dml_forward_counts(self):
        cfg = tiny_cfg(method="dml")
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        with count_forwards() as calls:
            train_step(plan, x, y)
        assert [calls[net] for net in plan.nets] == [1, 2]

    def test_dml_asynchronous_updates(self):
        cfg = tiny_cfg(method="dml")
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        before1 = snapshot(plan.nets[1].params())
        records = train_step(plan, x, y)
        assert len(records) == 2
        assert not same(before1, snapshot(plan.nets[1].params()))

    def test_kd_ensemble_identical_nets_zero_kl(self):
        cfg = tiny_cfg(method="kd_ensemble", archs="tiny-a", k=3)
        plan = build_plan(cfg)
        for net in plan.nets[1:]:
            for (_, p0), (_, p) in zip(sorted(plan.nets[0].params().items()),
                                       sorted(net.params().items())):
                p.data = p0.data.copy()
        x, y = make_batch(cfg)
        records = train_step(plan, x, y)
        # the mixture equals each member; only log-path roundoff remains
        assert all(abs(r.loss_kl) <= 1e-6 for r in records)

    def test_vanilla_peaked_logits_near_zero_delta(self):
        cfg = tiny_cfg(method="vanilla", archs="tiny-a", weight_decay_logit=0.0)
        plan = build_plan(cfg)
        net = plan.nets[0]
        net.head.weight.data = np.zeros_like(net.head.weight.data)
        bias = np.full(cfg.num_classes, -60.0, dtype=np.float32)
        bias[0] = 60.0
        net.head.bias.data = bias
        x, _ = make_batch(cfg)
        y = np.zeros(len(x), dtype=np.int64)  # peaked on the true class
        before = snapshot(net.params())
        train_step(plan, x, y)
        after = snapshot(net.params())
        worst = max(np.abs(after[k] - before[k]).max() for k in before)
        assert worst < 1e-6

    def test_l1_step_runs_and_aligns_shapes(self):
        cfg = tiny_cfg(method="l1", archs="tiny-a,tiny-b")
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        records = train_step(plan, x, y)
        assert all(np.isfinite(r.loss_ce) for r in records)

    def test_l1_kd_has_kl_term(self):
        cfg = tiny_cfg(method="l1_kd")
        plan = build_plan(cfg)
        x, y = make_batch(cfg)
        records = train_step(plan, x, y)
        assert all(r.loss_kl is not None for r in records)

    def test_offline_teacher_frozen(self, tmp_path):
        teacher_cfg = tiny_cfg(method="vanilla", archs="tiny-a", epochs=1,
                               out_dir=str(tmp_path / "teacher"))
        run_experiment(teacher_cfg)
        cfg = tiny_cfg(method="l1_kd_offline",
                       teacher_checkpoint=str(tmp_path / "teacher" / "checkpoint_final.afdk"),
                       out_dir=str(tmp_path / "student"))
        plan = build_plan(cfg)
        assert plan.frozen == {1}
        assert not plan.nets[1].training  # teacher in eval mode
        x, y = make_batch(cfg)
        before = snapshot(plan.nets[1].params())
        records = train_step(plan, x, y)
        assert same(before, snapshot(plan.nets[1].params()))
        assert [r.net_id for r in records] == [0]


class _FixedLogitNet:
    """Evaluation stub emitting constant logits."""

    def __init__(self, logit_row):
        self.row = np.asarray(logit_row, dtype=np.float32)
        self.training = False

    def eval(self):
        self.training = False
        return self

    def train(self):
        self.training = True
        return self

    def forward(self, x):
        b = x.shape[0]
        return None, Tensor(np.tile(self.row, (b, 1)))


class TestEvaluate:
    def _dataset(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        images = np.zeros((len(labels), 1, 4, 4), dtype=np.float32)
        return data.Dataset(images, labels, "test")

    def test_copies_match_single_net(self):
        cfg = tiny_cfg()
        net = build_plan(cfg).nets[0]
        ds = data.standardize(data.synth_blobs(3, 8, 16, 0.3, 5), *data.channel_stats(
            data.synth_blobs(3, 8, 16, 0.3, 5)))
        per_net, ens = evaluate([net, net], ds)
        assert per_net[0] == per_net[1] == ens

    def test_confident_net_dominates_ensemble(self):
        # net A: always class 0 with probability ~1; net B: class 1 with 0.6
        net_a = _FixedLogitNet([40.0, 0.0])
        net_b = _FixedLogitNet([np.log(0.4), np.log(0.6)])
        ds = self._dataset([0, 0, 0, 0])
        per_net, ens = evaluate([net_a, net_b], ds)
        assert per_net == [1.0, 0.0]
        assert ens == 1.0  # mean probs ~[0.7, 0.3] follow the confident net

    def test_perfect_classifier_hits_100(self):
        net = _FixedLogitNet([10.0, 0.0])
        per_net, ens = evaluate([net], self._dataset([0, 0, 0]))
        assert per_net == [1.0] and ens == 1.0

    def test_tie_breaks_toward_lowest_class(self):
        net = _FixedLogitNet([1.0, 1.0])
        per_net, _ = evaluate([net], self._dataset([0, 1]))
        assert per_net == [0.5]  # both predicted as class 0

    def test_modes_restored_when_forward_raises(self):
        steady = _FixedLogitNet([1.0, 0.0]).train()
        failing = _FailingLogitNet([1.0, 0.0]).train()
        with pytest.raises(RuntimeError, match="second batch"):
            evaluate([steady, failing], self._dataset([0, 0, 1, 1]), batch_size=2)
        assert steady.training and failing.training


class _FailingLogitNet(_FixedLogitNet):
    """Evaluation stub whose forward raises on its second call."""

    calls = 0

    def forward(self, x):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("second batch")
        return super().forward(x)


class _TimedNet(_FixedLogitNet):
    """Stub whose forward sleeps ``delay`` seconds, then raises ``error`` if
    one is given; ``finished`` is set when a forward has returned or raised."""

    def __init__(self, delay, error=None):
        super().__init__([1.0, 0.0])
        self.delay, self.error, self.finished = delay, error, False
        self.threads = []  # the thread of each forward

    def forward(self, x):
        self.threads.append(threading.get_ident())
        try:
            time.sleep(self.delay)
            if self.error:
                raise RuntimeError(self.error)
            return super().forward(x)
        finally:
            self.finished = True


def _offline_cfg(tmp_path):
    """An l1_kd_offline config whose teacher is net 0 of an untrained vanilla plan."""
    teacher = tmp_path / "teacher.afdk"
    stats = np.zeros(1, dtype=np.float32)
    trainer.save_plan_checkpoint(build_plan(tiny_cfg(method="vanilla", archs="tiny-a")),
                                 teacher, 0, stats, stats + 1)
    return tiny_cfg(method="l1_kd_offline", teacher_checkpoint=str(teacher))


def _sequential_forward(plan, x):
    """``forward_all`` as a net-by-net loop on the calling thread."""
    xt = Tensor(x)
    outs = []
    for i, net in enumerate(plan.nets):
        with no_grad() if i in plan.frozen else contextlib.nullcontext():
            outs.append(net.forward(xt))
    return [f for f, _ in outs], [z for _, z in outs]


def _sequential_evaluate(nets, dataset, batch_size):
    """``evaluate`` as a net-by-net loop on the calling thread."""
    correct, ens_correct = [0] * len(nets), 0
    with blocks.eval_mode(*nets), no_grad():
        for x, y in data.sequential_batches(dataset, batch_size):
            prob_sum = None
            for i, net in enumerate(nets):
                probs = L.softmax_np(net.forward(Tensor(x))[1].data, 1.0)
                correct[i] += int((probs.argmax(axis=1) == y).sum())
                prob_sum = probs if prob_sum is None else prob_sum + probs
            ens_correct += int(((prob_sum / len(nets)).argmax(axis=1) == y).sum())
    return [c / dataset.n for c in correct], ens_correct / dataset.n


class TestConcurrentPeers:
    """``forward_all`` and ``evaluate`` run the nets concurrently, on any
    number of usable CPUs, and give the bytes of a net-by-net loop."""

    @staticmethod
    def _run(runner, nets):
        x = np.zeros((4, 1, 4, 4), dtype=np.float32)
        if runner == "forward_all":
            return forward_all(SimpleNamespace(nets=nets, frozen=set()), x)
        return evaluate(nets, data.Dataset(x, np.zeros(4, dtype=np.int64), "test"))

    @staticmethod
    def _test_split():  # 21 images
        raw = data.synth_blobs(3, 7, 16, 0.35, 4)
        return data.standardize(raw, *data.channel_stats(raw))

    @pytest.mark.parametrize("runner", ["forward_all", "evaluate"])
    def test_a_failure_is_raised_after_every_net_finished(self, runner):
        for nets in ([_TimedNet(0.0, "net0 failed"), _TimedNet(0.3)],
                     [_TimedNet(0.3), _TimedNet(0.0, "net1 failed")]):
            with pytest.raises(RuntimeError, match="failed"):
                self._run(runner, nets)
            assert all(net.finished for net in nets)

    @pytest.mark.parametrize("runner", ["forward_all", "evaluate"])
    @pytest.mark.parametrize("delays", [(0.0, 0.3, 0.0), (0.3, 0.0, 0.0)])
    def test_two_failures_raise_the_first_in_net_order(self, runner, delays):
        nets = [_TimedNet(delays[0]), _TimedNet(delays[1], "net1 failed"),
                _TimedNet(delays[2], "net2 failed")]
        with pytest.raises(RuntimeError, match="net1 failed"):
            self._run(runner, nets)
        assert all(net.finished for net in nets)

    def test_a_slow_nets_batches_are_shared_between_threads(self):
        """The fast net's thread takes the slow net's next batch instead of
        waiting for it."""
        slow, fast = _TimedNet(0.05), _TimedNet(0.0)
        x = np.zeros((6, 1, 4, 4), dtype=np.float32)
        evaluate([slow, fast], data.Dataset(x, np.zeros(6, dtype=np.int64), "test"), 1)
        assert len(slow.threads) == 6 and len(set(slow.threads)) >= 2

    @pytest.mark.parametrize("case", ["afd_k3", "afd_mixed", "l1_kd_offline"])
    def test_same_bytes_as_a_net_by_net_loop(self, tmp_path, case):
        """``afd_mixed``'s unequal nets change which thread takes which item."""
        cfg = {"afd_k3": lambda: tiny_cfg(archs="tiny-a", k=3),
               "afd_mixed": lambda: tiny_cfg(archs="tiny-a,tiny-b"),
               "l1_kd_offline": lambda: _offline_cfg(tmp_path)}[case]()
        x, _ = make_batch(cfg)
        plans = [build_plan(cfg), build_plan(cfg)]
        outs = [forward_all(plans[0], x), _sequential_forward(plans[1], x)]
        for got, want in zip(*outs):
            assert [t.data.tobytes() for t in got] == [t.data.tobytes() for t in want]
        # the BN running statistics of the training nets moved the same way
        assert _state_bytes(plans[0]) == _state_bytes(plans[1])
        feats, logits = outs[0]
        for k in range(len(plans[0].nets)):
            recorded = k not in plans[0].frozen
            assert feats[k].requires_grad == logits[k].requires_grad == recorded
        ds = self._test_split()
        assert evaluate(plans[0].nets, ds, 8) == _sequential_evaluate(plans[1].nets, ds, 8)

    def test_a_forked_child_runs_the_peers(self):
        """The child runs the peers' forward passes and the conv backwards
        that the pool serves, after the parent's pool has started."""
        plan = build_plan(tiny_cfg())
        x, y = make_batch(tiny_cfg())
        train_step(plan, x, y)  # the pool's worker threads now exist, in this process only
        child = multiprocessing.get_context("fork").Process(target=train_step, args=(plan, x, y))
        child.start()
        child.join(60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    def test_forward_counts_are_seen_from_every_thread(self):
        """Three nets, and threads switched as often as the interpreter
        allows: a lost count update would show."""
        plan = build_plan(tiny_cfg(archs="tiny-a", k=3))
        x, _ = make_batch(tiny_cfg())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with count_forwards() as calls:
                forward_all(plan, x)
            assert [calls[net] for net in plan.nets] == [1, 1, 1]
            with count_forwards() as calls:
                evaluate(plan.nets, self._test_split(), 1)
        finally:
            sys.setswitchinterval(interval)
        assert [calls[net] for net in plan.nets] == [21, 21, 21]


class TestRunExperiment:
    def test_feature_map_check_leaves_the_plan_as_it_was(self):
        cfg = tiny_cfg(archs="tiny-a,tiny-b")
        plan = build_plan(cfg)
        stats = np.zeros(1, dtype=np.float32)
        before = {n: a.copy() for n, a in trainer.plan_state_entries(plan, 0, stats, stats).items()}
        trainer._check_feature_maps(plan, make_batch(cfg, n=1)[0])
        after = trainer.plan_state_entries(plan, 0, stats, stats)
        assert same(before, after)
        assert all(module.training for _, module in plan.modules())

    def test_identical_seed_identical_csv_bytes(self, tmp_path):
        cfg_a = tiny_cfg(out_dir=str(tmp_path / "a"))
        cfg_b = tiny_cfg(out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_zero_epoch_vanilla_csv(self, tmp_path):
        cfg = tiny_cfg(method="vanilla", archs="tiny-a", epochs=0,
                       out_dir=str(tmp_path / "v"))
        run_experiment(cfg)
        lines = (tmp_path / "v" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == trainer.CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("0,0,test,")

    def test_kd_only_ablation_matches_zero_adv_lr(self, tmp_path):
        cfg_zero = tiny_cfg(lr_adv=0.0, out_dir=str(tmp_path / "zero"))
        cfg_off = tiny_cfg(adversarial="off", out_dir=str(tmp_path / "off"))
        run_experiment(cfg_zero)
        run_experiment(cfg_off)

        def core_columns(path):
            rows = []
            for line in path.read_text().strip().splitlines()[1:]:
                f = line.split(",")
                rows.append((f[0], f[1], f[2], f[3], f[4], f[7], f[8]))
            return rows

        assert core_columns(tmp_path / "zero" / "metrics.csv") == \
               core_columns(tmp_path / "off" / "metrics.csv")
        # network parameters themselves match bitwise
        za = load_entries(tmp_path / "zero" / "checkpoint_final.afdk")
        zb = load_entries(tmp_path / "off" / "checkpoint_final.afdk")
        for name in za:
            if name.startswith("net"):
                assert np.array_equal(za[name], zb[name]), name

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg_full = tiny_cfg(epochs=3, milestones_logit="1",
                            out_dir=str(tmp_path / "full"))
        rows_full = run_experiment(cfg_full)
        cfg_resume = tiny_cfg(epochs=3, milestones_logit="1",
                              out_dir=str(tmp_path / "resumed"))
        rows_resumed = run_experiment(
            cfg_resume, resume_from=str(tmp_path / "full" / "checkpoint_ep1.afdk"))
        tail_full = [r for r in rows_full if r["epoch"] >= 2]
        assert len(rows_resumed) == len(tail_full)
        for a, b in zip(tail_full, rows_resumed):
            for key in ("epoch", "net_id", "split"):
                assert a[key] == b[key]
            for key in ("loss_ce", "loss_kl", "loss_g", "loss_d", "top1", "ens_top1"):
                va, vb = a[key], b[key]
                if va is None or vb is None:
                    assert va == vb
                else:
                    assert abs(va - vb) <= 1e-6

    def test_resume_into_same_dir_rewrites_later_rows(self, tmp_path):
        cfg = tiny_cfg(epochs=4, milestones_logit="2", out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        run_experiment(cfg, resume_from=str(tmp_path / "run" / "checkpoint_ep2.afdk"))
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == trainer.CSV_HEADER
        keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert len(keys) == 18  # epoch-0 test rows, then a train and test row per net per epoch
        assert len(set(keys)) == len(keys)

    def test_resume_past_epochs_refused_before_any_write(self, tmp_path):
        cfg = tiny_cfg(method="vanilla", archs="tiny-a", out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        written = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
        cfg.epochs = 1
        with pytest.raises(ConfigError, match="epoch 2"):
            run_experiment(cfg, resume_from=str(tmp_path / "run" / "checkpoint_final.afdk"))
        assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == written

    def test_rows_on_disk_before_milestone_checkpoint(self, tmp_path, monkeypatch):
        csv_lines = {}
        save = trainer.save_plan_checkpoint

        def spy(plan, path, epoch, mean, std):
            csv_lines[epoch] = (tmp_path / "m" / "metrics.csv").read_text().count("\n")
            save(plan, path, epoch, mean, std)

        monkeypatch.setattr(trainer, "save_plan_checkpoint", spy)
        run_experiment(tiny_cfg(epochs=2, milestones_logit="1", out_dir=str(tmp_path / "m")))
        assert csv_lines[1] == 1 + 2 + 4  # header, epoch-0 test rows, epoch-1 train and test rows

    def test_failed_epoch_leaves_only_whole_epochs_on_disk(self, tmp_path, monkeypatch):
        full = tmp_path / "full"
        run_experiment(tiny_cfg(epochs=1, out_dir=str(full)))
        calls = []

        def failing_evaluate(*args):
            calls.append(1)
            if len(calls) == 3:  # epoch 2's evaluation, after its training
                raise RuntimeError("evaluation failed")
            return evaluate(*args)

        monkeypatch.setattr(trainer, "evaluate", failing_evaluate)
        cut = tmp_path / "cut"
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run_experiment(tiny_cfg(epochs=3, out_dir=str(cut)))
        # header, epoch-0 test rows, epoch-1 train and test rows: a 1-epoch run's file
        assert (cut / "metrics.csv").read_bytes() == (full / "metrics.csv").read_bytes()
        assert not (cut / "metrics.csv.tmp").exists()

    def test_milestone_checkpoint_written(self, tmp_path):
        cfg = tiny_cfg(epochs=2, milestones_logit="1", out_dir=str(tmp_path / "m"))
        run_experiment(cfg)
        assert (tmp_path / "m" / "checkpoint_ep1.afdk").exists()
        assert (tmp_path / "m" / "checkpoint_final.afdk").exists()

    def test_checkpoint_round_trip_restores_parameters(self, tmp_path):
        cfg = tiny_cfg(epochs=1, out_dir=str(tmp_path / "ck"))
        run_experiment(cfg)
        plan = build_plan(cfg)
        entries = load_entries(tmp_path / "ck" / "checkpoint_final.afdk")
        trainer.restore_plan(plan, entries)
        for i, net in enumerate(plan.nets):
            for name, p in net.params().items():
                assert p.data.tobytes() == entries[f"net{i}/{name}"].tobytes()

    def test_losses_stay_finite_over_many_steps(self):
        cfg = tiny_cfg(per_class_train=32, epochs=0)
        plan = build_plan(cfg)
        ds = data.synth_blobs(cfg.num_classes, 32, cfg.image_size, cfg.noise_std, 0)
        mean, std = data.channel_stats(ds)
        ds = data.standardize(ds, mean, std)
        steps = 0
        for epoch in range(14):
            for x, y in data.batches(ds, 32, cfg.seed, epoch):
                for r in train_step(plan, x, y):
                    assert np.isfinite([r.loss_ce, r.loss_kl, r.loss_g, r.loss_d]).all()
                steps += 1
        assert steps >= 40



def _state(plan, epoch=1):
    """Every checkpoint entry of ``plan``, with unit standardization stats."""
    stats = np.zeros(1, dtype=np.float32)
    return trainer.plan_state_entries(plan, epoch, stats, stats + 1)


def _state_bytes(plan):
    return {name: arr.tobytes() for name, arr in _state(plan).items()}


def _trained_entries(cfg):
    """A copy of every checkpoint entry of ``cfg``'s plan after one AFD step."""
    plan = build_plan(cfg)
    train_step(plan, *make_batch(cfg))
    return {name: arr.copy() for name, arr in _state(plan).items()}


def _assert_refused_untouched(plan, entries, error=ConfigError, match="has shape"):
    before = _state_bytes(plan)
    with pytest.raises(error, match=match):
        trainer.restore_plan(plan, entries)
    assert _state_bytes(plan) == before


@pytest.mark.parametrize("name,shape", MALFORMED_STATE)
def test_restore_refuses_malformed_state_before_any_write(name, shape):
    cfg = tiny_cfg()
    entries = _trained_entries(cfg)
    entries[name] = np.zeros(shape, dtype=np.float32)
    _assert_refused_untouched(build_plan(cfg), entries)


@pytest.mark.parametrize("name,value", BAD_COUNTERS)
def test_restore_refuses_bad_counter_before_any_write(name, value):
    cfg = tiny_cfg()
    entries = _trained_entries(cfg)
    entries[name] = np.full_like(entries[name], value)
    _assert_refused_untouched(build_plan(cfg), entries, FormatError,
                              f"entry {re.escape(name)} holds")


def test_restore_refuses_other_disc_width_before_any_write():
    entries = _trained_entries(tiny_cfg(disc_width=8))
    plan = build_plan(tiny_cfg())
    assert _state_bytes(plan)["net0/ext0.weight"] != entries["net0/ext0.weight"].tobytes()
    _assert_refused_untouched(plan, entries)


def test_restore_copies_every_entry():
    cfg = tiny_cfg()
    entries = _trained_entries(cfg)
    plan = build_plan(cfg)
    assert trainer.restore_plan(plan, entries) == 1
    assert _state_bytes(plan) == {name: arr.tobytes() for name, arr in entries.items()}
