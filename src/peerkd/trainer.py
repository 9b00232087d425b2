"""Co-training orchestration.

Builds the peer topology (mutual for two networks, one-way cyclic for
three or more), runs the two-phase per-batch optimization, dispatches the
baseline methods, evaluates with average-softmax ensembling, and drives
full experiments with CSV metrics and binary checkpoints.

Per batch the full method runs one inference per network and two
optimizations: phase A steps every network synchronously on cross-entropy
plus the peer mimicry term, then phase B reuses the same feature maps to
step each edge's discriminator on the least-squares real/fake objective and
each extractor (plus transfer layer) on the fooling objective, under a
separate Adam with its own schedule. Every backward names the parameters
it trains, so no loss writes a gradient anywhere else. Every vjp uses the
values recorded with its op, so the fooling gradient is taken at the
parameters of the forward pass: before phase A's SGD step for the extractor
and before the discriminator's update in the same batch (see
``afd_adversarial_phase``).

The per-net passes of ``forward_all`` and every (batch, net) pass of
``evaluate`` run concurrently from one work queue that the calling thread
and the pool's workers share (``tensor._run_each``, which each conv's
backward also uses): numpy releases the GIL inside its GEMMs and large array
loops, and each pass's arithmetic is the same on any thread, so the results
keep their bytes.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import losses as L
from .blocks import build_discriminator, build_network, build_transfer_layer, eval_mode
from .checkpoint import load_entries, save_entries, write_atomic
from .data import (METHODS, Dataset, RunConfig, batches, channel_stats, load_splits,
                   sequential_batches, standardize)
from .errors import ConfigError, DataError, FormatError, NonFiniteError
from .optim import Adam, SGDMomentum, lr_at
from .tensor import Tensor, _run_each, backward, no_grad

CSV_HEADER = "epoch,net_id,split,loss_ce,loss_kl,loss_g,loss_d,top1,ens_top1,lr_logit,lr_adv"


def _child_seed(seed, *tags):
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


@dataclass
class StepRecord:
    """Per-network losses and training-batch accuracy for one step."""

    net_id: int
    loss_ce: float
    loss_kl: float | None = None
    loss_g: float | None = None
    loss_d: float | None = None
    top1: float | None = None


@dataclass
class DistillPlan:
    method: str
    nets: list
    edges: list  # directed (src, dst) pairs, 0-indexed
    discriminators: dict  # edge index -> Discriminator
    transfer_layers: dict  # edge index -> TransferLayer | IdentityTransfer
    temperature: float
    logit_opt: SGDMomentum
    adv_opt: Adam | None
    frozen: set  # indices of nets that take no step (the offline teacher)
    disc_param_names: dict  # edge index -> adv_opt names of its discriminator
    gen_param_names: dict  # edge index -> adv_opt names of its extractor and transfer layer

    def incoming(self, k: int):
        """(edge index, source net) of the edge into net ``k``, or None without
        edges; ``build_plan`` builds a ring, so a net has at most one."""
        return next(((e, src) for e, (src, dst) in enumerate(self.edges) if dst == k), None)

    def modules(self):
        """(entry prefix, module) for nets, then discriminators, then transfer layers."""
        yield from ((f"net{i}", net) for i, net in enumerate(self.nets))
        yield from ((f"disc{e}", d) for e, d in self.discriminators.items())
        yield from ((f"transfer{e}", t) for e, t in self.transfer_layers.items())


def _prefixed(prefix, params):
    return {f"{prefix}/{name}": p for name, p in params.items()}


def build_plan(config: RunConfig) -> DistillPlan:
    config.validate()
    archs = config.resolved_archs()
    k = len(archs)
    nets = [build_network(arch, config.num_classes, _child_seed(config.seed, 0, i))
            for i, arch in enumerate(archs)]
    edges = [] if k == 1 else [(i, (i + 1) % k) for i in range(k)]

    frozen = set()
    if config.method == "l1_kd_offline":
        frozen.add(1)
        _copy_checked(_module_state("net0", nets[1]), load_entries(config.teacher_checkpoint))
        nets[1].eval()

    adversarial = config.method == "afd" and config.adversarial
    aligns = METHODS[config.method][1]
    needs_transfer = adversarial or aligns
    discriminators, transfer_layers = {}, {}
    for e, (src, dst) in enumerate(edges):
        if adversarial:
            discriminators[e] = build_discriminator(
                nets[src].feature_channels, config.disc_width, _child_seed(config.seed, 1, e))
        if needs_transfer:
            transfer_layers[e] = build_transfer_layer(
                nets[dst].feature_channels, nets[src].feature_channels,
                _child_seed(config.seed, 2, e))

    logit_params = {}
    for i, net in enumerate(nets):
        if i in frozen:
            continue
        logit_params.update(_prefixed(f"net{i}", net.params()))
    if aligns:
        # alignment-path adapters train with the task loss
        for e, tr in transfer_layers.items():
            if edges[e][1] not in frozen:
                logit_params.update(_prefixed(f"transfer{e}", tr.params()))
    logit_opt = SGDMomentum(logit_params, config.lr_logit, config.momentum,
                            config.weight_decay_logit)

    adv_opt = None
    disc_param_names, gen_param_names = {}, {}
    if adversarial:
        adv_params = {}
        for i, net in enumerate(nets):
            adv_params.update(_prefixed(f"net{i}", net.extractor_params()))
        for e, (src, dst) in enumerate(edges):
            disc = _prefixed(f"disc{e}", discriminators[e].params())
            transfer = _prefixed(f"transfer{e}", transfer_layers[e].params())
            adv_params.update({**disc, **transfer})
            disc_param_names[e] = list(disc)
            gen_param_names[e] = (list(_prefixed(f"net{dst}", nets[dst].extractor_params()))
                                  + list(transfer))
        adv_opt = Adam(adv_params, config.lr_adv, weight_decay=config.weight_decay_adv)

    return DistillPlan(
        method=config.method, nets=nets, edges=edges,
        discriminators=discriminators, transfer_layers=transfer_layers,
        temperature=config.temperature, logit_opt=logit_opt, adv_opt=adv_opt,
        frozen=frozen, disc_param_names=disc_param_names, gen_param_names=gen_param_names,
    )


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is non-finite ({value}); aborting step")
    return value


def _batch_top1(logits: Tensor, y: np.ndarray) -> float:
    return float((logits.data.argmax(axis=1) == y).mean())


def forward_all(plan: DistillPlan, x: np.ndarray):
    """One inference per network, the networks concurrently (``_run_each``);
    features and logits come from the same pass. A frozen net records no graph."""
    xt = Tensor(x)

    def run(i):
        with no_grad() if i in plan.frozen else contextlib.nullcontext():
            return plan.nets[i].forward(xt)

    outs = _run_each(run, range(len(plan.nets)))
    return [f for f, _ in outs], [z for _, z in outs]


def _net_loss(plan: DistillPlan, k: int, y: np.ndarray, feats, logits, target):
    """Net ``k``'s logit loss: cross-entropy plus the method's mimicry and
    alignment terms (``data.METHODS``), with its StepRecord. ``target`` is the
    ensemble's softened distribution, used when the mimicry is ``ensemble``;
    the peer and alignment terms come from net ``k``'s incoming edge."""
    mimicry, align = METHODS[plan.method]
    ce = L.cross_entropy(y, logits[k])
    incoming = plan.incoming(k)
    rec = StepRecord(net_id=k, loss_ce=_finite(ce.item(), f"loss_ce[net{k}]"),
                     top1=_batch_top1(logits[k], y))
    loss = ce
    kl = None
    if mimicry == "ensemble":
        kl = L.kl_probs_mimicry(target, logits[k], plan.temperature)
    elif mimicry == "peer" and incoming:
        kl = L.kl_mimicry(logits[incoming[1]], logits[k], plan.temperature)
    if kl is not None:
        rec.loss_kl = _finite(kl.item(), f"loss_kl[net{k}]")
        loss = loss + kl
    if align and incoming:
        e, src = incoming
        loss = loss + L.l1_alignment(plan.transfer_layers[e].forward(feats[k]), feats[src])
    return loss, rec


def afd_logit_phase(plan: DistillPlan, y: np.ndarray, feats, logits):
    """Phase A: each trainable net's ``_net_loss``; one synchronous SGD step."""
    target = None
    if METHODS[plan.method][0] == "ensemble":
        target = np.mean([L.softmax_np(z.data, plan.temperature) for z in logits], axis=0)
    plan.logit_opt.zero_grad()
    records = []
    for k in range(len(plan.nets)):
        if k in plan.frozen:
            continue
        loss, rec = _net_loss(plan, k, y, feats, logits, target)
        backward(loss, plan.logit_opt.params.values())
        records.append(rec)
    plan.logit_opt.step()
    return records


def afd_adversarial_phase(plan: DistillPlan, feats, records):
    """Phase B: per edge, discriminator step then extractor+transfer step.

    Each backward names the parameters it trains: the discriminator loss
    goes to the discriminator alone (its features come detached), and the
    fooling loss to the extractor and transfer layer alone. The fooling
    gradient is pre-update throughout: its pass is recorded before the
    discriminator moves and its backward runs after the step, but every vjp
    (conv kernels, batch-norm gammas) uses the values saved at record time.
    So it is the gradient through the discriminator as it scored ``own``,
    and through the extractor as it was when it produced ``feats``, before
    phase A's SGD step. Each edge's losses go to ``records[dst]``: afd
    freezes no net, so record k is net k's.
    """
    opt = plan.adv_opt
    opt.zero_grad()
    for e, (src, dst) in enumerate(plan.edges):
        disc = plan.discriminators[e]
        transfer = plan.transfer_layers[e]
        own = transfer.forward(feats[dst])
        d_peer = disc.forward(feats[src].detach())
        d_own_detached = disc.forward(own.detach())
        d_own_live = disc.forward(own)

        d_loss = L.lsgan_d_loss(d_peer, d_own_detached)
        d_val = _finite(d_loss.item(), f"loss_d[edge{e}]")
        backward(d_loss, [opt.params[n] for n in plan.disc_param_names[e]])
        opt.step(plan.disc_param_names[e])

        g_loss = L.lsgan_g_loss(d_own_live)
        g_val = _finite(g_loss.item(), f"loss_g[edge{e}]")
        backward(g_loss, [opt.params[n] for n in plan.gen_param_names[e]])
        opt.step(plan.gen_param_names[e])

        records[dst].loss_d = d_val
        records[dst].loss_g = g_val


def _dml_step(plan, x, y):
    xt = Tensor(x)
    feats, logits = forward_all(plan, x)
    records = []
    for k in range(len(plan.nets)):
        if k > 0:
            # net k has not stepped yet, so this pass gives forward_all's logits again
            # (and updates its BN running stats a second time); _net_loss's target
            # is still each peer's pre-step logits[src], not DML's post-step peer
            _, logits[k] = plan.nets[k].forward(xt)
        loss, rec = _net_loss(plan, k, y, feats, logits, None)
        plan.logit_opt.zero_grad()
        backward(loss, plan.logit_opt.params.values())
        plan.logit_opt.step()
        records.append(rec)
    return records


def baseline_train_step(plan: DistillPlan, x: np.ndarray, y: np.ndarray):
    """``train_step`` for a plan without phase B (the baselines and afd with
    ``adversarial`` off); refuses a plan that has one."""
    if plan.adv_opt is not None:
        raise ConfigError(f"this {plan.method!r} plan has a phase B; use train_step")
    if plan.method == "dml":
        return _dml_step(plan, x, y)
    feats, logits = forward_all(plan, x)
    return afd_logit_phase(plan, y, feats, logits)


def train_step(plan: DistillPlan, x: np.ndarray, y: np.ndarray):
    """One batch step of ``plan``; returns one StepRecord per trained net.

    With a phase-B optimizer: one forward per net, phase A, then phase B on
    the same features. Every other plan takes ``baseline_train_step``.
    """
    if plan.adv_opt is None:
        return baseline_train_step(plan, x, y)
    feats, logits = forward_all(plan, x)
    records = afd_logit_phase(plan, y, feats, logits)
    afd_adversarial_phase(plan, feats, records)
    return records


def _eval_probs(net, x):
    with no_grad():
        _, z = net.forward(Tensor(x))
    return L.softmax_np(z.data, 1.0)


def evaluate(nets, dataset: Dataset, batch_size: int = 256):
    """Per-net top-1 and average-softmax ensemble top-1, in eval mode.

    Every (batch, net) softmax of the split goes on one work queue
    (``_run_each``), batch-major, so a fast net's thread takes the next batch
    instead of waiting for a slow one. Per batch the softmaxes are then summed
    in net order, so the ensemble sum has the bytes of a net-by-net loop.
    """
    if dataset.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    correct = np.zeros(len(nets), dtype=np.int64)
    ens_correct = 0
    with eval_mode(*nets):
        batches = list(sequential_batches(dataset, batch_size))
        pairs = [(net, x) for x, _ in batches for net in nets]
        probs = iter(_run_each(lambda pair: _eval_probs(*pair), pairs))
        for _, y in batches:
            prob_sum = None
            for i in range(len(nets)):
                p = next(probs)
                correct[i] += int((p.argmax(axis=1) == y).sum())
                prob_sum = p if prob_sum is None else prob_sum + p
            ens_correct += int(((prob_sum / len(nets)).argmax(axis=1) == y).sum())
    per_net = [float(c) / dataset.n for c in correct]
    return per_net, float(ens_correct) / dataset.n


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------


def _module_state(prefix, module):
    """A module's live parameter and buffer arrays, by checkpoint entry name."""
    return _prefixed(prefix, {**{name: p.data for name, p in module.params().items()},
                              **module.buffers()})


def _copy_checked(state, entries):
    """Copy each array of ``entries`` into the ``state`` array of the same
    name, once every name (``FormatError``) and shape (``ConfigError``) has
    been checked, so a refused checkpoint writes no ``state`` array."""
    for name, arr in state.items():
        if name not in entries:
            raise FormatError(f"checkpoint has no entry {name}")
        if entries[name].shape != arr.shape:
            raise ConfigError(
                f"checkpoint entry {name} has shape {entries[name].shape}, expected {arr.shape}")
    for name, arr in state.items():
        np.copyto(arr, entries[name])


def plan_state_entries(plan: DistillPlan, epoch: int, mean: np.ndarray, std: np.ndarray):
    """Every array a checkpoint of ``plan`` holds, by entry name: the live
    parameter, buffer and optimizer state arrays, then the epoch and the
    data standardization statistics."""
    entries = {}
    for prefix, module in plan.modules():
        entries.update(_module_state(prefix, module))
    entries.update(_prefixed("opt_logit", plan.logit_opt.state_arrays()))
    if plan.adv_opt is not None:
        entries.update(_prefixed("opt_adv", plan.adv_opt.state_arrays()))
    entries["meta/epoch"] = np.asarray([float(epoch)], dtype=np.float32)
    entries["data/mean"] = mean
    entries["data/std"] = std
    return entries


def restore_plan(plan: DistillPlan, entries: dict):
    """Load a checkpoint into ``plan``; returns the epoch it was saved at.

    ``plan_state_entries`` is the schema. The checkpoint must hold exactly
    the entries ``plan`` saves (``FormatError``), its counters (the epoch and
    the Adam step counts) must be whole numbers >= 0, its data
    standardization statistics finite with a std > 0 (``FormatError``), and
    each entry must have the shape of the array it names (``ConfigError``),
    optimizer state included. All of it is checked before anything is
    written, so a checkpoint from another method, topology or architecture,
    or with a counter or statistic no run could have saved, is refused with
    ``plan`` untouched. Each entry is then copied into its array in place,
    parameters included, so restore only between steps: a graph recorded
    before the restore would read the restored values.
    """
    stats = np.zeros(1, dtype=np.float32)  # per-channel; the nets read one channel
    state = plan_state_entries(plan, 0, stats, stats.copy())
    if state.keys() != entries.keys():
        name = next(n for n in [*state, *entries] if (n in state) != (n in entries))
        problem = "has no entry" if name in state else "has an extra entry"
        raise FormatError(f"checkpoint {problem} {name} for method {plan.method} "
                          f"with {len(plan.nets)} nets")
    for name, count in entries.items():
        if name == "meta/epoch" or (name.startswith("opt_adv/") and name.endswith("/t")):
            if not np.all(np.isfinite(count) & (count >= 0) & (count == np.floor(count))):
                raise FormatError(f"checkpoint entry {name} holds {count}, "
                                  "expected a whole number >= 0")
    mean, std = entries["data/mean"], entries["data/std"]
    for name, ok, expected in (("data/mean", np.isfinite(mean), "finite values"),
                               ("data/std", np.isfinite(std) & (std > 0), "finite values > 0")):
        if not np.all(ok):
            raise FormatError(f"checkpoint entry {name} holds {entries[name]}, "
                              f"expected {expected}")
    _copy_checked(state, entries)
    return int(state["meta/epoch"][0])


def restore_run(config: RunConfig, checkpoint):
    """The plan of ``config`` restored from the file ``checkpoint``
    (``restore_plan``), and ``config``'s test split standardized by the
    checkpoint's data statistics, in that order."""
    plan = build_plan(config)
    entries = load_entries(checkpoint)
    restore_plan(plan, entries)
    _, raw_test = load_splits(config)
    return plan, standardize(raw_test, entries["data/mean"], entries["data/std"])


def save_plan_checkpoint(plan, path, epoch, mean, std):
    save_entries(path, plan_state_entries(plan, epoch, mean, std))


# ---------------------------------------------------------------------------
# full experiment driver
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _fmt_lr(value) -> str:
    return f"{value:.8g}"


def _field_mean(records, name):
    """Mean of one StepRecord field over ``records``, summed left to right;
    None when no record carries it."""
    total, present = 0.0, False
    for rec in records:
        value = getattr(rec, name)
        if value is not None:
            total += value
            present = True
    return total / len(records) if present else None


def _rows_through(csv_path, epoch):
    """Data lines of an existing metrics.csv with an epoch <= ``epoch``."""
    if not os.path.exists(csv_path):
        return []
    with open(csv_path) as f:
        lines = f.readlines()[1:]
    epochs = [line.split(",", 1)[0] for line in lines]
    return [line for line, e in zip(lines, epochs) if e.isdigit() and int(e) <= epoch]


def _check_feature_maps(plan: DistillPlan, x: np.ndarray):
    """Refuse (``ShapeError``) a plan whose discriminators or L1 alignment
    cannot take its nets' feature maps, from one eval-mode, graph-free pass
    of ``x`` on the calling thread: no random draw, no running-stat update."""
    with eval_mode(*(module for _, module in plan.modules())), no_grad():
        feats = [net.extract(Tensor(x)) for net in plan.nets]
        for e, transfer in plan.transfer_layers.items():
            src, dst = plan.edges[e]
            own = transfer.forward(feats[dst])
            if e in plan.discriminators:
                plan.discriminators[e].forward(feats[src])
                plan.discriminators[e].forward(own)
            else:  # the transfer layer of an L1 alignment
                L.l1_alignment(own, feats[src])


def run_experiment(config: RunConfig, resume_from=None):
    """Train per config; returns the metric rows written to metrics.csv.

    Writes one train row per network per epoch (mean step losses, running
    train accuracy) and one test row per network per epoch (top-1 plus the
    shared ensemble top-1), preceded by an epoch-0 evaluation. Checkpoints
    land at each logit-phase milestone and at the end.
    """
    config.validate()
    raw_train, raw_test = load_splits(config)
    mean, std = channel_stats(raw_train)
    plan = build_plan(config)
    start_epoch = 0
    if resume_from is not None:
        entries = load_entries(resume_from)
        start_epoch = restore_plan(plan, entries)
        if start_epoch > config.epochs:
            raise ConfigError(f"{resume_from}: checkpoint is at epoch {start_epoch}, "
                              f"past epochs={config.epochs}")
        mean, std = entries["data/mean"], entries["data/std"]
    train_ds = standardize(raw_train, mean, std)
    test_ds = standardize(raw_test, mean, std)
    _check_feature_maps(plan, train_ds.images[:1])

    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "metrics.csv")
    # a resumed run keeps the rows written up to its checkpoint and rewrites the rest
    lines = [CSV_HEADER + "\n", *(_rows_through(csv_path, start_epoch) if start_epoch else [])]
    rows = []

    def lr_pair(epoch):
        lr_l = lr_at(epoch, config.lr_logit, config.milestones_logit, config.lr_factor)
        lr_a = lr_at(epoch, config.lr_adv, config.milestones_adv, config.lr_factor)
        return lr_l, lr_a

    def emit(*values):  # one value per CSV_HEADER column
        rows.append(dict(zip(CSV_HEADER.split(","), values)))
        cells = ([str(v) for v in values[:3]] + [_fmt(v) for v in values[3:9]]
                 + [_fmt_lr(v) for v in values[9:]])
        lines.append(",".join(cells) + "\n")

    def emit_eval(epoch):
        lr_l, lr_a = lr_pair(max(epoch - 1, 0))
        per_net, ens = evaluate(plan.nets, test_ds, config.batch_size)
        for k, acc in enumerate(per_net):
            emit(epoch, k, "test", None, None, None, None, acc, ens, lr_l, lr_a)

    def write_csv():  # whole epochs only, each on disk before its checkpoint
        write_atomic(csv_path, ["".join(lines).encode()])

    if start_epoch == 0:
        emit_eval(0)
    write_csv()

    for epoch in range(start_epoch, config.epochs):
        lr_l, lr_a = lr_pair(epoch)
        plan.logit_opt.lr = lr_l
        if plan.adv_opt is not None:
            plan.adv_opt.lr = lr_a
        by_net = {}
        for x, y in batches(train_ds, config.batch_size, config.seed, epoch):
            for rec in train_step(plan, x, y):
                by_net.setdefault(rec.net_id, []).append(rec)
        for k in sorted(by_net):
            means = [_field_mean(by_net[k], name)
                     for name in ("loss_ce", "loss_kl", "loss_g", "loss_d", "top1")]
            emit(epoch + 1, k, "train", *means, None, lr_l, lr_a)
        emit_eval(epoch + 1)
        write_csv()
        if (epoch + 1) in config.milestones_logit:
            save_plan_checkpoint(
                plan, os.path.join(config.out_dir, f"checkpoint_ep{epoch + 1}.afdk"),
                epoch + 1, mean, std)

    save_plan_checkpoint(plan, os.path.join(config.out_dir, "checkpoint_final.afdk"),
                         config.epochs, mean, std)
    return rows
