"""Span tracing for the benchmark's traced run, installed from outside the package.

Wrappers replace public functions and methods of ``peerkd`` by module or
class attribute, so the package itself carries no tracing code. A wrapper
only times and counts around the original call and passes its arguments and
result through unchanged, which is why the traced run's losses must be
bit-identical to the untraced run's.

Spans live in memory as ``[name, start, end, parent, step]`` lists and are
written out once, at the end of the run. ``step`` is the training-step
index for spans under a step, or a phase label (``setup``, ``quality``,
``eval``, ``checkpoint``) for the rest.
"""

from __future__ import annotations

import collections
import functools
import json
import time

from peerkd import blocks, checkpoint, data, losses, optim, tensor, trainer

LAYER_MODULES = (tensor, blocks, losses, optim, trainer, data, checkpoint)

# (module, function name, span name). Each function is patched in every
# layer module that holds a reference to it, so both ``T.conv2d`` and a
# ``from .tensor import backward`` binding are traced.
FUNCTIONS = [
    (tensor, "backward", "tensor.backward"),
    (tensor, "topo_order", "tensor.topo_order"),
    (tensor, "conv2d", "tensor.conv2d"),
    (tensor, "batch_norm", "tensor.batch_norm"),
    (tensor, "leaky_relu", "tensor.leaky_relu"),
    (tensor, "avg_pool2d", "tensor.avg_pool2d"),
    (tensor, "global_avg_pool", "tensor.global_avg_pool"),
    (tensor, "linear", "tensor.linear"),
    (tensor, "sigmoid", "tensor.sigmoid"),
    (tensor, "row_log_softmax", "tensor.row_log_softmax"),
    (losses, "cross_entropy", "losses.cross_entropy"),
    (losses, "kl_mimicry", "losses.kl_mimicry"),
    (losses, "lsgan_d_loss", "losses.lsgan_d_loss"),
    (losses, "lsgan_g_loss", "losses.lsgan_g_loss"),
    (trainer, "train_step", "trainer.train_step"),
    (trainer, "forward_all", "trainer.forward_all"),
    (trainer, "afd_logit_phase", "trainer.phase_a"),
    (trainer, "afd_adversarial_phase", "trainer.phase_b"),
    (trainer, "baseline_train_step", "trainer.baseline_step"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "build_plan", "trainer.build_plan"),
    (trainer, "save_plan_checkpoint", "checkpoint.save"),
    (trainer, "restore_plan", "checkpoint.restore"),
    (checkpoint, "load_entries", "checkpoint.load"),
    (data, "synth_blobs", "data.synth"),
    (data, "channel_stats", "data.channel_stats"),
    (data, "standardize", "data.standardize"),
]

METHODS = [
    (blocks.Network, "forward", "blocks.net_forward"),
    (blocks.Discriminator, "forward", "blocks.disc_forward"),
    (blocks.TransferLayer, "forward", "blocks.transfer_forward"),
    (optim.SGDMomentum, "step", "optim.sgd_step"),
    (optim.Adam, "step", "optim.adam_step"),
]


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.step = "setup"
        self.counters = collections.Counter()  # (name, step) -> count, training steps only
        self.errors = collections.Counter()  # "span name:exception type" -> count
        # optim.grad_use_ratio: _pending[k] counts the backward writes into the
        # .grad of _params[k] since an optimizer step last consumed it
        self._params = []
        self._index = {}
        self._pending = []

    def track_params(self, plan):
        """Watch the ``.grad`` of every parameter some optimizer of ``plan`` steps."""
        seen = {}
        opts = [plan.logit_opt] + ([plan.adv_opt] if plan.adv_opt is not None else [])
        for opt in opts:
            for p in opt.params.values():
                seen.setdefault(id(p), p)
        self._params = list(seen.values())
        self._index = {id(p): k for k, p in enumerate(self._params)}
        self._pending = [0] * len(self._params)

    def _count(self, name, value=1):
        if isinstance(self.step, int):
            self.counters[(name, self.step)] += value

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        span = [name, time.perf_counter(), None, parent, self.step]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.errors[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    # -- wrappers with counters beyond the span itself; each takes (fn, args, kwargs) --

    def _backward(self, fn, args, kwargs):
        before = [p.grad for p in self._params]
        self.call("tensor.backward", fn, args, kwargs)
        for k, p in enumerate(self._params):
            if p.grad is not None and p.grad is not before[k]:
                if before[k] is None:
                    self._pending[k] = 0  # earlier writes were cleared unused
                self._pending[k] += 1
                self._count("optim.grads_written")

    def _optimizer_step(self, name, fn, args, kwargs):
        opt = args[0]
        names = args[1] if len(args) > 1 else kwargs.get("names")
        stepped = opt.params.values() if names is None else (opt.params[n] for n in names)
        for p in stepped:
            k = self._index.get(id(p))
            if k is not None and p.grad is not None:
                self._count("optim.grads_used", self._pending[k])
                self._pending[k] = 0
        return self.call(name, fn, args, kwargs)

    def _topo_order(self, fn, args, kwargs):
        order = self.call("tensor.topo_order", fn, args, kwargs)
        self._count("tensor.graph_nodes", len(order))
        return order

    def _conv2d(self, fn, args, kwargs):
        out = self.call("tensor.conv2d", fn, args, kwargs)
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        _, c_in, kh, kw = kernel.shape
        # one multiply-add per output element and kernel tap, counted as 2 flops
        self._count("tensor.conv2d.flop", 2 * out.data.size * c_in * kh * kw)
        return out

    def _wrapper(self, name, fn):
        handlers = {"tensor.backward": self._backward, "tensor.topo_order": self._topo_order,
                    "tensor.conv2d": self._conv2d}
        if name in handlers:
            handler = handlers[name]
        elif name.startswith("optim."):
            handler = functools.partial(self._optimizer_step, name)
        else:
            handler = functools.partial(self.call, name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return handler(fn, args, kwargs)
        return wrapped

    def install(self):
        for home, attr, name in FUNCTIONS:
            orig = getattr(home, attr)
            wrapped = self._wrapper(name, orig)
            for mod in LAYER_MODULES:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
        for cls, attr, name in METHODS:
            setattr(cls, attr, self._wrapper(name, getattr(cls, attr)))

    def span(self, name, fn, *args):
        """Record a span around a call the benchmark makes itself."""
        return self.call(name, fn, args, {})

    # -- analysis --

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, step in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self, steps):
        """Sum of inclusive time, self time and call count per (name, phase).

        ``phase`` is ``"step"`` for spans under one of ``steps`` and the
        span's own label otherwise; spans under other steps (warm-up) are
        left out.
        """
        out = collections.defaultdict(lambda: [0.0, 0.0, 0])
        steps = set(steps)
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, _, step = span
            if isinstance(step, int):
                if step not in steps:
                    continue
                step = "step"
            acc = out[(name, step)]
            acc[0] += end - start
            acc[1] += self_s
            acc[2] += 1
        return out

    def write(self, path, header):
        self_s = self.self_times()
        rows = [[name, start, end, parent, step, s]
                for (name, start, end, parent, step), s in zip(self.spans, self_s)]
        with open(path, "w") as f:
            json.dump({**header, "columns": ["name", "start", "end", "parent", "step", "self"],
                       "spans": rows}, f)
