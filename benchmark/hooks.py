"""Measurement hooks installed on the lfked package from outside.

Every hook wraps a public function or method of an ``lfked.*`` module. A
wrapped function is rebound everywhere the package holds it: the defining
module, every module that imported it by name, and the values of module-level
dicts such as ``models.ACTIVATIONS``. Leaving the ``with`` block restores the
originals, so two chains in one process run the same package code.

``ChainHooks(trace=False)`` is what the end-to-end run installs. Per training
step it reads the clock twice and checks the loss; per ``metrics.evaluate``
call it times the call and re-derives the confusion counts from the
predictions; per ``save_checkpoint`` it keeps the saved model for the reload
check.

``ChainHooks(speed=HostSpeed())`` also takes host-speed calibration bursts
(see hostspeed.py) before and after every lfked subcommand, after every
training step, and between the examples a scoring pass runs, never inside a
training step; it keeps each step's start and each scoring call's window so
the run can scale them.

``ChainHooks(trace=True)`` adds the per-layer trace: a span (name, start,
end, parent) at every layer boundary, kept in memory, and per autodiff op a
forward timer, a call count and a timer around every backward rule the op
records. Rules recorded outside any wrapped op are counted, so a missed
reference shows up as a step whose per-op rules do not sum to ``len(tape)``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from functools import partial, wraps

import numpy as np

perf = time.perf_counter

# The 15 ops the default model variants use, reported one by one.
REPORTED_OPS = (
    "conv1d_same", "affine", "linear_rows", "matmul", "concat", "tanh",
    "sigmoid", "scale_shift_rows", "softmax", "maxpool_time", "take_rows",
    "take_row", "cross_entropy", "add", "mul",
)

# Which end-to-end metric, on which workload, each per-layer metric should
# move; the longest matching name prefix applies.
LAYER_MOVES = {
    "autodiff.": "train_step_ms on short-attn-cfa and mixed-attn-cfa",
    "autodiff.conv1d_same.": "train_step_ms on mixed-attn-cfa",
    "autodiff.conv1d_same.rows": "train_step_ms and peak_rss_mb on mixed-attn-cfa "
                                 "(convolved rows per real token; above 1 under padding)",
    "autodiff.affine.": "train_step_ms on short-attn-cfa",
    "autodiff.linear_rows.": "train_step_ms on short-attn-cfa",
    "autodiff.maxpool_time.": "eval_examples_per_s on bulk-score-concat only",
    "autodiff.backward_s": "train_step_ms on short-attn-cfa",
    "autodiff.rules_per_step": "train_step_ms on short-attn-cfa",
    "autodiff.tensors_per_step": "train_step_ms on short-attn-cfa",
    "encoding.": "train_examples_per_s on short-attn-cfa, "
                 "eval_examples_per_s on bulk-score-concat",
    "encoding.load_embeddings_s": "setup_s on every workload",
    "models.": "train_step_ms of the attn-cfa workloads, "
               "eval_examples_per_s on bulk-score-concat",
    "models.cfa_condition.s": "train_step_ms on both attn-cfa workloads (zero on bulk)",
    "models.head_attention.s": "train_step_ms on both attn-cfa workloads",
    "models.head_concat.s": "eval_examples_per_s on bulk-score-concat",
    "training.": "train_step_ms and pipeline_s on both attn-cfa workloads",
    "metrics.": "eval_examples_per_s on bulk-score-concat",
    "checkpoint.": "pipeline_s on bulk-score-concat",
    "datagen.": "setup_s, mostly on bulk-score-concat",
    "corpus.": "setup_s, mostly on bulk-score-concat",
    "trace.": "nothing: the cost of tracing itself",
}


def moves(metric: str) -> str | None:
    keys = [k for k in LAYER_MOVES if metric.startswith(k)]
    return LAYER_MOVES[max(keys, key=len)] if keys else None


class FirstStep(Exception):
    """Raised at the first training step when only set-up is measured."""


class _OpStat:
    __slots__ = ("fwd_s", "bwd_s", "calls", "rows")

    def __init__(self):
        self.fwd_s = self.bwd_s = 0.0
        self.calls = self.rows = 0


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lfked" or name.startswith("lfked."))]


class _Patcher:
    """Replaces package objects and undoes every replacement on restore."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        orig = getattr(module, name)
        new = wraps(orig)(make_wrapper(orig))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append(partial(setattr, mod, attr, orig))
                elif type(val) is dict:
                    for key, item in list(val.items()):
                        if item is orig:
                            val[key] = new
                            self._undo.append(partial(val.__setitem__, key, orig))

    def method(self, cls, name, make_wrapper):
        orig = cls.__dict__[name]
        setattr(cls, name, wraps(orig)(make_wrapper(orig)))
        self._undo.append(partial(setattr, cls, name, orig))

    def restore(self):
        while self._undo:
            self._undo.pop()()


class ChainHooks:
    """Counters and spans for one run of the chain; use as a context manager."""

    def __init__(self, trace: bool = False, stop_at_first_step: bool = False, speed=None):
        self.trace = trace
        self.stop_at_first_step = stop_at_first_step
        self.speed = speed
        self.first_step_at = None
        # end-to-end counters
        self.step_at: list[float] = []
        self.step_ms: list[float] = []
        self.step_examples: list[int] = []
        self.nonfinite_steps = 0
        self.eval_seconds = 0.0
        self.eval_windows: list[tuple[float, float]] = []
        self.eval_examples = 0
        self.eval_failed = 0
        self.errors: list[str] = []           # evaluate count mismatches
        self.coverage_errors: list[str] = []  # steps whose rules are not all attributed
        self.saved = []                       # (model, path) per save_checkpoint
        # trace state
        self.spans: list[list] = []           # [name, start, end, parent index]
        self.ops: dict[str, _OpStat] = defaultdict(_OpStat)
        self.counts = Counter()
        self.rules_per_step: list[int] = []
        self.tensors_per_step: list[int] = []
        self._stack: list[int] = []
        self._current_op = None
        self._tape_rules = 0
        self._tensors = 0
        self._in_train = False
        self._epoch = self._step = self._step_fwd = None
        self._step_start = 0.0
        self._in_step = False
        self._step_loss_calls = 0
        self._step_tensors0 = 0
        self._patcher = _Patcher()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = perf()

    def _spanned(self, name, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- install -----------------------------------------------------------

    def __enter__(self):
        import lfked.autodiff as ad
        import lfked.checkpoint
        import lfked.cli  # noqa: F401  (imported so its by-name references get rebound)
        import lfked.metrics
        import lfked.models
        import lfked.training

        p = self._patcher
        p.function(ad, "zero_grads", self._wrap_zero_grads)
        p.method(ad.Tape, "backward", self._wrap_backward)
        p.method(lfked.training.Adadelta, "step", self._wrap_adadelta)
        p.method(lfked.models.Model, "loss", self._wrap_loss)
        p.function(lfked.metrics, "evaluate", self._wrap_evaluate)
        p.function(lfked.checkpoint, "save_checkpoint", self._wrap_save)
        if self.speed is not None:
            p.function(lfked.cli, "main", self._wrap_main)
            p.method(lfked.models.Model, "forward", self._wrap_forward)
        if self.trace:
            self._install_trace(p)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._patcher.restore()
        return False

    def _install_trace(self, p: _Patcher):
        import lfked.autodiff as ad
        import lfked.checkpoint
        import lfked.corpus
        import lfked.datagen
        import lfked.encoding
        import lfked.models
        import lfked.training

        for name, fn in list(vars(ad).items()):
            if (callable(fn) and getattr(fn, "__module__", None) == ad.__name__
                    and not isinstance(fn, type) and not name.startswith("_")
                    and name != "zero_grads"):
                p.function(ad, name, partial(self._wrap_op, name))
        p.method(ad.Tape, "__enter__", self._wrap_tape_enter)
        p.method(ad.Tape, "_record", self._wrap_record)
        p.method(ad.Tensor, "__init__", self._wrap_tensor_init)
        p.method(lfked.encoding.EmbeddingTable, "lookup", self._wrap_lookup)

        spanned = [
            (lfked.datagen, "synth_corpus", "datagen.synth_corpus"),
            (lfked.datagen, "generate_lfk", "datagen.generate_lfk"),
            (lfked.corpus, "load_corpus", "corpus.load_corpus"),
            (lfked.encoding, "load_embeddings", "encoding.load_embeddings"),
            (lfked.models, "cnn_layer", "models.cnn_layer"),
            (lfked.models, "cfa_condition", "models.cfa_condition"),
            (lfked.models, "head_attention", "models.head_attention"),
            (lfked.models, "head_concat", "models.head_concat"),
            (lfked.encoding, "keyword_repr", "encoding.keyword_repr"),
            (lfked.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
        ]
        for module, fn_name, span_name in spanned:
            p.function(module, fn_name, partial(self._spanned, span_name))
        p.function(lfked.encoding, "encode",
                   partial(self._spanned, "encoding.encode", before=self._count_tokens))
        p.function(lfked.corpus, "load_dataset", self._wrap_load_dataset)
        p.function(lfked.training, "train", self._wrap_train)
        p.method(lfked.models.Model, "forward", partial(self._spanned, "models.forward"))
        p.method(lfked.models.Model, "predict", partial(self._spanned, "metrics.predict"))

    # -- end-to-end wrappers ----------------------------------------------

    def _wrap_zero_grads(self, orig):
        def zero_grads(tensors):
            now = perf()
            if self.first_step_at is None:
                self.first_step_at = now
            if self.stop_at_first_step:
                raise FirstStep
            self._step_start = now
            self._in_step = True
            self._step_loss_calls = 0
            if self.trace:
                if self._in_train and self._epoch is None:
                    self._epoch = self._open("training.epoch")
                self._step = self._open("training.step")
                self._step_fwd = self._open("training.step.fwd")
                self._step_tensors0 = self._tensors
            return orig(tensors)
        return zero_grads

    def _wrap_loss(self, orig):
        def loss(model, *args, **kwargs):
            self._step_loss_calls += 1
            return orig(model, *args, **kwargs)
        return loss

    def _wrap_backward(self, orig):
        def backward(tape, loss):
            if not np.all(np.isfinite(loss.data)):
                self.nonfinite_steps += 1
            if not self.trace:
                return orig(tape, loss)
            if self._step_fwd is not None:
                self._close(self._step_fwd)
                self._step_fwd = None
            idx = self._open("autodiff.backward")
            try:
                orig(tape, loss)
            finally:
                self._close(idx)
            step = len(self.rules_per_step) + 1
            self.rules_per_step.append(len(tape))
            if self._tape_rules != len(tape):
                self.coverage_errors.append(
                    f"step {step} recorded {len(tape)} rules but "
                    f"wrapped ops account for {self._tape_rules} "
                    f"({self.counts['rules_outside_ops']} outside any wrapped op so far)")
            return None
        return backward

    def _wrap_adadelta(self, orig):
        def step(opt):
            if self.trace:
                idx = self._open("training.adadelta")
                try:
                    orig(opt)
                finally:
                    self._close(idx)
                if self._step is not None:
                    self._close(self._step)
                    self._step = None
                self.tensors_per_step.append(self._tensors - self._step_tensors0)
            else:
                orig(opt)
            self.step_ms.append((perf() - self._step_start) * 1e3)
            self.step_at.append(self._step_start)
            self.step_examples.append(self._step_loss_calls)
            self._in_step = False
            if self.speed is not None:
                self.speed.maybe()
        return step

    def _wrap_evaluate(self, orig):
        def evaluate(model, examples, keep_predictions=False):
            idx = self._open("metrics.evaluate") if self.trace else None
            start = perf()
            try:
                report = orig(model, examples, keep_predictions=True)
            except Exception:
                self.eval_failed += len(examples)
                raise
            finally:
                if idx is not None:
                    self._close(idx)
            end = perf()
            self.eval_seconds += end - start
            self.eval_windows.append((start, end))
            self.eval_examples += len(examples)
            self._check_counts(report, examples)
            if self.trace and self._epoch is not None:
                self._close(self._epoch)     # the dev evaluation ends an epoch
                self._epoch = None
            if not keep_predictions:
                report.predictions = None
            return report
        return evaluate

    def _check_counts(self, report, examples):
        preds = report.predictions
        if len(preds) != len(examples):
            self.errors.append(f"evaluate returned {len(preds)} predictions "
                               f"for {len(examples)} examples")
            return
        pairs = Counter((p, ex.label) for p, ex in zip(preds, examples))
        tp, fp, fn, tn = pairs[1, 1], pairs[1, 0], pairs[0, 1], pairs[0, 0]
        if (tp, fp, fn) != (report.tp, report.fp, report.fn):
            self.errors.append(f"evaluate counts tp/fp/fn {report.tp}/{report.fp}/"
                               f"{report.fn}, predictions give {tp}/{fp}/{fn}")
        if tp + fp + fn + tn != len(examples):
            self.errors.append(f"tp+fp+fn+tn = {tp + fp + fn + tn} for "
                               f"{len(examples)} scored examples")

    def _wrap_save(self, orig):
        def save_checkpoint(model, path, *args, **kwargs):
            idx = self._open("checkpoint.save_checkpoint") if self.trace else None
            try:
                orig(model, path, *args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            self.saved.append((model, path))
        return save_checkpoint

    # -- calibration-only wrappers -----------------------------------------

    def _wrap_main(self, orig):
        def main(argv=None):
            self.speed.burst()
            try:
                return orig(argv)
            finally:
                self.speed.burst()
        return main

    def _wrap_forward(self, orig):
        def forward(model, *args, **kwargs):
            if not self._in_step:
                self.speed.maybe()
            return orig(model, *args, **kwargs)
        return forward

    # -- trace-only wrappers -----------------------------------------------

    def _wrap_op(self, name, orig):
        stat = self.ops[name]
        count_rows = name == "conv1d_same"

        def op(*args, **kwargs):
            prev = self._current_op
            self._current_op = stat
            start = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                stat.fwd_s += perf() - start
                stat.calls += 1
                if count_rows:
                    stat.rows += args[0].data.shape[0]
                self._current_op = prev
        return op

    def _wrap_tape_enter(self, orig):
        def __enter__(tape):
            self._tape_rules = 0
            return orig(tape)
        return __enter__

    def _wrap_record(self, orig):
        def _record(tape, rule):
            stat = self._current_op
            if stat is None:
                self.counts["rules_outside_ops"] += 1
                return orig(tape, rule)
            self._tape_rules += 1

            def timed_rule():
                start = perf()
                rule()
                stat.bwd_s += perf() - start
            return orig(tape, timed_rule)
        return _record

    def _wrap_tensor_init(self, orig):
        def __init__(tensor, *args, **kwargs):
            self._tensors += 1
            orig(tensor, *args, **kwargs)
        return __init__

    def _wrap_lookup(self, orig):
        def lookup(emb, *args, **kwargs):
            self.counts["lookup"] += 1
            return orig(emb, *args, **kwargs)
        return lookup

    def _count_tokens(self, tokens, *args, **kwargs):
        self.counts["tokens"] += len(tokens)

    def _wrap_load_dataset(self, orig):
        spanned = self._spanned("corpus.load_dataset", orig)

        def load_dataset(path):
            examples = spanned(path)
            self.counts["examples_loaded"] += len(examples)
            return examples
        return load_dataset

    def _wrap_train(self, orig):
        spanned = self._spanned("training.train", orig)

        def train(*args, **kwargs):
            self._in_train = True
            try:
                return spanned(*args, **kwargs)
            finally:
                self._in_train = False
        return train

    # -- results -----------------------------------------------------------

    def span_table(self):
        """Per span name: total seconds, self seconds (minus child spans) and
        count; and total seconds per (name, parent name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        by_parent = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if parent >= 0:
                by_parent[name, self.spans[parent][0]] += end - start
        return total, own, calls, by_parent


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(h: ChainHooks, conv_passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced chain. ``conv_passes`` is the number of
    conv1d_same calls per token a per-example model makes (windows x layers)."""
    total, own, calls, by_parent = h.span_table()
    m: dict[str, float] = {}
    for op in REPORTED_OPS:
        stat = h.ops.get(op) or _OpStat()
        m[f"autodiff.{op}.fwd_s"] = stat.fwd_s
        m[f"autodiff.{op}.bwd_s"] = stat.bwd_s
        m[f"autodiff.{op}.calls"] = stat.calls
    conv = h.ops.get("conv1d_same") or _OpStat()
    tokens = h.counts["tokens"]
    m["autodiff.conv1d_same.rows"] = conv.rows
    m["autodiff.conv1d_same.rows_per_token"] = (
        conv.rows / (tokens * conv_passes) if tokens else 0.0)
    m["autodiff.backward_s"] = total["autodiff.backward"]
    m["autodiff.rules_per_step"] = _mean(h.rules_per_step)
    m["autodiff.tensors_per_step"] = _mean(h.tensors_per_step)

    m["encoding.load_embeddings_s"] = total["encoding.load_embeddings"]
    for name in ("encode", "keyword_repr"):
        m[f"encoding.{name}.s"] = total[f"encoding.{name}"]
        m[f"encoding.{name}.calls"] = calls[f"encoding.{name}"]
    m["encoding.lookup.calls"] = h.counts["lookup"]
    m["encoding.tokens"] = tokens

    m["models.forward.s"] = total["models.forward"]
    m["models.forward.self_s"] = own["models.forward"]
    m["models.forward.calls"] = calls["models.forward"]
    for name in ("cnn_layer", "cfa_condition", "head_attention", "head_concat"):
        m[f"models.{name}.s"] = total[f"models.{name}"]

    m["training.step.fwd_s"] = total["training.step.fwd"]
    m["training.step.bwd_s"] = by_parent["autodiff.backward", "training.step"]
    m["training.adadelta_s"] = total["training.adadelta"]
    m["training.dev_eval_s"] = by_parent["metrics.evaluate", "training.epoch"]
    epochs = calls["training.epoch"]
    m["training.epoch_s"] = total["training.epoch"] / epochs if epochs else 0.0
    m["training.steps"] = calls["training.step"]
    m["training.nonfinite_steps"] = h.nonfinite_steps

    m["metrics.evaluate_s"] = total["metrics.evaluate"]
    m["metrics.predict.s"] = total["metrics.predict"]
    m["metrics.examples_scored"] = h.eval_examples
    m["checkpoint.save_s"] = total["checkpoint.save_checkpoint"]
    m["checkpoint.load_s"] = total["checkpoint.load_checkpoint"]
    m["datagen.synth_corpus_s"] = total["datagen.synth_corpus"]
    m["datagen.generate_lfk_s"] = total["datagen.generate_lfk"]
    m["corpus.load_corpus_s"] = total["corpus.load_corpus"]
    m["corpus.load_dataset_s"] = total["corpus.load_dataset"]
    m["corpus.examples"] = h.counts["examples_loaded"]
    return m


def write_spans(h: ChainHooks, path):
    """Spans as JSON lines: name, start and end in seconds from the first span,
    and the index of the parent span (-1 for none)."""
    origin = h.spans[0][1] if h.spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent in h.spans:
            f.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7),
                                parent]) + "\n")
    return path
