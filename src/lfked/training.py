"""Adadelta and the mini-batch training loop with dev-F1 model selection.

The loop is deterministic given the seed: per-epoch shuffling, negative
subsampling, and dropout masks each draw from their own named substream. The
trained object only needs named_params(), step_taps(examples) (what the
examples of one step share, built from the current parameters: a model's
layer-1 taps, None for the baseline), loss(example, train, rng, taps), and
predict_batch(examples) (one 0/1 label per example, in order, used by the
dev-set evaluation), so the CNN models and the linear baseline share the loop.

A step over a mini-batch of B examples zeroes the gradients and builds the
step's taps, then records each example's loss scaled by 1/B on a tape of its
own and runs that tape's backward at once, so only one example's activations
are alive at a time. The step then checks the summed loss and applies
Adadelta, which evaluates its update formula as written; its read of each
weight's `.grad` sums the gradient the backwards queued on it: matrix
factors, and for layer 1 every example's output gradient, summed at once.
Every step is timed into a StepInfo, which an optional `on_step` callback
receives. The loop writes no file: each epoch's EpochLog, which carries the
process's peak resident memory so far, goes to the `progress` callback and
into the returned TrainResult.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, mul, zero_grads
from .metrics import EvalReport, evaluate
from .seeding import rng_for


class NumericError(RuntimeError):
    """Training produced a non-finite loss."""


class Adadelta:
    """Adadelta over named parameter tensors.

    Per step: E[g2] <- rho E[g2] + (1-rho) g2; dx = -sqrt(E[dx2]+eps) /
    sqrt(E[g2]+eps) * g with the previous E[dx2]; E[dx2] <- rho E[dx2] +
    (1-rho) dx2; param += lr * dx.

    The step evaluates the formula above as written, with numpy temporaries;
    the CLI keeps freed memory in the process (cli.keep_freed_memory), so
    they reuse the heap from step to step.
    """

    def __init__(self, params: dict[str, Tensor], rho: float = 0.95,
                 eps: float = 1e-6, lr: float = 1.0):
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.params = dict(params)
        self.rho = rho
        self.eps = eps
        self.lr = lr
        self.sq_grad = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.sq_delta = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        rho, eps, lr = self.rho, self.eps, self.lr
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise RuntimeError(f"parameter {name!r} has no gradient buffer")
            eg = self.sq_grad[name]
            ed = self.sq_delta[name]
            eg *= rho
            eg += (1.0 - rho) * g * g
            dx = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
            ed *= rho
            ed += (1.0 - rho) * dx * dx
            p.data += lr * dx


@dataclass
class TrainConfig:
    batch_size: int = 50
    epochs: int = 30
    patience: int = 5
    seed: int = 0
    neg_keep: float | None = None  # fraction of negatives kept per epoch
    lr: float = 1.0

    def validate(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.neg_keep is not None and not 0.0 < self.neg_keep <= 1.0:
            raise ValueError(f"neg_keep must be in (0, 1], got {self.neg_keep}")
        if not 0.0 < self.lr < float("inf"):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    dev_p: float
    dev_r: float
    dev_f1: float
    seconds: float
    peak_rss_mb: float

    def as_json(self) -> str:
        return json.dumps(asdict(self))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (ru_maxrss is in
    KB on Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


@dataclass
class StepInfo:
    """One training step, as `train` reports it to `on_step`. The seconds
    split the step from `started` (a time.perf_counter() reading) to its end,
    `seconds` later; what they leave out is zeroing and loop overhead."""
    epoch: int
    step: int                   # 0-based, within the epoch
    examples: int
    rows: int                   # tokens of the step's examples
    started: float
    tapes: int = 0
    forward_s: float = 0.0
    backward_s: float = 0.0
    optimizer_s: float = 0.0    # 0 for a non-finite step: training stops before it
    seconds: float = 0.0
    loss: float = 0.0           # the sum of the examples' losses
    finite: bool = True


@dataclass
class TrainResult:
    best_epoch: int = 0
    best_f1: float = -1.0       # below every F1, so the first epoch is kept
    best_report: EvalReport | None = None
    log: list[EpochLog] = field(default_factory=list)
    stopped_early: bool = False


def snapshot_params(named: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: t.data.copy() for k, t in named.items()}


def restore_params(named: dict[str, Tensor], snap: dict[str, np.ndarray]):
    for k, t in named.items():
        t.data[:] = snap[k]


def _epoch_examples(examples, config: TrainConfig, epoch: int):
    """Shuffle (and optionally subsample negatives) for one epoch."""
    pool = examples
    if config.neg_keep is not None:
        rng = rng_for(config.seed, "subsample", epoch)
        kept = []
        for ex in examples:
            if ex.label == 1 or rng.random() < config.neg_keep:
                kept.append(ex)
        pool = kept or examples
    rng = rng_for(config.seed, "shuffle", epoch)
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


def batch_gradients(model, params, batch, rng) -> tuple[float, float, float]:
    """Set each parameter's `.grad` to the gradient of the batch's mean
    training loss, one example per tape, all from one set of step taps (see
    the module docstring). Return the sum of the examples' losses, added in
    batch order, and the seconds spent building the taps and in the
    examples' forwards, and in their backwards."""
    scale = Tensor(1.0 / len(batch))
    total = backward_s = 0.0
    zero_grads(params)
    t0 = time.perf_counter()
    taps = model.step_taps(batch)
    forward_s = time.perf_counter() - t0
    for ex in batch:
        t0 = time.perf_counter()
        with Tape() as tape:
            loss = model.loss(ex, train=True, rng=rng, taps=taps)
            t1 = time.perf_counter()
            tape.backward(mul(loss, scale))
        forward_s += t1 - t0
        backward_s += time.perf_counter() - t1
        total += float(loss.data)
    return total, forward_s, backward_s


def train(model, train_examples, dev_examples, config: TrainConfig,
          progress=None, on_step=None) -> TrainResult:
    """Train until the epoch budget or patience runs out; the model is left
    holding the parameters of the best dev-F1 epoch (ties keep the earlier
    epoch). `progress(entry)`, if given, is called with each epoch's EpochLog;
    `on_step(info)` with each step's StepInfo after its optimizer step, and
    for a non-finite step before NumericError."""
    config.validate()
    if not train_examples or not dev_examples:
        raise ValueError("train and dev datasets must be non-empty")
    if not any(ex.label == 1 for ex in dev_examples):
        raise ValueError("dev set has no positive examples; F1 selection is undefined")

    named = model.named_params()
    opt = Adadelta(named, lr=config.lr)
    best_snap = snapshot_params(named)
    since_improvement = 0
    result = TrainResult()

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        dropout_rng = rng_for(config.seed, "dropout", epoch)
        examples = _epoch_examples(train_examples, config, epoch)

        loss_sum = 0.0
        for step, start in enumerate(range(0, len(examples), config.batch_size)):
            batch = examples[start : start + config.batch_size]
            info = StepInfo(epoch, step, len(batch), sum(len(ex.tokens) for ex in batch),
                            time.perf_counter(), tapes=len(batch))
            info.loss, info.forward_s, info.backward_s = batch_gradients(
                model, named.values(), batch, dropout_rng)
            info.finite = bool(np.isfinite(info.loss))
            if info.finite:
                loss_sum += info.loss
                optimizer_started = time.perf_counter()
                opt.step()
                info.optimizer_s = time.perf_counter() - optimizer_started
            info.seconds = time.perf_counter() - info.started
            if on_step:
                on_step(info)
            if not info.finite:
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {step}")

        report = evaluate(model, dev_examples)
        entry = EpochLog(
            epoch=epoch,
            train_loss=loss_sum / len(examples),
            dev_p=report.precision,
            dev_r=report.recall,
            dev_f1=report.f1,
            seconds=round(time.perf_counter() - started, 3),
            peak_rss_mb=peak_rss_mb(),
        )
        result.log.append(entry)
        if progress:
            progress(entry)

        if report.f1 > result.best_f1:
            result.best_f1, result.best_epoch, result.best_report = report.f1, epoch, report
            best_snap = snapshot_params(named)
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                result.stopped_early = True
                break

    restore_params(named, best_snap)
    return result
