"""Adadelta and the mini-batch training loop with dev-F1 model selection.

The loop is deterministic given the seed: per-epoch shuffling, negative
subsampling, and dropout masks each draw from their own named substream. The
trained object only needs named_params(), loss(example, train, rng), and
predict_batch(examples) (one 0/1 label per example, in order, used by the
dev-set evaluation), so the CNN models and the linear baseline share the loop.

A step over a mini-batch of B examples zeroes the gradients, then records
each example's loss scaled by 1/B on a tape of its own and runs that tape's
backward at once, so only one example's activations are alive at a time.
The step then checks the summed loss and applies Adadelta, whose read of each
weight's `.grad` sums the gradient factors the backwards queued on it.
Each epoch's log line carries the process's peak resident memory so far.
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

    The step runs in place, through two scratch buffers sized to the largest
    parameter and shared by all of them, in the same operation order as the
    formula above, so no parameter-sized temporaries are allocated per step.
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
        self._scratch = np.empty((2, max((p.data.size for p in self.params.values()),
                                         default=0)))

    def step(self):
        rho, eps, lr = self.rho, self.eps, self.lr
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise RuntimeError(f"parameter {name!r} has no gradient buffer")
            eg = self.sq_grad[name]
            ed = self.sq_delta[name]
            a, b = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            eg *= rho
            np.multiply(1.0 - rho, g, out=a)
            a *= g
            eg += a                                   # eg += (1-rho) * g * g
            np.add(ed, eps, out=a)
            np.sqrt(a, out=a)
            np.negative(a, out=a)
            np.add(eg, eps, out=b)
            np.sqrt(b, out=b)
            a /= b
            a *= g                                    # a = dx
            ed *= rho
            np.multiply(1.0 - rho, a, out=b)
            b *= a
            ed += b                                   # ed += (1-rho) * dx * dx
            np.multiply(lr, a, out=b)
            p.data += b                               # param += lr * dx


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
class TrainResult:
    best_epoch: int
    best_f1: float
    best_report: EvalReport
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


def batch_gradients(model, params, batch, rng) -> float:
    """Set each parameter's `.grad` to the gradient of the batch's mean
    training loss, one example per tape (see the module docstring), and
    return the sum of the examples' losses, added in batch order."""
    scale = Tensor(1.0 / len(batch))
    total = 0.0
    zero_grads(params)
    for ex in batch:
        with Tape() as tape:
            loss = model.loss(ex, train=True, rng=rng)
            tape.backward(mul(loss, scale))
        total += float(loss.data)
    return total


def train(model, train_examples, dev_examples, config: TrainConfig,
          log_path=None, progress=None) -> TrainResult:
    """Train until the epoch budget or patience runs out; the model is left
    holding the parameters of the best dev-F1 epoch (ties keep the earlier
    epoch)."""
    config.validate()
    if not train_examples or not dev_examples:
        raise ValueError("train and dev datasets must be non-empty")
    if not any(ex.label == 1 for ex in dev_examples):
        raise ValueError("dev set has no positive examples; F1 selection is undefined")

    named = model.named_params()
    opt = Adadelta(named, lr=config.lr)
    best_f1 = -1.0
    best_epoch = 0
    best_report = None
    best_snap = snapshot_params(named)
    since_improvement = 0
    result = TrainResult(best_epoch=0, best_f1=0.0, best_report=None)
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None

    try:
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            dropout_rng = rng_for(config.seed, "dropout", epoch)
            examples = _epoch_examples(train_examples, config, epoch)

            loss_sum = 0.0
            for start in range(0, len(examples), config.batch_size):
                batch = examples[start : start + config.batch_size]
                total = batch_gradients(model, named.values(), batch, dropout_rng)
                if not np.isfinite(total):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                    )
                loss_sum += total
                opt.step()

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
            if log_file:
                log_file.write(entry.as_json() + "\n")
                log_file.flush()
            if progress:
                progress(entry)

            if report.f1 > best_f1:
                best_f1 = report.f1
                best_epoch = epoch
                best_report = report
                best_snap = snapshot_params(named)
                since_improvement = 0
            else:
                since_improvement += 1
                if since_improvement >= config.patience:
                    result.stopped_early = True
                    break
    finally:
        if log_file:
            log_file.close()

    restore_params(named, best_snap)
    result.best_epoch = best_epoch
    result.best_f1 = best_f1
    result.best_report = best_report
    return result
