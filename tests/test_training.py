"""Adadelta oracle checks and training-loop behavior."""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from lfked import training
from lfked.autodiff import Tape, Tensor, add, mul, zero_grads
from lfked.baseline import LinearBaseline
from lfked.checkpoint import save_checkpoint
from lfked.corpus import LFKExample
from lfked.encoding import EmbeddingTable, WordTable
from lfked.models import Model, ModelConfig
from lfked.seeding import rng_for
from lfked.training import (
    Adadelta,
    NumericError,
    TrainConfig,
    batch_gradients,
    restore_params,
    snapshot_params,
    train,
)


def reference_adadelta_scalar(grads, rho=0.95, eps=1e-6, lr=1.0, x0=0.0):
    """Standalone scalar evaluation of the update recurrence."""
    x, eg, ed = x0, 0.0, 0.0
    for g in grads:
        eg = rho * eg + (1 - rho) * g * g
        dx = -math.sqrt(ed + eps) / math.sqrt(eg + eps) * g
        ed = rho * ed + (1 - rho) * dx * dx
        x += lr * dx
    return x


def scalar_param(value=0.0):
    return Tensor(np.array(value), requires_grad=True)


def test_adadelta_zero_gradient_is_identity():
    p = scalar_param(3.5)
    opt = Adadelta({"p": p})
    p.zero_grad()
    opt.step()
    assert p.data == 3.5
    assert opt.sq_grad["p"] == 0.0


def test_adadelta_first_step_hand_value():
    # g=1, fresh state: dx = -sqrt(1e-6)/sqrt(0.05 + 1e-6)
    p = scalar_param(0.0)
    opt = Adadelta({"p": p})
    p.zero_grad()
    p.grad += 1.0
    opt.step()
    want = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
    assert abs(float(p.data) - want) < 1e-15
    assert abs(want) == pytest.approx(4.472e-3, rel=1e-3)


def test_adadelta_ten_steps_match_scalar_reference():
    rng = rng_for(0, "ada")
    grads = rng.normal(size=10)
    p = scalar_param(0.7)
    opt = Adadelta({"p": p})
    for g in grads:
        p.zero_grad()
        p.grad += g
        opt.step()
    want = reference_adadelta_scalar(grads, x0=0.7)
    assert abs(float(p.data) - want) < 1e-12


def test_adadelta_step_is_pure_given_state():
    rng = rng_for(1, "ada")
    data = rng.normal(size=4)
    grad = rng.normal(size=4)

    def run():
        p = Tensor(data.copy(), requires_grad=True)
        opt = Adadelta({"p": p})
        opt.sq_grad["p"][:] = 0.3
        opt.sq_delta["p"][:] = 0.2
        p.grad += grad
        opt.step()
        return p.data

    assert (run() == run()).all()


def test_adadelta_in_place_step_is_bitwise_the_formula():
    # Parameters of several sizes, five steps each: every step must equal the
    # update formula evaluated with fresh temporaries, bit for bit.
    rng = rng_for(2, "ada")
    shapes = {"a": (3, 4, 5), "b": (7,), "c": (20, 3)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    want = {k: p.data.copy() for k, p in params.items()}
    eg = {k: np.zeros(s) for k, s in shapes.items()}
    ed = {k: np.zeros(s) for k, s in shapes.items()}
    rho, eps, lr = 0.95, 1e-6, 0.7
    opt = Adadelta(params, rho=rho, eps=eps, lr=lr)
    for _ in range(5):
        for k, p in params.items():
            g = rng.normal(size=shapes[k])
            p.grad[...] = g
            eg[k] *= rho
            eg[k] += (1.0 - rho) * g * g
            dx = -np.sqrt(ed[k] + eps) / np.sqrt(eg[k] + eps) * g
            ed[k] *= rho
            ed[k] += (1.0 - rho) * dx * dx
            want[k] += lr * dx
        opt.step()
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, want[k])


def test_adadelta_missing_grad_contract():
    p = Tensor(np.zeros(3))  # requires_grad=False -> no grad buffer
    opt = Adadelta({"p": p})
    with pytest.raises(RuntimeError, match="no gradient"):
        opt.step()


def test_adadelta_rejects_bad_hyperparams():
    p = scalar_param()
    with pytest.raises(ValueError, match="rho"):
        Adadelta({"p": p}, rho=1.0)
    with pytest.raises(ValueError, match="eps"):
        Adadelta({"p": p}, eps=0.0)


# --- training loop -----------------------------------------------------------


class BiasOnlyModel:
    """Minimal trainable object: logits are two free scalars."""

    def __init__(self):
        self.logits = Tensor(np.zeros(2), requires_grad=True)
        self.dev_f1_script = None  # when set, predict follows a script

    def named_params(self):
        return {"logits": self.logits}

    def step_taps(self, examples):
        return None

    def loss(self, example, train=False, rng=None, taps=None):
        from lfked.autodiff import cross_entropy

        return cross_entropy(self.logits, example.label)

    def predict(self, example):
        d = self.logits.data
        return 1 if d[1] > d[0] else 0

    def predict_batch(self, examples):
        return [self.predict(ex) for ex in examples]


def tiny_examples(n_pos=3, n_neg=3):
    pos = [LFKExample(["a", "b"], 0, ("k",), 1) for _ in range(n_pos)]
    neg = [LFKExample(["a", "b"], 1, ("k",), 0) for _ in range(n_neg)]
    return pos + neg


def test_train_requires_nonempty_data_and_dev_positives():
    model = BiasOnlyModel()
    cfg = TrainConfig(batch_size=2, epochs=1)
    with pytest.raises(ValueError, match="non-empty"):
        train(model, [], tiny_examples(), cfg)
    with pytest.raises(ValueError, match="no positive"):
        train(model, tiny_examples(), tiny_examples(n_pos=0, n_neg=2), cfg)


def test_train_config_validation():
    for bad in (
        TrainConfig(batch_size=0),
        TrainConfig(patience=0),
        TrainConfig(epochs=0),
        TrainConfig(neg_keep=0.0),
        TrainConfig(neg_keep=1.5),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_early_stop_returns_earlier_best():
    # Scripted dev F1: epoch 1 scores something, epoch 2 is worse, and with
    # patience=1 training stops after epoch 2 keeping epoch 1's parameters.
    class Scripted(BiasOnlyModel):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def predict(self, example):
            return 1 if self.calls == 0 else 0  # epoch 1: all-positive, then all-negative

    model = Scripted()

    import lfked.training as tr

    # wrap evaluate to bump the epoch counter after each dev pass
    orig = tr.evaluate

    def counting_evaluate(m, examples, keep_predictions=False):
        rep = orig(m, examples, keep_predictions)
        m.calls += 1
        return rep

    tr.evaluate = counting_evaluate
    try:
        result = train(
            model,
            tiny_examples(),
            tiny_examples(),
            TrainConfig(batch_size=6, epochs=30, patience=1, seed=0),
        )
    finally:
        tr.evaluate = orig

    assert [round(e.dev_f1, 3) for e in result.log] == [0.667, 0.0]
    assert result.best_epoch == 1
    assert result.stopped_early is True


def test_train_loss_decreases_on_separable_data():
    model = BiasOnlyModel()
    data = tiny_examples(n_pos=4, n_neg=2)
    result = train(model, data, data, TrainConfig(batch_size=3, epochs=5, seed=1))
    assert result.log[4].train_loss < result.log[0].train_loss


def test_same_seed_reproduces_training_log():
    def run():
        model = BiasOnlyModel()
        data = tiny_examples(4, 4)
        result = train(model, data, data, TrainConfig(batch_size=3, epochs=4, seed=7))
        return model.logits.data.copy(), result.log

    params_a, log_a = run()
    params_b, log_b = run()
    assert (params_a == params_b).all()

    # logs identical apart from wall-clock seconds and the process's peak memory
    def strip(log):
        rows = [json.loads(entry.as_json()) for entry in log]
        for r in rows:
            assert set(r) == {"epoch", "train_loss", "dev_p", "dev_r", "dev_f1", "seconds",
                              "peak_rss_mb"}
            r.pop("seconds")
            assert r.pop("peak_rss_mb") > 0
        return rows

    assert strip(log_a) == strip(log_b)


def test_negative_subsampling_reduces_epoch_size():
    from lfked.training import _epoch_examples

    data = tiny_examples(n_pos=5, n_neg=100)
    cfg = TrainConfig(seed=3, neg_keep=0.1)
    epoch = _epoch_examples(data, cfg, 1)
    n_pos = sum(1 for e in epoch if e.label == 1)
    n_neg = len(epoch) - n_pos
    assert n_pos == 5  # positives always kept
    assert 1 <= n_neg <= 30
    # different epochs draw different negatives
    other = _epoch_examples(data, cfg, 2)
    assert [e.label for e in other] != [e.label for e in epoch] or len(other) != len(epoch)


def test_numeric_error_on_divergence():
    class ExplodingModel(BiasOnlyModel):
        def loss(self, example, train=False, rng=None, taps=None):
            self.logits.data[:] = np.inf
            from lfked.autodiff import cross_entropy

            return cross_entropy(self.logits, example.label)

    # the step is reported to on_step first, and the error reads the same
    steps = []
    for on_step in (None, steps.append):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="^non-finite loss at epoch 1, batch 0$"):
            train(
                ExplodingModel(),
                tiny_examples(),
                tiny_examples(),
                TrainConfig(batch_size=2, epochs=1),
                on_step=on_step,
            )
    [info] = steps
    assert (info.epoch, info.step, info.examples, info.tapes) == (1, 0, 2, 2)
    assert not info.finite and not np.isfinite(info.loss) and info.optimizer_s == 0.0


def cnn_and_data(seed=2):
    """A tiny attention-cfa model and 11 examples of 3 to 7 tokens."""
    rng = rng_for(0, "emb")
    vocab = [f"w{i}" for i in range(8)] + [f"k{i}" for i in range(4)]
    emb = EmbeddingTable({t: rng.normal(size=8) for t in vocab}, 8)
    cfg = ModelConfig(head="attention", cfa=True, layers=1, windows=(2, 3), filters=3,
                      dropout=0.5, word_dim=8, pos_dim=4, max_offset=5,
                      attn_hidden=6, ffn_hidden=8, seed=seed)
    data = [
        LFKExample([f"w{j}" for j in range(3 + i % 5)], i % 3, ("k0", "k1", "k2"), i % 2)
        for i in range(11)
    ]
    return Model(cfg, emb), data


def test_on_step_reports_each_step_of_each_epoch():
    model, data = cnn_and_data()
    steps = []
    result = train(model, data, data, TrainConfig(batch_size=4, epochs=3, seed=5),
                   on_step=steps.append)
    assert [(s.epoch, s.step) for s in steps] == [(e, i) for e in (1, 2, 3) for i in range(3)]
    for entry in result.log:
        epoch = [s for s in steps if s.epoch == entry.epoch]
        assert len(epoch) == math.ceil(len(data) / 4)
        assert sum(s.examples for s in epoch) == len(data)
        assert sum(s.rows for s in epoch) == sum(len(ex.tokens) for ex in data)
        total = 0.0
        for s in epoch:         # in step order, as train adds them
            total += s.loss
        assert total / len(data) == entry.train_loss
    for s in steps:
        assert s.finite and s.tapes == s.examples
        assert min(s.forward_s, s.backward_s, s.optimizer_s) >= 0.0
        assert s.forward_s + s.backward_s + s.optimizer_s <= s.seconds
    assert all(a.started + a.seconds <= b.started for a, b in zip(steps, steps[1:]))


def test_on_step_changes_no_checkpoint_byte(tmp_path):
    def run(name, on_step):
        model, data = cnn_and_data()
        result = train(model, data, data, TrainConfig(batch_size=4, epochs=3, seed=5),
                       on_step=on_step)
        save_checkpoint(model, tmp_path / f"{name}.ckpt")
        rows = [json.loads(entry.as_json()) for entry in result.log]
        return (tmp_path / f"{name}.ckpt").read_bytes(), [
            {k: v for k, v in r.items() if k not in ("seconds", "peak_rss_mb")} for r in rows]

    assert run("with", lambda info: None) == run("without", None)


def test_snapshot_restore_roundtrip():
    p = {"a": Tensor(np.arange(3.0), requires_grad=True)}
    snap = snapshot_params(p)
    p["a"].data += 10
    restore_params(p, snap)
    assert p["a"].data.tolist() == [0.0, 1.0, 2.0]


def test_real_model_trains_one_epoch():
    # End-to-end smoke test with the actual CNN model at tiny scale.
    rng = rng_for(0, "emb")
    vocab = [f"w{i}" for i in range(8)] + [f"k{i}" for i in range(4)]
    emb = EmbeddingTable({t: rng.normal(size=8) for t in vocab}, 8)
    cfg = ModelConfig(head="attention", cfa=True, layers=1, windows=(2, 3), filters=3,
                      dropout=0.5, word_dim=8, pos_dim=4, max_offset=5,
                      attn_hidden=6, ffn_hidden=8, seed=2)
    model = Model(cfg, emb)
    data = [
        LFKExample([f"w{i}" for i in range(5)], i % 5, ("k0", "k1", "k2", "k3"), i % 2)
        for i in range(12)
    ]
    before = snapshot_params(model.named_params())
    result = train(model, data, data, TrainConfig(batch_size=4, epochs=2, seed=5))
    assert len(result.log) == 2
    changed = any(
        not (model.named_params()[k].data == before[k]).all() for k in before
    )
    assert changed


def test_step_tape_is_freed_by_reference_counting(monkeypatch):
    # A step records one tape per example. A tape <-> rule reference cycle
    # would keep every example's tape and its activations alive until the
    # cyclic GC runs.
    refs, live_at_start = [], []

    class TrackedTape(Tape):
        def __init__(self):
            super().__init__()
            live_at_start.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", TrackedTape)
    rng = rng_for(0, "emb")
    vocab = [f"w{i}" for i in range(8)] + [f"k{i}" for i in range(4)]
    emb = EmbeddingTable({t: rng.normal(size=8) for t in vocab}, 8)
    cfg = ModelConfig(head="attention", cfa=True, layers=1, windows=(2, 3), filters=3,
                      dropout=0.5, word_dim=8, pos_dim=4, max_offset=5,
                      attn_hidden=6, ffn_hidden=8, seed=2)
    model = Model(cfg, emb)
    data = [
        LFKExample([f"w{i}" for i in range(5)], i % 5, ("k0", "k1", "k2", "k3"), i % 2)
        for i in range(12)
    ]
    gc.disable()
    try:
        train(model, data, data, TrainConfig(batch_size=4, epochs=1, seed=5))
        assert len(refs) == 12
        assert max(live_at_start) <= 1   # only the previous example's, still bound
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_step_makes_the_calls_the_benchmark_counts(monkeypatch):
    # benchmark/hooks.py times a step from zero_grads to Adadelta.step and
    # counts its examples by Model.loss calls. A step that records several
    # examples per tape must land a benchmark that reads on_step first.
    calls = []

    def spy(name, orig):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "zero_grads", spy("zero_grads", training.zero_grads))
    for cls, name in ((Tape, "backward"), (Model, "loss"), (Adadelta, "step")):
        monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
    model, batch = step_case("attention-cfa", n=5)
    train(model, batch, batch, TrainConfig(batch_size=5, epochs=1))
    assert calls == ["zero_grads"] + ["loss", "backward"] * len(batch) + ["step"]


# --- the streamed step --------------------------------------------------------


def one_tape_gradients(model, batch, rng):
    """The reference step: every example's loss recorded on one tape as one
    add chain, scaled by 1/B, and one backward. Returns the chain's loss
    total and each parameter's gradient."""
    named = model.named_params()
    zero_grads(named.values())
    with Tape() as tape:
        total = model.loss(batch[0], train=True, rng=rng)
        for ex in batch[1:]:
            total = add(total, model.loss(ex, train=True, rng=rng))
        tape.backward(mul(total, Tensor(1.0 / len(batch))))
    return float(total.data), {k: t.grad.copy() for k, t in named.items()}


def step_case(case, n=9, length=None, **config):
    """A model of one variant and a batch of n examples with sentences of
    1-12 tokens (or all of `length` tokens); `config` overrides model sizes."""
    sizes = dict(layers=1, windows=(2, 3, 5), filters=4, word_dim=8, pos_dim=4,
                 attn_hidden=6, ffn_hidden=8) | config
    word_dim = sizes["word_dim"]
    rng = rng_for(0, "emb")
    vocab = [f"w{i}" for i in range(12)] + [f"k{i}" for i in range(4)]
    emb = EmbeddingTable({t: rng.normal(size=word_dim) for t in vocab}, word_dim)
    batch = []
    for i in range(n):
        size = length or 1 + (i * 5) % 12
        batch.append(LFKExample([f"w{(i + j) % 12}" for j in range(size)], (i * 7) % size,
                                tuple(f"k{j}" for j in range(1 + i % 4)), i % 2))
    if case == "baseline":
        return LinearBaseline(emb), batch
    cfg = ModelConfig(head="attention", cfa=True, dropout=0.5, max_offset=12, seed=2,
                      **sizes)
    words = None
    if case == "finetune-words":
        words = WordTable(emb, vocab)
    elif case != "attention-cfa":
        cfg = cfg.with_variant(case)
    return Model(cfg, emb, words=words), batch


@pytest.mark.parametrize("case, layers", [
    *(pytest.param(case, 1, id=case)
      for case in ("attention-cfa", "concat", "finetune-words", "baseline")),
    # layer 2 runs a taped conv1d_same, whose input gradient feeds layer 1
    pytest.param("attention-cfa", 2, id="attention-cfa-2-layers"),
])
def test_streamed_step_matches_one_tape_step(case, layers):
    model, batch = step_case(case, layers=layers)
    want_loss, want = one_tape_gradients(model, batch, rng_for(4, "dropout", 1))
    named = model.named_params()
    got_loss, forward_s, backward_s = batch_gradients(model, named.values(), batch,
                                                      rng_for(4, "dropout", 1))
    assert got_loss == want_loss
    assert forward_s > 0.0 and backward_s > 0.0
    largest = max(np.abs(g).max() for g in want.values())
    assert largest > 0
    for name, t in named.items():
        assert np.abs(t.grad - want[name]).max() <= 1e-12 * largest, name


def test_streamed_step_peaks_at_most_half_the_one_tape_step():
    # One epoch of one 50-example step on 40-token sentences through train(),
    # with a two-example dev set, against the same step recorded on one tape.
    # The model keeps the default's proportions at a sixth of its widths.
    model, batch = step_case("attention-cfa", n=50, length=40, windows=(2, 3, 4, 5),
                             filters=16, word_dim=50, pos_dim=8, attn_hidden=32,
                             ffn_hidden=50)
    peaks = []
    for run in (lambda: one_tape_gradients(model, batch, rng_for(0, "dropout", 1)),
                lambda: train(model, batch, batch[:2], TrainConfig(batch_size=50, epochs=1))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_tape, streamed = peaks
    assert streamed <= 0.5 * one_tape, (one_tape, streamed)
