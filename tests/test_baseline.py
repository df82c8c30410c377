"""Averaged-embedding linear baseline."""

import numpy as np
import pytest

from lfked.autodiff import Tape
from lfked.baseline import LinearBaseline, featurize
from lfked.corpus import LFKExample
from lfked.encoding import EmbeddingTable
from lfked.seeding import rng_for
from lfked.training import TrainConfig, train


def emb_with(vocab, dim=4, seed=0):
    rng = rng_for(seed, "bemb")
    return EmbeddingTable({t: rng.normal(size=dim) for t in vocab}, dim)


def test_window_truncates_to_single_token():
    emb = emb_with(["x", "k"])
    ex = LFKExample(["x"], 0, ("k",), 1)
    feats = featurize([ex], emb)
    assert (feats.context_avg[0] == emb.lookup("x")).all()
    assert (feats.keyword_avg[0] == emb.lookup("k")).all()
    assert feats.vector.shape == (1, 8)


def test_window_of_identical_tokens():
    emb = emb_with(["x", "k"])
    ex = LFKExample(["x"] * 5, 2, ("k",), 1)
    feats = featurize([ex], emb)
    assert np.abs(feats.context_avg[0] - emb.lookup("x")).max() < 1e-15


def test_featurize_matches_loop_oracle():
    vocab = [f"w{i}" for i in range(9)] + ["k0", "k1"]
    emb = emb_with(vocab, dim=6, seed=1)
    anchors = (0, 1, 4, 7, 8)
    feats = featurize([LFKExample([f"w{i}" for i in range(9)], anchor, ("k0", "k1"), 0)
                       for anchor in anchors], emb)
    for row, anchor in enumerate(anchors):
        lo, hi = max(0, anchor - 2), min(9, anchor + 3)
        acc = np.zeros(6)
        count = 0
        for i in range(lo, hi):
            acc += emb.lookup(f"w{i}")
            count += 1
        assert np.abs(feats.context_avg[row] - acc / count).max() < 1e-12


def test_zero_init_predicts_negative_everywhere():
    emb = emb_with(["x", "k"])
    model = LinearBaseline(emb)
    assert model.predict(LFKExample(["x"], 0, ("k",), 1)) == 0


def test_baseline_learns_separable_data():
    # positives anchored on "trig" tokens, negatives on "noise" tokens
    rng = rng_for(2, "sep")
    emb = emb_with(["trig", "noise", "k0", "k1", "k2", "k3"], dim=8, seed=3)
    data = []
    for i in range(40):
        if i % 2:
            data.append(LFKExample(["trig"], 0, ("k0", "k1", "k2", "k3"), 1))
        else:
            data.append(LFKExample(["noise"], 0, ("k0", "k1", "k2", "k3"), 0))
    model = LinearBaseline(emb)
    result = train(model, data, data, TrainConfig(batch_size=10, epochs=10, seed=4))
    assert result.best_f1 == 1.0


def test_baseline_gradients_match_finite_differences():
    import sys

    sys.path.insert(0, "tests")
    from fd import central_diff, max_rel_error

    emb = emb_with(["a", "b", "c", "k0", "k1"], dim=5, seed=5)
    model = LinearBaseline(emb)
    rng = rng_for(6, "binit")
    model.weights.data[:] = rng.normal(size=model.weights.data.shape) * 0.1
    ex = LFKExample(["a", "b", "c"], 1, ("k0", "k1"), 1)
    with Tape() as tape:
        tape.backward(model.loss(ex))

    def f():
        return float(model.loss(ex).data)

    for p in (model.weights, model.bias):
        assert max_rel_error(p.grad, central_diff(f, p.data)) < 1e-6
