"""Checkpoint save/load: exact round-trips and byte stability."""

import json

import numpy as np
import pytest

from lfked.baseline import LinearBaseline
from lfked.checkpoint import load_checkpoint, save_checkpoint
from lfked.corpus import LFKExample, sha256_file
from lfked.encoding import EmbeddingTable, WordTable, write_embeddings
from lfked.metrics import evaluate
from lfked.models import Model, ModelConfig
from lfked.seeding import rng_for


def tiny_cfg(**kw):
    base = dict(head="attention", cfa=True, layers=1, windows=(2, 3), filters=3,
                dropout=0.0, word_dim=6, pos_dim=3, max_offset=4,
                attn_hidden=5, ffn_hidden=7, seed=13)
    base.update(kw)
    return ModelConfig(**base)


def tiny_emb(dim=6, seed=0):
    rng = rng_for(seed, "ckpt")
    vocab = [f"w{i}" for i in range(6)] + [f"k{i}" for i in range(4)]
    return EmbeddingTable({t: rng.normal(size=dim) for t in vocab}, dim)


def examples(k=8):
    return [
        LFKExample([f"w{i % 6}" for i in range(4)], j % 4,
                   ("k0", "k1", "k2", "k3"), j % 2)
        for j in range(k)
    ]


def test_model_roundtrip_bitwise(tmp_path):
    emb = tiny_emb()
    model = Model(tiny_cfg(), emb)
    # make the state distinctive
    model.params["ffn.out.b"].data[:] = [0.25, -0.75]
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    back = load_checkpoint(path, emb=emb)
    assert isinstance(back, Model)
    assert back.config == model.config
    for name, t in model.named_params().items():
        assert (back.named_params()[name].data == t.data).all(), name
    for ex in examples():
        assert (back.forward(ex).data == model.forward(ex).data).all()


def test_checkpoint_bytes_stable(tmp_path):
    emb = tiny_emb()
    model = Model(tiny_cfg(), emb)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_eval_identical_after_roundtrip(tmp_path):
    emb = tiny_emb()
    model = Model(tiny_cfg(seed=3), emb)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path, emb=emb)
    data = examples(10)
    a, b = evaluate(model, data), evaluate(back, data)
    assert (a.tp, a.fp, a.fn, a.f1) == (b.tp, b.fp, b.fn, b.f1)


def test_embedding_path_reference(tmp_path):
    emb = tiny_emb()
    emb_path = tmp_path / "emb.txt"
    write_embeddings(emb.vectors, emb_path)
    model = Model(tiny_cfg(), emb)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, emb_path=emb_path)
    back = load_checkpoint(path)  # embeddings resolved from the stored path
    ex = examples(1)[0]
    assert (back.forward(ex).data == model.forward(ex).data).all()


def test_embedding_digest_checked_on_load(tmp_path):
    emb = tiny_emb()
    emb_path = tmp_path / "emb.txt"
    write_embeddings(emb.vectors, emb_path)
    model = Model(tiny_cfg(), emb)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, emb_path=emb_path)
    stored = json.loads(path.read_text())["embeddings"]["sha256"]
    assert stored == sha256_file(emb_path)

    copy = tmp_path / "copy.txt"
    copy.write_bytes(emb_path.read_bytes())
    load_checkpoint(path, emb_path=copy)                 # same bytes, other path
    first, rest = emb_path.read_text().split("\n", 1)
    token, _, values = first.split(" ", 2)
    emb_path.write_text(f"{token} 0.5 {values}\n{rest}")  # one value changed
    for override in (None, emb_path):
        with pytest.raises(ValueError, match=f"sha256 .*{stored}"):
            load_checkpoint(path, emb_path=override)

    # a checkpoint written before the digest existed still loads
    doc = json.loads(path.read_text())
    del doc["embeddings"]["sha256"]
    path.write_text(json.dumps(doc))
    assert isinstance(load_checkpoint(path), Model)


def test_missing_embedding_reference_is_an_error(tmp_path):
    model = Model(tiny_cfg(), tiny_emb())
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="embedding"):
        load_checkpoint(path)


def test_baseline_roundtrip(tmp_path):
    emb = tiny_emb()
    model = LinearBaseline(emb)
    model.weights.data[:] = rng_for(1, "bw").normal(size=model.weights.data.shape)
    path = tmp_path / "b.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path, emb=emb)
    assert isinstance(back, LinearBaseline)
    assert (back.weights.data == model.weights.data).all()
    assert (back.bias.data == model.bias.data).all()


def test_word_table_roundtrip(tmp_path):
    emb = tiny_emb()
    vocab = [f"w{i}" for i in range(6)] + [f"k{i}" for i in range(4)]
    model = Model(tiny_cfg(), emb, words=WordTable(emb, vocab))
    model.words.matrix.data += 0.5
    path = tmp_path / "ft.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path, emb=emb)
    assert back.words is not None
    assert back.words.tokens == model.words.tokens
    assert (back.words.matrix.data == model.words.matrix.data).all()


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_dim_mismatch_rejected(tmp_path):
    model = Model(tiny_cfg(), tiny_emb())
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="dim"):
        load_checkpoint(path, emb=tiny_emb(dim=6, seed=9).__class__({}, 9))
