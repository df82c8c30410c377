"""Model building blocks, the four variants, and end-to-end gradients."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lfked import autodiff as ad
from lfked import models
from lfked.autodiff import Tape, Tensor
from lfked.corpus import LFKExample
from lfked.encoding import EmbeddingTable, WordTable
from lfked.models import (
    ACTIVATIONS,
    NONDECREASING,
    SCORE_TOKENS,
    Model,
    ModelConfig,
    _chunks,
    cfa_condition,
    cnn_layer,
    head_attention,
    head_concat,
    identity_cfa_surgery,
    init_params,
    param_shapes,
)
from lfked.seeding import rng_for
from lfked.training import Adadelta, batch_gradients

from fd import central_diff, max_rel_error
from lookups import gathered, lookups


def tiny_config(**kw):
    """The small shapes used for end-to-end gradient checking."""
    base = dict(
        head="attention",
        cfa=True,
        layers=2,
        windows=(2, 3),
        filters=3,
        dropout=0.0,
        word_dim=8,
        pos_dim=4,
        max_offset=5,
        attn_hidden=6,
        ffn_hidden=8,
        seed=11,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_emb(dim=8, seed=0):
    rng = rng_for(seed, "emb")
    vocab = [f"w{i}" for i in range(12)] + [f"k{i}" for i in range(6)]
    return EmbeddingTable({t: rng.normal(size=dim) for t in vocab}, dim)


def example(n=5, anchor=2, label=1):
    return LFKExample(
        tokens=[f"w{i}" for i in range(n)],
        anchor=anchor,
        keywords=("k0", "k1", "k2", "k3"),
        label=label,
    )


# --- config -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="head"):
        tiny_config(head="pool").validate()
    with pytest.raises(ValueError, match="layers"):
        tiny_config(layers=5).validate()
    with pytest.raises(ValueError, match="windows"):
        tiny_config(windows=()).validate()
    with pytest.raises(ValueError, match="duplicate"):
        tiny_config(windows=(2, 2)).validate()
    with pytest.raises(ValueError, match="dropout"):
        tiny_config(dropout=1.0).validate()
    with pytest.raises(ValueError, match="conv_act"):
        tiny_config(conv_act="softplus").validate()
    # the only guard of the position table's shape
    with pytest.raises(ValueError, match="pos_dim must be positive"):
        tiny_config(pos_dim=0).validate()
    with pytest.raises(ValueError, match="max_offset must be nonnegative"):
        tiny_config(max_offset=-1).validate()


def test_config_variants():
    cfg = tiny_config()
    assert cfg.with_variant("concat").variant == "concat"
    assert cfg.with_variant("attention-cfa").cfa is True
    assert cfg.with_variant("concat-cfa").head == "concat"
    with pytest.raises(ValueError, match="unknown variant"):
        cfg.with_variant("maxpool")


def test_cfa_layer_selection():
    assert tiny_config(layers=3).cfa_layers() == [1, 2, 3]
    assert tiny_config(layers=3, cfa_last=False).cfa_layers() == [1, 2]
    assert tiny_config(layers=1, cfa_last=False).cfa_layers() == []
    assert tiny_config(cfa=False).cfa_layers() == []


def test_param_shapes_and_shared_init():
    cfg = tiny_config(head="concat", cfa=False, layers=1)
    shapes = param_shapes(cfg)
    assert shapes["conv1.w2.filters"] == (2, 12, 3)
    assert shapes["ffn.hidden.w"] == (8, cfg.feature_width + cfg.word_dim)
    assert "attn.u.w" not in shapes and "cfa1.gamma.w" not in shapes
    assert list(shapes)[-1] == "pos.table"
    assert shapes["pos.table"] == (2 * cfg.max_offset + 1, cfg.pos_dim)

    # same seed + same name -> identical values across different configs
    plain = init_params(cfg)
    with_cfa = init_params(tiny_config(head="concat", cfa=True, layers=1))
    for name in plain:
        assert (plain[name].data == with_cfa[name].data).all(), name
    assert "cfa1.gamma.w" in with_cfa
    want = rng_for(cfg.seed, "init", "pos.table").uniform(-0.1, 0.1, shapes["pos.table"])
    assert (plain["pos.table"].data == want).all()


def test_paper_scale_feature_width():
    # 4 window sizes with 100 filters each -> 400 features; concat head
    # appends a 300-dim keyword vector -> R has 700 entries.
    cfg = ModelConfig(head="concat", cfa=False)
    assert cfg.feature_width == 400
    assert cfg.repr_width == 700


# --- building blocks ---------------------------------------------------------


def test_cnn_layer_zero_input_gives_activated_bias():
    rng = rng_for(0, "t")
    h = Tensor(np.zeros((4, 5)))
    wp = []
    for w in (2, 3):
        wp.append((Tensor(rng.normal(size=(w, 5, 3))), Tensor(rng.normal(size=3))))
    out = cnn_layer(h, [4], wp, ACTIVATIONS["tanh"])
    assert out.shape == (4, 6)
    want = np.concatenate([np.tanh(wp[0][1].data), np.tanh(wp[1][1].data)])
    assert np.abs(out.data - want).max() < 1e-15


def test_cnn_layer_matches_per_window_oracle():
    rng = rng_for(1, "t")
    h = Tensor(rng.normal(size=(6, 4)))
    wp = [
        (Tensor(rng.normal(size=(w, 4, 2))), Tensor(rng.normal(size=2)))
        for w in (1, 2, 3)
    ]
    out = cnn_layer(h, [6], wp, ACTIVATIONS["tanh"])
    pieces = [np.tanh(ad.conv1d_same(h, [(f, b)]).data) for f, b in wp]
    assert np.abs(out.data - np.concatenate(pieces, axis=1)).max() < 1e-12


def test_cfa_identity_and_degenerate_cases():
    rng = rng_for(2, "t")
    h = Tensor(rng.normal(size=(5, 4)))
    v = Tensor(rng.normal(size=(1, 3)))
    zeros_w = Tensor(np.zeros((4, 3)))
    ones_b = Tensor(np.ones(4))
    zeros_b = Tensor(np.zeros(4))
    ident = ACTIVATIONS["identity"]

    out = cfa_condition(h, [5], v, zeros_w, ones_b, zeros_w, zeros_b, ident)
    assert (out.data == h.data).all()

    # gamma = 0: output is beta at every position, independent of h
    beta_b = Tensor(rng.normal(size=4))
    out = cfa_condition(h, [5], v, zeros_w, zeros_b, zeros_w, beta_b, ident)
    assert (out.data == np.tile(beta_b.data, (5, 1))).all()


def test_cfa_matches_position_loop_oracle():
    rng = rng_for(3, "t")
    h = Tensor(rng.normal(size=(5, 4)))
    v = Tensor(rng.normal(size=(1, 3)))
    gw, gb = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=4))
    bw, bb = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=4))
    out = cfa_condition(h, [5], v, gw, gb, bw, bb, ACTIVATIONS["sigmoid"])
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    gamma = sig(gw.data @ v.data[0] + gb.data)
    beta = sig(bw.data @ v.data[0] + bb.data)
    for j in range(5):
        assert np.abs(out.data[j] - (gamma * h.data[j] + beta)).max() < 1e-12


def test_head_concat():
    h = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
    v = Tensor(np.array([[7.0, 8.0, 9.0]]))
    out = head_concat(h, [2], v)
    assert out.data.tolist() == [[3.0, 5.0, 7.0, 8.0, 9.0]]
    single = head_concat(Tensor(np.array([[4.0, 6.0]])), [1], v)
    assert single.data.tolist() == [[4.0, 6.0, 7.0, 8.0, 9.0]]


def adjacent_floats():
    """Sorted runs of 2000 adjacent floats on each side of 0, the subnormal
    and normal boundary, the regions where sigmoid's e / (1 + e) branch
    falls, where tanh saturates (near 19.06) and where exp overflows, and
    the largest finite floats; with both zeros and both infinities."""
    centers = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-8, 0.5, 1.0,
                        1.9311779748190396, 19.06, 36.0, 709.8, 1.7976931348623157e308])
    runs = [np.concatenate([centers, -centers])]
    with np.errstate(over="ignore"):     # the largest floats step to inf
        for toward in (np.inf, -np.inf):
            x = runs[0]
            for _ in range(2000):
                x = np.nextafter(x, toward)
                runs.append(x)
    return np.sort(np.concatenate(runs + [np.array([-0.0, 0.0, np.inf, -np.inf])]))


def test_pool_first_activations_never_decrease():
    # models.NONDECREASING lets plain concat pool before its last activation;
    # that is exact only if max(act(x)) is act(max(x)) bit for bit
    assert NONDECREASING <= set(ACTIVATIONS) and "sigmoid" not in NONDECREASING
    grid = adjacent_floats()
    for name in sorted(NONDECREASING):
        y = ACTIVATIONS[name](Tensor(grid)).data
        assert (y[1:] >= y[:-1]).all(), name
    falls = ACTIVATIONS["sigmoid"](Tensor(grid)).data
    assert (falls[1:] < falls[:-1]).any()

    rng = rng_for(5, "pool-first")
    lengths = [1, 2, 7, 40]
    rows = grid[rng.integers(len(grid), size=(sum(lengths), 300))]
    rows[rng.random(rows.shape) < 0.002] = np.nan
    rows[:, :20] = rng.choice([-0.0, 0.0, -5e-324, 5e-324], size=(len(rows), 20))
    for name in sorted(NONDECREASING):
        act = ACTIVATIONS[name]
        pooled_last = ad.maxpool_time(act(Tensor(rows)), lengths).data
        pooled_first = act(ad.maxpool_time(Tensor(rows), lengths)).data
        assert np.array_equal(pooled_last.view(np.uint64), pooled_first.view(np.uint64)), name


def attention_params(rng, F=4, d=3, hidden=6):
    return (
        Tensor(rng.normal(size=(F, hidden))),
        Tensor(rng.normal(size=hidden)),
        Tensor(rng.normal(size=(hidden, d + F))),
        Tensor(rng.normal(size=hidden)),
    )


def test_head_attention_single_position():
    rng = rng_for(4, "t")
    h = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 3)))
    aux = {}
    out = head_attention(h, [1], v, [0], *attention_params(rng), ACTIVATIONS["tanh"],
                         aux=aux)
    assert aux["alpha"].tolist() == [1.0]
    assert np.abs(out.data - h.data[0]).max() < 1e-15


def test_head_attention_identical_positions_uniform():
    rng = rng_for(5, "t")
    row = rng.normal(size=4)
    h = Tensor(np.tile(row, (6, 1)))
    v = Tensor(rng.normal(size=(1, 3)))
    aux = {}
    out = head_attention(h, [6], v, [3], *attention_params(rng), ACTIVATIONS["tanh"],
                         aux=aux)
    assert np.abs(aux["alpha"] - 1.0 / 6).max() < 1e-12
    assert np.abs(out.data - row).max() < 1e-12


def test_head_attention_matches_oracle():
    rng = rng_for(6, "t")
    h = Tensor(rng.normal(size=(5, 4)))
    v = Tensor(rng.normal(size=(1, 3)))
    uw, ub, cw, cb = attention_params(rng)
    aux = {}
    out = head_attention(h, [5], v, [2], uw, ub, cw, cb, ACTIVATIONS["tanh"], aux=aux)

    keys = np.tanh(h.data @ uw.data + ub.data)
    query = np.tanh(cw.data @ np.concatenate([v.data[0], h.data[2]]) + cb.data)
    scores = keys @ query
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    assert np.abs(aux["alpha"] - alpha).max() < 1e-12
    assert np.abs(out.data - alpha @ h.data).max() < 1e-12
    assert abs(aux["alpha"].sum() - 1.0) < 1e-9


def test_head_attention_anchor_range():
    h = Tensor(np.zeros((2, 4)))
    v = Tensor(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="anchor 2"):
        head_attention(h, [2], v, [2], *attention_params(rng_for(0, "t")), ACTIVATIONS["tanh"])


# --- full models --------------------------------------------------------------


def test_forward_shape_for_all_variants_and_lengths():
    emb = tiny_emb()
    for variant in ("concat", "attention", "concat-cfa", "attention-cfa"):
        model = Model(tiny_config().with_variant(variant), emb)
        for n in (1, 2, 4, 9):
            logits = model.forward(example(n=n, anchor=0))
            assert logits.shape == (2,), (variant, n)


def test_eval_forward_deterministic():
    model = Model(tiny_config(), tiny_emb())
    a = model.forward(example()).data
    b = model.forward(example()).data
    assert (a == b).all()


def test_train_forward_needs_rng_and_applies_dropout():
    model = Model(tiny_config(dropout=0.5), tiny_emb())
    with pytest.raises(ValueError, match="rng"):
        model.forward(example(), train=True)
    a = model.forward(example(), train=True, rng=rng_for(0, "d")).data
    b = model.forward(example(), train=True, rng=rng_for(1, "d")).data
    assert not (a == b).all()


def test_concat_pipeline_matches_hand_wired_oracle():
    # cfa off, concat head: wire the same computation directly from autodiff
    # ops, activating before the pooling, and compare.
    from lfked.encoding import keyword_repr

    emb = tiny_emb()
    ex = example(n=6, anchor=3)
    for conv_act in ("tanh", "relu", "sigmoid"):
        cfg = tiny_config(head="concat", cfa=False, layers=2, conv_act=conv_act)
        act = ACTIVATIONS[conv_act]
        model = Model(cfg, emb)
        got = model.forward(ex).data

        h = gathered(lookups(ex.tokens, [len(ex.tokens)], [ex.anchor], emb,
                             model.params["pos.table"]))
        v_k = keyword_repr([ex.keywords], emb)
        p = model.params
        for i in (1, 2):
            h = ad.concat(
                [act(ad.conv1d_same(h, [(p[f"conv{i}.w{w}.filters"], p[f"conv{i}.w{w}.bias"])]))
                 for w in cfg.windows],
                axis=1,
            )
        r = ad.concat([ad.maxpool_time(h), v_k], axis=1)
        hidden = act(ad.affine(p["ffn.hidden.w"], r, p["ffn.hidden.b"]))
        want = ad.affine(p["ffn.out.w"], hidden, p["ffn.out.b"]).data[0]
        assert (got == want).all(), conv_act


def test_identity_cfa_surgery_bitwise_equality():
    # concat-cfa conditions its last layer, so it activates before pooling
    # where plain concat pools first; with cfa_last off both pool first
    emb = tiny_emb()
    for conv_act in ("tanh", "relu", "sigmoid"):
        for head, cfa_last in (("concat", True), ("attention", True), ("concat", False)):
            plain = Model(tiny_config(head=head, cfa=False, conv_act=conv_act), emb)
            conditioned = Model(tiny_config(head=head, cfa=True, cfa_act="identity",
                                            cfa_last=cfa_last, layers=2, conv_act=conv_act),
                                emb)
            identity_cfa_surgery(conditioned)
            for n, anchor in ((1, 0), (5, 2), (8, 7)):
                ex = example(n=n, anchor=anchor)
                a = plain.forward(ex).data
                b = conditioned.forward(ex).data
                assert (a == b).all(), (conv_act, head, cfa_last, n)


def test_surgery_requires_identity_activation():
    model = Model(tiny_config(cfa_act="sigmoid"), tiny_emb())
    with pytest.raises(ValueError, match="identity"):
        identity_cfa_surgery(model)
    plain = Model(tiny_config(cfa=False), tiny_emb())
    with pytest.raises(ValueError, match="no CFA"):
        identity_cfa_surgery(plain)


def test_alpha_sums_to_one_across_random_examples():
    model = Model(tiny_config(), tiny_emb())
    rng = rng_for(7, "alpha")
    for _ in range(50):
        n = int(rng.integers(1, 12))
        ex = example(n=n, anchor=int(rng.integers(n)))
        aux = {}
        model.forward(ex, aux=aux)
        alpha = aux["alpha"]
        assert alpha.shape == (n,)
        assert (alpha >= 0).all()
        assert abs(alpha.sum() - 1.0) < 1e-9


def test_predict_tie_is_negative():
    model = Model(tiny_config(), tiny_emb())
    model.params["ffn.out.w"].data[:] = 0.0
    model.params["ffn.out.b"].data[:] = 0.0
    assert model.predict(example()) == 0
    batch = [example(n=n, anchor=n - 1) for n in (1, 2, 9)]
    assert model.predict_batch(batch).tolist() == [0, 0, 0]


# --- packed scoring -----------------------------------------------------------


def mixed_batch():
    """Lengths 1, 2, 9, 30 and 60 with anchors at both edges; keyword sets of
    different sizes."""
    return [
        LFKExample([f"w{(i * 5 + n) % 12}" for i in range(n)], anchor,
                   tuple(f"k{j}" for j in range(1 + n % 5)), n % 2)
        for n in (1, 2, 9, 30, 60) for anchor in (0, n - 1)
    ]


def shared_batch():
    """mixed_batch(), then each of its contexts (tokens and anchor) again in
    reverse order, with another keyword set and the other label."""
    batch = mixed_batch()
    return batch + [replace(ex, keywords=("k2", "k4", "k5"), label=1 - ex.label)
                    for ex in reversed(batch)]


def assert_packed_matches_forward(model, batch):
    ref = np.stack([model.forward(ex).data for ex in batch])
    got = model.logits_batch(batch)
    assert got.shape == (len(batch), 2)
    err = np.abs(got - ref).max() / np.abs(ref).max()
    assert err <= 1e-12, f"relative error {err:.3e}"
    assert model.predict_batch(batch).tolist() == \
        [1 if r[1] > r[0] else 0 for r in ref]
    assert [model.predict(ex) for ex in batch] == model.predict_batch(batch).tolist()


CASES = ["concat", "attention", "concat-cfa", "attention-cfa", "layers2-cfa-not-last",
         "relu-identity", "finetune-words"]


def case_model(case):
    """The model of one CASES entry, over tiny_emb(), for mixed_batch()."""
    emb = tiny_emb()
    config = tiny_config(windows=(2, 5), dropout=0.5)
    words = None
    if case == "layers2-cfa-not-last":
        config = tiny_config(windows=(1, 2, 5), cfa_last=False)
    elif case == "relu-identity":
        config = tiny_config(windows=(5, 2), conv_act="relu", cfa_act="identity")
    elif case == "finetune-words":
        # w11 and k3 are left out of the table: they keep their frozen vectors
        vocab = [t for ex in mixed_batch() for t in ex.tokens + list(ex.keywords)]
        words = WordTable(emb, [t for t in vocab if t not in ("w11", "k3")])
        words.matrix.data += rng_for(1, "ft").normal(scale=0.1, size=words.matrix.shape)
    else:
        config = config.with_variant(case)
    return Model(config, emb, words=words)


@pytest.mark.parametrize("case", CASES)
def test_predict_batch_matches_per_example_forward(case):
    # Window 5 is wider than the 1- and 2-token sentences; one call packs all
    # lengths together.
    assert_packed_matches_forward(case_model(case), mixed_batch())


# Logits and loss gradients recorded from the per-example forward that the
# packed forward_batch replaced; see its "about" entry.
REFERENCE = json.loads((Path(__file__).parent / "forward_reference.json").read_text())


@pytest.mark.parametrize("case", CASES)
def test_logits_match_the_recorded_per_example_forward(case):
    model, batch = case_model(case), mixed_batch()
    ref = np.array(REFERENCE["logits"][case])
    for got in (np.stack([model.forward(ex).data for ex in batch]), model.logits_batch(batch)):
        err = np.abs(got - ref).max() / np.abs(ref).max()
        assert err <= 1e-12, f"relative error {err:.3e}"
    assert model.predict_batch(batch).tolist() == [int(r[1] > r[0]) for r in ref]


def _forward_batch_grads(model, batch, seed=4):
    """_batch_grads of one tape over forward_batch(batch), row by row."""
    named = model.named_params()
    ad.zero_grads(named.values())
    with Tape() as tape:
        logits = model.forward_batch(batch, train=True, rng=rng_for(seed, "dropout", 1))
        total = ad.cross_entropy(ad.take_rows(logits, 0), batch[0].label)
        for i, ex in enumerate(batch[1:], start=1):
            total = ad.add(total, ad.cross_entropy(ad.take_rows(logits, i), ex.label))
        tape.backward(ad.mul(total, Tensor(1.0 / len(batch))))
    return {k: p.grad.copy() for k, p in named.items()}


@pytest.mark.parametrize("tape", ["per-example", "forward_batch"])
@pytest.mark.parametrize("case", ["attention-cfa", "finetune-words"])
def test_gradients_match_the_recorded_per_example_forward(case, tape):
    # Error relative to the largest gradient entry of any parameter: softmax
    # ignores a shift, so attn.u.b's gradient nearly cancels and a
    # per-parameter norm would measure rounding noise.
    model, batch = case_model(case), mixed_batch()
    if tape == "per-example":
        grads = _batch_grads(model, batch, tape_size=len(batch))
    else:
        grads = _forward_batch_grads(model, batch)
    ref = {k: np.array(v) for k, v in REFERENCE["grads"][case]["params"].items()}
    assert grads.keys() == ref.keys()
    scale = max(np.abs(v).max() for v in ref.values())
    err = max(np.abs(grads[k].ravel() - ref[k]).max() for k in ref) / scale
    assert err <= 1e-12, f"relative error {err:.3e}"


@pytest.mark.parametrize("case", CASES)
def test_shared_contexts_match_the_per_example_forward_and_tapes(case):
    # Every context of shared_batch() is scored twice. One forward_batch tape
    # hands each context's rows to both examples; the gradients must sum
    # both, as the two examples' own tapes do.
    model, batch = case_model(case), shared_batch()
    assert_packed_matches_forward(model, batch)
    ref = _batch_grads(model, batch, tape_size=1)
    grads = _forward_batch_grads(model, batch)
    assert grads.keys() == ref.keys()
    scale = max(np.abs(v).max() for v in ref.values())
    err = max(np.abs(grads[k] - ref[k]).max() for k in ref) / scale
    assert err <= 1e-12, f"relative error {err:.3e}"


def test_predict_batch_spans_chunks_and_long_sentences():
    # More tokens than one chunk holds, and one sentence longer than a chunk.
    long_n = SCORE_TOKENS + 40
    batch = mixed_batch() * 4 + [
        LFKExample([f"w{i % 12}" for i in range(long_n)], long_n - 1, ("k1",), 1)
    ] + mixed_batch()
    chunks = [c for c, _ in _chunks(batch)]
    assert [ex for c in chunks for ex in c] == batch
    assert len(chunks) > 2
    for c in chunks:
        assert len(c) == 1 or sum(len(ex.tokens) for ex in c) <= SCORE_TOKENS
    assert [len(c) for c in chunks if len(c[0].tokens) == long_n] == [1]
    model = Model(tiny_config(windows=(2, 5)), tiny_emb())
    assert_packed_matches_forward(model, batch)


def test_concat_chunks_count_each_context_once():
    # Plain concat hands its contexts' rows out only after pooling, so its
    # chunks hold SCORE_TOKENS tokens of distinct contexts and every layer at
    # most that many rows; other models hand rows out, and count each example.
    long = LFKExample([f"w{i % 12}" for i in range(SCORE_TOKENS + 40)], 3, ("k1",), 1)
    batch = shared_batch() * 8 + [long, replace(long, keywords=("k2",)), long] + shared_batch()
    by_example = list(_chunks(batch))
    chunks = [c for c, _ in _chunks(batch, by_context=True)]
    assert [ex for c in chunks for ex in c] == batch
    assert all(keys == [(tuple(ex.tokens), ex.anchor) for ex in c]
               for c, keys in _chunks(batch, by_context=True))
    assert 2 < len(chunks) < len(by_example)
    for c in chunks:
        contexts = {(tuple(ex.tokens), ex.anchor): len(ex.tokens) for ex in c}
        assert len(contexts) == 1 or sum(contexts.values()) <= SCORE_TOKENS
    assert [c for c in chunks if long in c] == [[long, replace(long, keywords=("k2",)), long]]
    assert_packed_matches_forward(case_model("concat"), batch)


def _spy_taps(monkeypatch, calls):
    """Log each Taps built and each layer-1 run from taps to `calls`."""
    class Spied(ad.Taps):
        def __init__(self, *args):
            calls.append("Taps")
            super().__init__(*args)

        def conv(self, *args):
            calls.append("Taps.conv")
            return super().conv(*args)

    monkeypatch.setattr(ad, "Taps", Spied)


def test_layer_one_runs_from_taps_on_every_route(monkeypatch):
    # A forward builds taps for its own examples, a training step builds one
    # set for all its examples, and a scoring pass builds its position taps
    # once and adds each chunk's word taps: every route runs layer 1 through
    # conv1d_tables, which calls no other conv op, and calls encode once per
    # set of word taps.
    calls, active = [], []
    for name in ("conv1d_same", "conv1d_tables"):
        def spy(*args, _name=name, _op=getattr(ad, name), **kwargs):
            calls.append("/".join(active + [_name]))
            active.append(_name)
            try:
                return _op(*args, **kwargs)
            finally:
                active.pop()
        monkeypatch.setattr(ad, name, spy)
    _spy_taps(monkeypatch, calls)
    monkeypatch.setattr(models, "encode", lambda *args, _encode=models.encode: (
        calls.append("encode"), _encode(*args))[1])
    model = case_model("finetune-words")
    nine = [LFKExample([f"w{i}" for i in range(9)], a, ("k0", "k1"), a % 2) for a in (0, 4, 8)]
    layers = ["conv1d_tables", "Taps.conv", "conv1d_same"]
    model.forward(nine[0])
    assert calls == ["Taps", "encode"] + layers
    calls.clear()
    batch_gradients(model, model.named_params().values(), nine, rng_for(0, "dropout", 1))
    assert calls == ["Taps", "encode"] + layers * len(nine)
    calls.clear()
    batch = mixed_batch() * 3
    chunks = len(list(_chunks(batch)))
    assert chunks > 1
    model.logits_batch(batch)
    assert calls == ["Taps"] + (["encode"] + layers) * chunks


def test_anchors_outside_their_sentence_are_refused_on_every_route():
    model, batch = case_model("concat"), mixed_batch()
    bad = LFKExample(["w0", "w1"], 3, ("k0",), 1)
    routes = [lambda: model.forward(bad), lambda: model.logits_batch(batch + [bad]),
              lambda: batch_gradients(model, model.named_params().values(), batch + [bad],
                                      rng_for(0, "dropout", 1))]
    for route in routes:
        with pytest.raises(ValueError, match="anchor 3 outside 0..1"):
            route()


@pytest.mark.parametrize("case", ["attention-cfa", "concat"])
def test_position_taps_are_built_once_per_pass_and_never_stale(monkeypatch, case):
    # Every dev evaluation follows an optimizer step, which changes the
    # position table and the layer-1 filters in place.
    calls = []
    _spy_taps(monkeypatch, calls)
    model, batch = case_model(case), mixed_batch() * 6
    assert len(list(_chunks(batch))) > 2
    model.logits_batch(batch)
    assert calls.count("Taps") == 1
    assert calls.count("Taps.conv") == len(list(_chunks(
        batch, by_context=model.config.head == "concat" and not model.config.cfa)))
    rng = rng_for(2, "nudge")
    nudges = [(name, rng.normal(scale=0.05, size=model.named_params()[name].shape))
              for name in ("pos.table", "conv1.w2.filters", "conv1.w5.filters", "conv1.w5.bias")]
    for k, (name, nudge) in enumerate(nudges):
        before = model.logits_batch(batch)
        model.named_params()[name].data += nudge
        fresh = case_model(case)
        for earlier, d in nudges[:k + 1]:
            fresh.named_params()[earlier].data += d
        got = model.logits_batch(batch)
        assert not np.array_equal(got, before)
        np.testing.assert_array_equal(got, fresh.logits_batch(batch))


@pytest.mark.parametrize("case", ["attention-cfa", "concat", "finetune-words"])
def test_step_taps_are_built_once_per_step_and_never_stale(monkeypatch, case):
    # Each Adadelta step changes the layer-1 weights in place; the next
    # step's taps are built from them, so its gradients are bitwise those of
    # a fresh model that holds the same parameters.
    calls = []
    _spy_taps(monkeypatch, calls)
    model, batch = case_model(case), shared_batch()
    named = model.named_params()
    opt = Adadelta(named)
    for _ in range(3):
        calls.clear()
        batch_gradients(model, named.values(), batch, rng_for(0, "dropout", 1))
        assert calls == ["Taps"] + ["Taps.conv"] * len(batch)
        got = {name: t.grad.copy() for name, t in named.items()}
        fresh = case_model(case)
        for name, t in fresh.named_params().items():
            t.data[:] = named[name].data
        batch_gradients(fresh, fresh.named_params().values(), batch, rng_for(0, "dropout", 1))
        for name, t in fresh.named_params().items():
            np.testing.assert_array_equal(t.grad, got[name], err_msg=name)
        opt.step()


@pytest.mark.parametrize("case", ["attention-cfa", "finetune-words"])
def test_step_taps_of_repeated_contexts_are_those_of_their_first_occurrences(case):
    # A repeated context brings no token its first occurrence did not bring
    # first, and no new offset or anchor, so grouping a step's examples by
    # context could not change its taps.
    model, batch = case_model(case), shared_batch()
    firsts = {}
    for ex in batch:
        firsts.setdefault((tuple(ex.tokens), ex.anchor), ex)
    distinct = list(firsts.values())
    assert 1 < len(distinct) < len(batch)
    got, want = model.step_taps(batch), model.step_taps(distinct)

    def bits(arrays):
        return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]

    assert list(got.vocab.items()) == list(want.vocab.items())
    assert got.reach == want.reach
    assert bits([got.vectors]) == bits([want.vectors])
    for g, w in zip(got.tables, want.tables, strict=True):
        assert g[:2] == w[:2] and bits(g[2:]) == bits(w[2:])
    assert bits(got.products) == bits(want.products)
    if case == "finetune-words":
        assert got.trained[0] is want.trained[0]
        assert bits(got.trained[1:]) == bits(want.trained[1:])


@pytest.mark.parametrize("case", ["attention-cfa", "finetune-words"])
def test_taped_forward_with_position_taps_keeps_layer_one_gradients(case):
    # A scoring pass's position taps passed to a taped forward_batch give
    # every parameter the gradient that taps built for the batch alone give.
    model, batch = case_model(case), shared_batch()
    named = model.named_params()
    probe = Tensor(rng_for(3, "probe").normal(size=(len(batch), 2)))

    def grads(taps):
        ad.zero_grads(named.values())
        with Tape() as tape:
            logits = model.forward_batch(batch, taps=taps)
            tape.backward(ad.mean(ad.mul(logits, probe)))
        return {name: t.grad.copy() for name, t in named.items()}

    lengths = [len(ex.tokens) for ex in batch]
    anchors = [ex.anchor for ex in batch]
    got, want = grads(model._position_taps(lengths, anchors)), grads(None)
    largest = max(np.abs(g).max() for g in want.values())
    for name, g in want.items():
        assert np.abs(g).max() > 0, name
        assert np.abs(got[name] - g).max() <= 1e-12 * largest, name


def test_position_taps_refuse_offsets_outside_their_reach():
    model = case_model("concat")
    taps = ad.Taps(model._layer_windows(1), model.params["pos.table"], -2, 2).with_words(
        np.ones((3, 8)), {"a": 0, "b": 1, "c": 2})
    with pytest.raises(ValueError, match="offsets -1..3 outside the -2..2"):
        ad.conv1d_tables(taps, [0, 1, 2, 0, 1], [5], [1])
    assert ad.conv1d_tables(taps, [0, 1, 2, 0, 1], [5], [2]).shape == (5, 6)


# The ops one training example records, in order, before contexts were
# shared; case_model's two layers, windows (2, 5). Layer 1 records one
# conv1d_tables rule, and plain concat activates its last layer after
# pooling (models.NONDECREASING).
STEP_OPS = {
    "attention-cfa": "conv1d_tables tanh affine sigmoid affine sigmoid "
                     "scale_shift_rows conv1d_same tanh affine sigmoid affine sigmoid "
                     "scale_shift_rows linear_rows tanh take_rows concat affine tanh "
                     "row_scores softmax weighted_row_sum mul affine tanh affine take_rows "
                     "cross_entropy mul",
    "concat": "conv1d_tables tanh conv1d_same maxpool_time tanh concat mul "
              "affine tanh affine take_rows cross_entropy mul",
}


@pytest.mark.parametrize("case,hand_out_before", [("attention-cfa", "affine"),
                                                  ("concat", "concat")])
def test_shared_contexts_add_one_take_rows_and_nothing_else(monkeypatch, case, hand_out_before):
    recorded = []
    record = Tape._record
    monkeypatch.setattr(Tape, "_record", lambda tape, rule: (
        recorded.append(rule.__qualname__.split(".")[0]), record(tape, rule)))
    model = case_model(case)
    nine = [LFKExample([f"w{i}" for i in range(9)], a, ("k0", "k1"), a % 2) for a in (0, 4)]
    batch_gradients(model, model.named_params().values(), nine, rng_for(0, "dropout", 1))
    assert recorded == STEP_OPS[case].split() * 2

    def forward_ops(batch):
        recorded.clear()
        with Tape():
            model.forward_batch(batch, train=True, rng=rng_for(0, "dropout", 1))
        return list(recorded)

    distinct = forward_ops(nine)
    # the first op that reads V_K gets each example's rows from one take_rows
    at = distinct.index(hand_out_before, distinct.index("tanh"))
    shared = forward_ops([nine[0], replace(nine[0], keywords=("k2",))])
    assert shared == distinct[:at] + ["take_rows"] + distinct[at:]


def test_predict_batch_anchor_out_of_range_raises():
    model = Model(tiny_config(), tiny_emb())
    with pytest.raises(ValueError, match="anchor 5 outside 0..4"):
        model.predict_batch([example(n=5, anchor=4), example(n=5, anchor=5)])
    with pytest.raises(ValueError, match="anchor -1"):
        model.predict_batch([example(n=3, anchor=-1)])


def test_no_dead_parameters_on_attention_cfa_batch():
    # Attention-CFA exercises every parameter family (conv, cfa, attention,
    # ffn, position table); each must see nonzero gradient on a small batch.
    emb = tiny_emb()
    model = Model(tiny_config(), emb)
    batch = [example(n=5, anchor=i % 5, label=i % 2) for i in range(8)]
    with Tape() as tape:
        total = model.loss(batch[0])
        for ex in batch[1:]:
            total = ad.add(total, model.loss(ex))
        tape.backward(total)
    for name, p in model.named_params().items():
        assert np.abs(p.grad).sum() > 0, f"dead parameter {name}"


def test_word_table_gets_gradient_when_finetuning():
    emb = tiny_emb()
    ex = example()
    words = WordTable(emb, ex.tokens + list(ex.keywords))
    model = Model(tiny_config(), emb, words=words)
    with Tape() as tape:
        tape.backward(model.loss(ex))
    assert np.abs(words.matrix.grad).sum() > 0
    assert "words.matrix" in model.named_params()


def _batch_grads(model, batch, tape_size, seed=4):
    """Summed gradients of one training step's loss, mean cross-entropy over
    the batch with dropout on, recorded `tape_size` examples per tape."""
    named = model.named_params()
    ad.zero_grads(named.values())
    rng = rng_for(seed, "dropout", 1)
    scale = Tensor(1.0 / len(batch))
    sums = {k: np.zeros(p.data.shape) for k, p in named.items()}
    for start in range(0, len(batch), tape_size):
        with Tape() as tape:
            losses = [model.loss(ex, train=True, rng=rng)
                      for ex in batch[start:start + tape_size]]
            total = losses[0]
            for loss in losses[1:]:
                total = ad.add(total, loss)
            tape.backward(ad.mul(total, scale))
        for k, p in named.items():
            sums[k] += p.grad
            p.zero_grad()
    return sums


@pytest.mark.parametrize("variant", ["concat", "attention", "concat-cfa",
                                     "attention-cfa", "finetune-words"])
def test_batch_gradients_equal_sum_of_per_example_tapes(variant):
    # Weight gradient factors queued over a whole-batch tape are summed once,
    # when .grad is read; they must equal the sum of one-example tapes. Lengths 1 and 2 are shorter
    # than window 5, and anchors sit at both sentence edges.
    emb = tiny_emb()
    batch = [
        LFKExample([f"w{i % 12}" for i in range(n)], anchor, ("k0", "k1", "k2"), label)
        for n, anchor, label in [(1, 0, 1), (2, 1, 0), (9, 0, 1), (9, 8, 0),
                                 (30, 29, 1), (30, 0, 0)]
    ]
    config = tiny_config(windows=(2, 5), dropout=0.5)
    words = None
    if variant == "finetune-words":
        words = WordTable(emb, [t for ex in batch for t in ex.tokens + list(ex.keywords)])
    else:
        config = config.with_variant(variant)
    model = Model(config, emb, words=words)
    batched = _batch_grads(model, batch, tape_size=len(batch))
    single = _batch_grads(model, batch, tape_size=1)
    assert batched.keys() == single.keys()
    for name, ref in single.items():
        assert np.abs(ref).sum() > 0, f"dead parameter {name}"
        err = np.linalg.norm(batched[name] - ref) / np.linalg.norm(ref)
        assert err <= 1e-12, f"{variant} {name}: relative error {err:.3e}"


def test_embedding_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="word_dim"):
        Model(tiny_config(word_dim=9), tiny_emb(dim=8))


# --- end-to-end gradient check -------------------------------------------------


@pytest.mark.parametrize("variant", ["concat", "attention", "concat-cfa", "attention-cfa"])
def test_end_to_end_gradients_match_finite_differences(variant):
    # Floor 1e-6 here, not the 1e-8 used for single ops: central differences
    # of an O(1) loss carry ~1e-11 roundoff, and whole-model parameters can
    # have legitimately tiny gradients at init.
    emb = tiny_emb()
    model = Model(tiny_config().with_variant(variant), emb)
    ex = example(n=5, anchor=2, label=1)

    with Tape() as tape:
        tape.backward(model.loss(ex))

    def loss_value():
        return float(model.loss(ex).data)

    worst = 0.0
    for name, p in model.named_params().items():
        numeric = central_diff(loss_value, p.data)
        worst = max(worst, max_rel_error(p.grad, numeric, floor=1e-6))
    assert worst < 1e-4, f"{variant}: max rel err {worst:.3e}"
