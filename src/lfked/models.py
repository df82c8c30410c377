"""The four classifier variants over keyword-conditioned sentence encodings.

A model stacks same-length CNN layers over the encoded sentence, optionally
modulates each layer's features by the keyword representation (a per-feature
scale and shift predicted from V_K: the CFA step), then reduces the sequence
to a single vector R with one of two heads:

  concat:    R = [maxpool over time, V_K]
  attention: R = sum_i alpha_i h_i with alpha from a keyword+anchor query

R passes through dropout (training only) and a one-hidden-layer FFN ending in
two logits. Variant names: concat, attention, concat-cfa, attention-cfa.

`Model.forward_batch` is the one forward: it packs the sentences of a batch
row after row into one matrix and passes their lengths to every layer, so a
layer is a few matrix products per batch, and per-sentence vectors (V_K, the
CFA scale and shift, the attention query) are (B, .) rows. A CNN layer is one
convolution op for all its window sizes, with one product per window into
its own column block of the layer's output. The first layer reads the
position and word lookups of `encode` through `conv1d_tables`, which picks
its own route; layers 2 and up read the rows of the layer below through
`conv1d_same`. On the tape the forward is what training runs, one example at
a time through `Model.forward`; without a tape, `Model.predict_batch` runs
it over chunks of up to SCORE_TOKENS tokens.

Every parameter is initialized uniformly in [-0.1, 0.1] from a stream keyed
by (seed, "init", parameter name), so two configs sharing a seed assign
identical values to every parameter name they have in common.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import (
    EmbeddingTable,
    PositionTable,
    WordTable,
    check_anchors,
    encode,
    keyword_repr,
)
from .metrics import predicted_labels
from .seeding import rng_for

ACTIVATIONS = {
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "relu": ad.relu,
    "identity": ad.identity,
}

HEADS = ("concat", "attention")

# Tokens per chunk of predict_batch; a longer sentence is a chunk of its own.
# With one BLAS thread on a 2-core machine and layer 1 from tables, medians
# of two sets of 9 and 11 alternating scorings of the three benchmark score
# sets at 512 / 1024 / 2048: 41.3 / 39.7 / 40.9 and 31.0 / 32.2 / 34.4 ms
# (short), 121 / 115 / 129 and 96 / 100 / 113 ms (mixed), 1.95 / 1.76 / 1.93
# and 1.80 / 1.63 / 1.93 s (bulk). 1024 is not faster on all three, and it
# raised the peak RSS of scoring the mixed set from 54 to 61 MB, so 512 stays.
SCORE_TOKENS = 512

VARIANTS = {
    "concat": ("concat", False),
    "attention": ("attention", False),
    "concat-cfa": ("concat", True),
    "attention-cfa": ("attention", True),
}


@dataclass
class ModelConfig:
    head: str = "attention"
    cfa: bool = True
    layers: int = 1
    windows: tuple[int, ...] = (2, 3, 4, 5)
    filters: int = 100
    dropout: float = 0.5
    word_dim: int = 300
    pos_dim: int = 50
    max_offset: int = 30
    attn_hidden: int = 200
    ffn_hidden: int = 300
    conv_act: str = "tanh"
    attn_act: str = "tanh"
    cfa_act: str = "sigmoid"
    cfa_last: bool = True
    seed: int = 0

    def validate(self):
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if not 1 <= self.layers <= 4:
            raise ValueError(f"layers must be 1..4, got {self.layers}")
        if not self.windows or any(w < 1 for w in self.windows):
            raise ValueError(f"windows must be positive, got {self.windows!r}")
        if len(set(self.windows)) != len(self.windows):
            raise ValueError(f"duplicate window sizes: {self.windows!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for dim_name in ("filters", "word_dim", "pos_dim", "attn_hidden", "ffn_hidden"):
            if getattr(self, dim_name) < 1:
                raise ValueError(f"{dim_name} must be positive")
        if self.max_offset < 0:
            raise ValueError("max_offset must be nonnegative")
        for act_name in ("conv_act", "attn_act", "cfa_act"):
            act = getattr(self, act_name)
            if act not in ACTIVATIONS:
                raise ValueError(
                    f"{act_name} must be one of {sorted(ACTIVATIONS)}, got {act!r}"
                )

    @property
    def variant(self) -> str:
        return self.head + ("-cfa" if self.cfa else "")

    @property
    def feature_width(self) -> int:
        return self.filters * len(self.windows)

    @property
    def repr_width(self) -> int:
        if self.head == "concat":
            return self.feature_width + self.word_dim
        return self.feature_width

    def cfa_layers(self) -> list[int]:
        """1-based indices of CNN layers whose output gets CFA-modulated."""
        if not self.cfa:
            return []
        last = self.layers if self.cfa_last else self.layers - 1
        return list(range(1, last + 1))

    def with_variant(self, name: str) -> "ModelConfig":
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
        head, cfa = VARIANTS[name]
        return replace(self, head=head, cfa=cfa)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every learned tensor except the position table."""
    d, u = config.word_dim, config.pos_dim
    F = config.feature_width
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(1, config.layers + 1):
        d_in = (u + d) if i == 1 else F
        for w in config.windows:
            shapes[f"conv{i}.w{w}.filters"] = (w, d_in, config.filters)
            shapes[f"conv{i}.w{w}.bias"] = (config.filters,)
    for i in config.cfa_layers():
        shapes[f"cfa{i}.gamma.w"] = (F, d)
        shapes[f"cfa{i}.gamma.b"] = (F,)
        shapes[f"cfa{i}.beta.w"] = (F, d)
        shapes[f"cfa{i}.beta.b"] = (F,)
    if config.head == "attention":
        shapes["attn.u.w"] = (F, config.attn_hidden)
        shapes["attn.u.b"] = (config.attn_hidden,)
        shapes["attn.c.w"] = (config.attn_hidden, d + F)
        shapes["attn.c.b"] = (config.attn_hidden,)
    shapes["ffn.hidden.w"] = (config.ffn_hidden, config.repr_width)
    shapes["ffn.hidden.b"] = (config.ffn_hidden,)
    shapes["ffn.out.w"] = (2, config.ffn_hidden)
    shapes["ffn.out.b"] = (2,)
    return shapes


def init_params(config: ModelConfig) -> dict[str, Tensor]:
    return {
        name: Tensor(
            rng_for(config.seed, "init", name).uniform(-0.1, 0.1, shape),
            requires_grad=True,
        )
        for name, shape in param_shapes(config).items()
    }


# ---------------------------------------------------------------------------
# building blocks


def cnn_layer(h_prev, lengths, window_params, act) -> Tensor:
    """Length-preserving conv block over packed sentences: one convolution
    for all window sizes, their features side by side in the given window
    order, then the nonlinearity. h_prev is the (n, d) input, or the list of
    (table, index) lookups whose rows side by side make it (layer 1)."""
    if isinstance(h_prev, Tensor):
        return act(ad.conv1d_same(h_prev, window_params, lengths=lengths))
    return act(ad.conv1d_tables(h_prev, window_params, lengths=lengths))


def cfa_condition(h: Tensor, lengths, v_k: Tensor, gamma_w, gamma_b, beta_w, beta_b,
                  act) -> Tensor:
    """Modulate every row of each sentence by a (scale, shift) predicted from
    its keyword row of v_k."""
    gamma = act(ad.affine(gamma_w, v_k, gamma_b))
    beta = act(ad.affine(beta_w, v_k, beta_b))
    return ad.scale_shift_rows(h, gamma, beta, lengths)


def head_concat(h_m: Tensor, lengths, v_k: Tensor) -> Tensor:
    return ad.concat([ad.maxpool_time(h_m, lengths), v_k], axis=1)


def head_attention(h_m: Tensor, lengths, v_k: Tensor, anchors,
                   u_w, u_b, c_w, c_b, act, aux: dict | None = None) -> Tensor:
    """Per sentence, a keyword+anchor-queried weighted sum over its rows.
    aux["alpha"], if asked for, holds the weights of every row in order."""
    lengths = np.asarray(lengths, dtype=np.intp)
    check_anchors(anchors, lengths)
    keys = act(ad.linear_rows(h_m, u_w, u_b))
    anchor_rows = ad.take_rows(h_m, np.cumsum(lengths) - lengths + anchors)
    query = act(ad.affine(c_w, ad.concat([v_k, anchor_rows], axis=1), c_b))
    alpha = ad.softmax(ad.row_scores(keys, query, lengths), lengths)
    if aux is not None:
        aux["alpha"] = alpha.data.copy()
    return ad.weighted_row_sum(alpha, h_m, lengths)


class Model:
    """Parameter bundle plus the forward/loss/predict wiring for one config."""

    def __init__(self, config: ModelConfig, emb: EmbeddingTable,
                 words: WordTable | None = None):
        config.validate()
        if emb.dim != config.word_dim:
            raise ValueError(
                f"embedding dim {emb.dim} != config word_dim {config.word_dim}"
            )
        if words is not None and words.dim != config.word_dim:
            raise ValueError("word table dim disagrees with config")
        self.config = config
        self.emb = emb
        self.words = words
        self.pos = PositionTable(
            config.pos_dim, config.max_offset, rng_for(config.seed, "init", "pos.table")
        )
        self.params = init_params(config)

    def named_params(self) -> dict[str, Tensor]:
        out = dict(self.params)
        out["pos.table"] = self.pos.table
        if self.words is not None:
            out["words.matrix"] = self.words.matrix
        return out

    def _layer_windows(self, i: int):
        p = self.params
        return [(p[f"conv{i}.w{w}.filters"], p[f"conv{i}.w{w}.bias"])
                for w in self.config.windows]

    def forward_batch(self, examples, train: bool = False, rng=None,
                      aux: dict | None = None) -> Tensor:
        """(len(examples), 2) logits. The sentences are packed row after row
        into one matrix; see the module docstring. Training mode applies
        inverted dropout to R and requires an rng; eval mode is deterministic.
        An anchor outside its sentence raises ValueError."""
        cfg, p = self.config, self.params
        conv_act = ACTIVATIONS[cfg.conv_act]
        lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.intp)
        anchors = np.array([ex.anchor for ex in examples], dtype=np.intp)
        tokens = [t for ex in examples for t in ex.tokens]
        h = encode(tokens, lengths, anchors, self.emb, self.pos, self.words)
        v_k = keyword_repr([ex.keywords for ex in examples], self.emb, self.words)

        cfa_at = set(cfg.cfa_layers())
        for i in range(1, cfg.layers + 1):
            h = cnn_layer(h, lengths, self._layer_windows(i), conv_act)
            if i in cfa_at:
                h = cfa_condition(
                    h, lengths, v_k,
                    p[f"cfa{i}.gamma.w"], p[f"cfa{i}.gamma.b"],
                    p[f"cfa{i}.beta.w"], p[f"cfa{i}.beta.b"],
                    ACTIVATIONS[cfg.cfa_act],
                )

        if cfg.head == "concat":
            r = head_concat(h, lengths, v_k)
        else:
            r = head_attention(
                h, lengths, v_k, anchors,
                p["attn.u.w"], p["attn.u.b"], p["attn.c.w"], p["attn.c.b"],
                ACTIVATIONS[cfg.attn_act], aux=aux,
            )

        if train and cfg.dropout > 0.0:
            if rng is None:
                raise ValueError("training-mode forward needs an rng for dropout")
            keep = 1.0 - cfg.dropout
            mask = (rng.random(r.data.shape) < keep) / keep
            r = ad.mul(r, Tensor(mask))

        hidden = conv_act(ad.affine(p["ffn.hidden.w"], r, p["ffn.hidden.b"]))
        return ad.affine(p["ffn.out.w"], hidden, p["ffn.out.b"])

    def forward(self, example, train: bool = False, rng=None,
                aux: dict | None = None) -> Tensor:
        """Two logits for one example: row 0 of forward_batch([example])."""
        return ad.take_rows(self.forward_batch([example], train=train, rng=rng, aux=aux), 0)

    def loss(self, example, train: bool = False, rng=None) -> Tensor:
        return ad.cross_entropy(self.forward(example, train=train, rng=rng),
                                example.label)

    def predict(self, example) -> int:
        """Predicted label of one example; see predict_batch."""
        return int(self.predict_batch([example])[0])

    def predict_batch(self, examples) -> np.ndarray:
        """Predicted labels (0/1, in order) of eval-mode forwards over many
        examples; an exact logit tie counts as negative. An anchor outside its
        sentence raises ValueError, as in forward."""
        return predicted_labels(self.logits_batch(examples))

    def logits_batch(self, examples) -> np.ndarray:
        """(len(examples), 2) eval-mode logits: forward_batch without a tape,
        chunk by chunk (see _chunks)."""
        logits = [self.forward_batch(chunk).data for chunk in _chunks(examples)]
        return np.concatenate(logits) if logits else np.zeros((0, 2))


def _chunks(examples, budget: int = SCORE_TOKENS):
    """Consecutive runs of examples of at most `budget` tokens in all; an
    example longer than that is a run of its own."""
    chunk, size = [], 0
    for ex in examples:
        if chunk and size + len(ex.tokens) > budget:
            yield chunk
            chunk, size = [], 0
        chunk.append(ex)
        size += len(ex.tokens)
    if chunk:
        yield chunk


def identity_cfa_surgery(model: Model):
    """Force every CFA step to the identity map (scale 1, shift 0).

    Requires cfa_act="identity" since a sigmoid can never output exactly 1.
    After surgery, a CFA model's forward pass is bitwise-equal to its plain
    counterpart sharing the same seed.
    """
    if not model.config.cfa:
        raise ValueError("model has no CFA parameters")
    if model.config.cfa_act != "identity":
        raise ValueError(
            f'identity surgery needs cfa_act="identity", got {model.config.cfa_act!r}'
        )
    for i in model.config.cfa_layers():
        model.params[f"cfa{i}.gamma.w"].data[:] = 0.0
        model.params[f"cfa{i}.gamma.b"].data[:] = 1.0
        model.params[f"cfa{i}.beta.w"].data[:] = 0.0
        model.params[f"cfa{i}.beta.b"].data[:] = 0.0
