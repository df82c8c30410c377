"""The four classifier variants over keyword-conditioned sentence encodings.

A model stacks same-length CNN layers over the encoded sentence, optionally
modulates each layer's features by the keyword representation (a per-feature
scale and shift predicted from V_K: the CFA step), then reduces the sequence
to a single vector R with one of two heads:

  concat:    R = [maxpool over time, V_K]
  attention: R = sum_i alpha_i h_i with alpha from a keyword+anchor query

R passes through dropout (training only) and a one-hidden-layer FFN ending in
two logits. Variant names: concat, attention, concat-cfa, attention-cfa.

`Model.forward` runs one example on the autodiff tape and is what training
uses. `Model.predict_batch` scores many examples at once without a tape: it
packs up to SCORE_TOKENS tokens of consecutive sentences into one matrix,
separated by zero rows, so every layer is a few matrix products per chunk.
Its logits equal the per-example forward up to the summation order inside
those products.

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
    encode,
    encode_rows,
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

# Tokens per chunk of the packed scoring path; a longer sentence is a chunk of
# its own. With one BLAS thread on a 2-core machine, chunks of 256 to 512
# tokens scored equally fast within noise; 128 and 2048 were 10-20% slower.
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


def cnn_layer(h_prev: Tensor, window_params, act) -> Tensor:
    """Length-preserving conv block: per window size, conv then nonlinearity;
    outputs concatenated feature-wise in the given window order."""
    outs = [act(ad.conv1d_same(h_prev, filt, bias)) for filt, bias in window_params]
    return ad.concat(outs, axis=1) if len(outs) > 1 else outs[0]


def cfa_condition(h: Tensor, v_k: Tensor, gamma_w, gamma_b, beta_w, beta_b, act) -> Tensor:
    """Modulate every position of h by a keyword-predicted (scale, shift)."""
    gamma = act(ad.affine(gamma_w, v_k, gamma_b))
    beta = act(ad.affine(beta_w, v_k, beta_b))
    return ad.scale_shift_rows(h, gamma, beta)


def head_concat(h_m: Tensor, v_k: Tensor) -> Tensor:
    return ad.concat([ad.maxpool_time(h_m), v_k], axis=0)


def head_attention(h_m: Tensor, v_k: Tensor, anchor: int,
                   u_w, u_b, c_w, c_b, act, aux: dict | None = None) -> Tensor:
    """Keyword+anchor-queried weighted sum over positions."""
    n = h_m.data.shape[0]
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} outside 0..{n - 1}")
    keys = act(ad.linear_rows(h_m, u_w, u_b))
    query = act(ad.affine(c_w, ad.concat([v_k, ad.take_row(h_m, anchor)]), c_b))
    alpha = ad.softmax(ad.matmul(keys, query))
    if aux is not None:
        aux["alpha"] = alpha.data.copy()
    return ad.matmul(alpha, h_m)


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

    def forward(self, example, train: bool = False, rng=None,
                aux: dict | None = None) -> Tensor:
        """Two logits for one example. Training mode applies inverted dropout
        to R and requires an rng; eval mode is deterministic."""
        cfg = self.config
        conv_act = ACTIVATIONS[cfg.conv_act]
        enc = encode(example.tokens, example.anchor, self.emb, self.pos, self.words)
        v_k = keyword_repr(example.keywords, self.emb, self.words)

        h = enc.h0
        cfa_at = set(cfg.cfa_layers())
        for i in range(1, cfg.layers + 1):
            h = cnn_layer(h, self._layer_windows(i), conv_act)
            if i in cfa_at:
                p = self.params
                h = cfa_condition(
                    h, v_k,
                    p[f"cfa{i}.gamma.w"], p[f"cfa{i}.gamma.b"],
                    p[f"cfa{i}.beta.w"], p[f"cfa{i}.beta.b"],
                    ACTIVATIONS[cfg.cfa_act],
                )

        if cfg.head == "concat":
            r = head_concat(h, v_k)
        else:
            p = self.params
            r = head_attention(
                h, v_k, enc.anchor,
                p["attn.u.w"], p["attn.u.b"], p["attn.c.w"], p["attn.c.b"],
                ACTIVATIONS[cfg.attn_act], aux=aux,
            )

        if train and cfg.dropout > 0.0:
            if rng is None:
                raise ValueError("training-mode forward needs an rng for dropout")
            keep = 1.0 - cfg.dropout
            mask = (rng.random(r.data.shape) < keep) / keep
            r = ad.mul(r, Tensor(mask))

        hidden = conv_act(ad.affine(self.params["ffn.hidden.w"], r,
                                    self.params["ffn.hidden.b"]))
        return ad.affine(self.params["ffn.out.w"], hidden, self.params["ffn.out.b"])

    def loss(self, example, train: bool = False, rng=None) -> Tensor:
        return ad.cross_entropy(self.forward(example, train=train, rng=rng),
                                example.label)

    def predict(self, example) -> int:
        """Predicted label of one example; see predict_batch."""
        return int(self.predict_batch([example])[0])

    def predict_batch(self, examples) -> np.ndarray:
        """Predicted labels (0/1, in order) of eval-mode forwards over many
        examples, computed without a tape; an exact logit tie counts as
        negative. An anchor outside its sentence raises ValueError, as in
        forward."""
        return predicted_labels(self.logits_batch(examples))

    def logits_batch(self, examples) -> np.ndarray:
        """(len(examples), 2) eval-mode logits, chunk by chunk (see _chunks)."""
        logits = [self._chunk_logits(chunk) for chunk in _chunks(examples)]
        return np.concatenate(logits) if logits else np.zeros((0, 2))

    def _chunk_logits(self, chunk) -> np.ndarray:
        """The forward of every layer over the chunk's sentences at once.

        h holds the real rows only, sentence after sentence. Each conv reads
        them through the packed layout of _PackedRows, where zero rows between
        sentences stand in for the "same" padding of the per-example conv.
        Per-example vectors (V_K, CFA scale and shift, attention queries) are
        (B, .) matrices broadcast to the rows of their sentence.
        """
        cfg, p = self.config, self.params
        conv_act = ACTIVATIONS[cfg.conv_act]
        h = encode_rows(chunk, self.emb, self.pos, self.words)
        v_k = np.stack([keyword_repr(ex.keywords, self.emb, self.words).data
                        for ex in chunk])
        packed = _PackedRows([len(ex.tokens) for ex in chunk], max(cfg.windows) // 2)

        cfa_at, cfa_act = set(cfg.cfa_layers()), ACTIVATIONS[cfg.cfa_act]
        for i in range(1, cfg.layers + 1):
            h = _packed_cnn_layer(h, packed, self._layer_windows(i), conv_act)
            if i in cfa_at:
                gamma = _dense(v_k, p[f"cfa{i}.gamma.w"], p[f"cfa{i}.gamma.b"], cfa_act)
                beta = _dense(v_k, p[f"cfa{i}.beta.w"], p[f"cfa{i}.beta.b"], cfa_act)
                h = h * packed.spread(gamma) + packed.spread(beta)

        starts = packed.starts
        if cfg.head == "concat":
            r = np.concatenate([np.maximum.reduceat(h, starts, axis=0), v_k], axis=1)
        else:
            attn_act = ACTIVATIONS[cfg.attn_act]
            anchors = np.array([ex.anchor for ex in chunk])
            keys = attn_act(Tensor(h @ p["attn.u.w"].data + p["attn.u.b"].data)).data
            query = _dense(np.concatenate([v_k, h[starts + anchors]], axis=1),
                           p["attn.c.w"], p["attn.c.b"], attn_act)
            scores = np.einsum("ij,ij->i", keys, packed.spread(query))
            e = np.exp(scores - packed.spread(np.maximum.reduceat(scores, starts)))
            alpha = e / packed.spread(np.add.reduceat(e, starts))
            r = np.add.reduceat(alpha[:, None] * h, starts, axis=0)

        hidden = _dense(r, p["ffn.hidden.w"], p["ffn.hidden.b"], conv_act)
        return hidden @ p["ffn.out.w"].data.T + p["ffn.out.b"].data


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


def _dense(x, weight: Tensor, bias: Tensor, act) -> np.ndarray:
    """act(x @ weight.T + bias) for a (B, k) batch of the vectors `affine` takes."""
    return act(Tensor(x @ weight.data.T + bias.data)).data


class _PackedRows:
    """Row layout of one chunk: `gap` zero rows, then each sentence followed
    by `gap` zero rows. With gap at least every window's right padding
    (window // 2, never less than the left padding), a conv over the packed
    rows reads a sentence's own rows and zeros only, as conv1d_same does.
    Real rows keep their order: sentence i is h[starts[i]:starts[i] + n_i].
    """

    def __init__(self, lengths, gap: int):
        self.lengths = np.array(lengths, dtype=np.intp)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.gap = gap
        seg = np.repeat(np.arange(len(self.lengths)), self.lengths)
        # real row k sits gap * (its sentence index + 1) rows further down
        self.rows = np.arange(self.lengths.sum()) + gap * (seg + 1)
        self.total = int(self.lengths.sum()) + gap * (len(self.lengths) + 1)

    def spread(self, per_sentence: np.ndarray) -> np.ndarray:
        """Repeat row i of a per-sentence array once per token of sentence i."""
        return np.repeat(per_sentence, self.lengths, axis=0)


def _packed_conv(h: np.ndarray, packed: _PackedRows, filters: Tensor,
                 bias: Tensor) -> np.ndarray:
    """conv1d_same of every sentence at once: one product of the real rows
    with all taps side by side, placed in the packed layout, then one shifted
    slice-add per tap. Returns the real rows, (len(h), f)."""
    w, d_in, f = filters.data.shape
    y = np.zeros((packed.total, w * f))
    y[packed.rows] = h @ filters.data.transpose(1, 0, 2).reshape(d_in, w * f)
    # output row t is sum_j y[t - left + j, tap j], computed for every row t
    # between the outer gaps
    start, n = packed.gap - (w - 1) // 2, packed.total - 2 * packed.gap
    out = y[start:start + n, :f].copy()
    for j in range(1, w):
        out += y[start + j:start + j + n, j * f:(j + 1) * f]
    return out[packed.rows - packed.gap] + bias.data


def _packed_cnn_layer(h: np.ndarray, packed: _PackedRows, window_params,
                      act) -> np.ndarray:
    """cnn_layer over the packed rows: per window, conv then nonlinearity,
    features concatenated in window order."""
    return np.concatenate(
        [act(Tensor(_packed_conv(h, packed, filt, bias))).data
         for filt, bias in window_params], axis=1)


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
