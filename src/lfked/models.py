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
its own column block of the layer's output. The first layer runs one way
everywhere: `conv1d_tables` over ad.Taps, built from the current parameters.
Per window, the taps hold the bias plus the position taps of every position
signature a row can have, and each word's product with every word tap, so a
row is one row of the first table plus one word row per tap, the terms of
the per-tap sum in the same order. A training step builds one set of taps
for all its examples (step_taps); a scoring pass builds its position taps
once and each chunk adds the word taps of its words; any other forward
builds taps for its own examples. Each set of word taps comes from one
`encode` call, whose vocab every token's row is read through. Layers 2 and
up read the rows of the layer below through `conv1d_same`. Nothing before
the first CFA step, the attention head or the concat with V_K reads the
keywords, so a batch's distinct (tokens, anchor)
contexts are encoded and convolved once each: at the first op that reads
V_K, one `take_rows` gives each example its context's rows (for the concat
head, its pooled row), and on a tape it sums the gradients of the examples
that share a context. A batch of distinct contexts, such as every training
forward of one example, records no extra op. When nothing reads the last CNN
layer's rows but the concat head's maxpool (no CFA step after that layer),
the layer records its convolution alone and the head activates the pooled
row of each context: one activation per context, not per token. This is
exact for the activations in NONDECREASING, whose values never fall from one
float to the next, so per column the max of act(x) is act of the max of x,
bit for bit. Sigmoid can fall, so it keeps the activate-then-pool order. The
backward sends a column's gradient to the first row of largest input rather
than of largest output; these differ only where the activation maps two
inputs to one value: saturated tanh or relu's zeros, whose gradient is zero,
or inputs a few floats apart. On the tape the forward is
what training runs, one example at a time through `Model.loss`, all from the
step's taps; without a tape, `Model.logits_batch` runs it over chunks of up
to SCORE_TOKENS rows in the widest layer (see _chunks).

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

# The activations whose floating-point values never decrease, so that per
# column max(act(x)) == act(max(x)) bit for bit and plain concat may pool
# before it activates. Not sigmoid: the e / (1 + e) branch of ad.sigmoid
# falls at some adjacent floats below 0 (x = -1.9311779748190396 maps higher
# than the next float up).
NONDECREASING = frozenset({"tanh", "relu", "identity"})

HEADS = ("concat", "attention")

# Rows per chunk of logits_batch in its widest layer: tokens of distinct
# contexts for plain concat, of examples otherwise (see _chunks); a longer
# sentence is a chunk of its own. With one BLAS thread on a 2-core machine,
# layer 1 from ad.Taps, medians of 7 alternating scoring processes
# (each the best of 40 passes, 7 for bulk) of the three benchmark test sets
# at 512 / 1024: 20.7 / 17.5 ms (short), 58.6 / 62.3 ms (mixed), 0.46 /
# 0.44 s (bulk), with 10-30% between processes. 1024 raises each process's
# peak RSS from 51.2 to 53.5 MB (short), 51.9 to 58.5 MB (mixed) and 66.2 to
# 68.7 MB (bulk), so 512 stays and no scoring layer holds more rows.
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


def cnn_layer(h_prev, lengths, windows, act, anchors=None) -> Tensor:
    """Length-preserving conv block over packed sentences: one convolution
    for all window sizes, their features side by side in window order, then
    the nonlinearity. Layers 2 and up take the (n, d) rows of the layer below
    and the list of (filters, bias) pairs; layer 1 takes each row's word
    index and the ad.Taps built from its pairs, and reads the sentences'
    anchors."""
    if isinstance(windows, ad.Taps):
        return act(ad.conv1d_tables(windows, h_prev, lengths, anchors))
    return act(ad.conv1d_same(h_prev, windows, lengths=lengths))


def cfa_condition(h: Tensor, lengths, v_k: Tensor, gamma_w, gamma_b, beta_w, beta_b,
                  act) -> Tensor:
    """Modulate every row of each sentence by a (scale, shift) predicted from
    its keyword row of v_k."""
    gamma = act(ad.affine(gamma_w, v_k, gamma_b))
    beta = act(ad.affine(beta_w, v_k, beta_b))
    return ad.scale_shift_rows(h, gamma, beta, lengths)


def head_concat(h_m: Tensor, lengths, v_k: Tensor, ctx=None, act=ad.identity) -> Tensor:
    """Each sentence's maxpool, through `act`, beside its keyword row of v_k.
    With `ctx`, the sentences are contexts and example i reads the pool of
    context ctx[i]."""
    pooled = act(ad.maxpool_time(h_m, lengths))
    if ctx is not None:
        pooled = ad.take_rows(pooled, ctx)
    return ad.concat([pooled, v_k], axis=1)


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
                      aux: dict | None = None, keys=None, taps=None) -> Tensor:
        """(len(examples), 2) logits. The sentences are packed row after row
        into one matrix; see the module docstring. Training mode applies
        inverted dropout to R and requires an rng; eval mode is deterministic.
        `keys`, if given, holds each example's _context. `taps` runs layer 1:
        a training step's (step_taps), whose words cover these examples, or a
        scoring pass's position taps, which get these examples' word taps;
        without them, layer 1 runs from taps built for these examples alone.
        Either way each token's row is read through the taps' vocab. Building
        taps refuses an anchor outside its sentence with ValueError."""
        cfg, p = self.config, self.params
        conv_act = ACTIVATIONS[cfg.conv_act]
        contexts, ctx = _contexts(examples, keys)
        lengths, anchors = _lengths_anchors(contexts)
        tokens = [t for ex in contexts for t in ex.tokens]
        if taps is None or taps.vocab is None:
            taps = self._taps_for(tokens, lengths, anchors, taps)
        # layer 1 reads each token's row among the taps' words
        h = np.fromiter(map(taps.vocab.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        v_k = keyword_repr([ex.keywords for ex in examples], self.emb, self.words)

        cfa_at = set(cfg.cfa_layers())
        # the last layer's activation moves past the pooling (see NONDECREASING)
        pool_first = (cfg.head == "concat" and cfg.layers not in cfa_at
                      and cfg.conv_act in NONDECREASING)
        for i in range(1, cfg.layers + 1):
            act = ad.identity if pool_first and i == cfg.layers else conv_act
            h = cnn_layer(h, lengths, taps if i == 1 else self._layer_windows(i), act, anchors)
            if i in cfa_at:
                h, lengths, anchors, ctx = _hand_out(h, lengths, anchors, ctx)
                h = cfa_condition(
                    h, lengths, v_k,
                    p[f"cfa{i}.gamma.w"], p[f"cfa{i}.gamma.b"],
                    p[f"cfa{i}.beta.w"], p[f"cfa{i}.beta.b"],
                    ACTIVATIONS[cfg.cfa_act],
                )

        if cfg.head == "concat":
            r = head_concat(h, lengths, v_k, ctx, conv_act if pool_first else ad.identity)
        else:
            h, lengths, anchors, ctx = _hand_out(h, lengths, anchors, ctx)
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

    def _position_taps(self, lengths, anchors) -> ad.Taps:
        """Layer 1's position taps over the offsets these sentences reach."""
        return ad.Taps(self._layer_windows(1), self.pos, -int(np.max(anchors)),
                       int(np.max(np.subtract(lengths, anchors))) - 1)

    def _taps_for(self, tokens, lengths, anchors, taps=None) -> ad.Taps:
        """Layer 1's taps for packed sentences: `taps` (position taps over
        their offsets if None) plus the word taps of their distinct tokens,
        which `encode` looks up. An anchor outside its sentence raises
        ValueError."""
        check_anchors(anchors, lengths)
        taps = taps or self._position_taps(lengths, anchors)
        return taps.with_words(*encode(tokens, self.emb, self.words))

    def step_taps(self, examples) -> ad.Taps:
        """Layer 1's taps for one training step over `examples`, from the
        current parameters: position taps over their offsets and the word
        taps of their distinct tokens, 11 KB per word at the default windows
        and filters. Every example's forward_batch(taps=...) then reads
        them, and a first `.grad` read sums the layer-1 gradient of all."""
        contexts, _ = _contexts(examples)
        return self._taps_for([t for ex in contexts for t in ex.tokens],
                              *_lengths_anchors(contexts))

    def forward(self, example, train: bool = False, rng=None,
                aux: dict | None = None, taps=None) -> Tensor:
        """Two logits for one example: row 0 of forward_batch([example])."""
        return ad.take_rows(self.forward_batch([example], train=train, rng=rng, aux=aux,
                                               taps=taps), 0)

    def loss(self, example, train: bool = False, rng=None, taps=None) -> Tensor:
        return ad.cross_entropy(self.forward(example, train=train, rng=rng, taps=taps),
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
        chunk by chunk (see _chunks), layer 1 from position taps over the
        offsets the examples reach, built once, and each chunk's word taps."""
        if not examples:
            return np.zeros((0, 2))
        taps = self._position_taps(*_lengths_anchors(examples))
        # only plain concat keeps one row per context in every layer
        by_context = self.config.head == "concat" and not self.config.cfa
        return np.concatenate([self.forward_batch(chunk, keys=keys, taps=taps).data
                               for chunk, keys in _chunks(examples, by_context=by_context)])


def _lengths_anchors(examples) -> tuple[np.ndarray, np.ndarray]:
    """The examples' sentence lengths and anchors, as int arrays."""
    return (np.array([len(ex.tokens) for ex in examples], dtype=np.intp),
            np.array([ex.anchor for ex in examples], dtype=np.intp))


def _context(ex):
    """What an example's rows depend on before the first op that reads V_K."""
    return tuple(ex.tokens), ex.anchor


def _contexts(examples, keys=None):
    """The distinct contexts of `examples` (whose _context keys are `keys`,
    if given) as the examples that first show them, and each example's
    context number; (examples, None) when no two examples share a context."""
    number: dict = {}
    firsts, ctx = [], []
    for ex, key in zip(examples, map(_context, examples) if keys is None else keys):
        c = number.setdefault(key, len(number))
        if c == len(firsts):
            firsts.append(ex)
        ctx.append(c)
    if len(firsts) == len(examples):
        return examples, None
    return firsts, np.array(ctx, dtype=np.intp)


def _hand_out(h: Tensor, lengths, anchors, ctx):
    """(h, lengths, anchors, ctx) of contexts turned into those of the
    examples: each example gets its own copy of its context's rows through
    one take_rows, whose gradient sums the copies. Unchanged when ctx is None."""
    if ctx is None:
        return h, lengths, anchors, None
    starts = np.cumsum(lengths) - lengths
    lengths = lengths[ctx]
    shift = np.repeat(starts[ctx] - (np.cumsum(lengths) - lengths), lengths)
    return ad.take_rows(h, shift + np.arange(len(shift))), lengths, anchors[ctx], None


def _chunks(examples, budget: int = SCORE_TOKENS, by_context: bool = False):
    """Consecutive runs of examples, each with its examples' _context keys,
    of at most `budget` tokens in all, or with `by_context`, of at most
    `budget` tokens of distinct contexts; an example longer than that is a
    run of its own."""
    chunk, keys, size, seen = [], [], 0, set()
    for ex in examples:
        key = _context(ex)
        if key not in seen:
            if chunk and size + len(ex.tokens) > budget:
                yield chunk, keys
                chunk, keys, size, seen = [], [], 0, set()
            size += len(ex.tokens)
            if by_context:
                seen.add(key)
        chunk.append(ex)
        keys.append(key)
    if chunk:
        yield chunk, keys


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
