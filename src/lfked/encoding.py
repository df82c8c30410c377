"""Word embeddings, learned position embeddings, and sentence encoding.

The encoder turns (tokens, anchor) into a matrix whose row i is the
concatenation of a position vector for offset i - anchor and the word vector
of token i. Word vectors are frozen by default; pass a WordTable to make them
trainable. Position vectors are always learned.

Embedding file format: one line per token, "token v1 v2 ... v_dim",
space-separated decimal floats.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import Tensor, concat, matmul, take_rows
from .seeding import rng_for

log = logging.getLogger(__name__)

OOV_POLICIES = ("random-fixed", "zero")


class EmbeddingTable:
    """Token -> vector map with a deterministic out-of-vocabulary policy.

    Lookup tries the token as given, then its lowercase form. Under the
    "random-fixed" policy an unknown token gets a vector drawn from a stream
    keyed by (seed, "oov", token), so repeated lookups and repeated runs
    agree; "zero" maps every unknown token to the zero vector.
    """

    def __init__(self, vectors: dict[str, np.ndarray], dim: int,
                 oov_policy: str = "random-fixed", seed: int = 0):
        if oov_policy not in OOV_POLICIES:
            raise ValueError(f"oov_policy must be one of {OOV_POLICIES}, got {oov_policy!r}")
        for tok, v in vectors.items():
            if v.shape != (dim,):
                raise ValueError(f"vector for {tok!r} has shape {v.shape}, want ({dim},)")
        self.vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}
        self.dim = dim
        self.oov_policy = oov_policy
        self.seed = seed
        self._oov_cache: dict[str, np.ndarray] = {}

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, token):
        return token in self.vectors or token.lower() in self.vectors

    def lookup(self, token: str) -> np.ndarray:
        hit = self.vectors.get(token)
        if hit is None:
            hit = self.vectors.get(token.lower())
        if hit is not None:
            return hit
        if self.oov_policy == "zero":
            return np.zeros(self.dim)
        cached = self._oov_cache.get(token)
        if cached is None:
            cached = rng_for(self.seed, "oov", token).uniform(-0.1, 0.1, self.dim)
            self._oov_cache[token] = cached
        return cached

    def rows(self, tokens) -> np.ndarray:
        return np.stack([self.lookup(t) for t in tokens])


def load_embeddings(path, dim: int, oov_policy: str = "random-fixed",
                    seed: int = 0) -> EmbeddingTable:
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: {len(values)} values for {token!r}, want {dim}"
                )
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({e})") from e
            if token in vectors:
                log.warning("%s:%d: duplicate token %r, keeping the later entry",
                            path, lineno, token)
            vectors[token] = vec
    return EmbeddingTable(vectors, dim, oov_policy=oov_policy, seed=seed)


def write_embeddings(vectors: dict[str, np.ndarray], path):
    """Inverse of load_embeddings; values written with full float64 precision."""
    with open(path, "w", encoding="utf-8") as f:
        for token in sorted(vectors):
            vals = " ".join(repr(float(v)) for v in vectors[token])
            f.write(f"{token} {vals}\n")


def demo_embeddings_path():
    """Small 50-dim table bundled for tests and demos."""
    return resources.files("lfked").joinpath("data/demo_embeddings_50d.txt")


class PositionTable:
    """Learned embeddings of token offsets relative to the anchor.

    Row k holds the vector for offset k - max_offset; offsets outside
    [-max_offset, max_offset] clamp to the nearest edge.
    """

    def __init__(self, dim: int, max_offset: int, rng):
        if dim < 1 or max_offset < 0:
            raise ValueError(f"bad position table shape: dim={dim} max_offset={max_offset}")
        self.dim = dim
        self.max_offset = max_offset
        self.table = Tensor(
            rng.uniform(-0.1, 0.1, (2 * max_offset + 1, dim)), requires_grad=True
        )

    def row_indices(self, offsets) -> np.ndarray:
        off = np.asarray(offsets, dtype=np.intp)
        return np.clip(off, -self.max_offset, self.max_offset) + self.max_offset


class WordTable:
    """Trainable word vectors over a fixed vocabulary, for --finetune-words.

    Built from an EmbeddingTable, so out-of-vocabulary tokens get their policy
    vector as the starting point. A token outside the build vocabulary (say,
    one first seen at evaluation) keeps its frozen vector from that table,
    under the table's OOV policy, as a constant.
    """

    def __init__(self, emb: EmbeddingTable, vocab):
        self.tokens = sorted(set(vocab))
        if not self.tokens:
            raise ValueError("word table needs a non-empty vocabulary")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.dim = emb.dim
        self.emb = emb
        self.matrix = Tensor(emb.rows(self.tokens), requires_grad=True)

    def row_indices(self, tokens) -> np.ndarray:
        try:
            return np.array([self.index[t] for t in tokens], dtype=np.intp)
        except KeyError as e:
            raise ValueError(
                f"token {e.args[0]!r} missing from the word table vocabulary"
            ) from e

    def rows(self, tokens) -> Tensor:
        """(len(tokens), dim) word vectors: trainable rows of the matrix, and
        frozen-table constants for tokens outside the vocabulary."""
        known = [i for i, t in enumerate(tokens) if t in self.index]
        if len(known) == len(tokens):
            return take_rows(self.matrix, self.row_indices(tokens))
        unseen = [i for i, t in enumerate(tokens) if t not in self.index]
        trained = take_rows(self.matrix, self.row_indices([tokens[i] for i in known]))
        frozen = Tensor(self.emb.rows([tokens[i] for i in unseen]))
        # row r of the stack belongs to token (known + unseen)[r]
        return take_rows(concat([trained, frozen], axis=0), np.argsort(known + unseen))


@dataclass
class EncodedSentence:
    h0: Tensor
    anchor: int


def _check_anchor(anchor: int, n: int):
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} outside 0..{n - 1}")


def word_rows(tokens, emb: EmbeddingTable, words: WordTable | None = None) -> Tensor:
    """(len(tokens), emb.dim) word vectors, trainable when `words` is given."""
    return Tensor(emb.rows(tokens)) if words is None else words.rows(tokens)


def encode(tokens, anchor: int, emb: EmbeddingTable, pos: PositionTable,
           words: WordTable | None = None) -> EncodedSentence:
    """Build the n x (pos.dim + emb.dim) input matrix for one sentence."""
    n = len(tokens)
    _check_anchor(anchor, n)
    offsets = np.arange(n) - anchor
    pos_rows = take_rows(pos.table, pos.row_indices(offsets))
    return EncodedSentence(h0=concat([pos_rows, word_rows(tokens, emb, words)], axis=1),
                           anchor=anchor)


def encode_rows(examples, emb: EmbeddingTable, pos: PositionTable,
                words: WordTable | None = None) -> np.ndarray:
    """Tape-free `encode` of many sentences: their input matrices stacked
    row-wise, in order, into one (total tokens, pos.dim + emb.dim) array."""
    lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.intp)
    anchors = np.array([ex.anchor for ex in examples], dtype=np.intp)
    for anchor, n in zip(anchors.tolist(), lengths.tolist()):
        _check_anchor(anchor, n)
    seg = np.repeat(np.arange(len(examples)), lengths)
    offsets = np.arange(lengths.sum()) - (np.cumsum(lengths) - lengths + anchors)[seg]
    tokens = [t for ex in examples for t in ex.tokens]
    return np.concatenate([pos.table.data[pos.row_indices(offsets)],
                           word_rows(tokens, emb, words).data], axis=1)


def keyword_repr(keywords, emb: EmbeddingTable,
                 words: WordTable | None = None) -> Tensor:
    """Average of the keyword vectors; iteration order is sorted so the
    result is a pure function of the set."""
    kws = sorted(keywords)
    if not kws:
        raise ValueError("keyword set is empty")
    if words is None:
        return Tensor(emb.rows(kws).mean(axis=0))
    weights = Tensor(np.full(len(kws), 1.0 / len(kws)))
    return matmul(weights, words.rows(kws))
