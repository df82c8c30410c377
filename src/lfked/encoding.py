"""Word embeddings, learned position embeddings, and sentence encoding.

Row i of a sentence enters the first CNN layer as a position vector for
offset i - anchor beside the word vector of token i. The first layer holds
the position table itself (autodiff.Taps); `encode` gives it the words: the
distinct tokens' vectors, looked up once each, and the map from a token to
its row of them, which layer 1 reads every token through. A trainable word
table gets its gradient through the taps of those vectors. The keyword
encoder turns keyword sets into one row each; an empty set, or one that
repeats a keyword, is refused with the message of corpus.LFKExample.validate.
Word vectors are frozen by default; pass a WordTable to make them trainable.
Position vectors are always learned.

Embedding file format: one line per token, "token v1 v2 ... v_dim",
space-separated decimal floats.
"""

from __future__ import annotations

import logging
from importlib import resources

import numpy as np

from .autodiff import Tensor, concat, take_rows, weighted_row_sum
from .corpus import check_anchor, check_keywords
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
        # one flat concatenate: 2-3x faster than np.stack over 512 tokens
        return np.concatenate([self.lookup(t) for t in tokens]).reshape(len(tokens), self.dim)


def load_embeddings(path, dim: int | None = None, oov_policy: str = "random-fixed",
                    seed: int = 0) -> EmbeddingTable:
    """Read an embedding file; with dim None, its first non-blank line sets it."""
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            if len(values) != dim:
                raise ValueError(
                    f"{path}:{lineno}: {len(values)} values for {token!r}, want {dim}"
                )
            try:
                vec = np.array([float(v) for v in values])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-numeric value ({e})") from e
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite value for {token!r}")
            if token in vectors:
                log.warning("%s:%d: duplicate token %r, keeping the later entry",
                            path, lineno, token)
            vectors[token] = vec
    if dim is None:
        raise ValueError(f"{path}: embedding file is empty")
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

    def link(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        """(at, rows): the places in `tokens` of the tokens in the vocabulary,
        and their rows of the matrix."""
        at = [i for i, t in enumerate(tokens) if t in self.index]
        return (np.array(at, dtype=np.intp),
                np.array([self.index[tokens[i]] for i in at], dtype=np.intp))

    def rows(self, tokens) -> Tensor:
        """(len(tokens), dim) word vectors: trainable rows of the matrix, and
        frozen-table constants for tokens outside the vocabulary."""
        at, rows = self.link(tokens)
        trained = take_rows(self.matrix, rows)
        if len(at) == len(tokens):
            return trained
        unseen = np.setdiff1d(np.arange(len(tokens)), at)
        frozen = Tensor(self.emb.rows([tokens[i] for i in unseen]))
        # row r of the stack belongs to token (at + unseen)[r]
        order = np.argsort(np.concatenate([at, unseen]))
        return take_rows(concat([trained, frozen], axis=0), order)


def check_anchors(anchors, lengths):
    """Raise ValueError for the first anchor outside its sentence."""
    for anchor, n in zip(np.asarray(anchors).tolist(), np.asarray(lengths).tolist()):
        check_anchor(anchor, n)


def word_rows(tokens, emb: EmbeddingTable, words: WordTable | None = None) -> Tensor:
    """(len(tokens), emb.dim) word vectors, trainable when `words` is given."""
    return Tensor(emb.rows(tokens)) if words is None else words.rows(tokens)


def encode(tokens, emb: EmbeddingTable, words: WordTable | None = None):
    """Layer 1's words for `tokens`, as (vectors, vocab, trained): the
    distinct tokens' vectors in first-occurrence order, each looked up once,
    as constants; the map from each token to its row of them; and, with a
    WordTable, the (matrix, at, rows) triple of autodiff.Taps.with_words:
    vectors[at] are the matrix rows `rows`, and the tokens outside its
    vocabulary keep their frozen vectors from the table it was built from.
    Without a WordTable, trained is None."""
    vocab = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    distinct = list(vocab)
    if words is None:
        return emb.rows(distinct), vocab, None
    at, rows = words.link(distinct)
    vectors = np.empty((len(distinct), words.dim))
    vectors[at] = words.matrix.data[rows]
    unseen = np.setdiff1d(np.arange(len(distinct)), at)
    if len(unseen):
        vectors[unseen] = words.emb.rows([distinct[i] for i in unseen])
    return vectors, vocab, (words.matrix, at, rows)


def keyword_repr(keyword_sets, emb: EmbeddingTable,
                 words: WordTable | None = None) -> Tensor:
    """(len(keyword_sets), emb.dim): the average of each set's keyword vectors,
    as one weighted row sum per set. Each set is read in sorted order, so a
    row is a pure function of its set. An empty set, or one that repeats a
    keyword, raises ValueError."""
    sets = []
    for kws in keyword_sets:
        if isinstance(kws, str):
            raise TypeError("keyword_repr takes a sequence of keyword sets")
        kws = sorted(kws)
        check_keywords(kws)
        sets.append(kws)
    lengths = [len(kws) for kws in sets]
    weights = Tensor(np.repeat(1.0 / np.array(lengths), lengths))
    return weighted_row_sum(weights, word_rows([k for kws in sets for k in kws], emb, words),
                            lengths)
