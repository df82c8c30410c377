"""Test-local reference for layer 1's input: packed sentences as two (table,
index) lookups, the position row of each token's offset from its anchor
beside its row of `encode`'s words, gathered into rows; and the taps a
model builds from the same words. The reference clamps offsets by itself,
apart from the clamp of ad.Taps that it checks."""

import numpy as np

from lfked import autodiff as ad
from lfked.encoding import encode


def position_table(dim, max_offset, rng):
    """A trainable (2 * max_offset + 1, dim) position table: row k holds
    offset k - max_offset, drawn as Model draws its own."""
    return ad.Tensor(rng.uniform(-0.1, 0.1, (2 * max_offset + 1, dim)), requires_grad=True)


def position_rows(offsets, positions):
    """The row of `positions` each offset reads: offsets past the table's
    max_offset on either side read its edge row."""
    M = (len(positions.data) - 1) // 2
    return np.clip(np.asarray(offsets, dtype=np.intp), -M, M) + M


def token_rows(vocab, tokens):
    """Each token's row among the words `vocab` maps."""
    return np.array([vocab[t] for t in tokens], dtype=np.intp)


def lookups(tokens, lengths, anchors, emb, positions, words=None):
    """[(positions, position rows), (word vectors, word rows)]: row i of
    sentences packed one after another, `lengths` their token counts and
    `anchors` one index into each, is the position row of offset
    i - start - anchor of its sentence beside the word vector of token i.
    The word vectors are encode's, as constants."""
    lengths = np.asarray(lengths, dtype=np.intp)
    offsets = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths + anchors,
                                                 lengths)
    vectors, vocab, _ = encode(tokens, emb, words)
    return [(positions, position_rows(offsets, positions)),
            (ad.Tensor(vectors), token_rows(vocab, tokens))]


def gathered(lookups):
    """The rows the lookups stand for, side by side: (n, sum of the table
    widths), recorded on the tape when one is active."""
    return ad.concat([ad.take_rows(table, index) for table, index in lookups], axis=1)


def input_rows(tokens, lengths, anchors, emb, positions, words=None):
    """Layer 1's input rows, gathered from the lookups with the word rows
    read through `words` on the tape: what conv1d_same convolves in the
    reference layer 1, with gradients into both tables."""
    by_offset, (_, index) = lookups(tokens, lengths, anchors, emb, positions, words)
    distinct = list(dict.fromkeys(tokens))
    vectors = ad.Tensor(emb.rows(distinct)) if words is None else words.rows(distinct)
    return gathered([by_offset, (vectors, index)])


def taps_for(pairs, tokens, lengths, anchors, emb, positions, words=None, wider=(0, 0)):
    """(taps, index): ad.Taps over the offsets the sentences reach, `wider`
    further on each side, with the word taps of their distinct tokens, as a
    model builds them; and each token's word row."""
    lo = -max(anchors) - wider[0]
    hi = max(n - 1 - a for n, a in zip(lengths, anchors)) + wider[1]
    taps = ad.Taps(pairs, positions, lo, hi).with_words(*encode(tokens, emb, words))
    return taps, token_rows(taps.vocab, tokens)
