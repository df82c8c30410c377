"""Test-local helpers for layer 1: the (table, index) lookups that `encode`
returns, gathered into rows, and the taps a model builds from them."""

from lfked import autodiff as ad
from lfked.encoding import encode, word_rows


def gathered(lookups):
    """The rows the lookups stand for, side by side: (n, sum of the table
    widths), recorded on the tape when one is active."""
    return ad.concat([ad.take_rows(table, index) for table, index in lookups], axis=1)


def input_rows(tokens, lengths, anchors, emb, pos, words=None):
    """Layer 1's input rows, gathered from encode's lookups with the word
    rows read through `words` on the tape: what conv1d_same convolves in
    the reference layer 1, with gradients into both tables."""
    (table, positions), (_, index) = encode(tokens, lengths, anchors, emb, pos, words)
    vectors = word_rows(list(dict.fromkeys(tokens)), emb, words)
    return gathered([(table, positions), (vectors, index)])


def taps_for(pairs, tokens, lengths, anchors, emb, pos, words=None, wider=(0, 0)):
    """(taps, index): ad.Taps over the offsets the sentences reach, `wider`
    further on each side, with the word taps of their distinct tokens, as a
    model builds them; and each token's word row."""
    (_, _), (vectors, index) = encode(tokens, lengths, anchors, emb, pos, words)
    lo = -max(anchors) - wider[0]
    hi = max(n - 1 - a for n, a in zip(lengths, anchors)) + wider[1]
    trained = None
    if words is not None:
        trained = (words.matrix, *words.link(list(dict.fromkeys(tokens))))
    return ad.Taps(pairs, pos, lo, hi).with_words(vectors.data, trained), index
