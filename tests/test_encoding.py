"""Embedding and word tables, sentence and keyword encoding, and the
reference rows of layer 1's input, whose offsets clamp to the position
table's edges as the taps' do."""

import tracemalloc

import numpy as np
import pytest

from lfked.autodiff import Tape, Tensor, conv1d_tables, mean
from lfked.encoding import (
    EmbeddingTable,
    WordTable,
    demo_embeddings_path,
    encode,
    keyword_repr,
    load_embeddings,
    write_embeddings,
)
from lfked.seeding import rng_for

from lookups import gathered, lookups, position_rows, position_table, taps_for


def table(dim=3, policy="zero", seed=0):
    return EmbeddingTable(
        {"cat": np.arange(dim) + 1.0, "dog": -np.ones(dim)},
        dim,
        oov_policy=policy,
        seed=seed,
    )


def test_load_embeddings_small_file(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1.0 2.0 3.0\ndog -1 -1 -1\n")
    emb = load_embeddings(p, dim=3)
    assert len(emb) == 2 and emb.dim == 3
    assert emb.lookup("cat").tolist() == [1.0, 2.0, 3.0]


def test_load_embeddings_reads_the_dim_from_the_first_vector(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("\n  \ncat 1.0 2.0 3.0\ndog -1 -1 -1\n")
    emb = load_embeddings(p)
    assert len(emb) == 2 and emb.dim == 3
    p.write_text("cat 1.0 2.0 3.0\ndog -1 -1\n")
    with pytest.raises(ValueError, match=":2: 2 values for 'dog', want 3"):
        load_embeddings(p)
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="embedding file is empty"):
        load_embeddings(p)


def test_load_embeddings_dim_mismatch(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1.0 2.0\n")
    with pytest.raises(ValueError, match=":1"):
        load_embeddings(p, dim=3)


def test_load_embeddings_parse_error_names_line(tmp_path):
    p = tmp_path / "emb.txt"
    for bad in ("oops", "nan", "inf", "-inf"):
        p.write_text(f"cat 1.0 2.0 3.0\ndog 1.0 {bad} 3.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_embeddings(p, dim=3)


def test_load_embeddings_duplicate_last_wins(tmp_path, caplog):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1 1 1\ncat 2 2 2\n")
    with caplog.at_level("WARNING"):
        emb = load_embeddings(p, dim=3)
    assert "duplicate" in caplog.text
    assert emb.lookup("cat").tolist() == [2.0, 2.0, 2.0]


def test_embeddings_roundtrip_exact(tmp_path):
    vecs = {"a": np.array([0.1, -1e-17, 3.0]), "b": np.array([1 / 3, 2.0, -0.7])}
    p = tmp_path / "emb.txt"
    write_embeddings(vecs, p)
    back = load_embeddings(p, dim=3)
    for t in vecs:
        assert (back.lookup(t) == vecs[t]).all()


def test_oov_zero_policy():
    assert table(policy="zero").lookup("bird").tolist() == [0.0, 0.0, 0.0]


def test_oov_random_fixed_deterministic():
    a = table(policy="random-fixed", seed=5)
    b = table(policy="random-fixed", seed=5)
    v1, v2 = a.lookup("bird"), b.lookup("bird")
    assert (v1 == v2).all() and not (v1 == 0).all()
    assert (a.lookup("bird") == v1).all()
    c = table(policy="random-fixed", seed=6)
    assert not (c.lookup("bird") == v1).all()
    assert not (a.lookup("fish") == v1).all()


def test_lookup_falls_back_to_lowercase():
    assert (table().lookup("CAT") == table().lookup("cat")).all()


def test_bad_policy_rejected():
    with pytest.raises(ValueError, match="oov_policy"):
        EmbeddingTable({}, 3, oov_policy="nearest")


def test_demo_embeddings_bundled():
    emb = load_embeddings(demo_embeddings_path(), dim=50)
    assert len(emb) >= 20
    assert "fired" in emb


# --- position table and encoding -------------------------------------------


def ptable(dim=4, max_offset=3, seed=0):
    return position_table(dim, max_offset, rng_for(seed, "pos"))


def test_encode_maps_tokens_in_first_occurrence_order():
    emb = table(policy="random-fixed")
    tokens = ["dog", "cat", "dog", "bird", "cat"]
    vectors, vocab, trained = encode(tokens, emb)
    assert list(vocab.items()) == [("dog", 0), ("cat", 1), ("bird", 2)]
    assert all(t in vocab for t in tokens)
    assert vectors.shape == (3, 3) and trained is None
    for t, row in vocab.items():
        assert (vectors[row] == emb.lookup(t)).all()


def test_encode_looks_up_each_distinct_token_once(monkeypatch):
    looked_up = []
    lookup = EmbeddingTable.lookup
    monkeypatch.setattr(EmbeddingTable, "lookup",
                        lambda emb, t: (looked_up.append(t), lookup(emb, t))[1])
    emb = table(policy="random-fixed")
    tokens = ["dog", "cat", "dog", "bird", "cat", "bird"]
    encode(tokens, emb)
    assert looked_up == ["dog", "cat", "bird"]
    words = WordTable(emb, ["cat", "dog"])
    looked_up.clear()
    encode(tokens, emb, words)
    assert looked_up == ["bird"]                  # the one token outside the table


def test_encode_reads_a_word_table():
    emb = table(policy="random-fixed", seed=1)
    words = WordTable(emb, ["cat", "dog"])
    words.matrix.data += 1.0                      # trained away from emb
    tokens = ["zzunseen", "cat", "bird", "dog", "cat"]
    vectors, vocab, trained = encode(tokens, emb, words)
    matrix, at, rows = trained
    assert matrix is words.matrix
    assert at.tolist() == [1, 3] and rows.tolist() == [words.index["cat"], words.index["dog"]]
    assert (vectors[at] == words.matrix.data[rows]).all()
    for t in ("zzunseen", "bird"):
        assert (vectors[vocab[t]] == emb.lookup(t)).all()
    vectors, _, trained = encode(["dog", "cat"], emb, words)
    assert (vectors == words.matrix.data[[1, 0]]).all() and trained[1].tolist() == [0, 1]


def test_reference_rows_single_token():
    emb, pos = table(), ptable()
    enc = gathered(lookups(["cat"], [1], [0], emb, pos))
    assert enc.shape == (1, 7)
    want = np.concatenate([pos.data[3], emb.lookup("cat")])
    assert (enc.data[0] == want).all()


def test_reference_rows_offsets_from_anchor():
    emb, pos = table(), ptable()
    enc = gathered(lookups(["cat", "dog", "cat"], [3], [0], emb, pos))
    # anchor at 0: offsets 0, 1, 2 -> table rows 3, 4, 5
    for i, row in enumerate([3, 4, 5]):
        assert (enc.data[i, :4] == pos.data[row]).all()
        assert (enc.data[i, 4:] == emb.lookup(["cat", "dog", "cat"][i])).all()


@pytest.mark.parametrize("max_offset, anchor, offsets, rows", [
    (3, 9, [-9, -3, 0, 2, 9], [0, 0, 3, 5, 6]),
    (30, 0, [29, 30, 49], [59, 60, 60]),
], ids=["M3", "M30"])
def test_reference_and_taps_clamp_offsets_to_the_table_edges(max_offset, anchor, offsets,
                                                              rows):
    # Row k of the table holds offset k - max_offset; an offset past
    # max_offset reads the edge row, in the reference's rows and in the rows
    # the taps read. One width-1 window whose taps copy the position row
    # shows the taps' reads.
    emb = EmbeddingTable({}, 3, oov_policy="zero")
    pos = ptable(max_offset=max_offset, seed=1)
    assert pos.shape == (2 * max_offset + 1, 4)
    assert position_rows(offsets, pos).tolist() == rows
    n = anchor + max(offsets) + 1
    tokens, at = [f"w{i}" for i in range(n)], np.add(anchor, offsets)
    enc = gathered(lookups(tokens, [n], [anchor], emb, pos))
    assert (enc.data[at, :4] == pos.data[rows]).all()
    filt = np.zeros((1, 4 + emb.dim, 4))
    filt[0, :4] = np.eye(4)
    taps, index = taps_for([(Tensor(filt), Tensor(np.zeros(4)))], tokens, [n], [anchor], emb,
                           pos)
    assert (conv1d_tables(taps, index, [n], [anchor]).data[at] == pos.data[rows]).all()


def test_reference_rows_shape_property():
    emb, pos = table(), ptable()
    for n in (1, 2, 5, 11):
        enc = gathered(lookups([f"w{i}" for i in range(n)], [n], [n // 2], emb, pos))
        assert enc.shape == (n, pos.shape[1] + emb.dim)


def layer_one(tokens, lengths, anchors, emb, pos, words=None):
    """A small layer 1 over the sentences, from their taps."""
    rng = rng_for(1, "filters")
    pairs = [(Tensor(rng.normal(size=(w, pos.shape[1] + emb.dim, 2)), requires_grad=True),
              Tensor(rng.normal(size=2), requires_grad=True)) for w in (2, 3)]
    taps, index = taps_for(pairs, tokens, lengths, anchors, emb, pos, words)
    return conv1d_tables(taps, index, lengths, anchors)


def test_position_grads_flow_words_stay_frozen():
    emb, pos = table(), ptable()
    before = emb.vectors["cat"].copy()
    with Tape() as tape:
        enc = gathered(lookups(["cat", "dog"], [2], [1], emb, pos))
        tape.backward(mean(enc))
    assert pos.grad is not None and np.abs(pos.grad).sum() > 0
    assert (emb.vectors["cat"] == before).all()


def test_reference_rows_pack_sentences_one_after_another():
    emb, pos = table(policy="random-fixed"), ptable()
    sentences = [(["cat"], 0), (["dog", "cat", "bird", "cat"], 3), (["bird", "dog"], 0)]
    tokens = [t for toks, _ in sentences for t in toks]
    packed = gathered(lookups(tokens, [len(t) for t, _ in sentences],
                              [a for _, a in sentences], emb, pos)).data
    alone = [gathered(lookups(toks, [len(toks)], [a], emb, pos)).data for toks, a in sentences]
    assert (packed == np.concatenate(alone)).all()


# --- keyword representation -------------------------------------------------


def test_keyword_repr_singleton():
    emb = table()
    assert (keyword_repr([{"cat"}], emb).data[0] == emb.lookup("cat")).all()


def test_keyword_repr_opposite_vectors_cancel():
    emb = EmbeddingTable(
        {"plus": np.array([1.0, -2.0]), "minus": np.array([-1.0, 2.0])}, 2,
    )
    assert (keyword_repr([{"plus", "minus"}], emb).data[0] == np.zeros(2)).all()


def test_keyword_repr_matches_loop_oracle():
    rng = rng_for(3, "kw")
    vecs = {f"k{i}": rng.normal(size=6) for i in range(4)}
    emb = EmbeddingTable(vecs, 6)
    got = keyword_repr([set(vecs)], emb).data[0]
    acc = np.zeros(6)
    for v in vecs.values():
        acc += v
    assert np.abs(got - acc / 4).max() < 1e-12


def test_keyword_repr_permutation_invariant():
    emb = table(policy="random-fixed", seed=2)
    a = keyword_repr([["cat", "dog", "bird"]], emb).data
    b = keyword_repr([["bird", "cat", "dog"]], emb).data
    assert (a == b).all()


def test_keyword_repr_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        keyword_repr([{"cat"}, set()], table())


def test_keyword_repr_one_row_per_set():
    emb = table(policy="random-fixed", seed=2)
    sets = [("cat",), ("dog", "bird"), ("bird", "cat", "dog")]
    rows = keyword_repr(sets, emb).data
    assert rows.shape == (3, 3)
    for row, kws in zip(rows, sets):
        assert np.abs(row - keyword_repr([kws], emb).data[0]).max() < 1e-15
    with pytest.raises(TypeError, match="sequence of keyword sets"):
        keyword_repr({"cat", "dog"}, emb)


def test_keyword_repr_memory_is_linear_in_the_batch():
    # 1000 sets of 4 keywords: the keyword rows take under 0.1 MB, while one
    # (sets, keywords) array would take 32 MB.
    emb = table()
    sets = [("cat", "dog", "emu", "owl")] * 1000   # emu and owl read as zeros
    tracemalloc.start()
    try:
        rows = keyword_repr(sets, emb).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (rows == (emb.lookup("cat") + emb.lookup("dog")) / 4).all()


def test_keyword_repr_refuses_a_repeated_keyword():
    # the message LFKExample.validate gives a dataset record
    with pytest.raises(ValueError, match="keyword 'dog' repeats in the keyword set"):
        keyword_repr([("cat",), ("dog", "cat", "dog")], table())


# --- trainable word table ---------------------------------------------------


def test_word_table_lookup_and_grads():
    emb = table(policy="random-fixed", seed=1)
    words = WordTable(emb, ["cat", "dog", "bird"])
    assert words.matrix.shape == (3, 3)
    assert (words.matrix.data[words.index["cat"]] == emb.lookup("cat")).all()

    # encode's word rows are constants; the table's gradient comes through
    # layer 1's taps of them
    pos = ptable()
    assert isinstance(encode(["cat", "dog"], emb, words)[0], np.ndarray)
    with Tape() as tape:
        tape.backward(mean(layer_one(["cat", "dog"], [2], [0], emb, pos, words)))
    assert np.abs(words.matrix.grad).sum() > 0


def test_word_table_keyword_repr_matches_frozen():
    emb = table(policy="random-fixed", seed=1)
    words = WordTable(emb, ["cat", "dog"])
    frozen = keyword_repr([["cat", "dog"]], emb).data
    trainable = keyword_repr([["cat", "dog"]], emb, words=words).data
    assert np.abs(frozen - trainable).max() < 1e-15


def test_word_table_unseen_tokens_keep_frozen_vectors():
    emb = table(policy="random-fixed", seed=1)
    words = WordTable(emb, ["cat", "dog"])
    words.matrix.data += 1.0                      # trained away from emb
    tokens = ["zzunseen", "cat", "bird", "dog", "zzunseen"]
    pos = ptable()
    rows = gathered(lookups(tokens, [len(tokens)], [1], emb, pos, words)).data[:, pos.shape[1]:]
    for i, t in enumerate(tokens):
        want = words.matrix.data[words.index[t]] if t in words.index else emb.lookup(t)
        assert (rows[i] == want).all(), t
    with Tape() as tape:
        tape.backward(mean(layer_one(tokens, [len(tokens)], [1], emb, pos, words)))
    assert (words.matrix.grad != 0).all()          # only cat and dog rows exist
    kw = keyword_repr([["zzunseen", "cat"]], emb, words=words).data[0]
    want = (emb.lookup("zzunseen") + words.matrix.data[words.index["cat"]]) / 2
    assert np.abs(kw - want).max() < 1e-15
