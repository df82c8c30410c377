"""Property tests: the packed forward against the per-example forward, the
invariants of binary example generation, and file round trips."""

import copy
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfked import autodiff as ad
from lfked.autodiff import Tensor
from lfked.baseline import LinearBaseline
from lfked.checkpoint import load_checkpoint, save_checkpoint
from lfked.corpus import (
    OTHER,
    Corpus,
    Document,
    EventMention,
    LFKExample,
    Sentence,
    TriggerLexicon,
    TypeMap,
    holdout_split,
    load_corpus,
    load_dataset,
    save_corpus,
    save_dataset,
)
from lfked.datagen import KEYWORDS_PER_EXAMPLE, POSITIVES_PER_MENTION, generate_lfk
from lfked.encoding import (
    EmbeddingTable,
    PositionTable,
    WordTable,
    load_embeddings,
    write_embeddings,
)
from lfked.models import Model, ModelConfig
from lfked.seeding import rng_for

from lookups import gathered, lookups, taps_for
from test_models import tiny_config, tiny_emb

VOCAB = [f"w{i}" for i in range(12)]
KEYWORDS = [f"k{i}" for i in range(6)]


@st.composite
def sentences(draw):
    n = draw(st.integers(1, 40))
    anchor = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    tokens = draw(st.lists(st.sampled_from(VOCAB), min_size=n, max_size=n))
    keywords = draw(st.sets(st.sampled_from(KEYWORDS), min_size=1, max_size=4))
    return LFKExample(tokens, anchor, tuple(sorted(keywords)), draw(st.integers(0, 1)))


@st.composite
def batches(draw):
    """1-6 examples; each may copy an earlier example's tokens and anchor
    with its own keyword set and label, so that the two share a context."""
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        ex = draw(sentences())
        if batch and draw(st.booleans()):
            ex = replace(draw(st.sampled_from(batch)), keywords=ex.keywords, label=ex.label)
        batch.append(ex)
    return batch


@settings(max_examples=40, deadline=None)
@given(batch=batches(),
       windows=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
       variant=st.sampled_from(["concat", "attention", "concat-cfa", "attention-cfa"]),
       layers=st.integers(1, 2))
def test_forward_batch_rows_equal_the_per_example_forward(batch, windows, variant, layers):
    model = Model(tiny_config(windows=tuple(windows), layers=layers).with_variant(variant),
                  tiny_emb())
    alone = np.stack([model.forward(ex).data for ex in batch])
    # the forwards build their layer-1 taps for the batch, for each example
    # and once per scoring pass
    for packed in (model.forward_batch(batch).data, model.logits_batch(batch)):
        err = np.abs(packed - alone).max() / np.abs(alone).max()
        assert err <= 1e-12, f"relative error {err:.3e}"


# Embeddings hold w0-w7; a WordTable holds w0-w6, so w7 keeps its frozen
# vector and w8, w9 are out of vocabulary.
TAP_TOKENS = [f"w{i}" for i in range(10)]


@st.composite
def packed_sentences(draw):
    """Sentences of 1-70 tokens, each anchored at an edge or anywhere."""
    lengths = draw(st.lists(st.integers(1, 70), min_size=1, max_size=5))
    anchors = [draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1)) for n in lengths]
    tokens = draw(st.lists(st.sampled_from(TAP_TOKENS), min_size=sum(lengths),
                           max_size=sum(lengths)))
    return tokens, lengths, anchors


@settings(max_examples=80, deadline=None)
@given(packed=packed_sentences(),
       windows=st.sampled_from([(1,), (2,), (5, 2, 4), (1, 2, 3, 4, 5)]),
       max_offset=st.sampled_from([0, 4]), finetune=st.booleans(),
       wider=st.tuples(st.integers(0, 3), st.integers(0, 3)), seed=st.integers(0, 2**16))
def test_position_taps_equal_conv_of_the_gathered_rows(packed, windows, max_offset, finetune,
                                                       wider, seed):
    # The tables may cover more offsets than these sentences reach, as a
    # pass's tables do for each of its chunks.
    tokens, lengths, anchors = packed
    rng = np.random.default_rng(seed)
    emb = EmbeddingTable({t: rng.normal(size=3) for t in TAP_TOKENS[:8]}, 3)
    words = None
    if finetune:
        words = WordTable(emb, TAP_TOKENS[:7])
        words.matrix.data += rng.normal(scale=0.1, size=words.matrix.shape)
    pos = PositionTable(2, max_offset, rng)
    pairs = [(Tensor(rng.uniform(-1, 1, (w, 5, 2))), Tensor(rng.uniform(-1, 1, 2)))
             for w in windows]
    want = ad.conv1d_same(gathered(lookups(tokens, lengths, anchors, emb, pos, words)), pairs,
                          lengths=lengths).data
    taps, index = taps_for(pairs, tokens, lengths, anchors, emb, pos, words, wider)
    got = ad.conv1d_tables(taps, index, lengths, anchors).data
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 1e-12, f"relative error {err:.3e}"


TYPE_MAP = TypeMap(types=["alpha", "beta"],
                   subtype_of={"alpha_1": "alpha", "alpha_2": "alpha",
                               "beta_1": "beta", "beta_2": "beta"})
TRIGGERS = [f"t{i}" for i in range(10)]


@st.composite
def lexicons(draw):
    return TriggerLexicon({
        sub: draw(st.sets(st.sampled_from(TRIGGERS), min_size=KEYWORDS_PER_EXAMPLE,
                          max_size=8))
        for sub in TYPE_MAP.subtype_of
    })


@st.composite
def corpora(draw):
    docs = []
    for d in range(draw(st.integers(1, 3))):
        sents = []
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 8))
            tokens = draw(st.lists(st.sampled_from(TRIGGERS + ["x", "y", "T0"]),
                                   min_size=n, max_size=n))
            anchors = draw(st.sets(st.integers(0, n - 1), max_size=3))
            subtypes = st.sampled_from(sorted(TYPE_MAP.subtype_of) + [OTHER])
            sents.append(Sentence(tokens, [EventMention(a, draw(subtypes))
                                           for a in sorted(anchors)]))
        docs.append(Document(f"doc{d}", sents))
    return Corpus(docs)


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(), lexicon=lexicons(), seed=st.integers(0, 2**16))
def test_generated_examples_keep_the_datagen_invariants(corpus, lexicon, seed):
    train, _, _ = holdout_split(corpus, corpus, corpus, "beta", TYPE_MAP)
    examples = generate_lfk(train, lexicon, TYPE_MAP, "beta", "train", seed)
    target = TYPE_MAP.subtypes_of("beta")
    # examples come out mention by mention, positives in groups
    positives = iter([ex for ex in examples if ex.label == 1])
    for sent in train.sentences():
        for m in sent.mentions:
            assert m.subtype not in target
            pool = lexicon.pool(m.subtype) - {sent.tokens[m.anchor].lower()}
            if m.subtype == OTHER or len(pool) < KEYWORDS_PER_EXAMPLE:
                continue
            group = [next(positives) for _ in range(POSITIVES_PER_MENTION)]
            assert all(ex.anchor == m.anchor and ex.source_subtype == m.subtype
                       for ex in group)
            distinct = {ex.keywords for ex in group}
            assert len(distinct) == min(POSITIVES_PER_MENTION,
                                        math.comb(len(pool), KEYWORDS_PER_EXAMPLE))
            for ex in group:
                assert ex.tokens[ex.anchor].lower() not in ex.keywords
                assert set(ex.keywords) <= pool
    assert next(positives, None) is None
    for ex in examples:
        assert ex.source_subtype not in target
        assert len(set(ex.keywords)) == KEYWORDS_PER_EXAMPLE
        assert set(ex.keywords) <= lexicon.pool(ex.source_subtype)


# --- file round trips ---------------------------------------------------------

TEXT = st.text(min_size=1, max_size=6)


@st.composite
def any_sentences(draw):
    tokens = draw(st.lists(TEXT, min_size=1, max_size=6))
    anchors = st.integers(0, len(tokens) - 1)
    return Sentence(tokens, draw(st.lists(st.builds(EventMention, anchors, TEXT), max_size=3)))


# load_corpus merges documents that share an id, so ids are distinct
any_corpora = st.builds(Corpus, st.lists(
    st.builds(Document, TEXT, st.lists(any_sentences(), min_size=1, max_size=3)),
    max_size=4, unique_by=lambda doc: doc.doc_id))


@st.composite
def any_examples(draw):
    tokens = draw(st.lists(TEXT, min_size=1, max_size=6))
    return LFKExample(tokens, draw(st.integers(0, len(tokens) - 1)),
                      tuple(draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))),
                      draw(st.integers(0, 1)), draw(st.none() | TEXT))


def _resaved(save, load, obj, **kw):
    """The bytes of obj saved, loaded and saved again; they must be equal."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save(obj, first, **kw)
        save(load(first), second, **kw)
        return first.read_bytes(), second.read_bytes()


@settings(max_examples=60, deadline=None)
@given(corpus=any_corpora)
def test_corpus_file_round_trip_is_byte_identical(corpus):
    first, second = _resaved(save_corpus, load_corpus, corpus)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(examples=st.lists(any_examples(), max_size=5), debug=st.booleans())
def test_dataset_file_round_trip_is_byte_identical(examples, debug):
    first, second = _resaved(save_dataset, load_dataset, examples, debug=debug)
    assert first == second


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cnn", "finetune-words", "baseline"]),
       variant=st.sampled_from(["concat", "attention", "concat-cfa", "attention-cfa"]),
       windows=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
       layers=st.integers(1, 2), cfa_last=st.booleans(), seed=st.integers(0, 2**16),
       batch=st.lists(sentences(), min_size=1, max_size=4))
def test_checkpoint_reloads_to_identical_logits_and_bytes(
        kind, variant, windows, layers, cfa_last, seed, batch):
    rng = rng_for(seed, "emb")
    with tempfile.TemporaryDirectory() as tmp:
        emb_path, first, second = Path(tmp, "emb.txt"), Path(tmp, "a"), Path(tmp, "b")
        write_embeddings({t: rng.normal(size=8) for t in VOCAB + KEYWORDS}, emb_path)
        emb = load_embeddings(emb_path)
        if kind == "baseline":
            model = LinearBaseline(emb)
        else:
            config = tiny_config(windows=tuple(windows), layers=layers, cfa_last=cfa_last,
                                 seed=seed).with_variant(variant)
            words = WordTable(emb, VOCAB) if kind == "finetune-words" else None
            model = Model(config, emb, words=words)
        save_checkpoint(model, first, emb_path=emb_path)
        back = load_checkpoint(first)
        save_checkpoint(back, second, emb_path=emb_path)
        assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(back.forward_batch(batch).data,
                                  model.forward_batch(batch).data)


# --- a value of the wrong JSON kind is refused --------------------------------

# The Python types json.load gives for the values each record key admits, and
# for the elements of each list; stated here independently of the loaders.
ADMITS = {"tokens": {list}, "anchor": {int}, "keywords": {list}, "label": {int},
          "source_subtype": {str, type(None)}, "doc": {str}, "mentions": {list},
          "subtype": {str}}
ELEMENT = {"tokens": str, "keywords": str, "mentions": dict}
JSON_VALUES = {int: st.integers(), float: st.floats(allow_nan=False, allow_infinity=False),
               bool: st.booleans(), str: TEXT, list: st.lists(st.integers(), max_size=2),
               dict: st.dictionaries(TEXT, st.integers(), max_size=2), type(None): st.none()}


def _slots(rec):
    """(keys, admitted types) of every value in a record, list elements and the
    mentions' fields included."""
    for key, value in rec.items():
        yield (key,), ADMITS[key]
        for i, x in enumerate(value if type(value) is list else []):
            yield (key, i), {ELEMENT[key]}
            for k in x if type(x) is dict else []:
                yield (key, i, k), ADMITS[k]


@st.composite
def records_with_a_wrong_value(draw):
    """(loader, a valid record, the record with one value of another kind, its name)"""
    if draw(st.booleans()):
        ex = draw(any_examples())
        loader, good = load_dataset, {"tokens": ex.tokens, "anchor": ex.anchor,
                                      "keywords": list(ex.keywords), "label": ex.label,
                                      "source_subtype": ex.source_subtype}
    else:
        sent = draw(any_sentences())
        loader, good = load_corpus, {"doc": draw(TEXT), "tokens": sent.tokens, "mentions": [
            {"anchor": m.anchor, "subtype": m.subtype} for m in sent.mentions]}
    keys, admitted = draw(st.sampled_from(list(_slots(good))))
    bad = copy.deepcopy(good)
    parent = bad
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = draw(st.sampled_from([t for t in JSON_VALUES if t not in admitted])
                            .flatmap(JSON_VALUES.get))
    return loader, good, bad, repr(keys[0]) + "".join(f"[{k!r}]" for k in keys[1:])


@settings(max_examples=150, deadline=None)
@given(case=records_with_a_wrong_value(), line=st.integers(1, 3))
def test_loaders_refuse_a_value_of_another_json_kind(case, line):
    loader, good, bad, name = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "records.jsonl")
        path.write_text("".join(json.dumps(r) + "\n" for r in [good] * (line - 1) + [bad]))
        with pytest.raises(ValueError) as err:
            loader(path)
    assert str(err.value).startswith(f"{path}:{line}: bad ")
    assert f"({name} must be " in str(err.value)
