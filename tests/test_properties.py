"""Property tests: the packed forward against the per-example forward, and the
invariants of binary example generation."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from lfked.datagen import KEYWORDS_PER_EXAMPLE, POSITIVES_PER_MENTION, generate_lfk
from lfked.models import Model, ModelConfig

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


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(sentences(), min_size=1, max_size=6),
       windows=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
       variant=st.sampled_from(["concat", "attention", "concat-cfa", "attention-cfa"]),
       layers=st.integers(1, 2))
def test_forward_batch_rows_equal_the_per_example_forward(batch, windows, variant, layers):
    model = Model(tiny_config(windows=tuple(windows), layers=layers).with_variant(variant),
                  tiny_emb())
    packed = model.forward_batch(batch).data
    alone = np.stack([model.forward(ex).data for ex in batch])
    err = np.abs(packed - alone).max() / np.abs(alone).max()
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
