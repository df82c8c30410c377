"""Corpus data model, file round-trips, and the target-type holdout."""

import json

import pytest

from lfked.corpus import (
    OTHER,
    Corpus,
    Document,
    EventMention,
    LFKExample,
    Sentence,
    TriggerLexicon,
    TypeMap,
    dataset_stats,
    from_json,
    holdout_split,
    json_kind,
    lexicon_from_corpus,
    load_corpus,
    load_dataset,
    load_lexicon,
    load_typemap,
    save_corpus,
    save_dataset,
    save_lexicon,
    save_typemap,
)


def small_typemap():
    return TypeMap(
        types=["alpha", "beta"],
        subtype_of={"alpha_1": "alpha", "alpha_2": "alpha", "beta_1": "beta"},
    )


def sent(tokens, *mentions):
    return Sentence(list(tokens), [EventMention(a, s) for a, s in mentions])


def test_corpus_validate_rejects_bad_anchor():
    c = Corpus([Document("d0", [sent(["a", "b"], (2, "alpha_1"))])])
    with pytest.raises(ValueError, match="anchor 2"):
        c.validate()


def test_corpus_validate_rejects_empty_sentence():
    c = Corpus([Document("d0", [Sentence([], [])])])
    with pytest.raises(ValueError, match="empty token list"):
        c.validate()


def test_typemap_rejects_other_as_subtype():
    with pytest.raises(ValueError, match="Other"):
        TypeMap(types=["alpha"], subtype_of={OTHER: "alpha"}).validate()


def test_typemap_rejects_unknown_type():
    with pytest.raises(ValueError, match="unknown type"):
        TypeMap(types=["alpha"], subtype_of={"x": "nope"}).validate()


def test_typemap_subtypes_of():
    tm = small_typemap()
    assert tm.subtypes_of("alpha") == {"alpha_1", "alpha_2"}
    assert tm.subtypes_of("beta") == {"beta_1"}
    with pytest.raises(ValueError, match="valid types"):
        tm.subtypes_of("gamma")


def test_example_validation():
    with pytest.raises(ValueError, match="anchor"):
        LFKExample(["a"], 1, ("k",), 1).validate()
    with pytest.raises(ValueError, match="empty token list"):
        LFKExample([], 0, ("k",), 1).validate()
    with pytest.raises(ValueError, match="empty keyword set"):
        LFKExample(["a"], 0, (), 1).validate()
    with pytest.raises(ValueError, match="label"):
        LFKExample(["a"], 0, ("k",), 2).validate()


# --- holdout ---------------------------------------------------------------


def test_holdout_removes_target_mentions_from_train():
    # One target-subtype mention plus one surviving mention in one sentence.
    tr = Corpus(
        [Document("d", [sent(["x", "y"], (0, "alpha_1"), (1, "beta_1"))])]
    )
    empty = Corpus([])
    out_tr, _, _ = holdout_split(tr, empty, empty, "alpha", small_typemap())
    kept = out_tr.documents[0].sentences[0].mentions
    assert [(m.anchor, m.subtype) for m in kept] == [(1, "beta_1")]


def test_holdout_keeps_only_target_and_other_in_test():
    te = Corpus(
        [
            Document(
                "d",
                [sent(["x", "y", "z"], (0, "alpha_1"), (1, "beta_1"), (2, OTHER))],
            )
        ]
    )
    empty = Corpus([])
    _, _, out_te = holdout_split(empty, empty, te, "alpha", small_typemap())
    kept = out_te.documents[0].sentences[0].mentions
    assert [(m.anchor, m.subtype) for m in kept] == [(0, "alpha_1"), (2, OTHER)]


def test_holdout_counts_match_predicate_oracle():
    # 20-sentence corpus with a fixed rotation of subtypes; compare surviving
    # mention counts against direct predicate filtering.
    subs = ["alpha_1", "alpha_2", "beta_1", OTHER]
    sents = [
        sent(["w0", "w1", "w2"], (i % 3, subs[i % 4])) for i in range(20)
    ]
    corpus = Corpus([Document("d", sents)])
    tm = small_typemap()
    target = tm.subtypes_of("alpha")

    out_tr, out_dev, out_te = holdout_split(corpus, corpus, corpus, "alpha", tm)
    all_mentions = [m for s in corpus.sentences() for m in s.mentions]
    want_train = sum(1 for m in all_mentions if m.subtype not in target)
    want_eval = sum(1 for m in all_mentions if m.subtype in target or m.subtype == OTHER)
    assert out_tr.mention_count() == want_train == 10
    assert out_dev.mention_count() == want_eval == 15
    assert out_te.mention_count() == want_eval
    # sentences are never dropped
    assert sum(1 for _ in out_tr.sentences()) == 20


def test_holdout_unknown_type_lists_valid_ones():
    empty = Corpus([])
    with pytest.raises(ValueError, match="alpha"):
        holdout_split(empty, empty, empty, "nope", small_typemap())


def test_lexicon_from_corpus_lowercases_and_skips_other():
    c = Corpus(
        [
            Document(
                "d",
                [
                    sent(["Fired", "x"], (0, "alpha_1"), (1, OTHER)),
                    sent(["left", "fired"], (0, "alpha_1"), (1, "alpha_1")),
                ],
            )
        ]
    )
    lex = lexicon_from_corpus(c)
    assert lex.triggers == {"alpha_1": {"fired", "left"}}


def test_dataset_stats():
    assert dataset_stats([]) == dataset_stats([])
    assert dataset_stats([]).positives == 0 and dataset_stats([]).negatives == 0
    exs = [LFKExample(["a"], 0, ("k",), 1), LFKExample(["a"], 0, ("k",), 0)]
    rep = dataset_stats(exs * 3)
    assert (rep.positives, rep.negatives) == (3, 3)


# --- file formats ----------------------------------------------------------


def test_corpus_roundtrip(tmp_path):
    c = Corpus(
        [
            Document("d0", [sent(["a", "b"], (0, "alpha_1"))]),
            Document("d1", [sent(["c"], (0, OTHER)), sent(["d", "e"])]),
        ]
    )
    p = tmp_path / "corpus.jsonl"
    save_corpus(c, p)
    back = load_corpus(p)
    assert [d.doc_id for d in back.documents] == ["d0", "d1"]
    assert back.documents[1].sentences[0].mentions[0].subtype == OTHER
    assert back.documents[1].sentences[1].tokens == ["d", "e"]
    # format spot check: one JSON object per line with the documented keys
    rec = json.loads(p.read_text().splitlines()[0])
    assert set(rec) == {"doc", "tokens", "mentions"}
    assert rec["mentions"] == [{"anchor": 0, "subtype": "alpha_1"}]


def test_corpus_regroups_interleaved_documents(tmp_path):
    p = tmp_path / "c.jsonl"
    lines = [
        {"doc": "a", "tokens": ["1"], "mentions": []},
        {"doc": "b", "tokens": ["2"], "mentions": []},
        {"doc": "a", "tokens": ["3"], "mentions": []},
    ]
    p.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    c = load_corpus(p)
    assert [(d.doc_id, len(d.sentences)) for d in c.documents] == [("a", 2), ("b", 1)]


def test_load_corpus_reports_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"doc": "d", "tokens": ["a"], "mentions": []}\nnot json\n')
    with pytest.raises(ValueError, match=":2"):
        load_corpus(p)


def test_load_corpus_rejects_missing_field(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": ["a"]}\n')
    with pytest.raises(ValueError, match="bad sentence record"):
        load_corpus(p)


def test_load_corpus_rejects_a_string_of_tokens(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"doc": "d", "tokens": ["a"]}\n{"doc": "d", "tokens": "abc"}\n')
    with pytest.raises(ValueError) as err:
        load_corpus(p)
    assert str(err.value) == f"{p}:2: bad sentence record ('tokens' must be a list, not a string)"


def test_typemap_roundtrip(tmp_path):
    p = tmp_path / "types.json"
    save_typemap(small_typemap(), p)
    tm = load_typemap(p)
    assert tm.types == ["alpha", "beta"]
    assert tm.subtype_of["alpha_2"] == "alpha"


def test_lexicon_roundtrip_sorted_and_lowercased(tmp_path):
    p = tmp_path / "lex.json"
    save_lexicon(TriggerLexicon({"s": {"b", "a"}}), p)
    assert json.loads(p.read_text()) == {"s": ["a", "b"]}
    p2 = tmp_path / "lex2.json"
    p2.write_text('{"s": ["Fired", "LEFT"]}')
    assert load_lexicon(p2).pool("s") == {"fired", "left"}


def test_load_lexicon_rejects_a_string_of_triggers(tmp_path):
    p = tmp_path / "lex.json"
    p.write_text('{"a": "trig"}')
    with pytest.raises(ValueError) as err:
        load_lexicon(p)
    assert str(err.value) == f"{p}: 'a' must be a list, not a string"


def test_dataset_roundtrip_and_sorted_keywords(tmp_path):
    exs = [
        LFKExample(["w0", "w1"], 1, ("zz", "aa", "mm"), 1, source_subtype="alpha_1"),
        LFKExample(["w2"], 0, ("k1", "k2"), 0, source_subtype="beta_1"),
    ]
    p = tmp_path / "data.jsonl"
    save_dataset(exs, p)
    recs = [json.loads(line) for line in p.read_text().splitlines()]
    assert recs[0]["keywords"] == ["aa", "mm", "zz"]
    assert "source_subtype" not in recs[0]
    back = load_dataset(p)
    assert back[0].label == 1 and back[1].anchor == 0
    assert back[0].source_subtype is None

    save_dataset(exs, p, debug=True)
    back = load_dataset(p)
    assert [e.source_subtype for e in back] == ["alpha_1", "beta_1"]


def test_save_dataset_validates_every_example_before_writing(tmp_path):
    good = LFKExample(["w0", "w1"], 1, ("aa",), 1)
    p = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match="keyword 'k' repeats in the keyword set"):
        save_dataset([good, LFKExample(["w2"], 0, ("k", "j", "k"), 0)], p)
    assert not p.exists()
    save_dataset([good], p)
    before = p.read_bytes()
    with pytest.raises(ValueError, match="anchor 3 outside 0..1"):
        save_dataset([good, LFKExample(["w0", "w1"], 3, ("aa",), 1)], p)
    assert p.read_bytes() == before


def test_load_dataset_validates_examples(tmp_path):
    p = tmp_path / "data.jsonl"
    p.write_text('{"tokens": ["a"], "anchor": 5, "keywords": ["k"], "label": 1}\n')
    with pytest.raises(ValueError, match="anchor 5"):
        load_dataset(p)


GOOD_RECORD = {"tokens": ["a", "b", "c"], "anchor": 1, "keywords": ["k"], "label": 1}

# (field overrides, message after "path:line: ")
BAD_RECORDS = [
    ({"tokens": [], "anchor": 0}, "empty token list"),
    ({"keywords": []}, "empty keyword set"),
    ({"anchor": 3}, "anchor 3 outside 0..2"),
    ({"anchor": -1}, "anchor -1 outside 0..2"),
    ({"label": 2}, "label must be 0 or 1, got 2"),
    ({"anchor": "x"}, "bad example record ('anchor' must be an integer, not a string)"),
    ({"tokens": "abc"}, "bad example record ('tokens' must be a list, not a string)"),
    ({"keywords": "k"}, "bad example record ('keywords' must be a list, not a string)"),
    ({"label": 0.9}, "bad example record ('label' must be an integer, not a float)"),
    ({"label": True}, "bad example record ('label' must be an integer, not a bool)"),
    ({"anchor": "1"}, "bad example record ('anchor' must be an integer, not a string)"),
    ({"keywords": {"k": 1}}, "bad example record ('keywords' must be a list, not an object)"),
    ({"tokens": ["a", 5]}, "bad example record ('tokens'[1] must be a string, not an integer)"),
    ({"keywords": ["k", 3]},
     "bad example record ('keywords'[1] must be a string, not an integer)"),
    ({"source_subtype": 4},
     "bad example record ('source_subtype' must be a string or null, not an integer)"),
    ({"keywords": ["k", "j", "k"]}, "keyword 'k' repeats in the keyword set"),
]


@pytest.mark.parametrize("ann, value, message", [
    (str | list[int], ["2", "3"], "[0] must be an integer, not a string"),
    (str | list[int], 5, "must be a string or a list, not an integer"),
    (list[str] | None, ["a", 5], "[1] must be a string, not an integer"),
    (dict[str, int] | None, {"a": True}, "'a' must be an integer, not a bool"),
])
def test_a_refused_union_names_the_part_at_fault(ann, value, message):
    with pytest.raises(ValueError) as err:
        from_json(ann, value, "cfg.json: windows")
    assert str(err.value) == f"cfg.json: windows: {message}"


@pytest.mark.parametrize("ann", [tuple[str, ...] | None, EventMention | None,
                                 list[EventMention] | None])
def test_a_union_of_kinds_that_build_a_value_is_refused(ann):
    with pytest.raises(TypeError):
        json_kind(ann)


def write_bad_dataset(path, overrides):
    """A dataset whose line 2 is GOOD_RECORD with `overrides` applied."""
    lines = [GOOD_RECORD, GOOD_RECORD | overrides]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    return path


@pytest.mark.parametrize("overrides, message", BAD_RECORDS)
def test_load_dataset_names_the_bad_record(tmp_path, overrides, message):
    p = write_bad_dataset(tmp_path / "data.jsonl", overrides)
    with pytest.raises(ValueError) as err:
        load_dataset(p)
    assert str(err.value) == f"{p}:2: {message}"
