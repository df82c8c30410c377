"""Event-corpus data model, file formats, and target-type holdout.

A corpus is documents of sentences; each sentence carries tokens and anchored
event mentions. Subtypes hang off types via a TypeMap; the pseudo-subtype
"Other" marks non-event anchor candidates and belongs to no type.

File formats (all JSON / JSON-lines, UTF-8):
  corpus:   one sentence per line
            {"doc": str, "tokens": [str], "mentions": [{"anchor": int, "subtype": str}]}
  typemap:  {"types": [str], "subtype_of": {subtype: type}}
  lexicon:  {subtype: [trigger words]}
  dataset:  one example per line
            {"tokens": [str], "anchor": int, "keywords": [str], "label": 0|1}
            keyword lists are sorted; debug mode adds "source_subtype".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

OTHER = "Other"


@dataclass
class EventMention:
    anchor: int
    subtype: str


@dataclass
class Sentence:
    tokens: list[str]
    mentions: list[EventMention] = field(default_factory=list)


@dataclass
class Document:
    doc_id: str
    sentences: list[Sentence] = field(default_factory=list)


@dataclass
class Corpus:
    documents: list[Document] = field(default_factory=list)

    def sentences(self):
        for doc in self.documents:
            yield from doc.sentences

    def mention_count(self, predicate=None) -> int:
        return sum(
            1
            for s in self.sentences()
            for m in s.mentions
            if predicate is None or predicate(m)
        )

    def validate(self):
        for doc in self.documents:
            for i, sent in enumerate(doc.sentences):
                if not sent.tokens:
                    raise ValueError(f"{doc.doc_id}[{i}]: empty token list")
                for m in sent.mentions:
                    if not 0 <= m.anchor < len(sent.tokens):
                        raise ValueError(
                            f"{doc.doc_id}[{i}]: anchor {m.anchor} outside "
                            f"0..{len(sent.tokens) - 1}"
                        )


@dataclass
class TypeMap:
    types: list[str]
    subtype_of: dict[str, str]

    def validate(self):
        if OTHER in self.subtype_of:
            raise ValueError(f'"{OTHER}" must not appear as a subtype key')
        for sub, typ in self.subtype_of.items():
            if typ not in self.types:
                raise ValueError(f"subtype {sub!r} maps to unknown type {typ!r}")

    def subtypes_of(self, type_name: str) -> set[str]:
        """All subtypes belonging to one event type."""
        if type_name not in self.types:
            raise ValueError(
                f"unknown target type {type_name!r}; valid types: {sorted(self.types)}"
            )
        return {s for s, t in self.subtype_of.items() if t == type_name}


@dataclass
class TriggerLexicon:
    """Trigger words observed per subtype; lowercase-normalized."""

    triggers: dict[str, set[str]]

    def pool(self, subtype: str) -> set[str]:
        return self.triggers.get(subtype, set())


@dataclass
class LFKExample:
    """One binary keyword-matching example: does the anchored context express
    the event kind the keyword set describes?"""

    tokens: list[str]
    anchor: int
    keywords: tuple[str, ...]
    label: int
    source_subtype: str | None = None

    def validate(self):
        if not self.tokens:
            raise ValueError("empty token list")
        if not 0 <= self.anchor < len(self.tokens):
            raise ValueError(f"anchor {self.anchor} outside 0..{len(self.tokens) - 1}")
        if not self.keywords:
            raise ValueError("empty keyword set")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class StatsReport:
    positives: int
    negatives: int


# ---------------------------------------------------------------------------
# holdout


def holdout_split(
    corpus_train: Corpus,
    corpus_dev: Corpus,
    corpus_test: Corpus,
    target_type: str,
    type_map: TypeMap,
) -> tuple[Corpus, Corpus, Corpus]:
    """Remove the target type from training and restrict dev/test to it.

    Training keeps mentions whose subtype is outside the target type's subtype
    set (including "Other"); dev and test keep only target-subtype and "Other"
    mentions. Sentences are always retained, only their mention lists shrink.
    """
    target_subs = type_map.subtypes_of(target_type)

    def filtered(corpus: Corpus, keep) -> Corpus:
        return Corpus(
            [
                Document(
                    doc.doc_id,
                    [
                        Sentence(sent.tokens, [m for m in sent.mentions if keep(m)])
                        for sent in doc.sentences
                    ],
                )
                for doc in corpus.documents
            ]
        )

    train = filtered(corpus_train, lambda m: m.subtype not in target_subs)
    keep_target = lambda m: m.subtype in target_subs or m.subtype == OTHER
    return train, filtered(corpus_dev, keep_target), filtered(corpus_test, keep_target)


def lexicon_from_corpus(corpus: Corpus) -> TriggerLexicon:
    """Collect per-subtype trigger words (lowercased anchor tokens)."""
    triggers: dict[str, set[str]] = {}
    for sent in corpus.sentences():
        for m in sent.mentions:
            if m.subtype != OTHER:
                triggers.setdefault(m.subtype, set()).add(sent.tokens[m.anchor].lower())
    return TriggerLexicon(triggers)


def dataset_stats(examples: list[LFKExample]) -> StatsReport:
    pos = sum(1 for e in examples if e.label == 1)
    return StatsReport(positives=pos, negatives=len(examples) - pos)


# ---------------------------------------------------------------------------
# file I/O


def _jsonl_records(path):
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e


def _list(rec: dict, key: str) -> list:
    """rec[key] as a list. A string is refused: list() would split it into
    its characters."""
    value = rec[key]
    if isinstance(value, str):
        raise TypeError(f"{key!r} must be a list, not a string")
    return list(value)


def read_json_object(path, what: str) -> dict:
    """The JSON object a file holds; `what` names the kind of file in the
    error raised for any other JSON value."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, not a {type(raw).__name__}")
    return raw


def load_corpus(path) -> Corpus:
    docs: dict[str, Document] = {}
    for lineno, rec in _jsonl_records(path):
        try:
            doc_id = rec["doc"]
            sent = Sentence(
                tokens=_list(rec, "tokens"),
                mentions=[
                    EventMention(anchor=int(m["anchor"]), subtype=str(m["subtype"]))
                    for m in rec.get("mentions", [])
                ],
            )
        except (KeyError, TypeError) as e:
            raise ValueError(f"{path}:{lineno}: bad sentence record ({e})") from e
        docs.setdefault(doc_id, Document(doc_id)).sentences.append(sent)
    corpus = Corpus(list(docs.values()))
    corpus.validate()
    return corpus


def save_corpus(corpus: Corpus, path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus.documents:
            for sent in doc.sentences:
                f.write(
                    json.dumps(
                        {
                            "doc": doc.doc_id,
                            "tokens": sent.tokens,
                            "mentions": [
                                {"anchor": m.anchor, "subtype": m.subtype}
                                for m in sent.mentions
                            ],
                        }
                    )
                    + "\n"
                )


def load_typemap(path) -> TypeMap:
    raw = read_json_object(path, "typemap")
    try:
        tm = TypeMap(types=_list(raw, "types"), subtype_of=dict(raw["subtype_of"]))
        tm.validate()
    except KeyError as e:
        raise ValueError(f"{path}: typemap has no {e} entry") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e
    return tm


def save_typemap(type_map: TypeMap, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {"types": type_map.types, "subtype_of": type_map.subtype_of},
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")


def load_lexicon(path) -> TriggerLexicon:
    raw = read_json_object(path, "lexicon")
    try:
        return TriggerLexicon({sub: {w.lower() for w in _list(raw, sub)} for sub in raw})
    except (AttributeError, TypeError) as e:  # a word that is not a string has no .lower
        raise ValueError(f"{path}: {e}") from e


def save_lexicon(lexicon: TriggerLexicon, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {sub: sorted(words) for sub, words in sorted(lexicon.triggers.items())},
            f,
            indent=2,
        )
        f.write("\n")


def load_dataset(path) -> list[LFKExample]:
    examples = []
    for lineno, rec in _jsonl_records(path):
        try:
            ex = LFKExample(
                tokens=_list(rec, "tokens"),
                anchor=int(rec["anchor"]),
                keywords=tuple(_list(rec, "keywords")),
                label=int(rec["label"]),
                source_subtype=rec.get("source_subtype"),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}:{lineno}: bad example record ({e})") from e
        try:
            ex.validate()
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
        examples.append(ex)
    return examples


def save_dataset(examples: list[LFKExample], path, debug: bool = False):
    """Write examples as JSON-lines; keywords sorted for byte determinism."""
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            rec = {
                "tokens": ex.tokens,
                "anchor": ex.anchor,
                "keywords": sorted(ex.keywords),
                "label": ex.label,
            }
            if debug:
                rec["source_subtype"] = ex.source_subtype
            f.write(json.dumps(rec) + "\n")


def sha256_file(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
