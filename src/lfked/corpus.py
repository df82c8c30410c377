"""Event-corpus data model, file formats, and target-type holdout.

A corpus is documents of sentences; each sentence carries tokens and anchored
event mentions. Subtypes hang off types via a TypeMap; the pseudo-subtype
"Other" marks non-event anchor candidates and belongs to no type.

Files are JSON or JSON-lines, UTF-8. A corpus holds one _CorpusLine per line,
a dataset one LFKExample, a typemap is a TypeMap and a lexicon maps subtypes to
trigger words; from_json checks a record's keys and their JSON kinds against
its dataclass's fields and annotations.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

OTHER = "Other"


@dataclass
class EventMention:
    anchor: int
    subtype: str


@dataclass
class Sentence:
    tokens: list[str]
    mentions: list[EventMention] = field(default_factory=list)

    def validate(self):
        if not self.tokens:
            raise ValueError("empty token list")
        for m in self.mentions:
            check_anchor(m.anchor, len(self.tokens))


@dataclass(kw_only=True)
class _CorpusLine(Sentence):
    """One line of a corpus file: a sentence and the id of its document."""

    doc: str


@dataclass
class Document:
    doc_id: str
    sentences: list[Sentence] = field(default_factory=list)


@dataclass
class Corpus:
    documents: list[Document] = field(default_factory=list)

    def sentences(self):
        return (s for doc in self.documents for s in doc.sentences)

    def mention_count(self, predicate=None) -> int:
        return sum(1 for s in self.sentences() for m in s.mentions
                   if predicate is None or predicate(m))

    def validate(self):
        for doc in self.documents:
            for i, sent in enumerate(doc.sentences):
                try:
                    sent.validate()
                except ValueError as e:
                    raise ValueError(f"{doc.doc_id}[{i}]: {e}") from e


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
            raise ValueError(f"unknown target type {type_name!r}; "
                             f"valid types: {sorted(self.types)}")
        return {s for s, t in self.subtype_of.items() if t == type_name}


@dataclass
class TriggerLexicon:
    """Trigger words observed per subtype; lowercase-normalized."""

    triggers: dict[str, set[str]]

    def pool(self, subtype: str) -> set[str]:
        return self.triggers.get(subtype, set())


def check_anchor(anchor, n):
    """Raise ValueError for an anchor outside a sentence of n tokens."""
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} outside 0..{n - 1}")


def check_keywords(keywords):
    """Raise ValueError for an empty keyword set or one that repeats a keyword."""
    if not keywords:
        raise ValueError("empty keyword set")
    if len(set(keywords)) != len(keywords):
        repeated = next(k for k in keywords if keywords.count(k) > 1)
        raise ValueError(f"keyword {repeated!r} repeats in the keyword set")


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
        check_anchor(self.anchor, len(self.tokens))
        check_keywords(self.keywords)
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class StatsReport:
    positives: int
    negatives: int


# ---------------------------------------------------------------------------
# holdout


def holdout_split(corpus_train: Corpus, corpus_dev: Corpus, corpus_test: Corpus,
                  target_type: str, type_map: TypeMap) -> tuple[Corpus, Corpus, Corpus]:
    """Remove the target type from training and restrict dev/test to it.

    Training keeps mentions whose subtype is outside the target type's subtype
    set (including "Other"); dev and test keep only target-subtype and "Other"
    mentions. Sentences are always retained, only their mention lists shrink.
    """
    target_subs = type_map.subtypes_of(target_type)

    def filtered(corpus: Corpus, keep) -> Corpus:
        return Corpus([Document(d.doc_id, [Sentence(s.tokens, [m for m in s.mentions if keep(m)])
                                           for s in d.sentences]) for d in corpus.documents])

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
            try:
                if line.strip():
                    yield lineno, json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e


def read_json_object(path, what: str) -> dict:
    """The JSON object in a file; `what` names the file's kind in the error for another value."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, not a {type(raw).__name__}")
    return raw


# What a value json.load gave is called in a message.
_NAMES = {bool: "a bool", int: "an integer", float: "a float", str: "a string",
          list: "a list", dict: "an object", type(None): "null"}
# The plain kinds, and the types json.load gives their values: type(True) is bool, not int.
_PLAIN = {bool: ("true or false", bool), int: ("an integer", int), float: ("a number", int, float),
          str: ("a string", str), type(None): ("null", type(None))}
# The JSON values an annotation admits: `want` names them; `check` gives None for one, else
# the keys to the first part at fault and what is wrong with it, as (("tokens", 1), "must be
# a string, not an integer"); `make` builds the annotated value (None: the value itself).
JsonKind = namedtuple("JsonKind", "want check make", defaults=[None])


def _wrong(want: str, value) -> tuple:
    return (), f"must be {want}, not {_NAMES[type(value)]}"


@functools.cache
def json_kind(ann) -> JsonKind:
    """The JSON kind of an annotation: bool; int, neither a bool nor a float; float,
    any number; str; list[X] or tuple[X, ...]; dict[str, X]; a union of kinds that
    build nothing, as str | None; a dataclass, an object of exactly its fields."""
    if ann in _PLAIN:
        want, *types = _PLAIN[ann]
        return JsonKind(want, lambda v: None if type(v) in types else _wrong(want, v))
    origin, args = get_origin(ann), get_args(ann)
    if origin in (Union, UnionType):
        parts = [json_kind(a) for a in args]
        if any(p.make for p in parts):
            raise TypeError(f"{ann}: a union of kinds that build a value is not supported")
        want = " or ".join(p.want for p in parts)
        def check(v):   # a problem inside the value, if a part took its type; else the union's
            problems = [p.check(v) for p in parts]
            if None not in problems:
                return next((p for p in problems if p[0]), _wrong(want, v))
        return JsonKind(want, check)
    if origin in (list, tuple, dict):   # tuple[X, ...]; a JSON object's keys are strings
        t, of = (dict, json_kind(args[1])) if origin is dict else (list, json_kind(args[0]))
        def check(v):
            if type(v) is not t:
                return _wrong(_NAMES[t], v)
            for k, x in v.items() if t is dict else enumerate(v):
                if problem := of.check(x):
                    return (k, *problem[0]), problem[1]
        make = of.make and ((lambda v: {k: of.make(x) for k, x in v.items()}) if t is dict
                            else lambda v: origin(map(of.make, v)))
        return JsonKind(_NAMES[t], check, make or (tuple if origin is tuple else None))
    kinds = {f.name: json_kind(get_type_hints(ann)[f.name]) for f in fields(ann)}
    required = {f.name for f in fields(ann) if f.default is f.default_factory is MISSING}
    makers = {k: kind.make for k, kind in kinds.items() if kind.make}
    validate = getattr(ann, "validate", lambda obj: None)

    def check(v):
        if type(v) is not dict:
            return _wrong("an object", v)
        if missing := required - v.keys():
            return (), f"has no {min(missing)!r} entry"
        if unknown := v.keys() - kinds.keys():
            return (), f"has unknown key {min(unknown)!r}"
        for k, x in v.items():
            if problem := kinds[k].check(x):
                return (k, *problem[0]), problem[1]

    def make(v):
        obj = ann(**{k: makers[k](x) if k in makers else x for k, x in v.items()})
        validate(obj)
        return obj
    return JsonKind("an object", check, make)


def from_json(ann, raw, where, what: str = "", line: int | None = None):
    """The value of annotation `ann` (a dataclass: a validated instance) from JSON
    `raw`, read from `where` as a `what` file or its `what` record on line `line`.
    A value of another kind, a missing field or an unknown key is refused as
    `where: 'tokens'[1] must be ...`, or `where:line: bad <what> record (...)`."""
    kind = json_kind(ann)
    try:
        if not (problem := kind.check(raw)):
            return kind.make(raw) if kind.make else raw
        keys, wrong = problem
        name = "".join(f"[{k!r}]" if i or type(k) is int else repr(k) for i, k in enumerate(keys))
        message = f"{name or ('' if line else what)} {wrong}".lstrip()
        message = f"bad {what} record ({message})" if line else message
    except ValueError as e:
        message = str(e)
    raise ValueError(f"{where}:{line}: {message}" if line else f"{where}: {message}")


def load_corpus(path) -> Corpus:
    docs: dict[str, Document] = {}
    for lineno, rec in _jsonl_records(path):
        line = from_json(_CorpusLine, rec, path, "sentence", lineno)
        docs.setdefault(line.doc, Document(line.doc)).sentences.append(
            Sentence(line.tokens, line.mentions))
    return Corpus(list(docs.values()))


def save_corpus(corpus: Corpus, path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus.documents:
            for sent in doc.sentences:
                mentions = [{"anchor": m.anchor, "subtype": m.subtype} for m in sent.mentions]
                f.write(json.dumps({"doc": doc.doc_id, "tokens": sent.tokens,
                                    "mentions": mentions}) + "\n")


def load_typemap(path) -> TypeMap:
    return from_json(TypeMap, read_json_object(path, "typemap"), path, "typemap")


def save_typemap(type_map: TypeMap, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"types": type_map.types, "subtype_of": type_map.subtype_of}, f,
                  indent=2, sort_keys=True)
        f.write("\n")


def load_lexicon(path) -> TriggerLexicon:
    raw = from_json(dict[str, list[str]], read_json_object(path, "lexicon"), path, "lexicon")
    return TriggerLexicon({sub: {w.lower() for w in words} for sub, words in raw.items()})


def save_lexicon(lexicon: TriggerLexicon, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump({sub: sorted(words) for sub, words in sorted(lexicon.triggers.items())}, f,
                  indent=2)
        f.write("\n")


def load_dataset(path) -> list[LFKExample]:
    return [from_json(LFKExample, rec, path, "example", lineno)
            for lineno, rec in _jsonl_records(path)]


def save_dataset(examples: list[LFKExample], path, debug: bool = False):
    """Write examples as JSON-lines; keywords sorted for byte determinism.
    Every example is validated first, so no file is written that
    load_dataset would refuse."""
    for ex in examples:
        ex.validate()
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            rec = {"tokens": ex.tokens, "anchor": ex.anchor, "keywords": sorted(ex.keywords),
                   "label": ex.label}
            if debug:
                rec["source_subtype"] = ex.source_subtype
            f.write(json.dumps(rec) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def ensure_dir(path) -> Path:
    Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)
