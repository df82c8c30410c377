"""Self-describing checkpoint files.

A checkpoint is a single JSON document with sorted keys: format marker, model
kind ("cnn" or "baseline"), config, a reference to the embedding file (word
vectors are not copied into the checkpoint), and every parameter tensor as
shape + base64 of little-endian float64 bytes. The layout is byte-stable:
saving the same state twice produces identical files.

The embedding reference holds the file's path, relative to the checkpoint's
directory, and, when a path was given at save time, its sha256. So a run tree
loads from any working directory, and two copies of one tree hold the same
bytes. Loading reads the vectors from that path or from an override path, and
refuses a file whose digest differs from the stored one. A relative path
stored before paths were kept relative to the checkpoint was relative to the
training process's working directory: when no file lies at it beside the
checkpoint but one does from the working directory, that one is read.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .baseline import LinearBaseline
from .corpus import from_json, read_json_object, sha256_file
from .encoding import OOV_POLICIES, EmbeddingTable, WordTable, load_embeddings
from .models import Model, ModelConfig

FORMAT = "lfked-checkpoint-v1"


# The layout save_checkpoint writes, which load_checkpoint reads through from_json.
@dataclass
class _Array:
    shape: list[int]
    data: str


@dataclass
class _EmbeddingRef:
    path: str | None
    dim: int
    oov_policy: str
    seed: int
    sha256: str | None = None       # absent from checkpoints saved before digests

    def validate(self):
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"oov_policy must be one of {OOV_POLICIES}, got {self.oov_policy!r}")


@dataclass
class _Checkpoint:
    format: str
    kind: str
    config: ModelConfig
    embeddings: _EmbeddingRef
    params: dict[str, _Array]
    word_vocab: list[str] | None = None


@dataclass
class _BaselineCheckpoint(_Checkpoint):
    config: dict[str, int]


def _encode_array(arr: np.ndarray) -> dict:
    data = base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")
    return {"shape": list(arr.shape), "data": data}


def _decode_array(entry: _Array) -> np.ndarray:
    raw = base64.b64decode(entry.data)
    return np.frombuffer(raw, dtype="<f8").reshape(entry.shape).copy()


def _emb_meta(emb: EmbeddingTable, emb_path, ck_path) -> dict:
    path = digest = None
    if emb_path:
        path = os.path.relpath(str(emb_path), os.path.dirname(os.path.abspath(ck_path)))
        digest = sha256_file(emb_path)
    return asdict(_EmbeddingRef(path, emb.dim, emb.oov_policy, emb.seed, digest))


def _stored_path(ck_path, stored: str) -> str:
    """The file a stored embedding path names (see the module docstring).
    Joined lexically, as save_checkpoint made it relative, so that a symlink
    to the run directory does not move the file it finds."""
    beside = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(ck_path)), stored))
    if not os.path.isabs(stored) and not os.path.exists(beside) and os.path.exists(stored):
        return stored
    return beside


def save_checkpoint(model, path, emb_path=None):
    """Write a Model or LinearBaseline to disk."""
    if isinstance(model, Model):
        kind, config = "cnn", asdict(model.config)
    elif isinstance(model, LinearBaseline):
        kind, config = "baseline", {"dim": model.emb.dim}
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    doc = {
        "format": FORMAT,
        "kind": kind,
        "config": config,
        "embeddings": _emb_meta(model.emb, emb_path, path),
        "params": {k: _encode_array(t.data) for k, t in model.named_params().items()},
    }
    if kind == "cnn" and model.words is not None:
        doc["word_vocab"] = model.words.tokens
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def _resolve_embeddings(ck_path, meta: _EmbeddingRef, emb: EmbeddingTable | None,
                        emb_path=None) -> EmbeddingTable:
    if emb is None:
        if emb_path:
            path = str(emb_path)
        elif meta.path:
            path = _stored_path(ck_path, meta.path)
        else:
            raise ValueError(f"{ck_path}: checkpoint stores no embedding path; "
                             "pass the embedding table")
        if not os.path.isfile(path):
            raise ValueError(f"{ck_path}: embedding file {path} not found; pass --embeddings "
                             "to read the vectors from another file")
        expected, actual = meta.sha256, sha256_file(path)
        if expected is not None and actual != expected:
            raise ValueError(f"embedding file {path} has sha256 {actual}, but the checkpoint "
                             f"was saved with an embedding file of sha256 {expected}")
        emb = load_embeddings(path, meta.dim, oov_policy=meta.oov_policy, seed=meta.seed)
    if emb.dim != meta.dim:
        raise ValueError(f"embedding dim {emb.dim} != checkpoint dim {meta.dim}")
    return emb


def load_checkpoint(path, emb: EmbeddingTable | None = None, emb_path=None):
    """Rebuild the saved model. Pass emb to reuse an already-loaded table, or
    emb_path to read the vectors from another file than the stored one; either
    way a loaded table gets the checkpoint's OOV policy and seed."""
    doc = read_json_object(path, "checkpoint")
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a checkpoint file (format {doc.get('format')!r})")
    kind = doc.get("kind", "cnn")       # the layout refuses a checkpoint without a kind
    layout = {"cnn": _Checkpoint, "baseline": _BaselineCheckpoint}.get(kind)
    if layout is None:
        raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")
    ck = from_json(layout, doc, path, "checkpoint")
    emb = _resolve_embeddings(path, ck.embeddings, emb, emb_path)

    if kind == "cnn":
        words = WordTable(emb, ck.word_vocab) if ck.word_vocab is not None else None
        model = Model(ck.config, emb, words=words)
    else:
        model = LinearBaseline(emb)

    named = model.named_params()
    saved = ck.params
    if set(named) != set(saved):
        missing = set(named) ^ set(saved)
        raise ValueError(f"{path}: parameter names disagree with config: {sorted(missing)}")
    for name, tensor in named.items():
        try:
            arr = _decode_array(saved[name])
        except ValueError as e:     # bad base64, or data that does not fill its shape
            raise ValueError(f"{path}: {name}: {e}") from e
        if arr.shape != tensor.data.shape:
            raise ValueError(
                f"{path}: {name} has shape {arr.shape}, config wants {tensor.data.shape}"
            )
        tensor.data[:] = arr
    return model
