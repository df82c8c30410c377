"""Self-describing checkpoint files.

A checkpoint is a single JSON document with sorted keys: format marker, model
kind ("cnn" or "baseline"), config, a reference to the embedding file (word
vectors are not copied into the checkpoint), and every parameter tensor as
shape + base64 of little-endian float64 bytes. The layout is byte-stable:
saving the same state twice produces identical files.

The embedding reference holds the file's path and, when a path was given at
save time, its sha256. Loading reads the vectors from that path or from an
override path, and refuses a file whose digest differs from the stored one.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict

import numpy as np

from .baseline import LinearBaseline
from .corpus import sha256_file
from .encoding import EmbeddingTable, WordTable, load_embeddings
from .models import Model, ModelConfig

FORMAT = "lfked-checkpoint-v1"


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
    }


def _decode_array(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()


def _emb_meta(emb: EmbeddingTable, emb_path) -> dict:
    return {
        "path": str(emb_path) if emb_path else None,
        "sha256": sha256_file(emb_path) if emb_path else None,
        "dim": emb.dim,
        "oov_policy": emb.oov_policy,
        "seed": emb.seed,
    }


def save_checkpoint(model, path, emb_path=None):
    """Write a Model or LinearBaseline to disk."""
    if isinstance(model, Model):
        doc = {
            "format": FORMAT,
            "kind": "cnn",
            "config": asdict(model.config),
            "embeddings": _emb_meta(model.emb, emb_path),
            "params": {k: _encode_array(t.data) for k, t in model.named_params().items()},
        }
        if model.words is not None:
            doc["word_vocab"] = model.words.tokens
    elif isinstance(model, LinearBaseline):
        doc = {
            "format": FORMAT,
            "kind": "baseline",
            "config": {"dim": model.emb.dim},
            "embeddings": _emb_meta(model.emb, emb_path),
            "params": {k: _encode_array(t.data) for k, t in model.named_params().items()},
        }
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def _resolve_embeddings(doc: dict, emb: EmbeddingTable | None,
                        emb_path=None) -> EmbeddingTable:
    meta = doc["embeddings"]
    if emb is None:
        path = emb_path or meta["path"]
        if not path:
            raise ValueError(
                "checkpoint stores no embedding path; pass the embedding table"
            )
        expected, actual = meta.get("sha256"), sha256_file(path)
        if expected is not None and actual != expected:
            raise ValueError(
                f"embedding file {path} has sha256 {actual}, but the checkpoint "
                f"was saved with an embedding file of sha256 {expected}"
            )
        emb = load_embeddings(path, meta["dim"],
                              oov_policy=meta["oov_policy"], seed=meta["seed"])
    if emb.dim != meta["dim"]:
        raise ValueError(f"embedding dim {emb.dim} != checkpoint dim {meta['dim']}")
    return emb


def load_checkpoint(path, emb: EmbeddingTable | None = None, emb_path=None):
    """Rebuild the saved model. Pass emb to reuse an already-loaded table, or
    emb_path to read the vectors from another file than the stored one; either
    way a loaded table gets the checkpoint's OOV policy and seed."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a checkpoint file (format {doc.get('format')!r})")
    emb = _resolve_embeddings(doc, emb, emb_path)

    if doc["kind"] == "cnn":
        raw = dict(doc["config"])
        raw["windows"] = tuple(raw["windows"])
        config = ModelConfig(**raw)
        words = None
        if "word_vocab" in doc:
            words = WordTable(emb, doc["word_vocab"])
        model = Model(config, emb, words=words)
    elif doc["kind"] == "baseline":
        model = LinearBaseline(emb)
    else:
        raise ValueError(f"{path}: unknown checkpoint kind {doc['kind']!r}")

    named = model.named_params()
    saved = doc["params"]
    if set(named) != set(saved):
        missing = set(named) ^ set(saved)
        raise ValueError(f"{path}: parameter names disagree with config: {sorted(missing)}")
    for name, tensor in named.items():
        arr = _decode_array(saved[name])
        if arr.shape != tensor.data.shape:
            raise ValueError(
                f"{path}: {name} has shape {arr.shape}, config wants {tensor.data.shape}"
            )
        tensor.data[:] = arr
    return model
