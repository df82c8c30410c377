"""Command-line entry point: synth -> gen-data -> train -> eval, plus gradcheck.

Every subcommand accepts --config pointing at a JSON file whose keys are the
flag names (underscored); explicit flags override the file. All randomness
derives from --seed through named substreams, and each run that produces
files writes a manifest.json next to them recording resolved config, seed,
and input digests.

Exit codes: 0 success, 1 check failure, 2 input or config error, 3 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .baseline import LinearBaseline
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    dataset_stats,
    ensure_dir,
    holdout_split,
    load_corpus,
    load_dataset,
    load_lexicon,
    load_typemap,
    save_corpus,
    save_dataset,
    save_lexicon,
    save_typemap,
    sha256_file,
)
from .datagen import SynthSpec, generate_lfk, synth_corpus
from .encoding import EmbeddingTable, WordTable, load_embeddings, write_embeddings
from .gradcheck import DEFAULT_TOL, check_all
from .metrics import evaluate, report_json, report_text
from .models import VARIANTS, Model, ModelConfig
from .training import NumericError, TrainConfig, train

BASELINE = "word2vec-baseline"
MODEL_CHOICES = sorted(VARIANTS) + [BASELINE]


# ---------------------------------------------------------------------------
# config-file merging


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag value if given, else config-file value, else default."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        out[key] = cli_val if cli_val is not None else file_cfg.get(key, default)
    return out


def _write_manifest(out_dir: Path, subcommand: str, resolved: dict, seed,
                    inputs: dict[str, str]):
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in sorted(resolved.items())},
        "seed": seed,
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
        "tool_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _embedding_dim(path) -> int:
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if parts:
                return len(parts) - 1
    raise ValueError(f"{path}: embedding file is empty")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    defaults = {f: getattr(SynthSpec(), f) for f in SynthSpec.__dataclass_fields__}
    defaults["seed"] = 0
    resolved = _resolve(args, defaults)
    seed = resolved.pop("seed")
    spec = SynthSpec(**resolved)
    train_c, dev_c, test_c, lexicon, type_map, embeddings = synth_corpus(spec, seed)

    out = ensure_dir(args.out_dir)
    save_corpus(train_c, out / "corpus_train.jsonl")
    save_corpus(dev_c, out / "corpus_dev.jsonl")
    save_corpus(test_c, out / "corpus_test.jsonl")
    save_lexicon(lexicon, out / "lexicon.json")
    save_typemap(type_map, out / "typemap.json")
    write_embeddings(embeddings, out / "embeddings.txt")
    _write_manifest(out, "synth", {**resolved, "out_dir": str(out)}, seed, {})
    print(f"wrote synthetic corpus ({len(list(train_c.sentences()))} train sentences) to {out}")
    return 0


def cmd_gen_data(args) -> int:
    defaults = {
        "corpus_train": None, "corpus_dev": None, "corpus_test": None,
        "typemap": None, "lexicon": None, "target_type": None,
        "seed": 0, "debug_provenance": False,
    }
    resolved = _resolve(args, defaults)
    for key in ("corpus_train", "corpus_dev", "corpus_test", "typemap", "lexicon",
                "target_type"):
        if resolved[key] is None:
            raise ValueError(f"--{key.replace('_', '-')} is required")

    corpora = tuple(load_corpus(resolved[k])
                    for k in ("corpus_train", "corpus_dev", "corpus_test"))
    type_map = load_typemap(resolved["typemap"])
    lexicon = load_lexicon(resolved["lexicon"])
    target = resolved["target_type"]
    seed = resolved["seed"]

    held = holdout_split(*corpora, target, type_map)
    out = ensure_dir(args.out_dir)
    stats = {}
    for split, corpus in zip(("train", "dev", "test"), held):
        examples = generate_lfk(corpus, lexicon, type_map, target, split, seed)
        save_dataset(examples, out / f"{split}.jsonl",
                     debug=resolved["debug_provenance"])
        rep = dataset_stats(examples)
        stats[split] = {"positives": rep.positives, "negatives": rep.negatives}
    with open(out / "stats.json", "w", encoding="utf-8") as f:
        json.dump({"target_type": target, "splits": stats}, f, indent=2, sort_keys=True)
        f.write("\n")

    inputs = {k: resolved[k] for k in
              ("corpus_train", "corpus_dev", "corpus_test", "typemap", "lexicon")}
    _write_manifest(out, "gen-data",
                    {**resolved, "out_dir": str(out)}, seed, inputs)
    print(f"{'split':<6} {'+1':>8} {'-1':>8}")
    for split in ("train", "dev", "test"):
        print(f"{split:<6} {stats[split]['positives']:>8} {stats[split]['negatives']:>8}")
    return 0


# The train subcommand's ModelConfig and TrainConfig fields, settable by flag
# or config file. Left out: the variant (head, cfa), which --model picks; the
# model seed, which is --seed; and Adadelta's rho and eps, which keep their
# defaults.
MODEL_FIELDS = [f.name for f in fields(ModelConfig) if f.name not in ("head", "cfa", "seed")]
TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name not in ("rho", "eps")]

TRAIN_DEFAULTS = {
    "model": None,
    **{f.name: f.default for f in fields(ModelConfig) if f.name in MODEL_FIELDS},
    **{f.name: f.default for f in fields(TrainConfig) if f.name in TRAIN_FIELDS},
    "windows": ",".join(str(w) for w in ModelConfig.windows),
    "word_dim": None,       # inferred from the embedding file when unset
    "finetune_words": False,
    "sweep_layers": False,
    "oov_policy": "random-fixed",
}


def _parse_windows(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(w) for w in text)
    try:
        return tuple(int(w) for w in str(text).split(",") if w.strip())
    except ValueError as e:
        raise ValueError(f"bad --windows value {text!r}: {e}") from e


def _dataset_vocab(datasets) -> set[str]:
    vocab: set[str] = set()
    for examples in datasets:
        for ex in examples:
            vocab.update(ex.tokens)
            vocab.update(ex.keywords)
    return vocab


def cmd_train(args) -> int:
    resolved = _resolve(args, TRAIN_DEFAULTS)
    if resolved["model"] is None:
        raise ValueError("--model is required")
    if resolved["model"] not in MODEL_CHOICES:
        raise ValueError(f"--model must be one of {MODEL_CHOICES}")
    if args.embeddings is None:
        raise ValueError("--embeddings is required")
    data_dir = Path(args.data_dir)
    train_set = load_dataset(data_dir / "train.jsonl")
    dev_set = load_dataset(data_dir / "dev.jsonl")

    seed = resolved["seed"]
    word_dim = resolved["word_dim"] or _embedding_dim(args.embeddings)
    emb = load_embeddings(args.embeddings, word_dim,
                          oov_policy=resolved["oov_policy"], seed=seed)
    train_cfg = TrainConfig(**{k: resolved[k] for k in TRAIN_FIELDS})
    train_cfg.validate()
    out = ensure_dir(args.out)

    if resolved["model"] == BASELINE:
        model = LinearBaseline(emb)
        result = train(model, train_set, dev_set, train_cfg,
                       log_path=out / "train_log.jsonl", progress=_print_epoch)
        save_checkpoint(model, out / "model.ckpt", emb_path=args.embeddings)
        best = {"best_epoch": result.best_epoch, "best_dev_f1": result.best_f1}
    else:
        def model_config(layers: int) -> ModelConfig:
            given = {k: resolved[k] for k in MODEL_FIELDS}
            given.update(layers=layers, windows=_parse_windows(resolved["windows"]),
                         word_dim=word_dim)
            return ModelConfig(**given, seed=seed).with_variant(resolved["model"])

        def build_and_train(layers: int, log_name: str):
            config = model_config(layers)
            config.validate()
            words = None
            if resolved["finetune_words"]:
                words = WordTable(emb, _dataset_vocab((train_set, dev_set)))
            model = Model(config, emb, words=words)
            result = train(model, train_set, dev_set, train_cfg,
                           log_path=out / log_name, progress=_print_epoch)
            return model, result

        if resolved["sweep_layers"]:
            sweep = {}
            best_model, best_result, best_m = None, None, None
            for m in (1, 2, 3, 4):
                print(f"== layers={m}")
                model, result = build_and_train(m, f"train_log_m{m}.jsonl")
                save_checkpoint(model, out / f"model_m{m}.ckpt",
                                emb_path=args.embeddings)
                sweep[str(m)] = result.best_f1
                if best_result is None or result.best_f1 > best_result.best_f1:
                    best_model, best_result, best_m = model, result, m
            shutil.copyfile(out / f"model_m{best_m}.ckpt", out / "model.ckpt")
            with open(out / "sweep.json", "w", encoding="utf-8") as f:
                json.dump({"dev_f1_by_layers": sweep, "best_layers": best_m},
                          f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"best layers: {best_m} (dev F1 {best_result.best_f1:.3f})")
            best = {"best_epoch": best_result.best_epoch,
                    "best_dev_f1": best_result.best_f1, "best_layers": best_m}
        else:
            model, result = build_and_train(resolved["layers"], "train_log.jsonl")
            save_checkpoint(model, out / "model.ckpt", emb_path=args.embeddings)
            best = {"best_epoch": result.best_epoch, "best_dev_f1": result.best_f1}

    inputs = {
        "train": str(data_dir / "train.jsonl"),
        "dev": str(data_dir / "dev.jsonl"),
        "embeddings": str(args.embeddings),
    }
    _write_manifest(out, "train",
                    {**resolved, "data_dir": str(data_dir), "out": str(out), **best},
                    seed, inputs)
    print(f"best dev F1 {best['best_dev_f1']:.3f} at epoch {best['best_epoch']}; "
          f"checkpoint in {out}")
    return 0


def _print_epoch(entry):
    print(f"epoch {entry.epoch:>3}  loss {entry.train_loss:.4f}  "
          f"dev F1 {entry.dev_f1:.3f}  ({entry.seconds:.1f}s)")


def cmd_eval(args) -> int:
    data = load_dataset(args.data)
    if not data:
        raise ValueError(f"{args.data}: dataset is empty")
    model = load_checkpoint(args.checkpoint, emb_path=args.embeddings)
    report = evaluate(model, data)
    if args.json:
        print(report_json(report))
    else:
        print(report_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report_json(report) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    defaults = {"seed": 11, "tol": DEFAULT_TOL}
    resolved = _resolve(args, defaults)
    results = check_all(seed=resolved["seed"], tol=resolved["tol"])
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.variant:<14} max rel err {r.max_rel_error:.3e} "
              f"(worst: {r.worst_param})  {status}")
        ok = ok and r.passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfked",
        description="Keyword-defined event detection: data generation, "
                    "training, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus triple")
    p.add_argument("--config", help="JSON file of synth-spec fields")
    p.add_argument("--seed", type=int, help="corpus generation seed")
    p.add_argument("--out-dir", required=True, help="output directory")
    for name, fdef in SynthSpec.__dataclass_fields__.items():
        flag = "--" + name.replace("_", "-")
        typ = float if fdef.type == "float" else int
        p.add_argument(flag, type=typ, help=f"synth spec: {name}")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gen-data", help="holdout split + binary example generation")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--corpus-train", help="training corpus JSONL")
    p.add_argument("--corpus-dev", help="dev corpus JSONL")
    p.add_argument("--corpus-test", help="test corpus JSONL")
    p.add_argument("--typemap", help="type map JSON")
    p.add_argument("--lexicon", help="trigger lexicon JSON")
    p.add_argument("--target-type", help="event type to hold out")
    p.add_argument("--seed", type=int, help="generation seed")
    p.add_argument("--debug-provenance", action="store_const", const=True,
                   help="record each example's source subtype")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model variant or the baseline")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--data-dir", required=True,
                   help="directory holding train.jsonl and dev.jsonl")
    p.add_argument("--model", choices=MODEL_CHOICES, help="model variant")
    p.add_argument("--embeddings", help="word embedding text file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--layers", type=int, help="number of CNN layers (1..4)")
    p.add_argument("--windows", help="comma-separated window sizes, e.g. 2,3,4,5")
    p.add_argument("--filters", type=int, help="filters per window size")
    p.add_argument("--dropout", type=float, help="dropout rate on R")
    p.add_argument("--lr", type=float, help="Adadelta learning-rate scale")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--epochs", type=int, help="max training epochs")
    p.add_argument("--batch-size", type=int, help="mini-batch size")
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--neg-keep", type=float,
                   help="fraction of negatives kept per epoch")
    p.add_argument("--word-dim", type=int,
                   help="word vector dim (default: inferred from file)")
    p.add_argument("--pos-dim", type=int, help="position embedding dim")
    p.add_argument("--max-offset", type=int, help="position clamp range")
    p.add_argument("--attn-hidden", type=int, help="attention projection width")
    p.add_argument("--ffn-hidden", type=int, help="classifier hidden width")
    p.add_argument("--conv-act", help="conv/FFN nonlinearity")
    p.add_argument("--attn-act", help="attention nonlinearity")
    p.add_argument("--cfa-act", help="CFA gamma/beta nonlinearity")
    p.add_argument("--finetune-words", action="store_const", const=True,
                   help="also train word vectors (default: frozen)")
    p.add_argument("--sweep-layers", action="store_const", const=True,
                   help="train at layers 1..4 and keep the dev-best")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="dataset JSONL")
    p.add_argument("--embeddings",
                   help="embedding file (default: path stored in checkpoint); "
                        "read with the checkpoint's OOV policy and seed")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all model variants")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--seed", type=int, help="check seed")
    p.add_argument("--tol", type=float, help="max relative error allowed")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
