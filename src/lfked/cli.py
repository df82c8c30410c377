"""Command-line entry point: synth -> gen-data -> train -> eval, plus gradcheck.

Each setting is one flag with its own type, help text and default. synth,
gen-data, train and gradcheck accept --config, a JSON object whose keys are
the optional flags, underscored, plus train's file-only cfa_last and
oov_policy; eval takes none. A value is checked as the flag's would be (an
int flag takes an integer, a float flag a number, an on/off flag a bool,
windows a string or a list; null only where the default is null) and becomes
the flag's default, so a flag on the command line wins. All randomness
derives from --seed through named substreams, and each run that produces
files writes a manifest.json next to them recording resolved config, seed,
and input digests.

Exit codes: 0 success, 1 check failure, 2 input or config error, 3 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import shutil
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import LinearBaseline
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    dataset_stats,
    ensure_dir,
    from_json,
    holdout_split,
    load_corpus,
    load_dataset,
    load_lexicon,
    load_typemap,
    read_json_object,
    save_corpus,
    save_dataset,
    save_lexicon,
    save_typemap,
    sha256_file,
)
from .datagen import SynthSpec, generate_lfk, synth_corpus
from .encoding import OOV_POLICIES, WordTable, load_embeddings, write_embeddings
from .gradcheck import DEFAULT_TOL, check_all
from .metrics import evaluate, report_json, report_text
from .models import VARIANTS, Model, ModelConfig
from .training import NumericError, TrainConfig, train

BASELINE = "word2vec-baseline"
MODEL_CHOICES = sorted(VARIANTS) + [BASELINE]

# glibc mallopt parameters, and the values main sets: arrays up to 32 MB come
# from the heap, and up to 64 MB of freed heap stays in the process. These are
# the caps glibc's own adaptive thresholds move towards.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_BYTES, TRIM_BYTES = 32 << 20, 64 << 20

# Default of a setting that must come from a flag or the config file: argparse
# then leaves it out of the namespace.
NEEDED = argparse.SUPPRESS


# ---------------------------------------------------------------------------
# config files


class Subcommand(argparse.ArgumentParser):
    """Parser of one subcommand. Its optional flags, bar --help and --config,
    are its config-file keys; file_only() adds a key that has no flag."""

    def __init__(self, **kwargs):
        self.keys: dict[str, argparse.Action] = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if not action.required and action.dest not in ("help", "config"):
            self.keys[action.dest] = action
        return action

    def file_only(self, dest, default, **kwargs):
        self.keys[dest] = argparse.Action([], dest, default=default, **kwargs)
        self.set_defaults(**{dest: default})

    def read_config(self, path):
        """Check a config file's values and make them this parser's defaults."""
        cfg = read_json_object(path, "config")
        unknown = set(cfg) - set(self.keys)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            _check_value(f"{path}: {key}", self.keys[key], value)
        self.set_defaults(**cfg)


def _check_value(where: str, action: argparse.Action, value):
    """Reject a config-file value that the flag's type or choices would not give."""
    typ = (bool if action.nargs == 0 else str | list[int] if action.dest == "windows"
           else action.type or str)
    from_json(typ if action.default is not None else typ | None, value, where)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{where}: must be one of {list(action.choices)}, got {value!r}")


def _write_manifest(out_dir: Path, args, inputs: dict[str, str], /, *leave_out, run=None,
                    **extra):
    """Record the run's resolved settings (bar leave_out, plus extra), its seed,
    the digests of its inputs and the entries of `run`."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("subcommand", "config", "func", "parser", *leave_out)}
    manifest = {
        "subcommand": args.subcommand,
        "config": {**config, **extra},
        "seed": args.seed,
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
        "tool_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **(run or {}),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _versions() -> dict:
    """The python, numpy and BLAS versions; None where numpy does not report one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.26 takes no mode
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)})
    train_c, dev_c, test_c, lexicon, type_map, embeddings = synth_corpus(spec, args.seed)

    out = ensure_dir(args.out_dir)
    save_corpus(train_c, out / "corpus_train.jsonl")
    save_corpus(dev_c, out / "corpus_dev.jsonl")
    save_corpus(test_c, out / "corpus_test.jsonl")
    save_lexicon(lexicon, out / "lexicon.json")
    save_typemap(type_map, out / "typemap.json")
    write_embeddings(embeddings, out / "embeddings.txt")
    _write_manifest(out, args, {}, "seed", out_dir=str(out))
    print(f"wrote synthetic corpus ({len(list(train_c.sentences()))} train sentences) to {out}")
    return 0


def cmd_gen_data(args) -> int:
    corpora = (load_corpus(args.corpus_train), load_corpus(args.corpus_dev),
               load_corpus(args.corpus_test))
    type_map = load_typemap(args.typemap)
    lexicon = load_lexicon(args.lexicon)
    target = args.target_type

    held = holdout_split(*corpora, target, type_map)
    out = ensure_dir(args.out_dir)
    stats = {}
    for split, corpus in zip(("train", "dev", "test"), held):
        examples = generate_lfk(corpus, lexicon, type_map, target, split, args.seed)
        save_dataset(examples, out / f"{split}.jsonl", debug=args.debug_provenance)
        rep = dataset_stats(examples)
        stats[split] = {"positives": rep.positives, "negatives": rep.negatives}
    with open(out / "stats.json", "w", encoding="utf-8") as f:
        json.dump({"target_type": target, "splits": stats}, f, indent=2, sort_keys=True)
        f.write("\n")

    inputs = {k: getattr(args, k) for k in
              ("corpus_train", "corpus_dev", "corpus_test", "typemap", "lexicon")}
    _write_manifest(out, args, inputs, out_dir=str(out))
    print(f"{'split':<6} {'+1':>8} {'-1':>8}")
    for split in ("train", "dev", "test"):
        print(f"{split:<6} {stats[split]['positives']:>8} {stats[split]['negatives']:>8}")
    return 0


# The train subcommand's ModelConfig and TrainConfig fields, settable by flag
# or config file. Left out: the variant (head, cfa), which --model picks, and
# the model seed, which is --seed.
MODEL_FIELDS = [f.name for f in fields(ModelConfig) if f.name not in ("head", "cfa", "seed")]
TRAIN_FIELDS = [f.name for f in fields(TrainConfig)]


def _parse_windows(text) -> tuple[int, ...]:
    if isinstance(text, list):
        return tuple(text)
    try:
        return tuple(int(w) for w in text.split(",") if w.strip())
    except ValueError as e:
        raise ValueError(f"bad --windows value {text!r}: {e}") from e


def cmd_train(args) -> int:
    started = time.perf_counter()
    data_dir = Path(args.data_dir)
    train_set = load_dataset(data_dir / "train.jsonl")
    dev_set = load_dataset(data_dir / "dev.jsonl")
    emb = load_embeddings(args.embeddings, args.word_dim,
                          oov_policy=args.oov_policy, seed=args.seed)
    train_cfg = TrainConfig(**{k: getattr(args, k) for k in TRAIN_FIELDS})
    train_cfg.validate()
    out = ensure_dir(args.out)

    # The baseline has no layers, so it ignores --sweep-layers.
    baseline = args.model == BASELINE
    sweep = args.sweep_layers and not baseline
    results = {}
    for m in (1, 2, 3, 4) if sweep else (args.layers,):
        tag = f"_m{m}" if sweep else ""
        if sweep:
            print(f"== layers={m}")
        if baseline:
            model = LinearBaseline(emb)
        else:
            given = {k: getattr(args, k) for k in MODEL_FIELDS}
            given.update(layers=m, windows=_parse_windows(args.windows), word_dim=emb.dim)
            config = ModelConfig(**given, seed=args.seed).with_variant(args.model)
            config.validate()
            words = (WordTable(emb, {t for ex in (*train_set, *dev_set)
                                     for t in (*ex.tokens, *ex.keywords)})
                     if args.finetune_words else None)
            model = Model(config, emb, words=words)
        results[m] = train(model, train_set, dev_set, train_cfg,
                           log_path=out / f"train_log{tag}.jsonl", progress=_print_epoch)
        save_checkpoint(model, out / f"model{tag}.ckpt", emb_path=args.embeddings)

    best_m = max(results, key=lambda m: results[m].best_f1)     # ties: fewest layers
    best = {"best_epoch": results[best_m].best_epoch,
            "best_dev_f1": results[best_m].best_f1}
    if sweep:
        shutil.copyfile(out / f"model_m{best_m}.ckpt", out / "model.ckpt")
        with open(out / "sweep.json", "w", encoding="utf-8") as f:
            json.dump({"dev_f1_by_layers": {str(m): r.best_f1 for m, r in results.items()},
                       "best_layers": best_m}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"best layers: {best_m} (dev F1 {best['best_dev_f1']:.3f})")
        best["best_layers"] = best_m

    inputs = {"train": str(data_dir / "train.jsonl"), "dev": str(data_dir / "dev.jsonl"),
              "embeddings": str(args.embeddings)}
    _write_manifest(out, args, inputs, "embeddings",
                    run={"wall_s": round(time.perf_counter() - started, 3),
                         "versions": _versions()},
                    data_dir=str(data_dir), out=str(out), **best)
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
    results = check_all(seed=args.seed, tol=args.tol)
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
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=Subcommand)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus triple")
    p.add_argument("--config", help="JSON file of synth-spec fields")
    p.add_argument("--seed", type=int, default=0, help="corpus generation seed")
    p.add_argument("--out-dir", required=True, help="output directory")
    for f in fields(SynthSpec):
        p.add_argument("--" + f.name.replace("_", "-"), type=float if f.type == "float" else int,
                       default=f.default, help=f"synth spec: {f.name}")

    p = command("gen-data", cmd_gen_data, "holdout split + binary example generation")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--corpus-train", default=NEEDED, help="training corpus JSONL")
    p.add_argument("--corpus-dev", default=NEEDED, help="dev corpus JSONL")
    p.add_argument("--corpus-test", default=NEEDED, help="test corpus JSONL")
    p.add_argument("--typemap", default=NEEDED, help="type map JSON")
    p.add_argument("--lexicon", default=NEEDED, help="trigger lexicon JSON")
    p.add_argument("--target-type", default=NEEDED, help="event type to hold out")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--debug-provenance", action="store_true",
                   help="record each example's source subtype")
    p.add_argument("--out-dir", required=True, help="output directory")

    p = command("train", cmd_train, "train a model variant or the baseline")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--data-dir", required=True,
                   help="directory holding train.jsonl and dev.jsonl")
    p.add_argument("--model", choices=MODEL_CHOICES, default=NEEDED, help="model variant")
    p.add_argument("--embeddings", default=NEEDED, help="word embedding text file")
    p.add_argument("--out", required=True, help="output directory")

    def setting(flag, typ, help):     # defaults to the ModelConfig or TrainConfig field
        name = flag[2:].replace("-", "_")
        owner = ModelConfig if name in MODEL_FIELDS else TrainConfig
        p.add_argument(flag, type=typ, default=getattr(owner, name), help=help)

    setting("--layers", int, "number of CNN layers (1..4)")
    p.add_argument("--windows", default=",".join(map(str, ModelConfig.windows)),
                   help="comma-separated window sizes, e.g. 2,3,4,5")
    setting("--filters", int, "filters per window size")
    setting("--dropout", float, "dropout rate on R")
    setting("--lr", float, "Adadelta learning-rate scale")
    setting("--seed", int, "run seed")
    setting("--epochs", int, "max training epochs")
    setting("--batch-size", int, "mini-batch size")
    setting("--patience", int, "early-stopping patience")
    setting("--neg-keep", float, "fraction of negatives kept per epoch")
    p.add_argument("--word-dim", type=int,
                   help="word vector dim (default: inferred from file)")
    setting("--pos-dim", int, "position embedding dim")
    setting("--max-offset", int, "position clamp range")
    setting("--attn-hidden", int, "attention projection width")
    setting("--ffn-hidden", int, "classifier hidden width")
    setting("--conv-act", None, "conv/FFN nonlinearity")
    setting("--attn-act", None, "attention nonlinearity")
    setting("--cfa-act", None, "CFA gamma/beta nonlinearity")
    p.add_argument("--finetune-words", action="store_true",
                   help="also train word vectors (default: frozen)")
    p.add_argument("--sweep-layers", action="store_true",
                   help="train at layers 1..4 and keep the dev-best")
    p.file_only("cfa_last", ModelConfig.cfa_last, nargs=0)
    p.file_only("oov_policy", "random-fixed", choices=OOV_POLICIES)

    p = command("eval", cmd_eval, "evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="dataset JSONL")
    p.add_argument("--embeddings",
                   help="embedding file (default: path stored in checkpoint); "
                        "read with the checkpoint's OOV policy and seed")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    p.add_argument("--out", help="also write the JSON report here")

    p = command("gradcheck", cmd_gradcheck,
                "finite-difference check of all model variants")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--seed", type=int, default=11, help="check seed")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="max relative error allowed")

    return parser


def keep_freed_memory():
    """Have glibc's malloc keep freed arrays' memory in the process.

    With its adaptive thresholds, the heap memory a dev evaluation frees is
    handed back to the kernel during the training steps that follow, so every
    evaluation inside training touched fresh pages again: on the quickstart
    data about 3,300 minor page faults (13 MB) per evaluation, and it scored
    13-29% fewer examples per second than the same model scoring back to back.
    A C library without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_BYTES)


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            args.parser.read_config(args.config)
            args = parser.parse_args(argv)
        missing = [key for key in args.parser.keys if not hasattr(args, key)]
        if missing:
            raise ValueError(f"--{missing[0].replace('_', '-')} is required")
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
