"""Workload inputs and the user chain the benchmark times.

A workload's inputs come from the lfked CLI itself: ``synth`` writes a corpus
triple, lexicon, type map and embeddings, and ``gen-data`` turns them into
train/dev/test example files. Mixed-length data merges several ``synth`` runs
that share one seed and differ only in ``--sentence-len``; their embeddings,
lexicon and type map come out byte-identical, which the merge checks. The
program under test only ever reads the generated files.

The data seeds are the README quickstart seeds (synth 3, gen-data 7), so
short-attn-cfa trains and scores exactly the data of gates c07 and c08. The
workload seed is the train seed (model init, shuffling, dropout), the seed
gate c08 varies.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from hooks import FirstStep

SYNTH_SEED = 3
GEN_DATA_SEED = 7
C07_SEED = 0
TARGET_TYPE = "beta"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    epochs: int
    lengths: tuple[int, ...] = (9,)
    # extra `lfked synth` flags per length (the defaults give the quickstart sizes)
    synth_flags: tuple[str, ...] = ()
    # extra `lfked train` flags
    train_flags: tuple[str, ...] = ()
    # when set, the model trains with the dev split of this mixed-length bulk
    # set and scores its test split, not test.jsonl
    bulk_lengths: tuple[int, ...] = ()
    bulk_flags: tuple[str, ...] = ()
    # test F1 the run must reach at C07_SEED (gate c07's configuration)
    min_test_f1: float | None = None
    # at every seed, test F1 must beat predicting every example positive
    beats_all_positive: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="short-attn-cfa",
            why="quickstart data, 9-token sentences, default attention-cfa model: "
                "per-example dispatch dominates; batching and op-count cuts show here",
            model="attention-cfa",
            epochs=16,
            min_test_f1=0.90,
            beats_all_positive=True,
        ),
        Workload(
            name="mixed-attn-cfa",
            why="same vocabulary, sentences of 10-60 tokens: conv1d_same grows to over 40% "
                "of op time, and padded batching would waste work here",
            model="attention-cfa",
            epochs=8,
            # at the default lr 1.0, about one train seed in five leaves the
            # all-positive plateau by epoch 8, so test F1 was bimodal across seeds
            train_flags=("--lr", "0.5"),
            lengths=(10, 20, 40, 60),
            synth_flags=("--events-train", "8", "--events-dev", "3", "--events-test", "3",
                         "--fillers-train", "15", "--fillers-dev", "5", "--fillers-test", "6"),
        ),
        Workload(
            name="bulk-score-concat",
            why="short concat training, checkpoint round trip, then no-tape scoring of a "
                "bulk mixed-length set: maxpool head, no CFA or attention (control)",
            model="concat",
            epochs=10,
            bulk_lengths=(10, 20, 40, 60),
            bulk_flags=("--events-train", "1", "--events-dev", "3", "--events-test", "100",
                        "--fillers-train", "0", "--fillers-dev", "5", "--fillers-test", "400"),
        ),
    )
}

# Smoke mode: tiny data and model, one epoch; every stage and check still runs.
SMOKE_SYNTH = ("--events-train", "2", "--events-dev", "1", "--events-test", "1",
               "--fillers-train", "4", "--fillers-dev", "2", "--fillers-test", "2")
SMOKE_TRAIN = ("--filters", "4", "--pos-dim", "5", "--attn-hidden", "8", "--ffn-hidden", "8")


class ChainError(RuntimeError):
    """A stage of the user chain exited with a non-zero code."""


@dataclass
class Inputs:
    data_dir: Path
    embeddings: Path
    score_set: Path


@dataclass
class ChainResult:
    started: float          # time.perf_counter() at the start and end of the chain
    ended: float
    pipeline_s: float
    cpu_s: float
    test_f1: float
    checkpoint: Path
    checkpoint_sha256: str
    checkpoint_bytes: int
    score_set: Path
    stages_s: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """CPU seconds of this process, every thread included."""
    return time.process_time()


def lfked(argv, log: Path) -> None:
    """Run one lfked subcommand in this process, its output appended to log."""
    from lfked.cli import main

    argv = [str(a) for a in argv]
    with open(log, "a", encoding="utf-8") as f, contextlib.redirect_stdout(f):
        rc = main(argv)
    if rc != 0:
        raise ChainError(f"lfked {argv[0]} exited with {rc}; see {log}")


def _synth(out: Path, length: int, flags, log: Path):
    lfked(["synth", "--out-dir", out, "--seed", SYNTH_SEED, "--sentence-len", length,
           *flags], log)


def merge_synth(parts: list[tuple[int, Path]], out: Path):
    """One corpus triple from synth runs of different sentence lengths; doc ids
    are prefixed with the length, since every run names its docs train_000..."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ("embeddings.txt", "lexicon.json", "typemap.json"):
        contents = {(part / name).read_bytes() for _, part in parts}
        if len(contents) != 1:
            raise ChainError(f"{name} differs between the merged synth runs")
        (out / name).write_bytes(contents.pop())
    for split in ("train", "dev", "test"):
        with open(out / f"corpus_{split}.jsonl", "w", encoding="utf-8") as dst:
            for length, part in parts:
                with open(part / f"corpus_{split}.jsonl", encoding="utf-8") as src:
                    for line in src:
                        rec = json.loads(line)
                        rec["doc"] = f"len{length}_{rec['doc']}"
                        dst.write(json.dumps(rec) + "\n")


def _corpus(out: Path, lengths, flags, log: Path) -> Path:
    if len(lengths) == 1:
        _synth(out, lengths[0], flags, log)
        return out
    parts = []
    for length in lengths:
        part = out.parent / f"{out.name}_len{length}"
        _synth(part, length, flags, log)
        parts.append((length, part))
    merge_synth(parts, out)
    return out


def _gen_data(synth_dir: Path, out: Path, log: Path):
    lfked(["gen-data",
           "--corpus-train", synth_dir / "corpus_train.jsonl",
           "--corpus-dev", synth_dir / "corpus_dev.jsonl",
           "--corpus-test", synth_dir / "corpus_test.jsonl",
           "--lexicon", synth_dir / "lexicon.json",
           "--typemap", synth_dir / "typemap.json",
           "--target-type", TARGET_TYPE, "--seed", GEN_DATA_SEED, "--out-dir", out], log)


def make_inputs(w: Workload, work: Path, smoke: bool, log: Path) -> Inputs:
    synth_flags = SMOKE_SYNTH if smoke else w.synth_flags
    synth_dir = _corpus(work / "synth", w.lengths, synth_flags, log)
    _gen_data(synth_dir, work / "lfk", log)
    data_dir, score_set = work / "lfk", work / "lfk" / "test.jsonl"
    if w.bulk_lengths:
        bulk_flags = SMOKE_SYNTH if smoke else w.bulk_flags
        bulk_dir = _corpus(work / "bulk", w.bulk_lengths, bulk_flags, log)
        if (bulk_dir / "embeddings.txt").read_bytes() != \
                (synth_dir / "embeddings.txt").read_bytes():
            raise ChainError("bulk-set embeddings differ from the training embeddings")
        _gen_data(bulk_dir, work / "bulk_lfk", log)
        score_set = work / "bulk_lfk" / "test.jsonl"
        # the dev split picks the checkpoint; a 9-token one picked checkpoints
        # that score the long bulk sentences at F1 0.66-0.99, seed by seed
        data_dir = work / "train_bulk_dev"
        data_dir.mkdir()
        shutil.copy(work / "lfk" / "train.jsonl", data_dir)
        shutil.copy(work / "bulk_lfk" / "dev.jsonl", data_dir)
    return Inputs(data_dir, synth_dir / "embeddings.txt", score_set)


def train_argv(w: Workload, inputs: Inputs, seed: int, out: Path, smoke: bool):
    epochs = 1 if smoke else w.epochs
    return ["train", "--model", w.model, "--data-dir", inputs.data_dir,
            "--embeddings", inputs.embeddings, "--seed", seed,
            "--epochs", epochs, "--patience", epochs, "--out", out, *w.train_flags,
            *(SMOKE_TRAIN if smoke else ())]


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def tidy(work: Path):
    """Keep the chain's logs in work/, drop generated data and checkpoints."""
    for kept in ("chain/lfked.log", "chain/run/train_log.jsonl"):
        if (work / kept).exists():
            shutil.copy(work / kept, work / Path(kept).name)
    for sub in ("setup", "chain"):
        if (work / sub).exists():
            shutil.rmtree(work / sub)


def measure_setup(w: Workload, seed: int, work: Path, smoke: bool, hooks) -> tuple[float, float]:
    """time.perf_counter() at an empty directory and at the first training step."""
    work = fresh_dir(work)
    log = work / "lfked.log"
    start = time.perf_counter()
    inputs = make_inputs(w, work, smoke, log)
    try:
        lfked(train_argv(w, inputs, seed, work / "run", smoke), log)
    except FirstStep:
        return start, hooks.first_step_at
    raise ChainError("training finished without reaching a training step")


def run_chain(w: Workload, seed: int, work: Path, smoke: bool) -> ChainResult:
    """synth -> gen-data -> train (save checkpoint) -> eval (load and score)."""
    work = fresh_dir(work)
    log = work / "lfked.log"
    run = work / "run"
    start, cpu0 = time.perf_counter(), cpu_seconds()
    inputs = make_inputs(w, work, smoke, log)
    lfked(train_argv(w, inputs, seed, run, smoke), log)
    trained = time.perf_counter()
    lfked(["eval", "--checkpoint", run / "model.ckpt", "--data", inputs.score_set,
           "--json", "--out", run / "report.json"], log)
    end, cpu1 = time.perf_counter(), cpu_seconds()

    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    ckpt = run / "model.ckpt"
    blob = ckpt.read_bytes()
    return ChainResult(
        started=start,
        ended=end,
        pipeline_s=end - start,
        cpu_s=cpu1 - cpu0,
        test_f1=float(report["f1"]),
        checkpoint=ckpt,
        checkpoint_sha256=hashlib.sha256(blob).hexdigest(),
        checkpoint_bytes=len(blob),
        score_set=inputs.score_set,
        stages_s={"to_trained": trained - start, "score": end - trained},
    )
