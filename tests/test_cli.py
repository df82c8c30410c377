"""End-to-end checks of the lfked command line: subcommand round trips,
config-file merging, exit codes, and byte-stable reruns."""

import ctypes
import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from lfked import cli
from lfked.checkpoint import load_checkpoint, save_checkpoint
from lfked.cli import keep_freed_memory, main
from lfked.corpus import load_dataset, sha256_file


def run_cli(*argv):
    return main([str(a) for a in argv])


SMALL_SYNTH = [
    "--n-types", 2, "--subtypes-per-type", 2, "--triggers-per-subtype", 6,
    "--context-per-subtype", 4, "--filler-vocab", 10, "--sentence-len", 7,
    "--ctx-per-sentence", 2, "--embed-dim", 12, "--events-train", 4,
    "--events-dev", 2, "--events-test", 2, "--fillers-train", 4,
    "--fillers-dev", 2, "--fillers-test", 2, "--sentences-per-doc", 3,
]

TINY_NET = [
    "--windows", "2,3", "--filters", 4, "--pos-dim", 4, "--max-offset", 5,
    "--attn-hidden", 6, "--ffn-hidden", 8, "--dropout", 0.0,
    "--epochs", 2, "--batch-size", 16, "--seed", 3,
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run_cli("synth", "--out-dir", out, "--seed", 1, *SMALL_SYNTH) == 0
    return out


@pytest.fixture(scope="module")
def data_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("lfk")
    rc = run_cli(
        "gen-data",
        "--corpus-train", synth_dir / "corpus_train.jsonl",
        "--corpus-dev", synth_dir / "corpus_dev.jsonl",
        "--corpus-test", synth_dir / "corpus_test.jsonl",
        "--lexicon", synth_dir / "lexicon.json",
        "--typemap", synth_dir / "typemap.json",
        "--target-type", "beta", "--seed", 2, "--out-dir", out,
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(synth_dir, data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run_cli(
        "train", "--model", "attention-cfa", "--data-dir", data_dir,
        "--embeddings", synth_dir / "embeddings.txt", "--out", out, *TINY_NET,
    )
    assert rc == 0
    return out


# -- synth --------------------------------------------------------------

def test_synth_writes_expected_files(synth_dir):
    names = {
        "corpus_train.jsonl", "corpus_dev.jsonl", "corpus_test.jsonl",
        "lexicon.json", "typemap.json", "embeddings.txt", "manifest.json",
    }
    assert {p.name for p in synth_dir.iterdir()} == names


def test_synth_manifest_records_run(synth_dir):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 1
    assert manifest["config"]["events_train"] == 4
    assert "tool_version" in manifest and "created" in manifest


def test_synth_rerun_is_byte_identical(synth_dir, tmp_path):
    again = tmp_path / "again"
    assert run_cli("synth", "--out-dir", again, "--seed", 1, *SMALL_SYNTH) == 0
    for name in ("corpus_train.jsonl", "corpus_dev.jsonl", "corpus_test.jsonl",
                 "lexicon.json", "typemap.json", "embeddings.txt"):
        assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"events_train": 3, "events_dev": 1, "events_test": 1,
                               "fillers_train": 2, "fillers_dev": 1, "fillers_test": 1,
                               "sentences_per_doc": 2, "embed_dim": 8}))
    out = tmp_path / "out"
    # flag beats the file: events_train 3 -> 5
    assert run_cli("synth", "--config", cfg, "--events-train", 5,
                   "--out-dir", out, "--seed", 0) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["events_train"] == 5
    assert manifest["config"]["embed_dim"] == 8


def test_invalid_config_json_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": 1,\n')
    rc = run_cli("synth", "--config", cfg, "--out-dir", tmp_path / "x")
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: invalid JSON (Expecting property name enclosed in double quotes)\n")


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_knob": 1}))
    rc = run_cli("synth", "--config", cfg, "--out-dir", tmp_path / "x")
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


# -- gen-data -----------------------------------------------------------

def test_gen_data_outputs_and_stats(data_dir):
    stats = json.loads((data_dir / "stats.json").read_text())
    assert stats["target_type"] == "beta"
    for split in ("train", "dev", "test"):
        examples = load_dataset(data_dir / f"{split}.jsonl")
        pos = sum(1 for ex in examples if ex.label == 1)
        neg = len(examples) - pos
        assert stats["splits"][split] == {"positives": pos, "negatives": neg}
        assert pos > 0 and neg > 0


def test_gen_data_prints_count_table(synth_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "lfk2"
    rc = run_cli(
        "gen-data",
        "--corpus-train", synth_dir / "corpus_train.jsonl",
        "--corpus-dev", synth_dir / "corpus_dev.jsonl",
        "--corpus-test", synth_dir / "corpus_test.jsonl",
        "--lexicon", synth_dir / "lexicon.json",
        "--typemap", synth_dir / "typemap.json",
        "--target-type", "beta", "--seed", 2, "--out-dir", out,
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["split", "+1", "-1"]
    assert [ln.split()[0] for ln in lines[1:4]] == ["train", "dev", "test"]
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "stats.json"):
        assert (out / name).read_bytes() == (data_dir / name).read_bytes()


def test_gen_data_missing_required_flag(synth_dir, tmp_path, capsys):
    rc = run_cli("gen-data", "--corpus-train", synth_dir / "corpus_train.jsonl",
                 "--out-dir", tmp_path / "x")
    assert rc == 2
    assert "required" in capsys.readouterr().err


def test_gen_data_unknown_target_type(synth_dir, tmp_path):
    rc = run_cli(
        "gen-data",
        "--corpus-train", synth_dir / "corpus_train.jsonl",
        "--corpus-dev", synth_dir / "corpus_dev.jsonl",
        "--corpus-test", synth_dir / "corpus_test.jsonl",
        "--lexicon", synth_dir / "lexicon.json",
        "--typemap", synth_dir / "typemap.json",
        "--target-type", "nope", "--out-dir", tmp_path / "x",
    )
    assert rc == 2


@pytest.mark.parametrize("flag, content, message", [
    ("--typemap", '{"subtype_of": {}}', ": typemap has no 'types' entry"),
    ("--typemap", '{"types": [', ":2: invalid JSON (Expecting value)"),
    ("--typemap", '{"types": ["a"], "subtype_of": {"s": "b"}}',
     ": subtype 's' maps to unknown type 'b'"),
    ("--typemap", '{"types": ["a", "b"], "subtype_of": ["xa", "yb"]}',
     ": 'subtype_of' must be an object, not a list"),
    ("--lexicon", '["a"]', ": lexicon must be a JSON object, not a list"),
    ("--lexicon", '{"a": "trig"}', ": 'a' must be a list, not a string"),
    ("--lexicon", '{"a": [1]}', ": 'a'[0] must be a string, not an integer"),
    ("--corpus-test", '{"doc": "d", "tokens": "abc"}',
     ":1: bad sentence record ('tokens' must be a list, not a string)"),
    ("--corpus-test", '{"doc": 3, "tokens": ["a"]}',
     ":1: bad sentence record ('doc' must be a string, not an integer)"),
    ("--corpus-test", '{"doc": "d", "tokens": ["a"], "mentions": [{"anchor": 0.5, "subtype": 7}]}',
     ":1: bad sentence record ('mentions'[0]['anchor'] must be an integer, not a float)"),
    ("--corpus-train", '{"doc": "d", "tokens": ["a"], "mentions": [{"anchor": 4, "subtype": "s"}]}',
     ":1: anchor 4 outside 0..0"),
    ("--corpus-train", '{"doc": "d", "tokens": []}', ":1: empty token list"),
], ids=["typemap-without-types", "typemap-bad-json", "typemap-unknown-type", "typemap-list",
       "lexicon-list", "lexicon-string", "lexicon-number", "corpus-string", "corpus-doc-number",
       "corpus-mention-numbers", "corpus-anchor-outside", "corpus-no-tokens"])
def test_gen_data_rejects_an_input_of_the_wrong_shape(
        synth_dir, tmp_path, capsys, flag, content, message):
    bad = tmp_path / "bad.json"
    bad.write_text(content + "\n")
    inputs = {"--corpus-train": "corpus_train.jsonl", "--corpus-dev": "corpus_dev.jsonl",
              "--corpus-test": "corpus_test.jsonl", "--lexicon": "lexicon.json",
              "--typemap": "typemap.json"}
    argv = [a for f, name in inputs.items()
            for a in (f, bad if f == flag else synth_dir / name)]
    rc = run_cli("gen-data", *argv, "--target-type", "beta", "--out-dir", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}{message}\n"
    assert not (tmp_path / "out").exists()


def test_gen_data_config_file_with_flag_override(synth_dir, tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "corpus_train": str(synth_dir / "corpus_train.jsonl"),
        "corpus_dev": str(synth_dir / "corpus_dev.jsonl"),
        "corpus_test": str(synth_dir / "corpus_test.jsonl"),
        "lexicon": str(synth_dir / "lexicon.json"),
        "typemap": str(synth_dir / "typemap.json"),
        "target_type": "alpha",
        "seed": 2,
    }))
    out = tmp_path / "out"
    assert run_cli("gen-data", "--config", cfg, "--target-type", "beta",
                   "--out-dir", out) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["target_type"] == "beta"


def test_gen_data_debug_provenance_records_subtype(synth_dir, tmp_path):
    out = tmp_path / "dbg"
    rc = run_cli(
        "gen-data",
        "--corpus-train", synth_dir / "corpus_train.jsonl",
        "--corpus-dev", synth_dir / "corpus_dev.jsonl",
        "--corpus-test", synth_dir / "corpus_test.jsonl",
        "--lexicon", synth_dir / "lexicon.json",
        "--typemap", synth_dir / "typemap.json",
        "--target-type", "beta", "--seed", 2, "--debug-provenance",
        "--out-dir", out,
    )
    assert rc == 0
    with open(out / "train.jsonl", encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    assert all("source_subtype" in r for r in records)


# -- train --------------------------------------------------------------

def test_train_outputs(run_dir):
    assert (run_dir / "model.ckpt").exists()
    assert (run_dir / "manifest.json").exists()
    with open(run_dir / "train_log.jsonl", encoding="utf-8") as f:
        entries = [json.loads(line) for line in f]
    assert len(entries) == 2
    keys = {"epoch", "train_loss", "dev_p", "dev_r", "dev_f1", "seconds", "peak_rss_mb"}
    assert all(set(e) == keys for e in entries)
    assert [e["epoch"] for e in entries] == [1, 2]


def test_train_manifest_has_input_digests(run_dir, data_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert set(manifest["inputs"]) == {"train", "dev", "embeddings"}
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert manifest["config"]["model"] == "attention-cfa"
    assert "best_dev_f1" in manifest["config"]


def test_train_manifest_has_wall_time_and_versions(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["wall_s"] > 0
    versions = manifest["versions"]
    assert versions["python"] == platform.python_version()
    assert versions["numpy"] == np.__version__
    assert set(versions["blas"]) == {"name", "version"}
    assert all(v is None or isinstance(v, str) for v in versions["blas"].values())


def test_versions_write_null_for_a_blas_numpy_does_not_report(monkeypatch):
    def show_config(mode="stdout"):
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")
    monkeypatch.setattr(np, "show_config", show_config)
    assert cli._versions()["blas"] == {"name": None, "version": None}
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": {"Build Dependencies": {}})
    assert cli._versions()["blas"] == {"name": None, "version": None}


def test_train_rerun_reproduces_checkpoint(synth_dir, data_dir, run_dir, tmp_path_factory):
    again = tmp_path_factory.mktemp("again")      # beside run_dir, as the stored path is relative
    rc = run_cli(
        "train", "--model", "attention-cfa", "--data-dir", data_dir,
        "--embeddings", synth_dir / "embeddings.txt", "--out", again, *TINY_NET,
    )
    assert rc == 0
    assert (again / "model.ckpt").read_bytes() == (run_dir / "model.ckpt").read_bytes()
    strip = lambda p: [
        {k: v for k, v in json.loads(line).items() if k not in ("seconds", "peak_rss_mb")}
        for line in open(p, encoding="utf-8")
    ]
    assert strip(again / "train_log.jsonl") == strip(run_dir / "train_log.jsonl")


def test_train_baseline(synth_dir, data_dir, tmp_path):
    out = tmp_path / "base"
    rc = run_cli("train", "--model", "word2vec-baseline", "--data-dir", data_dir,
                 "--embeddings", synth_dir / "embeddings.txt", "--out", out,
                 "--epochs", 2, "--seed", 0)
    assert rc == 0
    ckpt = json.loads((out / "model.ckpt").read_text())
    assert ckpt["kind"] == "baseline"


def test_train_sweep_layers(synth_dir, data_dir, tmp_path):
    out = tmp_path / "sweep"
    rc = run_cli(
        "train", "--model", "concat", "--data-dir", data_dir,
        "--embeddings", synth_dir / "embeddings.txt", "--out", out,
        "--windows", "2", "--filters", 2, "--pos-dim", 2, "--max-offset", 3,
        "--ffn-hidden", 4, "--dropout", 0.0, "--epochs", 1, "--seed", 0,
        "--sweep-layers",
    )
    assert rc == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert set(sweep["dev_f1_by_layers"]) == {"1", "2", "3", "4"}
    best = sweep["best_layers"]
    assert best in (1, 2, 3, 4)
    best_bytes = (out / f"model_m{best}.ckpt").read_bytes()
    assert (out / "model.ckpt").read_bytes() == best_bytes
    for m in (1, 2, 3, 4):
        assert (out / f"train_log_m{m}.jsonl").exists()


def test_train_missing_model_flag(synth_dir, data_dir, tmp_path, capsys):
    rc = run_cli("train", "--data-dir", data_dir,
                 "--embeddings", synth_dir / "embeddings.txt",
                 "--out", tmp_path / "x")
    assert rc == 2
    assert "--model" in capsys.readouterr().err


def test_train_missing_dataset(synth_dir, tmp_path):
    rc = run_cli("train", "--model", "concat", "--data-dir", tmp_path / "nowhere",
                 "--embeddings", synth_dir / "embeddings.txt",
                 "--out", tmp_path / "x")
    assert rc == 2


@pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
def test_train_rejects_a_learning_rate_that_is_not_finite_and_positive(
        synth_dir, data_dir, tmp_path, capsys, lr):
    # -1 used to train by gradient ascent and exit 0; nan used to exit 3
    rc = run_cli("train", "--model", "concat", "--data-dir", data_dir,
                 "--embeddings", synth_dir / "embeddings.txt",
                 "--out", tmp_path / "x", "--lr", lr, *TINY_NET)
    assert rc == 2
    assert "lr must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_rejects_a_repeated_keyword_with_its_location(
        synth_dir, data_dir, tmp_path, capsys):
    # keyword_repr would count the repeated keyword twice in V_K
    data = tmp_path / "lfk"
    shutil.copytree(data_dir, data)
    lines = (data / "train.jsonl").read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    lines[1] = json.dumps(rec | {"keywords": rec["keywords"] + rec["keywords"][:1]}) + "\n"
    (data / "train.jsonl").write_text("".join(lines))
    rc = run_cli("train", "--model", "concat", "--data-dir", data,
                 "--embeddings", synth_dir / "embeddings.txt", "--out", tmp_path / "x", *TINY_NET)
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {data / 'train.jsonl'}:2: keyword "
                                       f"{rec['keywords'][0]!r} repeats in the keyword set\n")
    assert not (tmp_path / "x").exists()


def test_train_numeric_failure_exit_code(synth_dir, data_dir, tmp_path, capsys):
    # A non-finite vector is refused on load (exit 2); finite vectors too
    # large to multiply blow up the first batch (exit 3).
    lines = (synth_dir / "embeddings.txt").read_text().splitlines()
    dim = len(lines[0].split()) - 1
    for value, want in (("inf", 2), ("1e308", 3)):
        bad = tmp_path / f"emb_{value}.txt"
        bad.write_text("".join(line.split()[0] + f" {value}" * dim + "\n" for line in lines))
        with np.errstate(invalid="ignore", over="ignore"):
            rc = run_cli("train", "--model", "concat", "--data-dir", data_dir,
                         "--embeddings", bad, "--out", tmp_path / "x",
                         "--windows", "2", "--filters", 2, "--pos-dim", 2,
                         "--max-offset", 3, "--ffn-hidden", 4, "--epochs", 1,
                         "--seed", 0)
        assert rc == want
        assert ("non-finite value" if want == 2 else "numeric") in capsys.readouterr().err


# One config file with a value of every type; the run also gives --epochs.
VALID_TRAIN_CONFIG = {
    "model": "attention-cfa", "windows": [2, 3], "lr": 1, "neg_keep": None,
    "cfa_last": False, "oov_policy": "zero", "finetune_words": True, "dropout": 0.25,
    "filters": 4, "pos_dim": 4, "max_offset": 5, "attn_hidden": 6, "ffn_hidden": 8,
    "conv_act": "relu", "layers": 2, "batch_size": 16, "epochs": 3, "seed": 3,
}

# The manifest's config block, bar data_dir and out, that the same run wrote
# when config values were merged by hand (with --embeddings as a flag).
VALID_TRAIN_MANIFEST = {
    "attn_act": "tanh", "attn_hidden": 6, "batch_size": 16, "best_dev_f1": 0.8,
    "best_epoch": 1, "cfa_act": "sigmoid", "cfa_last": False, "conv_act": "relu",
    "dropout": 0.25, "epochs": 2, "ffn_hidden": 8, "filters": 4,
    "finetune_words": True, "layers": 2, "lr": 1, "max_offset": 5,
    "model": "attention-cfa", "neg_keep": None, "oov_policy": "zero", "patience": 5,
    "pos_dim": 4, "seed": 3, "sweep_layers": False, "windows": [2, 3], "word_dim": None,
}


def test_train_config_values_reach_the_manifest_unchanged(synth_dir, data_dir, tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({**VALID_TRAIN_CONFIG,
                               "embeddings": str(synth_dir / "embeddings.txt")}))
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--data-dir", data_dir, "--out", out,
                   "--epochs", 2) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config.pop("data_dir"), config.pop("out")) == (str(data_dir), str(out))
    assert config == VALID_TRAIN_MANIFEST
    model = load_checkpoint(out / "model.ckpt")
    assert model.words is not None and model.emb.oov_policy == "zero"
    assert model.config.windows == (2, 3) and not model.config.cfa_last


@pytest.mark.parametrize("command, key, value", [
    ("train", "epochs", "1"),
    ("train", "layers", 2.0),
    ("train", "finetune_words", "no"),
    ("train", "model", "transformer"),
    ("train", "seed", "3"),
    ("train", "windows", ["2", "3"]),
    ("train", "epochs", None),
    ("train", "oov_policy", "nope"),
    ("gen-data", "debug_provenance", "false"),
    ("gen-data", "target_type", None),
    ("synth", "noise", "0.3"),
    ("gradcheck", "tol", "x"),
])
def test_config_values_are_checked_like_flags(
        synth_dir, data_dir, tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "concat", key: value} if command == "train"
                              else {key: value}))
    out = tmp_path / "out"
    argv = {
        "train": ["--data-dir", data_dir, "--embeddings", synth_dir / "embeddings.txt",
                  "--out", out, "--windows", "2", "--filters", 2, "--pos-dim", 2,
                  "--max-offset", 3, "--ffn-hidden", 4],
        "gen-data": [
            "--corpus-train", synth_dir / "corpus_train.jsonl",
            "--corpus-dev", synth_dir / "corpus_dev.jsonl",
            "--corpus-test", synth_dir / "corpus_test.jsonl",
            "--lexicon", synth_dir / "lexicon.json",
            "--typemap", synth_dir / "typemap.json",
            "--target-type", "beta", "--out-dir", out],
        "synth": ["--out-dir", out, *SMALL_SYNTH],
        "gradcheck": [],
    }[command]
    rc = run_cli(command, "--config", cfg, *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {cfg}: {key}: ")
    assert captured.out == "" and not out.exists()


# -- eval ---------------------------------------------------------------

def test_eval_text_report(synth_dir, data_dir, run_dir, capsys):
    rc = run_cli("eval", "--checkpoint", run_dir / "model.ckpt",
                 "--data", data_dir / "test.jsonl",
                 "--embeddings", synth_dir / "embeddings.txt")
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("P ")
    assert "F1" in out and "tp=" in out


def test_eval_json_report_and_out_file(synth_dir, data_dir, run_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = run_cli("eval", "--checkpoint", run_dir / "model.ckpt",
                 "--data", data_dir / "test.jsonl",
                 "--embeddings", synth_dir / "embeddings.txt",
                 "--json", "--out", report_path)
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(report_path.read_text())
    assert printed == saved
    assert {"tp", "fp", "fn", "precision", "recall", "f1"} <= set(printed)


def test_eval_embeddings_override_keeps_checkpoint_oov_seed(
        synth_dir, data_dir, tmp_path, capsys):
    # Every token of the scored set is unknown to the embedding file, so each
    # gets its OOV vector from the seed the checkpoint stores (5, not 0).
    out = tmp_path / "run"
    emb_path = synth_dir / "embeddings.txt"
    assert run_cli("train", "--model", "concat", "--data-dir", data_dir,
                   "--embeddings", emb_path, "--out", out,
                   *TINY_NET, "--seed", 5) == 0
    # Trained this briefly, the model says "positive" whatever the input. With
    # its biases zeroed, each prediction turns on the (keyword) vectors.
    model = load_checkpoint(out / "model.ckpt")
    assert model.emb.seed == 5
    for name, p in model.params.items():
        if name.endswith((".b", ".bias")):
            p.data[:] = 0.0
    save_checkpoint(model, out / "model.ckpt", emb_path=emb_path)
    unseen = tmp_path / "unseen.jsonl"
    with open(unseen, "w", encoding="utf-8") as f:
        for split in ("train", "dev", "test"):
            for ex in load_dataset(data_dir / f"{split}.jsonl"):
                f.write(json.dumps({
                    "tokens": [f"oov_{t}" for t in ex.tokens], "anchor": ex.anchor,
                    "keywords": [f"oov_{k}" for k in ex.keywords], "label": ex.label,
                }) + "\n")
    capsys.readouterr()
    reports = []
    for extra in ([], ["--embeddings", emb_path]):
        assert run_cli("eval", "--checkpoint", out / "model.ckpt",
                       "--data", unseen, "--json", *extra) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert 0 < reports[0]["tp"] + reports[0]["fp"] < 120    # not a constant model
    assert reports[0] == reports[1]


def test_eval_uses_embedding_path_from_checkpoint(data_dir, run_dir, capsys):
    rc = run_cli("eval", "--checkpoint", run_dir / "model.ckpt",
                 "--data", data_dir / "test.jsonl")
    assert rc == 0
    assert "F1" in capsys.readouterr().out


def test_eval_refuses_a_changed_embedding_file(synth_dir, data_dir, tmp_path, capsys):
    emb_path, same = tmp_path / "emb.txt", tmp_path / "same.txt"
    emb_path.write_bytes((synth_dir / "embeddings.txt").read_bytes())
    same.write_bytes(emb_path.read_bytes())
    out = tmp_path / "run"
    assert run_cli("train", "--model", "concat", "--data-dir", data_dir,
                   "--embeddings", emb_path, "--out", out, *TINY_NET) == 0
    first, rest = emb_path.read_text().split("\n", 1)
    token, _, values = first.split(" ", 2)
    emb_path.write_text(f"{token} 0.5 {values}\n{rest}")    # one value edited
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", out / "model.ckpt",
                   "--data", data_dir / "test.jsonl") == 2
    err = capsys.readouterr().err
    assert "sha256" in err and sha256_file(same) in err and sha256_file(emb_path) in err
    assert run_cli("eval", "--checkpoint", out / "model.ckpt",
                   "--data", data_dir / "test.jsonl", "--embeddings", same) == 0


def train_in_tree(monkeypatch, synth_dir, data_dir, tree, absolute=False):
    """Train concat into tree/run with the working directory at `tree`, from
    a copy of the embeddings at tree/synth/embeddings.txt, named relative to
    `tree` or absolute."""
    (tree / "synth").mkdir(parents=True)
    (tree / "synth" / "embeddings.txt").write_bytes((synth_dir / "embeddings.txt").read_bytes())
    monkeypatch.chdir(tree)
    emb = tree / "synth" / "embeddings.txt" if absolute else Path("synth", "embeddings.txt")
    assert run_cli("train", "--model", "concat", "--data-dir", data_dir,
                   "--embeddings", emb, "--out", "run", *TINY_NET) == 0
    return tree / "run" / "model.ckpt"


@pytest.mark.parametrize("absolute", [False, True])
def test_checkpoint_evaluates_from_any_directory(
        synth_dir, data_dir, tmp_path, monkeypatch, capsys, absolute):
    ckpt = train_in_tree(monkeypatch, synth_dir, data_dir, tmp_path / "tree", absolute)
    stored = json.loads(ckpt.read_text())["embeddings"]["path"]
    assert stored == str(Path("..", "synth", "embeddings.txt"))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    capsys.readouterr()
    for checkpoint in (ckpt, Path("..", "tree", "run", "model.ckpt")):
        assert run_cli("eval", "--checkpoint", checkpoint, "--data", data_dir / "test.jsonl",
                       "--json") == 0
        assert json.loads(capsys.readouterr().out)["tp"] >= 0


def test_eval_names_a_missing_embedding_file(synth_dir, data_dir, tmp_path, monkeypatch,
                                             capsys):
    ckpt = train_in_tree(monkeypatch, synth_dir, data_dir, tmp_path)
    (tmp_path / "synth" / "embeddings.txt").unlink()
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data_dir / "test.jsonl") == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and str(tmp_path / "synth" / "embeddings.txt") in err
    assert "--embeddings" in err


def test_old_relative_embedding_path_reads_from_the_working_directory(
        synth_dir, data_dir, tmp_path, monkeypatch, capsys):
    # Checkpoints once stored the path as given to train, relative to its
    # working directory; one with no file beside it still loads from there.
    tree = tmp_path / "tree"
    ckpt = train_in_tree(monkeypatch, synth_dir, data_dir, tree)
    doc = json.loads(ckpt.read_text())
    doc["embeddings"]["path"] = str(Path("synth", "embeddings.txt"))
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data_dir / "test.jsonl") == 0
    monkeypatch.chdir(tmp_path)
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data_dir / "test.jsonl") == 2
    assert str(tree / "run" / "synth" / "embeddings.txt") in capsys.readouterr().err


def test_eval_finetune_words_scores_unseen_tokens(synth_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--model", "attention-cfa", "--data-dir", data_dir,
                   "--embeddings", synth_dir / "embeddings.txt", "--out", out,
                   *TINY_NET, "--finetune-words") == 0
    unseen = tmp_path / "unseen.jsonl"
    examples = load_dataset(data_dir / "test.jsonl")
    with open(unseen, "w", encoding="utf-8") as f:
        for i, ex in enumerate(examples):
            tokens = list(ex.tokens)
            tokens[(ex.anchor + 1 + i) % len(tokens)] = "zzunseen"
            f.write(json.dumps({
                "tokens": tokens, "anchor": ex.anchor,
                "keywords": list(ex.keywords) + ["zzunseenkw"], "label": ex.label,
            }) + "\n")
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", out / "model.ckpt", "--data", unseen,
                   "--json") == 0
    assert json.loads(capsys.readouterr().out)["tp"] >= 0
    model = load_checkpoint(out / "model.ckpt")
    assert "zzunseen" not in model.words.index
    data = load_dataset(unseen)
    ref = np.stack([model.forward(ex).data for ex in data])
    assert np.abs(model.logits_batch(data) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("overrides, message", [
    ({"tokens": [], "anchor": 0}, "empty token list"),
    ({"keywords": []}, "empty keyword set"),
    ({"anchor": 99}, "anchor 99 outside 0..2"),
    ({"label": 2}, "label must be 0 or 1, got 2"),
    ({"tokens": "abc"}, "bad example record ('tokens' must be a list, not a string)"),
    ({"keywords": "k"}, "bad example record ('keywords' must be a list, not a string)"),
    ({"keywords": ["k", "k"]}, "keyword 'k' repeats in the keyword set"),
])
def test_eval_rejects_a_bad_dataset_record_with_its_location(
        run_dir, tmp_path, capsys, overrides, message):
    good = {"tokens": ["a", "b", "c"], "anchor": 1, "keywords": ["k"], "label": 1}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(good) + "\n" + json.dumps(good | overrides) + "\n")
    rc = run_cli("eval", "--checkpoint", run_dir / "model.ckpt", "--data", bad)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "checkpoint must be a JSON object, not a list"),
    (lambda doc: {k: v for k, v in doc.items() if k != "embeddings"},
     "checkpoint has no 'embeddings' entry"),
    (lambda doc: doc | {"config": doc["config"] | {"bogus": 1}},
     "'config' has unknown key 'bogus'"),
    (lambda doc: doc | {"config": doc["config"] | {"windows": "23"}},
     "'config'['windows'] must be a list, not a string"),
    (lambda doc: doc | {"config": doc["config"] | {"filters": 4.0}},
     "'config'['filters'] must be an integer, not a float"),
    (lambda doc: doc | {"embeddings": {k: v for k, v in doc["embeddings"].items() if k != "dim"}},
     "'embeddings' has no 'dim' entry"),
    (lambda doc: doc | {"embeddings": doc["embeddings"] | {"dim": "50"}},
     "'embeddings'['dim'] must be an integer, not a string"),
    (lambda doc: doc | {"params": doc["params"] | {"pos.table": {"data": ""}}},
     "'params'['pos.table'] has no 'shape' entry"),
    (lambda doc: doc | {"kind": "foo", "config": {"dim": 50}}, "unknown checkpoint kind 'foo'"),
    (lambda doc: {k: v for k, v in doc.items() if k != "kind"}, "checkpoint has no 'kind' entry"),
    (lambda doc: doc | {"params": doc["params"] | {
        "ffn.out.b": doc["params"]["ffn.out.b"] | {"shape": [2, 2]}}},
     "ffn.out.b: cannot reshape array of size 2 into shape (2,2)"),
    (lambda doc: doc | {"embeddings": doc["embeddings"] | {"oov_policy": "bogus"}},
     "oov_policy must be one of ('random-fixed', 'zero'), got 'bogus'"),
    (lambda doc: doc | {"embeddings": doc["embeddings"] | {"path": None}},
     "checkpoint stores no embedding path; pass the embedding table"),
], ids=["list", "no-embeddings", "config-unknown-key", "windows-string", "filters-float",
       "embeddings-without-dim", "dim-string", "param-without-shape", "unknown-kind", "no-kind",
       "data-not-fitting-shape", "unknown-oov-policy", "no-embedding-path"])
def test_eval_rejects_a_checkpoint_of_the_wrong_shape(
        data_dir, run_dir, tmp_path, capsys, edit, message):
    bad = tmp_path / "bad.ckpt"
    bad.write_text(json.dumps(edit(json.loads((run_dir / "model.ckpt").read_text()))))
    rc = run_cli("eval", "--checkpoint", bad, "--data", data_dir / "test.jsonl")
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_eval_missing_checkpoint(data_dir, tmp_path):
    rc = run_cli("eval", "--checkpoint", tmp_path / "none.ckpt",
                 "--data", data_dir / "test.jsonl")
    assert rc == 2


def test_eval_rejects_non_checkpoint(data_dir, tmp_path):
    junk = tmp_path / "junk.ckpt"
    junk.write_text(json.dumps({"hello": 1}))
    rc = run_cli("eval", "--checkpoint", junk, "--data", data_dir / "test.jsonl")
    assert rc == 2


# -- gradcheck ----------------------------------------------------------

def test_gradcheck_passes(capsys):
    rc = run_cli("gradcheck", "--seed", 11)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_gradcheck_fail_exit_code(capsys):
    rc = run_cli("gradcheck", "--seed", 11, "--tol", 1e-12)
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# -- parser-level behavior ----------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_help_is_unchanged(monkeypatch, capsys):
    # Recorded before the settings' defaults moved into the flags; argparse
    # wraps help text to COLUMNS.
    golden = json.loads((Path(__file__).parent / "cli_help.json").read_text())
    monkeypatch.setenv("COLUMNS", "80")
    for command, text in golden.items():
        with pytest.raises(SystemExit) as exc:
            run_cli(*([command] if command else []), "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out == text


def test_invalid_model_choice_is_usage_error(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--model", "transformer", "--data-dir", data_dir,
                "--out", tmp_path / "x")
    assert exc.value.code == 2


def test_freed_arrays_keep_their_pages():
    # glibc only: a freed 8 MB array's memory serves the next one without
    # fresh page faults (it was unmapped or trimmed before keep_freed_memory)
    resource = pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("C library has no mallopt")
    keep_freed_memory()
    a = np.ones(1 << 20)
    del a
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    b = np.ones(1 << 20)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults < 64
    assert b.sum() == 1 << 20
