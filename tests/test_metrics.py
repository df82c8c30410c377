"""P/R/F1 counting rules and report formatting."""

import json

import pytest

from lfked.corpus import LFKExample
from lfked.metrics import by_group, evaluate, report_from_counts, report_json, report_text


class FixedPredictor:
    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.i = 0

    def predict(self, example):
        out = self.outputs[self.i]
        self.i += 1
        return out

    def predict_batch(self, examples):
        return [self.predict(ex) for ex in examples]


def examples(labels):
    return [LFKExample(["w"], 0, ("k",), y) for y in labels]


def test_all_correct():
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    rep = evaluate(FixedPredictor(labels), examples(labels))
    assert (rep.tp, rep.fp, rep.fn) == (4, 0, 0)
    assert rep.precision == rep.recall == rep.f1 == 1.0


def test_all_negative_predictor_scores_zero():
    labels = [1, 0, 1, 0]
    rep = evaluate(FixedPredictor([0, 0, 0, 0]), examples(labels))
    assert (rep.tp, rep.fp, rep.fn) == (0, 0, 2)
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0


def test_mixed_counts():
    labels = [1, 1, 1, 0, 0]
    preds = [1, 0, 1, 1, 0]
    rep = evaluate(FixedPredictor(preds), examples(labels))
    assert (rep.tp, rep.fp, rep.fn) == (2, 1, 1)
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    assert rep.f1 == pytest.approx(2 / 3)


def test_count_identities_and_permutation_invariance():
    from lfked.seeding import rng_for

    rng = rng_for(0, "metrics")
    labels = [int(rng.random() < 0.3) for _ in range(60)]
    preds = [int(rng.random() < 0.4) for _ in range(60)]
    rep = evaluate(FixedPredictor(preds), examples(labels))
    assert rep.tp + rep.fn == sum(labels)
    assert rep.tp + rep.fp == sum(preds)

    order = rng.permutation(60)
    rep2 = evaluate(
        FixedPredictor([preds[i] for i in order]),
        examples([labels[i] for i in order]),
    )
    assert (rep2.tp, rep2.fp, rep2.fn) == (rep.tp, rep.fp, rep.fn)
    assert rep2.f1 == rep.f1


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        evaluate(FixedPredictor([]), [])


def test_zero_over_zero_rules():
    assert report_from_counts(0, 0, 0).f1 == 0.0
    assert report_from_counts(0, 5, 0).precision == 0.0
    assert report_from_counts(0, 0, 5).recall == 0.0


def test_predictions_kept_on_request():
    labels = [1, 0]
    rep = evaluate(FixedPredictor([1, 1]), examples(labels), keep_predictions=True)
    assert rep.predictions == [1, 1]
    rep = evaluate(FixedPredictor([1, 1]), examples(labels))
    assert rep.predictions is None


def test_report_json_and_text():
    rep = report_from_counts(9, 31, 3)
    payload = json.loads(report_json(rep))
    assert payload["tp"] == 9
    assert payload["precision"] == pytest.approx(0.225)
    assert payload["f1"] == pytest.approx(2 * 0.225 * 0.75 / 0.975)

    text = report_text(rep)
    # percentages to one decimal, Table-style
    assert "P    22.5" in text
    assert "R    75.0" in text
    assert "tp=9 fp=31 fn=3" in text


def test_by_group_counts_each_group_on_a_hand_built_set():
    # (label, prediction, group): b has one of each outcome plus a true
    # negative, a only hits, c only a false negative
    rows = [(1, 1, "b"), (0, 1, "b"), (1, 0, "b"), (0, 0, "b"), (1, 1, "a"), (1, 1, "a"),
            (1, 0, "c"), (0, 0, "c")]
    exs = [LFKExample(["w"], 0, ("k",), y, source_subtype=g) for y, _, g in rows]
    preds = [p for _, p, _ in rows]
    counts = by_group(exs, preds, lambda ex: ex.source_subtype)
    assert counts == {"a": (2, 0, 0), "b": (1, 1, 1), "c": (0, 0, 1)}
    assert list(counts) == ["a", "b", "c"]
    pooled = evaluate(FixedPredictor(preds), exs)
    assert (pooled.tp, pooled.fp, pooled.fn) == tuple(map(sum, zip(*counts.values())))
    with pytest.raises(ValueError):
        by_group(exs, preds[:-1], lambda ex: ex.source_subtype)
