"""Precision/recall/F1 over the positive class, pooled across examples."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    predictions: list[int] | None = None


def report_from_counts(tp: int, fp: int, fn: int,
                       predictions: list[int] | None = None) -> EvalReport:
    """All the 0/0 corners collapse to 0 so degenerate predictors score 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(tp, fp, fn, precision, recall, f1, predictions)


def predicted_labels(logits: np.ndarray) -> np.ndarray:
    """0/1 label per row of (B, 2) logits; an exact tie counts as negative."""
    return (logits[:, 1] > logits[:, 0]).astype(np.int64)


def by_group(examples, predictions, key) -> dict:
    """Counts (tp, fp, fn) of 0/1 predictions already made, one per example
    in order, against the examples' labels, per group key(example); the
    groups in sorted order."""
    counts: dict = {}
    for pred, ex in zip(predictions, examples, strict=True):
        tp_fp_fn = counts.setdefault(key(ex), [0, 0, 0])
        if pred == 1 and ex.label == 1:
            tp_fp_fn[0] += 1
        elif pred == 1:
            tp_fp_fn[1] += 1
        elif ex.label == 1:
            tp_fp_fn[2] += 1
    return {group: tuple(c) for group, c in sorted(counts.items())}


def evaluate(model, examples, keep_predictions: bool = False) -> EvalReport:
    """Pooled counts of the dataset's labels against one call of
    model.predict_batch(examples), which returns a 0/1 prediction per example
    in order (eval mode, no dropout)."""
    if not examples:
        raise ValueError("evaluation dataset is empty")
    preds = np.asarray(model.predict_batch(examples)).tolist()
    (counts,) = by_group(examples, preds, lambda ex: None).values()
    return report_from_counts(*counts, preds if keep_predictions else None)


def report_json(report: EvalReport) -> str:
    payload = {
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
    }
    if report.predictions is not None:
        payload["predictions"] = report.predictions
    return json.dumps(payload, sort_keys=True)


def report_text(report: EvalReport) -> str:
    """Aligned table with percentages to one decimal."""
    rows = [
        ("P", 100.0 * report.precision),
        ("R", 100.0 * report.recall),
        ("F1", 100.0 * report.f1),
    ]
    lines = [f"{name:<3} {value:5.1f}" for name, value in rows]
    counts = f"tp={report.tp} fp={report.fp} fn={report.fn}"
    return "\n".join(lines + [counts])
