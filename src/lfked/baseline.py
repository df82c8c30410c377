"""Linear keyword-matching baseline over averaged embeddings.

Features are the mean embedding of a 5-token window centered on the anchor
(truncated at sentence boundaries) concatenated with the keyword average; a
linear two-logit classifier on top, trained with the shared loop. Weights
start at zero: the objective is convex, so no random init is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, cross_entropy, take_rows
from .encoding import EmbeddingTable, keyword_repr
from .metrics import predicted_labels

CONTEXT_RADIUS = 2


@dataclass
class BaselineFeatures:
    """One row per example."""
    context_avg: np.ndarray
    keyword_avg: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.context_avg, self.keyword_avg], axis=1)


def featurize(examples, emb: EmbeddingTable) -> BaselineFeatures:
    context = [emb.rows(ex.tokens[max(0, ex.anchor - CONTEXT_RADIUS):
                                  ex.anchor + CONTEXT_RADIUS + 1]).mean(axis=0)
               for ex in examples]
    return BaselineFeatures(
        context_avg=np.stack(context),
        keyword_avg=keyword_repr([ex.keywords for ex in examples], emb).data,
    )


class LinearBaseline:
    """Two-logit linear classifier on BaselineFeatures."""

    def __init__(self, emb: EmbeddingTable):
        self.emb = emb
        self.weights = Tensor(np.zeros((2, 2 * emb.dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(2), requires_grad=True)

    def named_params(self) -> dict[str, Tensor]:
        return {"linear.w": self.weights, "linear.b": self.bias}

    def forward_batch(self, examples) -> Tensor:
        """(len(examples), 2) logits: one product of the stacked feature
        vectors with the weights."""
        return affine(self.weights, Tensor(featurize(examples, self.emb).vector), self.bias)

    def forward(self, example) -> Tensor:
        return take_rows(self.forward_batch([example]), 0)

    def step_taps(self, examples) -> None:
        """Nothing is shared by the examples of a training step."""
        return None

    def loss(self, example, train: bool = False, rng=None, taps=None) -> Tensor:
        return cross_entropy(self.forward(example), example.label)

    def predict(self, example) -> int:
        return int(self.predict_batch([example])[0])

    def predict_batch(self, examples) -> np.ndarray:
        """Predicted labels (0/1, in order); an exact tie counts as negative."""
        return predicted_labels(self.forward_batch(examples).data)
