"""Linear keyword-matching baseline over averaged embeddings.

Features are the mean embedding of a 5-token window centered on the anchor
(truncated at sentence boundaries) concatenated with the keyword average; a
linear two-logit classifier on top, trained with the shared loop. Weights
start at zero: the objective is convex, so no random init is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, cross_entropy
from .encoding import EmbeddingTable, keyword_repr
from .metrics import predicted_labels

CONTEXT_RADIUS = 2


@dataclass
class BaselineFeatures:
    context_avg: np.ndarray
    keyword_avg: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.context_avg, self.keyword_avg])


def featurize(example, emb: EmbeddingTable) -> BaselineFeatures:
    lo = max(0, example.anchor - CONTEXT_RADIUS)
    hi = min(len(example.tokens), example.anchor + CONTEXT_RADIUS + 1)
    window = example.tokens[lo:hi]
    return BaselineFeatures(
        context_avg=emb.rows(window).mean(axis=0),
        keyword_avg=keyword_repr(example.keywords, emb).data,
    )


class LinearBaseline:
    """Two-logit linear classifier on BaselineFeatures."""

    def __init__(self, emb: EmbeddingTable):
        self.emb = emb
        self.weights = Tensor(np.zeros((2, 2 * emb.dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(2), requires_grad=True)

    def named_params(self) -> dict[str, Tensor]:
        return {"linear.w": self.weights, "linear.b": self.bias}

    def forward(self, example) -> Tensor:
        feats = Tensor(featurize(example, self.emb).vector)
        return affine(self.weights, feats, self.bias)

    def loss(self, example, train: bool = False, rng=None) -> Tensor:
        return cross_entropy(self.forward(example), example.label)

    def predict(self, example) -> int:
        return int(self.predict_batch([example])[0])

    def predict_batch(self, examples) -> np.ndarray:
        """Predicted labels (0/1, in order): one product of the stacked
        feature vectors with the weights; an exact tie counts as negative."""
        feats = np.array([featurize(ex, self.emb).vector for ex in examples])
        feats = feats.reshape(len(examples), self.weights.data.shape[1])
        return predicted_labels(feats @ self.weights.data.T + self.bias.data)
