"""End-to-end finite-difference verification of model gradients.

Runs every model variant at a deliberately tiny configuration, compares tape
gradients for each parameter against central finite differences of the loss,
and reports the worst relative error. Used by the gradcheck CLI subcommand
and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .corpus import LFKExample
from .encoding import EmbeddingTable
from .models import VARIANTS, Model, ModelConfig
from .seeding import rng_for

# Comparison floor for whole-model checks. Central differences of an O(1)
# loss at h=1e-5 carry ~1e-11 roundoff, and near-init gradients of some
# parameters are legitimately below 1e-8, so the op-level floor of 1e-8 would
# measure noise; 1e-6 keeps the 1e-4 threshold far above the noise floor.
DEFAULT_H = 1e-5
DEFAULT_FLOOR = 1e-6
DEFAULT_TOL = 1e-4
DEFAULT_SEED = 11


def numeric_grad(f, arr: np.ndarray, h: float = DEFAULT_H) -> np.ndarray:
    """Central differences of scalar f() w.r.t. arr, perturbed in place."""
    flat = arr.ravel()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(arr.shape)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  floor: float = DEFAULT_FLOOR) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def tiny_check_config(variant: str, seed: int = DEFAULT_SEED) -> ModelConfig:
    """Small shapes: 8-dim words, 4-dim positions, 3 filters at windows 2 and
    3, two stacked layers, on a 5-token example."""
    return ModelConfig(
        layers=2,
        windows=(2, 3),
        filters=3,
        dropout=0.0,
        word_dim=8,
        pos_dim=4,
        max_offset=5,
        attn_hidden=6,
        ffn_hidden=8,
        seed=seed,
    ).with_variant(variant)


@dataclass
class CheckResult:
    variant: str
    max_rel_error: float
    worst_param: str
    passed: bool


def check_variant(variant: str, seed: int = DEFAULT_SEED,
                  tol: float = DEFAULT_TOL) -> CheckResult:
    config = tiny_check_config(variant, seed=seed)
    rng = rng_for(seed, "gradcheck", "emb")
    vocab = [f"w{i}" for i in range(8)] + [f"k{i}" for i in range(4)]
    emb = EmbeddingTable({t: rng.normal(size=config.word_dim) for t in vocab},
                         config.word_dim)
    model = Model(config, emb)
    example = LFKExample(
        tokens=["w0", "w1", "w2", "w3", "w4"],
        anchor=2,
        keywords=("k0", "k1", "k2", "k3"),
        label=1,
    )

    with Tape() as tape:
        tape.backward(model.loss(example))

    def loss_value():
        return float(model.loss(example).data)

    worst, worst_name = 0.0, ""
    for name, p in model.named_params().items():
        err = max_rel_error(p.grad, numeric_grad(loss_value, p.data))
        if err > worst:
            worst, worst_name = err, name
    return CheckResult(variant, worst, worst_name, worst < tol)


def check_all(seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    return [check_variant(v, seed=seed, tol=tol) for v in sorted(VARIANTS)]
