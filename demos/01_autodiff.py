"""A walk through the gradient tape.

The training stack in this package runs on a small reverse-mode autodiff
engine: every op records a closure on a tape while a Tape() context is
active, and tape.backward(loss) replays those closures in reverse to fill
tensor.grad buffers. This script builds a few graphs by hand and checks one
of them against finite differences.

Run:  python3 demos/01_autodiff.py
"""

import numpy as np

from lfked import autodiff as ad
from lfked.autodiff import Tape, Tensor


def main():
    print("1. a scalar chain, gradient by hand vs by tape")
    x = Tensor(np.array(0.7), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(ad.tanh(x), ad.tanh(x))  # y = tanh(x)^2
    tape.backward(y)
    t = np.tanh(0.7)
    print(f"   y = tanh(x)^2 at x=0.7        -> {y.data:.6f}")
    print(f"   dy/dx by tape                 -> {x.grad:.6f}")
    print(f"   2*tanh(x)*(1-tanh(x)^2)       -> {2 * t * (1 - t * t):.6f}")

    print("\n2. the same tensors, a second pass: grads accumulate unless cleared")
    ad.zero_grads([x])
    with Tape() as tape:
        y = ad.mul(ad.tanh(x), ad.tanh(x))
    tape.backward(y)
    print(f"   after zero_grads + backward   -> {x.grad:.6f} (same as before)")

    print("\n3. a conv over two packed 'sentences' of 4 and 2 tokens, "
          "finite-difference checked")
    rng = np.random.default_rng(0)
    lengths = [4, 2]                             # rows of each sentence, in order
    seq = rng.uniform(-1, 1, (6, 5))
    filters = rng.uniform(-0.5, 0.5, (3, 5, 4))  # window 3, 5-dim in, 4 filters
    bias = rng.uniform(-0.1, 0.1, 4)
    tseq = Tensor(seq, requires_grad=True)
    tfil = Tensor(filters, requires_grad=True)
    tbias = Tensor(bias, requires_grad=True)

    def forward():
        # each sentence is padded on its own; maxpool gives one row per sentence
        h = ad.tanh(ad.conv1d_same(tseq, [(tfil, tbias)], lengths))
        return ad.mean(ad.maxpool_time(h, lengths))

    with Tape() as tape:
        loss = forward()
    tape.backward(loss)

    h = 1e-5
    flat = tfil.data.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = forward().item()
        flat[i] = keep - h
        down = forward().item()
        flat[i] = keep
        numeric[i] = (up - down) / (2 * h)
    worst = np.max(np.abs(numeric - tfil.grad.ravel()))
    print(f"   loss = mean(maxpool(tanh(conv(seq))))  -> {loss.item():.6f}")
    print(f"   max |analytic - numeric| over {flat.size} filter weights: {worst:.2e}")

    print("\n4. no tape, no recording: ops outside a Tape() are plain math")
    out = ad.tanh(Tensor(np.array(0.3), requires_grad=True))
    print(f"   tanh(0.3) = {out.data:.6f}; out came from no graph, "
          "so there is nothing to backward through")

    print("\nEvery layer in lfked.models is built from exactly these pieces.")


if __name__ == "__main__":
    main()
