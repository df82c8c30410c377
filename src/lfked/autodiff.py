"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Small by design: exactly the operations the classifiers need, each with a
hand-written backward rule. Recording is explicit: ops append their backward
rule to the active `Tape`; without an active tape, ops are plain numpy
evaluations and produce constants.

Gradients of leaf tensors (those not made by an op, such as parameters) are
complete only when `Tape.backward` returns. During the reverse replay the
rules of `affine` and `conv1d_same` queue the factors of their leaf weight's
gradient instead of adding a full-size product per call; once the replay
ends, `backward` sums each weight's queue with one matrix product. Op outputs
and non-leaf weights are updated immediately, so every rule still reads a
complete gradient for its own output.
"""

from __future__ import annotations

import threading

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class Tensor:
    """Dense float64 array, optionally participating in gradient recording.

    `grad` is a same-shape buffer present iff `requires_grad`; backward rules
    accumulate into it. Tensors built outside an active tape (or from inputs
    with `requires_grad=False`) are constants. `is_leaf` is False exactly for
    op outputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros(self.data.shape) if self.requires_grad else None
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_ACTIVE = threading.local()


def _active_tape():
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Ordered record of operations; replaying the rules in reverse applies
    the chain rule. One tape per training step, single-threaded; call
    `backward` at most once per recording. A leaf's `.grad` is complete only
    when `backward` returns: queued weight gradients are summed after the
    replay.

        with Tape() as tape:
            loss = ...
        tape.backward(loss)
    """

    def __init__(self):
        self._rules = []

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.tape = None
        return False

    def _record(self, rule):
        self._rules.append(rule)

    def __len__(self):
        return len(self._rules)

    def backward(self, loss: Tensor):
        if not loss.requires_grad:
            raise ValueError("loss does not require grad; nothing was recorded for it")
        if loss.data.shape != ():
            raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        loss.grad.fill(1.0)
        # The queue lives on the thread, not the tape: a rule that reached its
        # tape would make a tape <-> rules cycle only the cyclic GC frees.
        _ACTIVE.pending = pending = {}
        try:
            for rule in reversed(self._rules):
                rule()
            for (sum_into, weight), factors in pending.items():
                sum_into(weight.grad, factors)
        finally:
            _ACTIVE.pending = None


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


def _out(data, *inputs) -> tuple[Tensor, Tape | None]:
    """Output tensor for an op; requires grad iff recording and any input does."""
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    out.is_leaf = False
    return out, (tape if track else None)


def _defer(sum_into, weight: Tensor, factors):
    """From a rule: queue `factors` of a leaf weight's gradient for `backward`
    to sum once the replay ends; a non-leaf weight is updated now, since its
    own rule will read its gradient. `sum_into(grad, [factors, ...])` adds it."""
    if weight.is_leaf:
        _ACTIVE.pending.setdefault((sum_into, weight), []).append(factors)
    else:
        sum_into(weight.grad, [factors])


def _affine_weight_grad(grad, factors):
    """grad += sum of outer(g, x) over (g, x) pairs, as one (m,B)@(B,k) product."""
    gs, xs = zip(*factors)
    grad += np.stack(gs).T @ np.stack(xs)


def _conv_filters_grad(grad, factors):
    """grad[j] += sum over (padded, g) pairs and positions t of
    outer(padded[t + j], g[t]).

    P stacks the zero-padded inputs (n + w - 1 rows each); Gz stacks the
    output gradients (n rows each), each followed by w - 1 zero rows, so both
    share row offsets and tap j is the single product P[j:j+R].T @ Gz[:R]. The
    zero rows keep one example's gradient off the next example's input.
    """
    w = grad.shape[0]
    P = np.concatenate([padded for padded, _ in factors])
    Gz = np.zeros((P.shape[0], grad.shape[2]))
    start = 0
    for padded, g in factors:
        Gz[start:start + g.shape[0]] = g
        start += padded.shape[0]
    R = P.shape[0] - (w - 1)
    for j in range(w):
        grad[j] += P[j:j + R].T @ Gz[:R]


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product: (m,k)@(k,n), (m,k)@(k,), (k,)@(k,n) or (k,)@(k,)."""
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out, tape = _out(a.data @ b.data, a, b)
    if tape is not None:
        def rule(out=out, a=a, b=b):
            g = out.grad
            if a.requires_grad:
                if a.data.ndim == 2 and b.data.ndim == 2:
                    a.grad += g @ b.data.T
                elif a.data.ndim == 2:          # (m,k)@(k,) -> g is (m,)
                    a.grad += np.outer(g, b.data)
                elif b.data.ndim == 2:          # (k,)@(k,n) -> g is (n,)
                    a.grad += b.data @ g
                else:                            # dot product -> g scalar
                    a.grad += g * b.data
            if b.requires_grad:
                if a.data.ndim == 2 and b.data.ndim == 2:
                    b.grad += a.data.T @ g
                elif a.data.ndim == 2:
                    b.grad += a.data.T @ g
                elif b.data.ndim == 2:
                    b.grad += np.outer(a.data, g)
                else:
                    b.grad += g * a.data
        tape._record(rule)
    return out


def affine(weight: Tensor, x: Tensor, bias: Tensor) -> Tensor:
    """weight @ x + bias for a vector x: (m,k)@(k,) + (m,) -> (m,)."""
    if weight.data.ndim != 2 or x.data.ndim != 1 or bias.data.ndim != 1:
        raise ShapeError(
            f"affine expects (m,k), (k,), (m,), got {weight.shape}, {x.shape}, {bias.shape}"
        )
    if weight.data.shape[1] != x.data.shape[0] or weight.data.shape[0] != bias.data.shape[0]:
        raise ShapeError(
            f"affine shapes disagree: {weight.shape} @ {x.shape} + {bias.shape}"
        )
    out, tape = _out(weight.data @ x.data + bias.data, weight, x, bias)
    if tape is not None:
        def rule(out=out, weight=weight, x=x, bias=bias):
            g = out.grad
            if weight.requires_grad:
                _defer(_affine_weight_grad, weight, (g, x.data))
            if x.requires_grad:
                x.grad += weight.data.T @ g
            if bias.requires_grad:
                bias.grad += g
        tape._record(rule)
    return out


def linear_rows(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Row-wise dense layer: (n,k)@(k,m) + (m,) -> (n,m)."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"linear_rows expects (n,k), (k,m), (m,), got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if x.data.shape[1] != weight.data.shape[0] or weight.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"linear_rows shapes disagree: {x.shape} @ {weight.shape} + {bias.shape}"
        )
    out, tape = _out(x.data @ weight.data + bias.data, x, weight, bias)
    if tape is not None:
        def rule(out=out, x=x, weight=weight, bias=bias):
            g = out.grad
            if x.requires_grad:
                x.grad += g @ weight.data.T
            if weight.requires_grad:
                weight.grad += x.data.T @ g
            if bias.requires_grad:
                bias.grad += g.sum(axis=0)
        tape._record(rule)
    return out


# ---------------------------------------------------------------------------
# sequence ops


def conv1d_same(seq: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """1-D convolution over the sequence axis with zero padding, length-preserving.

    seq (n, d_in), filters (w, d_in, f), bias (f,) -> (n, f). Padding splits
    w-1 zeros as floor((w-1)/2) on the left and the remainder on the right, so
    even windows take the extra pad position on the right.
    """
    if seq.data.ndim != 2 or filters.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv1d_same expects (n,d), (w,d,f), (f,), got {seq.shape}, {filters.shape}, {bias.shape}"
        )
    n, d_in = seq.data.shape
    w, d_f, f = filters.data.shape
    if d_f != d_in or bias.data.shape[0] != f:
        raise ShapeError(
            f"conv1d_same shapes disagree: seq {seq.shape}, filters {filters.shape}, bias {bias.shape}"
        )
    if n < 1 or w < 1:
        raise ValueError("conv1d_same needs n >= 1 and window >= 1")

    left = (w - 1) // 2
    padded = np.zeros((n + w - 1, d_in))
    padded[left:left + n] = seq.data
    idx = np.arange(n)[:, None] + np.arange(w)[None, :]     # (n, w) into padded
    col = padded[idx].reshape(n, w * d_in)
    w_mat = filters.data.reshape(w * d_in, f)
    out, tape = _out(col @ w_mat + bias.data, seq, filters, bias)
    if tape is not None:
        def rule(out=out, seq=seq, filters=filters, bias=bias,
                 padded=padded, w_mat=w_mat, left=left, n=n, w=w, d_in=d_in):
            g = out.grad
            if bias.requires_grad:
                bias.grad += g.sum(axis=0)
            if filters.requires_grad:
                _defer(_conv_filters_grad, filters, (padded, g))
            if seq.requires_grad:
                dcol = (g @ w_mat.T).reshape(n, w, d_in)
                dpad = np.zeros((n + w - 1, d_in))
                # Descending taps add to each row in np.add.at's order, so
                # the sum is bitwise the same.
                for j in range(w - 1, -1, -1):
                    dpad[j:j + n] += dcol[:, j]
                seq.grad += dpad[left:left + n]
        tape._record(rule)
    return out


def maxpool_time(seq: Tensor) -> Tensor:
    """Per-feature max over the sequence axis: (n, f) -> (f,).

    Gradient routes to the first maximal position in each column.
    """
    if seq.data.ndim != 2:
        raise ShapeError(f"maxpool_time expects (n,f), got {seq.shape}")
    if seq.data.shape[0] < 1:
        raise ValueError("maxpool_time needs a non-empty sequence")
    winners = np.argmax(seq.data, axis=0)        # argmax takes the first max
    cols = np.arange(seq.data.shape[1])
    out, tape = _out(seq.data[winners, cols], seq)
    if tape is not None:
        def rule(out=out, seq=seq, winners=winners, cols=cols):
            seq.grad[winners, cols] += out.grad
        tape._record(rule)
    return out


def take_row(x: Tensor, index: int) -> Tensor:
    """Row `index` of a (n, d) tensor as a (d,) tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_row expects (n,d), got {x.shape}")
    if not 0 <= index < x.data.shape[0]:
        raise ValueError(f"row index {index} out of range for {x.shape}")
    out, tape = _out(x.data[index].copy(), x)
    if tape is not None:
        def rule(out=out, x=x, index=index):
            x.grad[index] += out.grad
        tape._record(rule)
    return out


def take_rows(x: Tensor, indices) -> Tensor:
    """Rows of a (n, d) tensor gathered by an int array; repeats accumulate."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows expects (n,d), got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out, tape = _out(x.data[idx], x)
    if tape is not None:
        def rule(out=out, x=x, idx=idx):
            np.add.at(x.grad, idx, out.grad)
        tape._record(rule)
    return out


# ---------------------------------------------------------------------------
# elementwise and reductions


def _binary_check(name, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name} shapes disagree: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_check("add", a, b)
    out, tape = _out(a.data + b.data, a, b)
    if tape is not None:
        def rule(out=out, a=a, b=b):
            if a.requires_grad:
                a.grad += out.grad
            if b.requires_grad:
                b.grad += out.grad
        tape._record(rule)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_check("mul", a, b)
    out, tape = _out(a.data * b.data, a, b)
    if tape is not None:
        def rule(out=out, a=a, b=b):
            if a.requires_grad:
                a.grad += out.grad * b.data
            if b.requires_grad:
                b.grad += out.grad * a.data
        tape._record(rule)
    return out


def scale_shift_rows(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Per-row affine modulation: out[j] = scale * x[j] + shift.

    x (n, f), scale (f,), shift (f,) -> (n, f); the same (scale, shift) pair
    applies to every row.
    """
    if x.data.ndim != 2 or scale.data.ndim != 1 or shift.data.ndim != 1:
        raise ShapeError(
            f"scale_shift_rows expects (n,f), (f,), (f,), got {x.shape}, {scale.shape}, {shift.shape}"
        )
    if x.data.shape[1] != scale.data.shape[0] or scale.data.shape != shift.data.shape:
        raise ShapeError(
            f"scale_shift_rows widths disagree: {x.shape}, {scale.shape}, {shift.shape}"
        )
    out, tape = _out(x.data * scale.data + shift.data, x, scale, shift)
    if tape is not None:
        def rule(out=out, x=x, scale=scale, shift=shift):
            g = out.grad
            if x.requires_grad:
                x.grad += g * scale.data
            if scale.requires_grad:
                scale.grad += (g * x.data).sum(axis=0)
            if shift.requires_grad:
                shift.grad += g.sum(axis=0)
        tape._record(rule)
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along `axis` (0 for vectors, 1 for row-aligned matrices)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    out, tape = _out(np.concatenate([t.data for t in tensors], axis=axis), *tensors)
    if tape is not None:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def rule(out=out, tensors=tensors, offsets=offsets, axis=axis):
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    if axis == 0:
                        t.grad += out.grad[start:stop]
                    else:
                        t.grad += out.grad[:, start:stop]
        tape._record(rule)
    return out


def mean(x: Tensor) -> Tensor:
    """Mean over all elements -> scalar."""
    out, tape = _out(x.data.mean(), x)
    if tape is not None:
        def rule(out=out, x=x):
            x.grad += out.grad / x.data.size
        tape._record(rule)
    return out


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])                          # split avoids exp overflow
    s[~pos] = e / (1.0 + e)
    out, tape = _out(s, x)
    if tape is not None:
        def rule(out=out, x=x):
            x.grad += out.grad * out.data * (1.0 - out.data)
        tape._record(rule)
    return out


def tanh(x: Tensor) -> Tensor:
    out, tape = _out(np.tanh(x.data), x)
    if tape is not None:
        def rule(out=out, x=x):
            x.grad += out.grad * (1.0 - out.data * out.data)
        tape._record(rule)
    return out


def relu(x: Tensor) -> Tensor:
    out, tape = _out(np.maximum(x.data, 0.0), x)
    if tape is not None:
        def rule(out=out, x=x):
            x.grad += out.grad * (x.data > 0.0)
        tape._record(rule)
    return out


def identity(x: Tensor) -> Tensor:
    """Pass-through that still participates in the tape (for a linear sigma)."""
    out, tape = _out(x.data.copy(), x)
    if tape is not None:
        def rule(out=out, x=x):
            x.grad += out.grad
        tape._record(rule)
    return out


def softmax(v: Tensor) -> Tensor:
    """Stable softmax of a vector; outputs are nonnegative and sum to 1."""
    if v.data.ndim != 1:
        raise ShapeError(f"softmax expects a vector, got {v.shape}")
    shifted = v.data - v.data.max()
    e = np.exp(shifted)
    s = e / e.sum()
    out, tape = _out(s, v)
    if tape is not None:
        def rule(out=out, v=v):
            g = out.grad
            s = out.data
            v.grad += s * (g - (g * s).sum())
        tape._record(rule)
    return out


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log of softmax(logits)[label] for binary logits."""
    if logits.data.shape != (2,):
        raise ShapeError(f"cross_entropy expects 2 logits, got {logits.shape}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    m = logits.data.max()
    lse = m + np.log(np.exp(logits.data - m).sum())
    out, tape = _out(lse - logits.data[label], logits)
    if tape is not None:
        def rule(out=out, logits=logits, label=label, lse=lse):
            probs = np.exp(logits.data - lse)
            probs[label] -= 1.0
            logits.grad += out.grad * probs
        tape._record(rule)
    return out
