"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Small by design: exactly the operations the classifiers need, each with a
hand-written backward rule. Recording is explicit: ops append their backward
rule to the active `Tape`; without an active tape, ops are plain numpy
evaluations and produce constants.

Sequence ops work on a packed batch: the rows of several sentences stacked
one after another, with `lengths` giving each sentence's row count (None: the
whole input is one sentence). Per-sentence values, such as a CFA scale or an
attention query, are (B, .) rows, one per sentence. The segment ops that
read them take one product or broadcast per sentence, never a copy of its row
per token, so a packed output is bitwise each sentence alone. `conv1d_same`
takes the list of (filters, bias) pairs of one or several window sizes and
runs them from one padded copy and one im2col matrix at the widest window.
`conv1d_tables` runs the same convolution over rows made of table lookups:
it writes the rows into `conv1d_same`'s padded layout and shares its
forward and backward, back-propagating into trainable tables only.

During the reverse replay the rules of `affine` and the im2col convolutions
queue the factors of their weight's gradient on the weight instead of adding
a full-size product per call. Reading a tensor's `.grad` first sums its queue,
each weight with one matrix product, so `.grad` is complete whenever it is
read: by the rule of the op that made a weight, by an optimizer or by a test.
A training step can thus record and replay one example per tape, freeing
each example's activations before the next runs, and still sum each weight
once, when the optimizer reads its gradient.
"""

from __future__ import annotations

import threading

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class Tensor:
    """Dense float64 array, optionally participating in gradient recording.

    `grad` is a same-shape buffer present iff `requires_grad`; backward rules
    add into it or queue factors of it, and reading `grad` sums the queue.
    Assigning `grad` replaces the gradient, queue included; `zero_grad`
    drops the queue. Tensors built outside an active tape (or from inputs
    with `requires_grad=False`) are constants.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_queue")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._grad = np.zeros(self.data.shape) if self.requires_grad else None
        self._queue = None  # {sum_into: [factors, ...]}, filled by _defer

    @property
    def grad(self):
        if self._queue:
            queue, self._queue = self._queue, None
            for sum_into, factors in queue.items():
                sum_into(self._grad, factors)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value
        self._queue = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self._queue = None
        if self._grad is not None:
            self._grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_ACTIVE = threading.local()


def _active_tape():
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Ordered record of operations; replaying the rules in reverse applies
    the chain rule. Single-threaded; call `backward` at most once per
    recording. Each backward adds into the gradients of the tensors it
    reaches, until `zero_grads`; a weight's factors stay queued until its
    `.grad` is read.

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
        for rule in reversed(self._rules):
            rule()


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


def _out(data, *inputs) -> tuple[Tensor, Tape | None]:
    """Output tensor for an op; requires grad iff recording and any input does."""
    tape = _active_tape()
    # a list, not a generator: this runs once per op, ~2% of a training step
    track = tape is not None and any([t.requires_grad for t in inputs])
    return Tensor(data, requires_grad=track), (tape if track else None)


def _defer(sum_into, weight: Tensor, factors):
    """From a rule: queue `factors` of weight's gradient on the weight, to be
    added by `sum_into(grad, [factors, ...])` when `weight.grad` is read."""
    if weight._queue is None:
        weight._queue = {}
    weight._queue.setdefault(sum_into, []).append(factors)


def _affine_weight_grad(grad, factors):
    """grad += sum of g.T @ x over (g, x) row blocks, as one (m,B)@(B,k) product."""
    gs, xs = zip(*factors)
    grad += np.concatenate(gs).T @ np.concatenate(xs)


def _conv_filters_grad(grad, factors):
    """grad[j] += sum over (padded, g) pairs and rows t of
    outer(padded[t + j], g[t]), where g[t] is the output gradient of the
    window starting at padded row t.

    P stacks the padded inputs; Gz stacks the g's (w - 1 rows fewer than their
    input each), each followed by w - 1 zero rows, so both share row offsets
    and tap j is the single product P[j:j+R].T @ Gz[:R]. The zero rows keep
    one input's gradient off the next input.
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


def _segments(lengths, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, starts) of the sentences packed in n rows, as int arrays;
    None is one sentence."""
    lengths = np.array([n] if lengths is None else lengths, dtype=np.intp)
    # one sentence of all n rows is valid; the check below cost ~3% of a training step
    if lengths.shape == (1,) and lengths[0] == n:
        return lengths, np.zeros(1, dtype=np.intp)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1 or lengths.sum() != n:
        raise ShapeError(f"lengths {lengths.tolist()} do not split {n} rows into sentences")
    return lengths, np.cumsum(lengths) - lengths


def _sentence_rows(lengths: np.ndarray, starts: np.ndarray) -> list[slice]:
    """Each sentence's rows, as a slice, from the arrays of _segments."""
    return [slice(s, s + k) for s, k in zip(starts.tolist(), lengths.tolist())]


def _spread(per_sentence: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row i of a per-sentence array once per row of sentence i; a single
    sentence's (1, ...) array is returned as is, since it broadcasts."""
    if len(lengths) == 1:
        return per_sentence
    return np.repeat(per_sentence, lengths, axis=0)


def _reduce(ufunc, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """ufunc reduced over each sentence's rows: one row per sentence. One
    sentence takes a plain reduce, which made concat training steps about
    2.5% faster than reduceat."""
    if len(starts) == 1:
        return ufunc.reduce(x, axis=0, keepdims=True)
    return ufunc.reduceat(x, starts, axis=0)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m,k)@(k,n) -> (m,n)."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul supports 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out, tape = _out(a.data @ b.data, a, b)
    if tape is not None:
        def rule(out=out, a=a, b=b):
            if a.requires_grad:
                a.grad += out.grad @ b.data.T
            if b.requires_grad:
                b.grad += a.data.T @ out.grad
        tape._record(rule)
    return out


def affine(weight: Tensor, x: Tensor, bias: Tensor) -> Tensor:
    """weight applied to each row of x, plus bias: (m,k), (B,k), (m,) -> (B,m)."""
    if weight.data.ndim != 2 or x.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"affine expects (m,k), (B,k), (m,), got {weight.shape}, {x.shape}, {bias.shape}"
        )
    if weight.data.shape[1] != x.data.shape[1] or weight.data.shape[0] != bias.data.shape[0]:
        raise ShapeError(
            f"affine shapes disagree: {weight.shape} @ {x.shape} + {bias.shape}"
        )
    out, tape = _out(x.data @ weight.data.T + bias.data, weight, x, bias)
    if tape is not None:
        def rule(out=out, weight=weight, x=x, bias=bias):
            g = out.grad
            if weight.requires_grad:
                _defer(_affine_weight_grad, weight, (g, x.data))
            if x.requires_grad:
                x.grad += g @ weight.data
            if bias.requires_grad:
                bias.grad += g.sum(axis=0)
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
    data = x.data @ weight.data
    data += bias.data
    out, tape = _out(data, x, weight, bias)
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


def _layout(pairs, lengths, n: int):
    """The zero-padded layout of n packed rows shared by every window of a
    conv: (W, left, start, gapped, n_pad).

    At the widest window W, `left` zero rows come first, then each sentence
    followed by `right` zero rows, so a window reads its own sentence's rows
    and zeros only. The W-wide window of row r starts at padded row start[r],
    and row r sits `left` rows further down. Without gaps (one sentence) start
    is a slice, which makes training steps about 2% faster than the index
    array.
    """
    W = max(filt.data.shape[0] for filt, _ in pairs)
    if n < 1 or min(filt.data.shape[0] for filt, _ in pairs) < 1:
        raise ValueError("a convolution needs n >= 1 and window >= 1")
    lengths, _ = _segments(lengths, n)
    left, right = (W - 1) // 2, W // 2
    gapped = len(lengths) > 1
    if gapped:
        start = np.arange(n) + right * np.repeat(np.arange(len(lengths)), lengths)
    else:
        start = slice(0, n)
    return W, left, start, gapped, n + W - 1 + right * (len(lengths) - 1)


def _taps(pairs, left: int):
    """Per window: its width w, the tap of the W-wide window where it starts,
    (W-1)//2 - (w-1)//2, and its block of output columns."""
    out, stop = [], 0
    for filt, _ in pairs:
        w, _, f = filt.data.shape
        out.append((w, left - (w - 1) // 2, slice(stop, stop + f)))
        stop += f
    return out


def _conv_pairs(name, pairs, d_in: int):
    """A conv op's list of (filters, bias) pairs, shape-checked."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError(f"{name} takes a list of (filters, bias) pairs")
    for filt, b in pairs:
        if filt.data.ndim != 3 or b.data.ndim != 1:
            raise ShapeError(f"{name} expects (w,d,f) filters and (f,) bias, "
                             f"got {filt.shape}, {b.shape}")
        if filt.data.shape[1] != d_in or b.data.shape[0] != filt.data.shape[2]:
            raise ShapeError(
                f"{name} shapes disagree: input width {d_in}, filters {filt.shape}, bias {b.shape}"
            )
    return pairs


def _conv_rows(pairs, lengths, n: int, inputs):
    """conv1d_same of n rows that `inputs` put together: per (tensor, columns,
    index), the tensor's rows (index None) or the rows index reads. Returns
    the output, the tape if recording, and the op's backward given the output
    gradient, which computes the input gradient only of the tensors that
    require grad and adds it into each: as is, or with one np.add.at."""
    W, left, start, gapped, n_pad = _layout(pairs, lengths, n)
    padded = np.zeros((n_pad, sum(cols.stop - cols.start for _, cols, _ in inputs)))
    for t, cols, index in inputs:
        padded[left:][start, cols] = t.data if index is None else t.data.take(index, axis=0)
    d_in = padded.shape[1]
    windows = np.arange(n_pad - (W - 1))[start]
    col = padded[windows[:, None] + np.arange(W)].reshape(n, W * d_in)
    taps = _taps(pairs, left)
    data = np.empty((n, sum(b.data.shape[0] for _, b in pairs)))
    for (filt, b), (w, off, cols) in zip(pairs, taps):
        data[:, cols] = col[:, off * d_in:(off + w) * d_in] @ filt.data.reshape(w * d_in, -1) + b.data
    out, tape = _out(data, *(t for t, _, _ in inputs), *(t for pair in pairs for t in pair))

    def backward(g):
        # output gradients by window start row; zero where no window starts
        g_at = g
        if gapped:
            g_at = np.zeros((n_pad - (W - 1), g.shape[1]))
            g_at[start] = g
        trained = [(t, cols, index, np.zeros((len(g_at), W, cols.stop - cols.start)))
                   for t, cols, index in inputs if t.requires_grad]
        for (filt, b), (w, off, cols) in zip(pairs, taps):
            if b.requires_grad:
                b.grad += g[:, cols].sum(axis=0)
            if filt.requires_grad:
                _defer(_conv_filters_grad, filt, (padded[off:off + n_pad - (W - w)], g_at[:, cols]))
            for _, in_cols, _, dcol in trained:   # one product per tap
                f_in = filt.data[:, in_cols].transpose(0, 2, 1)
                dcol[:, off:off + w] += (g_at[:, cols] @ f_in).swapaxes(0, 1)
        for t, _, index, dcol in trained:
            dpad = np.zeros((n_pad, dcol.shape[2]))
            # Descending taps add to each row in np.add.at's order, so the
            # sum is bitwise the same.
            for j in range(W - 1, -1, -1):
                dpad[j:j + len(g_at)] += dcol[:, j]
            if index is None:
                t.grad += dpad[left:][start]
            else:
                np.add.at(t.grad, index, dpad[left:][start])
    return out, tape, backward


def conv1d_same(seq: Tensor, pairs, lengths=None) -> Tensor:
    """1-D convolution over the sequence axis with zero padding, length-preserving,
    of every sentence packed in seq, for one or several window sizes.

    seq (n, d_in) and a list of (filters (w, d_in, f), bias (f,)) pairs ->
    (n, sum of f): window k's output is column block k, in the list's order.
    Each sentence is padded on its own: w-1 zeros split as floor((w-1)/2) on
    the left and the remainder on the right, so even windows take the extra
    pad position on the right.
    """
    if seq.data.ndim != 2:
        raise ShapeError(f"conv1d_same expects an (n,d) sequence, got {seq.shape}")
    n, d_in = seq.data.shape
    pairs = _conv_pairs("conv1d_same", pairs, d_in)
    out, tape, backward = _conv_rows(pairs, lengths, n, [(seq, slice(0, d_in), None)])
    if tape is not None:
        tape._record(lambda: backward(out.grad))
    return out


def conv1d_tables(lookups, pairs, lengths=None) -> Tensor:
    """conv1d_same of rows made of table lookups.

    `lookups` is a list of K (table (U_k, d_k), index (n,) ints) pairs, and
    row r of the sequence is the rows it indexes, side by side: the result is
    conv1d_same(concat([take_rows(table, index), ...], axis=1), pairs,
    lengths=lengths), d_in being the sum of the d_k. The rows are written
    straight into conv1d_same's padded layout, and the backward adds the
    input gradient into the trainable tables only, into the rows read (see
    _conv_rows).
    """
    lookups = [(table, np.asarray(index, dtype=np.intp)) for table, index in lookups]
    n = len(lookups[0][1]) if lookups else 0
    for table, index in lookups:
        if table.data.ndim != 2 or index.shape != (n,):
            raise ShapeError(f"conv1d_tables expects (U,d) tables and {n} indices each, "
                             f"got {table.shape} and {index.shape}")
        if n and (index.min() < 0 or index.max() >= len(table.data)):
            raise ShapeError(f"conv1d_tables index outside the {len(table.data)} table rows")
    widths = np.cumsum([0] + [table.data.shape[1] for table, _ in lookups])
    pairs = _conv_pairs("conv1d_tables", pairs, int(widths[-1]))
    inputs = [(table, slice(a, b), index)
              for (table, index), a, b in zip(lookups, widths[:-1], widths[1:])]
    out, tape, backward = _conv_rows(pairs, lengths, n, inputs)
    if tape is not None:
        tape._record(lambda: backward(out.grad))
    return out


def maxpool_time(seq: Tensor, lengths=None) -> Tensor:
    """Per-feature max over each sentence's rows: (n, f) -> (B, f).

    Gradient routes to the first maximal row of the sentence in each column.
    """
    if seq.data.ndim != 2:
        raise ShapeError(f"maxpool_time expects (n,f), got {seq.shape}")
    n = seq.data.shape[0]
    if n < 1:
        raise ValueError("maxpool_time needs a non-empty sequence")
    lengths, starts = _segments(lengths, n)
    # one max per sentence: on 512-token chunks of 8-56 sentences, 400 wide,
    # np.maximum.reduceat over axis 0 took 3-4x as long as this loop
    pooled = np.stack([seq.data[rs].max(axis=0) for rs in _sentence_rows(lengths, starts)])
    out, tape = _out(pooled, seq)
    if tape is not None:
        def rule(out=out, seq=seq, lengths=lengths, starts=starts):
            # a row not below the max (NaN compares False) is a candidate
            hit = ~(seq.data < _spread(out.data, lengths))
            rows = np.where(hit, np.arange(seq.data.shape[0])[:, None], seq.data.shape[0])
            winners = _reduce(np.minimum, rows, starts)
            seq.grad[winners, np.arange(seq.data.shape[1])] += out.grad
        tape._record(rule)
    return out


def take_rows(x: Tensor, indices) -> Tensor:
    """Rows of a (n, d) tensor gathered by an int array, or one row as a (d,)
    vector for an int; repeats accumulate."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows expects (n,d), got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out, tape = _out(x.data.take(idx, axis=0), x)
    if tape is not None:
        def rule(out=out, x=x, idx=idx):
            np.add.at(x.grad, idx, out.grad)
        tape._record(rule)
    return out


def _row_dots(rows: np.ndarray, per_sentence: np.ndarray, sentences) -> np.ndarray:
    """Each row's dot product with its sentence's row of per_sentence, one
    matrix-vector product per sentence: (n,)."""
    out = np.empty(len(rows))
    for i, rs in enumerate(sentences):
        np.dot(rows[rs], per_sentence[i], out=out[rs])
    return out


def _weighted_sums(weights: np.ndarray, rows: np.ndarray, sentences) -> np.ndarray:
    """Per sentence, the weighted sum of its rows as one vector-matrix product: (B, f)."""
    out = np.empty((len(sentences), rows.shape[1]))
    for i, rs in enumerate(sentences):
        np.dot(weights[rs], rows[rs], out=out[i])
    return out


# The two segment ops below are each other's adjoint: the gradient of one is
# computed by the helper of the other.


def row_scores(keys: Tensor, queries: Tensor, lengths=None) -> Tensor:
    """Dot product of each row with its sentence's query: keys (n, a),
    queries (B, a) -> (n,), one matrix-vector product per sentence."""
    if keys.data.ndim != 2 or queries.data.ndim != 2 or keys.data.shape[1] != queries.data.shape[1]:
        raise ShapeError(f"row_scores expects (n,a), (B,a), got {keys.shape}, {queries.shape}")
    sentences = _sentence_rows(*_segments(lengths, keys.data.shape[0]))
    out, tape = _out(_row_dots(keys.data, queries.data, sentences), keys, queries)
    if tape is not None:
        def rule(out=out, keys=keys, queries=queries, sentences=sentences):
            g = out.grad
            if keys.requires_grad:
                for i, rs in enumerate(sentences):
                    keys.grad[rs] += g[rs, None] * queries.data[i]
            if queries.requires_grad:
                queries.grad += _weighted_sums(g, keys.data, sentences)
        tape._record(rule)
    return out


def weighted_row_sum(weights: Tensor, rows: Tensor, lengths=None) -> Tensor:
    """Per sentence, the sum of its rows scaled by their weights: weights (n,),
    rows (n, f) -> (B, f), one vector-matrix product per sentence."""
    if weights.data.ndim != 1 or rows.data.ndim != 2 or weights.data.shape[0] != rows.data.shape[0]:
        raise ShapeError(f"weighted_row_sum expects (n,), (n,f), got {weights.shape}, {rows.shape}")
    sentences = _sentence_rows(*_segments(lengths, rows.data.shape[0]))
    out, tape = _out(_weighted_sums(weights.data, rows.data, sentences), weights, rows)
    if tape is not None:
        def rule(out=out, weights=weights, rows=rows, sentences=sentences):
            g = out.grad
            if weights.requires_grad:
                weights.grad += _row_dots(rows.data, g, sentences)
            if rows.requires_grad:
                for i, rs in enumerate(sentences):
                    rows.grad[rs] += weights.data[rs, None] * g[i]
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


def scale_shift_rows(x: Tensor, scale: Tensor, shift: Tensor, lengths=None) -> Tensor:
    """Per-sentence affine modulation of rows: out[j] = scale[b] * x[j] + shift[b]
    for each row j of sentence b, as one broadcast of scale[b] and shift[b].

    x (n, f), scale (B, f), shift (B, f) -> (n, f).
    """
    if x.data.ndim != 2 or scale.data.ndim != 2 or shift.data.ndim != 2:
        raise ShapeError(
            f"scale_shift_rows expects (n,f), (B,f), (B,f), got {x.shape}, {scale.shape}, {shift.shape}"
        )
    if x.data.shape[1] != scale.data.shape[1] or scale.data.shape != shift.data.shape:
        raise ShapeError(
            f"scale_shift_rows widths disagree: {x.shape}, {scale.shape}, {shift.shape}"
        )
    sentences = _sentence_rows(*_segments(lengths, x.data.shape[0]))
    if scale.data.shape[0] != len(sentences):
        raise ShapeError(f"scale_shift_rows: {scale.shape[0]} scales for {len(sentences)} sentences")
    data = np.empty(x.data.shape)
    for i, rs in enumerate(sentences):
        np.multiply(x.data[rs], scale.data[i], out=data[rs])
        data[rs] += shift.data[i]
    out, tape = _out(data, x, scale, shift)
    if tape is not None:
        def rule(out=out, x=x, scale=scale, shift=shift, sentences=sentences):
            g = out.grad
            for i, rs in enumerate(sentences):
                if x.requires_grad:
                    x.grad[rs] += g[rs] * scale.data[i]
                if scale.requires_grad:
                    scale.grad[i] += (g[rs] * x.data[rs]).sum(axis=0)
                if shift.requires_grad:
                    shift.grad[i] += g[rs].sum(axis=0)
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
    e = np.exp(-np.abs(x.data))                  # at most 1: exp never overflows
    out, tape = _out(np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), x)
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
    """The linear sigma: returns x itself, so it records no rule."""
    return x


def softmax(v: Tensor, lengths=None) -> Tensor:
    """Stable softmax over each sentence's entries of a vector; each
    sentence's outputs are nonnegative and sum to 1."""
    if v.data.ndim != 1:
        raise ShapeError(f"softmax expects a vector, got {v.shape}")
    lengths, starts = _segments(lengths, v.data.shape[0])
    e = np.exp(v.data - _spread(_reduce(np.maximum, v.data, starts), lengths))
    s = e / _spread(_reduce(np.add, e, starts), lengths)
    out, tape = _out(s, v)
    if tape is not None:
        def rule(out=out, v=v, lengths=lengths, starts=starts):
            g = out.grad
            s = out.data
            v.grad += s * (g - _spread(_reduce(np.add, g * s, starts), lengths))
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
