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
`conv1d_tables` is the first layer's convolution, over rows made of a
position and a word lookup: it reads `Taps`, the layer's weights applied
once to every position signature and word it can read, with gathers and
adds.

During the reverse replay the rules of `affine`, `conv1d_same` and
`conv1d_tables` queue their weights' gradient on the weights instead of
adding a full-size product per call: the factors of one matrix product, or
for `conv1d_tables` the output gradient and the sentences it came from.
Reading a tensor's `.grad` first sums its queue, each weight with one matrix
product and the first layer's weights and tables with one grouped sum, so
`.grad` is complete whenever it is read: by the rule of the op that made a
weight, by an optimizer or by a test. A training step can thus record and
replay one example per tape, freeing each example's activations before the
next runs, and still sum each weight once, when the optimizer reads its
gradient.
"""

from __future__ import annotations

import copy
import operator
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
    conv: (W, left, start, n_pad).

    At the widest window W, `left` zero rows come first, then each sentence
    followed by `right` zero rows, so a window reads its own sentence's rows
    and zeros only. The W-wide window of row r starts at padded row start[r],
    and row r sits `left` rows further down.
    """
    W = max(filt.data.shape[0] for filt, _ in pairs)
    if n < 1 or min(filt.data.shape[0] for filt, _ in pairs) < 1:
        raise ValueError("a convolution needs n >= 1 and window >= 1")
    lengths, _ = _segments(lengths, n)
    left, right = (W - 1) // 2, W // 2
    start = np.arange(n) + right * np.repeat(np.arange(len(lengths)), lengths)
    return W, left, start, n + W - 1 + right * (len(lengths) - 1)


def _placements(pairs, left: int):
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
    W, left, start, n_pad = _layout(pairs, lengths, n)
    padded = np.zeros((n_pad, d_in))
    padded[left:][start] = seq.data
    windows = np.arange(n_pad - (W - 1))[start]
    col = padded[windows[:, None] + np.arange(W)].reshape(n, W * d_in)
    placed = _placements(pairs, left)
    data = np.empty((n, sum(b.data.shape[0] for _, b in pairs)))
    for (filt, b), (w, off, cols) in zip(pairs, placed):
        data[:, cols] = col[:, off * d_in:(off + w) * d_in] @ filt.data.reshape(w * d_in, -1) + b.data
    out, tape = _out(data, seq, *(t for pair in pairs for t in pair))
    if tape is not None:
        def rule(out=out, seq=seq):
            g = out.grad
            # output gradients by window start row; zero where no window starts
            g_at = np.zeros((n_pad - (W - 1), g.shape[1]))
            g_at[start] = g
            dcol = np.zeros((len(g_at), W, d_in)) if seq.requires_grad else None
            for (filt, b), (w, off, cols) in zip(pairs, placed):
                if b.requires_grad:
                    b.grad += g[:, cols].sum(axis=0)
                if filt.requires_grad:
                    _defer(_conv_filters_grad, filt,
                           (padded[off:off + n_pad - (W - w)], g_at[:, cols]))
                if dcol is not None:    # one product per tap
                    f_in = filt.data.transpose(0, 2, 1)
                    dcol[:, off:off + w] += (g_at[:, cols] @ f_in).swapaxes(0, 1)
            if dcol is not None:
                dpad = np.zeros((n_pad, d_in))
                for j in range(W - 1, -1, -1):
                    dpad[j:j + len(g_at)] += dcol[:, j]
                seq.grad += dpad[left:][start]
        tape._record(rule)
    return out


def _group(keys: np.ndarray):
    """The rows of each distinct key, for _group_sum: (order, starts, keys),
    rows sorted stably by key, where each key's run starts, and its key."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return order, starts, ordered[starts]


def _group_sum(x: np.ndarray, group, size: int) -> np.ndarray:
    """(size, width): row k is the sum of the rows of x whose key is k, in
    row order, by one np.add.reduceat over the rows sorted by key."""
    order, starts, keys = group
    out = np.zeros((size, x.shape[1]))
    out[keys] = np.add.reduceat(x.take(order, axis=0), starts, axis=0)
    return out


class Taps:
    """Layer 1's (filters, bias) pairs applied once to every row layer 1 can
    read, for conv1d_tables: built from the current parameters once per
    training step, per forward without a step, or per scoring pass.

    Layer 1 reads row i of an L-token sentence as the position row of its
    offset from the anchor beside its word vector. The position table
    `positions`, (2M + 1, u), holds offset k - M in row k; an offset past M
    on either side reads the edge row. A window of width w reads lw = (w-1)//2
    rows to the left and rw = w//2 to the right, so what its position taps
    add to row i depends only on the row's signature: its offset clamped to
    [-M - rw, M + lw] (past these, every row the window reads clamps to the
    same position row), min(i, lw) and min(L-1-i, rw) (its neighbours inside
    the sentence). Per window, the signature table holds for each signature
    the bias plus the products of the position rows read with their taps,
    added in tap order, over the offsets lo..hi only. `with_words` adds the
    products of a set of word vectors with every word tap, plus a zero row
    for reads outside a sentence: 8 * f * w bytes per word and window. A row
    of layer 1 is its signature row plus, tap by tap, the word taps of the
    word it reads: the terms and order of conv1d_same's sum of products.

    The backward runs the other way. conv1d_tables queues each output
    gradient with its sentences on the taps' tensors, and the first `.grad`
    read of any of them sums every queued call at once (`_sum`): by
    signature row for the bias, the position taps and the position table,
    and by word read for the word taps and a trainable word table.
    """

    def __init__(self, pairs, positions: Tensor, lo: int, hi: int):
        self.pairs, self.positions, self.reach = list(pairs), positions, (lo, hi)
        self.tensors = [t for pair in self.pairs for t in pair] + [positions]
        # set by with_words; vocab maps each word to its row of vectors
        self.vectors = self.vocab = self.products = self.trained = None
        M, u = (positions.data.shape[0] - 1) // 2, positions.data.shape[1]
        self.tables = []
        for filt, b in self.pairs:
            w, _, f = filt.data.shape
            lw, rw = (w - 1) // 2, w // 2
            first, last = max(lo, -M - rw), min(hi, M + lw)
            count = max(last - first + 1, 0)
            # tap j of the row at offset o reads the position row of offset
            # o + j - lw, which is rows[o - first + j]
            rows = np.clip(np.arange(first - lw, first + count + rw), -M, M) + M
            products = np.matmul(positions.data[rows], filt.data[:, :u])
            table = np.empty((count, lw + 1, rw + 1, f))
            table[:] = b.data
            for j in range(w):
                # tap j reads a row of the sentence when the row has at least
                # lw - j neighbours on its left and j - lw on its right
                table[:, max(lw - j, 0):, max(j - lw, 0):] += products[j, j:j + count, None, None]
            self.tables.append((first, last, rows, table.reshape(-1, f)))

    def with_words(self, vectors: np.ndarray, vocab, trained=None) -> "Taps":
        """These taps plus the word taps of `vectors`, the (V, d) word rows
        conv1d_tables reads, with `vocab` mapping each word to its row, as
        encoding.encode returns them. `trained`, if given, is a (table, at,
        rows) triple: vectors[at] are the rows `rows` of the trainable table,
        which then gets their gradient; other word rows are constants."""
        u = self.positions.data.shape[1]
        _conv_pairs("conv1d_tables", self.pairs, u + vectors.shape[1])
        taps = copy.copy(self)
        taps.vectors, taps.vocab, taps.trained = vectors, vocab, trained
        if trained is not None:
            taps.tensors = self.tensors + [trained[0]]
        taps.products = []
        for filt, _ in self.pairs:
            w, _, f = filt.data.shape
            products = np.empty((w, len(vectors) + 1, f))
            np.matmul(vectors, filt.data[:, u:], out=products[:, :len(vectors)])
            products[:, len(vectors)] = 0.0
            taps.products.append(products)
        return taps

    def _rows(self, index, lengths, anchors):
        """Per row of sentences packed with these lengths and anchors, whose
        words are the rows index reads: its place in its sentence, the rows
        after it, its offset from the anchor, and per distance d from -lw to
        rw of the widest window, the word row d rows on (len(vectors), a zero
        products row, outside the sentence)."""
        n = len(index)
        lengths, starts = _segments(lengths, n)
        anchors = np.asarray(anchors, dtype=np.intp)
        if anchors.shape != lengths.shape:
            raise ShapeError(f"conv1d_tables: {anchors.size} anchors for {len(lengths)} sentences")
        if index.min() < 0 or index.max() >= len(self.vectors):
            raise ShapeError(f"conv1d_tables index outside the {len(self.vectors)} word rows")
        place = np.arange(n) - np.repeat(starts, lengths)
        rest = np.repeat(lengths - 1, lengths) - place
        offset = place - np.repeat(anchors, lengths)
        if not (self.reach[0] <= offset.min() and offset.max() <= self.reach[1]):
            raise ValueError(f"offsets {offset.min()}..{offset.max()} outside the "
                             f"{self.reach[0]}..{self.reach[1]} these taps were built for")
        W = max(filt.data.shape[0] for filt, _ in self.pairs)
        reads = {d: np.where(place >= -d if d < 0 else rest >= d,
                             index.take(np.arange(d, n + d), mode="clip"), len(self.vectors))
                 for d in range(-((W - 1) // 2), W // 2 + 1)}
        return place, rest, offset, reads

    def _windows(self, place, rest, offset):
        """Per window: (filters, bias), its signature table, the position
        rows it was built from, its word products, lw, each row's signature
        and the window's output columns."""
        stop = 0
        for (filt, b), (first, last, rows, table), products in zip(
                self.pairs, self.tables, self.products):
            w, _, f = filt.data.shape
            lw, rw = (w - 1) // 2, w // 2
            signature = (((np.minimum(np.maximum(offset, first), last) - first) * (lw + 1)
                          + np.minimum(place, lw)) * (rw + 1) + np.minimum(rest, rw))
            yield filt, b, table, rows, products, lw, signature, slice(stop, stop + f)
            stop += f

    def conv(self, index, lengths, anchors) -> np.ndarray:
        """Layer 1's (n, sum of f) rows, before the activation (see the
        class docstring and conv1d_tables)."""
        place, rest, offset, reads = self._rows(index, lengths, anchors)
        data = np.empty((len(index), sum(b.data.shape[0] for _, b in self.pairs)))
        for filt, _, table, _, products, lw, signature, cols in self._windows(place, rest, offset):
            acc = table.take(signature, axis=0)
            for j in range(filt.data.shape[0]):
                acc += products[j].take(reads[j - lw], axis=0)
            data[:, cols] = acc
        return data

    def _queue(self, call):
        """From conv1d_tables' rule: queue one call's (output gradient,
        index, lengths, anchors) on every tensor of these taps that trains."""
        for t in self.tensors:
            if t.requires_grad:
                _defer(self._sum, t, call)

    def _sum(self, grad, calls):
        """Add the gradient of the queued calls into every tensor of these
        taps that holds them queued, and into `grad`, whose tensor's queue
        the `.grad` read has just taken: the calls are packed into one batch
        and their output gradient summed by signature row and by word read
        (_group_sum), then multiplied out per window and tap."""
        place, rest, offset, reads = self._rows(*(np.concatenate([c[k] for c in calls])
                                                  for k in (1, 2, 3)))
        by_read = {d: _group(r) for d, r in reads.items()}
        u, V = self.positions.data.shape[1], len(self.vectors)
        d_pos = np.zeros(self.positions.data.shape)
        d_vectors = np.zeros(self.vectors.shape) if self.trained is not None else None
        adds = []
        for filt, b, table, rows, _, lw, signature, cols in self._windows(place, rest, offset):
            w, _, f = filt.data.shape
            # one window's columns at a time: a quarter of the output gradient
            g_w = np.concatenate([c[0][:, cols] for c in calls])
            count = len(rows) - (w - 1)
            d_table = _group_sum(g_w, _group(signature), len(table)).reshape(count, lw + 1, -1, f)
            d_filt = np.empty(filt.data.shape)
            d_rows = np.zeros((len(rows), u))
            pos_rows = self.positions.data[rows]
            for j in range(w):
                # the gradient of every signature row that tap j adds to
                g_j = d_table[:, max(lw - j, 0):, max(j - lw, 0):].sum(axis=(1, 2))
                d_filt[j, :u] = pos_rows[j:j + count].T @ g_j
                d_rows[j:j + count] += g_j @ filt.data[j, :u].T
                g_read = _group_sum(g_w, by_read[j - lw], V + 1)[:V]
                d_filt[j, u:] = self.vectors.T @ g_read
                if d_vectors is not None:
                    d_vectors += g_read @ filt.data[j, u:].T
            adds += [(filt, d_filt, None), (b, d_table.sum(axis=(0, 1, 2)), None)]
            # rows repeats only where the offsets clamp, next to each other
            first = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
            d_pos[rows[first]] += np.add.reduceat(d_rows, first, axis=0)
        adds.append((self.positions, d_pos, None))
        if d_vectors is not None:
            table, at, rows = self.trained
            adds.append((table, d_vectors[at], rows))
        for t, d, rows in adds:
            if t._grad is not grad:     # a tensor whose queue holds these calls
                queued = (t._queue or {}).get(self._sum, ())
                if len(queued) != len(calls) or not all(map(operator.is_, queued, calls)):
                    continue
                del t._queue[self._sum]
            if rows is None:
                t._grad += d
            else:
                t._grad[rows] += d


def conv1d_tables(taps: Taps, index, lengths, anchors) -> Tensor:
    """Layer 1 from `taps`: conv1d_same, with the taps' (filters, bias)
    pairs and lengths=lengths, of rows made of two table lookups side by
    side: the position row of each token's offset from its sentence's anchor,
    and the word vector `index` reads among the taps' words (see Taps).

    The sum per row takes the terms of conv1d_same's, in its order. The rule
    only queues the output gradient with the sentences on the taps' tensors
    that train; the first `.grad` read of any of them sums every call queued
    on them at once, so a training step's examples share one sum.
    """
    index = np.asarray(index, dtype=np.intp)
    if taps.vectors is None or index.ndim != 1 or not index.size:
        raise ShapeError("conv1d_tables needs taps with words and a non-empty index")
    lengths = np.asarray(lengths, dtype=np.intp)
    anchors = np.asarray(anchors, dtype=np.intp)
    out, tape = _out(taps.conv(index, lengths, anchors), *taps.tensors)
    if tape is not None:
        tape._record(lambda: taps._queue((out.grad, index, lengths, anchors)))
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
            # into the buffer, leaving x's queue for later: a word table's
            # holds a whole training step's layer-1 gradient (see Taps)
            np.add.at(x._grad, idx, out.grad)
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
