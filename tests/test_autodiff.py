import math

import numpy as np
import pytest

from lfked import autodiff as ad
from lfked.autodiff import Tape, Tensor
from lfked.encoding import EmbeddingTable, PositionTable, WordTable, encode

from fd import central_diff, max_rel_error
from lookups import gathered


def scalar_loss(op, *tensors):
    """mean() of op(*tensors) so every op check reduces to a scalar."""
    return ad.mean(op(*tensors))


def check_grads(op, *arrays, h=1e-5, tol=1e-4):
    """Analytic grads of mean(op(...)) vs central differences, for each input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = scalar_loss(op, *tensors)
    tape.backward(loss)
    for t, a in zip(tensors, arrays):
        def f(a=a, arrays=arrays):
            consts = [Tensor(x) for x in arrays]
            return scalar_loss(op, *consts).item()
        numeric = central_diff(f, a, h=h)
        assert max_rel_error(t.grad, numeric) < tol


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_product():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, (3, 3))
    b = rng.uniform(-2, 2, (3, 3))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.matmul(ta, tb))
    tape.backward(loss)
    numeric = central_diff(lambda: ad.mean(ad.matmul(Tensor(a), Tensor(b))).item(), a)
    assert max_rel_error(ta.grad, numeric) < 1e-6


# matrix-matrix, and the matrix-vector, vector-matrix and dot shapes as
# one-column and one-row matrices
@pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((3, 4), (4, 1)), ((1, 3), (3, 2)),
                                   ((1, 4), (4, 1))])
def test_matmul_all_arities_gradcheck(sa, sb):
    rng = np.random.default_rng(7)
    check_grads(ad.matmul, rng.uniform(-2, 2, sa), rng.uniform(-2, 2, sb))


# ---------------------------------------------------------------------------
# conv1d_same


def conv_one(seq, filters, bias, lengths=None):
    """conv1d_same of one window."""
    return ad.conv1d_same(seq, [(filters, bias)], lengths=lengths)


def naive_conv1d_same(seq, filters, bias):
    """Sliding-window dot-product oracle with explicit zero padding."""
    n, d_in = seq.shape
    w, _, f = filters.shape
    left = (w - 1) // 2
    padded = np.zeros((n + w - 1, d_in))
    padded[left:left + n] = seq
    out = np.zeros((n, f))
    for i in range(n):
        for j in range(f):
            acc = 0.0
            for k in range(w):
                for c in range(d_in):
                    acc += padded[i + k, c] * filters[k, c, j]
            out[i, j] = acc + bias[j]
    return out


def test_conv_zero_input_gives_bias_rows():
    bias = np.array([0.5, -1.5])
    out = ad.conv1d_same(Tensor(np.zeros((4, 3))), [(Tensor(np.zeros((3, 3, 2))), Tensor(bias))])
    np.testing.assert_array_equal(out.data, np.tile(bias, (4, 1)))


def test_conv_width1_is_scaling():
    seq = Tensor([[1.0], [2.0], [3.0]])
    filt = Tensor(np.array(2.0).reshape(1, 1, 1))
    out = ad.conv1d_same(seq, [(filt, Tensor([0.0]))])
    np.testing.assert_array_equal(out.data, [[2.0], [4.0], [6.0]])


def test_conv_matches_sliding_window_oracle():
    rng = np.random.default_rng(1)
    seq = rng.uniform(-2, 2, (4, 3))
    filters = rng.uniform(-2, 2, (3, 3, 5))
    bias = rng.uniform(-2, 2, 5)
    out = ad.conv1d_same(Tensor(seq), [(Tensor(filters), Tensor(bias))])
    np.testing.assert_allclose(out.data, naive_conv1d_same(seq, filters, bias), atol=1e-12)


@pytest.mark.parametrize("w", range(1, 7))
def test_conv_preserves_length_for_all_windows(w):
    # windows 1..n+2 for n=4
    seq = np.random.default_rng(w).uniform(-1, 1, (4, 2))
    out = ad.conv1d_same(Tensor(seq), [(Tensor(np.ones((w, 2, 3))), Tensor(np.zeros(3)))])
    assert out.shape == (4, 3)


def test_conv_even_window_pads_right():
    # w=2, left pad 0: output row i sees seq[i], seq[i+1]; the last row sees
    # only seq[n-1] plus a right zero pad.
    seq = np.array([[1.0], [10.0], [100.0]])
    filters = np.zeros((2, 1, 1))
    filters[0, 0, 0] = 1.0   # weight on the earlier position
    out = ad.conv1d_same(Tensor(seq), [(Tensor(filters), Tensor(np.zeros(1)))])
    np.testing.assert_array_equal(out.data, [[1.0], [10.0], [100.0]])
    filters2 = np.zeros((2, 1, 1))
    filters2[1, 0, 0] = 1.0  # weight on the later position
    out2 = ad.conv1d_same(Tensor(seq), [(Tensor(filters2), Tensor(np.zeros(1)))])
    np.testing.assert_array_equal(out2.data, [[10.0], [100.0], [0.0]])


def test_conv_gradcheck_all_inputs():
    # (n, w) = (1, 5) and (2, 4): sequences shorter than the window
    rng = np.random.default_rng(2)
    for n, w in [(5, 2), (1, 5), (2, 4)]:
        check_grads(
            conv_one,
            rng.uniform(-2, 2, (n, 3)),
            rng.uniform(-2, 2, (w, 3, 4)),
            rng.uniform(-2, 2, 4),
        )


@pytest.mark.parametrize("n,w", [(1, 5), (2, 4), (9, 5), (30, 2), (4, 1)])
def test_conv_input_gradient_is_bitwise_the_scatter_add(n, w):
    # Reference: scatter each window's input gradient back with np.add.at.
    rng = np.random.default_rng(n * 10 + w)
    d, f = 3, 4
    seq = Tensor(rng.uniform(-2, 2, (n, d)), requires_grad=True)
    filters = rng.uniform(-2, 2, (w, d, f))
    with Tape() as tape:
        out = ad.conv1d_same(seq, [(Tensor(filters), Tensor(np.zeros(f)))])
        loss = ad.mean(ad.mul(out, Tensor(rng.uniform(-2, 2, (n, f)))))
    tape.backward(loss)
    left = (w - 1) // 2
    idx = np.arange(n)[:, None] + np.arange(w)[None, :]
    dcol = (out.grad @ filters.reshape(w * d, f).T).reshape(n, w, d)
    dpad = np.zeros((n + w - 1, d))
    np.add.at(dpad, idx, dcol)
    np.testing.assert_array_equal(seq.grad, dpad[left:left + n])


def test_conv_backward_repeated_filters_sum_over_calls():
    # One leaf filter bank applied to sequences of several lengths in one
    # tape: its gradient is summed after the replay, across all calls.
    rng = np.random.default_rng(3)
    seqs = [rng.uniform(-2, 2, (n, 3)) for n in (1, 4, 2)]
    filters = rng.uniform(-2, 2, (4, 3, 2))
    bias = rng.uniform(-2, 2, 2)

    def loss_of(filt):
        total = ad.mean(ad.tanh(ad.conv1d_same(Tensor(seqs[0]), [(filt, Tensor(bias))])))
        for s in seqs[1:]:
            total = ad.add(total,
                           ad.mean(ad.tanh(ad.conv1d_same(Tensor(s), [(filt, Tensor(bias))]))))
        return total

    tf = Tensor(filters, requires_grad=True)
    with Tape() as tape:
        loss = loss_of(tf)
    tape.backward(loss)
    numeric = central_diff(lambda: loss_of(Tensor(filters)).item(), filters)
    assert max_rel_error(tf.grad, numeric) < 1e-6


@pytest.mark.parametrize("windows", [(1, 2, 3, 4, 5), (5, 2, 4)])
def test_conv_window_list_equals_each_window_then_concat(windows):
    # The list form runs every window from one im2col at the widest window;
    # it must give each window's own convolution, side by side in list order.
    lengths = [4, 1, 6, 2, 5, 3]
    rng = np.random.default_rng(sum(windows))
    d, f = 3, 2
    seq = rng.uniform(-2, 2, (sum(lengths), d))
    params = [(rng.uniform(-2, 2, (w, d, f)), rng.uniform(-2, 2, f)) for w in windows]
    probe = Tensor(rng.uniform(-2, 2, (sum(lengths), f * len(windows))))

    def run(fused):
        tseq = Tensor(seq, requires_grad=True)
        pairs = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
                 for w, b in params]
        with Tape() as tape:
            if fused:
                out = ad.conv1d_same(tseq, pairs, lengths=lengths)
            else:
                out = ad.concat([conv_one(tseq, w, b, lengths) for w, b in pairs], axis=1)
            loss = ad.mean(ad.mul(ad.tanh(out), probe))
        tape.backward(loss)
        return out.data, [tseq.grad] + [t.grad for pair in pairs for t in pair]

    got, got_grads = run(fused=True)
    want, want_grads = run(fused=False)
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_conv_window_list_takes_no_separate_bias():
    with pytest.raises(ValueError, match="list of"):
        ad.conv1d_same(Tensor(np.ones((4, 3))), [])


@pytest.mark.parametrize("op", ["affine", "conv1d_same"])
def test_non_leaf_weight_gradient(op):
    # A weight computed by another op is not a leaf: its gradient must be
    # complete before the rule of the op that made it runs.
    rng = np.random.default_rng(4)
    if op == "affine":
        w_shape, x, b = (3, 4), rng.uniform(-2, 2, (2, 4)), rng.uniform(-2, 2, 3)
    else:
        w_shape, x, b = (3, 2, 4), rng.uniform(-2, 2, (5, 2)), rng.uniform(-2, 2, 4)
    raw = rng.uniform(-2, 2, w_shape)
    fn = ad.affine if op == "affine" else conv_one

    def loss_of(weight):
        made = ad.tanh(weight)
        args = (made, Tensor(x), Tensor(b)) if op == "affine" else (Tensor(x), made, Tensor(b))
        return ad.add(ad.mean(fn(*args)), ad.mean(fn(*args)))

    tw = Tensor(raw, requires_grad=True)
    with Tape() as tape:
        loss = loss_of(tw)
    tape.backward(loss)
    numeric = central_diff(lambda: loss_of(Tensor(raw)).item(), raw)
    assert max_rel_error(tw.grad, numeric) < 1e-6


def _weight_loss(seq, filters, weight, bias):
    """mean(affine(weight, tanh(conv(seq)))): both deferring ops, leaf weights."""
    h = ad.tanh(ad.conv1d_same(Tensor(seq), [(filters, Tensor(np.zeros(filters.shape[2])))]))
    return ad.mean(ad.affine(weight, h, Tensor(bias)))


def _weight_loss_grads(seqs, filters, weight, bias):
    """One backward of _weight_loss per sequence, each on its own tape.
    Returns (filters.grad, weight.grad) as read after each backward."""
    tf, tw = Tensor(filters, requires_grad=True), Tensor(weight, requires_grad=True)
    after_each = []
    for s in seqs:
        with Tape() as tape:
            loss = _weight_loss(s, tf, tw, bias)
        tape.backward(loss)
        after_each.append((tf.grad.copy(), tw.grad.copy()))
    return after_each


def _queued_weights(seqs, filters, weight, bias):
    """Weight tensors after one backward per sequence, with .grad not yet read."""
    tf, tw = Tensor(filters, requires_grad=True), Tensor(weight, requires_grad=True)
    for s in seqs:
        with Tape() as tape:
            loss = _weight_loss(s, tf, tw, bias)
        tape.backward(loss)
    return tf, tw


def _grad_sum_case():
    rng = np.random.default_rng(9)
    seqs = [rng.uniform(-2, 2, (n, 3)) for n in (4, 1, 6)]
    return (seqs, rng.uniform(-1, 1, (3, 3, 2)), rng.uniform(-1, 1, (5, 2)),
            rng.uniform(-1, 1, 5))


def test_each_backward_adds_a_complete_weight_gradient():
    seqs, filters, weight, bias = _grad_sum_case()
    [(f1, w1), (f2, w2)] = _weight_loss_grads([seqs[0]] * 2, filters, weight, bias)
    loss = lambda: _weight_loss(seqs[0], Tensor(filters), Tensor(weight), bias).item()
    assert max_rel_error(f1, central_diff(loss, filters)) < 1e-6
    assert max_rel_error(w1, central_diff(loss, weight)) < 1e-6
    np.testing.assert_array_equal(f2, 2 * f1)
    np.testing.assert_array_equal(w2, 2 * w1)


def test_first_read_of_grad_sums_the_queued_backwards():
    seqs, filters, weight, bias = _grad_sum_case()
    each = [_weight_loss_grads([s], filters, weight, bias)[0] for s in seqs]
    tf, tw = _queued_weights(seqs, filters, weight, bias)
    for t, want in ((tf, sum(f for f, _ in each)), (tw, sum(w for _, w in each))):
        first = t.grad.copy()
        np.testing.assert_allclose(first, want, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(t.grad, first)


def test_zero_grad_drops_queued_factors():
    seqs, filters, weight, bias = _grad_sum_case()
    tf, tw = _queued_weights(seqs, filters, weight, bias)
    ad.zero_grads([tf, tw])
    assert not tf.grad.any() and not tw.grad.any()


def test_assigning_grad_discards_queued_factors():
    seqs, filters, weight, bias = _grad_sum_case()
    tf, tw = _queued_weights(seqs, filters, weight, bias)
    tf.grad = np.ones(filters.shape)
    tw.grad = np.ones(weight.shape)
    np.testing.assert_array_equal(tf.grad, np.ones(filters.shape))
    np.testing.assert_array_equal(tw.grad, np.ones(weight.shape))


# ---------------------------------------------------------------------------
# conv1d_tables


def _table_inputs(seed):
    """Sentences of 1, 2, 9, 30 and 60 tokens, anchored at their first token
    and at min(n - 1, 2). Offsets pass max_offset 4 on the right only, so
    position rows 0 and 1 (offsets -4 and -3) are never read. Words repeat,
    and some are outside the word table (w7, which the embeddings hold) or
    outside both (w8, w9)."""
    rng = np.random.default_rng(seed)
    emb = EmbeddingTable({f"w{i}": rng.normal(size=3) for i in range(8)}, 3)
    words = WordTable(emb, [f"w{i}" for i in range(7)])
    words.matrix.data += rng.normal(scale=0.1, size=words.matrix.shape)
    pos = PositionTable(2, 4, rng)
    lengths = [n for n in (1, 2, 9, 30, 60) for _ in range(2)]
    anchors = [a for n in (1, 2, 9, 30, 60) for a in (0, min(n - 1, 2))]
    tokens = [f"w{(i * 3 + n) % 10}" for n in lengths for i in range(n)]
    return rng, emb, words, pos, tokens, lengths, anchors


@pytest.mark.parametrize("windows", [(1, 2, 3, 4, 5), (5, 2, 4)])
def test_conv_tables_equal_conv_of_the_looked_up_rows(windows):
    # All ten sentences take the products route; the first five, whose tables
    # are above TABLE_SHARE of their lookups, take the gather route.
    rng, emb, words, pos, tokens, lengths, anchors = _table_inputs(sum(windows))
    f = 2
    params = [(rng.uniform(-2, 2, (w, 5, f)), rng.uniform(-2, 2, f)) for w in windows]
    probe = rng.uniform(-2, 2, (len(tokens), f * len(windows)))

    def run(k, tables):
        """The layer over the first k sentences, from the lookups or from their
        gathered rows: the lookups, the output and the gradients."""
        n = sum(lengths[:k])
        for t in (pos.table, words.matrix):
            t.zero_grad()
        pairs = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
                 for w, b in params]
        with Tape() as tape:
            lookups = encode(tokens[:n], lengths[:k], anchors[:k], emb, pos, words)
            if tables:
                out = ad.conv1d_tables(lookups, pairs, lengths=lengths[:k])
            else:
                out = ad.conv1d_same(gathered(lookups), pairs, lengths=lengths[:k])
            loss = ad.mean(ad.mul(ad.tanh(out), Tensor(probe[:n])))
        tape.backward(loss)
        grads = [pos.table.grad.copy(), words.matrix.grad.copy()]
        return lookups, out.data, grads + [t.grad for pair in pairs for t in pair]

    def table_rows(lookups):
        return sum(len(table.data) for table, _ in lookups)

    lookups, got, got_grads = run(len(lengths), tables=True)
    assert lookups[0][0] is pos.table
    assert table_rows(lookups) <= ad.TABLE_SHARE * 2 * len(tokens)
    _, want, want_grads = run(len(lengths), tables=False)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    largest = max(np.abs(g).max() for g in want_grads)
    for g, w in zip(got_grads, want_grads):
        assert np.abs(w).max() > 0
        assert np.abs(g - w).max() <= 1e-12 * largest
    unread = np.setdiff1d(np.arange(len(pos.table.data)), lookups[0][1])
    assert unread.tolist() == [0, 1]
    assert not got_grads[0][unread].any()

    lookups, got, got_grads = run(5, tables=True)
    assert table_rows(lookups) > ad.TABLE_SHARE * 2 * sum(lengths[:5])
    _, want, want_grads = run(5, tables=False)
    np.testing.assert_array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)


def test_conv_tables_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    lengths = [1, 4, 2, 5]
    index_p = rng.integers(0, 3, sum(lengths))
    index_e = rng.integers(0, 4, sum(lengths))
    arrays = [rng.uniform(-2, 2, shape) for shape in [(3, 2), (4, 3), (4, 5, 2), (2,),
                                                      (3, 5, 3), (3,)]]
    probe = Tensor(rng.uniform(-2, 2, (sum(lengths), 5)))

    def loss_of(p, e, f4, b4, f3, b3):
        out = ad.conv1d_tables([(p, index_p), (e, index_e)], [(f4, b4), (f3, b3)],
                               lengths=lengths)
        return ad.mean(ad.mul(ad.tanh(out), probe))

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = loss_of(*tensors)
    tape.backward(loss)
    for t, a in zip(tensors, arrays):
        numeric = central_diff(lambda: loss_of(*map(Tensor, arrays)).item(), a)
        assert max_rel_error(t.grad, numeric) < 1e-6


def test_conv_tables_rejects_indices_outside_a_table():
    pair = (Tensor(np.ones((2, 3, 1))), Tensor(np.zeros(1)))
    table = Tensor(np.ones((2, 3)))
    with pytest.raises(ad.ShapeError, match="outside the 2 table rows"):
        ad.conv1d_tables([(table, [0, 2])], [pair])
    with pytest.raises(ad.ShapeError, match="input width 6"):
        ad.conv1d_tables([(table, [0, 1]), (table, [1, 1])], [pair])


# ---------------------------------------------------------------------------
# maxpool_time


def test_maxpool_single_row():
    out = ad.maxpool_time(Tensor([[1.0, -2.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, -2.0, 3.0]])


def test_maxpool_columnwise_max():
    out = ad.maxpool_time(Tensor([[1.0, 5.0], [3.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[3.0, 5.0]])


def test_maxpool_empty_rejected():
    with pytest.raises(ValueError):
        ad.maxpool_time(Tensor(np.zeros((0, 3))))


def test_maxpool_tie_routes_to_first_position():
    seq = Tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.maxpool_time(seq))
    tape.backward(loss)
    np.testing.assert_array_equal(seq.grad, [[1.0], [0.0], [0.0]])


def test_maxpool_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    data = rng.uniform(-2, 2, (5, 4))
    t = Tensor(data, requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.maxpool_time(t))
    tape.backward(loss)
    numeric = central_diff(lambda: ad.mean(ad.maxpool_time(Tensor(data))).item(), data)
    assert max_rel_error(t.grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# softmax / cross_entropy


def test_softmax_uniform():
    np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3)


def test_softmax_extreme_inputs_no_overflow():
    with np.errstate(over="raise"):
        out = ad.softmax(Tensor([1000.0, 0.0]))
    assert out.data[0] == 1.0
    assert out.data[1] <= 1e-300


def test_softmax_sums_to_one():
    rng = np.random.default_rng(4)
    out = ad.softmax(Tensor(rng.uniform(-2, 2, 6)))
    assert abs(out.data.sum() - 1.0) < 1e-12
    big = ad.softmax(Tensor(rng.uniform(-1e3, 1e3, 6)))
    assert abs(big.data.sum() - 1.0) < 1e-9
    assert (big.data >= 0).all()


def test_softmax_gradcheck():
    rng = np.random.default_rng(5)
    v = rng.uniform(-2, 2, 6)
    t = Tensor(v, requires_grad=True)
    with Tape() as tape:
        # weight the outputs so the gradient is not identically zero
        weights = Tensor(rng.uniform(-2, 2, 6))
        loss = ad.mean(ad.mul(ad.softmax(t), weights))
    tape.backward(loss)
    numeric = central_diff(
        lambda: ad.mean(ad.mul(ad.softmax(Tensor(v)), Tensor(weights.data))).item(), v
    )
    assert max_rel_error(t.grad, numeric) < 1e-4


def test_cross_entropy_uniform_logits():
    out = ad.cross_entropy(Tensor([0.0, 0.0]), 1)
    assert abs(out.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_confident_correct():
    # closed form: -log(e^10 / (e^10 + e^-10)) = log1p(e^-20)
    out = ad.cross_entropy(Tensor([10.0, -10.0]), 0)
    assert out.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-6)
    assert out.item() == pytest.approx(2.06e-9, rel=1e-2)


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ValueError):
        ad.cross_entropy(Tensor([0.0, 0.0]), 2)


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(6)
    logits = rng.uniform(-2, 2, 2)
    for label in (0, 1):
        t = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss = ad.cross_entropy(t, label)
        tape.backward(loss)
        numeric = central_diff(
            lambda: ad.cross_entropy(Tensor(logits), label).item(), logits
        )
        assert max_rel_error(t.grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# elementwise suite


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise"):
        out = ad.sigmoid(Tensor([-1000.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-300)


def test_tanh_at_zero():
    assert ad.tanh(Tensor(0.0)).item() == 0.0


def test_concat_vectors():
    out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_concat_columns():
    out = ad.concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 1)))], axis=1)
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out.data, [[1, 1, 0], [1, 1, 0]])


def test_binary_op_shape_mismatch():
    for op in (ad.add, ad.mul):
        with pytest.raises(ad.ShapeError):
            op(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.identity])
def test_unary_gradcheck(op):
    rng = np.random.default_rng(8)
    check_grads(op, rng.uniform(-2, 2, (4, 3)))


def test_identity_records_no_rule():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        assert ad.identity(x) is x
    assert len(tape) == 0


def test_relu_gradcheck_away_from_kink():
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, (4, 3))
    x[np.abs(x) < 1e-2] += 0.05    # keep finite differences off the kink
    check_grads(ad.relu, x)


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_binary_gradcheck(op):
    rng = np.random.default_rng(10)
    check_grads(op, rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, (3, 3)))


def test_mean_gradcheck():
    rng = np.random.default_rng(11)
    check_grads(lambda t: ad.mean(t), rng.uniform(-2, 2, (4, 2)))


def test_affine_gradcheck():
    rng = np.random.default_rng(12)
    check_grads(ad.affine, rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (2, 4)),
                rng.uniform(-2, 2, 3))


def test_linear_rows_gradcheck():
    rng = np.random.default_rng(13)
    check_grads(
        ad.linear_rows, rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, 4)
    )


def test_scale_shift_rows_gradcheck():
    rng = np.random.default_rng(14)
    check_grads(
        ad.scale_shift_rows, rng.uniform(-2, 2, (5, 4)), rng.uniform(-2, 2, (1, 4)),
        rng.uniform(-2, 2, (1, 4))
    )


def test_take_row_and_take_rows_gradients():
    rng = np.random.default_rng(15)
    data = rng.uniform(-2, 2, (4, 3))
    t = Tensor(data, requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.take_rows(t, 2))
    tape.backward(loss)
    expected = np.zeros_like(data)
    expected[2] = 1 / 3
    np.testing.assert_allclose(t.grad, expected)

    t2 = Tensor(data, requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.take_rows(t2, [0, 0, 2]))   # repeats accumulate
    tape.backward(loss)
    expected = np.zeros_like(data)
    expected[0] = 2 / 9
    expected[2] = 1 / 9
    np.testing.assert_allclose(t2.grad, expected)


def test_concat_gradcheck():
    rng = np.random.default_rng(16)
    a, b = rng.uniform(-2, 2, (3, 2)), rng.uniform(-2, 2, (3, 4))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.tanh(ad.concat([ta, tb], axis=1)))
    tape.backward(loss)
    for t, arr in ((ta, a), (tb, b)):
        numeric = central_diff(
            lambda: ad.mean(ad.tanh(ad.concat([Tensor(a), Tensor(b)], axis=1))).item(), arr
        )
        assert max_rel_error(t.grad, numeric) < 1e-5


# ---------------------------------------------------------------------------
# packed sentences

LENGTHS = [1, 4, 2, 5]      # sentences shorter and longer than the windows
N_ROWS = sum(LENGTHS)


def split_rows(x):
    return np.split(x, np.cumsum(LENGTHS)[:-1])


# name -> (op, input shapes, per input: split by sentence (True), one row per
# sentence (False) or shared (None)); each op takes the lengths last
PACKED_OPS = {
    "conv1d_same_w1": (conv_one, [(N_ROWS, 3), (1, 3, 2), (2,)], [True, None, None]),
    "conv1d_same_w4": (conv_one, [(N_ROWS, 3), (4, 3, 2), (2,)], [True, None, None]),
    "conv1d_same_w5": (conv_one, [(N_ROWS, 3), (5, 3, 2), (2,)], [True, None, None]),
    "conv1d_same_w4_w3": (
        lambda seq, f4, b4, f3, b3, lengths=None:
            ad.conv1d_same(seq, [(f4, b4), (f3, b3)], lengths=lengths),
        [(N_ROWS, 3), (4, 3, 2), (2,), (3, 3, 4), (4,)], [True, None, None, None, None]),
    "maxpool_time": (ad.maxpool_time, [(N_ROWS, 3)], [True]),
    "softmax": (ad.softmax, [(N_ROWS,)], [True]),
    "scale_shift_rows": (ad.scale_shift_rows, [(N_ROWS, 3), (4, 3), (4, 3)],
                         [True, False, False]),
    "row_scores": (ad.row_scores, [(N_ROWS, 3), (4, 3)], [True, False]),
    "weighted_row_sum": (ad.weighted_row_sum, [(N_ROWS,), (N_ROWS, 3)], [True, True]),
}


@pytest.mark.parametrize("name", sorted(PACKED_OPS))
def test_packed_op_equals_the_op_per_sentence(name):
    # Over packed sentences an op computes each sentence as if it were alone,
    # and its gradients match finite differences; a nonlinear, weighted loss
    # makes every gradient entry count.
    op, shapes, split = PACKED_OPS[name]
    rng = np.random.default_rng(len(name))
    arrays = [rng.uniform(-2, 2, shape) for shape in shapes]
    probe = rng.uniform(-2, 2, op(*map(Tensor, arrays), LENGTHS).shape)

    def loss_of(tensors):
        return ad.mean(ad.mul(ad.tanh(op(*tensors, LENGTHS)), Tensor(probe)))

    packed = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*packed, LENGTHS)
        loss = loss_of(packed)
    tape.backward(loss)

    alone = []
    for b in range(len(LENGTHS)):
        args = [split_rows(a)[b] if sp else (a[b:b + 1] if sp is False else a)
                for a, sp in zip(arrays, split)]
        alone.append(op(*map(Tensor, args)).data)
    want = np.concatenate(alone)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    for t, a in zip(packed, arrays):
        numeric = central_diff(lambda: loss_of([Tensor(x) for x in arrays]).item(), a)
        assert max_rel_error(t.grad, numeric) < 1e-6


def test_packed_op_lengths_must_cover_the_rows():
    with pytest.raises(ad.ShapeError, match="lengths"):
        ad.maxpool_time(Tensor(np.zeros((5, 2))), [2, 2])
    with pytest.raises(ad.ShapeError, match="lengths"):
        ad.softmax(Tensor(np.zeros(3)), [3, 0])
    with pytest.raises(ad.ShapeError, match="2 scales for 3 sentences"):
        ad.scale_shift_rows(Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 2))),
                            Tensor(np.zeros((2, 2))), [1, 1, 1])


# ---------------------------------------------------------------------------
# tape mechanics


def test_composed_chain_matches_hand_assembled_jacobians():
    # x -> A = W @ x -> t = tanh(A) -> s = mean(t); three recorded ops.
    rng = np.random.default_rng(17)
    w = rng.uniform(-2, 2, (2, 3))
    x = rng.uniform(-2, 2, (3, 1))
    tx = Tensor(x, requires_grad=True)
    with Tape() as tape:
        s = ad.mean(ad.tanh(ad.matmul(Tensor(w), tx)))
    assert len(tape) == 3
    tape.backward(s)
    # hand chain rule: ds/dt = 1/2, dt/dA = diag(1 - tanh(Wx)^2), dA/dx = W
    t = np.tanh(w @ x[:, 0])
    hand = ((np.full(2, 0.5) * (1 - t * t)) @ w)[:, None]
    np.testing.assert_allclose(tx.grad, hand, rtol=1e-12)


def test_grad_present_iff_requires_grad():
    const = Tensor([1.0, 2.0])
    assert const.grad is None
    param = Tensor([1.0, 2.0], requires_grad=True)
    assert param.grad is not None and param.grad.shape == param.data.shape


def test_no_tape_means_constant_outputs():
    param = Tensor([1.0, 2.0], requires_grad=True)
    out = ad.tanh(param)
    assert not out.requires_grad and out.grad is None


def test_backward_populates_all_reachable_grads():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.mul(ad.tanh(a), b))
    tape.backward(loss)
    assert np.all(a.grad != 0) and np.all(b.grad != 0)


def test_zero_grad_and_accumulation():
    a = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.mean(ad.mul(a, a))
    tape.backward(loss)
    first = a.grad.copy()
    a.zero_grad()
    np.testing.assert_array_equal(a.grad, [0.0])
    with Tape() as tape:
        loss = ad.mean(ad.mul(a, a))
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, first)


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_backward_requires_scalar():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = ad.tanh(a)
    with pytest.raises(ValueError):
        tape.backward(out)
