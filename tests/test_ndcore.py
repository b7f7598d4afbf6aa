import json
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import nuggetnet.ndcore as ndcore
from nuggetnet.errors import CheckpointError, NumericError, ShapeError
from nuggetnet.ndcore import (
    Param,
    ParamStore,
    adadelta_step,
    grad_check,
    load_checkpoint,
    offset_rows,
    save_checkpoint,
    scatter_rows,
    sigmoid,
    softmax,
    softmax_xent,
    split_argmax,
    split_max_pool,
    window_products,
    window_sum,
)

# frozen reference values, computed once by hand / high-precision evaluation
TANH_05 = 0.46211715726000974
TANH_M1 = -0.7615941559557649
TANH_2 = 0.9640275800758169
SIGMOID_1 = 0.7310585786300049
SIGMOID_M1 = 0.2689414213699951
LN_7 = 1.9459101090932196
# first Adadelta step for any parameter with g = 1, rho = 0.95, eps = 1e-6:
# dx = -sqrt(0 + 1e-6) / sqrt(0.05 + 1e-6) * 1
ADADELTA_FIRST_STEP = -0.004472091234310839


def conv1d(x, w, b=None):
    """window_sum over window_products as a plain valid convolution of the rows x (n, d), filters w (m, h*d)."""
    x, w = np.asarray(x, dtype=np.float64), np.asarray(w, dtype=np.float64)
    h = w.shape[1] // x.shape[1]
    _, slot, products = window_products(x, np.arange(x.shape[0]), w.reshape(w.shape[0], h, x.shape[1]))
    return window_sum(products, slot, 0, x.shape[0] - h + 1, b)


class TestConv:
    def test_hand_computed_map(self):
        # single filter w = [1, 0, 0, 1], b = 0.5, window 2 over 2-d inputs
        x = np.array([[1.0, 0.0], [0.0, -2.0], [0.25, 0.0]])
        w = np.array([[1.0, 0.0, 0.0, 1.0]])
        b = np.array([0.5])
        amap = np.tanh(conv1d(x, w, b))
        # window 0: 1*1 + 1*(-2) + 0.5 = -0.5 ... window 1: 0 + 0 + 0.5
        npt.assert_allclose(amap, [[math.tanh(-0.5)], [math.tanh(0.5)]], rtol=0, atol=1e-15)
        npt.assert_allclose(amap[1, 0], TANH_05, rtol=0, atol=1e-15)
        npt.assert_allclose(conv1d(x, w), conv1d(x, w, b) - 0.5, rtol=0, atol=1e-15)  # no bias

    def test_output_length(self):
        x = np.zeros((7, 3))
        w = np.zeros((4, 9))
        amap = conv1d(x, w, np.zeros(4))
        assert amap.shape == (5, 4)  # n - h + 1 columns, one per filter

    def test_windows_layout(self):
        # filter i picks entry i of the flat window, so the map shows each window's layout
        x = np.arange(12.0).reshape(4, 3)
        win = conv1d(x, np.eye(6))
        npt.assert_array_equal(win[0], [0, 1, 2, 3, 4, 5])
        npt.assert_array_equal(win[2], [6, 7, 8, 9, 10, 11])

    def test_repeated_ids_multiply_once(self):
        # ids read the table with repeats and pads: one product row per distinct id, and the map
        # still reads each column's own window; columns may start anywhere in the sequence
        table = np.arange(12.0).reshape(4, 3) - 5.0
        ids = np.array([0, 2, 2, 3, 0, 2, 0, 0])
        w = np.random.default_rng(0).normal(size=(5, 2, 3))
        distinct, slot, products = window_products(table, ids, w)
        npt.assert_array_equal(distinct, [0, 2, 3])
        npt.assert_array_equal(distinct[slot], ids)
        assert products.shape == (3, 2, 5)
        b = np.linspace(-1.0, 1.0, 5)
        dense = np.array([w[:, 0] @ table[ids[j]] + w[:, 1] @ table[ids[j + 1]] for j in range(7)]) + b
        npt.assert_allclose(window_sum(products, slot, 0, 7, b), dense, rtol=0, atol=1e-13)
        npt.assert_array_equal(window_sum(products, slot, 3, 2, b), window_sum(products, slot, 0, 7, b)[3:5])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            window_products(np.zeros((2, 3)), [0, 1], np.zeros((1, 2, 4)))  # filter columns != table columns
        with pytest.raises(ShapeError):
            window_products(np.zeros((2, 3)), [0, 1], np.zeros((1, 6)))  # filters not split by window slot
        with pytest.raises(ShapeError):
            conv1d(np.zeros((1, 3)), np.zeros((1, 6)), np.zeros(1))  # n < h
        with pytest.raises(ShapeError):
            conv1d(np.zeros((2, 3)), np.zeros((1, 6)), np.zeros(2))  # bias per filter
        _, slot, products = window_products(np.zeros((2, 3)), [0, 1, 1], np.zeros((1, 2, 3)))
        with pytest.raises(ShapeError):
            window_sum(products, slot, 1, 2)  # the last window would pass the sequence's end
        for pool in (split_max_pool, split_argmax):
            with pytest.raises(ShapeError):
                pool(np.zeros((3, 2)), np.zeros((4, 2)), [0], [0], [3])  # offsets must be 2N-1


def split_pool(*args):
    """(left, right, left_arg, right_arg): split_max_pool's values and split_argmax's rows for one call, cut in two."""
    pooled, rows = split_argmax(*args)
    assert pooled.tobytes() == split_max_pool(*args).tobytes()
    m = pooled.shape[1] // 2
    return pooled[:, :m], pooled[:, m:], rows[:, :m], rows[:, m:]


def pool_map(amap, c):
    """split_pool on a plain (filters, columns) map, one segment: a zero offset term."""
    amap = np.asarray(amap, dtype=np.float64)
    n = amap.shape[1]
    left, right, left_arg, right_arg = split_pool(amap.T, np.zeros((2 * n - 1, amap.shape[0])), [c], [0], [n])
    return left[0], right[0], left_arg[0], right_arg[0]


@st.composite
def pooling_cases(draw):
    """(token_term, offset_term, cols, lo, hi), the terms either integer-valued, so that maps tie often, or any floats.

    Segments of 1-7 rows lie back to back, with 0-2 rows between them that
    belong to none, and each pools 1-3 of its rows as centers.
    """
    m = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    cols, lo, hi = [], [], []
    row = 0
    for n in lengths:
        row += draw(st.integers(0, 2))
        for c in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            cols.append(row + c)
            lo.append(row)
            hi.append(row + n)
        row += n
    values = draw(st.sampled_from([st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)]))
    token_term = np.array(draw(st.lists(values, min_size=row * m, max_size=row * m))).reshape(row, m)
    n_offsets = 2 * max(lengths) - 1
    offset_term = np.array(draw(st.lists(values, min_size=n_offsets * m, max_size=n_offsets * m))).reshape(-1, m)
    return token_term, offset_term, np.array(cols), np.array(lo), np.array(hi)


class TestDynamicMultiPool:
    """split_max_pool and split_argmax, the dynamic multi-pooling of DMCNN taken at every center."""

    def test_split_at_center(self):
        amap = np.array([[1.0, 5.0, 2.0, 4.0], [-1.0, -5.0, -2.0, -4.0]])
        left, right, left_arg, right_arg = pool_map(amap, 2)
        npt.assert_array_equal(left, [5.0, -1.0])
        npt.assert_array_equal(right, [4.0, -2.0])
        npt.assert_array_equal(left_arg, [1, 0])
        npt.assert_array_equal(right_arg, [3, 2])

    def test_center_column_belongs_to_right(self):
        amap = np.array([[1.0, 9.0, 2.0]])
        left, right, _, right_arg = pool_map(amap, 1)
        npt.assert_array_equal(left, [1.0])
        npt.assert_array_equal(right, [9.0])
        npt.assert_array_equal(right_arg, [1])

    def test_empty_left_pools_to_zero(self):
        amap = np.array([[-3.0, -1.0]])
        left, right, _, _ = pool_map(amap, 0)
        npt.assert_array_equal(left, [0.0])
        npt.assert_array_equal(right, [-1.0])

    def test_center_out_of_range(self):
        with pytest.raises(ShapeError):
            pool_map(np.zeros((1, 3)), 3)

    def test_offset_term_follows_the_center(self):
        # one filter, 3 columns; the offset term favours the column just right of each center
        token = np.zeros((3, 1))
        offset = np.array([[0.0], [0.0], [0.0], [1.0], [0.0]])  # offsets -2 .. 2, +1 peaks
        left, right, _, right_arg = split_pool(token, offset, [0, 1, 2], [0, 0, 0], [3, 3, 3])
        npt.assert_array_equal(right_arg[:, 0], [1, 2, 2])
        npt.assert_array_equal(right[:, 0], [1.0, 1.0, 0.0])
        npt.assert_array_equal(left[:, 0], [0.0, 0.0, 0.0])

    def test_segments_pool_apart(self):
        # rows 0-1 are one segment and rows 4-6 another; the rows between them belong to neither
        token = np.array([[5.0], [1.0], [9.0], [9.0], [2.0], [7.0], [3.0]])
        offset = np.zeros((5, 1))  # offsets -2 .. 2: segments of up to 3 rows
        left, right, left_arg, right_arg = split_pool(token, offset, [1, 4, 6], [0, 4, 4], [2, 7, 7])
        npt.assert_array_equal(left_arg[:, 0], [0, 4, 5])  # an empty left pool points at its segment's first row
        npt.assert_array_equal(right_arg[:, 0], [1, 5, 6])
        npt.assert_array_equal(left[:, 0], [5.0, 0.0, 7.0])
        npt.assert_array_equal(right[:, 0], [1.0, 7.0, 3.0])
        for pool in (split_max_pool, split_argmax):
            with pytest.raises(ShapeError):
                pool(token, offset, [4], [3], [7])  # a 4-row segment needs offsets -3 .. 3
            with pytest.raises(ShapeError):
                pool(token, offset, [3], [4], [7])  # center left of its segment

    @given(pooling_cases())
    @settings(max_examples=150, deadline=None)
    def test_argmax_returns_the_pooled_values_and_the_rows_they_came_from(self, case):
        token_term, offset_term, cols, lo, hi = case
        m = token_term.shape[1]
        pooled, rows = split_argmax(*case)
        # the same values as split_max_pool, bit for bit
        assert pooled.tobytes() == split_max_pool(*case).tobytes()
        # each row holds its value: token term plus the offset term at offset_rows
        filters = np.tile(np.arange(m), 2)
        at_rows = token_term[rows, filters] + offset_term[offset_rows(rows, cols, offset_term.shape[0]), filters]
        empty_left = cols == lo
        npt.assert_array_equal(pooled[~empty_left], at_rows[~empty_left])
        npt.assert_array_equal(pooled[empty_left, m:], at_rows[empty_left, m:])
        # an empty left pool is 0 at lo
        assert np.all(pooled[empty_left, :m] == 0.0)
        assert np.all(rows[empty_left, :m] == lo[empty_left, None])
        # ties go to the first maximum of each side, within the center's own segment
        n_max = (offset_term.shape[0] + 1) // 2
        for i, (c, a, b) in enumerate(zip(cols.tolist(), lo.tolist(), hi.tolist())):
            for f in range(m):
                pre = {j: token_term[j, f] + offset_term[j - c + n_max - 1, f] for j in range(a, b)}
                for side, span in ((f, range(a, c)), (m + f, range(c, b))):
                    if span:
                        best = max(pre[j] for j in span)
                        assert rows[i, side] == next(j for j in span if pre[j] == best)
                        assert pooled[i, side] == best


class TestScatterRows:
    @given(
        st.integers(1, 12),
        st.integers(1, 7),
        st.lists(st.integers(0, 11), max_size=60),
        st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_add_at(self, n_rows, width, ids, seed):
        # repeated and unsorted ids; bit-equal to np.add.at on zeros, within rounding on any table
        ids = np.array([i % n_rows for i in ids], dtype=np.int64)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(ids.shape[0], width)) * rng.choice([1e-3, 1.0, 1e3], size=(ids.shape[0], 1))
        zeros, expected = np.zeros((n_rows, width)), np.zeros((n_rows, width))
        scatter_rows(zeros, ids, rows)
        np.add.at(expected, ids, rows)
        assert zeros.tobytes() == expected.tobytes()

        table = rng.normal(size=(n_rows, width))
        got, expected = table.copy(), table.copy()
        scatter_rows(got, ids, rows)
        np.add.at(expected, ids, rows)
        scale = np.abs(table).copy()
        np.add.at(scale, ids, np.abs(rows))
        assert np.all(np.abs(got - expected) <= 1e-15 * scale)

    def test_by_hand(self):
        table = np.ones((3, 2))
        scatter_rows(table, [2, 0, 2], np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        npt.assert_array_equal(table, [[4.0, 5.0], [1.0, 1.0], [7.0, 9.0]])


def masked_sigmoid(x):
    """The logistic function as sigmoid computed it before: each sign branch through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestScalarFunctions:
    @given(st.lists(st.floats(allow_nan=False), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_matches_masked_formula(self, values):
        edges = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
        x = np.array(values + edges)
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_sigmoid_frozen_values(self):
        npt.assert_allclose(sigmoid(np.array([1.0, -1.0, 0.0])), [SIGMOID_1, SIGMOID_M1, 0.5], atol=1e-15)

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_tanh_frozen_values(self):
        npt.assert_allclose(np.tanh([-1.0, 2.0]), [TANH_M1, TANH_2], atol=1e-15)

class TestSoftmaxXent:
    def test_uniform_scores(self):
        # 7 equal scores: P = 1/7 each, loss = ln 7
        probs, loss, grad = softmax_xent(np.zeros(7), 3)
        npt.assert_allclose(probs, np.full(7, 1 / 7), atol=1e-15)
        npt.assert_allclose(loss, LN_7, atol=1e-12)
        expected = np.full(7, 1 / 7)
        expected[3] -= 1.0
        npt.assert_allclose(grad, expected, atol=1e-15)

    def test_shift_invariance(self):
        s = np.array([0.3, -2.0, 1.1, 0.0])
        p1, l1, g1 = softmax_xent(s, 2)
        p2, l2, g2 = softmax_xent(s + 1000.0, 2)
        npt.assert_allclose(p1, p2, atol=1e-12)
        npt.assert_allclose(l1, l2, atol=1e-9)
        npt.assert_allclose(g1, g2, atol=1e-12)

    def test_loss_exact_when_gold_prob_underflows(self):
        # gold score 800 below the max: P(gold) underflows but the log form survives
        s = np.array([800.0, 0.0])
        _, loss, _ = softmax_xent(s, 1)
        npt.assert_allclose(loss, 800.0, rtol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            softmax_xent(np.array([np.nan, 0.0]), 0)
        with pytest.raises(NumericError):
            softmax(np.array([np.inf, 0.0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=9)
        _, _, grad = softmax_xent(s, 4)
        eps = 1e-6
        for i in range(9):
            sp, sm = s.copy(), s.copy()
            sp[i] += eps
            sm[i] -= eps
            fd = (softmax_xent(sp, 4)[1] - softmax_xent(sm, 4)[1]) / (2 * eps)
            npt.assert_allclose(grad[i], fd, atol=1e-8)

    def test_rows_match_single_vectors(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(4, 6))
        gold = [0, 5, 2, 2]
        probs, loss, grad = softmax_xent(s, gold)
        singles = [softmax_xent(s[i], g) for i, g in enumerate(gold)]
        npt.assert_allclose(probs, [p for p, _, _ in singles], rtol=0, atol=1e-15)
        npt.assert_allclose(loss, sum(l for _, l, _ in singles), rtol=1e-14)
        npt.assert_allclose(grad, [g for _, _, g in singles], rtol=0, atol=1e-15)
        npt.assert_allclose(softmax(s), probs, rtol=0, atol=1e-15)

    def test_gold_shape_and_range_checked(self):
        with pytest.raises(ShapeError):
            softmax_xent(np.zeros((2, 3)), [0])
        with pytest.raises(ShapeError):
            softmax_xent(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ShapeError):
            softmax_xent(np.zeros(3), -1)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    def test_softmax_is_a_distribution(self, scores):
        p = softmax(np.array(scores))
        assert np.all(p >= 0)
        npt.assert_allclose(p.sum(), 1.0, atol=1e-12)


class TestParamStore:
    def test_registration_is_deterministic(self):
        a, b = (ParamStore([("w", (3, 4), "glorot"), ("e", (5, 2), "embedding")], 7) for _ in range(2))
        npt.assert_array_equal(a["w"].value, b["w"].value)
        npt.assert_array_equal(a["e"].value, b["e"].value)

    def test_different_seeds_differ(self):
        a, b = (ParamStore([("w", (3, 4), "glorot")], seed) for seed in (1, 2))
        assert not np.array_equal(a["w"].value, b["w"].value)

    def test_embedding_init_range(self):
        e = ParamStore([("e", (100, 10), "embedding")])["e"].value
        assert np.all(np.abs(e) <= 0.01)

    def test_duplicate_name_rejected(self, monkeypatch):
        # refused before anything is drawn
        monkeypatch.setattr(ParamStore, "_draw", lambda *args: pytest.fail("a tensor was drawn"))
        with pytest.raises(ValueError, match="'w' listed twice"):
            ParamStore([("w", (2,), "glorot"), ("b", (2,), "zeros"), ("w", (3,), "zeros")])

    def test_unknown_init_rejected(self, monkeypatch):
        monkeypatch.setattr(ParamStore, "_draw", lambda *args: pytest.fail("a tensor was drawn"))
        with pytest.raises(ValueError, match="unknown init scheme 'ones'"):
            ParamStore([("w", (2,), "glorot"), ("b", (2,), "ones")])

    def test_each_tensor_is_drawn_in_list_order(self):
        # the draws in list order from the seed's generator, zeros taking none
        specs = [("e", (4, 3), "embedding"), ("b", (3,), "zeros"), ("w", (2, 3, 2), "glorot"), ("v", (5,), "glorot")]
        s = ParamStore(specs, 9)
        rng = np.random.default_rng([9, 0x70])
        npt.assert_array_equal(s["e"].value, rng.uniform(-0.01, 0.01, size=(4, 3)))
        npt.assert_array_equal(s["b"].value, np.zeros(3))
        npt.assert_array_equal(s["w"].value, rng.uniform(-math.sqrt(6 / 8), math.sqrt(6 / 8), size=(2, 3, 2)))
        npt.assert_array_equal(s["v"].value, rng.uniform(-math.sqrt(6 / 6), math.sqrt(6 / 6), size=(5,)))

    def test_a_fresh_stores_values_are_one_arena_in_list_order(self):
        s = ParamStore([("a", (3, 4), "glorot"), ("b", (5,), "zeros"), ("c", (2, 1, 3), "embedding")])
        flat = s.arena("value")
        assert flat.shape == (s.n_parameters(),) == (23,) and flat.dtype == np.float64
        lo = 0
        for name, p in s.items():
            assert p.value.base is flat and p.value.flags.c_contiguous, name
            assert (p.value.ctypes.data - flat.ctypes.data) // flat.itemsize == lo, name  # list order, no gap
            lo += p.value.size
        assert s.names() == ["a", "b", "c"]

    def test_a_fresh_store_holds_no_gradient_or_adadelta_state(self):
        s = ParamStore([("w", (2, 3), "glorot"), ("b", (3,), "zeros")])
        assert [kind for kind in ("grad", "eg2", "edx2") if s.held(kind) is not None] == []
        assert not s.has_optimizer_state()
        s.zero_grads()  # allocates nothing
        assert s.held("grad") is None

    def test_zero_grads(self):
        s = ParamStore([("w", (2, 2), "zeros")])
        p = s["w"]
        p.grad += 1.0
        s.zero_grads()
        npt.assert_array_equal(p.grad, np.zeros((2, 2)))

    def test_gradient_and_state_exist_from_first_use(self):
        s = ParamStore([("w", (2, 3), "glorot"), ("b", (3,), "zeros")])
        p, q = s["w"], s["b"]
        grad = p.grad
        assert s.held("grad") is grad.base  # the first use allocates the arena, for every tensor
        assert q.grad.base is grad.base and s.held("eg2") is None
        npt.assert_array_equal(s.arena("grad"), np.zeros(9))
        assert grad.dtype == np.float64 and type(grad) is np.ndarray
        p.grad += 2.0  # assigned back: the same array
        assert p.grad is grad and np.all(grad == 2.0)
        assert not s.has_optimizer_state()
        adadelta_step(s)
        assert s.has_optimizer_state()
        npt.assert_array_equal(p.grad, np.zeros((2, 3)))


def textbook_adadelta(p: Param, rho: float = 0.95, eps: float = 1e-6) -> None:
    """One Adadelta step on one parameter, element by element in Python floats."""
    value, eg2, edx2 = [], [], []
    for x, e, d, g in zip(*(a.reshape(-1).tolist() for a in (p.value, p.eg2, p.edx2, p.grad))):
        e = rho * e + (1.0 - rho) * g * g
        dx = -math.sqrt(d + eps) / math.sqrt(e + eps) * g
        d = rho * d + (1.0 - rho) * dx * dx
        value.append(x + dx)
        eg2.append(e)
        edx2.append(d)
    for arr, new in ((p.value, value), (p.eg2, eg2), (p.edx2, edx2)):
        arr[...] = np.reshape(new, arr.shape)
    p.grad[...] = 0.0


class TestAdadelta:
    @given(st.sampled_from([(83, 200), (16385,), (2, 8192), (3, 5)]), st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_matches_textbook_elementwise(self, shape, seed):
        # tensors larger than, equal to and smaller than one block, with rows that get no gradient
        rng = np.random.default_rng(seed)
        stores = [ParamStore([("big", shape, "zeros"), ("small", (3,), "zeros")]) for _ in range(2)]
        for _ in range(4):
            grads = {name: rng.normal(size=p.value.shape) for name, p in stores[0].items()}
            grads["big"][rng.random(shape[0]) < 0.5] = 0.0
            for s in stores:
                for name, p in s.items():
                    p.grad[...] = grads[name]
            adadelta_step(stores[0])
            for _, p in stores[1].items():
                textbook_adadelta(p)
        for (name, got), (_, want) in zip(*(s.items() for s in stores)):
            for field in ("value", "eg2", "edx2", "grad"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (name, field)

    def test_first_step_magnitude(self):
        s = ParamStore([("w", (3,), "zeros")])
        p = s["w"]
        p.grad[...] = 1.0
        adadelta_step(s)
        npt.assert_allclose(p.value, np.full(3, ADADELTA_FIRST_STEP), rtol=1e-12)
        npt.assert_array_equal(p.grad, np.zeros(3))  # grads consumed

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(6, 4))
        s = ParamStore([("w", (4,), "zeros")])
        p = s["w"]
        # independent reference, written directly from the update equations
        x = np.zeros(4)
        eg2 = np.zeros(4)
        edx2 = np.zeros(4)
        rho, eps = 0.95, 1e-6
        for g in grads:
            eg2 = rho * eg2 + (1 - rho) * g * g
            dx = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
            edx2 = rho * edx2 + (1 - rho) * dx * dx
            x = x + dx
            p.grad[...] = g
            adadelta_step(s)
        npt.assert_allclose(p.value, x, rtol=0, atol=1e-15)

    def test_gradient_descent_on_quadratic(self):
        # minimizing 0.5*(x - 3)^2 must move x toward 3
        s = ParamStore([("x", (1,), "zeros")])
        p = s["x"]
        for _ in range(4000):
            p.grad[...] = p.value - 3.0
            adadelta_step(s)
        assert abs(p.value[0] - 3.0) < 0.05


def per_tensor_adadelta(store: ParamStore, rho: float = 0.95, eps: float = 1e-6) -> None:
    """adadelta_step as it ran before the arena: the same block update, one tensor at a time."""
    buffers = np.empty((2, ndcore._ADADELTA_BLOCK))
    for _, p in store.items():
        value, grad, eg2, edx2 = (a.reshape(-1) for a in (p.value, p.grad, p.eg2, p.edx2))
        for lo in range(0, value.shape[0], ndcore._ADADELTA_BLOCK):
            hi = min(lo + ndcore._ADADELTA_BLOCK, value.shape[0])
            g, e, d = grad[lo:hi], eg2[lo:hi], edx2[lo:hi]
            step, t = buffers[:, : hi - lo]
            e *= rho
            np.multiply(1.0 - rho, g, out=t)
            t *= g
            e += t
            np.add(d, eps, out=step)
            np.sqrt(step, out=step)
            np.add(e, eps, out=t)
            np.sqrt(t, out=t)
            step /= t
            step *= g
            d *= rho
            np.multiply(1.0 - rho, step, out=t)
            t *= step
            d += t
            value[lo:hi] -= step
            g[...] = 0.0


class TestArena:
    KINDS = ("value", "grad", "eg2", "edx2")

    @given(
        st.lists(st.sampled_from([(83, 200), (16385,), (2, 8192), (3, 5), (1,)]), min_size=1, max_size=4),
        st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_adadelta_over_the_arena_matches_the_per_tensor_update(self, shapes, seed):
        # tensors that straddle the arena's blocks, and rows that get no gradient
        rng = np.random.default_rng(seed)
        specs = [(f"t{i}", shape, "glorot") for i, shape in enumerate(shapes)]
        packed, per_tensor = ParamStore(specs, 3), ParamStore(specs, 3)
        for _ in range(3):
            for name, p in per_tensor.items():
                g = rng.normal(size=p.value.shape)
                g[rng.random(g.shape[0]) < 0.3] = 0.0
                p.grad[...] = packed[name].grad[...] = g
            adadelta_step(packed)
            per_tensor_adadelta(per_tensor)
        for name, p in per_tensor.items():
            for kind in self.KINDS:
                assert getattr(packed[name], kind).tobytes() == getattr(p, kind).tobytes(), (name, kind)

    def test_every_tensor_is_a_view_of_its_arenas(self):
        s = ParamStore([("a", (3, 4), "glorot"), ("b", (5,), "glorot"), ("c", (2, 1, 3), "glorot")])
        s["b"].grad  # the first use of a state allocates it for every tensor
        assert s.held("grad") is not None and s.held("eg2") is None
        for kind in self.KINDS:
            flat = s.arena(kind)
            assert flat.shape == (s.n_parameters(),) and flat.dtype == np.float64
            lo = 0
            for _, p in s.items():
                view = getattr(p, kind)
                assert view.base is flat and view.flags.c_contiguous
                assert (view.ctypes.data - flat.ctypes.data) // flat.itemsize == lo  # list order, no gap
                lo += view.size
            assert lo == flat.shape[0]
        s["c"].grad += 2.0  # written through the view, read in the arena
        npt.assert_array_equal(s.arena("grad")[-6:], np.full(6, 2.0))

    def test_assigning_a_state_copies_into_the_arena(self):
        s = ParamStore([("w", (2,), "zeros")])
        p = s["w"]
        p.grad = np.array([1.0, 2.0])
        assert p.grad.base is s.arena("grad")
        npt.assert_array_equal(s.arena("grad"), [1.0, 2.0])


class TestGradCheck:
    def test_detects_correct_gradient(self):
        s = ParamStore([("x", (5,), "glorot")])
        p = s["x"]

        def closure():
            p.grad += 2.0 * p.value  # d/dx sum(x^2)
            return float(np.sum(p.value**2))

        report = grad_check(closure, s, step=1e-5, tolerance=1e-6, coords_per_param=5)
        assert report.passed

    def test_detects_wrong_gradient(self):
        s = ParamStore([("x", (5,), "glorot")])
        p = s["x"]

        def closure():
            p.grad += 3.0 * p.value  # wrong factor
            return float(np.sum(p.value**2))

        report = grad_check(closure, s, step=1e-5, tolerance=1e-4, coords_per_param=5)
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_leaves_values_and_grads_clean(self):
        s = ParamStore([("x", (4,), "glorot")])
        p = s["x"]
        before = p.value.copy()

        def closure():
            p.grad += 2.0 * p.value
            return float(np.sum(p.value**2))

        grad_check(closure, s, coords_per_param=4)
        npt.assert_array_equal(p.value, before)
        npt.assert_array_equal(p.grad, np.zeros(4))


def record(name: bytes, kind: int, values) -> bytes:
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<H", len(name)) + name + struct.pack("<BBI", kind, 1, values.size) + values.tobytes()


def v1_checkpoint(meta: dict, records: list[bytes]) -> bytes:
    """A version-1 file (no checksum), written by hand."""
    meta_b = json.dumps(meta).encode("utf-8")
    return b"NGCKPT01" + struct.pack("<II", 1, len(meta_b)) + meta_b + struct.pack("<I", len(records)) + b"".join(records)


class TestCheckpoint:
    SPECS = [("emb", (6, 3), "embedding"), ("w", (4, 5), "glorot"), ("b", (4,), "zeros")]

    def build_store(self, tensors=None):
        """Three tensors, w with Adadelta state; given a checkpoint's tensors, the store takes them instead."""
        s = ParamStore(self.SPECS, 11, tensors)
        if tensors is None:
            s["w"].eg2[...] = 0.25
            s["w"].edx2[...] = 0.5
        return s

    def test_bit_exact_round_trip(self, tmp_path):
        s = self.build_store()
        meta = {"kind": "test", "vocab": {"a": 2}}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, s, meta)
        meta2, tensors = load_checkpoint(path, optimizer_state=True)
        assert meta2 == meta
        fresh = self.build_store(tensors)
        for name, p in s.items():
            npt.assert_array_equal(fresh[name].value, p.value)
            npt.assert_array_equal(fresh[name].eg2, p.eg2)
            npt.assert_array_equal(fresh[name].edx2, p.edx2)

    def test_state_never_used_saves_zero_records(self, tmp_path):
        lazy, eager = ParamStore(self.SPECS, 11), ParamStore(self.SPECS, 11)
        eager["emb"].eg2[...] += 0.0  # reading allocates the arena: zeros
        eager["b"].edx2[...] += 0.0
        save_checkpoint(tmp_path / "lazy.ckpt", lazy, {"k": 1})
        save_checkpoint(tmp_path / "eager.ckpt", eager, {"k": 1})
        assert lazy.held("eg2") is None and lazy.held("edx2") is None
        assert (tmp_path / "lazy.ckpt").read_bytes() == (tmp_path / "eager.ckpt").read_bytes()

    def test_optimizer_state_is_copied_only_when_asked(self, tmp_path):
        s = self.build_store()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, s, {})
        _, values = load_checkpoint(path)
        _, everything = load_checkpoint(path, optimizer_state=True)
        assert all(rec.keys() == {"value"} for rec in values.values())
        assert all(rec.keys() == {"value", "eg2", "edx2"} for rec in everything.values())
        weights = self.build_store(values)
        assert all(weights.held(kind) is None for kind in ("grad", "eg2", "edx2"))
        resumed = self.build_store(everything)
        for name, p in s.items():
            npt.assert_array_equal(weights[name].value, p.value)
            npt.assert_array_equal(resumed[name].value, p.value)
            npt.assert_array_equal(resumed[name].eg2, p.eg2)
            npt.assert_array_equal(resumed[name].edx2, p.edx2)

    @pytest.mark.parametrize("order", [("emb", "w", "b"), ("b", "emb", "w")], ids=["file-order", "other-order"])
    def test_a_store_built_from_a_checkpoint_packs_its_arrays(self, tmp_path, order):
        # in the file's order the loaded arrays become the arenas; in another they are copied into new ones
        s = self.build_store()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, s, {})
        _, tensors = load_checkpoint(path, optimizer_state=True)
        specs = [(name, s[name].value.shape, "zeros") for name in order]
        loaded = ParamStore(specs, 0, {name: tensors[name] for name in order})
        for kind in ("value", "eg2", "edx2"):
            adopted = all(getattr(loaded[name], kind).base is tensors[name][kind].base for name in order)
            assert adopted == (order == ("emb", "w", "b")), kind
            for name in order:
                assert getattr(loaded[name], kind).tobytes() == getattr(s[name], kind).tobytes(), (name, kind)

    def test_a_store_built_from_a_checkpoint_draws_nothing(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        loaded = self.build_store(load_checkpoint(path)[1])
        assert loaded._rng is None
        assert self.build_store()._rng is not None

    def test_unused_checkpoint_tensor_fails_when_the_store_packs(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        with pytest.raises(CheckpointError, match=r"unknown parameters: \['b', 'w'\]"):
            ParamStore([("emb", (6, 3), "zeros")], 0, load_checkpoint(path)[1])

    @pytest.mark.parametrize("read_buffer", [7, 1 << 22])
    def test_checksum_pass_reads_through_one_buffer(self, tmp_path, monkeypatch, read_buffer):
        # a buffer of a few bytes takes many reads, the default one; both see every byte
        monkeypatch.setattr(ndcore, "_READ_BUFFER", read_buffer)
        s = self.build_store()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, s, {"k": 1})
        _, tensors = load_checkpoint(path, optimizer_state=True)
        for name, p in s.items():
            assert tensors[name]["value"].tobytes() == p.value.tobytes()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("optimizer_state", [False, True])
    def test_state_record_shaped_unlike_its_value(self, tmp_path, optimizer_state):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(v1_checkpoint({}, [record(b"w", 0, [1.0, 2.0]), record(b"w", 1, [0.5])]))
        with pytest.raises(CheckpointError, match=r"'w' has eg2 shape \(1,\) but value shape \(2,\)"):
            load_checkpoint(path, optimizer_state=optimizer_state)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, self.build_store(), {"epoch": 1})
        before = path.read_bytes()
        real_chunks = ndcore._record_chunks
        passes = []

        def chunks(store):
            passes.append(1)
            for i, chunk in enumerate(real_chunks(store)):
                if len(passes) == 2 and i == 3:  # the checksum pass ran; fail part way through writing
                    raise OSError("disk full")
                yield chunk

        monkeypatch.setattr(ndcore, "_record_chunks", chunks)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, self.build_store(), {"epoch": 2})
        assert path.read_bytes() == before
        assert load_checkpoint(path)[0] == {"epoch": 1}
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind

    def test_same_store_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, self.build_store(), {"k": 1})
        save_checkpoint(p2, self.build_store(), {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_meta_len_past_end(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {"k": 1})
        blob = bytearray(path.read_bytes())
        blob[12:16] = struct.pack("<I", 10**6)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="m.ckpt: truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("first_meta_byte", [b"\xff", b"x"])
    def test_metadata_not_utf8_or_not_json(self, tmp_path, first_meta_byte):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {"k": 1})
        blob = path.read_bytes()
        path.write_bytes(blob[:16] + first_meta_byte + blob[17:])
        with pytest.raises(CheckpointError, match="m.ckpt: unreadable metadata"):
            load_checkpoint(path)

    def test_corrupt_payload_fails_the_checksum(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {"k": 1})
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_checksum_key_is_reserved(self, tmp_path):
        with pytest.raises(ValueError, match="crc32"):
            save_checkpoint(tmp_path / "m.ckpt", self.build_store(), {"crc32": 1})

    def test_version_1_files_load(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(v1_checkpoint({"k": 1}, [record(b"w", 0, [1.5, -2.0])]))
        meta, tensors = load_checkpoint(path)
        assert meta == {"k": 1}
        npt.assert_array_equal(tensors["w"]["value"], [1.5, -2.0])

    @pytest.mark.parametrize(
        "records, message",
        [
            ([record(b"\xffw", 0, [1.0])], "undecodable tensor name"),
            ([record(b"w", 7, [1.0])], "unknown kind byte 7"),
            ([record(b"w", 0, [1.0]), record(b"w", 0, [2.0])], "two value records"),
            ([record(b"w", 1, [1.0])], "no value record"),
        ],
    )
    def test_malformed_records(self, tmp_path, records, message):
        path = tmp_path / "v1.ckpt"
        path.write_bytes(v1_checkpoint({}, records))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_bytes(v1_checkpoint({}, [record(b"w", 0, [1.0])]) + b"\x00\x00")
        with pytest.raises(CheckpointError, match="2 trailing bytes"):
            load_checkpoint(path)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncation_or_byte_flip_loads_identically_or_raises(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(path, self.build_store(), {"kind": "test", "note": "\u00e9t\u00e9"})
        blob = path.read_bytes()
        expected = load_checkpoint(path, optimizer_state=True)
        if data.draw(st.booleans(), label="truncate"):
            corrupt = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="at")
            corrupt = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255), label="xor")]) + blob[at + 1 :]
        path.write_bytes(corrupt)
        loads = []
        for optimizer_state in (True, False):
            try:
                loads.append(load_checkpoint(path, optimizer_state=optimizer_state))
            except CheckpointError:
                loads.append(None)
        # skipping the optimizer records skips none of the checks
        assert (loads[0] is None) == (loads[1] is None)
        if loads[0] is None:
            return
        (meta, tensors), (values_meta, values) = loads
        assert meta == values_meta == expected[0]
        assert tensors.keys() == values.keys() == expected[1].keys()
        for name, rec in tensors.items():
            assert rec.keys() == expected[1][name].keys()
            for kind, arr in rec.items():
                assert arr.tobytes() == expected[1][name][kind].tobytes()
            assert values[name].keys() == {"value"}
            assert values[name]["value"].tobytes() == rec["value"].tobytes()

    def test_shape_mismatch_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        _, tensors = load_checkpoint(path)
        with pytest.raises(CheckpointError, match=r"'w': checkpoint shape \(4, 5\) != model shape \(4, 9\)"):
            ParamStore([("emb", (6, 3), "zeros"), ("w", (4, 9), "zeros"), ("b", (4,), "zeros")], 0, tensors)

    def test_missing_parameter_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        _, tensors = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="missing parameter 'extra'"):
            ParamStore([*self.SPECS, ("extra", (2,), "zeros")], 0, tensors)

    @pytest.mark.parametrize(
        "specs, message",
        [
            ([("emb", (6, 3)), ("extra", (2,)), ("w", (4, 9))], "missing parameter 'extra'"),
            ([("emb", (6, 3)), ("w", (4, 9)), ("extra", (2,))], r"'w': checkpoint shape"),
            ([("emb", (6, 3)), ("w", (4, 5))], r"unknown parameters: \['b'\]"),
        ],
        ids=["missing-before-shape", "shape-before-missing", "unknown-last"],
    )
    def test_checkpoint_errors_keep_their_precedence(self, tmp_path, specs, message):
        # the listed tensors in list order, each missing or misshapen; then the checkpoint's unlisted ones
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self.build_store(), {})
        with pytest.raises(CheckpointError, match=message):
            ParamStore([(name, shape, "zeros") for name, shape in specs], 0, load_checkpoint(path)[1])
