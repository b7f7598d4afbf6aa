from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import nuggetnet.encoder as nencoder
import nuggetnet.model as nmodel
from nuggetnet.corpus import PAD_ID, build_vocab
from nuggetnet.encoder import (
    _CALL_ELEMENTS,
    BRANCH_PREFIXES,
    ExtractorConfig,
    HybridMode,
    _pooled_at,
    branch_backward,
    extract_branch,
    fuse,
    fuse_backward,
    load_embeddings_file,
    register_encoder_params,
)
from nuggetnet.errors import ConfigError, ShapeError
from nuggetnet.model import ModelConfig, _backward_rows, _branch_rows, _view_starts
from nuggetnet.ndcore import ParamStore, conv1d, grad_check, sigmoid, split_argmax, split_max_pool

from branch_reference import reference_branch, reference_view
from util import small_extractor, small_model, toy_corpus, widen_params


def branch_store(config, n_tokens=12, seed=3, widen=True):
    store = ParamStore(seed)
    store.add("char.tok_emb", (n_tokens, config.token_emb_dim), init="embedding")
    store.add("char.pos_emb", (config.n_positions, config.pos_emb_dim), init="embedding")
    store.add("char.conv_w", (config.n_filters, config.window * config.input_dim), init="glorot")
    store.add("char.conv_b", (config.n_filters,), init="zeros")
    store.add("char.proj_w", (config.proj_dim, config.feature_dim), init="glorot")
    store.add("char.proj_b", (config.proj_dim,), init="zeros")
    if widen:
        widen_params(store)
    return store


class TestExtractorConfig:
    def test_dims(self):
        cfg = small_extractor()
        assert cfg.input_dim == 11
        assert cfg.feature_dim == 2 * 6 + 3 * 8
        assert cfg.n_positions == 21

    def test_fused_dim_by_mode(self):
        assert small_extractor(hybrid_mode=HybridMode.CONCAT).fused_dim == 20
        assert small_extractor(hybrid_mode=HybridMode.GENERAL).fused_dim == 10
        assert small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC).fused_dim == 10
        assert small_extractor(use_words=False).fused_dim == 10

    def test_accepts_mode_strings(self):
        assert small_extractor(hybrid_mode="concat").hybrid_mode is HybridMode.CONCAT

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            small_extractor(n_filters=0)
        with pytest.raises(ConfigError):
            small_extractor(use_chars=False, use_words=False)
        with pytest.raises(ConfigError):
            small_extractor(dropout=1.0)
        with pytest.raises(ConfigError, match="hybrid_mode must be one of"):
            small_extractor(hybrid_mode="nonsense")

    def test_json_round_trip(self):
        cfg = small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC, dropout=0.25)
        assert ExtractorConfig.from_json(cfg.to_json()) == cfg


class TestRegistration:
    def test_both_branches_and_gates(self):
        corpus = toy_corpus()
        vocab = build_vocab(corpus, max_rel_dist=10)
        store = ParamStore(0)
        register_encoder_params(store, small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC), vocab)
        names = store.names()
        for prefix in BRANCH_PREFIXES:
            assert f"{prefix}.tok_emb" in names and f"{prefix}.proj_w" in names
        assert "fuse.nugget.gate_w_char" in names and "fuse.type.gate_w_word" in names

    def test_concat_needs_no_gates(self):
        vocab = build_vocab(toy_corpus(), max_rel_dist=10)
        store = ParamStore(0)
        register_encoder_params(store, small_extractor(hybrid_mode=HybridMode.CONCAT), vocab)
        assert not any(n.startswith("fuse.") for n in store.names())

    def test_rel_dist_mismatch_rejected(self):
        vocab = build_vocab(toy_corpus(), max_rel_dist=5)
        with pytest.raises(ConfigError, match="max_rel_dist"):
            register_encoder_params(ParamStore(0), small_extractor(max_rel_dist=10), vocab)


def one_sequence(store, ids, centers, cfg):
    return extract_branch(store, "char", [(np.array(ids), np.array(centers))], cfg)


def extract_with_terms(store, segments, cfg):
    """A training extract_branch call's cache and the arguments it pooled with.

    Those are (token term, offset term, centers' rows, segment starts, segment ends), as the call's one
    split_argmax call received them; the cache keeps neither term.
    """
    with mock.patch.object(nencoder, "split_argmax", wraps=split_argmax) as spy:
        cache = extract_branch(store, "char", segments, cfg)
    (args, _), = spy.call_args_list
    return cache, args


def n_segments(branch):
    """Segments of a branch's kernel call: each has at least one center, each center one segment start."""
    return len(set(branch.cache.lo.tolist()))


def per_center_only(cache):
    """Whether every array a cache keeps is 1-d or one row per center: no (rows x filters) map."""
    k = cache.fp.shape[0]
    return all(value is None or value.ndim == 1 or value.shape[0] == k for value in vars(cache).values())


class TestExtractBranch:
    def test_feature_shape_and_projection(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        cache = one_sequence(store, [2, 3, 4, 5, 6], [2], cfg)
        assert cache.feature.shape == (1, cfg.feature_dim)
        assert cache.fp.shape == (1, cfg.proj_dim)
        assert cache.padded_ids.shape == (5 + cfg.window - 1,)  # one conv column per token

    def test_padding_keeps_columns_aligned(self):
        # the filter reads only the center slot's token dim 0, so column j holds token j's value
        cfg = small_extractor(n_filters=1, token_emb_dim=2, pos_emb_dim=1, proj_dim=2)
        store = branch_store(cfg, widen=False)
        w = store["char.conv_w"]
        w.value[...] = 0.0
        w.value[0, cfg.input_dim] = 1.0  # center slot, token embedding dim 0
        emb = store["char.tok_emb"]
        emb.value[...] = 0.0
        emb.value[5, 0] = 0.7
        cache = one_sequence(store, [2, 5, 3], [0, 1, 2], cfg)
        t = np.tanh(0.7)
        # (left, right) pools: center 0 has no left side, center 2 sees 0.7 on its left only
        npt.assert_allclose(cache.feature[:, :2], [[0.0, t], [0.0, t], [t, 0.0]], atol=1e-15)
        cols = cache.arg_rows
        npt.assert_array_equal(cols[:, 1], [1, 1, 2])  # right argmax columns
        assert cols[2, 0] == 1  # left argmax column of center 2

    def test_lexical_window_pads_out_of_range(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        cache = one_sequence(store, [2, 3, 4], [0, 2], cfg)
        npt.assert_array_equal(cache.lex_ids, [[PAD_ID, 2, 3], [3, 4, PAD_ID]])

    def test_single_token_sequence(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        cache = one_sequence(store, [2], [0], cfg)
        assert cache.padded_ids.shape == (cfg.window,)
        assert cache.centers[0] == cache.lo[0]  # no left context to pool
        npt.assert_array_equal(cache.arg_rows[0, : cfg.n_filters], 0)  # the empty pool points at row lo
        npt.assert_array_equal(cache.feature[0, : cfg.n_filters], np.zeros(cfg.n_filters))

    def test_decode_keeps_no_filter_map(self):
        # past max_tokens most centers read a view of their own: without a backward pass a cache keeps
        # per-center rows and the convolutions' input rows, but no (rows x filters) map of its views
        cfg = small_extractor()
        store = branch_store(cfg, n_tokens=140)
        config = ModelConfig(extractor=cfg, max_tokens=16)
        n = 80
        groups = [(np.arange(2, 2 + n), np.arange(n), np.arange(n))]
        branch = _branch_rows(store, config, "char", groups, for_backward=False)
        assert n_segments(branch) == len(set(_view_starts(n, np.arange(n), 16).tolist())) > n // 2
        assert per_center_only(branch.cache) and branch.cache.arg_rows is None
        npt.assert_array_equal(branch.fp, _branch_rows(store, config, "char", groups).fp)

    def test_training_keeps_no_filter_map(self):
        # a training cache keeps each pooled value's argmax row, but neither term past the forward pass
        cfg = small_extractor()
        store = branch_store(cfg, n_tokens=140)
        config = ModelConfig(extractor=cfg, max_tokens=16)
        groups = [(np.arange(2, 82), np.arange(80), np.arange(80)), (np.arange(2, 12), np.arange(10), np.arange(80, 90))]
        branch = _branch_rows(store, config, "char", groups)
        assert n_segments(branch) > 10
        assert per_center_only(branch.cache)
        assert branch.cache.arg_rows.shape == (branch.cache.fp.shape[0], 2 * cfg.n_filters)

    def test_center_out_of_range(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        with pytest.raises(ShapeError):
            one_sequence(store, [2, 3], [2], cfg)
        with pytest.raises(ShapeError):
            one_sequence(store, np.array([], dtype=np.int64), [0], cfg)
        with pytest.raises(ShapeError):
            extract_branch(store, "char", [], cfg)

    def test_no_centers_rejected(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        with pytest.raises(ShapeError, match="no centers"):
            extract_branch(store, "char", [([2, 3, 4], []), ([5, 6], [])], cfg)

    def test_segments_match_separate_calls(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        a = ([2, 3, 4, 5, 6, 7, 8], [0, 3, 6])
        b = ([9, 10, 11], [2, 1])
        both = extract_branch(store, "char", [a, b], cfg)
        alone = np.concatenate([one_sequence(store, *seg, cfg).fp for seg in (a, b)])
        npt.assert_allclose(both.fp, alone, rtol=0, atol=1e-14)

    def test_branch_backward_matches_finite_differences(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        segments = [(np.array([2, 3, 4, 5, 6, 7]), np.array([3, 0, 5])), (np.array([8, 9]), np.array([1]))]
        target = np.arange(4 * cfg.proj_dim, dtype=np.float64).reshape(4, -1) / 10

        def closure():
            cache = extract_branch(store, "char", segments, cfg)
            loss = 0.5 * float(np.sum((cache.fp - target) ** 2))
            branch_backward(store, "char", cache, cache.fp - target, cfg)
            return loss

        report = grad_check(closure, store, step=1e-5, tolerance=1e-5, coords_per_param=6, rng_seed=2)
        assert report.passed, report.summary()


@st.composite
def kernel_cases(draw, max_len=130):
    """A small extractor, a sequence of distinct tokens (no exact pooling ties) and some centers."""
    cfg = small_extractor(
        token_emb_dim=3,
        pos_emb_dim=2,
        n_filters=4,
        proj_dim=5,
        window=draw(st.integers(1, 5)),
        lex_window=draw(st.integers(0, 2)),
        max_rel_dist=draw(st.integers(1, 8)),
    )
    n = draw(st.integers(1, max_len))
    seed = draw(st.integers(0, 2**16))
    ids = np.random.default_rng(seed).permutation(np.arange(2, 140))[:n]
    centers = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    return cfg, ids, centers, seed


@st.composite
def segment_cases(draw):
    """A small extractor whose lexical window reaches past the conv padding, and mixed-length segments."""
    window = draw(st.integers(1, 5))
    cfg = small_extractor(
        token_emb_dim=3,
        pos_emb_dim=2,
        n_filters=4,
        proj_dim=5,
        window=window,
        lex_window=(window - 1) // 2 + draw(st.integers(1, 2)),
        max_rel_dist=draw(st.integers(1, 8)),
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    segments = []
    for i, n in enumerate(draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))):
        # later segments may have no centers: their tokens still sit between the others'
        centers = draw(st.lists(st.integers(0, n - 1), min_size=int(i == 0), max_size=4, unique=True))
        segments.append((rng.permutation(np.arange(2, 140))[:n], np.array(centers, dtype=np.int64)))
    return cfg, segments, seed


class TestKernelMatchesReference:
    """The split kernel against the per-center formula it replaced (tests/branch_reference.py)."""

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_pooled_values_argmax_and_features(self, case):
        cfg, ids, centers, seed = case
        centers = list(dict.fromkeys(centers))  # the kernel takes distinct centers, in any order
        store = branch_store(cfg, n_tokens=140, seed=seed)
        cache = one_sequence(store, ids, centers, cfg)
        cols = cache.arg_rows
        m = cfg.n_filters
        for i, c in enumerate(centers):
            ref = reference_branch(store, "char", ids, c, cfg)
            npt.assert_array_equal(cols[i, m:], ref.right_arg)
            if c > 0:
                npt.assert_array_equal(cols[i, :m], ref.left_arg)
            npt.assert_allclose(cache.feature[i], ref.feature, rtol=0, atol=1e-12)
            npt.assert_allclose(cache.fp[i], ref.fp, rtol=0, atol=1e-12)

    @given(segment_cases())
    @settings(max_examples=60, deadline=None)
    def test_one_pass_over_segments(self, case):
        # one call pools every segment's centers; each must see only its own segment
        cfg, segments, seed = case
        store = branch_store(cfg, n_tokens=140, seed=seed)
        cache, (token_term, offset_term, *rows) = extract_with_terms(store, segments, cfg)
        left, right = split_max_pool(token_term, offset_term, *rows)
        left_arg, right_arg = split_argmax(token_term, offset_term, *rows)
        cols = np.concatenate([left_arg, right_arg], axis=1)
        npt.assert_array_equal(cache.arg_rows, cols)
        m = cfg.n_filters

        # the pooled values are the maps' elements at the argmax rows, bit for bit; an empty left pool is 0 at lo
        filters = np.tile(np.arange(m), 2)
        offsets = cols - cache.centers[:, None] + (offset_term.shape[0] - 1) // 2
        gathered = token_term[cols, filters] + offset_term[offsets, filters]
        empty_left = cache.centers == cache.lo
        gathered[empty_left, :m] = 0.0
        npt.assert_array_equal(np.concatenate([left, right], axis=1).view(np.int64), gathered.view(np.int64))
        assert np.all(left_arg[empty_left] == cache.lo[empty_left, None])
        starts = np.cumsum([0] + [ids.shape[0] + cfg.window - 1 for ids, _ in segments])
        row = 0
        for (ids, centers), start in zip(segments, starts):
            for c in centers.tolist():
                ref = reference_branch(store, "char", ids, c, cfg)
                npt.assert_array_equal(cols[row, m:] - start, ref.right_arg)
                if c > 0:
                    npt.assert_array_equal(cols[row, :m] - start, ref.left_arg)
                npt.assert_allclose(cache.feature[row], ref.feature, rtol=0, atol=1e-12)
                npt.assert_allclose(cache.fp[row], ref.fp, rtol=0, atol=1e-12)
                row += 1
        assert row == cache.fp.shape[0]

    @given(segment_cases())
    @settings(max_examples=60, deadline=None)
    def test_training_gathers_the_pooled_values(self, case):
        # training takes the values at split_argmax's rows instead of calling split_max_pool: the same bits
        cfg, segments, seed = case
        store = branch_store(cfg, n_tokens=140, seed=seed)
        cache, (token_term, offset_term, centers, lo, hi) = extract_with_terms(store, segments, cfg)
        pooled = _pooled_at(token_term, offset_term, centers, lo, cache.arg_rows)
        expected = np.concatenate(split_max_pool(token_term, offset_term, centers, lo, hi), axis=1)
        npt.assert_array_equal(pooled.view(np.int64), expected.view(np.int64))
        assert np.all(pooled[centers == lo, : cfg.n_filters] == 0.0)
        decoded = extract_branch(store, "char", segments, cfg, for_backward=False)
        npt.assert_array_equal(cache.feature.view(np.int64), decoded.feature.view(np.int64))
        npt.assert_array_equal(cache.fp.view(np.int64), decoded.fp.view(np.int64))

    @given(kernel_cases(), st.sampled_from([5, 16, 120]))
    @settings(max_examples=40, deadline=None)
    def test_views_of_long_sequences(self, case, max_tokens):
        cfg, ids, centers, seed = case
        store = branch_store(cfg, n_tokens=140, seed=seed)
        config = ModelConfig(extractor=cfg, max_tokens=max_tokens)
        rows = np.arange(len(centers))
        branch = _branch_rows(store, config, "char", [(ids, np.array(centers), rows)])
        for row, c in enumerate(centers):
            ref = reference_view(store, "char", ids, c, cfg, max_tokens)
            npt.assert_allclose(branch.fp[row], ref.fp, rtol=0, atol=1e-12)

    def test_grad_check_over_sentences_and_views(self):
        cfg = small_extractor(window=3, lex_window=1, max_rel_dist=4)
        store = branch_store(cfg, n_tokens=20, seed=5)
        config = ModelConfig(extractor=cfg, max_tokens=6)
        long_ids = np.arange(2, 13)  # 11 tokens: centers 0, 5, 7 and 10 read four different views
        groups = [
            (long_ids, np.array([0, 5, 5, 7, 10]), np.array([0, 2, 3, 5, 6])),
            (np.array([14, 15, 16, 17]), np.array([1, 2]), np.array([1, 4])),
        ]
        target = np.linspace(-0.5, 0.5, 7 * cfg.proj_dim).reshape(7, -1)

        def closure():
            branch = _branch_rows(store, config, "char", groups)
            loss = 0.5 * float(np.sum((branch.fp - target) ** 2))
            _backward_rows(store, config, branch, branch.fp - target)
            return loss

        branch = _branch_rows(store, config, "char", groups)
        npt.assert_array_equal(_view_starts(11, np.array([0, 5, 7, 10]), 6), [0, 2, 4, 5])
        # one segment per view of the long sentence, one for the short one, all in the branch's one call
        assert n_segments(branch) == 5
        assert branch.cache.fp.shape[0] == 6  # the repeated center is computed once
        report = grad_check(closure, store, step=1e-5, tolerance=1e-5, coords_per_param=6, rng_seed=3)
        assert report.passed, report.summary()


def chunk_views(views, token_convs, window):
    """The views of each chunk, read off the rows of each chunk's token convolution (views plus their pads)."""
    chunks, i = [], 0
    for rows in token_convs:
        chunk = []
        while sum(chunk) + (window - 1) * len(chunk) < rows:
            chunk.append(views[i])
            i += 1
        assert sum(chunk) + (window - 1) * len(chunk) == rows
        chunks.append(chunk)
    assert i == len(views)
    return chunks


@given(
    st.sampled_from([6, 40, 300]),
    st.lists(st.integers(1, 250), min_size=1, max_size=6),
    st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_call_passes_the_element_budget_only_with_one_view(n_filters, lengths, seed):
    # a branch is one kernel call; its chunks take segments until their token term would pass
    # _CALL_ELEMENTS, and only a lone view may pass it
    cfg = small_extractor(token_emb_dim=3, pos_emb_dim=2, n_filters=n_filters, proj_dim=5)
    store = branch_store(cfg, n_tokens=140, seed=seed, widen=False)
    config = ModelConfig(extractor=cfg, max_tokens=120)
    rng = np.random.default_rng(seed)
    groups, row = [], 0
    for n in lengths:
        centers = rng.choice(n, size=min(n, 6), replace=False)
        groups.append((rng.integers(2, 140, size=n), centers, np.arange(row, row + centers.shape[0])))
        row += centers.shape[0]
    with (
        mock.patch.object(nmodel, "extract_branch", wraps=extract_branch) as spy,
        mock.patch.object(nencoder, "conv1d", wraps=conv1d) as convs,
    ):
        _branch_rows(store, config, "char", groups)
    (call,) = spy.call_args_list
    views = [ids.shape[0] for ids, _ in call.args[2]]
    assert len(views) == sum(len(set(_view_starts(len(g[0]), g[1], 120).tolist())) for g in groups)
    # the first convolution is the offset term's, once per call; every later one is a chunk's token term
    sizes = chunk_views(views, [c.args[0].shape[0] for c in convs.call_args_list[1:]], cfg.window)
    for chunk in sizes:
        assert sum(chunk) * n_filters <= _CALL_ELEMENTS or len(chunk) == 1, chunk
    for chunk, following in zip(sizes, sizes[1:]):  # no chunk closes before the budget makes it
        assert (sum(chunk) + following[0]) * n_filters > _CALL_ELEMENTS


class TestChunks:
    """A branch cut into chunks computes what one chunk computes, with one projection."""

    def sentences(self):
        cfg = small_extractor(window=3, lex_window=1, max_rel_dist=4)
        store = branch_store(cfg, n_tokens=20, seed=5)
        config = ModelConfig(extractor=cfg, max_tokens=6)
        groups = [
            (np.arange(2, 13), np.array([0, 5, 5, 7, 10]), np.array([0, 2, 3, 5, 6])),
            (np.array([14, 15, 16, 17]), np.array([1, 2]), np.array([1, 4])),
        ]
        return store, config, groups

    def test_one_projection_matmul_per_branch(self, monkeypatch):
        # the forward multiplies by proj_w once and the backward by each of its two column blocks once
        # (pooled and lexical features), whatever the chunk count
        monkeypatch.setattr(nencoder, "_CALL_ELEMENTS", 1)  # every segment a chunk of its own
        store, config, groups = self.sentences()
        matmuls = []

        class Counting(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                matmuls.append(ufunc.__name__)
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        proj_w = store["char.proj_w"]
        proj_w.value = proj_w.value.view(Counting)
        with mock.patch.object(nencoder, "conv1d", wraps=conv1d) as convs:
            branch = _branch_rows(store, config, "char", groups)
        assert convs.call_count - 1 == n_segments(branch) == 5  # one token convolution per chunk
        assert matmuls == ["matmul"]
        matmuls.clear()
        _backward_rows(store, config, branch, np.ones_like(branch.fp))
        assert matmuls == ["matmul", "matmul"]

    def test_grad_check_over_chunks(self, monkeypatch):
        store, config, groups = self.sentences()
        target = np.linspace(-0.5, 0.5, 7 * config.extractor.proj_dim).reshape(7, -1)

        def closure():
            branch = _branch_rows(store, config, "char", groups)
            loss = 0.5 * float(np.sum((branch.fp - target) ** 2))
            _backward_rows(store, config, branch, branch.fp - target)
            return loss

        closure()
        whole = {name: p.grad.copy() for name, p in store.items()}
        fp = _branch_rows(store, config, "char", groups).fp
        store.zero_grads()
        monkeypatch.setattr(nencoder, "_CALL_ELEMENTS", 1)  # five chunks, one per segment
        with mock.patch.object(nencoder, "conv1d", wraps=conv1d) as convs:
            closure()
        assert convs.call_count - 1 == 5
        for name, p in store.items():
            npt.assert_allclose(p.grad, whole[name], rtol=1e-12, atol=1e-15, err_msg=name)
        npt.assert_allclose(_branch_rows(store, config, "char", groups).fp, fp, rtol=0, atol=1e-14)
        report = grad_check(closure, store, step=1e-5, tolerance=1e-5, coords_per_param=6, rng_seed=3)
        assert report.passed, report.summary()


class TestFusion:
    def gate_store(self, d, seed=4):
        store = ParamStore(seed)
        for scope in ("fuse", "fuse.nugget", "fuse.type"):
            store.add(f"{scope}.gate_w_char", (d, d), init="glorot")
            store.add(f"{scope}.gate_w_word", (d, d), init="glorot")
            store.add(f"{scope}.gate_b", (d,), init="zeros")
        return store

    def test_concat_stacks_branches(self):
        cfg = small_extractor(hybrid_mode=HybridMode.CONCAT)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        cache = fuse(ParamStore(0), cfg, a, b)
        npt.assert_array_equal(cache.f_nugget, np.concatenate([a, b]))
        assert cache.f_nugget is cache.f_type

    def test_general_is_convex_combination(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=10), rng.normal(size=10)
        cache = fuse(store, cfg, a, b)
        z = cache.gates["shared"]
        npt.assert_allclose(cache.f_nugget, z * a + (1 - z) * b, atol=1e-15)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(cache.f_nugget >= lo - 1e-12) and np.all(cache.f_nugget <= hi + 1e-12)

    def test_gate_saturation_selects_one_branch(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        store["fuse.gate_b"].value[...] = 60.0  # sigmoid(60) == 1.0 in float64
        store["fuse.gate_w_char"].value[...] = 0.0
        store["fuse.gate_w_word"].value[...] = 0.0
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=10), rng.normal(size=10)
        npt.assert_allclose(fuse(store, cfg, a, b).f_nugget, a, atol=1e-12)
        store["fuse.gate_b"].value[...] = -60.0
        npt.assert_allclose(fuse(store, cfg, a, b).f_nugget, b, atol=1e-12)

    def test_zero_gate_inputs_give_midpoint(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        store["fuse.gate_w_char"].value[...] = 0.0
        store["fuse.gate_w_word"].value[...] = 0.0
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=10), rng.normal(size=10)
        npt.assert_allclose(fuse(store, cfg, a, b).f_nugget, (a + b) / 2, atol=1e-15)

    def test_equal_branches_pass_through(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        widen_params(store)
        a = np.random.default_rng(4).normal(size=10)
        npt.assert_allclose(fuse(store, cfg, a, a.copy()).f_nugget, a, atol=1e-12)

    def test_task_specific_gates_differ(self):
        cfg = small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC)
        store = self.gate_store(10)
        widen_params(store)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=10), rng.normal(size=10)
        cache = fuse(store, cfg, a, b)
        assert not np.allclose(cache.f_nugget, cache.f_type)
        z_n = cache.gates["nugget"]
        npt.assert_allclose(cache.f_nugget, z_n * a + (1 - z_n) * b, atol=1e-14)

    def test_single_branch_passthrough(self):
        cfg = small_extractor(use_words=False, hybrid_mode=HybridMode.TASK_SPECIFIC)
        a = np.random.default_rng(6).normal(size=10)
        cache = fuse(ParamStore(0), cfg, a, None)
        npt.assert_array_equal(cache.f_nugget, a)
        da, db = fuse_backward(ParamStore(0), cfg, cache, np.ones((1, 10)), 2 * np.ones((1, 10)))
        npt.assert_array_equal(da, 3 * np.ones((1, 10)))
        assert db is None

    @pytest.mark.parametrize("mode", list(HybridMode))
    def test_fusion_backward_matches_finite_differences(self, mode):
        cfg = small_extractor(hybrid_mode=mode)
        store = self.gate_store(10)
        widen_params(store)
        rng = np.random.default_rng(7)
        pa = store.add("inputs.a", (3, 10))
        pb = store.add("inputs.b", (3, 10))
        pa.value[...] = rng.normal(size=(3, 10))
        pb.value[...] = rng.normal(size=(3, 10))
        t_n = rng.normal(size=(3, cfg.fused_dim))
        t_t = rng.normal(size=(3, cfg.fused_dim))

        def closure():
            cache = fuse(store, cfg, pa.value, pb.value)
            loss = 0.5 * float(np.sum((cache.f_nugget - t_n) ** 2) + np.sum((cache.f_type - t_t) ** 2))
            da, db = fuse_backward(store, cfg, cache, cache.f_nugget - t_n, cache.f_type - t_t)
            pa.grad += da
            pb.grad += db
            return loss

        report = grad_check(closure, store, step=1e-4, tolerance=1e-4, coords_per_param=8, rng_seed=8)
        assert report.passed, report.summary()

    def test_rows_equal_single_vectors(self):
        cfg = small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC)
        store = self.gate_store(10)
        widen_params(store)
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(4, 10)), rng.normal(size=(4, 10))
        rows = fuse(store, cfg, a, b)
        for i in range(4):
            single = fuse(store, cfg, a[i], b[i])
            npt.assert_allclose(rows.f_nugget[i], single.f_nugget, rtol=0, atol=1e-15)
            npt.assert_allclose(rows.f_type[i], single.f_type, rtol=0, atol=1e-15)


class TestDropout:
    def test_off_by_default_and_deterministic_inference(self, corpus3):
        model = small_model(corpus3)
        p1 = model.char_distributions(model.encode_sentence(corpus3[0]), 2)
        p2 = model.char_distributions(model.encode_sentence(corpus3[0]), 2)
        npt.assert_array_equal(p1[0], p2[0])
        npt.assert_array_equal(p1[1], p2[1])

    def test_training_masks_are_seeded(self, corpus3):
        model = small_model(corpus3, dropout=0.5)
        enc = model.encode_sentence(corpus3[0])
        f1 = model._forward([(enc, 1)], np.random.default_rng(9))
        f2 = model._forward([(enc, 1)], np.random.default_rng(9))
        npt.assert_array_equal(f1.f_nugget, f2.f_nugget)
        assert f1.masks is not None
        f3 = model._forward([(enc, 1)], np.random.default_rng(10))
        assert not np.array_equal(f1.masks[0], f3.masks[0])

    def test_masks_drawn_row_by_row(self, corpus3):
        # each row draws its nugget mask, then its type mask, as one instance at a time would
        model = small_model(corpus3, dropout=0.5)
        enc_a, enc_b = (model.encode_sentence(s) for s in corpus3[:2])
        fwd = model._forward([(enc_a, 1), (enc_b, 0), (enc_a, 3)], np.random.default_rng(11))
        rng = np.random.default_rng(11)
        d = model.config.extractor.fused_dim
        for row in range(3):
            npt.assert_array_equal(fwd.masks[0][row], (rng.random(d) < 0.5) / 0.5)
            npt.assert_array_equal(fwd.masks[1][row], (rng.random(d) < 0.5) / 0.5)

    def test_inference_applies_no_mask(self, corpus3):
        model = small_model(corpus3, dropout=0.5)
        enc = model.encode_sentence(corpus3[0])
        fwd = model._forward([(enc, 1)])
        assert fwd.masks is None


class TestEmbeddingFile:
    def test_loads_matching_tokens(self, tmp_path, corpus3):
        model = small_model(corpus3)
        path = tmp_path / "emb.txt"
        ch = corpus3[0].text[0]
        vec = " ".join(str(0.125 * (i + 1)) for i in range(8))
        path.write_text(f"{ch} {vec}\n系外 1 2 3 4 5 6 7 8\n", encoding="utf-8")
        n = load_embeddings_file(path, model.store, "char", model.vocab.char_to_id)
        assert n == 1  # the unseen token is skipped
        row = model.store["char.tok_emb"].value[model.vocab.char_ids([ch])[0]]
        npt.assert_allclose(row, 0.125 * np.arange(1, 9), atol=1e-15)

    def test_non_numeric_value_names_file_and_line(self, tmp_path, corpus3):
        model = small_model(corpus3)
        path = tmp_path / "emb.txt"
        path.write_text(f"8 8\n{corpus3[0].text[0]} 1 2 3 x 5 6 7 8\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="emb.txt: line 2"):
            load_embeddings_file(path, model.store, "char", model.vocab.char_to_id)

    def test_trailing_spaces_and_header(self, tmp_path, corpus3):
        # word2vec text files end every line, the "count dim" header too, in " \n"
        model = small_model(corpus3, token_emb_dim=2)
        a, b = corpus3[0].text[:2]
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2 \n{a} 0.5 -0.25 \n{b} 1.5 2 \t\r\n", encoding="utf-8")
        assert load_embeddings_file(path, model.store, "char", model.vocab.char_to_id) == 2
        emb = model.store["char.tok_emb"].value
        npt.assert_array_equal(emb[model.vocab.char_ids([a, b])], [[0.5, -0.25], [1.5, 2.0]])

    def test_dimension_mismatch_raises(self, tmp_path, corpus3):
        model = small_model(corpus3)
        path = tmp_path / "emb.txt"
        path.write_text(f"{corpus3[0].text[0]} 1 2 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="dims"):
            load_embeddings_file(path, model.store, "char", model.vocab.char_to_id)
