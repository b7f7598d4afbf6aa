import json
from dataclasses import asdict
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
    branch_backward,
    encoder_params,
    fuse,
    fuse_backward,
    gate_readers,
    load_embeddings_file,
)
from nuggetnet.errors import ConfigError, ShapeError, from_json
from nuggetnet.model import ModelConfig, _backward_rows, _view_starts
from nuggetnet.ndcore import ParamStore, grad_check, sigmoid, split_argmax

from branch_reference import reference_branch, reference_view
from util import (
    BOTH,
    HEADS,
    branch_rows_of,
    extract_segments,
    gate_specs,
    small_extractor,
    small_model,
    toy_corpus,
    widen_params,
)


def branch_store(config, n_tokens=12, seed=3, widen=True):
    specs = [
        ("char.tok_emb", (n_tokens, config.token_emb_dim), "embedding"),
        ("char.pos_emb", (config.n_positions, config.pos_emb_dim), "embedding"),
        ("char.conv_w", (config.n_filters, config.window * config.input_dim), "glorot"),
        ("char.conv_b", (config.n_filters,), "zeros"),
        ("char.proj_w", (config.proj_dim, config.feature_dim), "glorot"),
        ("char.proj_b", (config.proj_dim,), "zeros"),
    ]
    store = ParamStore(specs, seed)
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
        assert from_json(ExtractorConfig, json.loads(json.dumps(asdict(cfg))), ConfigError, "extractor") == cfg


class TestRegistration:
    def test_both_branches_and_gates(self):
        corpus = toy_corpus()
        vocab = build_vocab(corpus, max_rel_dist=10)
        names = [name for name, _, _ in encoder_params(small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC), vocab, HEADS)]
        for prefix in BRANCH_PREFIXES:
            assert f"{prefix}.tok_emb" in names and f"{prefix}.proj_w" in names
        assert "fuse.nugget.gate_w_char" in names and "fuse.type.gate_w_word" in names

    def test_concat_needs_no_gates(self):
        vocab = build_vocab(toy_corpus(), max_rel_dist=10)
        specs = encoder_params(small_extractor(hybrid_mode=HybridMode.CONCAT), vocab, HEADS)
        assert not any(name.startswith("fuse.") for name, _, _ in specs)

    @pytest.mark.parametrize(
        "overrides, heads, readers",
        [
            ({"hybrid_mode": "task_specific"}, HEADS, {"fuse.nugget": ("nugget",), "fuse.type": ("type",)}),
            ({"hybrid_mode": "task_specific"}, ("tag",), {"fuse.tag": ("tag",)}),
            ({"hybrid_mode": "general"}, HEADS, {"fuse": HEADS}),
            ({"hybrid_mode": "general"}, ("tag",), {"fuse": ("tag",)}),
            ({"hybrid_mode": "concat"}, HEADS, {None: HEADS}),
            ({"hybrid_mode": "task_specific", "use_chars": False}, ("wordtype",), {None: ("wordtype",)}),
            ({"hybrid_mode": "general", "use_words": False}, HEADS, {None: HEADS}),
        ],
    )
    def test_each_gate_a_head_reads_is_registered_once(self, overrides, heads, readers):
        config = small_extractor(**overrides)
        assert gate_readers(config, heads) == readers
        names = [name for name, _, _ in encoder_params(config, build_vocab(toy_corpus(), max_rel_dist=10), heads)]
        gates = [name for name in names if name.startswith("fuse")]
        expected = [scope for scope in readers if scope is not None]
        assert gates == [f"{scope}.{name}" for scope in expected for name in ("gate_w_char", "gate_w_word", "gate_b")]

    def test_rel_dist_mismatch_rejected(self):
        vocab = build_vocab(toy_corpus(), max_rel_dist=5)
        with pytest.raises(ConfigError, match="max_rel_dist"):
            encoder_params(small_extractor(max_rel_dist=10), vocab, HEADS)


def one_sequence(store, ids, centers, cfg):
    return extract_segments(store, "char", [(np.array(ids), np.array(centers))], cfg)


def extract_with_terms(store, segments, cfg):
    """A training extract_branch call's cache and the arguments it pooled with.

    Those are (token term, offset term, centers' rows, segment starts, segment ends), as the call's one
    split_argmax call received them; the cache keeps neither term.
    """
    with mock.patch.object(nencoder, "split_argmax", wraps=split_argmax) as spy:
        cache = extract_segments(store, "char", segments, cfg)
    (args, _), = spy.call_args_list
    return cache, args


def n_segments(cache):
    """Segments of a branch's kernel call: each has at least one center, each center one segment start."""
    return len(set(cache.lo.tolist()))


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
        assert cache.tok_slot.shape == (5 + cfg.window - 1,)  # one conv column per token

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
        assert cache.tok_slot.shape == (cfg.window,)
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
        cache, cache_row = branch_rows_of(store, config, "char", groups, for_backward=False)
        assert n_segments(cache) == len(set(_view_starts(n, np.arange(n), 16).tolist())) > n // 2
        assert per_center_only(cache) and cache.arg_rows is None
        trained, trained_row = branch_rows_of(store, config, "char", groups)
        npt.assert_array_equal(cache.fp[cache_row], trained.fp[trained_row])

    def test_training_keeps_no_filter_map(self):
        # a training cache keeps each pooled value's argmax row, but neither term past the forward pass
        cfg = small_extractor()
        store = branch_store(cfg, n_tokens=140)
        config = ModelConfig(extractor=cfg, max_tokens=16)
        groups = [(np.arange(2, 82), np.arange(80), np.arange(80)), (np.arange(2, 12), np.arange(10), np.arange(80, 90))]
        cache, _ = branch_rows_of(store, config, "char", groups)
        assert n_segments(cache) > 10
        assert per_center_only(cache)
        assert cache.arg_rows.shape == (cache.fp.shape[0], 2 * cfg.n_filters)

    def test_center_out_of_range(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        with pytest.raises(ShapeError):
            one_sequence(store, [2, 3], [2], cfg)
        with pytest.raises(ShapeError):
            one_sequence(store, np.array([], dtype=np.int64), [0], cfg)
        with pytest.raises(ShapeError):
            extract_segments(store, "char", [], cfg)

    def test_no_centers_rejected(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        with pytest.raises(ShapeError, match="no centers"):
            extract_segments(store, "char", [([2, 3, 4], []), ([5, 6], [])], cfg)

    def test_lengths_and_counts_must_cut_the_flat_arrays(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        tokens, lengths, cols, counts = np.array([2, 3, 4]), np.array([3]), np.array([0, 2]), np.array([2])
        for bad in (
            (tokens[:2], lengths, cols, counts),  # fewer tokens than the lengths add up to
            (tokens, lengths, cols, counts + 1),  # more centers counted than given
            (tokens, lengths, cols, np.array([2, 0])),  # a count without a length
            (tokens, np.array([4, -1]), cols, np.array([1, 1])),  # a negative length
            (tokens, lengths, cols[:, None], counts),  # centers not 1-d
        ):
            with pytest.raises(ShapeError):
                nencoder.extract_branch(store, "char", *bad, cfg)
        nencoder.extract_branch(store, "char", tokens, lengths, cols, counts, cfg)

    def test_segments_match_separate_calls(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        a = ([2, 3, 4, 5, 6, 7, 8], [0, 3, 6])
        b = ([9, 10, 11], [2, 1])
        both = extract_segments(store, "char", [a, b], cfg)
        alone = np.concatenate([one_sequence(store, *seg, cfg).fp for seg in (a, b)])
        npt.assert_allclose(both.fp, alone, rtol=0, atol=1e-14)

    def test_branch_backward_matches_finite_differences(self):
        cfg = small_extractor()
        store = branch_store(cfg)
        segments = [(np.array([2, 3, 4, 5, 6, 7]), np.array([3, 0, 5])), (np.array([8, 9]), np.array([1]))]
        target = np.arange(4 * cfg.proj_dim, dtype=np.float64).reshape(4, -1) / 10

        def closure():
            cache = extract_segments(store, "char", segments, cfg)
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
        _, cols = split_argmax(token_term, offset_term, *rows)
        npt.assert_array_equal(cache.arg_rows, cols)
        m = cfg.n_filters
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
        # training takes the values split_argmax reads back at its rows, decoding split_max_pool's: the same bits
        # (tests/test_ndcore.py holds the two kernels' values to each other)
        cfg, segments, seed = case
        store = branch_store(cfg, n_tokens=140, seed=seed)
        cache = extract_segments(store, "char", segments, cfg)
        decoded = extract_segments(store, "char", segments, cfg, for_backward=False)
        npt.assert_array_equal(cache.feature.view(np.int64), decoded.feature.view(np.int64))
        npt.assert_array_equal(cache.fp.view(np.int64), decoded.fp.view(np.int64))

    @given(kernel_cases(), st.sampled_from([5, 16, 120]))
    @settings(max_examples=40, deadline=None)
    def test_views_of_long_sequences(self, case, max_tokens):
        cfg, ids, centers, seed = case
        store = branch_store(cfg, n_tokens=140, seed=seed)
        config = ModelConfig(extractor=cfg, max_tokens=max_tokens)
        rows = np.arange(len(centers))
        cache, cache_row = branch_rows_of(store, config, "char", [(ids, np.array(centers), rows)])
        for row, c in enumerate(centers):
            ref = reference_view(store, "char", ids, c, cfg, max_tokens)
            npt.assert_allclose(cache.fp[cache_row[row]], ref.fp, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("budget", [_CALL_ELEMENTS, 1])
    @pytest.mark.parametrize("vocab", ["repeated", "distinct"])
    def test_repeated_and_distinct_tokens(self, monkeypatch, vocab, budget):
        # the token term multiplies each distinct id once and every chunk reads the same products: ids
        # from {PAD, 2, 3} (the same token in adjacent window slots, PAD inside segments as around them)
        # and all-distinct ids must both give the per-center formula's features, in one chunk or in many
        monkeypatch.setattr(nencoder, "_CALL_ELEMENTS", budget)
        cfg = small_extractor(window=3, lex_window=2, max_rel_dist=40)
        store = branch_store(cfg, n_tokens=140, seed=7)
        rng = np.random.default_rng(11)
        if vocab == "repeated":
            fixed = [[2], [3, 3], [2, 2, 2, PAD_ID, 3, 3, 2], [PAD_ID, PAD_ID]]
            all_ids = fixed + [rng.choice([PAD_ID, 2, 3], size=n).tolist() for n in (30, 13)]
        else:
            tokens = rng.permutation(np.arange(2, 140)).tolist()
            all_ids = [tokens[a:b] for a, b in ((0, 1), (1, 3), (3, 10), (10, 12), (12, 42), (42, 55))]
        segments = [(np.array(ids), np.arange(len(ids))) for ids in all_ids]
        cache = extract_segments(store, "char", segments, cfg)
        n_tokens = sum(map(len, all_ids))
        expected = {PAD_ID, 2, 3} if vocab == "repeated" else {PAD_ID, *sum(all_ids, [])}
        assert set(cache.tok_distinct.tolist()) == expected
        n_distinct = cache.tok_distinct.shape[0]
        assert n_distinct < n_tokens if vocab == "repeated" else n_distinct == n_tokens + 1
        row = 0
        for ids, centers in segments:
            for c in centers.tolist():
                ref = reference_branch(store, "char", ids, c, cfg)
                npt.assert_allclose(cache.feature[row], ref.feature, rtol=0, atol=1e-12)
                npt.assert_allclose(cache.fp[row], ref.fp, rtol=0, atol=1e-12)
                row += 1
        assert row == cache.fp.shape[0]
        decoded = extract_segments(store, "char", segments, cfg, for_backward=False)
        npt.assert_array_equal(cache.fp.view(np.int64), decoded.fp.view(np.int64))

    def test_grad_check_with_repeated_tokens_across_views(self):
        # two tokens and PAD, repeated inside windows and across the views of a long sentence: each
        # distinct token's gradient gathers every slot that read it, in every view
        cfg = small_extractor(window=3, lex_window=1, max_rel_dist=12)
        store = branch_store(cfg, n_tokens=5, seed=8)
        config = ModelConfig(extractor=cfg, max_tokens=6)
        long_ids = np.array([2, 3, 3, 2, PAD_ID, 2, 3, 3, 3, 2, 2])
        groups = [
            (long_ids, np.array([0, 4, 5, 8, 10]), np.arange(5)),
            (np.array([3, 3, 2]), np.array([0, 2]), np.array([5, 6])),
        ]
        target = np.linspace(-0.5, 0.5, 7 * cfg.proj_dim).reshape(7, -1)

        def closure():
            cache, cache_row = branch_rows_of(store, config, "char", groups)
            fp = cache.fp[cache_row]
            loss = 0.5 * float(np.sum((fp - target) ** 2))
            _backward_rows(store, config, "char", cache, cache_row, fp - target)
            return loss

        cache, _ = branch_rows_of(store, config, "char", groups)
        assert n_segments(cache) == 5  # four views of the long sentence, one short sentence
        npt.assert_array_equal(cache.tok_distinct, [PAD_ID, 2, 3])
        report = grad_check(closure, store, step=1e-5, tolerance=1e-5, coords_per_param=8, rng_seed=4)
        assert report.passed, report.summary()

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
            cache, cache_row = branch_rows_of(store, config, "char", groups)
            fp = cache.fp[cache_row]
            loss = 0.5 * float(np.sum((fp - target) ** 2))
            _backward_rows(store, config, "char", cache, cache_row, fp - target)
            return loss

        cache, _ = branch_rows_of(store, config, "char", groups)
        npt.assert_array_equal(_view_starts(11, np.array([0, 5, 7, 10]), 6), [0, 2, 4, 5])
        # one segment per view of the long sentence, one for the short one, all in the branch's one call
        assert n_segments(cache) == 5
        assert cache.fp.shape[0] == 6  # the repeated center is computed once
        report = grad_check(closure, store, step=1e-5, tolerance=1e-5, coords_per_param=6, rng_seed=3)
        assert report.passed, report.summary()


def chunk_views(views, token_terms, window):
    """The views of each chunk, read off the rows of each chunk's token term (views plus their pads, less a window)."""
    chunks, i = [], 0
    for rows in token_terms:
        chunk = []
        while sum(chunk) + (window - 1) * len(chunk) < rows + window - 1:
            chunk.append(views[i])
            i += 1
        assert sum(chunk) + (window - 1) * len(chunk) == rows + window - 1
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
        mock.patch.object(nmodel, "extract_branch", wraps=nencoder.extract_branch) as spy,
        mock.patch.object(nencoder, "split_argmax", wraps=split_argmax) as pools,
    ):
        branch_rows_of(store, config, "char", groups)
    (call,) = spy.call_args_list
    views = call.args[3].tolist()  # the segments' lengths
    assert len(views) == sum(len(set(_view_starts(len(g[0]), g[1], 120).tolist())) for g in groups)
    # each chunk pools once, over its own token term
    sizes = chunk_views(views, [c.args[0].shape[0] for c in pools.call_args_list], cfg.window)
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
        with mock.patch.object(nencoder, "split_argmax", wraps=split_argmax) as pools:
            cache, cache_row = branch_rows_of(store, config, "char", groups)
        assert pools.call_count == n_segments(cache) == 5  # one pooling pass per chunk
        assert matmuls == ["matmul"]
        matmuls.clear()
        _backward_rows(store, config, "char", cache, cache_row, np.ones_like(cache.fp[cache_row]))
        assert matmuls == ["matmul", "matmul"]

    def test_grad_check_over_chunks(self, monkeypatch):
        store, config, groups = self.sentences()
        target = np.linspace(-0.5, 0.5, 7 * config.extractor.proj_dim).reshape(7, -1)

        def closure():
            cache, cache_row = branch_rows_of(store, config, "char", groups)
            fp = cache.fp[cache_row]
            loss = 0.5 * float(np.sum((fp - target) ** 2))
            _backward_rows(store, config, "char", cache, cache_row, fp - target)
            return loss

        closure()
        whole = {name: p.grad.copy() for name, p in store.items()}
        cache, cache_row = branch_rows_of(store, config, "char", groups)
        fp = cache.fp[cache_row]
        store.zero_grads()
        monkeypatch.setattr(nencoder, "_CALL_ELEMENTS", 1)  # five chunks, one per segment
        with mock.patch.object(nencoder, "split_argmax", wraps=split_argmax) as pools:
            closure()
        assert pools.call_count == 5
        for name, p in store.items():
            npt.assert_allclose(p.grad, whole[name], rtol=1e-12, atol=1e-15, err_msg=name)
        cache, cache_row = branch_rows_of(store, config, "char", groups)
        npt.assert_allclose(cache.fp[cache_row], fp, rtol=0, atol=1e-14)
        report = grad_check(closure, store, step=1e-5, tolerance=1e-5, coords_per_param=6, rng_seed=3)
        assert report.passed, report.summary()


class TestFusion:
    def gate_store(self, d, seed=4, extra=(), heads=HEADS):
        return ParamStore([*gate_specs(d, heads), *extra], seed)

    def test_concat_stacks_branches(self):
        cfg = small_extractor(hybrid_mode=HybridMode.CONCAT)
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        _, features = fuse(ParamStore([]), cfg, {"char": a, "word": b}, BOTH)
        npt.assert_array_equal(features["nugget"], np.concatenate([a, b]))
        assert np.shares_memory(features["nugget"], features["type"])

    def test_general_is_convex_combination(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=10), rng.normal(size=10)
        gates, features = fuse(store, cfg, {"char": a, "word": b}, BOTH)
        assert list(gates) == ["fuse"]
        z = gates["fuse"]
        npt.assert_allclose(features["nugget"], z * a + (1 - z) * b, atol=1e-15)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(features["nugget"] >= lo - 1e-12) and np.all(features["nugget"] <= hi + 1e-12)

    def test_gate_saturation_selects_one_branch(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        store["fuse.gate_b"].value[...] = 60.0  # sigmoid(60) == 1.0 in float64
        store["fuse.gate_w_char"].value[...] = 0.0
        store["fuse.gate_w_word"].value[...] = 0.0
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=10), rng.normal(size=10)
        npt.assert_allclose(fuse(store, cfg, {"char": a, "word": b}, BOTH)[1]["nugget"], a, atol=1e-12)
        store["fuse.gate_b"].value[...] = -60.0
        npt.assert_allclose(fuse(store, cfg, {"char": a, "word": b}, BOTH)[1]["nugget"], b, atol=1e-12)

    def test_zero_gate_inputs_give_midpoint(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        store["fuse.gate_w_char"].value[...] = 0.0
        store["fuse.gate_w_word"].value[...] = 0.0
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=10), rng.normal(size=10)
        npt.assert_allclose(fuse(store, cfg, {"char": a, "word": b}, BOTH)[1]["nugget"], (a + b) / 2, atol=1e-15)

    def test_equal_branches_pass_through(self):
        cfg = small_extractor(hybrid_mode=HybridMode.GENERAL)
        store = self.gate_store(10)
        widen_params(store)
        a = np.random.default_rng(4).normal(size=10)
        npt.assert_allclose(fuse(store, cfg, {"char": a, "word": a.copy()}, BOTH)[1]["nugget"], a, atol=1e-12)

    def test_task_specific_gates_differ(self):
        cfg = small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC)
        store = self.gate_store(10)
        widen_params(store)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=10), rng.normal(size=10)
        gates, features = fuse(store, cfg, {"char": a, "word": b}, BOTH)
        assert not np.allclose(features["nugget"], features["type"])
        assert list(gates) == ["fuse.nugget", "fuse.type"]
        z_n = gates["fuse.nugget"]
        npt.assert_allclose(features["nugget"], z_n * a + (1 - z_n) * b, atol=1e-14)

    def test_a_one_head_task_specific_gate_is_the_general_gate_under_the_heads_name(self):
        # one head, one gate: task_specific runs it over every row as general runs its shared gate
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(4, 10)), rng.normal(size=(4, 10))
        store = self.gate_store(10, heads=("tag",))
        widen_params(store)
        for name in ("gate_w_char", "gate_w_word", "gate_b"):
            store[f"fuse.{name}"].value[...] = store[f"fuse.tag.{name}"].value
        parts = {"tag": slice(None)}
        own = fuse(store, small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC), {"char": a, "word": b}, parts)
        shared = fuse(store, small_extractor(hybrid_mode=HybridMode.GENERAL), {"char": a, "word": b}, parts)
        assert list(own[0]) == ["fuse.tag"] and list(shared[0]) == ["fuse"]
        npt.assert_array_equal(own[1]["tag"], shared[1]["tag"])

    def test_single_branch_passthrough(self):
        cfg = small_extractor(use_words=False, hybrid_mode=HybridMode.TASK_SPECIFIC)
        a = np.random.default_rng(6).normal(size=(1, 10))
        gates, features = fuse(ParamStore([]), cfg, {"char": a}, BOTH)
        npt.assert_array_equal(features["nugget"], a)
        dfs = {"nugget": np.ones((1, 10)), "type": 2 * np.ones((1, 10))}
        dfp = fuse_backward(ParamStore([]), cfg, {"char": a}, BOTH, gates, dfs)
        assert list(dfp) == ["char"]
        npt.assert_array_equal(dfp["char"], 3 * np.ones((1, 10)))

    def fusion_grad_report(self, mode, parts):
        cfg = small_extractor(hybrid_mode=mode)
        store = self.gate_store(10, extra=[("inputs.a", (3, 10), "zeros"), ("inputs.b", (3, 10), "zeros")])
        widen_params(store)
        rng = np.random.default_rng(7)
        pa, pb = store["inputs.a"], store["inputs.b"]
        pa.value[...] = rng.normal(size=(3, 10))
        pb.value[...] = rng.normal(size=(3, 10))
        targets = {head: rng.normal(size=(3, cfg.fused_dim))[part] for head, part in parts.items()}

        def closure():
            fp = {"char": pa.value, "word": pb.value}
            gates, features = fuse(store, cfg, fp, parts)
            dfs = {head: f - targets[head] for head, f in features.items()}
            loss = 0.5 * float(sum(np.sum(df**2) for df in dfs.values()))
            dfp = fuse_backward(store, cfg, fp, parts, gates, dfs)
            pa.grad += dfp["char"]
            pb.grad += dfp["word"]
            return loss

        return grad_check(closure, store, step=1e-4, tolerance=1e-4, coords_per_param=8, rng_seed=8)

    @pytest.mark.parametrize("mode", list(HybridMode))
    def test_fusion_backward_matches_finite_differences(self, mode):
        report = self.fusion_grad_report(mode, BOTH)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("mode", list(HybridMode))
    def test_fusion_backward_over_each_heads_rows_matches_finite_differences(self, mode):
        # as in training: head 0 reads rows 0-1, head 1 row 2
        report = self.fusion_grad_report(mode, dict(zip(HEADS, (slice(None, 2), slice(2, None)))))
        assert report.passed, report.summary()

    def test_rows_equal_single_vectors(self):
        cfg = small_extractor(hybrid_mode=HybridMode.TASK_SPECIFIC)
        store = self.gate_store(10)
        widen_params(store)
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(4, 10)), rng.normal(size=(4, 10))
        _, rows = fuse(store, cfg, {"char": a, "word": b}, BOTH)
        for i in range(4):
            _, single = fuse(store, cfg, {"char": a[i], "word": b[i]}, BOTH)
            for head in HEADS:
                npt.assert_allclose(rows[head][i], single[head], rtol=0, atol=1e-15)


class TestDropout:
    def test_off_by_default_and_deterministic_inference(self, corpus3):
        model = small_model(corpus3)
        p1 = model.char_distributions(model.encode_sentence(corpus3[0]), 2)
        p2 = model.char_distributions(model.encode_sentence(corpus3[0]), 2)
        npt.assert_array_equal(p1[0], p2[0])
        npt.assert_array_equal(p1[1], p2[1])

    def test_training_masks_are_seeded(self, corpus3):
        model = small_model(corpus3, dropout=0.5)
        ids = [corpus3[0].ids(model.vocab)]
        f1 = model._forward(ids, np.array([0]), np.array([1]), drop_rng=np.random.default_rng(9))
        f2 = model._forward(ids, np.array([0]), np.array([1]), drop_rng=np.random.default_rng(9))
        npt.assert_array_equal(f1.features["nugget"], f2.features["nugget"])
        assert f1.masks is not None
        f3 = model._forward(ids, np.array([0]), np.array([1]), drop_rng=np.random.default_rng(10))
        assert not np.array_equal(f1.masks["nugget"], f3.masks["nugget"])

    def test_masks_drawn_row_by_row(self, corpus3):
        # each row draws its nugget mask, then its type mask, as one instance at a time would
        model = small_model(corpus3, dropout=0.5)
        ids = [s.ids(model.vocab) for s in corpus3[:2]]
        rows = (np.array([0, 1, 0]), np.array([1, 0, 3]))  # sentences a, b, a
        fwd = model._forward(ids, *rows, drop_rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        d = model.config.extractor.fused_dim
        for row in range(3):
            npt.assert_array_equal(fwd.masks["nugget"][row], (rng.random(d) < 0.5) / 0.5)
            npt.assert_array_equal(fwd.masks["type"][row], (rng.random(d) < 0.5) / 0.5)

    def test_each_head_keeps_its_rows_draws(self, corpus3):
        # a training forward draws every row's two masks as above; each head keeps its own rows' draws
        model = small_model(corpus3, dropout=0.5)
        ids = [s.ids(model.vocab) for s in corpus3[:2]]
        parts = {"nugget": slice(None, 2), "type": slice(2, None)}
        fwd = model._forward(ids, np.array([0, 1, 0]), np.array([1, 0, 3]), parts, np.random.default_rng(11))
        draws = np.random.default_rng(11).random((3, 2, model.config.extractor.fused_dim))
        npt.assert_array_equal(fwd.masks["nugget"], (draws[:2, 0] < 0.5) / 0.5)
        npt.assert_array_equal(fwd.masks["type"], (draws[2:, 1] < 0.5) / 0.5)
        assert {head: f.shape[0] for head, f in fwd.features.items()} == {"nugget": 2, "type": 1}

    def test_inference_applies_no_mask(self, corpus3):
        model = small_model(corpus3, dropout=0.5)
        fwd = model._forward([corpus3[0].ids(model.vocab)], np.array([0]), np.array([1]))
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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, corpus3, bad):
        model = small_model(corpus3)
        a, b = corpus3[0].text[:2]
        path = tmp_path / "emb.txt"
        path.write_text(f"{a} 1 2 3 4 5 6 7 8\n{b} 1 2 3 {bad} 5 6 7 8\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="emb.txt: line 2: embedding has non-finite values"):
            load_embeddings_file(path, model.store, "char", model.vocab.char_to_id)
        assert np.isfinite(model.store["char.tok_emb"].value).all()

    @pytest.mark.parametrize("bad", ["1 2 3 x 5 6 7 8", "1 2 3", "1 2 3 nan 5 6 7 8"])
    def test_bad_line_leaves_the_table_unchanged(self, tmp_path, corpus3, bad):
        # line 1 is good, line 2 is not: no row of the file is written
        model = small_model(corpus3)
        a, b = corpus3[0].text[:2]
        path = tmp_path / "emb.txt"
        path.write_text(f"{a} 1 2 3 4 5 6 7 8\n{b} {bad}\n", encoding="utf-8")
        before = model.store["char.tok_emb"].value.copy()
        with pytest.raises(ConfigError, match="emb.txt: line 2"):
            load_embeddings_file(path, model.store, "char", model.vocab.char_to_id)
        npt.assert_array_equal(model.store["char.tok_emb"].value, before)

    def test_repeated_token_keeps_its_last_row(self, tmp_path, corpus3):
        model = small_model(corpus3, token_emb_dim=2)
        a = corpus3[0].text[0]
        path = tmp_path / "emb.txt"
        path.write_text(f"{a} 1 2\n{a} 3 4\n", encoding="utf-8")
        assert load_embeddings_file(path, model.store, "char", model.vocab.char_to_id) == 2
        npt.assert_array_equal(model.store["char.tok_emb"].value[model.vocab.char_ids([a])[0]], [3.0, 4.0])
