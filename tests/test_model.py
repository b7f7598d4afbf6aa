import numpy as np
import numpy.testing as npt
import pytest

import nuggetnet.encoder as nencoder
import nuggetnet.model as nmodel
from nuggetnet.corpus import UNK_ID, AnnotatedSentence, SubtypeInventory, build_vocab
from nuggetnet.decoder import decode_corpus
from nuggetnet.errors import CheckpointError, ConfigError
from nuggetnet.labels import num_nugget_classes
from nuggetnet.model import MODEL_CLASSES, CharSpanModel, ModelConfig, _view_starts, head_scores, load_model
from nuggetnet.ndcore import ParamStore, grad_check, load_checkpoint, save_checkpoint, softmax
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus

from util import KINDS, small_extractor, small_model, toy_corpus, widen_params


class TestModelConfig:
    def test_rejects_short_windows(self):
        with pytest.raises(ConfigError):
            ModelConfig(extractor=small_extractor(), max_tokens=2)
        with pytest.raises(ConfigError):
            ModelConfig(extractor=small_extractor(), max_nugget_len=0)

    def test_json_round_trip(self):
        config = ModelConfig(extractor=small_extractor(), max_nugget_len=4, max_tokens=80)
        assert ModelConfig.from_json(config.to_json()) == config


class TestCenteredView:
    def test_short_sequence_is_untouched(self):
        npt.assert_array_equal(_view_starts(5, np.array([0, 3, 4]), 10), [0, 0, 0])

    def test_window_centers_on_char(self):
        (start,) = _view_starts(100, np.array([50]), 11)
        assert start == 45  # the view 45 .. 55 holds 50 at its middle

    def test_window_clamps_at_edges(self):
        npt.assert_array_equal(_view_starts(100, np.array([1, 98]), 11), [0, 89])


@pytest.fixture
def kernel_calls(monkeypatch):
    """(branch, the number of segments in each chunk) of every extract_branch call the model makes."""
    calls = []
    extract, chunks = nmodel.extract_branch, nencoder._chunks

    def counting(store, prefix, segments, config, for_backward):
        calls.append((prefix, []))
        return extract(store, prefix, segments, config, for_backward)

    def chunking(lengths, n_filters):
        bounds = chunks(lengths, n_filters)
        calls[-1][1].extend(np.diff(bounds).tolist())
        return bounds

    monkeypatch.setattr(nmodel, "extract_branch", counting)
    monkeypatch.setattr(nencoder, "_chunks", chunking)
    return calls


class TestCharSpanModel:
    def test_needs_subtypes(self):
        from nuggetnet.errors import CorpusValidationError

        with pytest.raises(CorpusValidationError):
            SubtypeInventory.from_corpus([])

    def test_head_shapes(self, corpus3):
        model = small_model(corpus3, max_nugget_len=3)
        assert model.n_nugget_classes == num_nugget_classes(3)
        assert model.store["head.nugget_w"].value.shape == (7, 10)
        assert model.store["head.type_w"].value.shape == (2, 10)

    def test_distributions_normalized(self, corpus3):
        model = small_model(corpus3)
        enc = model.encode_sentence(corpus3[0])
        pn, pt = model.char_distributions(enc, 2)
        assert pn.shape == (7,) and pt.shape == (2,)
        assert pn.sum() == pytest.approx(1.0) and pt.sum() == pytest.approx(1.0)
        assert np.all(pn > 0) and np.all(pt > 0)

    def test_training_streams_split(self, corpus3):
        from nuggetnet.labels import NuggetLabel

        model = small_model(corpus3)
        gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        assert all(inst.type_label is not None for inst in cls)
        n_pos = sum(inst.type_label is not None for inst in gen)
        assert n_pos == len(cls) == 6  # each in-nugget char feeds both heads
        negatives = [inst for inst in gen if inst.type_label is None]
        assert len(negatives) == 6
        assert all(inst.nugget_label is NuggetLabel.NIL for inst in negatives)

    def test_classifier_stream_requires_labels(self, corpus3):
        model = small_model(corpus3)
        gen, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        unlabeled = [inst for inst in gen if inst.type_label is None]
        with pytest.raises(ConfigError, match="subtype label"):
            model.loss_and_grads([], unlabeled[:1])

    def test_loss_gradients_all_modes(self, corpus3):
        for mode in ("concat", "general", "task_specific"):
            model = small_model(corpus3, mode=mode)
            widen_params(model.store)
            gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)

            def closure():
                return model.loss_and_grads(gen, cls)

            report = grad_check(closure, model.store, step=1e-4, tolerance=1e-4, rng_seed=7)
            assert report.passed, f"{mode}:\n{report.summary()}"

    def test_long_sentence_stays_within_budget(self):
        spec = GenSpec(
            n_sentences=4,
            subtypes=default_subtype_names(2),
            min_context_words=12,
            max_context_words=14,
        )
        corpus = generate_synthetic_corpus(spec, rng_seed=2)
        assert max(len(s.text) for s in corpus) > 20
        model = small_model(corpus, max_rel_dist=8)
        model.config = ModelConfig(extractor=model.config.extractor, max_tokens=20)
        predictions = model.predict_corpus(corpus)
        for s in corpus:
            for p in predictions[s.key]:
                assert 0 <= p.start and p.start + p.length <= len(s.text)

    def test_distributions_computed_once_per_encoding(self, corpus3):
        model = small_model(corpus3)
        widen_params(model.store)
        enc = model.encode_sentence(corpus3[2])
        rows = [model.char_distributions(enc, ci) for ci in range(len(corpus3[2].text))]
        assert enc.rows is not None
        for ci, (pn, pt) in enumerate(rows):
            fwd = model._forward([(model.encode_sentence(corpus3[2]), np.array([ci]), [0])])
            npt.assert_allclose(pn, softmax(head_scores(model.store, "nugget", fwd.f_nugget))[0], atol=1e-15)
            npt.assert_allclose(pt, softmax(head_scores(model.store, "type", fwd.f_type))[0], atol=1e-15)

    def test_encoding_matches_lookups_one_at_a_time(self, corpus3):
        # the map and id arrays equal the per-character formula byte for byte, unknown tokens included
        model = small_model(corpus3)
        unknown = AnnotatedSentence("d", "u", "甲乙龘鱻丙", ((0, 1), (2, 3), (4, 4)), ())
        for sentence in [*corpus3, unknown]:
            enc = model.encode_sentence(sentence)
            n = len(sentence.text)
            expected = (
                [model.vocab.char_ids([c])[0] for c in sentence.text],
                [model.vocab.word_ids([w])[0] for w in sentence.words],
                [sentence.word_index_of(i) for i in range(n)],
            )
            for got, want in zip((enc.char_ids, enc.word_ids, enc.char_to_word), expected):
                assert got.dtype == np.int64 and got.tobytes() == np.array(want, dtype=np.int64).tobytes()
        assert enc.char_ids.tolist().count(UNK_ID) == 2 and enc.word_ids[1] == UNK_ID
        with pytest.raises(IndexError):
            unknown.word_index_of(5)

    def test_decode_reads_whole_rows(self, corpus3, monkeypatch):
        # the decoder takes every character's rows from one forward, not through the accessor
        calls = []
        for name in ("char_distributions", "_forward"):
            original = getattr(CharSpanModel, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(CharSpanModel, name, counting)
        model = small_model(corpus3)
        decode_corpus(model, [corpus3[2]])
        assert calls == ["_forward"]

    def test_encoding_is_a_snapshot_of_the_weights(self, corpus3):
        model = small_model(corpus3)
        enc = model.encode_sentence(corpus3[0])
        before = model.char_distributions(enc, 1)[0].copy()
        widen_params(model.store)
        npt.assert_array_equal(model.char_distributions(enc, 1)[0], before)
        fresh = model.char_distributions(model.encode_sentence(corpus3[0]), 1)[0]
        assert not np.allclose(fresh, before)

    def test_decode_makes_one_kernel_call_per_branch_and_view(self, kernel_calls):
        # a long sentence read through 8-token views: the segment count grows with the views, not the
        # characters, so the per-character path cannot come back unnoticed; each branch is one call,
        # and at 6 filters all its views fit one chunk's element budget
        spec = GenSpec(n_sentences=3, subtypes=default_subtype_names(2), min_context_words=12, max_context_words=14)
        corpus = generate_synthetic_corpus(spec, rng_seed=4)
        model = small_model(corpus, max_rel_dist=8)
        model.config = ModelConfig(extractor=model.config.extractor, max_tokens=8)
        sentence = max(corpus, key=lambda s: len(s.text))

        def n_views(n):
            return len(set(_view_starts(n, np.arange(n), 8).tolist()))

        model.predict_corpus([sentence])
        char_views, word_views = n_views(len(sentence.text)), n_views(len(sentence.words))
        assert char_views > 1 and word_views > 1
        assert kernel_calls == [("char", [char_views]), ("word", [word_views])]

    def test_short_sentences_share_kernel_calls(self, corpus3, kernel_calls):
        model = small_model(corpus3)  # max_tokens 40 holds the whole toy corpus
        gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        model.loss_and_grads(gen, cls)
        assert kernel_calls == [("char", [3]), ("word", [3])]

    def test_one_pooling_pass_per_kernel_call(self, corpus3, kernel_calls, monkeypatch):
        # every chunk's centers in one pass: the argmax when training, the values alone when decoding;
        # a budget of one element puts each sentence in a chunk of its own
        monkeypatch.setattr(nencoder, "_CALL_ELEMENTS", 1)
        pools = []
        for name in ("split_max_pool", "split_argmax"):
            original = getattr(nencoder, name)

            def counting(*args, _name=name, _original=original):
                pools.append(_name)
                return _original(*args)

            monkeypatch.setattr(nencoder, name, counting)
        model = small_model(corpus3)
        gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        model.loss_and_grads(gen, cls)
        assert kernel_calls == [("char", [1, 1, 1]), ("word", [1, 1, 1])]
        assert pools == ["split_argmax"] * 6
        kernel_calls.clear()
        pools.clear()
        model.predict_corpus([corpus3[2]])
        assert kernel_calls == [("char", [1]), ("word", [1])]
        assert pools == ["split_max_pool"] * 2

    def test_save_load_round_trip(self, tmp_path, corpus3):
        model = small_model(corpus3)
        widen_params(model.store)
        path = tmp_path / "model.ckpt"
        model.save(path, trainer_state={"epoch": 2})
        loaded, meta = CharSpanModel.load(path)
        assert meta["trainer_state"]["epoch"] == 2
        assert loaded.config == model.config
        assert loaded.subtypes.names == model.subtypes.names
        for name in model.store.names():
            npt.assert_array_equal(loaded.store[name].value, model.store[name].value)
        enc_a = model.encode_sentence(corpus3[0])
        enc_b = loaded.encode_sentence(corpus3[0])
        npt.assert_array_equal(
            model.char_distributions(enc_a, 1)[0], loaded.char_distributions(enc_b, 1)[0]
        )

    def test_load_model_dispatch_and_unknown_kind(self, tmp_path, corpus3):
        model = small_model(corpus3)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded, _ = load_model(path)
        assert isinstance(loaded, CharSpanModel)

        bogus = tmp_path / "bogus.ckpt"
        save_checkpoint(bogus, ParamStore(0), {"kind": "mystery"})
        with pytest.raises(CheckpointError, match="mystery"):
            load_model(bogus)


@pytest.mark.parametrize("kind", KINDS)
def test_argmax_only_when_training(corpus3, monkeypatch, kind):
    # prediction needs the pooled values only; a training step finds each argmax once, for its backward pass
    calls = []
    for module, name in ((nencoder, "split_argmax"), (nmodel, "branch_backward")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    model = small_model(corpus3, kind=kind)
    model.predict_corpus(corpus3)
    assert calls == []
    stream_a, stream_b = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
    model.loss_and_grads(stream_a, stream_b)
    assert calls.count("split_argmax") == calls.count("branch_backward") > 0


def saved_meta(model, path) -> dict:
    model.save(path)
    return load_checkpoint(path)[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "field, value",
    [
        ("config", None),
        ("vocab", None),
        ("subtypes", None),
        ("config", 3),
        ("vocab", [1]),
        ("vocab", {"chars": [1], "words": {}, "max_rel_dist": 12}),
        ("subtypes", 3),
        ("subtypes", "xy"),  # as many characters as the model has subtypes
        ("subtypes", ["x", 7]),
    ],
)
def test_bad_metadata_names_file(tmp_path, corpus3, kind, field, value):
    # a checkpoint whose CRC holds but whose metadata does not describe a model: no bare KeyError or TypeError
    model = small_model(corpus3, kind=kind)
    path = tmp_path / "bad.ckpt"
    meta = saved_meta(model, path)
    if value is None:
        del meta[field]
    else:
        meta[field] = value
    save_checkpoint(path, model.store, meta)
    for load in (load_model, MODEL_CLASSES[kind].load):
        with pytest.raises(CheckpointError, match="bad model metadata") as info:
            load(path)
        assert str(path) in str(info.value)


def test_tensor_mismatch_names_file(tmp_path, corpus3):
    path = tmp_path / "headless.ckpt"
    save_checkpoint(path, ParamStore(0), saved_meta(small_model(corpus3), path))
    with pytest.raises(CheckpointError, match="missing parameter") as info:
        load_model(path)
    assert str(path) in str(info.value)
