import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuggetnet.baselines import (
    IOBModel,
    O_TAG,
    WordwiseModel,
    begin_tag,
    inside_tag,
    iob_decode,
    iob_encode,
    n_iob_tags,
    tag_subtype,
)
from nuggetnet.corpus import (
    AnnotatedSentence,
    SubtypeInventory,
    TriggerNugget,
    build_vocab,
)
from nuggetnet.errors import CheckpointError, ConfigError
from nuggetnet.model import MODEL_CLASSES, ModelConfig, load_model
from nuggetnet.ndcore import grad_check
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus

from util import KINDS, small_extractor, small_model, toy_corpus, widen_params

INV = SubtypeInventory(("att", "inj"))


def sent(text, spans, triggers):
    return AnnotatedSentence("d", "s0", text, spans, triggers)


def iob_model(corpus, **extractor_overrides):
    vocab = build_vocab(corpus, max_rel_dist=10)
    config = ModelConfig(extractor=small_extractor(**extractor_overrides), max_tokens=40)
    return IOBModel(config, vocab, SubtypeInventory.from_corpus(corpus), rng_seed=2)


def word_model(corpus):
    vocab = build_vocab(corpus, max_rel_dist=10)
    config = ModelConfig(
        extractor=small_extractor(use_chars=False, use_words=True), max_tokens=40
    )
    return WordwiseModel(config, vocab, SubtypeInventory.from_corpus(corpus), rng_seed=2)


class TestTagArithmetic:
    def test_layout(self):
        assert O_TAG == 0
        assert n_iob_tags(2) == 5
        assert begin_tag(0) == 1 and inside_tag(0) == 2
        assert begin_tag(1) == 3 and inside_tag(1) == 4

    def test_subtype_recovery(self):
        for sid in range(4):
            assert tag_subtype(begin_tag(sid)) == sid
            assert tag_subtype(inside_tag(sid)) == sid
        with pytest.raises(ValueError):
            tag_subtype(O_TAG)


class TestIOBEncode:
    def test_paints_begin_and_inside(self):
        s = sent("甲乙丙丁", ((0, 3),), (TriggerNugget(1, 2, "att"),))
        tags, skipped = iob_encode(s, INV)
        assert tags == [0, begin_tag(0), inside_tag(0), 0]
        assert skipped == 0

    def test_adjacent_same_type_stay_separate(self):
        s = sent(
            "甲乙丙丁",
            ((0, 3),),
            (TriggerNugget(0, 2, "inj"), TriggerNugget(2, 2, "inj")),
        )
        tags, skipped = iob_encode(s, INV)
        assert tags == [begin_tag(1), inside_tag(1), begin_tag(1), inside_tag(1)]
        assert skipped == 0
        assert iob_decode(tags, INV) == [TriggerNugget(0, 2, "inj"), TriggerNugget(2, 2, "inj")]

    def test_overlapping_trigger_skipped(self):
        s = sent(
            "甲乙丙丁",
            ((0, 3),),
            (TriggerNugget(0, 3, "att"), TriggerNugget(2, 2, "inj")),
        )
        tags, skipped = iob_encode(s, INV)
        assert skipped == 1
        assert iob_decode(tags, INV) == [TriggerNugget(0, 3, "att")]

    def test_round_trip_non_overlapping(self):
        s = sent(
            "甲乙丙丁戊己",
            ((0, 5),),
            (TriggerNugget(0, 1, "att"), TriggerNugget(2, 3, "inj")),
        )
        tags, _ = iob_encode(s, INV)
        assert iob_decode(tags, INV) == sorted(s.triggers, key=lambda t: t.start)


class TestIOBDecode:
    def test_orphan_inside_opens_segment(self):
        tags = [0, inside_tag(1), inside_tag(1), 0]
        assert iob_decode(tags, INV) == [TriggerNugget(1, 2, "inj")]

    def test_type_change_inside_splits(self):
        tags = [begin_tag(0), inside_tag(1)]
        assert iob_decode(tags, INV) == [
            TriggerNugget(0, 1, "att"),
            TriggerNugget(1, 1, "inj"),
        ]

    def test_segment_open_at_end_closes(self):
        tags = [0, begin_tag(0), inside_tag(0)]
        assert iob_decode(tags, INV) == [TriggerNugget(1, 2, "att")]

    def test_all_outside(self):
        assert iob_decode([0, 0, 0], INV) == []

    @given(
        st.lists(st.integers(min_value=0, max_value=n_iob_tags(2) - 1), min_size=0, max_size=12)
    )
    @settings(max_examples=200)
    def test_decoded_spans_are_valid_and_disjoint(self, tags):
        spans = iob_decode(tags, INV)
        prev_end = 0
        for trig in sorted(spans, key=lambda t: t.start):
            assert trig.length >= 1
            assert trig.start >= prev_end
            assert trig.start + trig.length <= len(tags)
            prev_end = trig.start + trig.length
            # every decoded char really carries this subtype
            for i in range(trig.start, trig.start + trig.length):
                assert tag_subtype(tags[i]) == INV.id_of(trig.subtype)


class TestIOBModel:
    def test_training_stream_counts(self, corpus3):
        model = iob_model(corpus3)
        stream, other = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        assert other == []
        n_pos = sum(inst.tag != O_TAG for inst in stream)
        n_neg = sum(inst.tag == O_TAG for inst in stream)
        assert n_pos == 6  # trigger chars across the toy corpus
        assert n_neg == 6

    def test_sampling_is_seeded(self, corpus3):
        model = iob_model(corpus3)
        a, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=4)
        b, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=4)
        c, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=5)
        assert a == b
        assert a != c

    def test_gradients(self, corpus3):
        model = iob_model(corpus3)
        widen_params(model.store)
        batch, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)

        def closure():
            return model.loss_and_grads(batch)

        report = grad_check(closure, model.store, step=1e-4, tolerance=1e-4, rng_seed=3)
        assert report.passed, report.summary()

    def test_predictions_cover_decoded_tags(self, corpus3):
        model = iob_model(corpus3)
        widen_params(model.store, scale=0.6)
        predictions = model.predict_corpus(corpus3)
        for sentence in corpus3:
            tags, logps = model.tag_sentence(sentence)
            preds = predictions[sentence.key]
            assert len(preds) == len(iob_decode(tags, model.subtypes))
            for p in preds:
                expect = sum(logps[p.start : p.start + p.length])
                assert p.score == pytest.approx(expect, abs=1e-12)

    def test_save_load_round_trip(self, tmp_path, corpus3):
        model = iob_model(corpus3)
        widen_params(model.store)
        path = tmp_path / "iob.ckpt"
        model.save(path, trainer_state={"epoch": 3})
        loaded, meta = IOBModel.load(path)
        assert meta["trainer_state"] == {"epoch": 3}
        for name in model.store.names():
            np.testing.assert_array_equal(loaded.store[name].value, model.store[name].value)
        generic, _ = load_model(path)
        assert isinstance(generic, IOBModel)


class TestWordLabels:
    def test_first_trigger_wins_on_shared_word(self):
        s = sent(
            "甲乙丙丁",
            ((0, 1), (2, 3)),
            (TriggerNugget(0, 1, "inj"), TriggerNugget(1, 1, "att")),
        )
        labels = WordwiseModel.word_labels(s, INV)
        # both triggers touch word 0; (0,1,inj) sorts first and wins
        assert labels == [INV.id_of("inj") + 1, 0]

    def test_cross_word_trigger_labels_both_words(self):
        s = sent("甲乙丙丁", ((0, 1), (2, 3)), (TriggerNugget(1, 2, "att"),))
        assert WordwiseModel.word_labels(s, INV) == [1, 1]

    def test_no_triggers(self):
        s = sent("甲乙", ((0, 0), (1, 1)), ())
        assert WordwiseModel.word_labels(s, INV) == [0, 0]


class TestWordwiseModel:
    def test_rejects_char_branch(self, corpus3):
        vocab = build_vocab(corpus3, max_rel_dist=10)
        config = ModelConfig(extractor=small_extractor())
        with pytest.raises(ConfigError, match="word branch"):
            WordwiseModel(config, vocab, SubtypeInventory.from_corpus(corpus3))

    def test_predictions_are_whole_words(self, corpus3):
        corpus = generate_synthetic_corpus(
            GenSpec(n_sentences=30, subtypes=default_subtype_names(2)), rng_seed=1
        )
        model = word_model(corpus)
        widen_params(model.store, scale=0.6)
        word_span_set = lambda s: {(a, b - a + 1) for a, b in s.word_spans}
        any_preds = False
        predictions = model.predict_corpus(corpus)
        for sentence in corpus:
            for p in predictions[sentence.key]:
                any_preds = True
                assert (p.start, p.length) in word_span_set(sentence)
        assert any_preds

    def test_training_stream_counts(self, corpus3):
        model = word_model(corpus3)
        stream, other = model.training_streams(corpus3, neg_ratio=10.0, rng_seed=0)
        assert other == []
        n_pos = sum(1 for inst in stream if inst.label)
        n_neg = len(stream) - n_pos
        assert n_pos == 4  # s1: word 1; s2: word 3; s3: words 0+1 (crossing)
        assert n_neg == 4  # pool has only 4 O words, capped below the ratio

    def test_gradients(self, corpus3):
        model = word_model(corpus3)
        widen_params(model.store)
        batch, _ = model.training_streams(corpus3, neg_ratio=2.0, rng_seed=0)

        def closure():
            return model.loss_and_grads(batch)

        report = grad_check(closure, model.store, step=1e-4, tolerance=1e-4, rng_seed=4)
        assert report.passed, report.summary()

    def test_save_load_round_trip(self, tmp_path, corpus3):
        model = word_model(corpus3)
        path = tmp_path / "ww.ckpt"
        model.save(path)
        loaded, _ = WordwiseModel.load(path)
        for name in model.store.names():
            np.testing.assert_array_equal(loaded.store[name].value, model.store[name].value)
        assert isinstance(load_model(path)[0], WordwiseModel)


@pytest.mark.parametrize("kind", KINDS)
def test_wrong_kind_rejected(tmp_path, corpus3, kind):
    path = tmp_path / f"{kind}.ckpt"
    small_model(corpus3, kind=kind).save(path)
    assert type(load_model(path)[0]) is MODEL_CLASSES[kind]
    for other in MODEL_CLASSES.values():
        if other.kind != kind:
            with pytest.raises(CheckpointError, match=f"checkpoint kind '{kind}' is not '{other.kind}'"):
                other.load(path)
