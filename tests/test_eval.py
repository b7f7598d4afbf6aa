import pytest
from hypothesis import given, settings, strategies as st

from nuggetnet.corpus import AnnotatedSentence, MatchType, TriggerNugget
from nuggetnet.decoder import Prediction
from nuggetnet.errors import EvalInputError
from nuggetnet.evaluate import (
    RecallStat,
    ScoreMode,
    ScoreReport,
    recall_by_match_type,
    score,
)


def sent(sent_id, text, spans, triggers):
    return AnnotatedSentence("d", sent_id, text, spans, triggers)


def pred(start, length, subtype, s=-1.0):
    return Prediction(start, length, subtype, s)


class TestScoreReport:
    def test_frozen_example(self):
        # 6 predicted, 2 correct, 4 gold: P = 1/3, R = 1/2, F1 = 0.4
        r = ScoreReport(ScoreMode.CLASSIFICATION, n_gold=4, n_pred=6, n_correct=2)
        assert r.precision == pytest.approx(1 / 3)
        assert r.recall == pytest.approx(1 / 2)
        assert r.f1 == pytest.approx(0.4)

    def test_zero_denominators(self):
        r = ScoreReport(ScoreMode.CLASSIFICATION, 0, 0, 0)
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert ScoreReport(ScoreMode.CLASSIFICATION, 3, 0, 0).precision == 0.0
        assert ScoreReport(ScoreMode.CLASSIFICATION, 0, 3, 0).recall == 0.0

    def test_json_and_render(self):
        r = ScoreReport(ScoreMode.IDENTIFICATION, 4, 6, 2)
        data = r.to_json()
        assert data["mode"] == "identification"
        assert data["f1"] == pytest.approx(0.4)
        assert "P 0.3333" in r.render()

    @given(
        n_gold=st.integers(min_value=0, max_value=50),
        n_pred=st.integers(min_value=0, max_value=50),
    )
    def test_f1_is_harmonic_mean(self, n_gold, n_pred):
        n_correct = min(n_gold, n_pred)
        r = ScoreReport(ScoreMode.CLASSIFICATION, n_gold, n_pred, n_correct)
        p, rc = r.precision, r.recall
        if p + rc:
            assert r.f1 == pytest.approx(2 * p * rc / (p + rc))
        else:
            assert r.f1 == 0.0


class TestScore:
    def corpus(self):
        return [
            sent("s0", "甲乙丙丁", ((0, 3),), (TriggerNugget(0, 2, "a"), TriggerNugget(2, 2, "b"))),
            sent("s1", "戊己庚", ((0, 2),), (TriggerNugget(1, 1, "a"),)),
            sent("s2", "辛壬", ((0, 1),), (TriggerNugget(0, 2, "b"),)),
        ]

    def test_perfect_predictions(self):
        corpus = self.corpus()
        preds = {
            s.key: [pred(t.start, t.length, t.subtype) for t in s.triggers] for s in corpus
        }
        for mode in ScoreMode:
            r = score(corpus, preds, mode)
            assert (r.n_gold, r.n_pred, r.n_correct) == (4, 4, 4)
            assert r.f1 == 1.0

    def test_frozen_mixed_example(self):
        corpus = self.corpus()
        preds = {
            ("d", "s0"): [
                pred(0, 2, "a", -0.1),  # correct both modes
                pred(2, 2, "a", -0.2),  # span right, type wrong
                pred(1, 1, "b", -0.3),  # span wrong
            ],
            ("d", "s1"): [pred(1, 1, "a", -0.1)],  # correct both modes
            ("d", "s2"): [pred(1, 1, "b", -0.5), pred(0, 1, "b", -0.6)],  # both wrong
        }
        r_cls = score(corpus, preds, ScoreMode.CLASSIFICATION)
        assert (r_cls.n_gold, r_cls.n_pred, r_cls.n_correct) == (4, 6, 2)
        assert r_cls.precision == pytest.approx(1 / 3)
        assert r_cls.recall == pytest.approx(1 / 2)
        assert r_cls.f1 == pytest.approx(0.4)
        r_id = score(corpus, preds, ScoreMode.IDENTIFICATION)
        assert r_id.n_correct == 3  # the mistyped span now counts

    def test_each_gold_matches_once(self):
        corpus = [sent("s0", "甲乙", ((0, 1),), (TriggerNugget(0, 2, "a"),))]
        preds = {("d", "s0"): [pred(0, 2, "a", -0.1), pred(0, 2, "a", -0.2)]}
        r = score(corpus, preds)
        assert (r.n_pred, r.n_correct) == (2, 1)

    def test_duplicate_golds_need_duplicate_predictions(self):
        corpus = [
            sent("s0", "甲乙", ((0, 1),), (TriggerNugget(0, 2, "a"), TriggerNugget(0, 2, "b")))
        ]
        preds = {("d", "s0"): [pred(0, 2, "a")]}
        assert score(corpus, preds, ScoreMode.IDENTIFICATION).n_correct == 1
        preds2 = {("d", "s0"): [pred(0, 2, "a", -0.1), pred(0, 2, "b", -0.2)]}
        assert score(corpus, preds2, ScoreMode.IDENTIFICATION).n_correct == 2
        assert score(corpus, preds2, ScoreMode.CLASSIFICATION).n_correct == 2

    def test_absent_sentences_count_as_empty(self):
        corpus = self.corpus()
        r = score(corpus, {})
        assert (r.n_gold, r.n_pred, r.n_correct) == (4, 0, 0)
        assert r.f1 == 0.0

    def test_unknown_sentence_key_rejected(self):
        with pytest.raises(EvalInputError, match="unknown"):
            score(self.corpus(), {("d", "nope"): []})

    @pytest.mark.parametrize("scorer", [score, recall_by_match_type])
    def test_repeated_gold_sentence_key_rejected(self, scorer):
        # predictions hitting both sentences' triggers would match only the last sentence's
        corpus = [sent("s", "甲乙", ((0, 1),), (TriggerNugget(0, 1, "a"),)), sent("s", "丙丁", ((0, 1),), (TriggerNugget(1, 1, "a"),))]
        preds = {("d", "s"): [pred(0, 1, "a"), pred(1, 1, "a")]}
        with pytest.raises(EvalInputError, match=r"sentence key \('d', 's'\) twice"):
            scorer(corpus, preds)

    def test_out_of_bounds_prediction_rejected(self):
        corpus = self.corpus()
        with pytest.raises(EvalInputError, match="outside"):
            score(corpus, {("d", "s2"): [pred(1, 2, "b")]})
        with pytest.raises(EvalInputError, match="outside"):
            score(corpus, {("d", "s2"): [pred(-1, 1, "b")]})

    def test_identification_never_below_classification(self):
        corpus = self.corpus()
        preds = {
            ("d", "s0"): [pred(0, 2, "b", -0.1), pred(2, 2, "b", -0.2)],
            ("d", "s1"): [pred(1, 1, "b", -0.3)],
        }
        r_id = score(corpus, preds, ScoreMode.IDENTIFICATION)
        r_cls = score(corpus, preds, ScoreMode.CLASSIFICATION)
        assert r_id.n_correct >= r_cls.n_correct
        assert (r_id.n_correct, r_cls.n_correct) == (3, 1)

    @given(st.data())
    @settings(max_examples=60)
    def test_id_dominates_cls_on_random_predictions(self, data):
        corpus = [
            sent(
                "s0",
                "甲乙丙丁戊",
                ((0, 4),),
                (TriggerNugget(0, 2, "a"), TriggerNugget(3, 1, "b")),
            )
        ]
        n = data.draw(st.integers(min_value=0, max_value=6))
        preds = []
        for i in range(n):
            start = data.draw(st.integers(min_value=0, max_value=4))
            length = data.draw(st.integers(min_value=1, max_value=5 - start))
            subtype = data.draw(st.sampled_from(["a", "b", "c"]))
            preds.append(pred(start, length, subtype, -float(i)))
        mapping = {("d", "s0"): preds}
        r_id = score(corpus, mapping, ScoreMode.IDENTIFICATION)
        r_cls = score(corpus, mapping, ScoreMode.CLASSIFICATION)
        assert r_id.n_correct >= r_cls.n_correct
        assert r_id.n_correct <= min(r_id.n_gold, r_id.n_pred)


class TestRecallByMatchType:
    def corpus(self):
        return [
            # exact: trigger == word 1
            sent("s0", "甲乙丙丁", ((0, 1), (2, 3)), (TriggerNugget(2, 2, "a"),)),
            # part: trigger inside word 0
            sent("s1", "戊己庚", ((0, 2),), (TriggerNugget(1, 1, "a"),)),
            # cross: trigger straddles both words
            sent("s2", "辛壬癸子", ((0, 1), (2, 3)), (TriggerNugget(1, 2, "b"),)),
        ]

    def test_buckets_and_recalls(self):
        corpus = self.corpus()
        preds = {
            ("d", "s0"): [pred(2, 2, "a")],
            ("d", "s1"): [pred(0, 1, "a")],  # wrong span: miss
            ("d", "s2"): [pred(1, 2, "b")],
        }
        stats = recall_by_match_type(corpus, preds)
        assert stats[MatchType.EXACT] == RecallStat(1, 1)
        assert stats[MatchType.PART_OF_WORD] == RecallStat(1, 0)
        assert stats[MatchType.CROSS_WORDS] == RecallStat(1, 1)
        assert stats[MatchType.PART_OF_WORD].recall == 0.0

    def test_mode_changes_matches(self):
        corpus = self.corpus()
        preds = {("d", "s0"): [pred(2, 2, "WRONG")]}
        by_cls = recall_by_match_type(corpus, preds, ScoreMode.CLASSIFICATION)
        by_id = recall_by_match_type(corpus, preds, ScoreMode.IDENTIFICATION)
        assert by_cls[MatchType.EXACT].n_matched == 0
        assert by_id[MatchType.EXACT].n_matched == 1

    def test_empty_bucket_recall_zero(self):
        corpus = [self.corpus()[0]]
        stats = recall_by_match_type(corpus, {("d", "s0"): []})
        assert stats[MatchType.CROSS_WORDS] == RecallStat(0, 0)
        assert stats[MatchType.CROSS_WORDS].recall == 0.0
