import json
import math
import re
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuggetnet.corpus import AnnotatedSentence, SubtypeInventory
from nuggetnet.decoder import (
    DecodeStats,
    Prediction,
    decode_corpus,
    decode_sentence,
    load_predictions,
    save_predictions,
)
from nuggetnet.errors import CorpusFormatError
from nuggetnet.labels import encode_label, num_nugget_classes
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus

from decode_reference import decode_oracle
from util import ANY_JSON_VALUE, SCHEMA_DIR, small_model, toy_corpus, widen_params


class ScriptedModel:
    """Decoder-facing stand-in with hand-written per-char distributions."""

    def __init__(self, rows, subtypes=("injure", "other"), max_nugget_len=3):
        self.rows = rows
        self.subtypes = SubtypeInventory(subtypes)
        self.config = SimpleNamespace(max_nugget_len=max_nugget_len)

    def encode_sentence(self, sentence):
        pn, pt = zip(*self.rows)
        return np.array(pn, dtype=np.float64), np.array(pt, dtype=np.float64)

    def char_distributions(self, rows, ci):
        return rows[0][ci], rows[1][ci]


def decode(model, sentence, stats=None):
    """decode_sentence on the rows of the sentence's own forward."""
    return decode_sentence(model, sentence, model.encode_sentence(sentence), stats)


def sent(text, spans, triggers=()):
    return AnnotatedSentence("d", "s0", text, spans, triggers)


def nil(n_classes=7):
    row = [0.0] * n_classes
    row[0] = 1.0
    return row


def peaked(k, p, n_classes=7):
    row = [(1.0 - p) / (n_classes - 1)] * n_classes
    row[k] = p
    return row


class TestWorkedExample:
    # "受了伤": char 0 claims the full three-char span (class 4 = length 3,
    # position 1), char 1 stays NIL, char 2 claims itself (class 1).
    def model(self):
        return ScriptedModel(
            [
                (peaked(4, 0.5), [0.8, 0.2]),
                (nil(), [0.5, 0.5]),
                (peaked(1, 0.9), [0.6, 0.4]),
            ]
        )

    def test_spans_types_and_scores(self):
        preds = decode(self.model(), sent("受了伤", ((0, 1), (2, 2))))
        assert preds == [
            Prediction(0, 3, "injure", math.log(0.5) + math.log(0.8)),
            Prediction(2, 1, "injure", math.log(0.9) + math.log(0.6)),
        ]

    def test_oracle_agrees(self):
        s = sent("受了伤", ((0, 1), (2, 2)))
        assert decode_oracle(self.model(), s) == decode(self.model(), s)

    def test_stats_count_proposals(self):
        stats = DecodeStats()
        decode(self.model(), sent("受了伤", ((0, 1), (2, 2))), stats)
        assert (stats.proposed, stats.out_of_bounds, stats.merged) == (2, 0, 0)


class TestDecodeRules:
    def test_out_of_bounds_discarded(self):
        # class 3 = length 2, position 2: char 0 would start at -1
        model = ScriptedModel([(peaked(3, 0.9), [0.9, 0.1]), (nil(), [0.5, 0.5])])
        stats = DecodeStats()
        assert decode(model, sent("受伤", ((0, 1),)), stats) == []
        assert stats.out_of_bounds == 1 and stats.proposed == 0

    def test_overlong_tail_discarded(self):
        # class 2 = length 2, position 1: char 1 would end past the text
        model = ScriptedModel([(nil(), [0.5, 0.5]), (peaked(2, 0.9), [0.9, 0.1])])
        stats = DecodeStats()
        assert decode(model, sent("受伤", ((0, 1),)), stats) == []
        assert stats.out_of_bounds == 1

    def test_duplicate_span_keeps_higher_score(self):
        # both chars claim span [0,2); char 1 is more confident
        model = ScriptedModel([(peaked(2, 0.6), [0.9, 0.1]), (peaked(3, 0.8), [0.2, 0.8])])
        stats = DecodeStats()
        preds = decode(model, sent("受伤", ((0, 1),)), stats)
        assert preds == [Prediction(0, 2, "other", math.log(0.8) + math.log(0.8))]
        assert stats.merged == 1 and stats.proposed == 2

    def test_duplicate_span_tie_prefers_lower_subtype_id(self):
        model = ScriptedModel([(peaked(2, 0.7), [0.2, 0.8]), (peaked(3, 0.7), [0.8, 0.2])])
        preds = decode(model, sent("受伤", ((0, 1),)))
        assert len(preds) == 1 and preds[0].subtype == "injure"
        assert preds[0].score == math.log(0.7) + math.log(0.8)

    def test_all_nil_sentence(self):
        model = ScriptedModel([(nil(), [0.5, 0.5])] * 3)
        assert decode(model, sent("受了伤", ((0, 1), (2, 2)))) == []

    def test_predictions_sorted_by_span(self):
        model = ScriptedModel(
            [
                (peaked(1, 0.9), [0.9, 0.1]),
                (peaked(1, 0.9), [0.1, 0.9]),
                (peaked(1, 0.9), [0.9, 0.1]),
            ]
        )
        preds = decode(model, sent("受了伤", ((0, 1), (2, 2))))
        assert [(p.start, p.length) for p in preds] == [(0, 1), (1, 1), (2, 1)]


@st.composite
def scripted_cases(draw):
    """(rows, subtype names, max_nugget_len) drawn from a seed.

    A row holds 0.1 and its peak (0.2 or 0.4 for span classes, 0.4 for
    subtypes), the peak at one random class and, by chance, at others too:
    argmax ties, equal-score duplicate spans and claims past either edge
    all come up within a few hundred cases.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_len, n_types, n = (int(v) for v in rng.integers(1, [4, 4, 11]))

    def rows(size, peaks):
        peak = rng.choice(peaks, size=(n, 1))
        values = np.where(rng.random((n, size)) < 0.2, peak, 0.1)
        values[np.arange(n), rng.integers(0, size, n)] = peak[:, 0]
        return values.tolist()

    pn, pt = rows(num_nugget_classes(max_len), [0.2, 0.4]), rows(n_types, [0.4])
    return list(zip(pn, pt)), tuple(f"t{i}" for i in range(n_types)), max_len


class TestRandomRows:
    @given(scripted_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_and_counts(self, case):
        rows, subtypes, max_len = case
        model = ScriptedModel(rows, subtypes=subtypes, max_nugget_len=max_len)
        n = len(rows)
        s = sent("字" * n, tuple((i, i) for i in range(n)))
        stats = DecodeStats()
        assert decode(model, s, stats) == decode_oracle(model, s)

        pairs = [(ln, pos) for ln in range(1, max_len + 1) for pos in range(1, ln + 1)]
        label_of = {encode_label(ln, pos, max_len): (ln, pos) for ln, pos in pairs}
        proposed = out_of_bounds = 0
        spans = set()
        for ci, (pn, _) in enumerate(rows):
            k = pn.index(max(pn))
            if k == 0:
                continue
            length, position = label_of[k]
            start = ci - position + 1
            if start < 0 or start + length > n:
                out_of_bounds += 1
                continue
            proposed += 1
            spans.add((start, length))
        assert (stats.proposed, stats.out_of_bounds, stats.merged) == (proposed, out_of_bounds, proposed - len(spans))


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", ["concat", "general", "task_specific"])
    def test_untrained_models_agree(self, mode):
        corpus = toy_corpus()
        model = small_model(corpus, mode=mode)
        widen_params(model.store, scale=0.6, rng_seed=5)
        for sentence in corpus:
            assert decode(model, sentence) == decode_oracle(model, sentence)

    def test_synthetic_corpus_agrees(self):
        spec = GenSpec(n_sentences=12, subtypes=default_subtype_names(3))
        corpus = generate_synthetic_corpus(spec, rng_seed=3)
        model = small_model(corpus, rng_seed=17)
        widen_params(model.store, scale=0.8, rng_seed=6)
        checked = 0
        for sentence in corpus:
            a = decode(model, sentence)
            b = decode_oracle(model, sentence)
            assert a == b
            checked += len(a)
        assert checked > 0  # widened weights must actually fire some proposals


class TestPredictionFiles:
    def preds(self):
        return {
            ("doc-a", "s0"): [Prediction(0, 2, "injure", -0.5), Prediction(3, 1, "other", -1.25)],
            ("doc-a", "s1"): [],
            ("doc-b", "s0"): [Prediction(1, 3, "injure", -2.0)],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(path, self.preds())
        assert load_predictions(path) == self.preds()

    @pytest.mark.parametrize("before", [None, "previous"])
    def test_a_failed_save_leaves_the_previous_file_or_none(self, tmp_path, before):
        # the last sentence's key holds a lone surrogate, which UTF-8 cannot encode: the save fails part way
        path = tmp_path / "preds.jsonl"
        if before is not None:
            save_predictions(path, {("doc-a", "s0"): []})
        old = path.read_bytes() if before else None
        with pytest.raises(UnicodeEncodeError):
            save_predictions(path, {**self.preds(), ("doc-\ud800", "s0"): []})
        assert (path.read_bytes() if path.exists() else None) == old
        assert [p.name for p in tmp_path.iterdir()] == ([path.name] if before else [])

    def test_saved_bytes_are_one_utf8_json_line_per_sentence(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(path, {("文档", "s0"): [Prediction(0, 2, "伤害", -0.5)]})
        rec = {"doc_id": "文档", "sent_id": "s0", "predictions": [{"start": 0, "length": 2, "subtype": "伤害", "score": -0.5}]}
        assert path.read_bytes() == (json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")

    def test_matches_schema(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(path, self.preds())
        schema = json.loads((SCHEMA_DIR / "predictions.schema.json").read_text())
        for line in path.read_text().splitlines():
            jsonschema.validate(json.loads(line), schema)

    def test_duplicate_sentence_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rec = {"doc_id": "d", "sent_id": "s0", "predictions": []}
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_predictions(path)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"doc_id": "d", "sent_id": "s0"}\n')
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_predictions(path)

    def test_bad_prediction_field_reports_path_and_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        good = {"doc_id": "d", "sent_id": "s0", "predictions": []}
        bad = {"doc_id": "d", "sent_id": "s1", "predictions": [{"start": "x", "length": 1, "subtype": "a", "score": 0}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(CorpusFormatError, match=r"preds\.jsonl: line 2: bad prediction record"):
            load_predictions(path)

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_non_finite_score_reports_path_and_line(self, tmp_path, score):
        path = tmp_path / "preds.jsonl"
        good = '{"doc_id": "d", "sent_id": "s0", "predictions": []}'
        bad = '{"doc_id": "d", "sent_id": "s1", "predictions": [{"start": 0, "length": 1, "subtype": "a", "score": %s}]}'
        path.write_text(good + "\n" + bad % score + "\n")
        with pytest.raises(CorpusFormatError, match=r"preds\.jsonl: line 2: bad prediction record .* not finite"):
            load_predictions(path)

    def test_decode_corpus_keys(self):
        corpus = toy_corpus()
        model = small_model(corpus)
        preds, stats = decode_corpus(model, corpus)
        assert set(preds) == {s.key for s in corpus}
        assert stats.proposed >= stats.merged


@st.composite
def mutated_lines(draw):
    """A valid predictions line with one change: a key's value swapped, a key dropped or a key added."""
    rec = {"doc_id": "d", "sent_id": "s1", "predictions": [{"start": 1, "length": 2, "subtype": "a", "score": -0.5}]}
    target = draw(st.sampled_from([rec, rec["predictions"][0]]))
    change = draw(st.sampled_from(["swap", "drop", "add"]))
    if change == "add":
        target[draw(st.sampled_from(["extra", "type", "doc_id"]))] = draw(ANY_JSON_VALUE)
    else:
        key = draw(st.sampled_from(sorted(target)))
        if change == "drop":
            del target[key]
        else:
            target[key] = draw(ANY_JSON_VALUE)
    return rec


class TestPredictionRecordTypes:
    schema = json.loads((SCHEMA_DIR / "predictions.schema.json").read_text())

    @given(mutated_lines())
    @settings(max_examples=300, deadline=None)
    def test_loader_rejects_what_the_schema_rejects(self, tmp_path_factory, rec):
        path = tmp_path_factory.mktemp("preds") / "preds.jsonl"
        good = {"doc_id": "d", "sent_id": "s0", "predictions": []}
        path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n", encoding="utf-8")
        try:
            jsonschema.validate(rec, self.schema)
        except jsonschema.ValidationError:
            with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}: line 2: "):
                load_predictions(path)
            return
        try:
            loaded = load_predictions(path)
        except CorpusFormatError:
            # the loader is stricter than the schema on one point: an integer field takes no 1.0
            assert any(type(p[k]) is float for p in rec["predictions"] for k in ("start", "length"))
            return
        key = (rec["doc_id"], rec["sent_id"])
        assert loaded[key] == [Prediction(**p) for p in rec["predictions"]]

    @pytest.mark.parametrize("field, value", [("start", 1.7), ("start", True), ("length", 2.0), ("subtype", 3)])
    def test_inexact_types_rejected(self, field, value):
        rec = {"start": 1, "length": 2, "subtype": "a", "score": -0.5, field: value}
        with pytest.raises(CorpusFormatError, match="bad prediction record"):
            Prediction.from_record(rec)


class TestPrediction:
    def test_record_round_trip(self):
        p = Prediction(2, 3, "injure", -0.125)
        assert Prediction.from_record(p.to_record()) == p

    def test_bad_record(self):
        with pytest.raises(CorpusFormatError):
            Prediction.from_record({"start": 1, "length": "x", "subtype": "a", "score": 0.0})
