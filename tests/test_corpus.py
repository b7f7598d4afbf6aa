import json
import re

import numpy as np
import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from nuggetnet.corpus import (
    PAD_ID,
    UNK_ID,
    AnnotatedSentence,
    MatchType,
    SubtypeInventory,
    TriggerNugget,
    Vocabulary,
    build_vocab,
    classify_match_type,
    load_corpus,
    make_instances,
    relative_position_index,
    save_corpus,
    sentence_from_record,
    sentence_to_record,
)
from nuggetnet.errors import CorpusFormatError, CorpusValidationError
from nuggetnet.labels import NuggetLabel

from util import ANY_JSON_VALUE, SCHEMA_DIR, toy_corpus


def sent(text, words, triggers=()):
    return AnnotatedSentence("d", "s", text, tuple(words), tuple(triggers))


class TestSentenceValidation:
    def test_valid_sentence_builds(self):
        s = sent("天下雨", [(0, 1), (2, 2)], [TriggerNugget(2, 1, "rain")])
        assert s.words == ["天下", "雨"]
        assert s.word_index_of(0) == 0 and s.word_index_of(2) == 1

    def test_words_must_partition_text(self):
        with pytest.raises(CorpusValidationError, match="words"):
            sent("天下雨", [(0, 1)])
        with pytest.raises(CorpusValidationError, match="words"):
            sent("天下雨", [(0, 1), (1, 2)])
        with pytest.raises(CorpusValidationError, match="words"):
            sent("天下雨", [(2, 2), (0, 1)])

    def test_trigger_bounds_checked(self):
        with pytest.raises(CorpusValidationError, match="trigger"):
            sent("天下雨", [(0, 1), (2, 2)], [TriggerNugget(2, 2, "rain")])
        with pytest.raises(CorpusValidationError, match="trigger"):
            sent("天下雨", [(0, 1), (2, 2)], [TriggerNugget(-1, 1, "rain")])

    def test_duplicate_triggers_rejected(self):
        dup = TriggerNugget(0, 2, "x")
        with pytest.raises(CorpusValidationError, match="duplicate"):
            sent("天下雨", [(0, 1), (2, 2)], [dup, dup])

    def test_same_span_different_type_allowed(self):
        s = sent("天下雨", [(0, 1), (2, 2)], [TriggerNugget(0, 2, "x"), TriggerNugget(0, 2, "y")])
        assert len(s.triggers) == 2

    def test_empty_text_rejected(self):
        with pytest.raises(CorpusValidationError):
            sent("", [])


class TestMatchType:
    def test_exact_when_trigger_is_a_word(self):
        s = sent("天下雨", [(0, 1), (2, 2)])
        assert classify_match_type(s, TriggerNugget(0, 2, "x")) is MatchType.EXACT
        assert classify_match_type(s, TriggerNugget(2, 1, "x")) is MatchType.EXACT

    def test_part_of_word(self):
        s = sent("天下雨", [(0, 1), (2, 2)])
        assert classify_match_type(s, TriggerNugget(0, 1, "x")) is MatchType.PART_OF_WORD
        assert classify_match_type(s, TriggerNugget(1, 1, "x")) is MatchType.PART_OF_WORD

    def test_cross_words(self):
        s = sent("天下雨", [(0, 1), (2, 2)])
        assert classify_match_type(s, TriggerNugget(1, 2, "x")) is MatchType.CROSS_WORDS
        assert classify_match_type(s, TriggerNugget(0, 3, "x")) is MatchType.CROSS_WORDS

    @given(st.data())
    def test_match_types_exhaustive_and_exclusive(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        # random partition of [0, n) into words
        cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=n - 1)) | {0, n}) if n > 1 else [0, 1]
        words = [(a, b - 1) for a, b in zip(cuts, cuts[1:])]
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        length = data.draw(st.integers(min_value=1, max_value=n - start))
        text = "".join(chr(0x4E00 + i) for i in range(n))
        s = sent(text, words, [TriggerNugget(start, length, "x")])
        mt = classify_match_type(s, s.triggers[0])
        first, last = s.word_index_of(start), s.word_index_of(start + length - 1)
        if first != last:
            assert mt is MatchType.CROSS_WORDS
        elif s.word_spans[first] == (start, start + length - 1):
            assert mt is MatchType.EXACT
        else:
            assert mt is MatchType.PART_OF_WORD


class TestSerialization:
    def test_round_trip(self, tmp_path):
        corpus = toy_corpus()
        path = tmp_path / "c.jsonl"
        save_corpus(path, corpus)
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("before", [None, "previous"])
    def test_a_failed_save_leaves_the_previous_file_or_none(self, tmp_path, before):
        # the last sentence's text holds a lone surrogate, which UTF-8 cannot encode: the save fails part way
        path = tmp_path / "c.jsonl"
        if before is not None:
            save_corpus(path, toy_corpus()[:1])
        old = path.read_bytes() if before else None
        corpus = [*toy_corpus(), AnnotatedSentence("d", "bad", "a\ud800", ((0, 1),), ())]
        with pytest.raises(UnicodeEncodeError):
            save_corpus(path, corpus)
        assert (path.read_bytes() if path.exists() else None) == old
        assert [p.name for p in tmp_path.iterdir()] == ([path.name] if before else [])

    def test_saved_bytes_are_one_utf8_json_line_per_sentence(self, tmp_path):
        corpus = toy_corpus()
        path = tmp_path / "c.jsonl"
        save_corpus(path, corpus)
        lines = [json.dumps(sentence_to_record(s), ensure_ascii=False) + "\n" for s in corpus]
        assert path.read_bytes() == "".join(lines).encode("utf-8")

    def test_record_round_trip(self):
        s = toy_corpus()[0]
        assert sentence_from_record(sentence_to_record(s)) == s

    def test_bad_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d"]\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_missing_field_reports_name(self, tmp_path):
        rec = sentence_to_record(toy_corpus()[0])
        del rec["words"]
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="words"):
            load_corpus(path)

    def test_invalid_sentence_reports_line(self, tmp_path):
        rec = sentence_to_record(toy_corpus()[0])
        rec["triggers"][0]["length"] = 99
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(CorpusValidationError, match="line 1"):
            load_corpus(path)

    def test_repeated_sentence_key_names_both_lines(self, tmp_path):
        # two sentences under one (doc_id, sent_id) would share one prediction record and one gold match
        first, second, third = (sentence_to_record(s) for s in toy_corpus())
        third["sent_id"] = first["sent_id"]
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in (first, second, third)), encoding="utf-8")
        with pytest.raises(CorpusValidationError, match=r"c\.jsonl: line 3: sentence key \('d', 's1'\) repeats line 1"):
            load_corpus(path)

    def test_corpus_lines_validate_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "schemas" / "corpus.schema.json").read_text()
        )
        for s in toy_corpus():
            jsonschema.validate(sentence_to_record(s), schema)


GOOD_LINE = {"doc_id": "d", "sent_id": "s0", "text": "甲", "words": [[0, 0]], "triggers": []}


def corpus_file(path, rec):
    """A corpus file at path: a valid sentence on line 1, rec on line 2."""
    path.write_text(json.dumps(GOOD_LINE) + "\n" + json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
    return path


@st.composite
def mutated_sentences(draw):
    """A valid corpus line with one change: a value swapped, or an entry dropped or added, in the record, a word or a trigger."""
    rec = {
        "doc_id": "d",
        "sent_id": "s1",
        "text": "甲乙丙",
        "words": [[0, 1], [2, 2]],
        "triggers": [{"start": 1, "length": 2, "type": "a"}],
    }
    target = draw(st.sampled_from([rec, rec["words"][0], rec["triggers"][0]]))
    change = draw(st.sampled_from(["swap", "drop", "add"]))
    if isinstance(target, list):
        if change == "add":
            target.append(draw(ANY_JSON_VALUE))
        elif change == "drop":
            del target[draw(st.integers(0, len(target) - 1))]
        else:
            target[draw(st.integers(0, len(target) - 1))] = draw(ANY_JSON_VALUE)
    elif change == "add":
        target[draw(st.sampled_from(["extra", "subtype", "doc_id"]))] = draw(ANY_JSON_VALUE)
    else:
        key = draw(st.sampled_from(sorted(target)))
        if change == "drop":
            del target[key]
        else:
            target[key] = draw(ANY_JSON_VALUE)
    return rec


class TestCorpusRecordTypes:
    schema = json.loads((SCHEMA_DIR / "corpus.schema.json").read_text())

    @given(mutated_sentences())
    @settings(max_examples=300, deadline=None)
    def test_loader_rejects_what_the_schema_rejects(self, tmp_path_factory, rec):
        path = corpus_file(tmp_path_factory.mktemp("corpus") / "c.jsonl", rec)
        where = rf"^{re.escape(str(path))}: line 2: "
        try:
            jsonschema.validate(rec, self.schema)
        except jsonschema.ValidationError as err:
            with pytest.raises((CorpusFormatError, CorpusValidationError), match=where) as info:
                load_corpus(path)
            if err.validator == "type":
                assert isinstance(info.value, CorpusFormatError)
            return
        try:
            loaded = load_corpus(path)
        except CorpusValidationError as exc:
            # what the schema cannot say: words that partition the text, triggers inside it
            assert re.match(where, str(exc))
            return
        except CorpusFormatError:
            # the loader is stricter than the schema on one point: an integer field takes no 1.0
            ints = [v for span in rec["words"] for v in span] + [t[k] for t in rec["triggers"] for k in ("start", "length")]
            assert any(type(v) is float for v in ints)
            return
        assert sentence_to_record(loaded[1]) == rec

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("triggers", [{"start": 0, "length": 1, "type": 5}], "triggers[0].type"),
            ("triggers", [{"start": True, "length": 1, "type": "a"}], "triggers[0].start"),
            ("triggers", {}, "triggers"),
            ("words", [[0, 0.5], [1, 1]], "words"),
            ("words", [[0, False], [1, 1]], "words"),
            ("doc_id", 1, "doc_id"),
            ("sent_id", None, "sent_id"),
            ("extra", 1, "extra"),
        ],
    )
    def test_inexact_values_rejected(self, tmp_path, field, value, named):
        rec = {"doc_id": "d", "sent_id": "s1", "text": "甲乙", "words": [[0, 0], [1, 1]], "triggers": [], field: value}
        path = corpus_file(tmp_path / "c.jsonl", rec)
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}: line 2: .*{re.escape(named)}"):
            load_corpus(path)


class TestSubtypeInventory:
    def test_ids_follow_declared_order(self):
        inv = SubtypeInventory(["b", "a", "c"])
        assert [inv.id_of(n) for n in ("b", "a", "c")] == [0, 1, 2]

    def test_from_corpus_sorts_names(self):
        inv = SubtypeInventory.from_corpus(toy_corpus())
        assert inv.names == ["x", "y"]
        assert inv.name_of(0) == "x"

    def test_unknown_name_raises(self):
        inv = SubtypeInventory(["a"])
        with pytest.raises(CorpusValidationError, match="unknown"):
            inv.id_of("zzz")


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = build_vocab(toy_corpus())
        assert PAD_ID == 0 and UNK_ID == 1
        assert all(v >= 2 for v in vocab.char_to_id.values())
        assert vocab.char_ids(["never-seen"])[0] == UNK_ID
        assert vocab.word_ids(["never-seen"])[0] == UNK_ID

    def test_counts(self):
        vocab = build_vocab(toy_corpus())
        n_unique_chars = len({c for s in toy_corpus() for c in s.text})
        assert vocab.n_chars == n_unique_chars + 2
        assert vocab.n_words == len({w for s in toy_corpus() for w in s.words}) + 2

    def test_min_count_filters(self):
        corpus = toy_corpus() * 2  # every token now appears twice
        v1 = build_vocab(corpus, min_count=2)
        v2 = build_vocab(toy_corpus(), min_count=2)
        assert len(v1.char_to_id) > 0
        assert len(v2.char_to_id) == 0  # all singletons drop to UNK

    def test_json_round_trip(self):
        vocab = build_vocab(toy_corpus(), max_rel_dist=7)
        back = Vocabulary.from_json(vocab.to_json())
        assert back == vocab

    def test_relative_position_clipping(self):
        assert relative_position_index(0, 3) == 3
        assert relative_position_index(-3, 3) == 0
        assert relative_position_index(-9, 3) == 0
        assert relative_position_index(3, 3) == 6
        assert relative_position_index(50, 3) == 6

    @given(st.integers(min_value=-200, max_value=200), st.integers(min_value=1, max_value=60))
    def test_relative_position_in_range(self, rel, mrd):
        idx = relative_position_index(rel, mrd)
        assert 0 <= idx <= 2 * mrd


class TestMakeInstances:
    def test_positive_labels(self):
        sets = make_instances(toy_corpus(), neg_ratio=0.0, rng_seed=0)
        # s1 contributes 2 chars, s2 one, s3 three
        assert len(sets.classifier) == 6
        assert sets.generator == sets.classifier  # no negatives requested
        by_char = {(i.sentence.sent_id, i.char_index): i.nugget_label for i in sets.classifier}
        assert by_char[("s1", 2)] == NuggetLabel(2, 1)
        assert by_char[("s1", 3)] == NuggetLabel(2, 2)
        assert by_char[("s2", 3)] == NuggetLabel(1, 1)
        assert by_char[("s3", 1)] == NuggetLabel(3, 1)
        assert by_char[("s3", 3)] == NuggetLabel(3, 3)
        assert all(i.type_label in ("x", "y") for i in sets.classifier)

    def test_negative_sampling_count_and_labels(self):
        sets = make_instances(toy_corpus(), neg_ratio=1.0, rng_seed=0)
        negatives = [i for i in sets.generator if i.nugget_label.is_nil]
        assert len(negatives) == 6  # floor(1.0 * 6)
        covered = {
            (s.sent_id, i)
            for s in toy_corpus()
            for t in s.triggers
            for i in range(t.start, t.start + t.length)
        }
        assert all((i.sentence.sent_id, i.char_index) not in covered for i in negatives)
        assert all(i.type_label is None for i in negatives)

    def test_sampling_is_deterministic(self):
        a = make_instances(toy_corpus(), neg_ratio=1.0, rng_seed=5)
        b = make_instances(toy_corpus(), neg_ratio=1.0, rng_seed=5)
        assert a.generator == b.generator

    def test_overlong_triggers_dropped_and_counted(self):
        s = sent(
            "甲乙丙丁戊",
            [(0, 4)],
            [TriggerNugget(0, 4, "long"), TriggerNugget(0, 1, "ok")],
        )
        sets = make_instances([s], neg_ratio=0.0, rng_seed=0, max_len=3)
        assert sets.dropped_triggers == 1
        assert {i.char_index for i in sets.classifier} == {0}

    def test_overlapping_triggers_give_one_instance_each(self):
        s = sent("甲乙丙", [(0, 2)], [TriggerNugget(0, 2, "a"), TriggerNugget(1, 2, "b")])
        sets = make_instances([s], neg_ratio=0.0, rng_seed=0)
        at_char1 = [i for i in sets.classifier if i.char_index == 1]
        assert len(at_char1) == 2
        assert {i.type_label for i in at_char1} == {"a", "b"}
