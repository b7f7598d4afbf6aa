"""The hand-written record schemas agree with their readers on every single-field change of a valid record.

schemas/corpus.schema.json describes one corpus line, which
corpus.sentence_from_record reads; schemas/predictions.schema.json one
predictions line, which decoder.load_predictions reads.  Each change sets,
drops or adds one field of a valid record.  The schema and the reader must
then give the same verdict, except where the reader refuses a record for a
reason the schema cannot state: those reasons are listed by name below.
"""

import json
import math

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from nuggetnet.corpus import sentence_from_record, sentence_to_record
from nuggetnet.decoder import load_predictions
from nuggetnet.errors import CorpusFormatError, CorpusValidationError

from util import ANY_JSON_VALUE, SCHEMA_DIR


def _validator(name):
    return jsonschema.Draft202012Validator(json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8")))


CORPUS_SCHEMA = _validator("corpus.schema.json")
PREDICTIONS_SCHEMA = _validator("predictions.schema.json")

SENTENCE = {
    "doc_id": "d",
    "sent_id": "s1",
    "text": "甲乙丙",
    "words": [[0, 1], [2, 2]],
    "triggers": [{"start": 1, "length": 2, "type": "a"}],
}
PREDICTIONS = {"doc_id": "d", "sent_id": "s1", "predictions": [{"start": 1, "length": 2, "subtype": "a", "score": -0.5}]}

INTS = st.integers(-2, 4) | st.just(2**40) | st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, 1.5, True, False])
TEXTS = st.sampled_from(["", "a", "甲", "甲乙丙", "甲乙丙丁"])
SCORES = st.sampled_from([-0.5, 0.0, -0.0, 3, 1e308, -1e-300, math.nan, math.inf, -math.inf, True])
# path of keys and indices -> value strategy, for every value of the valid record
SENTENCE_FIELDS = {
    ("doc_id",): TEXTS,
    ("sent_id",): TEXTS,
    ("text",): TEXTS,
    ("words",): st.sampled_from([[], [[0, 2]], [[0, 0], [1, 2]], [[0, 0], [1, 1], [2, 2]], [[0, 1], [2, 3]]]),
    ("words", 0): st.sampled_from([[0, 1], [0], [0, 1, 2], [1, 0], [0, 0]]),
    ("words", 0, 0): INTS,
    ("words", 0, 1): INTS,
    ("words", 1, 0): INTS,
    ("words", 1, 1): INTS,
    ("triggers",): st.sampled_from([[], [{"start": 0, "length": 3, "type": "b"}]]),
    ("triggers", 0, "start"): INTS,
    ("triggers", 0, "length"): INTS,
    ("triggers", 0, "type"): TEXTS,
}
PREDICTION_FIELDS = {
    ("doc_id",): TEXTS,
    ("sent_id",): TEXTS,
    ("predictions",): st.sampled_from([[], [{"start": 0, "length": 1, "subtype": "b", "score": 0.0}] * 2]),
    ("predictions", 0, "start"): INTS,
    ("predictions", 0, "length"): INTS,
    ("predictions", 0, "subtype"): TEXTS,
    ("predictions", 0, "score"): SCORES,
}
SENTENCE_INTEGERS = [("words", i, j) for i in (0, 1) for j in (0, 1)] + [("triggers", 0, "start"), ("triggers", 0, "length")]
PREDICTION_INTEGERS = [("predictions", 0, "start"), ("predictions", 0, "length")]
SCORE = ("predictions", 0, "score")


def _at(rec, path):
    for key in path:
        try:
            rec = rec[key]
        except (KeyError, IndexError, TypeError):
            return None
    return rec


def _integer_valued_float(integers):
    # JSON Schema counts 3.0 as an integer; the readers keep integer fields strict
    return lambda rec, exc: any(type(_at(rec, path)) is float and _at(rec, path).is_integer() for path in integers)


# the readers' refusals that the schemas cannot state, by name
SENTENCE_CODE_ONLY = {
    "integer-valued float": _integer_valued_float(SENTENCE_INTEGERS),
    "words that do not partition the text": lambda rec, exc: "field 'words'" in str(exc),
    "trigger outside the text": lambda rec, exc: "field 'triggers'" in str(exc) and "exceeds sentence length" in str(exc),
}
PREDICTION_CODE_ONLY = {
    "integer-valued float": _integer_valued_float(PREDICTION_INTEGERS),
    "non-finite score": lambda rec, exc: type(_at(rec, SCORE)) is float and not math.isfinite(_at(rec, SCORE)),
}


def read_sentence(rec, tmp_dir):
    return sentence_to_record(sentence_from_record(rec))


def read_predictions(rec, tmp_dir):
    path = tmp_dir / "preds.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    ((key, predictions),) = load_predictions(path).items()
    return {"doc_id": key[0], "sent_id": key[1], "predictions": [vars(p) for p in predictions]}


KINDS = {
    "corpus": (SENTENCE, SENTENCE_FIELDS, CORPUS_SCHEMA, read_sentence, SENTENCE_CODE_ONLY),
    "predictions": (PREDICTIONS, PREDICTION_FIELDS, PREDICTIONS_SCHEMA, read_predictions, PREDICTION_CODE_ONLY),
}


@st.composite
def changes(draw, valid, fields):
    """A deep copy of the valid record with one change: a value set, dropped or added where a record or list may take one."""
    rec = json.loads(json.dumps(valid))
    path = draw(st.sampled_from(sorted(fields, key=str)))
    parent, key = _at(rec, path[:-1]), path[-1]
    change = draw(st.sampled_from(["set", "drop", "add"]))
    if change == "set":
        parent[key] = draw(fields[path] | ANY_JSON_VALUE)
    elif change == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(["extra", "type", "subtype", "doc_id"]))] = draw(ANY_JSON_VALUE)
    else:
        parent.append(draw(fields[path] | ANY_JSON_VALUE))
    return rec


def _agree(kind, rec, tmp_dir) -> None:
    """The schema and the reader give rec the same verdict, but for a code-only refusal named in the kind's list."""
    _, _, validator, read, code_only = KINDS[kind]
    schema_error = next(validator.iter_errors(rec), None)
    try:
        read(rec, tmp_dir)
    except (CorpusFormatError, CorpusValidationError) as exc:
        named = [name for name, applies in code_only.items() if applies(rec, exc)]
        assert schema_error is not None or named, f"{rec!r}: only the reader refuses it: {exc}"
        return
    assert schema_error is None, f"{rec!r}: only the schema refuses it: {schema_error.message}"


@pytest.mark.parametrize("kind", KINDS)
def test_the_valid_records_are_read_back_as_they_are(kind, tmp_path):
    valid, _, validator, read, _ = KINDS[kind]
    validator.validate(valid)
    assert read(valid, tmp_path) == valid


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_schema_and_reader_agree_on_every_single_field_change(kind, data, tmp_path_factory):
    valid, fields, *_ = KINDS[kind]
    _agree(kind, data.draw(changes(valid, fields)), tmp_path_factory.getbasetemp())


@pytest.mark.parametrize(
    "kind, path, value, name",
    [
        ("corpus", ("words", 1, 0), 2.0, "integer-valued float"),
        ("corpus", ("triggers", 0, "length"), 2.0, "integer-valued float"),
        ("corpus", ("words", 1, 1), 3, "words that do not partition the text"),
        ("corpus", ("text",), "甲乙丙丁", "words that do not partition the text"),
        ("corpus", ("triggers", 0, "start"), 2, "trigger outside the text"),
        ("predictions", ("predictions", 0, "start"), 3.0, "integer-valued float"),
        ("predictions", ("predictions", 0, "score"), math.nan, "non-finite score"),
        ("predictions", ("predictions", 0, "score"), -math.inf, "non-finite score"),
    ],
)
def test_every_named_code_only_refusal_happens(kind, path, value, name, tmp_path):
    # each refusal the lists name passes the schema, fails the reader, and is told apart by its rule alone
    valid, _, validator, read, code_only = KINDS[kind]
    rec = json.loads(json.dumps(valid))
    _at(rec, path[:-1])[path[-1]] = value
    validator.validate(rec)
    with pytest.raises((CorpusFormatError, CorpusValidationError)) as info:
        read(rec, tmp_path)
    assert [n for n, applies in code_only.items() if applies(rec, info.value)] == [name]
