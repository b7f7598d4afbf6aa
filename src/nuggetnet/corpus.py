"""Data model for character-segmented, trigger-annotated sentences.

Corpus files are UTF-8 JSON lines, one sentence per line:

    {"doc_id": "...", "sent_id": "...", "text": "...",
     "words": [[start, end_inclusive], ...],
     "triggers": [{"start": int, "length": int, "type": str}, ...]}

`words` must partition the character range exactly; triggers are character
spans that may sit inside a word or cross word boundaries.  The machine
readable schema lives in schemas/corpus.schema.json.

A "character" here is a Unicode scalar value, i.e. one element of a Python
string; grapheme clusters are out of scope.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CheckpointError, CorpusFormatError, CorpusValidationError, check_keys, check_value, is_a, reading
from .labels import NuggetLabel, label_for

logger = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1


@dataclass(frozen=True)
class TriggerNugget:
    """A trigger span: `length` characters starting at `start`, with an event subtype name."""

    start: int
    length: int
    subtype: str

    @property
    def end_inclusive(self) -> int:
        return self.start + self.length - 1


class SubtypeInventory:
    """Dense, stable mapping between subtype names and integer ids.

    Order of `names` is preserved, so an inventory built from a declared list
    keeps that list's ids; `from_corpus` sorts names for run-to-run stability.
    """

    def __init__(self, names: Iterable[str]):
        self.names: list[str] = list(dict.fromkeys(names))  # a name listed again keeps its first id
        self._ids = {name: i for i, name in enumerate(self.names)}
        if not self.names:
            raise CorpusValidationError("subtype inventory is empty")

    @classmethod
    def from_corpus(cls, corpus: Sequence["AnnotatedSentence"]) -> "SubtypeInventory":
        names = sorted({t.subtype for s in corpus for t in s.triggers})
        return cls(names)

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            raise CorpusValidationError(f"unknown event subtype {name!r}")
        return self._ids[name]

    def name_of(self, subtype_id: int) -> str:
        return self.names[subtype_id]


@dataclass
class AnnotatedSentence:
    doc_id: str
    sent_id: str
    text: str
    word_spans: tuple[tuple[int, int], ...]  # (start, end) with end inclusive
    triggers: tuple[TriggerNugget, ...]

    def __post_init__(self):
        self.word_spans = tuple((int(s), int(e)) for s, e in self.word_spans)
        self.triggers = tuple(self.triggers)
        # ids()'s memo; in CPython a key first set later makes each sentence's __dict__ ~350 bytes larger
        self._ids = None
        self._validate()

    def _validate(self) -> None:
        n = len(self.text)
        if n == 0:
            raise CorpusValidationError(f"{self.sent_id}: field 'text' is empty")
        if not self.word_spans:
            raise CorpusValidationError(
                f"{self.sent_id}: field 'words' must partition the text, got none"
            )
        expect = 0
        for k, (s, e) in enumerate(self.word_spans):
            if s != expect or e < s:
                raise CorpusValidationError(
                    f"{self.sent_id}: field 'words' entry {k} is [{s},{e}]; words must "
                    f"be sorted, contiguous and non-overlapping (expected start {expect})"
                )
            expect = e + 1
        if expect != n:
            raise CorpusValidationError(
                f"{self.sent_id}: field 'words' covers [0,{expect}) but text has {n} characters"
            )
        seen: set[tuple[int, int, str]] = set()
        for k, t in enumerate(self.triggers):
            if t.length < 1:
                raise CorpusValidationError(
                    f"{self.sent_id}: field 'triggers' entry {k} has length {t.length} < 1"
                )
            if t.start < 0 or t.start + t.length > n:
                raise CorpusValidationError(
                    f"{self.sent_id}: field 'triggers' entry {k} span "
                    f"[{t.start},{t.start + t.length}) exceeds sentence length {n}"
                )
            key = (t.start, t.length, t.subtype)
            if key in seen:
                raise CorpusValidationError(
                    f"{self.sent_id}: field 'triggers' entry {k} duplicates span+type {key}"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.text)

    @property
    def words(self) -> list[str]:
        return [self.text[s : e + 1] for s, e in self.word_spans]

    @cached_property
    def char_to_word(self) -> tuple[int, ...]:
        """Index of the word that holds each character, computed once per sentence."""
        out = [0] * len(self.text)
        for wi, (s, e) in enumerate(self.word_spans):
            for i in range(s, e + 1):
                out[i] = wi
        return tuple(out)

    def ids(self, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(char ids, word ids, char_to_word) under vocab, as read-only int64 arrays.

        They are computed once per sentence and vocabulary object, and kept
        on the sentence side by side in one array, of which these are views.
        Another vocabulary object, even an equal one, computes them afresh
        and replaces them.
        """
        memo = self._ids
        if memo is None or memo[0] is not vocab:
            flat = np.concatenate([vocab.char_ids(self.text), self.char_to_word, vocab.word_ids(self.words)])
            flat.flags.writeable = False
            memo = self._ids = (vocab, flat)
        n = len(self.text)
        flat = memo[1]
        return flat[:n], flat[2 * n :], flat[n : 2 * n]

    def word_index_of(self, char_index: int) -> int:
        """Index of the word whose span contains `char_index`."""
        if not 0 <= char_index < len(self.text):
            raise IndexError(f"char index {char_index} out of range for sentence {self.sent_id}")
        return self.char_to_word[char_index]

    @property
    def key(self) -> tuple[str, str]:
        return (self.doc_id, self.sent_id)


class MatchType(str, Enum):
    """How a trigger span relates to the word segmentation."""

    EXACT = "exact"
    PART_OF_WORD = "part_of_word"
    CROSS_WORDS = "cross_words"


def classify_match_type(sentence: AnnotatedSentence, trigger: TriggerNugget) -> MatchType:
    """Exact if the trigger equals a word span, PartOfWord if strictly inside
    one word, CrossWords if it intersects two or more words."""
    first_word = sentence.word_index_of(trigger.start)
    last_word = sentence.word_index_of(trigger.end_inclusive)
    if first_word != last_word:
        return MatchType.CROSS_WORDS
    if sentence.word_spans[first_word] == (trigger.start, trigger.end_inclusive):
        return MatchType.EXACT
    return MatchType.PART_OF_WORD


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sentence_to_record(sentence: AnnotatedSentence) -> dict:
    return {
        "doc_id": sentence.doc_id,
        "sent_id": sentence.sent_id,
        "text": sentence.text,
        "words": [[s, e] for s, e in sentence.word_spans],
        "triggers": [
            {"start": t.start, "length": t.length, "type": t.subtype} for t in sentence.triggers
        ],
    }


def sentence_from_record(record) -> AnnotatedSentence:
    """The sentence in one corpus record, read as strictly as corpus.schema.json: CorpusFormatError names a bad field.

    What the schema cannot say, such as words that do not partition the text, raises CorpusValidationError.
    """
    keys = ("doc_id", "sent_id", "text", "words", "triggers")
    check_keys(record, keys, "sentence", CorpusFormatError, required=keys)
    for key in ("doc_id", "sent_id", "text"):
        check_value(record[key], "str", key, CorpusFormatError)
    if not (record["doc_id"] and record["sent_id"]):
        raise CorpusFormatError(f"doc_id and sent_id must not be empty, got {record['doc_id']!r} and {record['sent_id']!r}")
    words = check_value(record["words"], "tuple[tuple[int, int], ...]", "words", CorpusFormatError)
    triggers = record["triggers"]
    if not isinstance(triggers, list):
        raise CorpusFormatError(f"triggers must be a list, got {triggers!r}")
    keys = ("start", "length", "type")
    for k, t in enumerate(triggers):
        check_keys(t, keys, f"triggers[{k}]", CorpusFormatError, required=keys)
        check_value(t["start"], "int", f"triggers[{k}].start", CorpusFormatError)
        check_value(t["length"], "int", f"triggers[{k}].length", CorpusFormatError)
        if not (is_a(t["type"], "str") and t["type"]):
            raise CorpusFormatError(f"triggers[{k}].type must be a non-empty string, got {t['type']!r}")
    return AnnotatedSentence(
        doc_id=record["doc_id"],
        sent_id=record["sent_id"],
        text=record["text"],
        word_spans=words,
        triggers=tuple(TriggerNugget(t["start"], t["length"], t["type"]) for t in triggers),
    )


def load_corpus(path) -> list[AnnotatedSentence]:
    """Read a JSONL corpus file; parse/validation failures carry the line number.

    Each (doc_id, sent_id) key names one sentence: a key on two lines
    raises CorpusValidationError naming both.
    """
    corpus = []
    first_line = {}  # sentence key -> the line that holds it
    with reading(path, CorpusFormatError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            try:
                sentence = sentence_from_record(record)
            except (CorpusFormatError, CorpusValidationError) as exc:
                raise type(exc)(f"{path}: line {lineno}: {exc}") from exc
            if sentence.key in first_line:
                raise CorpusValidationError(
                    f"{path}: line {lineno}: sentence key {sentence.key} repeats line {first_line[sentence.key]}"
                )
            first_line[sentence.key] = lineno
            corpus.append(sentence)
    return corpus


def save_corpus(path, corpus: Sequence[AnnotatedSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in corpus:
            fh.write(json.dumps(sentence_to_record(sentence), ensure_ascii=False))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


@dataclass
class Vocabulary:
    """Token-to-id maps with PAD=0 / UNK=1 reserved, plus the relative-position clip radius."""

    char_to_id: dict[str, int] = field(default_factory=dict)
    word_to_id: dict[str, int] = field(default_factory=dict)
    max_rel_dist: int = 40

    def char_ids(self, chars: Iterable[str]) -> np.ndarray:
        get = self.char_to_id.get
        return np.array([get(c, UNK_ID) for c in chars], dtype=np.int64)

    def word_ids(self, words: Iterable[str]) -> np.ndarray:
        get = self.word_to_id.get
        return np.array([get(w, UNK_ID) for w in words], dtype=np.int64)

    @property
    def n_chars(self) -> int:
        return len(self.char_to_id) + 2

    @property
    def n_words(self) -> int:
        return len(self.word_to_id) + 2

    def to_json(self) -> dict:
        return {
            "max_rel_dist": self.max_rel_dist,
            "chars": self.char_to_id,
            "words": self.word_to_id,
        }

    @classmethod
    def from_json(cls, data) -> "Vocabulary":
        """The vocabulary to_json wrote into a checkpoint; anything build_vocab could not have made raises CheckpointError."""
        keys = ("max_rel_dist", "chars", "words")
        check_keys(data, keys, "vocab", CheckpointError, required=keys)
        for table in ("chars", "words"):
            # what build_vocab writes: ids 2.. in a row, after PAD and UNK; any other id misreads the embeddings
            ids = list(data[table].values()) if isinstance(data[table], dict) else None
            if ids is None or not (all(is_a(i, "int") for i in ids) and sorted(ids) == list(range(2, len(ids) + 2))):
                raise CheckpointError(f"vocab.{table} must map its tokens to the ids 2, 3, ..., each id once")
        max_rel_dist = check_value(data["max_rel_dist"], "int", "vocab.max_rel_dist", CheckpointError)
        return cls(char_to_id=data["chars"], word_to_id=data["words"], max_rel_dist=max_rel_dist)


def relative_position_index(rel, max_rel_dist: int):
    """Clip signed relative offsets (an int or an array) to [-max_rel_dist, max_rel_dist] and shift to >= 0."""
    return np.minimum(np.maximum(rel, -max_rel_dist), max_rel_dist) + max_rel_dist  # np.clip, without its wrapper's cost


def build_vocab(
    corpus: Sequence[AnnotatedSentence], min_count: float = 1, max_rel_dist: int = 40
) -> Vocabulary:
    """Frequency-thresholded vocabulary; ids follow first appearance in corpus order."""
    if not corpus:
        raise CorpusValidationError("cannot build a vocabulary from an empty corpus")
    # a Counter keeps its keys in order of first appearance
    char_counts = Counter(ch for sentence in corpus for ch in sentence.text)
    word_counts = Counter(word for sentence in corpus for word in sentence.words)
    char_to_id = {c: i for i, c in enumerate((c for c, n in char_counts.items() if n >= min_count), start=2)}
    word_to_id = {w: i for i, w in enumerate((w for w, n in word_counts.items() if n >= min_count), start=2)}
    return Vocabulary(char_to_id=char_to_id, word_to_id=word_to_id, max_rel_dist=max_rel_dist)


# ---------------------------------------------------------------------------
# Training instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingInstance:
    """One character of one sentence, with its nugget label and (positives only) subtype."""

    sentence: AnnotatedSentence
    char_index: int
    nugget_label: NuggetLabel
    type_label: str | None = None


class TrainingSets(NamedTuple):
    generator: list[TrainingInstance]  # positives + sampled NIL negatives
    classifier: list[TrainingInstance]  # positives only, with subtype labels
    dropped_triggers: int  # gold triggers longer than max_len, excluded from training


def make_instances(
    corpus: Sequence[AnnotatedSentence],
    neg_ratio: float = 5.0,
    rng_seed: int = 0,
    max_len: int = 3,
) -> TrainingSets:
    """Extract training instances with corpus-global negative sampling.

    Positives are one instance per (character, covering trigger) pair; a
    character under two overlapping triggers yields two instances.  Negatives
    are floor(neg_ratio * #positives) characters sampled without replacement
    from all characters covered by no trigger.  Triggers longer than
    `max_len` are dropped and counted.
    """
    if neg_ratio < 0:
        raise ValueError(f"neg_ratio must be >= 0, got {neg_ratio}")
    positives: list[TrainingInstance] = []
    negative_pool: list[tuple[AnnotatedSentence, int]] = []
    dropped = 0
    for sentence in corpus:
        covered = set()
        for trigger in sentence.triggers:
            for i in range(trigger.start, trigger.start + trigger.length):
                covered.add(i)
            if trigger.length > max_len:
                dropped += 1
                continue
            for i in range(trigger.start, trigger.start + trigger.length):
                positives.append(
                    TrainingInstance(sentence, i, label_for(trigger, i), trigger.subtype)
                )
        for i in range(len(sentence.text)):
            if i not in covered:
                negative_pool.append((sentence, i))

    if dropped:
        logger.warning("dropped %d triggers longer than %d characters", dropped, max_len)
    if not positives:
        logger.warning("corpus contains no usable triggers; classifier set is empty")

    n_neg = int(neg_ratio * len(positives))
    rng = np.random.default_rng(rng_seed)
    if n_neg >= len(negative_pool):
        if n_neg > len(negative_pool):
            logger.warning(
                "requested %d negatives but only %d characters are outside triggers",
                n_neg,
                len(negative_pool),
            )
        chosen = range(len(negative_pool))
    else:
        chosen = rng.choice(len(negative_pool), size=n_neg, replace=False)
    negatives = [
        TrainingInstance(negative_pool[j][0], negative_pool[j][1], NuggetLabel.NIL)
        for j in chosen
    ]
    return TrainingSets(positives + negatives, list(positives), dropped)
