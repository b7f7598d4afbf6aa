"""Reference baselines: per-character IOB tagging and per-word typing.

Both reuse the extraction machinery of the main model but make structurally
weaker predictions.  The IOB tagger cannot represent overlapping nuggets;
the word classifier can only ever predict whole words, so any trigger that
is a strict part of a word or crosses a word boundary is unreachable for it
by construction.

Each is model.CharEncoderBase with one softmax head, trained on
LabelledChar rows that one builder samples for both kinds.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import AnnotatedSentence, SubtypeInventory, TriggerNugget, Vocabulary
from .decoder import Prediction
from .errors import ConfigError
from .model import CharEncoderBase, ModelConfig

O_TAG = 0


def n_iob_tags(n_subtypes: int) -> int:
    return 2 * n_subtypes + 1


def begin_tag(subtype_id: int) -> int:
    return 1 + 2 * subtype_id


def inside_tag(subtype_id: int) -> int:
    return 2 + 2 * subtype_id


def tag_subtype(tag: int) -> int:
    """Subtype id carried by a non-O tag."""
    if tag < 1:
        raise ValueError(f"tag {tag} is O, it carries no subtype")
    return (tag - 1) // 2


def iob_encode(sentence: AnnotatedSentence, inventory: SubtypeInventory) -> tuple[list[int], int]:
    """Per-character tags; overlapping triggers beyond the first are skipped.

    Returns (tags, number of triggers dropped because their span was already
    partly painted).
    """
    tags = [O_TAG] * len(sentence.text)
    painted = [False] * len(sentence.text)
    skipped = 0
    ordered = sorted(sentence.triggers, key=lambda t: (t.start, t.length, inventory.id_of(t.subtype)))
    for trig in ordered:
        span = range(trig.start, trig.start + trig.length)
        if any(painted[i] for i in span):
            skipped += 1
            continue
        sid = inventory.id_of(trig.subtype)
        tags[trig.start] = begin_tag(sid)
        for i in span:
            painted[i] = True
            if i > trig.start:
                tags[i] = inside_tag(sid)
    return tags, skipped


def iob_decode(tags: Sequence[int], inventory: SubtypeInventory) -> list[TriggerNugget]:
    """Tags back to spans.  An I that opens a segment, or follows a different
    type, repair-opens a new nugget there."""
    out = []
    start = -1
    current = -1  # subtype id of the open segment

    def close(end: int):
        nonlocal start, current
        if current >= 0:
            out.append(TriggerNugget(start, end - start, inventory.name_of(current)))
        start, current = -1, -1

    for i, tag in enumerate(tags):
        if tag == O_TAG:
            close(i)
            continue
        sid = tag_subtype(tag)
        if tag == begin_tag(sid) or current != sid:
            close(i)
            start, current = i, sid
    close(len(tags))
    return out


class LabelledChar(NamedTuple):
    """A character and its gold class, 0 for none: an IOB tag, or a word's label at its first character."""

    sentence: AnnotatedSentence
    char_index: int
    label: int


def _labelled_stream(rows: Iterable[LabelledChar], neg_ratio: float, rng_seed: int) -> list[LabelledChar]:
    """Every row with a nonzero label, then floor(neg_ratio * their count) of the 0 rows, drawn without replacement."""
    positives, negative_pool = [], []
    for row in rows:
        (positives if row.label else negative_pool).append(row)
    rng = np.random.default_rng([rng_seed, 0x1B])
    n_neg = min(int(neg_ratio * len(positives)), len(negative_pool))
    if n_neg:
        chosen = rng.choice(len(negative_pool), size=n_neg, replace=False)
        return positives + [negative_pool[int(j)] for j in chosen]
    return positives


class IOBModel(CharEncoderBase):
    """Character tagger over IOB labels, on fused features through its own gate in task_specific mode."""

    kind = "iob"

    def _head_classes(self):
        return {"tag": n_iob_tags(len(self.subtypes))}

    def training_streams(self, corpus, neg_ratio: float = 5.0, rng_seed: int = 0):
        rows = (
            LabelledChar(sentence, i, tag)
            for sentence in corpus
            for i, tag in enumerate(iob_encode(sentence, self.subtypes)[0])
        )
        return _labelled_stream(rows, neg_ratio, rng_seed), []

    def loss_and_grads(self, batch: Sequence[LabelledChar], _unused: Sequence = (), drop_rng=None) -> float:
        return self._loss(batch, (), drop_rng)

    @staticmethod
    def _tags(probs: np.ndarray) -> tuple[list[int], list[float]]:
        """Each row's argmax tag and its log probability."""
        tags = probs.argmax(axis=1).tolist()
        return tags, [math.log(p) for p in probs[np.arange(len(tags)), tags].tolist()]

    def _decode(self, sentence, rows, stats):
        tags, logps = self._tags(rows[0])
        preds = []
        for trig in iob_decode(tags, self.subtypes):
            score = sum(logps[trig.start : trig.start + trig.length])
            preds.append(Prediction(trig.start, trig.length, trig.subtype, score))
        preds.sort(key=lambda p: (p.start, p.length, self.subtypes.id_of(p.subtype)))
        return preds

    def tag_sentence(self, sentence: AnnotatedSentence) -> tuple[list[int], list[float]]:
        """Tags and their log probabilities, one forward for this sentence alone."""
        return self._tags(self.encode_sentence(sentence)[0])


class WordwiseModel(CharEncoderBase):
    """Whole-word subtype classifier on the word branch alone."""

    kind = "wordwise"

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0, tensors=None):
        if config.extractor.use_chars or not config.extractor.use_words:
            raise ConfigError("the wordwise baseline runs on the word branch only")
        super().__init__(config, vocab, subtypes, rng_seed, tensors)

    def _head_classes(self):
        return {"wordtype": len(self.subtypes) + 1}

    @staticmethod
    def word_labels(sentence: AnnotatedSentence, inventory: SubtypeInventory) -> list[int]:
        """Per-word gold: subtype id + 1 of the first trigger touching the word."""
        labels = [0] * len(sentence.word_spans)
        ordered = sorted(
            sentence.triggers, key=lambda t: (t.start, t.length, inventory.id_of(t.subtype))
        )
        for trig in reversed(ordered):
            first = sentence.word_index_of(trig.start)
            last = sentence.word_index_of(trig.end_inclusive)
            for wi in range(first, last + 1):
                labels[wi] = inventory.id_of(trig.subtype) + 1
        return labels

    def training_streams(self, corpus, neg_ratio: float = 5.0, rng_seed: int = 0):
        rows = (
            LabelledChar(sentence, start, label)
            for sentence in corpus
            for (start, _), label in zip(sentence.word_spans, self.word_labels(sentence, self.subtypes))
        )
        return _labelled_stream(rows, neg_ratio, rng_seed), []

    def loss_and_grads(self, batch: Sequence[LabelledChar], _unused: Sequence = (), drop_rng=None) -> float:
        """Cross-entropy over the batch's words; it uses no dropout, so drop_rng is ignored."""
        return self._loss(batch, (), None)

    def _row_chars(self, sentence):
        """Each word's first character: one row per word."""
        return np.array([s for s, _ in sentence.word_spans], dtype=np.int64)

    def _decode(self, sentence, rows, stats):
        probs = rows[0]
        preds = []
        for wi, (s, e) in enumerate(sentence.word_spans):
            label = int(np.argmax(probs[wi]))
            if label == 0:
                continue
            preds.append(
                Prediction(s, e - s + 1, self.subtypes.name_of(label - 1), math.log(float(probs[wi, label])))
            )
        return preds
