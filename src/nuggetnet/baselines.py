"""Reference baselines: per-character IOB tagging and per-word typing.

Both reuse the extraction machinery of the main model but make structurally
weaker predictions.  The IOB tagger cannot represent overlapping nuggets;
the word classifier can only ever predict whole words, so any trigger that
is a strict part of a word or crosses a word boundary is unreachable for it
by construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import AnnotatedSentence, SubtypeInventory, TriggerNugget, Vocabulary
from .decoder import Prediction
from .errors import ConfigError
from .model import CharEncoderBase, ModelConfig, head_backward, head_scores
from .ndcore import softmax, softmax_xent

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


class IOBInstance(NamedTuple):
    sentence: AnnotatedSentence
    char_index: int
    tag: int


class WordInstance(NamedTuple):
    sentence: AnnotatedSentence
    word_index: int
    label: int  # 0 = no event, else subtype id + 1


def _sample_instances(positives: list, negative_pool: list, neg_ratio: float, rng_seed: int) -> list:
    rng = np.random.default_rng([rng_seed, 0x1B])
    n_neg = min(int(neg_ratio * len(positives)), len(negative_pool))
    if n_neg:
        chosen = rng.choice(len(negative_pool), size=n_neg, replace=False)
        return positives + [negative_pool[int(j)] for j in chosen]
    return list(positives)


class IOBModel(CharEncoderBase):
    """Character tagger over IOB labels, on the nugget-side fused features."""

    kind = "iob"

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0):
        super().__init__(config, vocab, subtypes, rng_seed)
        self.n_tags = n_iob_tags(len(subtypes))
        self.store.add("head.tag_w", (self.n_tags, config.extractor.fused_dim), init="glorot")
        self.store.add("head.tag_b", (self.n_tags,), init="zeros")

    def training_streams(self, corpus, neg_ratio: float = 5.0, rng_seed: int = 0):
        positives, pool = [], []
        for sentence in corpus:
            tags, _ = iob_encode(sentence, self.subtypes)
            for i, tag in enumerate(tags):
                (positives if tag != O_TAG else pool).append(IOBInstance(sentence, i, tag))
        return _sample_instances(positives, pool, neg_ratio, rng_seed), []

    def loss_and_grads(self, batch: Sequence[IOBInstance], _unused: Sequence = (), drop_rng=None) -> float:
        fwd = self._forward(self._groups_of([i.sentence for i in batch], [i.char_index for i in batch]), drop_rng)
        _, loss, dscores = softmax_xent(head_scores(self.store, "tag", fwd.f_nugget), [inst.tag for inst in batch])
        df = head_backward(self.store, "tag", fwd.f_nugget, dscores)
        self._backward(fwd, df, np.zeros_like(fwd.f_type))
        return loss

    def _probabilities(self, fwd):
        return (softmax(head_scores(self.store, "tag", fwd.f_nugget)),)

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
        (probs,) = self._probabilities(self._sentence_forward(self.encode_sentence(sentence)))
        return self._tags(probs)


class WordwiseModel(CharEncoderBase):
    """Whole-word subtype classifier on the word branch alone."""

    kind = "wordwise"

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0):
        if config.extractor.use_chars or not config.extractor.use_words:
            raise ConfigError("the wordwise baseline runs on the word branch only")
        super().__init__(config, vocab, subtypes, rng_seed)
        self.n_classes = len(subtypes) + 1
        self.store.add("head.wordtype_w", (self.n_classes, config.extractor.fused_dim), init="glorot")
        self.store.add("head.wordtype_b", (self.n_classes,), init="zeros")

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
        positives, pool = [], []
        for sentence in corpus:
            for wi, label in enumerate(self.word_labels(sentence, self.subtypes)):
                (positives if label else pool).append(WordInstance(sentence, wi, label))
        return _sample_instances(positives, pool, neg_ratio, rng_seed), []

    def loss_and_grads(self, batch: Sequence[WordInstance], _unused: Sequence = (), drop_rng=None) -> float:
        """Cross-entropy over the batch's words; it uses no dropout, so drop_rng is ignored."""
        first_chars = [i.sentence.word_spans[i.word_index][0] for i in batch]
        fwd = self._forward(self._groups_of([i.sentence for i in batch], first_chars))
        _, loss, dscores = softmax_xent(head_scores(self.store, "wordtype", fwd.f_nugget), [i.label for i in batch])
        df = head_backward(self.store, "wordtype", fwd.f_nugget, dscores)
        self._backward(fwd, df, np.zeros_like(fwd.f_type))
        return loss

    def _row_chars(self, sentence):
        """Each word's first character: one row per word."""
        return np.array([s for s, _ in sentence.word_spans], dtype=np.int64)

    def _probabilities(self, fwd):
        return (softmax(head_scores(self.store, "wordtype", fwd.f_nugget)),)

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
