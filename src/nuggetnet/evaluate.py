"""Micro-averaged scoring of trigger predictions against gold nuggets.

A prediction is correct when an unmatched gold nugget has the same span
(identification) or the same span and subtype (classification).  Matching
is greedy over predictions in descending score order, so each prediction
and each gold nugget is consumed at most once.  Which pairs match can
depend on scores; how many match cannot, since matching is by equality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .corpus import AnnotatedSentence, MatchType, classify_match_type
from .decoder import Prediction
from .errors import EvalInputError


class ScoreMode(str, Enum):
    IDENTIFICATION = "identification"  # span must match
    CLASSIFICATION = "classification"  # span and subtype must match


@dataclass(frozen=True)
class ScoreReport:
    mode: ScoreMode
    n_gold: int
    n_pred: int
    n_correct: int

    @property
    def precision(self) -> float:
        return self.n_correct / self.n_pred if self.n_pred else 0.0

    @property
    def recall(self) -> float:
        return self.n_correct / self.n_gold if self.n_gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "gold": self.n_gold,
            "predicted": self.n_pred,
            "correct": self.n_correct,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }

    def render(self) -> str:
        return (
            f"{self.mode.value}: P {self.precision:.4f} R {self.recall:.4f} F1 {self.f1:.4f} "
            f"({self.n_correct} correct / {self.n_pred} predicted / {self.n_gold} gold)"
        )


def _check_predictions(sentence: AnnotatedSentence, preds: Sequence[Prediction]) -> None:
    n = len(sentence.text)
    for p in preds:
        if p.length < 1 or p.start < 0 or p.start + p.length > n:
            raise EvalInputError(
                f"sentence {sentence.key}: prediction span [{p.start}, {p.start + p.length}) "
                f"is outside the {n}-character sentence"
            )


def _match_sentence(
    sentence: AnnotatedSentence, preds: Sequence[Prediction], mode: ScoreMode
) -> list[tuple[Prediction, object]]:
    """Greedy (prediction, gold trigger) pairs, best-scored predictions first."""
    _check_predictions(sentence, preds)
    order = sorted(preds, key=lambda p: (-p.score, p.start, p.length, p.subtype))
    golds = sorted(sentence.triggers, key=lambda t: (t.start, t.length, t.subtype))
    used = [False] * len(golds)
    pairs = []
    for p in order:
        for gi, g in enumerate(golds):
            if used[gi]:
                continue
            if g.start != p.start or g.length != p.length:
                continue
            if mode is ScoreMode.CLASSIFICATION and g.subtype != p.subtype:
                continue
            used[gi] = True
            pairs.append((p, g))
            break
    return pairs


def sentences_by_key(corpus: Sequence[AnnotatedSentence]) -> dict:
    """(doc_id, sent_id) -> sentence; EvalInputError if a gold corpus holds one key twice."""
    by_key = {s.key: s for s in corpus}
    if len(by_key) < len(corpus):
        repeated = next(key for key, n in Counter(s.key for s in corpus).items() if n > 1)
        raise EvalInputError(f"gold corpus holds sentence key {repeated} twice")
    return by_key


def _pair_keys(corpus: Sequence[AnnotatedSentence], predictions: Mapping) -> dict:
    by_key = sentences_by_key(corpus)
    unknown = set(predictions) - set(by_key)
    if unknown:
        raise EvalInputError(f"predictions reference unknown sentences: {sorted(unknown)[:5]}")
    return by_key


def score(
    corpus: Sequence[AnnotatedSentence],
    predictions: Mapping[tuple[str, str], Sequence[Prediction]],
    mode: ScoreMode = ScoreMode.CLASSIFICATION,
) -> ScoreReport:
    """Micro P/R/F1 over the whole corpus; absent sentences count as empty."""
    by_key = _pair_keys(corpus, predictions)
    n_gold = sum(len(s.triggers) for s in corpus)
    n_pred = 0
    n_correct = 0
    for key, sentence in by_key.items():
        preds = list(predictions.get(key, ()))
        n_pred += len(preds)
        n_correct += len(_match_sentence(sentence, preds, mode))
    return ScoreReport(mode, n_gold, n_pred, n_correct)


@dataclass(frozen=True)
class RecallStat:
    n_gold: int
    n_matched: int

    @property
    def recall(self) -> float:
        return self.n_matched / self.n_gold if self.n_gold else 0.0


def recall_by_match_type(
    corpus: Sequence[AnnotatedSentence],
    predictions: Mapping[tuple[str, str], Sequence[Prediction]],
    mode: ScoreMode = ScoreMode.CLASSIFICATION,
) -> dict[MatchType, RecallStat]:
    """Recall split by how each gold nugget relates to the segmentation."""
    by_key = _pair_keys(corpus, predictions)
    totals = {mt: 0 for mt in MatchType}
    matched = {mt: 0 for mt in MatchType}
    for key, sentence in by_key.items():
        hit = {id(g) for _, g in _match_sentence(sentence, list(predictions.get(key, ())), mode)}
        for trig in sentence.triggers:
            mt = classify_match_type(sentence, trig)
            totals[mt] += 1
            matched[mt] += id(trig) in hit
    return {mt: RecallStat(totals[mt], matched[mt]) for mt in MatchType}


def corpus_match_stats(corpus: Sequence[AnnotatedSentence]) -> dict[MatchType, int]:
    counts = {mt: 0 for mt in MatchType}
    for sentence in corpus:
        for trig in sentence.triggers:
            counts[classify_match_type(sentence, trig)] += 1
    return counts
