"""Turning per-character distributions into trigger predictions.

Every character proposes at most one nugget: the argmax span class, placed
so the character sits at its claimed position, typed by the argmax subtype
and scored by the sum of both log probabilities.  Proposals that would
stick out of the sentence are discarded; duplicate spans keep the best
score, ties going to the lower subtype id.  The test suite re-derives the
same result with plain Python loops (tests/decode_reference.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence, TriggerNugget
from .errors import CorpusFormatError
from .labels import decode_label


@dataclass(frozen=True, order=True)
class Prediction:
    start: int
    length: int
    subtype: str
    score: float

    def as_trigger(self) -> TriggerNugget:
        return TriggerNugget(self.start, self.length, self.subtype)

    def to_record(self) -> dict:
        return {"start": self.start, "length": self.length, "subtype": self.subtype, "score": self.score}

    @classmethod
    def from_record(cls, rec: dict) -> "Prediction":
        """Parse one record; a NaN or infinite score is rejected, as the scorer orders predictions by score."""
        try:
            pred = cls(int(rec["start"]), int(rec["length"]), str(rec["subtype"]), float(rec["score"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"bad prediction record {rec!r}: {exc}") from exc
        if not math.isfinite(pred.score):
            raise CorpusFormatError(f"bad prediction record {rec!r}: score {pred.score} is not finite")
        return pred


@dataclass
class DecodeStats:
    proposed: int = 0
    out_of_bounds: int = 0
    merged: int = 0  # duplicate-span proposals folded into a better one


def propose_at(model, enc, ci: int, n_chars: int) -> tuple[tuple[int, int, int, float] | None, bool]:
    """Proposal from one character, or None.

    Returns ((start, length, subtype_id, score), discarded_out_of_bounds).
    """
    pn, pt = model.char_distributions(enc, ci)
    k = int(np.argmax(pn))
    if k == 0:
        return None, False
    label = decode_label(k, model.config.max_nugget_len)
    length, position = label.length, label.position
    start = ci - (position - 1)
    if start < 0 or start + length > n_chars:
        return None, True
    t = int(np.argmax(pt))
    score = math.log(float(pn[k])) + math.log(float(pt[t]))
    return (start, length, t, score), False


def decode_sentence(model, sentence: AnnotatedSentence, stats: DecodeStats | None = None) -> list[Prediction]:
    enc = model.encode_sentence(sentence)
    n = len(sentence.text)
    best: dict[tuple[int, int], tuple[float, int]] = {}  # span -> (score, subtype_id)
    for ci in range(n):
        candidate, oob = propose_at(model, enc, ci, n)
        if stats is not None:
            stats.out_of_bounds += oob
            stats.proposed += candidate is not None
        if candidate is None:
            continue
        start, length, t, score = candidate
        span = (start, length)
        kept = best.get(span)
        if kept is not None and stats is not None:
            stats.merged += 1
        if kept is None or (-score, t) < (-kept[0], kept[1]):
            best[span] = (score, t)
    preds = [
        Prediction(start, length, model.subtypes.name_of(t), score)
        for (start, length), (score, t) in best.items()
    ]
    preds.sort(key=lambda p: (p.start, p.length, model.subtypes.id_of(p.subtype)))
    return preds


def decode_corpus(
    model, corpus: Sequence[AnnotatedSentence]
) -> tuple[dict[tuple[str, str], list[Prediction]], DecodeStats]:
    stats = DecodeStats()
    return {s.key: decode_sentence(model, s, stats) for s in corpus}, stats


# ---------------------------------------------------------------------------
# Prediction files: one JSON object per sentence, JSONL
# ---------------------------------------------------------------------------


def save_predictions(path, predictions: dict[tuple[str, str], list[Prediction]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (doc_id, sent_id), preds in predictions.items():
            rec = {
                "doc_id": doc_id,
                "sent_id": sent_id,
                "predictions": [p.to_record() for p in preds],
            }
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def load_predictions(path) -> dict[tuple[str, str], list[Prediction]]:
    out: dict[tuple[str, str], list[Prediction]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key = (str(rec["doc_id"]), str(rec["sent_id"]))
                preds = [Prediction.from_record(p) for p in rec["predictions"]]
            except (json.JSONDecodeError, KeyError, TypeError, CorpusFormatError) as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
            if key in out:
                raise CorpusFormatError(f"{path}: line {lineno}: duplicate sentence {key}")
            out[key] = preds
    return out
