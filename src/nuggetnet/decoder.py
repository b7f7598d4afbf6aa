"""Turning a sentence's distributions into trigger predictions.

Every character proposes at most one nugget: the argmax span class, placed
so the character sits at its claimed position, typed by the argmax subtype
and scored by the sum of both log probabilities.  Proposals that would
stick out of the sentence are discarded; duplicate spans keep the best
score, ties going to the lower subtype id.  The test suite re-derives the
same result with plain Python loops (tests/decode_reference.py).

`decode_sentence` makes one pass over a sentence's (n, classes) rows: a
row argmax, `labels.class_table`, a bounds mask and one lexsort that puts
each span's winner first.  Scores use `math.log`, not `np.log`, whose SIMD
loop can differ in the last bit, so they equal the loop-written oracle's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence
from .errors import CorpusFormatError
from .labels import class_table


@dataclass(frozen=True, order=True)
class Prediction:
    start: int
    length: int
    subtype: str
    score: float

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


def decode_sentence(model, sentence: AnnotatedSentence, stats: DecodeStats | None = None) -> list[Prediction]:
    """Predictions in (start, length) order; `stats`, if given, adds this sentence's counts."""
    pn, pt = model.distributions(model.encode_sentence(sentence))
    n = len(sentence.text)
    k = pn.argmax(axis=1)
    length, position = class_table(model.config.max_nugget_len)[k].T
    start = np.arange(n) - position + 1
    claims = k != 0
    inside = claims & (start >= 0) & (start + length <= n)
    rows = np.flatnonzero(inside)
    k, start, length = k[rows], start[rows], length[rows]
    t = pt[rows].argmax(axis=1)
    score = np.array([math.log(a) + math.log(b) for a, b in zip(pn[rows, k].tolist(), pt[rows, t].tolist())])
    # each span's best proposal first: higher score, then lower subtype id; lexsort is stable
    order = np.lexsort((t, -score, length, start))
    start, length, t, score = start[order], length[order], t[order], score[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = (start[1:] != start[:-1]) | (length[1:] != length[:-1])
    if stats is not None:
        stats.proposed += rows.shape[0]
        stats.out_of_bounds += int(np.count_nonzero(claims & ~inside))
        stats.merged += rows.shape[0] - int(np.count_nonzero(first))
    kept = zip(start[first].tolist(), length[first].tolist(), t[first].tolist(), score[first].tolist())
    return [Prediction(s, ln, model.subtypes.name_of(ti), sc) for s, ln, ti, sc in kept]


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
