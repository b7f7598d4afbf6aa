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
It computes no rows: `decode_corpus` gets them from the model's
`predict_corpus`, which forwards many sentences at a time and hands each
sentence its own slices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence
from .errors import CorpusFormatError, check_keys, is_a, reading
from .labels import class_table
from .ndcore import write_atomically


@dataclass(frozen=True, order=True)
class Prediction:
    start: int
    length: int
    subtype: str
    score: float

    def to_record(self) -> dict:
        return {"start": self.start, "length": self.length, "subtype": self.subtype, "score": self.score}

    @classmethod
    def from_record(cls, rec) -> "Prediction":
        """Parse one record as strictly as schemas/predictions.schema.json does.

        An integer is not a bool or a float.  A NaN or infinite score is
        rejected too, as the scorer orders predictions by score.
        """
        keys = ("start", "length", "subtype", "score")
        check_keys(rec, keys, "prediction record", CorpusFormatError, required=keys)
        start, length, subtype, score = (rec[key] for key in keys)
        if not (is_a(start, "int") and start >= 0 and is_a(length, "int") and length >= 1):
            raise CorpusFormatError(f"bad prediction record {rec!r}: start must be an integer >= 0, length one >= 1")
        if not (is_a(subtype, "str") and subtype):
            raise CorpusFormatError(f"bad prediction record {rec!r}: subtype must be a non-empty string")
        if not (is_a(score, "float") and math.isfinite(score)):
            raise CorpusFormatError(f"bad prediction record {rec!r}: score {score!r} is not a number, or not finite")
        return cls(start, length, subtype, float(score))


@dataclass
class DecodeStats:
    proposed: int = 0
    out_of_bounds: int = 0
    merged: int = 0  # duplicate-span proposals folded into a better one


def decode_sentence(
    model, sentence: AnnotatedSentence, rows: tuple[np.ndarray, np.ndarray], stats: DecodeStats | None = None
) -> list[Prediction]:
    """Predictions in (start, length) order from the sentence's (span-class, subtype) probability rows.

    The model gives max_nugget_len and the subtype names; `stats`, if given, adds this sentence's counts.
    """
    pn, pt = rows
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
    """(predictions by sentence key, the decoder's counts) of a proposal model, many sentences per forward."""
    stats = DecodeStats()
    return model.predict_corpus(corpus, stats), stats


# ---------------------------------------------------------------------------
# Prediction files: one JSON object per sentence, JSONL
# ---------------------------------------------------------------------------


def save_predictions(path, predictions: dict[tuple[str, str], list[Prediction]]) -> None:
    """One JSON line per sentence; a save that fails part way leaves the previous file (write_atomically)."""
    records = (
        {"doc_id": doc_id, "sent_id": sent_id, "predictions": [p.to_record() for p in preds]}
        for (doc_id, sent_id), preds in predictions.items()
    )
    write_atomically(path, (f"{json.dumps(rec, ensure_ascii=False, sort_keys=True)}\n".encode("utf-8") for rec in records))


def load_predictions(path) -> dict[tuple[str, str], list[Prediction]]:
    out: dict[tuple[str, str], list[Prediction]] = {}
    keys = ("doc_id", "sent_id", "predictions")
    with reading(path, CorpusFormatError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                check_keys(rec, keys, "sentence record", CorpusFormatError, required=keys)
                key = (rec["doc_id"], rec["sent_id"])
                if not all(isinstance(k, str) and k for k in key) or not isinstance(rec["predictions"], list):
                    raise CorpusFormatError(
                        "doc_id and sent_id must be non-empty strings and predictions a list, "
                        f"got {rec['doc_id']!r}, {rec['sent_id']!r} and {rec['predictions']!r}"
                    )
                preds = [Prediction.from_record(p) for p in rec["predictions"]]
            except (json.JSONDecodeError, CorpusFormatError) as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
            if key in out:
                raise CorpusFormatError(f"{path}: line {lineno}: duplicate sentence {key}")
            out[key] = preds
    return out
