"""Brute-force reference decoder, written out with plain Python loops.

It re-derives what nuggetnet.decoder.decode_sentence returns from the
model's per-character distributions alone: argmax by hand, out-of-bounds
proposals dropped, duplicate spans merged by (higher score, lower subtype
id).  It calls nothing in the decoder beyond the Prediction record, so the
two routes stay independent.
"""

from __future__ import annotations

import math

from nuggetnet.corpus import AnnotatedSentence
from nuggetnet.decoder import Prediction
from nuggetnet.labels import decode_label


def decode_oracle(model, sentence: AnnotatedSentence) -> list[Prediction]:
    """Brute-force reference decoder; must agree with decode_sentence exactly."""
    enc = model.encode_sentence(sentence)
    n = len(sentence.text)
    candidates = []
    for ci in range(n):
        pn, pt = model.char_distributions(enc, ci)
        k_best, p_best = 0, pn[0]
        for k in range(1, len(pn)):
            if pn[k] > p_best:
                k_best, p_best = k, pn[k]
        if k_best == 0:
            continue
        label = decode_label(k_best, model.config.max_nugget_len)
        length, position = label.length, label.position
        start = ci - (position - 1)
        if start < 0 or start + length > n:
            continue
        t_best, q_best = 0, pt[0]
        for t in range(1, len(pt)):
            if pt[t] > q_best:
                t_best, q_best = t, pt[t]
        candidates.append((start, length, t_best, math.log(float(p_best)) + math.log(float(q_best))))

    kept: dict[tuple[int, int], tuple[float, int]] = {}
    for start, length, t, score in candidates:
        span = (start, length)
        if span not in kept:
            kept[span] = (score, t)
            continue
        old_score, old_t = kept[span]
        if score > old_score or (score == old_score and t < old_t):
            kept[span] = (score, t)

    out = []
    for (start, length), (score, t) in kept.items():
        out.append(Prediction(start, length, model.subtypes.name_of(t), score))
    out.sort(key=lambda p: (p.start, p.length, model.subtypes.id_of(p.subtype)))
    return out
