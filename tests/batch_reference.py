"""Reference batch index: rows grouped and indexed one sentence at a time.

This is the per-sentence algorithm that model._branch_rows computes with
a fixed number of numpy calls.  The rows are grouped by sentence object, in
order of first appearance, as CharEncoderBase._loss numbers them.  Each
group's distinct centers are sorted, and each distinct view start gives
one segment, in order of start.  model.py must produce the same segments,
in the same order, and the same cache row for every batch row.
"""

from __future__ import annotations

import numpy as np


def reference_view_starts(n: int, centers: np.ndarray, max_tokens: int) -> np.ndarray:
    if n <= max_tokens:
        return np.zeros_like(centers)
    return np.clip(centers - max_tokens // 2, 0, n - max_tokens)


def reference_groups(model, sentences, chars) -> list[tuple]:
    """(the sentence's ids, chars[rows], rows) per distinct sentence object, in order of first appearance."""
    rows_of = {}
    for row, sentence in enumerate(sentences):
        rows_of.setdefault(id(sentence), (sentence, []))[1].append(row)
    chars = np.asarray(chars, dtype=np.int64)
    return [(s.ids(model.vocab), chars[rows], np.array(rows)) for s, rows in rows_of.values()]


def reference_index(groups, max_tokens: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """(segments, cache_row) for (token ids, centers, batch rows) groups, one group at a time."""
    segments = []
    cache_row = np.empty(sum(len(rows) for _, _, rows in groups), dtype=np.int64)
    k = 0
    for ids, centers, rows in groups:
        centers = np.asarray(centers).tolist()
        distinct = np.array(sorted(set(centers)), dtype=np.int64)
        starts = reference_view_starts(ids.shape[0], distinct, max_tokens)
        position = {}
        for start in sorted(set(starts.tolist())):
            view_centers = distinct[starts == start]
            segments.append((ids[start : start + max_tokens], view_centers - start))
            position.update(zip(view_centers.tolist(), range(k, k + view_centers.shape[0])))
            k += view_centers.shape[0]
        cache_row[rows] = [position[c] for c in centers]
    return segments, cache_row
