"""Correctness references that share no code with the program.

* ``read_checkpoint`` parses the documented checkpoint layout itself.
* ``ReferenceForward`` recomputes per-character span and subtype
  distributions from the checkpoint tensors, looked up by their stable
  names, with one explicit matrix-vector product per convolution column.
* ``brute_decode`` re-derives the decoder's output from per-character
  distributions with plain loops: first-maximum argmax, in-bounds check,
  best-score merge with the lower subtype id winning ties.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

PROB_TOL = 1e-9  # max abs difference allowed between program and reference probabilities
_MAGIC = b"NGCKPT01"
_PAD, _UNK = 0, 1


def _meta_len(head: bytes, path) -> int:
    """Length of the JSON metadata that follows a checkpoint's 16-byte header."""
    if head[:8] != _MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    return struct.unpack_from("<II", head, 8)[1]


def read_meta(path) -> dict:
    """A checkpoint's metadata, without reading its tensors."""
    with open(path, "rb") as fh:
        meta_len = _meta_len(fh.read(16), path)
        return json.loads(fh.read(meta_len).decode("utf-8"))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(metadata, {tensor name: value}) from a checkpoint file; optimizer state is skipped."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 16
    meta_len = _meta_len(blob, path)
    meta = json.loads(blob[off : off + meta_len].decode("utf-8"))
    off += meta_len
    (n_records,) = struct.unpack_from("<I", blob, off)
    off += 4
    values = {}
    for _ in range(n_records):
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        kind, ndim = struct.unpack_from("<BB", blob, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}I", blob, off)
        off += 4 * ndim
        count = math.prod(shape)
        if kind == 0:
            values[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        off += 8 * count
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return meta, values


def label_table(max_len: int) -> list[tuple[int, int] | None]:
    """Span class index -> (length, position); index 0 is NIL."""
    table: list[tuple[int, int] | None] = [None]
    for length in range(1, max_len + 1):
        for position in range(1, length + 1):
            table.append((length, position))
    return table


class ReferenceForward:
    """Per-character distributions of a task_specific proposal checkpoint."""

    def __init__(self, path):
        meta, self.t = read_checkpoint(path)
        config = meta["config"]
        ex = config["extractor"]
        if ex["hybrid_mode"] != "task_specific" or not (ex["use_chars"] and ex["use_words"]):
            raise ValueError("the reference covers task_specific fusion over both branches only")
        if ex["dropout"] != 0.0:
            raise ValueError("the reference forward has no dropout")
        self.window = ex["window"]
        self.lex_window = ex["lex_window"]
        self.max_rel = ex["max_rel_dist"]
        self.max_tokens = config["max_tokens"]
        self.max_len = config["max_nugget_len"]
        self.chars = meta["vocab"]["chars"]
        self.words = meta["vocab"]["words"]
        self.subtypes = list(meta["subtypes"])

    def _rel(self, offset: int) -> int:
        return min(max(offset, -self.max_rel), self.max_rel) + self.max_rel

    def _branch(self, prefix: str, ids: list[int], c: int) -> np.ndarray:
        if len(ids) > self.max_tokens:
            lo = min(max(c - self.max_tokens // 2, 0), len(ids) - self.max_tokens)
            ids, c = ids[lo : lo + self.max_tokens], c - lo
        n = len(ids)
        tok = self.t[f"{prefix}.tok_emb"]
        pos = self.t[f"{prefix}.pos_emb"]
        conv_w, conv_b = self.t[f"{prefix}.conv_w"], self.t[f"{prefix}.conv_b"]
        lead = (self.window - 1) // 2

        def token(v):
            return tok[ids[v]] if 0 <= v < n else tok[_PAD]

        columns = []
        for j in range(n):
            slots = range(j - lead, j - lead + self.window)
            x = np.concatenate([np.concatenate([token(v), pos[self._rel(v - c)]]) for v in slots])
            columns.append(np.tanh(conv_w @ x + conv_b))
        amap = np.array(columns)  # (n, filters)
        left = amap[:c].max(axis=0) if c > 0 else np.zeros(amap.shape[1])
        right = amap[c:].max(axis=0)
        lex = [token(v) for v in range(c - self.lex_window, c + self.lex_window + 1)]
        feature = np.concatenate([left, right, *lex])
        return np.tanh(self.t[f"{prefix}.proj_w"] @ feature + self.t[f"{prefix}.proj_b"])

    def _head(self, task: str, fc: np.ndarray, fw: np.ndarray) -> np.ndarray:
        g = self.t[f"fuse.{task}.gate_w_char"] @ fc + self.t[f"fuse.{task}.gate_w_word"] @ fw
        z = 1.0 / (1.0 + np.exp(-(g + self.t[f"fuse.{task}.gate_b"])))
        f = z * fc + (1.0 - z) * fw
        scores = self.t[f"head.{task}_w"] @ f + self.t[f"head.{task}_b"]
        e = np.exp(scores - scores.max())
        return e / e.sum()

    def distributions(self, sentence, ci: int) -> tuple[np.ndarray, np.ndarray]:
        char_ids = [self.chars.get(ch, _UNK) for ch in sentence.text]
        word_of = [wi for wi, (s, e) in enumerate(sentence.word_spans) for _ in range(s, e + 1)]
        word_ids = [self.words.get(sentence.text[s : e + 1], _UNK) for s, e in sentence.word_spans]
        fc = self._branch("char", char_ids, ci)
        fw = self._branch("word", word_ids, word_of[ci])
        return self._head("nugget", fc, fw), self._head("type", fc, fw)

    def loss(self, instances, subtype_stream: bool) -> float:
        """Summed cross-entropy -log p[gold] of one instance stream."""
        classes = label_table(self.max_len)
        total = 0.0
        for inst in instances:
            pn, pt = self.distributions(inst.sentence, inst.char_index)
            if subtype_stream:
                p, gold = pt, self.subtypes.index(inst.type_label)
            else:
                label = inst.nugget_label
                gold = 0 if label.length == 0 else classes.index((label.length, label.position))
                p = pn
            total -= math.log(p[gold])
        return total


def max_prob_gap(expected: tuple[np.ndarray, np.ndarray], got: tuple[np.ndarray, np.ndarray]) -> float:
    return max(float(np.max(np.abs(np.asarray(e) - np.asarray(g)))) for e, g in zip(expected, got))


def _first_argmax(values) -> int:
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best]:
            best = k
    return best


def brute_decode(rows: dict, n_chars: int, max_len: int, subtypes: list[str]):
    """(predictions as (start, length, subtype, score) tuples, (proposed, out_of_bounds, merged))."""
    classes = label_table(max_len)
    kept: dict[tuple[int, int], tuple[float, int]] = {}
    proposed = out_of_bounds = merged = 0
    for ci in range(n_chars):
        pn, pt = rows[ci]
        k = _first_argmax(pn)
        if k == 0:
            continue
        length, position = classes[k]
        start = ci - (position - 1)
        if start < 0 or start + length > n_chars:
            out_of_bounds += 1
            continue
        proposed += 1
        t = _first_argmax(pt)
        score = math.log(float(pn[k])) + math.log(float(pt[t]))
        span = (start, length)
        if span in kept:
            merged += 1
            old_score, old_t = kept[span]
            if not (score > old_score or (score == old_score and t < old_t)):
                continue
        kept[span] = (score, t)
    preds = sorted((s, n, t, score) for (s, n), (score, t) in kept.items())
    return [(s, n, subtypes[t], score) for s, n, t, score in preds], (proposed, out_of_bounds, merged)
