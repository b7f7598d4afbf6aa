"""Brute-force reference for one branch: the per-center formula, written out.

For each center it rebuilds the position-embedded input of the whole
sequence, runs the full convolution with tanh, pools left and right of the
center on the activation map, and projects.  The kernel in
nuggetnet.encoder must agree with it; the two share no code beyond the
parameter store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD = 0


@dataclass
class ReferenceFeature:
    amap: np.ndarray  # (n, filters) tanh activation map of this center
    left_arg: np.ndarray | None  # per-filter argmax column left of the center, None when c == 0
    right_arg: np.ndarray  # per-filter argmax column from the center on
    feature: np.ndarray  # (feature_dim,)
    fp: np.ndarray  # (proj_dim,)


def reference_branch(store, prefix: str, ids, c: int, config) -> ReferenceFeature:
    ids = [int(t) for t in ids]
    n = len(ids)
    tok = store[f"{prefix}.tok_emb"].value
    pos = store[f"{prefix}.pos_emb"].value
    conv_w = store[f"{prefix}.conv_w"].value
    conv_b = store[f"{prefix}.conv_b"].value
    lead = (config.window - 1) // 2
    r = config.max_rel_dist

    def token(v):
        return tok[ids[v]] if 0 <= v < n else tok[PAD]

    def position(v):
        return pos[max(-r, min(r, v - c)) + r]

    columns = []
    for j in range(n):
        x = np.concatenate(
            [np.concatenate([token(v), position(v)]) for v in range(j - lead, j - lead + config.window)]
        )
        columns.append(np.tanh(conv_w @ x + conv_b))
    amap = np.array(columns)
    left_arg = amap[:c].argmax(axis=0) if c > 0 else None
    right_arg = c + amap[c:].argmax(axis=0)
    filters = np.arange(amap.shape[1])
    left = amap[left_arg, filters] if c > 0 else np.zeros(amap.shape[1])
    right = amap[right_arg, filters]
    lex = [token(v) for v in range(c - config.lex_window, c + config.lex_window + 1)]
    feature = np.concatenate([left, right, *lex])
    fp = np.tanh(store[f"{prefix}.proj_w"].value @ feature + store[f"{prefix}.proj_b"].value)
    return ReferenceFeature(amap, left_arg, right_arg, feature, fp)


def reference_view(store, prefix: str, ids, c: int, config, max_tokens: int) -> ReferenceFeature:
    """reference_branch on the max_tokens-long view centered on c, clamped at the edges."""
    n = len(ids)
    start = 0 if n <= max_tokens else min(max(c - max_tokens // 2, 0), n - max_tokens)
    return reference_branch(store, prefix, ids[start : start + max_tokens], c - start, config)
