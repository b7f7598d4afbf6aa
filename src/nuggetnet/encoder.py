"""Character-centered feature extraction and char/word fusion.

Each character under consideration gets one feature vector per enabled
branch (characters, words): token embeddings joined with embeddings of each
token's offset from the center, a 1-d convolution with tanh, max pooling
split at the center token, the center's lexical window, and a tanh
projection.  The two branch features are projected to a common width and
fused either by concatenation or by learned sigmoid gates.

`extract_branch` computes these features for every center of one or more
token sequences in one pass.  Splitting each filter into its token columns
and its position columns splits the convolution exactly:

    pre[c, j] = T[j] + P[j - c]

T (n x filters) convolves the token embeddings once.  P ((2n-1) x filters)
convolves the position embeddings once over the offsets -(n-1) .. n-1,
each window slot clipped to max_rel_dist.  A center's map is T plus a
slice of P.  Pooling takes the max of the pre-activations and applies tanh
to the 2 x filters pooled values only, which is exact because tanh is
monotone.  Only one (n x filters) map exists at a time, so the working
memory is O(n * filters): no (centers x n x filters) tensor is built.  One
matmul projects all centers.  Each center's map is built and reduced once
per forward pass.  Without a backward pass the pooling takes the values
only (ndcore.split_max_pool), so inference never pays for an argmax.
With one (extract_branch's for_backward) it finds each pooled value's
argmax row instead (ndcore.split_argmax) and reads the value back at that
row, T[arg] + P[arg - c], which is exact because max returns one of the
elements it compares.  The cache keeps those rows, and T and P die with
the forward pass.  The backward pass scatters each pooled gradient to its
row only, into an (n x filters) token map and a ((2n-1) x filters) offset
map, and turns each map into weight and embedding gradients with one
matmul.

A model reads a sequence longer than its max_tokens through a
max_tokens-long view centered on each character, clamped at the edges
(model.py).  The centers that share a view share one segment.  One
extract_branch call takes segments until its token term would pass a
fixed element budget (model._CALL_ELEMENTS), and at least one: one view
of a long sentence at many filters, a whole batch of short sentences at
few.  The convolutions read the segments' padded tokens back to back, one
window slot at a time, so no (columns x window*dim) matrix of windows is
built.  All segments share the offset table of the longest one, so one
pooling pass serves every center of the call: each center pools over its
own segment's rows of the packed token term only.
Backward passes are written out by hand; the gradient checker in ndcore is
the authority on their correctness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import PAD_ID, Vocabulary, relative_position_index
from .errors import ConfigError, ShapeError
from .ndcore import ParamStore, conv1d, sigmoid, split_argmax, split_max_pool


class HybridMode(str, Enum):
    CONCAT = "concat"
    GENERAL = "general"
    TASK_SPECIFIC = "task_specific"


@dataclass(frozen=True)
class ExtractorConfig:
    token_emb_dim: int = 100
    pos_emb_dim: int = 5
    n_filters: int = 200
    window: int = 3
    lex_window: int = 1
    proj_dim: int = 200
    max_rel_dist: int = 40
    use_chars: bool = True
    use_words: bool = True
    hybrid_mode: HybridMode = HybridMode.GENERAL
    dropout: float = 0.0

    def __post_init__(self):
        for name in ("token_emb_dim", "pos_emb_dim", "n_filters", "window", "proj_dim", "max_rel_dist"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lex_window < 0:
            raise ConfigError(f"lex_window must be >= 0, got {self.lex_window}")
        if not (self.use_chars or self.use_words):
            raise ConfigError("at least one of use_chars/use_words must be enabled")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        # tolerate the plain string form from config files
        try:
            object.__setattr__(self, "hybrid_mode", HybridMode(self.hybrid_mode))
        except ValueError:
            modes = tuple(mode.value for mode in HybridMode)
            raise ConfigError(f"hybrid_mode must be one of {modes}, got {self.hybrid_mode!r}") from None

    @property
    def input_dim(self) -> int:
        return self.token_emb_dim + self.pos_emb_dim

    @property
    def feature_dim(self) -> int:
        return 2 * self.n_filters + (2 * self.lex_window + 1) * self.token_emb_dim

    @property
    def n_positions(self) -> int:
        return 2 * self.max_rel_dist + 1

    @property
    def both_branches(self) -> bool:
        return self.use_chars and self.use_words

    @property
    def fused_dim(self) -> int:
        """Width of the vectors handed to the classifier heads."""
        if not self.both_branches:
            return self.proj_dim
        if self.hybrid_mode is HybridMode.CONCAT:
            return 2 * self.proj_dim
        return self.proj_dim

    def to_json(self) -> dict:
        return {**asdict(self), "hybrid_mode": self.hybrid_mode.value}

    @classmethod
    def from_json(cls, data: dict) -> "ExtractorConfig":
        return cls(**data)


BRANCH_PREFIXES = ("char", "word")


def register_encoder_params(store: ParamStore, config: ExtractorConfig, vocab: Vocabulary) -> None:
    """Register all extractor and fusion parameters in a fixed order."""
    if vocab.max_rel_dist != config.max_rel_dist:
        raise ConfigError(
            f"vocabulary max_rel_dist {vocab.max_rel_dist} != extractor max_rel_dist {config.max_rel_dist}"
        )
    sizes = {"char": vocab.n_chars, "word": vocab.n_words}
    enabled = {"char": config.use_chars, "word": config.use_words}
    for prefix in BRANCH_PREFIXES:
        if not enabled[prefix]:
            continue
        store.add(f"{prefix}.tok_emb", (sizes[prefix], config.token_emb_dim), init="embedding")
        store.add(f"{prefix}.pos_emb", (config.n_positions, config.pos_emb_dim), init="embedding")
        store.add(f"{prefix}.conv_w", (config.n_filters, config.window * config.input_dim), init="glorot")
        store.add(f"{prefix}.conv_b", (config.n_filters,), init="zeros")
        store.add(f"{prefix}.proj_w", (config.proj_dim, config.feature_dim), init="glorot")
        store.add(f"{prefix}.proj_b", (config.proj_dim,), init="zeros")
    if config.both_branches:
        d = config.proj_dim
        if config.hybrid_mode is HybridMode.GENERAL:
            store.add("fuse.gate_w_char", (d, d), init="glorot")
            store.add("fuse.gate_w_word", (d, d), init="glorot")
            store.add("fuse.gate_b", (d,), init="zeros")
        elif config.hybrid_mode is HybridMode.TASK_SPECIFIC:
            for task in ("nugget", "type"):
                store.add(f"fuse.{task}.gate_w_char", (d, d), init="glorot")
                store.add(f"fuse.{task}.gate_w_word", (d, d), init="glorot")
                store.add(f"fuse.{task}.gate_b", (d,), init="zeros")


# ---------------------------------------------------------------------------
# Branch: embed -> split conv -> split pooling -> lexical concat -> projection
# ---------------------------------------------------------------------------


@dataclass
class BranchCache:
    """What branch_backward needs from one extract_branch call over k centers.

    The token convolution runs once over all segments' padded tokens back
    to back; conv column j of a segment starting at padded slot s is its
    position s + j.  Offset rows number the offsets -(N-1) .. N-1, N being
    the longest segment's length.  Every array is per center or a row of
    convolution inputs: neither (rows x filters) term outlives the forward.
    """

    padded_ids: np.ndarray  # every segment's token ids with its conv pads, back to back
    pos_rows: np.ndarray  # (2N-1 + window-1,) position rows the offset convolution reads
    centers: np.ndarray  # (k,) token-term row of each center
    lo: np.ndarray  # (k,) first token-term row of each center's segment
    arg_rows: np.ndarray | None  # (k, 2*n_filters) token-term row of each pooled value; None without backward
    lex_ids: np.ndarray  # (k, 2*lex_window+1)
    feature: np.ndarray  # (k, feature_dim): tanh of both pools, lexical embeddings
    fp: np.ndarray  # (k, proj_dim) tanh-projected features


def _filters(conv_w: np.ndarray, config: ExtractorConfig) -> np.ndarray:
    """The flat filters as (n_filters, window, input_dim): token columns first, then position columns."""
    return conv_w.reshape(config.n_filters, config.window, config.input_dim)


def _offset_rows(arg_rows: np.ndarray, centers: np.ndarray, n_offsets: int) -> np.ndarray:
    """Offset-term row of each pooled value at token-term row arg_rows[i, f]: N-1 + that row - center i's row."""
    return arg_rows - centers[:, None] + (n_offsets - 1) // 2


def _pooled_at(
    token_term: np.ndarray, offset_term: np.ndarray, centers: np.ndarray, lo: np.ndarray, arg_rows: np.ndarray
) -> np.ndarray:
    """split_max_pool's values (left, right side by side) gathered at split_argmax's rows.

    They equal split_max_pool's bit for bit: max returns one of the map
    elements it compares, token_term[arg] + offset_term[offset row].  An
    empty left pool is 0.
    """
    m = token_term.shape[1]
    filters = np.tile(np.arange(m), 2)
    offsets = _offset_rows(arg_rows, centers, offset_term.shape[0])
    pooled = token_term[arg_rows, filters] + offset_term[offsets, filters]
    pooled[centers == lo, :m] = 0.0
    return pooled


def extract_branch(
    store: ParamStore,
    prefix: str,
    segments: Sequence[tuple[np.ndarray, np.ndarray]],
    config: ExtractorConfig,
    for_backward: bool = True,
) -> BranchCache:
    """Feature vectors of one branch for the centers of one or more token sequences.

    `segments` holds (token ids, center indices into them) per sequence;
    the result has one row per center, segment after segment.  With
    for_backward the pooling finds each pooled value's row once
    (split_argmax) and the cache keeps those rows for branch_backward;
    without it the pooling takes the values only (split_max_pool).
    """
    segments = [(np.asarray(ids, dtype=np.int64), np.asarray(c, dtype=np.int64)) for ids, c in segments]
    if not segments or any(ids.ndim != 1 or ids.shape[0] == 0 for ids, _ in segments):
        raise ShapeError("cannot extract features from an empty token sequence")
    if any(c.ndim != 1 for _, c in segments):
        raise ShapeError("center indices must be a 1-d list per segment")
    if not any(c.shape[0] for _, c in segments):
        raise ShapeError("no centers to extract features for")
    tok_emb = store[f"{prefix}.tok_emb"].value
    h = config.window
    e = config.token_emb_dim
    lead = (h - 1) // 2
    lengths = np.array([ids.shape[0] for ids, _ in segments])
    longest = int(lengths.max())

    # conv column j of a segment reads its padded slots j .. j+h-1, i.e. tokens j-lead .. j-lead+h-1
    pad_starts = np.concatenate([[0], np.cumsum(lengths + h - 1)])
    padded_ids = np.full(pad_starts[-1], PAD_ID, dtype=np.int64)
    for (ids, _), start in zip(segments, pad_starts.tolist()):
        padded_ids[start + lead : start + lead + ids.shape[0]] = ids
    # offset row r (j - c = r - (N-1)) reads the positions of tokens j-lead .. j-lead+h-1 relative to c
    pos_rows = relative_position_index(np.arange(h + 2 * longest - 2) - (longest - 1) - lead, config.max_rel_dist)

    w = _filters(store[f"{prefix}.conv_w"].value, config)
    token_term = conv1d(tok_emb[padded_ids], w[:, :, :e].reshape(config.n_filters, -1), store[f"{prefix}.conv_b"].value)
    offset_term = conv1d(store[f"{prefix}.pos_emb"].value[pos_rows], w[:, :, e:].reshape(config.n_filters, -1))

    # every center as a token-term row inside its segment's rows [lo, hi); row a is padded slot a + lead
    counts = [c.shape[0] for _, c in segments]
    lo = np.repeat(pad_starts[:-1], counts)
    hi = lo + np.repeat(lengths, counts)
    centers = lo + np.concatenate([c for _, c in segments])
    if for_backward:
        arg_rows = np.concatenate(split_argmax(token_term, offset_term, centers, lo, hi), axis=1)
        pooled = _pooled_at(token_term, offset_term, centers, lo, arg_rows)
    else:
        arg_rows = None
        pooled = np.concatenate(split_max_pool(token_term, offset_term, centers, lo, hi), axis=1)
    lex_slots = centers[:, None] + np.arange(-config.lex_window, config.lex_window + 1)
    inside = (lex_slots >= lo[:, None]) & (lex_slots < hi[:, None])
    lex_ids = np.where(inside, padded_ids[np.clip(lex_slots, lo[:, None], hi[:, None] - 1) + lead], PAD_ID)
    feature = np.concatenate([np.tanh(pooled), tok_emb[lex_ids].reshape(lex_ids.shape[0], -1)], axis=1)
    fp = np.tanh(feature @ store[f"{prefix}.proj_w"].value.T + store[f"{prefix}.proj_b"].value)
    return BranchCache(padded_ids, pos_rows, centers, lo, arg_rows, lex_ids, feature, fp)


def _conv1d_backward(dmap: np.ndarray, x: np.ndarray, w: np.ndarray, grad_w: np.ndarray) -> np.ndarray:
    """Backward of conv1d for filters w as (filters, window, d): adds dL/dw into grad_w, returns dL/dx."""
    n_out = dmap.shape[0]
    dx = np.zeros_like(x)
    for k in range(w.shape[1]):
        grad_w[:, k] += dmap.T @ x[k : k + n_out]
        dx[k : k + n_out] += dmap @ w[:, k]
    return dx


def branch_backward(store: ParamStore, prefix: str, cache: BranchCache, dfp: np.ndarray, config: ExtractorConfig) -> None:
    """Accumulate gradients for one branch given dL/d(projected features), one row per center."""
    proj_w = store[f"{prefix}.proj_w"]
    dz = dfp * (1.0 - cache.fp * cache.fp)
    proj_w.grad += dz.T @ cache.feature
    store[f"{prefix}.proj_b"].grad += dz.sum(axis=0)
    dfeature = dz @ proj_w.value

    m = config.n_filters
    e = config.token_emb_dim
    tok_emb = store[f"{prefix}.tok_emb"]
    pos_emb = store[f"{prefix}.pos_emb"]
    np.add.at(tok_emb.grad, cache.lex_ids.reshape(-1), dfeature[:, 2 * m :].reshape(-1, e))

    pooled = cache.feature[:, : 2 * m]
    dpre = dfeature[:, : 2 * m] * (1.0 - pooled * pooled)
    dpre[cache.centers == cache.lo, :m] = 0.0  # an empty left pool is a constant

    # each pooled value came from one conv column, its argmax row, and one offset row: scatter it into
    # both maps, whose row counts are the convolutions' output lengths
    cols = cache.arg_rows
    n_cols = cache.padded_ids.shape[0] - config.window + 1
    n_offsets = cache.pos_rows.shape[0] - config.window + 1
    offset_rows = _offset_rows(cols, cache.centers, n_offsets)
    filters = np.tile(np.arange(m), 2)
    weights = dpre.reshape(-1)
    token_map = np.bincount((cols * m + filters).reshape(-1), weights, n_cols * m).reshape(n_cols, m)
    offset_map = np.bincount((offset_rows * m + filters).reshape(-1), weights, n_offsets * m).reshape(-1, m)

    conv_w = store[f"{prefix}.conv_w"]
    store[f"{prefix}.conv_b"].grad += token_map.sum(axis=0)
    w = _filters(conv_w.value, config)
    grad = _filters(conv_w.grad, config)
    dtok = _conv1d_backward(token_map, tok_emb.value[cache.padded_ids], w[:, :, :e], grad[:, :, :e])
    np.add.at(tok_emb.grad, cache.padded_ids, dtok)
    dpos = _conv1d_backward(offset_map, pos_emb.value[cache.pos_rows], w[:, :, e:], grad[:, :, e:])
    np.add.at(pos_emb.grad, cache.pos_rows, dpos)


# ---------------------------------------------------------------------------
# Fusion: rows of (m, proj_dim) branch features; fuse also takes single vectors
# ---------------------------------------------------------------------------


@dataclass
class FusionCache:
    fp_char: np.ndarray | None
    fp_word: np.ndarray | None
    gates: dict[str, np.ndarray]  # task -> sigmoid gate rows
    f_nugget: np.ndarray
    f_type: np.ndarray


def _gate(store: ParamStore, scope: str, fp_char: np.ndarray, fp_word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = sigmoid(
        fp_char @ store[f"{scope}.gate_w_char"].value.T
        + fp_word @ store[f"{scope}.gate_w_word"].value.T
        + store[f"{scope}.gate_b"].value
    )
    return z, z * fp_char + (1.0 - z) * fp_word


def _gate_backward(
    store: ParamStore, scope: str, z: np.ndarray, fp_char: np.ndarray, fp_word: np.ndarray, df: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    dz = df * (fp_char - fp_word)
    dpre = dz * z * (1.0 - z)
    store[f"{scope}.gate_w_char"].grad += dpre.T @ fp_char
    store[f"{scope}.gate_w_word"].grad += dpre.T @ fp_word
    store[f"{scope}.gate_b"].grad += dpre.sum(axis=0)
    dfp_char = df * z + dpre @ store[f"{scope}.gate_w_char"].value
    dfp_word = df * (1.0 - z) + dpre @ store[f"{scope}.gate_w_word"].value
    return dfp_char, dfp_word


def fuse(
    store: ParamStore,
    config: ExtractorConfig,
    fp_char: np.ndarray | None,
    fp_word: np.ndarray | None,
) -> FusionCache:
    """Combine branch features, (m, proj_dim) rows or single vectors, into the head inputs."""
    if not config.both_branches:
        single = fp_char if fp_char is not None else fp_word
        if single is None:
            raise ShapeError("fusion needs at least one branch feature")
        return FusionCache(fp_char, fp_word, {}, single, single)
    assert fp_char is not None and fp_word is not None
    if config.hybrid_mode is HybridMode.CONCAT:
        f = np.concatenate([fp_char, fp_word], axis=-1)
        return FusionCache(fp_char, fp_word, {}, f, f)
    if config.hybrid_mode is HybridMode.GENERAL:
        z, f = _gate(store, "fuse", fp_char, fp_word)
        return FusionCache(fp_char, fp_word, {"shared": z}, f, f)
    z_n, f_n = _gate(store, "fuse.nugget", fp_char, fp_word)
    z_t, f_t = _gate(store, "fuse.type", fp_char, fp_word)
    return FusionCache(fp_char, fp_word, {"nugget": z_n, "type": z_t}, f_n, f_t)


def fuse_backward(
    store: ParamStore,
    config: ExtractorConfig,
    cache: FusionCache,
    df_nugget: np.ndarray,
    df_type: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Route (m, fused_dim) head-input gradients back to the (m, proj_dim) branch features."""
    if not config.both_branches:
        d = df_nugget + df_type
        return (d, None) if cache.fp_char is not None else (None, d)
    fp_char, fp_word = cache.fp_char, cache.fp_word
    if config.hybrid_mode is HybridMode.CONCAT:
        d = df_nugget + df_type
        k = config.proj_dim
        return d[:, :k], d[:, k:]
    if config.hybrid_mode is HybridMode.GENERAL:
        return _gate_backward(store, "fuse", cache.gates["shared"], fp_char, fp_word, df_nugget + df_type)
    dc_n, dw_n = _gate_backward(store, "fuse.nugget", cache.gates["nugget"], fp_char, fp_word, df_nugget)
    dc_t, dw_t = _gate_backward(store, "fuse.type", cache.gates["type"], fp_char, fp_word, df_type)
    return dc_n + dc_t, dw_n + dw_t


# ---------------------------------------------------------------------------
# Pretrained embeddings
# ---------------------------------------------------------------------------


# trailing whitespace an embeddings line may end in (word2vec writes " \n"); a token may be any other
# space character, such as U+3000, so lines are split on " " alone
_ASCII_SPACE = " \t\n\r\f\v"


def load_embeddings_file(path, store: ParamStore, prefix: str, token_to_id: dict[str, int]) -> int:
    """Overwrite embedding rows from a text file of "token v1 v2 ..." lines.

    Trailing ASCII whitespace is ignored.  Tokens absent from the
    vocabulary are skipped.  Returns the number of rows loaded.  Dimension
    mismatches and non-numeric values raise ConfigError naming the file
    and line.
    """
    emb = store[f"{prefix}.tok_emb"].value
    loaded = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip(_ASCII_SPACE).split(" ")
            if len(parts) == 2 and lineno == 1 and all(p.isdigit() for p in parts):
                continue  # optional "count dim" header
            token, values = parts[0], parts[1:]
            if token not in token_to_id:
                continue
            if len(values) != emb.shape[1]:
                raise ConfigError(
                    f"{path}: line {lineno}: embedding has {len(values)} dims, expected {emb.shape[1]}"
                )
            try:
                emb[token_to_id[token]] = np.array([float(v) for v in values])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            loaded += 1
    return loaded
