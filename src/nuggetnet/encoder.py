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
the forward pass.

Both convolutions multiply each distinct input row once.  A row of T is
the sum, over the window slots k, of the product of slot k's filter
columns with the token in that slot; ndcore.window_products takes every
such product for each distinct token in one matmul, and
ndcore.window_sum adds a row's window up, slot by slot, then the bias.
P does the same over the distinct position rows.  A batch repeats its
tokens many times, so this multiplies far fewer rows than there are
columns, and never more.

A model reads a sequence longer than its max_tokens through a
max_tokens-long view centered on each character, clamped at the edges
(model.py).  The centers that share a view share one segment, and one
extract_branch call takes every segment of one branch of a batch: one
product table per convolution serves all of them.  The call cuts its
segments into chunks for the token term's window sums and the pooling
only: a chunk takes segments until its token term would pass a fixed
element budget (_CALL_ELEMENTS), and at least one, so it holds one view
of a long sentence at many filters and a whole batch of short sentences
at few.  Each chunk's token term dies before the next chunk starts.  All
segments share the offset table of the longest one, so it is computed
once per call, and one pooling pass per chunk serves every center in it:
each center pools over its own segment's rows only.  The lexical window,
tanh and the projection then run once over all centers.

branch_backward has no chunks.  It differentiates the projection and the
lexical window once, then sends each pooled gradient straight from its
argmax row to the (distinct row, window slot) products that row summed,
for T and for P alike (_window_backward): one bincount per window slot,
then one matmul for the filters' gradient and one for the embedding
rows'.  No map of either term is built.  The lexical gradient reaches the
token table through ndcore.scatter_rows.

Backward passes are written out by hand; the gradient checker in ndcore is
the authority on their correctness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import PAD_ID, Vocabulary, relative_position_index
from .errors import ConfigError, ShapeError, reading
from .ndcore import Param, ParamStore, scatter_rows, sigmoid, split_argmax, split_max_pool, window_products, window_sum


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

    Token-term row a is padded slot a + lead of every segment's padded
    tokens back to back; conv column j of a segment starting at padded
    slot s is its row s + j, and it sums the window products of padded
    slots s+j .. s+j+h-1.  Offset rows number the offsets -(N-1) .. N-1,
    N being the longest segment's length.  Each convolution's input is
    kept as its distinct table rows and each slot's index among them
    (ndcore.window_products).  Every array is per center or per input
    slot: no (rows x filters) term outlives the forward pass.
    """

    tok_distinct: np.ndarray  # distinct token ids of the padded segments, PAD included
    tok_slot: np.ndarray  # (padded slots,) index of each padded slot's token in tok_distinct
    pos_distinct: np.ndarray  # distinct position rows the offset convolution reads
    pos_slot: np.ndarray  # (2N-1 + window-1,) index of each of its input slots in pos_distinct
    centers: np.ndarray  # (k,) token-term row of each center
    lo: np.ndarray  # (k,) first token-term row of each center's segment
    arg_rows: np.ndarray | None  # (k, 2*n_filters) token-term row of each pooled value; None without backward
    lex_ids: np.ndarray  # (k, 2*lex_window+1)
    feature: np.ndarray  # (k, feature_dim): tanh of both pools, lexical embeddings
    fp: np.ndarray  # (k, proj_dim) tanh-projected features


# Token-term elements (rows x filters) per chunk of an extract_branch call.  A chunk takes consecutive
# segments until its token term would pass this, and at least one, so its token term and pooling
# buffers stay near 256 KiB: one 120-token view per chunk at 200 filters, a whole 32+32 batch of
# short sentences at 32.
_CALL_ELEMENTS = 1 << 15


def _chunks(lengths: Sequence[int], n_filters: int) -> list[int]:
    """Segment bounds of the chunks: chunk i holds segments bounds[i] .. bounds[i+1]-1."""
    bounds = [0]
    tokens = 0
    for i, n in enumerate(lengths):
        if tokens and (tokens + n) * n_filters > _CALL_ELEMENTS:
            bounds.append(i)
            tokens = 0
        tokens += n
    bounds.append(len(lengths))
    return bounds


def _chunk_ranges(lo: np.ndarray, chunk_slots: np.ndarray):
    """(first padded slot, end slot, first center row, end center row) of each chunk.

    A chunk's centers are consecutive rows, because segments keep their
    order and lo does not decrease from one center to the next.
    """
    center_bounds = np.searchsorted(lo, chunk_slots).tolist()
    slots = chunk_slots.tolist()
    return zip(slots[:-1], slots[1:], center_bounds[:-1], center_bounds[1:])


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
    the result has one row per center, segment after segment.  Each
    convolution multiplies its distinct input rows once for all segments
    (ndcore.window_products); the token term's window sums and the pooling
    run chunk by chunk (_CALL_ELEMENTS), and the offset term, the lexical
    window, tanh and the projection once over all centers.  With
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
    m = config.n_filters
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
    tok_distinct, tok_slot, tok_products = window_products(tok_emb, padded_ids, w[:, :, :e])
    pos_distinct, pos_slot, pos_products = window_products(store[f"{prefix}.pos_emb"].value, pos_rows, w[:, :, e:])
    offset_term = window_sum(pos_products, pos_slot, 0, 2 * longest - 1)
    conv_b = store[f"{prefix}.conv_b"].value

    # every center as a token-term row inside its segment's rows [lo, hi); row a is padded slot a + lead
    counts = [c.shape[0] for _, c in segments]
    lo = np.repeat(pad_starts[:-1], counts)
    hi = lo + np.repeat(lengths, counts)
    centers = lo + np.concatenate([c for _, c in segments])
    chunk_slots = pad_starts[_chunks(lengths.tolist(), m)]
    # the chunks write their pooled values straight into the features, and nothing is concatenated
    feature = np.empty((centers.shape[0], config.feature_dim))
    pooled = feature[:, : 2 * m]
    arg_rows = np.empty(pooled.shape, dtype=np.int64) if for_backward else None
    for start, end, r0, r1 in _chunk_ranges(lo, chunk_slots):
        # the chunk's token term is rows start .. end-h of the whole one; it dies with the chunk
        token_term = window_sum(tok_products, tok_slot, start, end - start - h + 1, conv_b)
        rows = (centers[r0:r1] - start, lo[r0:r1] - start, hi[r0:r1] - start)
        if for_backward:
            arg = np.concatenate(split_argmax(token_term, offset_term, *rows), axis=1)
            pooled[r0:r1] = _pooled_at(token_term, offset_term, rows[0], rows[1], arg)
            arg_rows[r0:r1] = arg + start
        else:
            pooled[r0:r1, :m], pooled[r0:r1, m:] = split_max_pool(token_term, offset_term, *rows)
    lex_slots = centers[:, None] + np.arange(-config.lex_window, config.lex_window + 1)
    inside = (lex_slots >= lo[:, None]) & (lex_slots < hi[:, None])
    lex_ids = np.where(inside, padded_ids[np.clip(lex_slots, lo[:, None], hi[:, None] - 1) + lead], PAD_ID)
    np.tanh(pooled, out=pooled)
    # the ids are in range by construction; "clip" lets take write into the strided columns unbuffered
    np.take(tok_emb, lex_ids, axis=0, out=feature[:, 2 * m :].reshape(lex_ids.shape + (e,)), mode="clip")
    fp = np.tanh(feature @ store[f"{prefix}.proj_w"].value.T + store[f"{prefix}.proj_b"].value)
    return BranchCache(tok_distinct, tok_slot, pos_distinct, pos_slot, centers, lo, arg_rows, lex_ids, feature, fp)


def _window_backward(table: Param, w: np.ndarray, grad_w: np.ndarray, distinct, slot, rows, weights) -> None:
    """Backward of window_sum over window_products(table.value, ids, w): adds into grad_w and table.grad.

    weights[i, c] is dL/d(term[rows[i, c], c mod m]), the term's rows
    numbered as window_sum's columns from slot 0.  Term row a is the sum of
    products[slot[a+k], k] over the window slots k, so each value adds to
    the h cells (slot[a+k], k) of one (distinct, h, m) gradient, one
    bincount per window slot; two matmuls over the distinct rows then give
    the filters' and the table's gradients.
    """
    m, h, d = w.shape
    n = distinct.shape[0]
    filters = np.arange(rows.shape[1]) % m
    cells = np.empty((n, h, m))
    for k in range(h):
        bins = slot[rows + k]
        bins *= m
        bins += filters
        cells[:, k] = np.bincount(bins.reshape(-1), weights.reshape(-1), n * m).reshape(n, m)
    cells = cells.reshape(n, h * m)
    grad_w += (cells.T @ table.value[distinct]).reshape(h, m, d).transpose(1, 0, 2)
    table.grad[distinct] += cells @ w.transpose(1, 0, 2).reshape(h * m, d)


def _projection_backward(store: ParamStore, prefix: str, cache: BranchCache, dfp: np.ndarray, m: int) -> np.ndarray:
    """Add the projection's and the lexical window's gradients; returns dL/d(pooled pre-activations), (k, 2m).

    A function of its own so that its temporaries are freed before the
    convolutions' backward allocates its own.
    """
    proj_w = store[f"{prefix}.proj_w"]
    dz = dfp * (1.0 - cache.fp * cache.fp)
    proj_w.grad += dz.T @ cache.feature
    store[f"{prefix}.proj_b"].grad += dz.sum(axis=0)
    # one product per column block of proj_w, so no (k x feature_dim) gradient is built
    scatter_rows(store[f"{prefix}.tok_emb"].grad, cache.lex_ids, dz @ proj_w.value[:, 2 * m :])
    dpre = dz @ proj_w.value[:, : 2 * m]
    pooled = cache.feature[:, : 2 * m]
    dpre *= 1.0 - pooled * pooled
    dpre[cache.centers == cache.lo, :m] = 0.0  # an empty left pool is a constant
    return dpre


def branch_backward(store: ParamStore, prefix: str, cache: BranchCache, dfp: np.ndarray, config: ExtractorConfig) -> None:
    """Accumulate gradients for one branch given dL/d(projected features), one row per center.

    Each pooled value came from one token-term row, its argmax row, and one
    offset-term row: both convolutions are differentiated once per branch,
    straight from those rows, with no chunk loop and no map of either term.
    """
    m = config.n_filters
    e = config.token_emb_dim
    dpre = _projection_backward(store, prefix, cache, dfp, m)
    store[f"{prefix}.conv_b"].grad += dpre.reshape(-1, m).sum(axis=0)
    conv_w = store[f"{prefix}.conv_w"]
    w = _filters(conv_w.value, config)
    grad = _filters(conv_w.grad, config)
    n_offsets = cache.pos_slot.shape[0] - config.window + 1
    offset_rows = _offset_rows(cache.arg_rows, cache.centers, n_offsets)
    pos_emb, tok_emb = store[f"{prefix}.pos_emb"], store[f"{prefix}.tok_emb"]
    _window_backward(pos_emb, w[:, :, e:], grad[:, :, e:], cache.pos_distinct, cache.pos_slot, offset_rows, dpre)
    _window_backward(tok_emb, w[:, :, :e], grad[:, :, :e], cache.tok_distinct, cache.tok_slot, cache.arg_rows, dpre)


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
    mismatches and non-numeric or non-finite values raise ConfigError
    naming the file and line.  The whole file is read and checked before
    any row is written, so a bad line leaves the table as it was.
    """
    emb = store[f"{prefix}.tok_emb"].value
    ids, rows = [], []
    with reading(path, ConfigError) as fh:
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
                row = np.array([float(v) for v in values])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            if not np.isfinite(row).all():
                raise ConfigError(f"{path}: line {lineno}: embedding has non-finite values")
            ids.append(token_to_id[token])
            rows.append(row)
    for token_id, row in zip(ids, rows):  # in file order: a token listed twice keeps its last row
        emb[token_id] = row
    return len(rows)
