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
per forward pass.  Both pooling kernels return what extract_branch stores:
the pooled values as one (centers x 2 filters) array, left pools then
right.  Without a backward pass the pooling takes the values only
(ndcore.split_max_pool), so inference never pays for an argmax.  With one
(extract_branch's for_backward) ndcore.split_argmax finds each pooled
value's argmax row instead, reads the value back at that row, T[arg] +
P[arg - c] (ndcore.offset_rows), and returns the values and the rows;
the values equal split_max_pool's bit for bit, because max returns one of
the elements it compares.  The cache keeps the rows, and T and P die with
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
extract_branch call takes every segment of one branch of a batch, as flat
arrays with one length and one center count per segment: one product
table per convolution serves all of them.  The call cuts its
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

gate_readers alone decides the gate each softmax head reads: it maps each
gate scope to the heads that read it, `None` standing for concatenation
or a lone branch, `fuse` for general and `fuse.<head>` for task_specific.
encoder_params registers each scope once, and fuse and fuse_backward
loop over the same scopes.  Each scope runs once: on its one reader's
rows (a training step's span or subtype rows; every row at inference), or
on every row when several heads read it, each of them then reading its
own slice.

Backward passes are written out by hand; the gradient checker in ndcore is
the authority on their correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .corpus import PAD_ID, Vocabulary, relative_position_index
from .errors import ConfigError, ShapeError, check_bounds, reading
from .ndcore import (
    Param, ParamStore, Spec, offset_rows, scatter_rows, sigmoid, split_argmax, split_max_pool, window_products, window_sum
)


class HybridMode(str, Enum):
    CONCAT = "concat"
    GENERAL = "general"
    TASK_SPECIFIC = "task_specific"


@dataclass(frozen=True)
class ExtractorConfig:
    token_emb_dim: int = field(default=100, metadata={"minimum": 1})
    pos_emb_dim: int = field(default=5, metadata={"minimum": 1})
    n_filters: int = field(default=200, metadata={"minimum": 1})
    window: int = field(default=3, metadata={"minimum": 1})
    lex_window: int = field(default=1, metadata={"minimum": 0})
    proj_dim: int = field(default=200, metadata={"minimum": 1})
    max_rel_dist: int = field(default=40, metadata={"minimum": 1, "exclusiveMaximum": 1 << 16})
    use_chars: bool = True
    use_words: bool = True
    hybrid_mode: HybridMode = HybridMode.GENERAL
    dropout: float = field(default=0.0, metadata={"minimum": 0, "exclusiveMaximum": 1})

    def __post_init__(self):
        check_bounds(self)
        if not (self.use_chars or self.use_words):
            raise ConfigError("at least one of use_chars/use_words must be enabled")
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
        return 2 * self.proj_dim if self.both_branches and self.hybrid_mode is HybridMode.CONCAT else self.proj_dim


BRANCH_PREFIXES = ("char", "word")


def gate_readers(config: ExtractorConfig, heads: Iterable[str]) -> dict[str | None, tuple[str, ...]]:
    """The heads that read each gate scope, by scope: None (concat or a lone branch), `fuse` (general) or `fuse.<head>`."""
    heads = tuple(heads)
    if not config.both_branches or config.hybrid_mode is HybridMode.CONCAT:
        return {None: heads}
    if config.hybrid_mode is HybridMode.GENERAL:
        return {"fuse": heads}
    return {f"fuse.{head}": (head,) for head in heads}


def encoder_params(config: ExtractorConfig, vocab: Vocabulary, heads: Iterable[str]) -> list[Spec]:
    """The extractor's and the fusion's (name, shape, init) tensor list, in store order: each gate the heads read once."""
    if vocab.max_rel_dist != config.max_rel_dist:
        raise ConfigError(
            f"vocabulary max_rel_dist {vocab.max_rel_dist} != extractor max_rel_dist {config.max_rel_dist}"
        )
    sizes = {"char": vocab.n_chars, "word": vocab.n_words}
    enabled = {"char": config.use_chars, "word": config.use_words}
    specs = []
    for prefix in (prefix for prefix in BRANCH_PREFIXES if enabled[prefix]):
        specs += [
            (f"{prefix}.tok_emb", (sizes[prefix], config.token_emb_dim), "embedding"),
            (f"{prefix}.pos_emb", (config.n_positions, config.pos_emb_dim), "embedding"),
            (f"{prefix}.conv_w", (config.n_filters, config.window * config.input_dim), "glorot"),
            (f"{prefix}.conv_b", (config.n_filters,), "zeros"),
            (f"{prefix}.proj_w", (config.proj_dim, config.feature_dim), "glorot"),
            (f"{prefix}.proj_b", (config.proj_dim,), "zeros"),
        ]
    d = config.proj_dim
    for scope in filter(None, gate_readers(config, heads)):
        specs += [
            (f"{scope}.gate_w_char", (d, d), "glorot"),
            (f"{scope}.gate_w_word", (d, d), "glorot"),
            (f"{scope}.gate_b", (d,), "zeros"),
        ]
    return specs


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


def _filters(conv_w: np.ndarray, config: ExtractorConfig) -> np.ndarray:
    """The flat filters as (n_filters, window, input_dim): token columns first, then position columns."""
    return conv_w.reshape(config.n_filters, config.window, config.input_dim)


def extract_branch(
    store: ParamStore,
    prefix: str,
    tokens: np.ndarray,
    lengths: np.ndarray,
    cols: np.ndarray,
    counts: np.ndarray,
    config: ExtractorConfig,
    for_backward: bool = True,
) -> BranchCache:
    """Feature vectors of one branch for the centers of one or more token sequences, the segments.

    Segment s holds the next lengths[s] ids of tokens and the next
    counts[s] center indices into them of cols; the result has one row per
    center of cols.  Each convolution multiplies its distinct input rows
    once for all segments (ndcore.window_products); the token term's window
    sums and the pooling run chunk by chunk (_CALL_ELEMENTS), and the
    offset term, the lexical window, tanh and the projection once over all
    centers.  With for_backward the pooling returns each pooled value and
    its row (split_argmax), and the cache keeps the rows for
    branch_backward; without it the pooling returns the values only
    (split_max_pool).
    """
    tokens, lengths, cols, counts = (np.asarray(a, dtype=np.int64) for a in (tokens, lengths, cols, counts))
    if tokens.ndim != 1 or cols.ndim != 1 or lengths.ndim != 1 or counts.shape != lengths.shape:
        raise ShapeError("token ids and center indices must be 1-d, with one length and one count per segment")
    if lengths.shape[0] == 0 or lengths.min() < 1:
        raise ShapeError("cannot extract features from an empty token sequence")
    if lengths.sum() != tokens.shape[0] or counts.min() < 0 or counts.sum() != cols.shape[0]:
        raise ShapeError(f"segment lengths {lengths.tolist()} and counts {counts.tolist()} do not cut the tokens and centers")
    if cols.shape[0] == 0:
        raise ShapeError("no centers to extract features for")
    tok_emb = store[f"{prefix}.tok_emb"].value
    h = config.window
    e = config.token_emb_dim
    m = config.n_filters
    lead = (h - 1) // 2
    longest = int(lengths.max())

    # conv column j of a segment reads its padded slots j .. j+h-1, i.e. tokens j-lead .. j-lead+h-1
    pad_starts = np.concatenate([[0], np.cumsum(lengths + h - 1)])
    padded_ids = np.full(pad_starts[-1], PAD_ID, dtype=np.int64)
    # token t of a segment goes to its padded slot lead + t: its place in tokens, moved by lead and the pads before it
    shift = np.repeat(pad_starts[:-1] + lead - (np.cumsum(lengths) - lengths), lengths)
    padded_ids[shift + np.arange(tokens.shape[0])] = tokens
    # offset row r (j - c = r - (N-1)) reads the positions of tokens j-lead .. j-lead+h-1 relative to c
    pos_rows = relative_position_index(np.arange(h + 2 * longest - 2) - (longest - 1) - lead, config.max_rel_dist)

    w = _filters(store[f"{prefix}.conv_w"].value, config)
    tok_distinct, tok_slot, tok_products = window_products(tok_emb, padded_ids, w[:, :, :e])
    pos_distinct, pos_slot, pos_products = window_products(store[f"{prefix}.pos_emb"].value, pos_rows, w[:, :, e:])
    offset_term = window_sum(pos_products, pos_slot, 0, 2 * longest - 1)
    conv_b = store[f"{prefix}.conv_b"].value

    # every center as a token-term row inside its segment's rows [lo, hi); row a is padded slot a + lead
    lo = np.repeat(pad_starts[:-1], counts)
    hi = lo + np.repeat(lengths, counts)
    centers = lo + cols
    # chunk i holds segments bounds[i] .. bounds[i+1]-1: padded slots slots[i] .. and centers firsts[i] ..
    bounds = _chunks(lengths.tolist(), m)
    slots = pad_starts[bounds].tolist()
    firsts = np.concatenate([[0], np.cumsum(counts)])[bounds].tolist()
    # the chunks write their pooled values straight into the features, and nothing is concatenated
    feature = np.empty((centers.shape[0], config.feature_dim))
    pooled = feature[:, : 2 * m]
    arg_rows = np.empty(pooled.shape, dtype=np.int64) if for_backward else None
    for start, end, r0, r1 in zip(slots, slots[1:], firsts, firsts[1:]):
        # the chunk's token term is rows start .. end-h of the whole one; it dies with the chunk
        token_term = window_sum(tok_products, tok_slot, start, end - start - h + 1, conv_b)
        rows = (centers[r0:r1] - start, lo[r0:r1] - start, hi[r0:r1] - start)
        if for_backward:
            pooled[r0:r1], arg = split_argmax(token_term, offset_term, *rows)
            arg_rows[r0:r1] = arg + start
        else:
            pooled[r0:r1] = split_max_pool(token_term, offset_term, *rows)
    lex_slots = centers[:, None] + np.arange(-config.lex_window, config.lex_window + 1)
    inside = (lex_slots >= lo[:, None]) & (lex_slots < hi[:, None])
    nearest = np.minimum(np.maximum(lex_slots, lo[:, None]), hi[:, None] - 1)  # np.clip's wrapper costs more here
    lex_ids = np.where(inside, padded_ids[nearest + lead], PAD_ID)
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
    offsets = offset_rows(cache.arg_rows, cache.centers, cache.pos_slot.shape[0] - config.window + 1)
    pos_emb, tok_emb = store[f"{prefix}.pos_emb"], store[f"{prefix}.tok_emb"]
    _window_backward(pos_emb, w[:, :, e:], grad[:, :, e:], cache.pos_distinct, cache.pos_slot, offsets, dpre)
    _window_backward(tok_emb, w[:, :, :e], grad[:, :, :e], cache.tok_distinct, cache.tok_slot, cache.arg_rows, dpre)


# ---------------------------------------------------------------------------
# Fusion: rows of (m, proj_dim) branch features, one row slice per head; fuse also takes single vectors
# ---------------------------------------------------------------------------


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


def _scope_rows(readers: tuple[str, ...], parts: dict[str, slice]) -> tuple[slice, dict[str, slice]]:
    """The rows a scope runs on, and each reader's rows among them: its one reader's rows, or every row."""
    if len(readers) == 1:
        return parts[readers[0]], {readers[0]: slice(None)}
    return slice(None), {head: parts[head] for head in readers}


def fuse(
    store: ParamStore, config: ExtractorConfig, fp: dict[str, np.ndarray], parts: dict[str, slice]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """(sigmoid gate rows by scope, each head's inputs by head) from the branch features fp, by prefix.

    Head h reads the rows parts[h], through the scope gate_readers names
    for it; each scope runs once over its rows (_scope_rows).
    """
    gates, features = {}, {}
    for scope, readers in gate_readers(config, parts).items():
        rows, within = _scope_rows(readers, parts)
        if scope is None:
            f = np.concatenate([x[rows] for x in fp.values()], axis=-1)
        else:
            gates[scope], f = _gate(store, scope, fp["char"][rows], fp["word"][rows])
        features.update((head, f[own]) for head, own in within.items())
    return gates, features


def fuse_backward(
    store: ParamStore,
    config: ExtractorConfig,
    fp: dict[str, np.ndarray],
    parts: dict[str, slice],
    gates: dict[str, np.ndarray],
    dfs: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Route each head's input gradient, dfs[h] over the rows of its part, back to the branch features, by prefix."""
    dfp = {prefix: np.zeros_like(x) for prefix, x in fp.items()}
    for scope, readers in gate_readers(config, parts).items():
        rows, within = _scope_rows(readers, parts)
        d = np.zeros(next(iter(fp.values()))[rows].shape[:-1] + (config.fused_dim,))
        for head, own in within.items():
            d[own] += dfs[head]
        if scope is None:
            grads = np.split(d, len(fp), axis=-1)
        else:
            grads = _gate_backward(store, scope, gates[scope], fp["char"][rows], fp["word"][rows], d)
        for x, g in zip(dfp.values(), grads):
            x[rows] += g
    return dfp


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
