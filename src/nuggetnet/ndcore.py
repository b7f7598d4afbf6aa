"""Minimal dense numeric core.

Everything is 64-bit floats: the models are small, and determinism plus
finite-difference fidelity matter more than speed.  There is no autodiff
graph; each layer has an explicit forward here and hand-derived backward
passes in the modules that compose them.  A ParamStore is built whole
from its (name, shape, init) list, and its tensors are views of one flat
arena per kind; gradients and Adadelta state exist from first use, so a
model loaded for inference holds its values alone.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CheckpointError, NumericError, ShapeError, reading


_STATE = ("grad", "eg2", "edx2")
_INITS = ("zeros", "glorot", "embedding")
_KINDS = ("value", "eg2", "edx2")  # the kinds a checkpoint stores, in its kind-byte order

# one tensor of a ParamStore: (name, shape, init), init one of _INITS
Spec = tuple[str, tuple[int, ...], str]
# a checkpoint's tensors (load_checkpoint): their (name, shape) list in record order, and kind -> one flat
# array of that kind for every tensor, in that order
Tensors = tuple[list[tuple[str, tuple[int, ...]]], dict[str, np.ndarray]]


class _Arenas(dict):
    """Kind -> one flat array of that kind for every tensor of a store, in list order.

    "value" is there from the start; grad, eg2 and edx2 are allocated, as
    zeros, on their first lookup.
    """

    def __missing__(self, name: str) -> np.ndarray:
        if name not in _STATE:
            raise KeyError(f"no arena named {name!r}")
        self[name] = arena = np.zeros(self["value"].shape)
        return arena


def _state_view(name: str) -> property:
    slot = f"_{name}"

    def get(p):
        view = getattr(p, slot)
        if view is None:
            view = p._arenas[name][p._span].reshape(p.value.shape)
            setattr(p, slot, view)
        return view

    def put(p, arr):  # p.grad += x assigns the same array back; anything else is copied in
        view = get(p)
        if arr is not view:
            view[...] = arr

    return property(get, put)


class Param:
    """One named tensor of a ParamStore: its value, and its gradient and Adadelta state once used, as arena views."""

    __slots__ = ("value", "_grad", "_eg2", "_edx2", "_arenas", "_span")
    grad = _state_view("grad")
    eg2 = _state_view("eg2")  # running E[g^2]
    edx2 = _state_view("edx2")  # running E[dx^2]

    def __init__(self, arenas: _Arenas, span: slice, shape: tuple[int, ...]):
        self.value = arenas["value"][span].reshape(shape)
        self._grad = self._eg2 = self._edx2 = None
        self._arenas, self._span = arenas, span  # this tensor's elements in each arena


class ParamStore:
    """A model's named dense tensors, built whole from their (name, shape, init) list.

    The values are one flat arena in list order, and each Param's value is
    a view of its slice.  A fresh store draws every tensor in list order,
    then copies each draw into its slice; all randomness flows from the
    seed, so the same list reproduces the values bit for bit.  A store given
    a checkpoint's tensors (load_checkpoint) draws nothing: their (name,
    shape) list must be its own, entry for entry, and their flat arrays
    become its arenas.  The gradients and the Adadelta state get one arena
    each, for every tensor, on first use, so adadelta_step updates every
    tensor at once.  A store has one logical writer during training;
    forward-only reads of a frozen store are freely shareable.
    """

    def __init__(self, specs: Sequence[Spec], rng_seed: int = 0, tensors: Tensors | None = None):
        names = [name for name, _, _ in specs]
        twice = next((name for k, name in enumerate(names) if name in names[:k]), None)
        if twice is not None:
            raise ValueError(f"parameter {twice!r} listed twice")
        unknown = next((init for _, _, init in specs if init not in _INITS), None)
        if unknown is not None:
            raise ValueError(f"unknown init scheme {unknown!r}")
        listed = [(name, tuple(shape)) for name, shape, _ in specs]
        if tensors is not None and tensors[0] != listed:  # before any array of the specs' size is allocated
            k, pair = next((k, pair) for k, pair in enumerate(itertools.zip_longest(tensors[0], listed)) if pair[0] != pair[1])
            stored, model = ("end of list" if entry is None else f"{entry[0]!r} {entry[1]}" for entry in pair)
            raise CheckpointError(f"tensor list differs at entry {k}: checkpoint {stored}, model {model}")
        self.rng_seed = rng_seed
        self._rng: np.random.Generator | None = None  # made on the first draw, so a loaded store needs no numpy.random
        bounds = [0, *itertools.accumulate(math.prod(shape) for _, shape, _ in specs)]
        spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        if tensors is not None:
            self._arenas = _Arenas(tensors[1])
        else:
            # every tensor is drawn before any draw is freed: freeing each one as it was copied raised glibc's
            # mmap threshold part way, and the later draws then stayed on the heap (~0.9 MB at the default size)
            drawn = [(span, self._draw(shape, init)) for (_, shape, init), span in zip(specs, spans) if init != "zeros"]
            self._arenas = _Arenas(value=np.zeros(bounds[-1]))
            for span, values in drawn:
                self._arenas["value"][span] = values.reshape(-1)
        self._params = {name: Param(self._arenas, span, shape) for (name, shape, _), span in zip(specs, spans)}

    def _draw(self, shape: tuple[int, ...], init: str) -> np.ndarray:
        if self._rng is None:
            self._rng = np.random.default_rng([self.rng_seed, 0x70])
        if init == "embedding":
            return self._rng.uniform(-0.01, 0.01, size=shape)
        # glorot, shape convention (fan_out, fan_in) for matrices
        fan_out, fan_in = (shape[0], int(np.prod(shape[1:]))) if len(shape) > 1 else (1, shape[0])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self._rng.uniform(-limit, limit, size=shape)

    def arena(self, name: str) -> np.ndarray:
        """Every tensor's value, grad, eg2 or edx2 as one flat array in list order; a state's is made on first use."""
        return self._arenas[name]

    def held(self, name: str) -> np.ndarray | None:
        """arena(name) if it exists, without allocating it: None for a state no use has allocated yet."""
        return self._arenas.get(name)

    def __getitem__(self, name: str) -> Param:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Param]]:
        return self._params.items()

    def zero_grads(self) -> None:
        grad = self.held("grad")
        if grad is not None:
            grad[...] = 0.0

    def has_optimizer_state(self) -> bool:
        return self.held("eg2") is not None and self.held("edx2") is not None

    def n_parameters(self) -> int:
        return self._arenas["value"].size


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------


def window_products(table: np.ndarray, ids, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The products a 1-d convolution over the rows table[ids] sums, each distinct id once.

    table:   (V, d) rows, such as an embedding table
    ids:     (n,) the sequence's rows of table
    weights: (m, h, d) filters, window h
    returns: (distinct, slot, products): the sorted distinct ids, the index
             slot[i] of ids[i] among them, and the (distinct ids, h, m) products
             products[u, k, i] = weights[i, k] . table[distinct[u]]

    One matmul over the distinct rows serves every window slot, so a
    sequence that repeats its ids pays for each id once; window_sum adds
    the products up into the convolution's columns.
    """
    table = np.asarray(table, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if table.ndim != 2 or w.ndim != 3 or w.shape[2] != table.shape[1]:
        raise ShapeError(f"window_products expects a table (V,d) and weights (m,h,d); got {table.shape} and {w.shape}")
    m, h, d = w.shape
    distinct, slot = np.unique(np.asarray(ids, dtype=np.int64).reshape(-1), return_inverse=True)
    # the filters' columns stacked slot by slot: row k*m + i is filter i's columns for window slot k
    products = table[distinct] @ w.transpose(1, 0, 2).reshape(h * m, d).T
    return distinct, slot, products.reshape(-1, h, m)


def window_sum(
    products: np.ndarray, slot: np.ndarray, start: int, n_cols: int, bias: np.ndarray | None = None
) -> np.ndarray:
    """Columns start .. start+n_cols-1 of the valid convolution whose products window_products took.

    returns: (n_cols, m) map where
             map[j] = sum over k of products[slot[start+j+k], k], plus bias

    i.e. w_i . concat(x_{start+j} .. x_{start+j+h-1}) + b_i for the rows x
    of the sequence.  The window slots are added in order, then the bias.
    """
    _, h, m = products.shape
    if n_cols < 1 or start < 0 or start + n_cols + h - 1 > slot.shape[0]:
        raise ShapeError(f"columns {start} .. {start + n_cols - 1} need a window of {h} inside {slot.shape[0]} rows")
    if bias is not None and np.shape(bias) != (m,):
        raise ShapeError(f"bias shape {np.shape(bias)} does not match {m} filters")
    # row u*h + k of the flat table is products[u, k]: each slot reads whole contiguous rows
    flat = products.reshape(-1, m)
    out = np.take(flat, slot[start : start + n_cols] * h, axis=0)
    for k in range(1, h):
        out += np.take(flat, slot[start + k : start + k + n_cols] * h + k, axis=0)
    if bias is not None:
        out += bias
    return out


def _center_maps(token_term: np.ndarray, offset_term: np.ndarray, cols, lo, hi):
    """Check a split pooling call and yield (i, lo[i], cols[i], center i's map), center by center.

    The map is token_term[j] + offset_term[j - cols[i] + N - 1] over the
    segment's rows lo[i] <= j < hi[i], as a view of one reused buffer that
    the next center's map overwrites.
    """
    rows, m = token_term.shape
    if offset_term.shape[0] % 2 != 1 or offset_term.shape[1:] != (m,):
        raise ShapeError(f"offset term must be (2N-1, {m}), got {offset_term.shape}")
    n_max = (offset_term.shape[0] + 1) // 2
    cols, lo, hi = (np.asarray(a, dtype=np.int64) for a in (cols, lo, hi))
    if cols.ndim != 1 or lo.shape != cols.shape or hi.shape != cols.shape:
        raise ShapeError(f"cols, lo and hi must be 1-d and of one length, got {cols.shape}, {lo.shape}, {hi.shape}")
    if np.any((lo < 0) | (lo > cols) | (cols >= hi) | (hi > rows) | (hi - lo > n_max)):
        raise ShapeError(
            f"centers {cols.tolist()} must lie in segments [lo, hi) of at most {n_max} of the {rows} rows"
        )
    buf = np.empty((n_max, m))
    for i, (c, a, b) in enumerate(zip(cols.tolist(), lo.tolist(), hi.tolist())):
        yield i, a, c, np.add(token_term[a:b], offset_term[a - c + n_max - 1 : b - c + n_max - 1], out=buf[: b - a])


def offset_rows(rows: np.ndarray, cols: np.ndarray, n_offsets: int) -> np.ndarray:
    """Offset-term row beside token-term row rows[i, f] in center i's map, of n_offsets = 2N-1: rows[i, f] - cols[i] + N-1."""
    return rows - cols[:, None] + (n_offsets - 1) // 2


def split_max_pool(token_term: np.ndarray, offset_term: np.ndarray, cols, lo, hi) -> np.ndarray:
    """Max pooling split at each center, over maps with a relative-position term.

    token_term (rows, filters) holds one or more segments back to back;
    center i sits at row cols[i] of the segment spanning rows
    [lo[i], hi[i]).  Its map is token_term[j] + offset_term[j - cols[i] + N - 1]
    over the segment's rows j, offset_term being the (2N-1, filters) table
    of the offsets -(N-1) .. N-1 of the longest segment.  Per filter, the
    left pool covers lo <= j < cols[i] and the right pool cols[i] <= j < hi.
    An empty left pool (cols[i] == lo) pools to 0, the neutral value of
    tanh.  Only one center's map exists at a time.  Returns the pooled
    values as one (k, 2 * filters) array, the left pools then the right;
    split_argmax, with the same arguments, returns the same values and the
    rows they came from.
    """
    m = token_term.shape[1]
    pooled = np.zeros((len(cols), 2 * m))
    for i, a, c, pre in _center_maps(token_term, offset_term, cols, lo, hi):
        if c > a:
            pre[: c - a].max(axis=0, out=pooled[i, :m])
        pre[c - a :].max(axis=0, out=pooled[i, m:])
    return pooled


def split_argmax(token_term: np.ndarray, offset_term: np.ndarray, cols, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """split_max_pool's pooled values and the token_term row each came from, both (k, 2 * filters).

    Each pool keeps the first maximum; an empty left pool points at lo.
    The loop writes each pool's offset into its row, and lo and cols are
    added once after it.  The values are then read back at those rows,
    token_term[row] + offset_term[offset_rows(...)], which equals
    split_max_pool's bit for bit, as max returns one of the elements it
    compares; an empty left pool is 0.
    """
    m = token_term.shape[1]
    rows = np.zeros((len(cols), 2 * m), dtype=np.int64)
    for i, a, c, pre in _center_maps(token_term, offset_term, cols, lo, hi):
        if c > a:
            pre[: c - a].argmax(axis=0, out=rows[i, :m])
        pre[c - a :].argmax(axis=0, out=rows[i, m:])
    cols, lo = np.asarray(cols, dtype=np.int64), np.asarray(lo, dtype=np.int64)
    rows[:, :m] += lo[:, None]
    rows[:, m:] += cols[:, None]
    filters = np.tile(np.arange(m), 2)
    pooled = token_term[rows, filters] + offset_term[offset_rows(rows, cols, offset_term.shape[0]), filters]
    pooled[cols == lo, :m] = 0.0
    return pooled, rows


def scatter_rows(table: np.ndarray, ids, rows: np.ndarray) -> None:
    """table[ids[i]] += rows[i] for every i, repeated ids adding up: np.add.at(table, ids, rows) for a 2-d table.

    rows holds one table row per id, in the order of the ids flattened,
    so ids of shape (k, n) may come with rows of shape (k, n * width).

    One np.unique finds the distinct ids and one np.bincount sums each
    one's rows in order of appearance, so each distinct row of the table
    is added to once.  On a table of zeros the result equals np.add.at's
    bit for bit; otherwise each row's sum is added in one step instead of
    one row at a time, which can differ in the last bits.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    width = table.shape[1]
    distinct, slot = np.unique(ids, return_inverse=True)
    bins = (slot[:, None] * width + np.arange(width)).reshape(-1)
    table[distinct] += np.bincount(bins, rows.reshape(-1), distinct.shape[0] * width).reshape(-1, width)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), d = 1 + e and the exact 0/1 mask m = (x >= 0), it
    is m/d + (1-m) * e/d: both terms are always finite, so a zero factor
    selects the other term bit for bit, without a select pass.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) for x >= 0, exp(x) below: never overflows
    d = 1.0 + e
    m = (x >= 0).astype(np.float64)
    out = m / d
    e /= d
    e *= 1.0 - m
    out += e
    return out


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis: one score vector or (m, classes) rows."""
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NumericError("softmax received non-finite scores")
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(scores: np.ndarray, gold: int | Sequence[int]) -> tuple[np.ndarray, float, np.ndarray]:
    """Softmax probabilities, cross-entropy loss -log P[gold], and dL/dscores.

    Takes one score vector with an int gold, or (m, classes) rows with m
    gold indices; the loss is then summed over the rows.  It is computed in
    log-sum-exp form so it stays exact when the gold probability
    underflows; the gradient is P - onehot(gold).
    """
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(gold, dtype=np.int64)
    if s.ndim not in (1, 2) or g.shape != s.shape[:-1]:
        raise ShapeError(f"scores must be (classes,) or (m, classes) with one gold each, got {s.shape} and {g.shape}")
    if np.any((g < 0) | (g >= s.shape[-1])):
        raise ShapeError(f"gold index {g.tolist()} out of range [0, {s.shape[-1]})")
    if not np.all(np.isfinite(s)):
        raise NumericError("softmax_xent received non-finite scores")
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    z = e.sum(axis=-1, keepdims=True)
    probs = e / z
    gold_scores = np.take_along_axis(s, g[..., None], axis=-1)
    loss = float(np.sum(np.log(z) + m - gold_scores))
    grad = probs.copy()
    np.put_along_axis(grad, g[..., None], np.take_along_axis(probs, g[..., None], axis=-1) - 1.0, axis=-1)
    return probs, loss, grad


# ---------------------------------------------------------------------------
# Adadelta
# ---------------------------------------------------------------------------

ADADELTA_RHO = 0.95
ADADELTA_EPS = 1e-6
_ADADELTA_BLOCK = 1 << 14  # elements per block: the block and its buffers stay in cache


def adadelta_step(store: ParamStore, rho: float = ADADELTA_RHO, eps: float = ADADELTA_EPS) -> None:
    """One Adadelta update over all parameters, consuming accumulated gradients.

    Per element:  E[g^2] <- rho E[g^2] + (1-rho) g^2
                  step   <- sqrt(E[dx^2]+eps) / sqrt(E[g^2]+eps) * g
                  E[dx^2]<- rho E[dx^2] + (1-rho) step^2
                  x      <- x - step
    Gradients are zeroed afterwards.  The update runs over the store's
    arenas (ParamStore.arena), every tensor at once, one flat block at a time, through two block-sized
    buffers; every product is taken in the order written above, so the
    result does not depend on the block size or on where one tensor ends
    and the next begins.  The step is the negated update dx = -step:
    every product above is sign-symmetric and x - step is x + dx, so the
    result is bit for bit that of the update written with dx.
    """
    value, grad, eg2, edx2 = (store.arena(name) for name in ("value", *_STATE))
    buffers = np.empty((2, _ADADELTA_BLOCK))
    for lo in range(0, value.shape[0], _ADADELTA_BLOCK):
        hi = min(lo + _ADADELTA_BLOCK, value.shape[0])
        g, e, d = grad[lo:hi], eg2[lo:hi], edx2[lo:hi]
        step, t = buffers[:, : hi - lo]
        e *= rho
        np.multiply(1.0 - rho, g, out=t)
        t *= g
        e += t
        np.add(d, eps, out=step)
        np.sqrt(step, out=step)
        np.add(e, eps, out=t)
        np.sqrt(t, out=t)
        step /= t
        step *= g
        d *= rho
        np.multiply(1.0 - rho, step, out=t)
        t *= step
        d += t
        value[lo:hi] -= step
        g[...] = 0.0


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    n_checked: int
    max_rel_err: float
    worst_coord: int
    passed: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            lines.append(
                f"{status} {e.name}: max rel err {e.max_rel_err:.3e} "
                f"over {e.n_checked} coords (worst flat index {e.worst_coord})"
            )
        return "\n".join(lines)


def grad_check(
    closure: Callable[[], float],
    store: ParamStore,
    step: float = 1e-4,
    tolerance: float = 1e-4,
    coords_per_param: int = 4,
    rng_seed: int = 0,
) -> GradCheckReport:
    """Compare accumulated analytic gradients against central finite differences.

    `closure` must deterministically recompute the loss from the current
    store values and accumulate gradients into it.  For each parameter a
    random subset of coordinates is perturbed by +-step and the relative
    error |g_analytic - g_fd| / max(|g_a|, |g_fd|, 1e-8) reported.
    """
    rng = np.random.default_rng(rng_seed)
    store.zero_grads()
    closure()
    analytic = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grads()

    entries = []
    for name, p in store.items():
        size = p.value.size
        k = min(coords_per_param, size)
        coords = rng.choice(size, size=k, replace=False) if size > k else np.arange(size)
        worst = 0.0
        worst_coord = -1
        flat = p.value.reshape(-1)
        for idx in coords:
            idx = int(idx)
            orig = flat[idx]
            flat[idx] = orig + step
            loss_plus = closure()
            flat[idx] = orig - step
            loss_minus = closure()
            flat[idx] = orig
            g_fd = (loss_plus - loss_minus) / (2.0 * step)
            g_an = analytic[name].reshape(-1)[idx]
            rel = abs(g_an - g_fd) / max(abs(g_an), abs(g_fd), 1e-8)
            if rel > worst:
                worst = rel
                worst_coord = idx
        entries.append(GradCheckEntry(name, len(coords), worst, worst_coord, worst <= tolerance))
    store.zero_grads()
    return GradCheckReport(entries, tolerance)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Layout (all integers little-endian):
#   magic "NGCKPT01" | u32 version | u32 meta_len | meta JSON (utf-8)
#   u32 n_records | records
# Record:
#   u16 name_len | name utf-8 | u8 kind (0 value, 1 E[g^2], 2 E[dx^2])
#   | u8 ndim | u32 dims... | float64 LE payload
# The records are three per tensor, in store order: record 3i+k has kind
# k, and the same name and shape as record 3i.  The metadata holds a
# "crc32" entry: the CRC-32 of the metadata JSON without that entry
# followed by everything after the metadata.  Round-trips are bit-exact.
#
# load_checkpoint streams the file in two passes and never holds it whole.
# The first reads everything after the metadata through one buffer to check
# the CRC; the second walks the record headers, seeking past each payload,
# and then reads each value payload (and, to resume, each state payload)
# straight into its slice of one flat array per kind.

CHECKPOINT_MAGIC = b"NGCKPT01"
CHECKPOINT_VERSION = 2
_CRC_KEY = "crc32"
# Bytes per read of the CRC pass.  Freeing this buffer raises glibc's
# dynamic mmap threshold to its size, which keeps decode's per-sentence
# temporaries (up to ~2.7 MB at the default size) on the heap: at 1 MiB
# each decoded sentence took ~700 minor page faults in fresh mmaps.
_READ_BUFFER = 1 << 22


def _meta_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _record_chunks(store: ParamStore) -> Iterable[bytes]:
    yield struct.pack("<I", len(_KINDS) * len(store.names()))
    for name, p in store.items():
        name_b = name.encode("utf-8")
        for kind_idx, kind in enumerate(_KINDS):
            yield struct.pack("<H", len(name_b)) + name_b
            yield struct.pack(f"<BB{p.value.ndim}I", kind_idx, p.value.ndim, *p.value.shape)
            if store.held(kind) is None:  # state never allocated is zeros
                yield bytes(p.value.nbytes)
            else:
                yield np.ascontiguousarray(getattr(p, kind), dtype="<f8").tobytes()


def write_atomically(path, chunks: Iterable[bytes]) -> None:
    """Replace the file at path with the chunks, so that a crash at any point leaves the old file or the new one.

    The chunks go to a temporary file beside it, which is flushed, synced
    to disk and then renamed over path; on an exception it is removed.
    The directory is synced after the rename, so the new name is on disk
    before the caller writes anything that relies on it.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path, store: ParamStore, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    if _CRC_KEY in meta:
        raise ValueError(f"checkpoint metadata key {_CRC_KEY!r} is reserved")
    crc = zlib.crc32(_meta_json(meta))
    for chunk in _record_chunks(store):
        crc = zlib.crc32(chunk, crc)
    meta_bytes = _meta_json({**meta, _CRC_KEY: crc})
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)) + meta_bytes
    write_atomically(path, itertools.chain([header], _record_chunks(store)))


def _crc_to_end(fh, crc: int, rest: int) -> int:
    """crc continued over the file's last `rest` bytes, read through one buffer of at most _READ_BUFFER bytes."""
    view = memoryview(bytearray(min(rest, _READ_BUFFER)))
    while got := fh.readinto(view):
        crc = zlib.crc32(view[:got], crc)
    return crc


def load_checkpoint(path, optimizer_state: bool = False) -> tuple[dict, Tensors]:
    """Returns (meta, tensors), tensors as ParamStore takes them; any malformed file raises CheckpointError.

    Every record is checked, but only optimizer_state=True (to resume)
    reads the eg2 and edx2 records.
    """
    with reading(path, CheckpointError, binary=True) as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        off = len(CHECKPOINT_MAGIC)

        def skip(n: int) -> int:
            """Move past the next n bytes of the file; returns where they start."""
            nonlocal off
            if off + n > size:
                raise CheckpointError(f"{path}: truncated checkpoint")
            off += n
            return off - n

        def take_bytes(n: int) -> bytes:
            skip(n)
            return fh.read(n)

        def take(fmt):
            return struct.unpack(fmt, take_bytes(struct.calcsize(fmt)))

        version, meta_len = take("<II")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        try:
            meta = json.loads(str(take_bytes(meta_len), "utf-8"))
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: metadata is not a JSON object")
        crc = meta.pop(_CRC_KEY, None)
        if crc != _crc_to_end(fh, zlib.crc32(_meta_json(meta)), size - off):
            raise CheckpointError(f"{path}: checksum mismatch, the file is corrupt")
        fh.seek(off)
        (n_records,) = take("<I")
        listing: list[tuple[str, tuple[int, ...]]] = []
        payloads = {kind: [] for kind in (_KINDS if optimizer_state else ("value",))}  # kind -> offsets
        for i in range(n_records):
            (name_len,) = take("<H")
            try:
                name = str(take_bytes(name_len), "utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: undecodable tensor name: {exc}") from exc
            kind_idx, ndim = take("<BB")
            k = i % len(_KINDS)  # the kind byte record i must have
            if kind_idx != k:
                want = f"the {_KINDS[k]} record of {listing[-1][0]!r}" if k else "a value record"
                raise CheckpointError(f"{path}: record {i} ({name!r}) has kind byte {kind_idx} where {want} belongs")
            shape = take(f"<{ndim}I")
            at = skip(8 * math.prod(shape))
            fh.seek(off)
            if k == 0:
                listing.append((name, shape))
            elif (name, shape) != listing[-1]:
                value = f"{listing[-1][0]!r} {listing[-1][1]}"
                raise CheckpointError(f"{path}: record {i} holds {_KINDS[k]} of {name!r} {shape}, after the value of {value}")
            if _KINDS[k] in payloads:
                payloads[_KINDS[k]].append(at)
        if n_records % len(_KINDS):
            raise CheckpointError(f"{path}: tensor {listing[-1][0]!r} lacks its {_KINDS[n_records % len(_KINDS)]} record")
        if off != size:
            raise CheckpointError(f"{path}: {size - off} trailing bytes after the last record")
        arrays = {}
        for kind, offsets in payloads.items():
            arrays[kind] = flat = np.empty(sum(math.prod(shape) for _, shape in listing))
            lo = 0
            for (_, shape), at in zip(listing, offsets):
                part = flat[lo : lo + math.prod(shape)]
                lo += part.size
                fh.seek(at)
                if fh.readinto(part) != part.nbytes:
                    raise CheckpointError(f"{path}: truncated checkpoint")
            if sys.byteorder == "big":  # the payloads are little-endian
                flat.byteswap(inplace=True)
    return meta, (listing, arrays)
