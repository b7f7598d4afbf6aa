"""Minimal dense numeric core.

Everything is 64-bit floats: the models are small, and determinism plus
finite-difference fidelity matter more than speed.  There is no autodiff
graph; each layer has an explicit forward here and hand-derived backward
passes in the modules that compose them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CheckpointError, NumericError, ShapeError, reading


class Param:
    """One named tensor with its gradient accumulator and Adadelta state."""

    __slots__ = ("value", "grad", "eg2", "edx2")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)
        self.eg2 = np.zeros_like(value)  # running E[g^2]
        self.edx2 = np.zeros_like(value)  # running E[dx^2]


class ParamStore:
    """Named dense parameters with deterministic registration order.

    All randomness (initialization) flows from the store seed; registering
    the same tensors in the same order therefore reproduces values bit for
    bit.  A store has one logical writer during training; forward-only reads
    of a frozen store are freely shareable.
    """

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = rng_seed
        self._rng = np.random.default_rng([rng_seed, 0x70])
        self._params: dict[str, Param] = {}

    def add(self, name: str, shape: tuple[int, ...], init: str = "zeros") -> Param:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        if init == "zeros":
            value = np.zeros(shape, dtype=np.float64)
        elif init == "glorot":
            # shape convention (fan_out, fan_in) for matrices
            fan_out, fan_in = (shape[0], int(np.prod(shape[1:]))) if len(shape) > 1 else (1, shape[0])
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            value = self._rng.uniform(-limit, limit, size=shape)
        elif init == "embedding":
            value = self._rng.uniform(-0.01, 0.01, size=shape)
        else:
            raise ValueError(f"unknown init scheme {init!r}")
        param = Param(np.ascontiguousarray(value, dtype=np.float64))
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Param]]:
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self._params.values())


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------


def window_products(table: np.ndarray, ids, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The products a 1-d convolution over the rows table[ids] sums, each distinct id once.

    table:   (V, d) rows, such as an embedding table
    ids:     (n,) the sequence's rows of table
    weights: (m, h, d) filters, window h
    returns: (distinct, slot, products): the sorted distinct ids, the index
             slot[i] of ids[i] among them, and the (len(distinct), h, m)
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


def split_max_pool(token_term: np.ndarray, offset_term: np.ndarray, cols, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling split at each center, over maps with a relative-position term.

    token_term (rows, filters) holds one or more segments back to back;
    center i sits at row cols[i] of the segment spanning rows
    [lo[i], hi[i]).  Its map is token_term[j] + offset_term[j - cols[i] + N - 1]
    over the segment's rows j, offset_term being the (2N-1, filters) table
    of the offsets -(N-1) .. N-1 of the longest segment.  Per filter, the
    left pool covers lo <= j < cols[i] and the right pool cols[i] <= j < hi.
    An empty left pool (cols[i] == lo) pools to 0, the neutral value of
    tanh.  Only one center's map exists at a time.  Returns the pooled
    values (left, right), each (k, filters); split_argmax, with the same
    arguments, finds the rows they came from.
    """
    left = np.zeros((len(cols), token_term.shape[1]))
    right = np.empty_like(left)
    for i, a, c, pre in _center_maps(token_term, offset_term, cols, lo, hi):
        if c > a:
            pre[: c - a].max(axis=0, out=left[i])
        pre[c - a :].max(axis=0, out=right[i])
    return left, right


def split_argmax(token_term: np.ndarray, offset_term: np.ndarray, cols, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The token_term rows (left_arg, right_arg) of split_max_pool's pooled values, each (k, filters).

    Each pool keeps the first maximum; an empty left pool points at lo.
    The pooled values are token_term[arg] + offset_term[arg - cols[i] + N - 1]
    exactly, as max returns one of the elements it compares.
    """
    left_arg = np.empty((len(cols), token_term.shape[1]), dtype=np.int64)
    right_arg = np.empty_like(left_arg)
    for i, a, c, pre in _center_maps(token_term, offset_term, cols, lo, hi):
        left_arg[i] = a + pre[: c - a].argmax(axis=0) if c > a else a
        right_arg[i] = c + pre[c - a :].argmax(axis=0)
    return left_arg, right_arg


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
    Gradients are zeroed afterwards.  Each tensor is updated in place, one
    flat block at a time, through two block-sized buffers; every
    product is taken in the order written above, so the result does not
    depend on the block size.  The step is the negated update dx = -step:
    every product above is sign-symmetric and x - step is x + dx, so the
    result is bit for bit that of the update written with dx.
    """
    buffers = np.empty((2, _ADADELTA_BLOCK))
    for _, p in store.items():
        # ParamStore.add makes every tensor C-contiguous, so these are views
        value, grad, eg2, edx2 = (a.reshape(-1) for a in (p.value, p.grad, p.eg2, p.edx2))
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
# Version 2 adds a "crc32" entry to the metadata: the CRC-32 of the
# metadata JSON without that entry followed by everything after the
# metadata.  Version 1 files, which have none, still load.  Round-trips
# are bit-exact.

CHECKPOINT_MAGIC = b"NGCKPT01"
CHECKPOINT_VERSION = 2
_KINDS = ("value", "eg2", "edx2")
_CRC_KEY = "crc32"


def _meta_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _record_chunks(store: ParamStore, include_optimizer: bool) -> Iterable[bytes]:
    records = []
    for name, p in store.items():
        tensors = [("value", p.value)]
        if include_optimizer:
            tensors += [("eg2", p.eg2), ("edx2", p.edx2)]
        for kind, arr in tensors:
            records.append((name, kind, arr))
    yield struct.pack("<I", len(records))
    for name, kind, arr in records:
        name_b = name.encode("utf-8")
        yield struct.pack("<H", len(name_b)) + name_b
        yield struct.pack(f"<BB{arr.ndim}I", _KINDS.index(kind), arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f8").tobytes()


def write_atomically(path, chunks: Iterable[bytes]) -> None:
    """Replace the file at path with the chunks, so that a crash at any point leaves the old file or the new one.

    The chunks go to a temporary file beside it, which is flushed, synced
    to disk and then renamed over path; on an exception it is removed.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path, store: ParamStore, meta: dict | None = None, include_optimizer: bool = True) -> None:
    meta = dict(meta or {})
    if _CRC_KEY in meta:
        raise ValueError(f"checkpoint metadata key {_CRC_KEY!r} is reserved")
    crc = zlib.crc32(_meta_json(meta))
    for chunk in _record_chunks(store, include_optimizer):
        crc = zlib.crc32(chunk, crc)
    meta_bytes = _meta_json({**meta, _CRC_KEY: crc})
    header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)) + meta_bytes
    write_atomically(path, itertools.chain([header], _record_chunks(store, include_optimizer)))


def load_checkpoint(path) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """Returns (meta, {param_name: {kind: array}}); any malformed file raises CheckpointError."""
    with reading(path, CheckpointError, binary=True) as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    off = len(CHECKPOINT_MAGIC)
    view = memoryview(blob)  # slices of it share the file's bytes instead of copying them

    def take_bytes(size: int) -> memoryview:
        nonlocal off
        if off + size > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint")
        off += size
        return view[off - size : off]

    def take(fmt):
        return struct.unpack(fmt, take_bytes(struct.calcsize(fmt)))

    version, meta_len = take("<II")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(str(take_bytes(meta_len), "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    crc = meta.pop(_CRC_KEY, None)
    if version >= 2 and crc != zlib.crc32(view[off:], zlib.crc32(_meta_json(meta))):
        raise CheckpointError(f"{path}: checksum mismatch, the file is corrupt")
    (n_records,) = take("<I")
    tensors: dict[str, dict[str, np.ndarray]] = {}
    for _ in range(n_records):
        (name_len,) = take("<H")
        try:
            name = str(take_bytes(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: undecodable tensor name: {exc}") from exc
        kind_idx, ndim = take("<BB")
        if kind_idx >= len(_KINDS):
            raise CheckpointError(f"{path}: tensor {name!r} has unknown kind byte {kind_idx}")
        kind = _KINDS[kind_idx]
        shape = take(f"<{ndim}I")
        payload = take_bytes(8 * math.prod(shape))
        if kind in tensors.get(name, {}):
            raise CheckpointError(f"{path}: tensor {name!r} has two {kind} records")
        tensors.setdefault(name, {})[kind] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes after the last record")
    for name, rec in tensors.items():
        if "value" not in rec:
            raise CheckpointError(f"{path}: tensor {name!r} has no value record")
    return meta, tensors


def restore_store(store: ParamStore, tensors: dict[str, dict[str, np.ndarray]]) -> None:
    """Copy checkpoint tensors into an already-registered store, checking shapes."""
    for name, p in store.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        rec = tensors[name]
        if rec["value"].shape != p.value.shape:
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {rec['value'].shape} "
                f"!= model shape {p.value.shape}"
            )
        p.value[...] = rec["value"]
        if "eg2" in rec:
            p.eg2[...] = rec["eg2"]
        if "edx2" in rec:
            p.edx2[...] = rec["edx2"]
    extra = set(tensors) - set(store.names())
    if extra:
        raise CheckpointError(f"checkpoint contains unknown parameters: {sorted(extra)}")
