"""In-memory span tracer patched in at the program's call sites.

The benchmark does not edit the program.  For a traced phase it replaces
module and class attributes such as ``nuggetnet.model.extract_branch`` with
wrappers that record one span per call, and puts the originals back when
the phase ends.  A call site that no longer exists (a refactor removed or
renamed it) marks its span as unmeasured instead of failing the run.

Spans stay in memory as ``(name, start, end, parent, key)`` tuples: ``parent``
indexes the enclosing span (-1 for a root) and ``key`` is the sentence key,
step index or model kind of the operation being run.  They are written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time

ROOT_LAYER = "bench"  # spans the benchmark opens around its own operations


def _positions_in_batch(args, kwargs, result):
    # loss_and_grads(self, batch, [second batch], ...): one position per instance
    batches = [a for a in args[1:3] if isinstance(a, (list, tuple))]
    return {"positions": sum(len(b) for b in batches)}


def _positions_in_sentence(args, kwargs, result):
    return {"positions": len(args[1].text)}


def _positions_in_words(args, kwargs, result):
    return {"positions": len(args[1].word_spans)}


def _checkpoint_bytes(args, kwargs, result):
    return {"ndcore.checkpoint_bytes": os.path.getsize(args[0])}


def _instance_count(args, kwargs, result):
    return {"corpus.instances": len(result[0]) + len(result[1])}


def _decode_stats(args, kwargs, result):
    predictions, stats = result
    return {
        "decoder.chars": sum(len(s.text) for s in args[1]),
        "decoder.proposed": stats.proposed,
        "decoder.out_of_bounds": stats.out_of_bounds,
        "decoder.merged": stats.merged,
        "decoder.kept": sum(len(p) for p in predictions.values()),
    }


# span name -> (call sites patched, counter hook run on each call's arguments and result)
HOOKS: dict[str, tuple[tuple[str, ...], object]] = {
    "encoder.extract": (("nuggetnet.model.extract_branch", "nuggetnet.baselines.extract_branch"), None),
    "encoder.branch_backward": (
        ("nuggetnet.model.branch_backward", "nuggetnet.baselines.branch_backward"),
        None,
    ),
    "encoder.fuse": (("nuggetnet.model.fuse",), None),
    "encoder.fuse_backward": (("nuggetnet.model.fuse_backward",), None),
    "model.init": (("nuggetnet.model.CharSpanModel.__init__",), None),
    "model.load_model": (("nuggetnet.model.load_model",), None),
    "model.training_streams": (("nuggetnet.model.CharSpanModel.training_streams",), None),
    "model.encode_sentence": (("nuggetnet.model.CharEncoderBase.encode_sentence",), None),
    "model.char_distributions": (("nuggetnet.model.CharSpanModel.char_distributions",), None),
    "model.loss_and_grads": (("nuggetnet.model.CharSpanModel.loss_and_grads",), _positions_in_batch),
    "heads.scores": (("nuggetnet.model.head_scores", "nuggetnet.baselines.head_scores"), None),
    "heads.backward": (("nuggetnet.model.head_backward", "nuggetnet.baselines.head_backward"), None),
    "ndcore.softmax": (("nuggetnet.model.softmax", "nuggetnet.baselines.softmax"), None),
    "ndcore.softmax_xent": (("nuggetnet.model.softmax_xent", "nuggetnet.baselines.softmax_xent"), None),
    "ndcore.adadelta": (("nuggetnet.train.adadelta_step", "nuggetnet.ndcore.adadelta_step"), None),
    "ndcore.save_checkpoint": (
        ("nuggetnet.model.save_checkpoint", "nuggetnet.baselines.save_checkpoint"),
        _checkpoint_bytes,
    ),
    "ndcore.load_checkpoint": (("nuggetnet.model.load_checkpoint",), _checkpoint_bytes),
    "decoder.decode_corpus": (("nuggetnet.decoder.decode_corpus",), _decode_stats),
    "decoder.decode_sentence": (("nuggetnet.decoder.decode_sentence",), _positions_in_sentence),
    "train.train": (("nuggetnet.train.train",), None),
    "train.dev_eval": (("nuggetnet.train.evaluate_model",), None),
    "evaluate.score": (("nuggetnet.train.score",), None),
    "corpus.load": (("nuggetnet.corpus.load_corpus",), None),
    "corpus.build_vocab": (("nuggetnet.corpus.build_vocab",), None),
    "corpus.make_instances": (("nuggetnet.corpus.make_instances",), _instance_count),
    "baselines.loss_and_grads": (
        (
            "nuggetnet.baselines.IOBModel.loss_and_grads",
            "nuggetnet.baselines.WordwiseModel.loss_and_grads",
        ),
        _positions_in_batch,
    ),
    "baselines.init": (("nuggetnet.baselines.IOBModel.__init__", "nuggetnet.baselines.WordwiseModel.__init__"), None),
    "baselines.training_streams": (
        (
            "nuggetnet.baselines.IOBModel.training_streams",
            "nuggetnet.baselines.WordwiseModel.training_streams",
        ),
        None,
    ),
    "baselines.iob_tag": (("nuggetnet.baselines.IOBModel.tag_sentence",), _positions_in_sentence),
    "baselines.wordwise_predict": (
        ("nuggetnet.baselines.WordwiseModel.predict_sentence",),
        _positions_in_words,
    ),
}


def resolve(target: str):
    """(owner, attribute name) for a dotted call site, or None if it is gone."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
        except AttributeError:
            return None
        return (owner, parts[-1]) if parts[-1] in vars(owner) else None
    return None


class Tracer:
    """Records spans while installed; counts what the counter hooks report."""

    def __init__(self, hooks=HOOKS):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.key = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sites = [
            (name, site, measure)
            for name, (targets, measure) in hooks.items()
            for site in map(resolve, targets)
            if site is not None
        ]
        self.unmeasured = set(hooks) - {name for name, _, _ in self._sites}

    def _wrap(self, name, fn, measure):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.key)
            if measure is not None:
                for counter, amount in measure(args, kwargs, result).items():
                    counters[counter] = counters.get(counter, 0) + amount
            return result

        return traced

    def install(self) -> None:
        for name, (owner, attr), measure in self._sites:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def root(self, name: str, key=None):
        """A benchmark-owned span around one operation; its self time is unattributed."""
        self.key = key
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (f"{ROOT_LAYER}.{name}", start, end, parent, key)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, key in self.spans:
                fh.write(json.dumps([name, start, end, parent, key]) + "\n")


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


def _union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_of(name: str) -> str | None:
    layer = name.split(".", 1)[0]
    return None if layer == ROOT_LAYER else layer


def account(spans) -> dict:
    """Self time per span name and per layer, traced wall time and unattributed time.

    A span's self time is its duration minus the part of it that its child
    spans cover.  The wall time is what the root spans cover; the
    unattributed time is the part of it that no layer span covers.  Both are
    computed independently, so ``sum(layer self) + unattributed == wall``
    is a check on the span tree, not an identity.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        covered = _union_length(((spans[c][1], spans[c][2]) for c in children[i]), start, end)
        own = (end - start) - covered
        entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += end - start
        entry["durations"].append(end - start)
        layer = layer_of(name)
        if layer is not None:
            by_layer[layer] = by_layer.get(layer, 0.0) + own

    def has_layer_ancestor(i: int) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if layer_of(spans[parent][0]) is not None:
                return True
            parent = spans[parent][3]
        return False

    wall = _union_length((s[1], s[2]) for s in spans if s[3] < 0)
    outermost = [
        (s[1], s[2]) for i, s in enumerate(spans) if layer_of(s[0]) is not None and not has_layer_ancestor(i)
    ]
    unattributed = wall - _union_length(outermost)
    return {"by_name": by_name, "by_layer": by_layer, "wall_s": wall, "unattributed_s": unattributed}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _self_ms(name):
    return (lambda a, c, x: a["by_name"].get(name, {}).get("self_s", 0.0) * 1e3), "ms", (name,)


def _total_ms(name):
    return (lambda a, c, x: a["by_name"].get(name, {}).get("total_s", 0.0) * 1e3), "ms", (name,)


def _calls(name):
    return (lambda a, c, x: a["by_name"].get(name, {}).get("calls", 0)), "count", (name,)


def _counter(counter, unit, span):
    return (lambda a, c, x: c.get(counter, 0)), unit, (span,)


def _ratio(num, den):
    return num / den if den else 0.0


def _extra(key, unit, spans=()):
    return (lambda a, c, x: x.get(key, 0)), unit, spans


def _p50_us(name):
    def value(a, c, x):
        durations = a["by_name"].get(name, {}).get("durations")
        return statistics.median(durations) * 1e6 if durations else 0.0

    return value, "us", (name,)


def _train_ms_of(kind):
    return (
        lambda a, c, x: sum(
            s[2] - s[1] for s in x["spans"] if s[0] == "train.train" and s[4] == kind
        ) * 1e3,
        "ms",
        ("train.train",),
    )


# metric name -> (value from (accounting, counters, extras), unit, spans it needs)
PER_LAYER = {
    "encoder.extract.calls": _calls("encoder.extract"),
    "encoder.extract.calls_per_char": (
        lambda a, c, x: _ratio(a["by_name"].get("encoder.extract", {}).get("calls", 0), c.get("positions", 0)),
        "ratio",
        ("encoder.extract",),
    ),
    "encoder.extract.self_ms": _self_ms("encoder.extract"),
    "encoder.extract.us_per_call_p50": _p50_us("encoder.extract"),
    "encoder.branch_backward.calls": _calls("encoder.branch_backward"),
    "encoder.branch_backward.self_ms": _self_ms("encoder.branch_backward"),
    "encoder.fuse.self_ms": _self_ms("encoder.fuse"),
    "encoder.fuse_backward.self_ms": _self_ms("encoder.fuse_backward"),
    "model.encode_sentence.self_ms": _self_ms("model.encode_sentence"),
    "model.char_distributions.self_ms": _self_ms("model.char_distributions"),
    "model.loss_and_grads.self_ms": _self_ms("model.loss_and_grads"),
    "heads.scores.self_ms": _self_ms("heads.scores"),
    "heads.backward.self_ms": _self_ms("heads.backward"),
    "ndcore.softmax.self_ms": _self_ms("ndcore.softmax"),
    "ndcore.softmax_xent.self_ms": _self_ms("ndcore.softmax_xent"),
    "ndcore.adadelta.self_ms": _self_ms("ndcore.adadelta"),
    "ndcore.save_checkpoint.ms": _total_ms("ndcore.save_checkpoint"),
    "ndcore.load_checkpoint.ms": _total_ms("ndcore.load_checkpoint"),
    "ndcore.checkpoint_bytes": (
        lambda a, c, x: c.get("ndcore.checkpoint_bytes", 0),
        "bytes",
        ("ndcore.save_checkpoint", "ndcore.load_checkpoint"),
    ),
    "decoder.decode_sentence.self_ms": _self_ms("decoder.decode_sentence"),
    "decoder.proposed": _counter("decoder.proposed", "count", "decoder.decode_corpus"),
    "decoder.out_of_bounds": _counter("decoder.out_of_bounds", "count", "decoder.decode_corpus"),
    "decoder.merged": _counter("decoder.merged", "count", "decoder.decode_corpus"),
    "decoder.kept_per_char": (
        lambda a, c, x: _ratio(c.get("decoder.kept", 0), c.get("decoder.chars", 0)),
        "ratio",
        ("decoder.decode_corpus",),
    ),
    "train.dev_eval.ms": _total_ms("train.dev_eval"),
    "train.dev_eval_share": (
        lambda a, c, x: _ratio(
            a["by_name"].get("train.dev_eval", {}).get("total_s", 0.0),
            a["by_name"].get("train.train", {}).get("total_s", 0.0),
        ),
        "ratio",
        ("train.dev_eval", "train.train"),
    ),
    "train.steps": _calls("ndcore.adadelta"),
    "train.epochs_to_f1": _extra("epochs_to_f1", "count", ("train.train",)),
    "evaluate.score.ms": _total_ms("evaluate.score"),
    "corpus.load_ms": _total_ms("corpus.load"),
    "corpus.make_instances_ms": _total_ms("corpus.make_instances"),
    "corpus.instances": _counter("corpus.instances", "count", "corpus.make_instances"),
    "baselines.iob.train_ms": _train_ms_of("iob"),
    "baselines.wordwise.train_ms": _train_ms_of("wordwise"),
    "fit.time_to_f1_s": _extra("time_to_f1_s", "s", ("train.train",)),
    "fit.protocol_s": _extra("protocol_s", "s", ("train.train",)),
    "trace.overhead_frac": _extra("overhead_frac", "ratio"),
    "trace.unattributed_frac": (lambda a, c, x: _ratio(a["unattributed_s"], a["wall_s"]), "ratio", ()),
}


def per_layer_metrics(tracer: Tracer, extras: dict) -> tuple[dict, dict]:
    """(metrics in the result format, accounting) for the spans recorded so far."""
    acc = account(tracer.spans)
    extras = dict(extras, spans=tracer.spans)
    out = {}
    for name, (value, unit, needs) in PER_LAYER.items():
        if any(n in tracer.unmeasured for n in needs):
            out[name] = {"value": None, "unit": unit, "unmeasured": True}
        else:
            out[name] = {"value": value(acc, tracer.counters, extras), "unit": unit}
    return out, acc
