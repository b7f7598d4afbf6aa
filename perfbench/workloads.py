"""The four workloads: what each runs, how it is timed and how it is checked.

Every workload is single-process and closed-loop: the next training step
or sentence starts when the previous one returns.  Each phase of a run is
kept apart:

* ``load``     program set-up (corpus, vocabulary, model), timed into ``setup_s``;
* ``prepare``  the benchmark's hooks on the loaded program, untimed;
* ``warm_up``  one operation excluded from the samples, timed into ``setup_s``;
* ``measure``  the timed operations, each checked after it returns;
* ``verify``   checks against the reference forward, run after the peak RSS is
  read so that the reference's tensors never count in it.

The program is only called through module attributes (``ncorpus.load_corpus``,
``ndecoder.decode_corpus``, ...) so the tracer's patches apply to the
benchmark's own calls as well.
"""

from __future__ import annotations

import gc
import itertools
import math
import shutil
import statistics
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from nuggetnet.baselines import IOBModel, WordwiseModel
from nuggetnet.corpus import MatchType
from nuggetnet.encoder import ExtractorConfig
from nuggetnet.evaluate import ScoreMode, recall_by_match_type
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus

from checks import PROB_TOL, ReferenceForward, brute_decode, max_prob_gap, read_meta
from spans import Tracer

# import_module, because the package re-exports train() under the name of its module
ncorpus = import_module("nuggetnet.corpus")
ndecoder = import_module("nuggetnet.decoder")
nmodel = import_module("nuggetnet.model")
ndcore = import_module("nuggetnet.ndcore")
ntrain = import_module("nuggetnet.train")

# every workload reports each of these; what an "item" and an "op" are depends on the workload
E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p90": "ms", "peak_rss_mb": "MB"}
MEASURE_CAP_S = 120.0  # a run stops measuring here even if it has fewer samples than it wants
LOSS_TOL = 1e-9  # max abs difference between the first step's loss and the reference cross-entropy
NUDGE = 1e-6  # what --perturb adds to every element of the named tensor

_DEFAULT = dict(hybrid_mode="task_specific")  # 100/5/200/3/1/200, max_rel_dist 40
_SMALL = dict(
    token_emb_dim=24, pos_emb_dim=4, n_filters=32, window=3, lex_window=1, proj_dim=48,
    max_rel_dist=12, hybrid_mode="task_specific",
)
_TINY = dict(
    token_emb_dim=8, pos_emb_dim=2, n_filters=8, window=3, lex_window=1, proj_dim=8,
    max_rel_dist=8, hybrid_mode="task_specific",
)
_CORPUS = dict(proportions=(0.6, 0.3, 0.1))  # with 4 subtypes; 1-3 context words a side
_LONG = dict(_CORPUS, min_context_words=24, max_context_words=30)

# min_ops: samples needed so that p90 has ten beyond it.
SPECS = {
    "full": {
        "train-default": dict(corpus=dict(_CORPUS, n_sentences=1000), extractor=_DEFAULT,
                              max_tokens=120, batch=32, min_ops=100),
        "decode-long": dict(corpus=dict(_LONG, n_sentences=150), extractor=_DEFAULT,
                            max_tokens=120, min_ops=100, ref_sample=2),
        "fit-small": dict(corpus=dict(_CORPUS, n_sentences=650), n_train=400, extractor=_SMALL,
                          max_tokens=60, epochs=15, target_f1=0.95, min_ops=100, ref_sample=3),
    },
    "tiny": {
        "train-default": dict(corpus=dict(_CORPUS, n_sentences=40), extractor=_TINY,
                              max_tokens=120, batch=4, min_ops=3),
        "decode-long": dict(corpus=dict(_LONG, n_sentences=4), extractor=_TINY,
                            max_tokens=120, min_ops=3, ref_sample=1),
        "fit-small": dict(corpus=dict(_CORPUS, n_sentences=250), n_train=180, extractor=_SMALL,
                          max_tokens=60, epochs=15, target_f1=0.95, min_ops=3, ref_sample=1),
    },
}
FIT_TRAIN = dict(batch_size=32, neg_ratio=5.0, patience=200, rng_seed=5, eval_every=1)
FIT_MODEL_SEED = 1


def gen_spec(spec: dict) -> GenSpec:
    corpus = dict(spec["corpus"])
    return GenSpec(subtypes=default_subtype_names(4), **corpus)


def model_config(spec: dict, **overrides) -> nmodel.ModelConfig:
    extractor = ExtractorConfig(**dict(spec["extractor"], **overrides))
    return nmodel.ModelConfig(extractor=extractor, max_tokens=spec["max_tokens"])


# ---------------------------------------------------------------------------
# Fixtures: generated once per (workload, size, seed), then only read
# ---------------------------------------------------------------------------


def write_fixtures(workload: str, spec: dict, seed: int, out: Path) -> None:
    sentences = generate_synthetic_corpus(gen_spec(spec), rng_seed=seed)
    if workload == "fit-small":
        ncorpus.save_corpus(out / "train.jsonl", sentences[: spec["n_train"]])
        ncorpus.save_corpus(out / "dev.jsonl", sentences[spec["n_train"] :])
    elif workload == "train-default":
        ncorpus.save_corpus(out / "train.jsonl", sentences)
    else:
        ncorpus.save_corpus(out / "corpus.jsonl", sentences)
        config = model_config(spec)
        vocab = ncorpus.build_vocab(sentences, max_rel_dist=config.extractor.max_rel_dist)
        subtypes = ncorpus.SubtypeInventory.from_corpus(sentences)
        nmodel.CharSpanModel(config, vocab, subtypes, rng_seed=seed).save(out / "model.ckpt")


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


class Gate:
    """Counts operations and checks; a single failure makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def keep_measuring(start: float, n_ops: int, seconds: float, min_ops: int) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed < MEASURE_CAP_S and (elapsed < seconds or n_ops < min_ops)


def timing_metrics(durations: list[float], items: int) -> dict:
    busy = sum(durations)
    return {
        "items_per_s": items / busy,
        "op_ms_p50": statistics.median(durations) * 1e3,  # printed, not gated: see README
        "op_ms_p90": float(np.percentile(durations, 90)) * 1e3,
        "n_ops": len(durations),
    }


def run_op(tracer: Tracer | None, root: str, key, fn, *args):
    """(seconds, result) of fn(*args); when tracing, inside a root span with the hooks installed."""
    if tracer is None:
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.root(root, key=key):
            result = fn(*args)
        return time.perf_counter() - t0, result


def alternating(i: int) -> tuple[int, int]:
    """Untraced (0) and traced (1) sides of pair i, taking turns at going first."""
    return (0, 1) if i % 2 == 0 else (1, 0)


def perturb(model, tensor: str | None) -> None:
    """Nudge every element of one tensor of the in-memory model by +-1e-6, for the gate's own test.

    The signs are random: a uniform shift of a softmax head's weights would
    leave its probabilities unchanged.
    """
    if tensor:
        value = model.store[tensor].value
        value += NUDGE * np.random.default_rng(0).choice((-1.0, 1.0), size=value.shape)


class Workload:
    def __init__(self, spec: dict, fixtures: Path, work: Path, seed: int, perturb: str | None):
        self.spec = spec
        self.fx = fixtures
        self.work = work
        self.seed = seed
        self.perturb = perturb
        self.gate = Gate()
        self.extras: dict = {}

    def load(self):
        raise NotImplementedError

    def prepare(self, state) -> None:
        pass

    def warm_up(self, state) -> None:
        raise NotImplementedError

    def measure(self, state, seconds: float) -> dict:
        """Timed closed loop; returns timing_metrics plus workload details."""
        raise NotImplementedError

    def traced(self, state, seconds: float, tracer: Tracer) -> None:
        """A fixed amount of work, each op once untraced and once traced, taking turns.

        Interleaving puts both sides under the same host load, so
        extras['overhead_frac'] compares like with like.
        """
        raise NotImplementedError

    def verify(self, state) -> None:
        """The reference checks deferred from measure() or traced()."""
        raise NotImplementedError


def traced_ops(seconds: float) -> int:
    """The fixed amount of work of a traced run, so that its counts repeat for a seed."""
    return max(3, int(seconds))


# ---------------------------------------------------------------------------
# train-default
# ---------------------------------------------------------------------------


class TrainDefault(Workload):
    """loss_and_grads + adadelta_step at the default extractor size, batches of 32 + 32."""

    def _model(self, sentences):
        config = model_config(self.spec)
        vocab = ncorpus.build_vocab(sentences, max_rel_dist=config.extractor.max_rel_dist)
        subtypes = ncorpus.SubtypeInventory.from_corpus(sentences)
        return nmodel.CharSpanModel(config, vocab, subtypes, rng_seed=self.seed)

    def load(self):
        sentences = ncorpus.load_corpus(self.fx / "train.jsonl")
        model = self._model(sentences)
        gen, cls = model.training_streams(sentences, neg_ratio=5.0, rng_seed=self.seed)
        return {"sentences": sentences, "model": model, "batches": self._batches(gen, cls)}

    def _batches(self, gen, cls):
        rng = np.random.default_rng([self.seed, 11])
        size = self.spec["batch"]
        while True:
            yield (
                [gen[int(i)] for i in rng.choice(len(gen), size, replace=False)],
                [cls[int(i)] for i in rng.choice(len(cls), min(size, len(cls)), replace=False)],
            )

    @staticmethod
    def step(model, batch) -> float:
        loss = model.loss_and_grads(batch[0], batch[1])
        ndcore.adadelta_step(model.store)
        return loss

    def prepare(self, state) -> None:
        state["first"] = next(state["batches"])
        perturb(state["model"], self.perturb)

    def warm_up(self, state) -> None:
        state["first_loss"] = self.step(state["model"], state["first"])

    def verify(self, state) -> None:
        """The first step's loss against the reference cross-entropy of the same seeded initial weights."""
        ckpt = self.work / "train-init.ckpt"
        self._model(state["sentences"]).save(ckpt)
        ref = ReferenceForward(ckpt)
        first = state["first"]
        expected = ref.loss(first[0], False) + ref.loss(first[1], True)
        loss = state["first_loss"]
        ok = math.isfinite(loss) and abs(loss - expected) <= LOSS_TOL
        self.gate.record(ok, f"first step loss {loss!r} != reference cross-entropy {expected!r}")

    def measure(self, state, seconds: float) -> dict:
        model, batches = state["model"], state["batches"]
        durations = []
        items = 0
        start = time.perf_counter()
        while keep_measuring(start, len(durations), seconds, self.spec["min_ops"]):
            batch = next(batches)
            t0 = time.perf_counter()
            loss = self.step(model, batch)
            durations.append(time.perf_counter() - t0)
            items += len(batch[0]) + len(batch[1])
            self.gate.record(math.isfinite(loss), f"step {len(durations)}: non-finite loss {loss!r}")
        return timing_metrics(durations, items)

    def traced(self, state, seconds: float, tracer: Tracer) -> None:
        batches = [next(state["batches"]) for _ in range(traced_ops(seconds))]
        twin = self._model(state["sentences"])  # same starting weights, stepped on the same batches, traced
        perturb(twin, self.perturb)
        self.step(twin, state["first"])
        models, tracers, busy = (state["model"], twin), (None, tracer), [0.0, 0.0]
        for i, batch in enumerate(batches):
            for side in alternating(i):
                seconds_taken, loss = run_op(tracers[side], "step", i, self.step, models[side], batch)
                busy[side] += seconds_taken
                self.gate.record(math.isfinite(loss), f"step {i}: non-finite loss {loss!r}")
        self.extras["overhead_frac"] = busy[1] / busy[0] - 1.0


# ---------------------------------------------------------------------------
# decode-long
# ---------------------------------------------------------------------------


class Decode(Workload):
    """decode_corpus one sentence at a time on a seeded-init default-size checkpoint."""

    def load(self):
        sentences = ncorpus.load_corpus(self.fx / "corpus.jsonl")
        model, _ = nmodel.load_model(self.fx / "model.ckpt")
        return {"sentences": sentences, "model": model}

    def prepare(self, state) -> None:
        model = state["model"]
        meta = read_meta(self.fx / "model.ckpt")
        state["labels"] = (meta["config"]["max_nugget_len"], list(meta["subtypes"]))
        perturb(model, self.perturb)
        rows: dict = {}
        state["rows"] = rows
        state["ref_rows"] = []  # (sentence, its rows) of the first ref_sample sentences checked

        def capture(enc, ci):
            # records what the decoder saw; looked up on the class so tracer patches apply
            out = type(model).char_distributions(model, enc, ci)
            rows[ci] = out
            return out

        model.char_distributions = capture

    def decode(self, state, sentence):
        state["rows"].clear()
        return ndecoder.decode_corpus(state["model"], [sentence])

    def check(self, state, sentence, result) -> None:
        predictions, stats = result
        model, rows = state["model"], state["rows"]
        n = len(sentence.text)
        missing = [ci for ci in range(n) if ci not in rows]
        if missing:
            enc = model.encode_sentence(sentence)
            for ci in missing:
                rows[ci] = model.char_distributions(enc, ci)
        expected, counts = brute_decode(rows, n, *state["labels"])
        got = [(p.start, p.length, p.subtype, p.score) for p in predictions.get(sentence.key, [])]
        ok = got == expected and counts == (stats.proposed, stats.out_of_bounds, stats.merged)
        self.gate.record(ok, f"sentence {sentence.key}: decoded {got} / {stats}, brute force {expected} / {counts}")
        if ok and len(state["ref_rows"]) < self.spec["ref_sample"]:
            state["ref_rows"].append((sentence, [tuple(np.array(a) for a in rows[ci]) for ci in range(n)]))
        self.extras["proposed"] = self.extras.get("proposed", 0) + stats.proposed

    def verify(self, state) -> None:
        ref = ReferenceForward(self.fx / "model.ckpt")
        for sentence, rows in state["ref_rows"]:
            gap = max(max_prob_gap(ref.distributions(sentence, ci), row) for ci, row in enumerate(rows))
            ok = gap <= PROB_TOL
            self.gate.record(ok, f"sentence {sentence.key}: distributions differ from the reference by {gap:.3e}")
        proposed = self.extras.get("proposed", 0)
        self.gate.record(proposed > 0, "no sentence proposed any nugget: the decode check is vacuous")

    def warm_up(self, state) -> None:
        sentence = state["sentences"][0]
        state["warm"] = (sentence, self.decode(state, sentence))

    @staticmethod
    def _timed_sentences(state):
        """The corpus from its second sentence on (the first is the warm-up), cycled."""
        return itertools.islice(itertools.cycle(state["sentences"]), 1, None)

    def measure(self, state, seconds: float) -> dict:
        self.check(state, *state["warm"])
        durations = []
        chars = 0
        source = self._timed_sentences(state)
        start = time.perf_counter()
        while keep_measuring(start, len(durations), seconds, self.spec["min_ops"]):
            sentence = next(source)
            t0 = time.perf_counter()
            result = self.decode(state, sentence)
            durations.append(time.perf_counter() - t0)
            chars += len(sentence.text)
            self.check(state, sentence, result)
        return dict(timing_metrics(durations, chars), chars_per_sentence=chars / len(durations))

    def traced(self, state, seconds: float, tracer: Tracer) -> None:
        self.check(state, *state["warm"])
        source = self._timed_sentences(state)
        sentences = [next(source) for _ in range(traced_ops(seconds))]
        tracers, busy = (None, tracer), [0.0, 0.0]
        for i, sentence in enumerate(sentences):
            for side in alternating(i):
                seconds_taken, result = run_op(tracers[side], "sentence", list(sentence.key), self.decode, state, sentence)
                busy[side] += seconds_taken
                self.check(state, sentence, result)
        self.extras["overhead_frac"] = busy[1] / busy[0] - 1.0


# ---------------------------------------------------------------------------
# fit-small
# ---------------------------------------------------------------------------


class StepClock:
    """Times the training steps inside train(): loss_and_grads entry to optimizer exit."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}  # model kind -> step seconds
        self.items = 0  # training instances, both batches of every step of every model
        self._start = 0.0
        self._kind = ""
        self._original = None

    def attach(self, kind: str, model) -> None:
        def timed(*args, **kwargs):
            self.items += sum(len(b) for b in args[:2])
            self._kind = kind
            self._start = time.perf_counter()
            return type(model).loss_and_grads(model, *args, **kwargs)

        model.loss_and_grads = timed

    def __enter__(self):
        self._original = ntrain.adadelta_step
        original = self._original

        def stepped(*args, **kwargs):
            original(*args, **kwargs)
            self.durations.setdefault(self._kind, []).append(time.perf_counter() - self._start)

        ntrain.adadelta_step = stepped
        return self

    def __exit__(self, *exc):
        ntrain.adadelta_step = self._original


class FitSmall(Workload):
    """The structural-mismatch protocol, scaled down: proposal and IOB to dev F1, wordwise 1 epoch."""

    def load(self):
        train_set = ncorpus.load_corpus(self.fx / "train.jsonl")
        dev_set = ncorpus.load_corpus(self.fx / "dev.jsonl")
        max_rel = self.spec["extractor"]["max_rel_dist"]
        vocab = ncorpus.build_vocab(train_set, max_rel_dist=max_rel)
        subtypes = ncorpus.SubtypeInventory.from_corpus(train_set)
        state = {"train": train_set, "dev": dev_set, "vocab": vocab, "subtypes": subtypes}
        state["models"] = self.models(state)
        return state

    def models(self, state) -> dict:
        args = (state["vocab"], state["subtypes"])
        return {
            "proposal": nmodel.CharSpanModel(model_config(self.spec), *args, rng_seed=FIT_MODEL_SEED),
            "iob": IOBModel(model_config(self.spec), *args, rng_seed=FIT_MODEL_SEED),
            "wordwise": WordwiseModel(model_config(self.spec, use_chars=False), *args, rng_seed=FIT_MODEL_SEED),
        }

    def warm_up(self, state) -> None:
        """One proposal training step on a throwaway model, so that no sampled step pays first-call costs.

        The protocol's own models stay untouched: a step on one of them would
        change what train() starts from.
        """
        args = (state["vocab"], state["subtypes"])
        model = nmodel.CharSpanModel(model_config(self.spec), *args, rng_seed=FIT_MODEL_SEED)
        batch = FIT_TRAIN["batch_size"]
        gen, cls = model.training_streams(state["train"], neg_ratio=FIT_TRAIN["neg_ratio"], rng_seed=0)
        model.loss_and_grads(gen[:batch], cls[:batch])
        ndcore.adadelta_step(model.store)

    def schedule(self):
        to_target = ntrain.TrainConfig(epochs=self.spec["epochs"], stop_at_dev_f1=self.spec["target_f1"], **FIT_TRAIN)
        one_epoch = ntrain.TrainConfig(epochs=1, **FIT_TRAIN)
        return (("proposal", to_target), ("iob", to_target), ("wordwise", one_epoch))

    def train_one(self, state, kind, config, model, out, tracer=None):
        def fit():  # looks train() up when called, so an installed tracer's patch applies
            return ntrain.train(model, state["train"], state["dev"], config, out / kind)

        return run_op(tracer, "train", kind, fit)

    @staticmethod
    def summary(results: dict, times: dict) -> dict:
        return {"results": results, "time_to_f1_s": times["proposal"], "protocol_s": sum(times.values())}

    def protocol(self, state, models: dict, out: Path) -> dict:
        results, times = {}, {}
        for kind, config in self.schedule():
            times[kind], results[kind] = self.train_one(state, kind, config, models[kind], out)
        return self.summary(results, times)

    def check(self, state, models: dict, rep: dict, out: Path, first: dict | None) -> None:
        results = rep["results"]
        proposal = results["proposal"]
        self.gate.record(
            proposal.reached_target,
            f"proposal stopped at dev F1 {proposal.best_dev_f1:.4f} < {self.spec['target_f1']}",
        )
        dev = state["dev"]
        wordwise = models["wordwise"]
        recall = recall_by_match_type(dev, {s.key: wordwise.predict_sentence(s) for s in dev}, ScoreMode.IDENTIFICATION)
        mismatched = {mt.value: recall[mt] for mt in (MatchType.PART_OF_WORD, MatchType.CROSS_WORDS)}
        self.gate.record(
            all(r.n_gold > 0 and r.n_matched == 0 for r in mismatched.values()),
            f"wordwise part-of-word/cross-word recall {mismatched}: must be 0 of a nonzero count",
        )
        if first is None:
            # the program's distributions now, the reference's in verify(); the checkpoint is kept for it
            perturb(models["proposal"], self.perturb)
            model = models["proposal"]
            ckpt = self.work / "proposal-trained.ckpt"
            shutil.copyfile(out / "proposal" / ntrain.LAST_CHECKPOINT, ckpt)
            rows = []
            for sentence in dev[: self.spec["ref_sample"]]:
                enc = model.encode_sentence(sentence)
                rows.append((sentence, [model.char_distributions(enc, ci) for ci in range(len(sentence.text))]))
            state["ref_rows"] = (ckpt, rows)
        else:
            same = all(
                (r.epochs_run, r.best_dev_f1, r.history) == (f.epochs_run, f.best_dev_f1, f.history)
                for r, f in zip(results.values(), first["results"].values())
            )
            self.gate.record(same, "a repeated protocol did not reproduce the first one")

    def verify(self, state) -> None:
        ckpt, rows = state["ref_rows"]
        ref = ReferenceForward(ckpt)
        gap = max(max_prob_gap(ref.distributions(s, ci), row) for s, dists in rows for ci, row in enumerate(dists))
        self.gate.record(gap <= PROB_TOL, f"trained proposal differs from its checkpoint's reference by {gap:.3e}")

    def _account(self, state, models, rep, out, first) -> None:
        steps = sum(h["steps"] for r in rep["results"].values() for h in r.history)
        self.gate.attempted += steps  # each training step is an operation; train() raises on a bad loss
        self.check(state, models, rep, out, first)

    def _run_protocol(self, state, models, out, first=None) -> dict:
        rep = self.protocol(state, models, out)
        self._account(state, models, rep, out, first)
        return rep

    def measure(self, state, seconds: float) -> dict:
        clock = StepClock()
        reps = []
        models = state.pop("models")  # dropped after its protocol like every later set
        # ops are the proposal model's steps: the three models' steps differ in cost,
        # and a percentile over their mixture would jump between them from seed to seed.
        # The first protocol's length sets how many fit into the run, rounded to the nearest.
        n_reps = 1
        while len(reps) < n_reps:
            out = self.work / f"fit-{len(reps)}"
            for kind, model in models.items():
                clock.attach(kind, model)
            with clock:
                reps.append(self._run_protocol(state, models, out, first=reps[0] if reps else None))
            shutil.rmtree(out)
            # the clock's wrappers hold each model in a reference cycle: free the last set before
            # building the next, or peak RSS would grow with the number of protocols that fit
            models = None
            gc.collect()
            models = self.models(state)
            if len(reps) == 1:
                n_reps = max(1, min(round(seconds / reps[0]["protocol_s"]), int(MEASURE_CAP_S // reps[0]["protocol_s"])))
        metrics = timing_metrics(clock.durations["proposal"], clock.items)
        # throughput over the whole protocol: dev evaluation, scoring and checkpoints included
        metrics["items_per_s"] = clock.items / sum(r["protocol_s"] for r in reps)
        metrics.update(
            reps=len(reps),
            time_to_f1_s=statistics.median(r["time_to_f1_s"] for r in reps),
            protocol_s=statistics.median(r["protocol_s"] for r in reps),
            epochs_to_f1=reps[0]["results"]["proposal"].epochs_run,
        )
        return metrics

    def traced(self, state, seconds: float, tracer: Tracer) -> None:
        models = (state["models"], self.models(state))
        outs = (self.work / "fit-untraced", self.work / "fit-traced")
        tracers = (None, tracer)
        results, times = ({}, {}), ({}, {})
        for i, (kind, config) in enumerate(self.schedule()):
            for side in alternating(i):
                times[side][kind], results[side][kind] = self.train_one(
                    state, kind, config, models[side][kind], outs[side], tracers[side]
                )
        untraced, traced = (self.summary(results[side], times[side]) for side in (0, 1))
        self._account(state, models[0], untraced, outs[0], None)
        self._account(state, models[1], traced, outs[1], untraced)
        for out in outs:
            shutil.rmtree(out)
        self.extras.update(
            overhead_frac=traced["protocol_s"] / untraced["protocol_s"] - 1.0,
            time_to_f1_s=traced["time_to_f1_s"],
            protocol_s=traced["protocol_s"],
            epochs_to_f1=traced["results"]["proposal"].epochs_run,
        )


WORKLOADS = {
    "train-default": TrainDefault,
    "decode-long": Decode,
    "fit-small": FitSmall,
}
