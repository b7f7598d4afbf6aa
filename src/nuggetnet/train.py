"""Minibatch trainer shared by the main model and the baselines.

Epochs walk a permutation of the span-stream instances; each step also
draws a fresh minibatch from the subtype stream when the model has one.
All shuffling is reseeded per epoch from (seed, epoch), so a run resumed
from its last checkpoint continues bit-for-bit like an uninterrupted one.
Checkpoints and log lines carry no timestamps for the same reason.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .corpus import AnnotatedSentence
from .errors import ConfigError, NuggetError, NumericError, check_bounds, is_a
from .evaluate import ScoreMode, score
from .ndcore import adadelta_step, write_atomically

BEST_CHECKPOINT = "best.ckpt"
LAST_CHECKPOINT = "last.ckpt"
TRAIN_LOG = "train_log.jsonl"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = field(default=50, metadata={"minimum": 0})
    batch_size: int = field(default=32, metadata={"minimum": 1})
    neg_ratio: float = field(default=5.0, metadata={"finite": True, "minimum": 0})
    patience: int = field(default=10, metadata={"minimum": 1})
    rng_seed: int = field(default=0, metadata={"minimum": 0})
    rho: float = field(default=0.95, metadata={"minimum": 0, "exclusiveMaximum": 1})
    eps: float = field(default=1e-6, metadata={"exclusiveMinimum": 0})
    eval_every: int = field(default=1, metadata={"minimum": 1})
    # optional early exit once dev classification F1 reaches this value
    stop_at_dev_f1: float | None = field(default=None, metadata={"finite": True})

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class TrainerState:
    """What a checkpoint records for resuming: where the run stood after `epoch` (-1: before the first), and its config."""

    epoch: int = field(metadata={"minimum": -1})
    best_dev_f1: float
    best_epoch: int = field(metadata={"minimum": -1})
    since_improve: int = field(metadata={"minimum": -1})
    train_config: TrainConfig

    def __post_init__(self):
        check_bounds(self)


@dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    best_dev_f1: float
    stopped_early: bool
    reached_target: bool
    history: list[dict] = field(default_factory=list)


def evaluate_model(model, corpus: Sequence[AnnotatedSentence]) -> dict:
    """Identification and classification F1 of the model's predictions, many sentences per forward."""
    predictions = model.predict_corpus(corpus)
    ident = score(corpus, predictions, ScoreMode.IDENTIFICATION)
    cls = score(corpus, predictions, ScoreMode.CLASSIFICATION)
    return {"identification_f1": ident.f1, "classification_f1": cls.f1}


def resumable_log(log_path: str, last_epoch: int) -> list[bytes] | None:
    """The log lines a resume after last_epoch keeps, None for all; it drops a crash's later lines and torn last line.

    A complete line that is not a JSON object with an integer "epoch"
    raises NuggetError naming it, and so does a log (or its absence) that
    lacks an epoch up to last_epoch, as a power loss can leave it.
    """
    try:
        with open(log_path, "rb") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        lines = []
    kept, epochs = [], set()
    for lineno, line in enumerate(lines, start=1):
        if not line.endswith(b"\n"):
            continue
        try:
            epoch = json.loads(line)["epoch"]
        except (KeyError, TypeError, ValueError):
            epoch = None
        if not is_a(epoch, "int"):
            raise NuggetError(f"{log_path}: line {lineno}: not a JSON object with an integer \"epoch\"")
        if epoch <= last_epoch:
            kept.append(line)
            epochs.add(epoch)
    missing = min(set(range(last_epoch + 1)) - epochs, default=None)
    if missing is not None:
        raise NuggetError(f"{log_path}: no line for epoch {missing}, which the checkpoint has passed; cannot resume")
    return kept if len(kept) < len(lines) else None


def check_extension(state: TrainerState, config: TrainConfig, last_path: str) -> None:
    """ConfigError naming last_path if resuming to config.epochs extends a run past an off-schedule last evaluation."""
    # a run evaluates its last epoch even off the eval_every schedule, and a longer straight run would not:
    # the extended run's log and since_improve would differ from the straight run's
    epoch, every = state.epoch, state.train_config.eval_every
    if epoch == state.train_config.epochs - 1 and (epoch + 1) % every and config.epochs > epoch + 1:
        raise ConfigError(
            f"{last_path}: epoch {epoch} ended the run off the eval_every {every} schedule and was evaluated "
            f"only as the last; extending the run to {config.epochs} epochs would not match a straight run"
        )


def _append_line(path: str, rec: dict) -> None:
    """Append rec to the log as one JSON line, synced to disk before the checkpoint that passes it is saved."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def train(
    model,
    train_corpus: Sequence[AnnotatedSentence],
    dev_corpus: Sequence[AnnotatedSentence],
    config: TrainConfig,
    out_dir: str | os.PathLike | None = None,
    resume_state: TrainerState | None = None,
) -> TrainResult:
    """Train in place; returns the run summary.  Checkpoints go to out_dir.

    To resume, load out_dir's last.ckpt with load_model(path,
    optimizer_state=True) and pass that checkpoint's trainer state.  The
    caller checks that config matches the state's train_config but for
    `epochs`.  Resuming a run that stopped early or reached its target
    writes nothing and returns how it stopped.
    """
    if resume_state is not None:
        if not model.store.has_optimizer_state():
            raise ConfigError("cannot resume a model with no Adadelta state: load it with optimizer_state=True")
        check_extension(resume_state, config, os.path.join(out_dir or "", LAST_CHECKPOINT))
    state = resume_state or TrainerState(-1, -1.0, -1, 0, config)
    start_epoch = state.epoch + 1
    best_f1, best_epoch, since_improve = state.best_dev_f1, state.best_epoch, state.since_improve
    history: list[dict] = []
    # only epochs may differ on resume, so a run that stopped would stop at the same epoch again
    stopped_early = since_improve >= config.patience
    reached_target = config.stop_at_dev_f1 is not None and best_epoch >= 0 and best_f1 >= config.stop_at_dev_f1
    if stopped_early or reached_target:
        return TrainResult(start_epoch, best_epoch, best_f1, stopped_early, reached_target, history)

    stream_a, stream_b = model.training_streams(
        train_corpus, neg_ratio=config.neg_ratio, rng_seed=config.rng_seed
    )
    if not stream_a:
        raise ConfigError("training corpus produced no instances")

    if out_dir is not None:
        log_path = os.path.join(out_dir, TRAIN_LOG)
        os.makedirs(out_dir, exist_ok=True)
        if resume_state is not None:
            kept = resumable_log(log_path, state.epoch)
            if kept is not None:
                write_atomically(log_path, kept)
        elif os.path.exists(log_path):
            os.remove(log_path)

    def trainer_state(epoch: int) -> dict:
        return asdict(TrainerState(epoch, best_f1, best_epoch, since_improve, config))

    if config.epochs == 0 and out_dir is not None:
        model.save(os.path.join(out_dir, BEST_CHECKPOINT), trainer_state(-1))
        model.save(os.path.join(out_dir, LAST_CHECKPOINT), trainer_state(-1))
        return TrainResult(0, best_epoch, best_f1, False, False, history)

    dropout = model.config.extractor.dropout
    epochs_run = start_epoch
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng([config.rng_seed, 1, epoch])
        drop_rng = np.random.default_rng([config.rng_seed, 2, epoch]) if dropout > 0 else None
        order = rng.permutation(len(stream_a))
        epoch_loss = 0.0
        n_steps = 0
        for lo in range(0, len(order), config.batch_size):
            batch_a = [stream_a[int(i)] for i in order[lo : lo + config.batch_size]]
            if stream_b:
                picks = rng.choice(len(stream_b), size=min(config.batch_size, len(stream_b)), replace=False)
                batch_b = [stream_b[int(i)] for i in picks]
            else:
                batch_b = []
            loss = model.loss_and_grads(batch_a, batch_b, drop_rng)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss {loss!r} at epoch {epoch}, aborting")
            adadelta_step(model.store, rho=config.rho, eps=config.eps)
            epoch_loss += loss
            n_steps += 1
        epochs_run = epoch + 1

        rec = {"epoch": epoch, "loss": epoch_loss, "steps": n_steps}
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            dev_scores = evaluate_model(model, dev_corpus)
            rec.update(dev_scores)
            f1 = dev_scores["classification_f1"]
            if f1 > best_f1:
                best_f1 = f1
                best_epoch = epoch
                since_improve = 0
                if out_dir is not None:
                    model.save(os.path.join(out_dir, BEST_CHECKPOINT), trainer_state(epoch))
            else:
                since_improve += 1
            rec["best_dev_f1"] = best_f1
            if config.stop_at_dev_f1 is not None and f1 >= config.stop_at_dev_f1:
                reached_target = True
        # the log line goes first, synced: a crash before the save leaves a line that resume drops, and a
        # durable last.ckpt implies the lines before it
        history.append(rec)
        if out_dir is not None:
            _append_line(log_path, rec)
            model.save(os.path.join(out_dir, LAST_CHECKPOINT), trainer_state(epoch))
        if reached_target:
            break
        if since_improve >= config.patience:
            stopped_early = True
            break

    return TrainResult(epochs_run, best_epoch, best_f1, stopped_early, reached_target, history)
