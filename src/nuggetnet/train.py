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
from .errors import ConfigError, NuggetError, NumericError
from .evaluate import ScoreMode, score
from .ndcore import adadelta_step, write_atomically

BEST_CHECKPOINT = "best.ckpt"
LAST_CHECKPOINT = "last.ckpt"
TRAIN_LOG = "train_log.jsonl"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    neg_ratio: float = 5.0
    patience: int = 10
    rng_seed: int = 0
    rho: float = 0.95
    eps: float = 1e-6
    eval_every: int = 1
    # optional early exit once dev classification F1 reaches this value
    stop_at_dev_f1: float | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.neg_ratio) and self.neg_ratio >= 0):
            raise ConfigError(f"neg_ratio must be a finite number >= 0, got {self.neg_ratio}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0 <= self.rho < 1:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.stop_at_dev_f1 is not None and not math.isfinite(self.stop_at_dev_f1):
            raise ConfigError(f"stop_at_dev_f1 must be a finite number or null, got {self.stop_at_dev_f1}")

    def to_json(self) -> dict:
        return asdict(self)


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


def _truncate_log(log_path: str, last_epoch: int) -> None:
    """Drop what a crash after last_epoch's checkpoint left in the log: later epochs' lines and a torn last line.

    A complete line that is not a JSON object with an integer "epoch" raises NuggetError naming it.
    """
    with open(log_path, "rb") as fh:
        lines = fh.readlines()
    kept = []
    for lineno, line in enumerate(lines, start=1):
        if not line.endswith(b"\n"):
            continue
        try:
            epoch = json.loads(line)["epoch"]
        except (KeyError, TypeError, ValueError):
            epoch = None
        if type(epoch) is not int:
            raise NuggetError(f"{log_path}: line {lineno}: not a JSON object with an integer \"epoch\"")
        if epoch <= last_epoch:
            kept.append(line)
    if len(kept) < len(lines):
        write_atomically(log_path, kept)


def train(
    model,
    train_corpus: Sequence[AnnotatedSentence],
    dev_corpus: Sequence[AnnotatedSentence],
    config: TrainConfig,
    out_dir: str | os.PathLike | None = None,
    resume_state: dict | None = None,
) -> TrainResult:
    """Train in place; returns the run summary.  Checkpoints go to out_dir.

    To resume, load the weights from last.ckpt into `model` and pass the
    trainer_state dict from that checkpoint's metadata.
    """
    stream_a, stream_b = model.training_streams(
        train_corpus, neg_ratio=config.neg_ratio, rng_seed=config.rng_seed
    )
    if not stream_a:
        raise ConfigError("training corpus produced no instances")

    resume = resume_state is not None
    start_epoch = 0
    best_f1 = -1.0
    best_epoch = -1
    since_improve = 0
    history: list[dict] = []
    if resume:
        start_epoch = resume_state["epoch"] + 1
        best_f1 = resume_state["best_dev_f1"]
        best_epoch = resume_state["best_epoch"]
        since_improve = resume_state["since_improve"]

    log_path = os.path.join(out_dir, TRAIN_LOG) if out_dir is not None else None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if not resume and os.path.exists(log_path):
            os.remove(log_path)
        elif resume and os.path.exists(log_path):
            _truncate_log(log_path, resume_state["epoch"])

    def trainer_state(epoch: int) -> dict:
        return {
            "epoch": epoch,
            "best_dev_f1": best_f1,
            "best_epoch": best_epoch,
            "since_improve": since_improve,
            "train_config": config.to_json(),
        }

    def log_line(rec: dict) -> None:
        history.append(rec)
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    if config.epochs == 0 and out_dir is not None:
        model.save(os.path.join(out_dir, BEST_CHECKPOINT), trainer_state(-1))
        model.save(os.path.join(out_dir, LAST_CHECKPOINT), trainer_state(-1))
        return TrainResult(0, best_epoch, best_f1, False, False, history)

    dropout = model.config.extractor.dropout
    stopped_early = False
    reached_target = False
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
        # the log line goes first: a crash before the save leaves a line that resume drops
        log_line(rec)
        if out_dir is not None:
            model.save(os.path.join(out_dir, LAST_CHECKPOINT), trainer_state(epoch))
        if reached_target:
            break
        if since_improve >= config.patience:
            stopped_early = True
            break

    return TrainResult(epochs_run, best_epoch, best_f1, stopped_early, reached_target, history)
