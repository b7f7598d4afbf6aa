"""Crash-point sweep: a run killed at any write and then resumed ends in the files of an uninterrupted run.

Each case runs a tiny 3-epoch training once straight, counting its writes:
every log append (train._append_line), every ndcore.write_atomically and
every os.replace.  Then, for every k, a fresh run crashes in its k-th
write (Writes says how), and the directory is resumed from
its last.ckpt as `train --resume` would, or trained afresh when the crash
came before the first last.ckpt.  train_log.jsonl, best.ckpt and last.ckpt
must then equal the straight run's byte for byte, with nothing left beside
them.  All in one process.
"""

from __future__ import annotations

import json
import os
from importlib import import_module

import pytest

import nuggetnet.ndcore as ndcore
from nuggetnet.errors import CheckpointError, from_json
from nuggetnet.model import load_model
from nuggetnet.train import BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG, TrainerState, train

from test_train import quick_config, tiny_corpus, tiny_model
from util import KINDS

ntrain = import_module("nuggetnet.train")  # the package's `train` attribute is the function

OUTPUTS = (TRAIN_LOG, BEST_CHECKPOINT, LAST_CHECKPOINT)


class Crash(Exception):
    """The injected crash."""


class Writes:
    """Counts the writes of a run and crashes in the crash_at-th, if given.

    A crashing log append leaves a torn line, a crashing atomic write dies
    after its first chunk, and a crashing rename does not happen.
    """

    def __init__(self, monkeypatch, crash_at: int | None = None):
        self.count, self.crash_at = 0, crash_at
        append, write_atomically, replace = ntrain._append_line, ndcore.write_atomically, os.replace

        def torn_append(path, rec):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True)[:10])
            raise Crash

        def torn_write(path, chunks):
            def first_chunk_then_crash():
                yield next(iter(chunks))
                raise Crash

            write_atomically(path, first_chunk_then_crash())

        def no_rename(*args):
            raise Crash

        monkeypatch.setattr(ntrain, "_append_line", self.point(append, torn_append))
        monkeypatch.setattr(ndcore, "write_atomically", self.point(write_atomically, torn_write))
        monkeypatch.setattr(os, "replace", self.point(replace, no_rename))

    def point(self, write, crashing_write):
        def counted(*args):
            self.count += 1
            return (crashing_write if self.count == self.crash_at else write)(*args)

        return counted


def run(kind, config, out_dir, resume=False):
    corpus = tiny_corpus()
    last = out_dir / LAST_CHECKPOINT
    if resume and last.exists():
        model, meta = load_model(last, optimizer_state=True)
        state = from_json(TrainerState, meta["trainer_state"], CheckpointError)
        return train(model, corpus, corpus, config, out_dir=out_dir, resume_state=state)
    return train(tiny_model(corpus, rng_seed=5, kind=kind), corpus, corpus, config, out_dir=out_dir)


def outputs(out_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


STOPS = {"none": {}, "patience": dict(patience=1), "target": dict(stop_at_dev_f1=0.0)}


@pytest.mark.parametrize("stop", list(STOPS))
@pytest.mark.parametrize("eval_every", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_resume_after_a_crash_at_any_write_matches_straight_run(tmp_path, monkeypatch, kind, eval_every, stop):
    config = quick_config(epochs=3, eval_every=eval_every, **STOPS[stop])
    with monkeypatch.context() as patch:
        writes = Writes(patch)
        result = run(kind, config, tmp_path / "straight")
    assert (result.stopped_early or result.reached_target) == (stop != "none")
    expected = outputs(tmp_path / "straight")
    assert sorted(expected) == sorted(OUTPUTS)
    for k in range(1, writes.count + 1):
        out_dir = tmp_path / f"crash{k}"
        with monkeypatch.context() as patch, pytest.raises(Crash):
            Writes(patch, crash_at=k)
            run(kind, config, out_dir)
        run(kind, config, out_dir, resume=True)
        assert outputs(out_dir) == expected, f"crash at write {k} of {writes.count}"
