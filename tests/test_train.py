import json
import os
from dataclasses import asdict, replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import nuggetnet.ndcore as ndcore
from nuggetnet.errors import CheckpointError, ConfigError, NuggetError, NumericError, from_json
from nuggetnet.model import CharSpanModel, load_model
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus
from nuggetnet.train import (
    BEST_CHECKPOINT,
    LAST_CHECKPOINT,
    TRAIN_LOG,
    TrainConfig,
    TrainerState,
    check_extension,
    evaluate_model,
    resumable_log,
    train,
)

from util import KINDS, small_model

ntrain = import_module("nuggetnet.train")  # the package's `train` attribute is the function


def tiny_corpus(n=8, seed=1):
    spec = GenSpec(
        n_sentences=n,
        subtypes=default_subtype_names(2),
        max_context_words=2,
        n_distractor_words=6,
    )
    return generate_synthetic_corpus(spec, rng_seed=seed)


def tiny_model(corpus, **overrides):
    return small_model(corpus, max_rel_dist=20, **overrides)


def quick_config(**overrides):
    base = dict(epochs=2, batch_size=8, neg_ratio=2.0, patience=10, rng_seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        for bad in (
            dict(epochs=-1),
            dict(batch_size=0),
            dict(neg_ratio=-0.5),
            dict(patience=0),
            dict(eval_every=0),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_json_includes_stop_target(self):
        assert asdict(TrainConfig(stop_at_dev_f1=0.9))["stop_at_dev_f1"] == 0.9


class TestDeterminism:
    def run_once(self, tmp_path, name):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        out = tmp_path / name
        result = train(model, corpus, corpus, quick_config(), out_dir=out)
        return out, result

    def test_repeat_runs_byte_identical(self, tmp_path):
        out_a, res_a = self.run_once(tmp_path, "a")
        out_b, res_b = self.run_once(tmp_path, "b")
        for fname in (BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname
        assert res_a.history == res_b.history

    def test_seed_changes_run(self, tmp_path):
        corpus = tiny_corpus()
        model_a = tiny_model(corpus, rng_seed=5)
        model_b = tiny_model(corpus, rng_seed=5)
        train(model_a, corpus, corpus, quick_config(rng_seed=3), out_dir=tmp_path / "a")
        train(model_b, corpus, corpus, quick_config(rng_seed=4), out_dir=tmp_path / "b")
        a = (tmp_path / "a" / LAST_CHECKPOINT).read_bytes()
        b = (tmp_path / "b" / LAST_CHECKPOINT).read_bytes()
        assert a != b

    @pytest.mark.parametrize("stop", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_resume_matches_straight_run(self, tmp_path, kind, stop):
        corpus = tiny_corpus()

        straight = tiny_model(corpus, rng_seed=5, kind=kind)
        train(straight, corpus, corpus, quick_config(epochs=4), out_dir=tmp_path / "full")

        split = tiny_model(corpus, rng_seed=5, kind=kind)
        train(split, corpus, corpus, quick_config(epochs=stop), out_dir=tmp_path / "part")
        resumed, meta = load_model(tmp_path / "part" / LAST_CHECKPOINT, optimizer_state=True)
        assert meta["kind"] == kind and meta["trainer_state"]["epoch"] == stop - 1
        train(
            resumed,
            corpus,
            corpus,
            quick_config(epochs=4),
            out_dir=tmp_path / "part",
            resume_state=from_json(TrainerState, meta["trainer_state"], CheckpointError),
        )

        full_ckpt = (tmp_path / "full" / LAST_CHECKPOINT).read_bytes()
        part_ckpt = (tmp_path / "part" / LAST_CHECKPOINT).read_bytes()
        assert full_ckpt == part_ckpt
        full_log = (tmp_path / "full" / TRAIN_LOG).read_bytes()
        part_log = (tmp_path / "part" / TRAIN_LOG).read_bytes()
        assert full_log == part_log

    def test_resume_after_crash_between_log_and_checkpoint(self, tmp_path):
        # epoch 2's log line was written (the second line torn) and then the run died before its
        # last.ckpt replaced epoch 1's: resume drops both lines and redoes the epoch
        corpus = tiny_corpus()
        straight = tiny_model(corpus, rng_seed=5)
        train(straight, corpus, corpus, quick_config(epochs=4), out_dir=tmp_path / "full")

        crashed = tiny_model(corpus, rng_seed=5)
        train(crashed, corpus, corpus, quick_config(epochs=2), out_dir=tmp_path / "part")
        full_lines = (tmp_path / "full" / TRAIN_LOG).read_bytes().splitlines(keepends=True)
        with open(tmp_path / "part" / TRAIN_LOG, "ab") as fh:
            fh.write(full_lines[2] + full_lines[3][:10])
        resumed, meta = load_model(tmp_path / "part" / LAST_CHECKPOINT, optimizer_state=True)
        assert type(resumed) is CharSpanModel
        assert meta["trainer_state"]["epoch"] == 1
        train(
            resumed,
            corpus,
            corpus,
            quick_config(epochs=4),
            out_dir=tmp_path / "part",
            resume_state=from_json(TrainerState, meta["trainer_state"], CheckpointError),
        )
        for fname in (LAST_CHECKPOINT, TRAIN_LOG):
            assert (tmp_path / "full" / fname).read_bytes() == (tmp_path / "part" / fname).read_bytes(), fname

    @pytest.mark.parametrize("stop", [dict(patience=1), dict(stop_at_dev_f1=0.0)], ids=["patience", "target"])
    @pytest.mark.parametrize("epochs", [8, 10])
    def test_resuming_a_stopped_run_trains_nothing(self, tmp_path, stop, epochs):
        # only epochs may change on resume, so a straight run with more epochs would have stopped at the same epoch
        corpus = tiny_corpus()
        first = train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=8, **stop), out_dir=tmp_path)
        assert (first.stopped_early, first.reached_target) == ("patience" in stop, "patience" not in stop)
        assert first.epochs_run < 8
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        resumed, meta = load_model(tmp_path / LAST_CHECKPOINT, optimizer_state=True)
        again = train(
            resumed,
            corpus,
            corpus,
            quick_config(epochs=epochs, **stop),
            out_dir=tmp_path,
            resume_state=from_json(TrainerState, meta["trainer_state"], CheckpointError),
        )
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert again.history == [] and replace(again, history=first.history) == first

    def test_extending_a_run_past_an_off_schedule_evaluation_is_refused(self, tmp_path):
        # a 3-epoch run at eval_every 2 evaluated epoch 2 only because it was its last; a straight 4-epoch run does not
        corpus = tiny_corpus()
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=3, eval_every=2), out_dir=tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        resumed, meta = load_model(tmp_path / LAST_CHECKPOINT, optimizer_state=True)
        state = from_json(TrainerState, meta["trainer_state"], CheckpointError)
        with pytest.raises(ConfigError) as info:
            train(resumed, corpus, corpus, quick_config(epochs=4, eval_every=2), out_dir=tmp_path, resume_state=state)
        message = str(info.value)
        assert message.startswith(f"{tmp_path / LAST_CHECKPOINT}: epoch 2 ") and "eval_every 2" in message
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        # the same epochs extend nothing, and a run cut before its last epoch extends as before
        check_extension(state, quick_config(epochs=3, eval_every=2), LAST_CHECKPOINT)
        check_extension(replace(state, epoch=1), quick_config(epochs=4, eval_every=2), LAST_CHECKPOINT)

    def test_resume_on_the_eval_every_schedule_matches_straight_run(self, tmp_path):
        corpus, full, part = tiny_corpus(), tmp_path / "full", tmp_path / "part"
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=4, eval_every=2), out_dir=full)
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=2, eval_every=2), out_dir=part)
        resumed, meta = load_model(part / LAST_CHECKPOINT, optimizer_state=True)
        state = from_json(TrainerState, meta["trainer_state"], CheckpointError)
        train(resumed, corpus, corpus, quick_config(epochs=4, eval_every=2), out_dir=part, resume_state=state)
        for fname in (BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG):
            assert (full / fname).read_bytes() == (part / fname).read_bytes(), fname

    def test_each_log_line_is_synced_before_its_epochs_checkpoint(self, tmp_path, monkeypatch):
        # a durable last.ckpt then implies the log lines resumable_log requires of it
        log, events = tmp_path / TRAIN_LOG, []
        fsync, write_atomically = os.fsync, ndcore.write_atomically

        def fsync_spy(fd):
            if log.exists() and os.path.samestat(os.fstat(fd), os.stat(log)):
                events.append(("log synced", len(log.read_bytes().splitlines())))
            return fsync(fd)

        def write_spy(path, chunks):
            events.append(("saved", os.path.basename(path)))
            return write_atomically(path, chunks)

        monkeypatch.setattr(os, "fsync", fsync_spy)
        monkeypatch.setattr(ndcore, "write_atomically", write_spy)
        corpus = tiny_corpus()
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=3), out_dir=tmp_path)
        expected = [e for n in (1, 2, 3) for e in (("log synced", n), ("saved", LAST_CHECKPOINT))]
        assert [e for e in events if e[1] != BEST_CHECKPOINT] == expected

    def test_each_rename_is_synced_in_its_directory_before_the_next_write(self, tmp_path, monkeypatch):
        # a rename lives in the directory's entry: until the directory is synced, power loss may undo it
        events = []
        fsync, replace, write_atomically, append = os.fsync, os.replace, ndcore.write_atomically, ntrain._append_line

        def fsync_spy(fd):
            events.append(("sync", "dir" if os.path.samestat(os.fstat(fd), os.stat(tmp_path)) else "file"))
            return fsync(fd)

        def replace_spy(src, dst):
            replace(src, dst)
            events.append(("rename", os.path.basename(dst)))

        def write_spy(path, chunks):
            events.append(("write", os.path.basename(path)))
            return write_atomically(path, chunks)

        def append_spy(path, rec):
            events.append(("append", os.path.basename(path)))
            return append(path, rec)

        monkeypatch.setattr(os, "fsync", fsync_spy)
        monkeypatch.setattr(os, "replace", replace_spy)
        monkeypatch.setattr(ndcore, "write_atomically", write_spy)
        monkeypatch.setattr(ntrain, "_append_line", append_spy)
        corpus = tiny_corpus()
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=1), out_dir=tmp_path)
        saved = [("write", BEST_CHECKPOINT), ("sync", "file"), ("rename", BEST_CHECKPOINT), ("sync", "dir")]
        logged = [("append", TRAIN_LOG), ("sync", "file")]
        last = [("write", LAST_CHECKPOINT), ("sync", "file"), ("rename", LAST_CHECKPOINT), ("sync", "dir")]
        assert events == saved + logged + last

    def test_resume_without_optimizer_state_is_refused(self, tmp_path):
        # weights alone would restart Adadelta from zero: the run would silently differ from a straight one
        corpus = tiny_corpus()
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=1), out_dir=tmp_path)
        before = {fname: (tmp_path / fname).read_bytes() for fname in (LAST_CHECKPOINT, TRAIN_LOG)}
        weights_only, meta = load_model(tmp_path / LAST_CHECKPOINT)
        with pytest.raises(ConfigError, match=r"no Adadelta state.*optimizer_state=True"):
            train(
                weights_only,
                corpus,
                corpus,
                quick_config(epochs=2),
                out_dir=tmp_path,
                resume_state=from_json(TrainerState, meta["trainer_state"], CheckpointError),
            )
        assert {fname: (tmp_path / fname).read_bytes() for fname in before} == before

    def resume_after_log_loss(self, tmp_path, lose_lines):
        """Train 3 epochs, let lose_lines(lines) stand for what power loss kept of the log, and resume to 5."""
        corpus = tiny_corpus()
        train(tiny_model(corpus, rng_seed=5), corpus, corpus, quick_config(epochs=3), out_dir=tmp_path)
        log = tmp_path / TRAIN_LOG
        kept = lose_lines(log.read_bytes().splitlines(keepends=True))
        if kept is None:
            log.unlink()
        else:
            log.write_bytes(b"".join(kept))
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        resumed, meta = load_model(tmp_path / LAST_CHECKPOINT, optimizer_state=True)
        assert meta["trainer_state"]["epoch"] == 2
        with pytest.raises(NuggetError) as info:
            train(
                resumed,
                corpus,
                corpus,
                quick_config(epochs=5),
                out_dir=tmp_path,
                resume_state=from_json(TrainerState, meta["trainer_state"], CheckpointError),
            )
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        return str(info.value)

    @pytest.mark.parametrize("lost, first_missing", [((2,), 2), ((1,), 1), ((0, 2), 0)])
    def test_resume_refuses_a_log_missing_an_epoch(self, tmp_path, lost, first_missing):
        # last.ckpt outlived log lines it has passed: resuming would write a log without them
        message = self.resume_after_log_loss(tmp_path, lambda lines: [l for i, l in enumerate(lines) if i not in lost])
        assert message == (
            f"{tmp_path / TRAIN_LOG}: no line for epoch {first_missing}, which the checkpoint has passed; cannot resume"
        )

    def test_resume_refuses_a_missing_log(self, tmp_path):
        message = self.resume_after_log_loss(tmp_path, lambda lines: None)
        assert message.startswith(f"{tmp_path / TRAIN_LOG}: no line for epoch 0,")

    @pytest.mark.parametrize("bad", [b"not json", b"[0]", b'{"loss": 1.0}', b'{"epoch": "0"}', b'{"epoch": true}'])
    def test_garbled_log_line_names_file_and_line(self, tmp_path, bad):
        log = tmp_path / TRAIN_LOG
        log.write_bytes(b'{"epoch": 0}\n' + bad + b'\n{"epoch": 1}\n{"epo')
        with pytest.raises(NuggetError, match=f"{TRAIN_LOG}: line 2: not a JSON object with an integer"):
            resumable_log(str(log), 0)


class TestLoopBehavior:
    def test_loss_decreases_overall(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        result = train(model, corpus, corpus, quick_config(epochs=6))
        losses = [rec["loss"] for rec in result.history]
        assert losses[-1] < losses[0]

    def test_log_format(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        train(model, corpus, corpus, quick_config(), out_dir=tmp_path)
        lines = (tmp_path / TRAIN_LOG).read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["epoch"] == i
            assert set(rec) == {
                "epoch",
                "loss",
                "steps",
                "identification_f1",
                "classification_f1",
                "best_dev_f1",
            }

    def test_eval_every_skips_epochs(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        result = train(model, corpus, corpus, quick_config(epochs=4, eval_every=2))
        with_eval = [rec for rec in result.history if "classification_f1" in rec]
        assert len(result.history) == 4
        assert [rec["epoch"] for rec in with_eval] == [1, 3]

    def test_zero_epochs_saves_initial_state(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        result = train(model, corpus, corpus, quick_config(epochs=0), out_dir=tmp_path)
        assert result.epochs_run == 0 and result.history == []
        loaded, meta = load_model(tmp_path / LAST_CHECKPOINT)
        assert meta["trainer_state"]["epoch"] == -1
        np.testing.assert_array_equal(
            loaded.store["head.nugget_w"].value, model.store["head.nugget_w"].value
        )

    def test_empty_stream_rejected(self):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        with pytest.raises(ConfigError, match="no instances"):
            train(model, [], corpus, quick_config())

    def test_non_finite_loss_aborts(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        model.store["head.nugget_w"].value[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                train(model, corpus, corpus, quick_config())

    def test_early_stop_on_patience(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        # freeze learning entirely: loss stays flat, F1 never improves twice
        result = train(model, corpus, corpus, quick_config(epochs=50, patience=2))
        if result.stopped_early:
            last = result.history[-1]["epoch"]
            assert last < 49
            assert result.best_epoch <= last - 2
        else:
            # kept improving the whole way: legitimate, but the toy setup
            # should not manage 50 epochs of monotone dev gains
            assert result.best_epoch >= 45

    def test_stop_at_target_f1(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        result = train(
            model, corpus, corpus, quick_config(epochs=50, stop_at_dev_f1=0.0), out_dir=tmp_path
        )
        assert result.reached_target
        assert result.epochs_run == 1  # any F1 >= 0.0 triggers on the first eval

    def test_best_checkpoint_tracks_best_epoch(self, tmp_path):
        corpus = tiny_corpus()
        model = tiny_model(corpus, rng_seed=5)
        result = train(model, corpus, corpus, quick_config(epochs=4), out_dir=tmp_path)
        _, meta = load_model(tmp_path / BEST_CHECKPOINT)
        assert meta["trainer_state"]["epoch"] == result.best_epoch
        assert meta["trainer_state"]["best_dev_f1"] == result.best_dev_f1


class TestEvaluateModel:
    def test_runs_both_modes(self):
        corpus = tiny_corpus(4)
        model = tiny_model(corpus, rng_seed=5)
        scores = evaluate_model(model, corpus)
        assert set(scores) == {"identification_f1", "classification_f1"}
        assert scores["identification_f1"] >= scores["classification_f1"]
