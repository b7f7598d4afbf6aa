import json

import numpy as np
import pytest
import yaml

from nuggetnet.cli import main
from nuggetnet.config import load_run_config, parse_run_config
from nuggetnet.corpus import load_corpus
from nuggetnet.decoder import decode_corpus, load_predictions, save_predictions
from nuggetnet.errors import ConfigError
from nuggetnet.model import load_model
from nuggetnet.ndcore import ParamStore, load_checkpoint, save_checkpoint
from nuggetnet.train import BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG

SMALL_EXTRACTOR = {
    "token_emb_dim": 12,
    "pos_emb_dim": 3,
    "n_filters": 8,
    "window": 3,
    "lex_window": 1,
    "proj_dim": 12,
    "max_rel_dist": 20,
}


def write_config(path, out_dir, data_dir, kind="proposal", epochs=2, extractor=None, **training):
    extra = dict(extractor or {})
    if kind == "wordwise":
        extra.update({"use_chars": False, "use_words": True})
    cfg = {
        "model": {"kind": kind, "max_tokens": 60, "extractor": {**SMALL_EXTRACTOR, **extra}},
        "training": {"epochs": epochs, "batch_size": 16, "rng_seed": 3, **training},
        "data": {
            "train": str(data_dir / "train.jsonl"),
            "dev": str(data_dir / "dev.jsonl"),
            "test": str(data_dir / "test.jsonl"),
        },
        "out_dir": str(out_dir),
    }
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def gen_data(tmp_path, n=40):
    data_dir = tmp_path / "data"
    rc = main(
        [
            "gen-data",
            "--out",
            str(data_dir),
            "--n-sentences",
            str(n),
            "--n-subtypes",
            "2",
            "--splits",
            "0.7,0.15,0.15",
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    return data_dir


class TestGenData:
    def test_writes_three_splits(self, tmp_path, capsys):
        data_dir = gen_data(tmp_path, n=40)
        out = capsys.readouterr().out
        assert "wrote 28 sentences" in out and "wrote 6 sentences" in out
        assert len(load_corpus(data_dir / "train.jsonl")) == 28
        assert len(load_corpus(data_dir / "dev.jsonl")) == 6
        assert len(load_corpus(data_dir / "test.jsonl")) == 6
        assert "gold match types:" in out

    def test_bad_proportions_exit_code(self, tmp_path, capsys):
        rc = main(
            ["gen-data", "--out", str(tmp_path / "d"), "--proportions", "0.9,0.2,0.1"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_out_dir(self, tmp_path, capsys):
        rc = main(["gen-data", "--n-sentences", "5"])
        assert rc == 1
        assert "output directory" in capsys.readouterr().err

    def test_generator_section_from_config(self, tmp_path, capsys):
        cfg = {
            "generator": {"n_sentences": 20, "subtypes": ["a", "b"], "seed": 4},
            "out_dir": str(tmp_path / "gen"),
        }
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["gen-data", "--config", str(path)]) == 0
        assert len(load_corpus(tmp_path / "gen" / "train.jsonl")) == 16


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    data_dir = gen_data(tmp_path, n=40)
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path / "run.yaml", out_dir, data_dir)
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path, data_dir, out_dir, cfg


class TestTrainPredictEval:
    def test_train_outputs(self, pipeline, capsys):
        _, _, out_dir, _ = pipeline
        for fname in (BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG, "resolved_config.json"):
            assert (out_dir / fname).exists(), fname
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["model_kind"] == "proposal"
        assert resolved["training"]["epochs"] == 2

    def test_predict_and_eval(self, pipeline, capsys):
        tmp_path, data_dir, out_dir, _ = pipeline
        preds_path = tmp_path / "preds.jsonl"
        rc = main(
            [
                "predict",
                "--model",
                str(out_dir / BEST_CHECKPOINT),
                "--input",
                str(data_dir / "test.jsonl"),
                "--out",
                str(preds_path),
            ]
        )
        assert rc == 0
        preds = load_predictions(preds_path)
        assert set(preds) == {s.key for s in load_corpus(data_dir / "test.jsonl")}

        capsys.readouterr()  # drop the predict command's status line
        rc = main(
            ["eval", "--gold", str(data_dir / "test.jsonl"), "--pred", str(preds_path), "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"identification", "classification"}
        assert payload["identification"]["f1"] >= payload["classification"]["f1"]

    def test_eval_by_match_type_text(self, pipeline, capsys):
        tmp_path, data_dir, out_dir, _ = pipeline
        preds_path = tmp_path / "preds2.jsonl"
        main(
            [
                "predict",
                "--model",
                str(out_dir / LAST_CHECKPOINT),
                "--input",
                str(data_dir / "dev.jsonl"),
                "--out",
                str(preds_path),
            ]
        )
        rc = main(
            [
                "eval",
                "--gold",
                str(data_dir / "dev.jsonl"),
                "--pred",
                str(preds_path),
                "--by-match-type",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "identification: P" in out
        assert "recall[exact]:" in out

    def test_inspect(self, pipeline, capsys):
        _, _, out_dir, _ = pipeline
        rc = main(["inspect", "--model", str(out_dir / BEST_CHECKPOINT)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "proposal"
        assert info["parameters"] > 0
        assert info["subtypes"] == ["ev00", "ev01"]

    def test_inspect_lists_tensors(self, pipeline, capsys):
        _, _, out_dir, _ = pipeline
        capsys.readouterr()
        assert main(["inspect", "--model", str(out_dir / BEST_CHECKPOINT)]) == 0
        tensors = json.loads(capsys.readouterr().out)["tensors"]
        model, _ = load_model(out_dir / BEST_CHECKPOINT)
        assert [t["name"] for t in tensors] == model.store.names()  # store order
        for t in tensors:
            value = model.store[t["name"]].value
            assert t["shape"] == list(value.shape)
            assert t["l2"] == pytest.approx(float(np.sqrt(np.sum(value * value))), rel=1e-12)
        assert sum(np.prod(t["shape"]) for t in tensors) == model.store.n_parameters()

    def test_predict_reports_decode_stats(self, pipeline, capsys):
        tmp_path, data_dir, out_dir, _ = pipeline
        preds_path = tmp_path / "preds-stats.jsonl"
        args = ["--model", str(out_dir / BEST_CHECKPOINT), "--input", str(data_dir / "test.jsonl")]
        capsys.readouterr()
        assert main(["predict", *args, "--out", str(preds_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        model, _ = load_model(out_dir / BEST_CHECKPOINT)
        corpus = load_corpus(data_dir / "test.jsonl")
        _, stats = decode_corpus(model, corpus)
        assert lines[0].startswith("wrote ")
        assert lines[1] == (
            f"decoder: {stats.proposed} proposed, {stats.out_of_bounds} out of bounds, {stats.merged} merged"
        )
        # the file is what decoding sentence by sentence writes
        per_sentence = tmp_path / "per-sentence.jsonl"
        save_predictions(per_sentence, {s.key: model.predict_sentence(s) for s in corpus})
        assert preds_path.read_bytes() == per_sentence.read_bytes()

    def test_inspect_bad_metadata(self, pipeline, tmp_path, capsys):
        _, _, out_dir, _ = pipeline
        meta, _ = load_checkpoint(out_dir / BEST_CHECKPOINT)
        del meta["config"]
        path = tmp_path / "no-config.ckpt"
        save_checkpoint(path, ParamStore(0), meta)
        capsys.readouterr()
        assert main(["inspect", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad model metadata")
        assert "Traceback" not in err

    def test_resume_after_completion_is_noop(self, pipeline, capsys):
        _, _, out_dir, cfg = pipeline
        before = (out_dir / LAST_CHECKPOINT).read_bytes()
        assert main(["train", "--config", str(cfg), "--resume"]) == 0
        assert (out_dir / LAST_CHECKPOINT).read_bytes() == before

    def test_missing_model_file(self, tmp_path, capsys):
        rc = main(["inspect", "--model", str(tmp_path / "nope.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBaselineTraining:
    @pytest.mark.parametrize("kind", ["iob", "wordwise"])
    def test_trains_and_predicts(self, tmp_path, kind, capsys):
        data_dir = gen_data(tmp_path, n=30)
        out_dir = tmp_path / f"run-{kind}"
        cfg = write_config(tmp_path / f"{kind}.yaml", out_dir, data_dir, kind=kind, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        preds_path = tmp_path / f"{kind}-preds.jsonl"
        rc = main(
            [
                "predict",
                "--model",
                str(out_dir / LAST_CHECKPOINT),
                "--input",
                str(data_dir / "dev.jsonl"),
                "--out",
                str(preds_path),
            ]
        )
        assert rc == 0
        assert preds_path.exists()
        assert "decoder:" not in capsys.readouterr().out  # decode statistics belong to the proposal decoder


class TestRunConfig:
    def test_defaults(self):
        run = parse_run_config({})
        assert run.model_kind == "proposal"
        assert run.training.epochs == 50
        assert run.out_dir is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="lerning"):
            parse_run_config({"lerning": {}})

    def test_unknown_nested_keys_named(self):
        with pytest.raises(ConfigError, match="batchsize"):
            parse_run_config({"training": {"batchsize": 4}})
        with pytest.raises(ConfigError, match="filters"):
            parse_run_config({"model": {"extractor": {"filters": 4}}})

    def test_bad_model_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_run_config({"model": {"kind": "gru"}})

    def test_section_type_check(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_run_config({"training": [1, 2]})

    def test_yaml_errors_carry_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("training: {epochs: [", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "text, where",
        [("vocab_min_count: lots\n", "vocab_min_count"), ("generator: {n_sentences: 4, seed: x7}\n", "generator.seed")],
    )
    def test_non_integer_value_names_file(self, tmp_path, capsys, text, where):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"run.yaml: {where} must be an integer"):
            load_run_config(path)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")]) == 1
        assert f"{where} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model: {extractor: {n_filters: 2.5}}\n", "model.extractor.n_filters must be an integer, got 2.5"),
            ("model: {extractor: {window: true}}\n", "model.extractor.window must be an integer, got True"),
            ("model: {max_tokens: 50.5}\n", "model.max_tokens must be an integer, got 50.5"),
            ("training: {batch_size: 2.5}\n", "training.batch_size must be an integer, got 2.5"),
            ("training: {epochs: '3'}\n", "training.epochs must be an integer, got '3'"),
            ("generator: {n_sentences: 4.0}\n", "generator.n_sentences must be an integer, got 4.0"),
            ("model: {extractor: {hybrid_mode: bogus}}\n", "hybrid_mode must be one of"),
        ],
    )
    def test_badly_typed_field_names_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_run_config(path)
        assert str(info.value).startswith(f"{path}: {message}")
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err

    def test_round_trip_through_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        write_config(path, tmp_path / "out", tmp_path / "data", epochs=7)
        run = load_run_config(path)
        assert run.training.epochs == 7
        assert run.model.extractor.n_filters == SMALL_EXTRACTOR["n_filters"]
        assert run.train_path.endswith("train.jsonl")
