import json
import math

import jsonschema
import numpy as np
import pytest
import yaml

from nuggetnet.cli import main
from nuggetnet.config import load_run_config, parse_run_config
from nuggetnet.corpus import load_corpus, save_corpus
from nuggetnet.decoder import decode_corpus, load_predictions, save_predictions
from nuggetnet.errors import ConfigError
from nuggetnet.model import load_model
from nuggetnet.ndcore import ParamStore, load_checkpoint, save_checkpoint
from nuggetnet.train import BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG

from util import KINDS, SCHEMA_DIR, small_model, toy_corpus

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
        assert resolved["model"]["kind"] == "proposal"
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
        predictions, stats = decode_corpus(model, corpus)
        assert lines[0].startswith("wrote ")
        assert lines[1] == (
            f"decoder: {stats.proposed} proposed, {stats.out_of_bounds} out of bounds, {stats.merged} merged"
        )
        # the file is what decode_corpus writes
        batched = tmp_path / "batched.jsonl"
        save_predictions(batched, predictions)
        assert preds_path.read_bytes() == batched.read_bytes()
        # and, but for the last bits of a score, what decoding sentence by sentence predicts
        for sentence in corpus:
            alone = model.predict_corpus([sentence])[sentence.key]
            got = predictions[sentence.key]
            assert [(p.start, p.length, p.subtype) for p in got] == [(p.start, p.length, p.subtype) for p in alone]
            assert all(abs(a.score - b.score) <= 1e-12 for a, b in zip(got, alone))

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

    def test_resolved_config_trains_again(self, pipeline):
        _, _, out_dir, cfg = pipeline
        assert load_run_config(out_dir / "resolved_config.json") == load_run_config(cfg)

    def test_resume_rejects_a_garbled_log_line(self, pipeline, tmp_path, capsys):
        _, _, out_dir, cfg = pipeline
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for fname in (LAST_CHECKPOINT, TRAIN_LOG):
            (run_dir / fname).write_bytes((out_dir / fname).read_bytes())
        lines = (run_dir / TRAIN_LOG).read_bytes().splitlines(keepends=True)
        (run_dir / TRAIN_LOG).write_bytes(lines[0] + b'{"loss": 1.0}\n' + lines[1])
        resume_cfg = tmp_path / "resume.yaml"
        resume_cfg.write_text(
            yaml.safe_dump({**yaml.safe_load(cfg.read_text(encoding="utf-8")), "out_dir": str(run_dir)}),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["train", "--config", str(resume_cfg), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / TRAIN_LOG}: line 2")
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


class TestUnreadableFiles:
    """Every file a command reads or writes fails cleanly, naming the path, when it is not UTF-8, a directory or missing."""

    @pytest.fixture
    def files(self, tmp_path):
        corpus = toy_corpus()
        good = {
            "model": tmp_path / "model.ckpt",
            "corpus": tmp_path / "corpus.jsonl",
            "preds": tmp_path / "preds.jsonl",
            "out": tmp_path / "out.jsonl",
        }
        small_model(corpus).save(good["model"])
        save_corpus(good["corpus"], corpus)
        save_predictions(good["preds"], {})
        bad = {
            "latin1": tmp_path / "latin1.txt",
            "directory": tmp_path / "a-directory",
            "missing": tmp_path / "no-such-directory" / "file",
        }
        bad["latin1"].write_bytes('{"text": "caf\u00e9"}\n'.encode("latin-1"))
        bad["directory"].mkdir()
        return tmp_path, good, bad

    def commands(self, tmp_path, good, path):
        def train_with(**sections):
            cfg = tmp_path / "run.yaml"
            run = {"data": {"train": str(good["corpus"])}, "out_dir": str(tmp_path / "run"), **sections}
            cfg.write_text(yaml.safe_dump(run), encoding="utf-8")
            return ["train", "--config", str(cfg)]

        predict = {"model": good["model"], "input": good["corpus"], "out": good["out"]}
        for flag in predict:
            yield ["predict", *(a for k, v in {**predict, flag: path}.items() for a in (f"--{k}", str(v)))]
        yield ["eval", "--gold", str(path), "--pred", str(good["preds"])]
        yield ["eval", "--gold", str(good["corpus"]), "--pred", str(path)]
        yield ["train", "--config", str(path)]
        yield train_with(data={"train": str(path)})
        yield train_with(embeddings={"chars": str(path)})

    @pytest.mark.parametrize("which", ["latin1", "directory", "missing"])
    def test_exit_1_naming_the_path(self, files, capsys, which):
        tmp_path, good, bad = files
        path = bad[which]
        for argv in self.commands(tmp_path, good, path):
            if which == "latin1" and argv[-2:] == ["--out", str(path)]:
                continue  # a write replaces what it names, whatever its bytes
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}"), (argv, err)
            assert "Traceback" not in err


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
            ("model: {extractor: {use_chars: 'no'}}\n", "model.extractor.use_chars must be a boolean, got 'no'"),
            ("generator: {n_sentences: 4, subtypes: abc}\n", "generator.subtypes must be a list of strings, got 'abc'"),
            ("training: {stop_at_dev_f1: high}\n", "training.stop_at_dev_f1 must be a number or null, got 'high'"),
            ("out_dir: 5\n", "out_dir must be a string or null, got 5"),
            ("data: {train: 7}\n", "data.train must be a string or null, got 7"),
            ("training: {rho: x}\n", "training.rho must be a number, got 'x'"),
            ("model: {extractor: {dropout: true}}\n", "model.extractor.dropout must be a number, got True"),
            ("generator: {n_sentences: 4, proportions: [1, a]}\n", "generator.proportions must be a list of numbers"),
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("training: {rho: 2.0}\n", "rho must be in [0, 1), got 2.0"),
            ("training: {rho: 1.0}\n", "rho must be in [0, 1), got 1.0"),
            ("training: {rho: -0.5}\n", "rho must be in [0, 1), got -0.5"),
            ("training: {rho: .nan}\n", "rho must be in [0, 1), got nan"),
            ("training: {eps: 0}\n", "eps must be > 0, got 0"),
            ("training: {eps: -1}\n", "eps must be > 0, got -1"),
            ("training: {neg_ratio: .nan}\n", "neg_ratio must be a finite number >= 0, got nan"),
            ("training: {neg_ratio: .inf}\n", "neg_ratio must be a finite number >= 0, got inf"),
            ("training: {stop_at_dev_f1: .nan}\n", "stop_at_dev_f1 must be a finite number or null, got nan"),
            ("training: {stop_at_dev_f1: -.inf}\n", "stop_at_dev_f1 must be a finite number or null, got -inf"),
        ],
    )
    def test_out_of_range_training_values_fail_cleanly(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err
        # the schema rejects every such value that JSON can write
        section = yaml.load(text, Loader=yaml.SafeLoader)["training"]
        if all(math.isfinite(v) for v in section.values()):
            schema = json.loads((SCHEMA_DIR / "config.schema.json").read_text())
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({"training": section}, schema)

    @pytest.mark.parametrize("kind", KINDS)
    def test_resolved_config_reads_back(self, kind):
        # what `train` writes to resolved_config.json parses back to the same run, kind included
        extractor = {**SMALL_EXTRACTOR, "use_chars": kind != "wordwise", "hybrid_mode": "task_specific"}
        run = parse_run_config(
            {
                "model": {"kind": kind, "max_nugget_len": 2, "extractor": extractor},
                "training": {"epochs": 3, "stop_at_dev_f1": 0.9},
                "generator": {"n_sentences": 12, "subtypes": ["a", "b"], "proportions": [0.5, 0.25, 0.25], "seed": 4},
                "data": {"dev": "dev.jsonl"},
                "out_dir": "out",
            }
        )
        resolved = json.loads(json.dumps(run.to_json()))
        jsonschema.validate(resolved, json.loads((SCHEMA_DIR / "config.schema.json").read_text()))
        assert resolved["model"]["kind"] == kind
        assert parse_run_config(resolved) == run

    @pytest.mark.parametrize("text, value", [("1e-6", 1e-6), ("1.5e7", 1.5e7), ("2E+0", 2.0), ("3e2", 300.0)])
    def test_yaml_exponent_floats_are_numbers(self, tmp_path, text, value):
        # YAML 1.1 reads an exponent without a dot, or a dot with an unsigned exponent, as a string
        path = tmp_path / "run.yaml"
        path.write_text(f"training: {{eps: {text}}}\n", encoding="utf-8")
        eps = load_run_config(path).training.eps
        assert isinstance(eps, float) and eps == value
        assert yaml.safe_load(path.read_text(encoding="utf-8")) != {"training": {"eps": value}}

    def test_round_trip_through_yaml(self, tmp_path):
        path = tmp_path / "run.yaml"
        write_config(path, tmp_path / "out", tmp_path / "data", epochs=7)
        run = load_run_config(path)
        assert run.training.epochs == 7
        assert run.model.extractor.n_filters == SMALL_EXTRACTOR["n_filters"]
        assert run.train_path.endswith("train.jsonl")
