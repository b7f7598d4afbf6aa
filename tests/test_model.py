import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import nuggetnet.encoder as nencoder
import nuggetnet.model as nmodel
import nuggetnet.ndcore as ndcore
from nuggetnet.cli import main
from nuggetnet.corpus import UNK_ID, AnnotatedSentence, SubtypeInventory, build_vocab, save_corpus
from nuggetnet.decoder import decode_corpus
from nuggetnet.encoder import HybridMode
from nuggetnet.errors import CheckpointError, ConfigError, from_json
from nuggetnet.labels import num_nugget_classes
from nuggetnet.model import CharSpanModel, ModelConfig, _view_starts, head_scores, load_model
from nuggetnet.ndcore import ParamStore, adadelta_step, grad_check, load_checkpoint, save_checkpoint, softmax
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus

from util import KINDS, gate_specs, small_extractor, small_model, toy_corpus, widen_params


class TestModelConfig:
    def test_rejects_short_windows(self):
        with pytest.raises(ConfigError):
            ModelConfig(extractor=small_extractor(), max_tokens=2)
        with pytest.raises(ConfigError):
            ModelConfig(extractor=small_extractor(), max_nugget_len=0)

    def test_json_round_trip(self):
        config = ModelConfig(extractor=small_extractor(), max_nugget_len=4, max_tokens=80)
        assert from_json(ModelConfig, json.loads(json.dumps(asdict(config))), CheckpointError, "config") == config


class TestCenteredView:
    def test_short_sequence_is_untouched(self):
        npt.assert_array_equal(_view_starts(5, np.array([0, 3, 4]), 10), [0, 0, 0])

    def test_window_centers_on_char(self):
        (start,) = _view_starts(100, np.array([50]), 11)
        assert start == 45  # the view 45 .. 55 holds 50 at its middle

    def test_window_clamps_at_edges(self):
        npt.assert_array_equal(_view_starts(100, np.array([1, 98]), 11), [0, 89])


@pytest.fixture
def kernel_calls(monkeypatch):
    """(branch, the number of segments in each chunk) of every extract_branch call the model makes."""
    calls = []
    extract, chunks = nmodel.extract_branch, nencoder._chunks

    def counting(store, prefix, *args):
        calls.append((prefix, []))
        return extract(store, prefix, *args)

    def chunking(lengths, n_filters):
        bounds = chunks(lengths, n_filters)
        calls[-1][1].extend(np.diff(bounds).tolist())
        return bounds

    monkeypatch.setattr(nmodel, "extract_branch", counting)
    monkeypatch.setattr(nencoder, "_chunks", chunking)
    return calls


class TestCharSpanModel:
    def test_needs_subtypes(self):
        from nuggetnet.errors import CorpusValidationError

        with pytest.raises(CorpusValidationError):
            SubtypeInventory.from_corpus([])

    def test_head_shapes(self, corpus3):
        model = small_model(corpus3, max_nugget_len=3)
        assert model.store["head.nugget_w"].value.shape == (num_nugget_classes(3), 10) == (7, 10)
        assert model.store["head.type_w"].value.shape == (2, 10)

    def test_distributions_normalized(self, corpus3):
        model = small_model(corpus3)
        enc = model.encode_sentence(corpus3[0])
        pn, pt = model.char_distributions(enc, 2)
        assert pn.shape == (7,) and pt.shape == (2,)
        assert pn.sum() == pytest.approx(1.0) and pt.sum() == pytest.approx(1.0)
        assert np.all(pn > 0) and np.all(pt > 0)

    def test_training_streams_split(self, corpus3):
        from nuggetnet.labels import NuggetLabel

        model = small_model(corpus3)
        gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        assert all(inst.type_label is not None for inst in cls)
        n_pos = sum(inst.type_label is not None for inst in gen)
        assert n_pos == len(cls) == 6  # each in-nugget char feeds both heads
        negatives = [inst for inst in gen if inst.type_label is None]
        assert len(negatives) == 6
        assert all(inst.nugget_label is NuggetLabel.NIL for inst in negatives)

    def test_classifier_stream_requires_labels(self, corpus3):
        model = small_model(corpus3)
        gen, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        unlabeled = [inst for inst in gen if inst.type_label is None]
        with pytest.raises(ConfigError, match="subtype label"):
            model.loss_and_grads([], unlabeled[:1])

    def test_loss_gradients_all_modes(self, corpus3):
        for mode in ("concat", "general", "task_specific"):
            model = small_model(corpus3, mode=mode)
            widen_params(model.store)
            gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)

            def closure():
                return model.loss_and_grads(gen, cls)

            report = grad_check(closure, model.store, step=1e-4, tolerance=1e-4, rng_seed=7)
            assert report.passed, f"{mode}:\n{report.summary()}"

    def test_long_sentence_stays_within_budget(self):
        spec = GenSpec(
            n_sentences=4,
            subtypes=default_subtype_names(2),
            min_context_words=12,
            max_context_words=14,
        )
        corpus = generate_synthetic_corpus(spec, rng_seed=2)
        assert max(len(s.text) for s in corpus) > 20
        model = small_model(corpus, max_rel_dist=8)
        model.config = ModelConfig(extractor=model.config.extractor, max_tokens=20)
        predictions = model.predict_corpus(corpus)
        for s in corpus:
            for p in predictions[s.key]:
                assert 0 <= p.start and p.start + p.length <= len(s.text)

    def test_distributions_computed_once_per_encoding(self, corpus3, monkeypatch):
        # encode_sentence makes the sentence's one forward; char_distributions only indexes its rows
        model = small_model(corpus3)
        widen_params(model.store)
        forwards = []
        original = CharSpanModel._forward

        def counting(*args, **kwargs):
            forwards.append(kwargs.get("for_backward"))
            return original(*args, **kwargs)

        monkeypatch.setattr(CharSpanModel, "_forward", counting)
        enc = model.encode_sentence(corpus3[2])
        assert forwards == [False]
        rows = [model.char_distributions(enc, ci) for ci in range(len(corpus3[2].text))]
        assert forwards == [False]
        monkeypatch.undo()
        for ci, (pn, pt) in enumerate(rows):
            fwd = model._forward([corpus3[2].ids(model.vocab)], np.array([0]), np.array([ci]))
            npt.assert_allclose(pn, softmax(head_scores(model.store, "nugget", fwd.features["nugget"]))[0], atol=1e-15)
            npt.assert_allclose(pt, softmax(head_scores(model.store, "type", fwd.features["type"]))[0], atol=1e-15)

    def test_encoding_matches_lookups_one_at_a_time(self, corpus3):
        # the map and id arrays equal the per-character formula byte for byte, unknown tokens included
        model = small_model(corpus3)
        unknown = AnnotatedSentence("d", "u", "甲乙龘鱻丙", ((0, 1), (2, 3), (4, 4)), ())
        for sentence in [*corpus3, unknown]:
            ids = sentence.ids(model.vocab)
            n = len(sentence.text)
            expected = (
                [model.vocab.char_ids([c])[0] for c in sentence.text],
                [model.vocab.word_ids([w])[0] for w in sentence.words],
                [sentence.word_index_of(i) for i in range(n)],
            )
            for got, want in zip(ids, expected):
                assert got.dtype == np.int64 and got.tobytes() == np.array(want, dtype=np.int64).tobytes()
        assert ids[0].tolist().count(UNK_ID) == 2 and ids[1][1] == UNK_ID
        with pytest.raises(IndexError):
            unknown.word_index_of(5)

    def test_decode_reads_whole_rows(self, corpus3, monkeypatch):
        # the decoder takes every character's rows from one forward, not through the accessor
        calls = []
        for name in ("char_distributions", "_forward"):
            original = getattr(CharSpanModel, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(CharSpanModel, name, counting)
        model = small_model(corpus3)
        decode_corpus(model, [corpus3[2]])
        assert calls == ["_forward"]

    def test_encoding_is_a_snapshot_of_the_weights(self, corpus3):
        model = small_model(corpus3)
        enc = model.encode_sentence(corpus3[0])
        before = model.char_distributions(enc, 1)[0].copy()
        widen_params(model.store)
        npt.assert_array_equal(model.char_distributions(enc, 1)[0], before)
        fresh = model.char_distributions(model.encode_sentence(corpus3[0]), 1)[0]
        assert not np.allclose(fresh, before)

    def test_decode_makes_one_kernel_call_per_branch_and_view(self, kernel_calls):
        # a long sentence read through 8-token views: the segment count grows with the views, not the
        # characters, so the per-character path cannot come back unnoticed; each branch is one call,
        # and at 6 filters all its views fit one chunk's element budget
        spec = GenSpec(n_sentences=3, subtypes=default_subtype_names(2), min_context_words=12, max_context_words=14)
        corpus = generate_synthetic_corpus(spec, rng_seed=4)
        model = small_model(corpus, max_rel_dist=8)
        model.config = ModelConfig(extractor=model.config.extractor, max_tokens=8)
        sentence = max(corpus, key=lambda s: len(s.text))

        def n_views(n):
            return len(set(_view_starts(n, np.arange(n), 8).tolist()))

        model.predict_corpus([sentence])
        char_views, word_views = n_views(len(sentence.text)), n_views(len(sentence.words))
        assert char_views > 1 and word_views > 1
        assert kernel_calls == [("char", [char_views]), ("word", [word_views])]

    def test_short_sentences_share_kernel_calls(self, corpus3, kernel_calls):
        model = small_model(corpus3)  # max_tokens 40 holds the whole toy corpus
        gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        model.loss_and_grads(gen, cls)
        assert kernel_calls == [("char", [3]), ("word", [3])]

    def test_one_pooling_pass_per_kernel_call(self, corpus3, kernel_calls, monkeypatch):
        # every chunk's centers in one pass: the argmax when training, the values alone when decoding;
        # a budget of one element puts each sentence in a chunk of its own
        monkeypatch.setattr(nencoder, "_CALL_ELEMENTS", 1)
        pools = []
        for name in ("split_max_pool", "split_argmax"):
            original = getattr(nencoder, name)

            def counting(*args, _name=name, _original=original):
                pools.append(_name)
                return _original(*args)

            monkeypatch.setattr(nencoder, name, counting)
        model = small_model(corpus3)
        gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
        model.loss_and_grads(gen, cls)
        assert kernel_calls == [("char", [1, 1, 1]), ("word", [1, 1, 1])]
        assert pools == ["split_argmax"] * 6
        kernel_calls.clear()
        pools.clear()
        model.predict_corpus([corpus3[2]])
        assert kernel_calls == [("char", [1]), ("word", [1])]
        assert pools == ["split_max_pool"] * 2

    def test_save_load_round_trip(self, tmp_path, corpus3):
        model = small_model(corpus3)
        widen_params(model.store)
        path = tmp_path / "model.ckpt"
        model.save(path, trainer_state={"epoch": 2})
        loaded, meta = load_model(path)
        assert type(loaded) is CharSpanModel
        assert meta["trainer_state"]["epoch"] == 2
        assert loaded.config == model.config
        assert loaded.subtypes.names == model.subtypes.names
        for name in model.store.names():
            npt.assert_array_equal(loaded.store[name].value, model.store[name].value)
        enc_a = model.encode_sentence(corpus3[0])
        enc_b = loaded.encode_sentence(corpus3[0])
        npt.assert_array_equal(
            model.char_distributions(enc_a, 1)[0], loaded.char_distributions(enc_b, 1)[0]
        )

    def test_load_model_dispatch_and_unknown_kind(self, tmp_path, corpus3):
        model = small_model(corpus3)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded, _ = load_model(path)
        assert isinstance(loaded, CharSpanModel)

        bogus = tmp_path / "bogus.ckpt"
        save_checkpoint(bogus, ParamStore([]), {"kind": "mystery"})
        with pytest.raises(CheckpointError, match="mystery"):
            load_model(bogus)


@pytest.mark.parametrize("kind", KINDS)
def test_argmax_only_when_training(corpus3, monkeypatch, kind):
    # prediction needs the pooled values only; a training step finds each argmax once, for its backward pass
    calls = []
    for module, name in ((nencoder, "split_argmax"), (nmodel, "branch_backward")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    model = small_model(corpus3, kind=kind)
    model.predict_corpus(corpus3)
    assert calls == []
    stream_a, stream_b = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
    model.loss_and_grads(stream_a, stream_b)
    assert calls.count("split_argmax") == calls.count("branch_backward") > 0


def spy_fusion(monkeypatch):
    """Calls of encoder._gate (scope, char rows, word rows), model.fuse (branch features, parts), head_scores (head, rows)."""
    calls = {"gate": [], "fuse": [], "head": []}
    gate, fuse, head_scores = nencoder._gate, nmodel.fuse, nmodel.head_scores

    def gate_spy(store, scope, fp_char, fp_word):
        calls["gate"].append((scope, fp_char, fp_word))
        return gate(store, scope, fp_char, fp_word)

    def fuse_spy(store, config, fp, parts):
        calls["fuse"].append((fp, parts))
        return fuse(store, config, fp, parts)

    def head_spy(store, head, features):
        calls["head"].append((head, features.shape[0]))
        return head_scores(store, head, features)

    monkeypatch.setattr(nencoder, "_gate", gate_spy)
    monkeypatch.setattr(nmodel, "fuse", fuse_spy)
    monkeypatch.setattr(nmodel, "head_scores", head_spy)
    return calls


def test_each_task_gate_and_head_reads_only_its_streams_rows(corpus3, monkeypatch):
    model = small_model(corpus3, mode=HybridMode.TASK_SPECIFIC)
    gen, cls = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
    gen, cls = gen[:7], cls[:3]  # span rows 0-6, subtype rows 7-9
    calls = spy_fusion(monkeypatch)
    model.loss_and_grads(gen, cls)
    ((fp, _),) = calls["fuse"]
    assert fp["char"].shape[0] == 10
    assert [scope for scope, _, _ in calls["gate"]] == ["fuse.nugget", "fuse.type"]
    for (_, gate_char, gate_word), rows in zip(calls["gate"], (slice(None, 7), slice(7, None))):
        npt.assert_array_equal(gate_char, fp["char"][rows])
        npt.assert_array_equal(gate_word, fp["word"][rows])
    assert calls["head"] == [("nugget", 7), ("type", 3)]


@pytest.mark.parametrize("mode", list(HybridMode))
@pytest.mark.parametrize("kind", KINDS)
def test_each_gate_scope_runs_once_per_training_forward(corpus3, monkeypatch, kind, mode):
    # a gate that one head reads runs on that head's rows, one that every head reads on every row; concat
    # and the word classifier's lone branch run none
    model = small_model(corpus3, mode=mode, kind=kind)
    stream_a, stream_b = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
    stream_a, stream_b = stream_a[:7], stream_b[:3]  # the first stream's rows 0-6, the second's 7-9
    calls = spy_fusion(monkeypatch)
    model.loss_and_grads(stream_a, stream_b)
    ((fp, _),) = calls["fuse"]
    every = slice(None)
    expected = {
        ("proposal", HybridMode.GENERAL): [("fuse", every)],
        ("proposal", HybridMode.TASK_SPECIFIC): [("fuse.nugget", slice(None, 7)), ("fuse.type", slice(7, None))],
        ("iob", HybridMode.GENERAL): [("fuse", every)],
        ("iob", HybridMode.TASK_SPECIFIC): [("fuse.tag", every)],
    }.get((kind, mode), [])
    assert [scope for scope, _, _ in calls["gate"]] == [scope for scope, _ in expected]
    for (_, gate_char, gate_word), (_, rows) in zip(calls["gate"], expected):
        npt.assert_array_equal(gate_char, fp["char"][rows])
        npt.assert_array_equal(gate_word, fp["word"][rows])


def test_iob_runs_no_type_gate(corpus3, monkeypatch):
    # one head, one gate: the store holds fuse.tag and no gate of the proposal model's heads
    model = small_model(corpus3, mode=HybridMode.TASK_SPECIFIC, kind="iob")
    gates = [name for name in model.store.names() if name.startswith("fuse")]
    assert gates == ["fuse.tag.gate_w_char", "fuse.tag.gate_w_word", "fuse.tag.gate_b"]
    stream, _ = model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0)
    calls = spy_fusion(monkeypatch)
    model.loss_and_grads(stream, (), np.random.default_rng(0))
    model.predict_corpus(corpus3)
    assert {scope for scope, _, _ in calls["gate"]} == {"fuse.tag"}
    assert {head for head, _ in calls["head"]} == {"tag"}


# every kind in every hybrid mode, and a proposal model with one branch
STORE_CASES = [pytest.param(kind, mode, {}, id=f"{kind}-{mode.value}") for kind in KINDS for mode in HybridMode] + [
    pytest.param("proposal", HybridMode.TASK_SPECIFIC, {"use_words": False}, id="proposal-chars-only")
]


@pytest.mark.parametrize("kind, mode, overrides", STORE_CASES)
def test_every_stored_tensor_gets_a_gradient(corpus3, kind, mode, overrides):
    # a tensor that is stored but never read would get none: each step updates it, each checkpoint keeps it
    model = small_model(corpus3, mode=mode, kind=kind, **overrides)
    widen_params(model.store)
    model.loss_and_grads(*model.training_streams(corpus3, neg_ratio=1.0, rng_seed=0))
    assert [name for name, p in model.store.items() if not p.grad.any()] == []


def parent_layout_iob_checkpoint(tmp_path, corpus) -> Path:
    """A task_specific iob checkpoint as written before a one-head kind held one gate: fuse.nugget and fuse.type, no fuse.tag."""
    model = small_model(corpus, mode=HybridMode.TASK_SPECIFIC, kind="iob")
    path = tmp_path / "two-gates.ckpt"
    meta = saved_meta(model, path)
    d = model.config.extractor.proj_dim
    specs = []
    for name, p in model.store.items():
        if name == "fuse.tag.gate_w_char":
            specs += gate_specs(d)[3:]  # fuse.nugget's three tensors, then fuse.type's
        if not name.startswith("fuse.tag."):
            specs.append((name, p.value.shape, "glorot"))
    save_checkpoint(path, ParamStore(specs, 1), meta)
    return path


def test_a_checkpoint_with_the_two_task_gates_of_a_one_head_kind_is_refused(tmp_path, corpus3):
    path = parent_layout_iob_checkpoint(tmp_path, corpus3)
    assert {"fuse.nugget.gate_b", "fuse.type.gate_b"} <= {name for name, _ in load_checkpoint(path)[1][0]}
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == (
        f"{path}: tensor list differs at entry 12: "
        "checkpoint 'fuse.nugget.gate_w_char' (10, 10), model 'fuse.tag.gate_w_char' (10, 10)"
    )


def test_predict_refuses_the_two_task_gates_of_a_one_head_kind_in_one_line(tmp_path, corpus3, capsys):
    path = parent_layout_iob_checkpoint(tmp_path, corpus3)
    save_corpus(tmp_path / "in.jsonl", corpus3)
    capsys.readouterr()
    rc = main(["predict", "--model", str(path), "--input", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (
        f"error: {path}: tensor list differs at entry 12: "
        "checkpoint 'fuse.nugget.gate_w_char' (10, 10), model 'fuse.tag.gate_w_char' (10, 10)\n"
    )
    assert not (tmp_path / "p.jsonl").exists()


def char_id(new_id):
    """A metadata edit: the first character of the vocabulary gets id new_id."""

    def edit(vocab):
        first = next(iter(vocab["chars"]))
        return {**vocab, "chars": {**vocab["chars"], first: new_id}}

    edit.__name__ = f"char_id_{new_id}"
    return edit


def set_at(path, value):
    """A metadata edit: the entry at the dotted path inside the field is set to value, or added."""
    *parents, leaf = path.split(".")

    def edit(section):
        section = json.loads(json.dumps(section))
        node = section
        for key in parents:
            node = node[key]
        node[leaf] = value
        return section

    edit.__name__ = f"{path}={value!r}"
    edit.key = leaf
    return edit


def saved_meta(model, path) -> dict:
    model.save(path)
    return load_checkpoint(path)[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "field, value",
    [
        ("config", None),
        ("vocab", None),
        ("subtypes", None),
        ("config", 3),
        ("vocab", [1]),
        ("vocab", {"chars": [1], "words": {}, "max_rel_dist": 12}),
        ("subtypes", 3),
        ("subtypes", "xy"),  # as many characters as the model has subtypes
        ("subtypes", ["x", 7]),
        ("rng_seed", "abc"),
        ("rng_seed", [1]),
        ("vocab", char_id(10**6)),  # past the embedding table
        ("vocab", char_id(-5)),  # would read another row of it
        ("config", set_at("extractor.n_filters", 8.5)),
        ("config", set_at("extractor.n_filters", True)),
        ("config", set_at("max_nugget_len", 3.0)),
        ("config", set_at("extractor.use_chars", "yes")),
        ("config", set_at("extractor.filterz", 8)),
        ("vocab", set_at("max_rel_dist", 40.5)),
        ("rng_seed", -1),  # numpy's generators take no negative seed
    ],
)
def test_bad_metadata_names_file(tmp_path, corpus3, kind, field, value):
    # a checkpoint whose CRC holds but whose metadata does not describe a model: no bare KeyError or TypeError
    model = small_model(corpus3, kind=kind)
    path = tmp_path / "bad.ckpt"
    meta = saved_meta(model, path)
    if value is None:
        del meta[field]
    else:
        meta[field] = value(meta[field]) if callable(value) else value
    save_checkpoint(path, model.store, meta)
    with pytest.raises(CheckpointError, match="bad model metadata") as info:
        load_model(path)
    assert str(path) in str(info.value)
    if hasattr(value, "key"):  # checked as strictly as a run file's field: the message names it
        assert f"{field}." in str(info.value) and value.key in str(info.value)


def test_repeated_subtype_is_bad_metadata(tmp_path, corpus3):
    # the inventory would keep one "x" and the load fail later, on head.type_w's shape
    model = small_model(corpus3)
    path = tmp_path / "twice.ckpt"
    meta = saved_meta(model, path)
    assert len(meta["subtypes"]) == 2
    save_checkpoint(path, model.store, {**meta, "subtypes": ["x", "x"]})
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: bad model metadata: subtypes lists 'x' twice"


def test_a_checkpoint_with_an_unbounded_max_rel_dist_is_refused_before_a_model_is_built(tmp_path, monkeypatch):
    # the position tables would take 2 * 10^8 + 1 rows a branch: the bound refuses the metadata first
    monkeypatch.setattr(nmodel.CharEncoderBase, "__init__", lambda *args, **kwargs: pytest.fail("a model was built"))
    config = asdict(ModelConfig())
    config["extractor"]["max_rel_dist"] = 100_000_000
    vocab = build_vocab(toy_corpus(), max_rel_dist=100_000_000).to_json()
    path = tmp_path / "wide.ckpt"
    save_checkpoint(path, ParamStore([]), {"kind": "proposal", "config": config, "vocab": vocab, "subtypes": ["x"]})
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: bad model metadata: config.extractor.max_rel_dist must be in [1, 65536), got 100000000"


def test_tensor_mismatch_names_file(tmp_path, corpus3):
    model = small_model(corpus3)
    path = tmp_path / "headless.ckpt"
    save_checkpoint(path, ParamStore([]), saved_meta(model, path))
    first = model.store.names()[0]
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    shape = model.store[first].value.shape
    assert str(info.value) == f"{path}: tensor list differs at entry 0: checkpoint end of list, model {first!r} {shape}"


def swap_first_two(specs):
    return [specs[1], specs[0], *specs[2:]]


def drop_third(specs):
    return specs[:2] + specs[3:]


def add_extra(specs):
    return [*specs, ("extra", (2,), "zeros")]


def widen_third(specs):
    name, shape, init = specs[2]
    return [*specs[:2], (name, (*shape[:-1], shape[-1] + 1), init), *specs[3:]]


@pytest.mark.parametrize(
    "edit, entry",
    [(swap_first_two, 0), (drop_third, 2), (add_extra, None), (widen_third, 2)],
    ids=["reordered", "missing", "unknown", "misshapen"],
)
def test_a_checkpoint_unlike_the_models_tensor_list_is_refused(tmp_path, corpus3, edit, entry):
    # one line naming the file and the first entry where the file's (name, shape) list and the model's differ
    model = small_model(corpus3)
    path = tmp_path / "other.ckpt"
    meta = saved_meta(model, path)
    listed = [(name, p.value.shape, "zeros") for name, p in model.store.items()]
    stored = edit(listed)
    save_checkpoint(path, ParamStore(stored), meta)
    entry = len(listed) if entry is None else entry

    def side(specs):
        return f"{specs[entry][0]!r} {specs[entry][1]}" if entry < len(specs) else "end of list"

    for optimizer_state in (False, True):
        with pytest.raises(CheckpointError) as info:
            load_model(path, optimizer_state=optimizer_state)
        assert str(info.value) == f"{path}: tensor list differs at entry {entry}: checkpoint {side(stored)}, model {side(listed)}"


def test_a_checkpoint_claiming_a_far_larger_model_fails_before_allocating_it(tmp_path, corpus3):
    # the metadata describes a model of over 6 * 10^6 parameters (49 MB of values); the file holds the small model's
    model = small_model(corpus3)
    path = tmp_path / "claims.ckpt"
    meta = saved_meta(model, path)
    meta["config"]["extractor"]["proj_dim"] = 1000
    meta["config"]["extractor"]["n_filters"] = 1000
    save_checkpoint(path, model.store, meta)
    file_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=r"^.*claims\.ckpt: tensor list differs at entry \d+: "):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < file_bytes + ndcore._READ_BUFFER + (1 << 20)


class TestInferenceFootprint:
    """A model loaded for inference holds its weights alone; one loaded to resume holds its optimizer state too."""

    STATE = ("grad", "eg2", "edx2")

    @pytest.fixture
    def trained(self, tmp_path, corpus3):
        """A model after three Adadelta steps, so that its optimizer state is nonzero, and its checkpoint."""
        model = small_model(corpus3)
        gen, cls = model.training_streams(corpus3)
        for _ in range(3):
            model.loss_and_grads(gen[:8], cls[:8])
            adadelta_step(model.store)
        assert any(np.any(p.eg2) for _, p in model.store.items())
        path = tmp_path / "model.ckpt"
        model.save(path, trainer_state={"epoch": 0})
        return model, path

    @staticmethod
    def traced_peak(load):
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_inference_load_holds_only_weights(self, trained):
        model, path = trained
        loaded, _ = load_model(path)
        assert [k for k in self.STATE if loaded.store.held(k) is not None] == []
        for name, p in loaded.store.items():
            npt.assert_array_equal(p.value, model.store[name].value)
        assert not loaded.store.has_optimizer_state()
        loaded.predict_corpus(toy_corpus())  # inference allocates none either
        assert all(loaded.store.held(k) is None for k in self.STATE)

    def test_inference_load_peak(self, trained, tmp_path, monkeypatch):
        # one copy of the values, the read buffer and what reading the metadata costs: never the whole file
        model, path = trained
        monkeypatch.setattr(ndcore, "_READ_BUFFER", 1 << 14)  # smaller than the file, as at the default size
        values = sum(p.value.nbytes for _, p in model.store.items())
        meta_only = tmp_path / "meta.ckpt"
        save_checkpoint(meta_only, ParamStore([]), load_checkpoint(path)[0])
        load_model(path)  # first-call caches do not count
        bound = values + ndcore._READ_BUFFER + self.traced_peak(lambda: load_checkpoint(meta_only))
        assert ndcore._READ_BUFFER < path.stat().st_size
        assert self.traced_peak(lambda: load_model(path)) <= bound
        # the resume load copies two more records per tensor, and the bound sees them
        assert self.traced_peak(lambda: load_model(path, optimizer_state=True)) > bound

    def test_loaded_model_keeps_the_checkpoints_arrays(self, trained, monkeypatch):
        # the value arena is the array load_checkpoint read the values into, not a copy, bit for bit the saved one
        model, path = trained
        read = []

        def recording(*args, **kwargs):
            read.append(load_checkpoint(*args, **kwargs))
            return read[-1]

        monkeypatch.setattr(nmodel, "load_checkpoint", recording)
        loaded, _ = load_model(path)
        arena = loaded.store.arena("value")
        assert read[0][1][1]["value"] is arena
        assert all(p.value.base is arena for _, p in loaded.store.items())
        assert arena.tobytes() == model.store.arena("value").tobytes()

    def test_load_and_predict_never_import_numpy_random(self, trained, tmp_path):
        # a store built from a checkpoint draws nothing, so its Generator is never made
        _, path = trained
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(corpus, toy_corpus())
        script = (
            "import sys\n"
            "from nuggetnet.corpus import load_corpus\n"
            "from nuggetnet.model import load_model\n"
            f"model, _ = load_model({str(path)!r})\n"
            f"predictions = model.predict_corpus(load_corpus({str(corpus)!r}))\n"
            "assert len(predictions) == 3, predictions\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = str(Path(nmodel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_resume_round_trip_restores_the_arenas(self, trained, corpus3):
        # the loaded model's arenas equal the saved model's, and both take the same next step
        model, path = trained
        loaded, _ = load_model(path, optimizer_state=True)
        for kind in ("value", "eg2", "edx2"):
            assert loaded.store.arena(kind).tobytes() == model.store.arena(kind).tobytes(), kind
        gen, cls = model.training_streams(corpus3)
        for m in (model, loaded):
            m.loss_and_grads(gen[:8], cls[:8])
            adadelta_step(m.store)
        for kind in ("value", "grad", "eg2", "edx2"):
            assert loaded.store.arena(kind).tobytes() == model.store.arena(kind).tobytes(), kind

    def test_resume_load_restores_state_bit_for_bit(self, trained):
        model, path = trained
        loaded, _ = load_model(path, optimizer_state=True)
        assert loaded.store.has_optimizer_state()
        for name, p in model.store.items():
            for kind in ("value", "eg2", "edx2"):
                assert getattr(loaded.store[name], kind).tobytes() == getattr(p, kind).tobytes(), (name, kind)
        assert loaded.store.held("grad") is None
