"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line with
its runtime so the suite output doubles as the acceptance report.  Budgets
are wall-clock upper bounds; the checks themselves pin exact tolerances.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from nuggetnet.corpus import AnnotatedSentence, MatchType, SubtypeInventory, TriggerNugget, build_vocab
from nuggetnet.decoder import Prediction, decode_sentence
from nuggetnet.encoder import ExtractorConfig, HybridMode, fuse
from nuggetnet.evaluate import ScoreMode, recall_by_match_type, score
from nuggetnet.labels import decode_label, label_for, label_to_class, num_nugget_classes
from nuggetnet.model import MODEL_CLASSES, ModelConfig
from nuggetnet.ndcore import ParamStore, grad_check
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus
from nuggetnet.train import TRAIN_LOG, BEST_CHECKPOINT, LAST_CHECKPOINT, TrainConfig, evaluate_model, train

from decode_reference import decode_oracle
from util import small_model, toy_corpus, widen_params

README = Path(__file__).resolve().parents[1] / "README.md"


def _report(capsys, label, ok, detail, elapsed, budget):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget:.0f}s"


def wide_extractor(**overrides):
    base = dict(
        token_emb_dim=24,
        pos_emb_dim=4,
        n_filters=32,
        window=3,
        lex_window=1,
        proj_dim=48,
        max_rel_dist=12,
        hybrid_mode=HybridMode.TASK_SPECIFIC,
    )
    base.update(overrides)
    return ExtractorConfig(**base)


def build_model(corpus, kind="proposal", rng_seed=1, **extractor_overrides):
    vocab = build_vocab(corpus, max_rel_dist=extractor_overrides.get("max_rel_dist", 12))
    subtypes = SubtypeInventory.from_corpus(corpus)
    config = ModelConfig(extractor=wide_extractor(**extractor_overrides), max_tokens=60)
    return MODEL_CLASSES[kind](config, vocab, subtypes, rng_seed=rng_seed)


def test_published_results_documented_as_out_of_scope(capsys):
    t0 = time.perf_counter()
    text = README.read_text(encoding="utf-8") if README.exists() else ""
    needs = ["ACE 2005", "licensed", "synthetic"]
    missing = [k for k in needs if k.lower() not in text.lower()]
    adapter_documented = "jsonl" in text.lower() and "schema" in text.lower()
    ok = README.exists() and not missing and adapter_documented
    detail = (
        "README explains the licensed-corpus limitation and the JSONL adapter path"
        if ok
        else f"README missing: {missing or 'adapter instructions'}"
    )
    _report(capsys, "published-benchmarks-out-of-scope", ok, detail, time.perf_counter() - t0, 5)


def test_label_space_arithmetic(capsys):
    t0 = time.perf_counter()
    ok = True
    detail_parts = []
    for max_len in range(1, 6):
        # independent enumeration: NIL plus every (length, position) pair
        enumerated = 1 + sum(1 for length in range(1, max_len + 1) for _ in range(1, length + 1))
        closed_form = (max_len * max_len + max_len) // 2 + 1
        ok &= num_nugget_classes(max_len) == enumerated == closed_form
        classes = {0}
        for length in range(1, max_len + 1):
            for position in range(1, length + 1):
                trig = TriggerNugget(0, length, "t")
                cls = label_to_class(label_for(trig, position - 1), max_len)
                lab = decode_label(cls, max_len)
                ok &= (lab.length, lab.position) == (length, position)
                classes.add(cls)
        ok &= classes == set(range(enumerated))
        detail_parts.append(f"L={max_len}:{enumerated}")
    ok &= num_nugget_classes(3) == 7
    _report(capsys, "label-space-arithmetic", ok, " ".join(detail_parts), time.perf_counter() - t0, 1)


def test_gradient_fidelity_all_fusion_modes(capsys):
    t0 = time.perf_counter()
    corpus = toy_corpus()
    worst = 0.0
    failures = []
    for mode in HybridMode:
        model = small_model(corpus, mode=mode, max_rel_dist=10)
        widen_params(model.store)
        gen, cls = model.training_streams(corpus, neg_ratio=1.0, rng_seed=0)

        def closure():
            return model.loss_and_grads(gen, cls)

        report = grad_check(closure, model.store, step=1e-4, tolerance=1e-4, coords_per_param=4, rng_seed=0)
        worst = max(worst, max(e.max_rel_err for e in report.entries))
        if not report.passed:
            failures.append(f"{mode.value}:\n{report.summary()}")
    ok = not failures
    detail = f"3 modes, every tensor, worst rel err {worst:.2e} <= 1e-4" if ok else "; ".join(failures)
    _report(capsys, "gradient-fidelity", ok, detail, time.perf_counter() - t0, 120)


def test_decoder_matches_oracle(capsys):
    t0 = time.perf_counter()

    # constructed instance: char 0 proposes the whole "受了伤" span, char 1
    # stays NIL, char 2 proposes "伤"; both nuggets must come out
    from types import SimpleNamespace

    class Scripted:
        subtypes = SubtypeInventory(("Injure",))
        config = SimpleNamespace(max_nugget_len=3)

        def encode_sentence(self, sentence):
            return sentence

        rows = (
            ([0.1, 0.0, 0.0, 0.0, 0.9, 0.0, 0.0], [1.0]),
            ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0]),
            ([0.2, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0]),
        )

        def distributions(self, enc):
            pn, pt = zip(*self.rows)
            return np.array(pn), np.array(pt)

        def char_distributions(self, enc, ci):
            pn, pt = self.rows[ci]
            return np.array(pn), np.array(pt)

    sentence = AnnotatedSentence("d", "s0", "受了伤", ((0, 0), (1, 1), (2, 2)), ())
    got = decode_sentence(Scripted(), sentence, Scripted().distributions(sentence))
    expect = [
        Prediction(0, 3, "Injure", math.log(0.9)),
        Prediction(2, 1, "Injure", math.log(0.8)),
    ]
    ok = got == expect and decode_oracle(Scripted(), sentence) == expect

    spec = GenSpec(
        n_sentences=20,
        subtypes=default_subtype_names(2),
        max_context_words=1,
        n_distractor_words=8,
    )
    checked = 0
    mismatches = 0
    modes = list(HybridMode)
    for seed in range(10):
        corpus = generate_synthetic_corpus(spec, rng_seed=seed)
        model = small_model(corpus, mode=modes[seed % 3], rng_seed=seed, max_rel_dist=12)
        widen_params(model.store, scale=0.8, rng_seed=100 + seed)
        for sentence in corpus:
            assert len(sentence.text) <= 12
            if model.predict_corpus([sentence])[sentence.key] != decode_oracle(model, sentence):
                mismatches += 1
            checked += 1
    ok = ok and checked == 200 and mismatches == 0
    detail = f"worked example + {checked} random model/sentence pairs, {mismatches} mismatches"
    _report(capsys, "decoder-oracle-equivalence", ok, detail, time.perf_counter() - t0, 30)


def test_overfit_tiny_corpus(capsys):
    t0 = time.perf_counter()
    spec = GenSpec(n_sentences=20, subtypes=default_subtype_names(4))
    corpus = generate_synthetic_corpus(spec, rng_seed=7)
    model = build_model(corpus, rng_seed=1)
    config = TrainConfig(
        epochs=200, batch_size=32, neg_ratio=5.0, patience=200, rng_seed=5, stop_at_dev_f1=1.0
    )
    result = train(model, corpus, corpus, config)
    ok = result.best_dev_f1 == 1.0 and result.epochs_run <= 200
    detail = f"train F1 {result.best_dev_f1:.3f} after {result.epochs_run} epochs (default Adadelta)"
    _report(capsys, "overfit-check", ok, detail, time.perf_counter() - t0, 120)


def test_structural_mismatch_reproduction(capsys):
    t0 = time.perf_counter()
    spec = GenSpec(
        n_sentences=2500,
        subtypes=default_subtype_names(4),
        proportions=(0.60, 0.30, 0.10),
    )
    corpus = generate_synthetic_corpus(spec, rng_seed=11)
    train_set, dev_set, test_set = corpus[:2000], corpus[2000:2250], corpus[2250:]

    fast = dict(batch_size=32, neg_ratio=5.0, patience=200, rng_seed=5)
    proposal_model = build_model(train_set, "proposal", rng_seed=1)
    train(proposal_model, train_set, dev_set, TrainConfig(epochs=15, stop_at_dev_f1=0.98, **fast))
    iob = build_model(train_set, "iob", rng_seed=1)
    train(iob, train_set, dev_set, TrainConfig(epochs=15, stop_at_dev_f1=0.98, **fast))
    wordwise = build_model(train_set, "wordwise", rng_seed=1, use_chars=False, use_words=True)
    train(wordwise, train_set, dev_set, TrainConfig(epochs=2, **fast))

    def id_recalls(model):
        preds = model.predict_corpus(test_set)
        by_type = recall_by_match_type(test_set, preds, ScoreMode.IDENTIFICATION)
        f1 = score(test_set, preds, ScoreMode.IDENTIFICATION).f1
        return by_type, f1

    ww_by_type, _ = id_recalls(wordwise)
    prop_by_type, prop_f1 = id_recalls(proposal_model)
    iob_by_type, _ = id_recalls(iob)

    ww_part = ww_by_type[MatchType.PART_OF_WORD]
    ww_cross = ww_by_type[MatchType.CROSS_WORDS]
    prop_part = prop_by_type[MatchType.PART_OF_WORD].recall
    prop_cross = prop_by_type[MatchType.CROSS_WORDS].recall
    iob_part = iob_by_type[MatchType.PART_OF_WORD].recall

    ok = (
        ww_part.n_matched == 0
        and ww_cross.n_matched == 0
        and ww_part.n_gold > 0
        and ww_cross.n_gold > 0
        and prop_part >= 0.5
        and prop_cross >= 0.5
        and prop_f1 >= 0.8
    )
    if prop_part < iob_part:
        warnings.warn(
            f"soft check: expected part-of-word recall ordering proposal >= iob, "
            f"got {prop_part:.3f} < {iob_part:.3f}"
        )
    detail = (
        f"wordwise part/cross recall 0/{ww_part.n_gold} and 0/{ww_cross.n_gold} (structural); "
        f"proposal part {prop_part:.2f} cross {prop_cross:.2f} idF1 {prop_f1:.2f}; "
        f"iob part {iob_part:.2f}"
    )
    _report(capsys, "structural-mismatch", ok, detail, time.perf_counter() - t0, 900)


def test_determinism_byte_identical(capsys, tmp_path):
    t0 = time.perf_counter()
    spec = GenSpec(
        n_sentences=8,
        subtypes=default_subtype_names(2),
        max_context_words=2,
        n_distractor_words=6,
    )
    corpus = generate_synthetic_corpus(spec, rng_seed=1)
    config = TrainConfig(epochs=2, batch_size=8, neg_ratio=2.0, rng_seed=3)
    reports = []
    for name in ("a", "b"):
        model = small_model(corpus, rng_seed=5, max_rel_dist=20)
        train(model, corpus, corpus, config, out_dir=tmp_path / name)
        scores = evaluate_model(model, corpus)
        preds = model.predict_corpus(corpus)
        reports.append(
            (
                scores,
                score(corpus, preds, ScoreMode.CLASSIFICATION).to_json(),
                *(
                    (tmp_path / name / f).read_bytes()
                    for f in (BEST_CHECKPOINT, LAST_CHECKPOINT, TRAIN_LOG)
                ),
            )
        )
    ok = reports[0] == reports[1]
    detail = "two identical runs: checkpoints, logs and metric reports byte-identical"
    _report(capsys, "determinism", ok, detail, time.perf_counter() - t0, 120)


def test_eval_correctness(capsys):
    t0 = time.perf_counter()
    corpus = [
        AnnotatedSentence(
            "d",
            "s0",
            "甲乙丙丁戊",
            ((0, 4),),
            (TriggerNugget(0, 2, "a"), TriggerNugget(3, 1, "b")),
        )
    ]
    hand = {
        ("d", "s0"): [
            Prediction(0, 2, "a", -0.1),  # correct
            Prediction(1, 2, "a", -0.2),  # wrong span
            Prediction(3, 1, "a", -0.3),  # right span, wrong subtype
        ]
    }
    r = score(corpus, hand, ScoreMode.CLASSIFICATION)
    ok = (
        (r.n_pred, r.n_gold, r.n_correct) == (3, 2, 1)
        and r.precision == pytest.approx(1 / 3)
        and r.recall == pytest.approx(1 / 2)
        and r.f1 == pytest.approx(0.4)
    )

    identity = {("d", "s0"): [Prediction(t.start, t.length, t.subtype, -1.0) for t in corpus[0].triggers]}
    for mode in ScoreMode:
        ok &= score(corpus, identity, mode).f1 == 1.0

    rng = np.random.default_rng(0)
    for _ in range(50):
        preds = []
        for i in range(int(rng.integers(0, 7))):
            start = int(rng.integers(0, 5))
            length = int(rng.integers(1, 6 - start))
            subtype = ["a", "b", "c"][int(rng.integers(3))]
            preds.append(Prediction(start, length, subtype, -float(i)))
        mapping = {("d", "s0"): preds}
        r_id = score(corpus, mapping, ScoreMode.IDENTIFICATION)
        r_cls = score(corpus, mapping, ScoreMode.CLASSIFICATION)
        ok &= r_id.f1 >= r_cls.f1
    detail = "hand example P=1/3 R=1/2 F1=0.4, identity case, id F1 >= cls F1 on 50 random sets"
    _report(capsys, "eval-correctness", ok, detail, time.perf_counter() - t0, 1)


def test_hybrid_mode_algebra(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    ok = True
    dims = []
    for _ in range(10):
        d = int(rng.integers(3, 65))
        dims.append(d)
        cfg = ExtractorConfig(
            token_emb_dim=4, pos_emb_dim=2, n_filters=3, proj_dim=d, hybrid_mode=HybridMode.GENERAL
        )
        store = ParamStore(int(rng.integers(1 << 30)))
        for scope in ("fuse", "fuse.nugget", "fuse.type"):
            store.add(f"{scope}.gate_w_char", (d, d), init="glorot")
            store.add(f"{scope}.gate_w_word", (d, d), init="glorot")
            store.add(f"{scope}.gate_b", (d,), init="zeros")
        a, b = rng.normal(size=d), rng.normal(size=d)

        # saturated gate picks one branch outright
        store["fuse.gate_w_char"].value[...] = 0.0
        store["fuse.gate_w_word"].value[...] = 0.0
        store["fuse.gate_b"].value[...] = 60.0
        ok &= np.allclose(fuse(store, cfg, a, b).f_nugget, a, atol=1e-12)
        store["fuse.gate_b"].value[...] = -60.0
        ok &= np.allclose(fuse(store, cfg, a, b).f_nugget, b, atol=1e-12)

        # zero pre-activation mixes the branches evenly
        store["fuse.gate_b"].value[...] = 0.0
        ok &= np.allclose(fuse(store, cfg, a, b).f_nugget, (a + b) / 2, atol=1e-12)

        # equal branch features pass through under any gate weights
        widen_params(store, scale=0.5, rng_seed=int(rng.integers(1 << 30)))
        ok &= np.allclose(fuse(store, cfg, a, a.copy()).f_nugget, a, atol=1e-12)

        # gated output stays inside the envelope of the two branches
        cache = fuse(store, cfg, a, b)
        lo, hi = np.minimum(a, b) - 1e-12, np.maximum(a, b) + 1e-12
        ok &= bool(np.all(cache.f_nugget >= lo) and np.all(cache.f_nugget <= hi))

        # per-task gates each satisfy the same convexity on their own output
        cfg_ts = ExtractorConfig(
            token_emb_dim=4,
            pos_emb_dim=2,
            n_filters=3,
            proj_dim=d,
            hybrid_mode=HybridMode.TASK_SPECIFIC,
        )
        cache = fuse(store, cfg_ts, a, b)
        for f in (cache.f_nugget, cache.f_type):
            ok &= bool(np.all(f >= lo) and np.all(f <= hi))
    detail = f"saturation, midpoint, pass-through and convexity at dims {sorted(set(dims))}"
    _report(capsys, "hybrid-mode-algebra", ok, detail, time.perf_counter() - t0, 10)
