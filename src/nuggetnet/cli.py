"""Command line entry points.

    nuggetnet gen-data --out runs/data --n-sentences 2000 --seed 7
    nuggetnet train --config run.yaml
    nuggetnet predict --model runs/exp/best.ckpt --input test.jsonl --out preds.jsonl
    nuggetnet eval --gold test.jsonl --pred preds.jsonl --by-match-type
    nuggetnet inspect --model runs/exp/best.ckpt
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, dump_resolved_config, load_run_config
from .corpus import SubtypeInventory, build_vocab, load_corpus, save_corpus
from .decoder import DecodeStats, load_predictions, save_predictions
from .encoder import load_embeddings_file
from .errors import CheckpointError, ConfigError, NuggetError, changed_fields, check_bound, from_json
from .evaluate import ScoreMode, corpus_match_stats, recall_by_match_type, score
from .model import MODEL_CLASSES, CharEncoderBase, CharSpanModel, load_model
from .synthgen import GenSpec, allocate_quotas, check_fractions, default_subtype_names, generate_synthetic_corpus
from .train import LAST_CHECKPOINT, TRAIN_LOG, TrainerState, check_extension, resumable_log, train

logger = logging.getLogger(__name__)

RESOLVED_CONFIG = "resolved_config.json"


def _parse_fractions(text: str, flag: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated numbers: {exc}") from exc
    return check_fractions(parts, flag)


# the gen-data flags that a run config's generator section replaces, with their values when there is none: the
# corpus size is the command's own, the rest are read from where GenSpec and RunConfig declare them
GENERATOR_FLAG_DEFAULTS = {
    "n_sentences": 2000,
    "n_subtypes": len(default_subtype_names()),
    "proportions": ",".join(map(str, GenSpec.proportions)),
    "seed": RunConfig.generator_seed,
}


def cmd_gen_data(args) -> int:
    splits = _parse_fractions(args.splits, "--splits")
    flags = {name: getattr(args, name) for name in GENERATOR_FLAG_DEFAULTS}
    if args.config:
        given = [f"--{name.replace('_', '-')}" for name, value in flags.items() if value is not None]
        if given:
            raise ConfigError(f"{', '.join(given)} cannot be combined with --config, whose generator section sets them")
        run = load_run_config(args.config)
        if run.generator is None:
            raise ConfigError(f"{args.config} has no generator section")
        spec, seed = run.generator, run.generator_seed
        out_dir = args.out or run.out_dir
    else:
        flags = {name: GENERATOR_FLAG_DEFAULTS[name] if value is None else value for name, value in flags.items()}
        spec = GenSpec(
            n_sentences=flags["n_sentences"],
            subtypes=default_subtype_names(flags["n_subtypes"]),
            proportions=_parse_fractions(flags["proportions"], "--proportions"),
        )
        seed = check_bound(RunConfig, "generator_seed", flags["seed"], "--seed")
        out_dir = args.out
    if not out_dir:
        raise ConfigError("no output directory (use --out or out_dir in the config)")

    corpus = generate_synthetic_corpus(spec, rng_seed=seed)
    sizes = allocate_quotas(len(corpus), splits)

    os.makedirs(out_dir, exist_ok=True)
    offset = 0
    for name, size in zip(("train", "dev", "test"), sizes):
        part = corpus[offset : offset + size]
        offset += size
        save_corpus(os.path.join(out_dir, f"{name}.jsonl"), part)
        print(f"wrote {len(part)} sentences to {os.path.join(out_dir, name + '.jsonl')}")
    stats = corpus_match_stats(corpus)
    total = max(sum(stats.values()), 1)
    print("gold match types: " + ", ".join(f"{mt.value} {c / total:.3f}" for mt, c in stats.items()))
    return 0


def _build_model(run: RunConfig, train_sentences):
    vocab = build_vocab(
        train_sentences, min_count=run.vocab_min_count, max_rel_dist=run.model.extractor.max_rel_dist
    )
    subtypes = SubtypeInventory.from_corpus(train_sentences)
    model = MODEL_CLASSES[run.model_kind](run.model, vocab, subtypes, rng_seed=run.training.rng_seed)
    if run.embeddings.chars:
        n = load_embeddings_file(run.embeddings.chars, model.store, "char", vocab.char_to_id)
        logger.info("loaded %d pretrained character embeddings", n)
    if run.embeddings.words:
        n = load_embeddings_file(run.embeddings.words, model.store, "word", vocab.word_to_id)
        logger.info("loaded %d pretrained word embeddings", n)
    return model


def _resume_checkpoint(run: RunConfig) -> tuple[CharEncoderBase, TrainerState]:
    """The model, with its Adadelta state, and trainer state in the run's last.ckpt.

    The run must repeat its config but for training.epochs, and data,
    embeddings and vocab_min_count as resolved_config.json records them;
    check_extension and resumable_log must accept it and its log.
    """
    last = os.path.join(run.out_dir, LAST_CHECKPOINT)
    model, meta = load_model(last, optimizer_state=True)
    if meta.get("trainer_state") is None:
        raise ConfigError(f"{last}: checkpoint has no trainer state, cannot resume")
    try:
        state = from_json(TrainerState, meta["trainer_state"], CheckpointError, "trainer_state")
    except CheckpointError as exc:
        raise CheckpointError(f"{last}: {exc}") from exc
    if model.kind != run.model_kind:
        raise ConfigError(f"{last}: checkpoint holds a {model.kind} model, the run's model.kind is {run.model_kind}")
    changed = changed_fields(model.config, run.model)
    if changed:
        raise ConfigError(f"{last}: checkpoint's model config differs from the run's model section in {', '.join(changed)}")
    changed = changed_fields(replace(state.train_config, epochs=run.training.epochs), run.training)
    if changed:
        raise ConfigError(
            f"{last}: trainer_state train_config differs from the run's training section in "
            f"{', '.join(changed)}; a resumed run may change only epochs"
        )
    resolved = os.path.join(run.out_dir, RESOLVED_CONFIG)
    if not os.path.exists(resolved):
        raise ConfigError(f"{resolved}: missing, cannot check the run's data, embeddings and vocab_min_count")
    first = load_run_config(resolved)
    changed = changed_fields(first.data, run.data, "data.")
    changed += changed_fields(first.embeddings, run.embeddings, "embeddings.")
    if first.vocab_min_count != run.vocab_min_count:
        changed.append(f"vocab_min_count {first.vocab_min_count!r} -> {run.vocab_min_count!r}")
    if changed:
        raise ConfigError(f"{resolved}: the resumed run changes {', '.join(changed)}")
    check_extension(state, run.training, last)
    resumable_log(os.path.join(run.out_dir, TRAIN_LOG), state.epoch)
    return model, state


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    if not run.data.train:
        raise ConfigError(f"{args.config}: data.train is required for training")
    if not run.out_dir:
        raise ConfigError(f"{args.config}: out_dir is required for training")
    train_sentences = load_corpus(run.data.train)
    dev_sentences = load_corpus(run.data.dev) if run.data.dev else train_sentences
    if not run.data.dev:
        logger.warning("no dev set configured; early stopping will use the training set")

    # every resume check runs here, before resolved_config.json is replaced
    model, resume_state = _resume_checkpoint(run) if args.resume else (_build_model(run, train_sentences), None)

    os.makedirs(run.out_dir, exist_ok=True)
    dump_resolved_config(run, os.path.join(run.out_dir, RESOLVED_CONFIG))
    result = train(model, train_sentences, dev_sentences, run.training, run.out_dir, resume_state)
    print(
        f"trained {result.epochs_run} epochs; best dev classification F1 "
        f"{result.best_dev_f1:.4f} at epoch {result.best_epoch}"
        + (" (early stop)" if result.stopped_early else "")
    )
    return 0


def cmd_predict(args) -> int:
    model, _ = load_model(args.model)
    corpus = load_corpus(args.input)
    stats = DecodeStats() if model.kind == CharSpanModel.kind else None  # the baselines propose nothing
    predictions = model.predict_corpus(corpus, stats)
    save_predictions(args.out, predictions)
    n = sum(len(p) for p in predictions.values())
    print(f"wrote {n} predictions for {len(corpus)} sentences to {args.out}")
    if stats is not None:
        print(f"decoder: {stats.proposed} proposed, {stats.out_of_bounds} out of bounds, {stats.merged} merged")
    return 0


def cmd_eval(args) -> int:
    corpus = load_corpus(args.gold)
    predictions = load_predictions(args.pred)
    ident = score(corpus, predictions, ScoreMode.IDENTIFICATION)
    cls = score(corpus, predictions, ScoreMode.CLASSIFICATION)
    payload = {"identification": ident.to_json(), "classification": cls.to_json()}
    if args.by_match_type:
        by_type = recall_by_match_type(corpus, predictions)
        payload["recall_by_match_type"] = {
            mt.value: {"gold": st.n_gold, "matched": st.n_matched, "recall": st.recall}
            for mt, st in by_type.items()
        }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(ident.render())
    print(cls.render())
    if args.by_match_type:
        for mt_name, st in payload["recall_by_match_type"].items():
            print(f"recall[{mt_name}]: {st['recall']:.4f} ({st['matched']}/{st['gold']})")
    return 0


def cmd_inspect(args) -> int:
    model, meta = load_model(args.model)
    info = {
        "kind": meta.get("kind"),
        "parameters": model.store.n_parameters(),
        "tensors": [
            {"name": name, "shape": list(p.value.shape), "l2": float(np.linalg.norm(p.value))}
            for name, p in model.store.items()
        ],
        "subtypes": model.subtypes.names,
        "vocab_chars": model.vocab.n_chars,
        "vocab_words": model.vocab.n_words,
        "config": meta.get("config"),
        "trainer_state": meta.get("trainer_state"),
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nuggetnet", description="Character-level trigger nugget models.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic segmented corpus")
    g.add_argument("--config", help="run config with a generator section")
    g.add_argument("--out", help="output directory")
    # None tells a flag left out from one given: --config refuses these, and without it they default
    defaults = GENERATOR_FLAG_DEFAULTS
    g.add_argument("--n-sentences", type=int, help=f"default {defaults['n_sentences']}")
    g.add_argument("--n-subtypes", type=int, help=f"default {defaults['n_subtypes']}")
    g.add_argument("--proportions", help=f"exact,part_of_word,cross_words (default {defaults['proportions']})")
    g.add_argument("--splits", default="0.8,0.1,0.1", help="train,dev,test fractions")
    g.add_argument("--seed", type=int, help=f"default {defaults['seed']}")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model from a run config")
    t.add_argument("--config", required=True)
    t.add_argument("--resume", action="store_true", help="continue from out_dir/last.ckpt")
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("eval", help="score predictions against gold annotations")
    e.add_argument("--gold", required=True)
    e.add_argument("--pred", required=True)
    e.add_argument("--by-match-type", action="store_true")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="describe a checkpoint")
    i.add_argument("--model", required=True)
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NuggetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file a command writes; the loaders turn their own into NuggetError
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
