"""Shared builders for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from nuggetnet.corpus import AnnotatedSentence, SubtypeInventory, TriggerNugget, build_vocab
from nuggetnet.encoder import ExtractorConfig, HybridMode, extract_branch
from nuggetnet.model import MODEL_CLASSES, CharEncoderBase, ModelConfig, _branch_rows
from nuggetnet.synthgen import GenSpec, default_subtype_names, generate_synthetic_corpus
from nuggetnet.train import TrainConfig, train

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"

KINDS = ("proposal", "iob", "wordwise")

# the proposal model's heads, and encoder.fuse's parts when both read every row, as in inference
HEADS = ("nugget", "type")
BOTH = dict.fromkeys(HEADS, slice(None))

# a small value of every JSON type, for mutating records
ANY_JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-3, 3, allow_nan=False),
    st.text(alphabet="ab", max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(alphabet="ab", max_size=1), st.integers(0, 2), max_size=1),
)

# every character distinct within a sentence and max_rel_dist chosen to cover
# whole sentences: no duplicate conv inputs, hence no exact pooling ties
TOY_SENTENCES = (
    ("d", "s1", "甲乙丙丁戊", ((0, 1), (2, 3), (4, 4)), (TriggerNugget(2, 2, "x"),)),
    ("d", "s2", "己庚辛壬", ((0, 1), (2, 2), (3, 3)), (TriggerNugget(3, 1, "y"),)),
    ("d", "s3", "癸子丑寅卯辰", ((0, 2), (3, 5)), (TriggerNugget(1, 3, "x"),)),
)


def toy_corpus() -> list[AnnotatedSentence]:
    return [AnnotatedSentence(*args) for args in TOY_SENTENCES]


def small_extractor(**overrides) -> ExtractorConfig:
    base = dict(
        token_emb_dim=8,
        pos_emb_dim=3,
        n_filters=6,
        window=3,
        lex_window=1,
        proj_dim=10,
        max_rel_dist=10,
    )
    base.update(overrides)
    return ExtractorConfig(**base)


def small_model(
    corpus,
    mode: HybridMode = HybridMode.GENERAL,
    rng_seed: int = 1,
    max_nugget_len: int = 3,
    kind: str = "proposal",
    **extractor_overrides,
) -> CharEncoderBase:
    if kind == "wordwise":  # the word classifier runs on the word branch alone
        extractor_overrides.setdefault("use_chars", False)
    vocab = build_vocab(corpus, max_rel_dist=extractor_overrides.get("max_rel_dist", 10))
    inventory = SubtypeInventory.from_corpus(corpus)
    config = ModelConfig(
        extractor=small_extractor(hybrid_mode=mode, **extractor_overrides),
        max_nugget_len=max_nugget_len,
        max_tokens=40,
    )
    return MODEL_CLASSES[kind](config, vocab, inventory, rng_seed=rng_seed)


def determinism_run(out_dir) -> tuple[CharEncoderBase, list[AnnotatedSentence]]:
    """The determinism acceptance run: one small model trained 2 epochs on a tiny synthetic corpus into out_dir.

    Returns the trained model and its corpus.
    """
    spec = GenSpec(n_sentences=8, subtypes=default_subtype_names(2), max_context_words=2, n_distractor_words=6)
    corpus = generate_synthetic_corpus(spec, rng_seed=1)
    model = small_model(corpus, rng_seed=5, max_rel_dist=20)
    train(model, corpus, corpus, TrainConfig(epochs=2, batch_size=8, neg_ratio=2.0, rng_seed=3), out_dir=out_dir)
    return model, corpus


def gate_specs(d: int, heads=HEADS) -> list:
    """The (name, shape, init) list of every hybrid mode's gates at width d: the shared gate's, then each head's own."""
    specs = []
    for scope in ("fuse", *(f"fuse.{head}" for head in heads)):
        specs += [
            (f"{scope}.gate_w_char", (d, d), "glorot"),
            (f"{scope}.gate_w_word", (d, d), "glorot"),
            (f"{scope}.gate_b", (d,), "zeros"),
        ]
    return specs


def widen_params(store, scale: float = 0.4, rng_seed: int = 99) -> None:
    """Move all parameters to a generic point.

    The stock initialization puts embeddings within +-0.01, which leaves some
    gradients so small that central differences drown in float64 rounding.
    A uniform nudge gives every tensor a healthy signal without changing any
    of the code under test.
    """
    rng = np.random.default_rng(rng_seed)
    for _, p in store.items():
        p.value += rng.uniform(-scale, scale, size=p.value.shape)


def flat_segments(segments) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """extract_branch's (tokens, lengths, cols, counts) for a list of (token ids, center indices) segments."""
    ids = [np.asarray(t, dtype=np.int64) for t, _ in segments]
    centers = [np.asarray(c, dtype=np.int64) for _, c in segments]
    none = np.empty(0, dtype=np.int64)
    lengths = np.array([t.shape[0] for t in ids], dtype=np.int64)
    counts = np.array([c.shape[0] for c in centers], dtype=np.int64)
    return np.concatenate([none, *ids]), lengths, np.concatenate([none, *centers]), counts


def extract_segments(store, prefix, segments, config, for_backward=True):
    """extract_branch over a list of (token ids, center indices) segments."""
    return extract_branch(store, prefix, *flat_segments(segments), config, for_backward)


def branch_rows_of(store, config, prefix, groups, for_backward=True):
    """model._branch_rows over (token ids, centers, batch rows) groups, one per sequence; rows number 0 .. k-1.

    Returns (cache, each batch row's row in it).
    """
    n_rows = sum(len(rows) for _, _, rows in groups)
    seq, centers = np.empty(n_rows, dtype=np.int64), np.empty(n_rows, dtype=np.int64)
    for g, (_, group_centers, rows) in enumerate(groups):
        seq[rows] = g
        centers[rows] = group_centers
    return _branch_rows(store, config, prefix, [ids for ids, _, _ in groups], seq, centers, for_backward)
