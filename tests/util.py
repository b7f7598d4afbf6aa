"""Shared builders for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from nuggetnet.corpus import AnnotatedSentence, SubtypeInventory, TriggerNugget, build_vocab
from nuggetnet.encoder import ExtractorConfig, HybridMode
from nuggetnet.model import MODEL_CLASSES, CharEncoderBase, ModelConfig

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"

KINDS = ("proposal", "iob", "wordwise")

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
