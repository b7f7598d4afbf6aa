"""predict_corpus: many sentences per forward, the same predictions as one sentence at a time."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuggetnet.corpus import AnnotatedSentence
from nuggetnet.decoder import DecodeStats, decode_corpus, decode_sentence
from nuggetnet.encoder import HybridMode
from nuggetnet.model import ModelConfig

from util import KINDS, small_model, toy_corpus, widen_params

ALPHABET = "甲乙丙丁戊己庚辛壬癸子丑寅卯辰"  # toy_corpus's characters, so most are in the vocabulary
MAX_TOKENS = 12
BUDGET = 128  # rows per forward


def make_sentence(sent_id: str, n: int, rng: np.random.Generator) -> AnnotatedSentence:
    """n characters cut into words of 1-3 characters."""
    text = "".join(rng.choice(list(ALPHABET), size=n))
    spans, start = [], 0
    while start < n:
        end = min(n, start + int(rng.integers(1, 4))) - 1
        spans.append((start, end))
        start = end + 1
    return AnnotatedSentence("d", sent_id, text, tuple(spans), ())


def model_of(kind: str, mode: HybridMode, max_tokens: int = MAX_TOKENS):
    model = small_model(toy_corpus(), mode=mode, kind=kind)
    model.config = ModelConfig(extractor=model.config.extractor, max_tokens=max_tokens)
    widen_params(model.store, scale=0.8, rng_seed=5)
    return model


def as_spans(preds):
    return [(p.start, p.length, p.subtype) for p in preds]


@st.composite
def sentence_mixes(draw):
    """Lengths from 1 character to past max_tokens, in a random order, and the seed of their text."""
    lengths = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(2, 9), st.integers(MAX_TOKENS + 1, 3 * MAX_TOKENS)),
            min_size=1,
            max_size=30,
        )
    )
    return lengths, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("mode", list(HybridMode))
@pytest.mark.parametrize("kind", KINDS)
class TestBatchedEqualsPerSentence:
    @given(case=sentence_mixes())
    @settings(max_examples=15, deadline=None)
    def test_same_predictions(self, kind, mode, case):
        lengths, seed = case
        rng = np.random.default_rng(seed)
        sentences = [make_sentence(f"s{i}", n, rng) for i, n in enumerate(lengths)]
        model = model_of(kind, mode)
        batched = model.predict_corpus(sentences)
        assert list(batched) == [s.key for s in sentences]
        for sentence in sentences:
            alone = model.predict_corpus([sentence])[sentence.key]
            assert as_spans(batched[sentence.key]) == as_spans(alone)
            for a, b in zip(batched[sentence.key], alone):
                assert math.isclose(a.score, b.score, rel_tol=0.0, abs_tol=1e-12)


@pytest.mark.parametrize("mode", list(HybridMode))
def test_one_sentence_is_bit_identical_to_distributions(mode):
    # perfbench's decode gate re-derives decode_corpus([sentence]) from char_distributions' rows
    rng = np.random.default_rng(3)
    model = model_of("proposal", mode)
    seen = []
    original = model._decode
    model._decode = lambda sentence, rows, stats: seen.append(rows) or original(sentence, rows, stats)
    for n in (1, 5, MAX_TOKENS, 3 * MAX_TOKENS):
        sentence = make_sentence(f"n{n}", n, rng)
        seen.clear()
        got, stats = decode_corpus(model, [sentence])
        rows = model.distributions(model.encode_sentence(sentence))
        assert len(seen) == 1
        for a, b in zip(seen[0], rows):
            assert a.tobytes() == b.tobytes()
        expected_stats = DecodeStats()
        assert got[sentence.key] == decode_sentence(model, sentence, rows, expected_stats)
        assert stats == expected_stats
        assert model.predict_sentence(sentence) == got[sentence.key]


@pytest.mark.parametrize("kind", KINDS)
def test_forwards_pack_whole_sentences_up_to_the_budget(kind):
    # 8 one-character words per sentence: 8 rows for every kind, 16 sentences per full forward
    model = model_of(kind, HybridMode.GENERAL, max_tokens=40)
    rng = np.random.default_rng(0)

    def short(i):
        sentence = make_sentence(f"a{i}", 8, rng)
        return AnnotatedSentence("d", sentence.sent_id, sentence.text, tuple((c, c) for c in range(8)), ())

    def long(sent_id, n):
        sentence = make_sentence(sent_id, n, rng)
        return AnnotatedSentence("d", sent_id, sentence.text, tuple((c, c) for c in range(n)), ())

    rows_per_forward = []
    original = model._forward

    def counting(groups, *args, **kwargs):
        rows_per_forward.append(sum(len(chars) for _, chars, _ in groups))
        return original(groups, *args, **kwargs)

    model._forward = counting
    n_short = 40
    model.predict_corpus([short(i) for i in range(n_short)])
    assert rows_per_forward == [BUDGET, BUDGET, 8 * n_short - 2 * BUDGET]
    assert len(rows_per_forward) == math.ceil(8 * n_short / BUDGET)

    # a sentence over the budget goes alone, and so does one longer than max_tokens
    rows_per_forward.clear()
    over_budget, over_view = long("over-budget", BUDGET + 2), long("over-view", 50)
    sentences = [short(100), over_budget, short(101), short(102), over_view, short(103)]
    model.predict_corpus(sentences)
    assert rows_per_forward == [8, BUDGET + 2, 16, 50, 8]
