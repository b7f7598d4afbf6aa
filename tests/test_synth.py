import pytest
from hypothesis import given, strategies as st

from nuggetnet.corpus import MatchType, classify_match_type
from nuggetnet.errors import ConfigError
from nuggetnet.evaluate import corpus_match_stats
from nuggetnet.synthgen import (
    GenSpec,
    allocate_quotas,
    default_subtype_names,
    generate_synthetic_corpus,
)


def spec(n=40, k=3, **overrides):
    return GenSpec(n_sentences=n, subtypes=default_subtype_names(k), **overrides)


class TestQuotas:
    def test_known_split(self):
        assert allocate_quotas(2000, (0.755, 0.195, 0.05)) == [1510, 390, 100]
        assert allocate_quotas(10, (0.5, 0.3, 0.2)) == [5, 3, 2]

    def test_largest_remainder_rounding(self):
        # raw shares 3.33/3.33/3.33: first two indices win the leftovers
        assert allocate_quotas(10, (1 / 3, 1 / 3, 1 / 3)) == [4, 3, 3]
        # raw shares 5.285/1.365/0.35: index 1 has the largest remainder
        assert allocate_quotas(7, (0.755, 0.195, 0.05)) == [5, 2, 0]

    def test_zero_proportion_gets_nothing(self):
        assert allocate_quotas(9, (1.0, 0.0, 0.0)) == [9, 0, 0]

    @given(
        n=st.integers(min_value=0, max_value=500),
        weights=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=5).filter(
            lambda w: sum(w) > 0
        ),
    )
    def test_sums_and_bounds(self, n, weights):
        total = sum(weights)
        props = tuple(w / total for w in weights)
        counts = allocate_quotas(n, props)
        assert sum(counts) == n
        assert all(int(n * p) <= c <= int(n * p) + 1 for p, c in zip(props, counts))


class TestGenSpecValidation:
    def test_accepts_defaults(self):
        assert spec().proportions == (0.755, 0.195, 0.05)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"proportions": (0.5, 0.5, 0.5)},
            {"proportions": (0.5, 0.5)},
            {"proportions": (1.1, -0.05, -0.05)},
            {"min_context_words": 3, "max_context_words": 1},
            {"min_context_words": -1},
            {"n_distractor_words": 0},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ConfigError):
            spec(**overrides)

    @pytest.mark.parametrize(
        "proportions", [(float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan")), (float("inf"), 0.0, 0.0)]
    )
    def test_rejects_non_finite_proportions(self, proportions):
        # abs(nan - 1) > 1e-9 is False, so a NaN entry once passed the sum check and crashed allocate_quotas
        with pytest.raises(ConfigError, match=r"proportions\[\d\] must be a finite number >= 0, got (nan|inf)"):
            spec(proportions=proportions)

    def test_rejects_duplicate_subtypes(self):
        with pytest.raises(ConfigError, match="duplicates"):
            GenSpec(n_sentences=5, subtypes=("a", "a"))

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            spec(n=-1)


class TestGeneration:
    def test_deterministic(self):
        a = generate_synthetic_corpus(spec(), rng_seed=7)
        b = generate_synthetic_corpus(spec(), rng_seed=7)
        assert a == b
        c = generate_synthetic_corpus(spec(), rng_seed=8)
        assert a != c

    def test_one_trigger_per_sentence(self):
        for s in generate_synthetic_corpus(spec(), rng_seed=1):
            assert len(s.triggers) == 1

    def test_match_type_quotas_hit_exactly(self):
        corpus = generate_synthetic_corpus(spec(n=200, proportions=(0.6, 0.3, 0.1)), rng_seed=2)
        stats = corpus_match_stats(corpus)
        assert stats[MatchType.EXACT] == 120
        assert stats[MatchType.PART_OF_WORD] == 60
        assert stats[MatchType.CROSS_WORDS] == 20

    def test_subtypes_all_appear(self):
        corpus = generate_synthetic_corpus(spec(n=120, k=4), rng_seed=3)
        seen = {t.subtype for s in corpus for t in s.triggers}
        assert seen == set(default_subtype_names(4))

    def test_trigger_chars_disjoint_from_context(self):
        corpus = generate_synthetic_corpus(spec(n=150), rng_seed=4)
        trigger_chars = set()
        for s in corpus:
            t = s.triggers[0]
            trigger_chars.update(s.text[t.start : t.start + t.length])
        for s in corpus:
            t = s.triggers[0]
            outside_words = [
                s.text[a : b + 1]
                for a, b in s.word_spans
                if b < t.start or a >= t.start + t.length
            ]
            for w in outside_words:
                assert not (set(w) & trigger_chars), (s.text, w)

    def test_context_word_budget(self):
        gs = spec(n=60, min_context_words=2, max_context_words=2)
        for s in generate_synthetic_corpus(gs, rng_seed=5):
            # 2 left + 2 right context words around a 1- or 2-word core
            assert len(s.word_spans) in (5, 6)

    def test_doc_and_sentence_ids(self):
        corpus = generate_synthetic_corpus(spec(n=205), rng_seed=6)
        assert corpus[0].doc_id == "synth-0000" and corpus[0].sent_id == "s000"
        assert corpus[99].doc_id == "synth-0000" and corpus[99].sent_id == "s099"
        assert corpus[100].doc_id == "synth-0001" and corpus[100].sent_id == "s000"
        assert corpus[204].doc_id == "synth-0002" and corpus[204].sent_id == "s004"
        assert len({s.key for s in corpus}) == len(corpus)

    def test_declared_match_type_holds(self):
        corpus = generate_synthetic_corpus(spec(n=90, proportions=(0.34, 0.33, 0.33)), rng_seed=9)
        counts = {m: 0 for m in MatchType}
        for s in corpus:
            counts[classify_match_type(s, s.triggers[0])] += 1
        assert counts[MatchType.EXACT] >= 30
        assert counts[MatchType.PART_OF_WORD] >= 29
        assert counts[MatchType.CROSS_WORDS] >= 29

    def test_empty_corpus(self):
        assert generate_synthetic_corpus(spec(n=0), rng_seed=0) == []

    def test_custom_doc_prefix(self):
        corpus = generate_synthetic_corpus(spec(n=3, doc_prefix="dev"), rng_seed=0)
        assert all(s.doc_id.startswith("dev-") for s in corpus)
