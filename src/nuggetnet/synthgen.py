"""Synthetic segmented-corpus generator.

Builds small annotated corpora where the relation between trigger spans and
word boundaries is controlled exactly: every sentence carries one trigger
whose match type (exact word, strict part of a word, crossing a word
boundary) is chosen up front by quota.  Char identities determine both the
subtype and the nugget shape, so the corpora are learnable by construction
and usable for end-to-end training tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .corpus import AnnotatedSentence, MatchType, TriggerNugget, classify_match_type
from .errors import ConfigError, check_bound, check_bounds

_CJK_BASE = 0x4E00


def default_subtype_names(n: int = 8) -> tuple[str, ...]:
    return tuple(f"ev{k:02d}" for k in range(n))


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic corpus."""

    n_sentences: int = field(metadata={"minimum": 0})
    subtypes: tuple[str, ...] = field(default_factory=default_subtype_names, metadata={"minItems": 1, "uniqueItems": True})
    # fraction of triggers per match type: (exact, part_of_word, cross_words)
    proportions: tuple[float, float, float] = field(
        default=(0.755, 0.195, 0.05), metadata={"minItems": 3, "maxItems": 3, "items": {"finite": True, "minimum": 0}}
    )
    min_context_words: int = field(default=1, metadata={"minimum": 0})
    max_context_words: int = field(default=3, metadata={"minimum": 0})
    n_distractor_words: int = field(default=20, metadata={"minimum": 1})
    doc_prefix: str = "synth"

    def __post_init__(self):
        check_bounds(self)
        check_fractions(self.proportions, "proportions")
        if self.min_context_words > self.max_context_words:
            raise ConfigError(f"context word range [{self.min_context_words}, {self.max_context_words}] is invalid")


def check_fractions(values: tuple[float, ...], where: str) -> tuple[float, ...]:
    """values, if they keep GenSpec.proportions' bounds and sum to 1; otherwise ConfigError naming where."""
    check_bound(GenSpec, "proportions", values, where)
    if abs(sum(values) - 1.0) > 1e-9:
        raise ConfigError(f"{where} must sum to 1, got {values} (sum {sum(values)})")
    return values


class _CharBank:
    """Hands out distinct CJK characters so every pool stays disjoint."""

    def __init__(self):
        self._counter = itertools.count()

    def take(self, k: int) -> list[str]:
        return [chr(_CJK_BASE + next(self._counter)) for _ in range(k)]


@dataclass(frozen=True)
class _Lexicon:
    # per subtype: one single-char trigger and one two-char trigger (a, b)
    single: tuple[str, ...]
    pair: tuple[tuple[str, str], ...]
    manner: tuple[str, ...]  # prefix chars that glue onto single-char triggers
    glue: tuple[str, ...]  # suffix chars that glue onto two-char triggers
    aux_left: tuple[str, ...]  # word tails preceding a crossing trigger
    aux_right: tuple[str, ...]  # word heads following a crossing trigger
    distractors: tuple[str, ...]  # two-char context words


def _build_lexicon(spec: GenSpec) -> _Lexicon:
    bank = _CharBank()
    single = tuple(bank.take(1)[0] for _ in spec.subtypes)
    pair = tuple((chars[0], chars[1]) for chars in (bank.take(2) for _ in spec.subtypes))
    manner = tuple(bank.take(6))
    glue = tuple(bank.take(4))
    aux_left = tuple(bank.take(6))
    aux_right = tuple(bank.take(6))
    distractors = tuple("".join(bank.take(2)) for _ in range(spec.n_distractor_words))
    return _Lexicon(single, pair, manner, glue, aux_left, aux_right, distractors)


def allocate_quotas(n: int, proportions: tuple[float, ...]) -> list[int]:
    """Largest-remainder allocation of n items over the given proportions."""
    raw = [n * p for p in proportions]
    counts = [int(r) for r in raw]
    short = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in order[:short]:
        counts[i] += 1
    return counts


def generate_synthetic_corpus(spec: GenSpec, rng_seed: int = 0) -> list[AnnotatedSentence]:
    """Deterministic corpus for the given recipe and seed."""
    rng = np.random.default_rng([rng_seed, 0x9E])
    lex = _build_lexicon(spec)

    quotas = allocate_quotas(spec.n_sentences, spec.proportions)
    match_plan = (
        [MatchType.EXACT] * quotas[0]
        + [MatchType.PART_OF_WORD] * quotas[1]
        + [MatchType.CROSS_WORDS] * quotas[2]
    )
    rng.shuffle(match_plan)

    sentences = []
    for i, match_type in enumerate(match_plan):
        subtype_idx = int(rng.integers(len(spec.subtypes)))
        words, trig_word_idx, trig_offset, trig_len = _core_words(lex, subtype_idx, match_type, rng)

        n_left = int(rng.integers(spec.min_context_words, spec.max_context_words + 1))
        n_right = int(rng.integers(spec.min_context_words, spec.max_context_words + 1))
        left = [lex.distractors[int(j)] for j in rng.integers(len(lex.distractors), size=n_left)]
        right = [lex.distractors[int(j)] for j in rng.integers(len(lex.distractors), size=n_right)]
        all_words = left + words + right

        text = "".join(all_words)
        spans = []
        pos = 0
        for w in all_words:
            spans.append((pos, pos + len(w) - 1))
            pos += len(w)
        trig_start = spans[n_left + trig_word_idx][0] + trig_offset
        trigger = TriggerNugget(trig_start, trig_len, spec.subtypes[subtype_idx])

        sentence = AnnotatedSentence(
            doc_id=f"{spec.doc_prefix}-{i // 100:04d}",
            sent_id=f"s{i % 100:03d}",
            text=text,
            word_spans=tuple(spans),
            triggers=(trigger,),
        )
        assert classify_match_type(sentence, trigger) is match_type
        sentences.append(sentence)
    return sentences


def _core_words(
    lex: _Lexicon, subtype_idx: int, match_type: MatchType, rng: np.random.Generator
) -> tuple[list[str], int, int, int]:
    """Words realizing one trigger of the requested match type.

    Returns (words, index of the word where the trigger starts,
    char offset of the trigger inside that word, trigger length).
    """
    a, b = lex.pair[subtype_idx]
    s = lex.single[subtype_idx]
    if match_type is MatchType.EXACT:
        if rng.integers(2):
            return [a + b], 0, 0, 2
        return [s], 0, 0, 1
    if match_type is MatchType.PART_OF_WORD:
        if rng.integers(2):
            g = lex.glue[int(rng.integers(len(lex.glue)))]
            return [a + b + g], 0, 0, 2
        m = lex.manner[int(rng.integers(len(lex.manner)))]
        return [m + s], 0, 1, 1
    x = lex.aux_left[int(rng.integers(len(lex.aux_left)))]
    y = lex.aux_right[int(rng.integers(len(lex.aux_right)))]
    return [x + a, b + y], 0, 1, 2
