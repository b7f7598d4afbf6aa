"""The batch index: ids kept once per sentence, rows indexed by one flat index with a fixed number of calls."""

import dataclasses
import gc
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nuggetnet.model as nmodel
from nuggetnet.corpus import AnnotatedSentence, SubtypeInventory, TriggerNugget, Vocabulary, build_vocab
from nuggetnet.encoder import extract_branch
from nuggetnet.errors import ShapeError
from nuggetnet.model import CharSpanModel, ModelConfig, _branch_rows

from batch_reference import reference_groups, reference_index
from util import branch_rows_of, extract_segments, flat_segments, small_extractor, small_model

ALPHABET = "甲乙丙丁戊己"


def alphabet_model():
    """A small model whose character vocabulary is ALPHABET."""
    return small_model([AnnotatedSentence("d", "s", ALPHABET, ((0, 5),), (TriggerNugget(0, 1, "x"),))], max_rel_dist=6)


def same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@st.composite
def sentences(draw):
    n = draw(st.integers(1, 40))
    text = "".join(draw(st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set())
    bounds = [0, *cuts, n]
    return text, tuple((a, b - 1) for a, b in zip(bounds, bounds[1:]))


@st.composite
def batch_cases(draw):
    """A model with both branches, and batch rows that repeat sentences, rows and equal sentence copies."""
    specs = draw(st.lists(sentences(), min_size=1, max_size=6))
    corpus = [AnnotatedSentence("d", f"s{i}", text, spans, ()) for i, (text, spans) in enumerate(specs)]
    config = ModelConfig(extractor=small_extractor(max_rel_dist=6), max_tokens=draw(st.sampled_from([3, 5, 16, 120])))
    model = CharSpanModel(config, build_vocab(corpus, max_rel_dist=6), SubtypeInventory(["x"]), rng_seed=2)
    copies = [dataclasses.replace(s) for s in corpus]  # equal, but other objects: groups of their own
    picks = draw(st.lists(st.tuples(st.integers(0, len(corpus) - 1), st.booleans(), st.integers(0, 39)), min_size=1, max_size=30))
    rows = [((copies if copy else corpus)[i], c % len(corpus[i].text)) for i, copy, c in picks]
    return model, [s for s, _ in rows], [c for _, c in rows]


def loss_forward(model, batch, chars):
    """The _Forward of one _loss step over (batch[r], chars[r]) rows, the first half through head 0, and its extract_branch calls."""
    forwards = []
    original = CharSpanModel._forward

    def recording(self, *args, **kwargs):
        forwards.append(original(self, *args, **kwargs))
        return forwards[-1]

    rows = [(s, c, 0) for s, c in zip(batch, chars)]
    cut = max(1, len(rows) // 2)
    with (
        mock.patch.object(CharSpanModel, "_forward", recording),
        mock.patch.object(nmodel, "extract_branch", wraps=extract_branch) as spy,
    ):
        model._loss(rows[:cut], rows[cut:], None)
    (fwd,) = forwards
    return fwd, spy.call_args_list


@given(batch_cases())
@settings(max_examples=60, deadline=None)
def test_batch_index_matches_the_per_sentence_one(case):
    # a training step's flat index gives the per-sentence reference's segments, in order, and cache rows
    model, batch, chars = case
    fwd, calls = loss_forward(model, batch, chars)
    expected = reference_groups(model, batch, chars)
    branch_groups = {
        "char": [(char_ids, c, rows) for (char_ids, _, _), c, rows in expected],
        "word": [(word_ids, char_to_word[c], rows) for (_, word_ids, char_to_word), c, rows in expected],
    }
    assert [call.args[1] for call in calls] == ["char", "word"]
    for (prefix, (cache, cache_row)), call in zip(fwd.branches.items(), calls):
        segments, ref_row = reference_index(branch_groups[prefix], model.config.max_tokens)
        for got, want in zip(call.args[2:6], flat_segments(segments)):
            same_array(got, want)
        same_array(cache_row, ref_row)
        ref = extract_segments(model.store, prefix, segments, model.config.extractor)
        for name, value in vars(cache).items():
            same_array(value, getattr(ref, name))


@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 29)), min_size=1, max_size=25),
    st.sampled_from([3, 4, 7, 120]),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_branch_rows_index_any_groups(lengths, picks, max_tokens, seed):
    # groups straight into _branch_rows: one token array in several groups, centers repeated, rows shuffled
    model = alphabet_model()
    config = ModelConfig(extractor=model.config.extractor, max_tokens=max_tokens)
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(0, model.vocab.n_chars, size=n) for n in lengths]
    groups = {}
    for g, c in picks:
        ids = seqs[g % len(seqs)]
        groups.setdefault(g, (ids, []))[1].append(c % ids.shape[0])
    perm = rng.permutation(len(picks))
    batch, k = [], 0
    for ids, centers in groups.values():
        batch.append((ids, np.array(centers), perm[k : k + len(centers)]))
        k += len(centers)
    with mock.patch.object(nmodel, "extract_branch", wraps=extract_branch) as spy:
        cache, cache_row = branch_rows_of(model.store, config, "char", batch)
    segments, ref_row = reference_index(batch, max_tokens)
    (call,) = spy.call_args_list
    for got, want in zip(call.args[2:6], flat_segments(segments)):
        same_array(got, want)
    same_array(cache_row, ref_row)
    ref = extract_segments(model.store, "char", segments, model.config.extractor)
    same_array(cache.fp[cache_row], ref.fp[ref_row])


def test_out_of_range_center_is_refused():
    model = alphabet_model()
    with pytest.raises(ShapeError, match="must lie inside"):
        branch_rows_of(model.store, model.config, "char", [(np.array([2, 3]), np.array([2]), np.array([0]))])


def test_encodings_are_fresh_and_share_read_only_ids(corpus3):
    model = small_model(corpus3)
    sentence = corpus3[0]
    a, b = sentence.ids(model.vocab), sentence.ids(model.vocab)
    for x, y in zip(a, b):
        assert np.shares_memory(x, y) and x.tobytes() == y.tobytes()
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 5


def test_another_vocabulary_does_not_reuse_the_ids(corpus3):
    model = small_model(corpus3)
    sentence = corpus3[0]
    own = sentence.ids(model.vocab)[0]
    chars = sorted(set(sentence.text))
    other = Vocabulary(char_to_id={c: i + 2 for i, c in enumerate(reversed(chars))}, max_rel_dist=10)
    char_ids, word_ids, _ = sentence.ids(other)
    assert char_ids.tolist() == [other.char_to_id[c] for c in sentence.text] != own.tolist()
    assert set(word_ids.tolist()) == {1}  # no word is known to the other vocabulary
    # an equal vocabulary object computes the same ids afresh, and the model gets its own ids back
    twin = Vocabulary.from_json(model.vocab.to_json())
    assert not np.shares_memory(sentence.ids(twin)[0], own) and sentence.ids(twin)[0].tolist() == own.tolist()
    assert sentence.ids(model.vocab)[0].tolist() == own.tolist()


def calls_made(fn, *args) -> int:
    """Python and builtin calls that fn(*args) makes; AnnotatedSentence.ids counts as one, its own calls with it."""
    ids_code = AnnotatedSentence.ids.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" or (event == "c_call" and frame.f_code is not ids_code)

    previous = sys.getprofile()
    gc.disable()  # a collection would add the finalizers of other tests' garbage
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


def branch_rows_calls(n_sentences: int) -> int:
    """Calls that one _branch_rows call makes for a batch of distinct sentences, two rows each."""
    model = alphabet_model()
    rng = np.random.default_rng(n_sentences)
    seqs, centers = [], []
    for n in rng.integers(5, 15, size=n_sentences).tolist():
        seqs.append(rng.integers(2, model.vocab.n_chars, size=n))
        centers.extend(rng.choice(n, size=2, replace=False).tolist())
    seq = np.repeat(np.arange(n_sentences), 2)
    with mock.patch.object(nmodel, "extract_branch", lambda *args, **kwargs: None):
        return calls_made(_branch_rows, model.store, model.config, "char", seqs, seq, np.array(centers))


def loss_calls(n_sentences: int) -> int:
    """Calls that one _loss step makes, kernels stubbed, for distinct sentences whose ids are kept, two rows each."""
    model = alphabet_model()
    rng = np.random.default_rng(n_sentences)
    rows = []
    for k, n in enumerate(rng.integers(5, 15, size=n_sentences).tolist()):
        text = "".join(rng.choice(list(ALPHABET), size=n).tolist())
        sentence = AnnotatedSentence("d", f"s{k}", text, tuple((i, i) for i in range(n)), ())
        sentence.ids(model.vocab)  # kept from the first epoch on
        rows.extend((sentence, c, 0) for c in rng.choice(n, size=2, replace=False).tolist())

    def extract(store, prefix, tokens, lengths, cols, counts, config, for_backward):
        return SimpleNamespace(fp=np.zeros((cols.shape[0], config.proj_dim)))

    with (
        mock.patch.object(nmodel, "extract_branch", extract),
        mock.patch.object(nmodel, "branch_backward", lambda *args: None),
    ):
        return calls_made(model._loss, rows[::2], rows[1::2], None)


def test_branch_rows_makes_no_call_per_sentence():
    # the batch index is array operations over all sentences at once: a per-sentence call in it would
    # add at least one call for each sentence added
    few, many = branch_rows_calls(8), branch_rows_calls(64)
    assert many - few < 64 - 8, (few, many)
    # a whole step adds one call per sentence, reading its kept ids, and none per row
    few, many = loss_calls(8), loss_calls(64)
    assert many - few <= 64 - 8, (few, many)
