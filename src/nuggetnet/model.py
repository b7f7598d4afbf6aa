"""Span-proposal model: per-character nugget and subtype distributions.

A CharSpanModel owns one ParamStore plus everything needed to map a raw
annotated sentence to per-character probability distributions: a character
branch, an optional word branch aligned through the segmentation, gated or
concatenated fusion, and the two softmax heads.  Losses are summed
cross-entropies over two instance streams: every sampled character for the
span head, gold in-nugget characters for the subtype head.

Every model kind (this one and the baselines in baselines.py) derives from
CharEncoderBase, which builds the encoder and the output layer, owns the
one checkpoint layout, and trains every kind through one loss over
(sentence, char, gold class) rows; a wordwise row enters at its word's
first character.  A batch's plumbing costs a fixed number of numpy calls:
each sentence keeps its ids (AnnotatedSentence.ids), a row is one
(sentence, character) pair, and _branch_rows indexes a branch's centers
and views with one np.unique and gathers their tokens in one step.
The model's ParamStore is built in one call from its whole tensor list:
the encoder's (encoder.encoder_params: each gate a head reads, and no
other), then each head's weights and bias.  `load_model` opens any kind
through MODEL_CLASSES, with its weights alone unless asked for the
Adadelta state to resume.

Inference has one forward for every kind, `_sentence_rows`.  It packs
whole sentences, in order, into one forward until the next would pass a
fixed row budget (_PREDICT_ROWS), applies the kind's head softmax once per
forward, and hands each sentence its own row slices.  `predict_corpus`
decodes them: this model with decoder.decode_sentence, the IOB tagger with
iob_decode, and the word classifier reads one row per word.
`encode_sentence` is the rows of one sentence forwarded alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import decoder  # read as decoder.decode_sentence at each call, so a patched module attribute applies
from .corpus import AnnotatedSentence, SubtypeInventory, TrainingInstance, Vocabulary
from .encoder import BranchCache, ExtractorConfig, branch_backward, encoder_params, extract_branch, fuse, fuse_backward
from .errors import CheckpointError, ConfigError, ShapeError, check_bound, check_bounds, check_value, from_json, is_a
from .labels import label_to_class, num_nugget_classes
from .ndcore import ParamStore, load_checkpoint, save_checkpoint, scatter_rows, softmax, softmax_xent
from .train import TrainConfig


@dataclass(frozen=True)
class ModelConfig:
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    max_nugget_len: int = field(default=3, metadata={"minimum": 1})
    max_tokens: int = field(default=120, metadata={"minimum": 1})

    def __post_init__(self):
        check_bounds(self)
        if self.max_tokens < self.extractor.window:
            raise ConfigError(f"max_tokens {self.max_tokens} shorter than the conv window {self.extractor.window}")


def head_scores(store: ParamStore, head: str, features: np.ndarray) -> np.ndarray:
    """Scores for (m, fused_dim) feature rows, or for one feature vector."""
    return features @ store[f"head.{head}_w"].value.T + store[f"head.{head}_b"].value


def head_backward(store: ParamStore, head: str, features: np.ndarray, dscores: np.ndarray) -> np.ndarray:
    """Accumulate head gradients over (m, fused_dim) rows; returns dL/dfeatures."""
    store[f"head.{head}_w"].grad += dscores.T @ features
    store[f"head.{head}_b"].grad += dscores.sum(axis=0)
    return dscores @ store[f"head.{head}_w"].value


def _view_starts(n, centers: np.ndarray, max_tokens: int) -> np.ndarray:
    """First token of the max_tokens-long view each center reads: centered on it, clamped at the edges.

    n is the sequence's length, or an array of one length per center.
    """
    return np.minimum(np.maximum(centers - max_tokens // 2, 0), np.maximum(np.subtract(n, max_tokens), 0))


def _lengths_holding(seqs: Sequence[np.ndarray], seq: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The length of each sequence; ShapeError unless every at[r] indexes sequence seqs[seq[r]]."""
    lengths = np.array([ids.shape[0] for ids in seqs])
    if ((at < 0) | (at >= lengths[seq])).any():
        raise ShapeError(f"indices {at.tolist()} must lie inside their sequences of lengths {lengths.tolist()}")
    return lengths


def _branch_rows(
    store: ParamStore,
    config: ModelConfig,
    prefix: str,
    seqs: Sequence[np.ndarray],
    seq: np.ndarray,
    centers: np.ndarray,
    for_backward: bool = True,
) -> tuple[BranchCache, np.ndarray]:
    """(cache, each batch row's row in it): one extract_branch call for batch rows, row r at token centers[r] of seqs[seq[r]].

    Each distinct (sequence, center) is computed once.  Each
    max_tokens-long view a sequence needs is one segment; extract_branch
    bounds its working memory itself, by running the token term's window
    sums and the pooling over chunks of consecutive segments.  for_backward tells
    extract_branch whether branch_backward follows: only then does the
    cache keep each pooled value's argmax row.  The cache keeps no token or
    offset term.

    The index takes a fixed number of numpy calls, however many sequences
    there are: one np.unique over (sequence, center) keys orders the
    distinct centers by sequence, then by center, and its inverse is each
    row's cache row.  A segment is a run of one (sequence, view start), so
    views keep the order of their starts, and one gather from the
    sequences back to back takes every view's tokens.
    """
    lengths = _lengths_holding(seqs, seq, centers)
    width = int(lengths.max())
    keys, cache_row = np.unique(seq * width + centers, return_inverse=True)
    seq, centers = np.divmod(keys, width)
    starts = _view_starts(lengths[seq], centers, config.max_tokens)
    view = keys - centers + starts  # seq * width + start: one value per view
    edges = np.flatnonzero(np.concatenate(([True], view[1:] != view[:-1], [True])))
    firsts, counts = edges[:-1], edges[1:] - edges[:-1]
    view_seq, view_start = seq[firsts], starts[firsts]
    view_len = np.minimum(lengths[view_seq] - view_start, config.max_tokens)
    # token t of a view is token view_start + t of its sequence, which sits at that sequence's offset back to back
    ends = view_len.cumsum()
    first_token = (lengths.cumsum() - lengths)[view_seq] + view_start
    tokens = np.concatenate(seqs)[(first_token - ends + view_len).repeat(view_len) + np.arange(ends[-1])]
    cache = extract_branch(store, prefix, tokens, view_len, centers - starts, counts, config.extractor, for_backward)
    return cache, cache_row


def _backward_rows(
    store: ParamStore, config: ModelConfig, prefix: str, cache: BranchCache, cache_row: np.ndarray, dfp: np.ndarray
) -> None:
    """Backpropagate dL/d(features) of batch rows, row r at cache row cache_row[r]; rows sharing a center add up."""
    per_center = np.zeros((cache.fp.shape[0], dfp.shape[1]))
    scatter_rows(per_center, cache_row, dfp)
    branch_backward(store, prefix, cache, per_center, config.extractor)


@dataclass
class _Forward:
    """One forward over batch rows: what the heads read, and what _backward needs.

    branches holds each branch's cache and each batch row's row in it, by
    prefix; fp the branch features gathered to one row per batch row;
    parts the rows each head reads; gates each gate scope's sigmoid rows
    (encoder.fuse).
    """

    branches: dict[str, tuple[BranchCache, np.ndarray]]
    fp: dict[str, np.ndarray]
    parts: dict[str, slice]
    gates: dict[str, np.ndarray]
    features: dict[str, np.ndarray]  # each head's (rows of its part, fused_dim) inputs, after dropout when training
    masks: dict[str, np.ndarray] | None  # each head's dropout mask


# Batch rows per inference forward.  predict_corpus packs whole sentences, in order, until the next
# would pass this, and at least one.  A sentence with more rows goes alone, and so does one longer
# than max_tokens: its views already fill a forward.  It counts rows, not sentences, because memory
# grows with rows: a 128-row forward of ~10-char sentences peaks at 0.73 MiB (tracemalloc) with
# perfbench's small extractor and 3.1 MiB at the default size, near a 32+32 training step's 0.54 and
# 2.8 MiB.
_PREDICT_ROWS = 128


# kind -> class.  Each subclass adds itself when it is defined; the package
# imports every model module, so the table is complete once nuggetnet is.
MODEL_CLASSES: dict[str, type["CharEncoderBase"]] = {}


class CharEncoderBase:
    """What every model kind shares: its state, the encoder, the output layer, batched plumbing and the checkpoint.

    A subclass names its softmax heads and their class counts
    (`_head_classes`); each head reads its own rows' fused features, through
    the gate encoder.gate_readers names for it.  The store holds the
    encoder tensors, then each head's `head.<name>_w`/`_b`.  A subclass's
    `kind` names it in checkpoints and in the run config.
    """

    kind: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        MODEL_CLASSES[cls.kind] = cls

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0, tensors=None):
        """A model with freshly drawn weights, or with a checkpoint's tensors (load_checkpoint), which it keeps."""
        self.config = config
        self.vocab = vocab
        self.subtypes = subtypes
        self.rng_seed = rng_seed
        self.heads = self._head_classes()
        specs = encoder_params(config.extractor, vocab, self.heads)
        for head, n_classes in self.heads.items():
            specs.append((f"head.{head}_w", (n_classes, config.extractor.fused_dim), "glorot"))
            specs.append((f"head.{head}_b", (n_classes,), "zeros"))
        self.store = ParamStore(specs, rng_seed, tensors)

    def _head_classes(self) -> dict[str, int]:
        """Class count of each softmax head, by name, in head order."""
        raise NotImplementedError

    def _forward(
        self,
        ids: Sequence[tuple[np.ndarray | None, np.ndarray | None, np.ndarray]],
        sent: np.ndarray,
        chars: np.ndarray,
        parts: dict[str, slice] | None = None,
        drop_rng: np.random.Generator | None = None,
        for_backward: bool = True,
    ) -> _Forward:
        """Head inputs for batch rows, row r at character chars[r] of sentence sent[r].

        ids holds each sentence's (char ids, word ids, char_to_word), as
        AnnotatedSentence.ids gives them.  All sentences share the kernel
        calls.  Head h reads the rows parts[h], every row when parts is None.
        Inference passes for_backward=False: no branch finds an argmax.
        """
        cfg = self.config.extractor
        branches = {}
        if cfg.use_chars:
            branches["char"] = _branch_rows(self.store, self.config, "char", [i[0] for i in ids], sent, chars, for_backward)
        if cfg.use_words:
            maps = [i[2] for i in ids]
            n = _lengths_holding(maps, sent, chars)
            words = np.concatenate(maps)[(n.cumsum() - n)[sent] + chars]
            branches["word"] = _branch_rows(self.store, self.config, "word", [i[1] for i in ids], sent, words, for_backward)
        fp = {prefix: cache.fp[cache_row] for prefix, (cache, cache_row) in branches.items()}
        parts = parts or dict.fromkeys(self.heads, slice(None))
        gates, features = fuse(self.store, cfg, fp, parts)
        masks = None
        if drop_rng is not None and cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            # row by row, each head's mask's draws in head order
            draws = drop_rng.random((chars.shape[0], len(self.heads), cfg.fused_dim))
            masks = {head: (draws[part, h] < keep) / keep for h, (head, part) in enumerate(parts.items())}
            features = {head: f * masks[head] for head, f in features.items()}
        return _Forward(branches, fp, parts, gates, features, masks)

    def _backward(self, fwd: _Forward, dfs: dict[str, np.ndarray]) -> None:
        if fwd.masks is not None:
            dfs = {head: df * fwd.masks[head] for head, df in dfs.items()}
        dfp = fuse_backward(self.store, self.config.extractor, fwd.fp, fwd.parts, fwd.gates, dfs)
        for prefix, (cache, cache_row) in fwd.branches.items():
            _backward_rows(self.store, self.config, prefix, cache, cache_row, dfp[prefix])

    def _loss(self, rows_a: Sequence[tuple], rows_b: Sequence[tuple], drop_rng: np.random.Generator | None) -> float:
        """Summed cross-entropy of (sentence, char index, gold class) rows, a through head 0 and b through head 1.

        Both streams share one forward pass; grads accumulate.
        """
        rows = [*rows_a, *rows_b]
        # each distinct sentence object once, in order of first appearance, with no call per row
        sentences = [r[0] for r in rows]
        keys = list(map(id, sentences))
        distinct = dict(zip(keys, sentences))
        slot = {key: k for k, key in enumerate(distinct)}
        ids = [s.ids(self.vocab) for s in distinct.values()]
        cut = len(rows_a)
        parts = dict(zip(self.heads, (slice(None, cut), slice(cut, None))))
        fwd = self._forward(ids, np.array([slot[key] for key in keys]), np.array([r[1] for r in rows]), parts, drop_rng)
        grads, loss = {}, 0.0
        for (head, f), stream in zip(fwd.features.items(), (rows_a, rows_b)):
            _, head_loss, dscores = softmax_xent(head_scores(self.store, head, f), [r[2] for r in stream])
            grads[head] = head_backward(self.store, head, f, dscores)
            loss += head_loss
        self._backward(fwd, grads)
        return loss

    # -- inference ---------------------------------------------------------

    def _row_chars(self, sentence: AnnotatedSentence) -> np.ndarray:
        """The character each of the sentence's inference rows reads: every character, unless a kind says otherwise."""
        return np.arange(len(sentence.text))

    def _probabilities(self, fwd: _Forward) -> tuple[np.ndarray, ...]:
        """Each head's softmax over every row of a forward, in head order."""
        return tuple(softmax(head_scores(self.store, h, f)) for h, f in fwd.features.items())

    def _decode(
        self, sentence: AnnotatedSentence, rows: tuple[np.ndarray, ...], stats: decoder.DecodeStats | None
    ) -> list[decoder.Prediction]:
        """The sentence's predictions from its slices of `_probabilities`."""
        raise NotImplementedError

    def _packs(self, sentences: Sequence[AnnotatedSentence]):
        """Runs of consecutive (sentence, row chars), one forward each, under _PREDICT_ROWS."""
        pack, n_rows = [], 0
        for sentence in sentences:
            chars = self._row_chars(sentence)
            alone = len(sentence.text) > self.config.max_tokens
            if pack and (alone or n_rows + chars.shape[0] > _PREDICT_ROWS):
                yield pack
                pack, n_rows = [], 0
            pack.append((sentence, chars))
            n_rows += _PREDICT_ROWS if alone else chars.shape[0]  # a full count: nothing joins a long one
        if pack:
            yield pack

    def _sentence_rows(self, sentences: Sequence[AnnotatedSentence]):
        """(sentence, its slices of `_probabilities`) for every sentence, in order, from one forward per pack (_packs).

        This is the package's one inference forward.
        """
        for pack in self._packs(sentences):
            counts = [chars.shape[0] for _, chars in pack]
            ids = [sentence.ids(self.vocab) for sentence, _ in pack]
            sent, chars = np.arange(len(pack)).repeat(counts), np.concatenate([c for _, c in pack])
            # the forward's caches die here, before the next pack's forward allocates its own
            probs = self._probabilities(self._forward(ids, sent, chars, for_backward=False))
            bounds = [0, *accumulate(counts)]
            for (sentence, _), lo, hi in zip(pack, bounds, bounds[1:]):
                yield sentence, tuple(p[lo:hi] for p in probs)

    def encode_sentence(self, sentence: AnnotatedSentence) -> tuple[np.ndarray, ...]:
        """Each head's probability rows for the sentence forwarded alone: a one-sentence `_sentence_rows`."""
        ((_, rows),) = self._sentence_rows([sentence])
        return rows

    def predict_corpus(
        self, sentences: Sequence[AnnotatedSentence], stats: decoder.DecodeStats | None = None
    ) -> dict[tuple[str, str], list[decoder.Prediction]]:
        """Predictions of every sentence, by sentence key, from `_sentence_rows`.

        `stats`, a decoder.DecodeStats, adds the proposal decoder's counts;
        the baselines propose nothing and leave it as it is.  A one-sentence
        call decodes the rows `encode_sentence` gives.
        """
        return {sentence.key: self._decode(sentence, rows, stats) for sentence, rows in self._sentence_rows(sentences)}

    def predict_sentence(self, sentence: AnnotatedSentence) -> list[decoder.Prediction]:
        """One sentence's predict_corpus; the package never calls it, only perfbench does."""
        return self.predict_corpus([sentence])[sentence.key]

    # -- persistence -------------------------------------------------------

    def save(self, path, trainer_state: dict | None = None) -> None:
        meta = {
            "kind": self.kind,
            "config": asdict(self.config),
            "vocab": self.vocab.to_json(),
            "subtypes": self.subtypes.names,
            "rng_seed": self.rng_seed,
        }
        if trainer_state is not None:
            meta["trainer_state"] = trainer_state
        save_checkpoint(path, self.store, meta)

    @classmethod
    def from_meta(cls, meta: dict, tensors: dict | None = None) -> "CharEncoderBase":
        """A model of this kind with the checkpoint's config, vocab and subtypes, and its tensors if given.

        The config is read as strictly as a run file's model section.
        Metadata that does not describe a model raises CheckpointError
        naming the field, and so do tensors that do not fit the model.
        """
        names = meta.get("subtypes")
        try:
            config = from_json(ModelConfig, meta.get("config"), CheckpointError, "config")
            vocab = Vocabulary.from_json(meta.get("vocab"))
            if not (is_a(names, "tuple[str, ...]") and names):
                raise CheckpointError(f"subtypes must be a non-empty list of names, got {names!r}")
            if len(set(names)) < len(names):
                raise CheckpointError(f"subtypes lists {next(n for k, n in enumerate(names) if n in names[:k])!r} twice")
            rng_seed = check_value(meta.get("rng_seed", 0), "int", "rng_seed", CheckpointError)
            check_bound(TrainConfig, "rng_seed", rng_seed, "rng_seed")
            subtypes = SubtypeInventory(names)
        except (CheckpointError, ConfigError) as exc:
            raise CheckpointError(f"bad model metadata: {exc}") from exc
        try:
            return cls(config=config, vocab=vocab, subtypes=subtypes, rng_seed=rng_seed, tensors=tensors)
        except ConfigError as exc:
            raise CheckpointError(f"bad model metadata: {exc}") from exc


class CharSpanModel(CharEncoderBase):
    """Joint nugget-proposal and subtype classifier over characters."""

    kind = "proposal"

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0, tensors=None):
        if len(subtypes) < 1:
            raise ConfigError("model needs at least one event subtype")
        super().__init__(config, vocab, subtypes, rng_seed, tensors)

    def _head_classes(self):
        """The span-class head (NIL plus every (length, position) pair) and the subtype head, which has no NIL."""
        return {"nugget": num_nugget_classes(self.config.max_nugget_len), "type": len(self.subtypes)}

    # -- inference ---------------------------------------------------------

    def _decode(self, sentence, rows, stats):
        return decoder.decode_sentence(self, sentence, rows, stats)

    def char_distributions(self, rows: tuple[np.ndarray, np.ndarray], ci: int) -> tuple[np.ndarray, np.ndarray]:
        """(span-class probabilities, subtype probabilities) of character ci, from `encode_sentence`'s rows."""
        return rows[0][ci], rows[1][ci]

    # -- training ----------------------------------------------------------

    def training_streams(self, corpus, neg_ratio: float = 5.0, rng_seed: int = 0):
        """(span-head instances, subtype-head instances) for the trainer."""
        from .corpus import make_instances

        sets = make_instances(corpus, neg_ratio=neg_ratio, rng_seed=rng_seed, max_len=self.config.max_nugget_len)
        return sets.generator, sets.classifier

    def loss_and_grads(
        self,
        gen_batch: Sequence[TrainingInstance],
        cls_batch: Sequence[TrainingInstance],
        drop_rng: np.random.Generator | None = None,
    ) -> float:
        """Summed cross-entropy over both instance streams; grads accumulate."""
        for inst in cls_batch:
            if inst.type_label is None:
                raise ConfigError("classifier stream instance is missing its subtype label")
        max_len = self.config.max_nugget_len
        return self._loss(
            [(i.sentence, i.char_index, label_to_class(i.nugget_label, max_len)) for i in gen_batch],
            [(i.sentence, i.char_index, self.subtypes.id_of(i.type_label)) for i in cls_batch],
            drop_rng,
        )


def load_model(path, optimizer_state: bool = False) -> tuple[CharEncoderBase, dict]:
    """Open any checkpoint, dispatching on its recorded model kind; a CheckpointError names the file.

    The model is built from the checkpoint's arrays, so it draws no
    weights and holds one copy of them.  optimizer_state=True also restores
    the Adadelta state, which resuming needs.
    """
    meta, tensors = load_checkpoint(path, optimizer_state=optimizer_state)
    kind = meta.get("kind")
    cls = MODEL_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    try:
        model = cls.from_meta(meta, tensors)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return model, meta
