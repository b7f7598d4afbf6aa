"""Span-proposal model: per-character nugget and subtype distributions.

A CharSpanModel owns one ParamStore plus everything needed to map a raw
annotated sentence to per-character probability distributions: a character
branch, an optional word branch aligned through the segmentation, gated or
concatenated fusion, and the two softmax heads.  Losses are summed
cross-entropies over two instance streams: every sampled character for the
span head, gold in-nugget characters for the subtype head.

Every model kind (this one and the baselines in baselines.py) derives from
CharEncoderBase, which builds the encoder tensors, owns the one checkpoint
layout, and runs every kind's rows through `_forward`/`_backward`; a
wordwise row enters at its word's first character.  `load_model` opens any
kind through MODEL_CLASSES.

Inference has one path for every kind, `predict_corpus`.  It packs whole
sentences, in order, into one forward until the next would pass a fixed
row budget (_PREDICT_ROWS), applies the kind's head softmax once per
forward, and hands each sentence its own row slices: this model decodes
them with decoder.decode_sentence, the IOB tagger with iob_decode, and the
word classifier reads one row per word.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import decoder  # read as decoder.decode_sentence at each call, so a patched module attribute applies
from .corpus import AnnotatedSentence, SubtypeInventory, TrainingInstance, Vocabulary
from .encoder import (
    BranchCache,
    ExtractorConfig,
    FusionCache,
    branch_backward,
    extract_branch,
    fuse,
    fuse_backward,
    register_encoder_params,
)
from .errors import CheckpointError, ConfigError
from .labels import label_to_class, num_nugget_classes
from .ndcore import ParamStore, load_checkpoint, restore_store, save_checkpoint, scatter_rows, softmax, softmax_xent


@dataclass(frozen=True)
class ModelConfig:
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    max_nugget_len: int = 3
    max_tokens: int = 120

    def __post_init__(self):
        if self.max_nugget_len < 1:
            raise ConfigError(f"max_nugget_len must be >= 1, got {self.max_nugget_len}")
        if self.max_tokens < self.extractor.window:
            raise ConfigError(
                f"max_tokens {self.max_tokens} shorter than the conv window {self.extractor.window}"
            )

    def to_json(self) -> dict:
        return {**asdict(self), "extractor": self.extractor.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        return cls(**{**data, "extractor": ExtractorConfig.from_json(data["extractor"])})


def register_head_params(store: ParamStore, fused_dim: int, n_nugget_classes: int, n_subtypes: int) -> None:
    """The span-class head (NIL plus every (length, position) pair) and the subtype head, which has no NIL."""
    store.add("head.nugget_w", (n_nugget_classes, fused_dim), init="glorot")
    store.add("head.nugget_b", (n_nugget_classes,), init="zeros")
    store.add("head.type_w", (n_subtypes, fused_dim), init="glorot")
    store.add("head.type_b", (n_subtypes,), init="zeros")


def head_scores(store: ParamStore, head: str, features: np.ndarray) -> np.ndarray:
    """Scores for (m, fused_dim) feature rows, or for one feature vector."""
    return features @ store[f"head.{head}_w"].value.T + store[f"head.{head}_b"].value


def head_backward(store: ParamStore, head: str, features: np.ndarray, dscores: np.ndarray) -> np.ndarray:
    """Accumulate head gradients over (m, fused_dim) rows; returns dL/dfeatures."""
    store[f"head.{head}_w"].grad += dscores.T @ features
    store[f"head.{head}_b"].grad += dscores.sum(axis=0)
    return dscores @ store[f"head.{head}_w"].value


@dataclass
class SentenceEncoding:
    """Id arrays for one sentence, and its per-character distributions once queried.

    The id array of a branch the model does not use is None.

    Inference (`predict_corpus`) never fills `rows`.  It serves only
    char_distributions, the per-character accessor kept for perfbench's
    decode gate and the test oracle; it is a snapshot of the weights at the
    first call.  Encode the sentence again after changing them.
    """

    char_ids: np.ndarray | None
    word_ids: np.ndarray | None
    char_to_word: np.ndarray
    rows: tuple[np.ndarray, ...] | None = None


def _view_starts(n: int, centers: np.ndarray, max_tokens: int) -> np.ndarray:
    """First token of the max_tokens-long view each center reads: centered on it, clamped at the edges."""
    if n <= max_tokens:
        return np.zeros_like(centers)
    return np.clip(centers - max_tokens // 2, 0, n - max_tokens)


@dataclass
class _BranchRows:
    """One branch's features for a batch of rows, from one extract_branch call."""

    prefix: str
    cache: BranchCache
    cache_row: np.ndarray  # batch row -> its center's row in the cache

    @property
    def fp(self) -> np.ndarray:
        return self.cache.fp[self.cache_row]


def _branch_rows(
    store: ParamStore,
    config: ModelConfig,
    prefix: str,
    groups: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    for_backward: bool = True,
) -> _BranchRows:
    """Features of one branch for (token ids, centers, batch rows) per sentence, in one extract_branch call.

    Each distinct center of a sentence is computed once.  Each
    max_tokens-long view a sentence needs is one segment; extract_branch
    bounds its working memory itself, by running the token term's window
    sums and the pooling over chunks of consecutive segments.  for_backward tells
    extract_branch whether branch_backward follows: only then does the
    cache keep each pooled value's argmax row.  The cache keeps no token or
    offset term.
    """
    segments = []
    cache_row = np.empty(sum(len(rows) for _, _, rows in groups), dtype=np.int64)
    k = 0
    for ids, centers, rows in groups:
        centers = centers.tolist()
        distinct = np.array(sorted(set(centers)), dtype=np.int64)
        starts = _view_starts(ids.shape[0], distinct, config.max_tokens)
        position = {}
        for start in sorted(set(starts.tolist())):
            view_centers = distinct[starts == start]
            segments.append((ids[start : start + config.max_tokens], view_centers - start))
            position.update(zip(view_centers.tolist(), range(k, k + view_centers.shape[0])))
            k += view_centers.shape[0]
        cache_row[rows] = [position[c] for c in centers]
    cache = extract_branch(store, prefix, segments, config.extractor, for_backward)
    return _BranchRows(prefix, cache, cache_row)


def _backward_rows(store: ParamStore, config: ModelConfig, branch: _BranchRows, dfp: np.ndarray) -> None:
    """Backpropagate dL/d(features) of every batch row; rows sharing a center add up."""
    per_center = np.zeros((branch.cache.fp.shape[0], dfp.shape[1]))
    scatter_rows(per_center, branch.cache_row, dfp)
    branch_backward(store, branch.prefix, branch.cache, per_center, config.extractor)


@dataclass
class _Forward:
    branches: list[_BranchRows]
    fusion: FusionCache
    f_nugget: np.ndarray  # (m, fused_dim) head inputs, after dropout when training
    f_type: np.ndarray
    masks: tuple[np.ndarray, np.ndarray] | None  # (nugget, type) dropout masks


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
    """What every model kind shares: its state, the encoder, batched plumbing and the checkpoint.

    The store holds the encoder tensors, then the subclass's head tensors,
    which its __init__ adds after calling this one.  This base turns
    batch rows, grouped by sentence, into fused head inputs, routes head
    gradients back down, and saves and loads any kind in one layout.  A
    subclass's `kind` names it in checkpoints and in the run config.
    """

    kind: str

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        MODEL_CLASSES[cls.kind] = cls

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0):
        self.config = config
        self.vocab = vocab
        self.subtypes = subtypes
        self.rng_seed = rng_seed
        self.store = ParamStore(rng_seed)
        register_encoder_params(self.store, config.extractor, vocab)

    def encode_sentence(self, sentence: AnnotatedSentence) -> SentenceEncoding:
        cfg = self.config.extractor
        char_ids = self.vocab.char_ids(sentence.text) if cfg.use_chars else None
        word_ids = self.vocab.word_ids(sentence.words) if cfg.use_words else None
        return SentenceEncoding(char_ids, word_ids, np.array(sentence.char_to_word, dtype=np.int64))

    def _groups_of(self, sentences: Sequence[AnnotatedSentence], chars: Sequence[int]) -> list[tuple]:
        """(encoding, chars[rows], rows) per distinct sentence object, in order of first appearance."""
        rows_of: dict[int, tuple[AnnotatedSentence, list[int]]] = {}
        for row, sentence in enumerate(sentences):
            rows_of.setdefault(id(sentence), (sentence, []))[1].append(row)
        chars = np.asarray(chars, dtype=np.int64)
        return [(self.encode_sentence(s), chars[rows], np.array(rows)) for s, rows in rows_of.values()]

    def _forward(
        self,
        groups: Sequence[tuple[SentenceEncoding, np.ndarray, np.ndarray]],
        drop_rng: np.random.Generator | None = None,
        for_backward: bool = True,
    ) -> _Forward:
        """Head inputs for (encoding, char indices, batch rows) groups, one per sentence.

        All sentences share the kernel calls.  Inference passes
        for_backward=False: no branch finds an argmax.
        """
        cfg = self.config.extractor
        branches = []
        if cfg.use_chars:
            char_groups = [(enc.char_ids, chars, rows) for enc, chars, rows in groups]
            branches.append(_branch_rows(self.store, self.config, "char", char_groups, for_backward))
        if cfg.use_words:
            word_groups = [(enc.word_ids, enc.char_to_word[chars], rows) for enc, chars, rows in groups]
            branches.append(_branch_rows(self.store, self.config, "word", word_groups, for_backward))
        fp = {b.prefix: b.fp for b in branches}
        fusion = fuse(self.store, cfg, fp.get("char"), fp.get("word"))
        f_nugget, f_type = fusion.f_nugget, fusion.f_type
        masks = None
        if drop_rng is not None and cfg.dropout > 0.0:
            keep = 1.0 - cfg.dropout
            # row by row, the nugget mask's draws and then the type mask's
            draws = drop_rng.random((f_nugget.shape[0], 2, cfg.fused_dim))
            masks = ((draws[:, 0] < keep) / keep, (draws[:, 1] < keep) / keep)
            f_nugget = f_nugget * masks[0]
            f_type = f_type * masks[1]
        return _Forward(branches, fusion, f_nugget, f_type, masks)

    def _backward(self, fwd: _Forward, df_nugget: np.ndarray, df_type: np.ndarray) -> None:
        if fwd.masks is not None:
            df_nugget = df_nugget * fwd.masks[0]
            df_type = df_type * fwd.masks[1]
        dfp_char, dfp_word = fuse_backward(self.store, self.config.extractor, fwd.fusion, df_nugget, df_type)
        dfp = {"char": dfp_char, "word": dfp_word}
        for branch in fwd.branches:
            _backward_rows(self.store, self.config, branch, dfp[branch.prefix])

    def _sentence_forward(self, enc: SentenceEncoding) -> _Forward:
        every_char = np.arange(enc.char_to_word.shape[0])
        return self._forward([(enc, every_char, every_char)], for_backward=False)

    # -- inference ---------------------------------------------------------

    def _row_chars(self, sentence: AnnotatedSentence) -> np.ndarray:
        """The character each of the sentence's inference rows reads: every character, unless a kind says otherwise."""
        return np.arange(len(sentence.text))

    def _probabilities(self, fwd: _Forward) -> tuple[np.ndarray, ...]:
        """The kind's head softmax over every row of a forward."""
        raise NotImplementedError

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

    def predict_corpus(
        self, sentences: Sequence[AnnotatedSentence], stats: decoder.DecodeStats | None = None
    ) -> dict[tuple[str, str], list[decoder.Prediction]]:
        """Predictions of every sentence, by sentence key, from one forward per pack (_packs).

        `stats`, a decoder.DecodeStats, adds the proposal decoder's counts;
        the baselines propose nothing and leave it as it is.  A one-sentence
        call is a forward of that sentence alone: the proposal model's rows
        then have the same bits as `distributions`.
        """
        out = {}
        for pack in self._packs(sentences):
            groups, bounds = [], [0]
            for sentence, chars in pack:
                bounds.append(bounds[-1] + chars.shape[0])
                groups.append((self.encode_sentence(sentence), chars, np.arange(bounds[-2], bounds[-1])))
            probs = self._probabilities(self._forward(groups, for_backward=False))
            for (sentence, _), lo, hi in zip(pack, bounds, bounds[1:]):
                out[sentence.key] = self._decode(sentence, tuple(p[lo:hi] for p in probs), stats)
        return out

    def predict_sentence(self, sentence: AnnotatedSentence) -> list[decoder.Prediction]:
        """One sentence's predict_corpus; the package never calls it, only perfbench does."""
        return self.predict_corpus([sentence])[sentence.key]

    # -- persistence -------------------------------------------------------

    def save(self, path, trainer_state: dict | None = None) -> None:
        meta = {
            "kind": self.kind,
            "config": self.config.to_json(),
            "vocab": self.vocab.to_json(),
            "subtypes": self.subtypes.names,
            "rng_seed": self.rng_seed,
        }
        if trainer_state is not None:
            meta["trainer_state"] = trainer_state
        save_checkpoint(path, self.store, meta)

    @classmethod
    def from_meta(cls, meta: dict) -> "CharEncoderBase":
        """A freshly initialised model of this kind with the checkpoint's config, vocab and subtypes.

        Metadata that does not describe a model raises CheckpointError.
        """
        config, vocab, names = meta.get("config"), meta.get("vocab"), meta.get("subtypes")
        if not (isinstance(config, dict) and isinstance(vocab, dict)):
            raise CheckpointError("bad model metadata: config and vocab must be JSON objects")
        if not all(isinstance(vocab.get(table), dict) for table in ("chars", "words")):
            raise CheckpointError("bad model metadata: vocab must map chars and words to ids")
        if not (isinstance(names, list) and names and all(isinstance(name, str) for name in names)):
            raise CheckpointError(f"bad model metadata: subtypes must be a non-empty list of names, got {names!r}")
        try:
            config, vocab = ModelConfig.from_json(config), Vocabulary.from_json(vocab)
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad model metadata: {type(exc).__name__}: {exc}") from exc
        return cls(config=config, vocab=vocab, subtypes=SubtypeInventory(names), rng_seed=int(meta.get("rng_seed", 0)))

    @classmethod
    def _restore(cls, path, meta: dict, tensors: dict) -> "CharEncoderBase":
        """from_meta filled with the checkpoint's tensors; a CheckpointError names the file."""
        try:
            model = cls.from_meta(meta)
            restore_store(model.store, tensors)
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        return model

    @classmethod
    def load(cls, path) -> tuple["CharEncoderBase", dict]:
        """(model, metadata) from a checkpoint of this kind; any other kind raises CheckpointError."""
        meta, tensors = load_checkpoint(path)
        if meta.get("kind") != cls.kind:
            raise CheckpointError(f"{path}: checkpoint kind {meta.get('kind')!r} is not {cls.kind!r}")
        return cls._restore(path, meta, tensors), meta


class CharSpanModel(CharEncoderBase):
    """Joint nugget-proposal and subtype classifier over characters."""

    kind = "proposal"

    def __init__(self, config: ModelConfig, vocab: Vocabulary, subtypes: SubtypeInventory, rng_seed: int = 0):
        if len(subtypes) < 1:
            raise ConfigError("model needs at least one event subtype")
        super().__init__(config, vocab, subtypes, rng_seed)
        self.n_nugget_classes = num_nugget_classes(config.max_nugget_len)
        register_head_params(self.store, config.extractor.fused_dim, self.n_nugget_classes, len(subtypes))

    # -- inference ---------------------------------------------------------

    def _probabilities(self, fwd):
        return (
            softmax(head_scores(self.store, "nugget", fwd.f_nugget)),
            softmax(head_scores(self.store, "type", fwd.f_type)),
        )

    def _decode(self, sentence, rows, stats):
        return decoder.decode_sentence(self, sentence, rows, stats)

    def distributions(self, enc: SentenceEncoding) -> tuple[np.ndarray, np.ndarray]:
        """(n, span classes) and (n, subtypes) probability rows of every character, from one forward pass."""
        return self._probabilities(self._sentence_forward(enc))

    def char_distributions(self, enc: SentenceEncoding, ci: int) -> tuple[np.ndarray, np.ndarray]:
        """(span-class probabilities, subtype probabilities) for one character.

        The first call on an encoding keeps `distributions` on it; later
        calls index into them.
        """
        if enc.rows is None:
            enc.rows = self.distributions(enc)
        pn, pt = enc.rows
        return pn[ci], pt[ci]

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
        batch = [*gen_batch, *cls_batch]
        fwd = self._forward(self._groups_of([i.sentence for i in batch], [i.char_index for i in batch]), drop_rng)
        g = len(gen_batch)
        gold_nugget = [label_to_class(inst.nugget_label, self.config.max_nugget_len) for inst in gen_batch]
        gold_type = [self.subtypes.id_of(inst.type_label) for inst in cls_batch]
        _, loss_nugget, ds_nugget = softmax_xent(head_scores(self.store, "nugget", fwd.f_nugget[:g]), gold_nugget)
        _, loss_type, ds_type = softmax_xent(head_scores(self.store, "type", fwd.f_type[g:]), gold_type)
        df_nugget = np.zeros_like(fwd.f_nugget)
        df_type = np.zeros_like(fwd.f_type)
        df_nugget[:g] = head_backward(self.store, "nugget", fwd.f_nugget[:g], ds_nugget)
        df_type[g:] = head_backward(self.store, "type", fwd.f_type[g:], ds_type)
        self._backward(fwd, df_nugget, df_type)
        return loss_nugget + loss_type


def load_model(path) -> tuple[CharEncoderBase, dict]:
    """Open any checkpoint, dispatching on its recorded model kind."""
    meta, tensors = load_checkpoint(path)
    kind = meta.get("kind")
    cls = MODEL_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    return cls._restore(path, meta, tensors), meta
