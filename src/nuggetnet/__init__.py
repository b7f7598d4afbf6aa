"""Character-level trigger nugget proposal, decoding, and scoring."""

from .corpus import (
    AnnotatedSentence,
    MatchType,
    SubtypeInventory,
    TriggerNugget,
    Vocabulary,
    build_vocab,
    classify_match_type,
    load_corpus,
    make_instances,
    save_corpus,
)
from .decoder import Prediction, decode_corpus, decode_sentence
from .encoder import ExtractorConfig, HybridMode
from .errors import (
    CheckpointError,
    ConfigError,
    CorpusFormatError,
    CorpusValidationError,
    EvalInputError,
    NuggetError,
    NumericError,
    ShapeError,
)
from .evaluate import ScoreMode, ScoreReport, corpus_match_stats, recall_by_match_type, score
from .labels import NuggetLabel, decode_label, encode_label, label_to_class, num_nugget_classes
from .model import CharSpanModel, ModelConfig, load_model
from .baselines import IOBModel, WordwiseModel, iob_decode, iob_encode
from .synthgen import GenSpec, generate_synthetic_corpus
from .train import TrainConfig, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "AnnotatedSentence",
    "CharSpanModel",
    "CheckpointError",
    "ConfigError",
    "CorpusFormatError",
    "CorpusValidationError",
    "EvalInputError",
    "ExtractorConfig",
    "GenSpec",
    "HybridMode",
    "IOBModel",
    "MatchType",
    "ModelConfig",
    "NuggetError",
    "NuggetLabel",
    "NumericError",
    "Prediction",
    "ScoreMode",
    "ScoreReport",
    "ShapeError",
    "SubtypeInventory",
    "TrainConfig",
    "TrainResult",
    "TriggerNugget",
    "Vocabulary",
    "WordwiseModel",
    "build_vocab",
    "classify_match_type",
    "corpus_match_stats",
    "decode_corpus",
    "decode_label",
    "decode_sentence",
    "encode_label",
    "generate_synthetic_corpus",
    "iob_decode",
    "iob_encode",
    "label_to_class",
    "load_corpus",
    "load_model",
    "make_instances",
    "num_nugget_classes",
    "recall_by_match_type",
    "save_corpus",
    "score",
    "train",
]
