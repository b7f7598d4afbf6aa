"""Run configuration: one YAML file describing data, model, and training.

Unknown keys are rejected by name so typos fail loudly instead of silently
falling back to defaults.  The loaded config can be echoed back as JSON
with every default filled in.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import yaml

from .encoder import ExtractorConfig
from .errors import ConfigError
from .model import MODEL_CLASSES, ModelConfig
from .synthgen import GenSpec
from .train import TrainConfig


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _check_ints(section: dict, cls, where: str) -> None:
    """Reject a float, bool or string given for one of cls's int fields."""
    for f in fields(cls):
        if f.type in ("int", int) and f.name in section:
            _int(section[f.name], f"{where}.{f.name}")


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _section(data: dict, name: str) -> dict:
    value = data.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {type(value).__name__}")
    return value


@dataclass
class RunConfig:
    model_kind: str = "proposal"
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    generator: GenSpec | None = None
    generator_seed: int = 0
    train_path: str | None = None
    dev_path: str | None = None
    test_path: str | None = None
    char_embeddings: str | None = None
    word_embeddings: str | None = None
    vocab_min_count: int = 1
    out_dir: str | None = None

    def to_json(self) -> dict:
        gen = None
        if self.generator is not None:
            gen = {**asdict(self.generator), "seed": self.generator_seed}
        return {
            "model_kind": self.model_kind,
            "model": self.model.to_json(),
            "training": self.training.to_json(),
            "generator": gen,
            "data": {"train": self.train_path, "dev": self.dev_path, "test": self.test_path},
            "embeddings": {"chars": self.char_embeddings, "words": self.word_embeddings},
            "vocab_min_count": self.vocab_min_count,
            "out_dir": self.out_dir,
        }


def parse_run_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys(
        data,
        {"model", "training", "generator", "data", "embeddings", "vocab_min_count", "out_dir"},
        "top-level",
    )

    model_section = dict(_section(data, "model"))
    _check_keys(model_section, {"kind"} | _field_names(ModelConfig), "model")
    kind = model_section.pop("kind", RunConfig.model_kind)
    kinds = tuple(MODEL_CLASSES)
    if kind not in kinds:
        raise ConfigError(f"model.kind must be one of {kinds}, got {kind!r}")
    extractor_section = model_section.pop("extractor", {}) or {}
    _check_keys(extractor_section, _field_names(ExtractorConfig), "model.extractor")
    _check_ints(extractor_section, ExtractorConfig, "model.extractor")
    _check_ints(model_section, ModelConfig, "model")
    try:
        extractor = ExtractorConfig(**extractor_section)
        model = ModelConfig(extractor=extractor, **model_section)
    except TypeError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    training_section = _section(data, "training")
    _check_keys(training_section, _field_names(TrainConfig), "training")
    _check_ints(training_section, TrainConfig, "training")
    try:
        training = TrainConfig(**training_section)
    except TypeError as exc:
        raise ConfigError(f"bad training section: {exc}") from exc

    gen = None
    gen_seed = 0
    if data.get("generator") is not None:
        gen_section = dict(_section(data, "generator"))
        gen_seed = _int(gen_section.pop("seed", 0), "generator.seed")
        _check_keys(gen_section, _field_names(GenSpec), "generator")
        _check_ints(gen_section, GenSpec, "generator")
        if "subtypes" in gen_section:
            gen_section["subtypes"] = tuple(gen_section["subtypes"])
        if "proportions" in gen_section:
            gen_section["proportions"] = tuple(gen_section["proportions"])
        try:
            gen = GenSpec(**gen_section)
        except TypeError as exc:
            raise ConfigError(f"bad generator section: {exc}") from exc

    data_section = _section(data, "data")
    _check_keys(data_section, {"train", "dev", "test"}, "data")
    emb_section = _section(data, "embeddings")
    _check_keys(emb_section, {"chars", "words"}, "embeddings")

    return RunConfig(
        model_kind=kind,
        model=model,
        training=training,
        generator=gen,
        generator_seed=gen_seed,
        train_path=data_section.get("train"),
        dev_path=data_section.get("dev"),
        test_path=data_section.get("test"),
        char_embeddings=emb_section.get("chars"),
        word_embeddings=emb_section.get("words"),
        vocab_min_count=_int(data.get("vocab_min_count", RunConfig.vocab_min_count), "vocab_min_count"),
        out_dir=data.get("out_dir"),
    )


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    try:
        return parse_run_config(data or {})
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_resolved_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
