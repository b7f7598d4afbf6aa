"""Run configuration: one YAML file describing data, model, and training.

Unknown keys are rejected by name so typos fail loudly instead of silently
falling back to defaults.  The loaded config can be echoed back as JSON
with every default filled in.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields

import yaml

from .encoder import ExtractorConfig
from .errors import ConfigError
from .model import MODEL_CLASSES, ModelConfig
from .synthgen import GenSpec
from .train import TrainConfig


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# declared field type -> (what a value must be, the check); a YAML list stands for a tuple
_TYPE_CHECKS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "float": ("a number", _is_number),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[str, ...]": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "tuple[float, float, float]": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _typed(value, type_name: str, where: str):
    """value, if it has the declared type type_name; otherwise ConfigError naming where."""
    what, ok = _TYPE_CHECKS[type_name]
    if not ok(value):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return value


def _check_types(section: dict, cls, where: str) -> None:
    """Reject a value of the wrong type for any of cls's plainly typed fields, naming section.field."""
    for f in fields(cls):
        if f.name in section and f.type in _TYPE_CHECKS:
            _typed(section[f.name], f.type, f"{where}.{f.name}")


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
            "model": {**self.model.to_json(), "kind": self.model_kind},
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
    _check_keys(data, set(RunConfig().to_json()), "top-level")

    model_section = dict(_section(data, "model"))
    _check_keys(model_section, {"kind"} | _field_names(ModelConfig), "model")
    kind = model_section.pop("kind", RunConfig.model_kind)
    kinds = tuple(MODEL_CLASSES)
    if kind not in kinds:
        raise ConfigError(f"model.kind must be one of {kinds}, got {kind!r}")
    extractor_section = model_section.pop("extractor", {}) or {}
    _check_keys(extractor_section, _field_names(ExtractorConfig), "model.extractor")
    _check_types(extractor_section, ExtractorConfig, "model.extractor")
    _check_types(model_section, ModelConfig, "model")
    try:
        extractor = ExtractorConfig(**extractor_section)
        model = ModelConfig(extractor=extractor, **model_section)
    except TypeError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    training_section = _section(data, "training")
    _check_keys(training_section, _field_names(TrainConfig), "training")
    _check_types(training_section, TrainConfig, "training")
    try:
        training = TrainConfig(**training_section)
    except TypeError as exc:
        raise ConfigError(f"bad training section: {exc}") from exc

    gen = None
    gen_seed = 0
    if data.get("generator") is not None:
        gen_section = dict(_section(data, "generator"))
        gen_seed = _typed(gen_section.pop("seed", 0), "int", "generator.seed")
        _check_keys(gen_section, _field_names(GenSpec), "generator")
        _check_types(gen_section, GenSpec, "generator")
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
    for name, section in (("data", data_section), ("embeddings", emb_section)):
        for key, value in section.items():
            _typed(value, "str | None", f"{name}.{key}")

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
        vocab_min_count=_typed(data.get("vocab_min_count", RunConfig.vocab_min_count), "int", "vocab_min_count"),
        out_dir=_typed(data.get("out_dir"), "str | None", "out_dir"),
    )


class _RunConfigLoader(yaml.SafeLoader):
    """yaml.SafeLoader that also reads YAML 1.2 floats, such as 1e-6 or 1.5e3, as numbers.

    YAML 1.1, which SafeLoader follows, needs a dot and a signed exponent
    in a float and reads 1e-6 as a string.
    """


_RunConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def load_run_config(path) -> RunConfig:
    """The run config in a YAML file, or in a .json file such as the resolved_config.json a run writes.

    YAML floats follow YAML 1.2, so an exponent needs no dot (_RunConfigLoader).
    """
    syntax = "JSON" if str(path).endswith(".json") else "YAML"
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh) if syntax == "JSON" else yaml.load(fh, Loader=_RunConfigLoader)
        except (ValueError, yaml.YAMLError) as exc:
            raise ConfigError(f"{path}: not valid {syntax}: {exc}") from exc
    try:
        return parse_run_config(data or {})
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_resolved_config(config: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
