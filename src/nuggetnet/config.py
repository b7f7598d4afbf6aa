"""Run configuration: one YAML file describing data, model, and training.

RunConfig has one field per section or top-level key of
schemas/config.schema.json, which tests/config_schema.py generates from the
fields and the bounds in their metadata.  `errors.from_json` reads a file by
those fields: unknown keys are rejected by name, so typos fail loudly instead
of silently falling back to defaults, every value must have its field's type,
and each `__post_init__` holds its bounds.  Only `model.kind` and
`generator.seed` are read by hand, as they are no fields of their section's
dataclass.  The loaded config can be echoed back with every default filled in.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field

import yaml

from .errors import ConfigError, check_bound, check_bounds, check_value, from_json, reading
from .model import MODEL_CLASSES, ModelConfig
from .synthgen import GenSpec
from .train import TrainConfig


@dataclass(frozen=True)
class DataPaths:
    train: str | None = None
    dev: str | None = None
    test: str | None = None


@dataclass(frozen=True)
class EmbeddingPaths:
    chars: str | None = None
    words: str | None = None


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    generator: GenSpec | None = None
    data: DataPaths = field(default_factory=DataPaths)
    embeddings: EmbeddingPaths = field(default_factory=EmbeddingPaths)
    vocab_min_count: int = field(default=1, metadata={"minimum": 1})
    out_dir: str | None = None
    # model.kind and generator.seed: no constructor argument, so from_json leaves them to parse_run_config
    model_kind: str = field(default="proposal", init=False)
    generator_seed: int = field(default=0, init=False, metadata={"minimum": 0})

    def __post_init__(self):
        check_bounds(self)

    def to_json(self) -> dict:
        out = asdict(self)
        out["model"]["kind"] = out.pop("model_kind")
        seed = out.pop("generator_seed")
        if out["generator"] is not None:
            out["generator"]["seed"] = seed
        return out


def _pop(data, section: str, key: str, default):
    """data[section][key], taken out of a copy of the section, or default if there is none."""
    if isinstance(data, dict) and isinstance(data.get(section), dict) and key in data[section]:
        data[section] = dict(data[section])
        return data[section].pop(key)
    return default


def parse_run_config(data) -> RunConfig:
    data = dict(data) if isinstance(data, dict) else data
    kind = _pop(data, "model", "kind", RunConfig.model_kind)
    seed = check_value(_pop(data, "generator", "seed", RunConfig.generator_seed), "int", "generator.seed", ConfigError)
    check_bound(RunConfig, "generator_seed", seed, "generator.seed")
    kinds = tuple(MODEL_CLASSES)
    if kind not in kinds:
        raise ConfigError(f"model.kind must be one of {kinds}, got {kind!r}")
    run = from_json(RunConfig, data, ConfigError)
    run.model_kind, run.generator_seed = kind, seed
    return run


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
    with reading(path, ConfigError) as fh:
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
