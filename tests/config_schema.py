"""The run config's JSON Schema, built from the config dataclasses.

    python tests/config_schema.py > schemas/config.schema.json

Each section lists its dataclass's constructor fields in order, typed from
their annotations, with the bounds in their metadata (`errors.check_bounds`);
the fields without a default are `required`.  `model.kind` and
`generator.seed`, which `parse_run_config` reads by hand, follow their
section's fields.  The rules between fields, which no JSON Schema keyword
says, are listed in the description, and the one place where the code is
stricter than the schema's types (integer-valued floats) in `$comment`.
"""

import enum
import json
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nuggetnet.config import RunConfig  # noqa: E402
from nuggetnet.model import MODEL_CLASSES  # noqa: E402

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "config.schema.json"
REGENERATE = "python tests/config_schema.py > schemas/config.schema.json"

CROSS_FIELD_RULES = (
    "model.extractor: use_chars or use_words",
    "model: max_tokens >= extractor.window",
    "generator: proportions sum to 1",
    "generator: min_context_words <= max_context_words",
)
INTEGER_NOTE = (
    'An "integer" field must be written without a fraction: the code refuses an integer-valued number '
    "such as 8.0, which JSON Schema counts as an integer."
)
JSON_TYPES = {int: "integer", bool: "boolean", float: "number", str: "string", type(None): "null"}
WIDTH = 100  # a field's schema that fits on one line at this width stays on it


def _no_finite(bounds) -> dict:
    """bounds as JSON Schema keywords: `finite` needs none, as JSON writes no NaN or infinity."""
    return {key: value for key, value in bounds.items() if key != "finite"}


def field_schema(hint, bounds) -> dict:
    """The schema of a field annotated hint with bounds, a dataclass becoming a section."""
    options = typing.get_args(hint) if typing.get_origin(hint) in (typing.Union, types.UnionType) else (hint,)
    nested = [t for t in options if is_dataclass(t)]
    if nested:
        section = section_schema(nested[0])
        if len(options) > 1:
            section["type"] = ["object", "null"]
        return section
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return {"enum": [member.value for member in hint]}
    if typing.get_origin(hint) is tuple:
        items = {"type": JSON_TYPES[typing.get_args(hint)[0]], **_no_finite(bounds.get("items", {}))}
        return {"type": "array", "items": items, **{k: v for k, v in bounds.items() if k != "items"}}
    names = [JSON_TYPES[t] for t in options]
    return {"type": names[0] if len(names) == 1 else names, **_no_finite(bounds)}


def section_schema(cls) -> dict:
    """The schema of the dataclass cls as a config section."""
    hints = typing.get_type_hints(cls)
    properties = {f.name: field_schema(hints[f.name], dict(f.metadata)) for f in fields(cls) if f.init}
    required = [f.name for f in fields(cls) if f.init and f.default is MISSING and f.default_factory is MISSING]
    return {
        "type": "object",
        "additionalProperties": False,
        **({"required": required} if required else {}),
        "properties": properties,
    }


def config_schema() -> dict:
    hints = typing.get_type_hints(RunConfig)
    top = section_schema(RunConfig)
    seed = next(f for f in fields(RunConfig) if f.name == "generator_seed")
    top["properties"]["model"]["properties"]["kind"] = {"enum": list(MODEL_CLASSES)}
    top["properties"]["generator"]["properties"]["seed"] = field_schema(hints["generator_seed"], dict(seed.metadata))
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": "nuggetnet/config.schema.json",
        "title": "Run configuration (YAML, shown here as its JSON data model)",
        "description": "Generated from the config dataclasses by tests/config_schema.py. "
        "The code also holds rules between fields: " + "; ".join(CROSS_FIELD_RULES) + ".",
        "$comment": INTEGER_NOTE,
        **top,
    }


def dumps(value, indent: int = 0, key: str = "") -> str:
    """value as JSON text: a section and its properties spread over lines, any other dict on one if it fits."""
    flat = json.dumps(value, ensure_ascii=False)
    head = f"{' ' * indent}{json.dumps(key)}: " if key else " " * indent
    spread = isinstance(value, dict) and (key == "properties" or "properties" in value)
    if not isinstance(value, dict) or (not spread and len(head) + len(flat) + 1 <= WIDTH):
        return head + flat
    body = ",\n".join(dumps(v, indent + 2, k) for k, v in value.items())
    return f"{head}{{\n{body}\n{' ' * indent}}}"


def render() -> str:
    return dumps(config_schema()) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render())
