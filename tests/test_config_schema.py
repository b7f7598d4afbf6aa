"""The committed config schema is the generator's output, and it agrees with the code on every single-field value."""

import json
import math
import re
import typing
from dataclasses import fields, is_dataclass

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import config_schema
from nuggetnet.config import RunConfig, parse_run_config
from nuggetnet.encoder import HybridMode
from nuggetnet.errors import ConfigError
from nuggetnet.model import MODEL_CLASSES, CharEncoderBase

VALIDATOR = jsonschema.Draft202012Validator(json.loads(config_schema.SCHEMA_PATH.read_text(encoding="utf-8")))

# the code's rules between fields, which the schema only names in its description
CROSS_FIELD_ERRORS = re.compile(
    r"at least one of use_chars/use_words|shorter than the conv window|must sum to 1|context word range"
)

BOUNDARY_INTS = st.integers(-3, 3) | st.integers(-(2**40), 2**40)
BOUNDARY_FLOATS = (
    st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 1e-6, 0.5, 0.95, 0.9999999999, 1.0, 1.5, 1e308])
    | st.integers(-2, 2)
    | st.floats(allow_nan=False, allow_infinity=False)
)
PROPORTIONS = st.sampled_from(
    [[1, 0, 0], [0.5, 0.25, 0.25], [0.755, 0.195, 0.05], [-0.5, 1, 0.5], [1.5, -0.25, -0.25], [0.5, 0.5], []]
) | st.lists(BOUNDARY_FLOATS, max_size=4)


def _strategy(hint):
    if hint is int:
        return BOUNDARY_INTS
    if hint is float:
        return BOUNDARY_FLOATS
    if hint is bool:
        return st.booleans()
    if hint is str:
        return st.text(max_size=3)
    if hint is HybridMode:
        return st.sampled_from([mode.value for mode in HybridMode] + ["nonsense"])
    if hint == tuple[str, ...]:
        return st.lists(st.sampled_from("abc"), max_size=4)
    if hint == tuple[float, float, float]:
        return PROPORTIONS
    optional = [t for t in typing.get_args(hint) if t is not type(None)]
    assert len(optional) == 1, f"no strategy for {hint}"
    return st.none() | _strategy(optional[0])


def _config_fields(cls=RunConfig, path=()):
    """(path of keys in a run file, value strategy) for every value a run file sets, sections walked into."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        nested = [t for t in typing.get_args(hints[f.name]) or (hints[f.name],) if is_dataclass(t)]
        if nested:
            yield from _config_fields(nested[0], path + (f.name,))
        elif f.init:
            yield path + (f.name,), _strategy(hints[f.name])
    if cls is RunConfig:
        yield ("model", "kind"), st.sampled_from([*MODEL_CLASSES, "nope"])
        yield ("generator", "seed"), BOUNDARY_INTS


FIELDS = dict(_config_fields())


def _run_file(path, value) -> dict:
    """A run file that sets only path to value (and generator.n_sentences, which a generator section needs)."""
    data = {"generator": {"n_sentences": 5}} if path[0] == "generator" else {}
    section = data
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    return data


def _agree(path, value) -> None:
    """The code and the schema accept the same run file, but where the code applies a rule between fields."""
    data = _run_file(path, value)
    schema_error = next(VALIDATOR.iter_errors(data), None)
    try:
        parse_run_config(data)
    except ConfigError as exc:
        only_code = schema_error is None and not CROSS_FIELD_ERRORS.search(str(exc))
        assert not only_code, f"{path}={value!r}: only the code refuses it: {exc}"
        return
    assert schema_error is None, f"{path}={value!r}: only the schema refuses it: {schema_error.message}"


def test_committed_schema_is_the_generators_output():
    committed = config_schema.SCHEMA_PATH.read_text(encoding="utf-8")
    generated = config_schema.render()
    if committed != generated:
        old, new = committed.splitlines(), generated.splitlines()
        line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        pytest.fail(
            "schemas/config.schema.json is not the generator's output; regenerate it with\n"
            f"    {config_schema.REGENERATE}\n"
            f"first difference, line {line + 1}:\n"
            f"  committed: {old[line] if line < len(old) else '<end of file>'}\n"
            f"  generated: {new[line] if line < len(new) else '<end of file>'}"
        )


def _schema_leaves(section, path=()):
    for key, sub in section["properties"].items():
        yield from _schema_leaves(sub, path + (key,)) if "properties" in sub else [path + (key,)]


def test_the_property_draws_every_value_the_schema_lists():
    assert set(FIELDS) == set(_schema_leaves(config_schema.config_schema()))


def _leaf_schema(path) -> dict:
    node = VALIDATOR.schema
    for key in path:
        node = node["properties"][key]
    return node


INTEGER_FIELDS = [path for path in _schema_leaves(VALIDATOR.schema) if _leaf_schema(path).get("type") == "integer"]


@pytest.mark.parametrize("path", INTEGER_FIELDS, ids=".".join)
def test_integer_valued_floats_pass_the_schema_but_not_the_code(path):
    # JSON Schema counts 8.0 as an integer; the code keeps int fields strict, and the schema's $comment says so
    data = _run_file(path, 8.0)
    assert next(VALIDATOR.iter_errors(data), None) is None
    with pytest.raises(ConfigError) as info:
        parse_run_config(data)
    assert str(info.value) == f"{'.'.join(path)} must be an integer, got 8.0"
    assert "8.0" in VALIDATOR.schema["$comment"]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_code_and_schema_agree_on_every_field(data):
    path = data.draw(st.sampled_from(sorted(FIELDS)))
    _agree(path, data.draw(FIELDS[path]))


@pytest.mark.parametrize(
    "path, value",
    [
        (("generator", "subtypes"), ["a", "a"]),
        (("generator", "subtypes"), ["a", "b", "a"]),
        (("generator", "subtypes"), []),
        (("generator", "proportions"), [-0.5, 1, 0.5]),
        (("generator", "proportions"), [1.5, -0.25, -0.25]),
        (("generator", "proportions"), [0.5, 0.5]),
        (("generator", "proportions"), [0.25, 0.25, 0.25, 0.25]),
        (("generator", "proportions"), [1, 0, 0]),
        (("generator", "min_context_words"), 0),
        (("generator", "min_context_words"), -1),
        (("generator", "max_context_words"), -1),
        (("generator", "n_distractor_words"), 0),
        (("generator", "seed"), -1),
        (("model", "max_tokens"), 0),
        (("model", "max_tokens"), 2),
        (("model", "extractor", "dropout"), 0),
        (("model", "extractor", "dropout"), 1),
        (("model", "extractor", "lex_window"), 0),
        (("model", "extractor", "lex_window"), -1),
        (("training", "eps"), 0),
        (("training", "eps"), 5e-324),
        (("training", "rho"), 0.9999999999),
        (("training", "epochs"), 0),
        (("training", "patience"), 0),
        (("vocab_min_count",), 0),
    ],
)
def test_code_and_schema_agree_at_the_boundaries(path, value):
    _agree(path, value)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("generator", "subtypes"), ["a", "a"], "subtypes contains duplicates"),
        (("generator", "proportions"), [math.nan, 0.5, 0.5], "proportions[0] must be a finite number >= 0, got nan"),
        (("generator", "proportions"), [0.5, math.inf, 0.5], "proportions[1] must be a finite number >= 0, got inf"),
        (("generator", "proportions"), [0.5, 0.5, -0.0001], "proportions[2] must be a finite number >= 0, got -0.0001"),
        (("generator", "proportions"), [0.5, 0.5], "proportions must have exactly 3 entries, got 2"),
        (("model", "extractor", "dropout"), math.nan, "dropout must be in [0, 1), got nan"),
        (("training", "eps"), math.nan, "eps must be > 0, got nan"),
    ],
)
def test_out_of_bounds_values_fail_naming_the_field(path, value, message):
    # NaN and infinity: JSON cannot write them, so only the code is asked; the message names the field by its path
    with pytest.raises(ConfigError) as info:
        parse_run_config(_run_file(path, value))
    assert str(info.value) == ".".join(path[:-1]) + "." + message


def test_an_unbounded_max_rel_dist_is_refused(monkeypatch):
    # it sizes each branch's (2 max_rel_dist + 1)-row position table: the run file is refused before any model is built
    monkeypatch.setattr(CharEncoderBase, "__init__", lambda *args, **kwargs: pytest.fail("a model was built"))
    with pytest.raises(ConfigError) as info:
        parse_run_config(_run_file(("model", "extractor", "max_rel_dist"), 100_000_000))
    assert str(info.value) == "model.extractor.max_rel_dist must be in [1, 65536), got 100000000"
    assert _leaf_schema(("model", "extractor", "max_rel_dist"))["exclusiveMaximum"] == 1 << 16
