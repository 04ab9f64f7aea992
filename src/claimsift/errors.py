"""Exception taxonomy shared across the package, and `from_json`, the one
loader of every config dataclass from a JSON object, which raises the most
common of them (ConfigError)."""

from __future__ import annotations

import dataclasses
import functools
import reprlib


class ClaimsiftError(Exception):
    """Base class for package errors."""


class DatasetError(ClaimsiftError):
    """A dataset file or record violates the corpus schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ClaimsiftError):
    """A configuration value is missing, malformed, or inconsistent."""


class ParseError(ClaimsiftError):
    """A model response contains no recognizable label."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class AnnotatorError(ClaimsiftError):
    """An annotation backend failed after exhausting retries."""


class EmbedError(ClaimsiftError):
    """An embedding backend failed or returned a malformed vector."""


class StateError(ClaimsiftError):
    """State assembly received vectors of inconsistent width."""


class PolicyError(ClaimsiftError):
    """Policy evaluation or update received malformed inputs."""


class CheckpointError(ClaimsiftError):
    """A checkpoint file is missing, corrupt, or from an unsupported version."""


class RewardError(ClaimsiftError):
    """Reward computation received malformed distributions."""


class PoolExhausted(ClaimsiftError):
    """A sampler has no remaining candidates."""


class EmptyEvaluation(ClaimsiftError):
    """Evaluation was requested on an empty instance set."""


# The JSON values a config field accepts, by the type names in its
# annotation. A bool is not an integer here, and any other name is a nested
# config, which is a JSON object.
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "None": ((type(None),), "null"),
}
_OBJECT = ((dict,), "an object")


@functools.cache
def _fields(cls) -> dict[str, tuple[tuple[type, ...], str, type | None]]:
    """Per field of dataclass `cls`: the value types it accepts, their
    description, and the config dataclass its default factory makes, if
    any. Read from the annotation strings once per class."""
    types = {}
    for f in dataclasses.fields(cls):
        kinds = [_JSON_TYPES.get(name, _OBJECT) for name in f.type.split(" | ")]
        nested = f.default_factory
        types[f.name] = (tuple(t for allowed, _ in kinds for t in allowed),
                         " or ".join(text for _, text in kinds),
                         nested if dataclasses.is_dataclass(nested) else None)
    return types


def from_json(cls, raw: dict, prefix: str = ""):
    """Config dataclass `cls` built from the JSON object `raw`; a field left
    out keeps its default. Raises ConfigError for keys that are not fields
    and, naming the field's path under `prefix`, for the first value that is
    not of the JSON type the field is annotated with. A field whose default
    factory is a config dataclass is read from a nested object the same
    way."""
    if type(raw) is not dict:
        raise ConfigError(f"{prefix or 'config'}: expected an object, "
                          f"got {reprlib.repr(raw)}")
    types = _fields(cls)
    unknown = raw.keys() - types.keys()
    if unknown:
        if prefix:
            raise ConfigError(f"{prefix}: unknown keys {sorted(unknown)}")
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for name, value in raw.items():
        allowed, text, nested = types[name]
        path = f"{prefix}.{name}" if prefix else name
        if type(value) not in allowed:
            raise ConfigError(f"{path}: expected {text}, got {reprlib.repr(value)}")
        values[name] = value if nested is None else from_json(nested, value, path)
    return cls(**values)
