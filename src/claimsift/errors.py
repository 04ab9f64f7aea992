"""Exception taxonomy shared across the package, and the type check of
config fields read from JSON, which raises the most common of them."""

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
def _field_types(cls) -> dict[str, tuple[tuple[type, ...], str]]:
    """Per field of dataclass `cls`: the value types it accepts, and their
    description. Read from the annotation strings once per class."""
    types = {}
    for f in dataclasses.fields(cls):
        kinds = [_JSON_TYPES.get(name, _OBJECT) for name in f.type.split(" | ")]
        types[f.name] = (tuple(t for allowed, _ in kinds for t in allowed),
                         " or ".join(text for _, text in kinds))
    return types


def check_field_types(cls, raw: dict, prefix: str = "") -> None:
    """Raise ConfigError naming the first entry of `raw` whose value is not
    of the JSON type that the config dataclass `cls` annotates its field
    with. Keys that are not fields of `cls` are left to the caller."""
    types = _field_types(cls)
    for name, value in raw.items():
        if name in types and type(value) not in types[name][0]:
            path = f"{prefix}.{name}" if prefix else name
            raise ConfigError(
                f"{path}: expected {types[name][1]}, got {reprlib.repr(value)}")
