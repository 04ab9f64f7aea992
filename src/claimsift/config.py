"""Run configuration: defaults, the JSON config file, env and flag overlays.

Precedence, highest first: command-line flag, environment variable, config
file, built-in default. `resolve_config` merges the environment and the
flags into the file's JSON object and loads the result once, through
`errors.from_json`, the loader of every config object. Validation raises
ConfigError with the offending field in the message.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .annotators import BackendConfig
from .errors import ConfigError, from_json
from .runstate import atomic_write
from .state import EmbedConfig

# Per backend: the flag key and the environment variable (an empty one is
# unset) that set its endpoint.
ENDPOINTS = (
    ("sd_backend", "sd_endpoint", "SD_ENDPOINT"),
    ("rv_backend", "rv_endpoint", "RV_ENDPOINT"),
    ("embed_backend", "embed_endpoint", "EMBED_ENDPOINT"),
)


@dataclass
class RunConfig:
    dataset: str | None = None
    out_dir: str | None = None
    embed_dim: int = 768
    hidden_dim: int = 128
    epsilon: float = 0.3
    seed_fraction: float = 0.5
    n_termination: int = 100
    n_termination_posts: int = 100
    max_posts: int = 30
    learning_rate: float = 5e-5
    warmup_fraction: float = 0.1
    max_epochs: int = 50
    incremental_veracity: bool = False
    use_baseline: bool = False
    buffer_window: int | None = None
    rng_seed: int = 0
    eval_seed: int = 12345
    sd_pretrain_path: str | None = None
    sd_backend: BackendConfig = field(default_factory=BackendConfig)
    rv_backend: BackendConfig = field(default_factory=BackendConfig)
    embed_backend: EmbedConfig = field(default_factory=EmbedConfig)

    def validate(self) -> None:
        if self.embed_dim < 1:
            raise ConfigError("embed_dim: must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim: must be >= 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon: must be in [0, 1]")
        if not 0.0 <= self.seed_fraction <= 1.0:
            raise ConfigError("seed_fraction: must be in [0, 1]")
        if self.n_termination < 1:
            raise ConfigError("n_termination: must be >= 1")
        if self.n_termination_posts < 1:
            raise ConfigError("n_termination_posts: must be >= 1")
        if self.max_posts < 1:
            raise ConfigError("max_posts: must be >= 1")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate: must be > 0")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ConfigError("warmup_fraction: must be in [0, 1]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs: must be >= 1")
        if self.buffer_window is not None and self.buffer_window < 1:
            raise ConfigError("buffer_window: must be >= 1 or null")
        self.sd_backend.validate("sd_backend")
        self.rv_backend.validate("rv_backend")
        self.embed_backend.validate("embed_backend")

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        return from_json(RunConfig, raw)


def read_config_file(path: str | Path) -> dict:
    """The JSON object in the config file `path`. A missing file, invalid
    JSON and any other JSON value raise ConfigError."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return raw


def load_config(path: str | Path) -> RunConfig:
    return RunConfig.from_dict(read_config_file(path))


def save_config(config: RunConfig, path: str | Path) -> None:
    text = json.dumps(asdict(config), indent=2, sort_keys=True) + "\n"
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def resolve_config(
    file_path: str | Path | None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Defaults, then file, then env, then flags; validates the result.

    `overrides` maps field names to flag values, of which None is unset; an
    `*_endpoint` key (`sd_endpoint`, ...) sets that backend's `endpoint`.
    """
    raw = read_config_file(file_path) if file_path else {}
    RunConfig.from_dict(raw)  # a bad file value is reported even if a flag replaces it
    env = os.environ if env is None else env
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    for backend, flag, variable in ENDPOINTS:
        endpoint = flags.pop(flag, None)
        if endpoint is None:
            endpoint = env.get(variable) or None
        if endpoint is not None:
            raw = {**raw, backend: {**raw.get(backend, {}), "endpoint": endpoint}}
    config = RunConfig.from_dict({**raw, **flags})
    config.validate()
    return config
