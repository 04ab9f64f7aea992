"""Run configuration: defaults, JSON file loading, env and flag overrides.

Precedence, highest first: command-line flag, environment variable, config
file, built-in default. Validation raises ConfigError with the offending
field in the message.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .annotators import BackendConfig
from .errors import ConfigError, check_field_types
from .state import EmbedConfig

ENV_SD_ENDPOINT = "SD_ENDPOINT"
ENV_RV_ENDPOINT = "RV_ENDPOINT"
ENV_EMBED_ENDPOINT = "EMBED_ENDPOINT"


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

    def to_dict(self) -> dict:
        return asdict(self)  # the backend configs become nested dicts

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        unknown = set(raw) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        check_field_types(RunConfig, raw)
        values = dict(raw)
        if "sd_backend" in values:
            values["sd_backend"] = BackendConfig.from_dict(
                values["sd_backend"], "sd_backend"
            )
        if "rv_backend" in values:
            values["rv_backend"] = BackendConfig.from_dict(
                values["rv_backend"], "rv_backend"
            )
        if "embed_backend" in values:
            values["embed_backend"] = EmbedConfig.from_dict(
                values["embed_backend"], "embed_backend"
            )
        return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return RunConfig.from_dict(raw)


def save_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def apply_env(config: RunConfig, env: dict | None = None) -> RunConfig:
    """Overlay endpoint environment variables onto a config."""
    env = os.environ if env is None else env
    sd = config.sd_backend
    rv = config.rv_backend
    embed = config.embed_backend
    if env.get(ENV_SD_ENDPOINT):
        sd = replace(sd, endpoint=env[ENV_SD_ENDPOINT])
    if env.get(ENV_RV_ENDPOINT):
        rv = replace(rv, endpoint=env[ENV_RV_ENDPOINT])
    if env.get(ENV_EMBED_ENDPOINT):
        embed = replace(embed, endpoint=env[ENV_EMBED_ENDPOINT])
    return replace(config, sd_backend=sd, rv_backend=rv, embed_backend=embed)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Overlay non-None flag values; endpoint keys reach into backends."""
    values = {k: v for k, v in overrides.items() if v is not None}
    endpoint_map = {
        "sd_endpoint": "sd_backend",
        "rv_endpoint": "rv_backend",
        "embed_endpoint": "embed_backend",
    }
    for flag, backend_name in endpoint_map.items():
        if flag in values:
            backend = replace(getattr(config, backend_name), endpoint=values.pop(flag))
            config = replace(config, **{backend_name: backend})
    unknown = set(values) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config overrides: {sorted(unknown)}")
    return replace(config, **values)


def resolve_config(
    file_path: str | Path | None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Defaults, then file, then env, then flags; validates the result."""
    config = load_config(file_path) if file_path else RunConfig()
    config = apply_env(config, env)
    config = apply_overrides(config, overrides or {})
    config.validate()
    return config
