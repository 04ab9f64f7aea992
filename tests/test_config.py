"""Run configuration: defaults, files, env overlays, flag precedence."""

from __future__ import annotations

import json

import pytest

from claimsift.annotators import BackendConfig
from claimsift.config import (
    RunConfig,
    apply_env,
    apply_overrides,
    load_config,
    resolve_config,
    save_config,
)
from claimsift.errors import ConfigError
from claimsift.state import EmbedConfig


def test_defaults_validate():
    config = RunConfig()
    config.validate()
    assert config.embed_dim == 768
    assert config.epsilon == 0.3
    assert config.seed_fraction == 0.5
    assert config.sd_backend.kind == "oracle"
    assert config.embed_backend.kind == "hashed"
    assert config.buffer_window is None
    assert config.incremental_veracity is False
    assert config.use_baseline is False


@pytest.mark.parametrize("kwargs,fragment", [
    ({"embed_dim": 0}, "embed_dim: must be >= 1"),
    ({"hidden_dim": 0}, "hidden_dim: must be >= 1"),
    ({"epsilon": 1.2}, "epsilon: must be in [0, 1]"),
    ({"seed_fraction": -0.1}, "seed_fraction: must be in [0, 1]"),
    ({"n_termination": 0}, "n_termination: must be >= 1"),
    ({"n_termination_posts": 0}, "n_termination_posts: must be >= 1"),
    ({"max_posts": 0}, "max_posts: must be >= 1"),
    ({"learning_rate": 0.0}, "learning_rate: must be > 0"),
    ({"warmup_fraction": 2.0}, "warmup_fraction: must be in [0, 1]"),
    ({"sd_backend": BackendConfig(smoothing_alpha=1.0)},
     "sd_backend.smoothing_alpha: must be in [0, 1)"),
    ({"max_epochs": 0}, "max_epochs: must be >= 1"),
    ({"rv_backend": BackendConfig(smoothing_alpha=-0.1)},
     "rv_backend.smoothing_alpha: must be in [0, 1)"),
    ({"sd_backend": BackendConfig(max_in_flight=0)}, "sd_backend.max_in_flight: must be >= 1"),
    ({"buffer_window": 0}, "buffer_window: must be >= 1 or null"),
    ({"sd_backend": BackendConfig(kind="http")}, "sd_backend.endpoint"),
    ({"rv_backend": BackendConfig(timeout=-1)}, "rv_backend.timeout"),
    ({"embed_backend": EmbedConfig(kind="x")}, "embed_backend.kind"),
])
def test_validation_messages(kwargs, fragment):
    config = RunConfig(**kwargs)
    with pytest.raises(ConfigError) as err:
        config.validate()
    assert fragment in str(err.value)


def test_round_trip_through_file(tmp_path):
    config = RunConfig(
        embed_dim=32,
        epsilon=0.7,
        buffer_window=8,
        sd_backend=BackendConfig(kind="http", endpoint="http://sd:1", timeout=3.0),
        embed_backend=EmbedConfig(kind="service", endpoint="http://emb:2"),
    )
    path = tmp_path / "run.json"
    save_config(config, path)
    assert load_config(path) == config
    # the file is plain JSON with nested backend objects
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["embed_dim"] == 32
    assert raw["sd_backend"]["endpoint"] == "http://sd:1"


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"embed_dims": 8})
    assert "unknown config keys" in str(err.value)
    assert "embed_dims" in str(err.value)
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"sd_backend": {"knd": "oracle"}})
    assert "sd_backend: unknown keys" in str(err.value)


def test_from_dict_takes_an_integer_for_a_number():
    config = RunConfig.from_dict({"epsilon": 1, "learning_rate": 1,
                                  "sd_backend": {"timeout": 3}})
    assert config.epsilon == 1 and config.sd_backend.timeout == 3
    config.validate()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="must contain a JSON object"):
        load_config(arr)


def test_apply_env_overlays_endpoints():
    config = RunConfig()
    env = {
        "SD_ENDPOINT": "http://sd:1",
        "RV_ENDPOINT": "http://rv:2",
        "EMBED_ENDPOINT": "http://emb:3",
    }
    out = apply_env(config, env)
    assert out.sd_backend.endpoint == "http://sd:1"
    assert out.rv_backend.endpoint == "http://rv:2"
    assert out.embed_backend.endpoint == "http://emb:3"
    # untouched fields and the original object survive
    assert out.sd_backend.kind == "oracle"
    assert config.sd_backend.endpoint is None
    # empty values are ignored
    same = apply_env(config, {"SD_ENDPOINT": ""})
    assert same.sd_backend.endpoint is None


def test_apply_overrides_skips_none_and_reaches_backends():
    config = RunConfig()
    out = apply_overrides(config, {
        "epsilon": 0.9,
        "max_epochs": None,  # unset flag: keep existing value
        "sd_endpoint": "http://sd:9",
    })
    assert out.epsilon == 0.9
    assert out.max_epochs == config.max_epochs
    assert out.sd_backend.endpoint == "http://sd:9"
    with pytest.raises(ConfigError, match="unknown config overrides"):
        apply_overrides(config, {"epsilons": 0.2})


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "run.json"
    save_config(RunConfig(epsilon=0.1, max_posts=7, rng_seed=3), path)
    env = {"SD_ENDPOINT": "http://env-sd"}
    out = resolve_config(
        path,
        overrides={"epsilon": 0.8, "sd_endpoint": None},
        env=env,
    )
    assert out.epsilon == 0.8  # flag beats file
    assert out.max_posts == 7  # file beats default
    assert out.rng_seed == 3
    assert out.sd_backend.endpoint == "http://env-sd"  # env fills the gap

    # a non-None flag beats the env value
    out = resolve_config(
        path, overrides={"sd_endpoint": "http://flag-sd"}, env=env
    )
    assert out.sd_backend.endpoint == "http://flag-sd"

    # and the resolved config is validated
    save_config(RunConfig(epsilon=0.1), path)
    with pytest.raises(ConfigError, match="epsilon"):
        resolve_config(path, overrides={"epsilon": 5.0}, env={})


def test_resolve_config_without_file_uses_defaults():
    out = resolve_config(None, overrides={}, env={})
    assert out == RunConfig()
