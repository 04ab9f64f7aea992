"""Run configuration: defaults, files, env overlays, flag precedence."""

from __future__ import annotations

import dataclasses
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from claimsift import runstate
from claimsift.annotators import BackendConfig
from claimsift.config import (
    RunConfig,
    load_config,
    resolve_config,
    save_config,
)
from claimsift.corpus import SynthConfig
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


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    """save_config replaces the file atomically: a write that raises leaves
    the previous file and no temporary file."""
    path = tmp_path / "config.resolved.json"
    save_config(RunConfig(epsilon=0.1), path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("device lost")

    monkeypatch.setattr(runstate.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="device lost"):
        save_config(RunConfig(epsilon=0.9), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


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


def test_resolve_config_overlays_env_endpoints():
    env = {
        "SD_ENDPOINT": "http://sd:1",
        "RV_ENDPOINT": "http://rv:2",
        "EMBED_ENDPOINT": "http://emb:3",
    }
    out = resolve_config(None, env=env)
    assert out.sd_backend.endpoint == "http://sd:1"
    assert out.rv_backend.endpoint == "http://rv:2"
    assert out.embed_backend.endpoint == "http://emb:3"
    # untouched fields survive
    assert out.sd_backend.kind == "oracle"
    # empty values are ignored
    same = resolve_config(None, env={"SD_ENDPOINT": ""})
    assert same.sd_backend.endpoint is None


def test_resolve_config_skips_none_flags_and_reaches_backends(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"max_epochs": 3, "sd_backend": {"timeout": 2.0}}),
                    encoding="utf-8")
    out = resolve_config(path, overrides={
        "epsilon": 0.9,
        "max_epochs": None,  # unset flag: keep existing value
        "sd_endpoint": "http://sd:9",
    }, env={})
    assert out.epsilon == 0.9
    assert out.max_epochs == 3
    assert out.sd_backend.endpoint == "http://sd:9"
    assert out.sd_backend.timeout == 2.0  # the endpoint joins the file's backend object
    with pytest.raises(ConfigError, match=r"unknown config keys: \['epsilons'\]"):
        resolve_config(None, overrides={"epsilons": 0.2}, env={})


def test_resolve_config_checks_the_file_before_the_flags(tmp_path):
    """A wrong-typed file value is reported even when a flag replaces it."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"epsilon": "high"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="epsilon: expected a number, got 'high'"):
        resolve_config(path, overrides={"epsilon": 0.5}, env={})


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


# ------------------------------------------------- the loader, by property

_VALUES = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False) | st.integers(),
    "bool": st.booleans(),
    "str": st.text(),
    "None": st.none(),
}
_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
          "None": (type(None),)}
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _nested(f):
    return f.default_factory if dataclasses.is_dataclass(f.default_factory) else None


def _configs(cls):
    """Configs of `cls` with a value of one of its JSON types in every field."""
    values = {}
    for f in dataclasses.fields(cls):
        nested = _nested(f)
        values[f.name] = _configs(nested) if nested else st.one_of(
            *(_VALUES[name] for name in f.type.split(" | ")))
    return st.builds(cls, **values)


def _paths(cls, prefix=""):
    for f in dataclasses.fields(cls):
        path = f"{prefix}.{f.name}" if prefix else f.name
        yield path, f
        if _nested(f):
            yield from _paths(_nested(f), path)


def _accepts(f, value) -> bool:
    if _nested(f):
        return type(value) is dict
    if f.type.startswith("tuple"):  # a SynthConfig table: _ANY_JSON's lists are too short
        return False
    return any(type(value) in _TYPES[name] for name in f.type.split(" | "))


def _synth_configs():
    share = st.floats(0, 1)
    row = st.tuples(share, share, share, share)
    return st.builds(SynthConfig, n_claims=st.integers(), posts_per_claim=st.integers(),
                     veracity_prior=row, stance_given_veracity=st.tuples(row, row, row, row),
                     noise_post_fraction=_VALUES["float"], rng_seed=st.integers(),
                     name=st.text())


@settings(max_examples=50, deadline=None)
@given(_configs(RunConfig))
def test_any_run_config_round_trips_through_its_file(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        save_config(config, path)
        assert load_config(path) == config


@settings(max_examples=50, deadline=None)
@given(_synth_configs())
def test_any_synth_config_round_trips_through_asdict(config):
    assert SynthConfig.from_dict(asdict(config)) == config
    assert SynthConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(RunConfig.from_dict, *p) for p in _paths(RunConfig)]
                       + [(SynthConfig.from_dict, *p) for p in _paths(SynthConfig)]),
       _ANY_JSON)
def test_a_value_of_another_json_type_is_named_by_its_path(field_path, value):
    """Any field, nested ones included, given a value of another JSON type
    raises ConfigError whose message starts with the field's path."""
    load, path, f = field_path
    assume(not _accepts(f, value))
    raw = value
    for name in reversed(path.split(".")):
        raw = {name: raw}
    with pytest.raises(ConfigError) as err:
        load(raw)
    assert str(err.value).startswith(f"{path}: expected ")
