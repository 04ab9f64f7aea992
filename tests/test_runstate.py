"""Run-state file format: bit-exact round trips, rejection of damaged or
crafted files, and atomic writes."""

from __future__ import annotations

import json
import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from claimsift import engine, runstate
from claimsift.annotators import OracleAnnotator
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic
from claimsift.engine import Trainer
from claimsift.errors import CheckpointError
from claimsift.policy import PolicyParams, ReplayTable
from claimsift.state import HashedEmbedder

D, H = 4, 3
DATASET = generate_synthetic(SynthConfig(n_claims=6, posts_per_claim=4, rng_seed=4))


def _trainer(config=None, dataset=DATASET):
    config = config or RunConfig(embed_dim=D, hidden_dim=H, max_epochs=2,
                                 learning_rate=1e-3, rng_seed=9)
    return Trainer(
        config, dataset,
        OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 10))),
        OracleAnnotator(rng=np.random.default_rng((config.rng_seed, 11))),
        HashedEmbedder(config.embed_dim),
    )


def _resume(path, dataset=DATASET, embed_dim=D):
    return Trainer.from_run_state(
        path, dataset, OracleAnnotator(rng=0), OracleAnnotator(rng=0),
        HashedEmbedder(embed_dim),
    )


def _plain(value):
    """A comparable form of a run's state: arrays as (dtype, shape, bytes),
    so NaN payloads and signed zeros count."""
    if isinstance(value, ReplayTable):  # its rows, and the steps they hold
        return ("ReplayTable", value, _plain(list(value)))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.random.Generator):
        return ("rng", _plain(value.bit_generator.state))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _plain(vars(value)))
    return (type(value).__name__, value)


def _snapshot(trainer):
    skip = {"config", "sd", "rv", "embedder", "_claims", "_claim_vecs", "_event_sink"}
    state = {k: v for k, v in vars(trainer).items() if k not in skip}
    state["backends"] = [trainer.sd.get_state(), trainer.rv.get_state()]
    return _plain(state)


def _floats(shape):
    return arrays(np.float64, shape, elements=st.floats(width=64))


@settings(max_examples=25, deadline=None)
@given(
    w1=_floats((H, 3 * D)), w2=_floats((H,)),
    moments=st.one_of(st.none(), st.tuples(_floats((H, 3 * D)), _floats((H, 3 * D)),
                                           _floats((H,)), _floats((H,)))),
    step=st.integers(0, 2**40),
    rng_seeds=st.tuples(*[st.integers(0, 2**64 - 1)] * 4),
    draws=st.integers(0, 5),
)
def test_random_params_moments_and_rngs_round_trip(w1, w2, moments, step, rng_seeds,
                                                   draws):
    trainer = _trainer()
    trainer.params = PolicyParams(w1=w1, w2=w2)
    if moments is not None:
        (trainer.optimizer.m_w1, trainer.optimizer.v_w1,
         trainer.optimizer.m_w2, trainer.optimizer.v_w2) = moments
    trainer.optimizer.step = step
    trainer._action_rng, trainer._sampler_rng, trainer.sd._rng, trainer.rv._rng = (
        np.random.default_rng(seed) for seed in rng_seeds
    )
    for rng in (trainer._action_rng, trainer.sd._rng):
        rng.random(draws)  # leave the generator mid-stream
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.state"
        trainer.save_run_state(path)
        resumed = _resume(path)
    assert _snapshot(resumed) == _snapshot(trainer)
    for a, b in ((trainer._action_rng, resumed._action_rng),
                 (trainer.sd._rng, resumed.sd._rng)):
        assert a.random(3).tobytes() == b.random(3).tobytes()


@pytest.mark.parametrize("config", [
    dict(use_baseline=True, buffer_window=None, seed_fraction=0.5),
    dict(use_baseline=False, buffer_window=2, incremental_veracity=True),
])
def test_mid_epoch_trainer_round_trips_bit_exactly(tmp_path, config):
    config = RunConfig(embed_dim=D, hidden_dim=H, max_epochs=2, learning_rate=1e-3,
                       rng_seed=9, **config)
    trainer = _trainer(config)
    trainer.run_epoch()
    assert trainer.run_epoch(limit=3) is None  # pause inside epoch 2
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    resumed = _resume(path)
    assert resumed.config == trainer.config
    assert _snapshot(resumed) == _snapshot(trainer)
    trainer.run_epoch()
    resumed.run_epoch()
    for run in (trainer, resumed):
        run._acc["wall"] = 0.0
        for report in run.reports:
            report.wall_time_s = 0.0
    assert _snapshot(resumed) == _snapshot(trainer)


def _reachable_arrays(value, seen=None):
    """Every array reachable from value through containers and claimsift objects."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reachable_arrays(item, seen)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _reachable_arrays(item, seen)
    elif type(value).__module__.startswith("claimsift"):
        slots = [n for c in type(value).__mro__ for n in getattr(c, "__slots__", ())]
        for item in [*getattr(value, "__dict__", {}).values(),
                     *(getattr(value, n) for n in slots if hasattr(value, n))]:
            yield from _reachable_arrays(item, seen)


def test_resumed_trainer_keeps_no_view_of_the_file_buffer(tmp_path, monkeypatch):
    """Each array of the file is read into an allocation of its own. The
    replay table adopts the step-state block without a copy, and once the
    table outgrows it nothing reachable shares memory with it."""
    config = RunConfig(embed_dim=D, hidden_dim=H, max_epochs=2, learning_rate=1e-3,
                       rng_seed=9, buffer_window=None, seed_fraction=0.5)
    trainer = _trainer(config)
    trainer.run_epoch(limit=3)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    loaded = []

    def read(state_path):
        state, arrays = runstate.read_run_state(state_path)
        loaded.append(arrays)
        return state, arrays

    monkeypatch.setattr(engine, "read_run_state", read)
    resumed = _resume(path)
    read_arrays = list(loaded[0].values())
    assert all(a.flags.owndata for a in read_arrays)
    block = loaded[0]["step_state"]
    assert resumed.buffer.states.base is block  # adopted
    resumed.run_epoch(limit=1)  # one more claim step outgrows the adopted block
    assert len(resumed.buffer) == 4
    shared = [a.shape for a in _reachable_arrays(resumed) if np.shares_memory(a, block)]
    assert shared == []


SMALL_DATASET = generate_synthetic(SynthConfig(n_claims=2, posts_per_claim=2, rng_seed=5))


def _small_state(tmp_path):
    config = RunConfig(embed_dim=2, hidden_dim=1, max_posts=1, learning_rate=1e-3)
    trainer = _trainer(config, SMALL_DATASET)
    trainer.run_epoch(limit=1)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    return path, path.read_bytes()


def test_every_truncation_and_byte_flip_is_rejected(tmp_path):
    path, blob = _small_state(tmp_path)
    _resume(path, SMALL_DATASET, 2)  # the pristine file loads
    damaged = tmp_path / "damaged.state"
    for n in range(len(blob)):
        damaged.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            _resume(damaged, SMALL_DATASET, 2)
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0xFF
        damaged.write_bytes(flipped)
        with pytest.raises(CheckpointError):
            _resume(damaged, SMALL_DATASET, 2)


@pytest.mark.parametrize("version", [2, 3])
def test_older_run_state_version_is_rejected(tmp_path, version):
    """A current file relabelled as an older version fails on its version
    alone. Version 2 manifests also held batch_size, smoothing_alpha and the
    optimizer's batch_size and max_epochs; version 3 held the whole run's
    annotation records and fine-tune examples and each buffered trajectory's
    labels."""
    path, blob = _small_state(tmp_path)
    body = bytearray(blob[:-4])
    struct.pack_into("<I", body, len(runstate.MAGIC), version)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match=f"unsupported run-state version {version}"):
        _resume(path, SMALL_DATASET, 2)


def test_run_state_holds_one_window_and_the_current_epochs_records(tmp_path):
    """Saved inside epoch 3 and at its end, the run state holds the trailing
    window and epoch 3's annotation records and fine-tune examples only."""
    config = RunConfig(embed_dim=D, hidden_dim=H, max_epochs=3, learning_rate=1e-3,
                       rng_seed=9, buffer_window=1)
    trainer = _trainer(config)
    trainer.run_epoch()
    trainer.run_epoch()
    path = tmp_path / "run.state"
    for limit in (3, None):
        trainer.run_epoch(limit=limit)
        trainer.save_run_state(path)
        state, _arrays = runstate.read_run_state(path)
        records = state["annotation_records"]
        assert {row[0] for row in records} == {3}
        assert len(records) == trainer._acc["posts_annotated"]
        examples = sum(len(state[key]) for key in (
            "finetune_stance", "finetune_veracity", "_epoch_ft_stance",
            "_epoch_ft_veracity"))
        if limit is None:  # the epoch has ended and sent its examples on
            report = trainer.reports[-1]
            epoch_examples = (report.finetune_stance_examples
                              + report.finetune_veracity_examples)
        else:
            epoch_examples = len(trainer._epoch_ft_stance) + len(trainer._epoch_ft_veracity)
        assert examples == epoch_examples
        assert len(state["post_counts"]) == 1


def _framed(manifest: dict, data: bytes = b"") -> bytes:
    """A current-version file with a valid checksum around any manifest and data."""
    text = json.dumps(manifest).encode("utf-8")
    body = struct.pack("<Q", len(text)) + text
    body += bytes(-(20 + len(body)) % 8) + data
    head = runstate.MAGIC + struct.pack("<IQ", runstate.VERSION, len(body))
    return head + body + struct.pack("<I", zlib.crc32(head + body) & 0xFFFFFFFF)


@pytest.mark.parametrize("blob", [
    _framed({"arrays": [["x", "|O", [1]]], "state": {}}, bytes(8)),
    _framed({"arrays": [["x", "<f8", [-1]]], "state": {}}),
    _framed({"arrays": [["x", "<f8", [2**62]]], "state": {}}),
    _framed({"arrays": [["x", "<f8", [1]]], "state": {}}, bytes(16)),
    _framed({"arrays": [["x", "<f8", [1]], ["x", "<f8", [0]]], "state": {}}, bytes(8)),
    _framed({"state": {}}),
    _framed(["not", "an", "object"]),
    _framed({"arrays": "abc", "state": {}}),
], ids=["object-dtype", "negative-shape", "huge-shape", "trailing-bytes",
        "duplicate-name", "no-arrays", "list-manifest", "string-arrays"])
def test_crafted_frames_are_rejected(tmp_path, blob):
    path = tmp_path / "crafted.state"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="malformed run-state manifest"):
        runstate.read_run_state(path)


@pytest.mark.parametrize("blob", [
    _framed({"arrays": [], "state": {}}),
    _framed({"arrays": [], "state": []}),
], ids=["empty-state", "list-state"])
def test_crafted_states_are_rejected(tmp_path, blob):
    path = tmp_path / "crafted.state"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="malformed run state"):
        _resume(path)


class _MakesDirectory:
    """Unpickling this creates a directory: a stand-in for running code."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def test_version_1_pickle_is_never_loaded(tmp_path):
    probe = tmp_path / "probe"
    pickle.loads(pickle.dumps(_MakesDirectory(probe)))
    assert probe.is_dir()  # the payload below is live

    marker = tmp_path / "marker"
    body = pickle.dumps({"finetune_stance": _MakesDirectory(marker)}, protocol=4)
    head = runstate.MAGIC + struct.pack("<IQ", 1, len(body))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "run_state.ckpt").write_bytes(
        head + body + struct.pack("<I", zlib.crc32(head + body) & 0xFFFFFFFF)
    )
    with pytest.raises(CheckpointError, match="unsupported run-state version 1"):
        _resume(run_dir / "run_state.ckpt")
    assert not marker.exists()


class _FailingZlib:
    """zlib whose crc32 fails on its fourth call, in the middle of a write."""

    def __init__(self):
        self.calls = 0

    def crc32(self, data, value=0):
        self.calls += 1
        if self.calls == 4:
            raise OSError("disk full")
        return zlib.crc32(data, value)


def _failing_fsync(fd):
    raise OSError("device lost")


@pytest.mark.parametrize("fault", ["mid-write", "fsync"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, fault):
    trainer = _trainer()
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    before = path.read_bytes()
    trainer.run_epoch(limit=2)
    if fault == "mid-write":
        monkeypatch.setattr(runstate, "zlib", _FailingZlib())
    else:
        monkeypatch.setattr(runstate.os, "fsync", _failing_fsync)
    with pytest.raises(OSError):
        trainer.save_run_state(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.state"]
