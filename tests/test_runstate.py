"""Run-state file format: bit-exact round trips, rejection of damaged or
crafted files, and atomic writes, for small files and for files holding a
multi-MiB array."""

from __future__ import annotations

import itertools
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
from hypothesis.extra.numpy import array_shapes, arrays

from claimsift import engine, runstate
from claimsift.annotators import OracleAnnotator
from claimsift.config import RunConfig
from claimsift.corpus import SynthConfig, generate_synthetic
from claimsift.engine import Trainer
from claimsift.errors import CheckpointError
from claimsift.policy import PolicyParams, ReplayTable, encode_policy, load_checkpoint
from claimsift.state import STATE_PARTS, HashedEmbedder

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
    if isinstance(value, ReplayTable):  # its rows, and its rewards by trajectory
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
    assert _snapshot(resumed) == _snapshot(trainer)


def test_resume_draws_no_initial_policy(tmp_path, monkeypatch):
    """A resumed trainer takes its policy from the file without first
    drawing one it would throw away."""
    trainer = _trainer()
    trainer.run_epoch(limit=2)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)

    def no_draw(*args):
        raise AssertionError("init_params called on resume")

    monkeypatch.setattr(engine, "init_params", no_draw)
    assert _snapshot(_resume(path)) == _snapshot(trainer)


class _RecordingOracle(OracleAnnotator):
    """An oracle backend that keeps the fine-tune requests it receives."""

    def __init__(self, rng):
        super().__init__(rng=rng)
        self.finetunes = []

    def finetune(self, task, examples, origin="selected"):
        self.finetunes.append((task, examples, origin))
        return super().finetune(task, examples, origin)


@pytest.mark.parametrize("config", [
    dict(use_baseline=True, buffer_window=None, seed_fraction=0.5),
    dict(use_baseline=False, buffer_window=2, incremental_veracity=True),
])
def test_resume_from_an_epoch_boundary_matches_an_uninterrupted_run(tmp_path, config):
    """Saved at the end of epoch 1, the run state holds no records or
    examples, and epoch 2 of the resumed run is that of the whole run."""
    config = RunConfig(embed_dim=D, hidden_dim=H, max_epochs=2, learning_rate=1e-3,
                       rng_seed=9, **config)
    whole = Trainer(
        config, DATASET,
        _RecordingOracle(np.random.default_rng((config.rng_seed, 10))),
        _RecordingOracle(np.random.default_rng((config.rng_seed, 11))),
        HashedEmbedder(D),
    )
    whole_events = []
    whole.set_event_sink(whole_events.append)
    whole.run_epoch()
    path = tmp_path / "run.state"
    whole.save_run_state(path)
    epoch_1 = (whole.annotation_records, whole.finetune_stance, whole.finetune_veracity)
    sent = len(whole.sd.finetunes), len(whole.rv.finetunes)
    whole.run_epoch()

    state, _arrays = runstate.read_run_state(path)
    assert state["epoch"] is None
    manifest = json.dumps(state)
    assert epoch_1[0] and epoch_1[1] and epoch_1[2]
    assert not any(r["post_text"] in manifest for r in epoch_1[0])
    assert not any(e.prompt in manifest for e in (*epoch_1[1], *epoch_1[2]))

    resumed = Trainer.from_run_state(path, DATASET, _RecordingOracle(0),
                                     _RecordingOracle(0), HashedEmbedder(D))
    assert resumed.annotation_records == resumed.finetune_stance == []
    resumed_events = []
    resumed.set_event_sink(resumed_events.append)
    resumed.run_epoch()
    for a, b in ((whole.params.w1, resumed.params.w1),
                 (whole.params.w2, resumed.params.w2)):
        assert a.tobytes() == b.tobytes()
    assert resumed_events == [e for e in whole_events if e["epoch"] == 2]
    assert resumed.reports == whole.reports
    assert resumed.annotation_records == whole.annotation_records
    assert resumed.finetune_stance == whole.finetune_stance
    assert resumed.finetune_veracity == whole.finetune_veracity
    assert resumed.sd.finetunes == whole.sd.finetunes[sent[0]:]
    assert resumed.rv.finetunes == whole.rv.finetunes[sent[1]:]
    assert resumed.sd.finetunes and resumed.rv.finetunes


@pytest.mark.parametrize("config", [
    dict(incremental_veracity=True, use_baseline=True, buffer_window=1),
    dict(buffer_window=None),
    dict(max_posts=2, n_termination_posts=1),
], ids=["incremental", "full_buffer", "few_posts"])
def test_run_state_bytes_are_a_function_of_the_inputs_alone(tmp_path, monkeypatch,
                                                            config):
    """Two trainers of one seed, run under different clocks and configured
    with different output directories, save the same bytes mid-epoch and
    at the end."""
    saved = []
    for run, (start, tick) in (("a", (0.0, 1e-3)), ("b", (1.7e9, 3.25))):
        # clocks that move on by `tick` at every reading
        monkeypatch.setattr("time.perf_counter", itertools.count(start, tick).__next__)
        monkeypatch.setattr("time.time", itertools.count(start, tick).__next__)
        trainer = _trainer(RunConfig(embed_dim=D, hidden_dim=H, max_epochs=2,
                                     learning_rate=1e-3, rng_seed=9,
                                     out_dir=str(tmp_path / run), **config))
        trainer.run_epoch()
        assert trainer.run_epoch(limit=3) is None
        trainer.save_run_state(tmp_path / f"{run}-mid.state")
        trainer.train()
        trainer.save_run_state(tmp_path / f"{run}-end.state")
        saved.append([(tmp_path / f"{run}-{at}.state").read_bytes()
                      for at in ("mid", "end")])
    assert saved[0] == saved[1]
    assert saved[0][0] != saved[0][1]


def test_run_state_with_timed_reports_is_rejected_but_its_policy_loads(tmp_path):
    """A run state saved while reports carried `wall_time_s` does not
    resume; `load_checkpoint` still reads its policy."""
    trainer = _trainer()
    trainer.run_epoch()
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    state, arrays = runstate.read_run_state(path)
    for report in state["reports"]:
        report["wall_time_s"] = 0.25
    runstate.write_run_state(path, state, arrays)
    with pytest.raises(CheckpointError, match="malformed run state.*wall_time_s"):
        _resume(path)
    assert _plain(load_checkpoint(path)) == _plain((trainer.params, trainer.optimizer))


@pytest.mark.parametrize("limit", [2, None], ids=["mid-epoch", "boundary"])
def test_run_state_in_the_older_epoch_layout_is_rejected(tmp_path, limit):
    """A file of the same version that spreads the epoch over the older keys
    (epoch_active, epoch_sampler, acc, terminated, the records and the four
    example lists) is malformed, not resumed as if saved between epochs."""
    trainer = _trainer()
    trainer.run_epoch()
    trainer.run_epoch(limit=limit)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    state, arrays = runstate.read_run_state(path)
    epoch = state.pop("epoch") or {"seeds": [], "pool": [], "last_branch": None,
                                   "counts": {}, "records": [], "stance": [],
                                   "veracity": []}
    state["claim_tracker"]["n"] = trainer.config.n_termination
    state.update(
        annotation_records=epoch["records"], finetune_stance=[], finetune_veracity=[],
        _epoch_ft_stance=epoch["stance"], _epoch_ft_veracity=epoch["veracity"],
        epoch_active=limit is not None, acc=epoch["counts"], terminated=False,
        epoch_sampler={"seeds": epoch["seeds"], "pool": epoch["pool"],
                       "epsilon": trainer.config.epsilon,
                       "last_branch": epoch["last_branch"]},
    )
    runstate.write_run_state(path, state, arrays)
    with pytest.raises(CheckpointError, match="malformed run state"):
        _resume(path)


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
    replay table adopts its blocks of distinct vectors without a copy and
    nothing else of the file; nothing reachable is a view of the file's
    table arrays, before or after a block outgrows the one it adopted."""
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

    def views_of_the_table_arrays(run):
        return [(name, a.shape) for name, array in loaded[0].items()
                if name.startswith(("step_", "distinct_"))
                for a in _reachable_arrays(run)
                if np.shares_memory(a, array) and a is not array]

    monkeypatch.setattr(engine, "read_run_state", read)
    resumed = _resume(path)
    read_arrays = list(loaded[0].values())
    assert all(a.flags.owndata for a in read_arrays)
    blocks = [loaded[0][f"distinct_{name}"] for name in STATE_PARTS]
    assert all(got.base is block  # adopted
               for (got, _index), block in zip(resumed.buffer.parts, blocks))
    assert views_of_the_table_arrays(resumed) == []
    resumed.run_epoch(limit=1)  # a new claim outgrows the adopted claim block
    assert len(resumed.buffer) == 4
    assert resumed.buffer.parts[0][0].base is not blocks[0]
    assert views_of_the_table_arrays(resumed) == []


def _saved_run_state(tmp_path):
    """A mid-epoch run state of a trainer with a full buffer: its path,
    manifest and arrays."""
    config = RunConfig(embed_dim=D, hidden_dim=H, max_epochs=2, learning_rate=1e-3,
                       rng_seed=9, buffer_window=None)
    trainer = _trainer(config)
    trainer.run_epoch(limit=4)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    return (path, *runstate.read_run_state(path))


@pytest.mark.parametrize("case", [
    "index-past-block", "negative-index", "fractional-index", "nan-index",
    "unused-vector", "block-width", "index-columns",
])
def test_crafted_replay_table_is_rejected(tmp_path, case):
    """A run state whose replay table does not hold together is malformed:
    an index that is not an integer into its block, a block with a vector
    no row uses, or arrays of the wrong shape."""
    path, state, arrays = _saved_run_state(tmp_path)
    index, context = arrays["step_values"][:, 2:], arrays["distinct_context"]
    assert len(context) >= 2
    if case == "index-past-block":
        index[-1, 1] = len(context)
    elif case == "negative-index":
        index[0, 1] = -1
    elif case == "fractional-index":
        index[0, 1] += 0.5
    elif case == "nan-index":
        index[0, 2] = np.nan
    elif case == "unused-vector":
        arrays["distinct_context"] = np.vstack([context, np.full(D, 7.0)])
    elif case == "block-width":
        arrays["distinct_claim"] = arrays["distinct_claim"][:, :-1]
    else:
        arrays["step_values"] = arrays["step_values"][:, :-1]
    runstate.write_run_state(path, state, arrays)
    with pytest.raises(CheckpointError, match="malformed run state"):
        _resume(path)


def test_version_5_run_state_is_rejected(tmp_path):
    """Version 5 stored the replay table's states as one dense block; such a
    file is refused, not read."""
    path, _state, _arrays = _saved_run_state(tmp_path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(runstate.MAGIC), 5)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported run-state version 5"):
        _resume(path)
    with pytest.raises(CheckpointError, match="unsupported run-state version 5"):
        load_checkpoint(path)


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


def _inline_encoding(state, arrays):
    """The reference encoding: the version-6 layout built as one bytes
    object, checksummed in one call."""
    table = [[name, "<f8", list(a.shape)] for name, a in arrays.items()]
    manifest = json.dumps({"arrays": table, "state": state}, ensure_ascii=False,
                          separators=(",", ":")).encode("utf-8")
    body = struct.pack("<Q", len(manifest)) + manifest
    for a in arrays.values():
        body += bytes(-(20 + len(body)) % 8) + a.astype("<f8").tobytes()
    body += bytes(-(20 + len(body)) % 8)  # only a file without arrays needs it
    head = runstate.MAGIC + struct.pack("<IQ", 6, len(body))
    return head + body + struct.pack("<I", zlib.crc32(head + body))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(
    state=st.dictionaries(st.text(), _JSON, max_size=5),
    arrays_=st.dictionaries(
        st.text(),
        arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(width=64)),
        max_size=4),
)
def test_random_manifests_and_arrays_round_trip(state, arrays_):
    """Any JSON-able state and any float64 arrays, zero-size dimensions,
    NaN, -0.0 and inf included, are written as the reference encoding and
    read back equal, the arrays bitwise."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.state"
        runstate.write_run_state(path, state, arrays_)
        blob = path.read_bytes()
        read_state, read_arrays = runstate.read_run_state(path)
    assert blob == _inline_encoding(state, arrays_)
    assert read_state == state
    assert {k: (a.shape, a.tobytes()) for k, a in read_arrays.items()} == {
        k: (a.shape, a.tobytes()) for k, a in arrays_.items()}


BIG = 5 * 2**17  # a 5 MiB array


def _arrays(n):
    rng = np.random.default_rng(3)
    return {"w": rng.standard_normal((3, 5)), "big": rng.standard_normal(n),
            "tail": np.array([np.nan, -0.0, np.inf])}


@pytest.mark.parametrize("n", [100, BIG], ids=["small", "large"])
def test_written_bytes_are_the_reference_encoding(tmp_path, n):
    """With a small array and with a multi-MiB one, the file is the
    reference encoding: version 6 and a trailer that is the crc32 of every
    byte before it."""
    state, arrays = {"name": "\u00e9t\u00e9", "n": n}, _arrays(n)
    path = tmp_path / "run.state"
    runstate.write_run_state(path, state, arrays)
    blob = path.read_bytes()
    assert blob == _inline_encoding(state, arrays)
    assert struct.unpack_from("<I", blob, len(runstate.MAGIC))[0] == runstate.VERSION == 6
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])
    read_state, read_arrays = runstate.read_run_state(path)
    assert read_state == state
    assert {k: a.tobytes() for k, a in read_arrays.items()} == {
        k: a.tobytes() for k, a in arrays.items()}


def test_damage_inside_a_large_array_is_rejected(tmp_path):
    """A byte flip at the start, middle or end of a multi-MiB array, or
    elsewhere in the file, and a truncation inside that array, all fail."""
    arrays = _arrays(BIG)
    path = tmp_path / "run.state"
    runstate.write_run_state(path, {}, arrays)
    blob = path.read_bytes()
    start = blob.index(arrays["big"][:2].tobytes())
    end = start + 8 * BIG
    damaged = tmp_path / "damaged.state"
    head = (0, 9, 13)  # magic, version, body length
    for i in (*head, start - 1, start, start + 1, (start + end) // 2, end - 1, end,
              len(blob) - 5, len(blob) - 1):
        flipped = bytearray(blob)
        flipped[i] ^= 0x01
        damaged.write_bytes(flipped)
        with pytest.raises(CheckpointError,
                           match=None if i in head else "checksum mismatch"):
            runstate.read_run_state(damaged)
    for n in (start + 3, (start + end) // 2, end - 1, len(blob) - 1):
        damaged.write_bytes(blob[:n])
        with pytest.raises(CheckpointError, match="truncated"):
            runstate.read_run_state(damaged)


class _FailingReads:
    """A binary file whose second readinto raises `error`: the read of the
    large array of `_arrays(BIG)`."""

    def __init__(self, fh, error):
        self._fh = fh
        self._error = error
        self.calls = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def readinto(self, buffer):
        self.calls += 1
        if self.calls == 2:
            raise self._error
        return self._fh.readinto(buffer)


@pytest.mark.parametrize("fault", ["readinto", "crc32"])
def test_read_failing_inside_an_array_raises_its_own_error(tmp_path, monkeypatch, fault):
    """A read error or a crc32 error on the large array reaches the caller
    as itself."""
    path = tmp_path / "run.state"
    runstate.write_run_state(path, {}, _arrays(BIG))
    if fault == "readinto":
        error = OSError("read error")
        monkeypatch.setattr(runstate, "open", lambda *a: _FailingReads(open(*a), error),
                            raising=False)
    else:  # head, length, manifest, padding, w, padding, then the large array
        failing = _FailingZlib(fail_on=7)
        monkeypatch.setattr(runstate, "zlib", failing)
    with pytest.raises(OSError) as caught:
        runstate.read_run_state(path)
    assert caught.value is (error if fault == "readinto" else failing.raised)


@pytest.mark.parametrize("version", [2, 3, 4])
def test_older_run_state_version_is_rejected(tmp_path, version):
    """A current file relabelled as an older version fails on its version
    alone. Version 2 manifests also held batch_size, smoothing_alpha and the
    optimizer's batch_size and max_epochs; version 3 held the whole run's
    annotation records and fine-tune examples and each buffered trajectory's
    labels; version 4 held each buffered step's logprob and p_retain."""
    path, blob = _small_state(tmp_path)
    body = bytearray(blob[:-4])
    struct.pack_into("<I", body, len(runstate.MAGIC), version)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match=f"unsupported run-state version {version}"):
        _resume(path, SMALL_DATASET, 2)


def test_run_state_holds_one_window_and_the_current_epochs_records(tmp_path):
    """Saved inside epoch 3, the run state holds the trailing window and
    epoch 3's annotation records and fine-tune examples so far; saved at its
    end, the window and no epoch."""
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
        assert len(state["post_counts"]) == 1
        if limit is None:  # the epoch has ended and sent its output on
            assert state["epoch"] is None
            continue
        epoch = state["epoch"]
        assert {row[0] for row in epoch["records"]} == {3}
        assert len(epoch["records"]) == trainer._epoch.counts["posts_annotated"]
        assert len(epoch["stance"]) == len(trainer._epoch.stance) > 0
        assert len(epoch["veracity"]) == len(trainer._epoch.veracity) > 0


def test_policy_checkpoint_is_not_a_run_state(tmp_path):
    """A file in the current container that holds only the policy, as the
    older `policy.ckpt` files did in version 5, is not a run state:
    resuming from one fails as a malformed run state."""
    trainer = _trainer()
    trainer.run_epoch(limit=1)
    path = tmp_path / "policy.ckpt"
    settings, arrays = encode_policy(trainer.params, trainer.optimizer)
    runstate.write_run_state(path, {"optimizer": settings}, arrays)
    state, arrays = runstate.read_run_state(path)
    assert list(state) == ["optimizer"]
    assert list(arrays) == ["w1", "w2", "m_w1", "v_w1", "m_w2", "v_w2"]
    with pytest.raises(CheckpointError, match="malformed run state"):
        _resume(path)


@pytest.mark.parametrize("limit", [1, None], ids=["mid-epoch", "boundary"])
def test_load_checkpoint_reads_the_policy_of_a_run_state(tmp_path, limit):
    trainer = _trainer()
    trainer.run_epoch(limit=limit)
    path = tmp_path / "run_state.ckpt"
    trainer.save_run_state(path)
    params, optimizer = load_checkpoint(path)
    assert _plain((params, optimizer)) == _plain((trainer.params, trainer.optimizer))


@pytest.mark.parametrize("key,value", [("centered_rewards", True),
                                       ("baseline_momentum", 0.9)])
def test_run_state_with_a_deleted_config_field_is_rejected(tmp_path, key, value):
    trainer = _trainer()
    trainer.run_epoch(limit=1)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    state, arrays = runstate.read_run_state(path)
    state["config"][key] = value
    runstate.write_run_state(path, state, arrays)
    with pytest.raises(CheckpointError, match=f"unknown config keys.*{key}"):
        _resume(path)


@pytest.mark.parametrize("config", [[], "run", None], ids=["list", "str", "null"])
def test_run_state_whose_config_is_not_an_object_is_rejected(tmp_path, config):
    trainer = _trainer()
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    state, arrays = runstate.read_run_state(path)
    runstate.write_run_state(path, {**state, "config": config}, arrays)
    with pytest.raises(CheckpointError, match="malformed run state.*config: expected an object"):
        _resume(path)


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
    """zlib whose crc32 fails on call number `fail_on` (by default the
    fourth, in the middle of a write), keeping the exception it raised."""

    def __init__(self, fail_on=4):
        self.calls = 0
        self.fail_on = fail_on
        self.raised = None

    def crc32(self, data, value=0):
        self.calls += 1
        if self.calls == self.fail_on:
            self.raised = OSError("crc32 failed")
            raise self.raised
        return zlib.crc32(data, value)


def _failing_fsync(fd):
    raise OSError("device lost")


@pytest.mark.parametrize("fault,size", [
    ("mid-write", "small"), ("fsync", "small"),
    ("mid-write", "large"), ("fsync", "large"),
], ids=["mid-write", "fsync", "mid-write-large", "fsync-large"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, fault, size):
    """A failed save, of a small file or of one holding a multi-MiB array,
    leaves the previous file and no temporary file; a crc32 that fails
    raises its own exception in the caller."""
    config = None if size == "small" else RunConfig(
        embed_dim=256, hidden_dim=400, max_epochs=2, learning_rate=1e-3, rng_seed=9)
    trainer = _trainer(config)
    path = tmp_path / "run.state"
    trainer.save_run_state(path)
    before = path.read_bytes()
    assert (len(before) >= 2 << 20) == (size == "large")
    trainer.run_epoch(limit=2)
    failing = _FailingZlib()
    if fault == "mid-write":
        monkeypatch.setattr(runstate, "zlib", failing)
    else:
        monkeypatch.setattr(runstate.os, "fsync", _failing_fsync)
    with pytest.raises(OSError) as caught:
        trainer.save_run_state(path)
    if fault == "mid-write":
        assert caught.value is failing.raised
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.state"]
