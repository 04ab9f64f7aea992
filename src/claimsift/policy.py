"""Retain/discard selector policy and its REINFORCE training step.

The policy is a two-layer head over the selector state: retain probability
sigmoid(w2 . relu(w1 . s)). The training objective averages, over a window of
per-claim trajectories, the claim-level reward times the claim action's log
probability plus the mean of the same product over that claim's post
sub-steps. Gradients are analytic; the ascent step is Adam with linear
warm-up. Log probabilities use softplus forms so saturated sigmoids never
produce log(0).
"""

from __future__ import annotations

import struct
import zlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CheckpointError, PolicyError
from .runstate import write_checksummed

logger = logging.getLogger(__name__)

RETAIN = "retain"
DISCARD = "discard"
LEVEL_CLAIM = "claim"
LEVEL_POST = "post"


@dataclass
class PolicyParams:
    w1: np.ndarray  # (hidden_dim, state_dim)
    w2: np.ndarray  # (hidden_dim,)

    @property
    def state_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "PolicyParams":
        return PolicyParams(w1=self.w1.copy(), w2=self.w2.copy())


@dataclass
class Step:
    """One retain/discard decision with everything needed to relearn it."""

    state: np.ndarray
    action: str  # RETAIN or DISCARD
    logprob: float  # log probability at sampling time, for logs
    level: str  # LEVEL_CLAIM or LEVEL_POST
    p_retain: float
    reward: int | None = None


def init_params(
    state_dim: int, hidden_dim: int, rng: np.random.Generator
) -> PolicyParams:
    """Uniform Glorot init: bounds sqrt(6 / (fan_in + fan_out)) per layer."""
    if state_dim < 1 or hidden_dim < 1:
        raise PolicyError("state_dim and hidden_dim must be >= 1")
    limit1 = np.sqrt(6.0 / (state_dim + hidden_dim))
    limit2 = np.sqrt(6.0 / (hidden_dim + 1))
    return PolicyParams(
        w1=rng.uniform(-limit1, limit1, size=(hidden_dim, state_dim)),
        w2=rng.uniform(-limit2, limit2, size=hidden_dim),
    )


def _logits(params: PolicyParams, states: np.ndarray) -> np.ndarray:
    hidden = np.maximum(states @ params.w1.T, 0.0)
    return hidden @ params.w2


def _sigmoid(z):
    return np.where(
        z >= 0.0,
        1.0 / (1.0 + np.exp(-np.abs(z))),
        np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))),
    )


def _retain_probability(
    params: PolicyParams, state: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """(state as float64, logit, retain probability) for one state.

    The probability is `_sigmoid` of the logit, with `exp(-|z|)` taken once.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (params.state_dim,):
        raise PolicyError(
            f"state has shape {state.shape}, expected ({params.state_dim},)"
        )
    z = float(_logits(params, state[None, :])[0])
    e = float(np.exp(-abs(z)))
    return state, z, (1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e))


def forward(params: PolicyParams, state: np.ndarray) -> float:
    """Retain probability for one state."""
    return _retain_probability(params, state)[2]


def sample_action(
    params: PolicyParams, state: np.ndarray, rng: np.random.Generator, level: str
) -> Step:
    """Draw retain/discard from the policy and record its log probability."""
    state, z, p = _retain_probability(params, state)
    retain = rng.random() < p
    # log sigma(z) and log sigma(-z) via softplus, stable at saturation
    logprob = float(-np.logaddexp(0.0, -z)) if retain else float(-np.logaddexp(0.0, z))
    return Step(
        state=state,
        action=RETAIN if retain else DISCARD,
        logprob=logprob,
        level=level,
        p_retain=p,
    )


Trajectory = tuple[Step, Sequence[Step]]


class ReplayTable:
    """The steps of a trajectory window as rows, in the objective's order.

    Each trajectory adds its claim step's row, then one row per post step.
    Beside one `(rows, state_dim)` block of states, every row keeps its
    retain flag, its reward, whether it is a claim row, and the post count
    of its trajectory, so the objective and its gradients read the window
    without re-stacking it. Storage grows by doubling.

    `append` re-points the appended steps' states to views of their rows, so
    each state is held once; the views follow the rows when the table grows
    or `del table[:-keep]` drops old trajectories, and a dropped step gets a
    copy of its state back. Iterating yields the `(claim_step, post_steps)` pairs.
    Two tables are equal when they hold the same rows.
    """

    _COLUMNS = ("_states", "_retain", "_reward", "_claim", "_posts")
    __slots__ = (*_COLUMNS, "_rows", "_pairs")

    def __init__(self, storage: np.ndarray):
        """An empty table whose rows go into `storage`, a float64
        `(capacity, state_dim)` block, until it is full."""
        self._states = storage
        self._retain = np.empty(len(storage), dtype=bool)
        self._reward = np.empty(len(storage))
        self._claim = np.empty(len(storage), dtype=bool)
        self._posts = np.empty(len(storage), dtype=np.int64)
        self._rows = 0
        self._pairs: list[Trajectory] = []

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> "ReplayTable":
        """A table of copies of the trajectories' rows; their steps are left
        as they are."""
        rows = sum(1 + len(post_steps) for _claim_step, post_steps in trajectories)
        state_dim = np.shape(trajectories[0][0].state)[0] if trajectories else 0
        table = cls(np.empty((rows, state_dim)))
        table._extend(trajectories)
        return table

    @classmethod
    def adopt(cls, states: np.ndarray,
              trajectories: Sequence[Trajectory]) -> "ReplayTable":
        """A table that takes `states`, which holds the rows of the steps of
        `trajectories` in order, as its storage without copying it."""
        table = cls(states)
        _point(table._extend(trajectories, states_written=True), table._states)
        return table

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __getitem__(self, index: int) -> Trajectory:
        return self._pairs[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReplayTable):
            return NotImplemented
        n = self._rows
        return n == other._rows and len(self) == len(other) and all(
            getattr(self, name)[:n].tobytes() == getattr(other, name)[:n].tobytes()
            for name in self._COLUMNS
        )

    @property
    def states(self) -> np.ndarray:
        """The `(rows, state_dim)` step states, a view of the table's block."""
        return self._states[:self._rows]

    @property
    def retain(self) -> np.ndarray:
        return self._retain[:self._rows]

    def weights(self, claim_shift: float = 0.0, post_shift: float = 0.0) -> np.ndarray:
        """Per-row objective weights.

        Claim rows weigh (reward - claim_shift) / t, post rows
        (reward - post_shift) / (t * t'), where t is the trajectory count
        and t' the row's post count. The shifts subtract a reward baseline
        per level during updates; they are zero for the plain objective.
        """
        n = self._rows
        claim = self._claim[:n]
        shift = np.where(claim, claim_shift, post_shift)
        t_t_prime = len(self) * np.where(claim, 1, self._posts[:n])  # t for claim rows
        return (self._reward[:n] - shift) / t_t_prime

    def append(self, claim_step: Step, post_steps: Sequence[Step]) -> None:
        """Add one trajectory's rows; its steps' states become views of them."""
        start = self._rows
        _point(self._extend([(claim_step, post_steps)]), self._states[start:])

    def __delitem__(self, index: slice) -> None:
        """Drop the oldest trajectories: `del table[:-keep]` keeps the newest
        `keep`, as on a list. Only such leading slices can be deleted."""
        if not isinstance(index, slice) or index.indices(len(self))[::2] != (0, 1):
            raise TypeError("only a leading slice of a ReplayTable can be deleted")
        drop = index.indices(len(self))[1]
        if drop <= 0:
            return
        dropped = _steps(self._pairs[:drop])
        _point(dropped, self._states[:len(dropped)].copy())
        n = self._rows - len(dropped)
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[:n] = column[len(dropped):self._rows]
        del self._pairs[:drop]
        self._rows = n
        _point(_steps(self._pairs), self._states)

    def _extend(self, pairs: Sequence[Trajectory],
                states_written: bool = False) -> list[Step]:
        """Write the rows of `pairs` after the last row; returns their steps."""
        steps, claim, posts = [], [], []
        for claim_step, post_steps in pairs:
            steps.append(claim_step)
            steps += post_steps
            claim += [True] + [False] * len(post_steps)
            posts += [len(post_steps)] * (1 + len(post_steps))
        rewards = [step.reward for step in steps]
        if None in rewards:
            level = LEVEL_CLAIM if claim[rewards.index(None)] else LEVEL_POST
            raise PolicyError(f"{level} step has no reward")
        start, end = self._rows, self._rows + len(steps)
        if end > len(self._states):
            self._grow(max(end, 2 * len(self._states)))
        if steps and not states_written:
            self._states[start:end] = [step.state for step in steps]
        self._retain[start:end] = [step.action == RETAIN for step in steps]
        self._reward[start:end] = rewards
        self._claim[start:end] = claim
        self._posts[start:end] = posts
        self._rows = end
        self._pairs += pairs
        return steps

    def _grow(self, capacity: int) -> None:
        n = self._rows
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        _point(_steps(self._pairs), self._states)


def _point(steps: list[Step], rows: np.ndarray) -> None:
    """Make each step's state the row of `rows` at its position."""
    for step, row in zip(steps, rows):
        step.state = row


def _steps(pairs: Sequence[Trajectory]) -> list[Step]:
    return [step for claim_step, post_steps in pairs
            for step in (claim_step, *post_steps)]


def _table(trajectories: ReplayTable | Sequence[Trajectory]) -> ReplayTable:
    if isinstance(trajectories, ReplayTable):
        return trajectories
    return ReplayTable.of(trajectories)


def objective(
    params: PolicyParams, trajectories: ReplayTable | Sequence[Trajectory]
) -> float:
    """Buffer-averaged REINFORCE objective under the current parameters.

    Empty buffer evaluates to 0. A claim with no post sub-steps contributes
    only its claim-level term.
    """
    if not trajectories:
        return 0.0
    table = _table(trajectories)
    z = _logits(params, table.states)
    log_retain = -np.logaddexp(0.0, -z)
    log_discard = -np.logaddexp(0.0, z)
    logp = np.where(table.retain, log_retain, log_discard)
    return float(table.weights() @ logp)


def gradients(
    params: PolicyParams,
    trajectories: ReplayTable | Sequence[Trajectory],
    claim_shift: float = 0.0,
    post_shift: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic objective gradients (d/dw1, d/dw2).

    Per step, d objective / d logit is (1 - p) for retain and -p for discard,
    times the step weight; the relu subgradient at exactly 0 is 0.
    """
    if not trajectories:
        return np.zeros_like(params.w1), np.zeros_like(params.w2)
    table = _table(trajectories)
    states, actions = table.states, table.retain
    weights = table.weights(claim_shift, post_shift)
    pre = states @ params.w1.T
    hidden = np.maximum(pre, 0.0)
    z = hidden @ params.w2
    p = _sigmoid(z)
    g_z = np.where(actions, 1.0 - p, -p) * weights
    g_w2 = hidden.T @ g_z
    gate = (pre > 0.0).astype(np.float64)
    back = (g_z[:, None] * params.w2[None, :]) * gate
    g_w1 = back.T @ states
    return g_w1, g_w2


@dataclass
class MovingBaseline:
    """Moving average of rewards at one level, subtracted as a control variate."""

    momentum: float = 0.9
    value: float = 0.0
    initialized: bool = False

    def update(self, reward: float) -> None:
        if not self.initialized:
            self.value = float(reward)
            self.initialized = True
        else:
            self.value = self.momentum * self.value + (1.0 - self.momentum) * reward

    def get(self) -> float:
        return self.value if self.initialized else 0.0


@dataclass
class RewardBaseline:
    """Optional reward centering for updates, tracked per decision level.

    Without centering, a mostly-positive reward stream pushes the retain
    probability up for every visited state, because each update replays the
    buffer and reinforces whichever actions were taken. Subtracting a moving
    average turns the step weights into advantages so that only
    better-than-average outcomes are reinforced.
    """

    claim: MovingBaseline = field(default_factory=MovingBaseline)
    post: MovingBaseline = field(default_factory=MovingBaseline)

    def observe(self, trajectory: Trajectory) -> None:
        """Fold the newest trajectory's rewards into the running averages."""
        claim_step, post_steps = trajectory
        if claim_step.reward is not None:
            self.claim.update(float(claim_step.reward))
        post_rewards = [s.reward for s in post_steps if s.reward is not None]
        if post_rewards:
            self.post.update(float(np.mean(post_rewards)))


@dataclass
class OptimizerState:
    """Adam state with a linear warm-up over a fraction of planned updates."""

    learning_rate: float = 5e-5
    warmup_fraction: float = 0.1
    planned_updates: int = 0  # 0 means unknown: no warm-up scaling
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_w1: np.ndarray | None = None
    v_w1: np.ndarray | None = None
    m_w2: np.ndarray | None = None
    v_w2: np.ndarray | None = None

    def ensure_moments(self, params: PolicyParams) -> None:
        if self.m_w1 is None:
            self.m_w1 = np.zeros_like(params.w1)
            self.v_w1 = np.zeros_like(params.w1)
            self.m_w2 = np.zeros_like(params.w2)
            self.v_w2 = np.zeros_like(params.w2)

    def lr_at(self, step: int) -> float:
        warmup_steps = int(round(self.warmup_fraction * self.planned_updates))
        if warmup_steps <= 0:
            return self.learning_rate
        return self.learning_rate * min(1.0, step / warmup_steps)


def reinforce_update(
    params: PolicyParams,
    optimizer: OptimizerState,
    trajectories: ReplayTable | Sequence[Trajectory],
    baseline: RewardBaseline | None = None,
) -> None:
    """One Adam ascent step on the objective over a trajectory window.

    Empty windows are a no-op. Non-finite gradients are dropped with a
    warning instead of corrupting the parameters. When a baseline is given,
    its current per-level averages shift the step weights, and the newest
    trajectory (the window's last entry) is folded in afterwards. Adam runs
    in place, with two temporaries per parameter and the textbook order of
    operations, so its results are bitwise those of the plain expressions.
    """
    if not trajectories:
        return
    claim_shift = post_shift = 0.0
    if baseline is not None:
        claim_shift = baseline.claim.get()
        post_shift = baseline.post.get()
        baseline.observe(trajectories[-1])
    g_w1, g_w2 = gradients(
        params, trajectories, claim_shift=claim_shift, post_shift=post_shift
    )
    if not (np.all(np.isfinite(g_w1)) and np.all(np.isfinite(g_w2))):
        logger.warning("skipping policy update: non-finite gradient")
        return
    optimizer.ensure_moments(params)
    optimizer.step += 1
    lr = optimizer.lr_at(optimizer.step)
    b1, b2 = optimizer.beta1, optimizer.beta2
    correction1 = 1.0 - b1 ** optimizer.step
    correction2 = 1.0 - b2 ** optimizer.step
    for g, m, v, w in (
        (g_w1, optimizer.m_w1, optimizer.v_w1, params.w1),
        (g_w2, optimizer.m_w2, optimizer.v_w2, params.w2),
    ):
        a, b = np.empty_like(w), np.empty_like(w)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)  # (1 - b1) g
        v *= b2
        v += np.multiply(np.square(g, out=a), 1.0 - b2, out=a)  # (1 - b2) g^2
        np.divide(m, correction1, out=a)  # m_hat
        np.divide(v, correction2, out=b)  # v_hat
        np.add(np.sqrt(b, out=b), optimizer.eps, out=b)
        w += np.divide(np.multiply(a, lr, out=a), b, out=a)  # lr m_hat / (...)


_MAGIC = b"CSPOLICY"
_VERSION = 2
_HEAD = struct.Struct("<8sIIIQQ5d")  # magic, version, dims, counters, hypers


def save_checkpoint(
    params: PolicyParams, optimizer: OptimizerState, path: str | Path
) -> None:
    """Atomically write policy and optimizer state as a checksummed
    little-endian blob (see claimsift.runstate.write_checksummed)."""
    optimizer.ensure_moments(params)
    head = _HEAD.pack(
        _MAGIC,
        _VERSION,
        params.state_dim,
        params.hidden_dim,
        optimizer.step,
        optimizer.planned_updates,
        optimizer.learning_rate,
        optimizer.warmup_fraction,
        optimizer.beta1,
        optimizer.beta2,
        optimizer.eps,
    )
    arrays = (
        params.w1, params.w2,
        optimizer.m_w1, optimizer.v_w1, optimizer.m_w2, optimizer.v_w2,
    )
    write_checksummed(path, (
        head, *(np.ascontiguousarray(a, dtype="<f8").data for a in arrays)
    ))


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, OptimizerState]:
    """Read a checkpoint, verifying magic, version, length, and checksum."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEAD.size + 4:
        raise CheckpointError("truncated checkpoint file")
    if blob[:8] != _MAGIC:
        raise CheckpointError("not a policy checkpoint (bad magic)")
    (
        _magic, version, state_dim, hidden_dim, step, planned_updates,
        learning_rate, warmup_fraction, beta1, beta2, eps,
    ) = _HEAD.unpack_from(blob)
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    n_w1 = hidden_dim * state_dim
    n_w2 = hidden_dim
    expected = _HEAD.size + 8 * (3 * n_w1 + 3 * n_w2) + 4
    if len(blob) != expected:
        raise CheckpointError("truncated checkpoint file")
    (stored_crc,) = struct.unpack_from("<I", blob, expected - 4)
    if (zlib.crc32(blob[: expected - 4]) & 0xFFFFFFFF) != stored_crc:
        raise CheckpointError("checkpoint checksum mismatch")
    offset = _HEAD.size
    out = []
    for count in (n_w1, n_w2, n_w1, n_w1, n_w2, n_w2):
        out.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset).copy())
        offset += 8 * count
    w1, w2, m_w1, v_w1, m_w2, v_w2 = out
    params = PolicyParams(
        w1=w1.reshape(hidden_dim, state_dim), w2=w2,
    )
    optimizer = OptimizerState(
        learning_rate=learning_rate,
        warmup_fraction=warmup_fraction,
        planned_updates=planned_updates,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=step,
        m_w1=m_w1.reshape(hidden_dim, state_dim),
        v_w1=v_w1.reshape(hidden_dim, state_dim),
        m_w2=m_w2,
        v_w2=v_w2,
    )
    return params, optimizer
