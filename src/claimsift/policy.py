"""Retain/discard selector policy and its REINFORCE training step.

The policy is a two-layer head over the selector state: retain probability
sigmoid(w2 . relu(w1 . s)). The training objective averages, over a window of
per-claim trajectories, the claim-level reward times the claim action's log
probability plus the mean of the same product over that claim's post
sub-steps. Gradients are analytic, over a replay table that stores each
part of a state once per distinct vector; the ascent step is Adam with
linear warm-up. Log probabilities use softplus forms so saturated sigmoids
never produce log(0).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CheckpointError, PolicyError
from .runstate import read_run_state

logger = logging.getLogger(__name__)

RETAIN = "retain"
DISCARD = "discard"
LEVEL_CLAIM = "claim"
LEVEL_POST = "post"

# Elements of a parameter that one pass of the in-place Adam step covers
# (256 KiB of float64), so that its two temporaries stay small and cached
# and a large w1 needs no full-size ones.
ADAM_CHUNK = 1 << 15


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


def _logit(params: PolicyParams, state: np.ndarray) -> tuple[np.ndarray, float]:
    """(state as float64, logit) for one state."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (params.state_dim,):
        raise PolicyError(
            f"state has shape {state.shape}, expected ({params.state_dim},)"
        )
    return state, float(_logits(params, state[None, :])[0])


def _probability(z: float) -> float:
    """`_sigmoid` of one logit, with `exp(-|z|)` taken once."""
    e = float(np.exp(-abs(z)))
    return 1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e)


def forward(params: PolicyParams, state: np.ndarray) -> float:
    """Retain probability for one state."""
    return _probability(_logit(params, state)[1])


def draw(z: float, state: np.ndarray, rng: np.random.Generator, level: str) -> Step:
    """Draw retain/discard for a state whose logit is `z`, and record the
    drawn action's log probability."""
    p = _probability(z)
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


def sample_action(
    params: PolicyParams, state: np.ndarray, rng: np.random.Generator, level: str
) -> Step:
    """Draw retain/discard from the policy and record its log probability."""
    state, z = _logit(params, state)
    return draw(z, state, rng, level)


Trajectory = tuple[Step, Sequence[Step]]


class ReplayTable:
    """The rows of a trajectory window, in the objective's order, with
    each row's state stored factored.

    Each trajectory adds its claim step's row, then one row per post step.
    A row's state is the concatenation of parts of fixed widths; the
    trainer's are the claim, context and explanation thirds that
    `state.build_state` makes, and a table built by `of` has one part, the
    whole row. Per part the table keeps a block of the distinct vectors its
    rows hold and a per-row index into that block: a part is deduplicated
    exactly as it is appended (a hash of its bytes finds the candidates,
    which are compared bit for bit), and deleting leading trajectories
    compacts each block to the vectors the remaining rows use, in their
    order. So every vector of a block is used, and no two are equal unless
    `adopt` was given them. The update multiplies each distinct vector once.
    How much that saves depends on the traffic: a part whose rows all hold
    vectors of their own costs about what the stacked states would.

    Beside the index columns, every row keeps its retain flag, its reward,
    whether it is a claim row, and the post count of its trajectory, so the
    objective and its gradients read the window without re-stacking it. The
    table also keeps each trajectory's first row. Storage grows by
    doubling.

    The table holds no `Step`: `append` copies a trajectory's rows, and
    iterating yields each trajectory's `(claim reward, post rewards)`, the
    post rewards as a view of the reward column that holds until the table
    next changes. Two tables are equal when they hold the same rows in the
    same factored layout.

    The table also keeps the row-sized buffers that `objective` and
    `gradients` work in: three float64 `(capacity, hidden)` buffers and a
    bool one, allocated on the first update and again only when the
    capacity grows or the hidden width changes, so that a steady-state
    update allocates nothing that scales with rows times hidden. They are
    private scratch: not compared by `==`, not part of the run state, and
    not reentrant, so one table must not be updated from two threads at
    once.
    """

    _COLUMNS = ("_index", "_retain", "_reward", "_claim", "_posts")
    __slots__ = (*_COLUMNS, "_rows", "_starts", "_bounds", "_blocks", "_sizes", "_keys",
                 "_work")

    def __init__(self, widths: Sequence[int], capacity: int = 0):
        """An empty table whose states are the concatenation of parts of
        the given widths, with room for `capacity` rows."""
        stops = list(itertools.accumulate(widths))
        self._bounds = tuple((stop - width, stop) for width, stop in zip(widths, stops))
        self._blocks = [np.empty((0, width)) for width in widths]
        self._sizes = [0] * len(widths)  # the distinct vectors of each block
        # per part, the hash of a vector's bytes -> the rows of the block
        # that hold vectors with that hash; None until an append needs it
        self._keys: list[dict[int, list[int]] | None] = [{} for _ in widths]
        self._index = np.empty((capacity, len(widths)), dtype=np.int64)
        self._retain = np.empty(capacity, dtype=bool)
        self._reward = np.empty(capacity)
        self._claim = np.empty(capacity, dtype=bool)
        self._posts = np.empty(capacity, dtype=np.int64)
        self._rows = 0
        self._starts: list[int] = []
        self._work: tuple[np.ndarray, ...] = ()

    @classmethod
    def of(cls, trajectories: Sequence[Trajectory]) -> "ReplayTable":
        """A table of copies of the trajectories' rows, with the whole
        state as its one part."""
        rows = sum(1 + len(post_steps) for _claim_step, post_steps in trajectories)
        state_dim = np.shape(trajectories[0][0].state)[0] if trajectories else 0
        table = cls((state_dim,), capacity=rows)
        for claim_step, post_steps in trajectories:
            table.append(claim_step, post_steps)
        return table

    @classmethod
    def adopt(cls, blocks: Sequence[np.ndarray], index: np.ndarray, retain: np.ndarray,
              reward: np.ndarray, post_counts: Sequence[int]) -> "ReplayTable":
        """A table of the rows in `index`, `retain` and `reward`, trajectory
        by trajectory with `post_counts` post rows each. Each part's
        distinct vectors are a float64 block of `blocks`, which the table
        takes as its storage without copying it; `index`, of any number
        type, holds each row's index into each block. Raises ValueError
        when an index is not an integer in range, or a block holds a
        vector no row uses. The blocks are not hashed until the first
        `append`."""
        sizes = [len(block) for block in blocks]
        index = np.asarray(index)
        if index.shape != (len(retain), len(blocks)) or not (
                (index >= 0) & (index < sizes) & (index == np.floor(index))).all():
            raise ValueError("an index is not a row of its part's block")
        table = cls([block.shape[1] for block in blocks], capacity=len(retain))
        table._index[:] = index
        table._blocks = list(blocks)
        table._sizes = sizes
        table._keys = [None] * len(blocks)
        for k, size in enumerate(sizes):
            if np.bincount(table._index[:, k], minlength=size).min(initial=1) == 0:
                raise ValueError(f"part {k} holds a vector no row uses")
        table._write(0, retain, reward, post_counts)
        return table

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        return map(self._trajectory, self._starts)

    def __getitem__(self, index: int) -> tuple[float, np.ndarray]:
        return self._trajectory(self._starts[index])

    def _trajectory(self, start: int) -> tuple[float, np.ndarray]:
        return self._reward[start], self._reward[start + 1:start + 1 + self._posts[start]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReplayTable):
            return NotImplemented
        n = self._rows
        return (n == other._rows and self._bounds == other._bounds
                and all(a.tobytes() == b.tobytes() for (a, _i), (b, _j)
                        in zip(self.parts, other.parts))
                and all(getattr(self, name)[:n].tobytes()
                        == getattr(other, name)[:n].tobytes()
                        for name in self._COLUMNS))

    @property
    def parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per part, `(distinct vectors, row indices)`: views of the
        table's `(distinct, width)` block and of its index column."""
        return [(block[:size], self._index[:self._rows, k])
                for k, (block, size) in enumerate(zip(self._blocks, self._sizes))]

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Each part's `(start, stop)` columns of a state."""
        return self._bounds

    def dense_states(self) -> np.ndarray:
        """The `(rows, state_dim)` states, assembled from the parts (a copy)."""
        return np.hstack([block[index] for block, index in self.parts])

    @property
    def retain(self) -> np.ndarray:
        return self._retain[:self._rows]

    @property
    def reward(self) -> np.ndarray:
        return self._reward[:self._rows]

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
        """Add copies of one trajectory's rows. A step with no reward raises
        PolicyError, and one whose state is not as wide as the table's
        ValueError; either leaves the table as it was."""
        steps = (claim_step, *post_steps)
        rewards = [step.reward for step in steps]
        if None in rewards:
            level = LEVEL_CLAIM if rewards[0] is None else LEVEL_POST
            raise PolicyError(f"{level} step has no reward")
        width = self._bounds[-1][1]
        states = [np.asarray(step.state, dtype=np.float64) for step in steps]
        if any(state.shape != (width,) for state in states):
            raise ValueError(f"a step's state is not of shape ({width},)")
        start, end = self._rows, self._rows + len(steps)
        if end > len(self._index):
            self._grow(max(end, 2 * len(self._index)))
        self._index[start:end] = [[self._intern(k, state[a:b])
                                    for k, (a, b) in enumerate(self._bounds)]
                                   for state in states]
        self._write(start, [step.action == RETAIN for step in steps], rewards,
                    [len(post_steps)])

    def _intern(self, part: int, vector: np.ndarray) -> int:
        """The index of `vector` in the part's block, added if new."""
        keys = self._keys[part]
        if keys is None:
            keys = self._keys[part] = self._hashes(part)
        block, size = self._blocks[part], self._sizes[part]
        data = vector.tobytes()
        same_hash = keys.setdefault(hash(data), [])
        for index in same_hash:
            if block[index].tobytes() == data:
                return index
        if size == len(block):
            grown = np.empty((max(1, 2 * size), block.shape[1]))
            grown[:size] = block
            self._blocks[part] = block = grown
        block[size] = vector
        same_hash.append(size)
        self._sizes[part] = size + 1
        return size

    def _hashes(self, part: int) -> dict[int, list[int]]:
        """The part's hash -> rows lookup, built from its block."""
        keys: dict[int, list[int]] = {}
        for index, vector in enumerate(self._blocks[part][:self._sizes[part]]):
            keys.setdefault(hash(vector.tobytes()), []).append(index)
        return keys

    def _write(self, start: int, retain, reward, post_counts: Sequence[int]) -> None:
        """Fill all but the index columns of the rows from `start` on,
        trajectory by trajectory with `post_counts` post rows each; they
        become the last rows."""
        sizes = np.asarray(post_counts, dtype=np.int64) + 1
        end = start + int(sizes.sum())
        firsts = start + np.cumsum(sizes) - sizes
        self._retain[start:end] = retain
        self._reward[start:end] = reward
        self._claim[start:end] = False
        self._claim[firsts] = True
        self._posts[start:end] = np.repeat(sizes - 1, sizes)
        self._starts += firsts.tolist()
        self._rows = end

    def __delitem__(self, index: slice) -> None:
        """Drop the oldest trajectories: `del table[:-keep]` keeps the newest
        `keep`, as on a list. Only such leading slices can be deleted. Each
        part's block then keeps only the vectors the remaining rows use."""
        if not isinstance(index, slice) or index.indices(len(self))[::2] != (0, 1):
            raise TypeError("only a leading slice of a ReplayTable can be deleted")
        drop = index.indices(len(self))[1]
        if drop <= 0:
            return
        cut = self._starts[drop] if drop < len(self) else self._rows
        n = self._rows - cut
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[:n] = column[cut:self._rows]
        self._starts = [start - cut for start in self._starts[drop:]]
        self._rows = n
        for k, size in enumerate(self._sizes):
            index = self._index[:n, k]
            used = np.zeros(size, dtype=bool)
            used[index] = True
            kept = np.flatnonzero(used)
            if len(kept) == size:
                continue
            renumber = np.cumsum(used) - 1
            block = self._blocks[k]
            block[:len(kept)] = block[kept]
            index[:] = renumber[index]
            self._sizes[k] = len(kept)
            keys = self._keys[k]
            if keys is not None:
                used, renumber = used.tolist(), renumber.tolist()
                self._keys[k] = {key: rows for key, rows in (
                    (key, [renumber[i] for i in rows if used[i]])
                    for key, rows in keys.items()) if rows}

    def _workspace(self, hidden: int) -> tuple[np.ndarray, ...]:
        """Views of the table's rows in the three float buffers and the
        bool one (see the class docstring), each `(rows, hidden)`."""
        capacity = len(self._index)
        if not self._work or self._work[0].shape != (capacity, hidden):
            self._work = (*(np.empty((capacity, hidden)) for _ in range(3)),
                          np.empty((capacity, hidden), dtype=bool))
        return tuple(buffer[:self._rows] for buffer in self._work)

    def _grow(self, capacity: int) -> None:
        n = self._rows
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)


def _table(trajectories: ReplayTable | Sequence[Trajectory]) -> ReplayTable:
    if isinstance(trajectories, ReplayTable):
        return trajectories
    return ReplayTable.of(trajectories)


def _segment_sums(values: np.ndarray, index: np.ndarray, rows: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Row `i` of the result is the sum of the rows of `values` whose index
    is `i`, for every `i` from 0 to `index.max()`, each of which occurs.
    The rows are sorted stably by index into `rows`, and `np.add.reduceat`
    sums each run of equal indices into `out`; both buffers have at least
    as many rows as `values`. How `reduceat` groups a run's additions is
    numpy's own, neither a loop in row order nor `sum(axis=0)`, but it is
    fixed for a given numpy build, so the sums are deterministic."""
    order = np.argsort(index, kind="stable")
    starts = np.flatnonzero(np.diff(index[order], prepend=-1))
    # mode="clip" writes straight into `rows` (the table keeps every index
    # in range); the default "raise" would buffer the whole result
    sorted_rows = np.take(values, order, axis=0, out=rows[:len(order)], mode="clip")
    return np.add.reduceat(sorted_rows, starts, axis=0, out=out[:len(starts)])


def _pre_activations(params: PolicyParams, table: ReplayTable, pre: np.ndarray,
                     gathered: np.ndarray, products: np.ndarray) -> None:
    """`states @ w1.T` of a table's rows, written into `pre`: the sum over
    its parts of each part's distinct vectors times its `(start, stop)`
    columns of `w1` (formed in `products`), gathered by the part's row
    indices (into `gathered`)."""
    for k, ((start, stop), (block, index)) in enumerate(zip(table.bounds, table.parts)):
        part = pre if k == 0 else gathered
        product = np.matmul(block, params.w1[:, start:stop].T, out=products[:len(block)])
        np.take(product, index, axis=0, out=part, mode="clip")
        if k:
            np.add(pre, part, out=pre)


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
    pre, gathered, products, _gate = table._workspace(params.hidden_dim)
    _pre_activations(params, table, pre, gathered, products)
    z = np.maximum(pre, 0.0, out=pre) @ params.w2
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
    """Analytic objective gradients (d/dw1, d/dw2), fresh arrays the caller
    owns.

    Per step, d objective / d logit is (1 - p) for retain and -p for discard,
    times the step weight; the relu subgradient at exactly 0 is 0. Each
    part's columns of d/dw1 are the per-vector sums of the back-propagated
    rows times the part's distinct vectors, so each distinct vector is
    multiplied once; only the grouping of the float64 sums differs from
    multiplying the stacked states. A part whose every row holds a vector
    of its own takes the same path, where the gather and the sums copy
    rows. The row-sized intermediates live in the table's workspace: the
    first buffer holds the pre-activations, then the hidden layer in place
    once the gate is taken, then the back-propagated rows in place once
    d/dw2 is formed.
    """
    if not trajectories:
        return np.zeros_like(params.w1), np.zeros_like(params.w2)
    table = _table(trajectories)
    weights = table.weights(claim_shift, post_shift)
    pre, gathered, products, gate = table._workspace(params.hidden_dim)
    _pre_activations(params, table, pre, gathered, products)
    np.greater(pre, 0.0, out=gate)
    hidden = np.maximum(pre, 0.0, out=pre)
    z = hidden @ params.w2
    p = _sigmoid(z)
    g_z = np.where(table.retain, 1.0 - p, -p) * weights
    g_w2 = hidden.T @ g_z
    back = np.multiply(g_z[:, None], params.w2[None, :], out=hidden)
    np.multiply(back, gate, out=back)  # a bool gate multiplies as 1.0 or 0.0
    g_w1 = np.empty_like(params.w1)
    for (start, stop), (block, index) in zip(table.bounds, table.parts):
        sums = _segment_sums(back, index, gathered, products)
        np.matmul(sums.T, block, out=g_w1[:, start:stop])
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

    def observe(self, claim_reward: float, post_rewards: Sequence[float]) -> None:
        """Fold the newest trajectory's rewards into the running averages."""
        self.claim.update(float(claim_reward))
        if len(post_rewards):
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
    in place, chunk by chunk of ADAM_CHUNK elements with two chunk-sized
    temporaries, in the textbook order of operations; each element's
    result depends only on its own inputs, so the results are bitwise
    those of the plain expressions.
    """
    if not trajectories:
        return
    table = _table(trajectories)
    claim_shift = post_shift = 0.0
    if baseline is not None:
        claim_shift = baseline.claim.get()
        post_shift = baseline.post.get()
        baseline.observe(*table[-1])
    g_w1, g_w2 = gradients(
        params, table, claim_shift=claim_shift, post_shift=post_shift
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
        rows = max(1, ADAM_CHUNK * len(w) // w.size)  # leading rows per chunk
        a = np.empty((min(rows, len(w)), *w.shape[1:]))
        b = np.empty_like(a)
        for lo in range(0, len(w), rows):
            # slices along the first axis are views, whatever the layout
            gc, mc, vc, wc = g[lo:lo + rows], m[lo:lo + rows], v[lo:lo + rows], w[lo:lo + rows]
            ac, bc = a[:len(wc)], b[:len(wc)]
            mc *= b1
            mc += np.multiply(gc, 1.0 - b1, out=ac)  # (1 - b1) g
            vc *= b2
            vc += np.multiply(np.square(gc, out=ac), 1.0 - b2, out=ac)  # (1 - b2) g^2
            np.divide(mc, correction1, out=ac)  # m_hat
            np.divide(vc, correction2, out=bc)  # v_hat
            np.add(np.sqrt(bc, out=bc), optimizer.eps, out=bc)
            wc += np.divide(np.multiply(ac, lr, out=ac), bc, out=ac)  # lr m_hat / (...)


_MOMENTS = ("m_w1", "v_w1", "m_w2", "v_w2")


def encode_policy(
    params: PolicyParams, optimizer: OptimizerState
) -> tuple[dict, dict[str, np.ndarray]]:
    """The optimizer's settings and counters (JSON-able), and the arrays
    `w1`, `w2` and, once the first update has made them, the Adam moments."""
    settings = {f.name: getattr(optimizer, f.name) for f in fields(optimizer)
                if f.name not in _MOMENTS}
    arrays = {"w1": params.w1, "w2": params.w2}
    if optimizer.m_w1 is not None:
        arrays.update({name: getattr(optimizer, name) for name in _MOMENTS})
    return settings, arrays


def decode_policy(
    settings: dict, arrays: dict[str, np.ndarray]
) -> tuple[PolicyParams, OptimizerState]:
    """Inverse of `encode_policy`, taking the arrays without copying them.
    Arrays that disagree in shape raise ValueError; a missing entry raises
    KeyError or TypeError."""
    w1, w2 = arrays["w1"], arrays["w2"]
    if w1.ndim != 2 or w2.shape != w1.shape[:1]:
        raise ValueError(f"w1 has shape {w1.shape} and w2 {w2.shape}")
    optimizer = OptimizerState(**settings)
    if "m_w1" in arrays:
        for name in _MOMENTS:
            expected = (w1 if name.endswith("w1") else w2).shape
            if arrays[name].shape != expected:
                raise ValueError(f"{name} has shape {arrays[name].shape}, "
                                 f"expected {expected}")
            setattr(optimizer, name, arrays[name])
    return PolicyParams(w1=w1, w2=w2), optimizer


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, OptimizerState]:
    """Read the policy and optimizer of a run-state file (see
    claimsift.runstate): its manifest's "optimizer" entry and the arrays
    `encode_policy` wrote; the rest of the run is ignored, and a file that
    holds only these loads too. A damaged file, one of another format or
    version (an older `policy.ckpt` is version 5), and one whose arrays or
    optimizer entry do not fit raise CheckpointError."""
    state, arrays = read_run_state(path)
    try:
        return decode_policy(state["optimizer"], arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed policy checkpoint: {exc!r}") from None
