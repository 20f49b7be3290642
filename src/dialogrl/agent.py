"""DQN dialog policy: dual FIFO replay buffers, epsilon-greedy action
selection with an optional additive exploration bonus, and Q-learning
updates against a periodically synced target network.

``draw`` is the one minibatch draw of the Q-net, the world model and the
curiosity model: it draws every minibatch of a call first, then gathers
their experiences. ``train_on_replay`` then trains UPDATE_CHUNK minibatches
at a time, so each learner builds its inputs and targets once per chunk
(for the Q-net, one target-net forward) instead of once per minibatch.
Chunks, not the whole call, bound the memory of those float32 inputs. A
curiosity job holds its whole call's sampled rows, as the float16 states
the buffers store: about 1.3 MB per state field for a call of 5k rows.
On a 2-core x86-64 machine with OpenBLAS 0.3.31 and one
BLAS thread, a float32 DQN minibatch on a full buffer took a median 197 us
in chunks of 1, 173 us in chunks of 32, 180 us in chunks of 64 and 177 us
in chunks of 128 (wall clock, quartiles overlapping from 32 to 128), and
float32 target-net rows were bit-equal to 16-row forwards for every row
count that is a multiple of 16 up to 4096, under the default thread count
and under one thread (not for 3, 5, 7, 8, 12, 17 or 100 rows against
1-row forwards)."""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError, read_json
from .nets import LEARNER_DTYPE, MlpModel, TrainBatch, mlp_new, single_head_spec

log = logging.getLogger(__name__)

REPLAY_CAPACITY = 5000
BATCH_SIZE = 16
UPDATE_CHUNK = 32  # minibatches whose inputs are built together


@dataclass
class Experience:
    """One transition: state, agent action, reward, observed user action,
    next state, terminal flag.

    The replay buffers hold ``s`` and ``s_next`` as float16 0/1 rows
    (``env.stored_states``): the cast is exact both ways, and checks can
    still see a non-binary value. ``stack_rows`` casts them to LEARNER_DTYPE.
    """

    s: np.ndarray
    a: int
    r: float
    a_user: int
    s_next: np.ndarray
    done: bool


class ReplayBuffer:
    """Bounded FIFO store; evicts strictly oldest-first at capacity."""

    def __init__(self, capacity: int = REPLAY_CAPACITY, kind: str = "real"):
        if kind not in ("real", "simulated"):
            raise ValueError(f"buffer kind must be real or simulated, got {kind!r}")
        self.capacity = capacity
        self.kind = kind
        self._items: deque[Experience] = deque(maxlen=capacity)

    def append(self, exp: Experience) -> None:
        self._items.append(exp)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Experience:
        return self._items[i]


def stack_rows(rows: list[np.ndarray]) -> np.ndarray:
    """``np.stack`` of equal-length 1-D arrays into one LEARNER_DTYPE
    matrix, without its view per row (a quarter of the time for a chunk's
    512 states). This is where stored states are cast to the dtype the
    nets compute in: once per gathered chunk. numpy 2.4.6 casts float16
    to float32 more slowly than to float64 (457 against 382 us for 512
    rows), yet a DQN minibatch took a median 238 us with this cast against
    263 us with a float64 one that each step then casts
    (BENCH_float32_learners.json)."""
    return np.concatenate(rows, dtype=LEARNER_DTYPE).reshape(len(rows), -1)


def minibatch_rows(n: int):
    """Row slices of the consecutive minibatches in ``n`` gathered rows."""
    return (slice(lo, lo + BATCH_SIZE) for lo in range(0, n, BATCH_SIZE))


def chunk_rows(n: int):
    """Row slices of the consecutive chunks of UPDATE_CHUNK minibatches in
    ``n`` gathered rows."""
    step = UPDATE_CHUNK * BATCH_SIZE
    return (slice(lo, lo + step) for lo in range(0, n, step))


def draw(pools: list[ReplayBuffer], n_batches: int, rng: np.random.Generator) -> list[Experience]:
    """The experiences of ``n_batches`` minibatches drawn from ``pools``,
    BATCH_SIZE per minibatch, in order.

    Each minibatch draws ``rng.integers(0, total, size=BATCH_SIZE)`` over the
    concatenation of ``pools``, all before any experience is gathered.
    """
    sizes = np.array([len(p) for p in pools])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    flat = np.array([rng.integers(0, int(ends[-1]), size=BATCH_SIZE) for _ in range(n_batches)],
                    dtype=np.int64).ravel()
    which = np.searchsorted(ends, flat, side="right")
    return [pools[p][i] for p, i in zip(which.tolist(), (flat - starts[which]).tolist())]


def train_on_replay(net: MlpModel, pools: list[ReplayBuffer], n_batches: int,
                    rng: np.random.Generator, learning_rate: float, minibatches) -> list[float]:
    """``n_batches`` RMSProp steps of ``net`` on experiences ``draw``n from
    ``pools``.

    ``minibatches(experiences)`` yields one TrainBatch per BATCH_SIZE rows
    of a chunk of UPDATE_CHUNK minibatches, in order. Returns the losses,
    one per step.
    """
    exps = draw(pools, n_batches, rng)
    return [net.train_minibatch(batch, learning_rate)
            for rows in chunk_rows(len(exps)) for batch in minibatches(exps[rows])]


def q_network_spec(state_dim: int = 129, n_actions: int = 29, hidden: int = 80):
    return single_head_spec(state_dim, [hidden], n_actions, output_activation="linear",
                            loss="mse", name="q")


class DqnAgent:
    """Q-network plus frozen target twin over a discrete action roster."""

    def __init__(self, state_dim: int = 129, n_actions: int = 29, hidden: int = 80,
                 gamma: float = 0.9, epsilon: float = 0.05, learning_rate: float = 0.001,
                 seed: int = 0):
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.gamma = gamma
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        self.step_count = 0
        self.q_net = mlp_new(q_network_spec(state_dim, n_actions, hidden), seed=seed, dtype=LEARNER_DTYPE)
        self.target_net = self.q_net.clone()

    # ---- acting -------------------------------------------------------------

    def q_values(self, s) -> np.ndarray:
        s = np.asarray(s)
        if s.shape != (self.state_dim,):
            raise ShapeError(f"expected state of length {self.state_dim}, got {s.shape}")
        return self.q_net.forward(s)["q"][0]

    def q_values_batch(self, states: np.ndarray, net: MlpModel | None = None) -> np.ndarray:
        net = net if net is not None else self.q_net
        return net.forward(states)["q"]

    def select_action(self, s, rng: np.random.Generator, bonus: np.ndarray | None = None,
                      epsilon: float | None = None) -> int:
        """Epsilon-greedy over Q, or over Q + bonus when a bonus is given.

        The epsilon draw happens before the argmax either way, so with a
        zero bonus the action trace is identical to plain epsilon-greedy
        under a shared rng stream. Ties break to the lowest index.
        """
        eps = self.epsilon if epsilon is None else epsilon
        if eps > 0.0 and rng.random() < eps:
            return int(rng.integers(self.n_actions))
        scores = self.q_values(s)
        if bonus is not None:
            bonus = np.asarray(bonus)
            if bonus.shape != (self.n_actions,):
                raise ShapeError(f"bonus must have length {self.n_actions}, got {bonus.shape}")
            scores = scores + bonus
        return int(np.argmax(scores))

    def select_actions(self, states: np.ndarray, rngs, bonus: np.ndarray | None = None) -> np.ndarray:
        """``select_action`` for every row of ``states`` with one Q forward.

        Row i makes exactly the epsilon draws ``select_action`` makes, on its
        own stream ``rngs[i]``, and ``bonus`` (when given) is shaped like the
        Q-values. Ties break to the lowest index.
        """
        scores = self.q_values_batch(states)
        if bonus is not None:
            if bonus.shape != scores.shape:
                raise ShapeError(f"bonus must have shape {scores.shape}, got {bonus.shape}")
            scores = scores + bonus
        actions = scores.argmax(axis=1)
        if self.epsilon > 0.0:
            for i, rng in enumerate(rngs):
                if rng.random() < self.epsilon:
                    actions[i] = rng.integers(self.n_actions)
        return actions

    # ---- learning -------------------------------------------------------------

    def batch_targets(self, exps: list[Experience]):
        """Q-learning targets for a batch: r, or r + gamma * max target-Q.

        ``r + gamma * max Q`` is computed in float64 from the target net's
        maximum, then rounded once to the Q-net's dtype."""
        states = stack_rows([e.s for e in exps])
        next_states = stack_rows([e.s_next for e in exps])
        actions = np.array([e.a for e in exps])
        rewards = np.array([e.r for e in exps], dtype=np.float64)
        done = np.array([e.done for e in exps], dtype=bool)
        best_next = self.q_values_batch(next_states, net=self.target_net).max(axis=1).astype(np.float64)
        rows = np.arange(len(exps))
        targets = np.zeros((len(exps), self.n_actions), dtype=self.q_net.theta.dtype)
        targets[rows, actions] = np.where(done, rewards, rewards + self.gamma * best_next)
        mask = np.zeros_like(targets)
        mask[rows, actions] = 1.0
        return states, targets, mask

    def update(self, buffer: ReplayBuffer, n_batches: int, rng: np.random.Generator) -> float | None:
        """n_batches RMSProp steps of masked MSE on the taken actions only."""
        if len(buffer) == 0:
            log.warning("dqn update skipped: %s buffer is empty", buffer.kind)
            return None
        losses = train_on_replay(self.q_net, [buffer], n_batches, rng, self.learning_rate,
                                 self._minibatches)
        self.step_count += len(losses)
        return float(np.mean(losses)) if losses else None

    def _minibatches(self, exps: list[Experience]):
        # The target net is fixed within an update, so one forward serves the chunk.
        states, targets, mask = self.batch_targets(exps)
        for rows in minibatch_rows(len(exps)):
            yield TrainBatch(states[rows], {"q": targets[rows]}, {"q": mask[rows]})

    def sync_target(self) -> None:
        self.target_net.copy_parameters_from(self.q_net)

    # ---- persistence -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "state_dim": self.state_dim,
            "n_actions": self.n_actions,
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "learning_rate": self.learning_rate,
            "step_count": self.step_count,
            "q_net": self.q_net.to_json(),
            "target_net": self.target_net.to_json(),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json()), encoding="utf-8")

    @classmethod
    def from_json(cls, obj: dict) -> "DqnAgent":
        try:
            agent = cls(
                state_dim=int(obj["state_dim"]),
                n_actions=int(obj["n_actions"]),
                gamma=float(obj["gamma"]),
                epsilon=float(obj["epsilon"]),
                learning_rate=float(obj["learning_rate"]),
            )
            agent.step_count = int(obj["step_count"])
            agent.q_net = MlpModel.from_json(obj["q_net"])
            agent.target_net = MlpModel.from_json(obj["target_net"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed agent checkpoint: {exc}") from exc
        return agent

    @classmethod
    def load(cls, path) -> "DqnAgent":
        return cls.from_json(read_json(path, FormatError, "agent checkpoint"))

