"""Forward-dynamics curiosity model.

Predicts the next encoded state for (state, action) pairs and regresses a
scalar curiosity value toward its own squared prediction error. The value,
clamped nonnegative at inference, is added to Q-values during action
selection to bias the agent toward states it cannot yet predict. There is
no inverse model: the state encoding is already action-driven, so the
prediction target is the raw encoding itself.

The net is float32 (``nets.LEARNER_DTYPE``), as every learner net is: its
weights, RMSProp state, value pass and training steps. ``values`` returns
float32, the dtype of the Q-values the bonus is added to. On a 2-core Xeon
with OpenBLAS 0.3.31 and one BLAS thread, float32 took the value pass over
30 states from a median 1.36 ms to 0.65 ms in 4-state blocks, and over 75
states from 4.12 ms to 1.66 ms (block-size sweep in
BENCH_float32_curiosity.json).

The value pass runs over blocks of VALUE_BLOCK_STATES states (232 rows at
29 actions). On the same machine, with one BLAS thread and float32 weights
(median of 300 calls, BENCH_first_chunk.json):

    states   4-state blocks   8-state blocks   16-state blocks
    30       582 us           525 us           903 us
    75       1456 us          1301 us          2027 us

Larger blocks fall out of cache; an earlier sweep had 2.82 ms for 75 states
as one batch. Blocks of 4, 8 or 16 states (row counts that are multiples
of 4) give the same values to the bit for every batch of 1 to 75 states;
blocks of 1, 2, 3, 5 or 6 states differed from a whole batch in the last
bits.
"""

from __future__ import annotations

import logging

import numpy as np

from .agent import ReplayBuffer, chunk_rows, draw, minibatch_rows
from .errors import ShapeError
from .nets import LEARNER_DTYPE, HeadSpec, LayerSpec, MlpSpec, TrainBatch, mlp_new
from .world import encode_inputs

log = logging.getLogger(__name__)

VALUE_BLOCK_STATES = 8


def curiosity_spec(state_dim: int = 129, n_agent_actions: int = 29, hidden: int = 80) -> MlpSpec:
    """Two shared tanh layers, one task-specific hidden layer per head."""
    d = state_dim + n_agent_actions
    return MlpSpec(
        shared=[LayerSpec(d, hidden, "tanh"), LayerSpec(hidden, hidden, "tanh")],
        heads=[
            HeadSpec("next_state", [LayerSpec(hidden, hidden, "tanh"),
                                    LayerSpec(hidden, state_dim, "linear")], "mse"),
            HeadSpec("value", [LayerSpec(hidden, hidden, "tanh"),
                               LayerSpec(hidden, 1, "linear")], "mse"),
        ],
    ).validate()


class CuriosityModel:
    """C(s, a): per-action next-state prediction and curiosity value."""

    def __init__(self, state_dim: int = 129, n_agent_actions: int = 29, hidden: int = 80,
                 learning_rate: float = 0.001, seed: int = 0):
        self.state_dim = state_dim
        self.n_agent_actions = n_agent_actions
        self.learning_rate = learning_rate
        self.net = mlp_new(curiosity_spec(state_dim, n_agent_actions, hidden), seed=seed, dtype=LEARNER_DTYPE)

    def values(self, states) -> np.ndarray:
        """Curiosity value of every action in each state, clamped at zero.

        ``states`` is one encoded state or a batch of them; the result is
        shaped (n, n_actions). Only the trunk and the value head run, over
        blocks of VALUE_BLOCK_STATES states. The first layer is factored as
        ``s @ W1[:d] + b1 + W1[d + a]``, so the one-hot (state, action)
        inputs are never built.
        """
        states = np.atleast_2d(np.asarray(states, dtype=self.net.theta.dtype))
        n, d, k = states.shape[0], self.state_dim, self.n_agent_actions
        if states.shape != (n, d):
            raise ShapeError(f"expected states of width {d}, got {states.shape}")
        w1, b1 = self.net.shared_params[0]
        base = states @ w1[:d] + b1
        out = np.empty((n, k), dtype=states.dtype)
        for i in range(0, n, VALUE_BLOCK_STATES):
            z1 = base[i: i + VALUE_BLOCK_STATES, None, :] + w1[d:]  # (states, n_actions, hidden)
            out[i: i + VALUE_BLOCK_STATES] = self.net.forward_head(
                z1.reshape(-1, z1.shape[-1]), "value").reshape(-1, k)
        return np.maximum(out, 0.0, out=out)

    def scores(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate every candidate action for one state.

        Returns (values clamped at zero, predicted next states), shaped
        (n_actions,) and (n_actions, state_dim).
        """
        s = np.asarray(s, dtype=LEARNER_DTYPE)
        tiled = np.tile(s, (self.n_agent_actions, 1))
        x = encode_inputs(tiled, np.arange(self.n_agent_actions), self.n_agent_actions)
        return self.values(s)[0], self.net.forward(x)["next_state"]

    def train(self, real_buffer: ReplayBuffer | None, sim_buffer: ReplayBuffer | None,
              n_batches: int, rng: np.random.Generator) -> float | None:
        """``n_batches`` minibatches over the concatenation of both buffers:
        ``sample`` the rows, then ``fit`` them; returns the mean loss."""
        rows = self.sample(real_buffer, sim_buffer, n_batches, rng)
        return None if rows is None else float(np.mean(self.fit(*rows)))

    def sample(self, real_buffer: ReplayBuffer | None, sim_buffer: ReplayBuffer | None,
               n_batches: int, rng: np.random.Generator):
        """The rows of ``n_batches`` minibatches ``draw``n over the
        concatenation of both buffers, as arrays ``(s, a, s_next)`` with one
        row per drawn transition and the states in their stored dtype; None
        when both buffers are empty."""
        pools = [b for b in (real_buffer, sim_buffer) if b is not None]
        if not any(pools):
            log.warning("curiosity update skipped: both buffers are empty")
            return None
        exps = draw(pools, n_batches, rng)
        return (np.concatenate([e.s for e in exps]).reshape(len(exps), -1),
                np.array([e.a for e in exps], dtype=np.int64),
                np.concatenate([e.s_next for e in exps]).reshape(len(exps), -1))

    def fit(self, s: np.ndarray, a: np.ndarray, s_next: np.ndarray) -> list[float]:
        """One RMSProp step per BATCH_SIZE rows of ``sample``'s arrays, built
        UPDATE_CHUNK minibatches at a time; returns the losses, one per step.

        The value head's target is the squared prediction error of the
        pre-update next-state head, taken from the training step's own
        forward pass, with no gradient flowing through it. The error is of
        the float32 prediction, summed in float64.
        """
        losses = []
        for chunk in chunk_rows(len(a)):
            x = encode_inputs(s[chunk], a[chunk], self.n_agent_actions)
            targets = s_next[chunk].astype(LEARNER_DTYPE)
            wide = targets.astype(np.float64)
            for rows in minibatch_rows(len(x)):
                losses.append(self.net.train_minibatch(TrainBatch(x[rows], {
                    "next_state": targets[rows],
                    "value": lambda out, target=wide[rows]: ((target - out["next_state"]) ** 2).sum(
                        axis=1, keepdims=True),
                }), self.learning_rate))
        return losses
