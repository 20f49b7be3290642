"""Forward-dynamics curiosity model.

Predicts the next encoded state for (state, action) pairs and regresses a
scalar curiosity value toward its own squared prediction error. The value,
clamped nonnegative at inference, is added to Q-values during action
selection to bias the agent toward states it cannot yet predict. There is
no inverse model: the state encoding is already action-driven, so the
prediction target is the raw encoding itself.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

from .agent import BATCH_SIZE, ReplayBuffer
from .errors import FormatError, ShapeError
from .nets import HeadSpec, LayerSpec, MlpModel, MlpSpec, TrainBatch, mlp_new
from .world import encode_inputs

log = logging.getLogger(__name__)


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
        self.net = mlp_new(curiosity_spec(state_dim, n_agent_actions, hidden), seed=seed)

    def values(self, states) -> np.ndarray:
        """Curiosity value of every action in each state, clamped at zero.

        ``states`` is one encoded state or a batch of them; the result is
        shaped (n, n_actions). Only the trunk and the value head run. The
        first layer is factored as ``s @ W1[:d] + b1 + W1[d + a]``, so the
        one-hot (state, action) inputs are never built.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        n, d = states.shape[0], self.state_dim
        if states.shape != (n, d):
            raise ShapeError(f"expected states of width {d}, got {states.shape}")
        w1, b1 = self.net.shared_params[0]
        z1 = (states @ w1[:d] + b1)[:, None, :] + w1[d:]  # (n, n_actions, hidden)
        value = self.net.forward_head(z1.reshape(n * self.n_agent_actions, -1), "value")
        return np.maximum(value.reshape(n, self.n_agent_actions), 0.0)

    def scores(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate every candidate action for one state.

        Returns (values clamped at zero, predicted next states), shaped
        (n_actions,) and (n_actions, state_dim).
        """
        s = np.asarray(s, dtype=np.float64)
        tiled = np.tile(s, (self.n_agent_actions, 1))
        x = encode_inputs(tiled, np.arange(self.n_agent_actions), self.n_agent_actions)
        return self.values(s)[0], self.net.forward(x)["next_state"]

    def prediction_error(self, s, a, s_next) -> float:
        """Squared distance between the true and predicted next encodings."""
        x = encode_inputs(s, [a], self.n_agent_actions)
        pred = self.net.forward(x)["next_state"][0]
        diff = np.asarray(s_next, dtype=np.float64) - pred
        return float(diff @ diff)

    def train(self, real_buffer: ReplayBuffer | None, sim_buffer: ReplayBuffer | None,
              n_batches: int, rng: np.random.Generator) -> float | None:
        """Minibatches over the concatenation of both buffers.

        The value head's target is the squared prediction error of the
        pre-update next-state head, computed per batch with no gradient
        flowing through it.
        """
        pools = [b for b in (real_buffer, sim_buffer) if b is not None and len(b) > 0]
        if not pools:
            log.warning("curiosity update skipped: both buffers are empty")
            return None
        sizes = np.array([len(b) for b in pools])
        total = int(sizes.sum())
        losses = []
        for _ in range(n_batches):
            flat = rng.integers(0, total, size=BATCH_SIZE)
            exps = []
            for f in flat:
                f = int(f)
                for b, size in zip(pools, sizes):
                    if f < size:
                        exps.append(b[f])
                        break
                    f -= int(size)
            x = encode_inputs(np.stack([e.s for e in exps]), [e.a for e in exps], self.n_agent_actions)
            next_states = np.stack([e.s_next for e in exps])
            pred = self.net.forward(x)["next_state"]  # pre-update prediction
            err = ((next_states - pred) ** 2).sum(axis=1, keepdims=True)
            batch = TrainBatch(x, {"next_state": next_states, "value": err})
            losses.append(self.net.train_minibatch(batch, self.learning_rate))
        return float(np.mean(losses))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.net.to_json()), encoding="utf-8")

    def load_net(self, path) -> None:
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"curiosity checkpoint {path} is not valid JSON") from exc
        self.net = MlpModel.from_json(obj)
