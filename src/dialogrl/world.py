"""Learned environment model and the planning loop it drives.

The model maps (encoded state, one-hot agent action) to a distribution over
user action templates, a scalar reward, and a termination probability.
Planning replays the real dialog tracker but takes the user's move, the
reward, and the episode end from the model instead of the simulator.

The rollouts of one planning round advance in lockstep: each turn runs one
batched forward of the Q-net, the curiosity value head and the world model
over the rollouts still running, while the tracker updates stay per dialog.
Each rollout draws its goal, its first user act and its epsilon-greedy
choices from its own rng stream, seeded from draws on the planning rng, so
one rollout's draws do not depend on when the others end. Experiences are
appended turn by turn, in rollout order, and a rollout's next-state row is
the very array its next experience stores as its state.
"""

from __future__ import annotations

import logging

import numpy as np

from .agent import DqnAgent, Experience, ReplayBuffer, minibatch_rows, stack_rows, train_on_replay
from .domain import ActionRoster, KnowledgeBase
from .env import DialogEnv, RewardConfig, encode_state
from .errors import ContractViolation, ShapeError
from .nets import HeadSpec, LayerSpec, MlpSpec, TrainBatch, mlp_new

log = logging.getLogger(__name__)

TERMINATION_THRESHOLD = 0.5


def world_model_spec(state_dim: int = 129, n_agent_actions: int = 29,
                     n_user_actions: int = 35, hidden: int = 80) -> MlpSpec:
    """Two shared tanh layers, then one task-specific hidden layer per head."""
    d = state_dim + n_agent_actions
    return MlpSpec(
        shared=[LayerSpec(d, hidden, "tanh"), LayerSpec(hidden, hidden, "tanh")],
        heads=[
            HeadSpec("user_action", [LayerSpec(hidden, hidden, "tanh"),
                                     LayerSpec(hidden, n_user_actions, "softmax")], "cross_entropy"),
            HeadSpec("reward", [LayerSpec(hidden, hidden, "tanh"),
                                LayerSpec(hidden, 1, "linear")], "mse"),
            HeadSpec("termination", [LayerSpec(hidden, hidden, "tanh"),
                                     LayerSpec(hidden, 1, "sigmoid")], "binary_cross_entropy"),
        ],
    ).validate()


def encode_inputs(states: np.ndarray, actions, n_actions: int) -> np.ndarray:
    """Concatenate encoded states with one-hot agent actions."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_1d(np.asarray(actions, dtype=np.int64))
    if len(actions) != states.shape[0]:
        raise ShapeError("state/action batch sizes differ")
    onehot = np.zeros((len(actions), n_actions))
    onehot[np.arange(len(actions)), actions] = 1.0
    return np.concatenate([states, onehot], axis=1)


class WorldModel:
    """M(s, a): predicts the user's reply, the reward, and episode end."""

    def __init__(self, state_dim: int = 129, n_agent_actions: int = 29,
                 n_user_actions: int = 35, hidden: int = 80,
                 learning_rate: float = 0.001, seed: int = 0):
        self.state_dim = state_dim
        self.n_agent_actions = n_agent_actions
        self.n_user_actions = n_user_actions
        self.learning_rate = learning_rate
        self.net = mlp_new(world_model_spec(state_dim, n_agent_actions, n_user_actions, hidden), seed=seed)

    def predict(self, states, actions):
        """(user action distributions, rewards, termination probabilities).

        One row per (state, action) pair, shaped (n, n_user_actions), (n,)
        and (n,).
        """
        out = self.net.forward(encode_inputs(states, actions, self.n_agent_actions))
        return out["user_action"], out["reward"][:, 0], out["termination"][:, 0]

    def train(self, real_buffer: ReplayBuffer, n_batches: int, rng: np.random.Generator) -> float | None:
        """Joint CE + MSE + BCE step per minibatch, real experiences only."""
        if real_buffer.kind != "real":
            raise ContractViolation("world model trains on the real buffer only")
        if len(real_buffer) == 0:
            log.warning("world model update skipped: real buffer is empty")
            return None
        return float(np.mean(train_on_replay(self.net, [real_buffer], n_batches, rng,
                                             self.learning_rate, self._minibatches)))

    def _minibatches(self, exps: list[Experience]):
        x = encode_inputs(stack_rows([e.s for e in exps]), [e.a for e in exps], self.n_agent_actions)
        user_targets = np.zeros((len(exps), self.n_user_actions))
        user_targets[np.arange(len(exps)), [e.a_user for e in exps]] = 1.0
        rewards = np.array([[e.r] for e in exps], dtype=np.float64)
        dones = np.array([[e.done] for e in exps], dtype=np.float64)
        for rows in minibatch_rows(len(exps)):
            yield TrainBatch(x[rows], {"user_action": user_targets[rows], "reward": rewards[rows],
                                       "termination": dones[rows]})


def plan(agent: DqnAgent, curiosity, world_model: WorldModel, goal_sampler,
         rounds: int, dialogs_per_round: int, sim_buffer: ReplayBuffer,
         kb: KnowledgeBase, roster: ActionRoster, rng: np.random.Generator,
         rewards: RewardConfig | None = None) -> int:
    """Generate simulated experiences by rolling the agent against the model.

    The user's move is the argmax of the model's user-action head; episodes
    end when the termination head crosses 0.5 or the turn cap is reached.
    Returns the number of experiences stored (always into sim_buffer).
    """
    if sim_buffer.kind != "simulated":
        raise ContractViolation("planning writes to the simulated buffer only")
    if dialogs_per_round < 1:
        raise ContractViolation(f"planning needs at least one dialog per round, got {dialogs_per_round}")
    rewards = rewards if rewards is not None else RewardConfig()
    stored = 0
    for _ in range(rounds):
        rngs = [np.random.default_rng(int(seed))
                for seed in rng.integers(1 << 63, size=dialogs_per_round)]
        envs = []
        for r in rngs:
            env = DialogEnv(kb, roster, rewards, rng=r)
            env.reset(goal_sampler(r))
            envs.append(env)
        s = np.stack([encode_state(env.state) for env in envs])
        rows = list(s)  # each live rollout's current state, as stored in its experiences
        while envs:
            bonus = curiosity.values(s) if curiosity is not None else None
            actions = agent.select_actions(s, rngs, bonus)
            for env, a in zip(envs, actions):
                env.apply_agent_act(env.realize_agent_action(int(a)))
            probs, reward, p_done = world_model.predict(s, actions)
            user_idx = probs.argmax(axis=1)
            s_next = np.empty_like(s)
            next_rows = list(s_next)
            alive = []
            for i, env in enumerate(envs):
                env.apply_simulated_user_act(roster.user_actions[int(user_idx[i])])
                s_next[i] = encode_state(env.state)
                done = bool(p_done[i] > TERMINATION_THRESHOLD or env.state.turn >= rewards.max_turns)
                sim_buffer.append(Experience(rows[i], int(actions[i]), float(reward[i]),
                                             int(user_idx[i]), next_rows[i], done))
                if not done:
                    alive.append(i)
            stored += len(envs)
            envs = [envs[i] for i in alive]
            rngs = [rngs[i] for i in alive]
            rows = [next_rows[i] for i in alive]
            s = s_next if len(alive) == len(actions) else s_next[alive]
    return stored
