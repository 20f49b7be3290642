"""Learned environment model and the planning loop it drives.

The model maps (encoded state, one-hot agent action) to a distribution over
user action templates, a scalar reward, and a termination probability.
Planning applies the real dialog tracker's rules but takes the user's move,
the reward, and the episode end from the model instead of the simulator.

The rollouts of one ``play_round`` batch advance in lockstep: each turn
runs one batched forward of the Q-net, the curiosity value head and the
world model over the rollouts still running, and updates their tracker
state, kept as arrays, with one set of numpy ops.
Each rollout draws its goal, its first user act and its epsilon-greedy
choices from its own rng stream, seeded from draws on the planning rng, so
one rollout's draws do not depend on when the others end.

A batch comes out of ``play_round`` as blocks of arrays: the first turn's
state matrix, then one ``(s_next, actions, rewards, user_acts, dones)``
tuple per turn, one row per rollout that took the turn. The state matrices
come as float16 0/1 rows (``env.stored_states``), the dtype the replay
buffers store states in: the cast is exact both ways, so the nets see the
same inputs, and checks can still see a non-binary value; the rounds
themselves compute on the nets' dtype, LEARNER_DTYPE. ``experiences``
is the one decoder of that format: it yields the batch's experiences turn
by turn, in rollout order, with each state a row view of its turn's
matrix, so a rollout's next-state row is the very array its next
experience stores as its state.

The rollouts of one ``plan`` call are independent: every round's seeds are
drawn up front and the nets do not change during the call. So ``plan``
plays all of them as two lockstep batches, halves of the concatenated
seeds: the caller plays the first half (one more when the count is odd),
while a ``PlanWorker``, a process forked once per Trainer, plays the
second and sends its blocks back pickled, and ``plan`` stores the first
half and then the second, both through ``experiences``. Without a worker
the caller plays both halves in the same order, so the stored
experiences, and every run output, do not depend on the number of CPUs.

For the curiosity methods the worker also trains the curiosity net while
the caller runs the Q-net's update on simulated experience. Each such job
carries its own minibatches: the caller draws them from its replay buffers
(``CuriosityModel.sample``) and sends their rows, with the states in the
float16 the buffers store, and the worker only fits them. A job of more
than UPDATE_CHUNK minibatches comes in two messages, the first chunk's rows
and then the rest, so the worker fits the first while the caller draws the
rest. The worker holds no replay data, so the caller's buffers are the
only ones.
"""

from __future__ import annotations

import contextlib
import gc
import logging
import os
import pickle
import signal
import time
from collections.abc import Iterator

import numpy as np

from .agent import DqnAgent, Experience, ReplayBuffer, minibatch_rows, stack_rows, train_on_replay
from .domain import ActionRoster, Intent, KnowledgeBase, Slot
from .env import (AGENT_INFORMED, AGENT_INTENT, AGENT_REQUESTED, KB_BUCKET, KB_BUCKETS, MAX_TURN_BUCKETS,
                  N_SLOTS, OUTSTANDING, TURN_BUCKET, USER_INFORMED, USER_INTENT, DialogEnv, RewardConfig,
                  stored_states)
from .errors import ContractViolation, ShapeError
from .nets import LEARNER_DTYPE, HeadSpec, LayerSpec, MlpModel, MlpSpec, TrainBatch, mlp_new

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
    """Concatenate encoded states with one-hot agent actions, in LEARNER_DTYPE.

    Built in the nets' dtype rather than cast to it: a world-model step
    took a median 576 us against 608 us for float64 inputs cast in the
    step (2-core x86-64 machine, one BLAS thread)."""
    states = np.atleast_2d(np.asarray(states, dtype=LEARNER_DTYPE))
    actions = np.atleast_1d(np.asarray(actions, dtype=np.int64))
    if len(actions) != states.shape[0]:
        raise ShapeError("state/action batch sizes differ")
    onehot = np.zeros((len(actions), n_actions), dtype=LEARNER_DTYPE)
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
        self.net = mlp_new(world_model_spec(state_dim, n_agent_actions, n_user_actions, hidden), seed=seed,
                           dtype=LEARNER_DTYPE)

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
        user_targets = np.zeros((len(exps), self.n_user_actions), dtype=LEARNER_DTYPE)
        user_targets[np.arange(len(exps)), [e.a_user for e in exps]] = 1.0
        rewards = np.array([[e.r] for e in exps], dtype=LEARNER_DTYPE)
        dones = np.array([[e.done] for e in exps], dtype=LEARNER_DTYPE)
        for rows in minibatch_rows(len(exps)):
            yield TrainBatch(x[rows], {"user_action": user_targets[rows], "reward": rewards[rows],
                                       "termination": dones[rows]})


def play_round(agent: DqnAgent, curiosity, world_model: WorldModel, goal_sampler, seeds,
               kb: KnowledgeBase, roster: ActionRoster, rewards: RewardConfig) -> Iterator:
    """One batch of planning rollouts: one per seed, advancing in lockstep.

    Each rollout is reset through its own ``DialogEnv``, which draws its goal
    and the simulator's first user act and encodes the first state. From
    then on the tracker state of the live rollouts is kept in arrays: each
    turn copies their encoding matrix and updates every row with the same
    few numpy ops, the tracker rules of ``DialogEnv.apply_agent_act`` plus
    the world model's user act (realized from the goal, so a user inform of
    a goal slot adds that constraint). Per-rollout Python runs only for
    agent informs that answer an outstanding request and for rows whose KB
    constraints change.

    Yields the batch as blocks: first the first turn's state matrix, one
    row per seed, then per turn ``(s_next, actions, rewards, user_acts,
    dones)``, arrays with one row per rollout that took the turn, in
    rollout order; the rows whose ``done`` is false take the next turn, in
    the same order. The state matrices are ``stored_states`` copies of the
    float32 ones the round computes on. ``experiences`` turns the blocks
    into experiences.
    Yielding a turn at a time lets ``plan`` store each as it comes, so the
    buffer evicts old experiences as the batch goes: collecting whole
    rounds first raised the peak memory of the benchmark's ``scddq_emd``
    by about 0.9 MB.
    """
    agent_intent, agent_column, answers, user_intent, user_informs = _act_tables(roster)
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    goals, hits, rows = [], [], []
    for r in rngs:
        env = DialogEnv(kb, roster, rewards, rng=r)
        env.reset(goal_sampler(r))
        goals.append(env.goal.inform_slots)
        hits.append(env.kb_hits)
        rows.append(env.encoding)
    accepted = [{} for _ in rngs]
    first = np.stack(rows)  # the stored encodings, each made once by its reset
    yield first
    s = first.astype(LEARNER_DTYPE)
    live = np.arange(len(rngs))  # each live row's rollout
    in_goal = np.zeros((len(rngs), N_SLOTS), dtype=bool)
    for i, goal in enumerate(goals):
        in_goal[i, list(goal)] = True
    turn = 0  # every live rollout's, as they advance together
    while len(live):
        bonus = curiosity.values(s) if curiosity is not None else None
        actions = agent.select_actions(s, rngs, bonus)
        probs, reward, p_done = world_model.predict(s, actions)
        at = np.arange(len(live))
        s_next = s.copy()
        # the agent's act
        s_next[:, TURN_BUCKET + min(turn, MAX_TURN_BUCKETS - 1)] = 0.0
        turn += 1
        s_next[:, TURN_BUCKET + min(turn, MAX_TURN_BUCKETS - 1)] = 1.0
        s_next[:, AGENT_INTENT:AGENT_INFORMED] = 0.0
        s_next[at, AGENT_INTENT + agent_intent[actions]] = 1.0
        column = agent_column[actions]
        some = column >= 0
        s_next[at[some], column[some]] = 1.0
        slot = answers[actions]
        changed = []
        # (a slot of -1 reads some other column; the mask drops it)
        for j in np.flatnonzero((slot >= 0) & (s[at, OUTSTANDING + slot] > 0)).tolist():
            i, q = live[j], Slot(int(slot[j]))
            value = kb.records[min(hits[i])].values[q] if hits[i] else "no match available"
            if kb.match_count({**goals[i], **accepted[i], q: value}) >= 1:
                accepted[i][q] = value
                s_next[j, OUTSTANDING + q] = 0.0
                changed.append(j)
        # the world model's user act
        user = probs.argmax(axis=1)
        s_next[:, USER_INTENT:USER_INFORMED] = 0.0
        s_next[at, USER_INTENT + user_intent[user]] = 1.0
        slot = user_informs[user]
        told = np.flatnonzero((slot >= 0) & in_goal[at, slot] & (s_next[at, USER_INFORMED + slot] == 0.0))
        s_next[told, USER_INFORMED + slot[told]] = 1.0
        for j in set(changed).union(told.tolist()):
            i = live[j]
            constraints = {q: v for q, v in goals[i].items() if s_next[j, USER_INFORMED + q]}
            hits[i] = kb.hits({**constraints, **accepted[i]})
            s_next[j, KB_BUCKET:] = 0.0
            s_next[j, KB_BUCKET + min(len(hits[i]), KB_BUCKETS - 1)] = 1.0

        done = p_done > TERMINATION_THRESHOLD if turn < rewards.max_turns else np.ones(len(live), dtype=bool)
        yield stored_states(s_next), actions, reward, user, done
        if done.any():
            alive = np.flatnonzero(~done)
            s, in_goal, live = s_next[alive], in_goal[alive], live[alive]
            rngs = [rngs[j] for j in alive]
        else:
            s = s_next


def experiences(blocks) -> Iterator[Experience]:
    """The experiences of one ``play_round`` batch, from its blocks.

    They come turn by turn, in rollout order: the order ``plan`` stores
    them in. Every state is a row view of its turn's matrix, and the rows
    whose ``done`` is false carry over as the next turn's states, so a
    rollout's ``s_next`` is the very array its next experience stores as
    ``s``.
    """
    blocks = iter(blocks)
    rows = list(next(blocks))
    for s_next, actions, rewards, user_acts, dones in blocks:
        next_rows, dones = list(s_next), dones.tolist()
        yield from map(Experience, rows, actions.tolist(), rewards.tolist(), user_acts.tolist(),
                       next_rows, dones)
        rows = [row for row, done in zip(next_rows, dones) if not done]


def _act_tables(roster: ActionRoster):
    """Per agent template: its intent, the encoding column its request or
    inform sets and the slot an inform of it may answer (-1 for none). Per
    user template: its intent and the slot it informs (-1 for none)."""
    agent_intent, agent_column, answers = [], [], []
    for act in roster.agent_actions:
        agent_intent.append(int(act.intent))
        column = answer = -1
        if act.intent == Intent.REQUEST:
            column = AGENT_REQUESTED + act.request_slots[0]
        elif act.intent == Intent.INFORM:
            slot = next(iter(act.inform_slots))
            column = AGENT_INFORMED + slot
            if slot not in (Slot.TASKCOMPLETE, Slot.TICKET):
                answer = int(slot)
        agent_column.append(column)
        answers.append(answer)
    user_intent = [int(act.intent) for act in roster.user_actions]
    user_informs = [int(next(iter(act.inform_slots))) if act.intent == Intent.INFORM else -1
                    for act in roster.user_actions]
    return tuple(np.array(x, dtype=np.int64) for x in (agent_intent, agent_column, answers,
                                                        user_intent, user_informs))


def plan(play, rounds: int, dialogs_per_round: int, sim_buffer: ReplayBuffer,
         rng: np.random.Generator, worker=None) -> int:
    """Generate simulated experiences by rolling the agent against the model.

    ``play(seeds) -> blocks`` plays one lockstep batch, one rollout per
    seed: ``play_round`` with its nets, goal sampler, KB, roster and
    rewards bound. The user's move is the argmax of the model's user-action
    head; episodes end when the termination head crosses 0.5 or the turn
    cap is reached. Each round draws its rollouts' seeds from ``rng``; the
    ``rounds * dialogs_per_round`` rollouts then play as two batches, the
    first half of the seeds (one more when their count is odd) and the
    second half, and are stored in that order through ``experiences``.
    ``worker(seeds) -> blocks``, when given, starts the second half in
    another process while this one plays the first (``PlanWorker.start``).
    Returns the number of experiences stored (always into sim_buffer).
    """
    if sim_buffer.kind != "simulated":
        raise ContractViolation("planning writes to the simulated buffer only")
    if dialogs_per_round < 1:
        raise ContractViolation(f"planning needs at least one dialog per round, got {dialogs_per_round}")
    if rounds < 1:
        return 0
    seeds = np.concatenate([rng.integers(1 << 63, size=dialogs_per_round) for _ in range(rounds)])
    first, second = np.array_split(seeds, 2)
    halves = [play(first)]
    if len(second):
        halves.append(worker(second) if worker is not None else play(second))
    stored = 0
    for blocks in halves:
        for exp in experiences(blocks):
            sim_buffer.append(exp)
            stored += 1
    return stored


def can_plan_in_parallel() -> bool:
    """Whether this process may fork and run on at least two CPUs."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


class PlanWorker:
    """A forked process that plays batches of planning rollouts on request
    and, for the curiosity methods, trains the curiosity net.

    ``play(job, seeds) -> blocks`` runs in the worker, on the worker's copy
    of ``nets`` (forked with them); each batch first sends every net's
    ``theta``, as raw bytes of the net's own dtype, so the worker plays
    with the parent's current weights. The worker plays the whole batch,
    then pickles its blocks one by one, as ``play_round`` yields them,
    followed by an end marker, the seconds it took to play them; the
    parent loads them as ``plan`` stores the batch through
    ``experiences``, as it does for the half it plays itself.

    Given ``curiosity``, ``start_training(rows, more)`` sends the rows that
    ``CuriosityModel.sample`` drew in the parent, and the worker fits its
    copy of the curiosity net to them (``CuriosityModel.fit``) while the
    parent goes on. With ``more``, ``continue_training(rows)`` sends the
    job's other rows, which a thread in the worker reads while the first
    ones are fitted, so the parent's send does not wait for that fit; the
    worker fits them next, and the job's loss is the mean over the steps of
    both. ``finish_training`` copies the trained net (weights and RMSProp
    state in the net's dtype, float32 for the curiosity net) and its step
    count back: the same steps, to the bit, as fitting the rows in the
    parent. The worker's copy is the one that trained last, as every
    curiosity job after the fork runs on the worker.

    ``busy_s`` adds up, per job kind ("plan" and "curiosity"), the seconds
    the worker spent on the jobs whose replies were read, as the worker
    timed them: playing a batch, or fitting the rows (not waiting for them).
    The owner clears it when it takes the times.

    The worker exits on EOF of its command pipe. An error in a job is sent
    back, re-raised in the parent as the job's reply is read, and ends the
    worker; after any error the owner calls ``close``, which kills a worker
    still busy.
    """

    def __init__(self, nets: list[MlpModel], play, curiosity=None):
        self._nets = nets
        self._curiosity = curiosity
        self._busy = False  # a job was started and its reply not yet read
        self.busy_s: dict[str, float] = {}
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the worker; it never returns from here
            try:
                gc.freeze()  # objects forked from the parent are never collected here
                _close_fds_except(0, 1, 2, cmd_r, res_w)
                _serve(open(cmd_r, "rb"), open(res_w, "wb"), nets, play, curiosity)
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(res_w)
        self._cmd = open(cmd_w, "wb")
        self._res = open(res_r, "rb")

    def start(self, job, seeds: np.ndarray) -> Iterator:
        """Start one batch of rollouts, one per seed; returns its blocks for
        ``plan``, read as they are iterated."""
        self._busy = True
        pickle.dump(("plan", job, seeds), self._cmd)
        for net in self._nets:
            self._cmd.write(net.theta)
        self._cmd.flush()
        return self._receive()

    def _receive(self) -> Iterator:
        """The started batch's blocks, in order, loaded as they are iterated."""
        while not isinstance(block := self._load(), float):  # the end marker: the job's seconds
            yield block
        self._busy = False
        self.busy_s["plan"] = self.busy_s.get("plan", 0.0) + block

    def start_training(self, rows, more: bool) -> None:
        """Start fitting the curiosity net to ``rows``, ``CuriosityModel.sample``'s
        ``(s, a, s_next)``. With ``more``, the job's other rows follow in one
        ``continue_training`` call, and the worker fits these meanwhile."""
        self._busy = True
        self._send(("train", more, *rows))

    def continue_training(self, rows) -> None:
        """Send the rest of the started job's rows, to be fitted after the first."""
        self._send(rows)

    def _send(self, msg) -> None:
        with contextlib.suppress(BrokenPipeError):  # the worker failed: ``finish_training`` says why
            pickle.dump(msg, self._cmd, pickle.HIGHEST_PROTOCOL)
            self._cmd.flush()

    def finish_training(self) -> float:
        """The started training's loss. The curiosity net's weights, RMSProp
        state and step count become the worker's."""
        loss, step_count, seconds = self._load()
        net = self._curiosity.net
        _read_array(self._res, net.theta)
        _read_array(self._res, net.acc)
        net.step_count = step_count
        self._busy = False
        self.busy_s["curiosity"] = self.busy_s.get("curiosity", 0.0) + seconds
        return loss

    def _load(self):
        """The worker's next message; an error it sent is raised here."""
        try:
            msg = pickle.load(self._res)
        except EOFError:
            raise ChildProcessError(f"planning worker {self.pid} ended unexpectedly") from None
        if isinstance(msg, BaseException):
            raise msg
        return msg

    def close(self) -> None:
        """End and reap the worker: at once if it is busy, else by EOF."""
        if self.pid is None:
            return
        if self._busy:
            os.kill(self.pid, signal.SIGKILL)
        for pipe in (self._cmd, self._res):
            with contextlib.suppress(OSError):  # a dead worker's pipe
                pipe.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)
        self.pid = None


def _read_array(pipe, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with its size in bytes from ``pipe``."""
    if out.nbytes and pipe.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise EOFError("pipe closed mid-array")
    return out


def _close_fds_except(*keep: int) -> None:
    """Close every open fd but ``keep``, so this process holds no other pipe open."""
    lo = 0
    for fd in sorted(keep) + [os.sysconf("SC_OPEN_MAX")]:
        if lo < fd:  # os.closerange(n, n) would close every fd from n on
            os.closerange(lo, fd)
        lo = fd + 1


def _serve(cmd, res, nets: list[MlpModel], play, curiosity) -> None:
    """The worker's loop, one job per command: play a batch and send its
    blocks and the end marker, or fit the curiosity net to the sent rows,
    in one part or two, and send its state. An error is sent back and ends
    the loop."""
    while True:
        try:
            kind, *args = pickle.load(cmd)
        except EOFError:
            return
        try:
            if kind == "plan":
                job, seeds = args
                for net in nets:
                    _read_array(cmd, net.theta)
                started = time.perf_counter()
                blocks = list(play(job, seeds))
                for block in blocks + [time.perf_counter() - started]:
                    pickle.dump(block, res, pickle.HIGHEST_PROTOCOL)
            else:
                from concurrent.futures import ThreadPoolExecutor  # imported here: only the worker needs it

                more, *rows = args
                with ThreadPoolExecutor(1) as reader:  # reads the job's other rows while the first fit
                    rest = reader.submit(pickle.load, cmd) if more else None
                    started = time.perf_counter()
                    losses = curiosity.fit(*rows)
                    seconds = time.perf_counter() - started
                    if rest is not None:
                        rows = rest.result()  # waiting for them is not timed
                        started = time.perf_counter()
                        losses += curiosity.fit(*rows)
                        seconds += time.perf_counter() - started
                net = curiosity.net
                pickle.dump((float(np.mean(losses)), net.step_count, seconds), res,
                            pickle.HIGHEST_PROTOCOL)
                res.write(net.theta)
                res.write(net.acc)
        except Exception as exc:
            try:
                payload = pickle.dumps(exc)
            except Exception:  # the error does not pickle
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            res.write(payload)
            res.flush()
            return
        res.flush()
