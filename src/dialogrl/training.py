"""End-to-end training orchestration.

One experiment = warm start with the scripted agent, then per epoch: collect
real dialogs (curiosity-guided when enabled), Q-updates on real experiences,
world-model learning, planning into the simulated buffer, Q-updates on
simulated experiences, curiosity training on both buffers, target sync.
Evaluations run greedily at the four stage boundaries on the stage's own
goal buffer.

The real dialogs of an epoch, and the warm start's scripted ones, advance in
lockstep through one loop: each turn makes one batched Q forward (and, with
curiosity, one batched value pass) over the dialogs still running, while
every dialog steps its own env against the user simulator. The env keeps
its state's stored encoding up to date as it steps, so no state is encoded
in full after a dialog's reset.

With at least two planning rollouts per epoch and two CPUs, a Trainer forks
one worker process at its first planning call, which plays the second half
of every ``plan`` call's rollouts (see ``world.PlanWorker``). For C-DDQ and
SC-DDQ this process then samples the epoch's curiosity minibatches from its
replay buffers and sends them to the worker, which trains the curiosity net
on them while this process runs the ``dqn_sim`` update; the two share no
state. The first UPDATE_CHUNK minibatches go first, so the worker fits them
while this process samples and sends the rest. Run outputs do not depend
on the worker. ``close`` (called at the end of ``run``, on errors, and when
the Trainer is collected) ends it; a pickled Trainer leaves it behind.

An epoch holds OpenBLAS to one thread (``nets.one_blas_thread``), so its
spinning helper thread does not take the worker's CPU; the worker, forked
inside an epoch, keeps one thread.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import time
import weakref
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .agent import UPDATE_CHUNK, DqnAgent, Experience, ReplayBuffer, stack_rows
from .curiosity import CuriosityModel
from .curriculum import (
    ALL,
    LEVELS,
    GoalBuffers,
    build_buffers,
    sample_goal,
    schedule_levels,
    stage_boundaries,
    stage_index,
)
from .domain import (
    DEFAULT_GOAL_COUNTS,
    ActionRoster,
    KnowledgeBase,
    UserGoal,
    default_roster,
    generate_goal_set,
    generate_kb,
    load_goals,
    load_kb,
)
from .env import DialogEnv, RewardConfig, RuleAgent, encode_state
from .errors import ConfigError, make_dir, read_json
from .nets import one_blas_thread
from .seeding import spawn_rng
from .world import PlanWorker, WorldModel, can_plan_in_parallel, plan, play_round

log = logging.getLogger(__name__)

# method name -> (uses planning/world model, uses curiosity)
METHODS = {
    "DQN": (False, False),
    "DDQ": (True, False),
    "C-DDQ": (True, True),
    "S-DDQ": (True, False),
    "SC-DDQ": (True, True),
}
SCHEDULED_METHODS = ("S-DDQ", "SC-DDQ")
UNSCHEDULED_METHODS = ("DQN", "DDQ", "C-DDQ")

# RunConfig field annotation -> JSON value types it accepts. A bool passes only
# where bool is listed (Python counts it as an int), and floats must be finite.
_JSON_TYPES = {
    "str": (str,),
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "bool": (bool,),
    "dict": (dict,),
}


@dataclass
class RunConfig:
    method: str = "DDQ"
    schedule: str = "RANDOM"
    seed: int = 0
    epochs: int = 300
    real_dialogs_per_epoch: int = 30
    planning_rounds: int = 5
    planning_dialogs_per_round: int | None = None
    warm_start_dialogs: int = 100
    warm_start_updates: int = 50
    epsilon: float = 0.05
    eval_epsilon: float = 0.0
    eval_with_curiosity: bool = False
    learning_rate: float = 0.001
    buffer_capacity: int = 5000
    max_turns: int = 40
    eval_episodes: int = 50
    kb_path: str = ""
    goals_path: str = ""
    out_dir: str = "runs"
    kb_size: int = 991
    goal_counts: dict = field(default_factory=lambda: dict(DEFAULT_GOAL_COUNTS))
    data_seed: int = 7
    custom_schedules: dict = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        return f"{self.method}_{self.schedule}_{self.seed}"

    def validate(self) -> "RunConfig":
        if self.method not in METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}; pick one of {sorted(METHODS)}")
        schedule_levels(self.schedule, self.custom_schedules)  # raises on unknown names
        if self.method in SCHEDULED_METHODS and self.schedule == "RANDOM":
            raise ConfigError(f"schedule: {self.method} requires a named non-RANDOM schedule")
        if self.method in UNSCHEDULED_METHODS and self.schedule != "RANDOM":
            raise ConfigError(f"schedule: {self.method} ignores schedules; use RANDOM")
        for name in ("epochs", "real_dialogs_per_epoch", "warm_start_dialogs",
                     "buffer_capacity", "max_turns", "eval_episodes"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.epochs < 4:
            raise ConfigError("epochs: need at least 4 for the four stages")
        for name in ("planning_rounds", "warm_start_updates"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        if any(int(n) < 0 for n in self.goal_counts.values()):
            raise ConfigError(f"goal_counts: every count must be >= 0, got {self.goal_counts}")
        if self.planning_dialogs_per_round is not None and self.planning_dialogs_per_round < 1:
            raise ConfigError("planning_dialogs_per_round: must be >= 1, or null for "
                              "real_dialogs_per_epoch")
        for name in ("epsilon", "eval_epsilon"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name}: must be in [0, 1]")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate: must be positive")
        return self

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["goal_counts"] = {str(k): v for k, v in self.goal_counts.items()}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config: expected a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        for name, value in obj.items():
            kind = cls.__dataclass_fields__[name].type
            allowed = _JSON_TYPES[kind]
            if (not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed)
                    or (isinstance(value, float) and not math.isfinite(value))):
                raise ConfigError(f"{name}: expected {kind}, got {value!r}")
        data = dict(obj)
        if "goal_counts" in data:
            counts = {}
            for k, v in data["goal_counts"].items():
                if not isinstance(v, int) or isinstance(v, bool) or not str(k).isdecimal():
                    raise ConfigError(f"goal_counts: expected request-slot count -> goal count "
                                      f"integers, got {k!r}: {v!r}")
                counts[int(k)] = v
            data["goal_counts"] = counts
        for name, levels in data.get("custom_schedules", {}).items():
            if not isinstance(levels, list) or len(levels) != 4 or any(lv not in LEVELS for lv in levels):
                raise ConfigError(f"custom_schedules: {name!r} must list 4 levels from {LEVELS}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_json(read_json(path, ConfigError, "config"))

    @property
    def uses_planning(self) -> bool:
        return METHODS[self.method][0]

    @property
    def uses_curiosity(self) -> bool:
        return METHODS[self.method][1]


@dataclass
class EpochReport:
    epoch: int
    stage: int
    level: str
    train_success: float
    mean_reward: float
    action_counts: np.ndarray
    dqn_loss: float | None
    world_loss: float | None
    curiosity_loss: float | None
    real_buffer_size: int
    sim_buffer_size: int


@dataclass
class EvalReport:
    checkpoint_epoch: int
    success_rate: float
    avg_turns: float
    level: str
    n_episodes: int


def evaluate_policy(select_action, kb: KnowledgeBase, roster: ActionRoster,
                    goals: list[UserGoal], n_episodes: int, rng: np.random.Generator,
                    rewards: RewardConfig, checkpoint_epoch: int = 0,
                    level: str = ALL) -> EvalReport:
    """Run n greedy episodes; reports success rate and mean speaker turns.

    ``select_action(state_vector, rng) -> action index``. Turns count both
    sides of the conversation (two per agent action).
    """
    env = DialogEnv(kb, roster, rewards, rng=rng)
    wins = 0
    turns = []
    for _ in range(n_episodes):
        goal = goals[int(rng.integers(len(goals)))]
        state, _ = env.reset(goal)
        agent_turns = 0
        while not env.done:
            a = select_action(encode_state(state), rng)
            env.step(a)
            agent_turns += 1
        wins += 1 if env.success else 0
        turns.append(2 * agent_turns)
    return EvalReport(
        checkpoint_epoch=checkpoint_epoch,
        success_rate=wins / n_episodes,
        avg_turns=float(np.mean(turns)),
        level=level,
        n_episodes=n_episodes,
    )


class Trainer:
    """Owns every mutable piece of one experiment; fully seeded."""

    def __init__(self, config: RunConfig, kb: KnowledgeBase, goals: list[UserGoal],
                 roster: ActionRoster | None = None):
        config.validate()
        self.config = config
        self.kb = kb
        self.roster = roster if roster is not None else default_roster()
        self.buffers: GoalBuffers = build_buffers(goals)
        self._levels = schedule_levels(config.schedule, config.custom_schedules)
        self._check_buffers()
        self.rewards = RewardConfig(max_turns=config.max_turns)

        seed = config.seed
        self.rngs = {
            name: spawn_rng(seed, name)
            for name in ("warm", "warm-train", "goals", "env", "explore",
                         "dqn-real", "dqn-sim", "world", "plan", "curiosity")
        }
        self.agent = DqnAgent(
            state_dim=129,
            n_actions=self.roster.n_agent_actions,
            gamma=0.9,
            epsilon=config.epsilon,
            learning_rate=config.learning_rate,
            seed=spawn_rng(seed, "qnet").integers(1 << 31),
        )
        self.world_model = (
            WorldModel(n_agent_actions=self.roster.n_agent_actions,
                       n_user_actions=self.roster.n_user_actions,
                       learning_rate=config.learning_rate,
                       seed=spawn_rng(seed, "world-net").integers(1 << 31))
            if config.uses_planning else None
        )
        self.curiosity = (
            CuriosityModel(n_agent_actions=self.roster.n_agent_actions,
                           learning_rate=config.learning_rate,
                           seed=spawn_rng(seed, "curiosity-net").integers(1 << 31))
            if config.uses_curiosity else None
        )
        self.real_buffer = ReplayBuffer(config.buffer_capacity, kind="real")
        self.sim_buffer = ReplayBuffer(config.buffer_capacity, kind="simulated")
        self.rule_agent = RuleAgent(self.roster)

        self.stage_action_counts = {k: np.zeros(self.roster.n_agent_actions, dtype=np.int64)
                                    for k in (1, 2, 3, 4)}
        self.epoch_ops: list[list[str]] = []  # per-epoch call order, for auditing
        self.epoch_times: list[dict[str, float]] = []  # per-epoch wall seconds (``run_epoch``)
        self.epoch_reports: list[EpochReport] = []
        self.eval_reports: list[EvalReport] = []
        self._warm_started = False
        self._worker: PlanWorker | None = None  # plays half of each epoch's planning

    def __getstate__(self):
        return {**self.__dict__, "_worker": None}

    def level_for_epoch(self, epoch: int) -> str:
        return self._levels[stage_index(epoch, self.config.epochs) - 1]

    def _check_buffers(self):
        cfg = self.config
        needed = sorted({self.level_for_epoch(e) for e in range(cfg.epochs)})
        for level in needed:
            if not self.buffers.for_level(level):
                raise ConfigError(f"goals_path: schedule {cfg.schedule} needs {level} goals "
                                  f"but the goal set has none")

    # ---- real dialogs and warm start ------------------------------------------

    def _play_real_dialogs(self, n_dialogs: int, level: str, goal_rng, env_rng, choose):
        """Play ``n_dialogs`` dialogs in lockstep into the real buffer.

        Each dialog samples its goal and resets its own env first, in dialog
        order. Then every turn ``choose(envs, states)`` picks the actions of
        the live dialogs from their encoded states (one row each), and each
        live env takes its step. The transitions are appended once the last
        dialog has ended, one dialog after another, so each dialog's
        transitions stay contiguous. Each state is stored as an array of its
        own, the env's ``encoding``, which each step makes anew from the last
        one rather than encoding the state in full: a step's next state
        is the very array the next step stores as its state, and
        ``states`` is a stacked float32 copy (stored rows that were views of
        a per-turn batch kept peak RSS about 1.5 % higher in complete
        300-epoch DQN runs).
        Returns the envs and each dialog's transitions, in dialog order.
        """
        envs = []
        for _ in range(n_dialogs):
            env = DialogEnv(self.kb, self.roster, self.rewards, rng=env_rng)
            env.reset(sample_goal(self.buffers, level, goal_rng))
            envs.append(env)
        dialogs: list[list[Experience]] = [[] for _ in envs]
        live = list(range(n_dialogs))
        rows = [env.encoding for env in envs]  # each live dialog's current state
        while live:
            actions = choose([envs[i] for i in live], stack_rows(rows))
            next_live, next_rows = [], []
            for a, i, s in zip(actions, live, rows):
                a = int(a)
                outcome = envs[i].step(a)
                s_next = envs[i].encoding
                dialogs[i].append(Experience(s, a, outcome.reward,
                                             self.roster.user_index(outcome.user_act),
                                             s_next, outcome.done))
                if not outcome.done:
                    next_live.append(i)
                    next_rows.append(s_next)
            live, rows = next_live, next_rows
        for dialog in dialogs:
            for exp in dialog:
                self.real_buffer.append(exp)
        return envs, dialogs

    def warm_start(self) -> int:
        """Scripted dialogs into the real buffer, then Q-net pretraining."""
        cfg = self.config
        warm = self.rngs["warm"]
        _, dialogs = self._play_real_dialogs(
            cfg.warm_start_dialogs, self.level_for_epoch(0), warm, warm,
            lambda envs, s: [self.rule_agent.act(env.state) for env in envs])
        for _ in range(cfg.warm_start_updates):
            self.agent.update(self.real_buffer, n_batches=1, rng=self.rngs["warm-train"])
        self.agent.sync_target()
        self._warm_started = True
        return sum(len(d) for d in dialogs)

    # ---- one epoch ----------------------------------------------------------

    def _select(self, envs, s) -> np.ndarray:
        bonus = self.curiosity.values(s) if self.curiosity is not None else None
        return self.agent.select_actions(s, [self.rngs["explore"]] * len(envs), bonus)

    @one_blas_thread()
    def run_epoch(self, epoch: int) -> EpochReport:
        """One epoch of the method. Appends its op names, in call order, to
        ``epoch_ops``, and to ``epoch_times`` the wall seconds of each op,
        of the whole epoch (``total``) and, when the planning worker trains
        the curiosity net, of the part of ``curiosity`` spent waiting for it
        (``curiosity_wait``). With a planning worker, ``worker_plan`` and
        ``worker_curiosity`` are the seconds the worker itself spent on the
        epoch's jobs (``PlanWorker.busy_s``)."""
        if not self._warm_started:
            raise ConfigError("run_epoch called before warm_start")
        started = time.perf_counter()
        cfg = self.config
        ops, times = [], {}

        def op(name):  # a listed op: its name in call order, its time in ``times``
            ops.append(name)
            return _timed(times, name)

        level = self.level_for_epoch(epoch)
        stage = stage_index(epoch, cfg.epochs)

        with op("collect"):
            envs, dialogs = self._play_real_dialogs(cfg.real_dialogs_per_epoch, level, self.rngs["goals"],
                                                    self.rngs["env"], self._select)
        actions = [e.a for dialog in dialogs for e in dialog]
        counts = np.bincount(actions, minlength=self.roster.n_agent_actions)
        new_real = len(actions)
        wins = sum(1 for env in envs if env.success)
        episode_rewards = [sum(e.r for e in dialog) for dialog in dialogs]

        n_batches = max(1, math.ceil(new_real / 16))
        with op("dqn_real"):
            dqn_loss = self.agent.update(self.real_buffer, n_batches, self.rngs["dqn-real"])

        world_loss = None
        new_sim = 0
        curiosity_loss = None
        try:
            if self.world_model is not None:
                with op("world"):
                    world_loss = self.world_model.train(self.real_buffer, n_batches, self.rngs["world"])
                with op("plan"):
                    dialogs = (cfg.real_dialogs_per_epoch if cfg.planning_dialogs_per_round is None
                               else cfg.planning_dialogs_per_round)
                    new_sim = plan(partial(self._play_round, level), cfg.planning_rounds, dialogs,
                                   self.sim_buffer, self.rngs["plan"],
                                   worker=self._plan_worker(level, cfg.planning_rounds * dialogs))
            if self.curiosity is not None:
                with _timed(times, "curiosity"):  # starting it counts toward the op
                    finish_curiosity = self._train_curiosity(max(1, math.ceil((new_real + new_sim) / 16)),
                                                             times)
            if new_sim:
                with op("dqn_sim"):
                    sim_batches = max(1, math.ceil(new_sim / 16))
                    self.agent.update(self.sim_buffer, sim_batches, self.rngs["dqn-sim"])
            if self.curiosity is not None:
                with op("curiosity"):
                    curiosity_loss = finish_curiosity()
        except BaseException:
            self.close()  # the worker may be mid-job: kill it
            raise
        if self.curiosity is not None and log.isEnabledFor(logging.DEBUG):
            mean_c = float(np.mean(self.curiosity.values(encode_state(envs[-1].state))))
            log.debug("epoch %d: mean curiosity %.4f", epoch, mean_c)

        with op("sync"):
            self.agent.sync_target()

        self.stage_action_counts[stage] += counts
        self.epoch_ops.append(ops)
        if self._worker is not None:
            times.update((f"worker_{job}", s) for job, s in self._worker.busy_s.items())
            self._worker.busy_s.clear()
        times["total"] = time.perf_counter() - started
        self.epoch_times.append(times)
        report = EpochReport(
            epoch=epoch,
            stage=stage,
            level=level,
            train_success=wins / cfg.real_dialogs_per_epoch,
            mean_reward=float(np.mean(episode_rewards)),
            action_counts=counts,
            dqn_loss=dqn_loss,
            world_loss=world_loss,
            curiosity_loss=curiosity_loss,
            real_buffer_size=len(self.real_buffer),
            sim_buffer_size=len(self.sim_buffer),
        )
        self.epoch_reports.append(report)
        return report

    # ---- planning on a second process -------------------------------------------

    def _plan_worker(self, level: str, rollouts: int):
        """``plan``'s worker for this epoch, or None to plan in-process.

        The worker is forked at the first call with at least two rollouts,
        when this process may run on two CPUs, and kept until ``close``.
        """
        if rollouts < 2:
            return None
        if self._worker is None:
            if not can_plan_in_parallel():
                return None
            nets = [self.agent.q_net, self.world_model.net]
            if self.curiosity is not None:
                nets.append(self.curiosity.net)
            self._worker = PlanWorker(nets, self._play_round, self.curiosity)
            weakref.finalize(self, self._worker.close)
        return partial(self._worker.start, level)

    def _train_curiosity(self, n_batches: int, times: dict[str, float]):
        """Start the epoch's curiosity training; returns a callable that
        finishes it and returns its loss.

        If there is a planning worker, this process samples the minibatches
        now and the worker fits the net to them while this process goes on:
        the first UPDATE_CHUNK go out alone, so the worker fits them while
        this process samples the rest (two ``sample`` calls make the same
        rng draws as one). The callable adds the time it waits for the
        worker to ``times["curiosity_wait"]``. Otherwise both run here,
        when the callable is called.
        """
        buffers, rng = (self.real_buffer, self.sim_buffer), self.rngs["curiosity"]
        if self._worker is None:
            return partial(self.curiosity.train, *buffers, n_batches, rng)
        first = min(n_batches, UPDATE_CHUNK)  # warm_start filled real_buffer, so sample gives rows
        self._worker.start_training(self.curiosity.sample(*buffers, first, rng), first < n_batches)
        if first < n_batches:
            self._worker.continue_training(self.curiosity.sample(*buffers, n_batches - first, rng))

        def finish():
            with _timed(times, "curiosity_wait"):
                return self._worker.finish_training()

        return finish

    def _play_round(self, level: str, seeds):
        return play_round(self.agent, self.curiosity, self.world_model,
                          lambda rng: sample_goal(self.buffers, level, rng), seeds,
                          self.kb, self.roster, self.rewards)

    def close(self) -> None:
        """End and reap the planning worker, if one runs."""
        if self._worker is not None:
            self._worker.close()
            self._worker = None

    # ---- evaluation -------------------------------------------------------------

    def evaluate(self, checkpoint_epoch: int, stage: int) -> EvalReport:
        """Greedy evaluation on the just-finished stage's goal buffer."""
        cfg = self.config
        level = self._levels[stage - 1]
        goals = self.buffers.for_level(level)
        rng = spawn_rng(cfg.seed, "eval", checkpoint_epoch)
        if cfg.eval_with_curiosity and self.curiosity is not None:
            select = lambda s, r: self.agent.select_action(
                s, r, bonus=self.curiosity.values(s)[0], epsilon=cfg.eval_epsilon)
        else:
            select = lambda s, r: self.agent.select_action(s, r, epsilon=cfg.eval_epsilon)
        report = evaluate_policy(select, self.kb, self.roster, goals, cfg.eval_episodes,
                                 rng, self.rewards, checkpoint_epoch, level)
        self.eval_reports.append(report)
        return report

    # ---- full run -----------------------------------------------------------------

    def run(self, on_checkpoint=None):
        cfg = self.config
        self.warm_start()
        b1, b2, b3 = stage_boundaries(cfg.epochs)
        ends = {b1: 1, b2: 2, b3: 3, cfg.epochs: 4}
        try:
            for epoch in range(cfg.epochs):
                self.run_epoch(epoch)
                if epoch + 1 in ends:
                    stage = ends[epoch + 1]
                    report = self.evaluate(epoch + 1, stage)
                    log.info("%s: eval after epoch %d (%s): success=%.2f turns=%.1f",
                             cfg.run_id, epoch + 1, report.level, report.success_rate,
                             report.avg_turns)
                    if on_checkpoint is not None:
                        on_checkpoint(epoch + 1, self)
        finally:
            self.close()
        return self.epoch_reports, self.eval_reports


@contextlib.contextmanager
def _timed(times: dict[str, float], name: str):
    """Add the block's wall seconds to ``times[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        times[name] = times.get(name, 0.0) + time.perf_counter() - start


# ---- run directory output ------------------------------------------------------


def _fmt(x, digits):
    return "" if x is None else f"{x:.{digits}f}"


def write_metrics_csv(path, run_id, config: RunConfig, reports: list[EpochReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "method", "schedule", "seed", "epoch", "stage",
                    "train_success", "mean_reward", "dqn_loss", "world_loss", "curiosity_loss"])
        for r in reports:
            w.writerow([run_id, config.method, config.schedule, config.seed, r.epoch, r.stage,
                        _fmt(r.train_success, 4), _fmt(r.mean_reward, 4),
                        _fmt(r.dqn_loss, 6), _fmt(r.world_loss, 6), _fmt(r.curiosity_loss, 6)])


def write_eval_csv(path, run_id, reports: list[EvalReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "checkpoint_epoch", "success_rate", "avg_turns"])
        for r in reports:
            w.writerow([run_id, r.checkpoint_epoch, _fmt(r.success_rate, 4), _fmt(r.avg_turns, 2)])


def write_timings_jsonl(path, epoch_times: list[dict[str, float]]) -> None:
    """One JSON object per epoch: its index and ``Trainer.epoch_times``' seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        for epoch, times in enumerate(epoch_times):
            fh.write(json.dumps({"epoch": epoch, **{k: round(v, 6) for k, v in times.items()}}) + "\n")


def write_actions_csv(path, run_id, stage_counts: dict[int, np.ndarray]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "stage", "action_index", "count"])
        for stage in sorted(stage_counts):
            for idx, count in enumerate(stage_counts[stage]):
                w.writerow([run_id, stage, idx, int(count)])


def load_run_data(config: RunConfig):
    """KB and goals from the configured paths, or generated on the fly."""
    if config.kb_path:
        kb = load_kb(config.kb_path)
    else:
        kb = generate_kb(seed=config.data_seed, n_movies=config.kb_size)
    if config.goals_path:
        goals = load_goals(config.goals_path)
    else:
        goals = generate_goal_set(kb, config.goal_counts, seed=config.data_seed)
    return kb, goals


def run_experiment(config: RunConfig, kb: KnowledgeBase | None = None,
                   goals: list[UserGoal] | None = None, run_id: str | None = None) -> Path:
    """Run one configuration end to end and write its run directory.

    ``run_id`` (default ``config.run_id``) names the directory and fills the
    run_id column; the echoed config.json is always the exact config used.
    Wall-clock timings go beside the run directory, to
    ``<run_id>.timings.jsonl``, so that a seed's run directory keeps its bytes.
    """
    config.validate()
    run_id = config.run_id if run_id is None else run_id
    if kb is None or goals is None:
        kb, goals = load_run_data(config)
    run_dir = make_dir(Path(config.out_dir) / run_id, ConfigError, "out_dir")

    trainer = Trainer(config, kb, goals)
    epoch_reports, eval_reports = trainer.run(
        on_checkpoint=lambda epoch, tr: tr.agent.save(run_dir / f"checkpoint_ep{epoch}.json")
    )

    (run_dir / "config.json").write_text(json.dumps(config.to_json(), indent=1) + "\n",
                                         encoding="utf-8")
    write_metrics_csv(run_dir / "metrics.csv", run_id, config, epoch_reports)
    write_eval_csv(run_dir / "eval.csv", run_id, eval_reports)
    write_actions_csv(run_dir / "actions.csv", run_id, trainer.stage_action_counts)
    write_timings_jsonl(run_dir.parent / f"{run_id}.timings.jsonl", trainer.epoch_times)
    return run_dir
