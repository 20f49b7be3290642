import inspect
import json

import numpy as np
import pytest

from dialogrl.agent import DqnAgent
from dialogrl.curriculum import build_buffers
from dialogrl.domain import default_roster
from dialogrl.env import RewardConfig, RuleAgent, encode_state, stored_states
from dialogrl.errors import ConfigError
from dialogrl.seeding import spawn_rng
from dialogrl.training import (
    EvalReport,
    RunConfig,
    Trainer,
    evaluate_policy,
    load_run_data,
    run_experiment,
)


def tiny_config(**overrides):
    base = dict(
        method="SC-DDQ",
        schedule="EMD",
        seed=5,
        epochs=8,
        real_dialogs_per_epoch=4,
        planning_rounds=1,
        planning_dialogs_per_round=3,
        warm_start_dialogs=8,
        warm_start_updates=10,
        kb_size=80,
        goal_counts={1: 10, 2: 5, 4: 5},
        out_dir="unused",
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def data():
    cfg = tiny_config()
    return load_run_data(cfg)


def test_config_gating_rules():
    with pytest.raises(ConfigError, match="schedule"):
        RunConfig(method="SC-DDQ", schedule="RANDOM").validate()
    with pytest.raises(ConfigError, match="schedule"):
        RunConfig(method="DQN", schedule="EMD").validate()
    with pytest.raises(ConfigError, match="method"):
        RunConfig(method="PPO").validate()
    RunConfig(method="DDQ", schedule="RANDOM").validate()
    RunConfig(method="S-DDQ", schedule="DME").validate()


@pytest.mark.parametrize("field, value", [
    ("planning_dialogs_per_round", 0),
    ("planning_dialogs_per_round", -1),
    ("eval_epsilon", -0.1),
    ("eval_epsilon", 1.5),
    ("warm_start_updates", -3),
])
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: value}).validate()


def test_config_accepts_range_edges():
    for overrides in ({"planning_dialogs_per_round": None}, {"planning_dialogs_per_round": 1},
                      {"eval_epsilon": 0.0}, {"eval_epsilon": 1.0}, {"warm_start_updates": 0}):
        tiny_config(**overrides).validate()


@pytest.mark.parametrize("per_round, expected", [(None, 4), (1, 1)])
def test_planning_dialogs_default_to_real_dialogs(data, monkeypatch, per_round, expected):
    import dialogrl.training as training

    seen = []
    real_plan = training.plan

    def spy(*args, **kwargs):
        seen.append(inspect.signature(real_plan).bind(*args, **kwargs).arguments["dialogs_per_round"])
        return real_plan(*args, **kwargs)

    monkeypatch.setattr(training, "plan", spy)
    tr = Trainer(tiny_config(planning_dialogs_per_round=per_round), *data)
    tr.warm_start()
    tr.run_epoch(0)
    assert seen == [expected]


@pytest.mark.parametrize("debug", [False, True])
def test_curiosity_debug_line_costs_nothing_when_off(data, monkeypatch, caplog, debug):
    import logging

    import dialogrl.training as training
    from dialogrl.curiosity import CuriosityModel

    calls = []
    real_values = CuriosityModel.values
    monkeypatch.setattr(CuriosityModel, "values",
                        lambda self, s: calls.append(len(np.atleast_2d(s))) or real_values(self, s))
    monkeypatch.setattr(training, "plan", lambda *args, **kwargs: 0)
    caplog.set_level(logging.DEBUG if debug else logging.INFO, logger="dialogrl.training")
    tr = Trainer(tiny_config(), *data)
    tr.warm_start()
    rep = tr.run_epoch(0)
    # one bonus row per real step, plus the debug line's row only when it is logged
    assert sum(calls) == int(rep.action_counts.sum()) + int(debug)
    assert ("mean curiosity" in caplog.text) == debug


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    loaded = RunConfig.load(path)
    assert loaded == cfg


def test_config_unknown_field_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        RunConfig.from_json({"method": "DDQ", "mystery": 1})


def test_config_from_json_accepts_int_floats_and_null_planning():
    cfg = RunConfig.from_json({"epsilon": 0, "learning_rate": 1, "planning_dialogs_per_round": None,
                               "goal_counts": {"1": 3, "4": 0},
                               "custom_schedules": {"EEA": ["easy", "easy", "all", "all"]}})
    assert (cfg.epsilon, cfg.learning_rate, cfg.planning_dialogs_per_round) == (0, 1, None)
    assert cfg.goal_counts == {1: 3, 4: 0}
    cfg.validate()


def test_config_rejects_negative_goal_counts():
    with pytest.raises(ConfigError, match="goal_counts: every count must be >= 0"):
        RunConfig.from_json({"goal_counts": {"1": 3, "4": -1}}).validate()
    with pytest.raises(ConfigError, match="goal_counts"):
        RunConfig(goal_counts={2: -5}).validate()


def test_warm_start_bounds_and_determinism(data):
    kb, goals = data
    snapshots = []
    for _ in range(2):
        tr = Trainer(tiny_config(), kb, goals)
        stored = tr.warm_start()
        assert 0 < stored <= tiny_config().warm_start_dialogs * 40
        assert len(tr.real_buffer) == stored
        snapshots.append([(e.a, e.r, e.done) for e in tr.real_buffer])
    assert snapshots[0] == snapshots[1]


def test_real_dialog_encodes_each_state_once(data, monkeypatch):
    # A step's next state is the very array the next step stores as its
    # state, every stored state is the tracker's encoding at that turn, and
    # each dialog's state is encoded in full once, at its reset: its
    # env updates the encoding in place from then on.
    import dialogrl.env as env_module

    kb, goals = data
    tr = Trainer(tiny_config(method="DQN", schedule="RANDOM"), kb, goals)
    real_encode = env_module.encode_state
    encodings = []
    monkeypatch.setattr(env_module, "encode_state",
                        lambda state: encodings.append(1) or real_encode(state))
    seen = {}

    def choose(envs, s):
        assert s.shape == (len(envs), 129)
        picks = []
        for env, row in zip(envs, s):
            assert np.array_equal(row, real_encode(env.state))
            seen.setdefault(id(env), []).append(row.copy())
            n = sum(len(rows) for rows in seen.values())
            picks.append(tr.rule_agent.act(env.state) if n % 3 else int(tr.rngs["explore"].integers(29)))
        return picks

    envs, dialogs = tr._play_real_dialogs(6, "all", tr.rngs["goals"], tr.rngs["env"], choose)
    n_steps = sum(len(steps) for steps in dialogs)
    assert len(tr.real_buffer) == n_steps and len(encodings) == len(envs)
    start = 0
    for env, steps in zip(envs, dialogs):
        assert all(tr.real_buffer[start + k] is e for k, e in enumerate(steps))
        assert steps[-1].done and all(not e.done for e in steps[:-1])
        for prev, nxt in zip(steps, steps[1:]):
            assert prev.s_next is nxt.s
        assert np.array_equal(steps[-1].s_next, real_encode(env.state))
        assert len(seen[id(env)]) == len(steps)
        assert all(np.array_equal(e.s, row) for e, row in zip(steps, seen[id(env)]))
        start += len(steps)


def _transitions(buf):
    return [(e.s.tobytes(), e.a, e.r, e.a_user, e.s_next.tobytes(), e.done) for e in buf]


@pytest.mark.parametrize("method, schedule, capacity", [("SC-DDQ", "EMD", 5000), ("DDQ", "RANDOM", 40)])
def test_warm_start_matches_sequential_reference(data, method, schedule, capacity):
    # Lockstep warm start stores what playing one dialog at a time stores,
    # FIFO evictions included, and pretrains the Q-net to the same bits.
    from dialogrl.agent import Experience
    from dialogrl.curriculum import sample_goal
    from dialogrl.env import DialogEnv

    kb, goals = data
    cfg = tiny_config(method=method, schedule=schedule, warm_start_dialogs=12,
                      buffer_capacity=capacity)
    tr = Trainer(cfg, kb, goals)
    stored = tr.warm_start()

    ref = Trainer(cfg, kb, goals)
    warm = ref.rngs["warm"]
    env = DialogEnv(kb, ref.roster, ref.rewards, rng=warm)
    total = 0
    for _ in range(cfg.warm_start_dialogs):
        state, _ = env.reset(sample_goal(ref.buffers, ref.level_for_epoch(0), warm))
        while not env.done:
            s, a = stored_states(encode_state(state)), ref.rule_agent.act(state)
            out = env.step(a)
            ref.real_buffer.append(Experience(s, a, out.reward, ref.roster.user_index(out.user_act),
                                              stored_states(encode_state(state)), out.done))
            total += 1
    for _ in range(cfg.warm_start_updates):
        ref.agent.update(ref.real_buffer, n_batches=1, rng=ref.rngs["warm-train"])
    ref.agent.sync_target()

    assert stored == total and len(tr.real_buffer) == min(total, capacity)
    assert _transitions(tr.real_buffer) == _transitions(ref.real_buffer)
    assert tr.agent.q_net.theta.tobytes() == ref.agent.q_net.theta.tobytes()
    assert tr.agent.target_net.theta.tobytes() == ref.agent.target_net.theta.tobytes()
    if capacity < 5000:
        assert total > capacity  # evictions happened


def test_real_dialogs_contiguous_in_dialog_order(data):
    # run_epoch's dialogs draw their goals in dialog order, and each one's
    # transitions sit together in the buffer, in that same order.
    from dialogrl.curriculum import sample_goal

    kb, goals = data
    cfg = tiny_config(method="C-DDQ", schedule="RANDOM", real_dialogs_per_epoch=6, epsilon=0.5)
    tr = Trainer(cfg, kb, goals)
    tr.warm_start()
    played = []
    real_play = tr._play_real_dialogs
    tr._play_real_dialogs = lambda *args: played.append(real_play(*args)) or played[-1]
    rep = tr.run_epoch(0)
    (envs, dialogs), = played
    buffers, goal_rng = build_buffers(goals), spawn_rng(cfg.seed, "goals")
    assert all(env.goal is sample_goal(buffers, rep.level, goal_rng) for env in envs)
    assert len({len(steps) for steps in dialogs}) > 1  # dialogs end on different turns
    n = sum(len(steps) for steps in dialogs)
    newest = [tr.real_buffer[i] for i in range(len(tr.real_buffer) - n, len(tr.real_buffer))]
    assert all(a is b for a, b in zip(newest, (e for steps in dialogs for e in steps)))
    for env, steps in zip(envs, dialogs):
        assert [e.done for e in steps] == [False] * (len(steps) - 1) + [True]
        assert np.array_equal(steps[-1].s_next, encode_state(env.state))


@pytest.mark.parametrize("method, schedule", [("DQN", "RANDOM"), ("SC-DDQ", "EMD")])
def test_run_epoch_deterministic_across_trainers(data, method, schedule):
    runs = []
    for _ in range(2):
        tr = Trainer(tiny_config(method=method, schedule=schedule), *data)
        tr.warm_start()
        reports = [tr.run_epoch(e) for e in range(3)]
        runs.append(([(r.train_success, r.mean_reward, r.action_counts.tolist(), r.dqn_loss,
                       r.world_loss, r.curiosity_loss, r.sim_buffer_size) for r in reports],
                     _transitions(tr.real_buffer), _transitions(tr.sim_buffer),
                     tr.agent.q_net.theta.tobytes()))
    assert runs[0] == runs[1]


def test_epoch_report_matches_newest_transitions(data):
    # Action counts, wins and mean reward recomputed from the epoch's own
    # transitions; the last epoch books with the scripted agent on easy
    # goals, so its wins are certain.
    kb, goals = data
    cfg = tiny_config(real_dialogs_per_epoch=6, epsilon=0.5)
    tr = Trainer(cfg, kb, goals)
    tr.warm_start()
    for epoch in range(3):
        if epoch == 2:
            tr._select = lambda envs, s: [tr.rule_agent.act(env.state) for env in envs]
        rep = tr.run_epoch(epoch)
        n = int(rep.action_counts.sum())
        newest = [tr.real_buffer[i] for i in range(len(tr.real_buffer) - n, len(tr.real_buffer))]
        assert np.array_equal(rep.action_counts, np.bincount([e.a for e in newest], minlength=29))
        ends = [i for i, e in enumerate(newest) if e.done]
        assert len(ends) == cfg.real_dialogs_per_epoch and ends[-1] == n - 1
        starts = [0] + [i + 1 for i in ends[:-1]]
        totals = [sum(e.r for e in newest[a: b + 1]) for a, b in zip(starts, ends)]
        assert rep.mean_reward == float(np.mean(totals))
        wins = sum(newest[b].r == 2 * cfg.max_turns - 1 for b in ends)
        assert rep.train_success == wins / cfg.real_dialogs_per_epoch
    assert rep.train_success == 1.0


def test_warm_start_on_easy_buffer_succeeds(data):
    kb, goals = data
    # EMD starts on easy goals where the scripted agent always succeeds,
    # so every warm episode ends with the success bonus.
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    terminal_rewards = [e.r for e in tr.real_buffer if e.done]
    assert terminal_rewards and all(r == 79.0 for r in terminal_rewards)


def test_epoch_op_order_follows_algorithm(data):
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    tr.run_epoch(0)
    ops = tr.epoch_ops[0]
    # direct RL on real data, then world model, then planning, then Q on
    # simulated data, then curiosity, then the target sync
    assert ops == ["collect", "dqn_real", "world", "plan", "dqn_sim", "curiosity", "sync"]


def test_method_gating_disables_components(data):
    kb, goals = data
    tr = Trainer(tiny_config(method="DQN", schedule="RANDOM"), kb, goals)
    assert tr.world_model is None and tr.curiosity is None
    tr.warm_start()
    rep = tr.run_epoch(0)
    assert tr.epoch_ops[0] == ["collect", "dqn_real", "sync"]
    assert rep.world_loss is None and rep.curiosity_loss is None
    assert rep.sim_buffer_size == 0

    tr2 = Trainer(tiny_config(method="S-DDQ", schedule="EMD"), kb, goals)
    assert tr2.world_model is not None and tr2.curiosity is None


def test_sim_buffer_growth_bounded(data):
    kb, goals = data
    cfg = tiny_config(method="DDQ", schedule="RANDOM", planning_rounds=2,
                      planning_dialogs_per_round=3)
    tr = Trainer(cfg, kb, goals)
    tr.warm_start()
    rep = tr.run_epoch(0)
    assert 0 < rep.sim_buffer_size <= 2 * 3 * cfg.max_turns


def test_action_counts_accounting(data):
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    rep = tr.run_epoch(0)
    # every real agent turn of the epoch lands in exactly one bucket
    transcript_turns = int(rep.action_counts.sum())
    assert transcript_turns > 0
    assert tr.stage_action_counts[1].sum() == transcript_turns


def test_buffer_segregation(data):
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    tr.run_epoch(0)
    assert tr.real_buffer.kind == "real"
    assert tr.sim_buffer.kind == "simulated"
    # simulated rewards come from the world model head: continuous values,
    # while real rewards live on the exact -1/+79/-41 lattice
    real_rewards = {e.r for e in tr.real_buffer}
    assert all(r in (-1.0, 79.0, -41.0) for r in real_rewards)


def test_evaluate_rule_agent_on_easy(data):
    kb, goals = data
    buffers = build_buffers(goals)
    roster = default_roster()
    rule = RuleAgent(roster)
    # the scripted policy acts on the tracker state, so drive the env directly:
    # success rate must be 1.0 across the whole easy buffer
    from dialogrl.env import DialogEnv

    env = DialogEnv(kb, roster, RewardConfig(), rng=spawn_rng(0, "rule-eval"))
    wins = 0
    for goal in buffers.easy:
        state, _ = env.reset(goal)
        while not env.done:
            env.step(rule.act(state))
        wins += bool(env.success)
    assert wins == len(buffers.easy)


def test_evaluate_untrained_agent_weak_on_difficult(data):
    kb, goals = data
    buffers = build_buffers(goals)
    agent = DqnAgent(seed=123)
    report = evaluate_policy(
        lambda s, r: agent.select_action(s, r, epsilon=0.0),
        kb, default_roster(), buffers.difficult, 50, spawn_rng(1, "t"), RewardConfig(),
    )
    assert report.success_rate <= 0.2
    assert 0.0 <= report.success_rate <= 1.0
    assert 2.0 <= report.avg_turns <= 80.0


def test_evaluate_does_not_mutate_training_state(data):
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    tr.run_epoch(0)
    before_q = tr.agent.q_net.parameter_vector().copy()
    before_t = tr.agent.target_net.parameter_vector().copy()
    tr.evaluate(1, 1)
    assert np.array_equal(before_q, tr.agent.q_net.parameter_vector())
    assert np.array_equal(before_t, tr.agent.target_net.parameter_vector())


def test_run_experiment_outputs(tmp_path, data):
    kb, goals = data
    cfg = tiny_config(out_dir=str(tmp_path / "runs"))
    run_dir = run_experiment(cfg, kb, goals)
    assert run_dir.name == "SC-DDQ_EMD_5"
    eval_rows = (run_dir / "eval.csv").read_text().strip().splitlines()
    assert len(eval_rows) == 1 + 4  # header + four stage evaluations
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "actions.csv").exists()
    assert len(list(run_dir.glob("checkpoint_ep*.json"))) == 4
    config_echo = json.loads((run_dir / "config.json").read_text())
    assert config_echo["method"] == "SC-DDQ"


def test_run_experiment_deterministic(tmp_path, data):
    kb, goals = data
    outs = []
    for sub in ("a", "b"):
        cfg = tiny_config(out_dir=str(tmp_path / sub))
        run_dir = run_experiment(cfg, kb, goals)
        outs.append((run_dir / "eval.csv").read_bytes() + (run_dir / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_pickled_trainer_resumes_bitwise(data):
    import pickle

    kb, goals = data
    # one planning round, and three (with two CPUs, a forked worker plays one)
    for cfg in (tiny_config(), tiny_config(planning_rounds=3)):
        tr = Trainer(cfg, kb, goals)
        tr.warm_start()
        for epoch in range(2):
            tr.run_epoch(epoch)
        twin = pickle.loads(pickle.dumps(tr, protocol=pickle.HIGHEST_PROTOCOL))
        for epoch in (2, 3):
            a, b = tr.run_epoch(epoch), twin.run_epoch(epoch)
            assert np.array_equal(a.action_counts, b.action_counts)
            assert {k: v for k, v in vars(a).items() if k != "action_counts"} == \
                {k: v for k, v in vars(b).items() if k != "action_counts"}
        for net, twin_net in ((tr.agent.q_net, twin.agent.q_net),
                              (tr.world_model.net, twin.world_model.net),
                              (tr.curiosity.net, twin.curiosity.net)):
            assert net.parameter_vector().tobytes() == twin_net.parameter_vector().tobytes()
            assert net.acc.tobytes() == twin_net.acc.tobytes()
        tr.close()
        twin.close()


def test_run_epoch_requires_warm_start(data):
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    with pytest.raises(ConfigError):
        tr.run_epoch(0)


def test_schedule_needs_populated_buffers(data):
    kb, goals = data
    middle_only = [g for g in goals if len(g.request_slots) in (2, 3)]
    with pytest.raises(ConfigError, match="needs .* goals"):
        Trainer(tiny_config(), kb, middle_only)


def test_custom_schedule_from_config(data):
    kb, goals = data
    cfg = tiny_config(
        method="S-DDQ",
        schedule="MEA2",
        custom_schedules={"MEA2": ["middle", "easy", "all", "all"]},
    )
    tr = Trainer(cfg, kb, goals)
    assert tr.level_for_epoch(0) == "middle"
    assert tr.level_for_epoch(cfg.epochs - 1) == "all"
    tr.warm_start()
    rep = tr.run_epoch(0)
    assert rep.level == "middle"


def test_custom_schedule_validation():
    with pytest.raises(ConfigError, match="BAD"):
        RunConfig(method="S-DDQ", schedule="BAD").validate()
    with pytest.raises(ConfigError, match="4 levels"):
        RunConfig(method="S-DDQ", schedule="X",
                  custom_schedules={"X": ["easy", "easy"]}).validate()


def test_determinism_across_hash_seeds(tmp_path):
    # str hashing is salted per process; training must not leak set/dict
    # hash order into outcomes. Same digest under different PYTHONHASHSEED.
    import os
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        """
        import hashlib, json
        from dialogrl.training import RunConfig, Trainer, load_run_data

        cfg = RunConfig(method="SC-DDQ", schedule="EMD", seed=3, epochs=4,
                        real_dialogs_per_epoch=3, planning_rounds=1,
                        planning_dialogs_per_round=2, warm_start_dialogs=5,
                        warm_start_updates=5, kb_size=60,
                        goal_counts={1: 8, 2: 4, 4: 4}, out_dir="unused")
        kb, goals = load_run_data(cfg)
        tr = Trainer(cfg, kb, goals)
        tr.warm_start()
        for e in range(cfg.epochs):
            tr.run_epoch(e)
        ev = tr.evaluate(4, 1)
        payload = json.dumps(
            [(r.epoch, r.train_success, r.mean_reward, r.dqn_loss) for r in tr.epoch_reports]
        ) + f"|{ev.success_rate}|{ev.avg_turns}"
        print(hashlib.sha256(payload.encode()).hexdigest())
        """
    )
    digests = set()
    for hash_seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_every_learner_net_is_float32(data):
    from dialogrl.nets import mlp_new, single_head_spec

    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    nets = (tr.agent.q_net, tr.agent.target_net, tr.world_model.net, tr.curiosity.net)
    tr.warm_start()
    tr.run_epoch(0)
    for net in nets:
        assert {net.theta.dtype, net.acc.dtype} == {np.dtype(np.float32)}
    s = np.zeros((2, 129))
    assert tr.agent.q_values_batch(s).dtype == np.float32
    assert tr.curiosity.values(s).dtype == np.float32  # added to float32 Q-values
    assert all(x.dtype == np.float32 for x in tr.world_model.predict(s, [0, 1]))
    # gradient checks against finite differences keep a float64 net by default
    assert mlp_new(single_head_spec(3, [4], 2)).theta.dtype == np.float64


@pytest.mark.parametrize("method, schedule, ops", [
    ("SC-DDQ", "EMD", ["collect", "dqn_real", "world", "plan", "dqn_sim", "curiosity", "sync"]),
    ("DQN", "RANDOM", ["collect", "dqn_real", "sync"]),
])
def test_run_writes_op_times_beside_the_run_dir(tmp_path, data, method, schedule, ops):
    kb, goals = data
    cfg = tiny_config(method=method, schedule=schedule, out_dir=str(tmp_path))
    run_dir = run_experiment(cfg, kb, goals)
    lines = (tmp_path / f"{cfg.run_id}.timings.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    assert [row["epoch"] for row in rows] == list(range(cfg.epochs))
    for row in rows:
        assert set(row) - {"epoch", "curiosity_wait", "worker_plan", "worker_curiosity"} == {*ops, "total"}
        assert all(isinstance(row[k], float) and row[k] >= 0.0 for k in row if k != "epoch")
        assert sum(row[op] for op in ops) <= row["total"] + 1e-5
        if "curiosity_wait" in row:
            assert row["curiosity_wait"] <= row["curiosity"] + 1e-5
    # wall-clock numbers stay out of the run dir, whose files keep their bytes
    assert not any("timing" in p.name for p in run_dir.iterdir())
    header = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
    assert not any(op in header.split(",") for op in ops)


def test_worker_times_are_timed_only_on_the_worker(tmp_path, data, monkeypatch):
    import dialogrl.training as training

    kb, goals = data
    worker_fields = {"curiosity_wait", "worker_plan", "worker_curiosity"}
    files = {}
    for parallel in (False, True):
        monkeypatch.setattr(training, "can_plan_in_parallel", lambda: parallel)
        (tmp_path / str(parallel)).mkdir()
        monkeypatch.chdir(tmp_path / str(parallel))  # the same relative out_dir, so config.json compares too
        cfg = tiny_config(planning_dialogs_per_round=4, out_dir="runs")
        run_dir = run_experiment(cfg, kb, goals)
        lines = (run_dir.parent / f"{cfg.run_id}.timings.jsonl").read_text(encoding="utf-8").splitlines()
        for row in map(json.loads, lines):
            assert set(row) & worker_fields == (worker_fields if parallel else set())
            assert set(row) - worker_fields - {"epoch", "total"} == {
                "collect", "dqn_real", "world", "plan", "dqn_sim", "curiosity", "sync"}
            assert all(row[k] >= 0.0 for k in set(row) & worker_fields)
        files[parallel] = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    # the worker's seconds go beside the run dir only: its files keep their bytes
    assert files[True] == files[False]
