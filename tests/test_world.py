from collections import Counter
from functools import partial

import numpy as np
import pytest

from dialogrl.agent import DqnAgent, Experience, ReplayBuffer
from dialogrl.curiosity import CuriosityModel
from dialogrl.curriculum import build_buffers, sample_goal
from dialogrl.domain import (DEFAULT_GOAL_COUNTS, DialogAct, Intent, KnowledgeBase, Slot,
                             default_roster, generate_goal_set, generate_kb)
from dialogrl.env import (KB_BUCKET, MAX_TURN_BUCKETS, OUTSTANDING, STATE_DIM, USER_INFORMED,
                          DialogEnv, RewardConfig, RuleAgent, encode_state)
from dialogrl.errors import ContractViolation
from dialogrl.world import WorldModel, encode_inputs, experiences, plan, play_round

STATE, ACTIONS, USER = 12, 5, 7


def tiny_wm(seed=0, lr=0.01):
    return WorldModel(state_dim=STATE, n_agent_actions=ACTIONS, n_user_actions=USER,
                      hidden=16, learning_rate=lr, seed=seed)


def rand_state(rng):
    return (rng.random(STATE) > 0.5).astype(float)


def test_predict_distribution_sums_to_one():
    wm = tiny_wm()
    rng = np.random.default_rng(0)
    states = np.stack([rand_state(rng) for _ in range(5)])
    probs, reward, p_done = wm.predict(states, rng.integers(ACTIONS, size=5))
    assert probs.shape == (5, USER) and reward.shape == (5,) and p_done.shape == (5,)
    for i in range(5):
        assert abs(probs[i].sum() - 1.0) <= 1e-6
        assert np.isfinite(reward[i])
        assert 0.0 < p_done[i] < 1.0


def test_predict_is_pure():
    wm = tiny_wm()
    s = np.ones((1, STATE))
    a = wm.predict(s, [2])
    b = wm.predict(s, [2])
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_predict_batch_rows_match_single_rows():
    wm = tiny_wm(seed=4)
    rng = np.random.default_rng(2)
    states = np.stack([rand_state(rng) for _ in range(6)])
    actions = rng.integers(ACTIONS, size=6)
    batch = wm.predict(states, actions)
    for i in range(6):
        single = wm.predict(states[i:i + 1], actions[i:i + 1])
        for got, want in zip(batch, single):
            assert np.allclose(got[i], want[0], rtol=0.0, atol=1e-12)


def test_world_model_rejects_sim_buffer():
    wm = tiny_wm()
    sim = ReplayBuffer(kind="simulated")
    sim.append(Experience(np.zeros(STATE), 0, 0.0, 0, np.zeros(STATE), False))
    with pytest.raises(ContractViolation):
        wm.train(sim, n_batches=1, rng=np.random.default_rng(0))


def test_world_model_empty_buffer_noop():
    wm = tiny_wm()
    before = wm.net.parameter_vector()
    assert wm.train(ReplayBuffer(kind="real"), 3, np.random.default_rng(0)) is None
    assert np.array_equal(before, wm.net.parameter_vector())


def corpus_buffer(rng, n=50):
    """Fixed corpus where each action index deterministically maps to a
    user action, a reward, and a done flag."""
    buf = ReplayBuffer(kind="real")
    for _ in range(n):
        s = rand_state(rng)
        a = int(rng.integers(ACTIONS))
        buf.append(Experience(s, a, float(a) - 2.0, a % USER, rand_state(rng), a == 0))
    return buf


def test_world_model_memorizes_small_corpus():
    rng = np.random.default_rng(3)
    buf = corpus_buffer(rng, n=50)
    wm = tiny_wm(seed=1, lr=0.01)
    train_rng = np.random.default_rng(0)
    losses = [wm.train(buf, n_batches=10, rng=train_rng) for _ in range(50)]
    assert all(np.isfinite(l) for l in losses)
    exps = list(buf)
    probs, _, _ = wm.predict(np.stack([e.s for e in exps]), [e.a for e in exps])
    hits = int((probs.argmax(axis=1) == [e.a_user for e in exps]).sum())
    assert hits / len(buf) >= 0.9


@pytest.mark.parametrize("n_batches", [1, 6, 70])  # 70 spans three gathered chunks
def test_train_matches_per_minibatch_reference(n_batches):
    # Reference: sample, encode and step one minibatch at a time.
    import copy

    from dialogrl.nets import TrainBatch

    wm = tiny_wm(seed=6, lr=0.01)
    ref = copy.deepcopy(wm.net)
    buf = corpus_buffer(np.random.default_rng(4), n=90)
    loss = wm.train(buf, n_batches, np.random.default_rng(3))

    ref_rng = np.random.default_rng(3)
    losses = []
    for _ in range(n_batches):
        exps = [buf[int(i)] for i in ref_rng.integers(0, len(buf), size=16)]
        user = np.zeros((16, USER))
        user[np.arange(16), [e.a_user for e in exps]] = 1.0
        batch = TrainBatch(encode_inputs(np.stack([e.s for e in exps]), [e.a for e in exps], ACTIONS),
                           {"user_action": user, "reward": np.array([[e.r] for e in exps]),
                            "termination": np.array([[float(e.done)] for e in exps])})
        losses.append(ref.train_minibatch(batch, 0.01))
    assert loss == float(np.mean(losses))
    assert wm.net.theta.tobytes() == ref.theta.tobytes()
    assert wm.net.acc.tobytes() == ref.acc.tobytes()


def test_reward_head_learns_a_constant():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(kind="real")
    for _ in range(40):
        buf.append(Experience(rand_state(rng), int(rng.integers(ACTIONS)), 3.25,
                              int(rng.integers(USER)), rand_state(rng), False))
    wm = tiny_wm(seed=2, lr=0.01)
    train_rng = np.random.default_rng(1)
    for _ in range(60):
        wm.train(buf, n_batches=5, rng=train_rng)
    exps = list(buf)
    preds = wm.predict(np.stack([e.s for e in exps]), [e.a for e in exps])[1]
    assert max(abs(p - 3.25) for p in preds) <= 0.1


def test_encode_inputs_onehot_layout():
    x = encode_inputs(np.ones((2, STATE)), [1, 3], ACTIONS)
    assert x.shape == (2, STATE + ACTIONS)
    assert x[0, STATE + 1] == 1.0 and x[0, STATE:].sum() == 1.0
    assert x[1, STATE + 3] == 1.0


# ---- planning ----------------------------------------------------------------


@pytest.fixture(scope="module")
def planning_setup():
    kb = generate_kb(seed=7, n_movies=80)
    goals = generate_goal_set(kb, {1: 6, 2: 4}, seed=3)
    buffers = build_buffers(goals)
    roster = default_roster()
    agent = DqnAgent(seed=0, epsilon=0.1)
    wm = WorldModel(seed=0)
    return kb, buffers, roster, agent, wm


def goal_sampler(buffers):
    return lambda rng: sample_goal(buffers, "all", rng)


def player(agent, curiosity, wm, sampler, kb, roster, rewards=None):
    """``plan``'s ``play``: ``play_round`` with everything but the seeds bound."""
    return partial(play_round, agent, curiosity, wm, sampler, kb=kb, roster=roster,
                   rewards=rewards if rewards is not None else RewardConfig())


def round_experiences(agent, curiosity, wm, sampler, seeds, kb, roster, rewards):
    return list(experiences(play_round(agent, curiosity, wm, sampler, seeds, kb, roster, rewards)))


def test_plan_zero_rounds(planning_setup):
    kb, buffers, roster, agent, wm = planning_setup
    sim = ReplayBuffer(kind="simulated")
    n = plan(player(agent, None, wm, goal_sampler(buffers), kb, roster), rounds=0, dialogs_per_round=5,
             sim_buffer=sim, rng=np.random.default_rng(0))
    assert n == 0 and len(sim) == 0


def test_plan_bounded_by_turn_cap(planning_setup):
    kb, buffers, roster, agent, wm = planning_setup
    sim = ReplayBuffer(kind="simulated")
    n = plan(player(agent, None, wm, goal_sampler(buffers), kb, roster, RewardConfig(max_turns=40)),
             rounds=1, dialogs_per_round=2, sim_buffer=sim, rng=np.random.default_rng(0))
    assert 0 < n <= 2 * 40
    assert len(sim) == n
    # every stored step is marked done by threshold or cap; episodes end
    dones = [e.done for e in sim]
    assert dones[-1] is True or dones[-1] == True  # noqa: E712 - numpy bool tolerated


def test_plan_refuses_real_buffer(planning_setup):
    kb, buffers, roster, agent, wm = planning_setup
    with pytest.raises(ContractViolation):
        plan(player(agent, None, wm, goal_sampler(buffers), kb, roster), rounds=1, dialogs_per_round=1,
             sim_buffer=ReplayBuffer(kind="real"), rng=np.random.default_rng(0))


def test_plan_refuses_empty_rounds(planning_setup):
    kb, buffers, roster, agent, wm = planning_setup
    with pytest.raises(ContractViolation):
        plan(player(agent, None, wm, goal_sampler(buffers), kb, roster), rounds=1, dialogs_per_round=0,
             sim_buffer=ReplayBuffer(kind="simulated"), rng=np.random.default_rng(0))


def test_plan_deterministic(planning_setup):
    kb, buffers, roster, agent, wm = planning_setup
    traces = []
    for _ in range(2):
        sim = ReplayBuffer(kind="simulated")
        plan(player(agent, None, wm, goal_sampler(buffers), kb, roster), rounds=1, dialogs_per_round=3,
             sim_buffer=sim, rng=np.random.default_rng(11))
        traces.append([(e.a, e.a_user, e.r, e.done) for e in sim])
    assert traces[0] == traces[1]


@pytest.mark.parametrize("with_curiosity", [False, True])
def test_plan_stores_first_half_then_second(planning_setup, patient_wm, with_curiosity):
    # 3 rounds x 5 rollouts play as two lockstep batches of 8 and 7, whatever
    # the number of CPUs; the round structure leaves no trace in the buffer
    kb, buffers, roster, _, _ = planning_setup
    agent = DqnAgent(seed=1, epsilon=0.3)
    curiosity = CuriosityModel(seed=2) if with_curiosity else None
    rewards = RewardConfig(max_turns=9)
    sim = ReplayBuffer(kind="simulated")
    n = plan(player(agent, curiosity, patient_wm, goal_sampler(buffers), kb, roster, rewards), rounds=3,
             dialogs_per_round=5, sim_buffer=sim, rng=np.random.default_rng(8))
    rng = np.random.default_rng(8)
    seeds = np.concatenate([rng.integers(1 << 63, size=5) for _ in range(3)])
    halves = [round_experiences(agent, curiosity, patient_wm, goal_sampler(buffers), half, kb, roster, rewards)
              for half in (seeds[:8], seeds[8:])]
    fields = [[(e.s.tobytes(), e.a, e.r, e.a_user, e.s_next.tobytes(), e.done) for e in exps]
              for exps in (list(sim), halves[0] + halves[1])]
    assert n == len(sim) == len(fields[1])
    assert fields[0] == fields[1]
    stored = iter(sim)
    runs = rollouts(stored, 8) + rollouts(stored, 7)
    assert next(stored, None) is None
    assert all(prev.s_next is nxt.s for run in runs for prev, nxt in zip(run, run[1:]))
    assert len({len(run) for run in runs}) > 1  # rollouts end on different turns


def rollouts(exps, dialogs_per_round):
    """Take one round's rollouts off the iterator ``exps``.

    Rollouts advance in lockstep: each turn appends one experience per
    rollout still running, in rollout order.
    """
    runs = [[] for _ in range(dialogs_per_round)]
    alive = list(range(dialogs_per_round))
    while alive:
        for i in alive:
            runs[i].append(next(exps))
        alive = [i for i in alive if not runs[i][-1].done]
    return runs


def turn_of(s):
    return int(np.argmax(s[STATE_DIM - 3 - MAX_TURN_BUCKETS: STATE_DIM - 3]))


def plan_with_curiosity(planning_setup, sim, rng_seed, max_turns=6):
    kb, buffers, roster, agent, wm = planning_setup
    return plan(player(agent, CuriosityModel(seed=2), wm, goal_sampler(buffers), kb, roster,
                       RewardConfig(max_turns=max_turns)),
                rounds=2, dialogs_per_round=5, sim_buffer=sim, rng=np.random.default_rng(rng_seed))


def test_plan_with_curiosity_deterministic(planning_setup):
    traces = []
    for _ in range(2):
        sim = ReplayBuffer(kind="simulated")
        plan_with_curiosity(planning_setup, sim, 4)
        traces.append([(e.s.tobytes(), e.a, e.r, e.a_user, e.s_next.tobytes(), e.done)
                       for e in sim])
    assert traces[0] == traces[1]


def test_plan_with_curiosity_rollouts_are_consistent(planning_setup):
    wm = planning_setup[4]
    sim = ReplayBuffer(kind="simulated")
    old = Experience(np.zeros(129), 0, 0.0, 0, np.zeros(129), True)
    sim.append(old)
    max_turns = 6
    n = plan_with_curiosity(planning_setup, sim, 5, max_turns)
    assert n == len(sim) - 1 and sim[0] is old
    exps = iter(list(sim)[1:])
    runs = rollouts(exps, 5) + rollouts(exps, 5)
    assert next(exps, None) is None
    ended_by_model = ended_by_cap = 0
    for run in runs:
        assert 1 <= len(run) <= max_turns
        assert [e.done for e in run] == [False] * (len(run) - 1) + [True]
        assert [turn_of(e.s) for e in run] == list(range(len(run)))
        for step, nxt in zip(run, run[1:]):
            assert np.array_equal(step.s_next, nxt.s)
        _, _, p_done = wm.predict(np.stack([e.s for e in run]), [e.a for e in run])
        assert (p_done[:-1] <= 0.5).all()
        if len(run) < max_turns:
            assert p_done[-1] > 0.5
            ended_by_model += 1
        else:
            ended_by_cap += p_done[-1] <= 0.5
    assert ended_by_model > 0 and ended_by_cap > 0  # both ways of ending are exercised


def test_plan_replays_memorized_pattern():
    # Overfit the world model on one fixed transition pattern, then check
    # closed-loop planning reproduces that pattern.
    kb = generate_kb(seed=7, n_movies=80)
    goals = generate_goal_set(kb, {1: 2}, seed=5)
    buffers = build_buffers(goals)
    roster = default_roster()
    agent = DqnAgent(seed=0, epsilon=0.0)
    wm = WorldModel(learning_rate=0.01, seed=3)

    fixed_user = 7
    rng = np.random.default_rng(2)
    buf = ReplayBuffer(kind="real")
    for _ in range(60):
        s = (rng.random(129) > 0.5).astype(float)
        a = int(rng.integers(29))
        buf.append(Experience(s, a, -1.0, fixed_user, (rng.random(129) > 0.5).astype(float), False))
    train_rng = np.random.default_rng(0)
    for _ in range(40):
        wm.train(buf, n_batches=8, rng=train_rng)

    sim = ReplayBuffer(kind="simulated")
    plan(player(agent, None, wm, goal_sampler(buffers), kb, roster), rounds=1, dialogs_per_round=1,
         sim_buffer=sim, rng=np.random.default_rng(1))
    user_choices = {e.a_user for e in sim}
    assert user_choices == {fixed_user}


def brute_force_count(kb, state):
    constraints = {**state.user_informs, **state.accepted}
    return sum(rec.matches(constraints) for rec in kb.records)


@pytest.fixture(scope="module")
def patient_wm():
    """A world model whose rollouts end on many different turns, some at the
    turn cap (the untrained one ends most of them within two turns), and
    whose user informs, the acts that add constraints, come more often."""
    wm = WorldModel(seed=0)
    wm.net.head_params["termination"][-1][1][:] = -0.4  # the output layer's biases
    wm.net.head_params["user_action"][-1][1][:13] += 0.5  # the 13 inform templates
    return wm


def first_match(kb, constraints):
    return next((rec for rec in kb.records if rec.matches(constraints)), None)


def test_kb_match_count_tracks_constraints(planning_setup, patient_wm, monkeypatch):
    # The tracker recounts KB matches only when its constraints change; the
    # count must still equal a full scan after every real step and every
    # planned turn. Accepted answers narrow the match set only on a KB
    # large enough to hold near-duplicate records, hence the canonical sizes.
    roster = planning_setup[2]
    kb = generate_kb(seed=7, n_movies=991)
    buffers = build_buffers(generate_goal_set(kb, DEFAULT_GOAL_COUNTS, seed=3))
    rng = np.random.default_rng(5)
    env = DialogEnv(kb, roster, rng=rng)
    rule_agent = RuleAgent(roster)
    accepted = 0

    # Every agent inform of a KB slot carries the lowest-id record's value.
    informs = []
    realize = DialogEnv.realize_agent_action

    def checked_inform(self, action_index):
        act = realize(self, action_index)
        slot = next(iter(act.inform_slots), None)
        if act.intent == Intent.INFORM and slot != Slot.TASKCOMPLETE:
            first = first_match(kb, {**self.state.user_informs, **self.state.accepted})
            informs.append((act.inform_slots[slot],
                            first.values[slot] if first is not None else "no match available"))
        return act

    monkeypatch.setattr(DialogEnv, "realize_agent_action", checked_inform)
    for episode in range(60):
        state, _ = env.reset(sample_goal(buffers, "all", rng))
        assert state.kb_match_count == brute_force_count(kb, state)
        while not env.done:
            a = rule_agent.act(state) if episode % 2 else int(rng.integers(roster.n_agent_actions))
            env.step(a)
            assert state.kb_match_count == brute_force_count(kb, state)
        accepted += len(state.accepted)
    assert accepted > 0
    assert len(informs) > 100 and all(got == want for got, want in informs)

    # Planning keeps its tracker state in arrays, so replay every planned
    # turn from its states by brute force: the constraints are the goal
    # slots the state marks user-informed plus the answers accepted so far.
    # An inform's value matters in planning only where it may answer an
    # outstanding request: the answer must be the lowest-id matching
    # record's value, accepted exactly when the goal, the earlier answers
    # and it still match a record.
    goals = []

    def sampler(r):
        goals.append(sample_goal(buffers, "all", r))
        return goals[-1]

    sim = ReplayBuffer(kind="simulated")
    plan(player(DqnAgent(seed=0, epsilon=0.5), CuriosityModel(seed=2), patient_wm, sampler, kb, roster,
                RewardConfig(max_turns=20)),
         rounds=3, dialogs_per_round=10, sim_buffer=sim, rng=np.random.default_rng(3))
    exps = iter(sim)
    runs = sum((rollouts(exps, 15) for _ in range(2)), [])  # 30 rollouts, played as two halves
    assert next(exps, None) is None and len(runs) == len(goals)
    seen = Counter()
    for goal, run in zip(goals, runs):
        answered = {}

        def constraints(s):
            told = {q: v for q, v in goal.inform_slots.items() if s[USER_INFORMED + q]}
            return {**told, **answered}

        def count(s):
            return sum(r.matches(constraints(s)) for r in kb.records)

        assert kb_bucket(run[0].s) == min(2, count(run[0].s))
        for e in run:
            assert set(np.flatnonzero(e.s_next[USER_INFORMED:OUTSTANDING])) <= set(goal.inform_slots)
            template = roster.agent_actions[e.a]
            slot = next(iter(template.inform_slots), None)
            if template.intent == Intent.INFORM and slot != Slot.TASKCOMPLETE and e.s[OUTSTANDING + slot]:
                hits = [r for r in kb.records if r.matches(constraints(e.s))]
                value = hits[0].values[slot] if hits else "no match available"

                def accepts(v):
                    return first_match(kb, {**goal.inform_slots, **answered, slot: v}) is not None

                ok = accepts(value)
                assert e.s_next[OUTSTANDING + slot] == (not ok)
                # a tracker that answered with another hit's value would fail here
                seen["value decides"] += any(accepts(r.values[slot]) != ok for r in hits[1:])
                seen["accepted" if ok else "refused"] += 1
                if ok:
                    answered[slot] = value
            want = count(e.s_next)
            assert kb_bucket(e.s_next) == min(2, want)
            seen["user inform narrows"] += (kb_bucket(e.s_next) != kb_bucket(e.s)
                                            and not (e.s_next[USER_INFORMED:OUTSTANDING]
                                                     == e.s[USER_INFORMED:OUTSTANDING]).all())
            seen["planned"] += 1
    assert seen["planned"] == len(sim)
    assert min(seen.values()) > 0, seen


def kb_bucket(s):
    return int(np.argmax(s[KB_BUCKET:]))


def reference_round(agent, curiosity, world_model, goal_sampler, seeds, kb, roster, rewards, seen):
    """Planning's per-rollout loop before its tracker state moved to arrays:
    one DialogEnv per rollout, stepped by ``apply_agent_act`` and a user act
    realized from the goal. ``seen`` counts accepted answers and informs
    made with no matching record."""

    def apply_simulated_user_act(env, template):
        if template.intent == Intent.INFORM:
            slot = next(iter(template.inform_slots))
            act = DialogAct(Intent.INFORM, {slot: env.goal.inform_slots.get(slot, "unknown")})
        elif template.intent == Intent.REQUEST:
            act = DialogAct(Intent.REQUEST, request_slots=template.request_slots)
        else:
            act = DialogAct(template.intent)
        env._record_user_informs(act)
        env.state.last_user_act = act

    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    envs = []
    for r in rngs:
        env = DialogEnv(kb, roster, rewards, rng=r)
        env.reset(goal_sampler(r))
        envs.append(env)
    s = np.stack([encode_state(env.state) for env in envs])
    rows = list(s)
    while envs:
        bonus = curiosity.values(s) if curiosity is not None else None
        actions = agent.select_actions(s, rngs, bonus)
        for env, a in zip(envs, actions):
            act = env.realize_agent_action(int(a))
            seen["no match"] += "no match available" in act.inform_slots.values()
            before = len(env.state.accepted)
            env.apply_agent_act(act)
            seen["accepted"] += len(env.state.accepted) - before
        probs, reward, p_done = world_model.predict(s, actions)
        user_idx = probs.argmax(axis=1)
        s_next = np.empty_like(s)
        next_rows = list(s_next)
        alive = []
        for i, env in enumerate(envs):
            apply_simulated_user_act(env, roster.user_actions[int(user_idx[i])])
            s_next[i] = encode_state(env.state)
            done = bool(p_done[i] > 0.5 or env.state.turn >= rewards.max_turns)
            yield Experience(rows[i], int(actions[i]), float(reward[i]),
                             int(user_idx[i]), next_rows[i], done)
            if not done:
                alive.append(i)
        envs = [envs[i] for i in alive]
        rngs = [rngs[i] for i in alive]
        rows = [next_rows[i] for i in alive]
        s = s_next if len(alive) == len(actions) else s_next[alive]


def assert_rounds_match(agent, curiosity, wm, sampler, kb, roster, max_turns, rounds=3, n=12):
    """play_round against the reference on ``rounds`` rounds; returns the
    reference's counts and every rollout's length."""
    rewards = RewardConfig(max_turns=max_turns)
    seen = {"accepted": 0, "no match": 0}
    ends = []
    for k in range(rounds):
        seeds = np.random.default_rng(k).integers(1 << 63, size=n)
        got = round_experiences(agent, curiosity, wm, sampler, seeds, kb, roster, rewards)
        want = list(reference_round(agent, curiosity, wm, sampler, seeds, kb, roster, rewards, seen))
        fields = [[(e.s.tobytes(), e.a, e.r, e.a_user, e.s_next.tobytes(), e.done) for e in exps]
                  for exps in (got, want)]
        assert fields[0] == fields[1]
        assert [type(x) for x in fields[0][0]] == [bytes, int, float, int, bytes, bool]
        for run in rollouts(iter(got), n):
            assert all(prev.s_next is nxt.s for prev, nxt in zip(run, run[1:]))
            ends.append(len(run))
    return seen, ends


@pytest.mark.parametrize("with_curiosity", [False, True])
def test_play_round_matches_per_rollout_reference(planning_setup, patient_wm, with_curiosity):
    roster = planning_setup[2]
    kb = generate_kb(seed=7, n_movies=991)
    buffers = build_buffers(generate_goal_set(kb, DEFAULT_GOAL_COUNTS, seed=3))
    agent = DqnAgent(seed=1, epsilon=0.3)
    curiosity = CuriosityModel(seed=2) if with_curiosity else None
    seen, ends = assert_rounds_match(agent, curiosity, patient_wm, goal_sampler(buffers), kb, roster,
                                     max_turns=12)
    assert seen["accepted"] > 0
    assert 12 in ends and len(set(ends)) > 2  # the cap is hit, and rollouts end on different turns


class AnyAnswerKB(KnowledgeBase):
    """A KB that admits every goal and every answer but matches exactly,
    so that a goal naming a movie it lacks leaves the hits empty."""

    def match_count(self, constraints):
        return max(1, super().match_count(constraints))


def test_play_round_matches_reference_with_no_match(planning_setup, patient_wm):
    roster = planning_setup[2]
    kb = AnyAnswerKB(generate_kb(seed=7, n_movies=80).records)
    goals = generate_goal_set(kb, {2: 4, 3: 4}, seed=3)
    goals[0].inform_slots[Slot.MOVIENAME] = "no such movie"
    sampler = lambda r: goals[int(r.integers(len(goals)))]
    seen, ends = assert_rounds_match(DqnAgent(seed=2, epsilon=0.5), None, patient_wm, sampler, kb, roster,
                                     max_turns=9)
    assert seen["no match"] > 0 and seen["accepted"] > 0
