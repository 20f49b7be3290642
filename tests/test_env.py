import numpy as np
import pytest

from dialogrl.domain import (
    DEFAULT_GOAL_COUNTS,
    DialogAct,
    Intent,
    Slot,
    UserGoal,
    default_roster,
    generate_goal_set,
    generate_kb,
)
from dialogrl.env import (
    DialogEnv,
    DialogState,
    GATHER_ORDER,
    RewardConfig,
    RuleAgent,
    STATE_DIM,
    StepOutcome,
    encode_state,
    judge_success,
    render_act,
)
from dialogrl.errors import ContractViolation, EnvSetupError


@pytest.fixture(scope="module")
def kb():
    return generate_kb(seed=7, n_movies=200)


@pytest.fixture(scope="module")
def roster():
    return default_roster()


def make_goal_from_record(kb, inform_slots, request_slots):
    rec = kb.records[0]
    informs = {s: rec.values[s] for s in inform_slots}
    return UserGoal(tuple(request_slots), informs).validate(), rec


def run_rule_episode(env, goal, agent=None):
    agent = agent or RuleAgent(env.roster)
    state, _ = env.reset(goal)
    total = 0.0
    turns = 0
    while not env.done:
        outcome = env.step(agent.act(state))
        total += outcome.reward
        turns += 1
        assert turns <= env.rewards.max_turns
    return total, turns, env.success


def test_reward_config_defaults():
    rc = RewardConfig()
    assert rc.max_turns == 40
    assert rc.per_turn == -1.0
    assert rc.success_bonus == 80.0
    assert rc.failure_penalty == -40.0


def test_reset_first_act_priority(kb):
    # Requests starttime/theater/date-style goal: highest priority wins.
    goal, _ = make_goal_from_record(
        kb,
        [Slot.MOVIENAME, Slot.NUMBEROFPEOPLE, Slot.DATE],
        [Slot.TICKET, Slot.THEATER, Slot.STARTTIME],
    )
    env = DialogEnv(kb, rng=5)
    state, first = env.reset(goal)
    assert first.intent == Intent.REQUEST
    assert first.request_slots == (Slot.STARTTIME,)
    assert Slot.MOVIENAME in first.inform_slots
    assert 1 <= len(first.inform_slots) <= 3
    assert state.turn == 0
    assert set(state.outstanding) == set(goal.request_slots)


def test_reset_ticket_only_goal(kb):
    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.CITY], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    _, first = env.reset(goal)
    assert first.request_slots == (Slot.TICKET,)


def test_reset_deterministic(kb):
    goal, _ = make_goal_from_record(
        kb, [Slot.MOVIENAME, Slot.CITY, Slot.DATE, Slot.PRICE], [Slot.TICKET]
    )
    acts = []
    for _ in range(2):
        env = DialogEnv(kb, rng=42)
        _, first = env.reset(goal)
        acts.append(first.to_json())
    assert acts[0] == acts[1]


def test_reset_unsatisfiable_goal(kb):
    goal = UserGoal((Slot.TICKET,), {Slot.MOVIENAME: "not a real movie"})
    with pytest.raises(EnvSetupError):
        DialogEnv(kb, rng=0).reset(goal)


def test_user_informs_requested_slot(kb):
    goal, rec = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.CITY], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    env.reset(goal)
    idx = env.roster.agent_actions.index(DialogAct(Intent.REQUEST, request_slots=(Slot.CITY,)))
    outcome = env.step(idx)
    assert outcome.user_act.intent == Intent.INFORM
    assert outcome.user_act.inform_slots[Slot.CITY] == rec.values[Slot.CITY]
    assert outcome.reward == -1.0
    assert not outcome.done


def test_user_not_sure_for_unknown_slot(kb):
    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    env.reset(goal)
    idx = env.roster.agent_actions.index(DialogAct(Intent.REQUEST, request_slots=(Slot.ZIP,)))
    outcome = env.step(idx)
    assert outcome.user_act.intent == Intent.NOT_SURE


def test_step_after_done_raises(kb):
    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    state, _ = env.reset(goal)
    book = RuleAgent(env.roster).book_index
    env.step(book)  # terminal either way
    with pytest.raises(ContractViolation):
        env.step(book)


def test_timeout_forces_failure(kb):
    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.CITY], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    state, _ = env.reset(goal)
    confirm = RuleAgent(env.roster).confirm_index
    total = 0.0
    turns = 0
    while not env.done:
        outcome = env.step(confirm)
        total += outcome.reward
        turns += 1
    assert turns == 40
    assert outcome.done and outcome.success is False
    assert outcome.reward == -41.0
    assert total == -80.0  # -L - T with T = L = 40


def test_cumulative_reward_identity_success(kb):
    goals = generate_goal_set(kb, {1: 10, 3: 5}, seed=3)
    env = DialogEnv(kb, rng=11)
    for goal in goals:
        total, turns, success = run_rule_episode(env, goal)
        if success:
            assert total == 80.0 - turns
        else:
            assert total == -40.0 - turns


def test_transcript_reward_sum_matches(kb):
    goals = generate_goal_set(kb, {2: 5}, seed=9)
    env = DialogEnv(kb, rng=2, record_transcript=True)
    for goal in goals:
        total, turns, _ = run_rule_episode(env, goal)
        logged = sum(line["reward"] for line in env.transcript)
        assert logged == total


def test_transcript_is_opt_in(kb):
    goal = generate_goal_set(kb, {2: 1}, seed=9)[0]
    quiet, logged = DialogEnv(kb, rng=2), DialogEnv(kb, rng=2, record_transcript=True)
    assert run_rule_episode(quiet, goal) == run_rule_episode(logged, goal)
    assert quiet.transcript == [] and len(logged.transcript) > 0


def test_encode_state_fresh_after_reset(kb):
    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.DATE], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    state, _ = env.reset(goal)
    v = encode_state(state)
    assert v.shape == (STATE_DIM,)
    assert STATE_DIM == 129
    user_intent_block = v[:11]
    assert user_intent_block[int(Intent.REQUEST)] == 1.0
    assert user_intent_block.sum() == 1.0
    assert set(np.unique(v)) <= {0.0, 1.0}


def test_encode_state_purity(kb):
    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.DATE], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    state, _ = env.reset(goal)
    a, b = encode_state(state), encode_state(state)
    assert np.array_equal(a, b)


def test_encode_state_hand_computed_blocks():
    # Mid-dialog state assembled by hand; expected vector computed by hand.
    state = DialogState(
        turn=3,
        last_user_act=DialogAct(Intent.INFORM, {Slot.CITY: "seattle"}),
        last_agent_act=DialogAct(Intent.REQUEST, request_slots=(Slot.DATE,)),
        user_informs={Slot.MOVIENAME: "m", Slot.CITY: "seattle"},
        outstanding=[Slot.STARTTIME, Slot.TICKET],
        agent_informs={Slot.THEATER: "royal theater"},
        agent_requested=[Slot.CITY, Slot.DATE],
        kb_match_count=7,
    )
    v = encode_state(state)
    expected = np.zeros(129)
    expected[int(Intent.INFORM)] = 1  # user intent block @ 0
    expected[11 + int(Slot.MOVIENAME)] = 1  # user informs @ 11
    expected[11 + int(Slot.CITY)] = 1
    expected[27 + int(Slot.STARTTIME)] = 1  # outstanding @ 27
    expected[27 + int(Slot.TICKET)] = 1
    expected[43 + int(Intent.REQUEST)] = 1  # agent intent @ 43
    expected[54 + int(Slot.THEATER)] = 1  # agent informs @ 54
    expected[70 + int(Slot.CITY)] = 1  # agent requested @ 70
    expected[70 + int(Slot.DATE)] = 1
    expected[86 + 3] = 1  # turn one-hot @ 86
    expected[126 + 2] = 1  # kb bucket >=2 @ 126
    assert np.array_equal(v, expected)


def test_encode_state_turn_saturates():
    state = DialogState(turn=55)
    v = encode_state(state)
    assert v[86 + 39] == 1.0


def test_rule_agent_requests_moviename_first(kb):
    agent = RuleAgent()
    state = DialogState(last_user_act=DialogAct(Intent.GREETING))
    idx = agent.act(state)
    act = agent.roster.agent_actions[idx]
    assert act.intent == Intent.REQUEST
    assert act.request_slots == (Slot.MOVIENAME,)


def test_rule_agent_books_on_thanks(kb):
    agent = RuleAgent()
    state = DialogState(
        last_user_act=DialogAct(Intent.THANKS),
        user_informs={s: "x" for s in GATHER_ORDER},
    )
    idx = agent.act(state)
    act = agent.roster.agent_actions[idx]
    assert act.intent == Intent.INFORM and Slot.TASKCOMPLETE in act.inform_slots


def test_rule_agent_clears_all_easy_goals(kb):
    # The warm-start policy must complete every easy goal quickly.
    goals = [g for g in generate_goal_set(kb, DEFAULT_GOAL_COUNTS, seed=7) if len(g.request_slots) == 1]
    assert len(goals) == 61
    env = DialogEnv(kb, rng=123)
    agent = RuleAgent(env.roster)
    for goal in goals:
        total, turns, success = run_rule_episode(env, goal, agent)
        assert success is True
        assert turns <= 16
        assert total == 80.0 - turns


def test_rule_agent_handles_middle_and_difficult(kb):
    goals = generate_goal_set(kb, {3: 10, 5: 5}, seed=13)
    env = DialogEnv(kb, rng=77)
    agent = RuleAgent(env.roster)
    wins = 0
    for goal in goals:
        _, _, success = run_rule_episode(env, goal, agent)
        wins += bool(success)
    assert wins >= 12  # scripted policy is strong but not guaranteed


def test_judge_success_matches_env(kb):
    goals = generate_goal_set(kb, {1: 8, 2: 6, 4: 6}, seed=31)
    env = DialogEnv(kb, rng=5, record_transcript=True)
    agent = RuleAgent(env.roster)
    rng = np.random.default_rng(8)
    for i, goal in enumerate(goals):
        state, _ = env.reset(goal)
        while not env.done:
            if i % 2 == 0:
                idx = agent.act(state)
            else:  # random policy episodes exercise failures
                idx = int(rng.integers(env.roster.n_agent_actions))
            env.step(idx)
        assert judge_success(goal, env.transcript, kb) == env.success


def test_judge_success_requires_answers(kb):
    goal, _ = make_goal_from_record(
        kb, [Slot.MOVIENAME, Slot.CITY], [Slot.TICKET, Slot.STARTTIME]
    )
    env = DialogEnv(kb, rng=0, record_transcript=True)
    state, _ = env.reset(goal)
    book = RuleAgent(env.roster).book_index
    env.step(book)  # books without ever answering starttime
    assert env.success is False
    assert judge_success(goal, env.transcript, kb) is False


def test_judge_success_fig4_pattern(kb):
    # Easy goal driven by the scripted agent: the canonical success dialog.
    goal, _ = make_goal_from_record(
        kb,
        [Slot.MOVIENAME, Slot.CITY, Slot.NUMBEROFPEOPLE, Slot.THEATER, Slot.STARTTIME, Slot.DATE],
        [Slot.TICKET],
    )
    env = DialogEnv(kb, rng=1, record_transcript=True)
    _, _, success = run_rule_episode(env, goal)
    assert success is True
    assert judge_success(goal, env.transcript, kb) is True


def test_deny_on_contradicting_inform(kb):
    goal, rec = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.CITY], [Slot.TICKET])
    env = DialogEnv(kb, rng=0)
    state, _ = env.reset(goal)
    # force a wrong value into the agent act by pointing at another record
    wrong = next(
        r for r in env.kb.records if r.values[Slot.CITY].lower() != rec.values[Slot.CITY].lower()
    )
    act = DialogAct(Intent.INFORM, {Slot.CITY: wrong.values[Slot.CITY]})
    env.apply_agent_act(act)
    response = env._user_response(act)
    assert response.intent == Intent.DENY
    assert response.inform_slots.get(Slot.CITY) == rec.values[Slot.CITY]


def test_user_step_deterministic(kb):
    goal, _ = make_goal_from_record(
        kb, [Slot.MOVIENAME, Slot.CITY, Slot.PRICE], [Slot.TICKET, Slot.DATE]
    )
    traces = []
    for _ in range(2):
        env = DialogEnv(kb, rng=99, record_transcript=True)
        state, _ = env.reset(goal)
        agent = RuleAgent(env.roster)
        while not env.done:
            env.step(agent.act(state))
        traces.append(env.transcript)
    assert traces[0] == traces[1]


def test_render_act_templates():
    act = DialogAct(Intent.REQUEST, {Slot.MOVIENAME: "silver falcon"}, (Slot.STARTTIME,))
    text = render_act(act)
    assert "starttime" in text and "silver falcon" in text
    assert "book" in render_act(DialogAct(Intent.INFORM, {Slot.TASKCOMPLETE: "booked"}))


def test_transcript_roundtrip_jsonl(kb, tmp_path):
    import json

    from dialogrl.env import write_transcript

    goal, _ = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.CITY], [Slot.TICKET])
    env = DialogEnv(kb, rng=3, record_transcript=True)
    run_rule_episode(env, goal)
    path = tmp_path / "episode.jsonl"
    write_transcript(env.transcript, path)
    loaded = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert loaded == env.transcript
    assert judge_success(goal, loaded, kb) == env.success
    # one act per line with the documented fields
    for line in loaded:
        assert set(line) == {"turn", "speaker", "intent", "inform_slots", "request_slots", "reward"}


def test_immediate_booking_cannot_cheat(kb):
    # Booking before the user has voiced all constraints must fail: the
    # agent never heard them, so the "booked ticket" cannot be validated.
    goal, _ = make_goal_from_record(
        kb,
        [Slot.MOVIENAME, Slot.CITY, Slot.PRICE, Slot.DATE, Slot.STARTTIME],
        [Slot.TICKET],
    )
    book = RuleAgent().book_index
    wins = 0
    for seed in range(20):
        env = DialogEnv(kb, rng=seed)
        env.reset(goal)
        outcome = env.step(book)
        assert outcome.done
        wins += bool(outcome.success)
    # the first act carries at most 3 of the 5 constraints, so this can
    # never succeed, whatever the rng does
    assert wins == 0


def test_success_always_implies_full_statement_and_answers(kb):
    # Fuzz: under arbitrary policies, every success satisfies the full
    # contract (all constraints voiced, all requests answered consistently).
    goals = generate_goal_set(kb, {1: 6, 2: 6, 3: 4, 4: 4}, seed=55)
    rng = np.random.default_rng(123)
    rule = RuleAgent()
    successes = 0
    for episode in range(300):
        goal = goals[episode % len(goals)]
        env = DialogEnv(kb, rng=episode, record_transcript=True)
        state, _ = env.reset(goal)
        while not env.done:
            if rng.random() < 0.6:
                a = rule.act(state)
            else:
                a = int(rng.integers(29))
            env.step(a)
        if env.success:
            successes += 1
            assert all(s in state.user_informs for s in goal.inform_slots)
            assert all(q == Slot.TICKET for q in state.outstanding)
            assert judge_success(goal, env.transcript, kb)
        else:
            assert not judge_success(goal, env.transcript, kb)
    assert successes > 0  # the fuzz mix does hit real successes


def test_deny_then_recovery(kb):
    # An answer inconsistent with hidden constraints gets denied and the
    # request stays outstanding; after the user volunteers the constraint,
    # a consistent re-answer is accepted.
    goal, rec = make_goal_from_record(
        kb, [Slot.MOVIENAME, Slot.PRICE], [Slot.TICKET, Slot.STARTTIME]
    )
    # find a record sharing moviename but with the wrong price if possible
    env = DialogEnv(kb, rng=0)
    state, _ = env.reset(goal)
    wrong = DialogAct(Intent.INFORM, {Slot.STARTTIME: "3:33am"})  # not in any record
    env.apply_agent_act(wrong)
    response = env._user_response(wrong)
    assert response.intent == Intent.DENY
    assert Slot.STARTTIME in state.outstanding
    # now answer with the true record's value: accepted, request cleared
    good = DialogAct(Intent.INFORM, {Slot.STARTTIME: rec.values[Slot.STARTTIME]})
    env.apply_agent_act(good)
    assert Slot.STARTTIME not in state.outstanding
    assert state.accepted[Slot.STARTTIME] == rec.values[Slot.STARTTIME]


def test_refused_answer_hints_an_unstated_constraint(kb):
    # An answer to an open request that no record allows beside the
    # constraints is denied, and the denial states the first goal constraint
    # the user has not stated yet (none once every one is stated).
    goal, rec = make_goal_from_record(kb, [Slot.MOVIENAME, Slot.PRICE, Slot.CITY], [Slot.TICKET, Slot.STARTTIME])
    hinted = 0
    for seed in range(20):
        env = DialogEnv(kb, rng=seed)
        state, _ = env.reset(goal)
        unstated = [s for s in goal.inform_slots if s not in state.user_informs]
        out = env.step_act(DialogAct(Intent.INFORM, {Slot.STARTTIME: "3:33am"}))  # not in any record
        assert out.user_act.intent == Intent.DENY and Slot.STARTTIME in state.outstanding
        assert out.user_act.inform_slots == ({unstated[0]: goal.inform_slots[unstated[0]]} if unstated else {})
        hinted += bool(unstated)
    assert 0 < hinted < 20
