"""Lockstep real dialogs against ``DialogEnv`` stepped one dialog at a time:
the same goals, first user acts and agent actions must give the same
experiences, to the byte, and the same outcomes. The lockstep loop stores
each env's ``encoding``, updated in place turn by turn; the reference
encodes every state in full with ``encode_state``, and checks the
env's narrowed KB matches against a query of all its constraints."""

from collections import Counter

import numpy as np
import pytest

from dialogrl.curriculum import LEVELS, sample_goal
from dialogrl.domain import (DEFAULT_GOAL_COUNTS, INFORMABLE_SLOTS, Intent, KnowledgeBase, Slot, default_roster,
                             generate_goal_set, generate_kb)
from dialogrl.env import DialogEnv, RuleAgent, encode_state, stored_states
from dialogrl.training import RunConfig, Trainer

ROSTER = default_roster()
INFORMS = np.array([i for i, act in enumerate(ROSTER.agent_actions)
                    if act.intent == Intent.INFORM and Slot.TASKCOMPLETE not in act.inform_slots])
BOOK = RuleAgent(ROSTER).book_index
NO_MATCH = "no match available"
assert len(INFORMS) == len(INFORMABLE_SLOTS)

# Each dialog's policy: uniformly random actions, the scripted agent,
# informing every slot in turn and then booking, or a random mix of the three.
RANDOM, RULE, INFORM_ALL, MIXED = range(4)


class AnyAnswerKB(KnowledgeBase):
    """A KB that admits every goal and every answer but matches exactly, so
    that a goal naming a movie it lacks leaves the hits empty and the agent
    informs NO_MATCH."""

    def match_count(self, constraints):
        return max(1, super().match_count(constraints))


@pytest.fixture(scope="module")
def worlds():
    """(KB, goals) pairs: the canonical sizes, where accepted answers narrow
    the matches, and a small KB where one goal matches no record."""
    kb = generate_kb(seed=7, n_movies=991)
    canonical = kb, generate_goal_set(kb, DEFAULT_GOAL_COUNTS, seed=3)
    small = AnyAnswerKB(generate_kb(seed=7, n_movies=80).records)
    goals = generate_goal_set(small, {1: 4, 2: 4, 3: 4, 4: 4, 5: 2}, seed=3)
    for goal in goals[::5]:
        goal.inform_slots[Slot.MOVIENAME] = "no such movie"
    return [canonical, (small, goals)]


def policy(rng, modes):
    """``Trainer._play_real_dialogs``'s ``choose``: each dialog's actions by its mode."""
    rule = RuleAgent(ROSTER)
    index = {}  # each env's dialog, from the first turn, where every dialog is live

    def choose(envs, s):
        assert s.shape == (len(envs), len(encode_state(envs[0].state)))
        if not index:
            index.update((id(env), i) for i, env in enumerate(envs))
        picks = []
        for env in envs:
            i = index[id(env)]
            mode = modes[i] if modes[i] != MIXED else int(rng.integers(3))
            k = env.state.turn + i
            picks.append(int(rng.integers(ROSTER.n_agent_actions)) if mode == RANDOM
                         else rule.act(env.state) if mode == RULE
                         else int(INFORMS[k % len(INFORMS)]) if k < len(INFORMS) else BOOK)
        return picks

    return choose


def fields(e):
    return (e.s.tobytes(), e.a, e.r, e.a_user, e.s_next.tobytes(), e.done)


def replay(kb, rewards, goal, rng, steps, seen):
    """Play ``goal`` on a DialogEnv reset from ``rng`` with the actions of
    ``steps``, encoding each state in full; returns its experiences,
    its success and its final encoding."""
    env = DialogEnv(kb, ROSTER, rewards, rng=rng)
    state, _ = env.reset(goal)
    exps = []
    for e in steps:
        s = stored_states(encode_state(state))
        act = env.realize_agent_action(e.a)
        before = len(state.accepted)
        out = env.step(e.a)
        exps.append((s.tobytes(), e.a, out.reward, ROSTER.user_index(out.user_act),
                     stored_states(encode_state(state)).tobytes(), out.done))
        # the env narrows its matches as constraints come; a query of them all agrees
        assert set(env.kb_hits) == set(kb.hits({**state.user_informs, **state.accepted}))
        seen["accepted"] += len(state.accepted) - before
        seen["no match"] += NO_MATCH in act.inform_slots.values()
        seen[out.user_act.intent.label] += 1
        if out.user_act.intent == Intent.DENY and not out.done:  # a wrong constraint, or a refused answer
            seen["restated" if next(iter(act.inform_slots)) in goal.inform_slots else "refused"] += 1
        if out.done:
            seen["success" if out.success else "failure"] += 1
            seen["capped"] += out.user_act.intent == Intent.CLOSING
    return exps, env.success, stored_states(encode_state(state))


@pytest.mark.parametrize("world", [0, 1])
def test_lockstep_dialogs_match_dialog_env(worlds, world):
    kb, goals = worlds[world]
    seen = Counter()
    for seed in range(24):
        max_turns = (3, 7, 12, 40)[seed % 4]
        level = LEVELS[seed % len(LEVELS)]
        cfg = RunConfig(method="DQN", schedule="RANDOM", seed=seed, epochs=4, max_turns=max_turns)
        tr = Trainer(cfg, kb, goals, ROSTER)
        n = 1 + seed % 12
        rng = np.random.default_rng([seed, world])
        modes = rng.integers(4, size=n)
        envs, dialogs = tr._play_real_dialogs(n, level, np.random.default_rng([seed, 1]),
                                              np.random.default_rng([seed, 2]), policy(rng, modes))

        goal_rng, env_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2])
        assert len(envs) == len(dialogs) == n
        assert list(tr.real_buffer) == [e for steps in dialogs for e in steps]
        for env, steps in zip(envs, dialogs):
            goal = sample_goal(tr.buffers, level, goal_rng)
            assert env.goal is goal
            want, success, final = replay(kb, tr.rewards, goal, env_rng, steps, seen)
            assert [fields(e) for e in steps] == want
            assert all([type(x) for x in fields(e)] == [bytes, int, float, int, bytes, bool] for e in steps)
            assert env.success == success
            assert steps[-1].s_next.tobytes() == final.tobytes() == env.encoding.tobytes() and steps[-1].done
            assert all(prev.s_next is nxt.s for prev, nxt in zip(steps, steps[1:]))
        seen["rule dialogs"] += int((modes == RULE).sum())
    paths = ["rule dialogs", "accepted", "restated", "success", "failure", "capped", "not_sure", "thanks",
             "request", "inform"]
    paths.append("no match" if world else "refused")  # the small KB refuses no answer
    assert min(seen[p] for p in paths) > 0, seen
