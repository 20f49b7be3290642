"""Rule-based movie-ticket dialog environment.

Holds the dialog state tracker, the hand-crafted user simulator with its
reward rules, the fixed-length binary state encoding, the scripted agent
used for warm starts, and post-hoc success judgment over transcripts.
``DialogEnv`` encodes its state in full once per dialog, at ``reset``;
each step then changes only the entries its turn changed.

Success semantics: a booking succeeds when (a) the user has voiced every
constraint of their goal, (b) the agent has answered every requested slot
with values the user accepted, and (c) one KB record satisfies the full
constraint set. The user only accepts an answer that is consistent with a
record matching all their constraints plus previously accepted answers, so
(c) holds whenever (a) and (b) do; it is still re-checked defensively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import (
    ActionRoster,
    DialogAct,
    FIRST_ACT_REQUIRED_INFORMS,
    INFORMABLE_SLOTS,
    Intent,
    KnowledgeBase,
    REQUEST_PRIORITY,
    Slot,
    UserGoal,
    default_roster,
    normalize_value,
)
from .errors import ContractViolation, EnvSetupError

# Slots the scripted warm-start agent gathers, in its fixed asking order.
GATHER_ORDER = (
    Slot.MOVIENAME,
    Slot.STARTTIME,
    Slot.CITY,
    Slot.DATE,
    Slot.THEATER,
    Slot.NUMBEROFPEOPLE,
)

N_INTENTS = len(Intent)
N_SLOTS = len(Slot)
MAX_TURN_BUCKETS = 40
KB_BUCKETS = 3
# Where each block of the state encoding starts (see encode_state).
USER_INTENT = 0
USER_INFORMED = USER_INTENT + N_INTENTS
OUTSTANDING = USER_INFORMED + N_SLOTS
AGENT_INTENT = OUTSTANDING + N_SLOTS
AGENT_INFORMED = AGENT_INTENT + N_INTENTS
AGENT_REQUESTED = AGENT_INFORMED + N_SLOTS
TURN_BUCKET = AGENT_REQUESTED + N_SLOTS
KB_BUCKET = TURN_BUCKET + MAX_TURN_BUCKETS
STATE_DIM = KB_BUCKET + KB_BUCKETS
# Replay buffers store encoded states in this dtype: 0 and 1 are exact in
# float16 and cast back to the nets' float32 exactly, so every net sees the
# same inputs, from a quarter of float64's bytes; a non-binary value stays
# visible to checks, as it would not in uint8 or bool.
STATE_DTYPE = np.float16


def stored_states(states: np.ndarray) -> np.ndarray:
    """A STATE_DTYPE copy of one encoded state, or of a matrix of them, to
    store in a replay buffer."""
    return states.astype(STATE_DTYPE)


@dataclass
class RewardConfig:
    """Per-turn and terminal rewards. Bonus/penalty default to +2L / -L."""

    max_turns: int = 40
    per_turn: float = -1.0
    success_bonus: float | None = None
    failure_penalty: float | None = None

    def __post_init__(self):
        if self.max_turns <= 0:
            raise ValueError("max_turns must be positive")
        if self.success_bonus is None:
            self.success_bonus = 2.0 * self.max_turns
        if self.failure_penalty is None:
            self.failure_penalty = -1.0 * self.max_turns


@dataclass
class DialogState:
    """Tracker record of one conversation.

    ``turn`` counts agent actions. ``outstanding`` holds the goal's request
    slots not yet answered, in request-priority order; it shrinks only when
    the agent informs one of them with an accepted value.
    """

    turn: int = 0
    last_user_act: DialogAct | None = None
    last_agent_act: DialogAct | None = None
    user_informs: dict[Slot, str] = field(default_factory=dict)
    outstanding: list[Slot] = field(default_factory=list)
    agent_informs: dict[Slot, str] = field(default_factory=dict)
    agent_requested: list[Slot] = field(default_factory=list)
    accepted: dict[Slot, str] = field(default_factory=dict)
    kb_match_count: int = 0


@dataclass
class StepOutcome:
    user_act: DialogAct
    reward: float
    done: bool
    success: bool | None  # defined only when done


def encode_state(state: DialogState) -> np.ndarray:
    """Fixed 129-dim binary encoding of the tracker state.

    Blocks, in order: last user intent (11), user-informed slots (16),
    outstanding requests (16), last agent intent (11), agent-informed
    slots (16), agent-requested slots (16), turn one-hot capped at 39 (40),
    KB match-count bucket 0 / 1 / >=2 (3).
    """
    v = np.zeros(STATE_DIM, dtype=np.float64)
    if state.last_user_act is not None:
        v[USER_INTENT + int(state.last_user_act.intent)] = 1.0
    for s in state.user_informs:
        v[USER_INFORMED + int(s)] = 1.0
    for s in state.outstanding:
        v[OUTSTANDING + int(s)] = 1.0
    if state.last_agent_act is not None:
        v[AGENT_INTENT + int(state.last_agent_act.intent)] = 1.0
    for s in state.agent_informs:
        v[AGENT_INFORMED + int(s)] = 1.0
    for s in state.agent_requested:
        v[AGENT_REQUESTED + int(s)] = 1.0
    v[TURN_BUCKET + min(state.turn, MAX_TURN_BUCKETS - 1)] = 1.0
    v[KB_BUCKET + min(state.kb_match_count, KB_BUCKETS - 1)] = 1.0
    return v


class DialogEnv:
    """One episode at a time against the rule-based user simulator.

    ``encoding`` is the state's encoding as replay buffers store it,
    ``stored_states(encode_state(state))``: ``reset`` encodes the state
    once, and each ``step_act`` copies it and updates only the entries the
    turn changed, so a dialog's states are never re-encoded in full,
    and an encoding once read stays as it was: a replay buffer can store
    it as it is. (Calling ``apply_agent_act`` alone leaves it behind.)

    With ``record_transcript`` each act of the episode is logged to
    ``transcript`` as a dict (for ``judge_success`` and ``write_transcript``);
    otherwise ``transcript`` stays empty.
    """

    def __init__(self, kb: KnowledgeBase, roster: ActionRoster | None = None,
                 rewards: RewardConfig | None = None, rng=None, record_transcript: bool = False):
        self.kb = kb
        self.roster = roster if roster is not None else default_roster()
        self.rewards = rewards if rewards is not None else RewardConfig()
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        self.rng = rng
        self.goal: UserGoal | None = None
        self.state: DialogState | None = None
        self.kb_hits: set[int] | range = range(0)  # ids matching the tracked constraints; do not mutate
        self.encoding: np.ndarray | None = None
        self.record_transcript = record_transcript
        self.transcript: list[dict] = []
        self._done = True
        self._success: bool | None = None

    # ---- episode protocol -------------------------------------------------

    def reset(self, goal: UserGoal) -> tuple[DialogState, DialogAct]:
        if self.kb.match_count(goal.inform_slots) == 0:
            raise EnvSetupError("goal constraints match no KB record")
        self.goal = goal
        self.kb_hits = self.kb.hits({})  # no constraints yet
        self.state = DialogState(kb_match_count=len(self.kb_hits))
        self.transcript = []
        self._done = False
        self._success = None
        self.state.outstanding = [s for s in REQUEST_PRIORITY if s in goal.request_slots]

        first = self._first_user_act()
        self._record_user_informs(first)
        self.state.last_user_act = first
        self._log_act("user", first, 0.0)
        self.encoding = stored_states(encode_state(self.state))
        return self.state, first

    def step(self, action_index: int) -> StepOutcome:
        return self.step_act(self.realize_agent_action(action_index))

    def step_act(self, act: DialogAct) -> StepOutcome:
        """Advance one turn with an already-realized agent act."""
        if self._done:
            raise ContractViolation("step() called after the episode ended")
        st = self.state
        before = st.turn, st.last_agent_act, st.last_user_act, st.kb_match_count, len(st.outstanding)
        self.apply_agent_act(act)

        reward = self.rewards.per_turn
        booking = act.intent == Intent.INFORM and Slot.TASKCOMPLETE in act.inform_slots
        if booking:
            success = self._booking_success()
            reward += self.rewards.success_bonus if success else self.rewards.failure_penalty
            user_act = DialogAct(Intent.THANKS) if success else DialogAct(Intent.DENY)
            self._finish(success)
        elif self.state.turn >= self.rewards.max_turns:
            reward += self.rewards.failure_penalty
            user_act = DialogAct(Intent.CLOSING)
            self._finish(False)
        else:
            user_act = self._user_response(act)

        self._record_user_informs(user_act)
        self.state.last_user_act = user_act
        self._encode_turn(act, user_act, *before)
        self._log_act("agent", act, reward)
        self._log_act("user", user_act, 0.0)
        return StepOutcome(user_act, reward, self._done, self._success)

    def _encode_turn(self, act: DialogAct, user_act: DialogAct, turn: int, last_agent_act: DialogAct | None,
                     last_user_act: DialogAct, kb_match_count: int, n_outstanding: int) -> None:
        """Make ``encoding`` a copy brought from the state before the turn,
        described by the last five arguments, to the state after the acts
        ``act`` and ``user_act``: the entries of ``encode_state`` a turn can
        change."""
        st = self.state
        v = self.encoding = self.encoding.copy()
        v[TURN_BUCKET + min(turn, MAX_TURN_BUCKETS - 1)] = 0.0
        v[TURN_BUCKET + min(st.turn, MAX_TURN_BUCKETS - 1)] = 1.0
        if last_agent_act is not None:
            v[AGENT_INTENT + last_agent_act.intent] = 0.0
        v[AGENT_INTENT + act.intent] = 1.0
        if act.intent == Intent.REQUEST:
            v[AGENT_REQUESTED + act.request_slots[0]] = 1.0
        elif act.intent == Intent.INFORM:
            for s in act.inform_slots:
                v[AGENT_INFORMED + s] = 1.0
            if len(st.outstanding) < n_outstanding:  # the inform answered a request
                v[OUTSTANDING + next(iter(act.inform_slots))] = 0.0
        v[USER_INTENT + last_user_act.intent] = 0.0
        v[USER_INTENT + user_act.intent] = 1.0
        for s in user_act.inform_slots:
            if s in self.goal.inform_slots:
                v[USER_INFORMED + s] = 1.0
        v[KB_BUCKET + min(kb_match_count, KB_BUCKETS - 1)] = 0.0
        v[KB_BUCKET + min(st.kb_match_count, KB_BUCKETS - 1)] = 1.0

    @property
    def done(self) -> bool:
        return self._done

    @property
    def success(self) -> bool | None:
        return self._success

    # ---- agent-side mechanics ----------------------------------------------

    def realize_agent_action(self, action_index: int) -> DialogAct:
        """Fill an agent template with concrete values from the KB match."""
        template = self.roster.agent_actions[action_index]
        if template.intent == Intent.REQUEST:
            return DialogAct(Intent.REQUEST, request_slots=template.request_slots)
        if template.intent == Intent.INFORM:
            slot = next(iter(template.inform_slots))
            if slot == Slot.TASKCOMPLETE:
                return DialogAct(Intent.INFORM, {Slot.TASKCOMPLETE: "booked"})
            hits = self.kb_hits
            value = self.kb.records[min(hits)].values[slot] if hits else "no match available"
            return DialogAct(Intent.INFORM, {slot: value})
        return DialogAct(template.intent)

    def apply_agent_act(self, act: DialogAct) -> None:
        """Advance the tracker for an agent act."""
        st = self.state
        st.turn += 1
        st.last_agent_act = act
        if act.intent == Intent.REQUEST:
            slot = act.request_slots[0]
            if slot not in st.agent_requested:
                st.agent_requested.append(slot)
        elif act.intent == Intent.INFORM:
            st.agent_informs.update(act.inform_slots)
            slot = next(iter(act.inform_slots))
            if slot != Slot.TASKCOMPLETE:
                self._consider_answer(slot, act.inform_slots[slot])

    # ---- user simulator rules ----------------------------------------------

    def _first_user_act(self) -> DialogAct:
        goal = self.goal
        target = next(s for s in REQUEST_PRIORITY if s in goal.request_slots)
        required = [s for s in FIRST_ACT_REQUIRED_INFORMS if s in goal.inform_slots]
        total = int(self.rng.integers(1, 4))  # carry 1..3 constraints
        informs = {s: goal.inform_slots[s] for s in required}
        pool = [s for s in goal.inform_slots if s not in informs]
        order = self.rng.permutation(len(pool))
        for i in order:
            if len(informs) >= total:
                break
            informs[pool[int(i)]] = goal.inform_slots[pool[int(i)]]
        if not informs and goal.inform_slots:
            first = next(iter(goal.inform_slots))
            informs[first] = goal.inform_slots[first]
        return DialogAct(Intent.REQUEST, informs, (target,))

    def _user_response(self, act: DialogAct) -> DialogAct:
        goal = self.goal
        if act.intent == Intent.REQUEST:
            q = act.request_slots[0]
            if q in goal.inform_slots:
                return DialogAct(Intent.INFORM, {q: goal.inform_slots[q]})
            return DialogAct(Intent.NOT_SURE)
        if act.intent == Intent.INFORM:
            slot = next(iter(act.inform_slots))
            value = act.inform_slots[slot]
            if slot in goal.inform_slots and normalize_value(value) != normalize_value(goal.inform_slots[slot]):
                # Wrong constraint value: deny and restate the right one.
                return DialogAct(Intent.DENY, {slot: goal.inform_slots[slot]})
            if slot in self.state.outstanding and slot not in self.state.accepted:
                # Inconsistent answer to a request: deny, hint a constraint.
                deny = DialogAct(Intent.DENY)
                unstated = self._unstated()
                if unstated:
                    deny.inform_slots = {unstated[0]: goal.inform_slots[unstated[0]]}
                return deny
            return self._next_move()
        return self._next_move()

    def _next_move(self) -> DialogAct:
        """What the user says when not directly reacting: push the dialog on."""
        goal = self.goal
        pending = [q for q in self.state.outstanding if q != Slot.TICKET]
        if pending:
            act = DialogAct(Intent.REQUEST, request_slots=(pending[0],))
            unstated = self._unstated()
            if unstated:
                act.inform_slots = {unstated[0]: goal.inform_slots[unstated[0]]}
            return act
        unstated = self._unstated()
        if unstated:
            return DialogAct(Intent.INFORM, {unstated[0]: goal.inform_slots[unstated[0]]})
        return DialogAct(Intent.THANKS)  # everything on the table: ready to book

    def _unstated(self) -> list[Slot]:
        return [s for s in self.goal.inform_slots if s not in self.state.user_informs]

    def _consider_answer(self, slot: Slot, value: str) -> None:
        """Accept an agent inform as the answer to an outstanding request."""
        st = self.state
        if slot not in st.outstanding or slot == Slot.TICKET:
            return
        probe = dict(self.goal.inform_slots)
        probe.update(st.accepted)
        probe[slot] = value
        if self.kb.match_count(probe) >= 1:
            st.accepted[slot] = value
            st.outstanding.remove(slot)
            self._refresh_kb_count({slot: value})

    def _booking_success(self) -> bool:
        st, goal = self.state, self.goal
        if any(q != Slot.TICKET for q in st.outstanding):
            return False
        if any(s not in st.user_informs for s in goal.inform_slots):
            return False
        final = dict(goal.inform_slots)
        final.update(st.accepted)
        return self.kb.match_count(final) >= 1

    # ---- bookkeeping ---------------------------------------------------------

    def _record_user_informs(self, act: DialogAct) -> None:
        informs = {s: v for s, v in act.inform_slots.items() if s in self.goal.inform_slots}
        if informs:
            self.state.user_informs.update(informs)
            self._refresh_kb_count(informs)

    def _refresh_kb_count(self, added: dict[Slot, str]) -> None:
        """Narrow the KB matches, kept for agent informs, by the constraints
        just ``added`` (a user inform of a goal slot, an accepted answer).
        Constraints only grow: a goal's constraints and requests are
        disjoint, and the user restates a constraint only with its goal
        value, so the matches of all constraints are those of the old ones
        that match the added ones too."""
        hits = self.kb.hits(added)
        # (the matches are a range of every record until something constrains them)
        self.kb_hits = hits if isinstance(self.kb_hits, range) else hits.intersection(self.kb_hits)
        self.state.kb_match_count = len(self.kb_hits)

    def _finish(self, success: bool) -> None:
        self._done = True
        self._success = success

    def _log_act(self, speaker: str, act: DialogAct, reward: float) -> None:
        if not self.record_transcript:
            return
        self.transcript.append(
            {"turn": self.state.turn, "speaker": speaker, **act.to_json(), "reward": reward}
        )


class RuleAgent:
    """Scripted booking policy used for warm starts.

    Gathers movie name, start time, city, date, theater, and party size in
    that order, lets the user volunteer remaining constraints, answers the
    user's outstanding requests from the KB match, and books once the user
    signals they are ready (thanks).
    """

    def __init__(self, roster: ActionRoster | None = None):
        roster = roster if roster is not None else default_roster()
        self.roster = roster
        self._request_idx = {}
        self._inform_idx = {}
        for i, act in enumerate(roster.agent_actions):
            if act.intent == Intent.REQUEST:
                self._request_idx[act.request_slots[0]] = i
            elif act.intent == Intent.INFORM:
                self._inform_idx[next(iter(act.inform_slots))] = i
        self.book_index = self._inform_idx[Slot.TASKCOMPLETE]
        self.confirm_index = next(
            i for i, a in enumerate(roster.agent_actions) if a.intent == Intent.CONFIRM_QUESTION
        )

    def act(self, state: DialogState) -> int:
        lu, la = state.last_user_act, state.last_agent_act
        if lu is not None and lu.intent == Intent.THANKS:
            return self.book_index
        for slot in GATHER_ORDER:
            if slot not in state.user_informs and slot not in state.agent_requested:
                return self._request_idx[slot]
        answering = la is not None and la.intent in (Intent.CONFIRM_QUESTION, Intent.INFORM)
        user_done_stating = lu is not None and not lu.inform_slots
        if answering and user_done_stating:
            pending = [q for q in state.outstanding if q != Slot.TICKET and q in self._inform_idx]
            if pending:
                return self._inform_idx[pending[0]]
            return self.book_index
        return self.confirm_index


def judge_success(goal: UserGoal, transcript: list[dict], kb: KnowledgeBase) -> bool:
    """Post-hoc success check over a finished episode transcript.

    Replays the acceptance rule: every goal constraint must have been voiced
    by the user, every requested slot answered by an agent inform consistent
    with one KB record alongside the constraints, and a booking act issued.
    """
    from .domain import SLOT_BY_NAME

    stated: dict[Slot, str] = {}
    accepted: dict[Slot, str] = {}
    pending = [s for s in REQUEST_PRIORITY if s in goal.request_slots and s != Slot.TICKET]
    booked = False
    for line in transcript:
        informs = {SLOT_BY_NAME[k]: v for k, v in line.get("inform_slots", {}).items()}
        if line["speaker"] == "user":
            for slot, value in informs.items():
                if slot in goal.inform_slots:
                    stated[slot] = value
        else:
            if Slot.TASKCOMPLETE in informs:
                booked = True
                continue
            for slot, value in informs.items():
                if slot in pending:
                    probe = dict(goal.inform_slots)
                    probe.update(accepted)
                    probe[slot] = value
                    if kb.match_count(probe) >= 1:
                        accepted[slot] = value
                        pending.remove(slot)
    if not booked or pending:
        return False
    if any(s not in stated for s in goal.inform_slots):
        return False
    final = dict(goal.inform_slots)
    final.update(accepted)
    return kb.match_count(final) >= 1


def write_transcript(transcript: list[dict], path) -> None:
    """Persist an episode transcript as JSON lines, one act per line."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for line in transcript:
            fh.write(json.dumps(line) + "\n")


# Fixed templates for human-readable log renderings only; never parsed back.
_INTENT_TEMPLATES = {
    Intent.CONFIRM_QUESTION: "Anything else I should know?",
    Intent.CONFIRM_ANSWER: "Yes, that is right.",
    Intent.GREETING: "Hello!",
    Intent.CLOSING: "Goodbye.",
    Intent.NOT_SURE: "I am not sure about that.",
    Intent.MULTIPLE_CHOICE: "There are a few options.",
    Intent.THANKS: "Thank you.",
    Intent.WELCOME: "You are welcome.",
    Intent.DENY: "No, that does not work.",
}


def render_act(act: DialogAct) -> str:
    """Render a semantic frame as English text for logs and demos."""
    if act.intent == Intent.REQUEST:
        slot = act.request_slots[0]
        text = f"What {slot.label} would you like?"
        if act.inform_slots:
            details = ", ".join(f"{s.label} is {v}" for s, v in act.inform_slots.items())
            text += f" (by the way: {details})"
        return text
    if act.intent == Intent.INFORM:
        if Slot.TASKCOMPLETE in act.inform_slots:
            return "Great, I was able to book your tickets."
        details = ", ".join(f"{s.label} is {v}" for s, v in act.inform_slots.items())
        return f"For you: {details}."
    base = _INTENT_TEMPLATES.get(act.intent, act.intent.label)
    if act.inform_slots:
        details = ", ".join(f"{s.label} is {v}" for s, v in act.inform_slots.items())
        base += f" ({details})"
    return base
