"""Movie-ticket dialog ontology: slots, intents, dialog acts, action rosters,
user goals, and a deterministic synthetic knowledge base.

Dialogs operate purely at the semantic-frame level. Natural-language strings
exist only as fixed rendering templates for human-readable logs (see env.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import GenerationError, ParseError, read_json


class Slot(IntEnum):
    CITY = 0
    CLOSING = 1
    DATE = 2
    DISTANCECONSTRAINTS = 3
    GREETING = 4
    MOVIENAME = 5
    NUMBEROFPEOPLE = 6
    PRICE = 7
    STARTTIME = 8
    STATE = 9
    TASKCOMPLETE = 10
    THEATER = 11
    THEATER_CHAIN = 12
    TICKET = 13
    VIDEO_FORMAT = 14
    ZIP = 15

    @property
    def label(self) -> str:
        return self.name.lower()


class Intent(IntEnum):
    REQUEST = 0
    INFORM = 1
    DENY = 2
    CONFIRM_QUESTION = 3
    CONFIRM_ANSWER = 4
    GREETING = 5
    CLOSING = 6
    NOT_SURE = 7
    MULTIPLE_CHOICE = 8
    THANKS = 9
    WELCOME = 10

    @property
    def label(self) -> str:
        return self.name.lower()


SLOT_BY_NAME = {s.label: s for s in Slot}

# Slots that appear as fields of a KB record, i.e. everything an agent can
# look up and state. Order is the canonical serialization order.
INFORMABLE_SLOTS = (
    Slot.MOVIENAME,
    Slot.CITY,
    Slot.STATE,
    Slot.THEATER,
    Slot.THEATER_CHAIN,
    Slot.DATE,
    Slot.STARTTIME,
    Slot.PRICE,
    Slot.VIDEO_FORMAT,
    Slot.ZIP,
    Slot.NUMBEROFPEOPLE,
)

# Slots a user goal may list as requests (besides the always-present ticket).
REQUESTABLE_SLOTS = (
    Slot.STARTTIME,
    Slot.THEATER,
    Slot.DATE,
    Slot.PRICE,
    Slot.CITY,
    Slot.STATE,
    Slot.THEATER_CHAIN,
    Slot.VIDEO_FORMAT,
    Slot.ZIP,
)

# Which request the user voices first / next. Ticket is deliberately last:
# it is only resolved by the booking itself.
REQUEST_PRIORITY = (
    Slot.STARTTIME,
    Slot.THEATER,
    Slot.DATE,
    Slot.PRICE,
    Slot.CITY,
    Slot.STATE,
    Slot.THEATER_CHAIN,
    Slot.VIDEO_FORMAT,
    Slot.ZIP,
    Slot.MOVIENAME,
    Slot.NUMBEROFPEOPLE,
    Slot.DISTANCECONSTRAINTS,
    Slot.TICKET,
)

# Constraints the user always states up front when the goal knows them.
FIRST_ACT_REQUIRED_INFORMS = (Slot.MOVIENAME,)


def normalize_value(value: str) -> str:
    return value.strip().lower()


@dataclass
class DialogAct:
    """A semantic frame: an intent plus inform/request slot payloads."""

    intent: Intent
    inform_slots: dict[Slot, str] = field(default_factory=dict)
    request_slots: tuple[Slot, ...] = ()

    def to_json(self) -> dict:
        return {
            "intent": self.intent.label,
            "inform_slots": {s.label: v for s, v in self.inform_slots.items()},
            "request_slots": [s.label for s in self.request_slots],
        }


def _parse_slot(name) -> Slot:
    slot = SLOT_BY_NAME.get(str(name))
    if slot is None:
        raise ParseError(f"unknown slot name '{name}'")
    return slot


class ActionRoster:
    """Ordered agent/user dialog-act templates; indices are stable for a run."""

    def __init__(self, agent_actions, user_actions):
        self.agent_actions = list(agent_actions)
        self.user_actions = list(user_actions)
        self._user_lookup = {self._key(a): i for i, a in enumerate(self.user_actions)}

    @property
    def n_agent_actions(self) -> int:
        return len(self.agent_actions)

    @property
    def n_user_actions(self) -> int:
        return len(self.user_actions)

    @staticmethod
    def _key(act: DialogAct):
        # Realized acts may carry extra inform payloads (e.g. a request with a
        # volunteered constraint); the template identity is the intent plus
        # its topic slot.
        if act.intent == Intent.REQUEST:
            return (Intent.REQUEST, act.request_slots[0])
        if act.intent == Intent.INFORM:
            topic = next(iter(act.inform_slots))
            return (Intent.INFORM, topic)
        return (act.intent,)

    def user_index(self, act: DialogAct) -> int:
        return self._user_lookup[self._key(act)]


def default_roster() -> ActionRoster:
    """The 29-action agent / 35-action user roster used throughout.

    Agent: request + inform over every KB-backed slot, one booking act, and
    six social acts. User: inform/request over a wider slot set plus every
    bare intent.
    """
    agent = []
    for s in INFORMABLE_SLOTS:
        agent.append(DialogAct(Intent.REQUEST, request_slots=(s,)))
    for s in INFORMABLE_SLOTS:
        agent.append(DialogAct(Intent.INFORM, inform_slots={s: "*"}))
    agent.append(DialogAct(Intent.INFORM, inform_slots={Slot.TASKCOMPLETE: "*"}))
    for intent in (
        Intent.CLOSING,
        Intent.THANKS,
        Intent.CONFIRM_QUESTION,
        Intent.CONFIRM_ANSWER,
        Intent.DENY,
        Intent.NOT_SURE,
    ):
        agent.append(DialogAct(intent))

    user = []
    for s in INFORMABLE_SLOTS + (Slot.DISTANCECONSTRAINTS, Slot.TASKCOMPLETE):
        user.append(DialogAct(Intent.INFORM, inform_slots={s: "*"}))
    for s in INFORMABLE_SLOTS + (Slot.DISTANCECONSTRAINTS, Slot.TICKET):
        user.append(DialogAct(Intent.REQUEST, request_slots=(s,)))
    for intent in (
        Intent.GREETING,
        Intent.THANKS,
        Intent.CLOSING,
        Intent.DENY,
        Intent.CONFIRM_QUESTION,
        Intent.CONFIRM_ANSWER,
        Intent.NOT_SURE,
        Intent.MULTIPLE_CHOICE,
        Intent.WELCOME,
    ):
        user.append(DialogAct(intent))

    roster = ActionRoster(agent, user)
    assert roster.n_agent_actions == 29, roster.n_agent_actions
    assert roster.n_user_actions == 35, roster.n_user_actions
    return roster


@dataclass
class UserGoal:
    """What the user wants: constraints they know plus slots they must learn."""

    request_slots: tuple[Slot, ...]
    inform_slots: dict[Slot, str]

    def validate(self) -> "UserGoal":
        if Slot.TICKET not in self.request_slots:
            raise ParseError("goal request slots must contain ticket")
        if not 1 <= len(self.request_slots) <= 5:
            raise ParseError(f"goal must have 1..5 request slots, got {len(self.request_slots)}")
        overlap = set(self.request_slots) & set(self.inform_slots)
        if overlap:
            names = ", ".join(s.label for s in sorted(overlap))
            raise ParseError(f"goal request and inform slots overlap: {names}")
        return self

    def key(self):
        return (
            tuple(sorted(self.request_slots)),
            tuple(sorted((s, v) for s, v in self.inform_slots.items())),
        )

    def to_json(self) -> dict:
        return {
            "request_slots": [s.label for s in self.request_slots],
            "inform_slots": {s.label: v for s, v in self.inform_slots.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UserGoal":
        if not isinstance(obj, dict) or "request_slots" not in obj or "inform_slots" not in obj:
            raise ParseError(f"malformed goal entry: {obj!r}")
        requests = tuple(_parse_slot(k) for k in obj["request_slots"])
        informs = {_parse_slot(k): str(v) for k, v in obj["inform_slots"].items()}
        return cls(requests, informs).validate()


@dataclass
class MovieRecord:
    values: dict[Slot, str]

    def matches(self, constraints: dict[Slot, str]) -> bool:
        for slot, want in constraints.items():
            have = self.values.get(slot)
            if have is None or normalize_value(have) != normalize_value(want):
                return False
        return True

    def to_json(self) -> dict:
        return {s.label: self.values[s] for s in INFORMABLE_SLOTS if s in self.values}

    @classmethod
    def from_json(cls, obj: dict) -> "MovieRecord":
        values = {_parse_slot(k): str(v) for k, v in obj.items()}
        missing = [s.label for s in INFORMABLE_SLOTS if s not in values]
        if missing:  # an agent inform reads its slot from any matching record
            raise ParseError(f"KB record missing {', '.join(missing)}")
        if any(not v for v in values.values()):
            raise ParseError("KB record has an empty value")
        return cls(values)


class KnowledgeBase:
    """Immutable movie table with an inverted index for constraint queries."""

    def __init__(self, records, seed=0):
        self.records: list[MovieRecord] = list(records)
        self.seed = seed
        self._index: dict[tuple[Slot, str], set[int]] = {}
        for i, rec in enumerate(self.records):
            for slot, value in rec.values.items():
                self._index.setdefault((slot, normalize_value(value)), set()).add(i)
        # (slot, value as queried) -> its index entry, so each distinct value
        # is normalized once; queried values come from the goals and the KB
        self._lookup: dict[tuple[Slot, str], set[int]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def hits(self, constraints: dict[Slot, str]) -> set[int] | range:
        """Ids of the records matching every constraint, unordered; do not mutate."""
        if not constraints:
            return range(len(self.records))
        sets = []
        for key in constraints.items():
            ids = self._lookup.get(key)
            if ids is None:
                ids = self._lookup[key] = self._index.get((key[0], normalize_value(key[1])), set())
            if not ids:
                return set()
            sets.append(ids)
        if len(sets) == 1:
            return sets[0]
        sets.sort(key=len)
        return set.intersection(*sets)

    def match_count(self, constraints: dict[Slot, str]) -> int:
        return len(self.hits(constraints))

    def to_json(self) -> list:
        return [rec.to_json() for rec in self.records]


# Value pools for the synthetic KB. Small enough that multi-constraint
# queries still hit several records, large enough to make blind booking fail.
_MOVIE_ADJ = (
    "midnight", "silver", "broken", "golden", "crimson", "electric",
    "silent", "roaring", "hidden", "lucky", "savage", "gentle",
    "iron", "neon", "lonely", "rapid",
)
_MOVIE_NOUN = (
    "horizon", "empire", "river", "falcon", "garden", "voyage",
    "echo", "crown", "harbor", "shadow", "engine", "canyon",
    "compass", "orchid", "summit", "parade",
)
_CITIES = (
    "seattle", "portland", "boston", "denver", "austin", "chicago",
    "phoenix", "atlanta", "miami", "detroit", "oakland", "tucson",
)
_STATES = (
    "washington", "oregon", "massachusetts", "colorado", "texas",
    "illinois", "arizona", "georgia", "florida", "michigan",
)
_THEATERS = (
    "royal theater", "grand 16", "century cinema", "apex multiplex",
    "orpheum theater", "rialto cinema", "majestic 10", "plaza theater",
    "regency 14", "liberty cinema", "alameda theater", "pavilion 12",
    "crescent cinema", "summit theater", "union square 9", "harbor cinema",
    "pinewood 6", "stadium 18",
)
_CHAINS = ("amc", "regal", "cinemark", "landmark", "alamo", "showcase")
_DATES = (
    "today", "tomorrow", "tonight", "friday", "saturday",
    "sunday", "monday", "tuesday", "wednesday", "thursday",
)
_TIMES = (
    "9:00am", "10:30am", "11:45am", "1:00pm", "2:15pm", "3:30pm",
    "5:00pm", "6:15pm", "7:30pm", "8:45pm", "9:50pm", "10:40pm",
)
_PRICES = ("$7", "$8", "$9", "$10", "$11", "$12", "$13", "$15")
_FORMATS = ("2d", "3d", "imax")
_ZIPS = tuple(str(z) for z in range(98101, 98121))
_PEOPLE = tuple(str(n) for n in range(1, 9))


def generate_kb(seed: int, n_movies: int) -> KnowledgeBase:
    """Deterministic synthetic KB with fully populated records."""
    if n_movies < 1:
        raise GenerationError(f"n_movies must be >= 1, got {n_movies}")
    rng = np.random.default_rng(seed)

    all_names = [f"{a} {b}" for a in _MOVIE_ADJ for b in _MOVIE_NOUN]
    pool_size = max(8, min(len(all_names), n_movies // 6 if n_movies >= 48 else 8))
    name_ids = rng.permutation(len(all_names))[:pool_size]
    names = [all_names[i] for i in name_ids]

    pools = {
        Slot.MOVIENAME: names,
        Slot.CITY: _CITIES,
        Slot.STATE: _STATES,
        Slot.THEATER: _THEATERS,
        Slot.THEATER_CHAIN: _CHAINS,
        Slot.DATE: _DATES,
        Slot.STARTTIME: _TIMES,
        Slot.PRICE: _PRICES,
        Slot.VIDEO_FORMAT: _FORMATS,
        Slot.ZIP: _ZIPS,
        Slot.NUMBEROFPEOPLE: _PEOPLE,
    }
    records = []
    for _ in range(n_movies):
        values = {}
        for slot in INFORMABLE_SLOTS:
            pool = pools[slot]
            values[slot] = pool[int(rng.integers(len(pool)))]
        records.append(MovieRecord(values))
    return KnowledgeBase(records, seed=seed)


DEFAULT_GOAL_COUNTS = {1: 61, 2: 16, 3: 17, 4: 34, 5: 9}

_MAX_GOAL_ATTEMPTS = 1000


def generate_goal_set(kb: KnowledgeBase, counts: dict[int, int], seed: int) -> list[UserGoal]:
    """Satisfiable-by-construction goals: inform values copied from one record.

    ``counts`` maps number-of-request-slots (1..5) to how many distinct goals
    to generate. Goals always request the ticket and always know the movie
    name (unless the goal requests it, which the requestable pool precludes).
    """
    for k, n in counts.items():
        if not 1 <= int(k) <= 5:
            raise GenerationError(f"request-slot count must be 1..5, got {k}")
        if int(n) < 0:
            raise GenerationError(f"goal count for {k} request slots must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    seen = set()
    goals: list[UserGoal] = []
    for k in sorted(int(k) for k in counts):
        wanted = int(counts[k])
        made = 0
        misses = 0
        while made < wanted:
            if misses > _MAX_GOAL_ATTEMPTS:
                raise GenerationError(
                    f"could not generate {wanted} distinct goals with {k} request slots "
                    f"(made {made}); KB too small or counts too large"
                )
            rec = kb.records[int(rng.integers(len(kb)))]
            extra = [REQUESTABLE_SLOTS[i] for i in rng.permutation(len(REQUESTABLE_SLOTS))[: k - 1]]
            requests = tuple(sorted([Slot.TICKET] + extra))
            informable = [s for s in INFORMABLE_SLOTS if s not in requests and s != Slot.MOVIENAME]
            n_extra_informs = int(rng.integers(1, min(5, len(informable)) + 1))
            chosen = [informable[i] for i in rng.permutation(len(informable))[:n_extra_informs]]
            inform_order = [s for s in INFORMABLE_SLOTS if s == Slot.MOVIENAME or s in chosen]
            informs = {s: rec.values[s] for s in inform_order}
            goal = UserGoal(requests, informs)
            if goal.key() in seen:
                misses += 1
                continue
            seen.add(goal.key())
            goals.append(goal.validate())
            made += 1
            misses = 0
    return goals


def save_goals(goals: list[UserGoal], path) -> None:
    Path(path).write_text(
        json.dumps([g.to_json() for g in goals], indent=1) + "\n", encoding="utf-8"
    )


def load_goals(path) -> list[UserGoal]:
    data = read_json(path, ParseError, "goal file")
    if not isinstance(data, list):
        raise ParseError(f"goal file {path}: expected a JSON array")
    return [UserGoal.from_json(obj) for obj in data]


def save_kb(kb: KnowledgeBase, path) -> None:
    Path(path).write_text(json.dumps(kb.to_json(), indent=1) + "\n", encoding="utf-8")


def load_kb(path) -> KnowledgeBase:
    data = read_json(path, ParseError, "KB file")
    if not isinstance(data, list):
        raise ParseError(f"KB file {path}: expected a JSON array")
    return KnowledgeBase([MovieRecord.from_json(obj) for obj in data])
