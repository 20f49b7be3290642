"""Model-based RL training harness for movie-ticket dialog policies."""

from .domain import (
    ActionRoster,
    DialogAct,
    Intent,
    KnowledgeBase,
    MovieRecord,
    Slot,
    UserGoal,
    default_roster,
    generate_goal_set,
    generate_kb,
)
from .env import DialogEnv, DialogState, RewardConfig, RuleAgent, StepOutcome, encode_state, judge_success

__all__ = [
    "ActionRoster",
    "DialogAct",
    "DialogEnv",
    "DialogState",
    "Intent",
    "KnowledgeBase",
    "MovieRecord",
    "RewardConfig",
    "RuleAgent",
    "Slot",
    "StepOutcome",
    "UserGoal",
    "default_roster",
    "encode_state",
    "generate_goal_set",
    "generate_kb",
    "judge_success",
]
