"""Output checks for the training benchmark.

Each check recomputes what it needs from first principles or tests a
property the method must have; none compares against stored output. Every
check returns a list of problem strings, empty when the output is correct.
The functions take plain data (JSON records, transition-like objects with
``s, a, r, a_user, s_next, done`` attributes, floats), so they do not rely
on the code they check.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

MAX_TURNS = 40  # L in the reward scheme: -1 per turn, +2L on success, -L on failure
TERMINAL_REWARDS = (-1.0 + 2 * MAX_TURNS, -1.0 - MAX_TURNS)
STATE_DIM = 129
# Layout of the state encoding: ... | turn one-hot (40) | KB-match bucket (3)
TURN_BITS = slice(STATE_DIM - 3 - 40, STATE_DIM - 3)
KB_BITS = slice(STATE_DIM - 3, STATE_DIM)
N_USER_ACTS = 35
N_AGENT_ACTS = 29
CHUNK = 256  # states checked at a time
# A trained policy's final success must beat a uniformly random policy on the
# same goals by at least this much (measured: trained 0.94-1.00, random 0.33).
LEARNING_MARGIN = 0.3


def _norm(value) -> str:
    return str(value).strip().lower()


def goals_in_kb(kb_records: list[dict], goals: list[dict]) -> list[str]:
    """Every goal's inform constraints match at least one KB record (brute force)."""
    rows = [{k: _norm(v) for k, v in rec.items()} for rec in kb_records]
    problems = []
    for i, goal in enumerate(goals):
        want = {k: _norm(v) for k, v in goal["inform_slots"].items()}
        if not any(all(row.get(k) == v for k, v in want.items()) for row in rows):
            problems.append(f"goal {i} matches no KB record: {want}")
    return problems


def goals_in_kb_files(kb_path, goals_path) -> list[str]:
    kb = json.loads(Path(kb_path).read_text(encoding="utf-8"))
    goals = json.loads(Path(goals_path).read_text(encoding="utf-8"))
    return goals_in_kb(kb, goals)


def states(arrays, what: str) -> list[str]:
    """Binary encodings with exactly one turn bit and one KB-bucket bit."""
    bad = {"are not 0/1": 0, "without exactly one turn bit": 0,
           "without exactly one KB-bucket bit": 0}
    # In chunks, so that checking an epoch's transitions adds little to peak memory.
    for i in range(0, len(arrays), CHUNK):
        x = np.stack([np.asarray(a, dtype=np.float64) for a in arrays[i:i + CHUNK]])
        if x.shape[1] != STATE_DIM:
            return [f"{what}: state width {x.shape[1]}, expected {STATE_DIM}"]
        bad["are not 0/1"] += int((~np.all((x == 0.0) | (x == 1.0), axis=1)).sum())
        bad["without exactly one turn bit"] += int((x[:, TURN_BITS].sum(axis=1) != 1.0).sum())
        bad["without exactly one KB-bucket bit"] += int((x[:, KB_BITS].sum(axis=1) != 1.0).sum())
    return [f"{what}: {n} states {problem}" for problem, n in bad.items() if n]


def _common(exps, what: str) -> list[str]:
    problems = []
    if any(not 0 <= int(e.a) < N_AGENT_ACTS for e in exps):
        problems.append(f"{what}: agent action outside the {N_AGENT_ACTS}-act roster")
    if any(not 0 <= int(e.a_user) < N_USER_ACTS or int(e.a_user) != e.a_user for e in exps):
        problems.append(f"{what}: user act does not index the {N_USER_ACTS}-act roster")
    problems += states([e.s for e in exps] + [e.s_next for e in exps], what)
    return problems


def real_transitions(exps) -> list[str]:
    """r = -1 exactly when not terminal; a terminal r is -1+2L or -1-L."""
    problems = _common(exps, "real transitions")
    for e in exps:
        r = float(e.r)
        if not e.done and r != -1.0:
            problems.append(f"real transitions: non-terminal reward {r}, expected -1")
            break
        if e.done and r not in TERMINAL_REWARDS:
            problems.append(f"real transitions: terminal reward {r}, expected one of {TERMINAL_REWARDS}")
            break
    return problems


def simulated_transitions(exps) -> list[str]:
    problems = _common(exps, "simulated transitions")
    if any(not math.isfinite(float(e.r)) for e in exps):
        problems.append("simulated transitions: non-finite reward")
    return problems


def curiosity_values(values) -> list[str]:
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return ["curiosity: no values"]
    if not np.all(np.isfinite(v)):
        return ["curiosity: non-finite value"]
    if np.any(v < 0.0):
        return [f"curiosity: negative value {float(v.min())}"]
    return []


def losses(named: dict[str, list]) -> list[str]:
    """Every recorded loss is finite; a loss a method computes is never missing."""
    problems = []
    for name, values in named.items():
        for i, x in enumerate(values):
            if x is None or not math.isfinite(float(x)):
                problems.append(f"{name} loss at epoch {i} is {x}")
                break
    return problems


def learning(trained_success: float, random_success: float) -> list[str]:
    if trained_success < random_success + LEARNING_MARGIN:
        return [f"final success {trained_success:.2f} is not clearly above the random "
                f"policy's {random_success:.2f} (margin {LEARNING_MARGIN})"]
    return []


def run_dir(path, epochs, checkpoints, eval_rates) -> list[str]:
    """The run directory holds one metrics row per epoch and one eval row per checkpoint."""
    path = Path(path)
    problems = []
    for name in ("config.json", "metrics.csv", "eval.csv", "actions.csv"):
        if not (path / name).is_file():
            problems.append(f"run dir: {name} missing")
    for c in checkpoints:
        if not (path / f"checkpoint_ep{c}.json").is_file():
            problems.append(f"run dir: checkpoint_ep{c}.json missing")
    if problems:
        return problems
    with open(path / "metrics.csv", newline="", encoding="utf-8") as fh:
        got = [int(row["epoch"]) for row in csv.DictReader(fh)]
    if got != list(epochs):
        problems.append(f"run dir: metrics.csv epochs {got[:3]}... are not {epochs}")
    with open(path / "eval.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["checkpoint_epoch"]) for r in rows] != list(checkpoints):
        problems.append("run dir: eval.csv checkpoints differ from the evaluations run")
    elif any(abs(float(r["success_rate"]) - rate) > 5e-5 for r, rate in zip(rows, eval_rates)):
        problems.append("run dir: eval.csv success rates differ from the evaluations run")
    if any(not 0.0 <= rate <= 1.0 for rate in eval_rates):
        problems.append("evaluation success rate outside [0, 1]")
    return problems


def same_outputs(a, b) -> list[str]:
    """Two runs of one seeded configuration write byte-identical CSVs."""
    return [f"{Path(b).name}: {name} differs between repeated runs"
            for name in ("metrics.csv", "eval.csv", "actions.csv")
            if (Path(a) / name).read_bytes() != (Path(b) / name).read_bytes()]
