"""Post-run analytics: per-stage action distributions, base-2 action
entropy, Pearson correlation of stage entropy against final success, and
paper-style CSV tables built from persisted run directories, and each
run's wall-clock split by op from the ``<run_id>.timings.jsonl`` file that
sits beside its run directory.

Entropy uses log base 2: reported stage entropies for 29 actions then live
in [0, log2 29 ~= 4.858], matching the scale of the numbers this analysis
is compared against. All outputs are data-only CSVs.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curriculum import strategy_of
from .errors import AnalysisError, read_json

N_AGENT_ACTIONS = 29
RUN_FILES = ("config.json", "eval.csv", "actions.csv")  # what a report reads of a run dir

# canonical table row order: random methods, then EFS, then DFS
_CONDITION_ORDER = (
    [("Random", "DQN", "-")]
    + [("Random", "DDQ", "-")]
    + [("Random", "C-DDQ", "-")]
    + [("EFS", "S-DDQ", s) for s in ("EMD", "EDD", "EED")]
    + [("EFS", "SC-DDQ", s) for s in ("EMD", "EDD", "EED")]
    + [("DFS", "S-DDQ", s) for s in ("DME", "DEE", "DDM")]
    + [("DFS", "SC-DDQ", s) for s in ("DME", "DEE", "DDM")]
)


@dataclass
class StageActionDistribution:
    stage: int
    probabilities: np.ndarray | None  # None flags an empty stage

    @property
    def empty(self) -> bool:
        return self.probabilities is None


@dataclass
class CorrelationResult:
    stage: int
    r: float
    n: int


def action_distribution(counts, stage: int = 0) -> StageActionDistribution:
    counts = np.asarray(counts, dtype=np.float64)
    if (counts < 0).any():
        raise AnalysisError("action counts must be nonnegative")
    total = counts.sum()
    if total == 0:
        return StageActionDistribution(stage, None)
    return StageActionDistribution(stage, counts / total)


def entropy(dist) -> float:
    """Shannon entropy in bits, with 0 * log 0 taken as 0."""
    if isinstance(dist, StageActionDistribution):
        if dist.empty:
            raise AnalysisError("entropy of an empty distribution is undefined")
        p = dist.probabilities
    else:
        p = np.asarray(dist, dtype=np.float64)
        if p.size == 0:
            raise AnalysisError("entropy of an empty distribution is undefined")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("pearson needs two equal-length vectors")
    if x.size < 2:
        raise AnalysisError("pearson needs at least two samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise AnalysisError("pearson is undefined when a vector has zero variance")
    return float((dx @ dy) / (sx * sy))


# ---- run-directory loading ------------------------------------------------------


@dataclass
class RunArtifacts:
    run_id: str
    method: str
    schedule: str
    seed: int
    success: dict[int, float]  # stage -> success rate
    turns: dict[int, float]
    stage_counts: dict[int, np.ndarray]
    timings: dict[str, float] = field(default_factory=dict)  # timed field -> seconds summed over epochs

    @property
    def strategy(self) -> str:
        return strategy_of(self.schedule)

    def stage_entropy(self, stage: int) -> float | None:
        counts = self.stage_counts.get(stage)
        if counts is None or counts.sum() == 0:
            return None
        return entropy(action_distribution(counts, stage))


def load_run_dir(run_dir: Path) -> RunArtifacts:
    """A run directory's config, evaluations and action counts. A file of
    the wrong shape raises AnalysisError naming the file and the problem."""
    run_dir = Path(run_dir)
    path = run_dir / "config.json"
    config = read_json(path, AnalysisError, "run config")
    with _malformed("run config", path):
        if not isinstance(config, dict):
            raise ValueError("expected a JSON object")
        method, schedule, seed = str(config["method"]), str(config["schedule"]), int(config["seed"])
    success, turns = {}, {}
    path = run_dir / "eval.csv"
    with _malformed("evaluations", path), open(path, newline="", encoding="utf-8") as fh:
        for stage, row in enumerate(csv.DictReader(fh), start=1):
            success[stage] = float(row["success_rate"])
            turns[stage] = float(row["avg_turns"])
    stage_counts: dict[int, np.ndarray] = {}
    path = run_dir / "actions.csv"
    with _malformed("action counts", path), open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            stage, index = int(row["stage"]), int(row["action_index"])
            if not 0 <= index < N_AGENT_ACTIONS:
                raise ValueError(f"action_index {index} is not in [0, {N_AGENT_ACTIONS})")
            stage_counts.setdefault(stage, np.zeros(N_AGENT_ACTIONS, dtype=np.int64))
            stage_counts[stage][index] = int(row["count"])
    return RunArtifacts(
        run_id=run_dir.name,
        method=method,
        schedule=schedule,
        seed=seed,
        success=success,
        turns=turns,
        stage_counts=stage_counts,
        timings=load_timings(run_dir.parent / f"{run_dir.name}.timings.jsonl"),
    )


def load_timings(path: Path) -> dict[str, float]:
    """Each timed field of a ``timings.jsonl`` file (every key but
    ``epoch``) summed over its lines, in the order the fields first appear;
    empty when there is no such file. A line that is not a JSON object of
    finite seconds with a ``total`` raises AnalysisError naming the file."""
    times: dict[str, float] = {}
    if not path.exists():
        return times
    with _malformed("timings", path), open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
            except ValueError:
                raise ValueError(f"line {number} is not JSON") from None
            if not isinstance(obj, dict) or "total" not in obj:
                raise ValueError(f"line {number} is not an object with a 'total'")
            for key, seconds in obj.items():
                if key == "epoch":
                    continue
                if (not isinstance(seconds, (int, float)) or isinstance(seconds, bool)
                        or not math.isfinite(seconds)):
                    raise ValueError(f"line {number}: {key} is not a number of seconds: {seconds!r}")
                times[key] = times.get(key, 0.0) + seconds
    return times


@contextlib.contextmanager
def _malformed(what: str, path: Path):
    """Raise a missing field, a malformed value or an unreadable file in the
    block as AnalysisError, with ``what`` and ``path``."""
    try:
        yield
    except KeyError as exc:
        raise AnalysisError(f"{what} {path}: no {exc.args[0]!r} field") from None
    except (TypeError, ValueError, OSError, csv.Error) as exc:
        raise AnalysisError(f"{what} {path}: {exc}") from None


def discover_runs(runs_dir) -> list[RunArtifacts]:
    """Every complete run directory under ``runs_dir``; each incomplete one
    is named on stderr with the files it lacks."""
    runs = []
    for child in sorted(Path(runs_dir).iterdir()):
        if child.is_dir():
            missing = [name for name in RUN_FILES if not (child / name).exists()]
            if missing:
                print(f"skipped {child}: no {', '.join(missing)}", file=sys.stderr)
            else:
                runs.append(load_run_dir(child))
    return runs


# ---- report emission ---------------------------------------------------------------


def _condition_key(run: RunArtifacts):
    return (run.strategy, run.method, run.schedule if run.schedule != "RANDOM" else "-")


def _ordered_conditions(runs):
    present = {}
    for run in runs:
        present.setdefault(_condition_key(run), []).append(run)
    ordered = [c for c in _CONDITION_ORDER if c in present]
    extras = sorted(c for c in present if c not in _CONDITION_ORDER)
    return [(c, present[c]) for c in ordered + extras]


def _stage_table(path, runs, cell_fn, digits):
    """Condition x stage table, averaging same-condition runs; absent -> ''."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "method", "schedule", "S1", "S2", "S3", "S4"])
        for (strategy, method, schedule), members in _ordered_conditions(runs):
            row = [strategy, method, schedule]
            for stage in (1, 2, 3, 4):
                vals = [v for v in (cell_fn(r, stage) for r in members) if v is not None]
                row.append(f"{np.mean(vals):.{digits}f}" if vals else "")
            w.writerow(row)


def build_report(runs_dir, out_dir) -> dict[str, Path]:
    """Emit every table and figure-data file for a set of finished runs."""
    runs = discover_runs(runs_dir)
    if not runs:
        raise AnalysisError(f"no completed runs found under {runs_dir}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    paths["table4"] = out / "table4.csv"
    _stage_table(paths["table4"], runs, lambda r, s: r.success.get(s), 2)
    paths["table5"] = out / "table5.csv"
    _stage_table(paths["table5"], runs, lambda r, s: r.turns.get(s), 2)
    paths["table6"] = out / "table6.csv"
    _stage_table(paths["table6"], runs, lambda r, s: r.stage_entropy(s), 2)

    paths["entropy"] = out / "entropy.csv"
    with open(paths["entropy"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "stage", "entropy"])
        for run in runs:
            for stage in (1, 2, 3, 4):
                h = run.stage_entropy(stage)
                w.writerow([run.run_id, stage, "" if h is None else f"{h:.4f}"])

    paths["distributions"] = out / "distributions.csv"
    with open(paths["distributions"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "stage", "action_index", "probability"])
        for run in runs:
            for stage in (1, 2, 3, 4):
                dist = action_distribution(run.stage_counts.get(stage, np.zeros(N_AGENT_ACTIONS)), stage)
                if dist.empty:
                    continue
                for idx, p in enumerate(dist.probabilities):
                    w.writerow([run.run_id, stage, idx, f"{p:.6f}"])

    paths["success_vs_turns"] = out / "success_vs_turns.csv"
    with open(paths["success_vs_turns"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "strategy", "method", "schedule", "success_s4", "turns_s4"])
        for run in runs:
            w.writerow([
                run.run_id, run.strategy, run.method, run.schedule,
                "" if 4 not in run.success else f"{run.success[4]:.4f}",
                "" if 4 not in run.turns else f"{run.turns[4]:.2f}",
            ])

    # stage-wise success curves grouped by curiosity x strategy; scheduled
    # conditions average their schedules, unscheduled methods stand alone
    paths["success_curves"] = out / "success_curves.csv"
    groups: dict[str, list[RunArtifacts]] = {}
    for run in runs:
        if run.method in ("S-DDQ", "SC-DDQ"):
            prefix = "curiosity" if run.method == "SC-DDQ" else "nocuriosity"
            key = f"{prefix}_{run.strategy}"
        else:
            key = run.method
        groups.setdefault(key, []).append(run)
    with open(paths["success_curves"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "stage", "mean_success"])
        for key in sorted(groups):
            for stage in (1, 2, 3, 4):
                vals = [r.success[stage] for r in groups[key] if stage in r.success]
                w.writerow([key, stage, f"{np.mean(vals):.4f}" if vals else ""])

    # where each run's wall clock went: one row per timed field, its share of the summed ``total``
    paths["timings"] = out / "timings.csv"
    with open(paths["timings"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "op", "seconds", "share"])
        for run in runs:
            total = run.timings.get("total", 0.0)
            for op, seconds in run.timings.items():
                w.writerow([run.run_id, op, f"{seconds:.6f}", f"{seconds / total:.4f}" if total > 0 else ""])

    # correlation of per-run stage entropy against per-run final success
    paths["correlation"] = out / "correlation.csv"
    with open(paths["correlation"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "r", "n"])
        for result in stage_success_correlations(runs):
            cell = "" if result.r is None or math.isnan(result.r) else f"{result.r:.4f}"
            w.writerow([result.stage, cell, result.n])

    return paths


def stage_success_correlations(runs) -> list[CorrelationResult]:
    """Per-stage Pearson r of run entropy against final success rate.

    Undefined correlations (fewer than two runs, or zero variance) carry
    r = nan; callers render those as absent rather than fabricating values.
    """
    results = []
    for stage in (1, 2, 3, 4):
        points = [(run.stage_entropy(stage), run.success.get(4)) for run in runs]
        points = [(h, s) for h, s in points if h is not None and s is not None]
        n = len(points)
        if n < 2:
            results.append(CorrelationResult(stage, float("nan"), n))
            continue
        try:
            r = pearson([p[0] for p in points], [p[1] for p in points])
        except AnalysisError:
            r = float("nan")
        results.append(CorrelationResult(stage, r, n))
    return results
