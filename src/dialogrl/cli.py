"""Command-line entry point.

Subcommands: gen-data (KB + goal files), train (one configured run),
eval (re-evaluate a saved checkpoint), matrix (a method x schedule x seed
grid of runs), report (paper-style tables from finished runs).

Exit codes: 0 success, 1 when a matrix cell fails, 2 usage or configuration
problems, 3 runtime numeric failures.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .agent import DqnAgent
from .analysis import build_report
from .curriculum import ALL, LEVELS, build_buffers, schedule_levels
from .domain import (
    DEFAULT_GOAL_COUNTS,
    default_roster,
    generate_goal_set,
    generate_kb,
    load_goals,
    load_kb,
    save_goals,
    save_kb,
)
from .env import DialogEnv, RewardConfig, render_act
from .errors import AnalysisError, ConfigError, DialogRlError, NumericError, ParseError, make_dir, read_json
from .seeding import derive_seed, spawn_rng
from .training import (
    METHODS,
    SCHEDULED_METHODS,
    RunConfig,
    evaluate_policy,
    run_experiment,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_goal_counts(text: str) -> dict[int, int]:
    counts = {}
    for part in text.split(","):
        try:
            k, v = (int(x) for x in part.split(":"))
        except ValueError:
            raise ConfigError(f"goals-spec: expected 'k:n,k:n,...', got {text!r}") from None
        if k in counts:
            raise ConfigError(f"goals-spec: request-slot count {k} is given twice in {text!r}")
        counts[k] = v
    return counts


def cmd_gen_data(args) -> int:
    if args.movies < 1:
        print("error: --movies must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    counts = _parse_goal_counts(args.goals_spec)
    out = make_dir(args.out_dir, ConfigError, "out-dir")
    kb = generate_kb(seed=args.seed, n_movies=args.movies)
    goals = generate_goal_set(kb, counts, seed=args.seed)
    save_kb(kb, out / "kb.json")
    save_goals(goals, out / "goals.json")
    buffers = build_buffers(goals)
    print(f"wrote {out / 'kb.json'} ({len(kb)} records) and {out / 'goals.json'} ({len(goals)} goals)")
    print(f"easy={len(buffers.easy)} middle={len(buffers.middle)} difficult={len(buffers.difficult)}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    config.validate()
    for field in ("kb_path", "goals_path"):
        value = getattr(config, field)
        if not value:
            raise ConfigError(f"{field}: required for training runs")
        if not Path(value).exists():
            raise ConfigError(f"{field}: file not found: {value}")
    run_dir = run_experiment(config)
    print(f"run complete: {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"episodes: must be >= 1, got {args.episodes}")
    run_dir = Path(args.run_dir)
    config = RunConfig.load(run_dir / "config.json")
    checkpoints = sorted((int(m[1]), p) for p in run_dir.glob("checkpoint_ep*.json")
                         if (m := re.fullmatch(r"checkpoint_ep(\d+)\.json", p.name)))
    if not checkpoints:
        raise ConfigError(f"run_dir: no checkpoints under {run_dir}")
    path = checkpoints[-1][1] if args.checkpoint is None else run_dir / args.checkpoint
    if not path.exists():
        raise ConfigError(f"checkpoint: file not found: {path}")
    agent = DqnAgent.load(path)
    from .training import load_run_data

    kb, goals = load_run_data(config)  # honors paths or regenerates from config
    buffers = build_buffers(goals)
    pool = buffers.for_level(args.level)
    if not pool:
        raise ConfigError(f"level: no {args.level} goals in {config.goals_path}")
    rewards = RewardConfig(max_turns=config.max_turns)
    rng = spawn_rng(args.seed, "cli-eval")
    if args.show:
        _show_dialogs(agent, kb, pool, rewards, rng, args.episodes)
        return EXIT_OK
    report = evaluate_policy(
        lambda s, r: agent.select_action(s, r, epsilon=0.0),
        kb, default_roster(), pool, args.episodes, rng, rewards, level=args.level,
    )
    print(f"{path.name} on {args.level}: success_rate={report.success_rate:.4f} "
          f"avg_turns={report.avg_turns:.2f} episodes={report.n_episodes}")
    return EXIT_OK


def _show_dialogs(agent, kb, goals, rewards, rng, episodes) -> None:
    env = DialogEnv(kb, rewards=rewards, rng=rng)
    for _ in range(episodes):
        goal = goals[int(rng.integers(len(goals)))]
        _, first = env.reset(goal)
        print(f"--- goal: requests={[s.label for s in goal.request_slots]} "
              f"informs={{{', '.join(f'{s.label}: {v}' for s, v in goal.inform_slots.items())}}}")
        print(f"usr: {render_act(first)}")
        while not env.done:
            a = agent.select_action(env.encoding, rng, epsilon=0.0)
            act = env.realize_agent_action(a)
            outcome = env.step(a)
            print(f"sys: {render_act(act)}")
            if not outcome.done:
                print(f"usr: {render_act(outcome.user_act)}")
        print(f"=== {'SUCCESS' if env.success else 'FAILURE'}\n")


def expand_matrix(spec: dict) -> list[tuple[RunConfig, int]]:
    """Grid of (config, seed index) pairs from a matrix config.

    Unscheduled methods run under RANDOM, scheduled methods cross with every
    schedule. The rng seed of each run derives from the master seed plus the
    cell coordinates, so results do not depend on scheduling order; the
    human-readable seed index names the run directory.

    Every cell's config is validated before any cell runs, and a method,
    schedule or seed listed twice is an error: two cells would write one
    run directory.
    """
    if not isinstance(spec, dict):
        raise ConfigError("matrix: expected a JSON object")
    base = spec.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError(f"matrix: base must be an object, got {base!r}")
    methods = _matrix_list(spec, "methods", [])
    schedules = _matrix_list(spec, "schedules", [])
    seeds = _matrix_list(spec, "seeds", [0])
    master = spec.get("master_seed", 0)
    for name, value in [("master_seed", master)] + [(f"seeds[{i}]", s) for i, s in enumerate(seeds)]:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"matrix: {name} must be an integer, got {value!r}")
    for key, values in (("methods", methods), ("schedules", schedules)):
        for value in values:
            if not isinstance(value, str):
                raise ConfigError(f"matrix: {key}: expected names, got {value!r}")
    for key, values in (("methods", methods), ("schedules", schedules), ("seeds", seeds)):
        if len(set(values)) < len(values):
            repeated = next(v for v in values if values.count(v) > 1)
            raise ConfigError(f"matrix: {key}: {repeated!r} is listed twice")
    custom = RunConfig.from_json(base).custom_schedules
    for schedule in schedules:  # also those no listed method uses: a typo there is still one
        try:
            schedule_levels(schedule, custom)
        except ConfigError as exc:
            raise ConfigError(f"matrix: schedules: {exc}") from None
    jobs = []
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"matrix: methods: unknown method {method!r}")
        pairs = [(method, s) for s in schedules] if method in SCHEDULED_METHODS else [(method, "RANDOM")]
        for method_name, schedule in pairs:
            for seed_index in seeds:
                cfg = RunConfig.from_json({**base, "method": method_name, "schedule": schedule})
                cfg.seed = derive_seed(master, method_name, schedule, seed_index) % (1 << 31)
                try:
                    cfg.validate()
                except ConfigError as exc:
                    raise ConfigError(f"matrix: cell {method_name} {schedule}: {exc}") from None
                jobs.append((cfg, seed_index))
    return jobs


def _matrix_list(spec: dict, key: str, default: list) -> list:
    value = spec.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"matrix: {key} must be a list, got {value!r}")
    return value


def _matrix_worker(payload):
    """Run one cell; a failure leaves its traceback in ``<out_dir>/<run_id>/error.txt``."""
    obj, display_seed = payload
    config = RunConfig.from_json(obj)
    # the directory and the run_id column carry the human-readable seed
    # index; the echoed config keeps the derived seed
    run_id = f"{config.method}_{config.schedule}_{display_seed}"
    error_path = Path(config.out_dir) / run_id / "error.txt"
    try:
        run_dir = run_experiment(config, run_id=run_id)
    except Exception as exc:  # record the failure, let the driver aggregate
        error = f"{type(exc).__name__}: {exc}"
        try:
            error_path.parent.mkdir(parents=True, exist_ok=True)
            error_path.write_text(traceback.format_exc(), encoding="utf-8")
            return run_id, None, f"{error} (traceback in {error_path})"
        except OSError as write_exc:
            return run_id, None, f"{error} (traceback not written: {write_exc})"
    error_path.unlink(missing_ok=True)  # left by an earlier failure of this cell
    return run_id, str(run_dir), None


def cmd_matrix(args) -> int:
    jobs = expand_matrix(read_json(args.config, ConfigError, "config"))
    if not jobs:
        print("matrix is empty: nothing to run")
        return EXIT_OK
    payloads = [(cfg.to_json(), display_seed) for cfg, display_seed in jobs]
    failures = 0
    if args.jobs <= 1:
        results = [_matrix_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_matrix_worker, payloads))
    for run_id, run_dir, error in results:
        if error is None:
            print(f"ok   {run_id} -> {run_dir}")
        else:
            failures += 1
            print(f"FAIL {run_id}: {error}")
    print(f"{len(results) - failures}/{len(results)} runs completed")
    return EXIT_OK if failures == 0 else 1


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    if not runs_dir.is_dir():
        print(f"error: runs directory not found: {runs_dir}", file=sys.stderr)
        return EXIT_USAGE
    try:
        paths = build_report(runs_dir, args.out)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogrl",
        description="Train and analyze movie-ticket dialog policies "
                    "(DQN / DDQ variants with curiosity and curricula).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate the KB and goal files")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--movies", type=int, default=991)
    gen.add_argument("--goals-spec", default=",".join(f"{k}:{v}" for k, v in DEFAULT_GOAL_COUNTS.items()),
                     help="request-slot-count:goal-count pairs, e.g. '1:61,2:16'")
    gen.add_argument("--out-dir", default="data")
    gen.set_defaults(fn=cmd_gen_data)

    train = sub.add_parser("train", help="run one training configuration")
    train.add_argument("--config", required=True, help="path to a RunConfig JSON file")
    train.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a saved checkpoint")
    ev.add_argument("--run-dir", required=True)
    ev.add_argument("--checkpoint", default=None, help="checkpoint file name (default: latest)")
    ev.add_argument("--level", default=ALL, choices=LEVELS)
    ev.add_argument("--episodes", type=int, default=50)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--show", action="store_true", help="print rendered dialogs instead of metrics")
    ev.set_defaults(fn=cmd_eval)

    matrix = sub.add_parser("matrix", help="run a methods x schedules x seeds grid")
    matrix.add_argument("--config", required=True, help="path to a matrix JSON file")
    matrix.add_argument("--jobs", type=int, default=1)
    matrix.set_defaults(fn=cmd_matrix)

    report = sub.add_parser("report", help="build tables and figure data from runs")
    report.add_argument("--runs", required=True)
    report.add_argument("--out", required=True)
    report.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DialogRlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
