"""Training benchmark for dialogrl.

Runs one training workload through dialogrl's public API, checks its
outputs, and prints one JSON object as the last line of standard output:

    python3 bench/run.py --workload dqn_full --seed 7 --seconds 35 --trace 0

Workloads (see README.md): ``dqn_full``, ``ddq_random``, ``scddq_emd``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds traced and reports per-layer metrics. ``--smoke`` shrinks the data
and the runs so that every check and the traced run finish in seconds.

Set-up and epoch times are normalised to a fixed reference kernel timed in
the same process, because this program's speed on a shared machine moves by
tens of percent from second to second, and the ratio to the kernel moves far
less. README.md explains the method.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# gen-data's defaults make the canonical sizes (991 movies, 137 goals); the
# benchmark passes its --seed as the data seed, and seed 7 gives the canonical files.
DEFAULT_SEED = 7
SMOKE_DATA = ["--movies", "60", "--goals-spec", "1:6,2:3,3:3,4:3,5:2"]
SMOKE_CONFIG = dict(real_dialogs_per_epoch=4, planning_rounds=1, warm_start_dialogs=10,
                    eval_episodes=5)


@dataclass(frozen=True)
class Workload:
    method: str
    schedule: str
    epochs: int  # the run's configured length, which sets the stage boundaries
    start: int   # epochs trained untimed once per run; every round resumes from there
    window: int  # epochs timed per data set and trainer seed in a round
    block: int   # epochs timed between two reference samples at block edges
    # A round is one window per data set and trainer seed. Every round repeats
    # the same seeded work, so rounds are identical and their median is robust
    # to the machine's bursts; the data seed (--seed) varies the inputs.
    trainer_seeds: tuple[int, ...]
    data_sets: int = 1  # generated from --seed, --seed + DATA_SEED_STEP, ...


WORKLOADS = {
    # Complete canonical runs.
    "dqn_full": Workload("DQN", "RANDOM", 300, 0, 300, 25, (1, 2, 3)),
    # Epochs 10-19 of a canonical run, past the first epochs in which the policy
    # ends most dialogs at once and the young world model rolls out to the turn
    # cap. How much work these epochs do depends on the data, so three data sets.
    "ddq_random": Workload("DDQ", "RANDOM", 300, 10, 10, 1, (1,), data_sets=3),
    # A 4-epoch run: one epoch per stage, so the EMD schedule moves goal difficulty.
    "scddq_emd": Workload("SC-DDQ", "EMD", 4, 0, 4, 1, (1,)),
}

SETUPS_PER_RUN = 8
DATA_SEED_STEP = 1000
RANDOM_POLICY_EPISODES = 300
EDGE_CALLS = 5  # kernel calls per sample at a block edge
SAMPLE_GAP_S = 0.05
# Nominal duration of one reference kernel call. Normalised times are
# (wall time / measured kernel time) * REF_S, i.e. seconds at the speed the
# kernel runs at when it takes REF_S, which is about its time on an idle core
# of the machine in README.md.
REF_S = 1e-3

# ---- reference kernel ------------------------------------------------------------

_RNG = np.random.default_rng(20240201)
# Weight shapes of the program's Q-net, world model and curiosity model.
_NETS = {
    "q": [(129, 80), (80, 29)],
    "world": [(158, 80), (80, 80), (80, 80), (80, 35)],
    "curiosity": [(158, 80), (80, 80), (80, 80), (80, 129)],
}
_W = {k: [(_RNG.standard_normal(s) * 0.1, np.zeros(s[1])) for s in v] for k, v in _NETS.items()}
_ACTIONS = np.eye(29)


class _Slot(IntEnum):
    A = 0
    B = 1
    C = 2
    D = 3
    E = 4
    F = 5


@dataclass
class _State:
    turn: int = 0
    informs: dict = field(default_factory=dict)


_INDEX: dict = {}
for _i in range(3000):
    _INDEX.setdefault((_Slot(_i % 6), f"v{_i % 37}"), set()).add(_i)


def _forward(layers, x):
    for w, b in layers:
        x = np.tanh(x @ w + b)
    return x


def reference_kernel() -> float:
    """Fixed work shaped like this program's: simulator turns (a tracker object,
    an inverted-index query, a transcript-style dict, a one-row state encoding
    and Q forward) and planning turns (a 29-row curiosity-shaped forward and a
    one-row world-model-shaped forward)."""
    acc = 0.0
    for i in range(12):
        v = np.zeros(129)
        v[i] = 1.0
        v[86 + i] = 1.0
        acc += int(np.argmax(_forward(_W["q"], v[None, :])))
        st = _State(turn=i)
        for j in range(6):
            st.informs[_Slot(j)] = f"v{(i + j) % 37}"
        sets = sorted((_INDEX.get((s, x.strip().lower()), set()) for s, x in st.informs.items()),
                      key=len)
        acc += len(set.intersection(*sets[:2]))
        log = {"turn": st.turn, "inform": {s.name: x for s, x in st.informs.items()}}
        acc += len(log["inform"])
        if i % 4 == 0:
            x = np.concatenate([np.tile(v, (29, 1)), _ACTIONS], axis=1)
            acc += float(_forward(_W["curiosity"], x)[:, 0].max())
            acc += float(_forward(_W["world"], x[i:i + 1]).sum())
    return acc


class ReferenceClock:
    """Reference kernel samples for one timed block at a time.

    A block is sampled at both edges and, when ``interleave`` is set, inside:
    a one-shot SIGALRM timer, re-armed after each sample, runs one kernel call
    every SAMPLE_GAP_S of wall time, between whichever bytecodes the program
    is executing, so the samples do not depend on which program functions
    run. The kernel time spent inside the block is taken out of its wall time.
    """

    def __init__(self, interleave: bool):
        self.interleave = interleave
        self.block: list[float] = []  # per-call kernel times of the current block
        self.inside = 0.0
        self._armed = False
        self._handler = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._armed:
            self.inside += self._sample(1)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_GAP_S)

    def _sample(self, calls: int) -> float:
        """Time ``calls`` kernel calls after one untimed call; return the time of all.

        The first call brings the kernel's data back into cache, so a sample
        inside a block does not depend on how much of the cache the program
        had just used: measured on SC-DDQ, single calls inside blocks took
        34 % longer than the back-to-back calls at block edges.
        """
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        for _ in range(calls):
            reference_kernel()
        t2 = time.perf_counter()
        self.block.append((t2 - t1) / calls)
        return t2 - t0

    def open_block(self, first: bool) -> None:
        """Start a block; after the first, the last block's closing edge opens it."""
        if first:
            self.block = []
            self._sample(EDGE_CALLS)
        else:
            self.block = self.block[-1:]
        self.inside = 0.0
        if self.interleave:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_GAP_S)

    def close_block(self, wall: float) -> tuple[float, float]:
        """(wall time less kernel time, in kernel calls; mean kernel time per call)."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample(EDGE_CALLS)
        ref = statistics.fmean(self.block)
        return (wall - self.inside) / ref, ref

    def close(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


# ---- inputs -----------------------------------------------------------------------------


def make_data(data: Path, seed: int, smoke: bool) -> tuple[Path, Path]:
    """KB and goal files from ``dialogrl gen-data`` with the given data seed."""
    from dialogrl import cli

    argv = ["gen-data", "--seed", str(seed), "--out-dir", str(data)] + (SMOKE_DATA if smoke else [])
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"gen-data failed with exit code {code}")
    return data / "kb.json", data / "goals.json"


def random_policy_success(kb_path, goals_path, seed: int, episodes: int) -> float:
    """Success rate of uniformly random agent actions on every goal of the set."""
    from dialogrl.domain import default_roster, load_goals, load_kb
    from dialogrl.env import DialogEnv, RewardConfig

    kb, goals = load_kb(kb_path), load_goals(goals_path)
    roster = default_roster()
    rng = np.random.default_rng([seed, 1])
    env = DialogEnv(kb, roster, RewardConfig(max_turns=checks.MAX_TURNS), rng=rng)
    wins = 0
    for _ in range(episodes):
        env.reset(goals[int(rng.integers(len(goals)))])
        while not env.done:
            env.step(int(rng.integers(roster.n_agent_actions)))
        wins += bool(env.success)
    return wins / episodes


# ---- one round: set-up, the epoch window, evaluations and run-dir output ----------------


class PlanCounter:
    """Records how many simulated transitions each call of ``plan`` stored."""

    def __init__(self):
        import dialogrl.training as training

        self._module = training
        self._plan = training.plan
        self.stored: list[int] = []

        def counted(*args, **kwargs):
            n = self._plan(*args, **kwargs)
            self.stored.append(n)
            return n

        training.plan = counted

    def take(self) -> int:
        n = sum(self.stored)
        self.stored.clear()
        return n

    def close(self) -> None:
        self._module.plan = self._plan


@dataclass
class RoundResult:
    """One round: the set-ups and the epoch window of every trainer seed."""

    setups: list[float] = field(default_factory=list)  # normalised, in seconds at REF_S
    norm_epoch_time: float = 0.0  # sum over blocks of wall time / reference time
    ref_samples: list[float] = field(default_factory=list)
    epochs: int = 0
    transitions: int = 0
    evaluations: int = 0
    failed: int = 0
    final_success: list[tuple[int, float]] = field(default_factory=list)  # (data set, rate)
    run_dirs: list[Path] = field(default_factory=list)  # each finished window's run directory
    peak_rss_mb: float = 0.0  # process peak after the round
    buffer_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def epoch_s(self) -> float:
        return self.norm_epoch_time * REF_S / self.epochs

    @property
    def transitions_per_s(self) -> float:
        return self.transitions / (self.norm_epoch_time * REF_S)


def _newest(buffer, n: int) -> list:
    n = min(n, len(buffer))
    return [buffer[i] for i in range(len(buffer) - n, len(buffer))]


def epoch_range(wl: Workload, smoke: bool) -> tuple[int, int, int]:
    """(configured epochs, first timed epoch, end of the window)."""
    if smoke:
        start = 2 if wl.start else 0
        return 4, start, 4
    return wl.epochs, wl.start, wl.start + wl.window


def make_config(wl: Workload, seed: int, kb_path, goals_path, out_dir: Path, smoke: bool):
    from dialogrl.training import RunConfig

    return RunConfig(method=wl.method, schedule=wl.schedule, seed=seed,
                     epochs=epoch_range(wl, smoke)[0], kb_path=str(kb_path),
                     goals_path=str(goals_path), out_dir=str(out_dir),
                     **(SMOKE_CONFIG if smoke else {}))


def train_to_start(windows: dict, start: int, out: Path) -> dict:
    """Train each run untimed up to the window's first epoch and pickle its trainer.

    ``windows`` maps (data set, trainer seed) to a RunConfig; the result maps
    it to the pickle. Each run trains in a forked child, the children side
    by side, so that the memory they leave in the allocator does not count
    in this process's peak resident memory.
    """
    paths, children = {}, {}
    for (j, seed), cfg in windows.items():
        paths[j, seed] = out / f"start-{j}-{seed}.pkl"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                from dialogrl.domain import load_goals, load_kb
                from dialogrl.training import Trainer

                trainer = Trainer(cfg, load_kb(cfg.kb_path), load_goals(cfg.goals_path))
                trainer.warm_start()
                for epoch in range(start):
                    trainer.run_epoch(epoch)
                with open(paths[j, seed], "wb") as fh:
                    pickle.dump(trainer, fh, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        children[pid] = f"{cfg.run_id} on data set {j}"
    failed = [run_id for pid, run_id in children.items() if os.waitpid(pid, 0)[1] != 0]
    if failed:
        raise SystemExit(f"training {', '.join(failed)} up to epoch {start} failed")
    return paths


def train(cfg, data_set: int, start: int, end: int, block: int, snapshot: Path | None,
          run_dir: Path, res: RoundResult, counter: PlanCounter, clock: ReferenceClock,
          tracer=None) -> None:
    """Set up SETUPS_PER_RUN times, then run epochs start..end-1 with their evaluations.

    With a snapshot the window resumes from the pickled trainer, which was
    trained up to ``start``; the set-ups are then timed only.
    """
    from dialogrl.curriculum import stage_boundaries, stage_index
    from dialogrl.domain import load_goals, load_kb
    from dialogrl.errors import DialogRlError
    from dialogrl.training import Trainer, write_actions_csv, write_eval_csv, write_metrics_csv

    span = tracer.span if tracer is not None else (lambda _: contextlib.nullcontext())
    trainer = None
    for i in range(SETUPS_PER_RUN):
        trainer = None  # one trainer alive at a time
        clock.open_block(first=i == 0)
        t0 = time.perf_counter()
        with span("domain.load"):
            kb, goals = load_kb(cfg.kb_path), load_goals(cfg.goals_path)
        trainer = Trainer(cfg, kb, goals)
        trainer.warm_start()
        norm, _ = clock.close_block(time.perf_counter() - t0)
        res.setups.append(norm * REF_S)
    if snapshot is not None:
        trainer = None
        with open(snapshot, "rb") as fh:
            trainer = pickle.load(fh)
    counter.take()

    # Evaluations at the stage boundaries in the window and at its end.
    checkpoints = sorted({b for b in stage_boundaries(cfg.epochs) if start < b < end} | {end})
    reports, evals = [], []
    epoch = start
    try:
        while epoch < end:
            stop = min(epoch + block, min(c for c in checkpoints if c > epoch))
            clock.open_block(first=epoch == start)
            t0 = time.perf_counter()
            for e in range(epoch, stop):
                reports.append(trainer.run_epoch(e))
            norm, ref = clock.close_block(time.perf_counter() - t0)
            res.epochs += stop - epoch
            res.ref_samples.append(ref)
            res.norm_epoch_time += norm

            new_real = int(sum(r.action_counts.sum() for r in reports[epoch - stop:]))
            new_sim = counter.take()
            res.transitions += new_real + new_sim
            res.problems += checks.real_transitions(_newest(trainer.real_buffer, new_real))
            if cfg.uses_planning:
                if new_sim == 0:
                    res.problems.append(
                        f"epochs {epoch}..{stop - 1}: planning stored no transitions")
                res.problems += checks.simulated_transitions(_newest(trainer.sim_buffer, new_sim))
            epoch = stop
            if epoch in checkpoints:
                evals.append(trainer.evaluate(epoch, stage_index(epoch - 1, cfg.epochs)))
                res.evaluations += 1
                with span("training.write"):
                    trainer.agent.save(run_dir / f"checkpoint_ep{epoch}.json")
    except DialogRlError as exc:
        # The rest of this window cannot go on; count every operation it still had.
        res.failed += (end - epoch) + (len(checkpoints) - len(evals))
        res.problems.append(f"{cfg.run_id} epoch {epoch}: {type(exc).__name__}: {exc}")
        return

    with span("training.write"):
        (run_dir / "config.json").write_text(json.dumps(cfg.to_json(), indent=1) + "\n",
                                             encoding="utf-8")
        write_metrics_csv(run_dir / "metrics.csv", cfg.run_id, cfg, reports)
        write_eval_csv(run_dir / "eval.csv", cfg.run_id, evals)
        write_actions_csv(run_dir / "actions.csv", cfg.run_id, trainer.stage_action_counts)
    res.run_dirs.append(run_dir)
    res.problems += checks.run_dir(run_dir, range(start, end), checkpoints,
                                   [e.success_rate for e in evals])
    res.problems += checks.losses({
        "dqn": [r.dqn_loss for r in reports],
        **({"world": [r.world_loss for r in reports]} if cfg.uses_planning else {}),
        **({"curiosity": [r.curiosity_loss for r in reports]} if cfg.uses_curiosity else {}),
    })
    if trainer.curiosity is not None:
        for exp in _newest(trainer.real_buffer, 20) + _newest(trainer.sim_buffer, 20):
            out = trainer.curiosity.scores(exp.s)
            res.problems += checks.curiosity_values(out[0] if isinstance(out, tuple) else out)
    res.final_success.append((data_set, evals[-1].success_rate))
    if tracer is not None:
        from tracing import deep_bytes

        res.buffer_bytes = deep_bytes(trainer.real_buffer) + deep_bytes(trainer.sim_buffer)


def configs(wl: Workload, datasets: list, out: Path, smoke: bool) -> dict:
    """RunConfig of every window, keyed by (data set, trainer seed)."""
    return {(j, seed): make_config(wl, seed, kb_path, goals_path, out / f"data{j}", smoke)
            for j, (kb_path, goals_path) in enumerate(datasets) for seed in wl.trainer_seeds}


def run_round(name: str, smoke: bool, datasets: list, round_dir: Path, snapshots: dict,
              counter: PlanCounter, clock: ReferenceClock, tracer=None) -> RoundResult:
    """One window per data set and trainer seed; ``snapshots`` holds their pickled starts."""
    wl = WORKLOADS[name]
    _, start, end = epoch_range(wl, smoke)
    res = RoundResult()
    for (j, seed), cfg in configs(wl, datasets, round_dir, smoke).items():
        run_dir = Path(cfg.out_dir) / cfg.run_id
        run_dir.mkdir(parents=True)
        train(cfg, j, start, end, wl.block, snapshots.get((j, seed)), run_dir, res, counter,
              clock, tracer)
    res.peak_rss_mb = peak_rss_mb()
    return res


# ---- a run: identical rounds until the time is up --------------------------------------


def run(args) -> dict:
    name = args.workload
    out = OUT / f"{name}-{args.seed}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = WORKLOADS[name]
    data_seeds = [args.seed + DATA_SEED_STEP * j for j in range(wl.data_sets)]
    datasets = [make_data(out / f"data{j}", seed, args.smoke) for j, seed in enumerate(data_seeds)]
    problems = [p for kb_path, goals_path in datasets
                for p in checks.goals_in_kb_files(kb_path, goals_path)]
    random_success = None
    if name == "dqn_full" and not args.smoke:
        random_success = [random_policy_success(kb_path, goals_path, seed, RANDOM_POLICY_EPISODES)
                          for (kb_path, goals_path), seed in zip(datasets, data_seeds)]

    snapshots = {}
    _, start_epoch, _ = epoch_range(wl, args.smoke)
    if start_epoch:
        snapshots = train_to_start(configs(wl, datasets, out, args.smoke), start_epoch, out)

    # In traced runs both rounds of a pair are sampled at block edges only, so
    # that kernel calls do not land in spans and the pair is normalised alike.
    counter, clock = PlanCounter(), ReferenceClock(interleave=not args.trace)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    try:
        while not plain or time.perf_counter() - start + longest <= args.seconds:
            t0 = time.perf_counter()
            i = len(plain)
            plain.append(run_round(name, args.smoke, datasets, out / f"round{i}", snapshots,
                                   counter, clock))
            if tracer is not None:
                # The same round again, traced; the pair gives the tracing overhead.
                tracing.install(tracer)
                try:
                    traced.append(run_round(name, args.smoke, datasets, out / f"round{i}-traced",
                                            snapshots, counter, clock, tracer))
                finally:
                    tracer.unpatch()
            longest = max(longest, time.perf_counter() - t0)
    finally:
        counter.close()
        clock.close()

    rounds = plain + traced
    for r in rounds:
        problems += r.problems
        # Every round repeats the same seeded runs, traced or not: outputs must match.
        for a, b in zip(rounds[0].run_dirs, r.run_dirs):
            problems += checks.same_outputs(a, b)
    if random_success is not None:
        for r in plain:
            for j, success in r.final_success:
                problems += checks.learning(success, random_success[j])
    result = {
        "correct": not problems,
        "attempted": sum(r.epochs + r.evaluations + r.failed for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": per_layer(tracer, plain, traced, out) if tracer is not None
        else end_to_end(plain),
    }
    summary = {
        "workload": name, "seed": args.seed, "data_seeds": data_seeds, "rounds": len(plain),
        "final_success": [r.final_success for r in plain],
        "random_policy_success": random_success,
        "round_epoch_s": [r.epoch_s for r in plain],
        "round_transitions": [r.transitions for r in plain],
        "round_setup_s": [statistics.median(r.setups) for r in plain],
        "round_reference_s": [statistics.median(r.ref_samples) for r in plain],
        "round_peak_rss_mb": [r.peak_rss_mb for r in plain],
        "problems": problems[:20], "wall_s": time.perf_counter() - start,
    }
    (out / "summary.json").write_text(json.dumps({**summary, **result}, indent=1) + "\n",
                                      encoding="utf-8")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds) -> dict:
    return {
        "setup_s": _metric(statistics.median(s for r in rounds for s in r.setups), "s"),
        "epoch_s": _metric(statistics.median(r.epoch_s for r in rounds), "ref_s"),
        "transitions_per_s": _metric(statistics.median(r.transitions_per_s for r in rounds),
                                     "1/ref_s"),
        # Process peak after the first round: later rounds only add allocator
        # fragmentation, and how many rounds fit depends on the machine's speed.
        "peak_rss_mb": _metric(rounds[0].peak_rss_mb, "MB"),
    }


def per_layer(tracer, plain, traced, out: Path) -> dict:
    E = "training.run_epoch"
    epochs = sum(r.epochs for r in traced)
    setups = sum(len(r.setups) for r in traced)
    evaluations = sum(r.evaluations for r in traced)

    def per_epoch(x):
        return x / epochs

    m = {
        "domain.load.s": _metric(tracer.total_s("domain.load", "domain.load") / setups, "s/setup"),
        "training.warm_start.s": _metric(
            tracer.total_s("training.warm_start", "training.warm_start") / setups, "s/setup"),
        "training.run_epoch.s": _metric(per_epoch(tracer.total_s(E, E)), "s/epoch"),
    }
    for layer in ("domain.match_ids", "env.step", "env.reset", "env.encode_state",
                  "agent.select_action", "nets.forward", "nets.train_minibatch",
                  "world.predict", "curiosity.scores"):
        m[f"{layer}.calls"] = _metric(per_epoch(tracer.calls(E, layer)), "calls/epoch")
        m[f"{layer}.self_s"] = _metric(per_epoch(tracer.self_s(E, layer)), "s/epoch")
    for layer in ("agent.update", "agent.buffer.sample", "world.train", "curiosity.train"):
        m[f"{layer}.self_s"] = _metric(per_epoch(tracer.self_s(E, layer)), "s/epoch")
    forward_calls = tracer.calls(E, "nets.forward")
    rows = tracer.counter(E, "nets.forward.rows")
    m.update({
        "env.transcript.entries": _metric(per_epoch(tracer.counter(E, "env.transcript.entries")),
                                          "count/epoch"),
        "agent.update.batches": _metric(per_epoch(tracer.counter(E, "agent.update.batches")),
                                        "batches/epoch"),
        "agent.buffer.bytes": _metric(max(r.buffer_bytes for r in traced), "bytes"),
        "nets.forward.rows": _metric(per_epoch(rows), "rows/epoch"),
        "nets.forward.rows_per_call": _metric(rows / forward_calls if forward_calls else 0.0,
                                              "rows/call"),
        "world.plan.s": _metric(per_epoch(tracer.total_s(E, "world.plan")), "s/epoch"),
        "world.plan.rollouts": _metric(per_epoch(tracer.counter(E, "world.plan.rollouts")),
                                       "rollouts/epoch"),
        "world.plan.transitions": _metric(
            per_epoch(tracer.counter(E, "world.plan.transitions")), "count/epoch"),
        "curiosity.scores.discarded_rows": _metric(
            per_epoch(tracer.counter(E, "curiosity.scores.discarded_rows")), "rows/epoch"),
        "curiosity.scores.extra_calls": _metric(
            per_epoch(max(0, tracer.calls(E, "curiosity.scores")
                          - tracer.calls(E, "agent.select_action"))), "calls/epoch"),
        "training.evaluate.s": _metric(
            tracer.total_s("training.evaluate", "training.evaluate") / evaluations, "s/eval"),
        "training.write.s": _metric(
            tracer.total_s("training.write", "training.write") / len(traced), "s/round"),
        "trace.overhead.epoch_s": _metric(statistics.median(r.epoch_s for r in traced)
                                          - statistics.median(r.epoch_s for r in plain), "ref_s"),
    })
    tracer.write(out / "trace.npz")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="data seed for gen-data; 7 gives the canonical files")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and short runs: checks and tracing in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "dialogrl" / "__init__.py").is_file():
        print(f"error: dialogrl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    for key, metric in result["metrics"].items():
        print(f"{key:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
