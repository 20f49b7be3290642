"""Smoke runs of the benchmark, and proof that each output check can fail.

    python3 -m pytest bench/test_checks.py -q

Each test takes a genuine output of a smoke-sized run, shows that the check
accepts it, then corrupts it and shows that the check rejects it.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import sys

import numpy as np
import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))

from dialogrl.domain import load_goals, load_kb  # noqa: E402
from dialogrl.training import RunConfig, Trainer  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Smoke data, an SC-DDQ trainer after two epochs, and one finished round."""
    out = tmp_path_factory.mktemp("smoke")
    kb_path, goals_path = run.make_data(out / "data", run.DEFAULT_SEED, smoke=True)
    cfg = RunConfig(method="SC-DDQ", schedule="EMD", seed=3, epochs=4, **run.SMOKE_CONFIG)
    trainer = Trainer(cfg, load_kb(kb_path), load_goals(goals_path))
    trainer.warm_start()
    reports = [trainer.run_epoch(e) for e in range(2)]
    counter, clock = run.PlanCounter(), run.ReferenceClock(interleave=True)
    try:
        result = run.run_round("scddq_emd", True, [(kb_path, goals_path)], out / "round", {},
                               counter, clock)
    finally:
        counter.close()
        clock.close()
    return dict(kb=kb_path, goals=goals_path, trainer=trainer, reports=reports,
                run_dir=result.run_dirs[0], result=result)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_passes_its_checks(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", workload, "--seconds", "1", "--trace", trace, "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    # The tracing overhead is a difference of two timings and may come out below 0.
    assert all(m["value"] >= 0 for name, m in result["metrics"].items()
               if name != "trace.overhead.epoch_s")
    if trace == "0":
        assert set(result["metrics"]) == {"setup_s", "epoch_s", "transitions_per_s", "peak_rss_mb"}
    else:
        assert result["metrics"]["env.step.calls"]["value"] > 0
        assert (tmp_path / f"{workload}-{run.DEFAULT_SEED}-smoke" / "trace.npz").is_file()


def test_goal_check(smoke):
    kb = json.loads(smoke["kb"].read_text())
    goals = json.loads(smoke["goals"].read_text())
    assert checks.goals_in_kb(kb, goals) == []
    bad = copy.deepcopy(goals)
    bad[3]["inform_slots"]["moviename"] = "no such movie"
    assert checks.goals_in_kb(kb, bad)


def _newest(buffer, n=200):
    return [copy.copy(e) for e in run._newest(buffer, n)]


def test_real_transition_check(smoke):
    exps = _newest(smoke["trainer"].real_buffer)
    assert checks.real_transitions(exps) == []
    step = next(i for i, e in enumerate(exps) if not e.done)
    end = next(i for i, e in enumerate(exps) if e.done)

    def corrupted(i, **changes):
        bad = [copy.copy(e) for e in exps]
        for k, v in changes.items():
            setattr(bad[i], k, v)
        return checks.real_transitions(bad)

    assert corrupted(step, r=0.0)
    assert corrupted(end, r=-1.0)
    assert corrupted(end, r=50.0)
    assert corrupted(step, a_user=35)
    s = exps[step].s.copy()
    s[checks.TURN_BITS.start + 5] = 1.0 - s[checks.TURN_BITS.start + 5]  # a second turn bit
    assert corrupted(step, s=s)
    s = exps[step].s_next.copy()
    s[checks.KB_BITS] = 0.0
    assert corrupted(step, s_next=s)
    s = exps[step].s.copy()
    s[0] = 0.5
    assert corrupted(step, s=s)


def test_simulated_transition_check(smoke):
    exps = _newest(smoke["trainer"].sim_buffer)
    assert exps and checks.simulated_transitions(exps) == []
    exps[0].a_user = 35
    assert checks.simulated_transitions(exps)
    exps[0].a_user = 2.5
    assert checks.simulated_transitions(exps)


def test_curiosity_check(smoke):
    values = smoke["trainer"].curiosity.scores(smoke["trainer"].real_buffer[0].s)[0]
    assert checks.curiosity_values(values) == []
    for bad in (-1e-3, np.nan, np.inf):
        corrupted = values.copy()
        corrupted[4] = bad
        assert checks.curiosity_values(corrupted)


def test_loss_check(smoke):
    losses = {"dqn": [r.dqn_loss for r in smoke["reports"]],
              "curiosity": [r.curiosity_loss for r in smoke["reports"]]}
    assert checks.losses(losses) == []
    for bad in (float("nan"), None):
        assert checks.losses({**losses, "world": [0.1, bad]})


def test_learning_check():
    assert checks.learning(0.94, 0.33) == []
    assert checks.learning(0.5, 0.33)
    assert checks.learning(0.33, 0.33)


def test_run_dir_check(smoke, tmp_path):
    res = smoke["result"]
    assert res.problems == [] and res.epochs == 4 and res.evaluations == 4
    run_dir = tmp_path / "run"
    shutil.copytree(smoke["run_dir"], run_dir)
    rates = [float(r["success_rate"]) for r in csv.DictReader(open(run_dir / "eval.csv"))]
    assert checks.run_dir(run_dir, range(4), [1, 2, 3, 4], rates) == []
    assert checks.run_dir(run_dir, range(4), [1, 2, 3, 4], [1.0 - rates[0]] + rates[1:])
    assert checks.run_dir(run_dir, range(5), [1, 2, 3, 4], rates)
    assert checks.run_dir(run_dir, range(4), [2, 3, 4], rates)
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    (run_dir / "metrics.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.run_dir(run_dir, range(4), [1, 2, 3, 4], rates)
    (run_dir / "checkpoint_ep2.json").unlink()
    assert checks.run_dir(run_dir, range(4), [1, 2, 3, 4], rates)


def test_same_outputs_check(smoke, tmp_path):
    copy_dir = tmp_path / "run"
    shutil.copytree(smoke["run_dir"], copy_dir)
    assert checks.same_outputs(smoke["run_dir"], copy_dir) == []
    rows = (copy_dir / "actions.csv").read_text().splitlines()
    rows[1] = rows[1][:-1] + str((int(rows[1][-1]) + 1) % 10)
    (copy_dir / "actions.csv").write_text("\n".join(rows) + "\n")
    assert checks.same_outputs(smoke["run_dir"], copy_dir)
