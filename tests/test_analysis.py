import csv
import json
import math

import numpy as np
import pytest

from dialogrl.analysis import (
    CorrelationResult,
    StageActionDistribution,
    action_distribution,
    build_report,
    discover_runs,
    entropy,
    pearson,
)
from dialogrl.errors import AnalysisError
from dialogrl.training import RunConfig, run_experiment


def read_rows(path, reader=csv.reader):
    """Every row of a CSV file, through ``reader`` (``csv.reader`` or ``csv.DictReader``)."""
    with open(path) as fh:
        return list(reader(fh))


def test_action_distribution_normalizes():
    dist = action_distribution(np.full(29, 3.0))
    assert not dist.empty
    assert np.allclose(dist.probabilities, 1 / 29)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_action_distribution_degenerate_and_empty():
    counts = np.zeros(29)
    counts[4] = 10
    dist = action_distribution(counts)
    assert dist.probabilities[4] == 1.0
    empty = action_distribution(np.zeros(29))
    assert empty.empty


def test_action_distribution_rejects_negative():
    with pytest.raises(AnalysisError):
        action_distribution([-1.0] + [1.0] * 28)


def test_action_distribution_random_counts_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dist = action_distribution(rng.integers(0, 100, size=29))
        if not dist.empty:
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_entropy_uniform_29():
    dist = action_distribution(np.ones(29))
    assert entropy(dist) == pytest.approx(math.log2(29), abs=1e-9)


def test_entropy_degenerate_and_two_level():
    one = np.zeros(29)
    one[7] = 5
    assert entropy(action_distribution(one)) == 0.0
    two = np.zeros(29)
    two[3] = two[11] = 4
    assert entropy(action_distribution(two)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_empty_undefined():
    with pytest.raises(AnalysisError):
        entropy(action_distribution(np.zeros(29)))


def test_entropy_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        counts = rng.integers(0, 50, size=29)
        if counts.sum() == 0:
            continue
        p = counts / counts.sum()
        brute = -sum(pi * math.log2(pi) for pi in p if pi > 0)
        assert entropy(action_distribution(counts)) == pytest.approx(brute, abs=1e-12)
        assert 0.0 <= brute <= math.log2(29)


def test_pearson_perfect_lines():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_direct_formula():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        # textbook formula, written out independently
        n = len(x)
        sx, sy = x.sum(), y.sum()
        sxy = float((x * y).sum())
        sxx = float((x * x).sum())
        syy = float((y * y).sum())
        want = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        assert pearson(x, y) == pytest.approx(want, abs=1e-12)


def test_pearson_scale_shift_and_symmetry():
    rng = np.random.default_rng(12)
    x = rng.normal(size=15)
    y = rng.normal(size=15)
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)
    assert pearson(3.0 * x + 2.0, y) == pytest.approx(pearson(x, y), abs=1e-12)
    assert pearson(-3.0 * x + 2.0, y) == pytest.approx(-pearson(x, y), abs=1e-12)
    assert pearson(x, 5.0 * x - 1.0) == pytest.approx(1.0, abs=1e-12)


def test_pearson_undefined_cases():
    with pytest.raises(AnalysisError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(AnalysisError):
        pearson([1.0], [2.0])


# ---- report over synthetic run directories -----------------------------------


def synth_run(tmp_path, method, schedule, seed, success, entropy_balance):
    """Write a minimal but well-formed run directory."""
    run_id = f"{method}_{schedule}_{seed}"
    d = tmp_path / run_id
    d.mkdir(parents=True)
    (d / "config.json").write_text(
        '{"method": "%s", "schedule": "%s", "seed": %d}' % (method, schedule, seed)
    )
    with open(d / "eval.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "checkpoint_epoch", "success_rate", "avg_turns"])
        for stage, epoch in enumerate((70, 140, 210, 300), start=1):
            w.writerow([run_id, epoch, f"{success[stage - 1]:.4f}", f"{20 + stage:.2f}"])
    with open(d / "actions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "stage", "action_index", "count"])
        rng = np.random.default_rng(seed)
        for stage in (1, 2, 3, 4):
            counts = rng.integers(1, 10 + stage * entropy_balance, size=29)
            for idx, c in enumerate(counts):
                w.writerow([run_id, stage, idx, int(c)])
    return d


FULL_GRID = (
    [("DQN", "RANDOM"), ("DDQ", "RANDOM"), ("C-DDQ", "RANDOM")]
    + [("S-DDQ", s) for s in ("EMD", "EDD", "EED", "DME", "DEE", "DDM")]
    + [("SC-DDQ", s) for s in ("EMD", "EDD", "EED", "DME", "DEE", "DDM")]
)


def test_build_report_full_grid(tmp_path):
    runs = tmp_path / "runs"
    rng = np.random.default_rng(0)
    for i, (method, schedule) in enumerate(FULL_GRID):
        synth_run(runs, method, schedule, 1, rng.uniform(0.3, 0.9, size=4), 2)
    out = tmp_path / "report"
    paths = build_report(runs, out)
    table4 = read_rows(paths["table4"])
    assert len(table4) == 1 + 15  # header + all 15 conditions
    assert table4[1][:3] == ["Random", "DQN", "-"]
    assert table4[4][:3] == ["EFS", "S-DDQ", "EMD"]
    corr = read_rows(paths["correlation"], csv.DictReader)
    assert len(corr) == 4
    assert all(int(row["n"]) == 15 for row in corr)
    assert all(-1.0 <= float(row["r"]) <= 1.0 for row in corr if row["r"])
    table6 = read_rows(paths["table6"])
    for row in table6[1:]:
        for cell in row[3:]:
            if cell:
                assert 0.0 <= float(cell) <= math.log2(29) + 1e-9


def test_build_report_averages_same_condition_seeds(tmp_path):
    runs = tmp_path / "runs"
    synth_run(runs, "DDQ", "RANDOM", 1, [0.2, 0.4, 0.6, 0.8], 2)
    synth_run(runs, "DDQ", "RANDOM", 2, [0.4, 0.6, 0.8, 1.0], 2)
    paths = build_report(runs, tmp_path / "report")
    table4 = read_rows(paths["table4"])
    assert table4[1][3:] == ["0.30", "0.50", "0.70", "0.90"]


def test_build_report_groups_curiosity_dfs(tmp_path):
    runs = tmp_path / "runs"
    values = {}
    for schedule in ("DME", "DEE", "DDM"):
        success = np.random.default_rng(hash(schedule) % 100).uniform(0.2, 1.0, size=4)
        synth_run(runs, "SC-DDQ", schedule, 1, success, 2)
        values[schedule] = success
    paths = build_report(runs, tmp_path / "report")
    rows = [r for r in read_rows(paths["success_curves"], csv.DictReader) if r["group"] == "curiosity_DFS"]
    assert len(rows) == 4
    for row in rows:
        stage = int(row["stage"])
        want = np.mean([values[s][stage - 1] for s in ("DME", "DEE", "DDM")])
        assert float(row["mean_success"]) == pytest.approx(want, abs=1e-4)


def test_build_report_single_run_correlation_undefined(tmp_path):
    runs = tmp_path / "runs"
    synth_run(runs, "DDQ", "RANDOM", 1, [0.2, 0.4, 0.6, 0.8], 2)
    paths = build_report(runs, tmp_path / "report")
    corr = read_rows(paths["correlation"], csv.DictReader)
    assert all(row["r"] == "" and int(row["n"]) == 1 for row in corr)


def test_report_names_skipped_run_dirs(tmp_path, capsys):
    from dialogrl.cli import main

    runs = tmp_path / "runs"
    synth_run(runs, "DDQ", "RANDOM", 1, [0.2, 0.4, 0.6, 0.8], 2)
    (synth_run(runs, "DQN", "RANDOM", 2, [0.1, 0.2, 0.3, 0.4], 2) / "config.json").unlink()
    rc = main(["report", "--runs", str(runs), "--out", str(tmp_path / "report")])
    err = capsys.readouterr().err
    assert rc == 0
    assert f"skipped {runs / 'DQN_RANDOM_2'}: no config.json" in err
    assert "DDQ_RANDOM_1" not in err
    assert [r.run_id for r in discover_runs(runs)] == ["DDQ_RANDOM_1"]
    table4 = read_rows(tmp_path / "report" / "table4.csv")
    assert [row[1] for row in table4[1:]] == ["DDQ"]


def test_build_report_timings_sum_epochs_per_run(tmp_path):
    runs = tmp_path / "runs"
    synth_run(runs, "DDQ", "RANDOM", 1, [0.2, 0.4, 0.6, 0.8], 2)
    synth_run(runs, "DQN", "RANDOM", 2, [0.2, 0.4, 0.6, 0.8], 2)  # no timings file: no rows
    (runs / "DDQ_RANDOM_1.timings.jsonl").write_text(
        '{"epoch": 0, "collect": 0.5, "plan": 1.0, "total": 2.0}\n'
        '{"epoch": 1, "collect": 1.5, "plan": 2.0, "curiosity_wait": 0.25, "total": 6.0}\n')
    paths = build_report(runs, tmp_path / "report")
    rows = [tuple(row) for row in read_rows(paths["timings"])]
    assert rows == [("run_id", "op", "seconds", "share"),
                    ("DDQ_RANDOM_1", "collect", "2.000000", "0.2500"),
                    ("DDQ_RANDOM_1", "plan", "3.000000", "0.3750"),
                    ("DDQ_RANDOM_1", "total", "8.000000", "1.0000"),
                    ("DDQ_RANDOM_1", "curiosity_wait", "0.250000", "0.0312")]


@pytest.mark.parametrize("line, problem", [
    ('{"epoch": 0, "collect": 0.5, "tot', "line 2 is not JSON"),
    ('[0.5]', "line 2 is not an object with a 'total'"),
    ('{"epoch": 1, "collect": 0.5}', "line 2 is not an object with a 'total'"),
    ('{"epoch": 1, "collect": "fast", "total": 1.0}', "line 2: collect is not a number of seconds: 'fast'"),
    ('{"epoch": 1, "collect": true, "total": 1.0}', "line 2: collect is not a number of seconds: True"),
])
def test_report_malformed_timings_line_exit_2(tmp_path, capsys, line, problem):
    from dialogrl.cli import main

    runs = tmp_path / "runs"
    synth_run(runs, "DDQ", "RANDOM", 1, [0.2, 0.4, 0.6, 0.8], 2)
    path = runs / "DDQ_RANDOM_1.timings.jsonl"
    path.write_text('{"epoch": 0, "collect": 0.5, "total": 2.0}\n' + line + "\n")
    rc = main(["report", "--runs", str(runs), "--out", str(tmp_path / "report")])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert f"error: timings {path}: {problem}" in err


def test_build_report_empty_dir_errors(tmp_path):
    (tmp_path / "runs").mkdir()
    with pytest.raises(AnalysisError):
        build_report(tmp_path / "runs", tmp_path / "report")


def test_report_consumes_real_run_output(tmp_path):
    cfg = RunConfig(
        method="DDQ", schedule="RANDOM", seed=3, epochs=4, real_dialogs_per_epoch=3,
        planning_rounds=1, planning_dialogs_per_round=2, warm_start_dialogs=5,
        warm_start_updates=5, kb_size=60, goal_counts={1: 6, 2: 4, 4: 4},
        out_dir=str(tmp_path / "runs"),
    )
    run_experiment(cfg)
    paths = build_report(tmp_path / "runs", tmp_path / "report")
    runs = discover_runs(tmp_path / "runs")
    assert len(runs) == 1
    assert runs[0].run_id == "DDQ_RANDOM_3"
    table4 = read_rows(paths["table4"])
    assert len(table4) == 2
    # timings.csv sums run_experiment's timings.jsonl: one row per timed op, each a share of the total
    with open(tmp_path / "runs" / "DDQ_RANDOM_3.timings.jsonl") as fh:
        epochs = [json.loads(line) for line in fh]
    timings = read_rows(paths["timings"], csv.DictReader)
    assert {row["run_id"] for row in timings} == {"DDQ_RANDOM_3"}
    assert [row["op"] for row in timings] == list(dict.fromkeys(k for e in epochs for k in e if k != "epoch"))
    seconds = {row["op"]: float(row["seconds"]) for row in timings}
    for op in ("collect", "dqn_real", "world", "plan", "dqn_sim", "sync", "total"):
        assert seconds[op] == pytest.approx(sum(e[op] for e in epochs), abs=1e-6)
    share = {row["op"]: float(row["share"]) for row in timings}
    assert share["total"] == 1.0
    assert sum(share[op] for op in ("collect", "dqn_real", "world", "plan", "dqn_sim", "sync")) <= 1.0 + 1e-3


def test_stage_success_correlations_typed(tmp_path):
    import math as _math

    from dialogrl.analysis import stage_success_correlations

    runs_dir = tmp_path / "runs"
    for seed, lift in ((1, 0.0), (2, 0.1), (3, 0.2)):
        synth_run(runs_dir, "DDQ", "RANDOM", seed, [0.2 + lift] * 4, 2)
    from dialogrl.analysis import discover_runs

    results = stage_success_correlations(discover_runs(runs_dir))
    assert [r.stage for r in results] == [1, 2, 3, 4]
    for r in results:
        assert r.n == 3
        assert _math.isnan(r.r) or -1.0 <= r.r <= 1.0
