import json
import shutil
import subprocess
import sys

import pytest

from dialogrl.cli import expand_matrix, main


def make_data(tmp_path, movies=60, goals_spec="1:8,2:4,4:4", seed=7):
    out = tmp_path / "data"
    rc = main(["gen-data", "--seed", str(seed), "--movies", str(movies),
               "--goals-spec", goals_spec, "--out-dir", str(out)])
    assert rc == 0
    return out / "kb.json", out / "goals.json"


def tiny_train_config(tmp_path, kb_path, goals_path, **overrides):
    cfg = {
        "method": "SC-DDQ",
        "schedule": "EMD",
        "seed": 1,
        "epochs": 4,
        "real_dialogs_per_epoch": 3,
        "planning_rounds": 1,
        "planning_dialogs_per_round": 2,
        "warm_start_dialogs": 5,
        "warm_start_updates": 5,
        "kb_path": str(kb_path),
        "goals_path": str(goals_path),
        "out_dir": str(tmp_path / "runs"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gen_data_prints_partition(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--seed", "7", "--movies", "200",
               "--goals-spec", "1:61,2:16,3:17,4:34,5:9", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "easy=61 middle=33 difficult=43" in captured.out
    assert (out / "kb.json").exists() and (out / "goals.json").exists()


def test_gen_data_idempotent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-data", "--seed", "3", "--movies", "50",
                     "--goals-spec", "1:4", "--out-dir", str(out)]) == 0
    assert (a / "kb.json").read_bytes() == (b / "kb.json").read_bytes()
    assert (a / "goals.json").read_bytes() == (b / "goals.json").read_bytes()


def test_gen_data_zero_movies_usage_error(tmp_path):
    rc = main(["gen-data", "--movies", "0", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_gen_data_negative_goal_count_usage_error(tmp_path, capsys):
    rc = main(["gen-data", "--movies", "60", "--goals-spec", "1:-5", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "goal count for 1 request slots must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "goals.json").exists()


def test_gen_data_negative_seed_exit_2_before_any_dir(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--seed", "-1", "--movies", "60", "--goals-spec", "1:4", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_gen_data_repeated_request_slot_count_exit_2(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--movies", "60", "--goals-spec", "1:3,1:4", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "count 1 is given twice" in err
    assert not out.exists()


def test_gen_data_out_dir_under_a_file_exit_2(tmp_path, capsys):
    kb_path, _ = make_data(tmp_path)
    out = kb_path / "x"
    rc = main(["gen-data", "--movies", "60", "--goals-spec", "1:4", "--out-dir", str(out)])
    assert_usage_error(capsys, rc, f"out-dir {out}: cannot create the directory")


def test_train_writes_run_dir(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path)
    rc = main(["train", "--config", str(config)])
    assert rc == 0
    run_dir = tmp_path / "runs" / "SC-DDQ_EMD_1"
    assert run_dir.is_dir()
    eval_rows = (run_dir / "eval.csv").read_text().strip().splitlines()
    assert len(eval_rows) == 5


def test_train_missing_kb_path_names_field(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, "", goals_path)
    rc = main(["train", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "kb_path" in captured.err


def test_train_rerun_byte_identical(tmp_path):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path)
    assert main(["train", "--config", str(config)]) == 0
    first = (tmp_path / "runs" / "SC-DDQ_EMD_1" / "eval.csv").read_bytes()
    assert main(["train", "--config", str(config)]) == 0
    second = (tmp_path / "runs" / "SC-DDQ_EMD_1" / "eval.csv").read_bytes()
    assert first == second


def test_train_invalid_gating_exit_2(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path, schedule="RANDOM")
    rc = main(["train", "--config", str(config)])
    assert rc == 2


@pytest.mark.parametrize("field, value", [
    ("planning_dialogs_per_round", 0),
    ("planning_dialogs_per_round", -1),
    ("eval_epsilon", -0.5),
    ("eval_epsilon", 2.0),
    ("warm_start_updates", -3),
])
def test_train_out_of_range_exit_2(tmp_path, capsys, field, value):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path, **{field: value})
    rc = main(["train", "--config", str(config)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_train_out_dir_under_a_file_exit_2(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path, out_dir=str(kb_path / "runs"))
    rc = main(["train", "--config", str(config)])
    assert_usage_error(capsys, rc, f"out_dir {kb_path / 'runs' / 'SC-DDQ_EMD_1'}: cannot create the directory")


@pytest.mark.parametrize("overrides", [
    {"epochs": "8"},
    {"epsilon": "0.1"},
    {"goal_counts": {"x": 1}},
    {"goal_counts": {"1": 2.5}},
    {"epochs": True},
    {"warm_start_dialogs": 5.0},
    {"planning_dialogs_per_round": "2"},
    {"eval_with_curiosity": 1},
    {"out_dir": 3},
    {"custom_schedules": {"UNUSED": ["easy", "easy"]}},
    {"custom_schedules": {"UNUSED": "easy"}},
])
def test_train_mistyped_config_exit_2(tmp_path, capsys, overrides):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path, **overrides)
    rc = main(["train", "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert next(iter(overrides)) in err
    assert not (tmp_path / "runs").exists()


def test_train_kb_missing_a_slot_exit_2(tmp_path, capsys):
    # goals that never constrain the theater but may request it, so the
    # agent's first inform of it would look it up in a record that lacks it
    kb_path, goals_path = make_data(tmp_path, movies=30)
    records = json.loads(kb_path.read_text())
    for record in records:
        del record["theater"]
    kb_path.write_text(json.dumps(records))
    goals = json.loads(goals_path.read_text())
    for goal in goals:
        goal["inform_slots"].pop("theater", None)
    goals_path.write_text(json.dumps(goals))
    rc = main(["train", "--config", str(tiny_train_config(tmp_path, kb_path, goals_path))])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "KB record missing theater" in err
    assert not (tmp_path / "runs").exists()


def test_eval_subcommand(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path)
    assert main(["train", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "SC-DDQ_EMD_1"
    rc = main(["eval", "--run-dir", str(run_dir), "--level", "easy", "--episodes", "10"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "success_rate=" in captured.out


@pytest.mark.parametrize("episodes", ["0", "-2"])
@pytest.mark.parametrize("show", [[], ["--show"]])
def test_eval_needs_an_episode(tmp_path, capsys, episodes, show):
    kb_path, goals_path = make_data(tmp_path)
    assert main(["train", "--config", str(tiny_train_config(tmp_path, kb_path, goals_path))]) == 0
    capsys.readouterr()
    rc = main(["eval", "--run-dir", str(tmp_path / "runs" / "SC-DDQ_EMD_1"), "--episodes", episodes, *show])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"episodes: must be >= 1, got {episodes}" in captured.err


def unreadable(tmp_path, kind):
    """A path that does not read as JSON text: a directory, or a file that is not UTF-8."""
    if kind == "directory":
        path = tmp_path / "a_directory"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(b'[{"note": "caf\xe9"}]')
    return path


def assert_usage_error(capsys, rc, *words):
    """Exit 2 with one ``error:`` line that names ``words``, and no traceback."""
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1
    assert all(word in errors[0] for word in words), errors[0]


@pytest.mark.parametrize("command", ["train", "matrix"])
@pytest.mark.parametrize("kind, problem", [("directory", "cannot read"), ("not-utf8", "not UTF-8")])
def test_unreadable_config_exit_2(tmp_path, capsys, command, kind, problem):
    path = unreadable(tmp_path, kind)
    rc = main([command, "--config", str(path)])
    assert_usage_error(capsys, rc, f"config {path}: {problem}")


@pytest.mark.parametrize("field, what", [("kb_path", "KB file"), ("goals_path", "goal file")])
def test_train_non_utf8_data_file_exit_2(tmp_path, capsys, field, what):
    paths = dict(zip(("kb_path", "goals_path"), make_data(tmp_path)))
    paths[field] = unreadable(tmp_path, "not-utf8")
    rc = main(["train", "--config", str(tiny_train_config(tmp_path, paths["kb_path"], paths["goals_path"]))])
    assert_usage_error(capsys, rc, f"{what} {paths[field]}: not UTF-8")
    assert not (tmp_path / "runs").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    kb_path, goals_path = make_data(tmp_path)
    assert main(["train", "--config", str(tiny_train_config(tmp_path, kb_path, goals_path))]) == 0
    return tmp_path / "runs" / "SC-DDQ_EMD_1"


@pytest.fixture
def run_dir(tmp_path, trained_run):
    """A fresh copy of a trained run dir, with checkpoints through epoch 4."""
    return shutil.copytree(trained_run, tmp_path / "run")


@pytest.mark.parametrize("checkpoint", [[], ["--checkpoint", "checkpoint_ep4.json"]])
def test_eval_ignores_stray_checkpoint_names(run_dir, capsys, checkpoint):
    shutil.copy(run_dir / "checkpoint_ep4.json", run_dir / "checkpoint_ep4.bak.json")
    shutil.copy(run_dir / "checkpoint_ep4.json", run_dir / "checkpoint_epX.json")
    rc = main(["eval", "--run-dir", str(run_dir), "--episodes", "2", *checkpoint])
    assert rc == 0
    assert capsys.readouterr().out.startswith("checkpoint_ep4.json on all:")


def test_eval_needs_a_checkpoint_with_an_epoch(run_dir, capsys):
    for path in run_dir.glob("checkpoint_ep*.json"):
        path.rename(path.with_suffix(".bak.json"))
    rc = main(["eval", "--run-dir", str(run_dir), "--episodes", "2"])
    assert_usage_error(capsys, rc, "no checkpoints")


def test_eval_checkpoint_with_bad_value_exit_2(run_dir, capsys):
    obj = json.loads((run_dir / "checkpoint_ep4.json").read_text())
    obj["gamma"] = "x"
    (run_dir / "bad.json").write_text(json.dumps(obj))
    rc = main(["eval", "--run-dir", str(run_dir), "--episodes", "2", "--checkpoint", "bad.json"])
    assert_usage_error(capsys, rc, "malformed agent checkpoint", "'x'")


def test_eval_checkpoint_with_unknown_dtype_exit_2(run_dir, capsys):
    obj = json.loads((run_dir / "checkpoint_ep4.json").read_text())
    assert obj["q_net"]["dtype"] == "float32"
    obj["q_net"]["dtype"] = "float16"
    (run_dir / "bad.json").write_text(json.dumps(obj))
    rc = main(["eval", "--run-dir", str(run_dir), "--episodes", "2", "--checkpoint", "bad.json"])
    assert_usage_error(capsys, rc, "checkpoint dtype", "'float16'")


def test_eval_checkpoint_directory_exit_2(run_dir, capsys):
    rc = main(["eval", "--run-dir", str(run_dir), "--episodes", "2", "--checkpoint", "."])
    assert_usage_error(capsys, rc, "agent checkpoint", "cannot read")


def test_eval_show_renders_dialogs(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path)
    assert main(["train", "--config", str(config)]) == 0
    run_dir = tmp_path / "runs" / "SC-DDQ_EMD_1"
    rc = main(["eval", "--run-dir", str(run_dir), "--episodes", "1", "--show"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "usr:" in captured.out and "sys:" in captured.out


def matrix_spec(tmp_path, kb_path, goals_path, methods, schedules, seeds):
    spec = {
        "master_seed": 99,
        "methods": methods,
        "schedules": schedules,
        "seeds": seeds,
        "base": {
            "epochs": 4,
            "real_dialogs_per_epoch": 2,
            "planning_rounds": 1,
            "planning_dialogs_per_round": 2,
            "warm_start_dialogs": 4,
            "warm_start_updates": 4,
            "kb_path": str(kb_path),
            "goals_path": str(goals_path),
            "out_dir": str(tmp_path / "mruns"),
        },
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(spec))
    return path


def test_expand_matrix_paper_grid_shape():
    spec = {
        "methods": ["DQN", "DDQ", "C-DDQ", "S-DDQ", "SC-DDQ"],
        "schedules": ["EMD", "EDD", "EED", "DME", "DEE", "DDM"],
        "seeds": [0],
        "base": {"kb_path": "x", "goals_path": "y"},
    }
    jobs = expand_matrix(spec)
    assert len(jobs) == 3 + 2 * 6  # three unscheduled + two scheduled x six


def test_matrix_runs_and_summarizes(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    spec = matrix_spec(tmp_path, kb_path, goals_path, ["DQN", "S-DDQ"], ["EMD"], [0])
    rc = main(["matrix", "--config", str(spec), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "mruns" / "DQN_RANDOM_0").is_dir()
    assert (tmp_path / "mruns" / "S-DDQ_EMD_0").is_dir()
    assert "2/2 runs completed" in captured.out


def test_matrix_cell_matches_train_on_its_config(tmp_path):
    # matrix and train share one run writer: a cell's echoed config.json,
    # rerun with train, gives the same run up to the run_id column
    kb_path, goals_path = make_data(tmp_path)
    spec = matrix_spec(tmp_path, kb_path, goals_path, ["S-DDQ"], ["EMD"], [0])
    assert main(["matrix", "--config", str(spec), "--jobs", "1"]) == 0
    cell = tmp_path / "mruns" / "S-DDQ_EMD_0"
    seed = json.loads((cell / "config.json").read_text())["seed"]
    assert main(["train", "--config", str(cell / "config.json")]) == 0
    run = tmp_path / "mruns" / f"S-DDQ_EMD_{seed}"
    assert run != cell
    assert (run / "config.json").read_bytes() == (cell / "config.json").read_bytes()
    for name in ("metrics.csv", "eval.csv", "actions.csv"):
        rows = [(cell / name).read_text().splitlines(), (run / name).read_text().splitlines()]
        assert [r.split(",")[0] for r in rows[0][1:]] == ["S-DDQ_EMD_0"] * (len(rows[0]) - 1)
        assert [r.split(",")[0] for r in rows[1][1:]] == [run.name] * (len(rows[1]) - 1)
        assert [r.split(",")[1:] for r in rows[0]] == [r.split(",")[1:] for r in rows[1]]
    checkpoints = sorted(p.name for p in cell.glob("checkpoint_ep*.json"))
    assert checkpoints == sorted(p.name for p in run.glob("checkpoint_ep*.json")) and checkpoints
    for name in checkpoints:
        assert (cell / name).read_bytes() == (run / name).read_bytes()


def test_matrix_jobs_parallel_identical(tmp_path):
    kb_path, goals_path = make_data(tmp_path)
    outs = []
    for jobs, sub in (("1", "mruns"), ("2", "mruns2")):
        spec = matrix_spec(tmp_path, kb_path, goals_path, ["DQN", "DDQ"], [], [0])
        obj = json.loads(spec.read_text())
        obj["base"]["out_dir"] = str(tmp_path / sub)
        spec.write_text(json.dumps(obj))
        assert main(["matrix", "--config", str(spec), "--jobs", jobs]) == 0
        outs.append(
            (tmp_path / sub / "DQN_RANDOM_0" / "eval.csv").read_bytes()
            + (tmp_path / sub / "DDQ_RANDOM_0" / "eval.csv").read_bytes()
        )
    assert outs[0] == outs[1]


def test_matrix_empty_exit_zero(tmp_path, capsys):
    spec = tmp_path / "matrix.json"
    spec.write_text(json.dumps({"methods": [], "schedules": [], "seeds": []}))
    rc = main(["matrix", "--config", str(spec), "--jobs", "1"])
    assert rc == 0


def test_matrix_records_failures_and_continues(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    spec = matrix_spec(tmp_path, kb_path, goals_path, ["DQN", "DDQ"], [], [0])
    obj = json.loads(spec.read_text())
    obj["base"]["goals_path"] = str(tmp_path / "missing.json")  # every run fails
    spec.write_text(json.dumps(obj))
    rc = main(["matrix", "--config", str(spec), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.out


def test_matrix_failed_cell_writes_traceback(tmp_path, capsys, monkeypatch):
    from dialogrl.errors import NumericError
    from dialogrl.training import Trainer

    kb_path, goals_path = make_data(tmp_path)
    spec = matrix_spec(tmp_path, kb_path, goals_path, ["DQN", "DDQ"], [], [0])
    real_epoch = Trainer.run_epoch

    def run_epoch(self, epoch):
        if self.config.method == "DDQ" and epoch == 2:
            raise NumericError("non-finite loss (forced)")
        return real_epoch(self, epoch)

    monkeypatch.setattr(Trainer, "run_epoch", run_epoch)
    rc = main(["matrix", "--config", str(spec), "--jobs", "1"])
    out = capsys.readouterr().out
    error_path = tmp_path / "mruns" / "DDQ_RANDOM_0" / "error.txt"
    assert rc == 1
    text = error_path.read_text()
    assert text.startswith("Traceback") and "in run_epoch" in text
    assert text.rstrip().endswith("NumericError: non-finite loss (forced)")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL DDQ_RANDOM_0: NumericError: non-finite loss (forced) (traceback in {error_path})"]
    assert "ok   DQN_RANDOM_0" in out
    assert not (tmp_path / "mruns" / "DQN_RANDOM_0" / "error.txt").exists()

    # once the cell runs through, its stale traceback goes
    monkeypatch.setattr(Trainer, "run_epoch", real_epoch)
    assert main(["matrix", "--config", str(spec), "--jobs", "1"]) == 0
    assert not error_path.exists()


@pytest.mark.parametrize("field, spec", [
    ("seeds", {"methods": ["DQN"], "seeds": ["a"]}),
    ("seeds", {"methods": ["DQN"], "seeds": [1.0]}),
    ("seeds", {"methods": ["DQN"], "seeds": [True]}),
    ("seeds", {"methods": ["DQN"], "seeds": 3}),
    ("master_seed", {"methods": ["DQN"], "master_seed": "x"}),
    ("master_seed", {"methods": ["DQN"], "master_seed": False}),
    ("base", {"methods": ["DQN"], "base": [1, 2]}),
    ("methods", {"methods": "DQN"}),
    ("methods", {"methods": [["DQN"]]}),
    ("schedules", {"methods": ["S-DDQ"], "schedules": "EMD"}),
    # two cells would write one run directory
    ("methods", {"methods": ["DQN", "DQN"], "seeds": [0, 0]}),
    ("seeds", {"methods": ["DQN"], "seeds": [0, 0]}),
    ("schedules", {"methods": ["S-DDQ"], "schedules": ["EMD", "EDD", "EMD"]}),
    # every cell would fail its config's validation
    ("unknown schedule 'XYZ'", {"methods": ["S-DDQ"], "schedules": ["XYZ"]}),
    ("unknown schedule 'XYZ'", {"methods": ["DQN"], "schedules": ["XYZ"]}),
    ("epochs", {"methods": ["DQN"], "base": {"epochs": 2}}),
    ("epsilon", {"methods": ["DDQ", "S-DDQ"], "schedules": ["EMD"], "base": {"epsilon": 7.0}}),
])
def test_matrix_mistyped_config_exit_2(tmp_path, capsys, monkeypatch, field, spec):
    monkeypatch.chdir(tmp_path)  # a cell that ran would write under ./runs
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(spec))
    rc = main(["matrix", "--config", str(path), "--jobs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert field in err
    assert [p.name for p in tmp_path.iterdir()] == ["matrix.json"]  # no cell ran


def test_report_subcommand(tmp_path, capsys):
    kb_path, goals_path = make_data(tmp_path)
    config = tiny_train_config(tmp_path, kb_path, goals_path)
    assert main(["train", "--config", str(config)]) == 0
    rc = main(["report", "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "report")])
    assert rc == 0
    assert (tmp_path / "report" / "table4.csv").exists()
    assert (tmp_path / "report" / "correlation.csv").exists()


@pytest.mark.parametrize("content, problem", [(b'{"method": "DDQ", "sch', "invalid JSON"),
                                              (b'{"method": "D\xe9Q"}', "not UTF-8"),
                                              (b'[]', "expected a JSON object"),
                                              (b'{"schedule": "RANDOM", "seed": 1}', "no 'method' field")])
def test_report_unreadable_run_config_exit_2(run_dir, capsys, content, problem):
    (run_dir / "config.json").write_bytes(content)  # say, a run that crashed mid-write
    rc = main(["report", "--runs", str(run_dir.parent), "--out", str(run_dir.parent / "report")])
    assert_usage_error(capsys, rc, f"run config {run_dir / 'config.json'}: {problem}")


@pytest.mark.parametrize("name, content, problem", [
    ("eval.csv", "run_id,checkpoint_epoch,avg_turns\nr,4,8.0\n", "evaluations {}: no 'success_rate' field"),
    ("eval.csv", "run_id,checkpoint_epoch,success_rate,avg_turns\nr,4,high,8.0\n",
     "evaluations {}: could not convert string to float: 'high'"),
    ("actions.csv", "run_id,stage,action_index,count\nr,1,99,3\n",
     "action counts {}: action_index 99 is not in [0, 29)"),
    ("actions.csv", "run_id,stage,action_index,count\nr,1,-1,3\n",
     "action counts {}: action_index -1 is not in [0, 29)"),
])
def test_report_malformed_run_csv_exit_2(run_dir, capsys, name, content, problem):
    (run_dir / name).write_text(content)
    rc = main(["report", "--runs", str(run_dir.parent), "--out", str(run_dir.parent / "report")])
    assert_usage_error(capsys, rc, problem.format(run_dir / name))


def test_report_empty_dir_exit_2(tmp_path):
    (tmp_path / "empty").mkdir()
    rc = main(["report", "--runs", str(tmp_path / "empty"), "--out", str(tmp_path / "r")])
    assert rc == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dialogrl.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
