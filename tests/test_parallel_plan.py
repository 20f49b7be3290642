"""Planning on a forked worker: byte-identical to in-process planning, and
no worker process outlives its Trainer."""

import gc
import json
import os
import pickle
import signal

import numpy as np
import pytest

import dialogrl.training as training
from dialogrl.agent import BATCH_SIZE, UPDATE_CHUNK, DqnAgent, ReplayBuffer
from dialogrl.cli import main
from dialogrl.curiosity import CuriosityModel
from dialogrl.curriculum import stage_boundaries
from dialogrl.env import STATE_DTYPE
from dialogrl.errors import NumericError
from dialogrl.nets import blas_thread_control
from dialogrl.training import (RunConfig, Trainer, load_run_data, run_experiment, write_eval_csv,
                               write_metrics_csv)
from dialogrl.world import PlanWorker, can_plan_in_parallel


LONG_JOBS = {"planning_rounds": 5, "planning_dialogs_per_round": 24}  # curiosity jobs of > UPDATE_CHUNK minibatches


def tiny_config(**overrides):
    base = dict(method="SC-DDQ", schedule="EMD", seed=5, epochs=8, real_dialogs_per_epoch=4,
                planning_rounds=3, planning_dialogs_per_round=3, warm_start_dialogs=8,
                warm_start_updates=10, kb_size=80, goal_counts={1: 10, 2: 5, 4: 5},
                out_dir="unused")
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def data():
    return load_run_data(tiny_config())


@pytest.fixture(autouse=True)
def no_hang():
    """Fail a test that hangs, for example on a worker that never sees EOF
    because another process holds its command pipe open."""
    def hung(*_):
        raise TimeoutError("test hung: a planning worker did not exit")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def buffer_record(buf):
    """Every stored field as bytes, and for each transition the index of the
    one whose state is the very array stored as its next state (or -1)."""
    exps = [buf[i] for i in range(len(buf))]
    row_of = {id(e.s): i for i, e in enumerate(exps)}
    fields = [(e.s.tobytes(), e.s_next.tobytes(), e.a, e.r, e.a_user, e.done) for e in exps]
    successors = [row_of.get(id(e.s_next), -1) for e in exps]
    return fields, successors


def in_worker_only(fail):
    """A ``Trainer._play_round`` that calls ``fail()`` in the planning worker
    and plays as usual in the trainer's process, which plays the first half
    through the same method."""
    parent, real_round = os.getpid(), Trainer._play_round

    def play_round(self, level, seeds):
        if os.getpid() == parent:
            return real_round(self, level, seeds)
        fail()

    return play_round


def run_dir_files(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


@pytest.mark.parametrize("method, schedule, capacity, rounds, dialogs", [
    pytest.param("SC-DDQ", "EMD", 5000, 3, 3, id="SC-DDQ-EMD-5000"),  # 9 rollouts: 5 here, 4 in the worker
    pytest.param("C-DDQ", "RANDOM", 5000, 3, 3, id="C-DDQ-RANDOM-5000"),
    pytest.param("DDQ", "RANDOM", 40, 3, 3, id="DDQ-RANDOM-40"),
    pytest.param("DDQ", "RANDOM", 5000, 2, 4, id="DDQ-RANDOM-5000-even"),  # 8 rollouts, 4 each
])
def test_worker_planning_matches_in_process(tmp_path, data, monkeypatch, method, schedule, capacity,
                                            rounds, dialogs):
    kb, goals = data
    trainers, started = [], []
    real_run, real_start = Trainer.run, PlanWorker.start

    def run(self, *args, **kwargs):
        trainers.append(self)
        return real_run(self, *args, **kwargs)

    def start(self, job, seeds):
        started.append(len(seeds))
        return real_start(self, job, seeds)

    monkeypatch.setattr(Trainer, "run", run)
    monkeypatch.setattr(PlanWorker, "start", start)
    outs = {}
    for parallel in (False, True):
        monkeypatch.setattr(training, "can_plan_in_parallel", lambda: parallel)
        run_root = tmp_path / str(parallel)
        run_root.mkdir()
        monkeypatch.chdir(run_root)  # the same relative out_dir, so config.json compares too
        cfg = tiny_config(method=method, schedule=schedule, buffer_capacity=capacity, out_dir="runs",
                          planning_rounds=rounds, planning_dialogs_per_round=dialogs)
        outs[parallel] = run_dir_files(run_experiment(cfg, kb, goals)), buffer_record(trainers[-1].sim_buffer)
    # every epoch the worker played the second half of the rollouts, the smaller one for an odd count
    assert started == [rounds * dialogs // 2] * 8
    files, (fields, successors) = outs[True]
    assert files == outs[False][0]
    assert {"metrics.csv", "eval.csv", "actions.csv", "config.json",
            "checkpoint_ep8.json"} <= set(files)
    assert fields == outs[False][1][0]
    assert successors == outs[False][1][1]
    assert len(fields) == (capacity if capacity < 5000 else len(fields)) > 0
    # a rollout's next state is the very array its next transition stores as its state
    assert all((j > i) == (not done) for i, (j, (*_, done)) in enumerate(zip(successors, fields)))
    # warm start, collection and both planning halves store float16 states, with the worker and without
    assert {x.dtype for tr in trainers for buf in (tr.real_buffer, tr.sim_buffer) for e in buf
            for x in (e.s, e.s_next)} == {np.dtype(STATE_DTYPE)}
    assert_no_children()


def test_worker_needs_two_cpus(data):
    # Under ``taskset -c 0`` planning stays in-process and nothing is forked.
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    tr.run_epoch(0)
    two_cpus = hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda _: ())(0)) >= 2
    assert can_plan_in_parallel() == two_cpus
    assert (tr._worker is not None) == two_cpus
    tr.close()
    assert_no_children()


def test_one_planning_round_forks_nothing(data, monkeypatch):
    # one rollout has no second half to hand over
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    kb, goals = data
    tr = Trainer(tiny_config(planning_rounds=1, planning_dialogs_per_round=1), kb, goals)
    tr.warm_start()
    tr.run_epoch(0)
    assert tr._worker is None
    assert_no_children()


def test_worker_error_reaches_parent_with_its_type(data, monkeypatch):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)

    def fail():
        raise NumericError("non-finite loss (forced in the worker)")

    monkeypatch.setattr(Trainer, "_play_round", in_worker_only(fail))
    kb, goals = data
    tr = Trainer(tiny_config(planning_rounds=2), kb, goals)
    tr.warm_start()
    with pytest.raises(NumericError, match="forced in the worker"):
        tr.run_epoch(0)
    assert_no_children()


def test_worker_error_that_does_not_pickle_reaches_parent(data, monkeypatch):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)

    class LocalError(Exception):  # defined in a function, so pickle cannot name it
        pass

    def fail():
        raise LocalError("forced in the worker")

    monkeypatch.setattr(Trainer, "_play_round", in_worker_only(fail))
    kb, goals = data
    tr = Trainer(tiny_config(planning_rounds=2), kb, goals)
    tr.warm_start()
    with pytest.raises(RuntimeError, match="^LocalError: forced in the worker$") as caught:
        tr.run_epoch(0)
    assert type(caught.value) is RuntimeError
    assert tr._worker is None
    assert_no_children()


def test_epoch_holds_blas_to_one_thread(data, monkeypatch):
    control = blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread-count control found among the loaded libraries")
    get, set_ = control
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    seen = []
    real_plan = training.plan

    def plan(*args, **kwargs):
        seen.append(get())
        if len(seen) == 2:
            raise NumericError("forced in planning")
        return real_plan(*args, **kwargs)

    def fail():
        raise NumericError(f"worker BLAS threads: {get()}")

    kb, goals = data
    original = get()
    set_(3)  # the caller's count: neither 1 nor OpenBLAS's default on a 2-CPU machine
    try:
        with monkeypatch.context() as m:
            m.setattr(training, "plan", plan)
            tr = Trainer(tiny_config(), kb, goals)
            tr.warm_start()
            tr.run_epoch(0)
            assert get() == 3
            with pytest.raises(NumericError, match="forced in planning"):
                tr.run_epoch(1)
            assert get() == 3
        assert seen == [1, 1]
        # the worker, forked inside an epoch, keeps one thread
        monkeypatch.setattr(Trainer, "_play_round", in_worker_only(fail))
        tr = Trainer(tiny_config(), kb, goals)
        tr.warm_start()
        with pytest.raises(NumericError, match="worker BLAS threads: 1$"):
            tr.run_epoch(0)
        assert get() == 3
    finally:
        set_(original)
    assert_no_children()


def test_run_and_drop_reap_the_worker(data, monkeypatch):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    kb, goals = data
    tr = Trainer(tiny_config(epochs=4), kb, goals)
    tr.run()
    assert_no_children()  # while tr is still referenced
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    tr.run_epoch(0)
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # the worker lives between epochs
    del tr
    gc.collect()
    assert_no_children()


def test_closing_one_trainer_ends_its_worker_only(data, monkeypatch):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    kb, goals = data
    first, second = Trainer(tiny_config(), kb, goals), Trainer(tiny_config(seed=6), kb, goals)
    for tr in (first, second):
        tr.warm_start()
        tr.run_epoch(0)
    if os.path.isdir(f"/proc/{second._worker.pid}/fd"):
        # stdin, stdout, stderr and its own two pipe ends, none of the first worker's
        assert len(os.listdir(f"/proc/{second._worker.pid}/fd")) == 5
    # close waits for the first worker to see EOF; it would hang if the
    # second worker held the first one's command pipe open
    first.close()
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # the second worker still runs
    report = second.run_epoch(1)
    assert report.sim_buffer_size > 0
    second.close()
    assert_no_children()


def counting(monkeypatch, owner, name):
    """Record ``self.pid`` at each call of ``owner.name``, which then runs as usual."""
    calls, real = [], getattr(owner, name)

    def counted(self, *args):
        calls.append(self.pid)
        return real(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def curiosity_state(tr):
    net = tr.curiosity.net
    return (net.theta.tobytes(), net.acc.tobytes(), net.step_count,
            tr.rngs["curiosity"].bit_generator.state)


@pytest.mark.parametrize("overrides, long_jobs", [
    pytest.param({"buffer_capacity": 5000}, False, id="5000"),
    pytest.param({"buffer_capacity": 30}, False, id="30"),  # both buffers evict within an epoch
    pytest.param({"buffer_capacity": 30, **LONG_JOBS}, True, id="30-long-jobs"),
])
def test_curiosity_trains_on_the_worker_as_in_process(data, monkeypatch, overrides, long_jobs):
    kb, goals = data
    finished = counting(monkeypatch, PlanWorker, "finish_training")
    samples, sent = {}, []
    real_sample = CuriosityModel.sample
    real_start, real_continue = PlanWorker.start_training, PlanWorker.continue_training
    monkeypatch.setattr(CuriosityModel, "sample",
                        lambda self, *args: sampled.append(real_sample(self, *args)) or sampled[-1])
    monkeypatch.setattr(PlanWorker, "start_training",
                        lambda self, rows, more: sent.append([rows]) or real_start(self, rows, more))
    monkeypatch.setattr(PlanWorker, "continue_training",
                        lambda self, rows: sent[-1].append(rows) or real_continue(self, rows))
    outs = {}
    for parallel in (False, True):
        monkeypatch.setattr(training, "can_plan_in_parallel", lambda: parallel)
        sampled = samples[parallel] = []  # what ``sample`` returns in this run
        tr = Trainer(tiny_config(**overrides), kb, goals)
        tr.warm_start()
        losses = [tr.run_epoch(epoch).curiosity_loss for epoch in range(4)]
        outs[parallel] = losses, curiosity_state(tr), tr.epoch_ops
        tr.close()
    whole_jobs = samples[False]  # one sample per job
    assert len(finished) == 4
    # In-process, each job is one sample. On the worker, its first message holds the rows
    # of min(n, UPDATE_CHUNK) minibatches, a second one the rest, and the two concatenate
    # to the in-process job; the states keep their stored dtype.
    assert len(sent) == 4 and len(whole_jobs) == 4
    n_batches = []
    for parts, job in zip(sent, whole_jobs):
        n = len(job[1]) // BATCH_SIZE
        assert len(job[1]) == n * BATCH_SIZE > 0
        assert len(parts) == (2 if n > UPDATE_CHUNK else 1)
        assert len(parts[0][1]) == min(n, UPDATE_CHUNK) * BATCH_SIZE
        for part in parts:
            assert part[0].dtype == part[2].dtype == STATE_DTYPE
        for got, want in zip(zip(*parts), job):
            assert np.array_equal(np.concatenate(got), want)
        n_batches.append(n)
    assert any(n > UPDATE_CHUNK for n in n_batches) == long_jobs
    assert outs[True] == outs[False]
    assert outs[True][2][0] == ["collect", "dqn_real", "world", "plan", "dqn_sim", "curiosity", "sync"]
    assert_no_children()


def test_c_ddq_curiosity_trains_on_the_worker_as_in_process_in_float32(data, monkeypatch):
    kb, goals = data
    finished = counting(monkeypatch, PlanWorker, "finish_training")
    outs = {}
    for parallel in (False, True):
        monkeypatch.setattr(training, "can_plan_in_parallel", lambda: parallel)
        tr = Trainer(tiny_config(method="C-DDQ", schedule="RANDOM"), kb, goals)
        tr.warm_start()
        losses = [tr.run_epoch(epoch).curiosity_loss for epoch in range(4)]
        net = tr.curiosity.net
        # the worker's reply carries the float32 weights and accumulators as their own bytes
        assert {net.theta.dtype, net.acc.dtype} == {np.dtype(np.float32)}
        outs[parallel] = losses, curiosity_state(tr), tr.epoch_ops
        tr.close()
    assert len(finished) == 4
    assert outs[True] == outs[False]
    assert outs[True][2][0] == ["collect", "dqn_real", "world", "plan", "dqn_sim", "curiosity", "sync"]
    assert_no_children()


def test_curiosity_trains_on_the_worker_after_a_plan_call_that_bypassed_it(data, monkeypatch):
    # Epoch 1's plan call is stubbed: the worker plays nothing that epoch.
    kb, goals = data
    real_plan = training.plan
    finished = counting(monkeypatch, PlanWorker, "finish_training")
    outs = {}
    for parallel in (False, True):
        monkeypatch.setattr(training, "can_plan_in_parallel", lambda: parallel)
        tr = Trainer(tiny_config(), kb, goals)
        tr.warm_start()
        losses, pids = [], []
        for epoch in range(4):
            monkeypatch.setattr(training, "plan", (lambda *a, **k: 0) if epoch == 1 else real_plan)
            losses.append(tr.run_epoch(epoch).curiosity_loss)
            pids.append(tr._worker.pid if tr._worker is not None else None)
        outs[parallel] = losses, curiosity_state(tr)
        tr.close()
    assert outs[True] == outs[False]
    assert pids[0] is not None and pids == [pids[0]] * 4
    assert finished == pids
    assert_no_children()


def test_curiosity_job_follows_buffers_replaced_after_the_fork(data, monkeypatch):
    # Nothing in the package replaces a buffer; a job still trains on the
    # trainer's buffers as they are, not on copies taken at the fork.
    kb, goals = data
    finished = counting(monkeypatch, PlanWorker, "finish_training")
    outs = {}
    for parallel in (False, True):
        monkeypatch.setattr(training, "can_plan_in_parallel", lambda: parallel)
        tr = Trainer(tiny_config(), kb, goals)
        tr.warm_start()
        losses = []
        for epoch in range(4):
            if epoch == 2:
                kept = ReplayBuffer(tr.config.buffer_capacity, kind="real")
                for i in range(0, len(tr.real_buffer), 2):
                    kept.append(tr.real_buffer[i])
                tr.real_buffer = kept
            losses.append(tr.run_epoch(epoch).curiosity_loss)
        outs[parallel] = losses, curiosity_state(tr)
        tr.close()
    assert len(finished) == 4
    assert outs[True] == outs[False]
    assert_no_children()


def test_curiosity_error_on_the_worker_reaches_parent_and_exits_3(tmp_path, data, monkeypatch, capsys):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    parent, real_fit = os.getpid(), CuriosityModel.fit

    def fit(self, *args):
        if os.getpid() != parent:
            raise NumericError("non-finite loss (forced on the worker)")
        return real_fit(self, *args)

    monkeypatch.setattr(CuriosityModel, "fit", fit)
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    with pytest.raises(NumericError, match="forced on the worker"):
        tr.run_epoch(0)
    assert tr._worker is None
    assert_no_children()

    assert main(["gen-data", "--movies", "80", "--goals-spec", "1:10,2:5,4:5",
                 "--out-dir", str(tmp_path)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tiny_config(out_dir=str(tmp_path / "runs"), kb_path=str(tmp_path / "kb.json"),
                                             goals_path=str(tmp_path / "goals.json")).to_json()))
    assert main(["train", "--config", str(config)]) == 3
    assert "forced on the worker" in capsys.readouterr().err
    assert_no_children()


@pytest.mark.parametrize("failing_part", [1, 2])
def test_curiosity_error_in_either_part_of_a_job_reaches_parent(data, monkeypatch, failing_part):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    parent, real_fit, parts = os.getpid(), CuriosityModel.fit, []

    def fit(self, *args):
        if os.getpid() != parent:
            parts.append(args)  # the worker's own copy of the list
            if len(parts) == failing_part:
                raise NumericError(f"non-finite loss (forced in part {failing_part})")
        return real_fit(self, *args)

    monkeypatch.setattr(CuriosityModel, "fit", fit)
    kb, goals = data
    tr = Trainer(tiny_config(**LONG_JOBS), kb, goals)
    tr.warm_start()
    with pytest.raises(NumericError, match=f"forced in part {failing_part}"):
        tr.run_epoch(0)
    assert tr._worker is None
    assert_no_children()


def test_error_in_dqn_sim_kills_the_training_worker(data, monkeypatch):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    started = counting(monkeypatch, PlanWorker, "start_training")
    real_update = DqnAgent.update

    def update(self, buffer, *args, **kwargs):
        if buffer.kind == "simulated":
            raise NumericError("forced in dqn_sim")
        return real_update(self, buffer, *args, **kwargs)

    monkeypatch.setattr(DqnAgent, "update", update)
    kb, goals = data
    tr = Trainer(tiny_config(), kb, goals)
    tr.warm_start()
    with pytest.raises(NumericError, match="forced in dqn_sim"):
        tr.run_epoch(0)
    assert len(started) == 1 and tr._worker is None
    assert_no_children()


def test_pickled_trainer_resumes_with_a_worker_byte_identical(tmp_path, data, monkeypatch):
    monkeypatch.setattr(training, "can_plan_in_parallel", lambda: True)
    kb, goals = data
    cfg = tiny_config(out_dir=str(tmp_path))
    straight = run_experiment(cfg, kb, goals)
    b1, b2, b3 = stage_boundaries(cfg.epochs)
    ends = {b1: 1, b2: 2, b3: 3, cfg.epochs: 4}

    def run_epochs(tr, epochs):
        for epoch in epochs:
            tr.run_epoch(epoch)
            if epoch + 1 in ends:
                tr.evaluate(epoch + 1, ends[epoch + 1])

    tr = Trainer(cfg, kb, goals)
    tr.warm_start()
    k = b1 + 1  # past an evaluation
    run_epochs(tr, range(k))
    assert tr._worker is not None
    snapshot = pickle.dumps(tr)
    tr.close()
    resumed = pickle.loads(snapshot)
    assert resumed._worker is None
    finished = counting(monkeypatch, PlanWorker, "finish_training")
    run_epochs(resumed, range(k, cfg.epochs))
    assert len(finished) == cfg.epochs - k and resumed._worker is not None
    resumed.close()
    write_metrics_csv(tmp_path / "metrics.csv", cfg.run_id, cfg, resumed.epoch_reports)
    write_eval_csv(tmp_path / "eval.csv", cfg.run_id, resumed.eval_reports)
    for name in ("metrics.csv", "eval.csv"):
        assert (tmp_path / name).read_bytes() == (straight / name).read_bytes()
    assert_no_children()
