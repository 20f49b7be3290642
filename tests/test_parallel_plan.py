"""Planning on a forked worker: byte-identical to in-process planning, and
no worker process outlives its Trainer."""

import gc
import os
import signal

import pytest

import dialogrl.training as training
from dialogrl.errors import NumericError
from dialogrl.nets import blas_thread_control
from dialogrl.training import RunConfig, Trainer, load_run_data, run_experiment
from dialogrl.world import PlanWorker, can_plan_in_parallel


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
