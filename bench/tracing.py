"""Span tracing for the traced benchmark run.

Wrappers time dialogrl's public functions and methods. Each is patched where
its caller looks the name up: a class attribute for methods, and the
importing module's global for functions imported by name (for example
``dialogrl.training.plan`` and ``dialogrl.world.encode_state``).

A span records its name, start, end and parent. Spans stay in memory in
compact arrays and are written out once, at the end of the run. Self time is
a span's duration minus the durations of its children, computed as spans
close. Calls, times and counters are kept per root span (the outermost open
span), so work inside ``training.run_epoch`` is told apart from work inside
evaluations, warm starts and set-up.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict, deque
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, name id, ns covered by children]
        self._root = -1
        # (root name id, name id) -> [calls, total ns, self ns]
        self.stats = defaultdict(lambda: [0, 0, 0])
        # (root name id, counter name) -> value
        self.counters = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.transcript_len: dict[int, int] = {}  # id(env) -> transcript entries counted

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        if not self._stack:
            self._root = nid
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0)
        self._stack.append([idx, nid, 0])
        self.span_start.append(time.perf_counter_ns())

    def close(self) -> None:
        end = time.perf_counter_ns()
        idx, nid, child_ns = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        st = self.stats[(self._root, nid)]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_ns
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str, value: float) -> None:
        self.counters[(self._root, name)] += value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own calls."""
        self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn, after=None):
        """Timed wrapper of fn; ``after(tracer, args, kwargs, result)`` adds counters."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a traced wrapper; absent attributes are skipped."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, after))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # ---- read-out ------------------------------------------------------------

    def calls(self, root: str, name: str) -> int:
        return self.stats[(self.name_id(root), self.name_id(name))][0]

    def total_s(self, root: str, name: str) -> float:
        return self.stats[(self.name_id(root), self.name_id(name))][1] * 1e-9

    def self_s(self, root: str, name: str) -> float:
        return self.stats[(self.name_id(root), self.name_id(name))][2] * 1e-9

    def counter(self, root: str, name: str) -> float:
        return self.counters[(self.name_id(root), name)]

    def write(self, path) -> None:
        """All spans as parallel arrays; names index into the ``names`` array."""
        np.savez(Path(path),
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))


# ---- counters recorded at the layer boundaries ---------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(tracer, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    tracer.count("nets.forward.rows", 1 if x.ndim == 1 else x.shape[0])


def _batches(tracer, args, kwargs, result):
    tracer.count("agent.update.batches", _arg(args, kwargs, 2, "n_batches"))


def _plan(tracer, args, kwargs, result):
    from dialogrl.world import plan

    bound = inspect.signature(plan).bind(*args, **kwargs).arguments
    tracer.count("world.plan.rollouts", bound["rounds"] * bound["dialogs_per_round"])
    tracer.count("world.plan.transitions", result)


def _discarded(tracer, args, kwargs, result):
    # Only the values go to action selection; any next-state rows are discarded.
    if isinstance(result, tuple) and len(result) > 1 and isinstance(result[1], np.ndarray):
        tracer.count("curiosity.scores.discarded_rows", result[1].shape[0])


def _reset_transcript(tracer, args, kwargs, result):
    env = args[0]
    tracer.transcript_len[id(env)] = len(env.transcript)
    tracer.count("env.transcript.entries", len(env.transcript))


def _step_transcript(tracer, args, kwargs, result):
    env = args[0]
    before = tracer.transcript_len.get(id(env), 0)
    tracer.transcript_len[id(env)] = len(env.transcript)
    tracer.count("env.transcript.entries", len(env.transcript) - before)


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of dialogrl."""
    import dialogrl.training as training
    import dialogrl.world as world
    from dialogrl.agent import DqnAgent, ReplayBuffer
    from dialogrl.curiosity import CuriosityModel
    from dialogrl.domain import KnowledgeBase
    from dialogrl.env import DialogEnv
    from dialogrl.nets import MlpModel

    p = tracer.patch
    p(KnowledgeBase, "match_ids", "domain.match_ids")
    p(DialogEnv, "reset", "env.reset", _reset_transcript)
    p(DialogEnv, "step", "env.step", _step_transcript)
    p(training, "encode_state", "env.encode_state")
    p(world, "encode_state", "env.encode_state")
    p(DqnAgent, "select_action", "agent.select_action")
    p(DqnAgent, "update", "agent.update", _batches)
    p(ReplayBuffer, "sample", "agent.buffer.sample")
    p(MlpModel, "forward", "nets.forward", _rows)
    p(MlpModel, "train_minibatch", "nets.train_minibatch")
    p(training, "plan", "world.plan", _plan)
    p(world.WorldModel, "predict", "world.predict")
    p(world.WorldModel, "train", "world.train")
    p(CuriosityModel, "scores", "curiosity.scores", _discarded)
    p(CuriosityModel, "train", "curiosity.train")
    p(training.Trainer, "warm_start", "training.warm_start")
    p(training.Trainer, "run_epoch", "training.run_epoch")
    p(training.Trainer, "evaluate", "training.evaluate")


def deep_bytes(obj) -> int:
    """Bytes held by obj and everything it references (arrays by their buffers)."""
    seen = set()
    total = 0
    todo = deque([obj])
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            total += sys.getsizeof(o) if o.base is None else o.nbytes
            continue
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            todo.extend(o.keys())
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset, deque)):
            todo.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo.append(vars(o))
    return total
