"""Outside-in spans around the public callables of each ``repro`` layer.

The benchmark records per-layer time without any hook inside the
program: :func:`instrumented` swaps each public callable listed in
:data:`LAYERS` for a wrapper that records a span, and puts the
originals back on exit.  Spans stay in memory (flat lists, one entry
per call) until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
from time import process_time_ns
from typing import Callable, List, Optional

#: span name -> the public callables it times.  ``Class.method`` entries
#: cover every loaded subclass that defines the method itself.
LAYERS = {
    "training.batch": ["repro.training.datasets:BatchStream.batch"],
    "training.grad": ["repro.training.models:Model.loss_and_gradient"],
    "training.eval": ["repro.training.evaluation:held_out_loss"],
    "core.encode": ["repro.training.strategies:TrainingStrategy.encode"],
    "core.decode": ["repro.training.strategies:TrainingStrategy.decode"],
    "simulation.round": ["repro.simulation.cluster:ClusterSimulator.run_round"],
    "engine.round": [
        "repro.engine.core:RoundEngine.run_step",
        "repro.engine.core:RoundEngine.step_updates",
    ],
    "engine.update": [
        "repro.engine.rules:UpdateRule.apply",
        "repro.engine.rules:AsyncUpdate.apply_arrival",
    ],
    "engine.arrivals": [
        "repro.engine.backends:AsyncArrivalBackend.schedule",
        "repro.engine.backends:AsyncArrivalBackend.next_arrival",
    ],
    "engine.build": ["repro.engine.spec:build_engine"],
    "engine.snapshot": ["repro.engine.core:RoundEngine.snapshot"],
    "engine.restore": ["repro.engine.core:RoundEngine.restore"],
    "serve.pool.acquire": ["repro.serve.pool:WorkerPool.acquire"],
    "serve.runner.step": ["repro.serve.runner:JobRunner.step"],
    "serve.mailbox.checkpoint": ["repro.serve.mailbox:ServeMailbox.write_checkpoint"],
    "serve.mailbox.state": ["repro.serve.mailbox:ServeMailbox.write_state"],
    "serve.scheduler.pick": ["repro.serve.scheduler:FairScheduler.pick"],
    "obs.trace.append": ["repro.obs.jsonl:TraceStreamWriter.append"],
}


class SpanRecorder:
    """Records nested spans: name, start, end, parent and request id.

    ``request`` is set by the benchmark loop (the round index on train
    workloads) or by the pool-acquire wrapper (job id and quantum on
    serve) and is stamped on every span opened while it holds.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[object] = []
        self.request: object = None
        #: bytes of JSON produced, per counter name (snapshots, mailbox).
        self.bytes: dict = {}
        #: time spent in ``after`` hooks: the benchmark's own measuring,
        #: excluded from the wall time that shares divide by.
        self.hook_ns = 0
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args)`` runs ahead of the span (to set the request id);
        ``after(args, result)`` runs once the span has closed, so what it
        measures is not charged to ``name``.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = process_time_ns()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                h0 = process_time_ns()
                after(args, result)
                self.hook_ns += process_time_ns() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def count_bytes(self, key: str, size: int) -> None:
        self.bytes[key] = self.bytes.get(key, 0) + size

    def write(self, path: str) -> None:
        """Dump every span as one tab-separated line, times in ns from
        the first span's start."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            fh.writelines(
                f"{name}\t{start - t0}\t{end - t0}\t{parent}\t{request}\n"
                for name, start, end, parent, request in zip(
                    self.names, self.starts, self.ends, self.parents,
                    self.requests)
            )


def _hooks(recorder: SpanRecorder, name: str):
    """Extra measurements some spans take around the timed call."""
    if name == "serve.pool.acquire":
        quanta: dict = {}

        def before(args):
            job_id = args[1].job_id
            quanta[job_id] = quanta.get(job_id, -1) + 1
            recorder.request = f"{job_id}#{quanta[job_id]}"

        return before, None
    if name == "serve.scheduler.pick":
        def before(args):
            recorder.request = "scheduler"

        return before, None
    if name == "engine.snapshot":
        def after(args, state):
            recorder.count_bytes(name, len(json.dumps(state.to_dict())))

        return None, after
    if name in ("serve.mailbox.checkpoint", "serve.mailbox.state"):
        sub = "checkpoints" if name.endswith("checkpoint") else "jobs"

        def after(args, _result):
            mailbox, job = args[0], args[1]
            path = mailbox.root / sub / f"{job.job_id}.json"
            recorder.count_bytes("serve.mailbox", path.stat().st_size)

        return None, after
    return None, None


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every :data:`LAYERS` callable for the duration of the block.

    Raises ``LookupError`` when a target wraps nothing (a method renamed
    or moved in ``src/``), since that layer would then read 0.
    """
    undo = []
    try:
        for name, targets in LAYERS.items():
            before, after = _hooks(recorder, name)
            for target in targets:
                wrapped = len(undo)
                module_name, _, qual = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    for klass in _subclasses(getattr(module, cls_name)):
                        if attr in vars(klass):
                            original = vars(klass)[attr]
                            undo.append((klass, attr, original))
                            setattr(klass, attr, recorder.wrap(
                                name, original, before, after))
                else:
                    # A module-level function is re-exported under the
                    # same name by package __init__ files and bound by
                    # callers at import time: rebind every such reference.
                    original = getattr(module, qual)
                    wrapper = recorder.wrap(name, original, before, after)
                    for mod in list(sys.modules.values()):
                        if (getattr(mod, "__name__", "").startswith("repro")
                                and getattr(mod, qual, None) is original):
                            undo.append((mod, qual, original))
                            setattr(mod, qual, wrapper)
                if len(undo) == wrapped:
                    raise LookupError(f"{name}: {target} wrapped nothing")
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
