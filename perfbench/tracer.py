"""Span recording around the public entry points of the layers under test.

A :class:`Tracer` wraps public functions of ``repro.core``,
``repro.hierarchy``, ``repro.serve`` and ``repro.network`` from the
outside (nothing under ``src/`` changes) and records one span per call:
name, start, end, parent span, the id of the outermost span of the call
chain (the batch or operation id) and, where the first argument is a
matrix, its row count. Spans stay in memory until :meth:`Tracer.dump`.

Every wrapped function is synchronous and the program under test runs
its Python code on one thread, so spans nest strictly and a span's self
time is its duration minus its children's durations. The asyncio event
loop's wait for I/O or timers is not a function of the program; it is
timed through a selector subclass and kept as one aggregate
(``serve.runtime.poll``) because there is one such wait per loop
iteration, far too many to store individually.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import os
import selectors
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (layer, module, owner, attribute). The layer is the
#: group a span's self time is charged to.
WRAPPED = {
    "core.encoding.encode": ("core.encoding", "repro.core.encoding", "Encoder", "encode"),
    "core.projection.build": ("core.projection", "repro.core.projection", "TernaryProjection", "__init__"),
    "core.projection.project": ("core.projection", "repro.core.projection", "TernaryProjection", "project"),
    "core.classifier.predict": ("core.classifier", "repro.core.classifier", "HDClassifier", "predict"),
    "core.classifier.retrain": ("core.classifier", "repro.core.classifier", "HDClassifier", "retrain"),
    "core.classifier.fit_initial": ("core.classifier", "repro.core.classifier", "HDClassifier", "fit_initial"),
    "hierarchy.federation.encode_at": ("hierarchy.federation", "repro.hierarchy.federation", "EdgeHDFederation", "encode_at"),
    "hierarchy.federation.encode_leaf": ("hierarchy.federation", "repro.hierarchy.federation", "EdgeHDFederation", "encode_leaf"),
    "hierarchy.federation.combine_children": ("hierarchy.federation", "repro.hierarchy.federation", "EdgeHDFederation", "combine_children"),
    "hierarchy.federation.fit_offline": ("hierarchy.federation", "repro.hierarchy.federation", "EdgeHDFederation", "fit_offline"),
    "hierarchy.inference.run": ("hierarchy.inference", "repro.hierarchy.inference", "HierarchicalInference", "run"),
    "hierarchy.checkpoint.save": ("hierarchy.checkpoint", "repro.hierarchy.checkpoint", None, "save_topology_state"),
    "hierarchy.checkpoint.load": ("hierarchy.checkpoint", "repro.hierarchy.checkpoint", None, "load_topology_state"),
    "hierarchy.control.fit": ("hierarchy.control", "repro.hierarchy.control", "TopologyController", "fit"),
    "hierarchy.control.checkpoint": ("hierarchy.control", "repro.hierarchy.control", "TopologyController", "checkpoint"),
    "hierarchy.control.restore": ("hierarchy.control", "repro.hierarchy.control", "TopologyController", "restore"),
    "hierarchy.control.join": ("hierarchy.control", "repro.hierarchy.control", "TopologyController", "join"),
    "hierarchy.control.drain": ("hierarchy.control", "repro.hierarchy.control", "TopologyController", "drain"),
    "hierarchy.control.fingerprint": ("hierarchy.control", "repro.hierarchy.control", "TopologyController", "fingerprint"),
    "network.medium.transfer_time": ("network.medium", "repro.network.medium", "Medium", "transfer_time"),
    "serve.shard.publish": ("serve.shard", "repro.serve.shard", "SharedModelStore", "publish"),
    "serve.cluster.dispatch": ("serve.cluster", "repro.serve.registry", "ReplicaRegistry", "dispatch"),
}

#: layers in report order; each one's self time is ``<layer>.self_share``.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in WRAPPED.values()))

#: module-level functions that other modules import by name: the
#: wrapper must also replace each importer's binding, or calls through
#: it bypass the span (``TopologyController.restore`` reaches
#: ``load_topology_state`` that way).
IMPORTED_BY_NAME = {
    "hierarchy.checkpoint.save": ("repro.hierarchy.control", "repro.hierarchy"),
    "hierarchy.checkpoint.load": ("repro.hierarchy.control", "repro.hierarchy"),
}

#: spans whose row count is a positional integer argument (its index).
COUNT_ARG = {"serve.cluster.dispatch": 2}

#: the asyncio loop's selector wait (aggregate, see module docstring).
POLL = "serve.runtime.poll"

#: async entry point whose batches are counted, not spanned: its await
#: interleaves with other tasks, so it has no self time of its own.
BATCHER = ("repro.serve.batcher", "MicroBatcher", "next_batch")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (span id, name, parent id, start_s, end_s, batch id, rows)
        self.spans: List[Tuple[int, str, int, float, float, int, int]] = []
        #: span id -> seconds its direct children cover.
        self._child_time: Dict[int, float] = defaultdict(float)
        self._stack: List[int] = []
        self._next_id = 0
        self._root = -1
        self.poll_s = 0.0
        self.poll_count = 0
        self.batch_sizes: List[int] = []
        self._restore: List[Callable[[], None]] = []
        self._self_s: Dict[int, float] = {}
        # A forked child (a cluster worker) puts the originals back: its
        # spans would never reach this process, only slow the worker.
        os.register_at_fork(after_in_child=self.uninstall)

    # ------------------------------------------------------------------
    def _open(self) -> Tuple[int, int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        batch = self._root if self._stack else span_id
        if not self._stack:
            self._root = span_id
        self._stack.append(span_id)
        return span_id, parent, batch

    def _close(self, span_id, name, parent, batch, start, rows) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if parent >= 0:
            self._child_time[parent] += duration
        self._self_s[span_id] = duration - self._child_time.pop(span_id, 0.0)
        self.spans.append((span_id, name, parent, start, end, batch, rows))

    def _wrap(self, name: str, func: Callable) -> Callable:
        count_arg = COUNT_ARG.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count_arg is not None:
                rows = int(args[count_arg])
            else:
                shape = getattr(args[1], "shape", None) if len(args) > 1 else None
                rows = (int(shape[0]) if len(shape) > 1 else 1) if shape else 0
            span_id, parent, batch = self._open()
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span_id, name, parent, batch, start, rows)

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`WRAPPED` (idempotent)."""
        if self._restore:
            return
        for name, (_layer, module_name, owner_name, attr) in WRAPPED.items():
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                targets = [module] + [
                    importlib.import_module(m)
                    for m in IMPORTED_BY_NAME.get(name, ())
                ]
                for target in targets:
                    if getattr(target, attr, None) is original:
                        setattr(target, attr, wrapped)
                        self._restore.append(
                            functools.partial(setattr, target, attr, original)
                        )
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                # Bound at call time, so the span sees (cls, first, ...)
                # and reads its row count from the first real argument.
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._restore.append(functools.partial(setattr, owner, attr, raw))

        module = importlib.import_module(BATCHER[0])
        owner = getattr(module, BATCHER[1])
        raw = owner.__dict__[BATCHER[2]]
        sizes = self.batch_sizes

        @functools.wraps(raw)
        async def next_batch(batcher):
            batch = await raw(batcher)
            sizes.append(len(batch))
            return batch

        setattr(owner, BATCHER[2], next_batch)
        self._restore.append(functools.partial(setattr, owner, BATCHER[2], raw))
        asyncio.set_event_loop_policy(_TracedLoopPolicy(self))
        self._restore.append(functools.partial(asyncio.set_event_loop_policy, None))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Position in the span list, to slice out one phase later."""
        return len(self.spans)

    def window(self, since: int, until: Optional[int] = None) -> List[tuple]:
        return self.spans[since:until]

    def self_time(self, spans: List[tuple]) -> Dict[str, float]:
        """Self seconds per span name over ``spans``."""
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span[1]] += self._self_s[span[0]]
        return dict(totals)

    def dump(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, parent, start, end, batch, n_rows in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start_s": start, "end_s": end, "batch": batch,
                    "rows": n_rows, "self_s": self._self_s[span_id],
                }) + "\n")
            fh.write(json.dumps({
                "name": POLL, "aggregate": True, "total_s": self.poll_s,
                "count": self.poll_count,
            }) + "\n")
        return len(self.spans)


def names(spans: List[tuple]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[1]] += 1
    return dict(counts)


def rows(spans: List[tuple], name: str) -> int:
    return sum(s[6] for s in spans if s[1] == name)


def calls(spans: List[tuple], name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def durations(spans: List[tuple], name: str) -> List[float]:
    return [s[4] - s[3] for s in spans if s[1] == name]


def layer_of(name: str) -> str:
    return WRAPPED[name][0]


class _TimedSelector(selectors.DefaultSelector):
    """The default selector, with its blocking wait timed."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        start = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self._tracer.poll_s += time.perf_counter() - start
            self._tracer.poll_count += 1


class _TracedLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """Event loops built by ``asyncio.run`` use :class:`_TimedSelector`."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def new_event_loop(self):
        return asyncio.SelectorEventLoop(_TimedSelector(self._tracer))
