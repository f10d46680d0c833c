"""Outside-in tracer: spans around the public entry points of each layer.

The tracer changes no file of the library.  :meth:`Tracer.install`
replaces a public method with a wrapper that opens
a span, calls the original and closes the span; :meth:`Tracer.uninstall`
puts every original back.  Spans nest on one stack, so a span's *self
time* is its duration minus the time its child spans cover, and the self
times of all spans plus the benchmark's own root spans add up to the
measured wall time exactly.

Each layer is named after the module it wraps (``LAYERS`` below).  The
benchmark opens one root span per top-level request (a client call, a
window, a kernel batch); every span records the id of the root it runs
under, so a request's spans can be pulled out of the trace JSON.

Per-layer totals (self time, calls, items) are kept for every span, and
survive :meth:`Tracer.uninstall`, so a run can switch the wrappers on and
off between blocks of requests and sum the traced blocks.  Individual
spans are kept only until ``MAX_SPANS`` is reached, which bounds memory
on workloads that open millions of spans.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import BlockedBloomFilter, HashEngine, LinearProbingTable
from repro.service import (
    Service,
    ServiceClient,
    ShardCore,
    ShardJournal,
    ShardRouter,
    Supervisor,
    Worker,
)

clock = time.perf_counter

# The benchmark's own span around one top-level request.  Its self time
# is the part of a request no wrapped layer accounts for.
ROOT = "request"

# Individual spans kept per tracer; totals are kept for all of them.
MAX_SPANS = 20_000

# Counting hooks: (args, result) -> number of items the call handled.
Count = Optional[Callable[[tuple, object], int]]


def _keys_arg(args, result) -> int:
    return len(args[1])


def _one(args, result) -> int:
    return 1


def _segment_keys(args, result) -> int:
    return len(args[2])


def _queued_after_pump(args, result) -> int:
    return sum(worker.queue_depth for worker in args[0].workers)


# Layer name -> the public entry points whose spans it owns.  The
# benchmark's shards execute inline, so ``backends.collect`` is only the
# cost of handing results back; under process execution the shards' own
# spans would run in children the tracer cannot see.
LAYERS: Dict[str, List[Tuple[object, str, Count]]] = {
    "client": [
        (ServiceClient, "multi_get", None),
        (ServiceClient, "put_many", None),
        (ServiceClient, "get", None),
        (ServiceClient, "put", None),
    ],
    "service.submit": [
        (Service, "submit", None),
        (Service, "submit_batch", None),
    ],
    "service.pump": [(Service, "pump", _queued_after_pump)],
    "router": [
        (ShardRouter, "route_batch", _keys_arg),
        (ShardRouter, "route_one", _one),
    ],
    "supervisor": [
        (Supervisor, "observe", None),
        (Supervisor, "adapt", None),
    ],
    "worker.dispatch": [(Worker, "dispatch", None)],
    "backends.collect": [(Worker, "collect", None)],
    "core.serve_segment": [(ShardCore, "serve_segment", _segment_keys)],
    "engine.hash_batch": [(HashEngine, "hash_batch", _keys_arg)],
    "journal": [
        (ShardJournal, "record_put", None),
        (ShardJournal, "record_delete", None),
    ],
    "tables.probe_batch": [(LinearProbingTable, "probe_batch", None)],
    "filters.contains_batch": [
        (BlockedBloomFilter, "contains_batch", None),
    ],
}


class Tracer:
    """A span stack with per-layer totals and a bounded span log."""

    def __init__(self):
        self._installed: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        # (span id, parent id, request id, name, start, end)
        self.spans: List[tuple] = []
        self._next_id = 0
        self._request = -1

    # -------------------------------------------------------------- spans

    def enter(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        if not self._stack:
            self._request = span_id
        self._stack.append([name, clock(), 0.0, span_id])

    def exit(self) -> None:
        name, start, child, span_id = self._stack.pop()
        end = clock()
        duration = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = -1
        if self._stack:
            outer = self._stack[-1]
            outer[2] += duration
            parent = outer[3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent, self._request, name, start, end)
            )

    # ----------------------------------------------------------- wrapping

    def _wrap(self, owner, attr: str, name: str, count: Count) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                tracer.items[name] = (
                    tracer.items.get(name, 0) + count(args, result)
                )
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every entry point in ``LAYERS``."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for name, points in LAYERS.items():
            for owner, attr, count in points:
                self._wrap(owner, attr, name, count)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ reports

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer totals: self seconds, calls and counted items."""
        return {
            name: {
                "self_s": self.self_time[name],
                "calls": self.calls.get(name, 0),
                "items": self.items.get(name, 0),
            }
            for name in sorted(self.self_time)
        }

    def span_records(self) -> List[Dict[str, object]]:
        """The kept spans, oldest first, with times relative to the first."""
        spans = sorted(self.spans, key=lambda span: span[4])
        origin = spans[0][4] if spans else 0.0
        return [
            {"id": sid, "parent": parent, "request": request, "name": name,
             "start_us": round((start - origin) * 1e6, 3),
             "end_us": round((end - origin) * 1e6, 3)}
            for sid, parent, request, name, start, end in spans
        ]
