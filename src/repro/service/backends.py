"""Execution backends: how a shard's core actually runs.

The worker shell (queueing, answers, journal, fault hooks) is backend-
agnostic; an :class:`ExecutionBackend` decides *where* the
:class:`~repro.service.core.ShardCore` lives.  Both backends speak one
shard protocol: a batch of wire segments goes to
``ShardCore.serve_batch`` and comes back as a ``(results, crashed)``
reply, and every other piece of shard work — degraded-mode moves,
rearm, migration apply, structure stats — is one named
``ShardCore.control`` op.

Both are built as ``(spec, shard_id)`` and run one lifecycle: the core
is built with :meth:`ShardCore.from_spec`, a restart rebuilds it from
the spec and the worker's acked-only journal, and a rearm re-points the
spec (``Worker.rearm_with``) so every later restart builds the
re-learned plan.  Fault injection lives in the worker shell and the
service, never in the core.  The backend decides only where the core
runs:

* :class:`InlineBackend` — the core is embedded in the parent and
  serves synchronously inside ``Worker.dispatch``.  This is the
  original cooperative pump, kept as the differential fuzzer's
  reference semantics: same fault injection points, same segment
  atomicity, same journal-at-ack ordering.
* :class:`ProcessBackend` — one forked OS process per shard.  A child
  handles three messages: ``batch`` (one ``serve_batch`` call), ``ctl``
  (one ``control`` call) and ``stop``.  They travel over a bounded
  ``multiprocessing`` queue, replies come back the same way, and the
  child bumps one shared heartbeat word after every segment and every
  replayed journal chunk so the parent can tell slow from dead.  The
  word is the only state the two sides share; every counter the
  parent reports is its own.  Dispatch and
  collect are split phases: ``Service.pump`` dispatches one batch to
  *every* shard before collecting any, which is where the multi-core
  parallelism comes from.

The crash model is identical on both sides because acknowledgement and
journaling are parent-side shell work: a child that dies mid-batch
(injected ``crash`` directive, injected ``sigkill``, or a genuine
out-of-band ``kill -9``) has answered some prefix of its segments;
exactly that prefix was acked and journaled, the rest of the rows
reconcile back to the front of the queue, and the replacement child is
rebuilt from the acked-only journal — so nothing acked is lost and
nothing unacked is double-applied, no matter how rudely the process
died.  A control op the child cannot run (dead, jammed or silent) is
the same crash: the child is stopped, the worker restarts it from the
journal, and the supervisor re-applies an open breaker's fallback.
"""

from __future__ import annotations

import os
import queue as pyqueue
import signal
import time
import weakref
from typing import List, Optional, Tuple

from repro.faults import InjectedCrash
from repro.metrics import Reported

from repro.service.adapters import AdapterSpec, StructureAdapter
from repro.service.core import ShardCore, WireResult

EXECUTIONS = ("inline", "process")

# A served batch: the served prefix's wire results, and whether the
# batch ended in a crash.
Reply = Tuple[List[WireResult], bool]

# Exit code a child uses for an injected crash directive, to make a
# deliberate death distinguishable from a Python fault in post-mortems.
_CRASH_EXIT = 23
# How long a child waits on its command queue before re-checking that
# its parent is still alive (orphan children must not linger forever).
_ORPHAN_POLL_S = 5.0
# The parent's patience: a child neither replying nor beating for this
# long is killed and recovered as a crash.  Also bounds a command put.
COLLECT_TIMEOUT_S = 30.0
# Slots in each direction's queue; a batch is answered before the next
# is sent, so a handful is plenty.
_QUEUE_SIZE = 4


def fork_available() -> bool:
    """Process execution requires the ``fork`` start method: adapter
    specs, journals, and the heartbeat word are passed to the child by
    inheritance, never pickled through a spawn server."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


class ExecutionBackend(Reported):
    """Where and how one shard's core executes.

    Two calls carry all shard work: :meth:`serve` (with :meth:`collect`
    for a deferred reply) for one batch of wire segments, and
    :meth:`control` for one named op.  A reply is ``(results,
    crashed)``: the wire results of the served prefix, and whether the
    batch ended in a crash.  The worker shell absorbs it the same way
    for every backend.
    """

    kind: str = ""
    REPORTS = ("execution=kind",)

    def __init__(self, spec: AdapterSpec, shard_id: int):
        # The recipe every (re)build of this shard's core starts from;
        # a rearm replaces it with the re-learned plan's.
        self.spec = spec
        self.shard_id = shard_id
        self.structure_backend = spec.backend

    @property
    def adapter(self) -> Optional[StructureAdapter]:
        """The live in-parent adapter, or None when the structure lives
        in a child process."""
        return None

    @property
    def tripped(self) -> bool:
        raise NotImplementedError

    def start(self, worker) -> None:
        """Build the core from the spec and the worker's journal (a
        child spawn for process execution).  Called once from
        ``Worker.__init__``."""
        raise NotImplementedError

    def serve(self, wire, crash_at, kill) -> Optional[Reply]:
        """Serve one batch of wire segments.

        Inline execution serves synchronously and returns the reply;
        process execution ships the batch to the child and returns None
        — the reply comes from :meth:`collect`.  ``crash_at`` injects a
        mid-batch crash before that segment index; ``kill`` delivers a
        real SIGKILL instead.
        """
        raise NotImplementedError

    def collect(self) -> Optional[Reply]:
        """The reply to the batch :meth:`serve` deferred, if any."""
        return None

    def restart(self, worker) -> None:
        """Rebuild the core from the spec and the worker's acked-only
        journal, and count the replay."""
        raise NotImplementedError

    def control(self, name: str, arg: object = None) -> object:
        """Run one :meth:`ShardCore.control` op and return its payload.

        Raises :class:`~repro.faults.InjectedCrash` when the core cannot
        run it (a dead child, a jammed queue, no answer); the child is
        stopped by then, and the worker restarts it from the journal.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release child processes/queues (idempotent; no-op inline)."""


class InlineBackend(ExecutionBackend):
    """The original cooperative pump: the core runs in the parent."""

    kind = "inline"

    @property
    def adapter(self) -> StructureAdapter:
        return self.core.adapter

    @property
    def tripped(self) -> bool:
        return self.core.adapter.tripped

    def start(self, worker) -> None:
        self.core = ShardCore.from_spec(self.spec, worker.journal.snapshot())

    def serve(self, wire, crash_at, kill) -> Reply:
        # An inline worker has no process to kill: an injected sigkill
        # degenerates to the ordinary mid-batch crash directive, which
        # keeps fault plans portable across executions.
        if kill:
            crash_at = len(wire) // 2
        return self.core.serve_batch(wire, crash_at), crash_at is not None

    def restart(self, worker) -> None:
        self.start(worker)
        worker.journal.mark_replay()

    def control(self, name: str, arg: object = None) -> object:
        return self.core.control(name, arg)


def _shard_child_main(
    shard_id: int,
    spec: AdapterSpec,
    entries: List,
    heartbeat,
    incarnation: int,
    cmd_q,
    res_q,
) -> None:
    """One shard child: build the core, replay the journal, serve.

    Runs in a forked process.  Everything it receives arrived by fork
    inheritance or as plain pickled data (wire batches, control args);
    everything it sends back is plain wire data.  It exits through
    ``os._exit`` in every path so a shard child never runs the parent's
    atexit machinery it inherited.
    """
    parent_pid = os.getppid()
    exit_code = 0

    def beat(n: int) -> None:
        heartbeat.value += 1

    def _reply(*fields) -> None:
        # Every reply ends with the structure's tripped flag.
        res_q.put(fields + (bool(core.adapter.tripped),))

    try:
        core = ShardCore.from_spec(spec, entries, progress=beat)
        _reply("ready", incarnation)
        while True:
            try:
                msg = cmd_q.get(timeout=_ORPHAN_POLL_S)
            except pyqueue.Empty:
                # Orphan check: a parent that was itself SIGKILLed can
                # never send "stop"; don't linger behind it.
                if os.getppid() != parent_pid:
                    break
                continue
            tag = msg[0]
            if tag == "stop":
                break
            if tag == "ctl":
                # The op's arg arrives pickled: a re-learned
                # EntropyModel is how a new plan ships to an
                # already-forked child, and migrated entries replay
                # heartbeating like a spawn replay, so the parent can
                # tell a long migration from a hang.
                _, inc, name, arg = msg
                _reply("ctl_done", inc, name,
                       core.control(name, arg, progress=beat))
            elif tag == "batch":
                _, inc, batch_id, wire, crash_at = msg
                results = core.serve_batch(wire, crash_at, progress=beat)
                _reply("served", inc, batch_id, results, crash_at is not None)
                if crash_at is not None:
                    # Injected crash directive: the parent acks and
                    # journals exactly the reported prefix; the flush
                    # below delivers it, then the child dies for real.
                    exit_code = _CRASH_EXIT
                    break
    except (KeyboardInterrupt, SystemExit):
        exit_code = 1
    except BaseException:
        # A structure bug is just another crash to the parent: it sees
        # the dead child, reconciles the batch, and rebuilds from the
        # journal.  Die loudly enough for a post-mortem exit code.
        exit_code = 1
    finally:
        try:
            res_q.close()
            res_q.join_thread()
        except Exception:
            pass
    os._exit(exit_code)


def _terminate(process) -> None:
    """Module-level so a weakref finalizer can hold it without keeping
    the backend itself alive."""
    if process is None or process.pid is None:
        return
    try:
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
    except Exception:
        pass


class ProcessBackend(ExecutionBackend):
    """One OS process per shard over bounded queues + a heartbeat word."""

    kind = "process"
    REPORTS = ExecutionBackend.REPORTS + (
        "incarnation", "child_alive", "child_pid=_child_pid")

    def __init__(self, spec: AdapterSpec, shard_id: int):
        if not fork_available():
            raise RuntimeError(
                "process execution requires the 'fork' start method "
                "(adapter specs and the heartbeat word cross the "
                "boundary by inheritance)"
            )
        import multiprocessing

        super().__init__(spec, shard_id)
        self.ctx = multiprocessing.get_context("fork")
        # Shared with every child this backend forks: the child bumps
        # it, the parent only watches it move.
        self.heartbeat = self.ctx.RawValue("Q", 0)
        self.incarnation = 0
        self.process = None
        self.cmd_q = None
        self.res_q = None
        self._batch_id = 0
        self._outstanding = None
        self._killed = False
        self._tripped = False
        self._finalizer = None

    # --------------------------------------------------------- lifecycle

    @property
    def tripped(self) -> bool:
        return self._tripped

    @property
    def child_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self, worker) -> None:
        self._spawn(worker)

    def restart(self, worker) -> None:
        self._stop_child()
        self._outstanding = None
        self._killed = False
        self._spawn(worker)
        # The replay happened on the child's side of the fork; the
        # parent journal still owns the count.
        worker.journal.mark_replay()

    def close(self) -> None:
        self._stop_child(graceful=True)
        self._close_queues()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _spawn(self, worker) -> None:
        self.incarnation += 1
        self._close_queues()
        self.cmd_q = self.ctx.Queue(_QUEUE_SIZE)
        self.res_q = self.ctx.Queue(_QUEUE_SIZE)
        entries = worker.journal.snapshot()
        self.process = self.ctx.Process(
            target=_shard_child_main,
            args=(
                self.shard_id, self.spec, entries, self.heartbeat,
                self.incarnation, self.cmd_q, self.res_q,
            ),
            daemon=True,
            name=f"repro-shard-{self.shard_id}-gen{self.incarnation}",
        )
        self.process.start()
        if self._finalizer is not None:
            self._finalizer.detach()
        self._finalizer = weakref.finalize(self, _terminate, self.process)
        ready = self._await(
            lambda msg: msg[0] == "ready" and msg[1] == self.incarnation
        )
        if ready is None:
            self._stop_child()
            raise RuntimeError(
                f"shard {self.shard_id} child (incarnation "
                f"{self.incarnation}) failed to come up"
            )
        self._tripped = bool(ready[2])

    def _stop_child(self, graceful: bool = False) -> None:
        process = self.process
        if process is None:
            return
        if process.is_alive() and graceful and self.cmd_q is not None:
            try:
                self.cmd_q.put(("stop",), timeout=0.5)
                process.join(timeout=2.0)
            except Exception:
                pass
        _terminate(process)
        try:
            process.join(timeout=1.0)
        except Exception:
            pass
        self.process = None

    def _close_queues(self) -> None:
        for q in (self.cmd_q, self.res_q):
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self.cmd_q = None
        self.res_q = None

    # ----------------------------------------------------------- serving

    def _send(self, message) -> bool:
        """Put one command to the live child; False, with the child
        stopped, when it is dead or its command queue is jammed."""
        if self.child_alive:
            try:
                self.cmd_q.put(message, timeout=COLLECT_TIMEOUT_S)
                return True
            except Exception:
                pass
        self._stop_child()
        return False

    def serve(self, wire, crash_at, kill) -> Optional[Reply]:
        self._batch_id += 1
        if not self._send(
            ("batch", self.incarnation, self._batch_id, wire, crash_at)
        ):
            # Out-of-band death (e.g. an external `kill -9`) or a jammed
            # queue: a crash with nothing served, so the supervisor's
            # journal-replay restart takes over — a real SIGKILL is
            # just another FaultPlane crash from here on.
            return [], True
        self._outstanding = self._batch_id
        if kill:
            # A real SIGKILL, delivered while the batch is (racily) in
            # flight.  Whatever prefix the child managed to report is
            # absorbed from collect(); the rest reconciles.
            self._killed = True
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        return None

    def collect(self) -> Optional[Reply]:
        if self._outstanding is None:
            return None
        batch_id, self._outstanding = self._outstanding, None
        reply = self._await(
            lambda msg: (msg[0] == "served"
                         and msg[1] == self.incarnation
                         and msg[2] == batch_id)
        )
        if reply is None:
            results, crashed = [], True
        else:
            results, crashed = reply[3], bool(reply[4]) or self._killed
            self._tripped = bool(reply[5])
        if crashed:
            self._killed = False
            self._stop_child()
        return results, crashed

    def _await(self, matches):
        """Wait for a matching reply, heartbeat-aware.

        Progress (a message, or the shared heartbeat word moving)
        resets the patience window; a child that is neither talking nor
        beating for :data:`COLLECT_TIMEOUT_S` seconds is killed and
        reported as dead (None).  A child seen dead gets one short
        drain pass first — its last reply may still sit in the pipe.
        """
        last_beat = self.heartbeat.value
        last_progress = time.monotonic()
        while True:
            try:
                msg = self.res_q.get(timeout=0.02)
            except pyqueue.Empty:
                msg = None
            except Exception:
                return self._drain_for(matches)
            if msg is not None:
                last_progress = time.monotonic()
                if matches(msg):
                    return msg
                continue  # stale or foreign message: ignore
            if self.process is None or not self.process.is_alive():
                return self._drain_for(matches)
            beat = self.heartbeat.value
            if beat != last_beat:
                last_beat = beat
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > COLLECT_TIMEOUT_S:
                self._stop_child()
                return None

    def _drain_for(self, matches, budget_s: float = 0.5):
        """Final sweep of the result pipe around a child death."""
        deadline = time.monotonic() + budget_s
        while time.monotonic() < deadline:
            try:
                msg = self.res_q.get(timeout=0.05)
            except pyqueue.Empty:
                continue
            except Exception:
                return None
            if matches(msg):
                return msg
        return None

    def control(self, name: str, arg: object = None) -> object:
        incarnation = self.incarnation
        reply = None
        if self._send(("ctl", incarnation, name, arg)):
            reply = self._await(
                lambda msg: (msg[0] == "ctl_done"
                             and msg[1] == incarnation
                             and msg[2] == name)
            )
        if reply is None:
            self._stop_child()
            raise InjectedCrash(
                f"shard {self.shard_id}'s child could not run {name!r}"
            )
        self._tripped = bool(reply[4])
        return reply[3]

    def _child_pid(self) -> Optional[int]:
        return self.process.pid if self.process else None


__all__ = [
    "EXECUTIONS",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "fork_available",
]
