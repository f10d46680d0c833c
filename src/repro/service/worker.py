"""Per-shard workers: one owned structure, one bounded op queue.

A :class:`Worker` is the *shell* around one shard: the bounded ticket
queue, the inflight registry, the ack-time journal, the fault-plane
injection points, and the response/journal absorption logic.  The
structure itself lives behind an
:class:`~repro.service.backends.ExecutionBackend` — embedded in the
parent (:class:`~repro.service.backends.InlineBackend`, the original
cooperative pump and the differential fuzzer's reference semantics) or
in a forked child process
(:class:`~repro.service.backends.ProcessBackend`).

A pump is two phases.  ``dispatch()`` pops one micro-batch, splits it
into consecutive same-op *segments* (one batch call each into the
structure, so per-key ordering is preserved while per-call cost is
amortized), applies the fault plane's worker-level directives (stall,
drop, crash, sigkill), builds the segments' wire form once — keys,
values, and the keys' carried fleet hashes with the router's plan
fingerprint — and hands it to the backend.  One method,
``_absorb``, acks whatever prefix the backend served: responses are
written onto tickets, acknowledged mutations are journaled, and
inflight entries are retired — all parent-side, for both backends,
which is what makes a child's state disposable.  Inline execution
serves synchronously, so ``dispatch`` already absorbs and ``collect``
is a no-op; ``pump()`` runs both phases back-to-back for callers that
don't need the cross-shard parallel window.

Every other verb the service and supervisor send a shard —
``fall_back``, ``restore_partial_key``, ``force_trip``, ``rearm_with``,
``apply_entries`` and the structure half of ``stats`` — is one
``execution.control(name, arg)`` call.  A control op the shard cannot
run marks the worker crashed, so the journal restart repairs it.

Since PR 5 a worker is crash-safe: every acknowledged mutation is
recorded in a per-shard :class:`~repro.service.journal.ShardJournal` at
ack time, tickets popped from the queue live in an inflight registry
until answered, and ``restart()`` rebuilds the structure from the
journal and hands the unanswered tickets back to the supervisor for
front-of-queue requeue.  A segment is atomic — apply, acknowledge,
journal together — so a crash can only land *between* segments, never
tear one; with process execution the same holds because only fully
reported segments are absorbed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.faults import InjectedCrash

from repro.service.adapters import StructureAdapter
from repro.service.backends import ExecutionBackend, InlineBackend, Reply
from repro.service.journal import Entry, ShardJournal
from repro.service.protocol import (
    FAILED,
    OK,
    WRONG_GENERATION,
    Response,
    Ticket,
)


class Worker:
    """One shard: a bounded ticket queue drained in micro-batches."""

    def __init__(
        self,
        shard_id: int,
        adapter: Optional[StructureAdapter] = None,
        max_queue: int = 256,
        batch_size: int = 64,
        factory: Optional[Callable[[], StructureAdapter]] = None,
        journal_checkpoint: int = 4096,
        execution: Optional[ExecutionBackend] = None,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if (adapter is None) == (execution is None):
            raise ValueError("pass exactly one of adapter= or execution=")
        if execution is None:
            execution = InlineBackend(adapter)
        self.shard_id = shard_id
        self.execution = execution
        self.factory = factory
        self.max_queue = max_queue
        self.batch_size = batch_size
        self.queue: Deque[Ticket] = deque()
        # Tickets popped from the queue but not yet answered; the
        # supervisor requeues whatever a crash or a drop leaves behind.
        self.inflight: Dict[int, Ticket] = {}
        # The ticket segments of the batch the backend is serving.
        self._segments: List[List[Ticket]] = []
        # The journal must exist before execution.start(): a process
        # backend snapshots it at spawn so the child replays it.
        self.journal = ShardJournal(
            checkpoint_every=journal_checkpoint,
            multiset=(execution.structure_backend == "cuckoo_filter"),
        )
        self.fault_plane = None
        # The owning service's router, when generation checking is on:
        # dispatch answers WRONG_GENERATION for tickets admitted under
        # an older routing generation whose key moved off this shard.
        self.router = None
        # Optional drift observer: called as tap(shard_id, keys) with
        # every acked segment's keys.  Parent-side for both backends, so
        # the drift detector sees the same stream regardless of where
        # the structure lives.
        self.drift_tap: Optional[Callable[[int, List[bytes]], None]] = None
        self.crashed = False
        self.enqueued = 0
        self.processed = 0
        self.batches = 0
        self.rejected = 0
        self.peak_queue_depth = 0
        self.restarts = 0
        self.stalls = 0
        self.drops = 0
        self.requeued = 0
        self.cancelled = 0
        self.wrong_generation = 0
        self.op_counts: Dict[str, int] = {}
        # The last structure stats the core reported, kept for the
        # scrapes a dead shard child cannot answer.
        self._structure: Dict[str, object] = {
            "backend": execution.structure_backend,
        }
        self.execution.start(self)

    @property
    def adapter(self) -> Optional[StructureAdapter]:
        """The in-parent structure adapter; None under process
        execution (the structure lives in the shard child)."""
        return self.execution.adapter

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def tripped(self) -> bool:
        return self.execution.tripped

    @property
    def inflight_unanswered(self) -> int:
        return sum(1 for t in self.inflight.values() if t.response is None)

    def admit(self, run: Sequence[Ticket]) -> int:
        """Admit the leading tickets of a run up to the free queue
        credit; returns how many were admitted.  The rest are refused:
        once the queue is full, no later ticket of the run gets in, so
        the refused tickets are always a suffix in admission order."""
        free = self.max_queue - len(self.queue)
        head = run if free >= len(run) else run[:max(free, 0)]
        self.queue.extend(head)
        self.enqueued += len(head)
        self.rejected += len(run) - len(head)
        if len(self.queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self.queue)
        return len(head)

    def requeue_front(self, tickets: Sequence[Ticket]) -> None:
        """Merge recovered tickets back into the queue in admission order.

        Crash/drop victims were popped from the queue front, so they
        predate everything still queued — but a queue_loss ticket never
        entered the queue at all, and requests admitted *after* it may
        already be waiting.  A blind prepend would serve the lost ticket
        ahead of an earlier write to the same key and invert write
        order; merging on request_id (queues are FIFO in a globally
        monotonic id, hence sorted) restores true admission order.
        ``max_queue`` is deliberately bypassed: these tickets were
        already admitted once.
        """
        tickets = list(tickets)
        if not tickets:
            return
        merged = sorted(
            tickets + list(self.queue), key=lambda t: t.request_id
        )
        self.queue.clear()
        self.queue.extend(merged)
        self.requeued += len(tickets)
        self.peak_queue_depth = max(self.peak_queue_depth, len(self.queue))

    def take_queue(self) -> List[Ticket]:
        """Empty the queue and return its tickets in queue order — the
        first half of a flip sweep, which re-routes them and merges
        each back with :meth:`requeue_front`."""
        tickets = list(self.queue)
        self.queue.clear()
        return tickets

    def cancel(self, ticket: Ticket) -> None:
        """Forget a ticket the client gave up on (deadline exceeded).

        The queue scan is linear, but only a deadline miss pays it; a
        ticket already popped is skipped by ``dispatch`` anyway, since
        the client answers it before cancelling.
        """
        self.inflight.pop(ticket.request_id, None)
        try:
            self.queue.remove(ticket)
        except ValueError:
            pass  # popped already: inflight, or served
        self.cancelled += 1

    def reconcile(self) -> List[Ticket]:
        """Collect tickets that left the queue but never got an answer.

        Only meaningful *between* pumps: anything still unanswered in
        the inflight registry was abandoned by a crash, an injected
        drop, or a lost queue slot.  Returned in ``request_id`` (i.e.
        admission) order, ready for :meth:`requeue_front`.
        """
        if not self.inflight:
            return []
        lost = sorted(
            (t for t in self.inflight.values() if t.response is None),
            key=lambda t: t.request_id,
        )
        self.inflight.clear()
        return lost

    def restart(self) -> List[Ticket]:
        """Rebuild the structure from the journal after a crash/stall.

        Returns the unanswered inflight tickets (admission order) for
        the supervisor to requeue.  The queue itself is untouched — its
        tickets were never popped, so they are neither lost nor stale.
        With process execution this kills any straggler child and forks
        a fresh one, which replays the journal on its side of the fork.
        """
        self.execution.restart(self)
        self.crashed = False
        self.restarts += 1
        return self.reconcile()

    # ------------------------------------------------------------ serving

    def dispatch(self) -> int:
        """Phase one: pop a micro-batch and hand it to the backend.

        Returns the ops served synchronously (inline execution); a
        process backend returns 0 here and yields its count from
        :meth:`collect` once every shard has been dispatched.
        """
        if self.crashed or not self.queue:
            return 0
        plane = self.fault_plane
        if plane is not None and plane.should_fire("stall", self.shard_id):
            # Stall: return without touching the queue.  The supervisor
            # notices the frozen processed counter and restarts us.
            self.stalls += 1
            return 0
        # Tickets stamped with the live generation were routed by the
        # table now in force; only a stale stamp is worth re-routing.
        live = self.router.generation if self.router is not None else None
        batch: List[Ticket] = []
        while self.queue and len(batch) < self.batch_size:
            ticket = self.queue.popleft()
            if ticket.response is not None:
                continue  # answered elsewhere (e.g. deadline-failed)
            if (live is not None and ticket.generation != live
                    and self._misrouted(ticket)):
                # Safety net for a routing flip the sweep missed: the
                # ticket was admitted under an older generation and its
                # key no longer routes here.  Serving it against this
                # shard's state would read/write the wrong structure;
                # answer WRONG_GENERATION so the client resubmits.
                self.wrong_generation += 1
                ticket.response = Response(
                    WRONG_GENERATION, shard=self.shard_id, generation=live,
                )
                continue
            self.inflight[ticket.request_id] = ticket
            batch.append(ticket)
        if not batch:
            return 0
        self.batches += 1
        if plane is not None and plane.should_fire("drop", self.shard_id):
            # Drop: the batch is popped but never served or answered.
            # Its tickets sit unanswered in the inflight registry until
            # the supervisor's reconciliation pass requeues them.
            self.drops += 1
            return 0
        # Consecutive same-op segments keep per-key FIFO order.  Each
        # carries its keys' fleet hashes and the fingerprint of the
        # router hasher that computed them, so the shard's table can
        # probe and insert without hashing the keys again.
        plan = (self.router.engine.hasher.fingerprint
                if self.router is not None else None)
        self._segments = segments = []
        wire = []
        start = 0
        while start < len(batch):
            end = start + 1
            op = batch[start].request.op
            while end < len(batch) and batch[end].request.op == op:
                end += 1
            segment = batch[start:end]
            segments.append(segment)
            hashes = [t.key_hash for t in segment]
            wire.append((
                op,
                [t.request.key for t in segment],
                ([t.request.value for t in segment]
                 if op in ("put", "similar") else None),
                None if plan is None or None in hashes else hashes,
                plan,
            ))
            start = end
        crash_at = None
        kill = False
        if plane is not None and plane.should_fire("crash", self.shard_id):
            crash_at = len(wire) // 2
        elif plane is not None and plane.should_fire(
            "sigkill", self.shard_id
        ):
            kill = True
        return self._absorb(self.execution.serve(wire, crash_at, kill))

    def _misrouted(self, ticket: Ticket) -> bool:
        """True when a generation flip moved a stale-stamped ticket's
        key elsewhere.

        ``dispatch`` trusts same-generation tickets outright (the router
        stamped and placed them together) and asks only about the rare
        stale stragglers a flip sweep failed to move.  A straggler that
        still routes here is served with its key's hash refreshed under
        the live plan.
        """
        if ticket.request.op == "stats" or not ticket.request.key:
            return False
        shard, ticket.key_hash = self.router.table.route_one_hashed(
            ticket.request.key
        )
        return shard != self.shard_id

    def collect(self) -> int:
        """Phase two: absorb the backend's deferred reply, if any."""
        return self._absorb(self.execution.collect())

    def pump(self) -> int:
        """Drain one micro-batch; returns the number of ops served."""
        return self.dispatch() + self.collect()

    def drain(self) -> int:
        served = 0
        while self.queue:
            step = self.pump()
            served += step
            if step == 0:
                break  # crashed/stalled/dropped: the supervisor steps in
        return served

    def _absorb(self, reply: Optional[Reply]) -> int:
        """Ack the served prefix of the batch in flight — the single ack
        path for both backends.  Served segments are answered, journaled
        and counted processed even when the batch ended in a crash; a
        crash then marks the worker crashed and raises, and the rest
        reconciles.  A None reply (still in flight) absorbs nothing."""
        if reply is None:
            return 0
        results, crashed = reply
        segments, self._segments = self._segments, []
        served = 0
        try:
            for segment, result in zip(segments, results):
                self._absorb_segment(segment[0].request.op, segment, result)
                for ticket in segment:
                    self.inflight.pop(ticket.request_id, None)
                served += len(segment)
        finally:
            self.processed += served
        if crashed:
            self.crashed = True
            raise InjectedCrash(
                f"worker {self.shard_id} crashed mid-batch "
                f"({served} ops absorbed)"
            )
        return served

    def _absorb_segment(self, op: str, tickets: List[Ticket], result) -> None:
        """Turn one segment's wire result into responses + journal
        entries: an entry is in the journal exactly when the client can
        observe an OK, regardless of where the structure lives."""
        self.op_counts[op] = self.op_counts.get(op, 0) + len(tickets)
        if self.drift_tap is not None and op in ("put", "get", "delete",
                                                 "contains"):
            self.drift_tap(
                self.shard_id, [t.request.key for t in tickets]
            )
        kind, payload = result
        if kind == "unsupported":
            for ticket in tickets:
                ticket.response = Response(
                    FAILED, shard=self.shard_id,
                    error=f"op {op!r} unsupported by backend {payload!r}",
                )
            return
        if op == "get":
            for ticket, value in zip(tickets, payload):
                ticket.response = Response(
                    OK, value=value, found=value is not None,
                    shard=self.shard_id,
                )
        elif op == "put":
            acks = payload
            for i, ticket in enumerate(tickets):
                if acks is not None and not acks[i]:
                    ticket.response = Response(
                        FAILED, shard=self.shard_id, error="structure full"
                    )
                else:
                    # Journal at ack time: the entry is in the journal
                    # exactly when the client can observe an OK.
                    self.journal.record_put(
                        ticket.request.key, ticket.request.value or b""
                    )
                    ticket.response = Response(OK, shard=self.shard_id)
        elif op == "delete":
            for ticket, removed in zip(tickets, payload):
                if removed is not False:
                    # True (removed) or None (tombstone): the journal
                    # must mirror it.  False removed nothing.
                    self.journal.record_delete(ticket.request.key)
                ticket.response = Response(
                    OK, found=removed, shard=self.shard_id
                )
        elif op == "similar":
            # Read-only: nothing to journal.  None marks an unknown
            # query key; a known key with no neighbors answers OK with
            # an empty list.
            for ticket, neighbors in zip(tickets, payload):
                ticket.response = Response(
                    OK, found=neighbors is not None, shard=self.shard_id,
                    neighbors=list(neighbors or ()),
                )
        else:  # contains
            for ticket, present in zip(tickets, payload):
                ticket.response = Response(
                    OK, found=present, shard=self.shard_id
                )

    # ------------------------------------------------------------ control

    def _control(self, name: str, arg: object = None) -> object:
        """Run one control op on the shard's core; returns its payload,
        or None when the core could not run it — the worker is then
        crashed, and its restart rebuilds the core from the journal."""
        try:
            return self.execution.control(name, arg)
        except InjectedCrash:
            self.crashed = True
            return None

    def apply_entries(self, entries: List[Entry]) -> int:
        """Apply migrated journal entries to the live structure.

        The live half of every reconfiguration (promotion, split, plan
        swap): the caller already appended arrivals to :attr:`journal`
        (or split leavers out of it), so a shard that cannot apply them
        now still gets them from its journal restart.  Returns the
        number of ops applied.
        """
        if not entries:
            return 0
        return self._control("apply", entries) or 0

    def fall_back(self) -> None:
        self._control("fall_back")

    def restore_partial_key(self) -> None:
        self._control("restore_partial_key")

    def force_trip(self) -> None:
        self._control("force_trip")

    def rearm_with(self, model) -> bool:
        """Hot-swap this shard's structure to a re-learned model; False
        when it could not rehash live (unsupported, or a dead child —
        whose restart rebuilds from the new plan and the journal)."""
        return bool(self._control("rearm", model))

    def close(self) -> None:
        """Release backend resources (child process/queues)."""
        self.execution.close()

    def stats(self) -> Dict[str, object]:
        structure = self._control("stats")
        if structure is not None:
            self._structure = structure
        out = {
            "shard": self.shard_id,
            "backend": self.execution.structure_backend,
            "enqueued": self.enqueued,
            "processed": self.processed,
            "batches": self.batches,
            "mean_batch_size": (
                self.processed / self.batches if self.batches else 0.0
            ),
            "rejected": self.rejected,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "op_counts": dict(self.op_counts),
            "crashed": self.crashed,
            "restarts": self.restarts,
            "stalls": self.stalls,
            "drops": self.drops,
            "requeued": self.requeued,
            "cancelled": self.cancelled,
            "wrong_generation": self.wrong_generation,
            "journal": self.journal.stats(),
            "structure": dict(self._structure),
        }
        execution = self.execution.stats()
        if execution.get("execution") != "inline":
            out["execution"] = execution
        return out


__all__ = ["Worker"]
