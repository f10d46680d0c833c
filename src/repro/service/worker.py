"""Per-shard workers: one owned structure, one bounded op queue.

A :class:`Worker` is the *shell* around one shard: the bounded queue of
row ranges, the inflight registry, the ack-time journal, the
fault-plane injection points, and the answer/journal absorption logic.  The
structure itself lives behind an
:class:`~repro.service.backends.ExecutionBackend` — embedded in the
parent (:class:`~repro.service.backends.InlineBackend`, the original
cooperative pump and the differential fuzzer's reference semantics) or
in a forked child process
(:class:`~repro.service.backends.ProcessBackend`).

The queue holds :class:`~repro.service.protocol.Rows` — contiguous row
ranges ``(run, start, stop)`` of the admitted runs — never one object
per key.  A pump is two phases.  ``dispatch()`` pops up to
``batch_size`` rows, cutting the last range it needs, splits them into
consecutive same-op *segments* (one batch call each into the
structure, so per-key ordering is preserved while per-call cost is
amortized), applies the fault plane's worker-level directives (stall,
drop, crash, sigkill), builds the segments' wire form once — slices of
the runs' key, value and carried fleet-hash columns, with the router's
plan fingerprint — and hands it to the backend.  One method,
``_absorb``, acks whatever prefix the backend served: answers are
written into the runs' answer columns, acknowledged mutations are
journaled, and served ranges leave the inflight registry — all
parent-side, for both backends, which is what makes a child's state
disposable.  Inline execution
serves synchronously, so ``dispatch`` already absorbs and ``collect``
is a no-op.

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

import dataclasses
from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import InjectedCrash
from repro.metrics import Reported, ratio

from repro.service.adapters import StructureAdapter
from repro.service.backends import ExecutionBackend, Reply
from repro.service.journal import Entry, ShardJournal
from repro.service.protocol import (
    ANSWERED,
    FAILED,
    OTHER,
    PENDING,
    Response,
    Rows,
    Run,
    VALUED,
)

# One answered row's status byte, and one row answered by a Response.
_ANSWERED_ROW = bytes((ANSWERED,))
_OTHER_ROW = bytes((OTHER,))

_first_id = attrgetter("first_id")

# One segment piece: rows [start, stop) of one run.
Piece = Tuple[Run, int, int]


def coalesce(cells: Sequence[Tuple[Run, int]]) -> List[Rows]:
    """Ranges over ``(run, row)`` cells in the given order: consecutive
    rows of one run share a range."""
    out: List[Rows] = []
    for run, row in cells:
        if out and out[-1].run is run and out[-1].stop == row:
            out[-1].stop = row + 1
        else:
            out.append(Rows(run, row, row + 1))
    return out


def pending_ranges(rows: Rows) -> List[Rows]:
    """The maximal sub-ranges of ``rows`` still unanswered."""
    status = rows.run.status
    if status.count(PENDING, rows.start, rows.stop) == rows.stop - rows.start:
        return [rows]
    return coalesce([(rows.run, row) for row in range(rows.start, rows.stop)
                     if status[row] == PENDING])


def merge_by_id(ranges: List[Rows]) -> List[Rows]:
    """Ranges in request-id order.  Ranges whose ids interleave are
    split into rows first, so the merge is exact row by row."""
    ranges = sorted(ranges, key=_first_id)
    if all(a.last_id < b.first_id for a, b in zip(ranges, ranges[1:])):
        return ranges
    cells = sorted(
        ((rows.run.request_id(row), rows.run, row)
         for rows in ranges for row in range(rows.start, rows.stop)),
        key=lambda cell: cell[0],
    )
    return [Rows(run, row, row + 1) for _, run, row in cells]


def _cut_row(ranges, run: Run, row: int) -> bool:
    """Remove one row from a deque or list of ranges, splitting the
    range that holds it; False when no range holds it."""
    for i, rows in enumerate(ranges):
        if rows.run is run and rows.start <= row < rows.stop:
            del ranges[i]
            if row + 1 < rows.stop:
                ranges.insert(i, Rows(run, row + 1, rows.stop))
            if rows.start < row:
                ranges.insert(i, Rows(run, rows.start, row))
            return True
    return False


def _segments(batch: Sequence[Rows]) -> List[tuple]:
    """A batch's consecutive same-op rows as ``(op, pieces, keys,
    values, hashes)`` segments: one segment may span ranges of several
    runs, and its columns are concatenated slices of theirs (values for
    puts and similar only; the hashes of several ranges join into one
    uint64 column)."""
    spans: List[Tuple[str, List[Piece]]] = []
    for rows in batch:
        run = rows.run
        ops = run.ops
        if ops is None:
            cuts = ((run.op, rows.start, rows.stop),)
        else:
            cuts = []
            start = rows.start
            for row in range(start + 1, rows.stop):
                if ops[row] != ops[start]:
                    cuts.append((ops[start], start, row))
                    start = row
            cuts.append((ops[start], start, rows.stop))
        for op, start, stop in cuts:
            if spans and spans[-1][0] == op:
                spans[-1][1].append((run, start, stop))
            else:
                spans.append((op, [(run, start, stop)]))
    segments = []
    for op, pieces in spans:
        keys: List[bytes] = []
        values: Optional[list] = [] if op in VALUED else None
        for run, start, stop in pieces:
            keys += run.keys[start:stop]
            if values is not None:
                values += run.values[start:stop]
        if len(pieces) == 1:
            run, start, stop = pieces[0]
            hashes = run.hashes[start:stop]
        else:
            hashes = np.concatenate([
                np.asarray(run.hashes[start:stop], dtype=np.uint64)
                for run, start, stop in pieces
            ])
        segments.append((op, pieces, keys, values, hashes))
    return segments


class Inflight:
    """Row ranges that left the queue (or never entered it, for a lost
    slot) and may still owe an answer."""

    __slots__ = ("ranges",)

    def __init__(self):
        self.ranges: List[Rows] = []

    def __len__(self) -> int:
        return sum(rows.stop - rows.start for rows in self.ranges)

    def __bool__(self) -> bool:
        return bool(self.ranges)

    def __contains__(self, request_id: int) -> bool:
        return any(
            rows.run.request_id(row) == request_id
            for rows in self.ranges for row in range(rows.start, rows.stop)
        )

    def add(self, rows: Rows) -> None:
        self.ranges.append(rows)

    def extend(self, ranges: Sequence[Rows]) -> None:
        self.ranges.extend(ranges)

    def unanswered(self) -> int:
        return sum(rows.pending() for rows in self.ranges)

    def cut(self, run: Run, row: int) -> None:
        _cut_row(self.ranges, run, row)

    def take(self) -> List[Rows]:
        """Empty the registry; returns its unanswered rows as ranges in
        request-id order."""
        ranges, self.ranges = self.ranges, []
        return merge_by_id(
            [piece for rows in ranges for piece in pending_ranges(rows)]
        )


class Worker(Reported):
    """One shard: a bounded queue of row ranges drained in
    micro-batches."""

    REPORTS = ("shard=shard_id", "backend=execution.structure_backend",
               "enqueued", "processed", "batches", "mean_batch_size",
               "rejected", "queue_depth", "peak_queue_depth", "op_counts",
               "crashed", "restarts", "stalls", "drops", "requeued",
               "cancelled", "journal", "structure=_structure",
               "execution=_process_execution?")

    def __init__(
        self,
        shard_id: int,
        execution: ExecutionBackend,
        max_queue: int = 256,
        batch_size: int = 64,
        journal_checkpoint: int = 4096,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.shard_id = shard_id
        self.execution = execution
        self.max_queue = max_queue
        self.batch_size = batch_size
        # Admitted row ranges, disjoint and in request-id order.
        self.queue: Deque[Rows] = deque()
        # Rows in the queue: the depth admission credit is measured in.
        self.queued = 0
        # Rows that left the pipeline unanswered — a lost queue slot, a
        # dropped batch, a crash's unserved suffix — until the
        # supervisor requeues them.
        self.inflight = Inflight()
        # The batch the backend is serving: its ranges, and its
        # segments as (op, pieces, keys, values, hashes).
        self._batch: List[Rows] = []
        self._segments: List[tuple] = []
        # The journal must exist before execution.start(): every core
        # is built from the spec plus a snapshot of it.
        self.journal = ShardJournal(
            checkpoint_every=journal_checkpoint,
            multiset=(execution.structure_backend == "cuckoo_filter"),
        )
        self.fault_plane = None
        # The owning service's router, read only for the fingerprint of
        # the plan that computed the rows' carried hashes.
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
        return self.queued

    @property
    def tripped(self) -> bool:
        return self.execution.tripped

    @property
    def inflight_unanswered(self) -> int:
        return self.inflight.unanswered()

    def admit(self, run: Run, lost: Optional[List[bool]] = None) -> int:
        """Admit a run's leading rows up to the free queue credit;
        returns the cut: rows before it are admitted, the rest refused.

        ``lost`` flags the rows whose queue slot the fault plane loses.
        A row can lose only a slot it got: a lost row reached while
        credit remains was admitted (the client holds an acked ticket)
        but never lands in the queue.  It takes no credit and parks as
        a one-row range in the inflight registry, where the supervisor's
        reconciliation finds and requeues it by request id.  Once the
        credit runs out every later row is refused, lost or not, so the
        refused rows are a suffix and no write of the run overtakes an
        earlier refused one.  A parked row splits the run, so the
        ranges the queue holds stay disjoint and sorted by request id.
        Nothing drains the queue during admission, so this decides
        exactly what admitting the rows one at a time would.
        """
        n = len(run.keys)
        free = self.max_queue - self.queued
        if lost is None or True not in lost:
            cut = n if n <= free else max(free, 0)
            queued = cut
            if cut:
                self.queue.append(Rows(run, 0, cut))
        else:
            cut = start = queued = 0
            for cut, gone in enumerate(lost):
                if queued >= free:
                    break
                if gone:
                    if start < cut:
                        self.queue.append(Rows(run, start, cut))
                    self.inflight.add(Rows(run, cut, cut + 1))
                    start = cut + 1
                else:
                    queued += 1
            else:
                cut = n
            if start < cut:
                self.queue.append(Rows(run, start, cut))
        self.rejected += n - cut
        self.queued += queued
        self.enqueued += queued
        if self.queued > self.peak_queue_depth:
            self.peak_queue_depth = self.queued
        return cut

    def requeue_front(self, ranges: Sequence[Rows]) -> None:
        """Merge recovered rows back into the queue in admission order.

        Crash/drop victims were popped from the queue front, so they
        predate everything still queued — but a queue_loss row never
        entered the queue at all, and requests admitted *after* it may
        already be waiting.  A blind prepend would serve the lost row
        ahead of an earlier write to the same key and invert write
        order; merging on request id (queues are FIFO in a globally
        monotonic id, hence sorted) restores true admission order.
        ``max_queue`` is deliberately bypassed: these rows were
        already admitted once.
        """
        ranges = list(ranges)
        if not ranges:
            return
        merged = merge_by_id(ranges + list(self.queue))
        self.queue.clear()
        self.queue.extend(merged)
        rows = sum(r.stop - r.start for r in ranges)
        self.queued += rows
        self.requeued += rows
        self.peak_queue_depth = max(self.peak_queue_depth, self.queued)

    def take_queue(self) -> List[Rows]:
        """Empty the queue and return its ranges in queue order — the
        first half of a flip sweep, which re-routes them and merges
        each back with :meth:`requeue_front`."""
        ranges = list(self.queue)
        self.queue.clear()
        self.queued = 0
        return ranges

    def cancel(self, run: Run, row: int) -> None:
        """Forget a row the client gave up on (deadline exceeded).

        The client answers the row before cancelling, so ``dispatch``
        would skip it anyway; cutting it out of the queue (a linear
        scan only a deadline miss pays) keeps the queue depth honest.
        """
        self.inflight.cut(run, row)
        if _cut_row(self.queue, run, row):
            self.queued -= 1
        self.cancelled += 1

    def reconcile(self) -> List[Rows]:
        """Collect rows that left the queue but never got an answer.

        Only meaningful *between* pumps: anything still unanswered in
        the inflight registry was abandoned by a crash, an injected
        drop, or a lost queue slot.  Returned in request-id (i.e.
        admission) order, ready for :meth:`requeue_front`.
        """
        if not self.inflight.ranges:
            return []
        return self.inflight.take()

    def restart(self) -> List[Rows]:
        """Rebuild the structure from the journal after a crash/stall.

        Returns the unanswered inflight rows (admission order) for the
        supervisor to requeue.  The queue itself is untouched — its
        rows were never popped, so they are neither lost nor stale.
        Both executions rebuild the core from the backend's spec; with
        process execution this kills any straggler child and forks a
        fresh one, which replays the journal on its side of the fork.
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
        batch = self._pop_batch()
        if not batch:
            return 0
        self.batches += 1
        if plane is not None and plane.should_fire("drop", self.shard_id):
            # Drop: the batch is popped but never served or answered.
            # Its rows sit unanswered in the inflight registry until
            # the supervisor's reconciliation pass requeues them.
            self.drops += 1
            self.inflight.extend(batch)
            return 0
        # The batch in flight; _absorb hands whatever it leaves
        # unanswered to the inflight registry.
        self._batch = batch
        # Each segment carries its keys' fleet hashes and the
        # fingerprint of the router hasher that computed them, so the
        # shard's table can probe and insert without hashing the keys
        # again.
        plan = (self.router.engine.hasher.fingerprint
                if self.router is not None else None)
        run = batch[0].run
        if len(batch) == 1 and run.ops is None:
            # One range of one op: one segment of column slices.
            start, stop = batch[0].start, batch[0].stop
            op = run.op
            keys = run.keys[start:stop]
            values = run.values[start:stop] if op in VALUED else None
            hashes = run.hashes[start:stop]
            self._segments = [(op, [(run, start, stop)], keys, values,
                               hashes)]
            wire = [(op, keys, values, hashes, plan)]
        else:
            self._segments = segments = _segments(batch)
            wire = [(op, keys, values, hashes, plan)
                    for op, _, keys, values, hashes in segments]
        crash_at = None
        kill = False
        if plane is not None and plane.should_fire("crash", self.shard_id):
            crash_at = len(wire) // 2
        elif plane is not None and plane.should_fire(
            "sigkill", self.shard_id
        ):
            kill = True
        return self._absorb(self.execution.serve(wire, crash_at, kill))

    def _pop_batch(self) -> List[Rows]:
        """Pop up to ``batch_size`` servable rows off the queue front.

        Rows answered elsewhere (e.g. deadline-failed) are skipped and
        do not count toward the batch, exactly as if the rows were
        popped one at a time.
        """
        queue = self.queue
        size = self.batch_size
        batch: List[Rows] = []
        taken = 0
        while queue and taken < size:
            rows = queue.popleft()
            start, stop = rows.start, rows.stop
            end = start + size - taken
            if end < stop:
                queue.appendleft(Rows(rows.run, end, stop))
                rows = Rows(rows.run, start, end)
                stop = end
            n = stop - start
            self.queued -= n
            if rows.run.status.count(PENDING, start, stop) == n:
                batch.append(rows)
                taken += n
                continue
            for pending in pending_ranges(rows):
                batch.append(pending)
                taken += pending.stop - pending.start
        return batch

    def collect(self) -> int:
        """Phase two: absorb the backend's deferred reply, if any."""
        if not self._batch:
            return 0  # nothing in flight (inline serving absorbed it)
        return self._absorb(self.execution.collect())

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
        batch, self._batch = self._batch, []
        served = 0
        answered = False
        try:
            for (op, pieces, keys, values, _), result in zip(segments,
                                                              results):
                self._absorb_segment(op, pieces, keys, values, result)
                served += len(keys)
            answered = not crashed
        finally:
            self.processed += served
            if not answered:
                # A crash left a suffix unanswered: it waits in the
                # registry (reconcile skips the answered rows).
                self.inflight.extend(batch)
        if crashed:
            self.crashed = True
            raise InjectedCrash(
                f"worker {self.shard_id} crashed mid-batch "
                f"({served} ops absorbed)"
            )
        return served

    def _absorb_segment(self, op: str, pieces: List[Piece],
                        keys: List[bytes], values, result) -> None:
        """Write one segment's wire result into its runs' answer columns
        and the journal: an entry is in the journal exactly when the
        client can observe an OK, regardless of where the structure
        lives."""
        self.op_counts[op] = self.op_counts.get(op, 0) + len(keys)
        if self.drift_tap is not None and op in ("put", "get", "delete",
                                                 "contains"):
            self.drift_tap(self.shard_id, keys)
        kind, payload = result
        if kind == "unsupported":
            failed = Response(
                FAILED, shard=self.shard_id,
                error=f"op {op!r} unsupported by backend {payload!r}",
            )
            for run, start, stop in pieces:
                run.answers[start:stop] = [failed] * (stop - start)
                run.status[start:stop] = _OTHER_ROW * (stop - start)
            return
        if op == "put":
            acks = payload
            record_put = self.journal.record_put
            if acks is None or all(acks):
                # Journal at ack time: the entry is in the journal
                # exactly when the client can observe an OK.
                for key, value in zip(keys, values):
                    record_put(key, value or b"")
                for run, start, stop in pieces:
                    run.status[start:stop] = _ANSWERED_ROW * (stop - start)
                return
            offset = 0
            for run, start, stop in pieces:
                for row in range(start, stop):
                    if acks[offset]:
                        record_put(keys[offset], values[offset] or b"")
                        run.status[row] = ANSWERED
                    else:
                        run.answer(row, Response(
                            FAILED, shard=self.shard_id,
                            error="structure full",
                        ))
                    offset += 1
            return
        if op == "delete":
            for key, removed in zip(keys, payload):
                if removed is not False:
                    # True (removed) or None (tombstone): the journal
                    # must mirror it.  False removed nothing.
                    self.journal.record_delete(key)
        # get, delete, contains and similar answer with their payload;
        # only puts and deletes touch the journal.
        if len(pieces) == 1:
            run, start, stop = pieces[0]
            run.answers[start:stop] = payload
            run.status[start:stop] = _ANSWERED_ROW * (stop - start)
            return
        offset = 0
        for run, start, stop in pieces:
            end = offset + stop - start
            run.answers[start:stop] = payload[offset:end]
            run.status[start:stop] = _ANSWERED_ROW * (stop - start)
            offset = end

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
        when it could not rehash live (unsupported, or a dead child).

        The backend's spec changes first, on both executions: every
        later restart — including the one a core that died mid-rearm
        gets — rebuilds from the new plan and replays the journal.
        """
        execution = self.execution
        execution.spec = dataclasses.replace(
            execution.spec, model=model, hasher=None
        )
        return bool(self._control("rearm", model))

    def close(self) -> None:
        """Release backend resources (child process/queues)."""
        self.execution.close()

    @property
    def mean_batch_size(self) -> float:
        """Rows processed per dispatched batch."""
        return ratio(self.processed, self.batches)

    def _process_execution(self) -> Optional[ExecutionBackend]:
        # Inline execution reports nothing beyond its kind.
        return None if self.execution.kind == "inline" else self.execution

    def stats(self) -> Dict[str, object]:
        """The scrape, with the structure block fetched from the core
        first (the last good copy when the core cannot answer)."""
        structure = self._control("stats")
        if structure is not None:
            self._structure = structure
        return super().stats()


__all__ = ["Worker"]
