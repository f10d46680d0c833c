"""The service front door: admission, routing, pumping, self-healing.

``Service.submit`` routes each row of a call to its shard and
either enqueues it (bounded queue) or answers synchronously with an
explicit backpressure rejection carrying ``retry_after`` — the queue
never grows without limit.  ``pump()`` is the service's heartbeat and
runs four steps in a fixed order:

1. **supervise** — restart crashed workers from their journals, detect
   stalls, and requeue tickets that fell out of the pipeline *before*
   anything is served, so recovered tickets keep per-key admission
   order;
2. **inject** — give an armed fault plane its service-level injection
   point (``corrupt``, which trips the target shard on either
   execution);
3. **serve** — drain one micro-batch per shard, catching injected
   crashes and handing them to the supervisor;
4. **react** — check every shard's monitor against its own
   :class:`~repro.service.breaker.CircuitBreaker` and advance breaker
   clocks (open shards cool down, half-open shards probe their way
   back to partial-key hashing).

Unlike PR 4's all-or-nothing degraded mode, a monitor trip now
quarantines *only* the shard that misbehaved: its breaker opens and it
serves full-key while its siblings keep the entropy-learned fast path.

Since PR 7 the key→shard map is a versioned
:class:`~repro.service.routing.RoutingTable` rather than the bare
hasher: the *base* hash is still deliberately pinned (re-hashing keys
would orphan acknowledged writes), but the supervisor's adapt pass can
layer generation-stamped refinements on top — pin detected hot keys to
least-loaded shards (``hot_k``), or split an overloaded shard live
(``auto_split`` / :meth:`Service.split_shard`).  Every such change —
and a drift plan swap — is one call to :meth:`Service.reconfigure`
with a different candidate table, which migrates acked state through
the journal before the flip, then sweeps every queued row onto the
new table before the next dispatch.  That sweep, and the supervisor's
requeue of recovered rows, are the only code that places a row on a
shard after admission, so every row is served by the shard its key
routes to under the live table.
"""

from __future__ import annotations

import dataclasses
import math
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._util import iter_ints
from repro.core.hasher import EntropyLearnedHasher
from repro.core.sizing import entropy_for_partitioning
from repro.engine import HashEngine
from repro.faults import InjectedCrash
from repro.metrics import Reported

from repro.service.adapters import AdapterSpec
from repro.service.backends import EXECUTIONS, InlineBackend, ProcessBackend
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.journal import Entry, compact
from repro.service.protocol import (
    ANSWERED,
    REFUSED,
    REJECTED,
    Response,
    Rows,
    Run,
)
from repro.service.router import ShardRouter
from repro.service.routing import RoutingTable, migration_scope
from repro.service.supervisor import Supervisor
from repro.service.worker import Worker, coalesce

# The most pumps ``drain`` spends before giving up on pending tickets.
MAX_DRAIN_PUMPS = 10_000

_first = itemgetter(0)
# One refused row's status byte.
_REFUSED_ROW = bytes((REFUSED,))


def _gather(column: Sequence, rows: Sequence[int]) -> Sequence:
    """``[column[i] for i in rows]`` at C speed; an ndarray column (a
    hash column) gathers by fancy indexing and stays an ndarray."""
    if isinstance(column, np.ndarray):
        return column[rows]
    if len(rows) > 1:
        return list(itemgetter(*rows)(column))
    return [column[i] for i in rows]


def _groups(shards, hashes) -> List[tuple]:
    """One call's rows by shard, as ``(shard, rows, hashes)`` in the
    order each shard first appears, rows in call order; ``rows`` is
    None when every row routes to one shard.

    List columns (a call below the router's per-key crossover) group in
    one pass over the rows.  Numpy columns group with one bincount and
    one stable argsort, and each group's hashes are a slice of the
    permuted hash column, so no row is touched in Python.
    """
    if type(shards) is list:
        first = shards[0]
        if shards.count(first) == len(shards):
            return [(first, None, hashes)]
        groups: Dict[int, List[int]] = {}
        for position, shard in enumerate(shards):
            rows = groups.get(shard)
            if rows is None:
                groups[shard] = [position]
            else:
                rows.append(position)
        return [(shard, rows, _gather(hashes, rows))
                for shard, rows in groups.items()]
    counts = np.bincount(shards).tolist()
    if max(counts) == len(shards):
        return [(counts.index(len(shards)), None, hashes)]
    order = np.argsort(shards, kind="stable")
    rows = order.tolist()
    column = hashes[order]
    spans = []
    stop = 0
    for shard, size in enumerate(counts):
        if size:
            start, stop = stop, stop + size
            # Keyed by the group's first row: first-appearance order.
            spans.append((rows[start], shard, start, stop))
    spans.sort()
    return [(shard, rows[start:stop], column[start:stop])
            for _, shard, start, stop in spans]


def _partition(op, keys, values, hashes, shards, table, offsets
               ) -> List[Run]:
    """Split one call's columns into one run per shard, rows in call
    order; ``op`` is one op or an op column, ``table`` the routing
    table that routed them, and ``offsets`` the rows' call positions
    (None: their indices)."""
    runs = []
    for shard, rows, run_hashes in _groups(shards, hashes):
        if rows is None:
            ops = None
            if type(op) is list:
                ops, op = op, None
            return [Run(op, keys, values, hashes, 0,
                        range(len(keys)) if offsets is None else offsets,
                        table, shard, ops)]
        run_op, ops = op, None
        if isinstance(op, list):
            ops = _gather(op, rows)
            run_op = ops[0] if ops.count(ops[0]) == len(ops) else None
            if run_op is not None:
                ops = None
        runs.append(Run(
            run_op, _gather(keys, rows),
            None if values is None else _gather(values, rows),
            run_hashes, 0,
            rows if offsets is None else _gather(offsets, rows),
            table, shard, ops,
        ))
    return runs


class Service(Reported):
    """A sharded, batched, self-healing request-serving layer."""

    REPORTS = ("num_shards", "backend", "execution", "degraded",
               "degrade_events", "pump_index", "submitted", "accepted",
               "rejected", "lost_slots", "pending", "supervisor", "breakers",
               "router=router.balance", "routing=router", "splits",
               "swept_tickets", "plan_swaps", "plan_moved_keys",
               "shards=workers", "drift=relearner?", "faults=fault_plane?")

    def __init__(
        self,
        num_shards: int = 4,
        backend: str = "chaining",
        model=None,
        hasher: Optional[EntropyLearnedHasher] = None,
        capacity: int = 1024,
        max_queue: int = 256,
        batch_size: int = 64,
        seed: int = 0,
        fault_plane=None,
        cooldown_pumps: int = 32,
        probe_pumps: int = 16,
        stall_threshold: int = 3,
        journal_checkpoint: int = 4096,
        execution: str = "inline",
        hot_k: int = 0,
        hot_sample: int = 1,
        adapt_every: int = 8,
        auto_split: bool = False,
        max_splits: int = 4,
        backend_options: Optional[Dict[str, object]] = None,
        relearn: bool = False,
        drift_window: int = 256,
        drift_margin: float = 2.0,
        drift_patience: int = 2,
        drift_reservoir: int = 256,
        min_dwell: int = 64,
        min_sample: int = 64,
    ):
        # The spec checks the backend name and that exactly one of
        # model= and hasher= is given.
        shard_capacity = max(4, capacity // num_shards)
        spec = AdapterSpec(
            backend, shard_capacity, model=model, hasher=hasher, seed=seed,
            options=dict(backend_options) if backend_options else None,
            min_entropy=(
                0.0 if model is None else entropy_for_partitioning(
                    max(capacity, 1), num_shards, mode="relative"
                )
            ),
        )
        if execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {execution!r}; choose from {EXECUTIONS}"
            )
        if relearn:
            from repro.drift.relearner import RELEARN_BACKENDS

            if model is None:
                raise ValueError(
                    "relearn=True needs model= (a hasher-built service "
                    "has no entropy plan to re-learn)"
                )
            if backend not in RELEARN_BACKENDS:
                raise ValueError(
                    f"relearn=True supports backends {RELEARN_BACKENDS}, "
                    f"got {backend!r}"
                )
        self.backend = backend
        self.execution = execution
        # One hash per key: the router hashes with the plan the shard
        # tables plan, and each ticket carries its key's hash to them.
        self.router = ShardRouter(
            spec.fleet_hasher(), num_shards,
            hot_k=hot_k, hot_sample=hot_sample,
        )
        # Kept for shards a reconfiguration adds: a new shard is built
        # from the same spec and knobs as the originals, mid-flight.
        self._spec = spec
        self._max_queue = max_queue
        self._batch_size = batch_size
        self._journal_checkpoint = journal_checkpoint
        self._cooldown_pumps = cooldown_pumps
        self._probe_pumps = probe_pumps
        self.adapt_every = max(1, adapt_every)
        self.auto_split = auto_split
        self.max_splits = max_splits
        self.swept_tickets = 0
        self.fault_plane = None
        self.relearner = None
        self.plan_swaps = 0
        self.plan_moved_keys = 0
        if relearn:
            from repro.drift.relearner import Relearner

            self.relearner = Relearner(
                self,
                window=drift_window,
                margin=drift_margin,
                patience=drift_patience,
                reservoir=drift_reservoir,
                min_dwell=min_dwell,
                min_sample=min_sample,
                seed=seed,
            )
        self.workers: List[Worker] = []
        self.breakers: List[CircuitBreaker] = []
        for shard in range(num_shards):
            self._spawn_shard(shard)
        self.supervisor = Supervisor(self, stall_threshold=stall_threshold)
        self.pump_index = 0
        self._next_request_id = 0
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.lost_slots = 0
        if fault_plane is not None:
            self.arm_fault_plane(fault_plane)

    # -------------------------------------------------------------- fleet

    @property
    def num_shards(self) -> int:
        return len(self.workers)

    @property
    def splits(self) -> int:
        """Live splits so far: each one added a shard to the table."""
        table = self.router.table
        return table.num_shards - table.base_shards

    def _spawn_shard(self, shard: int) -> None:
        """Start an empty worker and a closed breaker for ``shard``.

        Builds the initial fleet and every shard a reconfiguration's
        candidate adds; a new shard is then filled through the same
        live apply path as any other migration target.
        """
        backend = (ProcessBackend if self.execution == "process"
                   else InlineBackend)
        worker = Worker(
            shard,
            backend(self._spec, shard),
            max_queue=self._max_queue,
            batch_size=self._batch_size,
            journal_checkpoint=self._journal_checkpoint,
        )
        worker.router = self.router
        worker.fault_plane = self.fault_plane
        if self.relearner is not None:
            worker.drift_tap = self.relearner.observe
        self.workers.append(worker)
        self.breakers.append(CircuitBreaker(
            shard,
            cooldown_pumps=self._cooldown_pumps,
            probe_pumps=self._probe_pumps,
        ))

    # ------------------------------------------------------- fault wiring

    def arm_fault_plane(self, plane) -> None:
        """Thread an armed fault plane through every injection point."""
        self.fault_plane = plane
        self.router.fault_plane = plane
        for worker in self.workers:
            worker.fault_plane = plane

    # ------------------------------------------------------------- intake

    def submit(
        self,
        op,
        keys: List[bytes],
        values: Optional[List[bytes]] = None,
        offsets: Optional[Sequence[int]] = None,
    ) -> List[Run]:
        """Admit one call's rows as columns; returns one run per shard.

        The one router: every key the service admits is routed here,
        once per call, whoever sends it (the in-process client, the
        front door, a test).  ``op`` is one op for every row, or an op
        column; ``offsets`` are the rows' positions in the call (None:
        their indices).  One ``route_batch`` pass picks every row's
        shard; the rows of each shard become one :class:`Run` in call
        order (a large call's shard and hash columns stay numpy arrays
        through this partition, see :func:`_groups`), and
        :meth:`submit_batch` admits them.  Answers land in
        the runs' columns.  ``stats`` rows are answered here
        (:meth:`_admit_around_stats`).  A uniform op column is one op,
        so its runs take the one-op column paths.
        """
        n = len(keys)
        if not n:
            return []
        if type(op) is list and op.count(op[0]) == n:
            op = op[0]
        if op == "stats" or (type(op) is list and "stats" in op):
            return self._admit_around_stats(op, keys, values)
        table = self.router.table
        shards, hashes = self.router.route_batch(keys)
        return self.submit_batch(_partition(op, keys, values, hashes,
                                            shards, table, offsets))

    def submit_batch(self, runs: List[Run]) -> List[Run]:
        """Admit the routed runs of one call; returns the runs admitted.

        The admission tail of :meth:`submit`, and the whole of a retry
        round: a client gives back the refused suffixes it held, with
        their hashes and call-position offsets, so a retry routes and
        partitions nothing — unless a flip retired the table they were
        routed under, when the held rows, merged in call order, are
        routed again by the live table and partitioned anew (the
        router's counters, hot-key tracker and fault plane saw them
        when they were first routed).  While the live plan's fingerprint
        is the one they were hashed under (an overlay or split flip),
        they route from their carried hashes (``route_known``); only a
        plan swap hashes them again (``route_hashed``).  The runs
        take request ids above every id issued (row ``i`` is ``base +
        offsets[i]``), so every queue stays sorted by id.  Each row is
        one ``queue_loss`` opportunity, and each run one
        :meth:`Worker.admit`, which cuts it: the refused suffix shares
        the run's one ``REJECTED`` answer carrying ``retry_after``.  The
        runs are one call's, routed under one table.
        """
        if not runs:
            return runs
        live = self.router.table
        if runs[0].table is not live:
            cells = sorted(((offset, run, row) for run in runs
                            for row, offset in enumerate(run.offsets)),
                           key=_first)
            ops = [run.op_at(row) for _, run, row in cells]
            keys = [run.keys[row] for _, run, row in cells]
            if (runs[0].table.engine.hasher.fingerprint
                    == live.engine.hasher.fingerprint):
                hashes = [run.hashes[row] for _, run, row in cells]
                if isinstance(runs[0].hashes, np.ndarray):
                    hashes = np.array(hashes, dtype=np.uint64)
                shards = live.route_known(keys, hashes)
            else:
                shards, hashes = live.route_hashed(keys)
            runs = _partition(
                ops[0] if ops.count(ops[0]) == len(ops) else ops, keys,
                None if runs[0].values is None
                else [run.values[row] for _, run, row in cells],
                hashes, shards, live,
                [offset for offset, _, _ in cells],
            )
        base = self._next_request_id
        top = 0
        plane = self.fault_plane
        for run in runs:
            run.base = base
            if run.offsets[-1] > top:
                top = run.offsets[-1]
            n = len(run.keys)
            worker = self.workers[run.shard]
            if plane is None:
                cut = worker.admit(run)
            else:
                lost = [plane.should_fire("queue_loss", run.shard)
                        for _ in run.keys]
                cut = worker.admit(run, lost)
                self.lost_slots += lost[:cut].count(True)
            self.submitted += n
            self.accepted += cut
            if cut < n:
                self.rejected += n - cut
                # After this many pumps the queue has fully drained; a
                # retry then is guaranteed admission (absent new
                # competing load).
                run.refused = Response(
                    REJECTED, shard=run.shard,
                    retry_after=max(
                        1, math.ceil(worker.queue_depth / worker.batch_size)
                    ),
                    error="shard queue full",
                )
                run.status[cut:] = _REFUSED_ROW * (n - cut)
        self._next_request_id = base + top + 1
        return runs

    def _admit_around_stats(self, op, keys, values) -> List[Run]:
        """Admit a call holding ``stats`` rows, in call order.

        The rows between two stats rows are admitted as one call of
        their own, numbered from the whole call's base, so row ``i`` of
        the call is request id ``base + i`` and run offsets are
        positions in the whole call.  A stats row is never routed: it
        takes its request id and is answered at once with the service's
        stats, which count every row admitted before it and itself.
        """
        n = len(keys)
        ops = op if type(op) is list else [op] * n
        base = self._next_request_id
        runs: List[Run] = []
        start = 0
        for stop in [i for i, o in enumerate(ops) if o == "stats"] + [n]:
            if start < stop:
                self._next_request_id = base
                runs += self.submit(
                    ops[start:stop], keys[start:stop],
                    None if values is None else values[start:stop],
                    range(start, stop),
                )
            if stop < n:
                self._next_request_id = base + stop + 1
                self.submitted += 1
                self.accepted += 1
                run = Run("stats", [keys[stop]], None, [None], base, (stop,),
                          self.router.table, None)
                run.answers[0] = self.stats()
                run.status[0] = ANSWERED
                runs.append(run)
            start = stop + 1
        return runs

    # ------------------------------------------------------------ serving

    def pump(self) -> int:
        """One heartbeat: supervise, inject, serve, react.

        Serving is two sub-phases: every shard *dispatches* one
        micro-batch before any shard *collects*.  Inline workers serve
        synchronously in dispatch (collect is a no-op), so the order of
        observable effects is unchanged; process workers overlap — all
        shard children chew on their batches at once and the parent
        absorbs the results in shard order.  That barrier is also what
        keeps the client contract: when ``pump()`` returns, every
        dispatched ticket is either answered or a reconciled crash
        victim, never silently in flight across client code.
        """
        self.pump_index += 1
        self.supervisor.observe(self.pump_index)
        # Reconfiguration happens here, between pumps: the two-phase
        # barrier guarantees no batch is outstanding, so a promotion or
        # split sees a frozen pipeline — "freeze the donor and drain
        # in-flight work" holds by construction.
        self.supervisor.adapt(self.pump_index)
        self._inject_service_faults()
        served = 0
        for worker in self.workers:
            try:
                served += worker.dispatch()
            except InjectedCrash:
                # The worker marked itself crashed before raising; the
                # supervisor rebuilds it from its journal at the start
                # of the next pump, before anything else is served.
                self.supervisor.note_crash(worker)
        for worker in self.workers:
            if worker.crashed:
                continue
            try:
                served += worker.collect()
            except InjectedCrash:
                self.supervisor.note_crash(worker)
        self._check_monitors()
        self._tick_breakers()
        return served

    def drain(self, max_pumps: Optional[int] = None) -> int:
        """Pump until nothing is pending (bounded: a fault window can
        hold tickets hostage for a while, but never forever)."""
        budget = MAX_DRAIN_PUMPS if max_pumps is None else max_pumps
        served = 0
        pumps = 0
        while self.pending and pumps < budget:
            served += self.pump()
            pumps += 1
        return served

    def cancel(self, run: Run, row: int) -> None:
        """Drop a row the client abandoned (deadline exceeded)."""
        shard = run.shard_of(row)
        if shard is not None:
            self.workers[shard].cancel(run, row)

    @property
    def pending(self) -> int:
        """Queued rows plus unanswered inflight ones — everything that
        still owes the client a response."""
        return sum(
            worker.queue_depth + worker.inflight_unanswered
            for worker in self.workers
        )

    # ----------------------------------------------------- reconfiguration

    def reconfigure(self, candidate: RoutingTable) -> int:
        """Migrate acked state to ``candidate``'s routing, then flip.

        The one migration every reconfiguration shares — a hot-key
        promotion, a live split and a plan swap differ only in the
        candidate table they pass.  Runs between pumps (nothing in
        flight), journal-first:

        1. spawn an empty worker and breaker for every shard id the
           candidate adds;
        2. walk, in shard-id order, only the journals that can hold a
           key the candidate moves (:func:`~repro.service.routing.
           migration_scope`): each changed pin's live shard, each split
           donor, or every shard after a plan swap.  A donor's distinct
           keys go through the pure ``candidate.route_batch`` (no
           traffic counters or hot-key tracker see migration); per
           shard, extract the entries of keys that leave (so a donor
           restart cannot resurrect them), and erase their net effect
           from the donor's live structure — one delete per surviving
           put of their compaction (a Bloom filter cannot delete; its
           stale bits are unreachable after the flip and therefore
           harmless);
        3. append and apply the leavers at their targets;
        4. install the candidate and sweep queued tickets to their new
           homes.

        No acked write is lost: every entry is in exactly one journal
        at every step.  Returns the number of journal entries that
        changed shards.
        """
        for shard in range(len(self.workers), candidate.num_shards):
            self._spawn_shard(shard)
        scope = migration_scope(self.router.table, candidate)
        pinned, donors = scope or ({}, range(len(self.workers)))
        arrivals: Dict[int, List[Entry]] = {}
        moved_total = 0
        for shard in sorted(pinned.keys() | set(donors)):
            worker = self.workers[shard]
            journal = worker.journal
            if not journal.entries:
                continue
            if shard in donors:
                distinct = list(dict.fromkeys(e[1] for e in journal.entries))
                routes = candidate.route_batch(distinct)
                target_of = {distinct[i]: int(routes[i])
                             for i in np.flatnonzero(routes != shard)}
            else:
                target_of = pinned[shard]
            if not target_of:
                continue
            moved = journal.split_by(target_of)
            if not moved:
                continue
            moved_total += len(moved)
            if self.backend != "bloom":
                worker.apply_entries([
                    ("delete", key, None)
                    for _, key, _ in compact(moved, journal.multiset)
                ])
            for entry in moved:
                arrivals.setdefault(target_of[entry[1]], []).append(entry)
        for target, entries in arrivals.items():
            worker = self.workers[target]
            worker.journal.extend(entries)
            worker.apply_entries(entries)
        self.router.install(candidate)
        self.swept_tickets += self._requeue(
            [rows for worker in self.workers for rows in worker.take_queue()]
        )
        return moved_total

    def split_shard(self, donor: int) -> int:
        """Split ``donor``'s key range live; returns the new shard id.

        The candidate doubles ``donor``'s split directory and points
        the new half at a brand-new shard; :meth:`reconfigure` spawns
        it empty and migrates the moving half of the donor's journal
        into it through the live apply path.
        """
        candidate = self.router.table.with_split(donor)
        self.reconfigure(candidate)
        return candidate.num_shards - 1

    def _requeue(self, ranges: List[Rows]) -> int:
        """Route rows under the live table and merge each shard's group
        into its queue front by request id.

        Shared by the flip sweep and the supervisor's recovery path.
        Merging on request id preserves per-key admission order, since
        ids are globally monotonic; every row is re-hashed with the live
        plan in place, so no queued row carries a hash of a retired
        plan.  With the flip sweep this is the only re-route: dispatch
        serves what the queue holds.  Returns the number of rows that
        changed shards.
        """
        cells = [(rows.run, row) for rows in ranges
                 for row in range(rows.start, rows.stop)]
        if not cells:
            return 0
        shards, hashes = self.router.table.route_hashed(
            [run.keys[row] for run, row in cells]
        )
        groups: Dict[int, list] = {}
        moved = 0
        for (run, row), shard, key_hash in zip(cells, iter_ints(shards),
                                               iter_ints(hashes)):
            moved += shard != run.shard_of(row)
            run.move(row, shard)
            run.hashes[row] = key_hash
            groups.setdefault(shard, []).append(
                (run.request_id(row), run, row)
            )
        for shard, group in groups.items():
            group.sort(key=_first)
            self.workers[shard].requeue_front(coalesce(
                [(run, row) for _, run, row in group]
            ))
        return moved

    # --------------------------------------------------- fault injection

    def _inject_service_faults(self) -> None:
        """The ``corrupt`` injection point, one opportunity per shard
        per pump on both executions: a firing spec trips the shard
        through :meth:`Worker.force_trip`, which on a table feeds the
        real CollisionMonitor a collapsed signal.  A shard already
        tripped or crashed is skipped, so the opportunity is not spent
        on a shard it cannot change."""
        plane = self.fault_plane
        if plane is None:
            return
        for worker in self.workers:
            if worker.tripped or worker.crashed:
                continue
            if plane.should_fire("corrupt", worker.shard_id):
                worker.force_trip()

    # -------------------------------------------- breakers / degradation

    def _check_monitors(self) -> None:
        for worker, breaker in zip(self.workers, self.breakers):
            if worker.tripped and breaker.state != OPEN:
                breaker.trip(self.pump_index)
                worker.fall_back()

    def _tick_breakers(self) -> None:
        for worker, breaker in zip(self.workers, self.breakers):
            if breaker.tick(self.pump_index) == "probe":
                worker.restore_partial_key()

    @property
    def degraded(self) -> bool:
        """True while any shard's breaker is not closed."""
        return any(not breaker.closed for breaker in self.breakers)

    @property
    def degrade_events(self) -> int:
        """Total breaker trips (opens + failed-probe reopens) so far."""
        return sum(b.opens + b.reopens for b in self.breakers)

    def force_trip(self, shard: int) -> None:
        """Trip one shard's monitor (drills/tests); only *that* shard's
        breaker opens — its siblings keep partial-key serving."""
        self.workers[shard].force_trip()
        self._check_monitors()

    # ------------------------------------------------------ drift relearn

    def relearn_swap(self, model) -> int:
        """Swap the whole fleet to a re-learned model; zero downtime.

        Called from the supervisor's adapt pass (between pumps, nothing
        in flight).  The routing plane swaps *first*: the router
        re-bases on the new model's fleet plan and every
        resident key the re-based hash re-routes migrates journal-first
        while the old engines still serve (drift concentrates traffic —
        the dying positions hash every drifted key alike — so a swap
        that only rearmed the shard engines would leave one shard
        serving the whole stream).  Only then is each shard rearmed:
        inline, ``table.relearn`` + ``engine.rearm`` rebuild in place
        at the *post-migration* occupancy — rearming before migration
        would rebuild the drift-concentrated shard at peak occupancy, a
        geometry whose entropy demand no certified plan can meet —
        while under process execution the model ships to the live child
        over the ctl channel and rehashes there.  On both executions
        the rearm re-points the shard backend's spec first, so a core
        that cannot rehash live (a dead child) and every later restart
        rebuild the new plan from the journal.  After a successful
        rehash a non-closed breaker is reset — its open state guarded a
        plan that no longer exists.  Finally the service spec is
        re-pointed so future splits build the *new* plan, and each
        journal is compacted (the rehash rewrote the structures anyway;
        superseded entries must not accumulate across drift cycles).
        Returns the number of shards that rehashed live.
        """
        new_spec = dataclasses.replace(self._spec, model=model, hasher=None)
        # One fleet plan again: the router re-bases on the plan the
        # rearmed tables choose, so carried hashes stay usable.
        candidate = self.router.table.with_engine(
            HashEngine(new_spec.fleet_hasher())
        )
        self.plan_moved_keys += self.reconfigure(candidate)
        swapped = 0
        for worker, breaker in zip(self.workers, self.breakers):
            if worker.rearm_with(model):
                swapped += 1
                if not breaker.closed:
                    breaker.reset()
        self._spec = new_spec
        for worker in self.workers:
            worker.journal.checkpoint()
        self.plan_swaps += 1
        return swapped

    # ---------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release execution resources: shard children and their
        queues.  Idempotent; a no-op for inline execution.  Pending
        tickets are *not* drained — close is a teardown, not a flush."""
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = ["Service"]
