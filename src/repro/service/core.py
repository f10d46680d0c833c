"""The pure per-shard core: apply segments, answer in wire form.

:class:`ShardCore` is the half of the old monolithic worker that owns
the structure and nothing else — no queue, no tickets, no journal, no
fault plane.  It consumes *wire segments* (``(op, keys, values,
hashes, plan)`` tuples of plain data) and returns *wire results*
(``(kind, payload)`` tuples of plain lists), so the exact same core
runs embedded in the parent under
:class:`~repro.service.backends.InlineBackend` and inside a forked
child under :class:`~repro.service.backends.ProcessBackend` — the
transport shell around it changes, the apply semantics cannot.  Two
methods are the whole shard protocol: :meth:`ShardCore.serve_batch`
serves one batch's segments up to an injected crash point, and
:meth:`ShardCore.control` runs one named control op (degraded-mode
moves, rearm, migration apply, stats).  Inline execution calls them
directly; a shard child calls them once per ``batch`` or ``ctl``
message.

Everything a core touches or returns is picklable by construction;
tickets and :class:`~repro.service.protocol.Response` objects never
cross a process boundary.  Acknowledgement, journaling, and client
visibility all live parent-side in the worker shell, which is what
makes a child's state disposable: a restart rebuilds the core from the
parent's acked-only journal, so work a dead child applied but never
reported simply evaporates instead of double-applying.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.service.adapters import AdapterSpec, StructureAdapter
from repro.service.journal import Entry, replay_entries

# One wire segment: consecutive same-op requests, reduced to plain data —
# op, keys, values, the keys' carried fleet hashes (or None) and the
# fingerprint of the hasher that computed them.
WireSegment = Tuple[
    str, List[bytes], Optional[List[Optional[bytes]]],
    Optional[List[int]], Optional[tuple],
]
# One wire result: ("unsupported", backend) or (op, per-key payload).
WireResult = Tuple[str, object]


class ShardCore:
    """One structure plus the segment-apply logic, nothing else."""

    def __init__(self, adapter: StructureAdapter):
        self.adapter = adapter

    @classmethod
    def from_spec(
        cls,
        spec: AdapterSpec,
        entries: Optional[Sequence[Entry]] = None,
        progress: Optional[Callable[[int], None]] = None,
    ) -> "ShardCore":
        """Build a fresh core from a spec and (re)play a journal into
        it — the child-side half of a worker restart."""
        core = cls(spec.build())
        if entries:
            replay_entries(core.adapter, entries, progress=progress)
        return core

    # ------------------------------------------------------------- serving

    def serve_segment(
        self,
        op: str,
        keys: Sequence[bytes],
        values: Optional[Sequence[Optional[bytes]]] = None,
        hashes: Optional[Sequence[int]] = None,
        plan: Optional[tuple] = None,
    ) -> WireResult:
        """Apply one same-op segment; the payload shape mirrors the
        adapter batch entry points exactly.

        ``hashes`` are the keys' raw hashes as the router computed them,
        and ``plan`` the fingerprint of the hasher it used.  The adapter
        probes and inserts from them only while ``plan`` is its own
        live hasher's (:meth:`StructureAdapter.carried`); otherwise it
        hashes the keys itself.
        """
        adapter = self.adapter
        if op not in adapter.supported:
            return ("unsupported", adapter.backend)
        if op == "similar":
            # The per-key value payload carries the neighbor count k.
            return ("similar", adapter.similar_batch(keys, list(values or ())))
        hashes = adapter.carried(keys, hashes, plan)
        if op == "get":
            return ("get", adapter.get_batch(keys, hashes))
        if op == "put":
            return ("put", adapter.put_batch(keys, list(values or ()), hashes))
        if op == "delete":
            return ("delete", adapter.delete_batch(keys, hashes))
        return ("contains", adapter.contains_batch(keys, hashes))

    def serve_batch(
        self,
        wire: Sequence[WireSegment],
        crash_at: Optional[int] = None,
        progress: Optional[Callable[[int], None]] = None,
    ) -> List[WireResult]:
        """Serve a batch's segments in order and return the served
        prefix's results.

        ``crash_at`` stops before that segment index: the injected
        mid-batch crash, after which the caller acks exactly the
        returned prefix.  ``progress(len(keys))`` runs after every
        served segment (a shard child's heartbeat).
        """
        results = []
        for op, keys, values, hashes, plan in wire[:crash_at]:
            results.append(self.serve_segment(op, keys, values, hashes, plan))
            if progress is not None:
                progress(len(keys))
        return results

    # ------------------------------------------------------------ control

    def control(
        self,
        name: str,
        arg: object = None,
        progress: Optional[Callable[[int], None]] = None,
    ) -> object:
        """Run one named control op on the structure; returns its payload.

        * ``fall_back`` / ``restore_partial_key`` / ``force_trip`` — the
          breaker's degraded-mode moves; payload None.
        * ``rearm`` — hot-swap to ``arg``, a re-learned EntropyModel;
          payload False when the structure cannot rearm.
        * ``apply`` — replay ``arg``, migrated journal entries, into the
          *live* structure (a routing migration; ``progress`` as in
          :meth:`from_spec`); payload the ops applied.
        * ``stats`` — payload the structure's stats dict.
        """
        adapter = self.adapter
        if name in ("fall_back", "restore_partial_key", "force_trip"):
            getattr(adapter, name)()
            return None
        if name == "rearm":
            if not adapter.rearmable:
                return False
            adapter.rearm_with(arg)
            return True
        if name == "apply":
            return replay_entries(adapter, arg, progress=progress)
        if name == "stats":
            return adapter.stats()
        raise ValueError(f"unknown control op {name!r}")


__all__ = ["ShardCore", "WireSegment", "WireResult"]
