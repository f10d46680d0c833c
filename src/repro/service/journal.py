"""Per-shard append-only op journals: the crash-recovery source of truth.

A :class:`ShardJournal` records every *acknowledged* mutation a worker
applied to its structure — ``("put", key, value)`` when the put was
answered OK, ``("delete", key)`` when the delete was answered — in ack
order.  Replaying the journal into a fresh adapter reconstructs exactly
the acknowledged state, which is what lets the
:class:`~repro.service.supervisor.Supervisor` restart a crashed worker
without losing a single acked write: un-acked work is simply not in the
journal, and the reconciliation pass re-enqueues its tickets instead.

Journals are bounded by *checkpointing*: past ``checkpoint_every``
entries the journal compacts itself to the minimal op list with the
same replay result — newest-wins per key for map-like backends, net
add/remove counts for multiset-like ones (a cuckoo filter stores one
fingerprint copy per add, so newest-wins would corrupt multiplicity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics import Reported

# One journal entry: (op, key, value-or-None).
Entry = Tuple[str, bytes, Optional[bytes]]


def replay_entries(adapter, entries, progress=None) -> int:
    """Re-apply a journal entry sequence to a fresh adapter.

    Consecutive same-op runs go down the adapter's batch paths, the
    same amortization the live serving path uses.  This is a module
    function (not a method) because every restart replays a *snapshot*
    of the parent's journal into a fresh core
    (:meth:`~repro.service.core.ShardCore.from_spec`), inline or in a
    shard child at spawn time — the journal object itself never leaves
    the parent.

    ``progress``, when given, is called with each run's length after it
    applies; the shard child uses it to bump its shared heartbeat
    word so the parent can tell a long replay from a hung spawn.
    Returns the number of ops replayed.
    """
    entries = list(entries) if not isinstance(entries, list) else entries
    i, n = 0, len(entries)
    while i < n:
        op = entries[i][0]
        j = i + 1
        while j < n and entries[j][0] == op:
            j += 1
        keys = [entry[1] for entry in entries[i:j]]
        if op == "put":
            values = [entry[2] or b"" for entry in entries[i:j]]
            adapter.put_batch(keys, values)
        else:
            adapter.delete_batch(keys)
        if progress is not None:
            progress(j - i)
        i = j
    return n


def compact(entries: List[Entry], multiset: bool) -> List[Entry]:
    """The minimal put-only op list with the same replay result.

    Map-like backends keep one put per key that is live at the end,
    carrying its newest value.  A multiset (a cuckoo filter stores one
    fingerprint copy per add) keeps one put per net add instead, since
    newest-wins would corrupt multiplicity.  Keys keep the order of
    their first entry, so a replay fills a structure deterministically.
    """
    live: Dict[bytes, object] = {}
    for op, key, value in entries:
        if multiset:
            live[key] = live.get(key, 0) + (1 if op == "put" else -1)
        else:
            live[key] = value if op == "put" else None
    if multiset:
        return [("put", key, b"") for key, count in live.items()
                for _ in range(count)]
    return [("put", key, value) for key, value in live.items()
            if value is not None]


class ShardJournal(Reported):
    """Append-only acked-mutation log with compacting checkpoints."""

    REPORTS = ("length=__len__", "appended", "truncations", "replays",
               "checkpoint_every", "multiset", "last_compaction")

    def __init__(self, checkpoint_every: int = 4096, multiset: bool = False):
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.entries: List[Entry] = []
        self.checkpoint_every = checkpoint_every  # 0 disables checkpoints
        self.multiset = multiset
        self.appended = 0
        self.truncations = 0
        self.replays = 0
        # Shape of the most recent checkpoint(), for observability:
        # {"before", "after", "dropped", "at_append"}; None until the
        # first compaction runs.
        self.last_compaction: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------- append

    def record_put(self, key: bytes, value: bytes) -> None:
        self.entries.append(("put", key, value))
        self.appended += 1
        self._maybe_checkpoint()

    def record_delete(self, key: bytes) -> None:
        self.entries.append(("delete", key, None))
        self.appended += 1
        self._maybe_checkpoint()

    # --------------------------------------------------------- checkpoint

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every and len(self.entries) > self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Compact to the minimal op list with the same replay result."""
        before = len(self.entries)
        compacted = compact(self.entries, self.multiset)
        self.entries = compacted
        self.truncations += 1
        self.last_compaction = {
            "before": before,
            "after": len(compacted),
            "dropped": before - len(compacted),
            "at_append": self.appended,
        }

    # ---------------------------------------------------------- migration

    def split_by(self, keys) -> List[Entry]:
        """Remove and return every entry whose key is in ``keys`` (a set
        or dict), preserving ack order on both sides.

        This is the donor half of a reconfiguration: the leaving keys'
        entries leave the donor journal (so a later donor restart does
        not resurrect moved keys) and are appended verbatim to their
        new shard's journal, where replaying them reconstructs exactly
        the acknowledged state of the moved keys.
        """
        moved = [entry for entry in self.entries if entry[1] in keys]
        if moved:
            self.entries = [entry for entry in self.entries
                            if entry[1] not in keys]
        return moved

    def extend(self, entries: List[Entry]) -> None:
        """Append migrated entries (already in their own ack order)."""
        self.entries.extend(entries)
        self.appended += len(entries)
        self._maybe_checkpoint()

    # ------------------------------------------------------------- replay

    def snapshot(self) -> List[Entry]:
        """A copy of the entry list, safe to ship to a shard child.

        Entries are immutable tuples of bytes, so a shallow list copy
        fully isolates the child's replay input from later appends.
        """
        return list(self.entries)

    def mark_replay(self) -> None:
        """Count a replay of a :meth:`snapshot` into a fresh core (a
        restart, in the parent or on a shard child's side of the
        fork)."""
        self.replays += 1

    def __len__(self) -> int:
        return len(self.entries)


__all__ = ["ShardJournal", "Entry", "compact", "replay_entries"]
