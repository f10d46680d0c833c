"""Immutable sorted runs with entropy-aware Bloom filters.

An SSTable is the LSM's on-"disk" unit: a sorted array of entries with a
min/max key range, a Bloom filter in front, and binary-search lookups.
Runs are fixed datasets, so the filter is built with
:func:`repro.filters.aware.build_filter`: the byte selection is trained
on exactly the keys the run holds (ground-truth entropy, Section 3) and
validated at construction, falling back to full-key hashing if the keys
turn out predictable on the selected bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro._util import Key, as_bytes
from repro.core.trainer import EntropyModel, train_model
from repro.kvstore.memtable import TOMBSTONE


class SSTable:
    """An immutable sorted run guarded by a Bloom filter.

    ``entries`` must be sorted by key and free of duplicate keys; values
    are bytes or the tombstone sentinel.
    """

    MIN_KEYS_FOR_TRAINING = 16

    def __init__(
        self,
        entries: Sequence[Tuple[bytes, object]],
        target_fpr: float = 0.01,
        added_fpr: float = 0.005,
        model: Optional[EntropyModel] = None,
    ):
        if not entries:
            raise ValueError("an SSTable needs at least one entry")
        self._keys: List[bytes] = [k for k, _ in entries]
        self._values = [v for _, v in entries]
        if any(a >= b for a, b in zip(self._keys, self._keys[1:])):
            raise ValueError("entries must be strictly sorted by key")

        self.filter = None
        self.filter_fell_back = False
        if len(self._keys) >= self.MIN_KEYS_FOR_TRAINING:
            from repro.filters.aware import build_filter

            if model is None:
                model = train_model(self._keys, base="xxh3",
                                    fixed_dataset=True)
            report = build_filter(
                model, self._keys, target_fpr=target_fpr,
                added_fpr=added_fpr, blocked=True,
            )
            self.filter = report.filter
            self.filter_fell_back = report.fell_back

        # Read-path accounting (the quantities the LSM papers optimize).
        self.filter_rejections = 0
        self.searches = 0

    # ---------------------------------------------------------------- queries

    @property
    def min_key(self) -> bytes:
        return self._keys[0]

    @property
    def max_key(self) -> bytes:
        return self._keys[-1]

    def __len__(self) -> int:
        return len(self._keys)

    def may_contain(self, key: Key) -> bool:
        """Cheap pre-checks: key range, then the Bloom filter."""
        key = as_bytes(key)
        if not self.min_key <= key <= self.max_key:
            return False
        if self.filter is not None and not self.filter.contains(key):
            self.filter_rejections += 1
            return False
        return True

    def get(self, key: Key):
        """Binary-search lookup; ``None`` when absent, tombstones pass
        through (the store interprets them)."""
        key = as_bytes(key)
        if not self.may_contain(key):
            return None
        return self.search(key)

    def search(self, key: Key):
        """Binary search without the pre-checks (the store prunes with
        its own counters and then calls this directly)."""
        key = as_bytes(key)
        self.searches += 1
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return None

    def entries(self) -> List[Tuple[bytes, object]]:
        """All entries in key order (used by compaction)."""
        return list(zip(self._keys, self._values))

    def range_entries(self, start: Key, end: Key) -> List[Tuple[bytes, object]]:
        """Entries with ``start <= key < end``, in key order."""
        start = as_bytes(start)
        end = as_bytes(end)
        lo = bisect_left(self._keys, start)
        hi = bisect_left(self._keys, end)
        return list(zip(self._keys[lo:hi], self._values[lo:hi]))


def merge_runs(runs: Sequence[SSTable], drop_tombstones: bool) -> List[Tuple[bytes, object]]:
    """k-way merge of runs, newest first, deduplicating by key.

    ``runs[0]`` is the newest: its version of a key wins.  With
    ``drop_tombstones`` (a full merge down to the bottom level),
    delete markers are removed entirely.
    """
    merged: dict = {}
    for run in reversed(runs):  # oldest first; newer overwrite
        for key, value in run.entries():
            merged[key] = value
    entries = sorted(merged.items())
    if drop_tombstones:
        entries = [(k, v) for k, v in entries if v is not TOMBSTONE]
    return entries
