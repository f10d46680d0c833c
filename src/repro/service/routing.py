"""The versioned routing table: base hash + hot-key overlay + split map.

Until PR 7 the key→shard map *was* the learned hasher, pinned for the
service's lifetime — adapting to skew was impossible by construction.
A :class:`RoutingTable` keeps the base hasher pinned (its 64-bit hash
stream changes only through an explicit :meth:`~RoutingTable.
with_engine` plan swap, which migrates every resident key it moves)
and layers two versioned refinements on top, stamped by a
monotonically increasing ``generation``:

* **hot-key overlay** — an explicit ``key -> shard`` dict consulted
  first.  The heavy hitters a :class:`~repro.service.hotkeys.
  HotKeyTracker` detects are pinned to deliberately chosen shards
  (least projected load), which is what restores the relative-balance
  bound under zipfian traffic: the bound assumes no single key carries
  a macroscopic share of the stream, and the overlay places exactly
  those keys by hand instead of by hash.
* **split map** — extendible-hashing-style per-base-shard directories
  for live shard splits.  Splitting shard ``d`` doubles ``d``'s
  directory and points the new half of each of ``d``'s slots at the new
  shard; keys whose base hash lands on ``d`` then sub-route through
  the next bits of the *same* 64-bit hash, so a split only ever moves
  keys away from the donor — every other shard's keys are provably
  untouched.

The hash is the fleet's one hash per key: shard tables probe and insert
from it too, so its 64 bits are budgeted between the uses.  Fast-range
takes the top bits (``(h * m) >> 64``); split directories index by the
top bits of the low product word ``(h * m) mod 2^64`` — the bits just
below the fast-range bits, which no table reads; a probing table takes
its tag from bits 0–7 and its slot from bits 8 and up, a chaining table
its bucket from the low bits.  No use reads another's bits, so one hash
serves them all without a remix.

Tables are copy-on-write: mutating operations (:meth:`with_overlay`,
:meth:`with_split`) return a *candidate* table at ``generation + 1``
and leave the live table alone.  The service migrates acked state under
the candidate's routing, then atomically installs it — the flip — so a
route lookup never observes a half-applied reconfiguration.  What a
candidate can move follows from comparing it with the live table
(:func:`migration_scope`), and a migration routes only that scope.
Routing itself stays pure (no counters, no fault hooks); the
:class:`~repro.service.router.ShardRouter` facade owns observation.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import U64_MASK, iter_ints
from repro.engine import FastRangeReducer, HashEngine
from repro.metrics import Reported, str_keys

# Directories cap at 2^MAX_SPLIT_DEPTH slots per base shard; past that
# a base range has been split 8 times and further splits are refused.
MAX_SPLIT_DEPTH = 8

# Batches of fewer keys are routed one hash at a time: below it numpy's
# fixed per-call cost exceeds the per-key fast-range (measured crossover
# 32 to 48 keys, CPython 3.11, 2-core x86).  From it up a call's shard
# ids and hashes travel as numpy columns through the partition to the
# shard; below it they stay lists end to end.
_ROUTE_EACH_MAX = 32

# A route column: a list of ints below _ROUTE_EACH_MAX keys, else numpy.
Column = Union[List[int], np.ndarray]


class RoutingTable(Reported):
    """Generation-stamped composite route: overlay, then base + splits."""

    REPORTS = ("generation", "base_shards", "num_shards",
               "overlay_keys=overlay.__len__",
               "split_directories=_split_directories")

    def __init__(self, engine: HashEngine, base_shards: int):
        if base_shards < 1:
            raise ValueError(f"need at least one shard, got {base_shards}")
        self.engine = engine
        self.base_shards = base_shards
        self.num_shards = base_shards
        self.generation = 0
        # Heavy hitters routed by hand: consulted before the hash.
        self.overlay: Dict[bytes, int] = {}
        # base shard -> directory (power-of-two list of shard ids);
        # absent means the base range was never split.
        self.split_dirs: Dict[int, List[int]] = {}
        self._base_reducer = FastRangeReducer(base_shards)

    # ------------------------------------------------------------ routing

    def route_batch(self, keys: Sequence[bytes]) -> np.ndarray:
        """Shard id per key; pure (no counters, no side effects)."""
        return np.asarray(self.route_hashed(keys)[0], dtype=np.int64)

    def route_hashed(self, keys: Sequence[bytes]) -> Tuple[Column, Column]:
        """Shard id and raw 64-bit hash per key; pure.

        One engine pass; the hashes are what a shard table whose plan
        matches the engine's probes and inserts from.  Below
        ``_ROUTE_EACH_MAX`` keys both come back as lists of ints; from
        it up as numpy columns, int64 shard ids and the engine's uint64
        hashes, which stay columns until a shard walks them.
        """
        n = len(keys)
        if n == 1:
            # One key: the engine's scalar closure, no array round trip.
            h = self.engine.hash_one(keys[0])
            return [self._route_of(keys[0], h)], [h]
        if not n:
            return [], []
        array = self.engine.hash_batch(keys)
        hashes = array.tolist() if n < _ROUTE_EACH_MAX else array
        return self.route_known(keys, hashes), hashes

    def route_known(self, keys: Sequence[bytes], hashes: Column) -> Column:
        """Shard id per key from its raw hash under this table's plan;
        pure, and hashes nothing: the route-from-hash half of
        :meth:`route_hashed`.  A list of ints routes one hash at a time,
        a uint64 column in one vectorized pass into int64 shard ids."""
        if not isinstance(hashes, np.ndarray):
            return list(map(self._route_of, keys, hashes))
        shards = self._base_reducer.apply(hashes)
        m = np.uint64(self.base_shards)
        for base, directory in self.split_dirs.items():
            mask = shards == base
            if not mask.any():
                continue
            # The top bits of the low product word: the bits just
            # below the ones fast-range consumed.
            sub = (hashes[mask] * m) >> np.uint64(_shift(directory))
            lookup = np.asarray(directory, dtype=np.int64)
            shards[mask] = lookup[sub.astype(np.int64)]
        overlay = self.overlay
        if overlay:
            # -1 marks a key the overlay does not pin.
            n = len(keys)
            pins = np.fromiter(map(overlay.get, keys, repeat(-1, n)),
                               dtype=np.int64, count=n)
            pinned = pins >= 0
            shards[pinned] = pins[pinned]
        return shards

    def route_one(self, key: bytes) -> int:
        """Shard id of one key; pure."""
        return self.route_hashed((key,))[0][0]

    def _route_of(self, key: bytes, h: int) -> int:
        """The route of one key from its known hash: its overlay pin,
        else fast-range, then a split directory indexed by the top bits
        of the low product word."""
        pinned = self.overlay.get(key)
        if pinned is not None:
            return pinned
        product = h * self.base_shards
        shard = product >> 64
        directory = self.split_dirs.get(shard)
        if directory is not None:
            shard = directory[(product & U64_MASK) >> _shift(directory)]
        return shard

    # -------------------------------------------------- candidate builders

    def clone(self) -> "RoutingTable":
        twin = RoutingTable.__new__(RoutingTable)
        twin.engine = self.engine
        twin.base_shards = self.base_shards
        twin.num_shards = self.num_shards
        twin.generation = self.generation
        twin.overlay = dict(self.overlay)
        twin.split_dirs = {b: list(d) for b, d in self.split_dirs.items()}
        twin._base_reducer = self._base_reducer
        return twin

    def with_overlay(self, assignments: Dict[bytes, int]) -> "RoutingTable":
        """Candidate table with hot keys pinned; generation + 1."""
        for key, shard in assignments.items():
            if not 0 <= shard < self.num_shards:
                raise ValueError(
                    f"overlay target {shard} out of range "
                    f"[0, {self.num_shards})"
                )
        candidate = self.clone()
        candidate.overlay.update(assignments)
        candidate.generation = self.generation + 1
        return candidate

    def with_engine(self, engine: HashEngine) -> "RoutingTable":
        """Candidate table hashing with a re-learned engine; generation + 1.

        The plan-swap counterpart of :meth:`with_overlay` /
        :meth:`with_split`: every refinement survives (overlay pins are
        explicit key -> shard routes; split directories sub-route
        whatever the new base hash lands on them), but the 64-bit base
        stream itself is re-based on the new plan.  Unlike overlays and
        splits — which move only the keys they name — a re-based stream
        can move *any* key anywhere, so the caller must migrate every
        resident key whose route changes before installing.
        """
        candidate = self.clone()
        candidate.engine = engine
        candidate.generation = self.generation + 1
        return candidate

    def with_split(self, donor: int) -> "RoutingTable":
        """Candidate table that splits ``donor``'s key range in half.

        The new shard always gets id ``num_shards`` (ids are dense and
        never reused).  Keys move from the donor to the new shard only —
        the base hash is untouched, so the migration predicate is simply
        ``candidate.route(key) == new_shard``.
        """
        if not 0 <= donor < self.num_shards:
            raise ValueError(
                f"donor {donor} out of range [0, {self.num_shards})"
            )
        base = self._base_of(donor)
        directory = self.split_dirs.get(base, [base])
        if len(directory) >= (1 << MAX_SPLIT_DEPTH):
            raise ValueError(
                f"base shard {base} already split {MAX_SPLIT_DEPTH} times"
            )
        candidate = self.clone()
        new_shard = candidate.num_shards
        # Extendible doubling: slot i becomes slots 2i and 2i + 1, which
        # differ only in the next bit below the old index bits.  Slots
        # that pointed at the donor keep it on 0 and hand 1 to the new
        # shard; everything else is duplicated unchanged.
        doubled = [shard for shard in directory for _ in (0, 1)]
        for i, shard in enumerate(directory):
            if shard == donor:
                doubled[2 * i + 1] = new_shard
        candidate.split_dirs[base] = doubled
        candidate.num_shards += 1
        candidate.generation = self.generation + 1
        return candidate

    def _base_of(self, shard: int) -> int:
        """The base shard whose directory owns ``shard``."""
        if shard < self.base_shards:
            return shard
        for base, directory in self.split_dirs.items():
            if shard in directory:
                return base
        raise ValueError(f"shard {shard} is not in any split directory")

    def _split_directories(self) -> Dict[str, List[int]]:
        return str_keys(self.split_dirs)

    def __repr__(self) -> str:
        return (f"RoutingTable(gen={self.generation}, "
                f"shards={self.num_shards}/{self.base_shards} base, "
                f"overlay={len(self.overlay)}, "
                f"splits={len(self.split_dirs)})")


def _shift(directory: List[int]) -> int:
    """Right shift that leaves a 64-bit word's top ``log2(len(directory))``
    bits: the directory's slot index."""
    return 65 - len(directory).bit_length()


def migration_scope(
    live: RoutingTable, candidate: RoutingTable,
) -> Optional[Tuple[Dict[int, Dict[bytes, int]], List[int]]]:
    """What ``candidate``, built from ``live``, routes elsewhere.

    None when the engines' hasher fingerprints differ: a re-based hash
    can move any key.
    Else ``(pinned, donors)``: ``pinned`` maps a live shard to the keys
    on it whose overlay pin changed and that move, each to its
    candidate shard (one candidate route call hashes them; the live
    route follows from the same hash), and ``donors`` lists, in id
    order, the live shards that held a split-directory slot the
    candidate changed.
    """
    if candidate.engine.hasher.fingerprint != live.engine.hasher.fingerprint:
        return None
    old, new = live.overlay, candidate.overlay
    changed = [key for key, shard in new.items() if old.get(key) != shard]
    changed += [key for key in old if key not in new]
    pinned: Dict[int, Dict[bytes, int]] = {}
    targets, hashes = candidate.route_hashed(changed)
    for key, target, h in zip(changed, iter_ints(targets), iter_ints(hashes)):
        home = live._route_of(key, h)
        if home != target:
            pinned.setdefault(home, {})[key] = target
    donors = set()
    for base, after in candidate.split_dirs.items():
        # A candidate's directory doubles the live one: slot i of it
        # was slot i // step of the live one.
        before = live.split_dirs.get(base, [base])
        step = len(after) // len(before)
        donors.update(before[i // step] for i, shard in enumerate(after)
                      if shard != before[i // step])
    return pinned, sorted(donors)


__all__ = ["RoutingTable", "MAX_SPLIT_DEPTH", "migration_scope"]
