"""Hash-table substrates.

Two prototypical designs from paper Section 4.1, both instrumented to
count exactly the quantities the analysis bounds (key comparisons, tag
probes, probe-chain lengths):

* :class:`~repro.tables.chaining.SeparateChainingTable` — an array of
  buckets, standing in for ``std::unordered_map`` (appendix experiment 2).
* :class:`~repro.tables.probing.LinearProbingTable` — open addressing
  with an 8-bit tag array probed before full-key comparison, standing in
  for Google's SwissTable.

Both share one skeleton (:class:`~repro.tables.base.RehashingTable`):
insert, batch insert, growth, rehash and ``rebuild_with_hasher``; each
keeps its array, ``get``, ``delete`` and walks.  Every table, the
cuckoo table too, shares ``len``, ``contains`` and ``in``
(:class:`~repro.tables.base.HashTable`), and a read-only ``hasher``:
the engine's live one.

Plus the Section 5 runtime infrastructure: growth-triggered hash
upgrades and drift re-learning (:class:`~repro.tables.aware.EntropyAwareMixin`,
behind both entropy-aware tables) and the collision monitor with
full-key fallback (:mod:`repro.engine.monitor`).
"""

from repro.engine import CollisionMonitor, MonitorVerdict
from repro.tables.base import ProbeStats
from repro.tables.chaining import EntropyAwareTable, SeparateChainingTable
from repro.tables.cuckoo import CuckooTable
from repro.tables.probing import EntropyAwareProbingTable, LinearProbingTable

__all__ = [
    "SeparateChainingTable",
    "CuckooTable",
    "EntropyAwareTable",
    "LinearProbingTable",
    "EntropyAwareProbingTable",
    "ProbeStats",
    "CollisionMonitor",
    "MonitorVerdict",
]
