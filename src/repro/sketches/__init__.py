"""Sketches built on Entropy-Learned hashing.

Paper Figure 1 lists sketches among the hash-based components ELH can
accelerate (the conclusion calls this out as a natural extension); this
package provides two classics wired to
:class:`~repro.core.hasher.EntropyLearnedHasher`:

* :class:`~repro.sketches.countmin.CountMinSketch` — frequency estimation
  (the network-switch bottleneck cited in the introduction [46]);
* :class:`~repro.sketches.hyperloglog.HyperLogLog` — cardinality
  estimation [30].

Both inherit the entropy requirements of hash tables: ``log2`` of the
sketch width plus slack; the countmin module documents the exact bound.
"""

from repro.sketches.countmin import CountMinSketch
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.minhash import MinHashSignature

__all__ = ["CountMinSketch", "HyperLogLog", "MinHashSignature"]
