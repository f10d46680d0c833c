"""LSH banding index over b-bit MinHash signatures.

The standard banding construction: split a k-row signature into
``bands`` partitions of ``rows`` rows each; two items become candidates
when *any* band matches exactly.  For true Jaccard similarity J the
per-band match probability is ``J^rows`` (up to the b-bit collision
floor), so the candidate probability is ``1 - (1 - J^rows)^bands`` —
an S-curve whose midpoint sits near

    threshold ≈ (1 / bands) ** (1 / rows)

which is the tunable the constructor exposes: more rows per band →
higher threshold (fewer, closer candidates); more bands → lower.

Band keys are hashed through one shared :class:`~repro.engine.HashEngine`
— per-band seeds reuse a single compiled plan, exactly like the MinHash
rows themselves — and the hasher may be *entropy-learned*: because the
Pb-Hash layout keeps every band's bits in its own contiguous block, a
partial-key hasher over the serialized signature bytes reads only the
learned positions of each block.  Queries are answered by candidate
union over the bands followed by an exact b-bit signature re-rank
(deterministic tie-break on the item key), so band-hash collisions can
only ever *add* candidates, never change the score of a true one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine
from repro.metrics import Reported
from repro.similarity.signatures import BBitMinHash

# One scored neighbor: (item key, estimated Jaccard similarity).
Neighbor = Tuple[bytes, float]


class LSHIndex(Reported):
    """Banded LSH over b-bit signatures with batched insert/query."""

    REPORTS = ("items=__len__", "bands", "rows", "b", "threshold",
               "buckets=_bucket_count", "inserts", "removes", "queries")

    def __init__(
        self,
        bands: int = 8,
        rows: int = 4,
        b: int = 8,
        hasher: Optional[EntropyLearnedHasher] = None,
        seed: int = 0,
    ):
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.bands = bands
        self.rows = rows
        self.b = b
        self.k = bands * rows
        if hasher is None:
            hasher = EntropyLearnedHasher.full_key("xxh3", seed=seed)
        self.engine = HashEngine(hasher)
        self._seed = hasher.seed
        # Per band: band-key hash -> set of item keys in that bucket.
        self.buckets: List[Dict[int, Set[bytes]]] = [
            {} for _ in range(bands)
        ]
        self.signatures: Dict[bytes, BBitMinHash] = {}
        self.inserts = 0
        self.removes = 0
        self.queries = 0

    @property
    def threshold(self) -> float:
        """The similarity where candidate probability crosses ~50%."""
        return (1.0 / self.bands) ** (1.0 / self.rows)

    # ----------------------------------------------------------- plumbing

    def _check_signature(self, sig: BBitMinHash) -> None:
        if sig.bands != self.bands or sig.rows != self.rows or sig.b != self.b:
            raise ValueError(
                f"signature layout (bands={sig.bands}, rows={sig.rows}, "
                f"b={sig.b}) does not match index (bands={self.bands}, "
                f"rows={self.rows}, b={self.b})"
            )

    def _band_hashes(self, sigs: Sequence[BBitMinHash]) -> List[List[int]]:
        """Per band, the bucket hash of every signature's band block.

        One ``hash_batch`` per band over all signatures: band i's seed
        is ``seed + i + 1``, reusing the engine's single compiled plan
        the same way MinHash rows reuse theirs.
        """
        out: List[List[int]] = []
        for band in range(self.bands):
            block_keys = [sig.band_bytes(band) for sig in sigs]
            hashes = self.engine.hash_batch(
                block_keys, seed=self._seed + band + 1
            )
            out.append([int(h) for h in hashes])
        return out

    # ------------------------------------------------------------- insert

    def insert_batch(
        self, keys: Sequence[bytes], sigs: Sequence[BBitMinHash]
    ) -> None:
        """Insert many (key, signature) pairs; existing keys must be
        removed first (the caller owns key uniqueness)."""
        if len(keys) != len(sigs):
            raise ValueError("keys and signatures must have equal length")
        if not keys:
            return
        for sig in sigs:
            self._check_signature(sig)
        for band, hashes in enumerate(self._band_hashes(sigs)):
            bucket = self.buckets[band]
            for key, h in zip(keys, hashes):
                bucket.setdefault(h, set()).add(key)
        for key, sig in zip(keys, sigs):
            self.signatures[key] = sig
        self.inserts += len(keys)

    def insert(self, key: bytes, sig: BBitMinHash) -> None:
        self.insert_batch([key], [sig])

    def remove(self, key: bytes) -> bool:
        """Remove one item; True when it was present."""
        sig = self.signatures.pop(key, None)
        if sig is None:
            return False
        for band, hashes in enumerate(self._band_hashes([sig])):
            bucket = self.buckets[band]
            members = bucket.get(hashes[0])
            if members is not None:
                members.discard(key)
                if not members:
                    del bucket[hashes[0]]
        self.removes += 1
        return True

    # -------------------------------------------------------------- query

    def candidates(self, sig: BBitMinHash) -> Set[bytes]:
        """The banding candidate set: items sharing >= 1 band bucket."""
        self._check_signature(sig)
        out: Set[bytes] = set()
        for band, hashes in enumerate(self._band_hashes([sig])):
            out |= self.buckets[band].get(hashes[0], set())
        return out

    def query_batch(
        self,
        sigs: Sequence[BBitMinHash],
        ks: Sequence[int],
        excludes: Optional[Sequence[Optional[bytes]]] = None,
    ) -> List[List[Neighbor]]:
        """Top-k neighbors for each query signature.

        Band hashing is batched (one engine pass per band over all
        queries); each query then unions its candidate buckets and
        re-ranks them by exact b-bit Jaccard, breaking ties on the item
        key so results are deterministic regardless of set order.
        """
        if not sigs:
            return []
        for sig in sigs:
            self._check_signature(sig)
        if excludes is None:
            excludes = [None] * len(sigs)
        per_band = self._band_hashes(sigs)
        results: List[List[Neighbor]] = []
        for i, (sig, k, exclude) in enumerate(zip(sigs, ks, excludes)):
            cands: Set[bytes] = set()
            for band in range(self.bands):
                cands |= self.buckets[band].get(per_band[band][i], set())
            if exclude is not None:
                cands.discard(exclude)
            scored = [
                (key, self.signatures[key].jaccard(sig)) for key in cands
            ]
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            results.append(scored[:max(0, int(k))])
        self.queries += len(sigs)
        return results

    def query(
        self, sig: BBitMinHash, k: int, exclude: Optional[bytes] = None
    ) -> List[Neighbor]:
        return self.query_batch([sig], [k], [exclude])[0]

    def _bucket_count(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)

    def __len__(self) -> int:
        return len(self.signatures)

    def __contains__(self, key: bytes) -> bool:
        return key in self.signatures


__all__ = ["LSHIndex", "Neighbor"]
