"""The similarity service backend: documents in, neighbors out.

:class:`SimilarityAdapter` is the sixth
:class:`~repro.service.adapters.StructureAdapter`: a shard stores
*documents* (arbitrary value bytes) keyed by item key, sketches each
document into a :class:`~repro.similarity.signatures.BBitMinHash` over
its byte shingles, and indexes the signature in an
:class:`~repro.similarity.index.LSHIndex`.  On top of the usual
get/put/delete/contains surface it serves the ``similar`` verb: the
per-key payload carries k (ASCII decimal in ``request.value``) and the
answer is the top-k ``(key, estimated_jaccard)`` neighbors among the
shard's items, or None when the queried key is unknown.

Everything is derived deterministically from ``(key, document)`` pairs
under the adapter's configuration, which is what makes the journal
machinery work unchanged: replaying ``put`` entries through
:meth:`put_batch` re-shingles and re-sketches each document into
bit-identical signatures, so crash recovery, process-child spawn, and
live shard-split migration all rebuild exactly the acknowledged index
without signatures ever crossing a process boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine
from repro.service.adapters import StructureAdapter
from repro.similarity.index import LSHIndex, Neighbor
from repro.similarity.signatures import BBitMinHash
from repro.sketches.minhash import MinHashSignature

DEFAULT_NEIGHBORS = 10


def shingle_bytes(doc: bytes, width: int = 8) -> List[bytes]:
    """The distinct byte n-grams of a document (order preserved).

    Documents shorter than the window are their own single shingle, so
    every document — including the empty one — has a non-empty element
    set to sketch.
    """
    if len(doc) <= width:
        return [doc]
    return list(dict.fromkeys(
        doc[i:i + width] for i in range(len(doc) - width + 1)
    ))


class SimilarityAdapter(StructureAdapter):
    """One shard's near-duplicate index behind the batched facade.

    Mirrors :class:`~repro.service.adapters.FilterAdapter`'s degraded-
    mode discipline: the acked ``(key, document)`` map is the source of
    truth, and ``_rebuild`` re-sketches every signature into a fresh
    index under the full-key or pristine element hasher — no stored
    item is ever lost to a hasher swap.
    """

    backend = "similarity"
    supported = frozenset({"get", "put", "delete", "contains", "similar"})
    REPORTS = StructureAdapter.REPORTS + ("index",)

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        capacity: int,
        bands: int = 8,
        rows: int = 4,
        b: int = 8,
        shingle_width: int = 8,
        band_hasher: Optional[EntropyLearnedHasher] = None,
    ):
        super().__init__(hasher)
        self.capacity = capacity
        self.bands = bands
        self.rows = rows
        self.b = b
        self.k = bands * rows
        self.shingle_width = shingle_width
        # The band hasher survives rebuilds: band keys are packed
        # signature bytes, not raw keys, so a fallback of the *element*
        # hasher does not invalidate it.
        self._band_hasher = band_hasher
        self._members: Dict[bytes, bytes] = {}
        self._install(hasher)

    def _install(self, hasher: EntropyLearnedHasher) -> None:
        """Point the sketching pipeline at ``hasher`` with a fresh
        engine and an empty index."""
        self._element_hasher = hasher
        self._element_engine = HashEngine(hasher)
        self.index = LSHIndex(
            self.bands, self.rows, self.b,
            hasher=self._band_hasher, seed=hasher.seed,
        )

    # ---------------------------------------------------------- sketching

    def signature_of(self, doc: bytes) -> BBitMinHash:
        """Sketch one document: shingle, k MinHash rows, b-bit truncate.

        Bit-identical to ``BBitMinHash.from_items(hasher, shingles,
        ...)`` — the shared engine only amortizes plan compilation, the
        per-row seed override keeps the minima exactly the scalar
        construction's.
        """
        items = shingle_bytes(doc, self.shingle_width)
        hasher = self._element_hasher
        mins = np.empty(self.k, dtype=np.uint64)
        for row in range(self.k):
            mins[row] = self._element_engine.hash_batch(
                items, seed=hasher.seed + row + 1
            ).min()
        return BBitMinHash.from_signature(
            MinHashSignature(mins, fingerprint=hasher.fingerprint),
            self.b, bands=self.bands,
        )

    # -------------------------------------------------------- batch paths

    def get_batch(
        self, keys: Sequence[bytes], hashes=None
    ) -> List[Optional[bytes]]:
        return [self._members.get(key) for key in keys]

    def put_batch(self, keys, values, hashes=None) -> Optional[List[bool]]:
        # Newest-wins within the batch: a key put twice in one segment
        # keeps only its last document (matching the journal's
        # newest-wins compaction), and its old signature leaves the
        # index before the new one lands.
        pending: Dict[bytes, bytes] = {}
        for key, value in zip(keys, values):
            pending[key] = value if value is not None else b""
        fresh = list(pending)
        for key in fresh:
            if key in self._members:
                self.index.remove(key)
            self._members[key] = pending[key]
        self.index.insert_batch(
            fresh, [self.signature_of(pending[key]) for key in fresh]
        )
        return None

    def delete_batch(
        self, keys: Sequence[bytes], hashes=None
    ) -> List[Optional[bool]]:
        results: List[Optional[bool]] = []
        for key in keys:
            present = key in self._members
            if present:
                del self._members[key]
                self.index.remove(key)
            results.append(present)
        return results

    def contains_batch(self, keys: Sequence[bytes], hashes=None) -> List[bool]:
        return [key in self._members for key in keys]

    @staticmethod
    def _parse_k(payload: Optional[bytes]) -> int:
        """The neighbor count riding in ``request.value`` (ASCII int)."""
        if not payload:
            return DEFAULT_NEIGHBORS
        try:
            return max(0, int(payload.decode("ascii")))
        except (ValueError, UnicodeDecodeError):
            return DEFAULT_NEIGHBORS

    def similar_batch(
        self,
        keys: Sequence[bytes],
        payloads: Sequence[Optional[bytes]],
    ) -> List[Optional[List[Neighbor]]]:
        """Top-k neighbors per key; None marks an unknown query key.

        The queried item itself is excluded from its own answer.  Band
        hashing across the whole segment is batched through the index.
        """
        ks = [self._parse_k(payload) for payload in payloads]
        out: List[Optional[List[Neighbor]]] = [None] * len(keys)
        live = [
            (i, key) for i, key in enumerate(keys)
            if key in self.index.signatures
        ]
        if not live:
            return out
        results = self.index.query_batch(
            [self.index.signatures[key] for _, key in live],
            [ks[i] for i, _ in live],
            excludes=[key for _, key in live],
        )
        for (i, _), neighbors in zip(live, results):
            out[i] = neighbors
        return out

    # ------------------------------------------------------ degraded mode

    @property
    def engine(self):
        """The band-hash engine (the element engine is per-signature)."""
        return self.index.engine

    def _rebuild(self, full_key: bool) -> None:
        self._install(self._hasher_for(full_key))
        if self._members:
            items = list(self._members.items())
            self.index.insert_batch(
                [key for key, _ in items],
                [self.signature_of(doc) for _, doc in items],
            )

    def __len__(self) -> int:
        return len(self._members)


__all__ = ["SimilarityAdapter", "shingle_bytes", "DEFAULT_NEIGHBORS"]
