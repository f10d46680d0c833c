"""b-bit MinHash signatures (Li & König; Pb-Hash partitioned layout).

A classic MinHash signature stores k full 64-bit minima.  For
resemblance estimation most of those bits are wasted: two sets with
Jaccard similarity J agree on a minimum with probability J, and
*disagreeing* minima are (near-)uniform random values — so keeping only
the lowest b bits of each minimum preserves almost all of the signal at
1/64th .. 1/8th of the storage and compare cost.  The price is a
collision floor: two unequal minima still agree on their low b bits
with probability ``2^-b``, which the estimator below corrects for
exactly (Li & König, "b-bit minwise hashing"):

    E[m] = C + (1 - C) * J      with C = 2^-b
    Ĵ    = (m - C) / (1 - C)    (unbiased, clipped to [0, 1])

where m is the fraction of agreeing truncated rows.  The variance of m
is binomial, so the estimator's standard error is

    se(Ĵ) = sqrt(p (1 - p) / k) / (1 - C)     with p = C + (1 - C) J

— the ``1/(1-C)`` inflation is the only accuracy cost of truncation,
and it vanishes quickly in b (1.07x at b=4, 1.004x at b=8).

Storage follows the Pb-Hash partitioned layout: the k truncated rows
are grouped into ``bands`` partitions and each partition's ``rows * b``
bits pack into their own contiguous byte block.  A band's block is
therefore a self-contained byte string — exactly the band key the LSH
index hashes through ``engine.hash_batch`` — without re-packing or
cross-band bit arithmetic at query time.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro._util import Key
from repro.core.hasher import EntropyLearnedHasher
from repro.sketches.minhash import MinHashSignature


def collision_floor(b: int) -> float:
    """The probability two *unequal* minima agree on their low b bits."""
    return 2.0 ** -b


def standard_error(b: int, k: int, jaccard: float = 0.5) -> float:
    """Standard error of the b-bit estimator at a given true Jaccard.

    Defaults to J = 0.5, the worst case of the binomial variance, so
    the no-argument form is a safe bound for any pair of sets.
    """
    if not 1 <= b <= 16:
        raise ValueError(f"b must be in [1, 16], got {b}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    c = collision_floor(b)
    p = c + (1.0 - c) * jaccard
    return math.sqrt(p * (1.0 - p) / k) / (1.0 - c)


class BBitMinHash:
    """A k-row MinHash signature truncated to b bits per row.

    >>> h = EntropyLearnedHasher.full_key("xxh3")
    >>> a = BBitMinHash.from_items(h, [b"x", b"y", b"z"], k=64, b=8)
    >>> b_ = BBitMinHash.from_items(h, [b"x", b"y", b"w"], k=64, b=8)
    >>> 0.0 <= a.jaccard(b_) <= 1.0
    True
    """

    def __init__(
        self,
        bits: np.ndarray,
        b: int,
        bands: int = 1,
        fingerprint: Optional[tuple] = None,
    ):
        if not 1 <= b <= 16:
            raise ValueError(f"b must be in [1, 16], got {b}")
        bits = np.asarray(bits)
        k = int(bits.shape[0])
        if k <= 0:
            raise ValueError("signature needs at least one row")
        if bands < 1 or k % bands != 0:
            raise ValueError(
                f"bands must divide k evenly: k={k}, bands={bands}"
            )
        mask = (1 << b) - 1
        self.bits = (bits.astype(np.uint64) & np.uint64(mask)).astype(
            np.uint16
        )
        self.b = b
        self.bands = bands
        self.rows = k // bands
        self.fingerprint = fingerprint
        self._packed: Optional[np.ndarray] = None

    # ------------------------------------------------------- construction

    @classmethod
    def from_signature(
        cls, signature: MinHashSignature, b: int, bands: int = 1
    ) -> "BBitMinHash":
        """Truncate a full 64-bit signature to its low b bits per row."""
        return cls(
            signature.mins, b, bands=bands,
            fingerprint=signature.fingerprint,
        )

    @classmethod
    def from_items(
        cls,
        hasher: EntropyLearnedHasher,
        items: Sequence[Key],
        k: int = 128,
        b: int = 8,
        bands: int = 1,
    ) -> "BBitMinHash":
        """Build directly from a set of elements (k batched passes)."""
        return cls.from_signature(
            MinHashSignature.from_items(hasher, items, k=k), b, bands=bands
        )

    # --------------------------------------------------------- estimation

    @property
    def k(self) -> int:
        return int(self.bits.shape[0])

    def _check_comparable(self, other: "BBitMinHash") -> None:
        if (self.bits.shape != other.bits.shape or self.b != other.b
                or self.bands != other.bands):
            raise ValueError(
                "signatures must have equal (k, b, bands): "
                f"({self.k}, {self.b}, {self.bands}) vs "
                f"({other.k}, {other.b}, {other.bands})"
            )
        if (self.fingerprint is not None
                and other.fingerprint is not None
                and self.fingerprint != other.fingerprint):
            raise ValueError(
                "signatures were built with different hashers: "
                f"{self.fingerprint} vs {other.fingerprint}"
            )

    def jaccard(self, other: "BBitMinHash") -> float:
        """Unbiased Jaccard estimate, correcting the 2^-b floor."""
        self._check_comparable(other)
        m = float((self.bits == other.bits).mean())
        c = collision_floor(self.b)
        return min(1.0, max(0.0, (m - c) / (1.0 - c)))

    def standard_error(self, jaccard: float = 0.5) -> float:
        return standard_error(self.b, self.k, jaccard)

    # --------------------------------------------- packed (Pb-Hash) layout

    @property
    def block_bytes(self) -> int:
        """Bytes per band block: ``ceil(rows * b / 8)``."""
        return (self.rows * self.b + 7) // 8

    @property
    def packed(self) -> np.ndarray:
        """All band blocks concatenated: ``bands * block_bytes`` bytes.

        Each band's rows pack MSB-first into its own block, padded with
        zero bits to the byte boundary, so every block is independently
        addressable (the partitioned layout).
        """
        if self._packed is None:
            block = self.block_bytes
            out = np.zeros(self.bands * block, dtype=np.uint8)
            shifts = np.arange(self.b - 1, -1, -1, dtype=np.uint16)
            for band in range(self.bands):
                rows = self.bits[band * self.rows:(band + 1) * self.rows]
                bitmat = (
                    (rows[:, None] >> shifts) & np.uint16(1)
                ).astype(np.uint8).ravel()
                packed = np.packbits(bitmat)
                out[band * block:band * block + packed.shape[0]] = packed
            self._packed = out
        return self._packed

    def band_bytes(self, band: int) -> bytes:
        """One band's packed block — the LSH band key for this item."""
        if not 0 <= band < self.bands:
            raise IndexError(f"band {band} out of range [0, {self.bands})")
        block = self.block_bytes
        return self.packed[band * block:(band + 1) * block].tobytes()

    def to_bytes(self) -> bytes:
        """The full serialized signature (every band block, in order)."""
        return self.packed.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BBitMinHash):
            return NotImplemented
        return (self.b == other.b and self.bands == other.bands
                and self.bits.shape == other.bits.shape
                and bool((self.bits == other.bits).all()))

    def __repr__(self) -> str:
        return (
            f"BBitMinHash(k={self.k}, b={self.b}, bands={self.bands}, "
            f"rows={self.rows})"
        )


__all__ = ["BBitMinHash", "collision_floor", "standard_error"]
