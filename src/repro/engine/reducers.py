"""Structure-specific hash reducers, applied in the engine's vectorized pass.

Every consumer of a 64-bit hash ends with a small arithmetic step that
turns the hash into what the structure actually indexes with: a bucket
mask for chaining tables, a (slot, tag) split for SwissTable-style
probing, an (h1, h2) double-hashing pair for Bloom filters, a
(block, bit-mask) pair for register-blocked filters, a
(bucket, fingerprint) pair for cuckoo filters, a fast-range partition id,
or HyperLogLog's (register, rank) split.  Before the engine existed each
structure re-implemented its reduction twice — once scalar, once numpy —
and the two copies could drift.  A :class:`Reducer` is the single
definition: ``apply`` is the vectorized form the engine fuses onto a
batch, ``apply_one`` the bit-identical scalar form for single-key paths,
and ``apply_each`` builds ``apply``'s arrays from ``apply_one`` per
hash, for batches too small to repay numpy's per-call cost.

The scalar and vectorized arithmetic of the fast-range and double-hashing
splits lives here too (re-exported by :mod:`repro.filters.reduction`),
so the reducers import it once, not per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro._util import U32_MASK, U64_MASK

_U64 = np.uint64


def split_hash64(h: int) -> Tuple[int, int]:
    """Split a 64-bit hash into two 32-bit halves (h1, h2).

    ``h2`` is forced odd so the double-hashing stride never degenerates
    to zero modulo a power-of-two block size.

    >>> h1, h2 = split_hash64(0x1234567890ABCDEF)
    >>> (h1, h2) == (0x12345678, 0x90ABCDEF)
    True
    """
    h &= U64_MASK
    h1 = h >> 32
    h2 = (h & U32_MASK) | 1
    return h1, h2


def fast_range(x: int, m: int) -> int:
    """Map a uniform 64-bit ``x`` to ``[0, m)`` by multiplication.

    ``(x * m) >> 64`` — no division, and unlike ``x % m`` it uses the
    *high* bits of the hash, which are typically the best mixed.

    >>> fast_range(0, 100)
    0
    >>> fast_range(2**64 - 1, 100)
    99
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    return ((x & U64_MASK) * m) >> 64


def fast_range_array(x: np.ndarray, m: int) -> np.ndarray:
    """Vectorized :func:`fast_range` for uint64 arrays.

    numpy has no 128-bit integers, so the multiply is decomposed into
    32-bit limbs; only the high 64 bits of the 96/128-bit product are
    materialized.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    x = x.astype(np.uint64)
    m64 = np.uint64(m)
    x_hi = x >> np.uint64(32)
    x_lo = x & np.uint64(0xFFFFFFFF)
    # (x_hi * 2^32 + x_lo) * m = x_hi*m*2^32 + x_lo*m
    hi_prod = x_hi * m64  # < 2^32 * m, fits in u64 for m < 2^32
    lo_prod = x_lo * m64
    # Flooring the low partial product before the final shift is exact:
    # for integers A, B and D = 2^32, floor((A + B/D)/D) equals
    # floor((A + floor(B/D))/D), so this matches fast_range bit for bit.
    total = hi_prod + (lo_prod >> np.uint64(32))
    return (total >> np.uint64(32)).astype(np.int64)


def _bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Exact vectorized ``int.bit_length`` for uint64 arrays.

    ``floor(log2(x)) + 1`` via float64 is wrong for x with more than 53
    significant bits: values just below a power of two round *up*, which
    overstates the bit length by one (and can push a HyperLogLog rank to
    0).  Six shift/compare rounds compute it exactly instead.
    """
    x = values.astype(_U64, copy=True)
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        s = _U64(shift)
        big = x >= (_U64(1) << s)
        out[big] += shift
        x[big] >>= s
    out += (x > 0).astype(np.int64)
    return out


class Reducer:
    """Base class: turn raw 64-bit hashes into structure-ready values.

    Subclasses guarantee ``apply(np.array([h]))`` and ``apply_one(h)``
    agree element-wise — the engine's scalar path is the degenerate case
    of its batch path, never a separate implementation — and must
    declare ``dtypes``: the dtype of each array ``apply`` returns, in
    order (one entry: ``apply`` returns a single array).
    """

    dtypes: Tuple[type, ...]

    def apply(self, hashes: np.ndarray):
        raise NotImplementedError

    def apply_one(self, h: int):
        raise NotImplementedError

    def apply_each(self, hashes: Sequence[int]):
        """``apply`` at per-key cost: ``apply_one`` per hash, gathered
        into arrays of exactly ``apply``'s dtypes and shapes.

        >>> slots, tags = SlotTagReducer(1023).apply_each([0x1234, 0xFF])
        >>> slots.tolist(), tags.tolist(), slots.dtype.name, tags.dtype.name
        ([18, 0], [54, 3], 'int64', 'uint8')
        """
        rows = list(map(self.apply_one, hashes))
        if len(self.dtypes) == 1:
            return np.array(rows, self.dtypes[0])
        columns = zip(*rows) if rows else [()] * len(self.dtypes)
        return tuple(map(np.array, columns, self.dtypes))


@dataclass(frozen=True)
class MaskReducer(Reducer):
    """Bucket index for power-of-two structures: ``h & mask``."""

    mask: int
    dtypes = (np.int64,)

    def apply(self, hashes: np.ndarray) -> np.ndarray:
        return (hashes & _U64(self.mask)).astype(np.int64)

    def apply_one(self, h: int) -> int:
        return h & self.mask


@dataclass(frozen=True)
class SlotTagReducer(Reducer):
    """SwissTable split: high bits pick the slot, low 8 bits the tag.

    Matches ``LinearProbingTable._slot_and_tag_from_hash`` exactly (tags
    0/1 are reserved control states, so tag values live in 2..255).
    """

    mask: int
    tag_states: int = 2
    dtypes = (np.int64, np.uint8)

    def apply(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        slots = ((hashes >> _U64(8)) & _U64(self.mask)).astype(np.int64)
        tags = (
            (hashes & _U64(0xFF)) % _U64(256 - self.tag_states)
            + _U64(self.tag_states)
        ).astype(np.uint8)
        return slots, tags

    def apply_one(self, h: int) -> Tuple[int, int]:
        slot = (h >> 8) & self.mask
        tag = (h & 0xFF) % (256 - self.tag_states) + self.tag_states
        return slot, tag


@dataclass(frozen=True)
class FastRangeReducer(Reducer):
    """Lemire fast-range partition id: ``(h * n) >> 64``."""

    num_partitions: int
    dtypes = (np.int64,)

    def apply(self, hashes: np.ndarray) -> np.ndarray:
        return fast_range_array(hashes, self.num_partitions)

    def apply_one(self, h: int) -> int:
        return fast_range(h, self.num_partitions)


@dataclass(frozen=True)
class BloomSplitReducer(Reducer):
    """Kirsch-Mitzenmacher split: one hash -> (h1, h2) probe streams.

    ``h2`` is forced odd so the double-hashing stride never degenerates
    modulo a power-of-two size.
    """

    dtypes = (_U64, _U64)

    def apply(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        h1 = (hashes >> _U64(32)).astype(_U64)
        h2 = ((hashes & _U64(0xFFFFFFFF)) | _U64(1)).astype(_U64)
        return h1, h2

    def apply_one(self, h: int) -> Tuple[int, int]:
        return split_hash64(h)


@dataclass(frozen=True)
class BlockMaskReducer(Reducer):
    """Register-blocked Bloom split: (block index, k-bit probe mask).

    High bits select the block by multiply-shift reduction; successive
    6-bit groups select the probe bits inside the 64-bit block.
    """

    num_blocks: int
    num_probe_bits: int
    dtypes = (np.int64, _U64)

    def apply(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        blocks = (
            ((hashes >> _U64(32)) * _U64(self.num_blocks)) >> _U64(32)
        ).astype(np.int64)
        masks = np.zeros(len(hashes), dtype=_U64)
        bits = hashes.copy()
        for _ in range(self.num_probe_bits):
            masks |= _U64(1) << (bits & _U64(0x3F))
            bits >>= _U64(6)
        return blocks, masks

    def apply_one(self, h: int) -> Tuple[int, int]:
        block = ((h >> 32) * self.num_blocks) >> 32
        mask = 0
        bits = h
        for _ in range(self.num_probe_bits):
            mask |= 1 << (bits & 0x3F)
            bits >>= 6
        return block, mask


@dataclass(frozen=True)
class FingerprintReducer(Reducer):
    """Cuckoo-filter split: (bucket index, nonzero fingerprint).

    The fingerprint comes from the low bits (0 is remapped to 1, the
    empty marker), the bucket index from the high bits.
    """

    fp_mask: int
    bucket_mask: int
    dtypes = (np.int64, np.int64)

    def apply(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        fingerprints = hashes & _U64(self.fp_mask)
        fingerprints = np.where(fingerprints == 0, _U64(1), fingerprints)
        indexes = ((hashes >> _U64(32)) & _U64(self.bucket_mask)).astype(np.int64)
        return indexes, fingerprints.astype(np.int64)

    def apply_one(self, h: int) -> Tuple[int, int]:
        fingerprint = (h & self.fp_mask) or 1
        index = (h >> 32) & self.bucket_mask
        return index, fingerprint


@dataclass(frozen=True)
class IndexRankReducer(Reducer):
    """HyperLogLog split: (register index, 1-based rank of first 1 bit)."""

    precision: int
    dtypes = (np.int64, np.int64)

    def apply(self, hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        shift = _U64(64 - self.precision)
        indexes = (hashes >> shift).astype(np.int64)
        rest = hashes & ((_U64(1) << shift) - _U64(1))
        # Exact bit length: rest == 0 saturates at the maximum rank
        # 64 - p + 1, and a rank can never be 0 or negative.
        ranks = (64 - self.precision) - _bit_length_u64(rest) + 1
        return indexes, ranks

    def apply_one(self, h: int) -> Tuple[int, int]:
        index = h >> (64 - self.precision)
        rest = h & ((1 << (64 - self.precision)) - 1)
        rank = (64 - self.precision) - rest.bit_length() + 1
        return index, rank
