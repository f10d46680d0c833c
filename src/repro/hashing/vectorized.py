"""numpy-vectorized batch hashing, bit-exact with the scalar functions.

The paper's headline numbers are wall-clock throughput; the calibration
note for this reproduction warns that per-byte hashing gains vanish in
interpreted Python.  These kernels restore the paper's cost model: a
batch of same-length keys is hashed with a fixed number of numpy word
operations per 8/16 bytes of key, so a partial-key hash that reads two
words genuinely does ~1/8 the work of a full-key hash over 129-byte keys
— in wall-clock time, not just in a model.

Crucially the kernels are **bit-exact** ports of the scalar functions in
:mod:`repro.hashing.wyhash`, :mod:`repro.hashing.xxhash` and
:mod:`repro.hashing.crc`: ``wyhash_fixed(pack([k]), len(k))[0] ==
wyhash64(k)`` for every key, which the test suite verifies exhaustively.
That lets data structures mix scalar and batched operations freely (fill
with ``add_batch``, query with scalar ``contains``).

A kernel hashes the rows of a ``(n, width)`` uint8 matrix and reads each
little-endian word where it lies, through a strided view rather than a
copy.  Packing variable-length keys into such rows is the engine's job
(:mod:`repro.engine.plan`): full keys are grouped by exact length, so
cost still tracks each key's own length.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro._util import as_bytes_list
from repro.hashing import crc as _crc
from repro.hashing import wyhash as _wy
from repro.hashing import xxhash as _xx

_U64 = np.uint64
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _c(x: int) -> np.uint64:
    return np.uint64(x & 0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# 128-bit multiply in uint64 limbs
# ---------------------------------------------------------------------------


def mul128(a: np.ndarray, b) -> Tuple[np.ndarray, np.ndarray]:
    """(low, high) 64-bit halves of the element-wise product ``a * b``.

    numpy has no 128-bit integers.  The low half is the wrapping uint64
    product; the high half is assembled from four 32×32→64 partial
    products with explicit carry propagation (Hacker's Delight
    ``mulhu``), updated in place.  ``a`` is an array and ``b``
    broadcasts to it; neither is written.
    """
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64)
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    # Neither sum below can overflow: (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64.
    carry = a_lo * b_lo
    carry >>= _SHIFT32
    carry += a_hi * b_lo
    mid = np.multiply(a_lo, b_hi, out=a_lo)
    mid += carry & _MASK32
    high = np.multiply(a_hi, b_hi, out=a_hi)
    carry >>= _SHIFT32
    high += carry
    mid >>= _SHIFT32
    high += mid
    return a * b, high


def mum_vec(a: np.ndarray, b) -> np.ndarray:
    """Vectorized wyhash ``mum``: low XOR high of the 128-bit product."""
    low, high = mul128(a, b)
    low ^= high
    return low


# ---------------------------------------------------------------------------
# Word reads
# ---------------------------------------------------------------------------


_LE_U32 = np.dtype("<u4")
_LE_U64 = np.dtype("<u8")


def _column(matrix: np.ndarray, offset: int, dtype: np.dtype) -> np.ndarray:
    """Little-endian ``dtype`` word at byte ``offset`` of every row.

    A strided view into ``matrix`` when its rows are byte-contiguous, as
    every packed matrix is; callers must not write to it.
    """
    field = matrix[:, offset:offset + dtype.itemsize]
    try:
        return field.view(dtype)[:, 0]
    except ValueError:  # rows not byte-contiguous (or numpy < 1.23)
        return np.ascontiguousarray(field).view(dtype)[:, 0]


def _read_u32(matrix: np.ndarray, offset: int) -> np.ndarray:
    """Little-endian u32 column at byte ``offset``, widened to u64."""
    return _column(matrix, offset, _LE_U32).astype(_U64)


def _read_u64(matrix: np.ndarray, offset: int) -> np.ndarray:
    """Little-endian u64 column at byte ``offset`` (a view; see
    :func:`_column`)."""
    return _column(matrix, offset, _LE_U64)


# ---------------------------------------------------------------------------
# wyhash, fixed length
# ---------------------------------------------------------------------------

_WS = tuple(_c(s) for s in _wy._SECRET)


def wyhash_fixed(matrix: np.ndarray, length: int, seed: int = 0) -> np.ndarray:
    """Vectorized wyhash over same-length rows; bit-exact with
    :func:`repro.hashing.wyhash.wyhash64`.
    """
    n = matrix.shape[0]
    from repro._util import mum as _scalar_mum

    seed0 = _c((seed & 0xFFFFFFFFFFFFFFFF)
               ^ _scalar_mum((seed ^ _wy._SECRET[0]) & 0xFFFFFFFFFFFFFFFF,
                             _wy._SECRET[1]))
    seed_arr = seed0  # becomes an array of n once a round mixes rows in

    if length <= 16:
        if length >= 4:
            a = (_read_u32(matrix, 0) << _U64(32)) | _read_u32(
                matrix, (length >> 3) << 2
            )
            b = (_read_u32(matrix, length - 4) << _U64(32)) | _read_u32(
                matrix, length - 4 - ((length >> 3) << 2)
            )
        elif length > 0:
            a = (
                (matrix[:, 0].astype(_U64) << _U64(16))
                | (matrix[:, length >> 1].astype(_U64) << _U64(8))
                | matrix[:, length - 1].astype(_U64)
            )
            b = np.zeros(n, dtype=_U64)
        else:
            a = np.zeros(n, dtype=_U64)
            b = np.zeros(n, dtype=_U64)
    else:
        i = length
        p = 0
        if i > 48:
            see1 = see2 = seed_arr
            while i > 48:
                seed_arr = mum_vec(_read_u64(matrix, p) ^ _WS[1],
                                   _read_u64(matrix, p + 8) ^ seed_arr)
                see1 = mum_vec(_read_u64(matrix, p + 16) ^ _WS[2],
                               _read_u64(matrix, p + 24) ^ see1)
                see2 = mum_vec(_read_u64(matrix, p + 32) ^ _WS[3],
                               _read_u64(matrix, p + 40) ^ see2)
                p += 48
                i -= 48
            seed_arr = seed_arr ^ see1 ^ see2
        while i > 16:
            seed_arr = mum_vec(_read_u64(matrix, p) ^ _WS[1],
                               _read_u64(matrix, p + 8) ^ seed_arr)
            i -= 16
            p += 16
        a = _read_u64(matrix, p + i - 16)
        b = _read_u64(matrix, p + i - 8)

    low, high = mul128(a ^ _WS[1], b ^ seed_arr)
    low ^= _WS[0] ^ _c(length)
    high ^= _WS[1]
    return mum_vec(low, high)


# ---------------------------------------------------------------------------
# xxh3 (library variant), fixed length
# ---------------------------------------------------------------------------

_XS = tuple(_c(s) for s in _xx._XXH3_SECRET)
_P64_1 = _c(_xx._PRIME64_1)
_P64_2 = _c(_xx._PRIME64_2)
_P64_3 = _c(_xx._PRIME64_3)


def _avalanche_vec(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> _U64(33))
    h = h * _P64_2
    h = h ^ (h >> _U64(29))
    h = h * _P64_3
    h = h ^ (h >> _U64(32))
    return h


def xxh3_fixed(matrix: np.ndarray, length: int, seed: int = 0) -> np.ndarray:
    """Vectorized library-xxh3 over same-length rows; bit-exact with
    :func:`repro.hashing.xxhash.xxh3_64`.
    """
    n = matrix.shape[0]
    seed64 = _c(seed)

    if length == 0:
        value = _avalanche_vec(np.full(n, seed64 ^ _XS[0] ^ _XS[1], dtype=_U64))
        return value
    if length <= 8:
        if length >= 4:
            word = (_read_u32(matrix, 0) << _U64(32)) | _read_u32(matrix, length - 4)
        else:
            word = (
                (matrix[:, 0].astype(_U64) << _U64(16))
                | (matrix[:, length >> 1].astype(_U64) << _U64(8))
                | matrix[:, length - 1].astype(_U64)
            )
        return _avalanche_vec(
            mum_vec(word ^ _XS[0] ^ seed64,
                    np.full(n, _c(_xx._XXH3_SECRET[1] + length), dtype=_U64))
        )
    if length <= 16:
        lo = _read_u64(matrix, 0)
        hi = _read_u64(matrix, length - 8)
        return _avalanche_vec(
            mum_vec(lo ^ _XS[0] ^ seed64, hi ^ _XS[1]) ^ _c(length * _xx._PRIME64_1)
        )

    acc = np.full(n, _c(length * _xx._PRIME64_1) ^ seed64, dtype=_U64)
    offset = 0
    i = 0
    while offset + 16 <= length:
        lo = _read_u64(matrix, offset)
        hi = _read_u64(matrix, offset + 8)
        acc = acc + mum_vec(lo ^ _XS[i & 7], hi ^ _XS[(i + 1) & 7])
        offset += 16
        i += 2
    if offset < length:
        lo = _read_u64(matrix, length - 16)
        hi = _read_u64(matrix, length - 8)
        acc = acc ^ mum_vec(lo ^ _XS[6], hi ^ _XS[7])
    return _avalanche_vec(acc)


# ---------------------------------------------------------------------------
# CRC32 widened to 64 bits, fixed length
# ---------------------------------------------------------------------------

_CRC_TABLE = np.array(_crc._TABLE, dtype=_U64)
_FM1 = _c(0xFF51AFD7ED558CCD)
_FM2 = _c(0xC4CEB9FE1A85EC53)


def crc32_fixed(matrix: np.ndarray, length: int, seed: int = 0) -> np.ndarray:
    """Vectorized crc32_hash64 over same-length rows; bit-exact with
    :func:`repro.hashing.crc.crc32_hash64`.
    """
    n = matrix.shape[0]
    crc = np.full(n, ((seed & 0xFFFFFFFF) ^ 0xFFFFFFFF), dtype=_U64)
    for col in range(length):
        crc = (crc >> _U64(8)) ^ _CRC_TABLE[
            ((crc ^ matrix[:, col].astype(_U64)) & _U64(0xFF)).astype(np.int64)
        ]
    crc = crc ^ _U64(0xFFFFFFFF)

    h = crc | _c(length << 32)
    h = h ^ _U64((seed & 0xFFFFFFFFFFFFFFFF) >> 32)
    h = h ^ (h >> _U64(33))
    h = h * _FM1
    h = h ^ (h >> _U64(33))
    h = h * _FM2
    h = h ^ (h >> _U64(33))
    return h


# ---------------------------------------------------------------------------
# Kernel registry
# ---------------------------------------------------------------------------

FixedKernel = Callable[[np.ndarray, int, int], np.ndarray]

BATCH_KERNELS: Dict[str, FixedKernel] = {
    "wyhash": wyhash_fixed,
    "xxh3": xxh3_fixed,
    "crc32": crc32_fixed,
}


def has_batch_kernel(name: str) -> bool:
    """Whether a vectorized kernel exists for a registered hash."""
    return name in BATCH_KERNELS


def words_per_key(
    keys: Sequence[bytes], positions: Optional[Sequence[int]] = None
) -> float:
    """Average 8-byte words a hash over ``keys`` must read.

    The machine-independent cost proxy reported next to wall-clock
    numbers: full-key hashing reads ``ceil(len/8)`` words, partial-key
    hashing reads ``len(positions)`` words.
    """
    if positions is not None:
        return float(len(positions))
    keys = as_bytes_list(keys)
    if not keys:
        return 0.0
    total = sum((len(k) + 7) // 8 for k in keys)
    return total / len(keys)


# ---------------------------------------------------------------------------
# XXH64, fixed length
# ---------------------------------------------------------------------------

_XP1 = _c(0x9E3779B185EBCA87)
_XP2 = _c(0xC2B2AE3D27D4EB4F)
_XP3 = _c(0x165667B19E3779F9)
_XP4 = _c(0x85EBCA77C2B2AE63)
_XP5 = _c(0x27D4EB2F165667C5)


def _rotl_vec(x: np.ndarray, r: int) -> np.ndarray:
    return (x << _U64(r)) | (x >> _U64(64 - r))


def _xxh64_round_vec(acc: np.ndarray, lane: np.ndarray) -> np.ndarray:
    acc = acc + lane * _XP2
    acc = _rotl_vec(acc, 31)
    return acc * _XP1


def _xxh64_avalanche_vec(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> _U64(33))
    h = h * _XP2
    h = h ^ (h >> _U64(29))
    h = h * _XP3
    h = h ^ (h >> _U64(32))
    return h


def xxh64_fixed(matrix: np.ndarray, length: int, seed: int = 0) -> np.ndarray:
    """Vectorized XXH64 over same-length rows; bit-exact with
    :func:`repro.hashing.xxhash.xxh64`.
    """
    n = matrix.shape[0]
    seed64 = _c(seed)
    offset = 0

    if length >= 32:
        v1 = np.full(n, _c(seed + _xx._PRIME64_1 + _xx._PRIME64_2), dtype=_U64)
        v2 = np.full(n, _c(seed + _xx._PRIME64_2), dtype=_U64)
        v3 = np.full(n, seed64, dtype=_U64)
        v4 = np.full(n, _c(seed - _xx._PRIME64_1), dtype=_U64)
        while offset + 32 <= length:
            v1 = _xxh64_round_vec(v1, _read_u64(matrix, offset))
            v2 = _xxh64_round_vec(v2, _read_u64(matrix, offset + 8))
            v3 = _xxh64_round_vec(v3, _read_u64(matrix, offset + 16))
            v4 = _xxh64_round_vec(v4, _read_u64(matrix, offset + 24))
            offset += 32
        h64 = (_rotl_vec(v1, 1) + _rotl_vec(v2, 7)
               + _rotl_vec(v3, 12) + _rotl_vec(v4, 18))
        for v in (v1, v2, v3, v4):
            h64 = h64 ^ _xxh64_round_vec(np.zeros(n, dtype=_U64), v)
            h64 = h64 * _XP1 + _XP4
    else:
        h64 = np.full(n, _c(seed + _xx._PRIME64_5), dtype=_U64)

    h64 = h64 + _c(length)

    while offset + 8 <= length:
        h64 = h64 ^ _xxh64_round_vec(np.zeros(n, dtype=_U64),
                                     _read_u64(matrix, offset))
        h64 = _rotl_vec(h64, 27) * _XP1 + _XP4
        offset += 8
    if offset + 4 <= length:
        h64 = h64 ^ (_read_u32(matrix, offset) * _XP1)
        h64 = _rotl_vec(h64, 23) * _XP2 + _XP3
        offset += 4
    while offset < length:
        h64 = h64 ^ (matrix[:, offset].astype(_U64) * _XP5)
        h64 = _rotl_vec(h64, 11) * _XP1
        offset += 1

    return _xxh64_avalanche_vec(h64)


# ---------------------------------------------------------------------------
# Murmur3 x64 (low 64 bits), fixed length
# ---------------------------------------------------------------------------

_MC1 = _c(0x87C37B91114253D5)
_MC2 = _c(0x4CF5AD432745937F)


def _fmix64_vec(k: np.ndarray) -> np.ndarray:
    k = k ^ (k >> _U64(33))
    k = k * _FM1
    k = k ^ (k >> _U64(33))
    k = k * _FM2
    k = k ^ (k >> _U64(33))
    return k


def murmur3_fixed(matrix: np.ndarray, length: int, seed: int = 0) -> np.ndarray:
    """Vectorized Murmur3 x64-128 (low 64 bits) over same-length rows;
    bit-exact with :func:`repro.hashing.murmur.murmur3_64`.
    """
    n = matrix.shape[0]
    h1 = np.full(n, _c(seed), dtype=_U64)
    h2 = np.full(n, _c(seed), dtype=_U64)

    nblocks = length // 16
    for block in range(nblocks):
        k1 = _read_u64(matrix, block * 16)
        k2 = _read_u64(matrix, block * 16 + 8)

        k1 = _rotl_vec(k1 * _MC1, 31) * _MC2
        h1 = h1 ^ k1
        h1 = _rotl_vec(h1, 27) + h2
        h1 = h1 * _U64(5) + _c(0x52DCE729)

        k2 = _rotl_vec(k2 * _MC2, 33) * _MC1
        h2 = h2 ^ k2
        h2 = _rotl_vec(h2, 31) + h1
        h2 = h2 * _U64(5) + _c(0x38495AB5)

    tail_start = nblocks * 16
    tail_len = length - tail_start
    if tail_len >= 9:
        k2 = np.zeros(n, dtype=_U64)
        for i in range(tail_len - 1, 7, -1):
            k2 = (k2 << _U64(8)) | matrix[:, tail_start + i].astype(_U64)
        k2 = _rotl_vec(k2 * _MC2, 33) * _MC1
        h2 = h2 ^ k2
    if tail_len > 0:
        k1 = np.zeros(n, dtype=_U64)
        for i in range(min(tail_len, 8) - 1, -1, -1):
            k1 = (k1 << _U64(8)) | matrix[:, tail_start + i].astype(_U64)
        k1 = _rotl_vec(k1 * _MC1, 31) * _MC2
        h1 = h1 ^ k1

    h1 = h1 ^ _c(length)
    h2 = h2 ^ _c(length)
    h1 = h1 + h2
    h2 = h2 + h1
    h1 = _fmix64_vec(h1)
    h2 = _fmix64_vec(h2)
    h1 = h1 + h2
    return h1


BATCH_KERNELS["xxh64"] = xxh64_fixed
BATCH_KERNELS["murmur3"] = murmur3_fixed
