"""wyhash-style 64-bit hashing.

wyhash is one of the two default hash functions of Google's SwissTable and
is the base hash the paper's hash-table experiments modify.  This is a
pure-Python port of the *final version 4* algorithm structure: 48-byte
unrolled bulk loop with three lanes, a 16-byte tail loop, a short-input
path for <= 16 bytes, and the ``mum`` 128-bit multiply-fold mixer.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Callable

from repro._util import U64_MASK, mum, read_u64_le
from repro.hashing.base import register_hash

_SECRET = (
    0xA0761D6478BD642F,
    0xE7037ED1A0B428DB,
    0x8EBC6AF09C88C6E3,
    0x589965CC75374CC3,
)


def _wymix(a: int, b: int) -> int:
    return mum(a, b)


def _wyr3(data: bytes, length: int) -> int:
    """Read 1-3 bytes the way wyhash does for very short inputs."""
    return (data[0] << 16) | (data[length >> 1] << 8) | data[length - 1]


_read_u32 = struct.Struct("<I").unpack_from


def _mix_seed(seed: int) -> int:
    """The seed as the hash consumes it: depends on nothing else."""
    seed &= U64_MASK
    return seed ^ _wymix(seed ^ _SECRET[0], _SECRET[1])


def wyhash64(data: bytes, seed: int = 0) -> int:
    """Hash ``data`` to a 64-bit value with the wyhash algorithm.

    >>> wyhash64(b"hello") == wyhash64(b"hello")
    True
    >>> wyhash64(b"hello") != wyhash64(b"hellp")
    True
    """
    return _wyhash_mixed(_mix_seed(seed), data)


def wyhash64_seeded(seed: int) -> Callable[[bytes], int]:
    """``wyhash64(·, seed)`` with the seed mix computed once.

    >>> wyhash64_seeded(7)(b"hello") == wyhash64(b"hello", 7)
    True
    """
    return partial(_wyhash_mixed, _mix_seed(seed))


def _wyhash_mixed(seed: int, data: bytes) -> int:
    """wyhash of ``data`` under an already mixed ``seed``."""
    length = len(data)

    if length <= 16:
        if length >= 4:
            step = (length >> 3) << 2
            a = (_read_u32(data)[0] << 32) | _read_u32(data, step)[0]
            b = (_read_u32(data, length - 4)[0] << 32) | _read_u32(
                data, length - 4 - step
            )[0]
        elif length > 0:
            a = _wyr3(data, length)
            b = 0
        else:
            a = b = 0
    else:
        i = length
        p = 0
        if i > 48:
            see1 = seed
            see2 = seed
            while i > 48:
                seed = _wymix(read_u64_le(data, p) ^ _SECRET[1],
                              read_u64_le(data, p + 8) ^ seed)
                see1 = _wymix(read_u64_le(data, p + 16) ^ _SECRET[2],
                              read_u64_le(data, p + 24) ^ see1)
                see2 = _wymix(read_u64_le(data, p + 32) ^ _SECRET[3],
                              read_u64_le(data, p + 40) ^ see2)
                p += 48
                i -= 48
            seed ^= see1 ^ see2
        while i > 16:
            seed = _wymix(read_u64_le(data, p) ^ _SECRET[1],
                          read_u64_le(data, p + 8) ^ seed)
            i -= 16
            p += 16
        a = read_u64_le(data, p + i - 16)
        b = read_u64_le(data, p + i - 8)

    # Two multiply-folds, inlined: a, b, seed and the secrets are
    # already 64-bit, so neither product needs its operands masked.
    product = (a ^ _SECRET[1]) * (b ^ seed)
    product = ((product & U64_MASK) ^ _SECRET[0] ^ length) * (
        (product >> 64) ^ _SECRET[1]
    )
    return (product >> 64) ^ (product & U64_MASK)


wyhash64.seeded = wyhash64_seeded
register_hash("wyhash", wyhash64)
