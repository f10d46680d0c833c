"""Low-level helpers shared across the library.

Everything here is about doing fixed-width integer arithmetic correctly in
Python (whose ints are arbitrary precision) and about validating the small
set of argument shapes the public API accepts.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Sequence, Union

import numpy as np

U32_MASK = 0xFFFFFFFF
U64_MASK = 0xFFFFFFFFFFFFFFFF

Key = Union[bytes, bytearray, memoryview, str]


def u32(x: int) -> int:
    """Truncate ``x`` to an unsigned 32-bit value."""
    return x & U32_MASK


def u64(x: int) -> int:
    """Truncate ``x`` to an unsigned 64-bit value."""
    return x & U64_MASK


def rotl32(x: int, r: int) -> int:
    """Rotate the 32-bit value ``x`` left by ``r`` bits."""
    x &= U32_MASK
    return ((x << r) | (x >> (32 - r))) & U32_MASK


def rotl64(x: int, r: int) -> int:
    """Rotate the 64-bit value ``x`` left by ``r`` bits."""
    x &= U64_MASK
    return ((x << r) | (x >> (64 - r))) & U64_MASK


def rotr64(x: int, r: int) -> int:
    """Rotate the 64-bit value ``x`` right by ``r`` bits."""
    x &= U64_MASK
    return ((x >> r) | (x << (64 - r))) & U64_MASK


def mum(a: int, b: int) -> int:
    """wyhash's 128-bit multiply-fold: hi XOR lo of the product ``a * b``."""
    product = (a & U64_MASK) * (b & U64_MASK)
    return (product >> 64) ^ (product & U64_MASK)


def read_u32_le(data: bytes, offset: int) -> int:
    """Read a little-endian unsigned 32-bit integer from ``data``."""
    return int.from_bytes(data[offset:offset + 4], "little")


def read_u64_le(data: bytes, offset: int) -> int:
    """Read a little-endian unsigned 64-bit integer from ``data``."""
    return int.from_bytes(data[offset:offset + 8], "little")


def as_bytes(key: Key) -> bytes:
    """Coerce a key to ``bytes``.

    ``str`` keys are encoded as UTF-8 so that the library can be used
    directly on text corpora; all other accepted types are zero-copy or
    near-zero-copy conversions.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytearray, memoryview)):
        return bytes(key)
    raise TypeError(f"keys must be bytes-like or str, got {type(key).__name__}")


def as_bytes_list(keys: Iterable[Key]) -> List[bytes]:
    """Coerce every key in ``keys`` to ``bytes`` (see :func:`as_bytes`);
    a list of bytes already is copied at C speed."""
    keys = list(keys)
    if set(map(type, keys)) <= _BYTES_ONLY:
        return keys
    return list(map(as_bytes, keys))


_BYTES_ONLY = {bytes}


# An ndarray column longer than this is turned into Python ints one
# chunk at a time, the engine's ``_PACK_CHUNK``: a 91,750-key insert
# then never holds 3.6 MB of ints at once.
_INT_CHUNK = 4096


def iter_ints(column: Sequence[int]) -> Iterable[int]:
    """A hash or id column ready to walk key by key, once: an ndarray
    as Python ints (one C pass per ``_INT_CHUNK`` rows), any other
    sequence as it is."""
    if not isinstance(column, np.ndarray):
        return column
    if len(column) <= _INT_CHUNK:
        return column.tolist()
    return chain.from_iterable(
        chunk.tolist() for chunk in chunked(column, _INT_CHUNK))


def require_positive(name: str, value: int) -> int:
    """Validate that an integer parameter is strictly positive."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Validate that a parameter lies strictly inside (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def next_power_of_two(n: int) -> int:
    """Smallest power of two that is >= ``n`` (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def chunked(seq: Sequence, size: int) -> Iterable[Sequence]:
    """Yield successive ``size``-length chunks of ``seq``."""
    require_positive("size", size)
    for start in range(0, len(seq), size):
        yield seq[start:start + size]
