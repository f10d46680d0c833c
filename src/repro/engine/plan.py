"""Compiled hash plans and the one packer that feeds them.

A :class:`HashPlan` freezes everything about one batched hashing
configuration that does not depend on the keys themselves:

* which bit-exact numpy kernel to call (wyhash / xxh3 / crc32 / ...);
* for partial-key plans, the learned word positions, packed into the
  subkey layout (4-byte little-endian length prefix followed by the
  selected words, exactly
  :meth:`repro.core.partial_key.PartialKeyFunction.subkey`);
* for full-key plans, the fixed row width of one key-length group.

Packing reads each key's bytes once.  :func:`join_keys` joins a batch
into one ``bytes`` object plus an offset and a length per key; every
plan's rows are then row gathers from a zero-copy strided window over
that join: one gather per learned position for a subkey plan, one for
a full-key group.  Subkey rows are padded to a multiple of 8 bytes, so
the length prefix is one ``<u4`` store and the kernels read aligned
words in place.  No per-key Python runs after the join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro._util import Key, as_bytes_list
from repro.core.partial_key import PartialKeyFunction
from repro.hashing.vectorized import BATCH_KERNELS, FixedKernel

_LENGTH_PREFIX = 4  # bytes of little-endian key length, Algorithm 2 line 6


def join_keys(keys: Sequence[Key]) -> Tuple[bytes, np.ndarray, np.ndarray]:
    """``(blob, starts, lengths)``: a non-empty batch's bytes, joined.

    Key ``i`` is ``blob[starts[i]:starts[i] + lengths[i]]`` (both
    ``int64``).  ``bytes``, ``bytearray`` and byte ``memoryview`` keys
    join as they are.  When the join fails (a ``str`` key) or disagrees
    with the lengths (a ``memoryview`` whose items are wider than a
    byte), the batch is normalized by ``as_bytes_list`` once and joined
    again, so every key hashes as :func:`repro._util.as_bytes` gives it.

    >>> blob, starts, lengths = join_keys([b"ab", "cde", bytearray(b"")])
    >>> blob, starts.tolist(), lengths.tolist()
    (b'abcde', [0, 2, 5], [2, 3, 0])
    """
    try:
        lengths = np.fromiter(map(len, keys), np.int64, len(keys))
        blob = b"".join(keys)
    except TypeError:  # a str key
        return join_keys(as_bytes_list(keys))
    ends = lengths.cumsum()
    if ends[-1] != len(blob):  # a memoryview of items wider than a byte
        return join_keys(as_bytes_list(keys))
    return blob, ends - lengths, lengths


def _window(blob: bytes, width: int) -> np.ndarray:
    """Every ``width``-byte run of ``blob`` as a read-only matrix row.

    Row ``s`` is ``blob[s:s + width]``: a strided view, no copy, so
    ``_window(blob, w)[starts]`` gathers one row per key.
    """
    return np.ndarray((len(blob) - width + 1, width), np.uint8, blob, 0, (1, 1))


@dataclass(frozen=True)
class HashPlan:
    """One compiled configuration: kernel + layout, no key data.

    ``kind`` is ``"subkey"`` (partial-key gather, uniform subkey width)
    or ``"fixed"`` (full keys of one exact length).
    """

    kind: str
    kernel: FixedKernel
    width: int                       # bytes the kernel hashes per row
    cutoff: int = 0                  # last byte a subkey plan reads
    positions: Tuple[int, ...] = ()  # learned word offsets, in order
    word_size: int = 0

    def rows(
        self,
        blob: bytes,
        starts: np.ndarray,
        lengths: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The kernel's input matrix for the keys of ``blob`` at ``starts``.

        Every key must reach ``cutoff`` bytes (subkey plans, which also
        need the keys' ``lengths`` for the prefix) or be exactly
        ``width`` bytes long (fixed plans); the engine routes the rest
        elsewhere.
        """
        if self.kind == "fixed":
            return _window(blob, self.width)[starts]
        w = self.word_size
        rows = np.zeros((len(starts), -(-self.width // 8) * 8), np.uint8)
        rows.view("<u4")[:, 0] = lengths
        words = _window(blob, w)
        for j, pos in enumerate(self.positions):
            col = _LENGTH_PREFIX + j * w
            rows[:, col:col + w] = words[starts + pos]
        return rows

    def run(self, matrix: np.ndarray, seed: int) -> np.ndarray:
        """Hash a prepared ``(n, >= width)`` matrix."""
        return self.kernel(matrix, self.width, seed)


def _kernel(base_name: str) -> FixedKernel:
    try:
        return BATCH_KERNELS[base_name]
    except KeyError:
        raise KeyError(
            f"no batch kernel for {base_name!r}; "
            f"available: {sorted(BATCH_KERNELS)}"
        ) from None


def compile_subkey_plan(
    partial_key: PartialKeyFunction, base_name: str
) -> HashPlan:
    """Plan for keys long enough for the partial-key fast path.

    The produced matrix layout is bit-exact with
    ``PartialKeyFunction.subkey``: length prefix, then each selected
    word in selection order.

    >>> plan = compile_subkey_plan(PartialKeyFunction((8, 0), 2), "wyhash")
    >>> plan.width, plan.cutoff
    (8, 10)
    """
    return HashPlan(
        kind="subkey",
        kernel=_kernel(base_name),
        width=_LENGTH_PREFIX + partial_key.bytes_read,
        cutoff=partial_key.last_byte_used,
        positions=tuple(partial_key.positions),
        word_size=partial_key.word_size,
    )


def compile_fixed_plan(length: int, base_name: str) -> HashPlan:
    """Plan for full-key hashing of one exact key length."""
    return HashPlan(kind="fixed", kernel=_kernel(base_name), width=length)
