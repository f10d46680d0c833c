"""Compiled hash plans: the per-(hasher, key-length-group) fast path.

A :class:`HashPlan` freezes everything about one batched hashing
configuration that does not depend on the keys themselves:

* which bit-exact numpy kernel to call (wyhash / xxh3 / crc32 / ...);
* for partial-key plans, the **gather index** — a precomputed column
  permutation that scatters the learned word positions of a packed key
  matrix into the subkey layout (4-byte little-endian length prefix
  followed by the selected words, exactly
  :meth:`repro.core.partial_key.PartialKeyFunction.subkey`);
* for full-key plans, the fixed row width of one key-length group.

Compiling once and caching means the per-batch work is a single C-level
pack, one fancy-index gather, and one kernel call — no per-key Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.partial_key import PartialKeyFunction
from repro.hashing.vectorized import BATCH_KERNELS, FixedKernel

_LENGTH_PREFIX = 4  # bytes of little-endian key length, Algorithm 2 line 6


def build_gather_index(
    positions: Sequence[int], word_size: int
) -> np.ndarray:
    """Column indices of the selected words in a packed key matrix.

    ``gather[j]`` is the source column for subkey column ``4 + j``; the
    subkey's first four columns are the length prefix and are filled
    separately.  Works for every supported word size (1, 2, 4, 8).

    >>> build_gather_index((8, 0), 2).tolist()
    [8, 9, 0, 1]
    """
    if word_size not in (1, 2, 4, 8):
        raise ValueError(f"word_size must be 1, 2, 4, or 8, got {word_size}")
    index = np.empty(len(positions) * word_size, dtype=np.intp)
    for j, pos in enumerate(positions):
        index[j * word_size:(j + 1) * word_size] = np.arange(
            pos, pos + word_size, dtype=np.intp
        )
    return index


@dataclass(frozen=True)
class HashPlan:
    """One compiled configuration: kernel + layout, no key data.

    ``kind`` is ``"subkey"`` (partial-key gather, uniform subkey width)
    or ``"fixed"`` (full keys of one exact length).
    """

    kind: str
    kernel: FixedKernel
    width: int                       # matrix width handed to the kernel
    cutoff: int = 0                  # last byte a subkey plan reads
    gather: Optional[np.ndarray] = None

    def run(self, matrix: np.ndarray, seed: int) -> np.ndarray:
        """Hash a prepared ``(n, width)`` matrix."""
        return self.kernel(matrix, self.width, seed)


def compile_subkey_plan(
    partial_key: PartialKeyFunction, base_name: str
) -> HashPlan:
    """Plan for keys long enough for the partial-key fast path.

    The produced matrix layout is bit-exact with
    ``PartialKeyFunction.subkey``: length prefix, then each selected
    word in selection order.
    """
    kernel = BATCH_KERNELS[base_name]
    gather = build_gather_index(partial_key.positions, partial_key.word_size)
    return HashPlan(
        kind="subkey",
        kernel=kernel,
        width=_LENGTH_PREFIX + len(gather),
        cutoff=partial_key.last_byte_used,
        gather=gather,
    )


def compile_fixed_plan(length: int, base_name: str) -> HashPlan:
    """Plan for full-key hashing of one exact key length."""
    kernel = BATCH_KERNELS[base_name]
    return HashPlan(kind="fixed", kernel=kernel, width=length)


def pack_exact(keys: Sequence[bytes], width: int) -> np.ndarray:
    """Pack keys known to be at least ``width`` bytes into a matrix.

    One C-level ``S{width}`` array build truncates every key to the
    region the plan will read (embedded NUL bytes included), viewed as
    bytes: no per-key Python slice or join.
    """
    if not keys:
        return np.zeros((0, max(1, width)), dtype=np.uint8)
    if width == 0:
        return np.zeros((len(keys), 1), dtype=np.uint8)
    packed = np.array(keys, dtype=f"S{width}")
    return packed.view(np.uint8).reshape(len(keys), width)


def subkey_matrix(
    plan: HashPlan, keys: Sequence[bytes], lengths: Sequence[int]
) -> np.ndarray:
    """Materialize the subkey matrix for a batch on the fast path.

    All ``keys`` must reach ``plan.cutoff`` bytes (the caller routes
    shorter keys to full-key plans).  The gather is one vectorized fancy
    index over the packed matrix.
    """
    packed = pack_exact(keys, plan.cutoff)
    n = len(keys)
    out = np.empty((n, plan.width), dtype=np.uint8)
    out[:, :_LENGTH_PREFIX] = (
        np.asarray(lengths, dtype="<u4").view(np.uint8).reshape(n, _LENGTH_PREFIX)
    )
    if plan.gather is not None and len(plan.gather):
        out[:, _LENGTH_PREFIX:] = packed[:, plan.gather]
    return out
