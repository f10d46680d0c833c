"""Hash-output post-processing tricks the paper's filters rely on.

* :func:`split_hash64` — "less hashing, same performance" (Kirsch &
  Mitzenmacher [37]): compute one 64-bit hash, split it into two 32-bit
  values ``h1, h2``, and derive the i-th probe as ``h1 + i * h2``.
* :func:`fast_range` — Lemire/Ross fast modulo reduction by
  multiplication [68]: ``(x * m) >> 64`` maps a uniform 64-bit value to
  ``[0, m)`` without a division.

Both are defined next to the engine reducers that apply them
(:mod:`repro.engine.reducers`) and re-exported here.
"""

from __future__ import annotations

from typing import List

from repro.engine.reducers import fast_range, fast_range_array, split_hash64


def double_hash_probes(h: int, k: int, m: int) -> List[int]:
    """The k probe positions in ``[0, m)`` from one 64-bit hash.

    Implements the paper's Bloom-filter hashing scheme: compute one hash,
    split it, then ``g_i = h1 + i * h2 (mod m)``.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    h1, h2 = split_hash64(h)
    return [(h1 + i * h2) % m for i in range(k)]


__all__ = ["double_hash_probes", "fast_range", "fast_range_array", "split_hash64"]
