"""Sliding-window Rényi-2 (collision) entropy estimation.

The offline trainer measures H2 once, on a static sample.  A serving
shard instead sees an endless stream whose distribution can *drift*: a
new dominant URL host, a changed key-length mix.  This module keeps the
paper's collision-probability estimator alive over a sliding window of
the most recent subkeys, in O(1) amortized time per observation — the
streaming analogue of ``core.entropy.estimate_renyi_entropy``, in the
spirit of the sliding-window collision (second-moment) estimators from
the range Rényi entropy query literature (see PAPERS.md).

The trick is the same falling-power identity the greedy selector uses:
with ``z_s`` the multiplicity of subkey ``s`` in the window, the number
of colliding pairs is ``c = sum_s C(z_s, 2)``, and adding one occurrence
of ``s`` changes ``c`` by exactly ``z_s`` (its count *before* the add),
while evicting one changes it by ``-z_s`` (its count *after* the
remove).  So a deque + a counts dict + one integer maintain the exact
window collision count, and

    H2_hat = -log2( c / C(n, 2) )

is the plug-in Rényi-2 estimate over the current window of ``n``
subkeys.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict

from repro.metrics import Reported


class SlidingWindowEntropy(Reported):
    """Exact collision-pair tracking over the last ``window`` subkeys.

    >>> w = SlidingWindowEntropy(window=4)
    >>> for s in (b"a", b"b", b"c", b"d"):
    ...     w.add(s)
    >>> w.colliding_pairs
    0
    >>> w.add(b"a"); w.add(b"a")   # evicts b"a", b"b" -> window a,c,d,a...
    >>> w.colliding_pairs >= 1
    True
    """

    REPORTS = ("window", "fill", "observed", "colliding_pairs", "entropy")

    def __init__(self, window: int = 256):
        if window < 4:
            raise ValueError(f"window must be >= 4, got {window}")
        self.window = int(window)
        self._ring: Deque[bytes] = deque()
        self._counts: Dict[bytes, int] = {}
        self._pairs = 0
        self.observed = 0  # lifetime observations, never decremented

    # ---------------------------------------------------------------- stream

    def add(self, subkey: bytes) -> None:
        """Observe one subkey; evicts the oldest once the window is full."""
        self.observed += 1
        count = self._counts.get(subkey, 0)
        self._pairs += count
        self._counts[subkey] = count + 1
        self._ring.append(subkey)
        if len(self._ring) > self.window:
            old = self._ring.popleft()
            remaining = self._counts[old] - 1
            if remaining:
                self._counts[old] = remaining
            else:
                del self._counts[old]
            self._pairs -= remaining

    def reset(self) -> None:
        """Forget the window contents (e.g. after a plan swap)."""
        self._ring.clear()
        self._counts.clear()
        self._pairs = 0

    # ------------------------------------------------------------- estimates

    @property
    def fill(self) -> int:
        """Subkeys currently in the window."""
        return len(self._ring)

    @property
    def colliding_pairs(self) -> int:
        """Exact ``sum_s C(z_s, 2)`` over the window."""
        return self._pairs

    def entropy(self) -> float:
        """Plug-in Rényi-2 estimate ``-log2(c / C(n,2))`` for the window.

        With zero colliding pairs the plug-in estimate is infinite; we
        report the optimistic resolution limit ``log2(C(n,2))`` instead
        — the largest entropy a window of this size can certify, which
        keeps the detector's comparison arithmetic finite.
        """
        n = len(self._ring)
        if n < 2:
            return math.inf
        total_pairs = n * (n - 1) // 2
        if self._pairs <= 0:
            return math.log2(total_pairs)
        return -math.log2(self._pairs / total_pairs)
