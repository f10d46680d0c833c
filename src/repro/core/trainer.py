"""End-to-end training orchestration.

Glues the pipeline together: split a sample of past data into train and
validation halves, run the greedy selector, and expose a single object —
:class:`EntropyModel` — that later hands out an
:class:`~repro.core.hasher.EntropyLearnedHasher` with just enough entropy
for whatever structure is being built (paper Figure 2's three steps).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro._util import Key, as_bytes_list
from repro.core.entropy import entropy_confidence_lower_bound
from repro.core.greedy import GreedyResult, choose_bytes
from repro.core.hasher import EntropyLearnedHasher
from repro.core.partial_key import PartialKeyFunction
from repro.core.sizing import (
    entropy_for_bloom_filter,
    entropy_for_chaining_table,
    entropy_for_partitioning,
    entropy_for_probing_table,
)
from repro.hashing.base import HashFunction


@dataclass
class EntropyModel:
    """A trained description of where a data source's randomness lives.

    Wraps a :class:`GreedyResult` and answers "give me a hasher with at
    least ``H2`` bits" — returning a partial-key hasher when the frontier
    reaches that entropy and a full-key hasher otherwise (the Section 5
    robustness default).
    """

    result: GreedyResult
    base: Union[str, HashFunction] = "wyhash"
    confident: bool = True

    # ------------------------------------------------------------- selection

    def hasher_for_entropy(
        self, required: float, seed: int = 0
    ) -> EntropyLearnedHasher:
        """Cheapest hasher whose estimated entropy is >= ``required``."""
        num_words = self.result.min_words_for_entropy(required)
        if num_words is None:
            return EntropyLearnedHasher.full_key(self.base, seed=seed)
        return EntropyLearnedHasher(
            self.result.partial_key(num_words), base=self.base, seed=seed
        )

    def hasher_for_chaining_table(self, capacity: int, seed: int = 0):
        """Hasher for a separate-chaining table (``log2 n + 1`` bits)."""
        return self.hasher_for_entropy(entropy_for_chaining_table(capacity), seed)

    def hasher_for_probing_table(self, capacity: int, seed: int = 0):
        """Hasher for a linear-probing table (``log2 n + log2 5`` bits)."""
        return self.hasher_for_entropy(entropy_for_probing_table(capacity), seed)

    def hasher_for_bloom_filter(
        self, num_items: int, added_fpr: float = 0.01, seed: int = 0
    ):
        """Hasher for a Bloom filter (``log2 n + log2 1/ε`` bits)."""
        return self.hasher_for_entropy(
            entropy_for_bloom_filter(num_items, added_fpr), seed
        )

    def hasher_for_partitioning(
        self, num_items: int, num_partitions: int, mode: str = "relative", seed: int = 0
    ):
        """Hasher for partitioning (Section 5's two regimes)."""
        required = entropy_for_partitioning(num_items, num_partitions, mode=mode)
        return self.hasher_for_entropy(required, seed)

    # ------------------------------------------------------------ diagnostics

    def entropy_available(self) -> float:
        """Best entropy the learned frontier offers (may be ``inf``)."""
        if not self.result.entropies:
            return 0.0
        return max(self.result.entropies)

    def certified_entropy(self, num_words: int) -> float:
        """99%-confidence lower bound for a prefix of the selection."""
        estimate = self.result.entropy_at(num_words)
        return entropy_confidence_lower_bound(estimate, self.result.eval_size)

    def max_supported_items(self, num_words: int, slack_bits: float = 1.0) -> float:
        """Largest structure a prefix supports (Figure 5b's y-axis).

        A structure of ``n`` items needs about ``log2(n) + slack`` bits,
        so ``n ≈ 2^(H2 - slack)``.
        """
        entropy = self.result.entropy_at(num_words)
        if entropy == math.inf:
            return math.inf
        return 2.0 ** (entropy - slack_bits)

    def check_drift(
        self, sample: Sequence[Key], num_words: Optional[int] = None,
        tolerance: float = 4.0,
    ) -> bool:
        """Has the data distribution drifted below the learned entropy?

        Counts partial-key collisions in a fresh ``sample`` and compares
        them to the Lemma 1 expectation at the learned entropy; returns
        True (drifted: consider retraining / full-key fallback) when
        observed collisions exceed ``tolerance`` times the expectation
        plus a small absolute grace.  The offline analogue of the
        insert-time :class:`~repro.engine.CollisionMonitor`.
        """
        from repro.core.entropy import collision_count, expected_collisions

        keys = as_bytes_list(sample)
        if len(keys) < 2:
            raise ValueError("need at least 2 sample keys")
        if num_words is None:
            num_words = len(self.result.positions)
        if num_words == 0:
            return False  # full-key hashing cannot drift
        L = self.result.partial_key(num_words)
        observed = collision_count(L.subkey(k) for k in keys)
        expected = expected_collisions(
            len(keys), self.result.entropy_at(num_words)
        )
        return observed > tolerance * expected + 8.0

    @property
    def partial_key(self) -> PartialKeyFunction:
        """The full selection as a partial-key function."""
        return self.result.partial_key()


def split_sample(
    keys: Sequence[Key], train_fraction: float = 0.5, seed: int = 0
) -> tuple:
    """Shuffle and split a sample into (train, validation) lists.

    The paper's experiments split each dataset in half: one half chooses
    the bytes, the other gives an unbiased entropy estimate.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    keys = as_bytes_list(keys)
    if len(keys) < 4:
        raise ValueError("need at least 4 samples to split")
    rng = random.Random(seed)
    shuffled = keys[:]
    rng.shuffle(shuffled)
    cut = int(len(shuffled) * train_fraction)
    cut = min(max(cut, 2), len(shuffled) - 2)
    return shuffled[:cut], shuffled[cut:]


def train_model(
    sample: Sequence[Key],
    base: Union[str, HashFunction] = "wyhash",
    word_size: int = 8,
    fixed_dataset: bool = False,
    train_fraction: float = 0.5,
    max_words: Optional[int] = None,
    coverage: float = 0.9,
    stride: Optional[int] = None,
    force_words: int = 0,
    seed: int = 0,
) -> EntropyModel:
    """Train an :class:`EntropyModel` from a sample of data items.

    ``fixed_dataset=True`` means ``sample`` *is* the data the structure
    will hold (e.g. an immutable LSM run): entropy is measured on it
    directly.  Otherwise the sample is split and entropy comes from the
    held-out half, so it generalizes to unseen keys.

    >>> import random as _r
    >>> rng = _r.Random(0)
    >>> keys = [bytes([rng.randrange(256) for _ in range(16)]) for _ in range(200)]
    >>> model = train_model(keys, fixed_dataset=True)
    >>> model.entropy_available() > 0
    True
    """
    keys = as_bytes_list(sample)
    if fixed_dataset:
        result = choose_bytes(
            keys,
            None,
            word_size=word_size,
            max_words=max_words,
            coverage=coverage,
            stride=stride,
            force_words=force_words,
        )
    else:
        train, validation = split_sample(keys, train_fraction, seed=seed)
        result = choose_bytes(
            train,
            validation,
            word_size=word_size,
            max_words=max_words,
            coverage=coverage,
            stride=stride,
            force_words=force_words,
        )
    return EntropyModel(result=result, base=base)


def describe_frontier(model: EntropyModel) -> List[str]:
    """Human-readable frontier lines (used by the examples and benches)."""
    lines = []
    for i, (bytes_read, entropy) in enumerate(model.result.pareto_frontier()):
        entropy_text = "inf" if entropy == math.inf else f"{entropy:.1f}"
        supported = model.max_supported_items(i + 1)
        supported_text = "inf" if supported == math.inf else f"{supported:,.0f}"
        lines.append(
            f"{i + 1} word(s) / {bytes_read:3d} bytes -> "
            f"H2 ~= {entropy_text:>5} bits (supports ~{supported_text} items)"
        )
    return lines
