"""What the filters share: ``in`` and the measured FPR for all four,
and the set-bit diagnostics of the two bit-array Bloom filters."""

from __future__ import annotations

from typing import Iterable, Optional

from repro._util import Key, as_bytes_list
from repro.engine.backed import EngineBacked


class MembershipFilter(EngineBacked):
    """``in`` and the measured FPR over a filter's own ``contains`` and
    ``contains_batch``."""

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def measured_fpr(self, negatives: Iterable[Key]) -> float:
        """Empirical FPR over keys known not to be stored; the keys are
        read first, so an empty iterator raises as an empty list does."""
        negatives = as_bytes_list(negatives)
        if not negatives:
            raise ValueError("need at least one negative key")
        return float(self.contains_batch(negatives).mean())


class BitArrayFilter(MembershipFilter):
    """A Bloom filter over ``num_bits`` bits, ``_bits_per_key`` of them
    set by each added key (``num_hashes`` or ``num_probe_bits``)."""

    num_bits: int
    _num_added: int
    _bits_per_key: int

    @property
    def fill_fraction(self) -> float:
        """Fraction of bits set."""
        return self.num_set_bits / self.num_bits

    def expected_set_bits(self, distinct_items: Optional[int] = None) -> float:
        """Expected set bits for ``distinct_items`` stored keys (default:
        the keys added).

        ``m (1 - (1 - 1/m)^(k n))`` — the concentration target Section 5
        validates against at construction time.
        """
        n = self._num_added if distinct_items is None else distinct_items
        return self.num_bits * (
            1.0 - (1.0 - 1.0 / self.num_bits) ** (self._bits_per_key * n)
        )

    def validate_randomness(self, tolerance: float = 0.05) -> bool:
        """Section 5 construction check: set bits near their expectation.

        The number of set bits concentrates sharply [14]; a large deficit
        means the partial keys collided far more than the learned entropy
        predicts, and the filter should be rebuilt with full-key hashing.
        """
        if self._num_added == 0:
            return True
        return self.num_set_bits >= (1.0 - tolerance) * self.expected_set_bits()
