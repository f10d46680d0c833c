"""The base of every engine-backed table, filter and sketch."""

from __future__ import annotations

from repro.core.hasher import EntropyLearnedHasher
from repro.engine.engine import HashEngine


class EngineBacked:
    """A structure that hashes through ``self.engine``.

    ``hasher`` is read-only: swapping it under stored entries would
    orphan them, so a structure changes its hash only through a method
    that rehashes what it stores (``rebuild_with_hasher``, a growth
    re-plan, ``relearn``).
    """

    engine: HashEngine

    @property
    def hasher(self) -> EntropyLearnedHasher:
        """The engine's live hasher."""
        return self.engine.hasher
