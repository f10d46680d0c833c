"""Common interface and registry for full-key hash functions.

Every base hash in the library maps a byte string (plus a 64-bit seed) to
a 64-bit output.  Entropy-Learned Hashing composes one of these with a
partial-key function ``L`` (see :mod:`repro.core.partial_key`); this module
only concerns the ``H`` half of ``H' = H ∘ L``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro._util import Key, as_bytes

HashCallable = Callable[[bytes, int], int]


class HashFunction:
    """A named 64-bit hash function over byte strings.

    Instances are lightweight wrappers pairing a scalar implementation
    with a fixed seed, so a configured hash can be passed around as a
    single object.  Calling the instance hashes a key:

    >>> from repro.hashing import get_hash
    >>> h = get_hash("wyhash")
    >>> isinstance(h(b"hello world"), int)
    True

    ``hash_bytes`` is the seeded one-argument form over raw ``bytes``
    (the hot path): built once per seed, so a base whose setup depends
    only on the seed (wyhash's seed mix) pays it once, not per key.
    """

    def __init__(self, name: str, func: HashCallable, seed: int = 0):
        self.name = name
        self._func = func
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.hash_bytes = _seeded_form(func, self.seed)

    def __call__(self, key: Key) -> int:
        """Hash ``key`` to a 64-bit integer."""
        return self.hash_bytes(as_bytes(key))

    def with_seed(self, seed: int) -> "HashFunction":
        """Return a new instance of the same function with another seed."""
        return HashFunction(self.name, self._func, seed)

    def __getstate__(self) -> Dict[str, object]:
        # The seeded form may be a closure: rebuilt, never pickled.
        state = self.__dict__.copy()
        del state["hash_bytes"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.hash_bytes = _seeded_form(self._func, self.seed)

    def __repr__(self) -> str:
        return f"HashFunction(name={self.name!r}, seed={self.seed:#x})"


_REGISTRY: Dict[str, HashCallable] = {}


def register_hash(name: str, func: HashCallable) -> None:
    """Register a scalar hash implementation under ``name``.

    Raises ``ValueError`` on duplicate registration with a different
    implementation, so accidental shadowing is caught early.
    """
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not func:
        raise ValueError(f"hash function {name!r} is already registered")
    _REGISTRY[name] = func


def _seeded_form(func: HashCallable, seed: int) -> Callable[[bytes], int]:
    """``func(·, seed)`` as a one-argument function.  A base whose setup
    depends only on the seed exposes ``func.seeded(seed)``, which does
    that setup once (wyhash's seed mix); any other base is wrapped."""
    seeded = getattr(func, "seeded", None)
    if seeded is not None:
        return seeded(seed)

    def hash_bytes(data: bytes) -> int:
        return func(data, seed)

    return hash_bytes


def get_hash(name: str, seed: int = 0) -> HashFunction:
    """Look up a registered hash function by name.

    >>> get_hash("xxh64").name
    'xxh64'
    """
    return HashFunction(name, registered_hash(name), seed)


def registered_hash(name: str) -> HashCallable:
    """The two-argument implementation ``func(data, seed)`` registered
    under ``name`` (the definition every seeded form must match)."""
    # Importing the implementation modules registers them; done lazily to
    # keep import costs off the critical path and avoid cycles.
    _ensure_builtins_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown hash function {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_hashes() -> List[str]:
    """Names of all registered hash functions, sorted."""
    _ensure_builtins_registered()
    return sorted(_REGISTRY)


def _ensure_builtins_registered() -> None:
    from repro.hashing import crc, fnv, murmur, wyhash, xxhash  # noqa: F401
