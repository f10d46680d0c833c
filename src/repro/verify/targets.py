"""Differential-fuzz targets: one class per structure family, plus
one :class:`ServingTarget` behind six serving presets.

A structure target owns three views of the same logical state:

* the **subject** — the real structure, driven through its batch paths
  wherever the op stream says so;
* the **shadow** — an identically-configured second instance driven
  exclusively through scalar ops (the batch-vs-scalar differential);
* the **oracle** — a trusted naive model of the structure's contract
  (:mod:`repro.verify.oracles`).

``apply(op)`` executes one op against all three and raises
:class:`Divergence` the moment any pair disagrees — on results, on
internal state (bit arrays, counter arrays, registers), on work
counters (:class:`~repro.tables.base.ProbeStats` parity), or on
geometry (a batch-built table must end with the same capacity as its
scalar twin).  Fault-injection ops (``fall_back``, ``clear_plans``,
``monitor_fall_back``) exercise the engine's robustness machinery
mid-sequence.

The serving presets (:data:`SERVING_PRESETS`) drive the sharded service
against one admission-time dict oracle; each preset name selects a set
of features (faults, splits, drift, similarity, socket) layered on the
same harness.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Type

import numpy as np

from repro._util import next_power_of_two
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import (
    BlockMaskReducer,
    BloomSplitReducer,
    CollisionMonitor,
    FastRangeReducer,
    FingerprintReducer,
    HashEngine,
    IndexRankReducer,
    MaskReducer,
    SlotTagReducer,
)
from repro.verify import ops as opslib
from repro.verify.oracles import (
    CounterOracle,
    DictOracle,
    DistinctOracle,
    FrequencyOracle,
    MembershipOracle,
    StoreOracle,
    reference_hasher,
)
from repro.verify.ops import Op, decode_key


class Divergence(AssertionError):
    """The structure under test disagreed with an oracle or its twin."""


class ExhaustedCase(Exception):
    """The structure legitimately refused to continue (documented limit).

    Example: a cuckoo table under a low-entropy partial-key hasher hits
    its documented ``RuntimeError`` once more identical-hash keys arrive
    than two buckets can hold.  The runner ends the case cleanly instead
    of recording a failure.
    """


def build_hasher(spec: Dict[str, object]) -> EntropyLearnedHasher:
    """Construct a hasher from a JSON-safe config spec."""
    base = str(spec.get("base", "wyhash"))
    seed = int(spec.get("seed", 0))
    if spec.get("full_key"):
        return EntropyLearnedHasher.full_key(base, seed=seed)
    positions = tuple(int(p) for p in spec.get("positions", (0, 4)))
    word_size = int(spec.get("word_size", 2))
    return EntropyLearnedHasher.from_positions(
        positions, word_size=word_size, base=base, seed=seed
    )


def random_hasher_spec(rng: random.Random) -> Dict[str, object]:
    base = rng.choice(("wyhash", "wyhash", "xxh3", "fnv1a"))
    if rng.random() < 0.25:
        return {"full_key": True, "base": base, "seed": rng.randrange(4)}
    positions = rng.choice(((0, 4), (0, 2), (2, 6), (0,)))
    return {
        "positions": list(positions),
        "word_size": 2,
        "base": base,
        "seed": rng.randrange(4),
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Divergence(message)


# Bases whose high bits avalanche poorly on short similar keys (fnv1a
# folds bytes low-to-high; crc32 is linear).  Differential checks still
# apply to them — only invariants that assume hash *uniformity* (the
# HLL estimate-accuracy window) are skipped.
_WEAK_AVALANCHE_BASES = frozenset({"fnv1a", "crc32"})


class Target:
    """Base class; subclasses set ``name`` and implement the hooks."""

    name: str = ""

    def __init__(self, config: Dict[str, object]):
        self.config = config

    def teardown(self) -> None:
        """Release external resources (shard processes and queues).

        The runner calls this exactly once per case, pass or fail.  The
        base class holds nothing; targets that spawn shard processes
        override it.
        """

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return cls.default_config()

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        raise NotImplementedError

    def apply(self, op: Op) -> None:
        raise NotImplementedError

    def final_check(self) -> None:
        """Invariants checked once after the whole sequence."""


# ------------------------------------------------------------- tables


class _TableTarget(Target):
    """Shared machinery for chaining/probing tables (subject + shadow)."""

    table_cls: type = None  # set by subclasses

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"hasher": {"positions": [0, 4], "word_size": 2}, "capacity": 8}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "hasher": random_hasher_spec(rng),
            "capacity": rng.choice((4, 8, 16, 64)),
        }

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_table_ops(rng, n)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        capacity = int(config.get("capacity", 8))
        self.subject = self.table_cls(build_hasher(config["hasher"]), capacity=capacity)
        self.shadow = self.table_cls(build_hasher(config["hasher"]), capacity=capacity)
        self.oracle = DictOracle()
        self.peak = 0
        self.initial_geometry = self._geometry(self.subject)

    @staticmethod
    def _geometry(table) -> int:
        return table.num_slots if hasattr(table, "num_slots") else table.num_buckets

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "insert":
            key, value = decode_key(op["key"]), op["v"]
            self.subject.insert(key, value)
            self.shadow.insert(key, value)
            self.oracle.insert(key, value)
        elif name == "insert_batch":
            keys = [decode_key(k) for k in op["keys"]]
            values = list(op["values"])
            # Carried: the keys' raw hashes under the subject's live
            # plan, as a router sharing it would send them.
            hashes = (self.subject.hasher.hash_batch(keys)
                      if op.get("carried") else None)
            self.subject.insert_batch(keys, values, hashes)
            for key, value in zip(keys, values):  # scalar twin
                self.shadow.insert(key, value)
                self.oracle.insert(key, value)
        elif name == "get":
            key = decode_key(op["key"])
            got = self.subject.get(key)
            ref = self.shadow.get(key)
            want = self.oracle.get(key)
            _require(got == want, f"get({key!r}) -> {got!r}, oracle says {want!r}")
            _require(ref == want, f"shadow get({key!r}) -> {ref!r}, oracle says {want!r}")
        elif name == "delete":
            key = decode_key(op["key"])
            got = self.subject.delete(key)
            ref = self.shadow.delete(key)
            want = self.oracle.delete(key)
            _require(got == want, f"delete({key!r}) -> {got}, oracle says {want}")
            _require(ref == want, f"shadow delete({key!r}) -> {ref}, oracle says {want}")
        elif name == "probe_batch":
            keys = [decode_key(k) for k in op["keys"]]
            got = self.subject.probe_batch(keys)
            want = [self.oracle.get(k) for k in keys]
            ref = [self.shadow.get(k) for k in keys]
            _require(got == want, f"probe_batch diverged from oracle: {got!r} != {want!r}")
            _require(ref == want, "shadow scalar probes diverged from oracle")
        elif name == "check_items":
            _require(
                sorted(self.subject.items()) == self.oracle.items(),
                "items() diverged from oracle contents",
            )
        elif name == "clear_plans":
            # Same hasher, fresh plans: answers must not change.
            self.subject.engine.set_hasher(self.subject.engine.hasher)
        elif name == "fall_back":
            full = EntropyLearnedHasher.full_key(
                self.subject.engine.hasher.base, seed=self.subject.engine.seed
            )
            self.subject.rebuild_with_hasher(full)
            self.shadow.rebuild_with_hasher(full)
        else:
            raise ValueError(f"unknown table op {name!r}")
        self.peak = max(self.peak, len(self.oracle))
        self._check_invariants()

    def _check_invariants(self) -> None:
        _require(
            len(self.subject) == len(self.oracle),
            f"size {len(self.subject)} != oracle {len(self.oracle)}",
        )
        _require(
            len(self.shadow) == len(self.oracle),
            f"shadow size {len(self.shadow)} != oracle {len(self.oracle)}",
        )
        geometry = self._geometry(self.subject)
        _require(
            geometry == self._geometry(self.shadow),
            f"batch-built geometry {geometry} != scalar-built "
            f"{self._geometry(self.shadow)}",
        )
        stats = self.subject.stats
        ref = self.shadow.stats
        # probe_batch ops on the subject were scalar gets on the shadow:
        # the ProbeStats contract says those code paths count identically.
        for field in ("probes", "tag_checks", "key_comparisons", "chain_total"):
            _require(
                getattr(stats, field) == getattr(ref, field),
                f"ProbeStats.{field} parity broke: batch path "
                f"{getattr(stats, field)} != scalar path {getattr(ref, field)}",
            )
        self._check_capacity_bound(geometry)

    def _check_capacity_bound(self, geometry: int) -> None:
        raise NotImplementedError


class ChainingTarget(_TableTarget):
    name = "chaining"

    from repro.tables.chaining import SeparateChainingTable as table_cls

    def _check_capacity_bound(self, geometry: int) -> None:
        load = self.subject.max_load
        bound = max(
            self.initial_geometry,
            next_power_of_two(int(2 * (max(self.peak, 1) + 1) / load) + 1),
        )
        _require(
            geometry <= bound,
            f"bucket array grew to {geometry} with peak size {self.peak} "
            f"(bound {bound})",
        )


class ProbingTarget(_TableTarget):
    name = "probing"

    from repro.tables.probing import LinearProbingTable as table_cls

    def _check_capacity_bound(self, geometry: int) -> None:
        load = self.subject.max_load
        bound = max(
            self.initial_geometry,
            next_power_of_two(int(4 * max(self.peak, 1) / load) + 1),
        )
        _require(
            geometry <= bound,
            f"table grew to {geometry} slots with peak size {self.peak} "
            f"(bound {bound}); tombstone churn must compact in place",
        )


class CuckooTableTarget(Target):
    """Cuckoo table vs dict oracle (no shadow: rng-driven placement)."""

    name = "cuckoo_table"

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"hasher": {"positions": [0, 4], "word_size": 2}, "capacity": 16}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "hasher": random_hasher_spec(rng),
            "capacity": rng.choice((16, 32, 128)),
        }

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        ops = opslib.generate_table_ops(rng, n)
        # Cuckoo placement cannot survive a bare hasher swap, and there
        # is no batch insert; drop the ops that do not apply.
        keep = ("insert", "get", "delete", "probe_batch", "check_items",
                "clear_plans")
        return [op for op in ops if op["op"] in keep]

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        from repro.tables.cuckoo import CuckooTable

        self.subject = CuckooTable(
            build_hasher(config["hasher"]), capacity=int(config.get("capacity", 16))
        )
        self.oracle = DictOracle()

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "insert":
            key, value = decode_key(op["key"]), op["v"]
            try:
                self.subject.insert(key, value)
            except RuntimeError:
                # Documented limit: more identical-hash keys than two
                # buckets hold.  Not a divergence — end the case.
                raise ExhaustedCase("cuckoo insertion exhausted") from None
            self.oracle.insert(key, value)
        elif name == "get":
            key = decode_key(op["key"])
            got, want = self.subject.get(key), self.oracle.get(key)
            _require(got == want, f"get({key!r}) -> {got!r}, oracle says {want!r}")
        elif name == "delete":
            key = decode_key(op["key"])
            got, want = self.subject.delete(key), self.oracle.delete(key)
            _require(got == want, f"delete({key!r}) -> {got}, oracle says {want}")
        elif name == "probe_batch":
            keys = [decode_key(k) for k in op["keys"]]
            got = self.subject.probe_batch(keys)
            want = [self.oracle.get(k) for k in keys]
            scalar = [self.subject.get(k) for k in keys]
            _require(got == want, "probe_batch diverged from oracle")
            _require(got == scalar, "probe_batch diverged from scalar gets")
        elif name == "check_items":
            _require(
                sorted(self.subject.items()) == self.oracle.items(),
                "items() diverged from oracle contents",
            )
        elif name == "clear_plans":
            self.subject.engine.set_hasher(self.subject.engine.hasher)
        else:
            raise ValueError(f"unknown cuckoo-table op {name!r}")
        _require(
            len(self.subject) == len(self.oracle),
            f"size {len(self.subject)} != oracle {len(self.oracle)}",
        )


# ------------------------------------------------------------ filters


class BloomTarget(Target):
    """Bloom filter: no false negatives + batch/scalar bit-array parity."""

    name = "bloom"
    removes = False

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {
            "hasher": {"positions": [0, 4], "word_size": 2},
            "bits": 512,
            "hashes": 3,
        }

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "hasher": random_hasher_spec(rng),
            # Tiny and non-power-of-two sizes maximize probe collisions.
            "bits": rng.choice((5, 6, 7, 64, 97, 512)),
            "hashes": rng.randrange(1, 6),
        }

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_filter_ops(rng, n, removes=cls.removes)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        self.subject = self._build(config)
        self.shadow = self._build(config)
        self.members = MembershipOracle()

    def _build(self, config):
        from repro.filters.bloom import BloomFilter

        return BloomFilter(
            build_hasher(config["hasher"]),
            num_bits=int(config["bits"]),
            num_hashes=int(config["hashes"]),
        )

    def _state_parity(self) -> None:
        _require(
            np.array_equal(self.subject._bits, self.shadow._bits),
            "batch-built bit array != scalar-built bit array",
        )

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "add":
            key = decode_key(op["key"])
            self.subject.add(key)
            self.shadow.add(key)
            self.members.add(key)
        elif name == "add_batch":
            keys = [decode_key(k) for k in op["keys"]]
            self.subject.add_batch(keys)
            for key in keys:
                self.shadow.add(key)
                self.members.add(key)
        elif name == "contains":
            key = decode_key(op["key"])
            got, ref = self.subject.contains(key), self.shadow.contains(key)
            _require(got == ref, f"contains({key!r}): batch {got} != scalar {ref}")
            if self.members.contains(key) and not self.members.tainted:
                _require(got, f"false negative for present key {key!r}")
        elif name == "contains_batch":
            keys = [decode_key(k) for k in op["keys"]]
            got = list(self.subject.contains_batch(keys))
            scalar = [self.subject.contains(k) for k in keys]
            _require(got == scalar, "contains_batch != scalar contains loop")
            if not self.members.tainted:
                for key, hit in zip(keys, got):
                    if self.members.contains(key):
                        _require(hit, f"false negative for present key {key!r}")
        elif name == "remove":
            self._apply_remove(decode_key(op["key"]))
        elif name == "check_members":
            self._state_parity()
            if not self.members.tainted:
                for key in self.members.present_keys():
                    _require(
                        self.subject.contains(key),
                        f"false negative for present key {key!r}",
                    )
        elif name == "clear_plans":
            self.subject.engine.set_hasher(self.subject.engine.hasher)
        else:
            raise ValueError(f"unknown filter op {name!r}")
        self._state_parity()

    def _apply_remove(self, key: bytes) -> None:
        raise ValueError("remove not supported by this filter")

    def final_check(self) -> None:
        self.apply({"op": "check_members"})


class CountingBloomTarget(BloomTarget):
    """Counting filter: adds an exact counter-array oracle and removes."""

    name = "counting_bloom"
    removes = True

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {
            "hasher": {"positions": [0, 4], "word_size": 2},
            "bits": 6,
            "hashes": 4,
        }

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        self.counter_oracle = CounterOracle(
            build_hasher(config["hasher"]),
            num_counters=int(config["bits"]),
            num_hashes=int(config["hashes"]),
        )

    def _build(self, config):
        from repro.filters.counting import CountingBloomFilter

        return CountingBloomFilter(
            build_hasher(config["hasher"]),
            num_counters=int(config["bits"]),
            num_hashes=int(config["hashes"]),
        )

    def _state_parity(self) -> None:
        _require(
            np.array_equal(self.subject._counters, self.shadow._counters),
            "batch-built counters != scalar-built counters",
        )
        if hasattr(self, "counter_oracle"):
            got = [int(c) for c in self.subject._counters]
            _require(
                got == self.counter_oracle.counters,
                f"counter array diverged from exact oracle: {got} != "
                f"{self.counter_oracle.counters}",
            )

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "add":
            self.counter_oracle.add(decode_key(op["key"]))
        elif name == "add_batch":
            for key in op["keys"]:
                self.counter_oracle.add(decode_key(key))
        super().apply(op)

    def _apply_remove(self, key: bytes) -> None:
        expected = self.counter_oracle.predict_remove(key)
        got = self.subject.remove(key)
        ref = self.shadow.remove(key)
        _require(
            got == expected,
            f"remove({key!r}) -> {got}, exact counters say {expected}",
        )
        _require(ref == expected, f"shadow remove({key!r}) -> {ref} != {expected}")
        if expected:
            self.counter_oracle.remove(key)
            if self.members.contains(key):
                self.members.remove(key)
            else:
                # An absent key slipped past the counter pre-check (all
                # its counters were backed by other keys): the documented
                # corruption case — the no-FN guarantee is void from here.
                self.members.tainted = True


class CuckooFilterTarget(BloomTarget):
    """Cuckoo filter: membership + remove semantics, bucket-state parity."""

    name = "cuckoo_filter"
    removes = True

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {
            "hasher": {"positions": [0, 4], "word_size": 2},
            "capacity": 64,
            "fingerprint_bits": 16,
        }

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "hasher": random_hasher_spec(rng),
            "capacity": rng.choice((16, 64, 256)),
            "fingerprint_bits": rng.choice((8, 12, 16)),
        }

    def _build(self, config):
        from repro.filters.cuckoo import CuckooFilter

        return CuckooFilter(
            build_hasher(config["hasher"]),
            capacity=int(config["capacity"]),
            fingerprint_bits=int(config.get("fingerprint_bits", 16)),
        )

    def _state_parity(self) -> None:
        _require(
            self.subject._buckets == self.shadow._buckets
            and self.subject._victim == self.shadow._victim,
            "batch-built cuckoo state != scalar-built state",
        )

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "add":
            key = decode_key(op["key"])
            got = self.subject.add(key)
            ref = self.shadow.add(key)
            _require(got == ref, f"add({key!r}): batch {got} != scalar {ref}")
            if got:
                self.members.add(key)
            self._state_parity()
        elif name == "add_batch":
            keys = [decode_key(k) for k in op["keys"]]
            got = self.subject.add_batch(keys)
            ref = [self.shadow.add(k) for k in keys]
            _require(got == ref, "add_batch results != scalar add loop")
            for key, ok in zip(keys, got):
                if ok:
                    self.members.add(key)
            self._state_parity()
        elif name == "remove":
            key = decode_key(op["key"])
            got = self.subject.remove(key)
            ref = self.shadow.remove(key)
            _require(got == ref, f"remove({key!r}): batch {got} != scalar {ref}")
            if self.members.contains(key):
                _require(got, f"remove of present key {key!r} returned False")
                self.members.remove(key)
            elif got:
                # Removed an aliasing fingerprint of some other key: the
                # documented deletion caveat — stop convicting on FNs.
                self.members.tainted = True
            self._state_parity()
        else:
            super().apply(op)


# ------------------------------------------------------------ sketches


class HyperLogLogTarget(Target):
    """HLL: register parity batch-vs-scalar + estimate accuracy."""

    name = "hll"

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"hasher": {"positions": [0, 4], "word_size": 2}, "precision": 10}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "hasher": random_hasher_spec(rng),
            "precision": rng.choice((4, 6, 8, 10, 12, 14)),
        }

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_sketch_ops(rng, n)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        from repro.sketches.hyperloglog import HyperLogLog

        precision = int(config.get("precision", 10))
        self.subject = HyperLogLog(build_hasher(config["hasher"]), precision=precision)
        self.shadow = HyperLogLog(build_hasher(config["hasher"]), precision=precision)
        # An ELH sketch estimates |L(S)| — the cardinality of the
        # *projected* key set — so the oracle counts distinct reference
        # hash values, which partial-key collisions collapse exactly as
        # the sketch sees them.
        self.reference = reference_hasher(self.subject.hasher)
        self.oracle = DistinctOracle()
        self.max_rank = 64 - precision + 1

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "add":
            key = decode_key(op["key"])
            self.subject.add(key)
            self.shadow.add(key)
            self.oracle.add(self.reference(key))
        elif name == "add_batch":
            keys = [decode_key(k) for k in op["keys"]]
            self.subject.add_batch(keys)
            for key in keys:
                self.shadow.add(key)
                self.oracle.add(self.reference(key))
        elif name in ("estimate", "check_state"):
            self._check_state()
            return
        else:
            raise ValueError(f"unknown sketch op {name!r}")
        _require(
            np.array_equal(self.subject._registers, self.shadow._registers),
            "batch-built registers != scalar-built registers",
        )

    def _check_state(self) -> None:
        registers = self.subject._registers
        _require(
            int(registers.max(initial=0)) <= self.max_rank,
            f"register rank exceeded saturation bound {self.max_rank}",
        )
        _require(
            np.array_equal(registers, self.shadow._registers),
            "batch-built registers != scalar-built registers",
        )
        if self.subject.hasher.base.name in _WEAK_AVALANCHE_BASES:
            return
        n = self.oracle.cardinality
        estimate = self.subject.estimate()
        tolerance = max(12.0, 6.0 * self.subject.standard_error() * n)
        _require(
            abs(estimate - n) <= tolerance,
            f"estimate {estimate:.1f} vs true {n} outside tolerance "
            f"{tolerance:.1f}",
        )

    def final_check(self) -> None:
        self._check_state()


class CountMinTarget(Target):
    """Count-Min: never undercounts + counts-matrix parity."""

    name = "countmin"

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"hasher": {"positions": [0, 4], "word_size": 2},
                "width": 64, "depth": 3}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "hasher": random_hasher_spec(rng),
            "width": rng.choice((8, 37, 64, 256)),
            "depth": rng.randrange(1, 5),
        }

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_sketch_ops(rng, n)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        from repro.sketches.countmin import CountMinSketch

        width, depth = int(config["width"]), int(config["depth"])
        self.subject = CountMinSketch(build_hasher(config["hasher"]), width, depth)
        self.shadow = CountMinSketch(build_hasher(config["hasher"]), width, depth)
        self.oracle = FrequencyOracle()

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "add":
            key = decode_key(op["key"])
            self.subject.add(key)
            self.shadow.add(key)
            self.oracle.add(key)
        elif name == "add_batch":
            keys = [decode_key(k) for k in op["keys"]]
            self.subject.add_batch(keys)
            for key in keys:
                self.shadow.add(key)
                self.oracle.add(key)
        elif name == "estimate":
            key = decode_key(op["key"])
            got = self.subject.estimate(key)
            ref = self.shadow.estimate(key)
            true = self.oracle.count(key)
            _require(got == ref, f"estimate({key!r}): batch {got} != scalar {ref}")
            _require(
                got >= true,
                f"Count-Min undercounted {key!r}: {got} < true {true}",
            )
            return
        elif name == "check_state":
            _require(
                np.array_equal(self.subject._counts, self.shadow._counts),
                "batch-built counts != scalar-built counts",
            )
            _require(
                self.subject.total == self.oracle.total,
                f"total {self.subject.total} != oracle {self.oracle.total}",
            )
            return
        else:
            raise ValueError(f"unknown sketch op {name!r}")
        _require(
            np.array_equal(self.subject._counts, self.shadow._counts),
            "batch-built counts != scalar-built counts",
        )

    def final_check(self) -> None:
        self.apply({"op": "check_state"})


class MinHashTarget(Target):
    """MinHash: engine-batched minima vs reference scalar minima."""

    name = "minhash"

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"hasher": {"positions": [0, 4], "word_size": 2}}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {"hasher": random_hasher_spec(rng)}

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_minhash_ops(rng, n)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        self.hasher = build_hasher(config["hasher"])
        self.reference = reference_hasher(self.hasher)

    def apply(self, op: Op) -> None:
        if op["op"] != "signature":
            raise ValueError(f"unknown minhash op {op['op']!r}")
        from repro.sketches.minhash import MinHashSignature

        items = [decode_key(k) for k in op["keys"]]
        k = int(op["k"])
        signature = MinHashSignature.from_items(self.hasher, items, k=k)
        for row in range(k):
            seeded = self.reference.with_seed(self.reference.seed + row + 1)
            want = min(seeded(item) for item in items)
            got = int(signature.mins[row])
            _require(
                got == want,
                f"row {row} minimum {got} != reference scalar minimum {want}",
            )
        _require(
            signature.jaccard(signature) == 1.0,
            "jaccard(sig, sig) != 1.0",
        )


# ------------------------------------------------------------ kvstore


class LSMStoreTarget(Target):
    """LSM store vs exact newest-wins mapping oracle."""

    name = "lsm"

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"memtable_bytes": 256, "compaction_fanout": 3}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {
            "memtable_bytes": rng.choice((128, 256, 1024)),
            "compaction_fanout": rng.choice((2, 3, 4)),
        }

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_store_ops(rng, n)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        from repro.kvstore.store import LSMStore

        self.subject = LSMStore(
            memtable_bytes=int(config.get("memtable_bytes", 256)),
            compaction_fanout=int(config.get("compaction_fanout", 3)),
        )
        self.oracle = StoreOracle()

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "put":
            key = decode_key(op["key"])
            value = b"v%d" % int(op["v"])
            self.subject.put(key, value)
            self.oracle.insert(key, value)
        elif name == "delete":
            key = decode_key(op["key"])
            self.subject.delete(key)
            self.oracle.delete(key)
        elif name == "get":
            key = decode_key(op["key"])
            got, want = self.subject.get(key), self.oracle.get(key)
            _require(got == want, f"get({key!r}) -> {got!r}, oracle says {want!r}")
        elif name == "multi_get":
            keys = [decode_key(k) for k in op["keys"]]
            got = self.subject.multi_get(keys)
            want = [self.oracle.get(k) for k in keys]
            _require(got == want, f"multi_get diverged: {got!r} != {want!r}")
        elif name == "scan":
            start, end = decode_key(op["start"]), decode_key(op["end"])
            got = list(self.subject.scan(start, end))
            want = self.oracle.scan(start, end)
            _require(got == want, f"scan diverged: {got!r} != {want!r}")
        elif name == "flush":
            self.subject.flush()
        elif name == "compact":
            self.subject.compact()
        elif name == "check_items":
            for key in list(self.oracle.data):
                got = self.subject.get(key)
                want = self.oracle.get(key)
                _require(
                    got == want, f"get({key!r}) -> {got!r}, oracle says {want!r}"
                )
        else:
            raise ValueError(f"unknown store op {name!r}")

    def final_check(self) -> None:
        self.apply({"op": "check_items"})


# ------------------------------------------------------------- engine


class EngineTarget(Target):
    """HashEngine plans vs the reference scalar hash path."""

    name = "engine"

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        return {"hasher": {"positions": [0, 4], "word_size": 2}}

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        return {"hasher": random_hasher_spec(rng)}

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_engine_ops(rng, n)

    def __init__(self, config: Dict[str, object]):
        super().__init__(config)
        hasher = build_hasher(config["hasher"])
        self.subject = HashEngine(hasher)
        self.reference = reference_hasher(hasher)
        self.hashed = 0
        self.shorts = 0

    def _expected(self, key: bytes, seed: Optional[int]) -> int:
        ref = self.reference
        if seed is not None and seed != ref.seed:
            ref = ref.with_seed(seed)
        return ref(key)

    def _issued(self, keys: List[bytes]) -> None:
        """Count keys hashed and keys due the short-key full hash."""
        self.hashed += len(keys)
        L = self.reference.partial_key
        if not L.is_full_key:
            self.shorts += sum(not L.applies_to(k) for k in keys)

    def apply(self, op: Op) -> None:
        name = op["op"]
        if name == "hash_batch":
            keys = [decode_key(k) for k in op["keys"]]
            seed = op.get("seed")
            seed = int(seed) if seed is not None else None
            got = [int(h) for h in self.subject.hash_batch(keys, seed=seed)]
            want = [self._expected(k, seed) for k in keys]
            if got != want:
                bad = next(i for i in range(len(keys)) if got[i] != want[i])
                raise Divergence(
                    f"hash_batch[{bad}] for key {keys[bad]!r} (seed={seed}): "
                    f"{got[bad]} != reference {want[bad]}"
                )
            self._issued(keys)
        elif name == "hash_one":
            key = decode_key(op["key"])
            got = int(self.subject.hash_one(key))
            want = self._expected(key, None)
            _require(got == want, f"hash_one({key!r}): {got} != reference {want}")
            self._issued([key])
        elif name == "clear_plans":
            self.subject.set_hasher(self.subject.hasher)
        elif name == "monitor_fall_back":
            if not self.subject.fell_back:
                if self.subject.monitor is None:
                    self.subject.monitor = CollisionMonitor(
                        entropy=0.0, num_slots=4, min_inserts=1
                    )
                # A pathological burst of displacement: the monitor must
                # force the full-key rebuild, and every plan after this
                # point must hash full keys.
                self.subject.record_insert(1e9, expected=0.0, n=1024)
                if not self.subject.hasher.partial_key.is_full_key:
                    raise Divergence(
                        "forced FALL_BACK left a partial-key hasher installed"
                    )
                self.reference = self.reference.full_key()
        elif name == "check_stats":
            stats = self.subject.stats()
            _require(
                stats["keys_hashed"] == self.hashed,
                f"keys_hashed {stats['keys_hashed']} != {self.hashed} issued",
            )
            _require(
                stats["short_key_fallbacks"] == self.shorts,
                f"short_key_fallbacks {stats['short_key_fallbacks']} != "
                f"{self.shorts} short keys issued",
            )
            if self.subject.fell_back:
                _require(stats["fell_back"], "stats dropped the fallback event")
                _require(
                    stats["positions"] == [],
                    "stats still report partial-key positions after fallback",
                )
        else:
            raise ValueError(f"unknown engine op {name!r}")


class ReducerTarget(Target):
    """Every Reducer: vectorized ``apply`` vs scalar ``apply_one``, and
    the engine's small-batch form ``apply_each`` vs ``apply`` (values,
    dtypes and shapes)."""

    name = "reducers"

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_reducer_ops(rng, n)

    def _build_reducer(self, op: Op):
        kind = op["kind"]
        if kind == "index_rank":
            return IndexRankReducer(int(op["precision"]))
        if kind == "slot_tag":
            return SlotTagReducer(int(op["mask"]))
        if kind == "mask":
            return MaskReducer(int(op["mask"]))
        if kind == "bloom_split":
            return BloomSplitReducer()
        if kind == "block_mask":
            return BlockMaskReducer(int(op["num_blocks"]), int(op["num_probe_bits"]))
        if kind == "fingerprint":
            fp_mask = (1 << int(op["fp_bits"])) - 1
            bucket_mask = (1 << int(op["bucket_bits"])) - 1
            return FingerprintReducer(fp_mask, bucket_mask)
        if kind == "fast_range":
            return FastRangeReducer(int(op["n"]))
        raise ValueError(f"unknown reducer kind {kind!r}")

    def apply(self, op: Op) -> None:
        if op["op"] != "reduce":
            raise ValueError(f"unknown reducer op {op['op']!r}")
        reducer = self._build_reducer(op)
        hashes = [int(h) for h in op["hashes"]]
        batch = reducer.apply(np.array(hashes, dtype=np.uint64))
        self._check_small_form(op["kind"], batch, reducer.apply_each(hashes))
        if isinstance(batch, tuple):
            batch_rows = list(zip(*(part.tolist() for part in batch)))
            scalar_rows = [tuple(reducer.apply_one(h)) for h in hashes]
        else:
            batch_rows = [(v,) for v in batch.tolist()]
            scalar_rows = [(reducer.apply_one(h),) for h in hashes]
        for i, (got, want) in enumerate(zip(batch_rows, scalar_rows)):
            got = tuple(int(g) for g in got)
            want = tuple(int(w) for w in want)
            if got != want:
                raise Divergence(
                    f"{op['kind']} reducer: apply(h={hashes[i]:#x}) -> {got} "
                    f"but apply_one -> {want}"
                )
        self._domain_checks(op, hashes, scalar_rows, batch_rows)

    @staticmethod
    def _check_small_form(kind: str, batch, each) -> None:
        """What the engine returns below its cutover must be what it
        returns above it, array for array."""
        def layout(out):
            parts = out if isinstance(out, tuple) else (out,)
            return isinstance(out, tuple), [
                (part.dtype, part.shape, part.tolist()) for part in parts]

        _require(
            layout(each) == layout(batch),
            f"{kind} reducer: apply_each {layout(each)} != apply {layout(batch)}",
        )

    def _domain_checks(self, op: Op, hashes, scalar_rows, batch_rows) -> None:
        kind = op["kind"]
        if kind == "index_rank":
            precision = int(op["precision"])
            max_rank = 64 - precision + 1
            for rows in (scalar_rows, batch_rows):
                for index, rank in rows:
                    _require(
                        1 <= int(rank) <= max_rank,
                        f"rank {rank} outside [1, {max_rank}] (p={precision})",
                    )
                    _require(0 <= int(index) < (1 << precision), "index out of range")
        elif kind == "slot_tag":
            for _, tag in batch_rows:
                _require(2 <= int(tag) <= 255, f"tag {tag} hit a control state")
        elif kind == "fingerprint":
            for _, fingerprint in batch_rows:
                _require(int(fingerprint) >= 1, "zero fingerprint (empty marker)")
        elif kind == "fast_range":
            n = int(op["n"])
            for (value,) in batch_rows:
                _require(0 <= int(value) < n, f"fast-range value {value} >= {n}")


# ------------------------------------------------------------ serving


class _SplitBetweenRounds:
    """A client transport that splits shard ``donor`` once, just before
    a call's first retry round, so the rows the call holds come back
    under a retired routing generation; otherwise the wrapped
    transport."""

    def __init__(self, transport, service, donor: int):
        self.transport = transport
        self.service = service
        self.donor: Optional[int] = donor

    @property
    def pumped(self) -> int:
        return self.transport.pumped

    def tick(self) -> None:
        self.transport.tick()

    def round(self, op, keys, values, held=None):
        if held is not None and self.donor is not None:
            self.service.split_shard(self.donor)
            self.donor = None
        return self.transport.round(op, keys, values, held)


class ServingTarget(Target):
    """The sharded service vs one admission-time dict oracle.

    One harness, six presets (:data:`SERVING_PRESETS`).  Each preset is
    a set of *features* layered on a base in-process ``Service``:

    * ``faults`` — a live FaultPlane, armed by ``inject`` ops
      (crash / sigkill / stall / drop / corrupt / queue_loss), plus
      ``settle`` heal windows;
    * ``splits`` — ``split`` ops force live shard splits (in process,
      with the hot-key tracker on, so promotion flips interleave with
      split flips);
    * ``drift`` — online re-learning over a trained model, and
      ``inject`` ops that can arm a workload drift (with the hot-key
      tracker drawn on, so promotion flips race plan swaps);
    * ``similarity`` — the LSH similarity backend, with ``similar``
      queries checked against brute force;
    * ``socket`` — the client side moves behind a real TCP front door.

    **Why an admission-time oracle is sound.**  A key always routes to
    the same shard, the shard queue is FIFO, and segments preserve
    intra-batch order, so operations on any single key execute in
    admission order.  The expected answer for each admitted op is
    therefore computed against the oracle *at admission time*; rejected
    ops are never applied to the oracle (if the service secretly
    applied one anyway, later reads diverge).  ``force_trip`` checks
    that a per-shard full-key fallback, and the breaker-driven heal
    that follows, loses no acknowledged write; the final drain checks
    that every admitted op got exactly one response, and the read-back
    that every acknowledged write is still there.

    * Faults must be invisible to clients: every admitted op answers
      exactly once with the admission-order result, across worker
      restarts, and only breaker-quarantined shards run on full-key
      hashing.  Breakers need not finish closed: adversarially
      low-entropy key pools legitimately re-trip a probing shard.
    * A split flip that loses, reorders or double-applies one acked op
      diverges on read-back.  Placement is checked directly
      (:func:`repro.verify.placement.misplaced`): after every op each
      queued row sits on the shard its key routes to under the live
      table, and after the final drain so does every journaled key.
      The flip sweep and the recovery re-route are the only code that
      moves a row, so a row either of them misses fails here.
    * A fired drift makes the *harness* rewrite every later key through
      :func:`repro.drift.keys.drift_key` against the plan deployed at
      fire time.  The request and the oracle see the same rewritten
      key (the rewrite is injective and deterministic), so the oracle
      discipline is untouched while detector → re-learn → swap races
      the fault schedule; the service, relearner and supervisor must
      agree on how many swaps landed.
    * ``similar`` is a cross-key read, so per-key order is not enough:
      it relies on *all* ops on one shard executing in admission order,
      which holds because routing is static under this feature (no
      splits, no hot-key overlay; its menu draws no force_trip either,
      because a fallback rebuild changes the element hasher and with
      it every signature).  The
      brute-force answer scans the queried key's shard for keys sharing
      a bit-identical band block, scores them with the exact b-bit
      estimator and keeps the top k by (-score, key).  The subject
      buckets by band *hash*, so its candidates are a superset of the
      oracle's, and extra collision candidates lose the exact re-rank:
      strict equality is the right check (a false band-hash collision
      changing top-k needs two distinct blocks hashing identically *and*
      tied scores, ~2^-64 per pair).
    * A client blocks per call, so response time *is* admission time.
      In process a ``call`` op, and the burst a ``split`` races against
      the flip, go through the retrying client: refused rows are held
      and admitted again, and a racing split fires between the call's
      rounds.  Over the socket every op is a client call, and a
      ``burst``/``multi_get`` op and a racing burst each reach the
      front door as one call frame, admitted as one ``Service.submit``.
    """

    features: frozenset = frozenset()

    # Bound on stacked drift rewrites per case: each layer appends a
    # captured-bytes tail, so unbounded stacking would grow keys without
    # adding new coverage.
    MAX_DRIFT_LAYERS = 3

    # Ops that need a feature; over the socket the front door's loop
    # thread owns pumping, so the harness may not pump or trip.
    _OP_FEATURE = {"inject": "faults", "settle": "faults",
                   "split": "splits", "similar": "similarity"}
    _IN_PROCESS_OPS = frozenset({"pump", "drain", "force_trip"})

    @classmethod
    def default_config(cls) -> Dict[str, object]:
        features = cls.features
        config: Dict[str, object] = {
            "hasher": {"positions": [0, 4], "word_size": 2},
            "shards": 3,
            "backend": "chaining",
            "capacity": 16,
            "max_queue": 8,
            "batch_size": 4,
            "execution": "inline",
        }
        if "faults" in features:
            config.update(fault_seed=0, cooldown=6, probe=3,
                          stall_threshold=3, journal_checkpoint=32)
        if "splits" in features:
            if "socket" in features:
                config["max_splits"] = 2
            else:
                config.update(hot_k=4, adapt_every=4, max_splits=3)
        if "drift" in features:
            del config["hasher"]
            config.update(
                backend="chaining", capacity=48, model_seed=0,
                drift_window=24, drift_margin=1.0, drift_patience=2,
                drift_reservoir=96, min_dwell=4, min_sample=16,
                adapt_every=2, hot_k=0,
            )
        if "similarity" in features:
            config.update(shards=2, backend="similarity", capacity=64,
                          bands=4, rows=2, b=8, shingle_width=4)
        return config

    @classmethod
    def random_config(cls, rng: random.Random) -> Dict[str, object]:
        # Execution stays "inline" unless a campaign overrides it (the
        # CLI's --execution flag): random per-case process spawning
        # would dominate fuzz wall-clock without adding coverage beyond
        # what a dedicated process-execution campaign already gives.
        # The socket and similarity presets draw from smaller fleets.
        features = cls.features
        socket = "socket" in features
        similarity = "similarity" in features
        config: Dict[str, object] = {
            "hasher": random_hasher_spec(rng),
            "shards": rng.choice((1, 2, 3) if similarity
                                 else (2, 3, 4) if socket
                                 else (2, 3, 4, 5)),
        }
        if similarity:
            config.update(backend="similarity", capacity=64)
        else:
            config.update(
                backend=rng.choice(("chaining", "probing", "lsm")),
                capacity=rng.choice((8, 16, 64)),
            )
        # A one-slot queue refuses all but one row of a shard's burst,
        # so a write that repeats a key in one call is retried behind
        # its first write; a two-slot fault queue runs out of credit
        # mid-run, so a lost slot can land past the cut.
        config.update(
            max_queue=rng.choice((1, 8, 16) if socket
                                 else (1, 4, 8, 16) if not features
                                 else (2, 4, 8, 16) if "faults" in features
                                 else (4, 8, 16)),
            batch_size=rng.choice((2, 4, 8) if socket
                                  else (1, 2, 4) if similarity
                                  else (1, 2, 4, 8)),
            execution="inline",
        )
        if "faults" in features:
            config.update(
                fault_seed=rng.randrange(1 << 16),
                cooldown=rng.choice((4, 6, 10)),
                probe=rng.choice((2, 3, 5)),
                stall_threshold=rng.choice((2, 3)),
                # 0 disables checkpointing; small values force compactions.
                journal_checkpoint=rng.choice((16, 64, 0)),
            )
        if "splits" in features:
            if socket:
                config["max_splits"] = rng.choice((1, 2))
            else:
                config.update(
                    hot_k=rng.choice((0, 2, 4)),
                    adapt_every=rng.choice((2, 4, 8)),
                    max_splits=rng.choice((1, 2, 3)),
                )
        if "drift" in features:
            del config["hasher"]
            config.update(
                # Only the relearnable table backends: the drift
                # machinery validates against RELEARN_BACKENDS.
                backend=rng.choice(("chaining", "probing")),
                shards=rng.choice((2, 3)),
                capacity=rng.choice((32, 48, 64)),
                model_seed=rng.randrange(1 << 16),
                drift_window=rng.choice((16, 24, 32)),
                drift_margin=rng.choice((0.5, 1.0, 2.0)),
                drift_patience=rng.choice((1, 2)),
                drift_reservoir=rng.choice((64, 96)),
                min_dwell=rng.choice((2, 4, 8)),
                min_sample=rng.choice((8, 16)),
                adapt_every=rng.choice((2, 4)),
                hot_k=rng.choice((0, 2, 4)),  # promotions race swaps
            )
        if similarity:
            config.update(
                bands=rng.choice((2, 4)),
                rows=rng.choice((2, 4)),
                b=rng.choice((4, 8)),
                shingle_width=rng.choice((3, 4, 8)),
            )
        return config

    @classmethod
    def generate_ops(cls, rng: random.Random, n: int) -> List[Op]:
        return opslib.generate_serving_ops(cls.name, rng, n)

    def __init__(self, config: Dict[str, object]):
        from repro.service import (
            FrontDoorThread,
            NetworkClient,
            Service,
            ServiceClient,
        )

        super().__init__(config)
        self.service = self.door = self.client = self.caller = None
        # A hand-written partial config falls back to the preset's
        # defaults key by key.
        config = {**self.default_config(), **config}
        self.backend = str(config["backend"])
        self.max_queue = int(config["max_queue"])
        self.batch_size = int(config["batch_size"])
        self.max_splits = int(config.get("max_splits", 0))
        self.oracle = DictOracle()
        # (run, row, kind, expected-at-admission) for in-flight requests.
        self.pending: List[tuple] = []
        # Rewrite layers latched by fired drift specs; each layer is the
        # (positions, word_size) of the plan deployed at fire time.
        self.drift_layers: List[tuple] = []
        # key -> oracle BBitMinHash; key -> home shard (static routing).
        self.sigs: Dict[bytes, object] = {}
        self.shard_of: Dict[bytes, int] = {}
        self.service = Service(**self._service_kwargs(config))
        if "drift" in self.features:
            # The default constant (20) certifies no plan from a case's
            # few dozen drifted keys, so no case would ever swap.
            self.service.relearner.confidence_constant = 1.0
        if "socket" in self.features:
            self.door = FrontDoorThread(self.service).start()
            self.client = NetworkClient("127.0.0.1", self.door.port)
        else:
            # The in-process client that ``call`` ops go through.
            self.caller = ServiceClient(self.service)

    def _service_kwargs(self, config: Dict[str, object]) -> Dict[str, object]:
        """``Service(...)`` arguments: the base, then one clause per
        feature."""
        features = self.features
        kwargs: Dict[str, object] = {
            "num_shards": int(config["shards"]),
            "backend": self.backend,
            "hasher": (build_hasher(config["hasher"])
                       if "hasher" in config else None),
            "capacity": int(config["capacity"]),
            "max_queue": self.max_queue,
            "batch_size": self.batch_size,
            "execution": str(config["execution"]),
        }
        if "faults" in features:
            from repro.faults import FaultPlan, FaultPlane

            self.plane = FaultPlane(FaultPlan([]),
                                    seed=int(config["fault_seed"]))
            self.cooldown = int(config["cooldown"])
            self.probe = int(config["probe"])
            kwargs.update(
                fault_plane=self.plane,
                cooldown_pumps=self.cooldown,
                probe_pumps=self.probe,
                stall_threshold=int(config["stall_threshold"]),
                journal_checkpoint=int(config["journal_checkpoint"]),
            )
        if "splits" in features and "socket" not in features:
            kwargs.update(hot_k=int(config["hot_k"]),
                          adapt_every=int(config["adapt_every"]))
        if "drift" in features:
            from repro.core.trainer import train_model

            # The model is a pure function of config: the same fixed
            # pool plus the recorded seed retrains bit-identically.
            kwargs.update(
                model=train_model(opslib.make_drift_key_pool(),
                                  seed=int(config["model_seed"])),
                hasher=None,
                adapt_every=int(config["adapt_every"]),
                hot_k=int(config["hot_k"]),
                relearn=True,
                drift_window=int(config["drift_window"]),
                drift_margin=float(config["drift_margin"]),
                drift_patience=int(config["drift_patience"]),
                drift_reservoir=int(config["drift_reservoir"]),
                min_dwell=int(config["min_dwell"]),
                min_sample=int(config["min_sample"]),
            )
        if "similarity" in features:
            # The oracle signs documents with the service's own hasher.
            self.hasher = kwargs["hasher"]
            self.bands, self.rows = int(config["bands"]), int(config["rows"])
            self.b = int(config["b"])
            self.shingle_width = int(config["shingle_width"])
            kwargs["backend_options"] = {
                "bands": self.bands,
                "rows": self.rows,
                "b": self.b,
                "shingle_width": self.shingle_width,
            }
        return kwargs

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.door is not None:
            self.door.stop()
        if self.service is not None:
            self.service.close()

    def _queue_bound(self) -> int:
        bound = self.max_queue
        if "faults" in self.features:
            # Recovery requeues bypass admission control on purpose (the
            # tickets were already admitted): between two reconciles a
            # shard can hold a full queue plus one reconciled batch plus
            # a few queue_loss singles.
            bound += self.batch_size + 16
        if "splits" in self.features:
            # A flip sweep may concentrate several shards' requeued
            # tickets onto one new owner, so the bound scales with the
            # fleet: still finite, still catches unbounded growth.
            bound *= max(1, len(self.service.workers))
        return bound

    # ---------------------------------------------------------- transport

    @staticmethod
    def _columns(requests: List[object]) -> tuple:
        """The op, key and value columns of one call."""
        return ([request.op for request in requests],
                [request.key for request in requests],
                [request.value for request in requests])

    def _submit(self, requests: List[object]) -> List[tuple]:
        """Admit ``requests`` as one ``Service.submit`` call, the
        admission path the client and the front door use; each
        request's ``(run, row)``, in call order."""
        cells: List[tuple] = [None] * len(requests)  # type: ignore
        for run in self.service.submit(*self._columns(requests)):
            for row, offset in enumerate(run.offsets):
                cells[offset] = (run, row)
        return cells

    def _exchange(self, requests: List[object], call: bool = False) -> None:
        """Send ``requests``; each admitted one is applied to the oracle
        and owes the answer the oracle gives at its admission.

        In process a burst, one request included, is one ``submit``
        whose rows answer at a later pump; a row backpressure refused
        must carry a retry_after hint, and is dropped.  With ``call``,
        and for every op over the socket, the requests are one client
        call, which retries refusals itself and is checked when it
        returns.
        """
        from repro.service.protocol import REFUSED

        client = self.client or (self.caller if call else None)
        if client is not None:
            # The client's retrying batch walk itself, asked for the
            # Responses this check needs.
            responses = client._call(*self._columns(requests),
                                     responses=True)
            for request, response in zip(requests, responses):
                self._verify(response, request.op, self._admit(request))
            return
        for request, (run, row) in zip(requests, self._submit(requests)):
            if run.status[row] == REFUSED:
                _require((run.refused.retry_after or 0) >= 1,
                         "rejection without a retry_after hint")
                continue
            self.pending.append((run, row, request.op,
                                 self._admit(request)))

    def _admit(self, request) -> object:
        """Apply an admitted request to the oracle; the answer it owes."""
        op, key = request.op, request.key
        if op == "put":
            self.oracle.insert(key, request.value)
            if "similarity" in self.features:
                self.sigs[key] = self._signature(request.value)
                self.shard_of[key] = self.service.router.table.route_one(key)
            return None
        if op == "get":
            return self.oracle.get(key)
        if op == "contains":
            return self.oracle.contains(key)
        if op == "delete":
            self.sigs.pop(key, None)
            return self.oracle.delete(key)
        return self._expected_similar(key, int(request.value))

    def _verify(self, response, kind: str, expected) -> None:
        _require(
            response.ok,
            f"{kind} on shard {response.shard} answered "
            f"{response.status!r}: {response.error!r}",
        )
        if kind == "get":
            _require(
                response.value == expected,
                f"get -> {response.value!r}, oracle says {expected!r}",
            )
        elif kind == "contains":
            _require(
                bool(response.found) == expected,
                f"contains -> {response.found}, oracle says {expected}",
            )
        elif kind == "delete" and self.backend != "lsm":
            # LSM deletes are blind tombstones; tables report presence.
            _require(
                response.found == expected,
                f"delete -> {response.found}, oracle says {expected}",
            )
        elif kind == "similar":
            if expected is None:
                _require(
                    response.found is False and not response.neighbors,
                    f"similar on an unknown key answered found="
                    f"{response.found}, neighbors {response.neighbors!r}",
                )
                return
            _require(
                response.found is True,
                f"similar on a live key answered found={response.found}",
            )
            got = [(key, score) for key, score in (response.neighbors or ())]
            _require(
                got == expected,
                f"similar -> {got!r}, brute force says {expected!r}",
            )

    def _collect(self) -> None:
        from repro.service.protocol import PENDING

        still = []
        for entry in self.pending:
            run, row, kind, expected = entry
            if run.status[row] != PENDING:
                self._verify(run.response(row), kind, expected)
            else:
                still.append(entry)
        self.pending = still

    def _read_back(self, request, expected) -> None:
        """One final read, retried through backpressure, then checked."""
        from repro.service.protocol import REFUSED

        if self.client is not None:
            [response] = self.client._call(*self._columns([request]),
                                           responses=True)
        else:
            for _ in range(self.max_queue + 2):
                [(run, row)] = self._submit([request])
                if run.status[row] != REFUSED:
                    break
                self.service.pump()
            _require(run.status[row] != REFUSED,
                     f"final {request.op} starved by backpressure")
            self.service.drain()
            response = run.response(row)
        self._verify(response, request.op, expected)

    # ------------------------------------------------------- similarity

    def _signature(self, doc: bytes):
        from repro.similarity import BBitMinHash, shingle_bytes

        return BBitMinHash.from_items(
            self.hasher, shingle_bytes(doc, self.shingle_width),
            k=self.bands * self.rows, b=self.b, bands=self.bands,
        )

    @staticmethod
    def _shares_band(a, b) -> bool:
        for band in range(a.bands):
            lo, hi = band * a.rows, (band + 1) * a.rows
            if bool((a.bits[lo:hi] == b.bits[lo:hi]).all()):
                return True
        return False

    def _expected_similar(self, key: bytes, k: int):
        """Brute-force top-k at admission; None when key is unknown."""
        if not self.oracle.contains(key):
            return None
        sig = self.sigs[key]
        shard = self.shard_of[key]
        scored = []
        for other, other_sig in self.sigs.items():
            if other == key or self.shard_of[other] != shard:
                continue
            if not self._shares_band(sig, other_sig):
                continue
            scored.append((other, sig.jaccard(other_sig)))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[: max(0, k)]

    # ------------------------------------------------------------ drift

    def _drifted(self, op: Op) -> Op:
        """``op`` with its keys rewritten through every drift layer.

        First gives each shard one ``drift`` firing opportunity, latched
        as a layer against the plan deployed *right now* (after a swap,
        a second drift defeats the re-learned plan, not the original).
        """
        from repro.drift.keys import drift_key

        fired = False
        for shard in range(self.service.num_shards):
            if self.plane.should_fire("drift", shard):
                fired = True
        if fired and len(self.drift_layers) < self.MAX_DRIFT_LAYERS:
            plan, _ = self.service.relearner._current_plan()
            # Full-key serving has nothing to drift away from.
            if plan is not None and not plan.is_full_key:
                self.drift_layers.append(
                    (list(plan.positions), plan.word_size)
                )
        if not self.drift_layers:
            return op

        def rewrite(encoded: str) -> str:
            key = decode_key(encoded)
            for positions, word_size in self.drift_layers:
                key = drift_key(key, positions, word_size=word_size)
            return opslib.encode_key(key)

        op = dict(op)
        if "keys" in op:
            op["keys"] = [rewrite(encoded) for encoded in op["keys"]]
        else:
            op["key"] = rewrite(op["key"])
        return op

    # ------------------------------------------------------------ apply

    def _settle(self) -> None:
        """Pump through a full heal window: enough for the supervisor to
        restart crashed/stalled workers and for a first-trip breaker to
        walk cooldown -> probe -> close."""
        for _ in range(2 * (self.cooldown + self.probe) + 8):
            self.service.pump()
        self._collect()

    def _split(self, shard: int, racing: List[object]) -> None:
        """Split ``shard`` (mod the fleet) unless the case's cap is hit.

        In process the ``racing`` puts are one client call and the split
        runs between its rounds (after it, when nothing was refused), so
        the rows it holds come back under a retired generation.  Over
        the socket the split is scheduled onto the loop thread while the
        racing puts are in flight, so the flip's queue sweep races real
        admission rounds.
        """
        if self.service.splits >= self.max_splits:
            self._exchange(racing, call=True)
            return
        donor = shard % self.service.num_shards
        if self.client is None:
            plain = self.caller.transport
            self.caller.transport = flip = _SplitBetweenRounds(
                plain, self.service, donor)
            try:
                self._exchange(racing, call=True)
            finally:
                self.caller.transport = plain
            if flip.donor is not None:
                self.service.split_shard(donor)
            return
        thread = threading.Thread(target=self.door.run_in_loop,
                                  args=(self.service.split_shard, donor))
        thread.start()
        try:
            self._exchange(racing)
        finally:
            thread.join()

    def _check_placement(self, journal: bool = False) -> None:
        """Every queued row (and, with ``journal``, every journaled
        key) sits on the shard the live table routes its key to.  Over
        the socket the check runs on the loop thread, between pumps."""
        from repro.verify.placement import misplaced

        if self.door is None:
            rows, keys = misplaced(self.service, journal)
        else:
            rows, keys = self.door.run_in_loop(misplaced, self.service,
                                               journal)
        if rows:
            raise Divergence(
                f"{len(rows)} queued row(s) on a shard their key does "
                f"not route to, e.g. (shard, key) {rows[0]!r}: a routing "
                "flip left them unswept"
            )
        if keys:
            raise Divergence(
                f"{len(keys)} journal key(s) on a shard they do not route "
                f"to, e.g. (shard, key) {keys[0]!r}: a migration missed "
                "them"
            )

    def _check_stats(self) -> None:
        import json

        from repro.service import Request
        from repro.service.protocol import PENDING

        if self.client is not None:
            stats = self.client.stats()
        else:
            [(run, row)] = self._submit([Request("stats")])
            _require(run.status[row] != PENDING,
                     "stats must answer synchronously")
            stats = run.response(row).stats
        json.dumps(stats)  # the protocol promises JSON-safe stats
        _require(
            self.client is None or "frontdoor" in stats,
            "stats over the wire must carry the frontdoor counters",
        )
        _require(
            stats["submitted"] == stats["accepted"] + stats["rejected"],
            f"admission ledger broke: {stats['submitted']} != "
            f"{stats['accepted']} + {stats['rejected']}",
        )

    def apply(self, op: Op) -> None:
        from repro.service import Request

        name = op["op"]
        need = self._OP_FEATURE.get(name)
        if ((need is not None and need not in self.features)
                or (self.client is not None and name in self._IN_PROCESS_OPS)):
            raise ValueError(f"unknown {self.name} op {name!r}")
        if "drift" in self.features and ("key" in op or "keys" in op):
            op = self._drifted(op)
        # burst, call, multi_get and a racing split carry a key list; a
        # burst's values count up from ``v``.
        keys = [decode_key(encoded) for encoded in op.get("keys", ())]
        puts = [Request("put", key, b"v%d" % (int(op["v"]) + i))
                for i, key in enumerate(keys)] if "v" in op else []
        if name == "put":
            key = decode_key(op["key"])
            value = (bytes.fromhex(str(op["doc"])) if "doc" in op
                     else b"v%d" % int(op["v"]))
            self._exchange([Request("put", key, value)])
        elif name == "burst":
            self._exchange(puts)
        elif name == "call":
            verbs = {"p": "put", "g": "get", "d": "delete", "c": "contains"}
            self._exchange([
                request if code == "p" else Request(verbs[code], request.key)
                for code, request in zip(str(op["ops"]), puts)
            ], call=True)
        elif name in ("get", "contains", "delete"):
            self._exchange([Request(name, decode_key(op["key"]))])
        elif name == "multi_get":
            self._exchange([Request("get", key) for key in keys])
        elif name == "similar":
            self._exchange([Request("similar", decode_key(op["key"]),
                                 str(int(op["k"])).encode("ascii"))])
        elif name == "split":
            self._split(int(op["shard"]), puts)
        elif name == "inject":
            from repro.faults import FaultSpec

            self.plane.arm(FaultSpec(
                kind=str(op["kind"]),
                shard=int(op["shard"]) % self.service.num_shards,
                after=int(op.get("after", 0)),
                count=int(op.get("count", 1)),
            ))
        elif name == "settle":
            self._settle()
        elif name == "force_trip":
            self.service.force_trip(int(op["shard"]) % self.service.num_shards)
        elif name in ("pump", "drain"):
            getattr(self.service, name)()
        elif name == "stats":
            self._check_stats()
        else:
            raise ValueError(f"unknown {self.name} op {name!r}")
        self._collect()
        bound = self._queue_bound()
        for worker in self.service.workers:
            _require(
                worker.queue_depth <= bound,
                f"shard {worker.shard_id} queue grew to "
                f"{worker.queue_depth} past the bound {bound}",
            )
        self._check_placement()

    def final_check(self) -> None:
        from repro.service import Request

        features = self.features
        service = self.service
        if "faults" in features:
            # Give every armed fault a chance to land and heal first.
            self._settle()
        if self.client is None:
            service.drain()
            self._collect()
            _require(
                not self.pending,
                f"{len(self.pending)} admitted op(s) never answered "
                "after drain",
            )
            if any(worker.tripped for worker in service.workers):
                _require(service.degraded,
                         "a shard monitor tripped but no breaker opened")
            for worker, breaker in zip(service.workers, service.breakers):
                # An open breaker quarantines exactly its own shard: the
                # shard must be on full-key hashing while open.
                _require(
                    breaker.state != "open" or worker.tripped,
                    f"shard {worker.shard_id} breaker is open but the "
                    "shard still serves partial-key hashing",
                )
        # Every acknowledged write must still read back (across a
        # degrade/rebuild, restarts, splits and plan swaps), and every
        # live key's neighbour list must still match brute force.
        reads = [(Request("get", key), want)
                 for key, want in self.oracle.items()]
        reads += [(Request("similar", key, b"3"),
                   self._expected_similar(key, 3))
                  for key in sorted(self.sigs)]
        for request, want in reads:
            self._read_back(request, want)
        if "faults" in features:
            supervisor = service.supervisor.stats()
            # A sigkill is a crash with a harder delivery mechanism (real
            # SIGKILL for process shards, a mid-batch crash for inline
            # ones): both must surface as supervisor-visible crashes.
            crash_fired = (self.plane.total_fired("crash")
                           + self.plane.total_fired("sigkill"))
            _require(
                supervisor["crashes_seen"] == crash_fired,
                f"{crash_fired} crash/sigkill(s) fired but the supervisor "
                f"saw {supervisor['crashes_seen']}",
            )
            _require(
                supervisor["restarts"] >= supervisor["crashes_seen"],
                "a detected crash never led to a restart",
            )
            for worker in service.workers:
                _require(
                    not worker.crashed,
                    f"shard {worker.shard_id} was left dead after the "
                    "final drain answered every ticket",
                )
            _require(
                service.lost_slots
                <= service.supervisor.reconciled_tickets
                + sum(w.inflight_unanswered for w in service.workers),
                "queue_loss tickets vanished without reconciliation",
            )
        if "splits" in features:
            router = service.router
            _require(
                router.generation >= service.splits,
                f"{service.splits} split(s) flipped but the generation "
                f"is only {router.generation}",
            )
            _require(
                len(service.workers) == router.num_shards
                == len(service.breakers),
                "worker/breaker fleets out of step with the routing table",
            )
        self._check_placement(journal=True)
        if "drift" in features:
            relearner = service.relearner
            _require(
                service.plan_swaps == relearner.swaps,
                f"swap ledgers disagree: service={service.plan_swaps}, "
                f"relearner={relearner.swaps}",
            )
            stats = relearner.stats()
            decisions = (
                stats["swaps"] + stats["stay_decisions"]
                + stats["noop_suppressed"] + stats["dwell_suppressed"]
                + stats["insufficient_sample"] + stats["relearn_failures"]
            )
            # A drift fired and the guaranteed keyed tail kept flowing:
            # a silent detector means the tap or the window math broke.
            _require(
                not self.drift_layers or decisions > 0,
                "workload drifted but the relearner never reached a "
                "decision",
            )
        if self.caller is not None:
            _require(
                self.caller.lost_acks == 0,
                f"{self.caller.lost_acks} acked put(s) lost in process",
            )
        if "socket" in features:
            _require(
                self.client.lost_acks == 0,
                f"{self.client.lost_acks} acked put(s) lost over the wire",
            )
            frontdoor = self.client.stats()["frontdoor"]
            _require(
                not frontdoor["admission_error"],
                f"admission loop died: {frontdoor['admission_error']}",
            )
            _require(
                frontdoor["bad_frames"] == 0,
                f"{frontdoor['bad_frames']} well-formed frame(s) judged bad",
            )


# Preset name -> features; the name is the only selector (see
# ServingTarget for what each feature adds).
SERVING_PRESETS: Dict[str, frozenset] = {
    "service": frozenset(),
    "chaos": frozenset({"faults"}),
    "reshard": frozenset({"faults", "splits"}),
    "drift": frozenset({"faults", "drift"}),
    "frontdoor": frozenset({"socket", "splits"}),
    "similarity": frozenset({"similarity"}),
}


TARGETS: Dict[str, Type[Target]] = {
    cls.name: cls
    for cls in (
        ChainingTarget,
        ProbingTarget,
        CuckooTableTarget,
        BloomTarget,
        CountingBloomTarget,
        CuckooFilterTarget,
        HyperLogLogTarget,
        CountMinTarget,
        MinHashTarget,
        LSMStoreTarget,
        EngineTarget,
        ReducerTarget,
    )
}
TARGETS.update(
    (name, type(f"ServingTarget[{name}]", (ServingTarget,),
                {"name": name, "features": features}))
    for name, features in SERVING_PRESETS.items()
)


__all__ = ["Divergence", "ServingTarget", "SERVING_PRESETS", "Target",
           "TARGETS", "build_hasher", "random_hasher_spec"]
