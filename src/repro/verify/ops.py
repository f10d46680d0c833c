"""Deterministic op-sequence generation and repro serialization.

An *op* is one JSON-serializable dict — ``{"op": "insert", "key":
"6b2d31", "v": 3}`` — carrying every piece of randomness inline (keys
are hex-encoded bytes), so a saved op list replays bit-identically with
no generator state.  The generators below draw ops from per-family
menus over an adversarial key pool:

* a small structured space (forces repeats, overwrites, deletes of
  live keys);
* keys *shorter* than the partial key's cutoff (the engine's short-key
  full-hash branch);
* groups of keys identical at the learned byte positions (partial-key
  collisions — the monitor/fallback trigger);
* random binary keys of varied length.

Fault-injection ops (``fall_back``, ``clear_plans``) ride in the same
stream: a forced full-key fallback or plan-cache invalidation
mid-sequence must never change any answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.engine import _PACK_CHUNK


Op = Dict[str, object]


# --------------------------------------------------------------- keys


def encode_key(key: bytes) -> str:
    return key.hex()


def decode_key(text: str) -> bytes:
    return bytes.fromhex(text)


def make_key_pool(rng: random.Random, size: int = 96) -> List[bytes]:
    """An adversarial mix of keys (see module docstring)."""
    pool: List[bytes] = []
    # Small structured space: repeats and delete-then-reinsert churn.
    pool.extend(b"key-%04d" % i for i in range(size // 3))
    # Shorter than any realistic partial-key cutoff.
    pool.extend([b"", b"a", b"xy", b"abc", b"abcd"])
    # Identical at bytes [0:2] and [4:6] (the fuzz hashers' learned
    # positions) but distinct elsewhere: pure partial-key collisions.
    for i in range(size // 6):
        pool.append(b"ZZ" + (b"%02d" % (i % 100)) + b"QQ-tail%d" % i)
    # Random binary keys, varied length (including > 64 bytes).
    for _ in range(size // 3):
        n = rng.randrange(0, 72)
        pool.append(bytes(rng.randrange(256) for _ in range(n)))
    return pool


def pick_key(rng: random.Random, pool: Sequence[bytes]) -> bytes:
    return pool[rng.randrange(len(pool))]


def pick_keys(
    rng: random.Random, pool: Sequence[bytes], low: int = 1, high: int = 12
) -> List[bytes]:
    n = rng.randrange(low, high + 1)
    keys = [pick_key(rng, pool) for _ in range(n)]
    if n >= 3 and rng.random() < 0.5:
        # Duplicate-heavy batches: the historical over-growth trigger.
        keys.extend(keys[: rng.randrange(1, n)])
    return keys


# ---------------------------------------------------------- generators


def _keyed(op: str, key: bytes, **extra: object) -> Op:
    out: Op = {"op": op, "key": encode_key(key)}
    out.update(extra)
    return out


def _batch(op: str, keys: Sequence[bytes], **extra: object) -> Op:
    out: Op = {"op": op, "keys": [encode_key(k) for k in keys]}
    out.update(extra)
    return out


def generate_table_ops(rng: random.Random, n: int) -> List[Op]:
    """insert/get/delete/batch interleavings with fault injections."""
    pool = make_key_pool(rng)
    ops: List[Op] = []
    counter = 0
    for _ in range(n):
        roll = rng.random()
        if roll < 0.30:
            counter += 1
            ops.append(_keyed("insert", pick_key(rng, pool), v=counter))
        elif roll < 0.45:
            ops.append(_keyed("get", pick_key(rng, pool)))
        elif roll < 0.60:
            ops.append(_keyed("delete", pick_key(rng, pool)))
        elif roll < 0.72:
            keys = pick_keys(rng, pool)
            counter += len(keys)
            values = list(range(counter, counter + len(keys)))
            ops.append(_batch("insert_batch", keys, values=values,
                              carried=rng.random() < 0.5))
        elif roll < 0.86:
            # Half the batches reach 320 keys, past the probing
            # table's vectorized-round threshold; half stay small.
            high = rng.choice((16, 320))
            ops.append(_batch("probe_batch", pick_keys(rng, pool, 1, high)))
        elif roll < 0.92:
            ops.append({"op": "check_items"})
        elif roll < 0.96:
            ops.append({"op": "clear_plans"})
        else:
            ops.append({"op": "fall_back"})
    ops.append({"op": "check_items"})
    return ops


def generate_filter_ops(rng: random.Random, n: int, removes: bool) -> List[Op]:
    """add/contains/batch (and remove, for deletable filters)."""
    pool = make_key_pool(rng, size=60)
    ops: List[Op] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.30:
            ops.append(_keyed("add", pick_key(rng, pool)))
        elif roll < 0.45:
            ops.append(_batch("add_batch", pick_keys(rng, pool)))
        elif roll < 0.62:
            ops.append(_keyed("contains", pick_key(rng, pool)))
        elif roll < 0.74:
            ops.append(_batch("contains_batch", pick_keys(rng, pool, 1, 16)))
        elif roll < 0.92 and removes:
            ops.append(_keyed("remove", pick_key(rng, pool)))
        elif roll < 0.96:
            ops.append({"op": "check_members"})
        else:
            ops.append({"op": "clear_plans"})
    ops.append({"op": "check_members"})
    return ops


def generate_sketch_ops(rng: random.Random, n: int) -> List[Op]:
    """add/add_batch/estimate checks for frequency/cardinality sketches."""
    pool = make_key_pool(rng, size=120)
    ops: List[Op] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.35:
            ops.append(_keyed("add", pick_key(rng, pool)))
        elif roll < 0.70:
            ops.append(_batch("add_batch", pick_keys(rng, pool, 1, 24)))
        elif roll < 0.90:
            ops.append(_keyed("estimate", pick_key(rng, pool)))
        else:
            ops.append({"op": "check_state"})
    ops.append({"op": "check_state"})
    return ops


def generate_store_ops(rng: random.Random, n: int) -> List[Op]:
    """put/get/delete/multi_get/scan with flush/compact interleavings."""
    pool = make_key_pool(rng, size=72)
    ops: List[Op] = []
    counter = 0
    for _ in range(n):
        roll = rng.random()
        if roll < 0.32:
            counter += 1
            ops.append(_keyed("put", pick_key(rng, pool), v=counter))
        elif roll < 0.48:
            ops.append(_keyed("get", pick_key(rng, pool)))
        elif roll < 0.60:
            ops.append(_keyed("delete", pick_key(rng, pool)))
        elif roll < 0.72:
            ops.append(_batch("multi_get", pick_keys(rng, pool, 1, 16)))
        elif roll < 0.80:
            lo, hi = sorted((pick_key(rng, pool), pick_key(rng, pool)))
            ops.append({"op": "scan", "start": encode_key(lo), "end": encode_key(hi)})
        elif roll < 0.88:
            ops.append({"op": "flush"})
        elif roll < 0.94:
            ops.append({"op": "compact"})
        else:
            ops.append({"op": "check_items"})
    ops.append({"op": "check_items"})
    return ops


@dataclass(frozen=True)
class ServingMenu:
    """One serving preset's op mix for :func:`generate_serving_ops`.

    ``rolls`` maps a uniform roll to an op kind: the first ``(ceiling,
    kind)`` pair with ``roll < ceiling`` wins, and the last ceiling is
    1.0.  ``pool`` sizes :func:`make_key_pool` (0 picks the fixed
    :func:`make_drift_key_pool`), ``burst`` bounds the keys of a
    ``burst`` or ``multi_get``, ``faults`` and ``fault_counts`` are the
    ``inject`` kinds and count range, and ``tail`` is the guaranteed
    ending — the step the preset exists for.
    """

    rolls: Tuple[Tuple[float, str], ...]
    tail: Tuple[str, ...]
    pool: int = 48
    burst: Tuple[int, int] = (2, 10)
    faults: Tuple[str, ...] = ()
    fault_counts: Tuple[int, int] = (1, 4)


_FAULT_KINDS = ("crash", "sigkill", "stall", "drop", "corrupt", "queue_loss")

# Op kinds, beyond the service verbs and the bare pump/drain/stats:
# ``burst`` is a run of puts submitted with no pumping in between (tiny
# queues overflow, so the reject-do-not-apply path runs); ``call`` is a
# burst of mixed verbs (``ops`` names each row's: put, get, delete or
# contains) walked to its answers by the retrying client, so refused
# rows are held and admitted again; ``force_trip``
# drives one shard's monitor over budget mid-stream; ``inject`` arms one
# fault spec — as an op, so ddmin can strip faults one at a time and
# tell a fault-dependent bug from a fault-independent one; ``settle``
# pumps through a heal window, so a case exercises recovery and not just
# the crash; ``drift`` arms a workload drift, after which the target
# rewrites every key so the bytes the deployed plan reads go constant;
# ``race`` is a split that carries its own write burst, so the target
# can race the burst against the routing flip; ``doc`` is a put
# whose value is a sentence over a small shared vocabulary
# (near-duplicate documents give ``similar`` non-trivial answers).
# Shard indices are drawn from ``range(8)`` and reduced modulo the live
# fleet by the target.  Fault counts stay small: every armed fault must
# be able to exhaust within the case, or termination checks would test
# the schedule rather than the healing machinery.
SERVING_MENUS: Dict[str, ServingMenu] = {
    "service": ServingMenu(
        rolls=((0.24, "put"), (0.42, "get"), (0.52, "delete"),
               (0.64, "contains"), (0.70, "burst"), (0.76, "call"),
               (0.88, "pump"), (0.92, "drain"), (0.96, "stats"),
               (1.0, "force_trip")),
        tail=("drain",), pool=72, burst=(2, 12),
    ),
    "chaos": ServingMenu(
        rolls=((0.26, "put"), (0.40, "get"), (0.48, "delete"),
               (0.56, "contains"), (0.61, "burst"), (0.66, "call"),
               (0.78, "pump"), (0.82, "drain"), (0.86, "stats"),
               (0.94, "inject"), (1.0, "settle")),
        tail=("settle", "drain"), faults=_FAULT_KINDS,
    ),
    # At least one split per case: the preset exists to cross a flip.
    "reshard": ServingMenu(
        rolls=((0.24, "put"), (0.38, "get"), (0.46, "delete"),
               (0.54, "contains"), (0.58, "burst"), (0.62, "call"),
               (0.72, "pump"), (0.76, "drain"), (0.80, "stats"),
               (0.87, "inject"), (0.90, "split"), (0.93, "race"),
               (1.0, "settle")),
        tail=("split", "settle", "drain"), faults=_FAULT_KINDS,
    ),
    # Every case crosses at least one drift + swap window (see
    # ``drift_window`` in generate_serving_ops).
    "drift": ServingMenu(
        rolls=((0.26, "put"), (0.40, "get"), (0.46, "delete"),
               (0.52, "contains"), (0.62, "burst"), (0.74, "pump"),
               (0.78, "drain"), (0.82, "stats"), (0.88, "inject"),
               (0.92, "drift"), (1.0, "settle")),
        tail=("drift_window", "settle", "drain"), pool=0,
        faults=tuple(k for k in _FAULT_KINDS if k != "sigkill"),
        fault_counts=(1, 3),
    ),
    # At least one racing split per case, then a read of the pool head:
    # crossing a flip through the socket is what the preset exists for.
    "frontdoor": ServingMenu(
        rolls=((0.24, "put"), (0.42, "get"), (0.52, "delete"),
               (0.62, "contains"), (0.74, "burst"), (0.80, "call"),
               (0.86, "multi_get"), (0.93, "stats"), (1.0, "race")),
        tail=("race", "read_head"), burst=(2, 12),
    ),
    "similarity": ServingMenu(
        rolls=((0.30, "doc"), (0.48, "similar"), (0.60, "get"),
               (0.70, "delete"), (0.80, "contains"), (0.90, "pump"),
               (0.96, "drain"), (1.0, "stats")),
        tail=("drain",),
    ),
}

_VOCAB = (b"alpha", b"bravo", b"charlie", b"delta", b"echo", b"fox",
          b"golf", b"hotel", b"india", b"juliet", b"kilo", b"lima")


def make_drift_key_pool(size: int = 64) -> List[bytes]:
    """The drift preset's key population: fixed-length, fixed-structure.

    Every key is ``user-`` + 16 deterministic hex chars + ``-suffix``:
    all the entropy lives in bytes [5, 21), so a trained model deploys
    a partial key over that span and a :func:`repro.drift.keys.drift_key`
    rewrite of those positions genuinely defeats the plan.  The pool is
    a pure function of ``size`` (no RNG): the target must be able to
    rebuild it from config alone to train its model, while the op
    stream only records which pool keys it picked.
    """
    import hashlib

    return [
        b"user-"
        + hashlib.sha256(b"drift-pool-%d" % i).hexdigest()[:16].encode()
        + b"-sfx"
        for i in range(size)
    ]


def generate_serving_ops(preset: str, rng: random.Random, n: int) -> List[Op]:
    """Service protocol streams for one serving preset's menu.

    ``n`` rolls against ``SERVING_MENUS[preset].rolls``, then the
    preset's guaranteed tail.  The expected answer for every admitted op
    is computed by the target against its oracle at admission time, so
    the stream itself carries no expectations.
    """
    menu = SERVING_MENUS[preset]
    pool = (make_key_pool(rng, size=menu.pool) if menu.pool
            else make_drift_key_pool())
    ops: List[Op] = []
    counter = 0

    def emit(kind: str) -> None:
        nonlocal counter
        if kind == "put":
            counter += 1
            ops.append(_keyed("put", pick_key(rng, pool), v=counter))
        elif kind in ("get", "delete", "contains"):
            ops.append(_keyed(kind, pick_key(rng, pool)))
        elif kind == "burst":
            keys = pick_keys(rng, pool, *menu.burst)
            counter += len(keys)
            ops.append(_batch("burst", keys, v=counter))
        elif kind == "call":
            keys = pick_keys(rng, pool, *menu.burst)
            if rng.random() < 0.5:
                # A key written twice in a row: one shard's run holds
                # both writes, and a refusal can cut between them.
                i = rng.randrange(len(keys))
                keys.insert(i + 1, keys[i])
            counter += len(keys)
            ops.append(_batch("call", keys, v=counter, ops="".join(
                rng.choice("ppgdc") for _ in keys)))
        elif kind == "multi_get":
            ops.append(_batch("multi_get", pick_keys(rng, pool, *menu.burst)))
        elif kind == "race":
            keys = pick_keys(rng, pool, 3, 10)
            counter += len(keys)
            ops.append(_batch("split", keys, v=counter,
                              shard=rng.randrange(8)))
        elif kind in ("split", "force_trip"):
            ops.append({"op": kind, "shard": rng.randrange(8)})
        elif kind == "inject":
            ops.append({
                "op": "inject",
                "kind": rng.choice(menu.faults),
                "shard": rng.randrange(8),
                "after": rng.randrange(4),
                "count": rng.randrange(*menu.fault_counts),
            })
        elif kind == "drift":
            ops.append({"op": "inject", "kind": "drift",
                        "shard": rng.randrange(8),
                        "after": rng.randrange(3), "count": 1})
        elif kind == "drift_window":
            # Inject a drift, then stream enough keyed traffic (with
            # pump interleave) to fill the detector window and trip it.
            ops.append({"op": "inject", "kind": "drift", "shard": 0,
                        "count": 1})
            for i in range(48):
                emit("put")
                if i % 4 == 3:
                    ops.append({"op": "pump"})
        elif kind == "read_head":
            ops.append(_batch("multi_get", pool[:16]))
        elif kind == "doc":
            key = pick_key(rng, pool)
            words = [_VOCAB[rng.randrange(len(_VOCAB))]
                     for _ in range(rng.randrange(3, 9))]
            ops.append(_keyed("put", key, doc=b" ".join(words).hex()))
        elif kind == "similar":
            ops.append(_keyed("similar", pick_key(rng, pool),
                              k=rng.randrange(0, 6)))
        else:  # pump, drain, stats, settle
            ops.append({"op": kind})

    for _ in range(n):
        roll = rng.random()
        emit(next(kind for ceiling, kind in menu.rolls if roll < ceiling))
    for kind in menu.tail:
        emit(kind)
    return ops


def generate_engine_ops(rng: random.Random, n: int) -> List[Op]:
    """hash_batch/hash_one parity under plan churn and forced fallback."""
    pool = make_key_pool(rng)
    ops: List[Op] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45:
            seed = rng.randrange(4) if rng.random() < 0.3 else None
            if rng.random() < 0.04:
                # One or two chunks, give or take a few keys: the plan
                # pass's chunk boundaries meet the reference too.
                size = rng.choice((1, 2)) * _PACK_CHUNK + rng.randrange(-3, 4)
                keys = [pick_key(rng, pool) for _ in range(size)]
            else:
                # 1-64 keys straddles every base's SCALAR_CUTOVER, so both
                # the scalar loop and the numpy plans meet the reference.
                keys = pick_keys(rng, pool, 1, 64)
            ops.append(_batch("hash_batch", keys, seed=seed))
        elif roll < 0.70:
            ops.append(_keyed("hash_one", pick_key(rng, pool)))
        elif roll < 0.85:
            ops.append({"op": "clear_plans"})
        elif roll < 0.95:
            ops.append({"op": "monitor_fall_back"})
        else:
            ops.append({"op": "check_stats"})
    return ops


def generate_reducer_ops(rng: random.Random, n: int) -> List[Op]:
    """Batch-vs-scalar reducer parity over adversarial 64-bit values.

    Random uint64s almost never land on the boundary cases that break
    float-based reductions, so every op mixes in crafted values: all-ones
    suffixes (``2^k - 1``), exact powers of two, and the extremes.
    """
    kinds = ("index_rank", "slot_tag", "mask", "bloom_split",
             "block_mask", "fingerprint", "fast_range")
    ops: List[Op] = []
    for _ in range(n):
        kind = kinds[rng.randrange(len(kinds))]
        hashes = [rng.randrange(1 << 64) for _ in range(8)]
        for _ in range(6):
            k = rng.randrange(1, 64)
            top = rng.randrange(1 << 8) << 56
            hashes.append((top | ((1 << k) - 1)) & ((1 << 64) - 1))
            hashes.append(1 << k)
        hashes.extend([0, (1 << 64) - 1])
        op: Op = {"op": "reduce", "kind": kind, "hashes": hashes}
        if kind == "index_rank":
            op["precision"] = rng.choice((4, 6, 8, 10, 12, 14, 16))
        elif kind in ("mask", "slot_tag"):
            op["mask"] = (1 << rng.randrange(1, 16)) - 1
        elif kind == "fast_range":
            op["n"] = rng.randrange(1, 1 << 20)
        elif kind == "block_mask":
            op["num_blocks"] = rng.randrange(1, 4096)
            op["num_probe_bits"] = rng.randrange(1, 9)
        elif kind == "fingerprint":
            op["fp_bits"] = rng.choice((4, 8, 12, 16, 24, 32))
            op["bucket_bits"] = rng.randrange(1, 16)
        ops.append(op)
    return ops


def generate_minhash_ops(rng: random.Random, n: int) -> List[Op]:
    """Signature construction vs reference scalar minima."""
    pool = make_key_pool(rng, size=60)
    ops: List[Op] = []
    for _ in range(max(2, n // 12)):  # each op hashes k x items: keep few
        items = list({pick_key(rng, pool) for _ in range(rng.randrange(2, 14))})
        if not items:
            items = [b"solo"]
        ops.append(_batch("signature", items, k=rng.choice((4, 8, 16))))
    return ops


# ------------------------------------------------------------- repros


def save_repro(path, repro: Dict[str, object]) -> None:
    Path(path).write_text(json.dumps(repro, indent=2, sort_keys=True) + "\n")


def load_repro(path) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


__all__ = [
    "Op",
    "encode_key",
    "decode_key",
    "make_key_pool",
    "generate_table_ops",
    "generate_filter_ops",
    "generate_sketch_ops",
    "generate_store_ops",
    "SERVING_MENUS",
    "ServingMenu",
    "generate_serving_ops",
    "make_drift_key_pool",
    "generate_engine_ops",
    "generate_reducer_ops",
    "generate_minhash_ops",
    "save_repro",
    "load_repro",
]
