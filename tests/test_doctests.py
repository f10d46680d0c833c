"""Run the library's docstring examples as tests.

Every public-API docstring example must actually work; this keeps the
documentation honest as the code evolves.
"""

import doctest

import pytest

import repro._util
import repro.bench.reporting
import repro.core.entropy
import repro.core.greedy
import repro.core.hasher
import repro.core.partial_key
import repro.core.persist
import repro.core.sizing
import repro.core.trainer
import repro.datasets.profiles
import repro.datasets.synthetic
import repro.engine.engine
import repro.engine.monitor
import repro.engine.plan
import repro.engine.reducers
import repro.engine.stats
import repro.filters.aware
import repro.filters.blocked
import repro.filters.bloom
import repro.filters.counting
import repro.filters.cuckoo
import repro.filters.reduction
import repro.hashing.clhash
import repro.hashing.crc
import repro.hashing.fnv
import repro.hashing.multiply_shift
import repro.hashing.quality
import repro.hashing.siphash
import repro.hashing.streaming
import repro.hashing.tabulation
import repro.hashing.vectorized
import repro.hashing.wyhash
import repro.hashing.xxhash
import repro.kvstore.memtable
import repro.kvstore.store
import repro.metrics
import repro.operators.aggregate
import repro.operators.join
import repro.operators.topk
import repro.partitioning.balance
import repro.partitioning.partitioner
import repro.simulation.montecarlo
import repro.sketches.countmin
import repro.sketches.hyperloglog
import repro.sketches.minhash
import repro.tables.chaining
import repro.tables.cuckoo
import repro.tables.probing
import repro.workloads.ycsb

MODULES = [
    repro._util,
    repro.bench.reporting,
    repro.core.entropy,
    repro.core.greedy,
    repro.core.hasher,
    repro.core.partial_key,
    repro.core.persist,
    repro.core.sizing,
    repro.core.trainer,
    repro.datasets.profiles,
    repro.datasets.synthetic,
    repro.engine.engine,
    repro.engine.monitor,
    repro.engine.plan,
    repro.engine.reducers,
    repro.engine.stats,
    repro.filters.aware,
    repro.filters.blocked,
    repro.filters.bloom,
    repro.filters.counting,
    repro.filters.cuckoo,
    repro.filters.reduction,
    repro.hashing.clhash,
    repro.hashing.crc,
    repro.hashing.fnv,
    repro.hashing.multiply_shift,
    repro.hashing.quality,
    repro.hashing.siphash,
    repro.hashing.streaming,
    repro.hashing.tabulation,
    repro.hashing.vectorized,
    repro.hashing.wyhash,
    repro.hashing.xxhash,
    repro.kvstore.memtable,
    repro.kvstore.store,
    repro.metrics,
    repro.operators.aggregate,
    repro.operators.join,
    repro.operators.topk,
    repro.partitioning.balance,
    repro.partitioning.partitioner,
    repro.simulation.montecarlo,
    repro.sketches.countmin,
    repro.sketches.hyperloglog,
    repro.sketches.minhash,
    repro.tables.chaining,
    repro.tables.cuckoo,
    repro.tables.probing,
    repro.workloads.ycsb,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, (
        f"{result.failed} doctest failure(s) in {module.__name__}"
    )
