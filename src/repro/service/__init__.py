"""`repro.service` — a sharded, batched, self-healing serving layer.

The serving story in one paragraph: a :class:`ShardRouter` assigns each
key to a shard with the fleet's learned hasher (one engine pass,
balance monitored against the paper's relative bound), and that hash
is the only one the key gets: it rides the request's run into the
shard, whose table probes and inserts from it while its plan is the
router's; per-shard :class:`Worker`s own one structure each and drain
bounded queues of row ranges in micro-batches down the structures'
batch paths (a call's rows travel as columns, one run per shard); the
:class:`Service` front door speaks a small typed protocol
(get/put/delete/contains/stats) with explicit backpressure.  Since PR 5
the layer is fault-tolerant: every acked mutation lands in a per-shard
:class:`ShardJournal`, a :class:`Supervisor` restarts crashed or
stalled workers from their journals and requeues tickets that fell out
of the pipeline, and a monitor trip opens only that shard's
:class:`CircuitBreaker` — the shard serves full-key through a cooldown,
probes its way back to partial-key hashing, and its siblings never stop
using the entropy-learned fast path.  :class:`ServiceClient` wraps it
all in plain blocking calls with bounded waiting (capped per-round
backoff and deadlines) for in-process use, load generation, and tests.

*Where* a shard executes is pluggable: the worker shell (queue,
tickets, journal, fault hooks) delegates structure work to an
:class:`ExecutionBackend` — :class:`InlineBackend` keeps the original
cooperative single-interpreter pump as the differential-fuzzer
reference, :class:`ProcessBackend` runs one OS process per shard over
bounded ``multiprocessing`` queues and one shared heartbeat word per
shard, so N shards use N cores and a real ``kill -9`` is just another
recoverable crash.  Both speak one shard protocol: the worker builds a
batch's wire segments once, :meth:`ShardCore.serve_batch` serves them
up to an injected crash point, one worker method acks the served
prefix, and every other shard verb (degraded-mode moves, rearm,
migration apply, stats) is one ``control(name, arg)`` call — a shard
child handles only ``batch``, ``ctl`` and ``stop``.

Since PR 7 the route itself is versioned: the router is a facade over a
generation-stamped :class:`RoutingTable` (pinned base hash + hot-key
overlay + split map).  A :class:`HotKeyTracker` (Count-Min sketch)
detects heavy hitters online so the supervisor's adapt pass can pin
them to least-loaded shards, and overloaded shards can be split live —
journal-replay migration, generation flip, queue sweep.  The sweep, and
the supervisor's re-route of recovered rows, are the only code that
places a row after admission, so every row is served by the shard its
key routes to under the live table.
"""

from repro.service.adapters import BACKENDS, AdapterSpec
from repro.service.backends import (
    EXECUTIONS,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    fork_available,
)
from repro.service.breaker import CircuitBreaker
from repro.service.client import (
    DeadlineExceededError,
    NetworkClient,
    NetworkRequestError,
    ServiceClient,
    ServiceDrainingError,
    ServiceOverloadedError,
    run_service_workload,
)
from repro.service.core import ShardCore
from repro.service.frontdoor import FrontDoor, FrontDoorThread
from repro.service.hotkeys import HotKeyTracker
from repro.service.journal import ShardJournal
from repro.service.protocol import (
    FAILED,
    OK,
    OPS,
    REJECTED,
    Request,
    Response,
)
from repro.service.router import ShardRouter
from repro.service.routing import RoutingTable
from repro.service.service import Service
from repro.service.supervisor import Supervisor
from repro.service.worker import Worker

__all__ = [
    "AdapterSpec",
    "BACKENDS",
    "CircuitBreaker",
    "EXECUTIONS",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "ShardCore",
    "fork_available",
    "DeadlineExceededError",
    "FAILED",
    "FrontDoor",
    "FrontDoorThread",
    "HotKeyTracker",
    "NetworkClient",
    "NetworkRequestError",
    "OK",
    "OPS",
    "REJECTED",
    "Request",
    "Response",
    "RoutingTable",
    "Service",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceOverloadedError",
    "ShardJournal",
    "ShardRouter",
    "Supervisor",
    "Worker",
    "run_service_workload",
]
