"""Typed request/response protocol for the serving layer.

The protocol is deliberately tiny — five operations, three statuses —
and every field is JSON-safe, so a request log can be replayed and a
response can be serialized straight onto a wire later without a schema
change.

Admission is columnar: :meth:`~repro.service.service.Service.submit`
takes one call's ops, keys and values as columns and returns one
:class:`Run` per shard, whose status and answer columns fill in as the
shards drain their queues (at once, for refusals and ``stats``).  The
shard queues hold :class:`Rows` — row ranges of runs — and a
:class:`Response` is built only when a row's answer is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

# The complete operation vocabulary.  ``stats`` is answered by the
# service front door; the rest are routed to a shard.  ``similar`` is
# served by the similarity backend only: the request key names the
# item, the value carries the neighbor count k as ASCII decimal.
OPS = ("get", "put", "delete", "contains", "similar", "stats")
VALUED = ("put", "similar")   # the ops whose rows carry a value

# Response statuses.
OK = "ok"
REJECTED = "rejected"      # backpressure: queue full, retry later
FAILED = "failed"          # the shard could not serve it (unsupported op)


class _RequestFields(NamedTuple):
    op: str
    key: bytes = b""
    value: bytes = b""


_new_tuple = tuple.__new__


class Request(_RequestFields):
    """One operation against the service.

    An immutable, hashable ``(op, key, value)`` named tuple, checked at
    construction: the differential fuzzer builds its ops with it.
    """

    __slots__ = ()

    def __new__(cls, op: str, key: bytes = b"", value: bytes = b""):
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}; choose from {OPS}")
        return _new_tuple(cls, (op, key, value))


@dataclass
class Response:
    """The outcome of one request.

    ``retry_after`` is only set on rejections: the number of service
    pumps after which the queue is guaranteed to have drained enough to
    accept the retry (explicit backpressure, never silent queuing).
    """

    status: str
    value: Optional[bytes] = None
    found: Optional[bool] = None
    shard: Optional[int] = None
    retry_after: Optional[int] = None
    error: Optional[str] = None
    stats: Optional[Dict[str, object]] = None
    # Set on OK answers to ``similar``: the top-k neighbors as
    # (item key, estimated Jaccard) pairs, best first.  ``found``
    # distinguishes an unknown query key (False, empty list) from a
    # known key with no neighbors (True, empty list).
    neighbors: Optional[List[Tuple[bytes, float]]] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


# Row states in a run's status column.
PENDING = 0   # not answered yet
ANSWERED = 1  # OK: the answer column holds the op's payload
REFUSED = 2   # refused at admission: the run's one refusal answers it
OTHER = 3     # the answer column holds the row's own Response


def ok_response(op: str, payload: object, shard: Optional[int]) -> Response:
    """The Response an OK row's payload stands for."""
    if op == "put":
        return Response(OK, shard=shard)
    if op == "get":
        return Response(OK, value=payload, found=payload is not None,
                        shard=shard)
    if op == "similar":
        return Response(OK, found=payload is not None, shard=shard,
                        neighbors=list(payload or ()))
    if op == "stats":
        return Response(OK, stats=payload)
    return Response(OK, found=payload, shard=shard)  # delete, contains


class Run:
    """One shard's rows of one call: request columns in, answer columns
    out.

    Rows are in call order.  Row ``i`` is request id ``base +
    offsets[i]``, where ``offsets[i]`` is its position in the call, so a
    caller scatters the answers back with the offsets alone.  The op is
    one string for the whole run (``ops`` None) or, for a mixed batch,
    the ``ops`` column.  ``hashes`` holds the keys' raw fleet hashes as
    the router computed them: a list of ints for a call below the
    router's per-key crossover, else a slice of the call's uint64
    ndarray.  A re-route refreshes them in place, and records a row's
    new shard in ``rerouted``.  ``table`` is the
    :class:`~repro.service.routing.RoutingTable` the run was routed
    under: a client's held run of refused rows is admitted again as it
    is only while that table is live, and its hashes stay valid while
    the live table's plan has that table's fingerprint.

    Answers are two columns: ``status`` (one byte per row, see
    ``PENDING`` .. ``OTHER``) and ``answers`` (an OK row's payload, or
    the Response of a row that is not a plain OK).  Refused rows share
    the run's one ``refused`` Response, which carries ``retry_after``.
    """

    __slots__ = ("op", "ops", "keys", "values", "hashes", "base", "offsets",
                 "table", "shard", "rerouted", "status", "answers",
                 "refused")

    def __init__(self, op, keys, values, hashes, base, offsets, table,
                 shard, ops=None):
        self.op = op
        self.ops = ops
        self.keys = keys
        self.values = values
        self.hashes = hashes
        self.base = base
        self.offsets = offsets
        self.table = table
        self.shard = shard
        self.rerouted: Optional[Dict[int, int]] = None
        n = len(keys)
        self.status = bytearray(n)
        self.answers: List[object] = [None] * n
        self.refused: Optional[Response] = None

    def op_at(self, row: int) -> str:
        return self.op if self.ops is None else self.ops[row]

    def request_id(self, row: int) -> int:
        return self.base + self.offsets[row]

    def shard_of(self, row: int) -> Optional[int]:
        if self.rerouted is not None:
            return self.rerouted.get(row, self.shard)
        return self.shard

    def move(self, row: int, shard: int) -> None:
        """Record that a re-route placed ``row`` on ``shard``."""
        if shard == self.shard:
            if self.rerouted is not None:
                self.rerouted.pop(row, None)
            return
        if self.rerouted is None:
            self.rerouted = {}
        self.rerouted[row] = shard

    def response(self, row: int) -> Optional[Response]:
        """Row ``row``'s answer as a Response (None while pending)."""
        code = self.status[row]
        if code == ANSWERED:
            return ok_response(self.op_at(row), self.answers[row],
                               self.shard_of(row))
        if code == REFUSED:
            return self.refused
        if code == OTHER:
            return self.answers[row]
        return None

    def answer(self, row: int, response: Optional[Response]) -> None:
        """Set (or, with None, clear) one row's answer."""
        self.status[row] = PENDING if response is None else OTHER
        self.answers[row] = response


class Rows:
    """A contiguous row range ``[start, stop)`` of one run: the unit the
    shard queues, the inflight registry and dispatch hold."""

    __slots__ = ("run", "start", "stop")

    def __init__(self, run: Run, start: int, stop: int):
        self.run = run
        self.start = start
        self.stop = stop

    @property
    def first_id(self) -> int:
        return self.run.request_id(self.start)

    @property
    def last_id(self) -> int:
        return self.run.request_id(self.stop - 1)

    def pending(self) -> int:
        """Rows of the range still unanswered."""
        return self.run.status.count(PENDING, self.start, self.stop)


__all__ = [
    "OPS", "VALUED", "OK", "REJECTED", "FAILED",
    "PENDING", "ANSWERED", "REFUSED", "OTHER",
    "Request", "Response", "Rows", "Run",
    "ok_response",
]
