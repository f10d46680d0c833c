"""Typed request/response protocol for the serving layer.

The protocol is deliberately tiny — five operations, three statuses —
and every field is JSON-safe, so a request log can be replayed and a
response can be serialized straight onto a wire later without a schema
change.  Submitting a request returns a :class:`Ticket` immediately;
the response materializes on the ticket when the owning shard drains
its queue (or synchronously, for rejections and ``stats``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

# The complete operation vocabulary.  ``stats`` is answered by the
# service front door; the rest are routed to a shard.  ``similar`` is
# served by the similarity backend only: the request key names the
# item, the value carries the neighbor count k as ASCII decimal.
OPS = ("get", "put", "delete", "contains", "similar", "stats")

# Response statuses.
OK = "ok"
REJECTED = "rejected"      # backpressure: queue full, retry later
FAILED = "failed"          # the shard could not serve it (unsupported op)
# The routing generation flipped between admission and dispatch and the
# key now routes elsewhere: resubmit (the client does so transparently).
WRONG_GENERATION = "wrong_generation"


class _RequestFields(NamedTuple):
    op: str
    key: bytes = b""
    value: bytes = b""


_new_tuple = tuple.__new__


class Request(_RequestFields):
    """One operation against the service.

    An immutable, hashable ``(op, key, value)`` named tuple: a client
    builds one per key, so construction is one checked ``tuple.__new__``.
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
    # Set on WRONG_GENERATION: the routing generation now live, so a
    # client can tell a fresh miss from a stale retry loop.
    generation: Optional[int] = None
    # Set on OK answers to ``similar``: the top-k neighbors as
    # (item key, estimated Jaccard) pairs, best first.  ``found``
    # distinguishes an unknown query key (False, empty list) from a
    # known key with no neighbors (True, empty list).
    neighbors: Optional[List[Tuple[bytes, float]]] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass(slots=True)
class Ticket:
    """Handle for a submitted request; ``response`` fills in on drain."""

    request: Request
    request_id: int
    shard: Optional[int] = None
    response: Optional[Response] = None
    # Routing generation at admission time.  The dispatch path uses it
    # as a safety net: a ticket stamped under generation N whose key no
    # longer routes to its queued shard is answered WRONG_GENERATION
    # instead of being served against the wrong shard's state.
    generation: int = 0
    # The key's raw 64-bit fleet hash, computed once by the router and
    # carried into the shard, whose table probes and inserts from it
    # when its plan matches the router's (see ShardCore.serve_segment).
    key_hash: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def rejected(self) -> bool:
        return self.response is not None and self.response.status == REJECTED


__all__ = [
    "OPS", "OK", "REJECTED", "FAILED", "WRONG_GENERATION",
    "Request", "Response", "Ticket",
]
