"""One client policy over two transports.

:class:`ServiceClient` turns the ticket-based service protocol into
plain method calls; :class:`NetworkClient` is the same client over the
front door's socket.  The policy — bounded retry, backoff and the ack
ledger — lives once, on :class:`ServiceClient`, and runs over a
two-method transport: ``send`` a batch of requests, then ``wait`` for
their answers (or, with no handles, for one backoff tick).

Every call runs in rounds:

1. send the pending requests and wait for every answer;
2. settle the terminal answers in the ledger;
3. collect ``rejected`` and ``wrong_generation`` answers into the retry
   set;
4. back off once, a jittered ``min(max hint << round,
   BACKOFF_CAP_PUMPS)`` ticks — a missing hint means one tick, an
   explicit 0 means no wait;
5. resend the retry set as one batch, and give up with
   :class:`ServiceOverloadedError` after ``max_retries`` rounds.

A scalar verb is a batch of one.  No call can spin forever: the
in-process transport cancels tickets unanswered after
``deadline_pumps`` pumps, and total backoff is at most ``max_retries *
BACKOFF_CAP_PUMPS`` ticks.  A typed error (deadline, overload,
draining, bad request) is raised only after every answer of its round
is settled, so the ledger — ``puts_sent`` once per put,
``puts_responded`` per terminal answer *including negative ones*,
``puts_acked`` per OK — never leaves a sibling open, and
:attr:`~ServiceClient.lost_acks` counts exactly the puts still owed an
answer.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._util import as_bytes

from repro.service import netproto
from repro.service.protocol import (
    FAILED,
    REJECTED,
    WRONG_GENERATION,
    Request,
    Response,
    Ticket,
)
from repro.service.service import Service

# Per-round backoff ceiling in ticks (a service pump in process, a
# TICK_S sleep over the wire): however deep the rejecting queue's
# retry_after hint, one round never waits longer than this.
BACKOFF_CAP_PUMPS = 64

# Socket transport: connect/recv timeout, the wall-clock length of one
# backoff tick (the server pumps for itself), and the frames encoded
# into one sendall.
TIMEOUT_S = 30.0
TICK_S = 0.0002
PIPELINE_WINDOW = 512

# The error the in-process transport stamps on a ticket it cancelled.
DEADLINE_EXCEEDED = "deadline exceeded"


class ServiceOverloadedError(RuntimeError):
    """A request was still rejected after every retry round."""


class ServiceDrainingError(RuntimeError):
    """The front door is shutting down; the request was turned away.

    Only the network path raises this: in-flight requests still
    complete during a drain, so a ``draining`` answer means the
    request was never admitted — a negative acknowledgement."""


class NetworkRequestError(RuntimeError):
    """The server answered ``bad_request`` — a client-side frame bug."""


class DeadlineExceededError(RuntimeError):
    """A ticket's response did not arrive within the pump deadline.

    The client cancels the ticket at its shard before raising, so the
    operation is guaranteed *not* to be applied later: a deadline
    failure is a negative acknowledgement, not an open question.
    """


class _InProcess:
    """Transport over an in-process :class:`Service`: ``send`` admits,
    ``wait`` pumps."""

    def __init__(self, service: Service, deadline_pumps: int):
        self.service = service
        self.deadline_pumps = deadline_pumps

    def send(self, requests: Sequence[Request]) -> List[Ticket]:
        if len(requests) == 1:
            # Scalar verbs keep the scalar routing path (route_one).
            return [self.service.submit(requests[0])]
        return self.service.submit_batch(requests)

    def wait(self, tickets: Optional[Sequence[Ticket]] = None
             ) -> List[Response]:
        if tickets is None:
            self.service.pump()
            return []
        waiting = [t for t in tickets if t.response is None]
        for _ in range(self.deadline_pumps):
            if not waiting:
                break
            self.service.pump()
            waiting = [t for t in waiting if t.response is None]
        for ticket in waiting:
            # Mark the ticket failed *before* cancelling so the
            # supervisor's reconciliation can never resurrect it.
            ticket.response = Response(
                FAILED, shard=ticket.shard, error=DEADLINE_EXCEEDED
            )
            self.service.cancel(ticket)
        return [ticket.response for ticket in tickets]


class _Socket:
    """Transport over the front door: ``send`` pipelines frames,
    ``wait`` reads answers by frame id, stashing whatever else arrives
    (the server answers out of submission order)."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = netproto.FrameDecoder()
        self.stash: Dict[int, Response] = {}
        self.next_id = 0

    def send(self, requests: Sequence[Request]) -> List[int]:
        first = self.next_id
        self.next_id += len(requests)
        for start in range(0, len(requests), PIPELINE_WINDOW):
            window = requests[start:start + PIPELINE_WINDOW]
            self.sock.sendall(b"".join(
                netproto.encode_request(first + start + i, request)
                for i, request in enumerate(window)
            ))
        return list(range(first, self.next_id))

    def wait(self, frame_ids: Optional[Sequence[int]] = None
             ) -> List[Response]:
        if frame_ids is None:
            time.sleep(TICK_S)
            return []
        out = []
        for frame_id in frame_ids:
            while frame_id not in self.stash:
                data = self.sock.recv(1 << 16)
                if not data:
                    raise ConnectionError(
                        "server closed the connection mid-request"
                    )
                for payload in self.decoder.feed(data):
                    self.stash[netproto.frame_id_of(payload)] = (
                        netproto.decode_response(payload)
                    )
            out.append(self.stash.pop(frame_id))
        return out


def _typed_error(request: Request, response: Response
                 ) -> Optional[Exception]:
    """The exception a terminal answer raises once its round settles."""
    if response.status == netproto.DRAINING:
        return ServiceDrainingError(response.error or "front door is draining")
    if response.status == netproto.BAD_REQUEST:
        return NetworkRequestError(response.error or "server rejected the frame")
    if response.error == DEADLINE_EXCEEDED:
        return DeadlineExceededError(
            f"{request.op} unanswered within the pump deadline "
            f"(shard {response.shard}); cancelled at its shard"
        )
    return None


class ServiceClient:
    """Synchronous client over an in-process :class:`Service`."""

    def __init__(
        self,
        service: Service,
        max_retries: int = 64,
        deadline_pumps: int = 1024,
        jitter_seed: int = 0xC11E,
    ):
        self.service = service
        self._start(_InProcess(service, deadline_pumps), max_retries,
                    jitter_seed)

    def _start(self, transport, max_retries: int, jitter_seed: int) -> None:
        self.transport = transport
        self.max_retries = max_retries
        self._rng = random.Random(jitter_seed)
        self.retries = 0
        self.backoff_pumps = 0
        self.deadline_failures = 0
        self.generation_retries = 0
        self.puts_sent = 0
        self.puts_responded = 0
        self.puts_acked = 0

    # ------------------------------------------------------------- policy

    def _call(self, requests: Sequence[Request]) -> List[Response]:
        """Walk a batch to terminal answers in rounds (see the module
        docstring); answers come back in request order."""
        self.puts_sent += sum(1 for r in requests if r.op == "put")
        out: List[Optional[Response]] = [None] * len(requests)
        pending = list(range(len(requests)))
        error: Optional[Exception] = None
        for round_ in range(self.max_retries + 1):
            answers = self.transport.wait(
                self.transport.send([requests[i] for i in pending])
            )
            retry: List[int] = []
            hints: List[int] = []
            for i, response in zip(pending, answers):
                if response.status == REJECTED:
                    self.retries += 1
                    hint = response.retry_after
                    hints.append(1 if hint is None else max(0, int(hint)))
                    retry.append(i)
                elif (response.status == WRONG_GENERATION
                      and round_ < self.max_retries):
                    # A routing flip moved the key between admission
                    # and dispatch: "ask again" through the live table.
                    self.generation_retries += 1
                    retry.append(i)
                else:
                    request = requests[i]
                    if request.op == "put":
                        self.puts_responded += 1
                        self.puts_acked += response.ok
                    if response.error == DEADLINE_EXCEEDED:
                        self.deadline_failures += 1
                    error = error or _typed_error(request, response)
                    out[i] = response
            pending = retry
            if error is not None or not pending or round_ == self.max_retries:
                break
            if hints:
                ceiling = min(max(hints) << round_, BACKOFF_CAP_PUMPS)
                ticks = self._rng.randint(1, ceiling) if ceiling >= 1 else 0
                self.backoff_pumps += ticks
                for _ in range(ticks):
                    self.transport.wait()
        if pending:
            # Abandoned requests were answered "not applied" (rejected,
            # or a wrong_generation in an errored round): negative acks.
            self.puts_responded += sum(
                1 for i in pending if requests[i].op == "put"
            )
            error = error or ServiceOverloadedError(
                f"{len(pending)} request(s) still rejected after "
                f"{self.max_retries + 1} attempts "
                f"({self.backoff_pumps} backoff ticks spent)"
            )
        if error is not None:
            raise error
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------ scalar

    def get(self, key) -> Optional[bytes]:
        return self._call([Request("get", as_bytes(key))])[0].value

    def put(self, key, value) -> Response:
        return self._call([Request("put", as_bytes(key), as_bytes(value))])[0]

    def delete(self, key) -> Response:
        return self._call([Request("delete", as_bytes(key))])[0]

    def contains(self, key) -> bool:
        return bool(self._call([Request("contains", as_bytes(key))])[0].found)

    def stats(self) -> Dict[str, object]:
        """Service stats; over the wire, plus the ``frontdoor`` block."""
        return self._call([Request("stats")])[0].stats

    def similar(self, key, k: int = 10) -> List[Tuple[bytes, float]]:
        """Top-k neighbors of a stored item on the similarity backend.

        Returns ``(neighbor key, estimated Jaccard)`` pairs, best
        first; empty when the key is unknown to its shard.
        """
        return self.similar_many([key], k)[0]

    # ------------------------------------------------------------- batch

    def put_many(self, pairs: Iterable[Tuple[object, object]]) -> List[Response]:
        """Submit many puts in one batch, so the workers see real
        micro-batches instead of singletons.

        A batch that writes the same key twice goes one request at a
        time instead: a rejected-then-retried first write must not land
        after an accepted second write to the same key.
        """
        requests = [Request("put", as_bytes(k), as_bytes(v)) for k, v in pairs]
        if len({r.key for r in requests}) == len(requests):
            return self._call(requests)
        return [self._call([request])[0] for request in requests]

    def multi_get(self, keys: Sequence[object]) -> List[Optional[bytes]]:
        # Reads never conflict with each other, so one batch is safe
        # even with duplicate keys.
        responses = self._call([Request("get", as_bytes(k)) for k in keys])
        return [r.value for r in responses]

    def contains_many(self, keys: Sequence[object]) -> List[bool]:
        responses = self._call(
            [Request("contains", as_bytes(k)) for k in keys]
        )
        return [bool(r.found) for r in responses]

    def similar_many(
        self, keys: Sequence[object], k: int = 10
    ) -> List[List[Tuple[bytes, float]]]:
        payload = str(int(k)).encode("ascii")
        responses = self._call(
            [Request("similar", as_bytes(key), payload) for key in keys]
        )
        return [list(r.neighbors or ()) for r in responses]

    @property
    def lost_acks(self) -> int:
        """Puts sent whose terminal answer never arrived (must stay 0).

        Negative answers — FAILED, a deadline cancel, a drain
        turn-away, an overload give-up — count as responded: the
        server said *no*, it did not lose the write.
        """
        return self.puts_sent - self.puts_responded


class NetworkClient(ServiceClient):
    """The same client over TCP to a front door.

    Backoff ticks are ``TICK_S`` sleeps instead of pumps, because the
    server pumps for itself; the front door resubmits
    ``wrong_generation`` answers server-side, so the client's own
    retry of them is defense in depth.
    """

    def __init__(self, host: str, port: int, max_retries: int = 64,
                 jitter_seed: int = 0xBEEF):
        self._start(_Socket(host, port), max_retries, jitter_seed)

    def close(self) -> None:
        try:
            self.transport.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_service_workload(client: ServiceClient, operations) -> Dict[str, int]:
    """Drive a service with a YCSB stream (see ``repro.workloads.ycsb``).

    Consecutive same-kind operations are dispatched through the client's
    batch entry points, mirroring how the workers themselves amortize
    hashing.  ``scan`` is not part of the service protocol (mix E).
    """
    counts: Dict[str, int] = {}
    kind_buffer: List = []
    buffered_kind = None

    def flush() -> None:
        nonlocal buffered_kind
        if not kind_buffer:
            return
        if buffered_kind == "read":
            client.multi_get([op.key for op in kind_buffer])
        else:
            client.put_many([(op.key, op.value) for op in kind_buffer])
        kind_buffer.clear()
        buffered_kind = None

    for op in operations:
        counts[op.kind] = counts.get(op.kind, 0) + 1
        if op.kind == "scan":
            raise ValueError(
                "the service protocol has no scan; use a mix without it"
            )
        if op.kind == "rmw":
            flush()
            current = client.get(op.key)
            client.put(op.key, (current or b"")[:8] + op.value)
            continue
        kind = "read" if op.kind == "read" else "write"
        if buffered_kind not in (None, kind):
            flush()
        buffered_kind = kind
        kind_buffer.append(op)
    flush()
    return counts


__all__ = [
    "BACKOFF_CAP_PUMPS",
    "DeadlineExceededError",
    "NetworkClient",
    "NetworkRequestError",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceOverloadedError",
    "run_service_workload",
]
