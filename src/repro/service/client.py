"""One client policy over two transports.

:class:`ServiceClient` turns the service protocol into plain method
calls; :class:`NetworkClient` is the same client over the front door's
socket.  The policy — bounded retry, backoff and the ack ledger — lives
once, on :class:`ServiceClient`, and runs over a two-method transport:
a ``round`` admits one op's rows as columns and returns them answered,
as :class:`~repro.service.protocol.Run` records, and a ``tick`` is one
backoff step.  In process a call's first round is one
``Service.submit`` call, a retry round one ``Service.submit_batch``,
each with the pumps that answer it, and the client reads the runs' status
and answer columns directly: no per-key Response is built,
except where a verb returns Responses.  Over the socket a round is one
call frame out — the front door admits it with one ``Service.submit`` —
and its answer frames back into one run's status and answer columns,
settled by the same code; a call too large for one frame goes as
consecutive sub-calls, each walked to its terminal answers before the
next is sent, and a row too large for any frame fails unsent.  Either
way one round of a call is one admission, and a shard refuses only a
suffix of a run, so a batch that writes a key twice keeps its later
write.

Every call runs in rounds:

1. send the pending rows and wait for every answer;
2. settle the terminal answers in the ledger;
3. hold the ``rejected`` rows: a shard refuses a suffix of its run,
   which the client keeps as a run of its own — the refused rows' key,
   value, op and hash columns, and their call positions as offsets;
4. back off once, a jittered ``min(rest << round, BACKOFF_CAP_PUMPS)``
   ticks, where ``rest`` is the largest hint less the service pumps the
   answer wait already ran (a hint counts pumps from the rejection, so
   an in-process wait that drained the queue leaves nothing to wait
   for; the socket transport cannot see the server's pumps and counts
   none) — a missing hint means one tick, an explicit 0 means no wait;
5. send the held runs as the next round — in process one
   ``Service.submit_batch``, which gives each run straight back to its
   shard with no routing or partition pass (a run routed under a
   table a flip retired is routed again, from its carried hashes
   unless the flip swapped the plan); over the socket one
   call frame — and give up with :class:`ServiceOverloadedError` after
   ``max_retries`` rounds.

A scalar verb is a batch of one: a one-row round.  No call can spin
forever: the in-process transport cancels rows unanswered after
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

from repro._util import as_bytes, as_bytes_list

from repro.service import netproto
from repro.service.protocol import (
    ANSWERED,
    FAILED,
    PENDING,
    REFUSED,
    REJECTED,
    Response,
    Run,
    ok_response,
)
from repro.service.service import Service, _gather

# Per-round backoff ceiling in ticks (a service pump in process, a
# TICK_S sleep over the wire): however deep the rejecting queue's
# retry_after hint, one round never waits longer than this.
BACKOFF_CAP_PUMPS = 64

# Socket transport: connect/recv timeout and the wall-clock length of
# one backoff tick (the server pumps for itself).
TIMEOUT_S = 30.0
TICK_S = 0.0002

# The error the in-process transport stamps on a row it cancelled.
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
    """A row's answer did not arrive within the pump deadline.

    The client cancels the row at its shard before raising, so the
    operation is guaranteed *not* to be applied later: a deadline
    failure is a negative acknowledgement, not an open question.
    """


class _InProcess:
    """Transport over an in-process :class:`Service`: a round admits,
    then pumps until every row is answered; a tick is one pump.
    Answers are read from the runs' columns."""

    def __init__(self, service: Service, deadline_pumps: int):
        self.service = service
        self.deadline_pumps = deadline_pumps
        # Service pumps the last answer wait ran: every one of them
        # came after the send, so it counts against a rejection's
        # retry_after hint.
        self.pumped = 0

    def round(self, op, keys: List[bytes], values: Optional[List[bytes]],
              held: Optional[List[Run]] = None) -> List[Run]:
        # A retry round gives the held runs back to their shards as
        # they are: nothing is routed or partitioned again.
        runs = (self.service.submit(op, keys, values) if held is None
                else self.service.submit_batch(held))
        self.pumped = 0
        waiting = [run for run in runs if PENDING in run.status]
        while waiting and self.pumped < self.deadline_pumps:
            self.service.pump()
            self.pumped += 1
            waiting = [run for run in waiting if PENDING in run.status]
        for run in waiting:
            for row in range(len(run.keys)):
                if run.status[row] != PENDING:
                    continue
                # Mark the row failed *before* cancelling so the
                # supervisor's reconciliation can never resurrect it.
                run.answer(row, Response(
                    FAILED, shard=run.shard_of(row), error=DEADLINE_EXCEEDED
                ))
                self.service.cancel(run, row)
        return runs

    def tick(self) -> None:
        self.service.pump()


class _Socket:
    """Transport over the front door: a round is one call frame out and
    its answers read back by frame id; a tick is one ``TICK_S`` sleep."""

    # The server pumps for itself, out of the client's sight: no wait
    # counts toward a retry_after hint.
    pumped = 0

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = netproto.FrameDecoder()
        self.next_id = 0

    def round(self, op, keys: List[bytes], values: Optional[List[bytes]],
              held: Optional[List[Run]] = None) -> List[Run]:
        """One call frame out, its answer frames read back into one
        run's columns.  A socket round answers one run, so a retry holds
        at most one, and its rows go out as the frame."""
        offsets = range(len(keys))
        if held is not None:
            [run] = held
            op = run.op if run.ops is None else run.ops
            keys, values, offsets = run.keys, run.values, run.offsets
        one = isinstance(op, str)
        run = Run(op if one else None, keys, values, None, 0, offsets, None,
                  None, None if one else op)
        frame_id = self.next_id
        self.next_id += 1
        try:
            frame = netproto.encode_call(frame_id, op, keys, values)
        except netproto.ProtocolError as exc:
            # A row too large for any frame (a span of its own) fails
            # unsent: a negative answer, not a lost one.
            for row in range(len(keys)):
                run.answer(row, Response(FAILED, error=f"not sent: {exc}"))
            return [run]
        self.sock.sendall(frame)
        done = 0
        while done < len(keys):
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection mid-call")
            for body in self.decoder.feed(data):
                if netproto.frame_id_of(body) != frame_id:
                    raise netproto.ProtocolError(
                        f"an answer to another frame while frame "
                        f"{frame_id} is the one in flight"
                    )
                done = netproto.decode_answers(body, run, done)
        return [run]

    def tick(self) -> None:
        time.sleep(TICK_S)


def _ok_answers(run: Run, ok: int, responses: bool) -> list:
    """The answers of a run's first ``ok`` rows, all answered OK: the
    payload column itself, or Responses built from it."""
    if not responses:
        return run.answers
    if run.rerouted is None:
        op, shard = run.op, run.shard
        return [ok_response(op, payload, shard)
                for payload in run.answers[:ok]]
    return [run.response(row) for row in range(ok)]


def _hold(run: Run, rows) -> Run:
    """The refused ``rows`` of ``run`` (a slice or a row list) as a run
    of their own, to admit again as they are: the same op, shard,
    routing table and hashes, with the rows' call positions as
    offsets."""
    if isinstance(rows, slice):
        def take(column):
            return None if column is None else column[rows]
    else:
        def take(column):
            return None if column is None else _gather(column, rows)
    return Run(run.op, take(run.keys), take(run.values), take(run.hashes), 0,
               take(run.offsets), run.table, run.shard, take(run.ops))


def _typed_error(op: str, response: Response) -> Optional[Exception]:
    """The exception a terminal answer raises once its round settles."""
    if response.status == netproto.DRAINING:
        return ServiceDrainingError(response.error or "front door is draining")
    if response.status == netproto.BAD_REQUEST:
        return NetworkRequestError(response.error or "server rejected the frame")
    if response.error == DEADLINE_EXCEEDED:
        return DeadlineExceededError(
            f"{op} unanswered within the pump deadline "
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
        self.puts_sent = 0
        self.puts_responded = 0
        self.puts_acked = 0

    # ------------------------------------------------------------- policy

    def _call(self, op, keys: List[bytes],
              values: Optional[List[bytes]] = None,
              responses: bool = False) -> List[object]:
        """Walk a batch to terminal answers in rounds (see the module
        docstring); answers come back in call order.

        ``op`` is one op for every row or an op column.  An OK answer is
        the op's payload (a get's value, a contains' ``found``, ...),
        any other terminal answer its Response; with ``responses``
        every answer is a Response.  Each round reads the runs' answer
        columns (:meth:`_settle`).
        """
        n = len(keys)
        if not n:
            return []
        self.puts_sent += (n if op == "put" else 0) if isinstance(op, str) \
            else op.count("put")
        out: List[object] = [None] * n
        # The refused rows of the last round, one run per refusing run.
        held: List[Run] = []
        # (call position, exception) of the first typed error.
        error: Optional[Tuple[int, Exception]] = None
        transport = self.transport
        for round_ in range(self.max_retries + 1):
            runs = transport.round(op, keys, values, held or None)
            held = []
            hint: Optional[int] = None
            for run in runs:
                status = run.status
                if run.ops is None and status.count(ANSWERED) == len(status):
                    # Every row answered OK: copy the answer column out.
                    if run.op == "put":
                        self.puts_responded += len(status)
                        self.puts_acked += len(status)
                    answers = (_ok_answers(run, len(status), True)
                               if responses else run.answers)
                    for position, answer in zip(run.offsets, answers):
                        out[position] = answer
                    continue
                after, failed = self._settle(run, out, held, responses)
                if after is not None:
                    hint = after if hint is None else max(hint, after)
                # The first typed error in call order is the one raised.
                if failed is not None and (error is None
                                           or failed[0] < error[0]):
                    error = failed
            if not held or error is not None or round_ == self.max_retries:
                break
            if hint is not None:
                # A hint counts pumps from the rejection; the answer
                # wait already ran some of them.
                hint = max(hint - transport.pumped, 0)
                ceiling = min(hint << round_, BACKOFF_CAP_PUMPS)
                ticks = self._rng.randint(1, ceiling) if ceiling >= 1 else 0
                self.backoff_pumps += ticks
                for _ in range(ticks):
                    transport.tick()
        if held:
            # Abandoned requests were answered "not applied"
            # (rejected): negative acks.
            self.puts_responded += sum(
                run.ops.count("put") if run.ops is not None
                else len(run.keys) if run.op == "put" else 0
                for run in held
            )
            if error is None:
                raise ServiceOverloadedError(
                    f"{sum(len(run.keys) for run in held)} request(s) "
                    f"still rejected after {self.max_retries + 1} "
                    f"attempts ({self.backoff_pumps} backoff ticks spent)"
                )
        if error is not None:
            raise error[1]
        return out

    def _settle(self, run: Run, out: list, held: List[Run], responses: bool
                ) -> Tuple[Optional[int], Optional[tuple]]:
        """Settle one answered run into ``out`` and the ledger, and hold
        its refused rows as one run in ``held``; returns the run's
        backoff hint (None without a rejection) and its first typed
        error as ``(call position, exception)``, if any.

        A run of one op whose OK rows all precede its refused rows —
        every run a plain overflow leaves — is settled by column
        slices; any other run row by row."""
        status = run.status
        offsets = run.offsets
        ok = status.count(ANSWERED)
        refused = status.count(REFUSED)
        if (run.ops is None and ok + refused == len(status)
                and status.find(REFUSED) == ok):
            if run.op == "put":
                self.puts_responded += ok
                self.puts_acked += ok
            for position, answer in zip(offsets[:ok],
                                        _ok_answers(run, ok, responses)):
                out[position] = answer
            self.retries += refused
            held.append(_hold(run, slice(ok, None)))
            after = run.refused.retry_after
            return (1 if after is None else max(0, int(after))), None
        hint: Optional[int] = None
        error: Optional[tuple] = None
        rejected: List[int] = []
        for row, code in enumerate(status):
            position = offsets[row]
            op = run.op_at(row)
            if code == ANSWERED:
                if op == "put":
                    self.puts_responded += 1
                    self.puts_acked += 1
                out[position] = (run.response(row) if responses
                                 else run.answers[row])
                continue
            response = run.refused if code == REFUSED else run.answers[row]
            if response.status == REJECTED:
                self.retries += 1
                after = response.retry_after
                after = 1 if after is None else max(0, int(after))
                hint = after if hint is None else max(hint, after)
                rejected.append(row)
            else:
                if op == "put":
                    self.puts_responded += 1
                if response.error == DEADLINE_EXCEEDED:
                    self.deadline_failures += 1
                if error is None:
                    typed = _typed_error(op, response)
                    if typed is not None:
                        error = (position, typed)
                out[position] = response if responses else None
        if rejected:
            held.append(_hold(run, rejected))
        return hint, error

    # ------------------------------------------------------------ scalar

    def get(self, key) -> Optional[bytes]:
        return self._call("get", [as_bytes(key)])[0]  # type: ignore

    def put(self, key, value) -> Response:
        return self._call("put", [as_bytes(key)], [as_bytes(value)],
                          True)[0]  # type: ignore[return-value]

    def delete(self, key) -> Response:
        return self._call("delete", [as_bytes(key)], None,
                          True)[0]  # type: ignore[return-value]

    def contains(self, key) -> bool:
        return bool(self._call("contains", [as_bytes(key)])[0])

    def stats(self) -> Dict[str, object]:
        """Service stats; over the wire, plus the ``frontdoor`` block."""
        return self._call("stats", [b""])[0]  # type: ignore[return-value]

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

        A batch may write the same key twice: both writes route to one
        shard, so they sit in one run in call order, and a shard
        refuses only a suffix of a run — the first write is never
        refused while the second is admitted, and the retry admits the
        held rest again behind it.  The later write wins.
        """
        keys: List[bytes] = []
        values: List[bytes] = []
        for key, value in pairs:
            keys.append(as_bytes(key))
            values.append(as_bytes(value))
        return self._call("put", keys, values, True)  # type: ignore

    def multi_get(self, keys: Sequence[object]) -> List[Optional[bytes]]:
        # Reads never conflict with each other, so one batch is safe
        # even with duplicate keys.
        return self._call("get", as_bytes_list(keys))  # type: ignore

    def contains_many(self, keys: Sequence[object]) -> List[bool]:
        return [bool(found) for found in
                self._call("contains", as_bytes_list(keys))]

    def similar_many(
        self, keys: Sequence[object], k: int = 10
    ) -> List[List[Tuple[bytes, float]]]:
        payload = str(int(k)).encode("ascii")
        keys = as_bytes_list(keys)
        return [list(neighbors or ()) for neighbors in
                self._call("similar", keys, [payload] * len(keys))]

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

    Each round is one call frame.  Backoff ticks are ``TICK_S`` sleeps
    instead of pumps, because the server pumps for itself.
    """

    def __init__(self, host: str, port: int, max_retries: int = 64,
                 jitter_seed: int = 0xBEEF):
        self._start(_Socket(host, port), max_retries, jitter_seed)

    def _call(self, op, keys: List[bytes],
              values: Optional[List[bytes]] = None,
              responses: bool = False) -> List[object]:
        """A call whose frame would pass ``MAX_FRAME_BYTES`` goes as
        consecutive sub-calls, each walked to terminal answers before
        the next is sent, so no write of a later sub-call can overtake
        a retried write of an earlier one."""
        out: List[object] = []
        for start, stop in netproto.call_spans(op, keys, values):
            span = slice(start, stop)
            out += ServiceClient._call(
                self, op if isinstance(op, str) else op[span], keys[span],
                None if values is None else values[span], responses,
            )
        return out

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
    """Drive a service with a YCSB stream (see ``repro.workloads.ycsb``);
    returns the count of each op kind.

    Reads and writes (``update``, ``insert``) collect in two buffers,
    sent as one ``multi_get`` and then one ``put_many``.  The buffers
    are flushed, reads first, only when a read names a key the write
    buffer holds, at an ``rmw`` (whose write needs its read's answer:
    a flush, then ``get`` and ``put``) and at the end.  Writes keep
    stream order among themselves, and each read goes out after every
    earlier write to its key and before every later one, so every read
    returns the value a sequential replay of the stream reads, and the
    final state is the replay's.  On a YCSB-A stream at zipf 0.99 a
    128-op window takes about 13 calls, where one call per run of one
    op kind took about 65.  ``scan`` is not part of the service
    protocol (mix E).
    """
    counts: Dict[str, int] = {}
    reads: List[bytes] = []
    writes: List[Tuple[bytes, bytes]] = []
    written = set()

    def flush() -> None:
        # Fresh lists after each call: a caller may keep what it was given.
        nonlocal reads, writes
        if reads:
            client.multi_get(reads)
            reads = []
        if writes:
            client.put_many(writes)
            writes = []
            written.clear()

    for op in operations:
        kind = op.kind
        counts[kind] = counts.get(kind, 0) + 1
        key = op.key
        if kind == "read":
            if key in written:
                flush()
            reads.append(key)
        elif kind == "scan":
            raise ValueError(
                "the service protocol has no scan; use a mix without it"
            )
        elif kind == "rmw":
            flush()
            current = client.get(key)
            client.put(key, (current or b"")[:8] + op.value)
        else:
            writes.append((key, op.value))
            written.add(key)
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
