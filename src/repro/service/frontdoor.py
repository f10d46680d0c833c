"""Asyncio network front door: real sockets in front of the shards.

The front door puts an actual serving boundary in front of the
service: clients connect over TCP and speak the length-prefixed column
protocol (:mod:`repro.service.netproto`), one frame per client call.
Each call frame is admitted with one ``Service.submit`` — the
entry the in-process client uses — and answered from its runs' status
and answer columns once every row of them is terminal.  One admission
round admits every frame that arrived since the last, from any
connection, so many connections' calls share the pumps that serve them.

Design rules, in order of importance:

* **The service is single-threaded property of the event loop.**
  Every touch of :class:`~repro.service.service.Service` happens on
  the loop thread — connection readers, the admission loop, and
  anything an outside thread schedules via
  :meth:`FrontDoorThread.run_in_loop` (the CLI's ``--force-split``
  drill uses this).  No locks, no torn state.
* **Backpressure is propagated, never absorbed.**  A shard-queue
  rejection travels to the client verbatim as a ``rejected`` status
  carrying ``retry_after`` — the front door keeps no secret overflow
  queue that would turn explicit backpressure back into silent
  buffering.  A per-connection in-flight cap (``max_pending`` rows)
  rejects a whole frame the same way before admission when one
  connection tries to own the whole pipeline.
* **Routing flips are invisible to the network.**  A split,
  promotion or plan swap runs between pumps, on the loop thread, and
  sweeps every queued row onto the live table before the next
  dispatch, so an admitted frame is always served by the shard its key
  routes to.
* **Shutdown drains.**  ``stop()`` stops accepting connections,
  answers every in-flight call, turns frames that race the shutdown
  away with a ``draining`` status, and only then closes sockets — an
  acknowledged write can never be dropped by a restart of the front
  door itself.

The ``stats`` op doubles as the ``/metrics`` verb: a stats row is
answered at admission with the service's stats dict plus the front
door's own ``frontdoor`` counters (connections, frames, rows coalesced
per admission round, rows refused at the door), so one request scrapes
the whole serving stack.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import List, Optional, Set

from repro.metrics import Reported, ratio
from repro.service import netproto
from repro.service.protocol import PENDING, REJECTED
from repro.service.service import Service

_READ_CHUNK = 1 << 16


class _Connection:
    """Server-side connection state: reader + serialized writer."""

    def __init__(self, door: "FrontDoor",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.door = door
        self.reader = reader
        self.writer = writer
        self.outgoing: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.pending = 0          # rows admitted but not yet answered
        self.closed = False

    def send(self, frame: bytes) -> None:
        if not self.closed:
            self.outgoing.put_nowait(frame)

    async def writer_loop(self) -> None:
        try:
            while True:
                frame = await self.outgoing.get()
                if frame is None:
                    break
                self.writer.write(frame)
                if self.outgoing.empty():
                    await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            self.writer.close()


class FrontDoor(Reported):
    """A TCP front door over one :class:`Service` (owns its pumping).

    Construct, then ``await start()`` from a running event loop — or
    use :class:`FrontDoorThread` to run the whole thing on a dedicated
    thread from synchronous code.
    """

    REPORTS = ("host", "port", "draining=_draining",
               "connections_open=_connections.__len__", "connections_total",
               "frames_in", "responses_out", "bad_frames", "drained_frames",
               "admission_batches", "admitted", "max_coalesced",
               "mean_coalesced", "pumps", "rejections_propagated",
               "admission_error")

    def __init__(
        self,
        service: Service,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 1024,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.max_pending = max_pending
        self._server: Optional[asyncio.base_events.Server] = None
        self._admission_task: Optional[asyncio.Task] = None
        self._connections: Set[_Connection] = set()
        # Call frames to admit: (connection, frame_id, op, keys, values).
        self._intake: List[tuple] = []
        self._wake: Optional[asyncio.Event] = None
        self._draining = False
        self._stopped = asyncio.Event()
        # Observability counters (reported under stats()["frontdoor"]):
        # frames count call frames, admitted / max_coalesced count rows,
        # and rejections_propagated counts the rows of frames the door
        # itself refused (a shard's refusals are the service's).
        self.connections_total = 0
        self.frames_in = 0
        self.responses_out = 0
        self.bad_frames = 0
        self.drained_frames = 0
        self.admission_batches = 0
        self.admitted = 0
        self.max_coalesced = 0
        self.pumps = 0
        self.rejections_propagated = 0
        self.admission_error: Optional[str] = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._admission_task = asyncio.ensure_future(self._admission_loop())
        self._admission_task.add_done_callback(self._admission_ended)

    def _admission_ended(self, task: asyncio.Task) -> None:
        """Record why the admission loop ended, the moment it ends, so
        a ``stats`` read shows a dead loop."""
        if not task.cancelled() and task.exception() is not None:
            self.admission_error = repr(task.exception())

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: answer everything in flight, then close."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        self._wake.set()
        if self._admission_task is not None:
            # A loop that died already recorded why; teardown goes on.
            await asyncio.wait([self._admission_task])
        for connection in list(self._connections):
            connection.send(None)  # type: ignore[arg-type]
        # Closing each writer EOFs its reader, which retires the
        # handler; wait (bounded) so the loop shuts down quiet.  A
        # client that holds its socket open past the bound is simply
        # abandoned — every response it was owed has been written.
        for _ in range(200):
            if not self._connections:
                break
            await asyncio.sleep(0.005)
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # ---------------------------------------------------------- connection

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        self.connections_total += 1
        writer_task = asyncio.ensure_future(connection.writer_loop())
        decoder = netproto.FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for body in decoder.feed(data):
                    self._on_frame(connection, body)
        except netproto.ProtocolError:
            # The stream itself is corrupt (a length prefix past the
            # ceiling): there is no frame id to answer, so the only
            # safe move is to drop the connection.
            self.bad_frames += 1
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            connection.send(None)  # type: ignore[arg-type]
            await writer_task
            self._connections.discard(connection)

    def _on_frame(self, connection: _Connection, body: bytes) -> None:
        self.frames_in += 1
        try:
            frame_id = netproto.frame_id_of(body)
        except netproto.ProtocolError:
            self.bad_frames += 1
            return  # unanswerable: no id to echo
        try:
            op, keys, values = netproto.decode_call(body)
        except netproto.ProtocolError as exc:
            self.bad_frames += 1
            connection.send(netproto.encode_status(
                frame_id, netproto.BAD_REQUEST, error=str(exc)))
            return
        if self._draining:
            self.drained_frames += 1
            connection.send(netproto.encode_status(
                frame_id, netproto.DRAINING,
                error="front door is draining for shutdown"))
            return
        if connection.pending >= self.max_pending:
            # Per-connection backpressure: this connection already owns
            # max_pending unanswered rows; pushing more would let one
            # client buffer without bound inside the server.
            self.rejections_propagated += len(keys)
            connection.send(netproto.encode_status(
                frame_id, REJECTED, error="connection pipeline full",
                retry_after=1))
            return
        connection.pending += len(keys)
        self._intake.append((connection, frame_id, op, keys, values))
        self._wake.set()

    # ----------------------------------------------------------- admission

    def _answer_done(self, calls: List[tuple]) -> List[tuple]:
        """Answer every admitted call ``(connection, frame_id, rows,
        runs)`` whose rows are all terminal from the runs' own columns,
        in call order; returns the calls still pending."""
        still = []
        for call in calls:
            connection, frame_id, rows, runs = call
            if any(PENDING in run.status for run in runs):
                still.append(call)
                continue
            connection.pending -= rows
            self.responses_out += 1
            connection.send(netproto.encode_answers(frame_id, runs))
        return still

    async def _admission_loop(self) -> None:
        """Coalesce frames across connections into admission rounds.

        One iteration: admit every call frame of the intake, each as
        one ``Service.submit``, answer the calls already terminal (a call
        refused whole), pump once for the in-flight rest and answer
        what it completed, then yield so connection readers can refill
        the intake — frames arriving during a pump join the *next*
        admission round, which is exactly the micro-batching window.
        """
        inflight: List[tuple] = []
        while True:
            if not self._intake and not inflight:
                if self._draining:
                    return
                self._wake.clear()
                # Re-check after clearing: a reader may have appended
                # between the test above and the clear.
                if not self._intake and not self._draining:
                    await self._wake.wait()
                continue
            if self._intake:
                batch, self._intake = self._intake, []
                rows = sum(len(call[3]) for call in batch)
                self.admission_batches += 1
                self.admitted += rows
                self.max_coalesced = max(self.max_coalesced, rows)
                admitted = []
                for connection, frame_id, op, keys, values in batch:
                    runs = self.service.submit(op, keys, values)
                    for run in runs:
                        if run.op == "stats":
                            run.answers[0]["frontdoor"] = self.stats()
                    admitted.append((connection, frame_id, len(keys), runs))
                inflight += self._answer_done(admitted)
            if inflight:
                self.service.pump()
                self.pumps += 1
                inflight = self._answer_done(inflight)
            # The coalescing window: let readers run before the next
            # admission round.
            await asyncio.sleep(0)

    @property
    def mean_coalesced(self) -> float:
        """Call frames admitted per admission batch."""
        return ratio(self.admitted, self.admission_batches)


class FrontDoorThread:
    """Run a :class:`FrontDoor` (and its event loop) on its own thread.

    Synchronous code — the CLI, benchmarks, tests, the fuzz target —
    starts the thread, connects :class:`~repro.service.client.
    NetworkClient` instances against ``.port``, and schedules any
    direct service mutation (a forced split, a tripped monitor)
    through :meth:`run_in_loop` so the single-threaded-service rule
    holds.  ``stop()`` drains and joins.
    """

    def __init__(self, service: Service, host: str = "127.0.0.1",
                 port: int = 0, **door_kwargs):
        self.door = FrontDoor(service, host, port, **door_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="frontdoor", daemon=True
        )
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None

    def start(self) -> "FrontDoorThread":
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            self._thread.join()
            raise self._start_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        try:
            await self.door.start()
        except BaseException as exc:  # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        await self.door.wait_stopped()

    @property
    def port(self) -> int:
        return self.door.port

    def run_in_loop(self, fn, *args, timeout: float = 30.0, **kwargs):
        """Run ``fn(*args, **kwargs)`` on the loop thread; return its
        result.  Callbacks interleave only at the admission loop's
        await points, i.e. *between* pumps — the same "no batch
        outstanding" barrier the supervisor's own reconfiguration
        relies on, which is what makes a mid-run ``split_shard`` safe
        here."""
        if self._loop is None:
            raise RuntimeError("front door thread is not running")
        future: "concurrent.futures.Future" = concurrent.futures.Future()

        def call() -> None:
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:
                future.set_exception(exc)

        self._loop.call_soon_threadsafe(call)
        return future.result(timeout=timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the front door and join its thread.  Idempotent."""
        if self._loop is None or not self._thread.is_alive():
            return
        concurrent.futures.wait(
            [asyncio.run_coroutine_threadsafe(self.door.stop(), self._loop)],
            timeout=timeout,
        )
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "FrontDoorThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = ["FrontDoor", "FrontDoorThread"]
