"""Tests for the asyncio network front door and its socket client."""

import socket
import struct
import threading

import pytest

from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.service import (
    FrontDoorThread,
    NetworkClient,
    Service,
    ServiceDrainingError,
    ServiceOverloadedError,
    fork_available,
    netproto,
)
from repro.service.protocol import Run


@pytest.fixture(scope="module")
def corpus():
    return google_urls(400, seed=21)


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, fixed_dataset=True)


def _service(model, **kwargs):
    defaults = dict(num_shards=3, backend="chaining", model=model,
                    capacity=2048, max_queue=64, batch_size=8)
    defaults.update(kwargs)
    return Service(**defaults)


def _answers(body, op, rows):
    """One answer frame read into a run of ``rows`` rows of ``op``."""
    run = Run(op, [b"k"] * rows, None, None, 0, range(rows), None, None)
    assert netproto.decode_answers(body, run, 0) == rows
    return run


def _read_body(sock, decoder):
    while True:
        data = sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        for body in decoder.feed(data):
            return body


class TestBasicKV:
    def test_round_trips_over_a_real_socket(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    assert client.put(b"k", b"v").ok
                    assert client.get(b"k") == b"v"
                    assert client.get(b"missing") is None
                    assert client.contains(b"k") is True
                    assert client.contains(b"missing") is False
                    assert client.delete(b"k").found is True
                    assert client.get(b"k") is None
                    # Binary keys/values survive the byte arenas.
                    assert client.put(b"\x00\xff", b"\x01\x00\x02").ok
                    assert client.get(b"\x00\xff") == b"\x01\x00\x02"
                    assert client.lost_acks == 0
        finally:
            service.close()

    def test_pipelined_batches_coalesce(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    pairs = [(b"pb%03d" % i, b"v%d" % i) for i in range(150)]
                    assert all(r.ok for r in client.put_many(pairs))
                    got = client.multi_get([k for k, _ in pairs])
                    assert got == [v for _, v in pairs]
                    frontdoor = door.run_in_loop(door.door.stats)
                    # A batch call is one frame, admitted as one
                    # Service.submit: its rows coalesce into one round.
                    assert frontdoor["frames_in"] == 2
                    assert frontdoor["max_coalesced"] == 150
                    assert (frontdoor["admission_batches"]
                            < frontdoor["admitted"])
                    # Every frame got exactly one answer.
                    assert frontdoor["frames_in"] == frontdoor["responses_out"]
                    assert client.lost_acks == 0
        finally:
            service.close()

    def test_duplicate_key_put_many_is_one_frame(self, model):
        # A batch that repeats a key needs no one-at-a-time fallback:
        # it reaches the door as one frame and keeps its later write.
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    before = door.run_in_loop(door.door.stats)["frames_in"]
                    responses = client.put_many(
                        [(b"dk", b"first"), (b"other", b"x"),
                         (b"dk", b"last")]
                    )
                    after = door.run_in_loop(door.door.stats)["frames_in"]
                    assert after - before == 1
                    assert all(r.ok for r in responses)
                    assert client.get(b"dk") == b"last"
                    assert client.lost_acks == 0
        finally:
            service.close()

    def test_oversized_call_goes_as_ordered_sub_calls(self, model):
        # A call past the frame ceiling goes as consecutive sub-calls,
        # each walked to terminal answers before the next is sent: the
        # key written on both sides of the cut keeps the later write,
        # and answers past the ceiling come back over several frames.
        service = _service(model)
        value = b"x" * (netproto.MAX_FRAME_BYTES // 12)
        keys = [b"big%02d" % i for i in range(20)]
        keys[-1] = keys[0]
        pairs = [(key, value + b"%02d" % i) for i, key in enumerate(keys)]
        assert len(netproto.call_spans("put", keys, [v for _, v in pairs])) > 1
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    assert all(r.ok for r in client.put_many(pairs))
                    assert door.run_in_loop(
                        door.door.stats)["frames_in"] > 1
                    assert client.get(keys[0]) == pairs[-1][1]
                    assert client.multi_get(keys[1:-1]) == [
                        v for _, v in pairs[1:-1]
                    ]
                    assert client.lost_acks == 0
        finally:
            service.close()

    def test_stats_verb_scrapes_the_whole_stack(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    client.put(b"s", b"1")
                    stats = client.stats()
                    assert stats["submitted"] >= 1  # service ledger
                    assert stats["frontdoor"]["connections_open"] == 1
                    assert stats["frontdoor"]["admission_error"] is None
        finally:
            service.close()


class TestConcurrentConnections:
    def test_many_connections_zero_lost_acks(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                clients = [
                    NetworkClient("127.0.0.1", door.port,
                                  jitter_seed=0xA0 + i)
                    for i in range(4)
                ]
                errors = []

                def drive(index, client):
                    try:
                        pairs = [(b"c%d-%03d" % (index, i), b"v%d" % i)
                                 for i in range(80)]
                        client.put_many(pairs)
                        got = client.multi_get([k for k, _ in pairs])
                        assert got == [v for _, v in pairs]
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(i, c))
                    for i, c in enumerate(clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors
                assert sum(c.lost_acks for c in clients) == 0
                frontdoor = door.run_in_loop(door.door.stats)
                assert frontdoor["connections_total"] == 4
                for client in clients:
                    client.close()
        finally:
            service.close()


class TestBackpressure:
    def test_pending_cap_rejects_with_retry_after(self, model):
        # max_pending=0: every call frame is turned away whole at the
        # door with an explicit rejected + retry_after for each row —
        # backpressure is propagated as protocol, never absorbed into a
        # hidden queue.
        service = _service(model)
        try:
            with FrontDoorThread(service, max_pending=0) as door:
                sock = socket.create_connection(("127.0.0.1", door.port),
                                                timeout=10)
                try:
                    sock.sendall(netproto.encode_call(1, "get", [b"ab", b"cd"]))
                    body = _read_body(sock, netproto.FrameDecoder())
                    assert netproto.frame_id_of(body) == 1
                    for answer in _answers(body, "get", 2).answers:
                        assert answer.status == "rejected"
                        assert answer.retry_after >= 1
                    stats = door.run_in_loop(door.door.stats)
                    assert stats["rejections_propagated"] == 2
                    assert door.run_in_loop(service.stats)["submitted"] == 0
                finally:
                    sock.close()
        finally:
            service.close()

    def test_client_gives_up_with_typed_error(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service, max_pending=0) as door:
                with NetworkClient("127.0.0.1", door.port,
                                   max_retries=3) as client:
                    with pytest.raises(ServiceOverloadedError):
                        client.get(b"never-admitted")
                    # A rejected-then-abandoned put is a negative ack,
                    # not a lost one.
                    with pytest.raises(ServiceOverloadedError):
                        client.put(b"np", b"v")
                    assert client.lost_acks == 0
        finally:
            service.close()

    def test_burst_through_a_tiny_pipeline_settles(self, model):
        # A pipelined burst against max_pending=1 forces per-connection
        # rejections; the client's backoff must land every write anyway.
        service = _service(model)
        try:
            with FrontDoorThread(service, max_pending=1) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    pairs = [(b"bp%03d" % i, b"v") for i in range(40)]
                    assert all(r.ok for r in client.put_many(pairs))
                    assert client.lost_acks == 0
                    got = client.multi_get([k for k, _ in pairs])
                    assert got == [b"v"] * len(pairs)
        finally:
            service.close()


class TestBadFrames:
    def test_unknown_op_answers_bad_request(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                sock = socket.create_connection(("127.0.0.1", door.port),
                                                timeout=10)
                try:
                    decoder = netproto.FrameDecoder()
                    good = netproto.encode_call(9, "get", [b"a"])
                    for bad in (good[:12] + b"\xc8" + good[13:],
                                good[:12] + bytes([netproto.MIXED])
                                + good[13:17] + b"\x07" + good[17:]):
                        sock.sendall(netproto.encode_frame(bad[4:]))
                        body = _read_body(sock, decoder)
                        assert netproto.frame_id_of(body) == 9
                        [response] = _answers(body, "get", 1).answers
                        assert response.status == "bad_request"
                        assert "op code" in response.error
                    # The connection survives a bad frame.
                    sock.sendall(netproto.encode_call(
                        10, "contains", [b"ab", b"cd"]
                    ))
                    body = _read_body(sock, decoder)
                    assert netproto.frame_id_of(body) == 10
                    assert _answers(body, "contains", 2).answers == [
                        False, False]
                finally:
                    sock.close()
        finally:
            service.close()

    def test_malformed_frames_answer_bad_request(self, model):
        # Each malformed call frame is answered bad_request on its own
        # connection, and the admission loop never sees it.
        head = struct.Struct("<QBI")
        good = netproto.encode_call(4, "put", [b"ab"], [b"v"])[4:]
        bodies = (
            good[:-2],                                   # truncated arena
            head.pack(4, 0, 1) + struct.pack("<2I", 1, 1 << 20) + b"k"
            + struct.pack("<I", 0),                      # past the end
            head.pack(4, netproto.MIXED, 1) + b"\x09" + good[13:],
            head.pack(4, 0, 2 ** 32 - 1) + b"\x00" * 7,  # 2**32 - 1 rows
            good + b"\x00",                              # trailing bytes
            head.pack(4, 0, 1) + struct.pack("<2I", 1, netproto.NONE)
            + struct.pack("<I", 0),                      # a None key
        )
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                sock = socket.create_connection(("127.0.0.1", door.port),
                                                timeout=10)
                try:
                    decoder = netproto.FrameDecoder()
                    for body in bodies:
                        sock.sendall(netproto.encode_frame(body))
                        answer = _read_body(sock, decoder)
                        assert netproto.frame_id_of(answer) == 4
                        [response] = _answers(answer, "put", 1).answers
                        assert response.status == "bad_request"
                finally:
                    sock.close()
                stats = door.run_in_loop(door.door.stats)
                assert stats["bad_frames"] == len(bodies)
                assert stats["admission_error"] is None
                assert door.run_in_loop(service.stats)["submitted"] == 0
        finally:
            service.close()

    def test_corrupt_stream_drops_the_connection(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                sock = socket.create_connection(("127.0.0.1", door.port),
                                                timeout=10)
                try:
                    # A length prefix past the ceiling is unanswerable:
                    # the server must drop the connection, not buffer.
                    sock.sendall(struct.pack(">I", 1 << 30) + b"junk")
                    assert sock.recv(1) == b""
                finally:
                    sock.close()
                # The door itself survives for other connections.
                with NetworkClient("127.0.0.1", door.port) as client:
                    assert client.put(b"alive", b"1").ok
        finally:
            service.close()


class TestSplitDrill:
    """A live split racing pipelined frames stays invisible to the
    network: no error, no lost ack, every overwrite readable."""

    def _drill(self, model, execution):
        service = _service(model, execution=execution)
        keys = [b"sd-%04d" % i for i in range(240)]
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    assert all(
                        r.ok for r in
                        client.put_many([(k, b"v0") for k in keys])
                    )
                    # Race a pipelined overwrite burst against a live
                    # split of the busiest shard: frames in flight
                    # cross the generation flip.
                    def flip():
                        import numpy as np

                        donor = int(np.argmax(service.router.routed))
                        service.split_shard(donor)

                    splitter = threading.Thread(
                        target=door.run_in_loop, args=(flip,)
                    )
                    splitter.start()
                    responses = client.put_many(
                        [(k, b"v1") for k in keys]
                    )
                    splitter.join()
                    assert all(r.ok for r in responses)
                    # Zero lost acked writes...
                    assert client.lost_acks == 0
                    # ...and every acked overwrite readable post-flip.
                    assert client.multi_get(keys) == [b"v1"] * len(keys)
                    assert service.splits == 1
                    frontdoor = client.stats()["frontdoor"]
                    assert frontdoor["admission_error"] is None
        finally:
            service.close()

    def test_split_is_invisible_inline(self, model):
        self._drill(model, "inline")

    @pytest.mark.skipif(not fork_available(),
                        reason="fork start method unavailable")
    def test_split_is_invisible_process(self, model):
        self._drill(model, "process")


class TestDrain:
    def test_draining_status_turns_requests_away(self, model):
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    client.put(b"pre", b"v")
                    door.run_in_loop(
                        setattr, door.door, "_draining", True
                    )
                    with pytest.raises(ServiceDrainingError):
                        client.get(b"pre")
                    assert client.lost_acks == 0
                    # On the wire, one draining status answers the
                    # whole call frame.
                    sock = socket.create_connection(
                        ("127.0.0.1", door.port), timeout=10
                    )
                    try:
                        sock.sendall(netproto.encode_call(
                            3, "put", [b"a", b"b"], [b"1", b"2"]
                        ))
                        body = _read_body(sock, netproto.FrameDecoder())
                    finally:
                        sock.close()
                    assert [a.status for a in
                            _answers(body, "put", 2).answers] == [
                        netproto.DRAINING] * 2
                    # Un-drain so the context-manager stop() below runs
                    # the normal (non-reentrant) shutdown path.
                    door.run_in_loop(
                        setattr, door.door, "_draining", False
                    )
        finally:
            service.close()

    def test_stop_is_idempotent_and_refuses_new_connections(self, model):
        service = _service(model)
        try:
            door = FrontDoorThread(service).start()
            with NetworkClient("127.0.0.1", door.port) as client:
                assert client.put(b"final", b"v").ok
            port = door.port
            door.stop()
            door.stop()  # idempotent
            assert door.door.admission_error is None
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=2)
            # The service is whole after the door is gone: the write
            # acked over the socket is still there, in process.
            from repro.service import ServiceClient

            assert ServiceClient(service).get(b"final") == b"v"
        finally:
            service.close()


class TestAdmissionLoop:
    def test_oversized_answer_fails_its_row_and_the_loop_lives(self, model):
        # A value past MAX_FRAME_BYTES cannot be framed as a get
        # answer: the row answers FAILED with the ceiling named, and the
        # admission loop keeps serving.
        from repro.service import ServiceClient

        service = _service(model)
        big = b"x" * (netproto.MAX_FRAME_BYTES + 1)
        try:
            assert ServiceClient(service).put(b"big", big).ok
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    [response] = client._call("get", [b"big"], None, True)
                    assert response.status == "failed"
                    assert str(netproto.MAX_FRAME_BYTES) in response.error
                    assert client.put(b"small", b"v").ok
                    assert client.get(b"small") == b"v"
                    stats = door.run_in_loop(door.door.stats)
                    assert stats["admission_error"] is None
        finally:
            service.close()

    def test_oversized_put_fails_without_losing_its_ack(self, model):
        # A put too large for any call frame is never sent: it answers
        # FAILED with the ceiling named, a negative ack, so the ledger
        # owes nothing and the next put goes through.
        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    response = client.put(
                        b"big", b"x" * netproto.MAX_FRAME_BYTES)
                    assert response.status == "failed"
                    assert str(netproto.MAX_FRAME_BYTES) in response.error
                    assert client.lost_acks == 0
                    assert client.put(b"small", b"v").ok
                    assert client.lost_acks == 0
                    assert door.run_in_loop(service.stats)["submitted"] == 1
        finally:
            service.close()

    def test_dead_admission_loop_shows_in_stats(self, model):
        # The loop's exception is recorded when the loop ends, not at
        # stop(): one stats read shows it.
        service = _service(model)

        def broken_pump():
            raise RuntimeError("pump broke")

        try:
            with FrontDoorThread(service) as door:
                service.pump = broken_pump
                sock = socket.create_connection(
                    ("127.0.0.1", door.port), timeout=10
                )
                try:
                    sock.sendall(netproto.encode_call(1, "get", [b"k"]))
                    for _ in range(1000):
                        error = door.run_in_loop(door.door.stats)[
                            "admission_error"]
                        if error is not None:
                            break
                        threading.Event().wait(0.01)
                finally:
                    sock.close()
                assert "pump broke" in error
        finally:
            service.close()


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_mixed_op_call_answers_alike(model, transport):
    # One op column settles through the same column code on both
    # transports: the same payloads, in call order, and no lost ack.
    from repro.service import ServiceClient

    ops = ["put", "stats", "get", "contains", "delete"]
    keys = [b"mx", b"", b"mx", b"mx", b"mx"]
    values = [b"v", b"", b"", b"", b""]
    service = _service(model)
    try:
        with FrontDoorThread(service) as door:
            client = (ServiceClient(service) if transport == "inproc"
                      else NetworkClient("127.0.0.1", door.port))
            if transport == "inproc":
                # The service belongs to the door's loop thread.
                call = door.run_in_loop
            else:
                def call(fn, *args):
                    return fn(*args)
            out = call(client._call, ops, keys, values)
            assert isinstance(out[1], dict) and out[1]["submitted"] >= 1
            assert out[:1] + out[2:] == [None, b"v", True, True]
            out = call(client._call, ["get", "contains"], keys[:2],
                       values[:2])
            assert out == [None, False]
            assert client.lost_acks == 0
            if transport == "socket":
                client.close()
    finally:
        service.close()
