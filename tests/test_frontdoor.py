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


def _read_payload(sock, decoder):
    while True:
        data = sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        for payload in decoder.feed(data):
            return payload


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
                    # Binary keys/values survive the base64 crossing.
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
                    stats = client.stats()
                    frontdoor = stats["frontdoor"]
                    # A pipelined window must coalesce: far fewer
                    # admission batches than frames, and at least one
                    # genuinely multi-frame batch.
                    assert frontdoor["max_coalesced"] > 1
                    assert (frontdoor["admission_batches"]
                            < frontdoor["admitted"])
                    # Every frame got exactly one answer.
                    assert frontdoor["frames_in"] == frontdoor["responses_out"]
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

    def test_out_of_order_collection(self, model):
        from repro.service import Request

        service = _service(model)
        try:
            with FrontDoorThread(service) as door:
                with NetworkClient("127.0.0.1", door.port) as client:
                    client.put(b"ooo", b"x")
                    transport = client.transport
                    first = transport.send([Request("get", b"ooo")])
                    second = transport.send([Request("get", b"missing")])
                    # Collect in reverse: the stash matches by frame id.
                    assert transport.wait(second)[0].value is None
                    assert transport.wait(first)[0].value == b"x"
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
        # max_pending=0: every data frame is turned away at the door
        # with an explicit rejected + retry_after — backpressure is
        # propagated as protocol, never absorbed into a hidden queue.
        service = _service(model)
        try:
            with FrontDoorThread(service, max_pending=0) as door:
                sock = socket.create_connection(("127.0.0.1", door.port),
                                                timeout=10)
                try:
                    sock.sendall(netproto.encode_frame(
                        {"id": 1, "op": "get", "key": "6162"}
                    ))
                    payload = _read_payload(sock, netproto.FrameDecoder())
                    assert payload["status"] == "rejected"
                    assert payload["retry_after"] >= 1
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
                    sock.sendall(netproto.encode_frame(
                        {"id": 9, "op": "scan"}
                    ))
                    payload = _read_payload(sock, netproto.FrameDecoder())
                    assert payload == {
                        "id": 9, "status": "bad_request",
                        "error": payload["error"],
                    }
                    # The connection survives a bad frame.
                    sock.sendall(netproto.encode_frame(
                        {"id": 10, "op": "contains", "key": "6162"}
                    ))
                    payload = _read_payload(sock, netproto.FrameDecoder())
                    assert payload["id"] == 10
                finally:
                    sock.close()
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
    """Satellite 4: WRONG_GENERATION resubmit through the socket."""

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
                    # Zero client-visible wrong-generation errors...
                    assert client.generation_retries == 0
                    # ...zero lost acked writes...
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
