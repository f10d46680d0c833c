"""Tests for the wire protocol (repro.service.netproto)."""

import json
import struct

import pytest

from repro.service import netproto
from repro.service.protocol import OK, REJECTED, Request, Response


class TestFraming:
    def test_round_trip_one_frame(self):
        frame = netproto.encode_frame({"id": 7, "op": "get"})
        decoder = netproto.FrameDecoder()
        payloads = list(decoder.feed(frame))
        assert payloads == [{"id": 7, "op": "get"}]
        assert decoder.buffered == 0

    def test_arbitrary_chunk_boundaries(self):
        # TCP gives the receiver no framing guarantees: byte-at-a-time
        # delivery must yield exactly the same payloads.
        frames = b"".join(
            netproto.encode_frame({"id": i, "op": "get"}) for i in range(5)
        )
        decoder = netproto.FrameDecoder()
        payloads = []
        for i in range(len(frames)):
            payloads.extend(decoder.feed(frames[i:i + 1]))
        assert [p["id"] for p in payloads] == list(range(5))

    def test_two_frames_in_one_chunk(self):
        chunk = (netproto.encode_frame({"id": 1, "op": "get"})
                 + netproto.encode_frame({"id": 2, "op": "stats"}))
        assert len(list(netproto.FrameDecoder().feed(chunk))) == 2

    def test_oversized_length_prefix_rejected(self):
        decoder = netproto.FrameDecoder(max_frame=64)
        bogus = struct.pack(">I", 1 << 30) + b"x"
        with pytest.raises(netproto.ProtocolError):
            list(decoder.feed(bogus))

    def test_non_json_body_rejected(self):
        body = b"\xff\xfenot json"
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(netproto.ProtocolError):
            list(netproto.FrameDecoder().feed(frame))

    def test_non_object_payload_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(netproto.ProtocolError):
            list(netproto.FrameDecoder().feed(frame))


class TestRequests:
    def test_request_round_trip_binary_key(self):
        request = Request("put", b"\x00\xffbinary", b"\x01\x02")
        frame = netproto.encode_request(3, request)
        payload = next(iter(netproto.FrameDecoder().feed(frame)))
        assert netproto.frame_id_of(payload) == 3
        assert netproto.decode_request(payload) == request

    def test_empty_key_and_value_omitted(self):
        frame = netproto.encode_request(0, Request("stats"))
        payload = next(iter(netproto.FrameDecoder().feed(frame)))
        assert "key" not in payload and "value" not in payload
        assert netproto.decode_request(payload) == Request("stats")

    def test_unknown_op_rejected(self):
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_request({"id": 1, "op": "scan"})

    def test_bad_base64_rejected(self):
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_request({"id": 1, "op": "get", "key": "@@@"})

    def test_frame_id_must_be_integer(self):
        for bogus in ({"op": "get"}, {"id": "7"}, {"id": True},
                      {"id": 1.5}):
            with pytest.raises(netproto.ProtocolError):
                netproto.frame_id_of(bogus)


class TestResponses:
    def test_response_round_trip(self):
        response = Response(OK, value=b"\x00v", found=True, shard=2)
        frame = netproto.encode_response(9, response)
        payload = next(iter(netproto.FrameDecoder().feed(frame)))
        assert netproto.frame_id_of(payload) == 9
        assert netproto.decode_response(payload) == response

    def test_rejection_carries_retry_after(self):
        frame = netproto.encode_response(
            1, Response(REJECTED, shard=0, retry_after=3)
        )
        payload = next(iter(netproto.FrameDecoder().feed(frame)))
        assert netproto.decode_response(payload).retry_after == 3

    def test_status_frame(self):
        frame = netproto.encode_status(5, netproto.DRAINING,
                                       error="shutting down",
                                       retry_after=0)
        payload = next(iter(netproto.FrameDecoder().feed(frame)))
        decoded = netproto.decode_response(payload)
        assert decoded.status == netproto.DRAINING
        assert decoded.error == "shutting down"
        assert decoded.retry_after == 0

    def test_missing_status_rejected(self):
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_response({"id": 1})

    def test_stats_pass_through_json_safe(self):
        frame = netproto.encode_response(
            2, Response(OK, stats={"submitted": 4, "nested": {"a": 1}})
        )
        payload = next(iter(netproto.FrameDecoder().feed(frame)))
        assert netproto.decode_response(payload).stats == {
            "submitted": 4, "nested": {"a": 1},
        }
