"""Tests for the wire protocol (repro.service.netproto)."""

import json
import struct

import pytest

from repro.service import netproto
from repro.service.protocol import OK, REJECTED, Response


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


def _payloads(frames):
    return list(netproto.FrameDecoder().feed(frames))


class TestRequests:
    def test_request_round_trip_binary_key(self):
        keys = [b"\x00\xffbinary", b""]
        values = [b"\x01\x02", b""]
        (payload,) = _payloads(netproto.encode_call(3, "put", keys, values))
        assert netproto.frame_id_of(payload) == 3
        assert netproto.decode_call(payload) == ("put", keys, values)

    def test_empty_key_and_value_omitted(self):
        # A call without values, or whose values are all empty, leaves
        # the values column out; a valued op gets its empty values back.
        (payload,) = _payloads(netproto.encode_call(0, "stats", [b""]))
        assert "values" not in payload
        assert netproto.decode_call(payload) == ("stats", [b""], None)
        (payload,) = _payloads(
            netproto.encode_call(1, "put", [b"a", b"b"], [b"", b""])
        )
        assert "values" not in payload
        assert netproto.decode_call(payload) == ("put", [b"a", b"b"],
                                                 [b"", b""])

    def test_op_column_round_trip(self):
        ops = ["get", "put", "stats"]
        keys = [b"k", b"k", b""]
        values = [b"", b"v", b""]
        (payload,) = _payloads(netproto.encode_call(4, ops, keys, values))
        assert payload["op"] == ops
        assert netproto.decode_call(payload) == (ops, keys, values)

    def test_unknown_op_rejected(self):
        for op in ("scan", ["get", "scan"], None, 7):
            with pytest.raises(netproto.ProtocolError):
                netproto.decode_call(
                    {"id": 1, "op": op, "keys": ["YQ==", "Yg=="]}
                )

    def test_column_length_mismatch_rejected(self):
        for payload in (
            {"id": 1, "op": ["get"], "keys": ["YQ==", "Yg=="]},
            {"id": 1, "op": "put", "keys": ["YQ=="], "values": []},
            {"id": 1, "op": "get", "keys": "YQ=="},
            {"id": 1, "op": "get"},
            {"id": 1, "op": "get", "keys": [None]},
        ):
            with pytest.raises(netproto.ProtocolError):
                netproto.decode_call(payload)

    def test_bad_base64_rejected(self):
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_call({"id": 1, "op": "get", "keys": ["@@@"]})

    def test_frame_id_must_be_integer(self):
        for bogus in ({"op": "get"}, {"id": "7"}, {"id": True},
                      {"id": 1.5}):
            with pytest.raises(netproto.ProtocolError):
                netproto.frame_id_of(bogus)

    def test_call_spans_keep_every_frame_under_the_limit(self):
        keys = [b"key-%04d" % i for i in range(300)]
        values = [b"v" * (i % 50) for i in range(300)]
        ops = ["put"] * 300
        spans = netproto.call_spans(ops, keys, values, limit=2048)
        assert len(spans) > 1
        assert spans[0][0] == 0 and spans[-1][1] == len(keys)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        for start, stop in spans:
            frame = netproto.encode_call(
                0, ops[start:stop], keys[start:stop], values[start:stop]
            )
            assert len(frame) - 4 <= 2048
        assert netproto.call_spans("get", keys) == [(0, len(keys))]


class TestResponses:
    def test_response_round_trip(self):
        responses = [Response(OK, value=b"\x00v", found=True, shard=2),
                     Response(OK, found=False, shard=0)]
        (payload,) = _payloads(netproto.encode_answers(9, responses))
        assert netproto.frame_id_of(payload) == 9
        assert netproto.decode_answers(payload, 2) == responses

    def test_rejection_carries_retry_after(self):
        (payload,) = _payloads(netproto.encode_answers(
            1, [Response(REJECTED, shard=0, retry_after=3)]
        ))
        assert netproto.decode_answers(payload, 1)[0].retry_after == 3

    def test_status_frame(self):
        # A whole-frame status answers every row of the call.
        frame = netproto.encode_status(5, netproto.DRAINING,
                                       error="shutting down",
                                       retry_after=0)
        (payload,) = _payloads(frame)
        decoded = netproto.decode_answers(payload, 3)
        assert len(decoded) == 3
        for response in decoded:
            assert response.status == netproto.DRAINING
            assert response.error == "shutting down"
            assert response.retry_after == 0

    def test_missing_status_rejected(self):
        for payload in ({"id": 1}, {"id": 1, "answers": [{}]},
                        {"id": 1, "answers": [7]},
                        {"id": 1, "answers": "ok"}):
            with pytest.raises(netproto.ProtocolError):
                netproto.decode_answers(payload, 1)

    def test_stats_pass_through_json_safe(self):
        (payload,) = _payloads(netproto.encode_answers(
            2, [Response(OK, stats={"submitted": 4, "nested": {"a": 1}})]
        ))
        assert netproto.decode_answers(payload, 1)[0].stats == {
            "submitted": 4, "nested": {"a": 1},
        }

    def test_oversized_answers_split_across_frames(self):
        # Answers past the frame ceiling go as consecutive frames of
        # the same id, in call order.
        value = b"x" * (netproto.MAX_FRAME_BYTES // 4)
        responses = [Response(OK, value=value + bytes([i]), found=True)
                     for i in range(6)]
        payloads = _payloads(netproto.encode_answers(8, responses))
        assert len(payloads) > 1
        assert {netproto.frame_id_of(p) for p in payloads} == {8}
        decoded = [response for payload in payloads
                   for response in netproto.decode_answers(payload, 0)]
        assert decoded == responses
