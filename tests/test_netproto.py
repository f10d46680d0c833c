"""Tests for the wire protocol (repro.service.netproto)."""

import random
import struct

import pytest

from repro.service import netproto
from repro.service.protocol import (
    ANSWERED,
    FAILED,
    OTHER,
    REFUSED,
    REJECTED,
    Response,
    Run,
)

_HEAD = struct.Struct("<QBI")


def _call_body(op, keys, values=None, frame_id=0):
    """The body of one call frame (its length prefix stripped)."""
    return netproto.encode_call(frame_id, op, keys, values)[4:]


def _column(cells):
    return (struct.pack("<%dI" % (len(cells) + 1), len(cells),
                        *map(len, cells)) + b"".join(cells))


class TestFraming:
    def test_round_trip_one_frame(self):
        frame = netproto.encode_frame(b"\x00body")
        decoder = netproto.FrameDecoder()
        assert list(decoder.feed(frame)) == [b"\x00body"]
        assert decoder.buffered == 0

    def test_arbitrary_chunk_boundaries(self):
        # TCP gives the receiver no framing guarantees: byte-at-a-time
        # delivery must yield exactly the same bodies.
        frames = b"".join(
            netproto.encode_call(i, "get", [b"k%d" % i]) for i in range(5)
        )
        decoder = netproto.FrameDecoder()
        bodies = []
        for i in range(len(frames)):
            bodies.extend(decoder.feed(frames[i:i + 1]))
        assert [netproto.frame_id_of(b) for b in bodies] == list(range(5))

    def test_two_frames_in_one_chunk(self):
        chunk = (netproto.encode_call(1, "get", [b"a"])
                 + netproto.encode_call(2, "stats", [b""]))
        assert len(list(netproto.FrameDecoder().feed(chunk))) == 2

    def test_oversized_length_prefix_rejected(self):
        decoder = netproto.FrameDecoder(max_frame=64)
        bogus = struct.pack(">I", 1 << 30) + b"x"
        with pytest.raises(netproto.ProtocolError):
            list(decoder.feed(bogus))

    def test_non_json_body_rejected(self):
        # The one JSON part left is a frame's tail: a status frame whose
        # tail is not JSON is a protocol violation.
        body = _HEAD.pack(1, netproto.STATUS, 0) + b"\xff\xfenot json"
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_answers(body, _run("get", [None]), 0)

    def test_non_object_payload_rejected(self):
        body = _HEAD.pack(1, netproto.STATUS, 0) + b"[1,2,3]"
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_answers(body, _run("get", [None]), 0)


class TestRequests:
    def test_request_round_trip_binary_key(self):
        keys = [b"\x00\xffbinary", b""]
        values = [b"\x01\x02", b""]
        body = _call_body("put", keys, values, frame_id=3)
        assert netproto.frame_id_of(body) == 3
        assert netproto.decode_call(body) == ("put", keys, values)

    def test_empty_key_and_value_omitted(self):
        # A call without values, or whose values are all empty, leaves
        # the value column absent; a valued op gets its empty values
        # back.
        body = _call_body("stats", [b""])
        assert netproto.decode_call(body) == ("stats", [b""], None)
        body = _call_body("put", [b"a", b"b"], [b"", b""])
        assert body == _call_body("put", [b"a", b"b"])
        assert netproto.decode_call(body) == ("put", [b"a", b"b"],
                                              [b"", b""])

    def test_op_column_round_trip(self):
        ops = ["get", "put", "stats"]
        keys = [b"k", b"k", b""]
        values = [b"", b"v", b""]
        body = _call_body(ops, keys, values, frame_id=4)
        assert _HEAD.unpack_from(body) == (4, netproto.MIXED, 3)
        assert netproto.decode_call(body) == (ops, keys, values)

    def test_unknown_op_rejected(self):
        columns = _column([b"a", b"b"]) + _column([])
        for head in (_HEAD.pack(1, netproto.ANSWERS, 2),
                     _HEAD.pack(1, 200, 2),
                     _HEAD.pack(1, netproto.MIXED, 2) + b"\x00\x09"):
            with pytest.raises(netproto.ProtocolError):
                netproto.decode_call(head + columns)

    def test_column_length_mismatch_rejected(self):
        for body in (
            # A value column of one row in a call of two.
            _HEAD.pack(1, 1, 2) + _column([b"a", b"b"]) + _column([b"v"]),
            # No key column.
            _HEAD.pack(1, 0, 1) + _column([]) + _column([]),
            # A call of no rows.
            _HEAD.pack(1, 0, 0) + _column([]) + _column([]),
            # An op column shorter than its rows.
            _HEAD.pack(1, netproto.MIXED, 4) + b"\x00",
        ):
            with pytest.raises(netproto.ProtocolError):
                netproto.decode_call(body)

    def test_truncated_arena_rejected(self):
        # The frame ends three bytes into the key arena.
        body = _call_body("get", [b"alpha", b"beta"])[:-4]
        with pytest.raises(netproto.ProtocolError, match="arena"):
            netproto.decode_call(body[:-3])

    def test_length_column_past_frame_end_rejected(self):
        # The key lengths claim more bytes than the frame holds.
        body = (_HEAD.pack(1, 0, 2) + struct.pack("<3I", 2, 1, 1 << 30)
                + b"ab" + _column([]))
        with pytest.raises(netproto.ProtocolError, match="arena"):
            netproto.decode_call(body)
        # The length column itself runs past the frame's end.
        body = _HEAD.pack(1, 0, 2) + struct.pack("<2I", 2, 1)
        with pytest.raises(netproto.ProtocolError):
            netproto.decode_call(body)

    def test_huge_row_count_rejected_before_any_row(self):
        # A head claiming 2**32 - 1 rows in a 20-byte body fails at
        # once, before anything is built per row.
        body = _HEAD.pack(1, 0, 2 ** 32 - 1) + b"\x00" * 7
        assert len(body) == 20
        with pytest.raises(netproto.ProtocolError, match="cannot fit"):
            netproto.decode_call(body)

    def test_trailing_bytes_rejected(self):
        body = _call_body("get", [b"a"])
        with pytest.raises(netproto.ProtocolError, match="trailing"):
            netproto.decode_call(body + b"\x00")

    def test_none_key_rejected(self):
        for body in (
            _HEAD.pack(1, 0, 1) + struct.pack("<2I", 1, netproto.NONE)
            + _column([]),
            _HEAD.pack(1, 1, 1) + _column([b"k"])
            + struct.pack("<2I", 1, netproto.NONE),
        ):
            with pytest.raises(netproto.ProtocolError, match="None"):
                netproto.decode_call(body)

    def test_mutated_call_frames_raise_only_protocol_errors(self):
        # Outside input: any corruption of a valid call frame either
        # decodes or raises ProtocolError — never another exception.
        rng = random.Random(7)
        body = _call_body(["put", "get", "similar"], [b"ka", b"", b"kc"],
                          [b"v1", b"", b"5"])
        for _ in range(3000):
            mutated = bytearray(body)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            cut = rng.randint(0, len(mutated) + 2)
            try:
                netproto.decode_call(bytes(mutated[:cut]))
            except netproto.ProtocolError:
                pass

    def test_frame_id_must_be_integer(self):
        # The id is the head's first field: a body too short to hold a
        # head has none.
        for bogus in (b"", b"\x01", _HEAD.pack(7, 0, 1)[:-1]):
            with pytest.raises(netproto.ProtocolError):
                netproto.frame_id_of(bogus)
        assert netproto.frame_id_of(_HEAD.pack(2 ** 64 - 1, 0, 1)) \
            == 2 ** 64 - 1

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
            # Each span is as long as the limit allows.
            if stop < len(keys):
                longer = netproto.encode_call(
                    0, ops[start:stop + 1], keys[start:stop + 1],
                    values[start:stop + 1])
                assert len(longer) - 4 > 2048
        assert netproto.call_spans("get", keys) == [(0, len(keys))]


def _run(op, answers, status=None, offsets=None, ops=None):
    """A terminal run whose rows answered ``answers``."""
    n = len(answers)
    run = Run(op, [b"k"] * n, None, None, 0,
              list(range(n)) if offsets is None else offsets, 0, 1, ops)
    run.answers = list(answers)
    run.status[:] = bytes(status or [ANSWERED] * n)
    return run


def _decode(frames, op, rows):
    """Decode a call's answer frames into one run's columns: its status
    bytes, answers and refusal."""
    one = isinstance(op, str)
    run = Run(op if one else None, [b"k"] * rows, None, None, 0,
              range(rows), None, None, None if one else op)
    done = 0
    for body in netproto.FrameDecoder().feed(frames):
        done = netproto.decode_answers(body, run, done)
    assert done == rows
    return bytes(run.status), run.answers, run.refused


class TestResponses:
    def test_response_round_trip(self):
        # Two shards' runs of one call answer in call order: a get's
        # value cells and a contains' found flags.
        runs = [_run("get", [b"\x00v", None], offsets=[2, 0]),
                _run("get", [b""], offsets=[1])]
        frames = netproto.encode_answers(9, runs)
        (body,) = netproto.FrameDecoder().feed(frames)
        assert netproto.frame_id_of(body) == 9
        assert _decode(frames, "get", 3) == (bytes([ANSWERED] * 3),
                                             [None, b"", b"\x00v"], None)
        runs = [_run("contains", [True, False]), _run("delete", [None])]
        runs[1].offsets = [2]
        ops = ["contains", "contains", "delete"]
        assert _decode(netproto.encode_answers(1, runs), ops, 3)[1] == [
            True, False, None]

    def test_mixed_op_answers_round_trip(self):
        ops = ["put", "get", "contains", "delete", "stats"]
        answers = [None, b"v", True, False, {"submitted": 4}]
        run = Run(None, [b"k"] * 5, None, None, 0, list(range(5)), 0, 0,
                  ops)
        run.answers = list(answers)
        run.status[:] = bytes([ANSWERED] * 5)
        assert _decode(netproto.encode_answers(3, [run]), ops, 5)[1] \
            == answers

    def test_rejection_carries_retry_after(self):
        run = _run("get", [b"v", None, None],
                   status=[ANSWERED, REFUSED, REFUSED])
        run.refused = Response(REJECTED, shard=1, retry_after=3)
        status, answers, refused = _decode(
            netproto.encode_answers(1, [run]), "get", 3)
        assert status == bytes([ANSWERED, REFUSED, REFUSED])
        assert answers[0] == b"v"
        assert refused.status == REJECTED
        assert refused.retry_after == 3

    def test_failed_row_keeps_its_fields(self):
        failed = Response(FAILED, shard=2, error="structure full")
        run = _run("put", [None, failed], status=[ANSWERED, OTHER])
        status, answers, _ = _decode(netproto.encode_answers(4, [run]),
                                     "put", 2)
        assert status == bytes([ANSWERED, OTHER])
        assert answers == [None, failed]

    def test_similar_neighbors_round_trip(self):
        neighbors = [(b"\x00\xff doc", 0.75), (b"plain", 0.5)]
        run = _run("similar", [neighbors, [], None])
        assert _decode(netproto.encode_answers(2, [run]), "similar", 3)[1] \
            == [neighbors, [], None]

    def test_status_frame(self):
        # A whole-frame status answers every row still unanswered.
        frame = netproto.encode_status(5, netproto.DRAINING,
                                       error="shutting down",
                                       retry_after=0)
        status, answers, refused = _decode(frame, "get", 3)
        assert status == bytes([OTHER] * 3) and refused is None
        for response in answers:
            assert response.status == netproto.DRAINING
            assert response.error == "shutting down"
            assert response.retry_after == 0
        # A refused pipeline refuses every row, with its hint.
        frame = netproto.encode_status(6, REJECTED, retry_after=1)
        status, answers, _ = _decode(frame, "put", 2)
        assert status == bytes([OTHER] * 2)
        assert [(a.status, a.retry_after) for a in answers] == [
            (REJECTED, 1)] * 2

    def test_missing_status_rejected(self):
        head = _HEAD.pack(1, netproto.ANSWERS, 1)
        for body in (
            head + bytes([OTHER]) + _column([]),             # no tail
            head + b"\x07" + _column([]),                     # bad code
            head + bytes([OTHER]) + _column([])
            + b'{"rows":[[0,{"error":"x"}]]}',                # no status
            head + bytes([OTHER]) + _column([])
            + b'{"rows":[[0,{"status":"failed","bogus":1}]]}',
            head + bytes([ANSWERED]) + _column([])
            + b'{"rows":[[-1,{"stats":{}}]]}',                # row outside
            _HEAD.pack(1, 0, 1) + bytes([ANSWERED]) + _column([]),
            _HEAD.pack(1, netproto.ANSWERS, 2) + bytes([ANSWERED] * 2),
        ):
            with pytest.raises(netproto.ProtocolError):
                netproto.decode_answers(body, _run("get", [None]), 0)

    def test_mutated_answer_frames_raise_only_protocol_errors(self):
        # The client's decoder reads input from outside too: any
        # corruption of valid answer frames decodes or raises
        # ProtocolError — never another exception.
        rng = random.Random(11)
        failed = Response(FAILED, shard=1, error="x")
        ops = ["get", "contains", "stats", "similar", "put"]
        run = _run(None, [b"v", True, {"a": 1}, [(b"n", 0.5)], failed],
                   status=[ANSWERED] * 4 + [OTHER], ops=ops)
        bodies = list(netproto.FrameDecoder().feed(
            netproto.encode_answers(1, [run])
            + netproto.encode_status(1, REJECTED, retry_after=2)))
        for _ in range(3000):
            mutated = bytearray(rng.choice(bodies))
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            cut = rng.randint(0, len(mutated) + 2)
            target = Run(None, [b"k"] * 5, None, None, 0, range(5), None,
                         None, ops)
            try:
                netproto.decode_answers(bytes(mutated[:cut]), target, 0)
            except netproto.ProtocolError:
                pass

    def test_stats_pass_through_json_safe(self):
        stats = {"submitted": 4, "nested": {"a": 1}}
        run = _run("stats", [stats])
        assert _decode(netproto.encode_answers(2, [run]), "stats", 1)[1] \
            == [stats]

    def test_oversized_answers_split_across_frames(self):
        # Answers past the frame ceiling go as consecutive frames of
        # the same id, in call order.
        value = b"x" * (netproto.MAX_FRAME_BYTES // 4)
        values = [value + bytes([i]) for i in range(6)]
        frames = netproto.encode_answers(8, [_run("get", values)])
        bodies = list(netproto.FrameDecoder().feed(frames))
        assert len(bodies) > 1
        assert {netproto.frame_id_of(b) for b in bodies} == {8}
        assert _decode(frames, "get", 6)[1] == values

    def test_answer_past_the_ceiling_fails_its_row(self):
        big = b"x" * (netproto.MAX_FRAME_BYTES + 1)
        frames = netproto.encode_answers(3, [_run("get", [b"v", big])])
        status, answers, _ = _decode(frames, "get", 2)
        assert status == bytes([ANSWERED, OTHER])
        assert answers[0] == b"v"
        assert answers[1].status == FAILED
        assert str(netproto.MAX_FRAME_BYTES) in answers[1].error
