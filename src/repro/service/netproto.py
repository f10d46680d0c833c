"""Wire protocol for the network front door: length-prefixed JSON.

One frame is a 4-byte big-endian length followed by exactly that many
bytes of UTF-8 JSON — the simplest framing that survives TCP's stream
semantics without a parser state machine.  A frame carries
one client call as the columns
:meth:`~repro.service.service.Service.submit` admits: a request
frame is ``{"id", "op", "keys", "values"}`` (``op`` one op or an op
column, ``values`` left out when the call has none), and its response
frame ``{"id", "answers"}``, one answer per row in call order with the
fields :class:`~repro.service.protocol.Response` has.  Keys and values
are arbitrary bytes, so each cell crosses the wire base64-encoded.  A
call whose frame would pass :data:`MAX_FRAME_BYTES` is cut into
consecutive sub-calls (:func:`call_spans`); answers too large for one
frame go as consecutive frames of the same id.  Frame ids are assigned
by the client and echoed by the server.

A whole-frame status ``{"id", "status", ...}`` answers every row of a
call at once.  Two statuses exist only on the wire, on top of the
service's own ``ok`` / ``rejected`` / ``failed``:

* ``draining`` — the server is in graceful shutdown; in-flight calls
  still complete, new ones are turned away.
* ``bad_request`` — the frame was structurally broken (unknown op,
  undecodable key, columns of unequal length); nothing was admitted.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.service.protocol import FAILED, OPS, Response

# Wire-only statuses (the rest come from repro.service.protocol).
DRAINING = "draining"
BAD_REQUEST = "bad_request"

# A frame larger than this is a protocol violation, not a big request:
# keys and values are bounded far below it, and without a ceiling one
# malformed length prefix would make the server buffer 4 GiB.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (length, JSON, or schema)."""


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str, field: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, AttributeError) as exc:
        raise ProtocolError(f"field {field!r} is not valid base64") from exc


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialize one JSON payload into a length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, object]:
    """Parse one frame body back into its JSON payload."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


class FrameDecoder:
    """Incremental frame parser: feed raw bytes, iterate payloads.

    TCP hands the receiver arbitrary chunk boundaries; this class owns
    the reassembly buffer so both the asyncio server and the blocking
    client share one tested implementation.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Dict[str, object]]:
        """Absorb ``data``; yield every payload it completes."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame}-byte ceiling"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            yield decode_payload(body)

    @property
    def buffered(self) -> int:
        return len(self._buffer)


# --------------------------------------------------------------- calls

# The ops whose rows carry a value: a call frame that omits its values
# column gives each of their rows the empty value.
_VALUED = ("put", "similar")

# Bytes of a call frame outside its cells (the field names, the id and
# the brackets), rounded up.
_CALL_OVERHEAD = 64


def _cells(column: object, field: str, rows: Optional[int] = None
           ) -> List[bytes]:
    if not isinstance(column, list) or rows not in (None, len(column)):
        raise ProtocolError(
            f"field {field!r} must be a list of base64 cells, one per key"
        )
    return [_unb64(cell, field) for cell in column]  # type: ignore[misc]


def encode_call(frame_id: int, op, keys: Sequence[bytes],
                values: Optional[Sequence[bytes]] = None) -> bytes:
    """One request frame: a whole call as columns plus a client-chosen
    id.  ``op`` is one op for every row or an op column; the values
    column is omitted when the call has none or all are empty."""
    payload: Dict[str, object] = {
        "id": int(frame_id),
        "op": op if isinstance(op, str) else list(op),
        "keys": [_b64(key) for key in keys],
    }
    if values is not None and any(values):
        payload["values"] = [_b64(value) for value in values]
    return encode_frame(payload)


def decode_call(payload: Dict[str, object]
                ) -> Tuple[object, List[bytes], Optional[List[bytes]]]:
    """The ``(op, keys, values)`` columns of a call frame, as
    :meth:`~repro.service.service.Service.submit` takes them.

    Raises :class:`ProtocolError` on schema violations (an unknown op,
    a column of the wrong length, a cell that is not base64), so the
    server can answer ``bad_request`` instead of tearing the connection
    down.
    """
    keys = _cells(payload.get("keys"), "keys")
    op = payload.get("op")
    ops = op if isinstance(op, list) else [op] * len(keys)
    if len(ops) != len(keys):
        raise ProtocolError(f"{len(ops)} ops for {len(keys)} keys")
    for each in ops:
        if each not in OPS:
            raise ProtocolError(f"unknown op {each!r}; choose from {OPS}")
    values = payload.get("values")
    if values is not None:
        values = _cells(values, "values", len(keys))
    elif any(each in _VALUED for each in ops):
        values = [b""] * len(keys)
    return op, keys, values


def call_spans(op, keys: Sequence[bytes],
               values: Optional[Sequence[bytes]] = None,
               limit: int = MAX_FRAME_BYTES) -> List[Tuple[int, int]]:
    """Cut a call into consecutive ``(start, stop)`` row spans whose
    call frames each stay within ``limit`` bytes.  A row too large on
    its own still gets a span, and :func:`encode_frame` refuses it."""
    spans: List[Tuple[int, int]] = []
    start = 0
    size = _CALL_OVERHEAD
    for row, key in enumerate(keys):
        # A base64 cell is 4 bytes per 3, plus its quotes and comma.
        cost = 4 * ((len(key) + 2) // 3) + 3
        if values is not None:
            cost += 4 * ((len(values[row]) + 2) // 3) + 3
        if not isinstance(op, str):
            cost += len(op[row]) + 3
        if size + cost > limit and row > start:
            spans.append((start, row))
            start = row
            size = _CALL_OVERHEAD
        size += cost
    spans.append((start, len(keys)))
    return spans


def frame_id_of(payload: Dict[str, object]) -> int:
    frame_id = payload.get("id")
    if not isinstance(frame_id, int) or isinstance(frame_id, bool):
        raise ProtocolError(f"frame id {frame_id!r} is not an integer")
    return frame_id


# ------------------------------------------------------------- answers


def _answer(response: Response) -> Dict[str, object]:
    """One row's answer: the typed Response as a JSON object."""
    answer: Dict[str, object] = {"status": response.status}
    if response.value is not None:
        answer["value"] = _b64(response.value)
    if response.neighbors is not None:
        # Neighbor keys are arbitrary bytes, so each pair crosses the
        # wire as [base64 key, score] — the one nested-bytes field the
        # generic loop below cannot handle.
        answer["neighbors"] = [
            [_b64(key), float(score)] for key, score in response.neighbors
        ]
    for field in ("found", "shard", "retry_after", "error", "stats"):
        attr = getattr(response, field)
        if attr is not None:
            answer[field] = attr
    return answer


def _answer_frames(frame_id: int, answers: List[Dict[str, object]]) -> bytes:
    try:
        return encode_frame({"id": frame_id, "answers": answers})
    except ProtocolError as exc:
        if len(answers) < 2:
            # One row's answer alone passes the ceiling: the row fails,
            # and its answer says why.
            failed = {"status": FAILED, "error": f"answer too large: {exc}"}
            if "shard" in answers[0]:
                failed["shard"] = answers[0]["shard"]
            return encode_frame({"id": frame_id, "answers": [failed]})
        half = len(answers) // 2
        return (_answer_frames(frame_id, answers[:half])
                + _answer_frames(frame_id, answers[half:]))


def encode_answers(frame_id: int, responses: Sequence[Response]) -> bytes:
    """A call's answers, one per row in call order, keyed by the echoed
    id.  Answers too large for one frame go as consecutive frames of
    that id, each within :data:`MAX_FRAME_BYTES`; a row whose answer
    alone passes it is answered ``failed``, with an error naming the
    ceiling."""
    return _answer_frames(int(frame_id),
                          [_answer(response) for response in responses])


def encode_status(frame_id: int, status: str,
                  error: Optional[str] = None,
                  retry_after: Optional[int] = None) -> bytes:
    """A whole-frame status (``draining``, ``bad_request``, a refused
    pipeline): one answer for every row of the call."""
    answer = _answer(Response(status, retry_after=retry_after, error=error))
    return encode_frame(dict(answer, id=int(frame_id)))


def _response(answer: object) -> Response:
    if not isinstance(answer, dict):
        raise ProtocolError("an answer must be a JSON object")
    status = answer.get("status")
    if not isinstance(status, str) or not status:
        raise ProtocolError("answer carries no status")
    neighbors = answer.get("neighbors")
    try:
        if neighbors is not None:
            neighbors = [(_unb64(key, "neighbors"), float(score))
                         for key, score in neighbors]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            "field 'neighbors' must be a list of [base64, number] pairs"
        ) from exc
    value = answer.get("value")
    return Response(
        status,
        value=None if value is None else _unb64(value, "value"),
        found=answer.get("found"),
        shard=answer.get("shard"),
        retry_after=answer.get("retry_after"),
        error=answer.get("error"),
        stats=answer.get("stats"),
        neighbors=neighbors,
    )


def decode_answers(payload: Dict[str, object], rows: int) -> List[Response]:
    """The typed Responses one response frame carries: its answers, or
    a whole-frame status repeated for the ``rows`` still unanswered."""
    answers = payload.get("answers")
    if answers is None:
        return [_response(payload)] * rows
    if not isinstance(answers, list):
        raise ProtocolError("field 'answers' must be a list")
    return [_response(answer) for answer in answers]


__all__ = [
    "BAD_REQUEST",
    "DRAINING",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "call_spans",
    "decode_answers",
    "decode_call",
    "decode_payload",
    "encode_answers",
    "encode_call",
    "encode_frame",
    "encode_status",
    "frame_id_of",
]
