"""Wire protocol for the network front door: length-prefixed JSON.

One frame is a 4-byte big-endian length followed by exactly that many
bytes of UTF-8 JSON — the simplest framing that survives TCP's stream
semantics without a parser state machine.  The JSON payload maps 1:1
onto the typed in-process protocol (:mod:`repro.service.protocol`):
a request frame carries ``{"id", "op", "key", "value"}`` and a
response frame carries ``{"id", "status", ...}`` with the same fields
:class:`~repro.service.protocol.Response` has.  Keys and values are
arbitrary bytes, so they cross the wire base64-encoded; everything
else is already JSON-safe by the protocol's design.

Frame ids are assigned by the client and echoed by the server.  They
exist because the front door answers a frame when its *ticket*
resolves, and tickets on different shards resolve in shard order — so
responses on one connection may come back out of submission order and
the client must match them by id.

Two statuses exist only on the wire, on top of the service's own
``ok`` / ``rejected`` / ``failed``:

* ``draining`` — the server is in graceful shutdown; in-flight
  requests still complete, new ones are turned away.
* ``bad_request`` — the frame was structurally broken (unknown op,
  undecodable key); nothing was admitted.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Dict, Iterator, Optional

from repro.service.protocol import OPS, Request, Response

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


def _b64(data: Optional[bytes]) -> Optional[str]:
    if data is None:
        return None
    return base64.b64encode(data).decode("ascii")


def _unb64(text: Optional[str], field: str) -> Optional[bytes]:
    if text is None:
        return None
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


# ------------------------------------------------------------ requests


def encode_request(frame_id: int, request: Request) -> bytes:
    """One request frame: the typed Request plus a client-chosen id."""
    payload: Dict[str, object] = {"id": int(frame_id), "op": request.op}
    if request.key:
        payload["key"] = _b64(request.key)
    if request.value:
        payload["value"] = _b64(request.value)
    return encode_frame(payload)


def decode_request(payload: Dict[str, object]) -> Request:
    """Build the typed Request a request payload describes.

    Raises :class:`ProtocolError` on schema violations, so the server
    can answer ``bad_request`` instead of tearing the connection down.
    """
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    key = _unb64(payload.get("key"), "key") or b""
    value = _unb64(payload.get("value"), "value") or b""
    return Request(str(op), key, value)


def frame_id_of(payload: Dict[str, object]) -> int:
    frame_id = payload.get("id")
    if not isinstance(frame_id, int) or isinstance(frame_id, bool):
        raise ProtocolError(f"frame id {frame_id!r} is not an integer")
    return frame_id


# ----------------------------------------------------------- responses


def encode_response(frame_id: int, response: Response) -> bytes:
    """One response frame: the typed Response keyed by the echoed id."""
    payload: Dict[str, object] = {
        "id": int(frame_id), "status": response.status,
    }
    if response.value is not None:
        payload["value"] = _b64(response.value)
    if response.neighbors is not None:
        # Neighbor keys are arbitrary bytes, so each pair crosses the
        # wire as [base64 key, score] — the one nested-bytes field the
        # generic loop below cannot handle.
        payload["neighbors"] = [
            [_b64(key), float(score)] for key, score in response.neighbors
        ]
    for field in ("found", "shard", "retry_after", "error", "stats"):
        attr = getattr(response, field)
        if attr is not None:
            payload[field] = attr
    return encode_frame(payload)


def encode_status(frame_id: int, status: str,
                  error: Optional[str] = None,
                  retry_after: Optional[int] = None) -> bytes:
    """A bare wire-status frame (``draining`` / ``bad_request``)."""
    payload: Dict[str, object] = {"id": int(frame_id), "status": status}
    if error is not None:
        payload["error"] = error
    if retry_after is not None:
        payload["retry_after"] = int(retry_after)
    return encode_frame(payload)


def decode_response(payload: Dict[str, object]) -> Response:
    """Rebuild the typed Response a response payload describes."""
    status = payload.get("status")
    if not isinstance(status, str) or not status:
        raise ProtocolError("response frame carries no status")
    neighbors = payload.get("neighbors")
    if neighbors is not None:
        if not isinstance(neighbors, list):
            raise ProtocolError("field 'neighbors' must be a list")
        try:
            neighbors = [
                (_unb64(str(key), "neighbors"), float(score))
                for key, score in neighbors
            ]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "field 'neighbors' must be [base64, number] pairs"
            ) from exc
    return Response(
        status,
        value=_unb64(payload.get("value"), "value"),
        found=payload.get("found"),
        shard=payload.get("shard"),
        retry_after=payload.get("retry_after"),
        error=payload.get("error"),
        stats=payload.get("stats"),
        neighbors=neighbors,
    )


__all__ = [
    "BAD_REQUEST",
    "DRAINING",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_payload",
    "decode_request",
    "decode_response",
    "encode_frame",
    "encode_request",
    "encode_response",
    "encode_status",
    "frame_id_of",
]
