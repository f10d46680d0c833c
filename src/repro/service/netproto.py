"""Wire protocol for the network front door: length-prefixed columns.

A frame is a 4-byte big-endian length, then that many bytes of body.
A body opens with a head ``(id u64, kind u8, rows u32)``, little-endian
like every length after it.  A *column* is a row count (0: absent), one
``uint32`` length per row (:data:`NONE`: a None cell) and the arena of
the cell bytes.  A **call frame**'s ``kind`` is the op's index in
``OPS``, or :data:`MIXED` and one op-code byte per row; a key column and
a value column (absent when every value is empty) follow.  An **answer
frame** (:data:`ANSWERS`) holds the rows' status bytes in call order,
as a :class:`~repro.service.protocol.Run` holds them, a cell column (a
get's value, a contains/delete found flag as one byte) and a JSON tail
of the rare fields, if any: one ``retry_after`` for the frame and, by
row, a ``stats`` dict, ``similar`` neighbors as ``[key, score]`` (the
key a latin-1 string) or a non-OK Response's fields.  A **status
frame** (:data:`STATUS`) is one JSON Response for every row still
unanswered, such as the wire-only ``draining`` (shutdown turned the call
away) and ``bad_request`` (a broken frame; nothing was admitted).  A
call past :data:`MAX_FRAME_BYTES` goes as sub-calls (:func:`call_spans`),
answers past it as several frames of the id the client chose.  Decoders
check each count and length against the bytes present before slicing,
and raise :class:`ProtocolError`.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.metrics import dumps
from repro.service.protocol import (ANSWERED, FAILED, OPS, OTHER, REFUSED,
                                    REJECTED, VALUED, Response, Run)

# Wire-only statuses (the rest come from repro.service.protocol).
DRAINING = "draining"
BAD_REQUEST = "bad_request"

# A frame larger than this is a protocol violation, not a big request:
# keys and values are bounded far below it, and without a ceiling one
# malformed length prefix would make the server buffer 4 GiB.
MAX_FRAME_BYTES = 1 << 20

# Frame kinds past the op codes, and the length of a None cell.
MIXED, ANSWERS, STATUS = len(OPS), len(OPS) + 1, len(OPS) + 2
NONE = 0xFFFFFFFF

_LENGTH = struct.Struct(">I")
_HEAD = struct.Struct("<QBI")
_ABSENT = b"\0\0\0\0"
_CODE = {op: code for code, op in enumerate(OPS)}
_FOUND = ("contains", "delete")   # ops whose OK cell is a found flag
# The Response fields a non-OK row's tail carries.
_FIELDS = ("status", "found", "shard", "retry_after", "error", "stats")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (a length, a code, a tail)."""


def encode_frame(body: bytes) -> bytes:
    """Prefix one body with its length; refuse one past the ceiling."""
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte ceiling")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame parser: feed raw bytes, iterate bodies.

    TCP hands the receiver arbitrary chunk boundaries; this class owns
    the reassembly buffer so both the asyncio server and the blocking
    client share one tested implementation.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Absorb ``data``; yield every body it completes."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(f"declared frame length {length} exceeds "
                                    f"the {self.max_frame}-byte ceiling")
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            yield body

    @property
    def buffered(self) -> int:
        return len(self._buffer)


def _head(body: bytes) -> Tuple[int, int, int]:
    if len(body) < _HEAD.size:
        raise ProtocolError(f"a {len(body)}-byte frame has no head")
    return _HEAD.unpack_from(body)


def frame_id_of(body: bytes) -> int:
    return _head(body)[0]


def _column(cells: Sequence[Optional[bytes]]) -> bytes:
    """One column of ``cells``; absent when every cell is None."""
    lengths = [NONE if cell is None else len(cell) for cell in cells]
    if lengths.count(NONE) == len(lengths):
        return _ABSENT
    return (struct.pack("<%dI" % (len(lengths) + 1), len(lengths), *lengths)
            + b"".join(filter(None, cells)))


def _read_column(body: bytes, pos: int, rows: int, name: str,
                 nullable: bool = False) -> Tuple[Optional[list], int]:
    """The column at ``pos`` (None: absent) and the position past it."""
    if pos + 4 > len(body):
        raise ProtocolError(f"the {name} column is cut short")
    (count,) = struct.unpack_from("<I", body, pos)
    if not count:
        return None, pos + 4
    arena = pos + 4 + 4 * rows
    if count != rows or arena > len(body):
        raise ProtocolError(f"a {name} column of {count} rows cannot "
                            f"fit a frame of {rows} rows")
    lengths = sizes = struct.unpack_from("<%dI" % rows, body, pos + 4)
    if NONE in lengths:
        if not nullable:
            raise ProtocolError(f"a {name} cell is None")
        sizes = [0 if length == NONE else length for length in lengths]
    ends = list(accumulate(sizes, initial=arena))
    if ends[-1] > len(body):
        raise ProtocolError(f"the {name} arena runs past the frame's end")
    cells = [body[start:end] for start, end in zip(ends, ends[1:])]
    if sizes is not lengths:
        cells = [None if length == NONE else cell
                 for length, cell in zip(lengths, cells)]
    return cells, ends[-1]


def encode_call(frame_id: int, op, keys: Sequence[bytes],
                values: Optional[Sequence[bytes]] = None) -> bytes:
    """One call frame: a whole call as columns plus a client-chosen
    id.  ``op`` is one op for every row or an op column."""
    head = (_HEAD.pack(frame_id, _CODE[op], len(keys)) if isinstance(op, str)
            else _HEAD.pack(frame_id, MIXED, len(keys))
            + bytes(map(_CODE.__getitem__, op)))
    return encode_frame(head + _column(keys) + (
        _column(values) if values is not None and any(values) else _ABSENT))


def decode_call(body: bytes
                ) -> Tuple[object, List[bytes], Optional[List[bytes]]]:
    """The ``(op, keys, values)`` a call frame carries, as
    :meth:`~repro.service.service.Service.submit` takes them (``op`` one
    op or a list); :class:`ProtocolError` on any violation, for the
    server to answer ``bad_request``."""
    _, kind, rows = _head(body)
    pos = _HEAD.size
    # Every row costs at least its key length: nothing is built per
    # row before the claimed rows fit the bytes present.
    if not 0 < rows <= (len(body) - pos) // 4:
        raise ProtocolError(
            f"a call of {rows} rows cannot fit a {len(body)}-byte frame")
    codes = body[pos:pos + rows] if kind == MIXED else bytes((kind,))
    if max(codes) >= len(OPS):
        raise ProtocolError(f"unknown op code; choose from {OPS}")
    op = [OPS[code] for code in codes] if kind == MIXED else OPS[kind]
    keys, pos = _read_column(body, pos + rows * (kind == MIXED), rows, "key")
    values, pos = _read_column(body, pos, rows, "value")
    if keys is None or pos != len(body):
        raise ProtocolError("a call frame needs its key column and no "
                            f"trailing bytes ({len(body) - pos} trail it)")
    if values is None and any(OPS[code] in VALUED for code in set(codes)):
        values = [b""] * rows
    return op, keys, values


def call_spans(op, keys: Sequence[bytes],
               values: Optional[Sequence[bytes]] = None,
               limit: int = MAX_FRAME_BYTES) -> List[Tuple[int, int]]:
    """Cut a call into consecutive ``(start, stop)`` row spans whose
    call frames each stay within ``limit`` bytes.  A row too large on
    its own still gets a span, and :func:`encode_frame` refuses it."""
    spans: List[Tuple[int, int]] = []
    start = 0
    overhead = size = _HEAD.size + 8   # the head and two row counts
    mixed = not isinstance(op, str)
    for row, key in enumerate(keys):
        # A cell's length and bytes, and a mixed call's op-code byte.
        cost = 4 + len(key) + mixed
        if values is not None:
            cost += 4 + len(values[row])
        if size + cost > limit and row > start:
            spans.append((start, row))
            start = row
            size = overhead
        size += cost
    spans.append((start, len(keys)))
    return spans


def _json(fields: Dict[str, object]) -> bytes:
    return dumps(fields, separators=(",", ":")).encode("utf-8")


def _fields(response: Response) -> Dict[str, object]:
    return {field: getattr(response, field) for field in _FIELDS
            if getattr(response, field) is not None}


def _answer_frames(frame_id: int, status: bytearray, cells: list,
                   tail: Dict[int, dict], retry_after: Optional[int],
                   start: int, stop: int) -> bytes:
    """The answer frames of rows ``[start, stop)``: one, or halves
    until each fits the ceiling."""
    rows = [[row - start, tail[row]] for row in sorted(tail)
            if start <= row < stop]
    refused = retry_after is not None and REFUSED in status[start:stop]
    body = (_HEAD.pack(frame_id, ANSWERS, stop - start) + status[start:stop]
            + _column(cells[start:stop]) + (_json(
                {"rows": rows, "retry_after": retry_after})
                if rows or refused else b""))
    try:
        return encode_frame(body)
    except ProtocolError as exc:
        if stop - start == 1:
            # One row's answer alone passes the ceiling: the row fails,
            # and its answer says why.
            failed = {"status": FAILED, "error": f"answer too large: {exc}"}
            return _answer_frames(frame_id, bytearray((OTHER,)), [None],
                                  {0: failed}, None, 0, 1)
    half = (start + stop) // 2
    return b"".join(_answer_frames(frame_id, status, cells, tail,
                                   retry_after, *span)
                    for span in ((start, half), (half, stop)))


def encode_answers(frame_id: int, runs: Sequence[Run]) -> bytes:
    """A call's answer frames, read from its terminal runs' status and
    answer columns into call order; a row whose answer alone passes
    :data:`MAX_FRAME_BYTES` is answered ``failed``, naming the ceiling."""
    rows = sum(len(run.keys) for run in runs)
    status = bytearray(rows)
    cells: List[Optional[bytes]] = [None] * rows
    tail: Dict[int, dict] = {}
    retry_after: Optional[int] = None
    for run in runs:
        if run.op == "get" and run.status.count(ANSWERED) == len(run.keys):
            for offset, answer in zip(run.offsets, run.answers):
                status[offset] = ANSWERED   # a bulk read's run
                cells[offset] = answer
            continue
        for row, (offset, code, answer) in enumerate(
                zip(run.offsets, run.status, run.answers)):
            status[offset] = code
            op = run.op if run.ops is None else run.ops[row]
            if code == OTHER:
                tail[offset] = _fields(answer)
            elif code == REFUSED:   # a missing hint counts one pump
                retry_after = max(retry_after or 0,
                                  run.refused.retry_after or 1)
            elif op == "get":
                cells[offset] = answer
            elif op in _FOUND and answer is not None:
                cells[offset] = b"\1" if answer else b"\0"
            elif op == "stats":
                tail[offset] = {"stats": answer}
            elif op == "similar" and answer is not None:
                tail[offset] = {"neighbors": [
                    [key.decode("latin-1"), float(score)]
                    for key, score in answer]}
    return _answer_frames(int(frame_id), status, cells, tail, retry_after,
                          0, rows)


def encode_status(frame_id: int, status: str,
                  error: Optional[str] = None,
                  retry_after: Optional[int] = None) -> bytes:
    """A whole-frame status (``draining``, ``bad_request``, a refused
    pipeline): one answer for every row of the call."""
    return encode_frame(_HEAD.pack(int(frame_id), STATUS, 0) + _json(
        _fields(Response(status, error=error, retry_after=retry_after))))


def _tail(body: bytes, pos: int) -> object:
    try:
        return json.loads(body[pos:] or b"{}")
    except ValueError as exc:
        raise ProtocolError(f"frame tail is not valid JSON: {exc}") from exc


def _response(fields: object) -> Response:
    try:
        return Response(**fields)
    except TypeError as exc:
        raise ProtocolError(f"answer {fields!r} is no Response: {exc}") \
            from exc


def decode_answers(body: bytes, run: Run, start: int) -> int:
    """Read one answer frame into ``run``'s status and answer columns
    from row ``start``, and a refusal into ``run.refused``; returns the
    row past the last one it answered (a status frame answers all)."""
    _, kind, rows = _head(body)
    if kind == STATUS:
        response = _response(_tail(body, _HEAD.size))
        run.status[start:] = bytes((OTHER,)) * (len(run.keys) - start)
        run.answers[start:] = [response] * (len(run.keys) - start)
        return len(run.keys)
    pos = _HEAD.size + rows
    if kind != ANSWERS or not 0 < rows <= len(run.keys) - start \
            or pos > len(body):
        raise ProtocolError(f"a kind-{kind} frame of {rows} rows does not "
                            f"answer rows {start}: of {len(run.keys)}")
    status = body[_HEAD.size:pos]
    if status.translate(None, bytes((ANSWERED, REFUSED, OTHER))):
        raise ProtocolError("answer carries an unknown status byte")
    cells, pos = _read_column(body, pos, rows, "answer", True)
    answers: list = [None] * rows if cells is None else cells
    if cells is not None and (run.ops is not None or run.op in _FOUND):
        answers = [cell if cell is None or run.op_at(row) not in _FOUND
                   else cell == b"\1"
                   for row, cell in enumerate(cells, start)]
    extra = _tail(body, pos)
    try:
        for row, fields in extra.get("rows", ()):
            if row not in range(rows):
                raise IndexError(f"tail row {row} of {rows}")
            if status[row] == OTHER:
                answers[row] = _response(fields)
            elif "stats" in fields:
                answers[row] = fields["stats"]
            else:
                answers[row] = [(key.encode("latin-1"), float(score))
                                for key, score in fields["neighbors"]]
    except (TypeError, ValueError, LookupError, AttributeError) as exc:
        raise ProtocolError(f"malformed answer tail: {exc!r}") from exc
    if OTHER in status and any(code == OTHER and not isinstance(
            answer, Response) for code, answer in zip(status, answers)):
        raise ProtocolError("answer carries no status")
    run.status[start:start + rows] = status
    run.answers[start:start + rows] = answers
    if REFUSED in status:
        run.refused = Response(REJECTED, retry_after=extra.get("retry_after"))
    return start + rows


__all__ = [
    "ANSWERS", "BAD_REQUEST", "DRAINING", "FrameDecoder", "MAX_FRAME_BYTES",
    "MIXED", "NONE", "ProtocolError", "STATUS", "call_spans",
    "decode_answers", "decode_call", "encode_answers", "encode_call",
    "encode_frame", "encode_status", "frame_id_of",
]
