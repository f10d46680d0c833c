"""Per-request views of ``Service.submit`` for tests.

``Service.submit`` admits one call as columns and returns one run per
shard.  :func:`submit` gives each request of the call its ``(run,
row)`` as a :class:`Row`, which reads that request's answer, shard and
request id from the run's columns.
"""

from typing import List, NamedTuple, Optional, Sequence

from repro.service import Request, Service
from repro.service.protocol import REFUSED, Response, Run


class Row(NamedTuple):
    """One request's row of an admitted run."""

    run: Run
    row: int

    @property
    def response(self) -> Optional[Response]:
        """The row's answer (None while it is pending)."""
        return self.run.response(self.row)

    @property
    def rejected(self) -> bool:
        return self.run.status[self.row] == REFUSED

    @property
    def shard(self) -> Optional[int]:
        return self.run.shard_of(self.row)

    @property
    def request_id(self) -> int:
        return self.run.request_id(self.row)


def submit(service: Service, requests: Sequence[Request]) -> List[Row]:
    """Admit ``requests`` as one ``service.submit`` call; one row per
    request, in call order."""
    rows: List[Optional[Row]] = [None] * len(requests)
    for run in service.submit([request.op for request in requests],
                              [request.key for request in requests],
                              [request.value for request in requests]):
        for row, offset in enumerate(run.offsets):
            rows[offset] = Row(run, row)
    return rows  # type: ignore[return-value]


def submit_one(service: Service, request: Request) -> Row:
    """Admit one request as a call of its own."""
    return submit(service, [request])[0]
