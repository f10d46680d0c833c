"""Row placement: the state every routing flip must leave behind.

A key's shard is a pure function of its hash and the live routing
table.  Two pieces of the service keep it so: ``Service.reconfigure``
migrates the journal entries of moving keys and then sweeps every
queued row onto the new table, and ``Service._requeue`` re-routes the
rows a crash, drop or lost slot recovers.  :func:`misplaced` checks the
result directly, between pumps: every queued row and every journaled
key sits on the shard its key routes to.
"""

from __future__ import annotations

from typing import List, Tuple

# (shard it sits on, key)
Placement = Tuple[int, bytes]


def misplaced(service, journal: bool = True
              ) -> Tuple[List[Placement], List[Placement]]:
    """``(rows, keys)``: every queued row and, with ``journal``, every
    distinct journal key of ``service`` on a shard the live routing
    table does not route it to, as ``(shard, key)`` pairs.

    Routing uses the table's pure ``route_batch``, so no traffic
    counter or hot-key tracker sees the check.
    """
    table = service.router.table
    rows: List[Placement] = []
    keys: List[Placement] = []
    for worker in service.workers:
        shard = worker.shard_id
        queued = [ranges.run.keys[row] for ranges in worker.queue
                  for row in range(ranges.start, ranges.stop)]
        stored = (list(dict.fromkeys(entry[1]
                                     for entry in worker.journal.entries))
                  if journal else [])
        for found, held in ((rows, queued), (keys, stored)):
            if held:
                routes = table.route_batch(held)
                found += [(shard, key) for key, route in zip(held, routes)
                          if route != shard]
    return rows, keys


__all__ = ["misplaced"]
