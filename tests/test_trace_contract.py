"""The e2e tracer's contract with the library.

``benchmarks/e2e/trace.py`` wraps public entry points from outside, by
name, and reads some of their arguments by position.  A renamed or
moved method would otherwise surface only in the e2e benchmark run.
"""

import inspect

from benchmarks.e2e.trace import LAYERS, Tracer
from repro.core.hasher import EntropyLearnedHasher
from repro.service import Service, ServiceClient, ShardCore


def test_every_traced_entry_point_is_defined_on_its_owner():
    # The tracer swaps ``owner.__dict__[attr]``: an inherited or
    # renamed method would raise a KeyError when it installs.
    missing = [
        (layer, owner.__name__, attr)
        for layer, points in LAYERS.items()
        for owner, attr, _ in points
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_serve_segment_takes_keys_second():
    # The core.serve_segment item count reads the keys at args[2]:
    # self, then op, then keys.
    names = list(inspect.signature(ShardCore.serve_segment).parameters)
    assert names[:3] == ["self", "op", "keys"]


def test_admission_is_traced_on_every_round():
    # The ``service.submit`` layer wraps the one admission API by name:
    # an overflowing multi_get books its first round (``submit``) and
    # each retry round (``submit_batch`` of the held runs) there, each
    # as one admission span directly under the client's span.
    service = Service(num_shards=2, backend="chaining", capacity=64,
                      max_queue=4, batch_size=4,
                      hasher=EntropyLearnedHasher.from_positions((0, 8)))
    client = ServiceClient(service)
    keys = [b"trace-key-%02d" % i for i in range(24)]
    tracer = Tracer().install()
    try:
        assert client.multi_get(keys) == [None] * len(keys)
    finally:
        tracer.uninstall()
        service.close()
    assert client.retries > 0
    [call] = [span[0] for span in tracer.spans if span[3] == "client"]
    rounds = [span for span in tracer.spans
              if span[3] == "service.submit" and span[1] == call]
    assert len(rounds) >= 2
