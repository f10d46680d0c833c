"""The stats scrape's contract: every ``stats()`` keeps its names and values.

``tests/data/stats_contract.json`` holds ``service.stats()`` (and the
router engine's ``stats()``) after a fixed-seed run of each scenario
below, JSON-encoded the way the ``stats`` verb and ``serve --json``
encode it.  Inline runs are deterministic, so their scrapes must match
value for value.  Process execution and the socket front door add a
child pid, a port and timing-dependent counters, so there the test
compares key paths and value types only.

Regenerate the data (only when a scrape's shape changes on purpose)
with ``PYTHONPATH=src python tests/test_stats_contract.py``.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.faults import make_plane
from repro.metrics import Histogram, Reported, bucket
from repro.service import (
    FrontDoorThread,
    NetworkClient,
    Service,
    ServiceClient,
    fork_available,
)
from repro.workloads import WorkloadGenerator

DATA = pathlib.Path(__file__).parent / "data" / "stats_contract.json"

# Every structure backend, then one service with every optional block:
# hot-key tracking (``routing.tracker``), an armed fault plane
# (``faults``) and drift re-learning (``drift``).
SCENARIOS = {
    backend: dict(backend=backend)
    for backend in ("chaining", "probing", "lsm", "bloom", "cuckoo_filter",
                    "similarity")
}
SCENARIOS["armed"] = dict(
    backend="chaining", hot_k=4, adapt_every=4, relearn=True,
    drift_window=64, min_dwell=8,
    fault_plane=("crash:worker:1:count=2", "drop:worker:2:after=5"),
)


def _corpus():
    return google_urls(400, seed=21)


def _service(corpus, execution, backend, fault_plane=(), **kwargs):
    service = Service(
        num_shards=3, backend=backend,
        model=train_model(corpus, fixed_dataset=True),
        capacity=1024, max_queue=64, batch_size=8, seed=0,
        execution=execution, **kwargs,
    )
    if fault_plane:
        service.arm_fault_plane(make_plane(list(fault_plane), seed=7))
    return service


def _run(client, corpus):
    """Preload, then a mix A stream as one call per run of one op kind:
    the call sequence the data file's scrapes were captured with.  The
    sequence is written out here so that the contract pins the scrape,
    not the workload driver's batching."""
    client.put_many((key, b"v0") for key in corpus)
    operations = WorkloadGenerator(corpus, mix="A", seed=3).operations(600)
    for read, run in itertools.groupby(operations,
                                       key=lambda op: op.kind == "read"):
        if read:
            client.multi_get([op.key for op in run])
        else:
            client.put_many([(op.key, op.value) for op in run])


def _encoded(stats):
    return json.loads(json.dumps(stats, sort_keys=True))


def scrape(name, execution="inline"):
    """``{"service": ..., "engine": ...}`` after scenario ``name``'s run."""
    corpus = _corpus()
    service = _service(corpus, execution, **SCENARIOS[name])
    try:
        _run(ServiceClient(service), corpus)
        service.drain()
        return _encoded({"service": service.stats(),
                         "engine": service.router.engine.stats()})
    finally:
        service.close()


def scrape_socket():
    """``NetworkClient.stats()`` (with its ``frontdoor`` block) after a
    chaining run over a real socket."""
    corpus = _corpus()
    service = _service(corpus, "inline", "chaining")
    try:
        with FrontDoorThread(service) as door:
            with NetworkClient("127.0.0.1", door.port) as client:
                _run(client, corpus)
                return _encoded(client.stats())
    finally:
        service.close()


def shape(value, path=""):
    """``{key path: JSON type name}`` for every node of a scrape."""
    out = {path: type(value).__name__}
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        out.update(shape(item, f"{path}/{key}"))
    return out


def capture():
    return {
        "inline": {name: scrape(name) for name in SCENARIOS},
        "process": {name: scrape(name, "process")
                    for name in ("chaining", "armed")},
        "socket": scrape_socket(),
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_inline_scrape_is_unchanged(expected, name):
    assert scrape(name) == expected["inline"][name]


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
@pytest.mark.parametrize("name", ["chaining", "armed"])
def test_process_scrape_keeps_its_shape(expected, name):
    assert shape(scrape(name, "process")) == shape(expected["process"][name])


def test_socket_scrape_keeps_its_shape(expected):
    assert shape(scrape_socket()) == shape(expected["socket"])


def test_armed_scenario_reports_every_optional_block(expected):
    service = expected["inline"]["armed"]["service"]
    assert {"drift", "faults"} <= set(service)
    assert "tracker" in service["routing"]
    assert "execution" in expected["process"]["armed"]["service"]["shards"][0]
    assert "frontdoor" in expected["socket"]


def _strict(text):
    """``text`` parsed as standard JSON: ``Infinity`` and ``NaN`` raise."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_serve_json_and_socket_stats_are_standard_json(capsys):
    from repro.cli import main

    # The armed scenario's drift detectors claim infinite entropy.
    assert main([
        "serve", "--shards", "3", "--backend", "chaining", "--ops", "600",
        "--num-keys", "400", "--seed", "0", "--relearn", "--drift-window",
        "64", "--min-dwell", "8", "--hot-k", "4", "--adapt-every", "4",
        "--inject", "crash:worker:1:count=2",
        "--inject", "drop:worker:2:after=5", "--json",
    ]) == 0
    payload = _strict(capsys.readouterr().out)
    drift = payload["stats"]["drift"]["shards"].values()
    assert None in [shard["claimed_entropy"] for shard in drift]
    corpus = _corpus()
    service = _service(corpus, "inline", **SCENARIOS["armed"])
    try:
        with FrontDoorThread(service) as door:
            with NetworkClient("127.0.0.1", door.port) as client:
                _run(client, corpus)
                decoder = client.transport.decoder
                feed = decoder.feed
                tails = []

                def recording(data):
                    for body in feed(data):
                        # The answer tail: a JSON object after the columns.
                        tails.append(body[body.index(b'{"rows"'):])
                        yield body

                decoder.feed = recording
                client.stats()
    finally:
        service.close()
    [tail] = tails
    [(_, fields)] = _strict(tail)["rows"]
    drift = fields["stats"]["drift"]["shards"].values()
    assert None in [shard["claimed_entropy"] for shard in drift]


class _Part(Reported):
    REPORTS = ("count", "ratio=_ratio")

    def __init__(self):
        self.count = np.int64(3)

    def _ratio(self):
        return np.float64(0.5)


class _Whole(Reported):
    REPORTS = ("*part", "spare?", "absent", "counts", "pair", "parts",
               "sizes=histogram")

    def __init__(self):
        self.part = _Part()
        self.spare = None
        self.absent = None
        self.counts = {"a": [1, 2]}
        self.pair = (1, 2)
        self.parts = {7: _Part()}
        self.histogram = Histogram({bucket(9): 1, bucket(1): 2})


def test_scrape_walks_declared_names():
    whole = _Whole()
    stats = whole.stats()
    assert stats == {
        "count": 3, "ratio": 0.5, "absent": None, "counts": {"a": [1, 2]},
        "pair": [1, 2], "parts": {7: {"count": 3, "ratio": 0.5}},
        "sizes": {"1": 2, "8-15": 1},
    }
    assert type(stats["count"]) is int and type(stats["ratio"]) is float
    assert list(stats["sizes"]) == ["1", "8-15"]
    stats["counts"]["a"].append(3)
    assert whole.counts == {"a": [1, 2]}


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
