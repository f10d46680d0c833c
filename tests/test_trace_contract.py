"""The e2e tracer's contract with the library.

``benchmarks/e2e/trace.py`` wraps public entry points from outside, by
name, and reads some of their arguments by position.  A renamed or
moved method would otherwise surface only in the e2e benchmark run.
"""

import inspect

from benchmarks.e2e.trace import LAYERS
from repro.service import ShardCore


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
