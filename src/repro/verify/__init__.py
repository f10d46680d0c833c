"""Differential correctness harness for every ELH structure.

Each structure is driven through seeded random op sequences three ways
at once — the real batch-path *subject*, an identically-configured
scalar-path *shadow*, and a trusted naive *oracle* — and any
disagreement is shrunk to a minimal, JSON-serializable repro.

Entry points::

    python -m repro fuzz --structure probing --seed 7 --ops 200
    python -m repro fuzz --structure all --ci

Programmatic::

    from repro.verify import fuzz, replay, load_repro
    report = fuzz("counting_bloom", seed=1, cases=20)
    assert report.ok, report.failure.to_repro()

Shrunk repros live under ``tests/repros/`` and replay forever as
regression tests (``tests/test_repros.py``).
"""

from repro.verify.ops import load_repro, save_repro
from repro.verify.placement import misplaced
from repro.verify.runner import (
    Failure,
    FuzzReport,
    fuzz,
    fuzz_all,
    replay,
    run_ops,
    shrink,
)
from repro.verify.targets import (
    TARGETS,
    Divergence,
    ServingTarget,
    Target,
    build_hasher,
)

__all__ = [
    "Divergence",
    "Failure",
    "FuzzReport",
    "ServingTarget",
    "TARGETS",
    "Target",
    "build_hasher",
    "fuzz",
    "fuzz_all",
    "load_repro",
    "misplaced",
    "replay",
    "run_ops",
    "save_repro",
    "shrink",
]
