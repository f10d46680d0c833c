"""Replay every committed shrunk repro under ``tests/repros/``.

Each JSON file is a minimal failing op sequence the differential fuzzer
(:mod:`repro.verify`) found against a since-fixed bug, shrunk by ddmin
and committed as a permanent regression test.  ``replay`` returning a
Failure means the bug is back.

To add one: take the shrunk repro a failing ``python -m repro fuzz``
run prints (or writes via ``--save-repros``), drop it in this
directory, and this module picks it up automatically.  A repro of a
serving preset is replayed a second time on process shards, since the
acked-order contract holds on both executions.
"""

from pathlib import Path

import pytest

from repro.service import fork_available
from repro.verify import TARGETS, ServingTarget, load_repro, replay

REPRO_DIR = Path(__file__).parent / "repros"
REPRO_FILES = sorted(REPRO_DIR.glob("*.json"))
SERVING_REPROS = [
    path for path in REPRO_FILES
    if issubclass(TARGETS[load_repro(path)["target"]], ServingTarget)
]


def test_repro_corpus_is_nonempty():
    assert len(REPRO_FILES) >= 4


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[p.stem for p in REPRO_FILES]
)
def test_repro_stays_fixed(path):
    repro = load_repro(path)
    failure = replay(repro)
    assert failure is None, (
        f"regression: {path.name} diverged again at op "
        f"{failure.op_index}: {failure.error}\n"
        f"(originally: {repro.get('error')})"
    )


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
@pytest.mark.parametrize(
    "path", SERVING_REPROS, ids=[p.stem for p in SERVING_REPROS]
)
def test_serving_repro_stays_fixed_on_process_shards(path):
    repro = load_repro(path)
    repro["config"] = {**repro["config"], "execution": "process"}
    failure = replay(repro)
    assert failure is None, (
        f"regression: {path.name} diverged on process shards at op "
        f"{failure.op_index}: {failure.error}"
    )


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[p.stem for p in REPRO_FILES]
)
def test_repro_is_well_formed(path):
    repro = load_repro(path)
    assert set(repro) >= {"target", "config", "ops", "error"}
    assert isinstance(repro["ops"], list) and repro["ops"]
    for op in repro["ops"]:
        assert isinstance(op, dict) and "op" in op
