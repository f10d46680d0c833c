"""The differential harness itself: targets, generators, shrinker, CLI."""

import json
import random

import pytest

from repro.engine.engine import _PACK_CHUNK, SCALAR_CUTOVER
from repro.tables.probing import _ROUND_MIN
from repro.verify import (
    TARGETS,
    Divergence,
    fuzz,
    run_ops,
    shrink,
)
from repro.verify.ops import (
    decode_key,
    encode_key,
    generate_table_ops,
    make_key_pool,
)
from repro.verify.runner import Failure
from repro.verify.targets import build_hasher


ALL_TARGETS = sorted(TARGETS)


def test_covers_required_structure_families():
    # The harness must span tables, filters, sketches, the store, and
    # the engine itself.
    assert set(ALL_TARGETS) >= {
        "chaining", "probing", "cuckoo_table",
        "bloom", "counting_bloom", "cuckoo_filter",
        "hll", "countmin", "minhash",
        "lsm", "engine", "reducers",
    }


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_target_runs_clean_on_fixed_code(name):
    report = fuzz(name, seed=1234, cases=3, ops_per_case=80)
    assert report.ok, report.failure.to_repro()
    assert report.cases == 3


SERVING_PRESETS = ("service", "chaos", "reshard", "drift", "frontdoor",
                   "similarity")


@pytest.mark.parametrize("name", SERVING_PRESETS)
def test_serving_presets_catch_dropped_put(name, monkeypatch):
    # A shard that silently drops the last key of a multi-key put
    # segment but acks the whole segment: every preset's oracle must
    # notice the lost acknowledged write.
    from repro.service.core import ShardCore

    serve_segment = ShardCore.serve_segment

    def dropping(self, op, keys, values=None, hashes=None, plan=None):
        if op == "put" and len(keys) >= 2:
            _, acks = serve_segment(
                self, op, keys[:-1], list(values)[:-1],
                None if hashes is None else hashes[:-1], plan,
            )
            return ("put", None if acks is None else list(acks) + [True])
        return serve_segment(self, op, keys, values, hashes, plan)

    monkeypatch.setattr(ShardCore, "serve_segment", dropping)
    report = fuzz(name, seed=1234, cases=3, ops_per_case=80,
                  shrink_failures=False)
    assert not report.ok


# The step each serving preset exists for, as the op names its stream
# must end with.
_DRIFT_WINDOW = ["inject"] + (["put"] * 4 + ["pump"]) * 12
_PRESET_TAILS = {
    "service": ["drain"],
    "similarity": ["drain"],
    "chaos": ["settle", "drain"],
    "reshard": ["split", "settle", "drain"],
    "drift": _DRIFT_WINDOW + ["settle", "drain"],
    "frontdoor": ["split", "multi_get"],
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(_PRESET_TAILS))
def test_serving_preset_stream_ends_with_its_step(name, seed):
    ops = TARGETS[name].generate_ops(random.Random(seed), 40)
    tail = ops[-len(_PRESET_TAILS[name]):]
    assert [op["op"] for op in tail] == _PRESET_TAILS[name]
    if name == "reshard":
        assert "keys" not in tail[0]  # an in-process split_shard
    elif name == "drift":
        assert tail[0] == {"op": "inject", "kind": "drift", "shard": 0,
                           "count": 1}
        puts = [op["v"] for op in tail if op["op"] == "put"]
        assert puts == sorted(set(puts)) and len(puts) == 48
    elif name == "frontdoor":
        racing, head = tail
        assert len(racing["keys"]) >= 3 and racing["v"] >= len(racing["keys"])
        assert [decode_key(k) for k in head["keys"]] == [
            b"key-%04d" % i for i in range(16)
        ]


def test_key_encoding_roundtrip():
    pool = make_key_pool(random.Random(0))
    for key in pool:
        assert decode_key(encode_key(key)) == key


def test_engine_stream_straddles_every_cutover():
    # Batches on both sides of each base's cutover: the fuzz compares
    # the numpy plans, not only the scalar loop, against the reference.
    ops = TARGETS["engine"].generate_ops(random.Random(0), 120)
    sizes = [len(op["keys"]) for op in ops if op["op"] == "hash_batch"]
    assert min(sizes) < min(SCALAR_CUTOVER.values())
    assert max(sizes) >= max(SCALAR_CUTOVER.values())


def test_engine_stream_straddles_the_pack_chunk():
    # Batches a few keys either side of one and two chunks: the fuzz
    # checks the chunked plan pass against the reference.
    ops = TARGETS["engine"].generate_ops(random.Random(0), 120)
    sizes = [len(op["keys"]) for op in ops if op["op"] == "hash_batch"]
    assert any(_PACK_CHUNK - 3 <= n < _PACK_CHUNK for n in sizes)
    assert any(n > _PACK_CHUNK for n in sizes)


def test_table_stream_straddles_probe_round_threshold():
    # Batch probes on both sides of _ROUND_MIN: the ProbeStats parity
    # invariant checks the vectorized rounds, not only the scalar walk.
    ops = generate_table_ops(random.Random(0), 120)
    sizes = [len(op["keys"]) for op in ops if op["op"] == "probe_batch"]
    assert min(sizes) < _ROUND_MIN
    assert max(sizes) >= _ROUND_MIN


def test_generators_are_deterministic():
    ops_a = generate_table_ops(random.Random(99), 60)
    ops_b = generate_table_ops(random.Random(99), 60)
    assert ops_a == ops_b
    assert ops_a != generate_table_ops(random.Random(100), 60)


def test_ops_are_json_serializable():
    for name in ALL_TARGETS:
        cls = TARGETS[name]
        rng = random.Random(5)
        config = cls.random_config(rng)
        ops = cls.generate_ops(rng, 40)
        roundtrip = json.loads(json.dumps({"config": config, "ops": ops}))
        assert roundtrip["ops"] == ops


def test_build_hasher_specs():
    partial = build_hasher(
        {"positions": [0, 4], "word_size": 2, "base": "wyhash", "seed": 3}
    )
    assert not partial.partial_key.is_full_key
    assert partial.seed == 3
    full = build_hasher({"full_key": True, "base": "xxh3"})
    assert full.partial_key.is_full_key


def test_run_ops_reports_divergence_index():
    # An impossible oracle expectation: get before any insert, then make
    # the oracle disagree by inserting only into the oracle's view via a
    # crafted bogus op name (the target must reject unknown ops).
    config = TARGETS["probing"].default_config()
    failure = run_ops("probing", config, [{"op": "no_such_op"}])
    assert failure is not None
    assert failure.op_index == 0
    assert "no_such_op" in failure.error


class _BrokenTarget:
    """Synthetic target: fails iff ops contain >= 3 'bad' markers."""

    name = "_broken"

    def __init__(self, config):
        self.bad_seen = 0

    @classmethod
    def default_config(cls):
        return {}

    def apply(self, op):
        if op["op"] == "bad":
            self.bad_seen += 1
            if self.bad_seen >= 3:
                raise Divergence("three bad ops")

    def final_check(self):
        pass


@pytest.fixture
def broken_target():
    TARGETS["_broken"] = _BrokenTarget
    try:
        yield
    finally:
        del TARGETS["_broken"]


def test_shrinker_minimizes_to_exact_trigger(broken_target):
    ops = []
    rng = random.Random(7)
    for i in range(60):
        ops.append({"op": "bad" if rng.random() < 0.3 else "noise", "i": i})
    ops += [{"op": "bad", "i": 100 + j} for j in range(3)]  # guarantee trigger
    failure = run_ops("_broken", {}, ops)
    assert failure is not None
    shrunk = shrink(failure)
    assert [op["op"] for op in shrunk.ops] == ["bad", "bad", "bad"]


def test_shrinker_keeps_call_op_codes_on_their_keys(monkeypatch):
    # A serving ``call`` op zips its ``ops`` codes with its ``keys``, so
    # the two must shrink in lockstep.  This failure holds while some
    # row pairs code ``d`` with key ``c``.
    from repro.verify import runner

    def still_fails(failure, ops):
        for op in ops:
            if ("d", "c") in zip(op.get("ops", ""), op.get("keys", ())):
                return Failure(failure.target, failure.config, ops, 0,
                               "pair present")
        return None

    monkeypatch.setattr(runner, "_still_fails", still_fails)
    call = {"op": "call", "keys": ["a", "b", "c", "d"], "v": 0,
            "ops": "pgdc"}
    shrunk = shrink(Failure("service", {}, [call], 0, "pair present"))
    [op] = shrunk.ops
    assert len(op["ops"]) == len(op["keys"])
    assert (op["ops"], op["keys"]) == ("d", ["c"])


def test_clean_batch_ops_do_not_fail():
    config = TARGETS["probing"].default_config()
    ops = [{"op": "insert_batch",
            "keys": [encode_key(b"k%d" % i) for i in range(6)],
            "values": list(range(6))},
           {"op": "check_items"}]
    assert run_ops("probing", config, ops) is None


def test_failure_roundtrips_through_repro_dict(tmp_path):
    from repro.verify import load_repro, replay, save_repro

    failure = Failure(
        target="probing",
        config=TARGETS["probing"].default_config(),
        ops=[{"op": "check_items"}],
        op_index=0,
        error="synthetic",
        seed=42,
    )
    path = tmp_path / "r.json"
    save_repro(path, failure.to_repro())
    repro = load_repro(path)
    assert repro["target"] == "probing"
    assert replay(repro) is None  # check_items alone cannot fail


# ------------------------------------------------------------------ CLI


def test_cli_fuzz_list(capsys):
    from repro.cli import main

    assert main(["fuzz", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(ALL_TARGETS)


def test_cli_fuzz_single_structure(capsys):
    from repro.cli import main

    assert main(["fuzz", "--structure", "reducers",
                 "--seed", "3", "--cases", "2", "--ops", "40"]) == 0
    assert "reducers" in capsys.readouterr().out


def test_cli_fuzz_rejects_unknown_structure():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["fuzz", "--structure", "nonsense"])


def test_cli_fuzz_failure_exit_code_and_artifact(tmp_path, capsys):
    from repro import cli
    from repro.verify.runner import FuzzReport

    def fake_fuzz(name, seed=0, cases=10, ops_per_case=120):
        report = FuzzReport(target=name, cases=1, ops_run=3)
        report.failure = Failure(
            target=name, config={}, ops=[{"op": "bad"}] * 3,
            op_index=2, error="three bad ops", seed=seed,
        )
        return report

    # cmd_fuzz imports `fuzz` from repro.verify at call time, so
    # patching the package attribute intercepts it.
    import repro.verify as verify_pkg

    original = verify_pkg.fuzz
    verify_pkg.fuzz = fake_fuzz
    try:
        code = cli.main([
            "fuzz", "--structure", "probing",
            "--save-repros", str(tmp_path),
        ])
    finally:
        verify_pkg.fuzz = original
    assert code == 1
    saved = list(tmp_path.glob("*.json"))
    assert len(saved) == 1
    text = saved[0].read_text()
    assert "three bad ops" in text
    assert "DIVERGED" in capsys.readouterr().out


def test_cli_fuzz_execution_pins_every_serving_target(monkeypatch):
    # --execution reaches any ServingTarget, including one registered
    # after the CLI was written, and no structure target.
    from repro import cli
    import repro.verify as verify_pkg
    from repro.verify import ServingTarget
    from repro.verify.runner import FuzzReport

    seen = {}

    def fake_fuzz(name, seed=0, cases=10, ops_per_case=120, **kwargs):
        seen[name] = kwargs
        return FuzzReport(target=name, cases=1, ops_run=1)

    monkeypatch.setitem(TARGETS, "_preset", type(
        "Preset", (ServingTarget,), {"name": "_preset"}))
    monkeypatch.setattr(verify_pkg, "fuzz", fake_fuzz)
    for name in ("_preset", "probing"):
        assert cli.main(["fuzz", "--structure", name,
                         "--execution", "process"]) == 0
    assert seen == {
        "_preset": {"config_overrides": {"execution": "process"}},
        "probing": {},
    }
