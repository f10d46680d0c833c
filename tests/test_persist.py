"""Tests for model serialization (repro.core.persist)."""

import json
import math

import numpy as np
import pytest

from repro.core.persist import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.trainer import train_model


@pytest.fixture(scope="module")
def trained(google_corpus=None):
    from repro.datasets import google_urls

    return train_model(google_urls(800, seed=3), fixed_dataset=True)


class TestRoundTrip:
    def test_positions_survive(self, trained, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.result.positions == trained.result.positions
        assert loaded.result.word_size == trained.result.word_size

    def test_entropies_survive_including_inf(self, trained):
        payload = model_to_dict(trained)
        loaded = model_from_dict(payload)
        assert loaded.result.entropies == trained.result.entropies

    def test_hashers_identical_after_round_trip(self, trained, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        a = trained.hasher_for_probing_table(500, seed=7)
        b = loaded.hasher_for_probing_table(500, seed=7)
        key = b"http://static1.example-images.com/photos/1234/abc_def.jpg"
        assert a(key) == b(key)

    def test_base_hash_survives(self, tmp_path):
        from repro.datasets import uuid_keys

        model = train_model(uuid_keys(300), base="xxh3", fixed_dataset=True)
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).base == "xxh3"

    def test_file_is_valid_json(self, trained, tmp_path):
        path = tmp_path / "m.json"
        save_model(trained, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1

    def test_inf_encoded_as_string(self, trained):
        payload = model_to_dict(trained)
        assert all(
            e == "inf" or isinstance(e, float) for e in payload["entropies"]
        )


class TestEnginePlans:
    """A reloaded model must feed the HashEngine byte-identical plans —
    the serve-path cold-start guarantee (train once, load everywhere)."""

    def _corpus(self):
        from repro.datasets import google_urls

        return google_urls(400, seed=9)

    def test_partial_key_plan_bytes_identical(self, trained, tmp_path):
        from repro.engine.plan import compile_subkey_plan, join_keys

        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        a = trained.hasher_for_probing_table(500, seed=2)
        b = loaded.hasher_for_probing_table(500, seed=2)
        assert not a.partial_key.is_full_key
        plan_a = compile_subkey_plan(a.partial_key, a.base.name)
        plan_b = compile_subkey_plan(b.partial_key, b.base.name)
        assert plan_a.width == plan_b.width
        assert plan_a.cutoff == plan_b.cutoff
        assert (plan_a.positions, plan_a.word_size) == (
            plan_b.positions, plan_b.word_size)
        keys = [k for k in self._corpus() if len(k) >= plan_a.cutoff]
        blob, starts, lengths = join_keys(keys)
        matrix_a = plan_a.rows(blob, starts, lengths)
        matrix_b = plan_b.rows(blob, starts, lengths)
        assert matrix_a.tobytes() == matrix_b.tobytes()

    def test_engine_batches_identical_after_reload(self, trained, tmp_path):
        from repro.engine import HashEngine

        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        keys = self._corpus()
        engine_a = HashEngine(trained.hasher_for_chaining_table(400, seed=1))
        engine_b = HashEngine(loaded.hasher_for_chaining_table(400, seed=1))
        got_a = [int(h) for h in engine_a.hash_batch(keys)]
        got_b = [int(h) for h in engine_b.hash_batch(keys)]
        assert got_a == got_b

    def test_service_router_stable_across_reload(self, trained, tmp_path):
        from repro.service import ShardRouter

        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        keys = self._corpus()
        router_a = ShardRouter.from_model(trained, 8, expected_items=400)
        router_b = ShardRouter.from_model(loaded, 8, expected_items=400)
        assert [np.asarray(c).tolist() for c in router_a.route_batch(keys)] \
            == [np.asarray(c).tolist() for c in router_b.route_batch(keys)]


class TestValidation:
    def test_rejects_unknown_version(self, trained):
        payload = model_to_dict(trained)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(payload)

    def test_rejects_missing_version(self, trained):
        payload = model_to_dict(trained)
        del payload["format_version"]
        with pytest.raises(ValueError):
            model_from_dict(payload)
